"""Two analytic routes to the return probability P[0,t].

The amplitude of returning to the start vertex after t steps is the spectral
sum 2^-n sum_m C(n,m) T_t(1 - 2m/n); for even t it also equals
t |int_0^inf x^-1 J_t(x) cos^n(x/n) dx|.  This module evaluates both,
independently of the simulator: the Chebyshev sum with correctly rounded
binomial weights and one math.fsum, and the Bessel integral as a bulk on the
real axis plus one integral up a vertical ray.

The zeros of cos^n(x/n) sit at n a_k with a_k = (k - 0.5) pi: the bulk I_0
covers [0, n a_1], and segment k, I_k, covers [n a_k, n a_(k+1)].  The sum of
all segments is one ray integral (DLMF 10.4 and 10.11): write
J = (H1 + H2)/2, turn the H1 part up and the H2 part down from n a_1; the two
rays are complex conjugates, so
sum_{k>=1} I_k = Re int_0^inf H1_nu(z) cos^n(z/n)/z i dy at z = n pi/2 + iy,
with nothing truncated.  axis_integrals runs real-axis pieces (n, nu, k),
bulks and segments of any dimensions, through one Bessel table of orders x
nodes per (n, k), and ray_integrals the rays of pieces (n, nu) through
specfun._hankel_ray: one call of the numpy-only seeds specfun._hankel01e on
every ray's nodes plus one pass of the shared upward recurrence,
specfun._upward.  Both return (values, errors) arrays, and a row does not
depend on its batch.  bulk_integral and segment_integral are one-piece
calls of axis_integrals.  _top(n), the largest order below n pi/2 and at
most MAX_ORDER, tops every table and bounds every order and the steps of
bessel_steps, the route's domain for the p0 command.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from math import ceil, comb, fsum, pi, sqrt
from typing import NamedTuple

import numpy as np

from ._quadrature import NODES, REFINED_NODES, gauss_legendre, panel_quad_with_error
from .specfun import (MAX_ORDER, _checked, _hankel_ray, beta_half_integrals, bessel_table,
                      chebyshev_T)

__all__ = [
    "SegmentIntegral",
    "p0_amplitude_chebyshev",
    "axis_integrals",
    "segment_integral",
    "bulk_integral",
    "ray_integrals",
    "segment_tail_bound",
    "BesselAmplitude",
    "p0_amplitude_bessel",
    "p0_amplitudes_bessel",
    "bessel_steps",
]


# Floats one group of axis_integrals tables may hold at once, 0.54 MB of
# float64: at each node of both quadrature rules, one per order of the
# group's largest table plus _NODE_STATE for the recurrences, weight and
# quadrature.  The 46 bulks of p0 at n = 60 take one group.
_TABLE_BUDGET = 68_000
_NODE_STATE = 9

# Nodes per panel of one panel_quad_with_error call: both rules' nodes
_PANEL_NODES = NODES + REFINED_NODES

# Uniform panels of the ray integral in u in [0, 1], where y = n u^2/(1 - u)^2
_RAY_PANELS = 16


class SegmentIntegral(NamedTuple):
    """One piece of the Bessel integral plus its quadrature error estimate."""

    k: int
    value: float
    quad_error: float


def p0_amplitude_chebyshev(n: int, t: int) -> float:
    """Signed return amplitude: 2^-n sum_m C(n,m) T_t(1 - 2m/n).

    Its square is P[0,t].  Each weight C(n,m)/2^n is one correctly rounded
    division of integers and the heavily cancelling sum is math.fsum, so the
    error is mostly that of the cosines T_t = cos(t arccos z): within
    1.6 (t + 1) u, u = 2^-53, of the exact amplitude for n <= 60 and even
    t <= 180.  At odd t the amplitude is exactly 0: T_t is odd and the
    weights are symmetric under m <-> n - m, which maps 1 - 2m/n to its
    negative, so the terms cancel in pairs.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    if t % 2:
        return 0.0
    return fsum(comb(n, m) / 2**n * chebyshev_T(t, 1.0 - 2.0 * m / n) for m in range(n + 1))


def _weight(n: int, x: np.ndarray) -> np.ndarray:
    """cos^n(x/n)/x as |cos|^n, signed for odd n: numpy's vector pow is slow on negative bases."""
    c = np.cos(x / n)
    w = np.abs(c) ** n
    if n % 2:
        np.copysign(w, c, out=w)
    return w / x


def _segment_edges(n: int, k: int) -> np.ndarray:
    # max(4, n) uniform panels on [n a_k, n a_(k+1)], none wider than pi
    return np.linspace(n * (k - 0.5) * pi, n * (k + 0.5) * pi, max(4, n) + 1)


def _converged(pieces: list[str], values, errs) -> None:
    """Raise for the first entry whose error exceeds its tolerance.

    pieces names each entry of values and errs, for the message.
    """
    values, errs = np.atleast_1d(values, errs)
    tol = np.maximum(1e-14, 1e-6 * np.abs(values))
    failed = np.flatnonzero(errs > tol)
    if failed.size:
        i = failed[0]
        raise ArithmeticError(
            f"quadrature for {pieces[i]} did not converge: "
            f"estimated error {errs[i]:.3e} exceeds {tol[i]:.3e}"
        )


def _groups(tables: list, budget: int):
    """Slices of consecutive tables (rows, nodes) within budget, or of one table."""
    lo = rows = nodes = 0
    for i, (r, m) in enumerate(tables):
        if i > lo and (max(rows, r) + _NODE_STATE) * (nodes + m) > budget:
            yield slice(lo, i)
            lo, rows, nodes = i, 0, 0
        rows, nodes = max(rows, r), nodes + m
    if tables:
        yield slice(lo, len(tables))


def _top(n: int) -> int:
    """The largest order dimension n admits: the largest integer below n pi/2, <= MAX_ORDER."""
    return min(ceil(n * pi / 2) - 1, MAX_ORDER)


def _check_orders(dims, orders) -> list[int]:
    """The orders as ints, once each is a Bessel order with 1 <= nu <= _top(n), n its dims entry."""
    for n in dims:
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
    orders = _checked(orders).tolist()
    for n, nu in zip(dims, orders):
        if not 1 <= nu <= _top(n):
            raise ValueError(f"order must satisfy 1 <= nu < n pi/2, got nu={nu}, n={n}")
    return orders


@lru_cache(maxsize=1)
def _panel_order() -> tuple[np.ndarray, np.ndarray]:
    # The increasing order of one panel's nodes, laid out [NODES |
    # REFINED_NODES], and its inverse.  Every panel's nodes are one increasing
    # affine image of the two rules' unit nodes, so one order serves them all.
    # A stable sort, as in specfun._upward: numpy's default kind would page
    # in another 256 kB of its sorting code
    unit = np.concatenate([gauss_legendre(NODES)[0], gauss_legendre(REFINED_NODES)[0]])
    order = np.argsort(unit, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return order, rank


def _bulk_edges(n: int) -> np.ndarray:
    # at least four uniform panels no wider than pi, the same for every order
    return np.linspace(0.0, n * pi / 2, max(4, -(-n // 2)) + 1)


def axis_integrals(pieces) -> tuple[np.ndarray, np.ndarray]:
    """I_k and its quadrature error for every piece (n, nu, k), as (values, errors) arrays.

    k = 0 is the bulk on [0, n a_1] and k >= 1 segment k on
    [n a_k, n a_(k+1)].  The panels depend on (n, k) alone, so the pieces of
    one (n, k) share one Bessel table of their orders, its top _top(n), and
    one specfun.bessel_table call on the nodes of both quadrature rules, each
    panel's in increasing order, fills each group of tables within
    _TABLE_BUDGET.  A row does not depend on its batch; the first
    piece that did not converge raises.
    """
    pieces = list(pieces)
    orders = _check_orders([n for n, _, _ in pieces], [nu for _, nu, _ in pieces])
    rows = {}  # (n, k) -> its orders, each once
    for (n, _, k), nu in zip(pieces, orders):
        if k < 0:
            raise ValueError(f"segment index must be >= 0, got {k}")
        rows.setdefault((n, k), {})[nu] = None
    # bulks first, so that the tables that need Miller's sweep share as few
    # sweeps as the budget allows; a table too large for it splits its orders
    tables = []
    for n, k in sorted(rows, key=lambda key: key[1] > 0):
        edges = _bulk_edges(n) if k == 0 else _segment_edges(n, k)
        step = max(1, _TABLE_BUDGET // (_PANEL_NODES * (len(edges) - 1)) - _NODE_STATE)
        given = list(rows[n, k])
        tables += [(n, k, edges, given[i:i + step]) for i in range(0, len(given), step)]
    found = {}  # (n, nu, k) -> (value, error)
    for group in _groups([(len(given), _PANEL_NODES * (len(edges) - 1))
                          for _, _, edges, given in tables], _TABLE_BUDGET):
        members = tables[group]

        def integrand(x: np.ndarray) -> np.ndarray:
            # each panel's nodes in increasing order, so that no block of
            # bessel_table's takes its sort path, and the table back in x's
            # [NODES | REFINED_NODES] layout
            order, rank = _panel_order()
            x = x.reshape(-1, _PANEL_NODES)[:, order].ravel()
            sizes = [len(edges) - 1 for _, _, edges, _ in members]
            ends = [_PANEL_NODES * end for end in accumulate(sizes, initial=0)]
            table = bessel_table(x, [(hi - lo, given, _top(n))
                                     for (n, _, _, given), lo, hi in zip(members, ends, ends[1:])])
            for (n, _, _, _), lo, hi in zip(members, ends, ends[1:]):
                table[:, lo:hi] *= _weight(n, x[lo:hi])
            return np.take(table.reshape(len(table), -1, _PANEL_NODES), rank, axis=2)

        sums, sum_errs = panel_quad_with_error(integrand, [edges for _, _, edges, _ in members])
        for j, (n, k, _, given) in enumerate(members):
            found.update(((n, nu, k), (sums[r, j], sum_errs[r, j])) for r, nu in enumerate(given))
    values = np.array([found[n, nu, k][0] for (n, _, k), nu in zip(pieces, orders)], dtype=float)
    errs = np.array([found[n, nu, k][1] for (n, _, k), nu in zip(pieces, orders)], dtype=float)
    _converged([f"segment {k}" for _, _, k in pieces], values, errs)
    return values, errs


def segment_integral(n: int, nu: int, k: int) -> SegmentIntegral:
    """I_k: the integral over [n a_k, n a_(k+1)], one peak of cos^n(x/n).

    The segment is split into panels about one Bessel half-wavelength wide,
    each handled by Gauss-Legendre; the error estimate is the difference
    against a refined rule (floored at 1e-17 per panel).  Every node lies at
    x >= n pi/2 > nu, where the upward Bessel recurrence is stable.
    """
    if k < 1:
        raise ValueError(f"segment index must be >= 1, got {k}")
    (value,), (err,) = axis_integrals([(n, nu, k)])
    return SegmentIntegral(k, float(value), float(err))


def bulk_integral(n: int, nu: int) -> SegmentIntegral:
    """I_0: the integral over [0, n a_1], on the same panels for every order."""
    (value,), (err,) = axis_integrals([(n, nu, 0)])
    return SegmentIntegral(0, float(value), float(err))


def ray_integrals(pieces, panels: int = _RAY_PANELS) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k>=1} I_k and its quadrature error for every piece (n, nu), as (values, errors) arrays.

    The sum is Re int_0^inf H1_nu(z) cos^n(z/n)/z i dy on the ray
    z = n pi/2 + iy.  There H1_nu(z) cos^n(z/n) = hankel1e(nu, z) c(y)^n with
    c(y) = (1 + e^(2iz/n))/2 = (1 - e^(-2y/n))/2 in [0, 1/2), so nothing
    overflows.  The integrand is smooth and decays like 2^-n y^(-3/2); the
    substitution y = n u^2/(1 - u)^2 maps the ray onto u in [0, 1] with a
    finite integrand at u = 1, integrated on `panels` uniform panels.  The
    pieces may mix dimensions; those of one n share its ray.

    The nodes and H1 come from specfun._hankel_ray, the ray evaluation that
    the T_t integral identity shares: one specfun._hankel01e call on every
    ray's nodes of both quadrature rules, hankel1e at orders 0 and 1 from
    Hankel's expansion (a Laplace integral below |z| = 40), within 8.5e-16
    relative of mpmath on the nodes of n = 2..150, and one pass of the
    shared upward recurrence specfun._upward, which steps
    H_(k+1) = (2k/z) H_k - H_(k-1) on each node up to its ray's largest
    order.  The scaling e^(-iz) of hankel1e is the same at every
    order, so the scaled values obey the same recurrence.  In the upper
    half-plane H1 is the dominant solution going up in the order (Gautschi,
    SIAM Review 9, 1967; DLMF 10.74(iv)), so the recurrence is stable: on the
    nodes of both rules it matches scipy's hankel1e (AMOS) to 1.32e-13
    relative for every order up to 235 (n = 2 to 150), the same as from
    AMOS's own seeds.  Every step is elementwise and starts at order 0, so a
    row does not depend on its batch.  The errors are the rules' difference,
    which the caller judges.  No pieces return two empty arrays.
    """
    pieces = list(pieces)
    orders = _check_orders([n for n, _ in pieces], [nu for _, nu in pieces])
    if not orders:
        return np.empty(0), np.empty(0)
    counts = Counter(n for n, _ in pieces)  # one ray per dimension, in order of appearance
    dims = list(counts)
    ray = {n: j for j, n in enumerate(dims)}
    # each ray's rows next to each other, so that its weight scales one slice in place
    rank = sorted(range(len(pieces)), key=lambda i: ray[pieces[i][0]])
    captures = [(ray[pieces[i][0]], orders[i]) for i in rank]
    ends = list(accumulate(counts.values(), initial=0))

    def integrand(u: np.ndarray) -> np.ndarray:
        y, dy_du, z, rows = _hankel_ray([n * pi / 2 for n in dims], dims, u, captures)
        for j, (n, lo, hi) in enumerate(zip(dims, ends, ends[1:])):
            rows[lo:hi] *= (-0.5 * np.expm1(-2.0 * y[j] / n)) ** n / z[j] * (1j * dy_du[j])
        return rows.real

    sums, errs = panel_quad_with_error(integrand, np.linspace(0.0, 1.0, panels + 1))
    values, estimates = np.empty((2, len(pieces)))
    values[rank], estimates[rank] = sums, errs
    return values, estimates


def segment_tail_bound(n: int, nu: int, k_min: int) -> float:
    """Certified bound on |sum_{k >= k_min} I_k|.

    The contour-difference chain: |I_k| is at most the y-integral of the
    difference of H1_nu(z) cos^n(z/n)/z between the rays z = n a_k + iy and
    n a_(k+1) + iy, on which |e^(iz) cos^n(z/n)| <= 2^-n with a phase free of
    k.  Hypotheses, on every ray k >= k_min: 0 <= arg z < pi/2 and
    |z| >= n a_k >= n a_k_min, so for real nu >= 1/2 Olver's bound (DLMF
    10.17.14-15) on the one-term Hankel remainder gives the expansion-error
    term 2 (nu^2 - 1/4) e^q, q = (nu^2 - 1/4)/(n a_k_min); the step to
    z + n pi keeps |w| >= |z|, giving the mean-value term 1.5 pi n.  Both
    multiply |z|^(-5/2), whose y-integral is beta_half_integrals(n pi)[1]
    (k - 1/2)^(-3/2).  The sum over k >= K = k_min is bounded by
    S(K) = (K - 1/2)^(-3/2) + 2 K^(-1/2): the first term is kept apart, and
    since s^(-3/2) is convex each later one is at most its integral over
    [k - 1, k], which sum to 2 K^(-1/2).  S(K) exceeds zeta(3/2, K - 1/2) by
    1.09 % at K = 1, 0.54 % at K = 2 and then about 0.031/K^2 relative
    (mpmath), still 3.1e-14 at K = 10^6, well above the rounding of S.  At
    k_min = 2 with 1 < nu < n (Theorem 2), |z| >= 1.5 n pi > nu and
    q < n/(1.5 pi), so 2^-n e^q < e^(-0.48 n); for nu < n and k_min >= n it
    is 30 sqrt(n) 2^-n k^(-3/2) per k.
    """
    if k_min < 1:
        raise ValueError(f"segment index must be >= 1, got {k_min}")
    q = (nu * nu - 0.25) / (n * (k_min - 0.5) * pi)
    coeff = 1.5 * pi * n + 2.0 * (nu * nu - 0.25) * np.exp(q)
    chain = (k_min - 0.5) ** -1.5 + 2.0 / sqrt(k_min)
    return float(2.0**-n * coeff * beta_half_integrals(n * pi)[1] * chain)


def bessel_steps(n: int, ts) -> list:
    """The t of ts at which the Bessel route holds: even t with 2 <= t <= _top(n)."""
    top = _top(n)
    return [t for t in ts if t % 2 == 0 and 2 <= t <= top]


class BesselAmplitude(NamedTuple):
    """Return amplitude via the Bessel route, with its error budget.

    ray_error is t times the ray's quadrature error estimate (the p0 CSV's
    tail_bound column) and bulk_error t times the bulk's.
    """

    amplitude: float
    ray_error: float
    bulk_error: float


def p0_amplitudes_bessel(n: int, ts) -> list[BesselAmplitude]:
    """p0_amplitude_bessel for every t in ts, with the bulks and the rays batched.

    The bulks come from axis_integrals, one Bessel table of all orders on
    the nodes of both quadrature rules, and the rays from ray_integrals, one
    seed call on those of the ray plus the shared upward recurrence; each
    row equals the one-order call.  An empty ts returns an empty list.
    """
    ts = list(ts)
    for t in ts:
        if not bessel_steps(n, [t]):
            raise ValueError("the Bessel route requires even t in "
                             f"[2, min(n pi/2, {MAX_ORDER + 1})), got t={t}, n={n}")
    ts = [int(t) for t in ts]
    if not ts:
        return []
    bulks, bulk_errs = axis_integrals([(n, t, 0) for t in ts])
    rays, ray_errs = ray_integrals([(n, t) for t in ts])
    _converged(["the ray"] * len(ts), rays, ray_errs)
    return [
        BesselAmplitude(float(t * abs(bulk + ray)), float(t * ray_err), float(t * bulk_err))
        for t, bulk, ray, bulk_err, ray_err in zip(ts, bulks, rays, bulk_errs, ray_errs)
    ]


def p0_amplitude_bessel(n: int, t: int) -> BesselAmplitude:
    """|sqrt(P[0,t])| as t |I_0 + sum_{k>=1} I_k|, the bulk plus the ray.

    Only t in bessel_steps(n, ...) is accepted: the underlying integral identity
    is proven for even degree and is simply false in general for odd degree.
    Nothing is truncated: the error fields are the quadratures' estimates.
    """
    return p0_amplitudes_bessel(n, (t,))[0]
