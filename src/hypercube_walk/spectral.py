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
nodes per (n, k), and ray_integrals the rays of many orders through
specfun._hankel_ray: one call of the numpy-only seeds specfun._hankel01e per
rule plus the shared upward recurrence, specfun._upward.
Both return (values, errors) arrays, and a row does not depend on which
other pieces or orders share its batch.  bulk_integrals, bulk_integral and
segment_integral are calls of axis_integrals, which Theorem 2 calls
directly; bessel_steps states the route's domain once, for
p0_amplitudes_bessel and the CLI.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, fsum, pi, sqrt
from typing import NamedTuple

import numpy as np

from ._quadrature import REFINED_NODES, panel_quad_with_error
from .specfun import (MAX_ORDER, _checked, _hankel_ray, beta_half_integrals, bessel_table,
                      chebyshev_T)

__all__ = [
    "SegmentIntegral",
    "p0_amplitude_chebyshev",
    "axis_integrals",
    "segment_integral",
    "bulk_integral",
    "bulk_integrals",
    "ray_integrals",
    "segment_tail_bound",
    "BesselAmplitude",
    "p0_amplitude_bessel",
    "p0_amplitudes_bessel",
    "bessel_steps",
]


# Floats one group of axis_integrals tables may hold at once, 0.54 MB of
# float64: at each node of the refined rule, one per order of the group's
# largest table plus _NODE_STATE for the recurrences, weight and quadrature.
# The 46 bulks of p0 at n = 60 take one group.
_TABLE_BUDGET = 68_000
_NODE_STATE = 9

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


def _check_orders(dims, orders) -> list[int]:
    """The orders as ints, once each is a Bessel order with 1 <= nu < n pi/2.

    dims is one dimension n for every order, or one n per order.
    """
    for n in np.atleast_1d(dims).tolist():
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
    orders = _checked(orders).tolist()
    for n, nu in zip(np.broadcast_to(dims, len(orders)).tolist(), orders):
        if not 1 <= nu < n * pi / 2:
            raise ValueError(f"order must satisfy 1 <= nu < n pi/2, got nu={nu}, n={n}")
    return orders


def _bulk_edges(n: int) -> np.ndarray:
    # at least four uniform panels no wider than pi, the same for every order
    return np.linspace(0.0, n * pi / 2, max(4, -(-n // 2)) + 1)


def axis_integrals(pieces) -> tuple[np.ndarray, np.ndarray]:
    """I_k and its quadrature error for every piece (n, nu, k), as (values, errors) arrays.

    k = 0 is the bulk on [0, n a_1] and k >= 1 segment k on
    [n a_k, n a_(k+1)].  The panels depend on (n, k) alone, so the pieces of
    one (n, k) share one Bessel table of their orders, its Miller sweep
    started from the largest order n admits, and one specfun.bessel_table
    call per quadrature rule fills each group of tables within
    _TABLE_BUDGET.  A row does not depend on its batch; the first piece that
    did not converge raises.
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
        step = max(1, _TABLE_BUDGET // (REFINED_NODES * (len(edges) - 1)) - _NODE_STATE)
        given = list(rows[n, k])
        tables += [(n, k, edges, given[i:i + step]) for i in range(0, len(given), step)]
    found = {}  # (n, nu, k) -> (value, error)
    for group in _groups([(len(given), REFINED_NODES * (len(edges) - 1))
                          for _, _, edges, given in tables], _TABLE_BUDGET):
        members = tables[group]

        def integrand(x: np.ndarray) -> np.ndarray:
            sizes = [len(edges) - 1 for _, _, edges, _ in members]
            ends = [x.size // sum(sizes) * end for end in accumulate(sizes, initial=0)]
            table = bessel_table(x, [(hi - lo, given, min(int(np.ceil(n * pi / 2)) - 1, MAX_ORDER))
                                     for (n, _, _, given), lo, hi in zip(members, ends, ends[1:])])
            for (n, _, _, _), lo, hi in zip(members, ends, ends[1:]):
                table[:, lo:hi] *= _weight(n, x[lo:hi])
            return table

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


def bulk_integrals(n: int, orders) -> tuple[np.ndarray, np.ndarray]:
    """I_0 and its quadrature error for every order, as (values, errors) arrays.

    The bulks of axis_integrals at one dimension; every entry equals
    bulk_integral(n, nu) exactly.
    """
    return axis_integrals([(n, nu, 0) for nu in orders])


def bulk_integral(n: int, nu: int) -> SegmentIntegral:
    """I_0: the integral over [0, n a_1], on the same panels for every order."""
    (value,), (err,) = axis_integrals([(n, nu, 0)])
    return SegmentIntegral(0, float(value), float(err))


def ray_integrals(n: int, orders) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k>=1} I_k and its quadrature error for every order, as (values, errors) arrays.

    The sum is Re int_0^inf H1_nu(z) cos^n(z/n)/z i dy on the ray
    z = n pi/2 + iy.  There H1_nu(z) cos^n(z/n) = hankel1e(nu, z) c(y)^n with
    c(y) = (1 + e^(2iz/n))/2 = (1 - e^(-2y/n))/2 in [0, 1/2), so nothing
    overflows.  The integrand is smooth and decays like 2^-n y^(-3/2); the
    substitution y = n u^2/(1 - u)^2 maps the ray onto u in [0, 1] with a
    finite integrand at u = 1, integrated on _RAY_PANELS uniform panels.

    The nodes and H1 come from specfun._hankel_ray, the ray evaluation that
    the T_t integral identity shares: each quadrature rule makes one
    specfun._hankel01e call, hankel1e at orders 0 and 1 on its nodes from
    Hankel's expansion (a Laplace integral below |z| = 40), within 8.5e-16
    relative of mpmath on the nodes of n = 2..150, and the shared upward
    recurrence specfun._upward steps H_(k+1) = (2k/z) H_k - H_(k-1) from
    there to the largest order.  The scaling e^(-iz) of hankel1e is the same at every
    order, so the scaled values obey the same recurrence.  In the upper
    half-plane H1 is the dominant solution going up in the order (Gautschi,
    SIAM Review 9, 1967; DLMF 10.74(iv)), so the recurrence is stable: on the
    nodes of both rules it matches scipy's hankel1e (AMOS) to 1.32e-13
    relative for every order up to 235 (n = 2 to 150), the same as from
    AMOS's own seeds.  Every step is elementwise and starts at order 0, so a
    row does not depend on its batch.  No orders return two empty arrays.
    """
    orders = _check_orders(n, orders)
    if not orders:
        return np.empty(0), np.empty(0)

    def integrand(u: np.ndarray) -> np.ndarray:
        y, dy_du, z, rows = _hankel_ray(n * pi / 2, n, u, orders)
        weight = (-0.5 * np.expm1(-2.0 * y / n)) ** n / z * (1j * dy_du)
        return (rows * weight).real

    values, errs = panel_quad_with_error(integrand, np.linspace(0.0, 1.0, _RAY_PANELS + 1))
    _converged(["the ray"] * len(orders), values, errs)
    return values, errs


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
    """The t of ts at which the Bessel route holds: even t with 2 <= t < n pi/2."""
    return [t for t in ts if t % 2 == 0 and 2 <= t < n * pi / 2]


class BesselAmplitude(NamedTuple):
    """Return amplitude via the Bessel route, with its error budget.

    tail_bound is t times the ray's quadrature error estimate (the name is
    the CSV column's) and quad_error t times the bulk's.
    """

    amplitude: float
    tail_bound: float
    quad_error: float


def p0_amplitudes_bessel(n: int, ts) -> list[BesselAmplitude]:
    """p0_amplitude_bessel for every t in ts, with the bulks and the rays batched.

    The bulks come from bulk_integrals, one Bessel table of all orders per
    quadrature rule, and the rays from ray_integrals, one seed call per
    quadrature rule plus the shared upward recurrence; each row equals the
    one-order call.  An empty ts returns an empty list.
    """
    for t in ts:
        if not bessel_steps(n, [t]):
            raise ValueError(f"the Bessel route requires even t in [2, n pi/2), got t={t}, n={n}")
    ts = [int(t) for t in ts]
    if not ts:
        return []
    bulks, bulk_errs = bulk_integrals(n, ts)
    rays, ray_errs = ray_integrals(n, ts)
    return [
        BesselAmplitude(float(t * abs(bulk + ray)), float(t * ray_err), float(t * bulk_err))
        for t, bulk, ray, bulk_err, ray_err in zip(ts, bulks, rays, bulk_errs, ray_errs)
    ]


def p0_amplitude_bessel(n: int, t: int) -> BesselAmplitude:
    """|sqrt(P[0,t])| as t |I_0 + sum_{k>=1} I_k|, the bulk plus the ray.

    Only t in bessel_steps(n, ...) is accepted: the underlying integral identity
    is proven for even degree and is simply false in general for odd degree.
    ``tail_bound`` is t times the ray's quadrature error estimate and
    ``quad_error`` t times the bulk's; nothing is truncated.
    """
    return p0_amplitudes_bessel(n, (t,))[0]
