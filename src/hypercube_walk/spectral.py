"""Two analytic routes to the return probability P[0,t].

The amplitude of returning to the start vertex after t steps is the spectral
sum 2^-n sum_m C(n,m) T_t(1 - 2m/n); for even t it also equals
t |int_0^inf x^-1 J_t(x) cos^n(x/n) dx|.  This module evaluates both,
independently of the simulator: the Chebyshev sum with compensated summation
and log-space binomial weights, and the Bessel integral segment by segment
between the zeros of cos^n(x/n), with a certified bound on the truncated
tail.

Segment endpoints use the grid a_k = (k - 0.5) pi, so segment k covers
[n a_k, n a_(k+1)] and the bulk covers [0, n a_1].  Every segment node has
x >= n pi/2 > t, so one upward Bessel table serves all requested orders at
once, and a chunk of consecutive segments shares one node set and one
weighted table; one driver, segment_integrals, serves the p0 route (many
orders) and segment 1 of Theorem 2 (one order), in chunks sized by a budget of
table entries.  The bulk panels depend on the order, so bulk_integrals runs
the bulks of many orders through one many-order Bessel sweep per quadrature
rule.  Both return (values, errors) arrays, and segment_integral and
bulk_integral are their one-item calls.  For each t the pieces reduce in
segment-index order, and a row does not depend on which other orders, or
which chunk, share its batch.
"""

from __future__ import annotations

from math import lgamma, log, pi
from typing import NamedTuple

import numpy as np

from ._quadrature import REFINED_NODES, panel_quad_with_error
from .specfun import (BETA_HALF_3QUARTER, MAX_ARGUMENT, _checked, bessel_sweep, bessel_table,
                      chebyshev_T)

__all__ = [
    "SegmentIntegral",
    "p0_amplitude_chebyshev",
    "segment_integral",
    "segment_integrals",
    "bulk_integral",
    "bulk_integrals",
    "segment_tail_bound",
    "BesselAmplitude",
    "p0_amplitude_bessel",
    "p0_amplitudes_bessel",
    "default_k_max",
    "k_max_in_range",
]


# Float entries that one chunk of Bessel work may hold at once: a table
# entry (order x node) counts 1 and a sweep point _SWEEP_COST, for its node,
# order, recurrence state and product.  The largest table sets the peak
# memory: 68,000 entries hold one segment of all 46 orders of p0 at n = 60
# (0.54 MB, the table size before chunking), where two segments per chunk
# measured 0.5-0.8 MB more peak RSS and one chunk of all segments about 30 MB
# more; smaller dimensions and fewer orders get several segments per chunk.
_TABLE_BUDGET = 68_000
_SWEEP_COST = 8


class SegmentIntegral(NamedTuple):
    """One piece of the Bessel integral plus its quadrature error estimate."""

    k: int
    value: float
    quad_error: float


def p0_amplitude_chebyshev(n: int, t: int) -> float:
    """Signed return amplitude: 2^-n sum_m C(n,m) T_t(1 - 2m/n).

    Its square is P[0,t].  Binomial weights are formed in log space and the
    heavily cancelling sum is Kahan-compensated, keeping the absolute error
    near machine epsilon up to n ~ 60.  At odd t the amplitude is exactly 0:
    T_t is odd and the weights are symmetric under m <-> n - m, which maps
    1 - 2m/n to its negative, so the terms cancel in pairs.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    if t % 2:
        return 0.0
    log_half_n = n * log(2.0)
    total = 0.0
    comp = 0.0
    for m in range(n + 1):
        weight = np.exp(lgamma(n + 1) - lgamma(m + 1) - lgamma(n - m + 1) - log_half_n)
        term = weight * chebyshev_T(t, 1.0 - 2.0 * m / n)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return float(total)


def _weight(n: int, x: np.ndarray) -> np.ndarray:
    return np.cos(x / n) ** n / x


def _segment_edges(n: int, k: int) -> np.ndarray:
    a = n * (k - 0.5) * pi
    b = n * (k + 0.5) * pi
    # (b - a)/pi is n only up to rounding, so the ceiling gives n panels for
    # some k and n + 1 for others; the quadrature noise of every published
    # amplitude depends on this count, so it stays as it is.
    panels = max(4, int(np.ceil((b - a) / pi)))
    return np.linspace(a, b, panels + 1)


def _converged(ks, values: np.ndarray, errs: np.ndarray) -> None:
    """Raise for the first (k, order), in k order, whose error exceeds its tolerance.

    values and errs hold one row per order and one column per k in ks.
    """
    tol = np.maximum(1e-14, 1e-6 * np.abs(values))
    failed = np.argwhere((errs > tol).T)
    if failed.size:
        j, i = failed[0]
        raise ArithmeticError(
            f"quadrature for segment {ks[j]} did not converge: "
            f"estimated error {errs[i, j]:.3e} exceeds {tol[i, j]:.3e}"
        )


def _chunks(sizes: list[int], budget: int):
    """Slices of consecutive indices whose sizes sum to at most budget.

    An item larger than the budget gets a slice of its own.
    """
    lo = total = 0
    for i, size in enumerate(sizes):
        if i > lo and total + size > budget:
            yield slice(lo, i)
            lo, total = i, 0
        total += size
    if sizes:
        yield slice(lo, len(sizes))


def _check_orders(n: int, orders) -> list[int]:
    """The orders as ints, once each is a Bessel order with 1 <= nu < n pi/2."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    orders = _checked(orders).tolist()
    for nu in orders:
        if not 1 <= nu < n * pi / 2:
            raise ValueError(f"order must satisfy 1 <= nu < n pi/2, got nu={nu}, n={n}")
    return orders


def segment_integrals(n: int, orders, ks: range) -> tuple[np.ndarray, np.ndarray]:
    """I_k and its quadrature error for every consecutive k in ks and every order.

    Returns (values, errors), one row per order and one column per k.  The
    segments go in chunks of consecutive k whose refined-rule Bessel table
    holds at most _TABLE_BUDGET entries.  A chunk shares one node set and
    one weighted Bessel table per quadrature rule; each segment still
    reduces on its own, so every entry equals segment_integral(n, nu, k)
    exactly, and each chunk is checked for convergence before the next one
    is built, so the first failing (k, order) raises.
    """
    orders = _check_orders(n, orders)
    if ks.step != 1:
        raise ValueError(f"segment indices must be consecutive, got {ks}")
    if ks and ks[0] < 1:
        raise ValueError(f"segment index must be >= 1, got {ks[0]}")
    values = np.empty((len(orders), len(ks)))
    errs = np.empty_like(values)
    pieces = [_segment_edges(n, k) for k in ks]
    entries = [len(orders) * REFINED_NODES * (len(p) - 1) for p in pieces]
    for chunk in _chunks(entries, _TABLE_BUDGET):
        part = pieces[chunk]
        # consecutive segments share an endpoint, bit for bit
        edges = np.concatenate([part[0]] + [p[1:] for p in part[1:]])
        values[:, chunk], errs[:, chunk] = panel_quad_with_error(
            lambda x: bessel_table(orders, x, _weight(n, x)), edges,
            counts=[len(p) - 1 for p in part])
        _converged(ks[chunk], values[:, chunk], errs[:, chunk])
    return values, errs


def segment_integral(n: int, nu: int, k: int) -> SegmentIntegral:
    """I_k: the integral over [n a_k, n a_(k+1)], one peak of cos^n(x/n).

    The segment is split into panels about one Bessel half-wavelength wide,
    each handled by Gauss-Legendre; the error estimate is the difference
    against a refined rule (floored at 1e-17 per panel).  Every node lies at
    x >= n pi/2 > nu, where the upward Bessel recurrence is stable.
    """
    values, errs = segment_integrals(n, (nu,), range(k, k + 1))
    return SegmentIntegral(k, float(values[0, 0]), float(errs[0, 0]))


def _bulk_edges(n: int, nu: int) -> np.ndarray:
    b = n * pi / 2
    smooth = np.linspace(0.0, nu, max(2, int(np.ceil(nu / 3.0))) + 1)
    oscillatory = np.linspace(nu, b, max(2, int(np.ceil((b - nu) / pi))) + 1)
    return np.concatenate([smooth, oscillatory[1:]])


def bulk_integrals(n: int, orders) -> tuple[np.ndarray, np.ndarray]:
    """I_0 and its quadrature error for every order, as (values, errors) arrays.

    One Bessel sweep per quadrature rule serves each group of consecutive
    orders whose sweep stays within _TABLE_BUDGET (a point counting
    _SWEEP_COST entries).  Each order keeps its own panels and reduces on its
    own slice, so every entry equals bulk_integral(n, nu) exactly; the first
    order whose quadrature did not converge raises.
    """
    orders = _check_orders(n, orders)
    edges = [_bulk_edges(n, nu) for nu in orders]
    entries = [_SWEEP_COST * REFINED_NODES * (len(e) - 1) for e in edges]
    values = np.empty(len(orders))
    errs = np.empty_like(values)
    for group in _chunks(entries, _TABLE_BUDGET):
        part = edges[group]
        panel_orders = np.repeat(orders[group], [len(e) - 1 for e in part])

        def integrand(x: np.ndarray) -> np.ndarray:
            node_orders = np.repeat(panel_orders, x.size // panel_orders.size)
            return bessel_sweep(node_orders, x) * _weight(n, x)

        values[group], errs[group] = panel_quad_with_error(integrand, part)
        _converged((0,), values[group, None], errs[group, None])
    return values, errs


def bulk_integral(n: int, nu: int) -> SegmentIntegral:
    """I_0: the integral over [0, n a_1].

    Below x = nu the integrand grows smoothly from its x^(nu-1) vanishing at
    the origin, so wider panels suffice there; past the turning point the
    panel width drops to the oscillation scale.
    """
    values, errs = bulk_integrals(n, (nu,))
    return SegmentIntegral(0, float(values[0]), float(errs[0]))


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
    multiply |z|^(-5/2), whose y-integral is B(1/2, 3/4)/2 (n a_k)^(-3/2); the
    sum over k is a Hurwitz zeta value.  At k_min = 2 with 1 < nu < n
    (Theorem 2), |z| >= 1.5 n pi > nu and q < n/(1.5 pi), so 2^-n e^q <
    e^(-0.48 n); for nu < n and k_min >= n it is 30 sqrt(n) 2^-n k^(-3/2) per k.
    """
    if k_min < 1:
        raise ValueError(f"segment index must be >= 1, got {k_min}")
    from scipy import special

    q = (nu * nu - 0.25) / (n * (k_min - 0.5) * pi)
    coeff = 1.5 * pi * n + 2.0 * (nu * nu - 0.25) * np.exp(q)
    ray = 0.5 * BETA_HALF_3QUARTER * (n * pi) ** -1.5
    return float(2.0**-n * coeff * ray * special.zeta(1.5, k_min - 0.5))


def default_k_max(n: int) -> int:
    return max(n, 40)


def k_max_in_range(n: int, k_max: int) -> bool:
    """Whether segments below k_max, which end at n (k_max - 1/2) pi, stay within MAX_ARGUMENT."""
    return n * (k_max - 0.5) * pi <= MAX_ARGUMENT


class BesselAmplitude(NamedTuple):
    """Return amplitude via the Bessel route, with its error budget."""

    amplitude: float
    tail_bound: float
    quad_error: float


def p0_amplitudes_bessel(n: int, ts, k_max: int | None = None) -> list[BesselAmplitude]:
    """p0_amplitude_bessel for every t in ts, in one pass over the segments.

    The bulks come from bulk_integrals, a few Bessel sweeps for all orders,
    and each chunk of segments builds its node set, cos^n(x/n)/x and one
    weighted Bessel table for all orders once; each (segment, t) is still
    checked for convergence on its own, and each t sums its pieces in
    segment order, so every row equals the one-order call.
    """
    for t in ts:
        if t % 2 != 0 or t < 2:
            raise ValueError(f"the Bessel route requires even t >= 2, got t={t}")
    ts = [int(t) for t in ts]
    if k_max is None:
        k_max = default_k_max(n)
    if k_max < n:
        raise ValueError(f"k_max must be at least n={n}, got {k_max}")
    if not k_max_in_range(n, k_max):
        raise ValueError(f"k_max={k_max} needs Bessel arguments up to n (k_max - 1/2) pi, "
                         f"past {MAX_ARGUMENT:g} at n={n}")
    if not ts:
        return []
    totals, errs = bulk_integrals(n, ts)
    values, seg_errs = segment_integrals(n, ts, range(1, k_max))
    for j in range(k_max - 1):
        totals += values[:, j]
        errs += seg_errs[:, j]
    return [
        BesselAmplitude(float(t * abs(total)), float(t * segment_tail_bound(n, t, k_max)),
                        float(t * err))
        for t, total, err in zip(ts, totals, errs)
    ]


def p0_amplitude_bessel(n: int, t: int, k_max: int | None = None) -> BesselAmplitude:
    """|sqrt(P[0,t])| as t |I_0 + sum_{k<k_max} I_k| plus a certified tail.

    Only even t >= 2 is accepted: the underlying integral identity is proven
    for even degree and is simply false in general for odd degree.
    ``tail_bound`` bounds the absolute value of the discarded
    t sum_{k >= k_max} I_k; ``quad_error`` accumulates the per-segment
    quadrature estimates (also scaled by t).
    """
    return p0_amplitudes_bessel(n, (t,), k_max)[0]
