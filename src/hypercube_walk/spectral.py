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
once, and a run of consecutive segments can share one node set and one table
(the p0 route batches orders per segment, the Theorem-2 sweep batches the
segments of one order); the bulk integral, whose panels depend on the order,
is evaluated per order.  For each t the pieces reduce in segment-index order,
and a row does not depend on which other orders share its batch.
"""

from __future__ import annotations

from math import lgamma, log, pi
from typing import NamedTuple

import numpy as np
from scipy import special

from ._quadrature import panel_quad_with_error
from .specfun import BETA_HALF_3QUARTER, bessel_J, bessel_table

__all__ = [
    "SegmentIntegral",
    "p0_amplitude_chebyshev",
    "segment_integral",
    "segment_integrals",
    "bulk_integral",
    "segment_tail_bound",
    "BesselAmplitude",
    "p0_amplitude_bessel",
    "p0_amplitudes_bessel",
    "default_k_max",
]


class SegmentIntegral(NamedTuple):
    """One piece of the Bessel integral plus its quadrature error estimate."""

    k: int
    value: float
    quad_error: float


def _converged(k: int, value: float, err: float) -> SegmentIntegral:
    tol = max(1e-14, 1e-6 * abs(value))
    if err > tol:
        raise ArithmeticError(
            f"quadrature for segment {k} did not converge: "
            f"estimated error {err:.3e} exceeds {tol:.3e}"
        )
    return SegmentIntegral(k, value, err)


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
        z = min(1.0, max(-1.0, 1.0 - 2.0 * m / n))
        weight = np.exp(lgamma(n + 1) - lgamma(m + 1) - lgamma(n - m + 1) - log_half_n)
        term = weight * np.cos(t * np.arccos(z))
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


def _segment_integrals(n: int, orders, ks: range) -> list[list[SegmentIntegral]]:
    """I_k for every consecutive k in ks and every order, one list per k.

    All segments share one node set, one cos^n(x/n)/x and one Bessel table
    per quadrature rule; each segment still reduces on its own and each
    (k, order) is checked for convergence, in k order.
    """
    pieces = [_segment_edges(n, k) for k in ks]
    # consecutive segments share an endpoint, bit for bit
    edges = np.concatenate([pieces[0]] + [p[1:] for p in pieces[1:]])
    values, errs = panel_quad_with_error(
        lambda x: bessel_table(orders, x) * _weight(n, x), edges,
        counts=[len(p) - 1 for p in pieces])
    return [[_converged(k, float(v), float(e)) for v, e in zip(values[:, j], errs[:, j])]
            for j, k in enumerate(ks)]


def segment_integrals(n: int, nu: int, ks: range) -> list[SegmentIntegral]:
    """I_k for every k in ks, a range of consecutive indices, in one pass.

    Each entry equals segment_integral(n, nu, k) exactly.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not 1 <= nu < n * pi / 2:
        raise ValueError(f"order must satisfy 1 <= nu < n pi/2, got nu={nu}, n={n}")
    if ks.step != 1:
        raise ValueError(f"segment indices must be consecutive, got {ks}")
    if not ks:
        return []
    if ks[0] < 1:
        raise ValueError(f"segment index must be >= 1, got {ks[0]}")
    return [row[0] for row in _segment_integrals(n, (nu,), ks)]


def segment_integral(n: int, nu: int, k: int) -> SegmentIntegral:
    """I_k: the integral over [n a_k, n a_(k+1)], one peak of cos^n(x/n).

    The segment is split into panels about one Bessel half-wavelength wide,
    each handled by Gauss-Legendre; the error estimate is the difference
    against a refined rule (floored at 1e-17 per panel).  Every node lies at
    x >= n pi/2 > nu, where the upward Bessel recurrence is stable.
    """
    return segment_integrals(n, nu, range(k, k + 1))[0]


def bulk_integral(n: int, nu: int) -> SegmentIntegral:
    """I_0: the integral over [0, n a_1].

    Below x = nu the integrand grows smoothly from its x^(nu-1) vanishing at
    the origin, so wider panels suffice there; past the turning point the
    panel width drops to the oscillation scale.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    b = n * pi / 2
    if not 1 <= nu < b:
        raise ValueError(f"order must satisfy 1 <= nu < n pi/2, got nu={nu}, n={n}")
    x_turn = min(float(nu), b)
    smooth = np.linspace(0.0, x_turn, max(2, int(np.ceil(x_turn / 3.0))) + 1)
    pieces = [smooth]
    if x_turn < b:
        oscillatory = np.linspace(x_turn, b, max(2, int(np.ceil((b - x_turn) / pi))) + 1)
        pieces.append(oscillatory[1:])
    edges = np.concatenate(pieces)
    value, err = panel_quad_with_error(lambda x: bessel_J(nu, x) * _weight(n, x), edges)
    return _converged(0, value, err)


def segment_tail_bound(n: int, nu: int, k_min: int) -> float:
    """Certified bound on |sum_{k >= k_min} I_k|.

    Follows the contour-difference chain: on the rays above n a_k the
    integrand difference is controlled by the mean-value term 1.5 pi n and
    the expansion-error term 2 (nu^2 - 1/4) e^q, q = (nu^2 - 1/4)/(n a_k);
    the ray integral contributes B(1/2, 3/4)/2 (n a_k)^(-3/2), and the sum
    over k is a Hurwitz zeta value.  For nu < n and k_min >= n this reduces
    to the 30 sqrt(n) 2^-n k^(-3/2) per-segment estimate.
    """
    if k_min < 1:
        raise ValueError(f"segment index must be >= 1, got {k_min}")
    q = (nu * nu - 0.25) / (n * (k_min - 0.5) * pi)
    coeff = 1.5 * pi * n + 2.0 * (nu * nu - 0.25) * np.exp(q)
    ray = 0.5 * BETA_HALF_3QUARTER * (n * pi) ** -1.5
    return float(2.0**-n * coeff * ray * special.zeta(1.5, k_min - 0.5))


def default_k_max(n: int) -> int:
    return max(n, 40)


class BesselAmplitude(NamedTuple):
    """Return amplitude via the Bessel route, with its error budget."""

    amplitude: float
    tail_bound: float
    quad_error: float


def p0_amplitudes_bessel(n: int, ts, k_max: int | None = None) -> list[BesselAmplitude]:
    """p0_amplitude_bessel for every t in ts, in one pass over the segments.

    Each segment builds its node set, cos^n(x/n)/x and one Bessel table for
    all orders once; each (segment, t) is still checked for convergence on
    its own, and each t sums its pieces in segment order, so every row equals
    the one-order call.
    """
    ts = [int(t) for t in ts]
    for t in ts:
        if t % 2 != 0 or t < 2:
            raise ValueError(f"the Bessel route requires even t >= 2, got t={t}")
    if k_max is None:
        k_max = default_k_max(n)
    if k_max < n:
        raise ValueError(f"k_max must be at least n={n}, got {k_max}")
    if not ts:
        return []
    bulks = [bulk_integral(n, t) for t in ts]
    totals = [bulk.value for bulk in bulks]
    errs = [bulk.quad_error for bulk in bulks]
    for k in range(1, k_max):
        for i, seg in enumerate(_segment_integrals(n, ts, range(k, k + 1))[0]):
            totals[i] += seg.value
            errs[i] += seg.quad_error
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
