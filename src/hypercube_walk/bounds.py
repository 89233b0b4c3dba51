"""Closed-form dispersion bounds and machine-checkable reports.

Every quantitative claim — the three-part integral estimate, the level
amplification inequality, the desk-scale dispersion rate, the entropy rate,
the factorial chain and the equilibrium exponent balance — is evaluated here
against quantities computed elsewhere in the package, producing BoundReport
records that serialize to one CSV row each.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lgamma, log, log2, pi
from typing import Iterable

import numpy as np

from . import spectral, walk

__all__ = [
    "BoundParams",
    "BoundReport",
    "theorem2_admissible",
    "theorem2_bounds",
    "lemma1_amplification",
    "lemma1_empirical_reports",
    "lemma1_chain_margins",
    "theorem1_check",
    "figure1_fit",
    "figure1_envelope",
    "binary_entropy",
    "equilibrium_balance_gap",
    "equilibrium_c",
    "stirling_bounds_check",
    "f_ray_bound_magnitude",
    "f_ray_envelope_check",
]

CSV_HEADER = ["name", "n", "nu", "computed", "bound", "margin", "pass"]

# the decay rate of the f-ray envelope and of the middle-integral bound built on it
_RAY_RATE = 1.541

# Lemma 1 suite: steps t = 0..LEMMA1_STEPS at levels w < LEMMA1_LEVELS
LEMMA1_STEPS = 20
LEMMA1_LEVELS = 6


class BoundParams:
    """The proof constants: alpha in (pi/6, 1), level ratio c in (0, 1/2), two rates."""

    alpha = 0.7326
    c = 0.13368
    t_coeff = 0.8663
    rate = 1.4818


@dataclass(frozen=True)
class BoundReport:
    """Side-by-side record: computed quantity vs. its closed-form bound."""

    name: str
    computed: float
    bound: float
    n: int | None = None
    nu: int | None = None

    @property
    def margin(self) -> float:
        return self.bound - self.computed

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0

    def csv_row(self) -> list:
        """The cells under CSV_HEADER, unformatted; the CLI formats them."""
        return [self.name, self.n, self.nu, float(self.computed), float(self.bound),
                float(self.margin), self.passed]


def theorem2_admissible(n: int, nu: int) -> bool:
    """The domain of Theorem 2: 1 < nu and n alpha < nu < n."""
    return nu > 1 and n * BoundParams.alpha < nu < n


def theorem2_bounds(n: int, nu: int) -> list[BoundReport]:
    """Check the tail / middle / bulk integral estimates at an admissible (n, nu).

    With B(k) the certified contour chain spectral.segment_tail_bound(n, nu, k),
    a bound on |sum of I_k' for k' >= k| with no quadrature in it, the tail's
    computed value is B(n).  The middle sum over 1 <= k < n equals
    I_1 + sum_{k >= 2} I_k - sum_{k >= n} I_k, so its computed value is
    |I_1| + err_1 + B(2) + B(n): only segment 1 is integrated.  The bulk is
    its integral plus its quadrature error.
    """
    if not theorem2_admissible(n, nu):
        raise ValueError(f"order must satisfy 1 < n alpha < nu < n, got nu={nu}, n={n}")
    bulk = spectral.bulk_integral(n, nu)
    first = spectral.segment_integral(n, nu, 1)
    tail = spectral.segment_tail_bound(n, nu, n)
    middle = abs(first.value) + first.quad_error + spectral.segment_tail_bound(n, nu, 2) + tail
    sqrt_n, alpha = np.sqrt(n), BoundParams.alpha
    return [
        BoundReport("theorem2_tail", tail, 100.0 * sqrt_n / 2.0**n, n=n, nu=nu),
        BoundReport("theorem2_middle", middle, 4000.0 * sqrt_n / _RAY_RATE**n, n=n, nu=nu),
        BoundReport("theorem2_bulk", abs(bulk.value) + bulk.quad_error,
                    3.0 / (1.0 + alpha) ** (0.5 * alpha * n), n=n, nu=nu),
    ]


def lemma1_amplification(n: int, w: int, p0: float) -> float:
    """Level-w probability bound n^w / w! * p0, formed in log space."""
    if not 0 <= w < n / 2:
        raise ValueError(f"level must satisfy 0 <= w < n/2, got w={w}, n={n}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be a probability, got {p0}")
    factor = np.exp(w * log(n) - lgamma(w + 1))
    return float(factor * p0)


def lemma1_empirical_reports(n: int) -> list[BoundReport]:
    """Every Lemma 1 row of dimension n, from one walk.trajectory.

    For each step t <= LEMMA1_STEPS and level w < min(LEMMA1_LEVELS, n/2) the
    simulated P[w,t] is compared against n^w/w! times the largest P[0,t'] in
    the window [t-w, t+w].  From n = 3 on, the negated lemma1_chain_margins
    over steps 0..LEMMA1_STEPS follow as two rows that pass when they are >= 0.
    """
    amps = walk.trajectory(n, LEMMA1_STEPS + LEMMA1_LEVELS)
    levels = amps[:, 0] ** 2 + amps[:, 1] ** 2
    p0 = levels[:, 0].tolist()
    w_max = min(LEMMA1_LEVELS, (n + 1) // 2)
    reports = [
        BoundReport(f"lemma1_t{t}_w{w}", p_wt,
                    lemma1_amplification(n, w, max(p0[max(0, t - w): t + w + 1])), n=n)
        for t, row in enumerate(levels[:LEMMA1_STEPS + 1, :w_max].tolist())
        for w, p_wt in enumerate(row)
    ]
    if n >= 3:
        coin_margin, shift_margin = lemma1_chain_margins(amps[:LEMMA1_STEPS + 2])
        reports += [BoundReport("lemma1_coin_step_margin", -coin_margin, 0.0, n=n),
                    BoundReport("lemma1_shift_step_margin", -shift_margin, 0.0, n=n)]
    return reports


def lemma1_chain_margins(amps: np.ndarray) -> tuple[float, float]:
    """Worst-case slack of the two per-step proof inequalities on a trajectory.

    Returns (min of lhs - rhs), over the rows t <= T-2 of the walk.trajectory
    array ``amps`` and levels 0 < w < n/2, for the coin-step inequality
    max(a_left(t,w)^2, a_right(t+1,w-1)^2) >= w/(n-w) a_right(t,w)^2 and (from
    t = 1) the shift inequality P[w-1, t-1] >= a_left(t,w)^2.  Nonnegative
    values mean both hold; below n = 3 no level qualifies and both are +inf.
    """
    n = amps.shape[2] - 1
    w = np.arange(1, (n + 1) // 2)
    right, left = amps[:, 0] ** 2, amps[:, 1] ** 2
    coin = np.maximum(left[:-1, w], right[1:, w - 1]) - w / (n - w) * right[:-1, w]
    shift = right[:-2, w - 1] + left[:-2, w - 1] - left[1:-1, w]
    return float(coin.min(initial=np.inf)), float(shift.min(initial=np.inf))


def figure1_fit(n: int) -> float:
    """The linear fit -0.754 + 0.849 n to the minimising step t_min(n) of Figure 1."""
    return -0.754 + 0.849 * n


def figure1_envelope(n: int) -> float:
    """The empirical envelope 5 * 1.93^-n of the Figure-1 minima max_x P(x, t_min)."""
    return 5.0 * 1.93**-n


def theorem1_check(dims: Iterable[int]) -> list[BoundReport]:
    """Desk-scale dispersion checks for every n in dims, in order, from one scan.

    At t = floor(0.8663 n), row one compares the simulated max_x P(x, t)
    against C * 1.4818^-n; row two checks the tighter empirical envelope
    5 * 1.93^-n at the minimum over steps up to t + 5.  C is the smallest
    constant making the rate row hold at dims[0], with a relative headroom of
    1e-9 because the rate**n * rate**-n round trip is not exactly one.  All
    dimensions step together in one walk.scan call.
    """
    dims = [int(n) for n in dims]
    if not dims:
        raise ValueError("no dimension to check")
    for n in dims:
        if n < 2:
            raise ValueError(f"dimension must be >= 2, got {n}")
    rate = BoundParams.rate
    steps = [int(BoundParams.t_coeff * n) for n in dims]
    max_vertex_prob = walk.scan(dims, max(steps) + 5).max_vertex_prob
    c_empirical = max_vertex_prob[steps[0], 0] * rate**dims[0] * (1.0 + 1e-9)
    reports = []
    for column, (n, t) in enumerate(zip(dims, steps)):
        t_best, p_best = walk.t_min(max_vertex_prob[: t + 6, column])
        reports += [
            BoundReport("theorem1_rate", float(max_vertex_prob[t, column]),
                        c_empirical * rate**-n, n=n, nu=t),
            BoundReport("figure1_envelope", p_best, figure1_envelope(n), n=n, nu=t_best),
        ]
    return reports


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability expected, got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def equilibrium_balance_gap(c: float) -> float:
    """Log-gap between the two competing vertex-probability exponents.

    Case one (small levels) decays like e^c (1-c)^c / 2^(1-2c) per dimension;
    case two (middle levels) like c^c (1-c)^(1-c).  The gap
    c - c ln c - (1-2c) ln(2-2c) vanishes at the equilibrium ratio.
    """
    if not 0.0 < c < 0.5:
        raise ValueError(f"c must lie in (0, 1/2), got {c}")
    return c - c * log(c) - (1.0 - 2.0 * c) * log(2.0 - 2.0 * c)


def equilibrium_c() -> float:
    """Root of the exponent balance in (0, 1/2), by bisection."""
    lo, hi = 0.05, 0.3
    f_lo = equilibrium_balance_gap(lo)
    if f_lo * equilibrium_balance_gap(hi) >= 0:
        raise AssertionError("bisection bracket does not straddle the root")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if equilibrium_balance_gap(mid) * f_lo > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def stirling_bounds_check(n: int, c: float = BoundParams.c) -> BoundReport:
    """Verify the factorial chain (n-w)!/n! < 2 * 0.99068^-n * n^-w at w = floor(cn).

    Each link is checked in log space: the lower bound on n!, the upper
    bound on (n-w)!, and the assembled chain.  Factorials are exact integers
    up to n = 170 and log-gamma beyond.  The report's computed/bound fields
    carry the two sides of the chain in logs.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    w = int(np.floor(c * n))

    def log_factorial(m: int) -> float:
        if m <= 170:
            return log(factorial(m))
        return lgamma(m + 1)

    lf_n = log_factorial(n)
    lf_nw = log_factorial(n - w)
    robbins_lower = n * log(n / np.e) + 1.0 / (12 * n + 1) + 0.5 * log(2 * pi * n)
    if lf_n < robbins_lower - 1e-12:
        raise AssertionError(f"factorial lower bound violated at n={n}")
    m = n - w
    robbins_upper = m * log(m / np.e) + 1.0 / (12 * m) + 0.5 * log(2 * pi * m)
    if lf_nw > robbins_upper + 1e-12:
        raise AssertionError(f"factorial upper bound violated at n-w={m}")
    chain_lhs = lf_nw - lf_n
    chain_rhs = log(2.0) - n * log(0.99068) - w * log(n)
    return BoundReport(f"stirling_chain_c{c:g}", chain_lhs, chain_rhs, n=n)


def f_ray_bound_magnitude(n: int, k, y):
    """Bound on |f| on the vertical ray above n a_k, via the modulus bound.

    Uses the exact factorization of f at the cosine zeros together with the
    3 e^{-y} |z|^{-1/2} Hankel bound, in log space:
    |f| <= 3 * 2^-n * (1 - e^{-2y/n})^n * |z|^{-3/2}, and 0 at y <= 0.  Only
    valid once |z| >= n^2; callers must screen for that.  k and y broadcast
    against each other; scalars give a float.
    """
    y = np.asarray(y, dtype=float)
    z_abs = np.hypot(n * ((np.asarray(k) - 0.5) * pi), y)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf on the axis y = 0
        log_mag = (log(3.0) - n * log(2.0) + n * np.log1p(-np.exp(-2.0 * y / n))
                   - 1.5 * np.log(z_abs))
    mag = np.where(y > 0.0, np.exp(log_mag), 0.0)
    return float(mag) if mag.ndim == 0 else mag


def f_ray_envelope_check(n: int) -> tuple[BoundReport, int, int]:
    """Check |f(n a_k + i y)| <= 860 * 1.541^-n |n a_k + i y|^-1.5 for 1 <= k < n.

    y runs over 201 points of [0, 4 n^2]; points with |z| < n^2 have no
    evaluation route for the Hankel factor and are skipped (counted, not
    failed).  The per-point quantity compared is the bound-over-envelope
    ratio, so this is a bound-versus-bound check.
    Returns (report, points_checked, points_skipped).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    ks, y = np.arange(1, n)[:, None], np.linspace(0.0, 4.0 * n * n, 201)
    z_abs = np.hypot(n * ((ks - 0.5) * pi), y)
    inside = z_abs >= n * n
    ratio = f_ray_bound_magnitude(n, ks, y) * _RAY_RATE**n * z_abs**1.5
    checked = int(inside.sum())
    report = BoundReport("f_ray_envelope", float(ratio[inside].max(initial=0.0)), 860.0, n=n)
    return report, checked, inside.size - checked
