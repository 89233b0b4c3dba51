"""Closed-form dispersion bounds and machine-checkable reports.

Every quantitative claim — the three-part integral estimate, the level
amplification inequality, the desk-scale dispersion rate, the entropy and
factorial chains, and the equilibrium exponent balance — is evaluated here
against quantities computed elsewhere in the package, producing BoundReport
records that serialize to one CSV row each.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, lgamma, log, log1p, log2, pi
from typing import Iterable

import numpy as np

from . import spectral, walk

__all__ = [
    "BoundParams",
    "BoundReport",
    "theorem2_bounds",
    "lemma1_amplification",
    "lemma1_empirical_reports",
    "lemma1_chain_margins",
    "theorem1_check",
    "calibrate_theorem1",
    "binary_entropy",
    "entropy_binomial_bound",
    "equilibrium_balance_gap",
    "equilibrium_c",
    "stirling_bounds_check",
    "f_ray_bound_magnitude",
    "f_ray_envelope_check",
]

CSV_HEADER = ["name", "n", "nu", "computed", "bound", "margin", "pass"]


@dataclass(frozen=True)
class BoundParams:
    """The proof constants: alpha, the level ratio c, and the two rates."""

    alpha: float = 0.7326
    c: float = 0.13368
    t_coeff: float = 0.8663
    rate: float = 1.4818

    def __post_init__(self) -> None:
        if not pi / 6 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (pi/6, 1), got {self.alpha}")
        if not 0 < self.c < 0.5:
            raise ValueError(f"c must lie in (0, 1/2), got {self.c}")


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

    def csv_row(self) -> list[str]:
        return [
            self.name,
            "" if self.n is None else str(self.n),
            "" if self.nu is None else str(self.nu),
            repr(float(self.computed)),
            repr(float(self.bound)),
            repr(float(self.margin)),
            "true" if self.passed else "false",
        ]


def theorem2_bounds(n: int, nu: int, alpha: float = BoundParams.alpha,
                    tail_segments: int = 40) -> list[BoundReport]:
    """Check the tail / middle / bulk integral estimates at (n, nu).

    The tail is computed as |sum of I_k for n <= k < n + tail_segments| plus
    the certified bound on everything beyond, so a passing report really
    dominates the full infinite tail.  All segments come from one batched
    pass and are summed in k order.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not pi / 6 < alpha < 1:
        raise ValueError(f"alpha must lie in (pi/6, 1), got {alpha}")
    if n < 1 / alpha:
        raise ValueError(f"need n >= 1/alpha = {1 / alpha:.3f}, got {n}")
    if not (nu > 1 and n * alpha < nu < n):
        raise ValueError(f"order must satisfy 1 < n alpha < nu < n, got nu={nu}, n={n}")
    if tail_segments < 0:
        raise ValueError(f"tail_segments must be >= 0, got {tail_segments}")

    bulk = spectral.bulk_integral(n, nu)
    segments = spectral.segment_integrals(n, nu, range(1, n + tail_segments))
    middle_val = 0.0
    middle_err = 0.0
    for seg in segments[:n - 1]:
        middle_val += seg.value
        middle_err += seg.quad_error
    tail_val = 0.0
    tail_err = 0.0
    for seg in segments[n - 1:]:
        tail_val += seg.value
        tail_err += seg.quad_error
    tail_cert = spectral.segment_tail_bound(n, nu, n + tail_segments)

    sqrt_n = np.sqrt(n)
    return [
        BoundReport("theorem2_tail", abs(tail_val) + tail_err + tail_cert,
                    100.0 * sqrt_n / 2.0**n, n=n, nu=nu),
        BoundReport("theorem2_middle", abs(middle_val) + middle_err,
                    4000.0 * sqrt_n / 1.541**n, n=n, nu=nu),
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


def lemma1_empirical_reports(n: int, t_max: int = 20, w_max: int = 6) -> list[BoundReport]:
    """Simulate both sides of the amplification inequality.

    For each step t <= t_max and level w < w_max the simulated P[w,t] is
    compared against n^w/w! times the largest P[0,t'] in the window
    [t-w, t+w].
    """
    states = walk.trajectory(n, t_max + w_max)
    p0 = [walk.level_probability(s, 0) for s in states]
    reports = []
    for t in range(t_max + 1):
        for w in range(min(w_max, (n + 1) // 2)):
            p_wt = walk.level_probability(states[t], w)
            window = p0[max(0, t - w): t + w + 1]
            bound = lemma1_amplification(n, w, max(window))
            reports.append(BoundReport(f"lemma1_t{t}_w{w}", p_wt, bound, n=n))
    return reports


def lemma1_chain_margins(n: int, t_max: int = 25) -> tuple[float, float]:
    """Worst-case slack of the two per-step proof inequalities.

    Returns (min over the trajectory of lhs - rhs) for the coin-step
    inequality max(a_left(t,w)^2, a_right(t+1,w-1)^2) >= w/(n-w) a_right(t,w)^2
    (levels 0 < w < n/2) and for the shift inequality
    P[w-1, t-1] >= a_left(t,w)^2.  Nonnegative values mean both hold.
    """
    states = walk.trajectory(n, t_max + 1)
    worst_coin = np.inf
    worst_shift = np.inf
    for t in range(t_max + 1):
        ar, al = states[t].alpha_right, states[t].alpha_left
        ar_next = states[t + 1].alpha_right
        for w in range(1, (n + 1) // 2):
            lhs = max(al[w] ** 2, ar_next[w - 1] ** 2)
            rhs = w / (n - w) * ar[w] ** 2
            worst_coin = min(worst_coin, lhs - rhs)
            if t >= 1:
                prev = states[t - 1]
                worst_shift = min(
                    worst_shift,
                    walk.level_probability(prev, w - 1) - al[w] ** 2,
                )
    return float(worst_coin), float(worst_shift)


def calibrate_theorem1(params: BoundParams = BoundParams(), n_ref: int = 10) -> float:
    """Smallest constant making the rate bound hold at the reference dimension.

    A relative headroom of 1e-9 keeps the calibration point itself passing
    despite the rate**n * rate**-n round trip not being exactly one.
    """
    t = int(params.t_coeff * n_ref)
    profile = walk.scan(walk.WalkParams(n_ref, t))
    return profile[t].max_vertex_prob * params.rate**n_ref * (1.0 + 1e-9)


def theorem1_check(n: int, params: BoundParams = BoundParams(),
                   c_empirical: float = 1.0) -> list[BoundReport]:
    """Desk-scale dispersion checks at dimension n.

    Row one compares the simulated max_x P(x, floor(0.8663 n)) against
    C * 1.4818^-n; row two checks the tighter empirical envelope
    5 * 1.93^-n at the scanned minimum.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    t = int(params.t_coeff * n)
    profile = walk.scan(walk.WalkParams(n, t + 5))
    at_t = profile[t].max_vertex_prob
    t_best, p_best = walk.t_min(profile)
    return [
        BoundReport("theorem1_rate", at_t, c_empirical * params.rate**-n, n=n, nu=t),
        BoundReport("figure1_envelope", p_best, 5.0 * 1.93**-n, n=n, nu=t_best),
    ]


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability expected, got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def entropy_binomial_bound(n: int, w: int) -> float:
    """(n+1) 2^(-n H(w/n)), an upper bound on 1/C(n,w); verified exactly."""
    if not 0 <= w <= n:
        raise ValueError(f"level w={w} out of range for n={n}")
    bound = (n + 1) * 2.0 ** (-n * binary_entropy(w / n))
    # the binomial lower bound C(n,w) >= 2^(n H(w/n)) / (n+1) is a theorem;
    # check it with exact integer binomials (tiny float slack on the bound)
    if comb(n, w) * bound < 1.0 - 1e-12:
        raise AssertionError(f"entropy bound violated at n={n}, w={w}")
    return float(bound)


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


def stirling_bounds_check(n: int, c: float = 0.13368) -> BoundReport:
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


def f_ray_bound_magnitude(n: int, k: int, y: float) -> float:
    """Bound on |f| on the vertical ray above n a_k, via the modulus bound.

    Uses the exact factorization of f at the cosine zeros together with the
    3 e^{-y} |z|^{-1/2} Hankel bound, in log space:
    |f| <= 3 * 2^-n * (1 - e^{-2y/n})^n * |z|^{-3/2}.  Only valid once
    |z| >= n^2; callers must screen for that.
    """
    a_k = (k - 0.5) * pi
    z_abs = np.hypot(n * a_k, y)
    if y <= 0.0:
        return 0.0
    log_mag = (
        log(3.0)
        - n * log(2.0)
        + n * log1p(-np.exp(-2.0 * y / n))
        - 1.5 * log(z_abs)
    )
    return float(np.exp(log_mag))


def f_ray_envelope_check(n: int, y_grid: Iterable[float] | None = None) -> tuple[BoundReport, int, int]:
    """Check |f(n a_k + i y)| <= 860 * 1.541^-n |n a_k + i y|^-1.5 for 1 <= k < n.

    Grid points with |z| < n^2 have no evaluation route for the Hankel factor
    and are skipped (counted, not failed).  The per-point quantity compared
    is the bound-over-envelope ratio, so this is a bound-versus-bound check.
    Returns (report, points_checked, points_skipped).
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if y_grid is None:
        y_grid = np.linspace(0.0, 4.0 * n * n, 201)
    checked = 0
    skipped = 0
    worst = 0.0
    for k in range(1, n):
        a_k = (k - 0.5) * pi
        for y in y_grid:
            z_abs = np.hypot(n * a_k, float(y))
            if z_abs < n * n:
                skipped += 1
                continue
            checked += 1
            mag = f_ray_bound_magnitude(n, k, float(y))
            ratio = mag * 1.541**n * z_abs**1.5
            worst = max(worst, ratio)
    return BoundReport("f_ray_envelope", worst, 860.0, n=n), checked, skipped
