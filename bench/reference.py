"""Exact references the benchmark checks the program's numbers against.

Everything here is independent of the ``hypercube_walk`` package: plain
Python integers and fractions, no floating-point recurrence.

The walk reference scales the per-direction amplitudes by sqrt(n) n^t, which
makes them integers.  With s = (n-w) R_w + w L_w the Grover coin gives
R' = 2s - n R and L' = 2s - n L, and the shift moves R'_w to L_(w+1) and L'_w
to R_(w-1).  The probability of one vertex at level w after t steps is
((n-w) R_w^2 + w L_w^2) / n^(2t+1), and the return amplitude is R_0 / n^t.

The second route is the rational Chebyshev sum: the return amplitude equals
2^-n sum_m C(n,m) T_t(1 - 2m/n), and n^t T_t((n-2m)/n) is an integer.  The
two routes must agree exactly at every step before either is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb


class ReferenceMismatch(AssertionError):
    """The two exact routes disagree: the reference itself is wrong."""


@dataclass
class ExactScan:
    """Per-step reference values of one walk, correctly rounded to float.

    ``argmax_w[t]`` is the smallest level whose vertices reach the exact
    maximum; ``t_min`` is the smallest step reaching the exact minimum of
    that maximum over 0..t_max, and ``p_at_tmin`` the minimum itself.
    """

    n: int
    p0: list[float]
    amplitude: list[float]
    max_vertex_prob: list[float]
    argmax_w: list[int]
    t_min: int
    p_at_tmin: float


# Levels whose float estimate lies within this relative window of the
# maximum are compared exactly; the estimate is good to a few ulps.
_CANDIDATE_WINDOW = 1e-12


def exact_scan(n: int, t_max: int) -> ExactScan:
    """Step the integer-scaled walk to t_max and cross-check every R_0.

    Raises ReferenceMismatch if the Chebyshev route disagrees at any step.
    """
    if n < 1 or t_max < 0:
        raise ValueError(f"need n >= 1 and t_max >= 0, got n={n}, t_max={t_max}")
    binom = [comb(n, w) for w in range(n + 1)]
    right = [0] * (n + 1)
    left = [0] * (n + 1)
    right[0] = 1
    # Chebyshev route: u[m] = n^t T_t((n - 2m)/n), advanced by the
    # three-term recurrence u_(t+1) = 2 p u_t - n^2 u_(t-1).  T_t is even in
    # its argument for even t and odd for odd t, so the sum over m > n/2
    # mirrors m < n/2: odd steps sum to zero, even steps to twice the lower
    # half plus the middle term.
    half = n // 2
    cheb_p = [n - 2 * m for m in range(half + 1)]
    cheb_w = [2 * binom[m] for m in range(half + 1)]
    if n % 2 == 0:
        cheb_w[half] = binom[half]
    u_prev = [0] * (half + 1)
    u_cur = [1] * (half + 1)
    nn = n * n
    scale = 1  # n^t
    p0, amplitude, max_vertex, argmax = [], [], [], []
    best_float = float("inf")
    best_exact: list[tuple[int, int, int]] = []  # (t, numerator, n^(2t+1))
    for t in range(t_max + 1):
        cheb_sum = sum(c * u for c, u in zip(cheb_w, u_cur)) if t % 2 == 0 else 0
        if cheb_sum != right[0] << n:
            raise ReferenceMismatch(f"walk and Chebyshev routes differ at n={n}, t={t}")
        square_scale = scale * scale
        vertex_den = square_scale * n
        p0.append(right[0] * right[0] / square_scale)
        amplitude.append(right[0] / scale)
        w_best, num_best = _level_argmax(n, t, right, left, scale)
        value = num_best / vertex_den
        max_vertex.append(value)
        argmax.append(w_best)
        if value < best_float:
            best_float = value
            best_exact = []
        if value == best_float:
            best_exact.append((t, num_best, vertex_den))
        if t == t_max:
            break
        new_right = [0] * (n + 1)
        new_left = [0] * (n + 1)
        for w in range(t % 2, n + 1, 2):
            s = (n - w) * right[w] + w * left[w]
            if w < n:
                new_left[w + 1] = 2 * s - n * right[w]
            if w > 0:
                new_right[w - 1] = 2 * s - n * left[w]
        right, left = new_right, new_left
        u_prev, u_cur = u_cur, [
            (2 * p * a if t else p * a) - (nn * b if t else 0)
            for p, a, b in zip(cheb_p, u_cur, u_prev)
        ]
        scale *= n
    t_best, num, den = best_exact[0]
    for cand in best_exact[1:]:
        # exact comparison; on a tie the earlier step stays (smallest t)
        if cand[1] * den < num * cand[2]:
            t_best, num, den = cand
    return ExactScan(n, p0, amplitude, max_vertex, argmax, t_best, num / den)


def _level_argmax(n, t, right, left, scale):
    """Smallest level whose vertices carry the exact maximal probability.

    Returns the level and the numerator (n-w) R_w^2 + w L_w^2 of its vertex
    probability; all levels share the denominator n^(2t+1).
    """
    shift = max(0, scale.bit_length() - 200)
    denom = float(scale >> shift)
    estimates = []
    for w in range(t % 2, n + 1, 2):
        r = (right[w] >> shift) / denom
        l = (left[w] >> shift) / denom
        estimates.append(((n - w) * r * r + w * l * l, w))
    top = max(v for v, _ in estimates)
    candidates = [w for v, w in estimates if v >= top * (1.0 - _CANDIDATE_WINDOW)]
    w_best = candidates[0]
    num_best = (n - w_best) * right[w_best] ** 2 + w_best * left[w_best] ** 2
    for w in candidates[1:]:
        num = (n - w) * right[w] ** 2 + w * left[w] ** 2
        if num > num_best:
            w_best, num_best = w, num
    return w_best, num_best


def chebyshev_T(t: int, z: Fraction) -> Fraction:
    """T_t(z) exactly, by the recurrence and by the binomial closed form.

    The closed form T_t(z) = sum_k C(t, 2k) z^(t-2k) (z^2 - 1)^k is a second,
    independent route; the two must agree exactly.
    """
    prev, cur = Fraction(1), z
    if t == 0:
        cur = prev
    for _ in range(1, t):
        prev, cur = cur, 2 * z * cur - prev
    closed = sum(comb(t, 2 * k) * z ** (t - 2 * k) * (z * z - 1) ** k
                 for k in range(t // 2 + 1))
    if closed != cur:
        raise ReferenceMismatch(f"T_{t}({z}) differs between recurrence and closed form")
    return cur
