"""Independent reference implementations used only by the tests.

Each oracle deliberately takes a different route than the production code:
arbitrary-precision Bessel and Chebyshev values, the upward recurrence one
order at a time from seeds the caller passes, with none of the production
kernel's shared stepping, the Chebyshev three-term recurrence, T_t(z) and
the Chebyshev sum with one scalar cosine per (t, m), the bits the batched
production code must reproduce, the return amplitude as an exact rational
from the integer form of that recurrence, an oversampled fixed-rule
quadrature, the appendix ray envelope as one scalar evaluation per point,
the dense walk's coin as a plain loop over directions and its shift as one
fancy-indexed copy per direction, the symmetric walk as a 2x2 coin from its
formula and a shift into fresh arrays, one step and one set of statistics at
a time, and Miller's backward sweep scanning its values for overflow after
every order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import comb, fsum, hypot, log, log1p, pi, sqrt

import numpy as np


def ref_bessel_j(nu: int, x: float, dps: int = 30) -> float:
    """Arbitrary-precision Bessel J via mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.besselj(nu, mp.mpf(x)))


def chebyshev_mp(t: int, z: float, dps: int = 40) -> float:
    """T_t(z) = cos(t acos z) in mpmath at dps digits, rounded once to a float."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.cos(t * mp.acos(mp.mpf(z))))


def upward_recurrence(nu: int, x: np.ndarray, prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """C_nu(x) by C_(k+1) = (2k/x) C_k - C_(k-1) from the order-0 and order-1 values."""
    if nu == 0:
        return prev
    for k in range(1, nu):
        prev, cur = cur, (2.0 * k / x) * cur - prev
    return cur


def miller_sweep_scanning(xt: np.ndarray, joins: list, captures: dict, table: np.ndarray) -> None:
    """specfun._miller_sweep's contract, its prefix scanned for |values| > 1e250 after every order.

    The same recurrence, rescale and normalization, with the exact max/min
    scan at every step in place of a gate on a bound.
    """
    columns = np.concatenate([np.arange(lo, hi) for _, lo, hi in joins])
    x = xt[columns]
    stops = dict(zip([start for start, _, _ in joins], accumulate(hi - lo for _, lo, hi in joins)))
    above, cur = np.zeros_like(x), np.zeros_like(x)
    even_sum = np.zeros_like(x)
    end = 0
    for k in range(joins[0][0], 0, -1):
        if k in stops:
            cur[end:stops[k]] = 1e-300
            above[end:stops[k]] = 0.0
            end = stops[k]
        if k % 2 == 0:
            even_sum[:end] += 2.0 * cur[:end]
        nxt = cur.copy()
        nxt[:end] = (2.0 * k / x[:end]) * cur[:end] - above[:end]
        above, cur = cur, nxt
        for row, lo, hi, col in captures.get(k - 1, ()):
            table[row, col:col + hi - lo] = cur[lo:hi]
        c = cur[:end]
        if c.max() > 1e250 or c.min() < -1e250:
            overflow = np.abs(c) > 1e250
            for arr in (cur, above, even_sum):
                arr[:end][overflow] *= 1e-250
            table[:, columns[:end][overflow]] *= 1e-250
    even_sum += cur
    for row, lo, hi, col in chain.from_iterable(captures.values()):
        table[row, col:col + hi - lo] /= even_sum[lo:hi]


def f_ray_envelope_loop(n: int, rate: float) -> tuple[float, int, int]:
    """(worst ratio, checked, skipped) of the appendix ray envelope, point by point.

    The ratio is 3 * 2^-n (1 - e^(-2y/n))^n |z|^(-3/2) * rate^n |z|^1.5 at
    z = n (k - 1/2) pi + iy for 1 <= k < n and 201 y in [0, 4 n^2], formed in
    log space with math's scalar functions; points with |z| < n^2 are skipped
    and y = 0 gives 0.
    """
    worst, checked, skipped = 0.0, 0, 0
    for k in range(1, n):
        for y in np.linspace(0.0, 4.0 * n * n, 201).tolist():
            z_abs = hypot(n * ((k - 0.5) * pi), y)
            if z_abs < n * n:
                skipped += 1
                continue
            checked += 1
            if y > 0.0:
                log_mag = (log(3.0) - n * log(2.0) + n * log1p(-np.exp(-2.0 * y / n))
                           - 1.5 * log(z_abs))
                worst = max(worst, float(np.exp(log_mag)) * rate**n * z_abs**1.5)
    return worst, checked, skipped


def chebyshev_recurrence(t: int, z: float) -> float:
    """T_t(z) by the three-term recurrence T_{k+1} = 2 z T_k - T_{k-1}."""
    if t == 0:
        return 1.0
    prev, cur = 1.0, z
    for _ in range(1, t):
        prev, cur = cur, 2.0 * z * cur - prev
    return cur


def chebyshev_scalar(t: int, z: float) -> float:
    """T_t(z) = cos(t arccos z) for one Python int t and float z, +-1 exact at the endpoints."""
    z = min(1.0, max(-1.0, z))
    if z == 1.0:
        return 1.0
    if z == -1.0:
        return 1.0 if t % 2 == 0 else -1.0
    return float(np.cos(t * np.arccos(z)))


def chebyshev_amplitude_scalar(n: int, t: int) -> float:
    """2^-n sum_m C(n,m) T_t(1 - 2m/n) by math.fsum, one chebyshev_scalar call per m; 0.0 at odd t."""
    if t % 2:
        return 0.0
    return fsum(comb(n, m) / 2**n * chebyshev_scalar(t, 1.0 - 2.0 * m / n) for m in range(n + 1))


def exact_return_amplitude(n: int, t: int) -> Fraction:
    """2^-n sum_m C(n,m) T_t((n - 2m)/n) as an exact rational.

    With k = n - 2m, U_j = n^j T_j(k/n) is an integer: U_0 = 1, U_1 = k and
    U_(j+1) = 2k U_j - n^2 U_(j-1), so the amplitude is
    sum_m C(n,m) U_t / (2^n n^t).
    """
    total = 0
    for m in range(n + 1):
        k = n - 2 * m
        prev, cur = 1, k
        for _ in range(t):
            prev, cur = cur, 2 * k * cur - n * n * prev
        total += comb(n, m) * prev
    return Fraction(total, 2**n * n**t)


def composite_simpson(f, a: float, b: float, panels: int) -> float:
    """Oversampled composite Simpson rule (panels must be even)."""
    if panels % 2 == 1:
        panels += 1
    x = np.linspace(a, b, panels + 1)
    y = f(x)
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def full_step_per_direction(amp: np.ndarray) -> np.ndarray:
    """One dense walk step on amp[i, x]: Grover coin, then one shift per direction.

    The coin is 2/n * J - I on each column, its direction sum a plain loop
    that adds the rows left to right; the shift copies row i from the
    columns x ^ (1 << i).
    """
    n = amp.shape[0]
    total = amp[0].copy()
    for row in amp[1:]:
        total = total + row
    coined = (2.0 / n) * total - amp
    shifted = np.empty_like(coined)
    idx = np.arange(2**n)
    for i in range(n):
        shifted[i] = coined[i, idx ^ (1 << i)]
    return shifted


def coin(n: int, w: int) -> np.ndarray:
    """Grover coin on the outgoing/incoming symmetric direction states of level w."""
    off = 2.0 * sqrt(w * (n - w)) / n
    return np.array([[2.0 * (n - w) / n - 1.0, off], [off, 2.0 * w / n - 1.0]])


def coin_shift(ns, alpha_right: np.ndarray, alpha_left: np.ndarray):
    """Coin then shift into fresh arrays.

    ``ns`` is one dimension, with amplitude arrays of shape (n+1,), or a list
    of them, one row each with levels zero-padded to the last axis; padded
    levels get a zero coin.  The shift takes alpha_right[w] from the coin's
    incoming output at w+1 and alpha_left[w] from its outgoing output at w-1.
    """
    width = alpha_right.shape[-1]
    coins = np.zeros((3, np.size(ns), width))
    for row, n in enumerate(np.atleast_1d(ns)):
        for w in range(n + 1):
            c = coin(int(n), w)
            coins[:, row, w] = c[0, 0], c[0, 1], c[1, 1]
    diag_right, off, diag_left = coins.reshape(3, *alpha_right.shape)
    beta_right = diag_right * alpha_right + off * alpha_left
    beta_left = off * alpha_right + diag_left * alpha_left
    new_right = np.zeros(alpha_right.shape)
    new_left = np.zeros(alpha_left.shape)
    new_left[..., 1:] = beta_right[..., :-1]
    new_right[..., :-1] = beta_left[..., 1:]
    return new_right, new_left


def stepwise_walk(ns, t_max: int):
    """Yield (alpha_right, alpha_left) after 0..t_max steps, fresh arrays at every step.

    The walk starts with amplitude 1 on level 0's outgoing state; ``ns`` is
    as in ``coin_shift``.
    """
    shape = np.shape(ns) + (int(np.max(ns)) + 1,)
    alpha_right, alpha_left = np.zeros(shape), np.zeros(shape)
    alpha_right[..., 0] = 1.0
    for t in range(t_max + 1):
        yield alpha_right, alpha_left
        if t < t_max:
            alpha_right, alpha_left = coin_shift(ns, alpha_right, alpha_left)


def stepwise_scan(ns: list[int], t_max: int):
    """(p0, max_vertex_prob, argmax_w), each of shape (t_max+1, len(ns)), step by step.

    The vertex probability of level w is its level probability over C(n, w);
    ties of the maximum break toward the smallest level.
    """
    binom = np.ones((len(ns), max(ns) + 1))
    for row, n in enumerate(ns):
        binom[row, : n + 1] = [comb(n, w) for w in range(n + 1)]
    rows = np.arange(len(ns))
    p0, peak = np.empty((2, t_max + 1, len(ns)))
    argmax = np.empty((t_max + 1, len(ns)), dtype=np.intp)
    for t, (alpha_right, alpha_left) in enumerate(stepwise_walk(ns, t_max)):
        levels = alpha_right**2 + alpha_left**2
        per_vertex = levels / binom
        argmax[t] = np.argmax(per_vertex, axis=1)
        p0[t] = levels[:, 0]
        peak[t] = per_vertex[rows, argmax[t]]
    return p0, peak, argmax
