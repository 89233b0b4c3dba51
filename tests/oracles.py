"""Independent reference implementations used only by the tests.

Each oracle deliberately takes a different route than the production code:
arbitrary-precision Bessel values, the Chebyshev three-term recurrence, an
oversampled fixed-rule quadrature, the dense walk's shift as one
fancy-indexed copy per direction, and the symmetric walk as a 2x2 coin from
its formula and a shift into fresh arrays, one step and one set of
statistics at a time.
"""

from __future__ import annotations

from math import comb, sqrt

import numpy as np


def ref_bessel_j(nu: int, x: float, dps: int = 30) -> float:
    """Arbitrary-precision Bessel J via mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        return float(mp.besselj(nu, mp.mpf(x)))


def chebyshev_recurrence(t: int, z: float) -> float:
    """T_t(z) by the three-term recurrence T_{k+1} = 2 z T_k - T_{k-1}."""
    if t == 0:
        return 1.0
    prev, cur = 1.0, z
    for _ in range(1, t):
        prev, cur = cur, 2.0 * z * cur - prev
    return cur


def composite_simpson(f, a: float, b: float, panels: int) -> float:
    """Oversampled composite Simpson rule (panels must be even)."""
    if panels % 2 == 1:
        panels += 1
    x = np.linspace(a, b, panels + 1)
    y = f(x)
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def full_step_per_direction(amp: np.ndarray) -> np.ndarray:
    """One dense walk step on amp[x, i]: Grover coin, then one shift per direction.

    The coin is 2/n * J - I on each row; the shift copies column i from the
    rows x ^ (1 << i).
    """
    n = amp.shape[1]
    coined = (2.0 / n) * amp.sum(axis=1, keepdims=True) - amp
    shifted = np.empty_like(coined)
    idx = np.arange(2**n)
    for i in range(n):
        shifted[:, i] = coined[idx ^ (1 << i), i]
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
