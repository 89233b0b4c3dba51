"""Independent reference implementations used only by the tests.

Each oracle deliberately takes a different route than the production code:
arbitrary-precision Bessel values, the Chebyshev three-term recurrence, an
oversampled fixed-rule quadrature, and the dense
walk's shift as one fancy-indexed copy per direction.
"""

from __future__ import annotations

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
