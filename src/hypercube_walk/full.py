"""Dense full-state simulator over all 2^n * n basis states.

Brute-force oracle for the symmetric-subspace walk: obviously correct, not
fast.  The constructor caps n at 16 (about 8 MB per state), which is far more
than the cross-validation range needs.

Vertices are encoded as n-bit integers; bit i-1 of x holds coordinate x_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .walk import SymmetricState

__all__ = [
    "FullState",
    "MAX_FULL_DIM",
    "full_start",
    "full_step",
    "project_symmetric",
    "full_vertex_probability",
    "full_vertex_probabilities",
]

MAX_FULL_DIM = 16


@dataclass
class FullState:
    """Real amplitudes amp[x, i] of the basis states |x, i+1>."""

    n: int
    amp: np.ndarray  # shape (2**n, n)

    def norm_sq(self) -> float:
        return float(np.sum(self.amp * self.amp))


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_FULL_DIM:
        raise ValueError(f"full-state simulator supports 1 <= n <= {MAX_FULL_DIM}, got {n}")


def full_start(n: int) -> FullState:
    """Walker at vertex 0^n, coin register uniform over the n directions."""
    _check_dim(n)
    amp = np.zeros((2**n, n))
    amp[0, :] = 1.0 / np.sqrt(n)
    return FullState(n, amp)


def full_step(state: FullState) -> FullState:
    """Apply the Grover coin at every vertex, then shift along each direction.

    The coin is 2/n * J - I on the direction register; the shift moves the
    amplitude of |x, i> to |x ^ (1 << (i-1)), i>.
    """
    n = state.n
    amp = state.amp
    coined = (2.0 / n) * amp.sum(axis=1, keepdims=True) - amp
    shifted = np.empty_like(coined)
    idx = np.arange(2**n)
    for i in range(n):
        shifted[:, i] = coined[idx ^ (1 << i), i]
    return FullState(n, shifted)


@lru_cache(maxsize=None)
def _projection_layout(
    n: int,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """Per-n constants of ``project_symmetric``, built once and read-only.

    Returns the 2^n x n masks of outgoing (bit i of x clear) and incoming
    (bit i set) directions, the vertex indices of each Hamming level, and the
    normalisers sqrt(C(n,w)(n-w)) and sqrt(C(n,w) w) of the two sectors.
    """
    weights = np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(np.int64)
    bits = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    levels = [np.flatnonzero(weights == w) for w in range(n + 1)]
    norm_right = np.array([np.sqrt(comb(n, w) * (n - w)) for w in range(n + 1)])
    norm_left = np.array([np.sqrt(comb(n, w) * w) for w in range(n + 1)])
    outgoing = ~bits
    for array in (outgoing, bits, *levels, norm_right, norm_left):
        array.setflags(write=False)
    return outgoing, bits, levels, norm_right, norm_left


def project_symmetric(state: FullState) -> SymmetricState:
    """Inner products with the symmetric level states.

    For a state evolved from ``full_start`` the projection is lossless; for
    an arbitrary state the projected norm may be smaller than one.
    """
    n = state.n
    outgoing, incoming, levels, norm_right, norm_left = _projection_layout(n)
    alpha_right = np.zeros(n + 1)
    alpha_left = np.zeros(n + 1)
    right_sum = np.where(outgoing, state.amp, 0.0).sum(axis=1)
    left_sum = np.where(incoming, state.amp, 0.0).sum(axis=1)
    for w, index in enumerate(levels):
        if w < n:
            alpha_right[w] = right_sum[index].sum() / norm_right[w]
        if w > 0:
            alpha_left[w] = left_sum[index].sum() / norm_left[w]
    return SymmetricState(n, alpha_right, alpha_left)


def full_vertex_probability(state: FullState, x: int) -> float:
    """P(x,t): probability of the walker sitting at vertex x."""
    if not 0 <= x < 2**state.n:
        raise ValueError(f"vertex index {x} out of range for n={state.n}")
    return float(np.sum(state.amp[x] ** 2))


def full_vertex_probabilities(state: FullState) -> np.ndarray:
    return np.sum(state.amp**2, axis=1)
