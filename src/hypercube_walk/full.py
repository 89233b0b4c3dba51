"""Dense full-state simulator over all 2^n * n basis states.

Brute-force oracle for the symmetric-subspace walk.  It stores every
amplitude and takes the walk's definition literally: the Grover coin on each
vertex's direction register, then the shift as one gather through a per-n
cached permutation of the flat state.  The projection onto the symmetric
level states is one ``np.bincount`` over the same flat state.  Neither uses
the level recurrences of ``walk``.  The constructor caps n at 16 (about 8 MB
per state), which is far more than the cross-validation range needs.

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


@lru_cache(maxsize=None)
def _shift_index(n: int) -> np.ndarray:
    """Flat source index of the shift, built once per n and read-only.

    Entry x*n + i holds (x ^ (1 << i))*n + i: the shifted state's |x, i+1>
    takes the amplitude of |x ^ (1 << i), i+1>.  The index has numpy's
    native width, so the gather uses it without a cast.
    """
    x = np.arange(2**n)[:, None]
    i = np.arange(n)
    index = ((x ^ (1 << i)) * n + i).ravel()
    index.setflags(write=False)
    return index


def full_step(state: FullState) -> FullState:
    """Apply the Grover coin at every vertex, then shift along each direction.

    The coin is 2/n * J - I on the direction register; the shift moves the
    amplitude of |x, i> to |x ^ (1 << (i-1)), i>.  The shift is a pure
    permutation, done as one gather through ``_shift_index``.
    """
    n = state.n
    amp = state.amp
    coined = (2.0 / n) * amp.sum(axis=1, keepdims=True) - amp
    return FullState(n, coined.ravel()[_shift_index(n)].reshape(coined.shape))


@lru_cache(maxsize=None)
def _sector_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-n constants of ``project_symmetric``, built once and read-only.

    Returns the flat bin key (n+1)*bit_i(x) + weight(x) of every basis state
    |x, i+1> (outgoing sector first, then incoming) and the (2, n+1)
    normalisers sqrt(C(n,w)(n-w)) and sqrt(C(n,w) w) of the two sectors.
    The empty sectors, outgoing at w = n and incoming at w = 0, get an
    infinite normaliser, so their zero sum projects to exactly 0.
    """
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    weights = bits.sum(axis=1, keepdims=True)
    keys = ((n + 1) * bits + weights).ravel()
    sizes = np.array([[comb(n, w) * (n - w), comb(n, w) * w] for w in range(n + 1)]).T
    norms = np.where(sizes > 0, np.sqrt(sizes), np.inf)
    for array in (keys, norms):
        array.setflags(write=False)
    return keys, norms


def project_symmetric(state: FullState) -> SymmetricState:
    """Inner products with the symmetric level states.

    For a state evolved from ``full_start`` the projection is lossless; for
    an arbitrary state the projected norm may be smaller than one.

    Both sectors' level sums come from one ``np.bincount``, which adds the
    N terms a_1..a_N of each (level, sector) bin one after another, in flat
    state order.  Recursive summation bounds the rounding error of each sum
    by |s_hat - s| <= (N-1) * u * sum |a_k|, with u = 2^-53 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 4.2);
    the division by the normaliser adds one more rounding.
    """
    n = state.n
    keys, norms = _sector_layout(n)
    sums = np.bincount(keys, weights=state.amp.ravel(), minlength=2 * (n + 1))
    alpha_right, alpha_left = sums.reshape(2, n + 1) / norms
    return SymmetricState(n, alpha_right, alpha_left)


def full_vertex_probability(state: FullState, x: int) -> float:
    """P(x,t): probability of the walker sitting at vertex x."""
    if not 0 <= x < 2**state.n:
        raise ValueError(f"vertex index {x} out of range for n={state.n}")
    return float(np.sum(state.amp[x] ** 2))


def full_vertex_probabilities(state: FullState) -> np.ndarray:
    return np.sum(state.amp**2, axis=1)
