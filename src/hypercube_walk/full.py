"""Dense full-state simulator over all 2^n * n basis states.

Brute-force oracle for the symmetric-subspace walk.  It stores every
amplitude and takes the walk's definition literally: the Grover coin on each
vertex's direction register, then the shift as a permutation of the basis
states.  The module imports nothing of ``walk`` and calls no BLAS routine.

A state is the direction-major array amp[i, x] of shape (n, 2^n): row i
holds the amplitudes of |x, i+1> over all vertices x.  One kernel,
``_steps``, steps a state in place: the coin adds the n rows left to right
into one (2^n,) buffer, scales it by 2/n and subtracts the state into one
(n, 2^n) buffer; the shift gathers that buffer back into the state through
a per-n cached flat permutation index.  One projection, ``_project``, takes
each state's symmetric level sums from one ``np.bincount``.  ``full_step``,
``project_symmetric`` and ``trajectory(n, t_max)`` are thin calls of the
two.  ``trajectory`` keeps no step's state: it holds two state-sized arrays
of n * 2^n doubles (768 KiB at n = 12, 16 MiB at the cap n = 16), the two
cached index tables of as many native integers, and its (t_max+1, 2, n+1)
result.

Vertices are encoded as n-bit integers; bit i-1 of x holds coordinate x_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "FullState",
    "MAX_FULL_DIM",
    "full_start",
    "full_step",
    "project_symmetric",
    "full_vertex_probabilities",
    "trajectory",
]

MAX_FULL_DIM = 16


@dataclass
class FullState:
    """Real amplitudes amp[i, x] of the basis states |x, i+1>, shape (n, 2**n)."""

    n: int
    amp: np.ndarray  # shape (n, 2**n), direction-major

    def norm_sq(self) -> float:
        return float(np.sum(self.amp * self.amp))


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_FULL_DIM:
        raise ValueError(f"full-state simulator supports 1 <= n <= {MAX_FULL_DIM}, got {n}")


def full_start(n: int) -> FullState:
    """Walker at vertex 0^n, coin register uniform over the n directions."""
    _check_dim(n)
    amp = np.zeros((n, 2**n))
    amp[:, 0] = 1.0 / np.sqrt(n)
    return FullState(n, amp)


@lru_cache(maxsize=None)
def _shift_index(n: int) -> np.ndarray:
    """Flat source index of the shift, built once per n.

    Entry i*2^n + x holds i*2^n + (x ^ (1 << i)): the shifted state's
    |x, i+1> takes the amplitude of |x ^ (1 << i), i+1>.  The index has
    numpy's native width and stays writeable, because ``np.take`` copies a
    read-only or narrower index on every call; it is private and never
    written after this.
    """
    i = np.arange(n)[:, None]
    x = np.arange(2**n)
    return ((i << n) + (x ^ (1 << i))).ravel()


def _steps(amp: np.ndarray):
    """Yield ``amp`` (n, 2^n, C-contiguous) as a flat view, then step it in
    place and yield it again, without end.

    The coin is 2/n * J - I on the direction register: the direction sum
    goes into one (2^n,) buffer and the coined state into one (n, 2^n)
    buffer, both allocated once.  The shift moves the amplitude of |x, i> to
    |x ^ (1 << (i-1)), i>; it is a pure permutation, done as one gather
    through ``_shift_index`` back into ``amp``.
    """
    n = amp.shape[0]
    index = _shift_index(n)
    coined = np.empty_like(amp)
    total = np.empty(2**n)
    flat, flat_coined = amp.reshape(-1), coined.reshape(-1)
    while True:
        yield flat
        np.add.reduce(amp, axis=0, out=total)
        total *= 2.0 / n
        np.subtract(total, amp, out=coined)
        # mode="wrap" gathers straight into out; the default mode buffers
        np.take(flat_coined, index, out=flat, mode="wrap")


def full_step(state: FullState) -> FullState:
    """Apply the Grover coin at every vertex, then shift along each direction.

    Returns a new state and leaves ``state`` unchanged; see ``_steps``.
    """
    amp = np.array(state.amp, dtype=float, order="C")
    steps = _steps(amp)
    next(steps)  # the state as given
    next(steps)
    return FullState(state.n, amp)


@lru_cache(maxsize=None)
def _sector_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-n constants of the projection, built once.

    Returns the flat bin key (n+1)*bit_i(x) + weight(x) of every basis state
    |x, i+1>, in the direction-major order of the state (outgoing sector
    first, then incoming), and the read-only (2, n+1) normalisers
    sqrt(C(n,w)(n-w)) and sqrt(C(n,w) w) of the two sectors.  The empty
    sectors, outgoing at w = n and incoming at w = 0, get an infinite
    normaliser, so their zero sum projects to exactly 0.  The keys stay
    writeable for the reason given in ``_shift_index``: ``np.bincount``
    copies read-only keys on every call.
    """
    bits = (np.arange(2**n) >> np.arange(n)[:, None]) & 1
    keys = ((n + 1) * bits + bits.sum(axis=0)).ravel()
    sizes = np.array([[comb(n, w) * (n - w), comb(n, w) * w] for w in range(n + 1)]).T
    norms = np.where(sizes > 0, np.sqrt(sizes), np.inf)
    norms.setflags(write=False)
    return keys, norms


def _project(n: int, flats, rows: int) -> np.ndarray:
    """Projections of the first ``rows`` flat states that ``flats`` yields.

    Returns shape (rows, 2, n+1); no state past the first ``rows`` is drawn.

    Each state's level sums come from one ``np.bincount``; the division by
    the normalisers is one array operation at the end.
    """
    keys, norms = _sector_layout(n)
    sums = np.empty((rows, norms.size))
    for row, flat in zip(sums, flats):
        row[:] = np.bincount(keys, weights=flat, minlength=norms.size)
    sums = sums.reshape(rows, 2, n + 1)
    sums /= norms
    return sums


def project_symmetric(state: FullState) -> np.ndarray:
    """Inner products with the symmetric level states, shape (2, n+1).

    Row 0 holds alpha_right and row 1 alpha_left, as in a row of
    ``walk.trajectory``.  For a state evolved from ``full_start`` the
    projection is lossless; for an arbitrary state the projected norm may be
    smaller than one.

    Both sectors' level sums come from one ``np.bincount``, which adds the
    N terms a_1..a_N of each (level, sector) bin one after another, in flat
    state order.  Recursive summation bounds the rounding error of each sum
    by |s_hat - s| <= (N-1) * u * sum |a_k|, with u = 2^-53 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 4.2);
    the division by the normaliser adds one more rounding.
    """
    return _project(state.n, [np.ravel(state.amp)], 1)[0]


def trajectory(n: int, t_max: int) -> np.ndarray:
    """Projected amplitudes after 0..t_max steps from ``full_start(n)``.

    Returns a (t_max+1, 2, n+1) array whose row t is ``project_symmetric``
    of the state after t steps, the layout of ``walk.trajectory``.  One
    state is stepped in place by the kernel of ``full_step``, so the rows
    are bit-identical to that stepwise loop; no step's state is kept.
    """
    _check_dim(n)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    return _project(n, _steps(full_start(n).amp), t_max + 1)


def full_vertex_probabilities(state: FullState) -> np.ndarray:
    return np.sum(state.amp**2, axis=0)
