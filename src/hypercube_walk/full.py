"""Dense full-state simulator over all 2^n * n basis states.

Brute-force oracle for the symmetric-subspace walk.  It stores every
amplitude and takes the walk's definition literally: the Grover coin on each
vertex's direction register, then the shift as a permutation of the basis
states.  The module imports nothing of ``walk`` and calls no BLAS routine.

A state is the direction-major array amp[i, x] of shape (n, 2^n): row i
holds the amplitudes of |x, i+1> over all vertices x.  The hypercube is
bipartite and every shift changes the popcount parity of x, so a walk from
0^n holds amplitude only on the vertices of parity t mod 2 after t steps;
the rest of its state is exactly +0.0.  The kernel steps half states of
shape (n, 2^(n-1)), one parity class p each: vertex x sits in column
k = x >> 1, so bit 0 of x is p XOR parity(k) and x = 2k + bit0 increases
with k, and each row keeps its amplitudes in natural order.

One kernel, ``_steps``, steps a half state in place into the other parity's
half: the coin adds the n rows left to right into one (2^(n-1),) buffer,
scales it by 2/n and subtracts the state into one (n, 2^(n-1)) buffer; the
shift gathers that buffer back into the state.  One projection,
``_project``, takes each state's symmetric level sums from one
``np.bincount`` keyed by a per-parity table.  A bin adds the same nonzero
terms in the same order as on the whole state, where the other half's +0.0
adds nothing, so ``trajectory(n, t_max)``, which steps and projects the
half of parity t mod 2 only, is bit-identical to stepping whole states.  It
keeps no step's state: it holds two half-state arrays of n * 2^(n-1)
doubles (192 KiB each at n = 12, 8 MiB together at the cap n = 16), the
cached index tables and its (t_max+1, 2, n+1) result.  ``full_step`` and
``project_symmetric`` keep the natural layout: one cached permutation splits
a state into its two halves, and ``full_step`` steps each and merges them.

Vertices are encoded as n-bit integers; bit i-1 of x holds coordinate x_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import cycle
from math import comb

import numpy as np

__all__ = [
    "FullState",
    "MAX_FULL_DIM",
    "full_start",
    "full_step",
    "project_symmetric",
    "trajectory",
]

MAX_FULL_DIM = 16


@dataclass
class FullState:
    """Real amplitudes amp[i, x] of the basis states |x, i+1>, shape (n, 2**n)."""

    n: int
    amp: np.ndarray  # shape (n, 2**n), direction-major


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
def _half_vertices(n: int) -> np.ndarray:
    """Vertex x = 2k + (p XOR parity(k)) of column k of the parity-p half, shape (2, 2^(n-1))."""
    k = np.arange(2 ** (n - 1))
    return 2 * k + ((np.arange(2)[:, None] ^ np.bitwise_count(k)) & 1)


@lru_cache(maxsize=None)
def _split_index(n: int) -> np.ndarray:
    """Flat natural index i*2^n + x of entry (p, i, k) of the two stacked halves."""
    return ((np.arange(n)[:, None] << n) + _half_vertices(n)[:, None, :]).ravel()


@lru_cache(maxsize=None)
def _shift_index(n: int) -> np.ndarray:
    """Flat source index of the shift on a half state, built once per n.

    Entry i*2^(n-1) + k holds i*2^(n-1) + k for i = 0 and
    i*2^(n-1) + (k ^ (1 << (i-1))) for i >= 1: the shifted state's column k
    of row i takes the amplitude of vertex x ^ (1 << i), which sits in that
    column of the other parity's half.  The index has numpy's native width
    and stays writeable, because ``np.take`` copies a read-only or narrower
    index on every call; it is private and never written after this.
    """
    i = np.arange(n)[:, None]
    k = np.arange(2 ** (n - 1))
    return ((i << (n - 1)) + (k ^ ((1 << i) >> 1))).ravel()


def _steps(half: np.ndarray):
    """Yield ``half`` (n, 2^(n-1), C-contiguous) as a flat view, then step it
    in place into the other parity's half and yield it again, without end.

    The coin is 2/n * J - I on the direction register: the direction sum
    goes into one (2^(n-1),) buffer and the coined state into one
    (n, 2^(n-1)) buffer, both allocated once.  The shift moves the amplitude
    of |x, i> to |x ^ (1 << (i-1)), i>; it is a pure permutation, done as one
    gather through ``_shift_index`` back into ``half``.
    """
    n = half.shape[0]
    index = _shift_index(n)
    coined = np.empty_like(half)
    total = np.empty(half.shape[1])
    flat, flat_coined = half.reshape(-1), coined.reshape(-1)
    while True:
        yield flat
        np.add.reduce(half, axis=0, out=total)
        total *= 2.0 / n
        np.subtract(total, half, out=coined)
        # mode="wrap" gathers straight into out; the default mode buffers
        np.take(flat_coined, index, out=flat, mode="wrap")


def full_step(state: FullState) -> FullState:
    """Apply the Grover coin at every vertex, then shift along each direction.

    Returns a new state and leaves ``state`` unchanged; see ``_steps``.
    """
    n, split = state.n, _split_index(state.n)
    halves = np.ravel(np.asarray(state.amp, dtype=float))[split].reshape(2, n, -1)
    for half in halves:
        steps = _steps(half)
        next(steps)  # the half as given
        next(steps)
    amp = np.empty(split.size)
    amp[split] = halves[::-1].ravel()
    return FullState(n, amp.reshape(n, -1))


@lru_cache(maxsize=None)
def _sector_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-n constants of the projection, built once.

    Returns the (2, n * 2^(n-1)) bin keys, row p holding the flat key
    (n+1)*bit_i(x) + weight(x) of every basis state |x, i+1> of the parity-p
    half in the half's direction-major order (outgoing sector first, then
    incoming), and the read-only (2, n+1) normalisers sqrt(C(n,w)(n-w)) and
    sqrt(C(n,w) w) of the two sectors.  The empty sectors, outgoing at w = n
    and incoming at w = 0, get an infinite normaliser, so their zero sum
    projects to exactly 0.  The keys stay writeable for the reason given in
    ``_shift_index``: ``np.bincount`` copies read-only keys on every call.
    """
    vertices = _half_vertices(n)[:, None, :]
    bits = (vertices >> np.arange(n)[:, None]) & 1
    keys = ((n + 1) * bits + bits.sum(axis=1, keepdims=True)).reshape(2, -1)
    sizes = np.array([[comb(n, w) * (n - w), comb(n, w) * w] for w in range(n + 1)]).T
    norms = np.where(sizes > 0, np.sqrt(sizes), np.inf)
    norms.setflags(write=False)
    return keys, norms


def _project(n: int, flats, keys, rows: int) -> np.ndarray:
    """Projections of the first ``rows`` flat states that ``flats`` yields.

    Returns shape (rows, 2, n+1); no state past the first ``rows`` is drawn.

    Each state's level sums come from one ``np.bincount`` with the bin keys
    ``keys`` yields beside it; the division by the normalisers is one array
    operation at the end.
    """
    norms = _sector_layout(n)[1]
    sums = np.empty((rows, norms.size))
    for row, flat, key in zip(sums, flats, keys):
        row[:] = np.bincount(key, weights=flat, minlength=norms.size)
    sums = sums.reshape(rows, 2, n + 1)
    sums /= norms
    return sums


def project_symmetric(state: FullState) -> np.ndarray:
    """Inner products with the symmetric level states, shape (2, n+1).

    Row 0 holds alpha_right and row 1 alpha_left, as in a row of
    ``walk.trajectory``.  For a state evolved from ``full_start`` the
    projection is lossless; for an arbitrary state the projected norm may be
    smaller than one.

    Both sectors' level sums come from one ``np.bincount`` over the parity-0
    half, then the parity-1 half, which adds the N terms a_1..a_N of each
    (level, sector) bin one after another.  Recursive summation bounds the
    rounding error of each sum by |s_hat - s| <= (N-1) * u * sum |a_k|, with
    u = 2^-53 (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., section 4.2); the division by the normaliser adds one more rounding.
    A level's vertices all share its parity, so each bin's terms come from
    one half, in natural order.
    """
    n = state.n
    flat = np.ravel(state.amp)[_split_index(n)]
    return _project(n, [flat], [_sector_layout(n)[0].reshape(-1)], 1)[0]


def trajectory(n: int, t_max: int) -> np.ndarray:
    """Projected amplitudes after 0..t_max steps from ``full_start(n)``.

    Returns a (t_max+1, 2, n+1) array whose row t is ``project_symmetric``
    of the state after t steps, the layout of ``walk.trajectory``.  Only the
    half of parity t mod 2 is stepped and projected, in place by the kernel
    of ``full_step``; the other half is +0.0 and feeds only the levels of
    the other parity, whose sums are +0.0 either way, so the rows are
    bit-identical to that stepwise loop.  No step's state is kept.
    """
    _check_dim(n)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    half = np.zeros((n, 2 ** (n - 1)))
    half[:, 0] = 1.0 / np.sqrt(n)  # full_start's vertex 0 is column 0 of the parity-0 half
    return _project(n, _steps(half), cycle(_sector_layout(n)[0]), t_max + 1)

