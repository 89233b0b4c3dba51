"""Exact O(n)-per-step simulation of the Grover-coin walk on the hypercube.

A walk started at a single vertex with the coin register in the uniform
superposition never leaves the span of the permutation-symmetric states: one
"outgoing" and one "incoming" basis vector per Hamming level w.  Tracking a
real amplitude pair per level therefore reproduces the full 2^n * n walk
exactly, at O(n) memory and O(n) work per step.

One in-place kernel, ``_coin_shift_into``, makes every step of ``step``,
``trajectory``, ``scan`` and ``profile``: three NumPy calls and one zeroing
write the next state into a buffer the caller provides.  ``trajectory``
returns the amplitudes of every step as one (t_max+1, 2, n+1) array, row t
holding (alpha_right, alpha_left); the Lemma 1 suite reads all its rows from
one such walk.  ``scan`` steps many dimensions as the rows of one state
stored back to back with no padding, size = sum of n+1 levels, B =
BLOCK_ELEMENTS // size steps (at least 2) into a preallocated block, and
records the block's P[0,t] and vertex maxima as (step, dimension) arrays in a
few whole-block operations: a gather of the row starts and one segmented
maximum.  ``profile`` steps one walk the same way and also records the
Hamming level of each maximum.  The block and two buffers of its squares hold
4 B * size floats: at most 512 KiB at the budget of 2^14, unless B is the
floor of 2.  Each row sees the same float operations as a walk of its own.
``t_min`` finds the minimising step of a ``max_vertex_prob`` column.

All operations are pure functions of their inputs (``step``, ``trajectory``,
``scan`` and ``profile`` allocate their own buffers), so they are safe to call
concurrently.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

__all__ = ["SymmetricState", "ScanArrays", "Profile", "step", "scan", "profile", "t_min",
           "trajectory"]

# Beyond n ~ 60 the smallest vertex probabilities of interest sink under the
# double-precision noise floor; the CLI refuses larger n.
PRECISION_CAP = 60

# Level budget of a ``scan`` or ``profile`` block: the states of
# BLOCK_ELEMENTS // size consecutive steps, at least two, are stepped into one
# buffer and share one round of statistics; size is the number of levels,
# the sum of n+1 over the walks.  2^14 was the fastest of 2^12, 2^13 and
# 2^14 on the benchmark's scan shapes; figure1's 59 walks to n = 60 take
# blocks of B = 8.
BLOCK_ELEMENTS = 1 << 14


def _check(n: int, t_max: int) -> None:
    """Refuse a dimension below 1 or a negative step count."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")


@dataclass
class SymmetricState:
    """Real amplitude pair per Hamming level.

    Both arrays have length n+1.  ``alpha_right[w]`` is the amplitude of the
    level-w state uniform over outgoing directions (those pointing to level
    w+1); ``alpha_left[w]`` covers the incoming directions.  Level n has no
    outgoing direction and level 0 no incoming one, so ``alpha_right[n]`` and
    ``alpha_left[0]`` are structurally zero.
    """

    n: int
    alpha_right: np.ndarray
    alpha_left: np.ndarray


@lru_cache(maxsize=None)
def _coin_diagonals(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-level coin entries (diag_right, off, diag_left), built once per n and read-only.

    The Grover coin restricted to the two symmetric direction states at level
    w overlaps the uniform direction state with sqrt((n-w)/n) and sqrt(w/n),
    which gives the reflection

        [[2(n-w)/n - 1,  2 sqrt(w(n-w))/n],
         [2 sqrt(w(n-w))/n,  2w/n - 1]].

    At w = 0 (or w = n) the incoming (outgoing) sector is empty and the
    matrix degenerates to +/-1 on the remaining sector.
    """
    w = np.arange(n + 1, dtype=float)
    diag_right = 2.0 * (n - w) / n - 1.0
    off = 2.0 * np.sqrt(w * (n - w)) / n
    diag_left = 2.0 * w / n - 1.0
    for array in (diag_right, off, diag_left):
        array.setflags(write=False)
    return diag_right, off, diag_left


def _mirrored_factors(
    diag_right: np.ndarray, off: np.ndarray, diag_left: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(by_next, by_mirror)`` of ``_coin_shift_into`` from per-level coin entries."""
    return (np.concatenate((off, off[::-1]))[1:],
            np.concatenate((diag_left, diag_right[::-1]))[1:])


def _coin_shift_into(
    factors: tuple[np.ndarray, np.ndarray],
    mirrored: np.ndarray,
    out: np.ndarray,
    edges: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Coin then shift of a mirrored flat state, written into ``out``.

    The state's ``size`` levels, row after row, are stored as alpha_right,
    then alpha_left reversed: level k of alpha_left is the mirror
    image ``mirrored[-1 - k]`` of level k of alpha_right.  Both halves of the
    shift (next alpha_right[k] = beta_left[k + 1], next alpha_left[k] =
    beta_right[k - 1]) then read the same way, for i < 2 size - 1:

        out[i] = by_next[i] * mirrored[i + 1] + by_mirror[i] * mirrored[2 size - 2 - i],

    the two products of beta's formula (``factors`` hold the coin's off and
    diag entries) added in the same or the swapped order, which floats make
    bit-identical.  ``scratch`` (2 size - 1 elements) holds the second product.
    The entries that read across a row boundary, and the last one, are the top
    level of every row's alpha_right and level 0 of every row's alpha_left,
    ``out[edges]`` (``_rows``), and are zeroed.
    """
    by_next, by_mirror = factors
    head = out[:-1]
    np.multiply(by_next, mirrored[1:], head)
    np.multiply(by_mirror, mirrored[-2::-1], scratch)
    np.add(head, scratch, head)
    out[edges] = 0.0


def step(state: SymmetricState) -> SymmetricState:
    """One walk step: Grover coin per level, then the shift.

    The shift exchanges levels: the coin's outgoing output at level w becomes
    the incoming amplitude of level w+1, and the incoming output at level w
    becomes the outgoing amplitude of level w-1.  The new state's arrays are
    views of one mirrored buffer (``alpha_left`` with a negative stride).
    """
    width = state.n + 1
    mirrored = np.empty(2 * width)
    mirrored[:width] = state.alpha_right
    mirrored[width:] = state.alpha_left[::-1]
    out = np.empty(2 * width)
    _coin_shift_into(_mirrored_factors(*_coin_diagonals(state.n)), mirrored, out,
                     _rows([state.n])[1], np.empty(2 * width - 1))
    return SymmetricState(state.n, out[:width], out[:width - 1:-1])


class ScanArrays(NamedTuple):
    """Per-step records of ``scan``: row t, one column per dimension."""

    p0: np.ndarray
    max_vertex_prob: np.ndarray


class Profile(NamedTuple):
    """Per-step records of ``profile``: entry t is step t of one walk."""

    p0: np.ndarray
    max_vertex_prob: np.ndarray
    argmax_w: np.ndarray


def _rows(dims: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Row starts of ``dims`` stored back to back, and the entries the kernel zeroes.

    Row j holds levels 0..n_j of dimension ``dims[j]`` from ``starts[j]`` on.
    The zeroed entries of the mirrored state are each row's top alpha_right
    level and its alpha_left level 0 (``_coin_shift_into``).
    """
    widths = np.array(dims) + 1
    starts = np.concatenate(([0], np.cumsum(widths[:-1])))
    size = int(widths.sum())
    return starts, np.concatenate((starts + widths - 1, 2 * size - 1 - starts))


def _vertex_blocks(dims: list[int], t_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """(t0, P) for each block of steps: P[k, starts[j] + w] is P(x, t0 + k) at level w of row j.

    The walks of ``dims`` are the rows of one state stored back to back
    (``_rows``); each row sees the same float operations as a walk stepped
    alone.  Steps go into a block of preallocated states (module docstring),
    whose last state is stepped into slot 0 for the next block.  P is the
    level probability over C(n, w), and C(n, 0) = 1 leaves P[0,t] exact.  P is
    overwritten by the next block, so a caller reads it before asking for the
    next.  The arguments are checked by the callers.
    """
    starts, edges = _rows(dims)
    factors = _mirrored_factors(*map(np.concatenate, zip(*map(_coin_diagonals, dims))))
    binom = np.array([comb(n, w) for n in dims for w in range(n + 1)], dtype=float)
    size = binom.size
    block = min(max(2, BLOCK_ELEMENTS // size), t_max + 1)
    states = np.zeros((block, 2 * size))
    levels, left_squares = np.empty((2, block, size))
    scratch = np.empty(2 * size - 1)
    states[0, starts] = 1.0
    for t0 in range(0, t_max + 1, block):
        if t0:  # carry the previous block's last state into slot 0
            _coin_shift_into(factors, states[-1], states[0], edges, scratch)
        m = min(block, t_max + 1 - t0)
        for k in range(1, m):
            _coin_shift_into(factors, states[k - 1], states[k], edges, scratch)
        # steps t0 .. t0 + m - 1 at once: P[w,t] = alpha_right^2 + alpha_left^2
        here = levels[:m]
        np.square(states[:m, :size], out=here)
        np.square(states[:m, :size - 1:-1], out=left_squares[:m])
        here += left_squares[:m]
        here /= binom
        yield t0, here


def scan(ns: Iterable[int], t_max: int) -> ScanArrays:
    """P[0,t] and max_x P(x,t) for every dimension in ``ns``, from one batched walk.

    Each field has shape (t_max+1, len(ns)); column j holds the walk of
    ``ns[j]`` and is bit-identical to a scan of ``[ns[j]]`` alone.  The
    maximum of each row is one ``np.maximum.reduceat`` segment; a maximum is
    exact in any order.
    """
    dims = list(ns)
    for n in dims:
        _check(n, t_max)
    if not dims:
        raise ValueError("no dimension to scan")
    starts, _ = _rows(dims)
    p0 = np.empty((t_max + 1, len(dims)))
    peak = np.empty((t_max + 1, len(dims)))
    for t0, here in _vertex_blocks(dims, t_max):
        steps = slice(t0, t0 + len(here))
        p0[steps] = here[:, starts]
        np.maximum.reduceat(here, starts, axis=1, out=peak[steps])
    return ScanArrays(p0, peak)


def profile(n: int, t_max: int) -> Profile:
    """P[0,t], max_x P(x,t) and its Hamming level for one walk of dimension n.

    Each field has shape (t_max+1,); ``p0`` and ``max_vertex_prob`` equal the
    column of ``scan([n], t_max)`` bit for bit.  ``np.argmax`` keeps the first
    maximum, so ties break toward the smallest level.
    """
    _check(n, t_max)
    p0 = np.empty(t_max + 1)
    peak = np.empty(t_max + 1)
    argmax = np.empty(t_max + 1, dtype=np.intp)
    for t0, here in _vertex_blocks([n], t_max):
        steps = slice(t0, t0 + len(here))
        p0[steps] = here[:, 0]
        np.argmax(here, axis=1, out=argmax[steps])
        # the maximum is the entry the argmax picks, bit for bit
        np.max(here, axis=1, out=peak[steps])
    return Profile(p0, peak, argmax)


def _parity_steps(parity: str) -> slice:
    """The steps t = start, start + step, ... of the "all", "even" or "odd" steps."""
    if parity not in ("all", "even", "odd"):
        raise ValueError(f"parity must be all/even/odd, got {parity!r}")
    return slice(1 if parity == "odd" else 0, None, 1 if parity == "all" else 2)


def t_min(max_vertex_prob: np.ndarray, parity: str = "all") -> tuple[int, float]:
    """Smallest step achieving the minimum of max_x P(x,t) over the given steps.

    ``max_vertex_prob[t]`` is the value at step t, as in a column of
    ``ScanArrays.max_vertex_prob``; ``parity`` restricts the candidate steps to
    "even" or "odd" steps.  ``np.argmin`` returns the first minimum, so ties
    break toward the smallest step.
    """
    steps = _parity_steps(parity)
    candidates = np.asarray(max_vertex_prob)[steps]
    if candidates.size == 0:
        raise ValueError("empty profile")
    k = int(np.argmin(candidates))
    return steps.start + steps.step * k, float(candidates[k])


def trajectory(n: int, t_max: int) -> np.ndarray:
    """Amplitudes after 0..t_max steps, shape (t_max+1, 2, n+1).

    Row t holds (alpha_right, alpha_left) after t steps.  Each step is one
    ``_coin_shift_into`` from mirrored row t-1 into row t of one buffer, so
    row t equals t calls of ``step`` bit for bit, signed zeros included.
    """
    _check(n, t_max)
    width = n + 1
    mirrored = np.zeros((t_max + 1, 2 * width))
    mirrored[0, 0] = 1.0
    factors, scratch = _mirrored_factors(*_coin_diagonals(n)), np.empty(2 * width - 1)
    _, edges = _rows([n])
    for t in range(t_max):
        _coin_shift_into(factors, mirrored[t], mirrored[t + 1], edges, scratch)
    return np.stack((mirrored[:, :width], mirrored[:, :width - 1:-1]), axis=1)
