"""Exact O(n)-per-step simulation of the Grover-coin walk on the hypercube.

A walk started at a single vertex with the coin register in the uniform
superposition never leaves the span of the permutation-symmetric states: one
"outgoing" and one "incoming" basis vector per Hamming level w.  Tracking a
real amplitude pair per level therefore reproduces the full 2^n * n walk
exactly, at O(n) memory and O(n) work per step.

The hypercube is bipartite: after t steps only the levels w = t (mod 2) hold
amplitude, so each edge (w, w+1) between levels holds exactly one live
amplitude, alpha_right[w] if w = t (mod 2) and alpha_left[w+1] otherwise.
The kernel stores a walk on its edges (``_edge_layout``): slot w+1 holds edge
(w, w+1), and slot 0 and the slots past n are +0.0 phantoms that pad the walk
to an even 2h slots (``_pairs``).  The shift is then the identity on
slots, and a step is the coin alone: a 2x2 mix of slots (w, w+1) for each
live level w.  Even slots are stored forward and odd slots reversed behind
them, so each slot's partner is its mirror image and one step
(``_coin_into``) is one multiply, one multiply by the reversed view and one
add, on 2h entries per walk at either parity.

``step`` splits a state into its two parity halves and steps each;
``trajectory`` returns the amplitudes of every step as one (t_max+1, 2, n+1)
array, row t holding (alpha_right, alpha_left) with +0.0 off parity; the
Lemma 1 suite reads all its rows from one such walk.  ``scan`` steps many
dimensions as one edge-layout state, the walks back to back, B steps at a
time into a preallocated block (``BLOCK_ELEMENTS``), and records the block's
P[0,t] and vertex maxima as (step, dimension) arrays in a few whole-block
operations on the live level pairs: a gather of each walk's first pair and
one segmented maximum.  ``profile`` steps one walk the same way and also
records the Hamming level of each maximum.  Every live amplitude is the same
two products added as in a step on the level pairs, and each walk of a batch
sees the same float operations as a walk of its own.  ``t_min`` finds the
minimising step of a ``max_vertex_prob`` column.

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

# Slot budget of a ``scan`` or ``profile`` block: the states of B consecutive
# steps are stepped into one buffer and share one round of statistics, B the
# largest even number of states of size slots within the budget, at least
# two; size is the sum of 2h over the walks.  The block, its squares, its
# level pairs and their binomials hold 3 B size floats, at most 384 KiB
# unless B is the floor of 2.  Of 2^12 to 2^15 on the benchmark's scan
# shapes, 2^15 was 4.5 % faster on figure1's 59 walks to n = 60 and 1.7 %
# slower on one walk of n = 60, at twice the memory; 2^14 gives figure1's
# 1,976 slots blocks of B = 8.
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


def _pairs(n: int) -> int:
    """h, the level pairs of one walk: its slots 0..n+1, padded to an even 2h."""
    return (n + 3) // 2


@lru_cache(maxsize=None)
def _edge_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(coins, binom) of one walk on its 2h edge slots, built once per n and read-only.

    Slot 2i is stored at position i and slot 2i+1 at position 2h-1-i.  At
    parity q (that of the live levels) slot k is alpha_left of level k if
    k = q (mod 2) and alpha_right of level k-1 otherwise.  ``coins[q]`` =
    (by_self, by_mirror) holds, per position, the coin entries that weigh
    the slot itself and its partner, the other slot of its level, which is
    at position 2h-1-i at parity 0 and 2h-i at parity 1.  Slot 0 and the
    slots past n are phantoms with zero entries, so they stay +0.0.
    ``binom[q, i]`` is C(n, 2i + q), and 1.0 past n.
    """
    half = _pairs(n)
    diag_right, off, diag_left = _coin_diagonals(n)
    slots = np.arange(1, n + 1)
    coins = np.zeros((2, 2, 2 * half))
    for q in (0, 1):
        upper = slots % 2 != q  # alpha_right of level k-1
        level = slots - upper
        coins[q, 0, slots] = np.where(upper, diag_right[level], diag_left[level])
        coins[q, 1, slots] = off[level]
    coins = np.concatenate((coins[..., 0::2], coins[..., ::-2]), axis=-1)
    binom = np.array([[comb(n, w) if w <= n else 1 for w in range(q, 2 * half, 2)]
                      for q in (0, 1)], dtype=float)
    for array in (coins, binom):
        array.setflags(write=False)
    return coins, binom


def _coin_into(by_self: np.ndarray, by_mirror: np.ndarray, state: np.ndarray,
               mirror: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """One step of an edge-layout state, every live level's coin, written into ``out``.

    The arguments are one entry of ``_step_plan``.  The coin's two products
    are added in the same or the swapped order, which floats make
    bit-identical.
    """
    np.multiply(by_self, state, out)
    np.multiply(by_mirror, mirror, scratch)
    np.add(out, scratch, out)


def _step_plan(coins: np.ndarray, states: np.ndarray, scratch: np.ndarray) -> list[tuple]:
    """``_coin_into``'s arguments that step row k of ``states``, at parity k mod 2, into row k+1.

    The last entry steps the last row into row 0.  At parity 1 every array
    starts at position 1, so that each position's partner (``_edge_layout``)
    is its mirror image.  The entries are views, so one plan serves every block.
    """
    views = [(coins[q, 0, q:], coins[q, 1, q:], states[:, q:], states[:, q:][:, ::-1],
              scratch[q:]) for q in (0, 1)]
    plan = []
    for k in range(len(states)):
        by_self, by_mirror, rows, mirrors, tmp = views[k % 2]
        plan.append((by_self, by_mirror, rows[k], mirrors[k], rows[(k + 1) % len(states)], tmp))
    return plan


def _level_views(edges: np.ndarray, n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha_right, alpha_left) at the levels w = q (mod 2) of one walk's edge state.

    Views on the last axis of ``edges``: level 2i + q has alpha_left at slot
    2i + q and alpha_right at slot 2i + q + 1, so one of them is stored
    forward from position q and the other reversed from the end.
    """
    count = (n - q) // 2 + 1
    forward, mirror = edges[..., q:q + count], edges[..., ::-1][..., :count]
    return (mirror, forward) if q == 0 else (forward, mirror)


def step(state: SymmetricState) -> SymmetricState:
    """One walk step: Grover coin per level, then the shift.

    The shift exchanges levels: the coin's outgoing output at level w becomes
    the incoming amplitude of level w+1, and the incoming output at level w
    becomes the outgoing amplitude of level w-1.  The levels of each parity
    are one edge-layout state, stepped by ``_coin_into``; the new state's
    arrays are the rows of one (2, n+1) array, +0.0 at ``alpha_right[n]`` and
    ``alpha_left[0]``.
    """
    n = state.n
    coins, _ = _edge_layout(n)
    # rows 0 and 1 hold the even and the odd levels; the odd ones are stepped
    # into row 2 (even levels after the step) before row 1 is overwritten
    edges = np.zeros((3, coins.shape[-1]))
    for q in (0, 1):
        right, left = _level_views(edges[q], n, q)
        right[...] = state.alpha_right[q::2]
        left[...] = state.alpha_left[q::2]
    plan = _step_plan(coins, edges, np.empty(coins.shape[-1]))
    _coin_into(*plan[1])
    _coin_into(*plan[0])
    new = np.zeros((2, n + 1))
    new[:, 0::2] = _level_views(edges[2], n, 0)
    new[:, 1::2] = _level_views(edges[1], n, 1)
    return SymmetricState(n, new[0], new[1])


class ScanArrays(NamedTuple):
    """Per-step records of ``scan``: row t, one column per dimension."""

    p0: np.ndarray
    max_vertex_prob: np.ndarray


class Profile(NamedTuple):
    """Per-step records of ``profile``: entry t is step t of one walk."""

    p0: np.ndarray
    max_vertex_prob: np.ndarray
    argmax_w: np.ndarray


def _pair_starts(dims: list[int]) -> np.ndarray:
    """Index of each walk's first level pair when the walks of ``dims`` are stored back to back."""
    return np.cumsum([0] + [_pairs(n) for n in dims[:-1]])


def _batch_layout(dims: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``_edge_layout``'s (coins, binom) of the walks of ``dims`` stored back to back.

    The walks' forward halves come first in order, then their mirrored
    halves in reverse order, so every walk keeps its own mirror pairs.
    """
    layouts = [_edge_layout(n) for n in dims]
    binoms = [binom for _, binom in layouts]
    halves = [(coins[..., :binom.shape[1]], coins[..., binom.shape[1]:])
              for (coins, _), binom in zip(layouts, binoms)]
    forward, mirrored = zip(*halves)
    return np.concatenate(forward + mirrored[::-1], axis=-1), np.concatenate(binoms, axis=-1)


def _vertex_blocks(dims: list[int], t_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """(t0, P) per block of steps: P[k, starts[j] + i] is P(x, t0 + k) at pair i of walk j.

    Pair i at step t is level 2i + (t mod 2); phantom pairs past n read +0.0.
    The walks of ``dims`` are one edge-layout state stored back to back
    (``_batch_layout``, ``_pair_starts``); each walk sees the same float
    operations as a walk stepped alone.  A block holds an even number of
    states, so state k has the parity of k, and its last state is stepped
    into slot 0 for the next block.  P is the level probability over
    C(n, w), and C(n, 0) = 1 leaves P[0,t] exact.  P is overwritten by the
    next block, so a caller reads it before asking for the next.  The
    arguments are checked by the callers.
    """
    coins, binom = _batch_layout(dims)
    size = coins.shape[-1]
    half = size // 2
    block = min(2 * max(1, BLOCK_ELEMENTS // (2 * size)), t_max + 1)
    states = np.zeros((block, size))
    squares = np.empty((block, size))
    levels = np.empty((block, half))
    binoms = np.resize(binom, levels.shape)  # state k's row of binom, k mod 2
    states[0, size - 1 - _pair_starts(dims)] = 1.0  # alpha_right[0], slot 1 of each walk
    plan = _step_plan(coins, states, np.empty(size))
    for t0 in range(0, t_max + 1, block):
        if t0:  # carry the previous block's last state, at odd parity, into slot 0
            _coin_into(*plan[-1])
        m = min(block, t_max + 1 - t0)
        for args in plan[:m - 1]:
            _coin_into(*args)
        # steps t0 .. t0 + m - 1 at once: P[w,t] = alpha_left^2 + alpha_right^2
        squared, here = squares[:m], levels[:m]
        np.square(states[:m], out=squared)
        mirror = squared[:, :half - 1:-1]
        np.add(squared[0::2, :half], mirror[0::2], out=here[0::2])
        np.add(squared[1::2, 1:half + 1], mirror[1::2], out=here[1::2])
        here /= binoms[:m]
        yield t0, here


def scan(ns: Iterable[int], t_max: int) -> ScanArrays:
    """P[0,t] and max_x P(x,t) for every dimension in ``ns``, from one batched walk.

    Each field has shape (t_max+1, len(ns)); column j holds the walk of
    ``ns[j]`` and is bit-identical to a scan of ``[ns[j]]`` alone.  The
    maximum of each walk is one ``np.maximum.reduceat`` segment; a maximum is
    exact in any order.  P[0,t] is +0.0 at odd t.
    """
    dims = list(ns)
    for n in dims:
        _check(n, t_max)
    if not dims:
        raise ValueError("no dimension to scan")
    starts = _pair_starts(dims)
    p0 = np.zeros((t_max + 1, len(dims)))
    peak = np.empty((t_max + 1, len(dims)))
    for t0, here in _vertex_blocks(dims, t_max):
        steps = slice(t0, t0 + len(here))
        p0[steps][0::2] = here[0::2, starts]
        np.maximum.reduceat(here, starts, axis=1, out=peak[steps])
    return ScanArrays(p0, peak)


def profile(n: int, t_max: int) -> Profile:
    """P[0,t], max_x P(x,t) and its Hamming level for one walk of dimension n.

    Each field has shape (t_max+1,); ``p0`` and ``max_vertex_prob`` equal the
    column of ``scan([n], t_max)`` bit for bit.  ``np.argmax`` keeps the first
    maximum, so ties break toward the smallest level.
    """
    _check(n, t_max)
    p0 = np.zeros(t_max + 1)
    peak = np.empty(t_max + 1)
    argmax = np.empty(t_max + 1, dtype=np.intp)
    for t0, here in _vertex_blocks([n], t_max):
        steps = slice(t0, t0 + len(here))
        p0[steps][0::2] = here[0::2, 0]
        np.argmax(here, axis=1, out=argmax[steps])
        # the maximum is the entry the argmax picks, bit for bit
        np.max(here, axis=1, out=peak[steps])
    argmax *= 2  # pair i at step t is level 2i + (t mod 2)
    argmax[1::2] += 1
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

    Row t holds (alpha_right, alpha_left) after t steps, +0.0 at the levels
    of the other parity.  Each step is one ``_coin_into`` from edge-layout
    row t-1 into row t of one buffer, so row t equals t calls of ``step`` bit
    for bit, signed zeros included.
    """
    _check(n, t_max)
    coins, _ = _edge_layout(n)
    edges = np.zeros((t_max + 1, coins.shape[-1]))
    edges[0, -1] = 1.0  # alpha_right[0], slot 1
    for args in _step_plan(coins, edges, np.empty(coins.shape[-1]))[:-1]:
        _coin_into(*args)
    amps = np.zeros((t_max + 1, 2, n + 1))
    for q in (0, 1):
        right, left = _level_views(edges[q::2], n, q)
        amps[q::2, 0, q::2] = right
        amps[q::2, 1, q::2] = left
    return amps
