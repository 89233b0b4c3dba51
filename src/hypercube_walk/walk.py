"""Exact O(n)-per-step simulation of the Grover-coin walk on the hypercube.

A walk started at a single vertex with the coin register in the uniform
superposition never leaves the span of the permutation-symmetric states: one
"outgoing" and one "incoming" basis vector per Hamming level w.  Tracking a
real amplitude pair per level therefore reproduces the full 2^n * n walk
exactly, at O(n) memory and O(n) work per step.

``scan_arrays`` steps many dimensions together as the rows of one
zero-padded array and records P[0,t], the vertex maximum and its level as
(step, dimension) arrays; each row sees the same float operations as a walk
of its own, so ``scan`` builds its profile from it bit for bit.
``t_min_array`` finds the minimising step directly in such an array.

All operations are pure functions of their inputs (``step`` returns a fresh
state), so they are safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

__all__ = [
    "WalkParams",
    "SymmetricState",
    "ProbabilityProfile",
    "ScanArrays",
    "start_state",
    "coin_matrix",
    "step",
    "level_probability",
    "level_probabilities",
    "vertex_probability",
    "vertex_probabilities",
    "scan",
    "scan_arrays",
    "matches_parity",
    "t_min",
    "t_min_array",
    "trajectory",
]

NORM_TOL = 1e-12

# Beyond n ~ 60 the smallest vertex probabilities of interest sink under the
# double-precision noise floor; the CLI refuses larger n.
PRECISION_CAP = 60


@dataclass(frozen=True)
class WalkParams:
    """Scan parameters: hypercube dimension and number of steps."""

    n: int
    t_max: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be >= 0, got {self.t_max}")


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

    def norm_sq(self) -> float:
        return float(self.alpha_right @ self.alpha_right + self.alpha_left @ self.alpha_left)


def start_state(n: int) -> SymmetricState:
    """Walker at the all-zeros vertex, coin uniform: amplitude 1 on level 0."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    alpha_right = np.zeros(n + 1)
    alpha_left = np.zeros(n + 1)
    alpha_right[0] = 1.0
    return SymmetricState(n, alpha_right, alpha_left)


def coin_matrix(n: int, w: int) -> np.ndarray:
    """Grover coin restricted to the two symmetric direction states at level w.

    The uniform direction state overlaps the outgoing/incoming symmetric
    vectors with sqrt((n-w)/n) and sqrt(w/n), which gives the reflection

        [[2(n-w)/n - 1,  2 sqrt(w(n-w))/n],
         [2 sqrt(w(n-w))/n,  2w/n - 1]].

    At w = 0 (or w = n) the incoming (outgoing) sector is empty and the
    matrix degenerates to +/-1 on the remaining sector.
    """
    if not 0 <= w <= n:
        raise ValueError(f"level w={w} out of range for n={n}")
    off = 2.0 * np.sqrt(w * (n - w)) / n
    return np.array(
        [
            [2.0 * (n - w) / n - 1.0, off],
            [off, 2.0 * w / n - 1.0],
        ]
    )


@lru_cache(maxsize=None)
def _coin_diagonals(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-level entries of ``coin_matrix``, built once per n and read-only."""
    w = np.arange(n + 1, dtype=float)
    diag_right = 2.0 * (n - w) / n - 1.0
    off = 2.0 * np.sqrt(w * (n - w)) / n
    diag_left = 2.0 * w / n - 1.0
    for array in (diag_right, off, diag_left):
        array.setflags(write=False)
    return diag_right, off, diag_left


def _binomials(n: int) -> np.ndarray:
    return np.array([comb(n, w) for w in range(n + 1)], dtype=float)


def _coin_shift(
    diag_right: np.ndarray,
    off: np.ndarray,
    diag_left: np.ndarray,
    alpha_right: np.ndarray,
    alpha_left: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Coin then shift on the last axis (levels); leading axes are independent walks."""
    beta_right = diag_right * alpha_right + off * alpha_left
    beta_left = off * alpha_right + diag_left * alpha_left
    new_right = np.zeros(alpha_right.shape)
    new_left = np.zeros(alpha_left.shape)
    new_left[..., 1:] = beta_right[..., :-1]
    new_right[..., :-1] = beta_left[..., 1:]
    return new_right, new_left


def step(state: SymmetricState) -> SymmetricState:
    """One walk step: Grover coin per level, then the shift.

    The shift exchanges levels: the coin's outgoing output at level w becomes
    the incoming amplitude of level w+1, and the incoming output at level w
    becomes the outgoing amplitude of level w-1.
    """
    alpha_right, alpha_left = _coin_shift(
        *_coin_diagonals(state.n), state.alpha_right, state.alpha_left
    )
    return SymmetricState(state.n, alpha_right, alpha_left)


def level_probability(state: SymmetricState, w: int) -> float:
    """Total probability of the walker sitting at Hamming level w."""
    if not 0 <= w <= state.n:
        raise ValueError(f"level w={w} out of range for n={state.n}")
    return float(state.alpha_right[w] ** 2 + state.alpha_left[w] ** 2)


def level_probabilities(state: SymmetricState) -> np.ndarray:
    return state.alpha_right**2 + state.alpha_left**2


def vertex_probability(state: SymmetricState, w: int) -> float:
    """Probability of one particular vertex at level w: P[w,t] / C(n,w)."""
    if not 0 <= w <= state.n:
        raise ValueError(f"level w={w} out of range for n={state.n}")
    return level_probability(state, w) / comb(state.n, w)


def vertex_probabilities(state: SymmetricState) -> np.ndarray:
    return level_probabilities(state) / _binomials(state.n)


@dataclass(frozen=True)
class ProbabilityProfile:
    """Per-step record of a scan."""

    t: int
    p0: float
    max_vertex_prob: float
    argmax_w: int


class ScanArrays(NamedTuple):
    """Per-step records of ``scan_arrays``: row t, one column per dimension."""

    p0: np.ndarray
    max_vertex_prob: np.ndarray
    argmax_w: np.ndarray


def scan(params: WalkParams) -> list[ProbabilityProfile]:
    """Run the walk for t_max steps, recording P[0,t] and the vertex maximum.

    ``argmax_w`` is the Hamming level whose vertices achieve
    max_x P(x,t); ties break toward the smallest level.
    """
    p0, peak, argmax = (field[:, 0].tolist() for field in scan_arrays([params.n], params.t_max))
    return [ProbabilityProfile(t, p, m, w) for t, (p, m, w) in enumerate(zip(p0, peak, argmax))]


def scan_arrays(ns: Iterable[int], t_max: int) -> ScanArrays:
    """``scan`` of every dimension in ``ns`` for t_max steps, as arrays.

    Each field has shape (t_max+1, len(ns)); column j holds the walk of
    ``ns[j]``.  The walks are the rows of one zero-padded (len(ns), max(ns)+1)
    state.  Levels above a row's n get zero coin coefficients and binomial 1,
    so they stay +/-0 and never win the argmax; the real levels see the same
    float operations as a walk stepped alone.
    """
    dims = [WalkParams(n, t_max).n for n in ns]
    if not dims:
        raise ValueError("no dimension to scan")
    width = max(dims) + 1
    coins = np.zeros((3, len(dims), width))
    binom = np.ones((len(dims), width))
    for row, n in enumerate(dims):
        coins[:, row, : n + 1] = _coin_diagonals(n)
        binom[row, : n + 1] = _binomials(n)
    diag_right, off, diag_left = coins

    alpha_right = np.zeros((len(dims), width))
    alpha_left = np.zeros((len(dims), width))
    alpha_right[:, 0] = 1.0
    rows = np.arange(len(dims))
    p0 = np.empty((t_max + 1, len(dims)))
    peak = np.empty((t_max + 1, len(dims)))
    argmax = np.empty((t_max + 1, len(dims)), dtype=np.intp)
    for t in range(t_max + 1):
        levels = alpha_right**2 + alpha_left**2
        per_vertex = levels / binom
        best = np.argmax(per_vertex, axis=1)
        p0[t] = levels[:, 0]
        peak[t] = per_vertex[rows, best]
        argmax[t] = best
        if t < t_max:
            alpha_right, alpha_left = _coin_shift(diag_right, off, diag_left,
                                                  alpha_right, alpha_left)
    return ScanArrays(p0, peak, argmax)


def _parity_steps(parity: str) -> slice:
    """The steps t = start, start + step, ... of the "all", "even" or "odd" steps."""
    if parity not in ("all", "even", "odd"):
        raise ValueError(f"parity must be all/even/odd, got {parity!r}")
    return slice(1 if parity == "odd" else 0, None, 1 if parity == "all" else 2)


def matches_parity(t: int, parity: str) -> bool:
    """Whether step t belongs to the "all", "even" or "odd" steps."""
    steps = _parity_steps(parity)
    return t % steps.step == steps.start


def t_min_array(max_vertex_prob: np.ndarray, parity: str = "all") -> tuple[int, float]:
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


def t_min(profile: list[ProbabilityProfile], parity: str = "all") -> tuple[int, float]:
    """``t_min_array`` of a profile whose row t is step t, as ``scan`` returns it."""
    return t_min_array(np.array([row.max_vertex_prob for row in profile]), parity)


def trajectory(n: int, t_max: int) -> list[SymmetricState]:
    """States after 0..t_max steps (index = step count)."""
    params = WalkParams(n, t_max)
    states = [start_state(params.n)]
    for _ in range(t_max):
        states.append(step(states[-1]))
    return states
