"""Composite Gauss-Legendre panel quadrature shared by the spectral routines.

panel_quad_with_error makes one integrand call on the nodes of both its
rules, laid out per panel as one block per rule, [NODES | REFINED_NODES],
and reduces each block as panel_quad reduces its one rule.  The node grid
of an edges array, with its half-widths, is built once per process and set
of rules: _grid keeps the GRIDS most recently used, keyed by the edges'
float64 bytes and the rules' node counts, so a caller that changes its edges
array in place gets the grid of its new edges.  The package's largest fixed
grid is the T_t identity's bulk at t = 250, 91 panels of 16 + 24 nodes,
about 31 kB with its key, so the cache holds under 0.62 MB.  Pieces given as
a list of edge arrays build their grid per call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Gauss-Legendre nodes per panel of panel_quad_with_error's rule, and of the
# refined rule whose difference from it is the error estimate
NODES = 16
REFINED_NODES = NODES + 8
# node grids kept by _grid, one per edges array and set of rules: the
# identity's 16 cached degrees, its ray, the two rays of
# spectral.ray_integrals (p0's 16 panels, Theorem 2's middle's 2) and the
# appendix's beta grid
GRIDS = 20


def _legendre_series(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    # sum_j c[j] P_j(x) by numpy.polynomial.legendre.legval's Clenshaw
    # recurrence, operation for operation
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node rule on [-1, 1] as (nodes, weights), built once per m and read-only.

    numpy.polynomial.legendre.leggauss's steps with numpy.linalg alone, so
    the rule is bit-identical to it without importing numpy.polynomial: the
    eigenvalues of the symmetric Jacobi matrix of P_m, one Newton step on
    P_m, weights 1 / (P_(m-1) P_m') scaled by their largest values, then
    symmetrised and normalised to sum to 2.
    """
    scale = 1.0 / np.sqrt(2 * np.arange(m) + 1)
    off = np.arange(1, m) * scale[:-1] * scale[1:]
    jacobi = np.zeros((m, m))
    jacobi.reshape(-1)[1::m + 1] = off
    jacobi.reshape(-1)[m::m + 1] = off
    nodes = np.linalg.eigvalsh(jacobi)
    p_m = np.zeros(m + 1)  # Legendre coefficients of P_m
    p_m[m] = 1.0
    slope = np.zeros(m)  # and of P_m' = sum of (2j+1) P_j over j = m-1, m-3, ...
    slope[m - 1::-2] = np.arange(2 * m - 1, 0, -4)
    df = _legendre_series(nodes, slope)
    nodes -= _legendre_series(nodes, p_m) / df
    fm = _legendre_series(nodes, p_m[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    weights = 1 / (fm * df)
    weights = (weights + weights[::-1]) / 2
    nodes = (nodes - nodes[::-1]) / 2
    weights *= 2.0 / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _nodes(a: np.ndarray, b: np.ndarray, rules: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    # the nodes of each rule in rules on each panel [a[i], b[i]], one row per
    # panel holding one block per rule, and each panel's half-width
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    unit = np.concatenate([gauss_legendre(m)[0] for m in rules])
    return mid[:, None] + half[:, None] * unit[None, :], half


@lru_cache(maxsize=GRIDS)
def _grid(edges: bytes, *rules: int) -> tuple[np.ndarray, np.ndarray]:
    """_nodes on the panels between consecutive edges, given as float64 bytes; read-only."""
    edges = np.frombuffer(edges)
    nodes, half = _nodes(edges[:-1], edges[1:], rules)
    nodes.flags.writeable = half.flags.writeable = False
    return nodes, half


def _evaluate(f, edges: np.ndarray | list, *rules: int):
    # f called once on the nodes of every rule in rules: its values as
    # (rows, panels, nodes per panel), the panels' half-widths, the panel
    # count of each piece (None for one edges array) and whether f returned
    # a single row
    if isinstance(edges, list):
        counts = [len(e) - 1 for e in edges]
        nodes, half = _nodes(np.concatenate([e[:-1] for e in edges]),
                             np.concatenate([e[1:] for e in edges]), rules)
    else:
        counts = None
        nodes, half = _grid(np.asarray(edges, dtype=np.float64).tobytes(), *rules)
    vals = f(nodes.ravel())
    return vals.reshape((-1,) + nodes.shape), half, counts, vals.ndim == 1


def _reduce(panels: np.ndarray, half: np.ndarray, counts: list | None, single: bool):
    # the integrals of the m-node rule, m = panels.shape[-1], from its values
    # on every panel: each row reduces in panel order, per piece if counts
    wg = gauss_legendre(panels.shape[-1])[1]
    if counts is None:
        sums = np.add.reduce((panels @ wg) * half, axis=-1)
        return float(sums[0]) if single else sums
    sums = np.empty((len(panels), len(counts)))
    lo = 0
    for j, count in enumerate(counts):
        hi = lo + count
        sums[:, j] = np.add.reduce((panels[:, lo:hi] @ wg) * half[lo:hi], axis=-1)
        lo = hi
    return sums[0] if single else sums


def panel_quad(f, edges: np.ndarray | list, m: int) -> float | np.ndarray:
    """Integrate f over consecutive panels [edges[i], edges[i+1]] with m-node GL.

    f must accept a flat numpy array of nodes and return either values of the
    same shape (the result is a float) or one row of values per order (the
    result is one integral per row).  Each row reduces in panel order, exactly
    as a single-row integrand would.  The nodes f receives are read-only; for
    an edges array they view one cached grid on every call with equal edges.

    Pieces whose panels do not share endpoints are given as a list of edge
    arrays, one per piece, in place of ``edges``: f is still called once on
    all nodes, and the result gains a last axis with one integral per piece,
    each reduced exactly as a call on its own edges would.
    """
    return _reduce(*_evaluate(f, edges, m))


def panel_quad_with_error(f, edges: np.ndarray | list, m: int = NODES) -> tuple:
    """Panel quadrature plus an error estimate from a finer rule, from one call of f.

    The finer rule has REFINED_NODES - NODES more nodes per panel, and its
    value is the one returned.  f is called once, on each panel's m nodes
    followed by its finer rule's nodes, and takes panel_quad's edges and
    integrands; each rule's values reduce exactly as panel_quad would reduce
    them from a call of its own.  The estimate is the difference of the two
    rules, floored at 1e-17 per panel, per piece for a list of edge arrays.
    """
    vals, half, counts, single = _evaluate(f, edges, m, m + REFINED_NODES - NODES)
    # basic slices: the values keep their strides, so each rule's products
    # take the path a call of its own would
    coarse = _reduce(vals[..., :m], half, counts, single)
    fine = _reduce(vals[..., m:], half, counts, single)
    panels = max(1, len(edges) - 1) if counts is None else np.maximum(1, counts)
    err = abs(fine - coarse) + 1e-17 * panels
    return fine, err
