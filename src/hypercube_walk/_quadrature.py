"""Composite Gauss-Legendre panel quadrature shared by the spectral routines."""

from __future__ import annotations

import numpy as np

# Gauss-Legendre nodes per panel of panel_quad_with_error's rule, and of the
# refined rule whose difference from it is the error estimate
NODES = 16
REFINED_NODES = NODES + 8

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    if m not in _GL_CACHE:
        _GL_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _GL_CACHE[m]


def panel_quad(f, edges: np.ndarray, m: int, counts=None) -> float | np.ndarray:
    """Integrate f over consecutive panels [edges[i], edges[i+1]] with m-node GL.

    f must accept a flat numpy array of nodes and return either values of the
    same shape (the result is a float) or one row of values per order (the
    result is one integral per row).  Each row reduces in panel order, exactly
    as a single-row integrand would.

    With ``counts``, the panels form consecutive segments of counts[j] panels
    each, f is still called once on all nodes, and the result gains a last
    axis with one integral per segment.  Each segment reduces exactly as a
    call on its own edges would, so batching segments changes no bit.
    Segments that do not share endpoints are given as a list of edge arrays,
    one per segment, in place of ``edges`` and ``counts``.
    """
    xg, wg = gauss_legendre(m)
    if isinstance(edges, list):
        counts = [len(e) - 1 for e in edges]
        a = np.concatenate([e[:-1] for e in edges])
        b = np.concatenate([e[1:] for e in edges])
    else:
        a = edges[:-1]
        b = edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * xg[None, :]
    vals = f(nodes.ravel())
    panels = vals.reshape((-1,) + nodes.shape)
    if counts is None:
        sums = np.sum((panels @ wg) * half, axis=-1)
        return float(sums[0]) if vals.ndim == 1 else sums
    sums = np.empty((len(panels), len(counts)))
    lo = 0
    for j, count in enumerate(counts):
        hi = lo + count
        sums[:, j] = np.sum((panels[:, lo:hi] @ wg) * half[lo:hi], axis=-1)
        lo = hi
    return sums[0] if vals.ndim == 1 else sums


def panel_quad_with_error(f, edges: np.ndarray, m: int = NODES, counts=None) -> tuple:
    """Panel quadrature plus an error estimate from a finer rule.

    The finer rule has REFINED_NODES - NODES more nodes per panel, and its
    value is the one returned.  The estimate is floored at 1e-17 per panel,
    per segment with ``counts`` or a list of edge arrays.
    """
    coarse = panel_quad(f, edges, m, counts)
    fine = panel_quad(f, edges, m + REFINED_NODES - NODES, counts)
    if isinstance(edges, list):
        counts = [len(e) - 1 for e in edges]
    panels = max(1, len(edges) - 1) if counts is None else np.maximum(1, counts)
    err = abs(fine - coarse) + 1e-17 * panels
    return fine, err
