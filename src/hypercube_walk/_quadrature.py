"""Composite Gauss-Legendre panel quadrature shared by the spectral routines."""

from __future__ import annotations

import numpy as np

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    if m not in _GL_CACHE:
        _GL_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _GL_CACHE[m]


def panel_quad(f, edges: np.ndarray, m: int) -> float | np.ndarray:
    """Integrate f over consecutive panels [edges[i], edges[i+1]] with m-node GL.

    f must accept a flat numpy array of nodes and return either values of the
    same shape (the result is a float) or one row of values per order (the
    result is one integral per row).  Each row reduces in panel order, exactly
    as a single-row integrand would.
    """
    xg, wg = gauss_legendre(m)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * xg[None, :]
    vals = f(nodes.ravel())
    sums = np.sum((vals.reshape((-1,) + nodes.shape) @ wg) * half, axis=-1)
    return float(sums[0]) if vals.ndim == 1 else sums


def panel_quad_with_error(f, edges: np.ndarray, m: int = 16) -> tuple:
    """Panel quadrature plus an error estimate from an (m+8)-node refinement."""
    coarse = panel_quad(f, edges, m)
    fine = panel_quad(f, edges, m + 8)
    err = abs(fine - coarse) + 1e-17 * max(1, len(edges) - 1)
    return fine, err
