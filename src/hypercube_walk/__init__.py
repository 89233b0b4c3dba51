"""Numerical laboratory for the Grover-coin quantum walk on the hypercube.

Modules: ``walk`` (symmetric-subspace simulator), ``full`` (dense
oracle), ``specfun`` (special functions and bound formulas), ``spectral``
(the two analytic routes to the return probability), ``bounds`` (bound
checks and reports), ``cli`` (CSV command-line interface).
"""

from . import bounds, full, specfun, spectral, walk

__all__ = ["walk", "full", "specfun", "spectral", "bounds"]
__version__ = "0.1.0"
