"""Outside-in spans and counters around the package's public functions.

The tracer replaces a function on every binding the package looks it up
through: a module attribute and each ``from ... import`` copy in another
module's globals (``spectral`` keeps its own ``bessel_J`` and
``panel_quad_with_error``, ``specfun`` its own ``panel_quad``).  A binding
left unwrapped would drop counts silently, so ``install`` reports every
binding it replaced.

Spans are kept in memory as (label, parent, start, end) and aggregated when
the pass ends: a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (label, module, attribute) of every function the benchmark times.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("walk.step", "walk", "step"),
    ("walk.scan", "walk", "scan"),
    ("full.full_start", "full", "full_start"),
    ("full.full_step", "full", "full_step"),
    ("full.project_symmetric", "full", "project_symmetric"),
    ("specfun.bessel_J", "specfun", "bessel_J"),
    ("specfun.identity", "specfun", "chebyshev_from_bessel_integral"),
    ("quadrature.panel_quad", "_quadrature", "panel_quad"),
    ("quadrature.panel_quad_with_error", "_quadrature", "panel_quad_with_error"),
    ("spectral.segment_integral", "spectral", "segment_integral"),
    ("spectral.bulk_integral", "spectral", "bulk_integral"),
    ("spectral.p0_amplitude_bessel", "spectral", "p0_amplitude_bessel"),
    ("spectral.p0_amplitude_chebyshev", "spectral", "p0_amplitude_chebyshev"),
    ("bounds.theorem2_bounds", "bounds", "theorem2_bounds"),
    ("bounds.theorem1_check", "bounds", "theorem1_check"),
    ("bounds.lemma1_empirical_reports", "bounds", "lemma1_empirical_reports"),
]

PACKAGE = "hypercube_walk"


class Tracer:
    """Wraps the targets, records spans and counters for one pass at a time."""

    def __init__(self) -> None:
        self.bindings: list[tuple[object, str, object]] = []  # (module, name, original)
        self.reset()

    def reset(self) -> None:
        # [label, parent index, start, end, m of panel_quad_with_error, hook seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.node_orders: dict[tuple[int, int], set[int]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every binding of every target; return 'module.name' per binding."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patched = []
        for label, module_name, attr in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(label, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self.bindings.append((module, name, original))
                        patched.append(f"{module.__name__}.{name}")
        return patched

    def uninstall(self) -> None:
        for module, name, original in reversed(self.bindings):
            setattr(module, name, original)
        self.bindings.clear()

    def _wrap(self, label: str, original):
        hook = {
            "walk.step": self._on_step,
            "full.full_start": self._on_full_start,
            "full.full_step": self._on_full_step,
            "specfun.bessel_J": self._on_bessel,
            "quadrature.panel_quad": self._on_panel_quad,
        }.get(label)
        quad_m = None
        if label == "quadrature.panel_quad_with_error":
            signature = inspect.signature(original)

            def quad_m(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments["m"]

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            parent = stack[-1] if stack else -1
            if hook is not None:
                # counting is tracing overhead: keep it out of the parent's self time
                hook_start = perf_counter()
                hook(parent, *args, **kwargs)
                if parent >= 0:
                    spans[parent][5] += perf_counter() - hook_start
            index = len(spans)
            span = [label, parent, 0.0, 0.0, quad_m(args, kwargs) if quad_m else None, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = original
        return wrapper

    # -- counters -----------------------------------------------------------

    def _on_step(self, parent, state, *args, **kwargs) -> None:
        self.counts["walk.level_updates"] += state.n + 1

    def _on_full_start(self, parent, n, *args, **kwargs) -> None:
        self.counts["full.bytes_computed"] += 2**n * n * 8

    def _on_full_step(self, parent, state, *args, **kwargs) -> None:
        self.counts["full.bytes_computed"] += 2**state.n * state.n * 8

    def _on_bessel(self, parent, nu, x, *args, **kwargs) -> None:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        points = arr.size
        self.counts["specfun.bessel_J.points"] += points
        self.counts["specfun.bessel_J.upward_points"] += int(np.count_nonzero(arr >= nu))
        self.counts["specfun.bessel_J.miller_points"] += int(
            np.count_nonzero((arr > 0.0) & (arr < nu)))
        key = (points, hash(arr.tobytes()))
        orders = self.node_orders.setdefault(key, set())
        if int(nu) in orders:
            self.counts["specfun.bessel_J.repeat_points"] += points
        elif orders:
            self.counts["specfun.bessel_J.cross_order_points"] += points
        orders.add(int(nu))

    def _on_panel_quad(self, parent, f, edges, m, *args, **kwargs) -> None:
        panels = len(edges) - 1
        self.counts["quadrature.panel_quad.panels"] += panels
        self.counts["quadrature.panel_quad.evals"] += panels * m
        # the m-node pass inside panel_quad_with_error only feeds its error
        # estimate; the (m+8)-node pass is the value returned
        discarded = (parent >= 0 and self.spans[parent][0] == "quadrature.panel_quad_with_error"
                     and self.spans[parent][4] == m)
        if not discarded:
            self.counts["quadrature.useful_evals"] += panels * m

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per label: calls, total seconds (inclusive) and self seconds."""
        child_time = [span[5] for span in self.spans]
        for label, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for (label, _, start, end, _, _), children in zip(self.spans, child_time):
            entry = stats.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return stats
