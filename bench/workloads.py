"""The workloads: the calls one pass makes and the references they are checked against.

bessel-p0    the slowest user command, the Bessel route to P[0,t]; nearly all
             of its time is spent in specfun.bessel_J and panel quadrature, and
             96 % of its Bessel points repeat a node set at another order.
walk-scan    the Figure-1 dataset path: the symmetric walk, the dense oracle
             and CSV formatting of a long scan; specfun is idle here, so a
             Bessel-side change must leave it unchanged.
bound-sweep  the bound suites and the T_t integral identity: the same specfun
             and quadrature layers with one order per node set and arguments
             up to ~1e4, and the appendix grids that set its peak memory.

The seed fixes the order of the calls in a pass (and of the identity grid); it
changes no input, so every seed does the same work.
"""

from __future__ import annotations

import contextlib
import io
import random
import traceback
from dataclasses import dataclass
from typing import Callable

import checks
from reference import exact_scan

WORKLOADS = ("bessel-p0", "walk-scan", "bound-sweep")

FIGURE1_DIMS = range(2, 61)
FIGURE1_HORIZON = 1000
SIMULATE_N = 60
SIMULATE_HORIZON = 3000
IDENTITY_DEGREES = range(2, 21, 2)
IDENTITY_ARGUMENTS = (0.0, 0.25, -0.25, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0)


@dataclass
class Call:
    """One timed call of a pass and the check of what it returned."""

    label: str
    invoke: Callable[[], object]
    check: Callable[[object, checks.Tally], None]


def _failure(exc: BaseException) -> checks.Raised:
    return checks.Raised(repr(exc), traceback.format_exc(limit=-3))


def _cli_call(cli, argv: list[str], checker, **reference) -> Call:
    def invoke():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:  # counted as a failed operation, never an abort
                code = _failure(exc)
        return code, out.getvalue()

    def check(result, tally: checks.Tally) -> None:
        code, text = result
        checker(code, text, tally, **reference)

    return Call("hypercube-walk " + " ".join(argv), invoke, check)


def _identity_call(specfun, points: list[tuple[int, float]]) -> Call:
    exact = checks.exact_chebyshev_grid(points)

    def invoke():
        results = []
        for t, z in points:
            try:
                results.append(((t, z), specfun.chebyshev_from_bessel_integral(t, z)))
            except Exception as exc:  # counted as a failed operation, never an abort
                results.append(((t, z), _failure(exc)))
        return results

    def check(result, tally: checks.Tally) -> None:
        checks.check_identity(result, tally, exact=exact)

    return Call(f"specfun.chebyshev_from_bessel_integral over {len(points)} (t, z)",
                invoke, check)


def build(workload: str, seed: int) -> list[Call]:
    """The calls of one pass, in seed order, with their references computed."""
    from hypercube_walk import cli, specfun

    rng = random.Random(seed)
    if workload == "bessel-p0":
        calls = [
            _cli_call(cli, ["p0", "--n", "60", "--t-max", "92", "--method", "bessel",
                            "--parity", "even"], checks.check_p0,
                      scan=exact_scan(60, 92), t_max=92, method="bessel", parity="even"),
            _cli_call(cli, ["p0", "--n", "30", "--t-max", "28"], checks.check_p0,
                      scan=exact_scan(30, 28), t_max=28, method=None),
        ]
    elif workload == "walk-scan":
        calls = [
            _cli_call(cli, ["figure1", "--n-min", str(FIGURE1_DIMS[0]),
                            "--n-max", str(FIGURE1_DIMS[-1]), "--t-max", str(FIGURE1_HORIZON)],
                      checks.check_figure1,
                      scans={n: exact_scan(n, FIGURE1_HORIZON) for n in FIGURE1_DIMS}),
            _cli_call(cli, ["simulate", "--n", str(SIMULATE_N),
                            "--t-max", str(SIMULATE_HORIZON)],
                      checks.check_simulate, scan=exact_scan(SIMULATE_N, SIMULATE_HORIZON),
                      t_max=SIMULATE_HORIZON),
            _cli_call(cli, ["cross-validate", "--n-min", "1", "--n-max", "12",
                            "--t-max", "100"], checks.check_cross_validate,
                      n_min=1, n_max=12, t_max=100),
            _cli_call(cli, ["verify", "--suite", "theorem1", "--n-min", "10", "--n-max", "60"],
                      checks.check_verify, suite="theorem1"),
            _cli_call(cli, ["verify", "--suite", "lemma1", "--n", "12"],
                      checks.check_verify, suite="lemma1"),
        ]
    elif workload == "bound-sweep":
        points = [(t, z) for t in IDENTITY_DEGREES for z in IDENTITY_ARGUMENTS]
        rng.shuffle(points)
        calls = [
            _cli_call(cli, ["verify", "--suite", "theorem2", "--n-min", "4", "--n-max", "40"],
                      checks.check_verify, suite="theorem2"),
            _cli_call(cli, ["verify", "--suite", "appendix"], checks.check_verify,
                      suite="appendix"),
            _identity_call(specfun, points),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(calls)
    return calls
