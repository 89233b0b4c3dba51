"""Correctness checks of every number a benchmark pass emits.

One operation is one emitted CSV row or identity value, plus one per command
for its exit code and one for its header.  Each operation makes one or more
checks; it fails when any of them fails.  A failure is counted, never raised,
so a pass always runs to the end.  Each failed check is recorded by class,
named ``<command>.<column>``, and by the row it concerns, so a check that
starts failing on a new row shows even when its class already fails elsewhere.

Tolerances are relative to the quantity (``REL_TOL``) or come from a budget
the output prints (``tail_bound``, the identity certificate, the verify
margin).  Where the exact value is 0 only an exact 0 passes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, pi

from reference import ExactScan, chebyshev_T

# A printed value wrong in its sixth significant digit is wrong for any use
# of the dataset; a correct double-precision evaluation sits nine orders of
# magnitude inside this.
REL_TOL = 1e-6

# The threshold `cross-validate` documents for its exit code.
CROSS_VALIDATE_TOL = 1e-10


def _rows(n: int, steps) -> frozenset[str]:
    return frozenset(f"n={n} t={t}" for t in steps)


# The (class, row) checks that already fail on the code this benchmark was
# first run against, with the reason.  They stay counted in `failed`;
# `correct` turns false on any failed check outside this list.
KNOWN_FAILURES: dict[str, tuple[frozenset[str], str]] = {
    "p0.p0_simulated": (
        _rows(60, range(54, 93, 2)),
        "the float scan loses P[0,t] below ~1e-25 (n=60, t>=54)"),
    "p0.amp_bessel": (
        _rows(60, [52, 54, *range(58, 93, 2)]) | _rows(30, (24, 26, 28)),
        "Bessel amplitude off by more than REL_TOL (n=60, t>=52; n=30, t=24..28)"),
    "p0.tail_bound": (
        _rows(60, [52, 54, *range(58, 91, 2)]),
        "amp_bessel misses the exact amplitude by more than tail_bound (n=60, t>=52)"),
    "p0.agree_schema": (
        _rows(60, range(2, 93, 2)),
        "agree prints True instead of true on Bessel rows (a numpy bool)"),
    "p0.amp_chebyshev": (
        _rows(30, range(1, 29, 2)),
        "amp_chebyshev is ~1e-16, not 0, at odd t (the amplitude is 0)"),
    "figure1.t_min": (
        frozenset({"n=4"}),
        "n=4: rounding breaks a 33-way tie, t_min=63 instead of 3"),
    "simulate.p0": (
        _rows(60, range(54, 117, 2)),
        "the float scan loses P[0,t] at n=60 once it sinks below ~1e-25 (t=54..116)"),
}

# Which layer's row counter a failed check class feeds.
LAYER_OF_CLASS = {
    "p0.p0_simulated": "walk",
    "simulate.p0": "walk",
    "simulate.max_vertex_prob": "walk",
    "simulate.argmax_w": "walk",
    "figure1.t_min": "walk",
    "figure1.p_at_tmin": "walk",
    "p0.amp_bessel": "spectral.bessel",
    "p0.tail_bound": "spectral.bessel",
    "p0.amp_chebyshev": "spectral.chebyshev",
    "identity.value": "specfun.identity",
}

TRUE_FALSE = ("true", "false")


@dataclass
class Raised:
    """What a call that raised returns instead of its result."""

    error: str
    trace: str

    def __str__(self) -> str:
        return f"{self.error}\n{self.trace}"


class Op:
    """One operation: the row it concerns and the checks made on it."""

    def __init__(self, prefix: str, key: str) -> None:
        self.prefix = prefix
        self.key = key
        self.checks = 0
        self.failures: list[tuple[str, str]] = []  # (class, detail)

    def check(self, column: str, ok: bool, detail: str = "") -> bool:
        self.checks += 1
        if not ok:
            self.failures.append((f"{self.prefix}.{column}", f"{self.key}: {detail}"))
        return ok


class Tally:
    """Operations and checks attempted and failed, failures per class, per
    (class, row) and per layer."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.by_class: Counter[str] = Counter()
        self.failed_rows: dict[str, set[str]] = {}
        self.rows_failed_by_layer: Counter[str] = Counter()
        self.first_failure: dict[str, str] = {}

    def op(self, op: Op) -> None:
        self.attempted += 1
        self.checks += op.checks
        if not op.failures:
            return
        self.failed += 1
        self.checks_failed += len(op.failures)
        for cls, detail in op.failures:
            self.by_class[cls] += 1
            self.failed_rows.setdefault(cls, set()).add(op.key)
            self.first_failure.setdefault(cls, detail)
        for layer in {LAYER_OF_CLASS[c] for c, _ in op.failures if c in LAYER_OF_CLASS}:
            self.rows_failed_by_layer[layer] += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.checks += other.checks
        self.checks_failed += other.checks_failed
        self.by_class.update(other.by_class)
        for cls, rows in other.failed_rows.items():
            self.failed_rows.setdefault(cls, set()).update(rows)
        self.rows_failed_by_layer.update(other.rows_failed_by_layer)
        for cls, detail in other.first_failure.items():
            self.first_failure.setdefault(cls, detail)

    def new_failures(self) -> dict[str, list[str]]:
        """Failed rows per class that KNOWN_FAILURES does not list."""
        new = {}
        for cls, rows in self.failed_rows.items():
            known = KNOWN_FAILURES.get(cls, (frozenset(), ""))[0]
            if rows - known:
                new[cls] = sorted(rows - known)
        return new


def _rel_ok(value: float | None, exact: float) -> bool:
    if value is None:
        return False
    if exact == 0.0:
        return value == 0.0
    return abs(value - exact) <= REL_TOL * abs(exact)


def _float(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if isfinite(value) else None


class CsvOutput:
    """Header and rows of one command's output, with its framing checks."""

    def __init__(self, command: str, header: list[str], exit_code, stdout: str,
                 tally: Tally) -> None:
        self.command = command
        self.tally = tally
        self.exit_code = exit_code
        lines = stdout.split("\n")
        trailing_newline = lines[-1] == ""
        if trailing_newline:
            lines.pop()
        head = lines[0] if lines else ""
        op = Op(command, "header")
        op.check("header", head == ",".join(header) and trailing_newline, f"header {head!r}")
        tally.op(op)
        self.rows = [line.split(",") for line in lines[1:]]
        self.width = len(header)

    def row(self, key: str, cells: list[str]) -> Op | None:
        """An operation for ``cells``; None (already recorded) if its width is wrong."""
        op = Op(self.command, key)
        if op.check("schema", len(cells) == self.width, f"{len(cells)} cells: {cells!r}"):
            return op
        self.tally.op(op)
        return None

    def missing(self, keys) -> None:
        for key in keys[len(self.rows):]:
            op = Op(self.command, key)
            op.check("rows", False, "row missing")
            self.tally.op(op)

    def finish(self, expected_exit: int) -> None:
        """The exit-code operation: ``expected_exit`` follows from the rows."""
        op = Op(self.command, "exit")
        if isinstance(self.exit_code, Raised):
            op.check("exception", False, str(self.exit_code))
        else:
            op.check("exit_code", self.exit_code == expected_exit,
                     f"exit {self.exit_code}, rows imply {expected_exit}")
        self.tally.op(op)


def _expected_steps(t_max: int, parity: str) -> list[int]:
    keep = {"all": (0, 1), "even": (0,), "odd": (1,)}[parity]
    return [t for t in range(t_max + 1) if t % 2 in keep]


def check_simulate(exit_code, stdout: str, tally: Tally, *, scan: ExactScan,
                   t_max: int, parity: str = "all") -> None:
    out = CsvOutput("simulate", ["t", "p0", "max_vertex_prob", "argmax_w"],
                    exit_code, stdout, tally)
    steps = _expected_steps(t_max, parity)
    keys = [f"n={scan.n} t={t}" for t in steps]
    for i, cells in enumerate(out.rows):
        key = keys[i] if i < len(keys) else f"row {i}"
        op = out.row(key, cells)
        if op is None:
            continue
        t = steps[i] if i < len(steps) else None
        if op.check("rows", t is not None and cells[0] == str(t), f"row is t={cells[0]}"):
            op.check("p0", _rel_ok(_float(cells[1]), scan.p0[t]),
                     f"{cells[1]} vs {scan.p0[t]!r}")
            op.check("max_vertex_prob", _rel_ok(_float(cells[2]), scan.max_vertex_prob[t]),
                     f"{cells[2]} vs {scan.max_vertex_prob[t]!r}")
            op.check("argmax_w", cells[3] == str(scan.argmax_w[t]),
                     f"{cells[3]} vs {scan.argmax_w[t]}")
        tally.op(op)
    out.missing(keys)
    out.finish(0)


def check_figure1(exit_code, stdout: str, tally: Tally, *, scans: dict[int, ExactScan]) -> None:
    out = CsvOutput("figure1", ["n", "t_min", "p_at_tmin", "fit_t", "envelope"],
                    exit_code, stdout, tally)
    dims = sorted(scans)
    keys = [f"n={n}" for n in dims]
    for i, cells in enumerate(out.rows):
        key = keys[i] if i < len(keys) else f"row {i}"
        op = out.row(key, cells)
        if op is None:
            continue
        n = dims[i] if i < len(dims) else None
        if op.check("rows", n is not None and cells[0] == str(n), f"row is n={cells[0]}"):
            scan = scans[n]
            op.check("t_min", cells[1] == str(scan.t_min), f"{cells[1]} vs {scan.t_min}")
            op.check("p_at_tmin", _rel_ok(_float(cells[2]), scan.p_at_tmin),
                     f"{cells[2]} vs {scan.p_at_tmin!r}")
            fit = Fraction(-754, 1000) + Fraction(849, 1000) * n
            envelope = 5 * Fraction(100, 193) ** n
            for column, cell, exact in (("fit_t", cells[3], fit),
                                        ("envelope", cells[4], envelope)):
                op.check(column, _rel_ok(_float(cell), float(exact)),
                         f"{cell} vs {float(exact)!r}")
        tally.op(op)
    out.missing(keys)
    out.finish(0)


def check_p0(exit_code, stdout: str, tally: Tally, *, scan: ExactScan, t_max: int,
             method: str | None, parity: str = "all") -> None:
    out = CsvOutput("p0", ["n", "t", "p0_simulated", "amp_chebyshev", "amp_bessel",
                           "tail_bound", "agree"], exit_code, stdout, tally)
    n = scan.n
    steps = _expected_steps(t_max, parity)
    keys = [f"n={n} t={t}" for t in steps]
    any_disagree = False
    for i, cells in enumerate(out.rows):
        key = keys[i] if i < len(keys) else f"row {i}"
        op = out.row(key, cells)
        if op is None:
            continue
        t = steps[i] if i < len(steps) else None
        if op.check("rows", t is not None and cells[:2] == [str(n), str(t)],
                    f"row is {cells[:2]}"):
            _check_p0_row(op, cells, scan, t, method)
        any_disagree = any_disagree or cells[6].lower() == "false"
        tally.op(op)
    out.missing(keys)
    out.finish(1 if any_disagree else 0)


def _check_p0_row(op: Op, cells: list[str], scan: ExactScan, t: int,
                  method: str | None) -> None:
    exact_p = scan.p0[t]
    exact_amp = abs(scan.amplitude[t])
    op.check("p0_simulated", _rel_ok(_float(cells[2]), exact_p), f"{cells[2]} vs {exact_p!r}")
    if method in (None, "chebyshev"):
        amp_c = _float(cells[3])
        op.check("amp_chebyshev", _rel_ok(None if amp_c is None else amp_c * amp_c, exact_p),
                 f"{cells[3]}^2 vs P={exact_p!r}")
    if method in (None, "bessel") and t % 2 == 0 and 2 <= t < scan.n * pi / 2:
        amp_b, tail = _float(cells[4]), _float(cells[5])
        op.check("amp_bessel", _rel_ok(amp_b, exact_amp), f"{cells[4]} vs {exact_amp!r}")
        err = abs(amp_b - exact_amp) if amp_b is not None else None
        op.check("tail_bound",
                 err is not None and tail is not None and err <= tail + REL_TOL * exact_amp,
                 f"error {err!r} > tail_bound {cells[5]}")
    else:
        op.check("amp_bessel", not (cells[4] or cells[5]), "Bessel cells outside the route")
    op.check("agree_schema", cells[6] in TRUE_FALSE, f"agree={cells[6]!r}")


def check_verify(exit_code, stdout: str, tally: Tally, *, suite: str) -> None:
    out = CsvOutput("verify", ["name", "n", "nu", "computed", "bound", "margin", "pass"],
                    exit_code, stdout, tally)
    any_fail = False
    for i, cells in enumerate(out.rows):
        key = f"{suite}:{cells[0]} n={cells[1]} nu={cells[2]}" if len(cells) > 2 else f"row {i}"
        op = out.row(key, cells)
        if op is None:
            continue
        if not cells[6].startswith("skip:"):
            computed, bound, margin = (_float(c) for c in cells[3:6])
            op.check("pass_schema", cells[6] in TRUE_FALSE, f"pass={cells[6]!r}")
            if op.check("margin", None not in (computed, bound, margin), f"cells {cells[3:6]!r}"):
                op.check("margin", bound - computed == margin, "margin is not bound-computed")
                op.check("pass", (cells[6] == "true") == (margin >= 0.0),
                         f"pass={cells[6]} margin={margin!r}")
            any_fail = any_fail or cells[6] == "false"
        tally.op(op)
    out.finish(1 if any_fail else 0)


def check_cross_validate(exit_code, stdout: str, tally: Tally, *, n_min: int, n_max: int,
                         t_max: int) -> None:
    out = CsvOutput("cross_validate", ["n", "t", "max_discrepancy"], exit_code, stdout, tally)
    expected = [(n, t) for n in range(n_min, n_max + 1) for t in range(t_max + 1)]
    keys = [f"n={n} t={t}" for n, t in expected]
    any_over = False
    for i, cells in enumerate(out.rows):
        key = keys[i] if i < len(keys) else f"row {i}"
        op = out.row(key, cells)
        if op is None:
            continue
        want = expected[i] if i < len(expected) else None
        diff = _float(cells[2])
        if op.check("rows", want is not None and cells[:2] == [str(want[0]), str(want[1])],
                    f"row is {cells[:2]}"):
            op.check("discrepancy", diff is not None and 0.0 <= diff <= CROSS_VALIDATE_TOL,
                     f"{cells[2]}")
        any_over = any_over or (diff is not None and diff > CROSS_VALIDATE_TOL)
        tally.op(op)
    out.missing(keys)
    out.finish(1 if any_over else 0)


def check_identity(values, tally: Tally, *, exact: dict[tuple[int, float], Fraction]) -> None:
    """Each (t, z) -> (value, certificate) must bracket the exact T_t(z)."""
    for (t, z), result in values:
        op = Op("identity", f"t={t} z={z}")
        if isinstance(result, Raised):
            op.check("exception", False, str(result))
        else:
            value, certificate = result
            op.check("value", isfinite(value) and isfinite(certificate) and certificate >= 0.0
                     and abs(Fraction(value) - exact[t, z]) <= Fraction(certificate),
                     f"{value!r} +- {certificate!r} vs {float(exact[t, z])!r}")
        tally.op(op)


def exact_chebyshev_grid(points) -> dict[tuple[int, float], Fraction]:
    return {(t, z): chebyshev_T(t, Fraction(z)) for t, z in points}
