"""Command-line interface producing the walk datasets and bound reports as CSV.

Commands
--------
simulate        per-step profile of one walk: t, p0, max_vertex_prob, argmax_w
figure1         per-dimension minima: n, t_min, p_at_tmin, fit_t, envelope
p0              return probability by simulator / Chebyshev sum / Bessel integral
verify          bound-check suites: theorem2, lemma1, theorem1, appendix
cross-validate  symmetric simulator vs. the dense full-state oracle
equilibrium     the exponent-balance ratio

Output is UTF-8 CSV with LF line endings and a mandatory header row; floats
are printed with repr (shortest round-trip, at most 17 significant digits),
so identical inputs produce byte-identical files.  Exit codes: 0 all checks
pass, 1 any bound or agreement violation, 2 usage error, an unwritable --out
path or no certified result (a quadrature that did not converge), with the
reason on stderr; a rule the library owns (p0's Bessel steps and --k-max
rule, in spectral) is checked there, and its ValueError text is the reason.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import pi, sqrt

import numpy as np

from . import bounds, full, specfun, spectral, walk
from ._quadrature import panel_quad

__all__ = ["main"]

USAGE_ERROR = 2
ORACLE_CAP = 12


def _fmt(value) -> str:
    if type(value) is float:  # most cells: skip the checks below
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _emit(header: list[str], rows: list[list], out_path: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _out_problem(path: str) -> str | None:
    """Why --out ``path`` cannot be written, or None; creates and truncates nothing.

    Checked before a command runs, so a bad path is refused before the work.
    A path that passes may still fail to open (permissions), which ``main``
    reports the same way after the work.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"cannot write --out {path}: {parent} is not a directory"
    if os.path.isdir(path):
        return f"cannot write --out {path}: it is a directory"
    return None


def _refuse(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _dimension_range(args, default_lo: int, default_hi: int) -> range:
    """--n-min..--n-max with the command's defaults; --n alone picks one dimension.

    An empty range, or one reaching below 1, raises ValueError (exit 2).
    """
    n_lo = args.n_min if args.n_min is not None else (args.n or default_lo)
    n_hi = args.n_max if args.n_max is not None else (args.n or default_hi)
    if n_lo < 1 or n_lo > n_hi:
        raise ValueError(f"bad dimension range [{n_lo}, {n_hi}]")
    return range(n_lo, n_hi + 1)


def _check_precision_cap(n: int) -> None:
    if n > walk.PRECISION_CAP:
        raise ValueError(
            f"n={n} exceeds the double-precision validity cap "
            f"({walk.PRECISION_CAP}); results would be noise-limited"
        )


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if args.n is None:
        return _refuse("simulate requires --n")
    _check_precision_cap(args.n)
    arrays = walk.scan([args.n], args.t_max)
    steps = walk._parity_steps(args.parity)
    columns = (field[steps, 0].tolist() for field in arrays)
    rows = list(zip(range(args.t_max + 1)[steps], *columns))
    _emit(["t", "p0", "max_vertex_prob", "argmax_w"], rows, args.out)
    return 0


def _cmd_figure1(args) -> int:
    dims = _dimension_range(args, 10, 50)
    if dims[0] < 2:
        return _refuse(f"figure1 needs n >= 2, got {dims[0]}")
    _check_precision_cap(dims[-1])
    horizons = [args.t_max if args.t_max is not None else max(100, 2 * n) for n in dims]
    max_vertex_prob = walk.scan(dims, max(horizons)).max_vertex_prob
    rows = []
    for row, (n, horizon) in enumerate(zip(dims, horizons)):
        t_best, p_best = walk.t_min(max_vertex_prob[: horizon + 1, row], args.parity)
        rows.append([n, t_best, p_best, bounds.figure1_fit(n), bounds.figure1_envelope(n)])
    _emit(["n", "t_min", "p_at_tmin", "fit_t", "envelope"], rows, args.out)
    return 0


def _cmd_p0(args) -> int:
    if args.n is None:
        return _refuse("p0 requires --n")
    _check_precision_cap(args.n)
    n, method = args.n, args.method
    k_max = spectral.checked_k_max(n, args.k_max)
    ts = range(args.t_max + 1)[walk._parity_steps(args.parity)]
    bessel_ts = spectral.bessel_steps(n, ts) if method in (None, "bessel") else []
    if method == "bessel" and not bessel_ts:
        return _refuse("the Bessel route is defined for even t in [2, n pi/2); "
                       "no requested step qualifies")
    p0_simulated = walk.scan([n], args.t_max).p0[:, 0].tolist()
    bessel = dict(zip(bessel_ts, spectral.p0_amplitudes_bessel(n, bessel_ts, k_max)))
    rows = []
    for t in ts:
        # the simulated column doubles as the oracle for `agree`
        p_sim = p0_simulated[t]
        amp_c = spectral.p0_amplitude_chebyshev(n, t) if method in (None, "chebyshev") else None
        amp_b, tail, quad_error = bessel.get(t, (None, None, None))
        reference = sqrt(p_sim) if amp_c is None else abs(amp_c)
        agree = ((amp_c is None or abs(p_sim - amp_c * amp_c) <= 1e-9)
                 and (amp_b is None or abs(amp_b - reference) <= tail + quad_error + 1e-9))
        rows.append([n, t, p_sim, amp_c, amp_b, tail, agree])
    _emit(["n", "t", "p0_simulated", "amp_chebyshev", "amp_bessel", "tail_bound", "agree"],
          rows, args.out)
    return 0 if all(row[-1] for row in rows) else 1


def _verify_theorem2(args) -> list[bounds.BoundReport | tuple]:
    rows: list = []
    for n in _dimension_range(args, 20, 20):
        nu = int(np.floor(bounds.BoundParams.t_coeff * n))
        if bounds.theorem2_admissible(n, nu):
            rows.extend(bounds.theorem2_bounds(n, nu))
        else:
            rows.append(("theorem2_skip", n, nu, "inadmissible (n, nu, alpha)"))
    return rows


def _verify_lemma1(args) -> list:
    rows: list = []
    for n in _dimension_range(args, 12, 12):
        rows.extend(bounds.lemma1_empirical_reports(n))
        if n < 3:  # the margins would be minima over no level: +inf, vacuously
            rows += [(f"lemma1_{kind}_step_margin", n, None, f"no level 0 < w < n/2 at n={n}")
                     for kind in ("coin", "shift")]
    return rows


def _verify_theorem1(args) -> list:
    dims = _dimension_range(args, 10, 50)
    _check_precision_cap(dims[-1])
    return bounds.theorem1_check(dims)


def _verify_appendix(args) -> list:
    if (args.n, args.n_min, args.n_max) != (None, None, None):
        raise ValueError("the appendix suite takes no --n, --n-min or --n-max")
    rows: list = []
    quad_34, quad_54 = _beta_quadratures()
    closed_34, closed_54 = specfun.beta_half_integrals(1.0)
    rows.append(bounds.BoundReport("beta_ray_3_4_relerr",
                                   abs(quad_34 - closed_34) / closed_34, 1e-10))
    rows.append(bounds.BoundReport("beta_ray_5_4_relerr",
                                   abs(quad_54 - closed_54) / closed_54, 1e-10))
    grid = np.linspace(0.0, pi / 2 - 1e-9, 100001)
    violation = float(np.max(np.cos(grid) - np.exp(-0.5 * grid * grid)))
    # allow one-ulp rounding near t = 0 where the analytic margin is t^4/12
    rows.append(bounds.BoundReport("cos_gaussian_grid", violation, 1e-15))
    # g on the 400,001 points of the ray in blocks: the complex temporaries
    # of the whole grid would be the suite's largest allocation
    ys, block = np.linspace(1e-8, 60.0, 400001), 1 << 15
    im_g_max = max(float(specfun.g_function(1.0 + 1j * ys[lo:lo + block]).imag.max())
                   for lo in range(0, ys.size, block))
    rows.append(bounds.BoundReport("im_g_max_on_ray", im_g_max, 0.2607))
    rows.append(bounds.BoundReport("variation_at_pi_half",
                                   specfun.variation_bound(pi / 2), 2.2723651))
    rows.append(bounds.BoundReport("eta_envelope",
                                   1.0 + specfun.eta_bound(1.0, pi / 2), 430.0))
    rows.append(bounds.BoundReport("equilibrium_c_dev",
                                   abs(bounds.equilibrium_c() - 0.133682), 1e-5))
    entropy_rate = 2.0 ** bounds.binary_entropy(bounds.BoundParams.c)
    rows.append(bounds.BoundReport("entropy_rate_dev", abs(entropy_rate - 1.48189), 1e-5))
    rows.append(bounds.stirling_bounds_check(50))
    envelope, checked, skipped = bounds.f_ray_envelope_check(12)
    rows.append(envelope)
    rows.append(("f_ray_points", 12, None, f"checked={checked} skipped={skipped}"))
    return rows


def _beta_quadratures() -> tuple[float, float]:
    # independent route to the ray integrals at a=1: y = sinh u turns
    # (1 + y^2)^-s dy into cosh(u)^(1 - 2s) du; cutting at U = 80 drops at most
    # 2 sqrt(2) e^(-U/2) = 1.2e-17 of the 3/4 integral (4.6e-18 relative) and
    # less of the 5/4 one
    edges = np.linspace(0.0, 80.0, 81)
    return (panel_quad(lambda u: np.cosh(u) ** -0.5, edges, 16),
            panel_quad(lambda u: np.cosh(u) ** -1.5, edges, 16))


def _cmd_verify(args) -> int:
    suites = {
        "theorem2": _verify_theorem2,
        "lemma1": _verify_lemma1,
        "theorem1": _verify_theorem1,
        "appendix": _verify_appendix,
    }
    rows_out: list[list] = []
    any_fail = False
    for item in suites[args.suite](args):
        if isinstance(item, bounds.BoundReport):
            rows_out.append(item.csv_row())
            any_fail = any_fail or not item.passed
        else:
            name, n, nu, reason = item
            rows_out.append([name, n, nu, "", "", "", f"skip:{reason}"])
    _emit(bounds.CSV_HEADER, rows_out, args.out)
    return 1 if any_fail else 0


def _cmd_cross_validate(args) -> int:
    dims = _dimension_range(args, 1, ORACLE_CAP)
    if dims[-1] > ORACLE_CAP:
        return _refuse(f"cross-validation caps at n={ORACLE_CAP} (oracle scale)")
    rows = []
    worst_overall = 0.0
    for n in dims:
        # refuses t_max < 0 (exit 2) before any row is emitted
        symmetric = walk.trajectory(n, args.t_max)
        projected = full.trajectory(n, args.t_max)
        # one reduction per n over (t, sector, level); a max is exact in any order
        diffs = np.max(np.abs(projected - symmetric), axis=(1, 2)).tolist()
        rows.extend([n, t, diff] for t, diff in enumerate(diffs))
        worst_overall = max(worst_overall, *diffs)
    _emit(["n", "t", "max_discrepancy"], rows, args.out)
    return 1 if worst_overall > 1e-10 else 0


def _cmd_equilibrium(args) -> int:
    c = bounds.equilibrium_c()
    rows = [
        ["equilibrium_c", c],
        ["balance_gap_at_root", bounds.equilibrium_balance_gap(c)],
    ]
    _emit(["quantity", "value"], rows, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercube-walk",
        description="Hypercube quantum-walk datasets and dispersion-bound reports (CSV)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options it reads, from these parents
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
    one_n = argparse.ArgumentParser(add_help=False)
    one_n.add_argument("--n", type=int, default=None, help="hypercube dimension")
    n_range = argparse.ArgumentParser(add_help=False, parents=[one_n])
    n_range.add_argument("--n-min", type=int, default=None)
    n_range.add_argument("--n-max", type=int, default=None)
    parity = argparse.ArgumentParser(add_help=False)
    parity.add_argument("--parity", choices=["all", "even", "odd"], default="all")

    p = sub.add_parser("simulate", parents=[one_n, parity, out],
                       help="per-step probability profile of one walk")
    p.add_argument("--t-max", type=int, default=100)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("figure1", parents=[n_range, parity, out],
                       help="t_min, minimum probability, fit and envelope per n")
    p.add_argument("--t-max", type=int, default=None, help="scan horizon (default max(100, 2n))")
    p.set_defaults(handler=_cmd_figure1)

    p = sub.add_parser("p0", parents=[one_n, parity, out],
                       help="return probability by all three routes")
    p.add_argument("--t-max", type=int, default=30)
    p.add_argument("--method", choices=["chebyshev", "bessel", "simulate"], default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(handler=_cmd_p0)

    p = sub.add_parser("verify", parents=[n_range, out], help="bound-verification suites")
    p.add_argument("--suite", choices=["theorem2", "lemma1", "theorem1", "appendix"],
                   required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("cross-validate", parents=[n_range, out],
                       help="symmetric simulator vs. full-state oracle")
    p.add_argument("--t-max", type=int, default=30)
    p.set_defaults(handler=_cmd_cross_validate)

    p = sub.add_parser("equilibrium", parents=[out], help="exponent-balance ratio")
    p.set_defaults(handler=_cmd_equilibrium)

    for p in sub.choices.values():
        p.set_defaults(parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:  # the command's own parser reports them, with its own usage
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if getattr(args, "n", None) is not None and args.n < 1:
        return _refuse("dimension must be >= 1")
    if args.out is not None and (problem := _out_problem(args.out)):
        return _refuse(problem)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        # ArithmeticError: a quadrature could not certify its result;
        # OSError: the --out file could not be written
        return _refuse(str(exc))


if __name__ == "__main__":
    sys.exit(main())
