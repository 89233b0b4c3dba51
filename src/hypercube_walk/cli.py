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
pass, 1 any bound or agreement violation, 2 usage error or no certified
result (a quadrature that did not converge), with the reason on stderr.
"""

from __future__ import annotations

import argparse
import sys
from math import pi

import numpy as np

from . import bounds, full, specfun, spectral, walk

__all__ = ["main"]

USAGE_ERROR = 2
ORACLE_CAP = 12


def _fmt(value) -> str:
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


def _refuse(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if args.n is None:
        return _refuse("simulate requires --n")
    if args.n > walk.PRECISION_CAP:
        return _refuse(
            f"n={args.n} exceeds the double-precision validity cap "
            f"({walk.PRECISION_CAP}); results would be noise-limited"
        )
    profile = walk.scan(walk.WalkParams(args.n, args.t_max))
    rows = [
        [row.t, row.p0, row.max_vertex_prob, row.argmax_w]
        for row in profile
        if walk.matches_parity(row.t, args.parity)
    ]
    _emit(["t", "p0", "max_vertex_prob", "argmax_w"], rows, args.out)
    return 0


def _cmd_figure1(args) -> int:
    n_lo = args.n_min if args.n_min is not None else (args.n or 10)
    n_hi = args.n_max if args.n_max is not None else (args.n or 50)
    if n_lo < 2 or n_hi > walk.PRECISION_CAP:
        return _refuse(f"dimension range must lie within [2, {walk.PRECISION_CAP}]")
    if n_lo > n_hi:
        return _refuse("empty dimension range")
    dims = range(n_lo, n_hi + 1)
    horizons = [args.t_max if args.t_max is not None else max(100, 2 * n) for n in dims]
    rows = []
    for n, horizon, profile in zip(dims, horizons, walk.scans(dims, max(horizons))):
        t_best, p_best = walk.t_min(profile[: horizon + 1], parity=args.parity)
        rows.append([n, t_best, p_best, -0.754 + 0.849 * n, 5.0 * 1.93**-n])
    _emit(["n", "t_min", "p_at_tmin", "fit_t", "envelope"], rows, args.out)
    return 0


def _cmd_p0(args) -> int:
    if args.n is None:
        return _refuse("p0 requires --n")
    if args.n > walk.PRECISION_CAP:
        return _refuse(f"n={args.n} exceeds the double-precision validity cap")
    n = args.n
    want = args.method
    do_cheb = want in (None, "chebyshev")
    do_bessel = want in (None, "bessel")
    do_sim = True  # the simulated column doubles as the oracle for `agree`
    k_max = args.k_max if args.k_max is not None else spectral.default_k_max(n)
    if k_max < n:
        return _refuse(f"--k-max must be at least n={n}")

    ts = [t for t in range(args.t_max + 1) if walk.matches_parity(t, args.parity)]
    bessel_ts = [t for t in ts if t % 2 == 0 and 2 <= t < n * pi / 2]
    if want == "bessel" and not bessel_ts:
        return _refuse(
            "the Bessel route is defined for even t in [2, n pi/2); "
            "no requested step qualifies"
        )

    states = walk.trajectory(n, args.t_max)
    bessel = {}
    if do_bessel:
        bessel = dict(zip(bessel_ts, spectral.p0_amplitudes_bessel(n, bessel_ts, k_max)))
    rows = []
    any_disagree = False
    for t in ts:
        p_sim = walk.level_probability(states[t], 0) if do_sim else None
        amp_c = spectral.p0_amplitude_chebyshev(n, t) if do_cheb else None
        amp_b = tail = None
        budget_ok = True
        if t in bessel:
            res = bessel[t]
            amp_b = res.amplitude
            tail = res.tail_bound
            reference = abs(amp_c) if amp_c is not None else np.sqrt(p_sim)
            budget_ok = abs(amp_b - reference) <= res.tail_bound + res.quad_error + 1e-9
        cheb_ok = True
        if amp_c is not None:
            cheb_ok = abs(p_sim - amp_c * amp_c) <= 1e-9
        agree = cheb_ok and budget_ok
        any_disagree = any_disagree or not agree
        rows.append([n, t, p_sim, amp_c, amp_b, tail, agree])
    _emit(
        ["n", "t", "p0_simulated", "amp_chebyshev", "amp_bessel", "tail_bound", "agree"],
        rows,
        args.out,
    )
    return 1 if any_disagree else 0


def _verify_theorem2(args) -> list[bounds.BoundReport | tuple]:
    n_lo = args.n_min if args.n_min is not None else (args.n or 20)
    n_hi = args.n_max if args.n_max is not None else (args.n or 20)
    params = bounds.BoundParams()
    alpha = params.alpha
    rows: list = []
    for n in range(n_lo, n_hi + 1):
        nu = int(np.floor(params.t_coeff * n))
        if not (nu > 1 and n * alpha < nu < n):
            rows.append(("theorem2_skip", n, nu, "inadmissible (n, nu, alpha)"))
            continue
        rows.extend(bounds.theorem2_bounds(n, nu, alpha))
    return rows


def _verify_lemma1(args) -> list:
    n = args.n or 12
    rows: list = list(bounds.lemma1_empirical_reports(n, t_max=20, w_max=6))
    coin_margin, shift_margin = bounds.lemma1_chain_margins(n, t_max=20)
    rows.append(bounds.BoundReport("lemma1_coin_step_margin", -coin_margin, 0.0, n=n))
    rows.append(bounds.BoundReport("lemma1_shift_step_margin", -shift_margin, 0.0, n=n))
    return rows


def _verify_theorem1(args) -> list:
    n_lo = args.n_min if args.n_min is not None else (args.n or 10)
    n_hi = args.n_max if args.n_max is not None else (args.n or 50)
    params = bounds.BoundParams()
    c_emp = bounds.calibrate_theorem1(params, n_ref=n_lo)
    rows: list = []
    for n in range(n_lo, n_hi + 1):
        rows.extend(bounds.theorem1_check(n, params, c_emp))
    return rows


def _verify_appendix(args) -> list:
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
    ys = np.linspace(1e-8, 60.0, 400001)
    z = 1.0 + 1j * ys
    im_g = (z - np.sqrt(z * z - 1.0) + np.arccos(1.0 / z)).imag
    rows.append(bounds.BoundReport("im_g_max_on_ray", float(im_g.max()), 0.2607))
    rows.append(bounds.BoundReport("variation_at_pi_half",
                                   specfun.variation_bound(pi / 2), 2.2723651))
    rows.append(bounds.BoundReport("eta_envelope",
                                   1.0 + specfun.eta_bound(1.0, pi / 2), 430.0))
    rows.append(bounds.BoundReport("equilibrium_c_dev",
                                   abs(bounds.equilibrium_c() - 0.133682), 1e-5))
    rows.append(bounds.BoundReport("entropy_rate_dev",
                                   abs(2.0 ** bounds.binary_entropy(0.13368) - 1.48189), 1e-5))
    rows.append(bounds.stirling_bounds_check(50))
    envelope, checked, skipped = bounds.f_ray_envelope_check(12)
    rows.append(envelope)
    rows.append(("f_ray_points", 12, None, f"checked={checked} skipped={skipped}"))
    return rows


def _beta_quadratures() -> tuple[float, float]:
    # independent route to the ray integrals at a=1
    from scipy.integrate import quad

    val_34, _ = quad(lambda y: (1.0 + y * y) ** -0.75, 0.0, np.inf)
    val_54, _ = quad(lambda y: (1.0 + y * y) ** -1.25, 0.0, np.inf)
    return float(val_34), float(val_54)


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
    n_lo = args.n_min if args.n_min is not None else (args.n or 1)
    n_hi = args.n_max if args.n_max is not None else (args.n or ORACLE_CAP)
    if n_hi > ORACLE_CAP:
        return _refuse(f"cross-validation caps at n={ORACLE_CAP} (oracle scale)")
    if n_lo < 1 or n_lo > n_hi:
        return _refuse("bad dimension range")
    rows = []
    worst_overall = 0.0
    for n in range(n_lo, n_hi + 1):
        sym = walk.start_state(n)
        dense = full.full_start(n)
        for t in range(args.t_max + 1):
            projected = full.project_symmetric(dense)
            diff = max(
                float(np.max(np.abs(projected.alpha_right - sym.alpha_right))),
                float(np.max(np.abs(projected.alpha_left - sym.alpha_left))),
            )
            rows.append([n, t, diff])
            worst_overall = max(worst_overall, diff)
            if t < args.t_max:
                sym = walk.step(sym)
                dense = full.full_step(dense)
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

    def add_common(p, n_default=None):
        p.add_argument("--n", type=int, default=n_default, help="hypercube dimension")
        p.add_argument("--n-min", type=int, default=None)
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
        p.add_argument("--parity", choices=["all", "even", "odd"], default="all")

    p = sub.add_parser("simulate", help="per-step probability profile of one walk")
    add_common(p)
    p.add_argument("--t-max", type=int, default=100)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("figure1", help="t_min, minimum probability, fit and envelope per n")
    add_common(p)
    p.add_argument("--t-max", type=int, default=None, help="scan horizon (default max(100, 2n))")
    p.set_defaults(handler=_cmd_figure1)

    p = sub.add_parser("p0", help="return probability by all three routes")
    add_common(p)
    p.add_argument("--t-max", type=int, default=30)
    p.add_argument("--method", choices=["chebyshev", "bessel", "simulate"], default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(handler=_cmd_p0)

    p = sub.add_parser("verify", help="bound-verification suites")
    add_common(p)
    p.add_argument("--suite", choices=["theorem2", "lemma1", "theorem1", "appendix"],
                   required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("cross-validate", help="symmetric simulator vs. full-state oracle")
    add_common(p)
    p.add_argument("--t-max", type=int, default=30)
    p.set_defaults(handler=_cmd_cross_validate)

    p = sub.add_parser("equilibrium", help="exponent-balance ratio")
    add_common(p)
    p.set_defaults(handler=_cmd_equilibrium)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if args.n is not None and args.n < 1:
        return _refuse("dimension must be >= 1")
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: a quadrature could not certify its result
        return _refuse(str(exc))


if __name__ == "__main__":
    sys.exit(main())
