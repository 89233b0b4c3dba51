"""Acceptance suite: the twelve exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
failure report).  Tolerances are pinned here and nowhere else.

Known-red: criterion 10 pins the printed decimal 1.1984 for the second ray
integral at a = 1.  The integral provably equals B(1/2, 3/4)/2 =
1.19814022...: independent quadrature, the beta closed form and the
Gamma-function route all agree on 1.19814 to thirteen digits, so the pinned
decimal 1.1984 is off by 2.2e-4 relative and the stated 1e-4 check cannot
pass.  The assertion is kept as stated rather than loosened; see
test_criterion_10b.
"""

import time
from math import comb, floor, pi, sqrt

import numpy as np
import pytest

from hypercube_walk import bounds, cli, full, specfun, spectral, walk


def _report(tag: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag} {detail}".rstrip())


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        dense = full.full_start(n)
        for t, amps in enumerate(walk.trajectory(n, 30)):
            projected = full.project_symmetric(dense)
            worst = max(worst, float(np.abs(projected - amps).max()))
            if t < 30:
                dense = full.full_step(dense)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 60.0
    _report("criterion-01 oracle equivalence", ok,
            f"worst={worst:.2e} elapsed={elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_02_figure1_upper_left():
    started = time.perf_counter()
    _, p_best = walk.t_min(walk.scan([50], 100).max_vertex_prob[:, 0])
    elapsed = time.perf_counter() - started
    ok = 1e-15 <= p_best <= 1e-13 and elapsed < 5.0
    _report("criterion-02 n=50 minimum depth", ok,
            f"min={p_best:.3e} elapsed={elapsed:.2f}s")
    assert 1e-15 <= p_best <= 1e-13
    assert elapsed < 5.0


def test_criterion_03_figure1_upper_right():
    started = time.perf_counter()
    deviations = {}
    for n in range(10, 51):
        t_best, _ = walk.t_min(walk.scan([n], max(100, 2 * n)).max_vertex_prob[:, 0])
        deviations[n] = abs(t_best - (-0.754 + 0.849 * n))
    elapsed = time.perf_counter() - started
    worst = max(deviations.values())
    ok = worst <= 2.0 and elapsed < 30.0
    _report("criterion-03 t_min linear fit", ok,
            f"worst|dev|={worst:.2f} elapsed={elapsed:.1f}s")
    assert worst <= 2.0
    assert elapsed < 30.0


def test_criterion_04_figure1_lower_left():
    margins = []
    for n in range(10, 51):
        _, p_best = walk.t_min(walk.scan([n], max(100, 2 * n)).max_vertex_prob[:, 0])
        margins.append(5.0 * 1.93**-n - p_best)
    ok = all(m > 0.0 for m in margins)
    _report("criterion-04 envelope 5*1.93^-n", ok,
            f"min margin={min(margins):.3e}")
    assert ok


def test_criterion_05_figure1_lower_right():
    # the maximum stays at the start vertex on even steps until the moment
    # the probability starts rising, i.e. strictly before the minimum
    profile = walk.profile(50, 100)
    t_best, _ = walk.t_min(profile.max_vertex_prob)
    offenders = [t for t in range(0, t_best, 2) if profile.argmax_w[t] != 0]
    ok = not offenders
    _report("criterion-05 argmax at 0^n before minimum", ok,
            f"t_min={t_best} offenders={offenders}")
    assert ok


def test_criterion_06_three_way_agreement():
    started = time.perf_counter()
    violations = []
    for n in range(2, 31):
        p0_simulated = walk.scan([n], 28).p0[:, 0]
        ts = [t for t in range(2, 29, 2) if t < n * pi / 2]
        # one pass per n; each row equals the one-order p0_amplitude_bessel(n, t)
        for t, res in zip(ts, spectral.p0_amplitudes_bessel(n, ts)):
            p_sim = p0_simulated[t]
            amp_c = spectral.p0_amplitude_chebyshev(n, t)
            if abs(p_sim - amp_c * amp_c) > 1e-9:
                violations.append(("cheb", n, t))
            if abs(res.amplitude - abs(amp_c)) > res.ray_error + res.bulk_error + 1e-9:
                violations.append(("bessel", n, t))
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 600.0
    _report("criterion-06 three-way p0 agreement", ok,
            f"violations={violations} elapsed={elapsed:.0f}s")
    assert not violations
    assert elapsed < 600.0


def test_criterion_07_integral_identity():
    worst_gap = -np.inf
    worst_cert = 0.0
    failures = []
    for t in range(2, 21, 2):
        for z in (0.0, 0.25, -0.25, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0):
            value, cert = specfun.chebyshev_from_bessel_integral(t, z)
            target = specfun.chebyshev_T(t, z)
            if abs(value - target) > cert or cert > 1e-4:
                failures.append((t, z))
            worst_gap = max(worst_gap, abs(value - target))
            worst_cert = max(worst_cert, cert)
    ok = not failures
    _report("criterion-07 Bessel integral identity", ok,
            f"worst|diff|={worst_gap:.2e} worst cert={worst_cert:.2e}")
    assert not failures


def test_criterion_08_theorem2_sweep():
    pairs = [(n, floor(0.8663 * n)) for n in range(4, 41)]
    skipped = [n for n, nu in pairs if not bounds.theorem2_admissible(n, nu)]
    reports = bounds.theorem2_bounds([(n, nu) for n, nu in pairs if n not in skipped])
    violations = [(report.name, report.n) for report in reports if not report.passed]
    ok = not violations
    _report("criterion-08 tail/middle/bulk bounds", ok,
            f"violations={violations} inadmissible={skipped}")
    assert not violations


def test_criterion_09_lemma1():
    by_name = {r.name: r for r in bounds.lemma1_empirical_reports(12)}
    coin_margin = -by_name.pop("lemma1_coin_step_margin").computed
    shift_margin = -by_name.pop("lemma1_shift_step_margin").computed
    failed = [name for name, r in by_name.items() if not r.passed]
    ok = not failed and coin_margin >= -1e-15 and shift_margin >= -1e-15
    _report("criterion-09 amplification and proof steps", ok,
            f"failed={failed} coin_margin={coin_margin:.1e} shift_margin={shift_margin:.1e}")
    assert not failed
    assert coin_margin >= -1e-15
    assert shift_margin >= -1e-15


def test_criterion_10a_appendix_constants():
    from scipy.integrate import quad

    first, _ = specfun.beta_half_integrals(1.0)
    quad_34, _ = quad(lambda y: (1.0 + y * y) ** -0.75, 0.0, np.inf)
    checks = {
        "beta 3/4 quadrature vs 2.62206": abs(quad_34 - 2.62206) / 2.62206 <= 1e-4,
        "beta 3/4 closed form": abs(first - quad_34) / quad_34 <= 1e-10,
    }
    ys = np.linspace(1e-8, 60.0, 400001)
    zs = 1.0 + 1j * ys
    im = (zs - np.sqrt(zs * zs - 1.0) + np.arccos(1.0 / zs)).imag
    y_star = float(ys[np.argmax(im)])
    checks["max Im g = 0.26066 +- 1e-4"] = abs(float(im.max()) - 0.26066) <= 1e-4
    checks["argmax y0 = 0.86883 +- 1e-4"] = abs(y_star - 0.86883) <= 1e-4
    checks["variation(pi/2) = 2.272365 +- 1e-5"] = (
        abs(specfun.variation_bound(pi / 2) - 2.272365) <= 1e-5
    )
    checks["equilibrium c = 0.133682 +- 1e-5"] = (
        abs(bounds.equilibrium_c() - 0.133682) <= 1e-5
    )
    checks["2^H(0.13368) = 1.48189 +- 1e-5"] = (
        abs(2.0 ** bounds.binary_entropy(0.13368) - 1.48189) <= 1e-5
    )
    failed = [name for name, ok in checks.items() if not ok]
    _report("criterion-10a appendix constants", not failed, f"failed={failed}")
    assert not failed


def test_criterion_10b_beta_ray_reference_decimal():
    # As stated: the 5/4 ray integral at a=1 reproduces 1.1984 * a^-1.5
    # within 1e-4 relative.  The integral equals B(1/2, 3/4)/2 =
    # 1.1981402347..., confirmed by independent quadrature below, so this
    # pinned decimal is unreachable; kept unweakened on purpose.
    from scipy.integrate import quad

    value, _ = quad(lambda y: (1.0 + y * y) ** -1.25, 0.0, np.inf)
    rel = abs(value - 1.1984) / 1.1984
    _report("criterion-10b beta 5/4 vs printed 1.1984", rel <= 1e-4,
            f"quadrature={value:.10f} rel dev={rel:.2e}")
    assert rel <= 1e-4, (
        f"quadrature gives {value:.10f} = B(1/2,3/4)/2; the printed decimal "
        f"1.1984 differs by {rel:.2e} relative (> 1e-4). See notes on the "
        f"constant: the true value is 1.19814..."
    )


def test_criterion_11_theorem1_desk_scale():
    rate_reports = bounds.theorem1_check(range(10, 51))[::2]
    c_emp = rate_reports[0].bound * bounds.BoundParams.rate**10
    violations = [report.n for report in rate_reports if not report.passed]
    ok = not violations
    _report("criterion-11 rate 1.4818^-n with C from n=10", ok,
            f"C={c_emp:.4f} violations={violations}")
    assert not violations


def test_criterion_12_cli_determinism(tmp_path):
    commands = [
        ["simulate", "--n", "10", "--t-max", "20"],
        ["figure1", "--n-min", "10", "--n-max", "13"],
        ["p0", "--n", "8", "--t-max", "8"],
        ["verify", "--suite", "theorem2", "--n", "14"],
        ["verify", "--suite", "lemma1", "--n", "10"],
        ["verify", "--suite", "theorem1", "--n-min", "10", "--n-max", "12"],
        ["verify", "--suite", "appendix"],
        ["cross-validate", "--n-min", "1", "--n-max", "5", "--t-max", "10"],
        ["equilibrium"],
    ]
    mismatched = []
    for i, argv in enumerate(commands):
        a = tmp_path / f"{i}a.csv"
        b = tmp_path / f"{i}b.csv"
        code_a = cli.main([*argv, "--out", str(a)])
        code_b = cli.main([*argv, "--out", str(b)])
        if code_a != code_b or a.read_bytes() != b.read_bytes():
            mismatched.append(argv[0])
    ok = not mismatched
    _report("criterion-12 byte-identical CLI output", ok, f"mismatched={mismatched}")
    assert not mismatched
