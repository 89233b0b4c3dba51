"""Bound evaluation and reporting."""

from math import comb, sqrt

import numpy as np
import pytest

from hypercube_walk import bounds, spectral


def test_theorem2_bound_formulas_at_n20():
    reports = bounds.theorem2_bounds(20, 17)
    by_name = {r.name: r for r in reports}
    assert by_name["theorem2_tail"].bound == pytest.approx(
        100.0 * sqrt(20) / 2.0**20, rel=1e-15
    )
    assert by_name["theorem2_tail"].bound == pytest.approx(4.264961199760036e-4, rel=1e-12)
    assert by_name["theorem2_middle"].bound == pytest.approx(
        4000.0 * sqrt(20) / 1.541**20, rel=1e-15
    )
    assert by_name["theorem2_bulk"].bound == pytest.approx(
        3.0 / 1.7326 ** (0.5 * 0.7326 * 20), rel=1e-15
    )
    assert by_name["theorem2_bulk"].bound == pytest.approx(0.053507841901488745, rel=1e-12)
    assert all(r.passed for r in reports)


def test_theorem2_rejects_inadmissible_inputs():
    with pytest.raises(ValueError):
        bounds.theorem2_bounds(20, 14)  # nu <= n alpha
    with pytest.raises(ValueError):
        bounds.theorem2_bounds(20, 20)  # nu >= n
    with pytest.raises(ValueError):
        bounds.theorem2_bounds(1, 1)
    with pytest.raises(ValueError):
        bounds.theorem2_bounds(20, 17, alpha=0.4)  # below pi/6


def _theorem2_per_segment(n, nu, tail_segments=40):
    """The three computed quantities of theorem2_bounds, one segment per call."""
    bulk = spectral.bulk_integral(n, nu)
    middle_val = middle_err = tail_val = tail_err = 0.0
    for k in range(1, n):
        seg = spectral.segment_integral(n, nu, k)
        middle_val += seg.value
        middle_err += seg.quad_error
    for k in range(n, n + tail_segments):
        seg = spectral.segment_integral(n, nu, k)
        tail_val += seg.value
        tail_err += seg.quad_error
    tail_cert = spectral.segment_tail_bound(n, nu, n + tail_segments)
    return {
        "theorem2_tail": abs(tail_val) + tail_err + tail_cert,
        "theorem2_middle": abs(middle_val) + middle_err,
        "theorem2_bulk": abs(bulk.value) + bulk.quad_error,
    }


def test_theorem2_batched_rows_equal_per_segment_reference():
    params = bounds.BoundParams()
    checked = 0
    for n in range(4, 41):
        nu = int(np.floor(params.t_coeff * n))
        if not (nu > 1 and n * params.alpha < nu < n):
            continue
        reports = bounds.theorem2_bounds(n, nu)
        reference = _theorem2_per_segment(n, nu)
        expected = [bounds.BoundReport(r.name, reference[r.name], r.bound, n=n, nu=nu)
                    for r in reports]
        assert [r.csv_row() for r in reports] == [r.csv_row() for r in expected]
        checked += 1
    assert checked == 37


def test_theorem2_default_alpha_is_the_proof_constant():
    assert bounds.theorem2_bounds(20, 17) == bounds.theorem2_bounds(
        20, 17, bounds.BoundParams().alpha)
    with pytest.raises(ValueError):
        bounds.theorem2_bounds(20, 17, tail_segments=-1)


def test_lemma1_amplification_values():
    assert bounds.lemma1_amplification(10, 0, 0.37) == 0.37
    assert bounds.lemma1_amplification(10, 1, 0.01) == pytest.approx(0.1, rel=1e-14)
    with pytest.raises(ValueError):
        bounds.lemma1_amplification(10, 5, 0.01)  # w >= n/2
    with pytest.raises(ValueError):
        bounds.lemma1_amplification(10, 1, 1.5)


def test_lemma1_amplification_monotonicity():
    factors = [bounds.lemma1_amplification(21, w, 1.0) for w in range(10)]
    assert all(a < b for a, b in zip(factors, factors[1:]))
    p_values = [bounds.lemma1_amplification(21, 3, p) for p in (0.1, 0.2, 0.5)]
    assert p_values[0] < p_values[1] < p_values[2]


def test_lemma1_empirical_reports_all_pass():
    reports = bounds.lemma1_empirical_reports(12, t_max=20, w_max=6)
    assert len(reports) == 21 * 6
    assert all(r.passed for r in reports)


def test_theorem1_check_rows():
    reports = bounds.theorem1_check(50, c_empirical=1.0)
    rate, envelope = reports
    assert rate.name == "theorem1_rate"
    assert rate.bound == pytest.approx(1.4818**-50.0, rel=1e-15)
    assert rate.passed
    assert envelope.name == "figure1_envelope"
    assert envelope.bound == pytest.approx(5.0 * 1.93**-50.0, rel=1e-15)
    assert envelope.passed


def test_theorem1_check_smoke_n2():
    reports = bounds.theorem1_check(2, c_empirical=1.0)
    for report in reports:
        assert np.isfinite(report.computed) and np.isfinite(report.bound)


def test_calibrated_constant_is_positive():
    c = bounds.calibrate_theorem1(n_ref=10)
    assert 0.0 < c < 10.0


def test_entropy_binomial_bound_values():
    assert 2.0 ** bounds.binary_entropy(0.13368) == pytest.approx(
        1.4818967262134122, rel=1e-13
    )
    assert bounds.entropy_binomial_bound(7, 0) == pytest.approx(8.0, rel=1e-15)
    value = bounds.entropy_binomial_bound(20, 5)
    assert 1.0 / comb(20, 5) <= value
    assert value == pytest.approx(21.0 * 2.0 ** (-20 * bounds.binary_entropy(0.25)), rel=1e-13)


def test_entropy_binomial_bound_holds_exactly_on_grid():
    for n in (2, 9, 33, 60):
        for w in range(n + 1):
            assert comb(n, w) * bounds.entropy_binomial_bound(n, w) >= 1.0 - 1e-12


def test_equilibrium_root():
    c = bounds.equilibrium_c()
    assert c == pytest.approx(0.13368194952353718, abs=1e-10)
    assert abs(bounds.equilibrium_balance_gap(c)) < 1e-8


def test_equilibrium_bracket_straddles():
    assert bounds.equilibrium_balance_gap(0.05) < 0.0 < bounds.equilibrium_balance_gap(0.3)


def test_stirling_chain_at_n50():
    report = bounds.stirling_bounds_check(50)
    assert report.passed and report.margin > 0.0
    inverse_rate = np.e**0.13368 * (1 - 0.13368) ** (1 - 0.13368)
    assert 1.0 / inverse_rate == pytest.approx(0.990681, abs=1e-6)


def test_stirling_chain_across_scales():
    for n in (2, 10, 170, 400):
        assert bounds.stirling_bounds_check(n).passed


def test_stirling_chain_degenerates_at_tiny_c():
    report = bounds.stirling_bounds_check(30, c=1e-6)
    # w = 0: the chain reduces to 1 <= 2 * 0.99068^-n
    assert report.computed == 0.0
    assert report.passed


def test_f_ray_envelope_check():
    report, checked, skipped = bounds.f_ray_envelope_check(12)
    assert report.passed
    assert checked > 0
    assert skipped > 0  # points below |z| = n^2 have no evaluation route


def test_f_ray_bound_magnitude_vanishes_on_axis():
    assert bounds.f_ray_bound_magnitude(8, 2, 0.0) == 0.0


def test_bound_report_csv_row():
    report = bounds.BoundReport("demo", 1.0, 2.0, n=7, nu=3)
    assert report.csv_row() == ["demo", "7", "3", "1.0", "2.0", "1.0", "true"]
    failing = bounds.BoundReport("demo", 3.0, 2.0)
    assert failing.csv_row()[-1] == "false"
    assert failing.csv_row()[1] == ""


def test_bound_params_validation():
    with pytest.raises(ValueError):
        bounds.BoundParams(alpha=0.5)
    with pytest.raises(ValueError):
        bounds.BoundParams(c=0.6)
