"""Bound evaluation and reporting."""

from functools import lru_cache
from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hypercube_walk import bounds, cli, spectral, walk


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


@lru_cache(maxsize=None)
def _theorem2_per_segment(n, nu):
    """I_k and its quadrature error for 1 <= k < n + 40, as two lists.

    One batched segment_integrals call per (n, nu); test_spectral proves
    every entry equal to the one-segment call.  Cached, because the two
    chain tests below read the same segments.
    """
    values, errs = spectral.segment_integrals(n, (nu,), range(1, n + 40))
    return values[0].tolist(), errs[0].tolist()


def _integrated(n, nu, lo, hi):
    """|sum of I_k| plus the sum of their quadrature errors over lo <= k < hi, in k order."""
    values, errs = _theorem2_per_segment(n, nu)
    return abs(sum(values[lo - 1:hi - 1])) + sum(errs[lo - 1:hi - 1])


def _theorem2_admissible():
    params = bounds.BoundParams()
    pairs = [(n, int(np.floor(params.t_coeff * n))) for n in range(4, 41)]
    pairs = [(n, nu) for n, nu in pairs if bounds.theorem2_admissible(n, nu)]
    assert len(pairs) == 37
    return pairs


def test_theorem2_batched_rows_equal_per_segment_reference():
    # the middle is segment 1 plus the chains from k = 2 and k = n, the tail
    # the chain from k = n and the bulk its integral, all bit for bit
    for n, nu in _theorem2_admissible():
        reports = bounds.theorem2_bounds(n, nu)
        first = spectral.segment_integral(n, nu, 1)
        bulk = spectral.bulk_integral(n, nu)
        chain_n = spectral.segment_tail_bound(n, nu, n)
        reference = {
            "theorem2_tail": chain_n,
            "theorem2_middle": abs(first.value) + first.quad_error
            + spectral.segment_tail_bound(n, nu, 2) + chain_n,
            "theorem2_bulk": abs(bulk.value) + bulk.quad_error,
        }
        expected = [bounds.BoundReport(r.name, reference[r.name], r.bound, n=n, nu=nu)
                    for r in reports]
        assert [r.csv_row() for r in reports] == [r.csv_row() for r in expected]


def test_theorem2_tail_chain_dominates_the_quadrature_tail():
    # the 40 integrated segments plus the chain beyond them stay within the
    # chain from k = n, where the float floor still resolves them
    worst = 0.0
    for n, nu in _theorem2_admissible():
        quadrature_tail = (_integrated(n, nu, n, n + 40)
                           + spectral.segment_tail_bound(n, nu, n + 40))
        chain = bounds.theorem2_bounds(n, nu)[0].computed
        assert quadrature_tail <= chain, (n, nu, quadrature_tail, chain)
        worst = max(worst, quadrature_tail / chain)
    assert worst > 0.5  # the chain is tight, not vacuous


def test_theorem2_chain_from_segment_two_dominates_the_integrated_sums():
    # the middle row replaces segments 2 <= k < n by B(2) + B(n); wherever
    # the quadrature resolves them (n <= 40) the chains must cover them
    worst = 0.0
    for n, nu in _theorem2_admissible():
        chain_2 = spectral.segment_tail_bound(n, nu, 2)
        chain_n = spectral.segment_tail_bound(n, nu, n)
        middle = _integrated(n, nu, 2, n)
        assert middle <= chain_2 + chain_n, (n, nu, middle, chain_2 + chain_n)
        beyond = _integrated(n, nu, 2, n + 40) + spectral.segment_tail_bound(n, nu, n + 40)
        assert beyond <= chain_2, (n, nu, beyond, chain_2)
        worst = max(worst, middle / (chain_2 + chain_n), beyond / chain_2)
    assert worst > 0.1  # measured 0.21: the chain from k = 2 is not vacuous


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
    reports = bounds.lemma1_empirical_reports(12)
    assert len(reports) == 21 * 6 + 2
    assert all(r.passed for r in reports)


def _lemma1_reference(n):
    """(name, computed, bound) of every Lemma 1 row, one (t, w) at a time on stepped states."""
    states = list(oracles.stepwise_walk(n, 26))

    def level(t, w):
        alpha_right, alpha_left = states[t]
        return float(alpha_right[w] ** 2 + alpha_left[w] ** 2)

    p0 = [level(t, 0) for t in range(27)]
    rows = []
    for t in range(21):
        for w in range(min(6, (n + 1) // 2)):
            window = p0[max(0, t - w): t + w + 1]
            rows.append((f"lemma1_t{t}_w{w}", level(t, w),
                         bounds.lemma1_amplification(n, w, max(window))))
    if n < 3:
        return rows
    worst_coin = worst_shift = np.inf
    for t in range(21):
        ar, al = states[t]
        ar_next = states[t + 1][0]
        for w in range(1, (n + 1) // 2):
            lhs = max(al[w] ** 2, ar_next[w - 1] ** 2)
            worst_coin = min(worst_coin, lhs - w / (n - w) * ar[w] ** 2)
            if t >= 1:
                worst_shift = min(worst_shift, level(t - 1, w - 1) - al[w] ** 2)
    return rows + [("lemma1_coin_step_margin", -float(worst_coin), 0.0),
                   ("lemma1_shift_step_margin", -float(worst_shift), 0.0)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 20])
def test_lemma1_rows_equal_the_per_state_reference(n):
    reports = bounds.lemma1_empirical_reports(n)
    assert [(r.name, r.computed, r.bound) for r in reports] == _lemma1_reference(n)
    assert all(r.n == n and r.nu is None for r in reports)
    if n < 3:  # no level 0 < w < n/2: both margins are minima over nothing
        assert bounds.lemma1_chain_margins(walk.trajectory(n, 21)) == (np.inf, np.inf)


def test_theorem1_check_rows():
    reference_c = bounds.theorem1_check([10])[0].bound * 1.4818**10
    reports = bounds.theorem1_check([10, 50])
    assert [(r.name, r.n) for r in reports] == [
        ("theorem1_rate", 10), ("figure1_envelope", 10),
        ("theorem1_rate", 50), ("figure1_envelope", 50),
    ]
    rate, envelope = reports[2:]
    assert rate.nu == int(0.8663 * 50)
    assert rate.bound == pytest.approx(reference_c * 1.4818**-50.0, rel=1e-15)
    assert rate.passed
    assert envelope.bound == pytest.approx(5.0 * 1.93**-50.0, rel=1e-15)
    assert envelope.passed


def test_theorem1_check_smoke_n2():
    reports = bounds.theorem1_check([2])
    for report in reports:
        assert np.isfinite(report.computed) and np.isfinite(report.bound)


def test_calibrated_constant_is_positive():
    # C is the calibration row's own value times 1.4818^n, plus 1e-9 headroom
    rate = bounds.theorem1_check([10])[0]
    c = rate.bound * 1.4818**10
    assert 0.0 < c < 10.0
    assert rate.passed and rate.margin <= 2e-9 * rate.computed


def _theorem1_reference(dims):
    """theorem1_check as one walk per dimension, with C from walk.scan at dims[0]."""
    rate = bounds.BoundParams.rate
    t_ref = int(0.8663 * dims[0])
    c = walk.scan([dims[0]], t_ref).max_vertex_prob[t_ref, 0] * rate**dims[0] * (1.0 + 1e-9)
    rows = []
    for n in dims:
        t = int(0.8663 * n)
        column = walk.scan([n], t + 5).max_vertex_prob[:, 0]
        t_best, p_best = walk.t_min(column)
        rows += [bounds.BoundReport("theorem1_rate", float(column[t]), c * rate**-n, n=n, nu=t),
                 bounds.BoundReport("figure1_envelope", p_best, 5.0 * 1.93**-n, n=n, nu=t_best)]
    return rows


_consecutive = st.tuples(st.integers(2, 60), st.integers(0, 58)).map(
    lambda pair: list(range(pair[0], min(60, pair[0] + pair[1]) + 1)))


@settings(deadline=None, max_examples=40)
@given(st.one_of(_consecutive, st.lists(st.integers(2, 60), min_size=1, max_size=8)))
@example([10, 25, 40, 50])
@example(list(range(10, 61)))
@example([60, 2])
def test_theorem1_check_rows_equal_per_dimension_walks(dims):
    assert bounds.theorem1_check(dims) == _theorem1_reference(dims)


def test_theorem1_check_refuses_small_n_before_stepping(monkeypatch):
    calls = []
    monkeypatch.setattr(walk, "scan", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"^dimension must be >= 2, got 1$"):
        bounds.theorem1_check([5, 1, 3])
    assert calls == []


def test_theorem1_check_refuses_no_dimension_before_stepping(monkeypatch):
    calls = []
    monkeypatch.setattr(walk, "scan", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"^no dimension to check$"):
        bounds.theorem1_check([])
    assert calls == []


def test_binary_entropy_rate_at_the_equilibrium_ratio():
    assert 2.0 ** bounds.binary_entropy(0.13368) == pytest.approx(
        1.4818967262134122, rel=1e-13
    )


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
    # k and y broadcast against each other, and scalars give a float
    value = bounds.f_ray_bound_magnitude(8, 2, 5.0)
    assert type(value) is float and value > 0.0
    grid = bounds.f_ray_bound_magnitude(8, np.array([[2], [3]]), np.array([0.0, 5.0]))
    assert grid.shape == (2, 2)
    assert grid[0, 0] == grid[1, 0] == 0.0
    assert grid[0, 1] == pytest.approx(value, rel=1e-15)


def test_f_ray_envelope_check_equals_a_scalar_loop():
    # numpy's array log, log1p and power may each round a last bit apart from
    # math's scalar ones; exp turns an ulp of a log term (|log| < 40 for
    # n <= 30) into about 40 u relative, so the worst ratio gets 64 u and the
    # counts must match exactly
    for n in range(2, 31):
        report, checked, skipped = bounds.f_ray_envelope_check(n)
        worst, ref_checked, ref_skipped = oracles.f_ray_envelope_loop(n, bounds._RAY_RATE)
        assert (checked, skipped) == (ref_checked, ref_skipped)
        assert report.computed == pytest.approx(worst, rel=64 * np.finfo(float).eps)


def test_bound_report_csv_row(capsys):
    # the cells are raw; the CLI's one formatter turns them into the CSV line
    report = bounds.BoundReport("demo", 1, np.float64(2.0), n=7, nu=3)
    failing = bounds.BoundReport("demo", 3.0, 2.0)
    assert report.csv_row() == ["demo", 7, 3, 1.0, 2.0, 1.0, True]
    cli._emit(bounds.CSV_HEADER, [report.csv_row(), failing.csv_row()], None)
    assert capsys.readouterr().out == (
        "name,n,nu,computed,bound,margin,pass\n"
        "demo,7,3,1.0,2.0,1.0,true\n"
        "demo,,,3.0,2.0,-1.0,false\n"
    )


def test_bound_params_lie_in_the_proofs_ranges():
    assert pi / 6 < bounds.BoundParams.alpha < 1
    assert 0 < bounds.BoundParams.c < 0.5


def test_theorem1_envelope_row_uses_the_figure1_envelope():
    dims = [2, 10, 33]
    for n, envelope in zip(dims, bounds.theorem1_check(dims)[1::2]):
        assert envelope.name == "figure1_envelope"
        assert envelope.bound == bounds.figure1_envelope(n) == 5.0 * 1.93**-n
