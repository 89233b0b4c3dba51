"""The two analytic routes to P[0,t] and their error certificates."""

import contextlib
import io
from collections import Counter
from math import comb, pi, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hypercube_walk import bounds, cli, specfun, spectral, walk
from hypercube_walk._quadrature import gauss_legendre, panel_quad_with_error
from hypercube_walk.specfun import bessel_J, bessel_table


def _integrand(n, nu):
    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        mask = x > 0
        out[mask] = bessel_J(nu, x[mask]) * np.cos(x[mask] / n) ** n / x[mask]
        return out

    return f


# ---------------------------------------------------------------------------
# Chebyshev spectral sum
# ---------------------------------------------------------------------------

def test_chebyshev_amplitude_at_t0():
    for n in (1, 2, 13, 50):
        assert spectral.p0_amplitude_chebyshev(n, 0) == pytest.approx(1.0, abs=1e-12)


def test_chebyshev_amplitude_n2_t2_vanishes():
    assert spectral.p0_amplitude_chebyshev(2, 2) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 5, 10, 30, 50])
def test_chebyshev_amplitude_squares_to_simulated_p0(n):
    amps = walk.trajectory(n, 30)
    for t, p0 in enumerate(amps[:, 0, 0] ** 2 + amps[:, 1, 0] ** 2):
        amp = spectral.p0_amplitude_chebyshev(n, t)
        assert amp * amp == pytest.approx(p0, abs=1e-9)


def test_chebyshev_amplitude_depth_at_n50():
    amp = spectral.p0_amplitude_chebyshev(50, 42)
    assert 1e-15 <= amp * amp <= 1e-13


def test_chebyshev_amplitude_signed_value():
    # at even t the whole level-0 probability sits in one real amplitude,
    # which the spectral sum reproduces including its sign
    amps = walk.trajectory(10, 12)
    for t in (2, 4, 6, 8, 10, 12):
        assert spectral.p0_amplitude_chebyshev(10, t) == pytest.approx(amps[t, 0, 0], abs=1e-12)


def test_chebyshev_amplitude_summation_order_invariance():
    # recompute the heavily cancelling sum in three different orders
    for n, t in ((30, 24), (50, 42), (60, 50)):
        reference = spectral.p0_amplitude_chebyshev(n, t)
        terms = [
            comb(n, m) / 2**n * np.cos(t * np.arccos(np.clip(1 - 2 * m / n, -1, 1)))
            for m in range(n + 1)
        ]
        ascending = sum(terms)
        descending = sum(reversed(terms))
        balanced = sum(terms[m] + terms[n - m] for m in range((n + 1) // 2))
        if n % 2 == 0:
            balanced += terms[n // 2]
        for other in (ascending, descending, balanced):
            assert reference**2 == pytest.approx(other**2, abs=1e-12)


def test_chebyshev_amplitude_is_exactly_zero_at_odd_t():
    for n in (1, 2, 7, 10, 30, 49, 60):
        for t in (1, 3, 5, 17, 29):
            assert spectral.p0_amplitude_chebyshev(n, t) == 0.0


def test_chebyshev_amplitude_validation():
    with pytest.raises(ValueError):
        spectral.p0_amplitude_chebyshev(0, 1)
    with pytest.raises(ValueError):
        spectral.p0_amplitude_chebyshev(4, -1)


# ---------------------------------------------------------------------------
# Segment and bulk integrals
# ---------------------------------------------------------------------------

def test_segment_endpoints_kill_the_integrand():
    f = _integrand(6, 5)
    for k in (1, 2, 9):
        a = 6 * (k - 0.5) * pi
        b = 6 * (k + 0.5) * pi
        assert abs(f(np.array([a]))[0]) < 1e-25
        assert abs(f(np.array([b]))[0]) < 1e-25


def test_segment_integral_against_oversampled_simpson():
    seg = spectral.segment_integral(4, 4, 1)
    a, b = 4 * 0.5 * pi, 4 * 1.5 * pi
    ref = oracles.composite_simpson(_integrand(4, 4), a, b, 40000)
    assert seg.value == pytest.approx(ref, abs=1e-10)
    assert seg.quad_error <= max(1e-14, 1e-6 * abs(seg.value))


def test_segment_integral_tail_envelope_example():
    seg = spectral.segment_integral(20, 17, 20)
    assert abs(seg.value) <= 30.0 * sqrt(20) * 2.0**-20 * 20.0**-1.5


def test_segment_magnitudes_follow_tail_envelope():
    for n in (10, 16):
        nu = int(0.8663 * n)
        for k in range(n, n + 8):
            seg = spectral.segment_integral(n, nu, k)
            assert abs(seg.value) <= 30.0 * sqrt(n) * 2.0**-n * k**-1.5


def test_segment_integral_validation():
    with pytest.raises(ValueError):
        spectral.segment_integral(1, 1, 1)
    with pytest.raises(ValueError):
        spectral.segment_integral(4, 0, 1)
    with pytest.raises(ValueError):
        spectral.segment_integral(4, 4, 0)


@st.composite
def _segment_batches(draw):
    n = draw(st.integers(2, 60))
    top = int(np.ceil(n * pi / 2)) - 1  # orders must stay below n pi/2
    orders = draw(st.lists(st.integers(1, top), min_size=1, max_size=3))
    k_lo = draw(st.integers(1, n + 40))
    return n, orders, range(k_lo, k_lo + draw(st.integers(1, 10)))


@settings(max_examples=40, deadline=None)
@given(_segment_batches())
@example((40, [34], range(1, 11)))  # 40 and 41 panels interleave here
@example((11, [10, 2, 10], range(1, 9)))  # 11 and 12 panels
@example((4, [4, 1], range(5, 12)))  # 4 and 5 panels
def test_batched_segments_equal_one_segment_calls(batch):
    n, orders, ks = batch
    values, errs = spectral.segment_integrals(n, orders, ks)
    assert values.shape == errs.shape == (len(orders), len(ks))
    for j, k in enumerate(ks):
        for i, nu in enumerate(orders):
            assert spectral.segment_integral(n, nu, k) == (k, values[i, j], errs[i, j])
    for i, nu in enumerate(orders):
        one_values, one_errs = spectral.segment_integrals(n, [nu], ks)
        assert np.array_equal(one_values[0], values[i])
        assert np.array_equal(one_errs[0], errs[i])


def test_segment_panel_count_is_pinned():
    # max(4, ceil((b - a)/pi)) with b - a = n pi only up to rounding: the
    # count is n or n + 1 depending on k.  Pinned on purpose, because a
    # different count moves every amplitude at quadrature-noise level.
    def counts(n, ks):
        return [len(spectral._segment_edges(n, k)) - 1 for k in ks]

    assert Counter(counts(40, range(1, 80))) == {41: 52, 40: 27}
    assert counts(40, range(1, 6)) == [40, 41, 40, 41, 41]
    assert Counter(counts(11, range(1, 51))) == {11: 44, 12: 6}
    assert set(counts(2, range(1, 42))) == {4}


def test_segment_integrals_validation():
    for values in spectral.segment_integrals(10, [8, 2], range(3, 3)):
        assert values.shape == (2, 0)
    with pytest.raises(ValueError):
        spectral.segment_integrals(10, [8], range(1, 9, 2))
    with pytest.raises(ValueError):
        spectral.segment_integrals(10, [8], range(0, 4))
    with pytest.raises(ValueError):
        spectral.segment_integrals(10, [8, 16], range(1, 4))  # nu >= n pi/2
    with pytest.raises(ValueError):
        spectral.segment_integrals(10, [0], range(1, 4))
    with pytest.raises(ValueError):
        spectral.segment_integrals(1, [1], range(1, 4))


_BAD_BESSEL_ORDERS = {
    "bessel_J-fraction": lambda: specfun.bessel_J(2.5, 3.0),
    "bessel_J-past-max": lambda: specfun.bessel_J(251, 300.0),
    "bessel_J-nan": lambda: specfun.bessel_J(float("nan"), 3.0),
    "bessel_table-fraction": lambda: specfun.bessel_table([2.5], np.array([3.0]), np.ones(1)),
    "bessel_table-empty": lambda: specfun.bessel_table([], np.array([3.0]), np.ones(1)),
    "bessel_table-past-max": lambda: specfun.bessel_table([300], np.array([400.0]), np.ones(1)),
    "bessel_sweep-fraction": lambda: specfun.bessel_sweep([1, 2.5], np.array([3.0, 3.0])),
    "bessel_sweep-negative": lambda: specfun.bessel_sweep([-1], np.array([3.0])),
    "bessel_sweep-past-max": lambda: specfun.bessel_sweep([300], np.array([400.0])),
    "bulk_integrals-fraction": lambda: spectral.bulk_integrals(10, [2, 2.5]),
    "bulk_integrals-past-max": lambda: spectral.bulk_integrals(200, [10, 300]),
    "segment_integrals-fraction": lambda: spectral.segment_integrals(10, [2.5], range(1, 3)),
    "segment_integrals-past-max": lambda: spectral.segment_integrals(200, [300], range(1, 3)),
    "p0_amplitudes_bessel-past-max": lambda: spectral.p0_amplitudes_bessel(200, [10, 300], 200),
}


@pytest.mark.parametrize("call", _BAD_BESSEL_ORDERS.values(), ids=_BAD_BESSEL_ORDERS)
def test_every_bessel_entry_point_refuses_a_bad_order_before_any_quadrature(monkeypatch, call):
    def never(*args, **kwargs):
        raise AssertionError("no quadrature may run before a bad order is refused")

    monkeypatch.setattr(spectral, "panel_quad_with_error", never)
    with pytest.raises(ValueError, match=r"^Bessel orders must be integers in \[0, 250\], got "):
        call()


def test_bessel_route_refuses_a_fractional_step():
    with pytest.raises(ValueError, match=r"even t in \[2, n pi/2\), got t=2.5, n=10$"):
        spectral.p0_amplitudes_bessel(10, [2, 2.5])


def test_gauss_legendre_rule_is_shared_and_read_only():
    nodes, weights = gauss_legendre(16)
    assert gauss_legendre(16)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert np.array_equal(nodes, np.polynomial.legendre.leggauss(16)[0])


def test_bessel_steps_is_the_routes_domain():
    # 10 pi/2 = 15.7: the even steps from 2 through 14
    assert spectral.bessel_steps(10, range(20)) == [2, 4, 6, 8, 10, 12, 14]
    assert spectral.bessel_steps(1, range(20)) == []
    assert spectral.bessel_steps(2, [2, 3, 4]) == [2]
    for t in (0, 3, 16, 2.5):
        with pytest.raises(ValueError, match=rf"^the Bessel route requires even t in "
                                             rf"\[2, n pi/2\), got t={t}, n=10$"):
            spectral.p0_amplitudes_bessel(10, [2, t])


def test_checked_k_max_default_and_refusals():
    assert spectral.checked_k_max(10, None) == 40
    assert spectral.checked_k_max(60, None) == 60
    assert spectral.checked_k_max(10, np.int64(12)) == 12
    with pytest.raises(ValueError, match=r"^k_max must be an integer of at least n=10, got 9$"):
        spectral.checked_k_max(10, 9)
    with pytest.raises(ValueError, match=r"^k_max=6367 needs Bessel arguments up to "
                                         r"n \(k_max - 1/2\) pi, past 200000 at n=10$"):
        spectral.checked_k_max(10, 6367)
    # the default is held to the same reach: max(n, 40) at n = 400 ends past 2e5
    with pytest.raises(ValueError, match=r"^k_max=400 needs Bessel arguments"):
        spectral.checked_k_max(400, None)


def test_p0_amplitudes_refuse_a_fractional_k_max_before_any_integral(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("no integral may run before k_max is refused")

    monkeypatch.setattr(spectral, "bulk_integrals", never)
    monkeypatch.setattr(spectral, "segment_integrals", never)
    with pytest.raises(ValueError, match=r"^k_max must be an integer of at least n=10, got 10.5$"):
        spectral.p0_amplitudes_bessel(10, [2], k_max=10.5)


def test_p0_amplitudes_refuse_an_unreachable_k_max_before_any_integral(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("no integral may run before k_max is refused")

    monkeypatch.setattr(spectral, "bulk_integrals", never)
    monkeypatch.setattr(spectral, "segment_integrals", never)
    # the last segment, k_max - 1, ends at n (k_max - 1/2) pi: 199,977 for
    # k_max = 6366 at n = 10, and 200,009 for 6367, past MAX_ARGUMENT = 2e5
    assert spectral.checked_k_max(10, 6366) == 6366
    with pytest.raises(ValueError):
        spectral.checked_k_max(10, 6367)
    with pytest.raises(ValueError, match=r"^k_max=6367 needs Bessel arguments"):
        spectral.p0_amplitudes_bessel(10, [2, 4], 6367)


def test_bulk_integral_against_oversampled_simpson():
    bulk = spectral.bulk_integral(4, 2)
    ref = oracles.composite_simpson(_integrand(4, 2), 0.0, 4 * pi / 2, 40000)
    assert bulk.value == pytest.approx(ref, abs=1e-10)
    assert bulk.k == 0


def test_bulk_integral_bound_example():
    bulk = spectral.bulk_integral(20, 17)
    alpha = 0.7326
    assert abs(bulk.value) < 3.0 / (1.0 + alpha) ** (0.5 * alpha * 20)


def test_bulk_integrand_vanishes_at_origin():
    f = _integrand(8, 4)
    tiny = f(np.array([1e-8, 1e-4]))
    assert np.all(np.abs(tiny) < 1e-12)


def test_bulk_integral_validation():
    with pytest.raises(ValueError):
        spectral.bulk_integral(1, 1)
    with pytest.raises(ValueError):
        spectral.bulk_integral(4, 7)  # nu >= n pi/2
    with pytest.raises(ValueError):
        spectral.bulk_integrals(4, [2, 7])
    for values in spectral.bulk_integrals(4, []):
        assert values.shape == (0,)


@pytest.mark.parametrize("n", [2, 5, 12, 30, 60])
@pytest.mark.parametrize("budget", [None, 1], ids=["default-budget", "budget-1"])
def test_bulk_integrals_equal_one_order_calls(monkeypatch, n, budget):
    if budget is not None:
        monkeypatch.setattr(spectral, "_TABLE_BUDGET", budget)
    orders = list(range(1, int(np.ceil(n * pi / 2))))
    values, errs = spectral.bulk_integrals(n, orders)
    assert values.shape == errs.shape == (len(orders),)
    assert [spectral.bulk_integral(n, nu) for nu in orders] == [
        (0, value, err) for value, err in zip(values, errs)]


# ---------------------------------------------------------------------------
# Bessel-route amplitude
# ---------------------------------------------------------------------------

def test_bessel_amplitude_matches_chebyshev_within_budget():
    res = spectral.p0_amplitude_bessel(10, 8, 40)
    reference = abs(spectral.p0_amplitude_chebyshev(10, 8))
    assert abs(res.amplitude - reference) <= res.tail_bound + res.quad_error + 1e-9


def test_bessel_amplitude_n2_t2_vanishes_within_budget():
    res = spectral.p0_amplitude_bessel(2, 2, 40)
    assert res.amplitude <= res.tail_bound + res.quad_error + 1e-9


def test_bessel_amplitude_rejects_odd_or_tiny_t_and_small_k_max():
    with pytest.raises(ValueError):
        spectral.p0_amplitude_bessel(10, 7)
    with pytest.raises(ValueError):
        spectral.p0_amplitude_bessel(10, 0)
    with pytest.raises(ValueError):
        spectral.p0_amplitude_bessel(10, 8, 9)


def test_tail_bound_at_k_max_n_below_closed_form_tail():
    for n, t in ((6, 4), (10, 8), (20, 16)):
        res = spectral.p0_amplitude_bessel(n, t, max(n, 40))
        closed_form_tail = 100.0 * sqrt(n) / 2.0**n
        assert spectral.segment_tail_bound(n, t, n) <= closed_form_tail
        assert res.tail_bound <= t * closed_form_tail


def test_tail_bound_decreases_with_truncation_point():
    bounds_seq = [spectral.segment_tail_bound(12, 10, k) for k in (12, 24, 48, 96)]
    assert all(a > b for a, b in zip(bounds_seq, bounds_seq[1:]))


def test_chain_from_segment_two_meets_its_hypotheses_for_every_admissible_order():
    # segment_tail_bound's docstring: at k_min = 2 the rays start past the
    # turning point and 2^-n e^q decays, for every admissible (n, nu)
    pairs = [(n, nu) for n in range(4, 201) for nu in range(2, n)
             if bounds.theorem2_admissible(n, nu)]
    assert len(pairs) > 5000
    for n, nu in pairs:
        start = 1.5 * n * pi  # n a_2
        q = (nu * nu - 0.25) / start
        assert nu < start and q < n / (1.5 * pi)
        assert 2.0**-n * np.exp(q) < np.exp(-0.48 * n)
        assert 0.0 < spectral.segment_tail_bound(n, nu, 2) < np.inf


def test_three_way_agreement_sample():
    for n, t in ((4, 4), (9, 6), (15, 12), (24, 20)):
        sim = walk.scan([n], t).p0[t, 0]
        amp_c = spectral.p0_amplitude_chebyshev(n, t)
        res = spectral.p0_amplitude_bessel(n, t)
        assert sim == pytest.approx(amp_c * amp_c, abs=1e-9)
        assert abs(res.amplitude - abs(amp_c)) <= res.tail_bound + res.quad_error + 1e-9


@pytest.mark.parametrize("n", [10, 24])
def test_batched_bessel_amplitudes_match_one_order_calls(n):
    ts = list(range(2, int(np.ceil(n * pi / 2)), 2))
    batch = spectral.p0_amplitudes_bessel(n, ts)
    assert len(batch) == len(ts)
    for t, row in zip(ts, batch):
        single = spectral.p0_amplitude_bessel(n, t)
        assert row.amplitude == pytest.approx(single.amplitude, rel=1e-14, abs=0.0)
        # a row must not depend on which other orders share its batch
        assert row.tail_bound == single.tail_bound
        assert row.quad_error == single.quad_error
    assert spectral.p0_amplitudes_bessel(n, ts[::-1]) == batch[::-1]


def test_batched_bessel_amplitudes_validation():
    assert spectral.p0_amplitudes_bessel(10, []) == []
    with pytest.raises(ValueError):
        spectral.p0_amplitudes_bessel(10, [2, 7])
    with pytest.raises(ValueError):
        spectral.p0_amplitudes_bessel(10, [2, 16])  # t >= n pi/2
    with pytest.raises(ValueError):
        spectral.p0_amplitudes_bessel(10, [2, 4], 9)


def _p0_per_k_reference(n, ts, k_max):
    """p0_amplitudes_bessel as a per-order bulk and one Bessel table per segment.

    This is the loop the chunked segment driver and the bulk sweep replace:
    the bulk of each order on its own panels, then segment by segment one
    weighted table for all orders, summed in segment order.
    """
    def weight(x):
        return np.cos(x / n) ** n / x

    totals, errs = [], []
    for t in ts:
        b = n * pi / 2
        smooth = np.linspace(0.0, float(t), max(2, int(np.ceil(t / 3.0))) + 1)
        oscillatory = np.linspace(float(t), b, max(2, int(np.ceil((b - t) / pi))) + 1)
        value, err = panel_quad_with_error(lambda x: bessel_J(t, x) * weight(x),
                                           np.concatenate([smooth, oscillatory[1:]]))
        totals.append(value)
        errs.append(err)
    for k in range(1, k_max):
        edges = spectral._segment_edges(n, k)
        values, seg_errs = panel_quad_with_error(lambda x: bessel_table(ts, x, weight(x)),
                                                 edges, counts=[len(edges) - 1])
        for i in range(len(ts)):
            totals[i] += float(values[i, 0])
            errs[i] += float(seg_errs[i, 0])
    return [spectral.BesselAmplitude(float(t * abs(total)),
                                     float(t * spectral.segment_tail_bound(n, t, k_max)),
                                     float(t * err))
            for t, total, err in zip(ts, totals, errs)]


@pytest.mark.parametrize("n, k_max", [(2, None), (5, None), (12, None), (30, None), (60, None),
                                      (12, 31), (30, 47)])
def test_bessel_amplitudes_equal_per_segment_reference(n, k_max):
    ts = list(range(2, int(np.ceil(n * pi / 2)), 2))
    rows = spectral.p0_amplitudes_bessel(n, ts, k_max)
    assert rows == _p0_per_k_reference(n, ts, spectral.checked_k_max(n, k_max))


@pytest.mark.parametrize("n, budget", [(5, 1), (30, 1), (60, 1), (5, 10**9), (30, 10**9)])
def test_bessel_amplitudes_do_not_depend_on_the_budget(monkeypatch, n, budget):
    # one chunk of every segment at n = 60 would hold about 30 MB more, so
    # n = 60 runs at budget 1 only; the reference rows above pin the default
    ts = list(range(2, int(np.ceil(n * pi / 2)), 2))
    rows = spectral.p0_amplitudes_bessel(n, ts)
    monkeypatch.setattr(spectral, "_TABLE_BUDGET", budget)
    assert spectral.p0_amplitudes_bessel(n, ts) == rows


def test_bessel_work_stays_within_the_table_budget(monkeypatch):
    tables, sweeps = [], []

    def record(sizes, original, size_of):
        def wrapper(*args):
            sizes.append(size_of(*args))
            return original(*args)
        return wrapper

    monkeypatch.setattr(spectral, "bessel_table", record(
        tables, spectral.bessel_table, lambda orders, x, *rest: len(orders) * x.size))
    monkeypatch.setattr(spectral, "bessel_sweep", record(
        sweeps, spectral.bessel_sweep, lambda orders, x: spectral._SWEEP_COST * x.size))
    argv = ["p0", "--n", "60", "--t-max", "92", "--method", "bessel", "--parity", "even"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    bounds.theorem2_bounds(40, 34)
    assert tables and sweeps
    # at most 0.56 MB of float64 per table: two segments per chunk at n = 60
    # (134 k entries) raised the peak RSS of p0 by 0.5-0.8 MB, and a single
    # chunk of all 59 segments (4 M entries) by about 30 MB
    assert max(tables + sweeps) <= spectral._TABLE_BUDGET <= 70_000
