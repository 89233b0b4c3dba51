"""The two analytic routes to P[0,t] and their error certificates."""

import contextlib
import io
from fractions import Fraction
from math import comb, pi, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hypercube_walk import _quadrature, bounds, cli, specfun, spectral, walk
from hypercube_walk._quadrature import (NODES, REFINED_NODES, gauss_legendre, panel_quad,
                                        panel_quad_with_error)
from hypercube_walk.specfun import bessel_J


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


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=90))
@example(60, 0)
@example(3, 7)
def test_chebyshev_amplitude_within_the_cosine_rounding_budget(n, half_t):
    # T_t(z) = cos(t arccos z) takes the angle t arccos z <= pi t to within
    # about one rounding of its size, pi t u, and adds one of its own, u; the
    # correctly rounded weights C(n,m)/2^n sum to 1 and fsum rounds once,
    # another u.  So the amplitude is within (pi t + 2) u of the exact one
    t = 2 * half_t
    exact = oracles.exact_return_amplitude(n, t)
    error = abs(Fraction(spectral.p0_amplitude_chebyshev(n, t)) - exact)
    assert error <= (pi * t + 2) * 2.0 ** -53, (n, t, float(error))


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


def test_segment_panel_count_is_pinned():
    # max(4, n) panels for every k, each of width pi for n >= 4.  Pinned on
    # purpose, because a different count moves every amplitude at
    # quadrature-noise level.
    for n in (2, 3, 4, 11, 40, 200):
        assert {len(spectral._segment_edges(n, k)) - 1 for k in range(1, 80)} == {max(4, n)}


def _rule_nodes(edges):
    # the refined rule's nodes on edges, as panel_quad passes them
    return _quadrature._grid(edges.tobytes(), REFINED_NODES)[0].ravel()


@pytest.mark.parametrize("n", [2, 3, 7, 40, 61])
def test_weight_keeps_the_power_form_on_the_bulk(n):
    # cos >= 0 there, so |cos|^n is cos^n to the bit: the p0 route's bulks
    # keep their values
    x = _rule_nodes(spectral._bulk_edges(n))
    assert (np.cos(x / n) >= 0).all()
    assert np.array_equal(spectral._weight(n, x), np.cos(x / n) ** n / x)


@pytest.mark.parametrize("n", [2, 3, 7, 40, 61])
def test_weight_on_segment_one_is_signed_and_within_two_ulp(n):
    import mpmath as mp

    x = _rule_nodes(spectral._segment_edges(n, 1))
    c = np.cos(x / n)
    assert (c < 0).all()
    w = spectral._weight(n, x)
    assert (np.signbit(w) == bool(n % 2)).all()
    # the reference takes the same float cosine, so it checks the power, the
    # sign and the division
    with mp.workdps(40):
        ref = np.array([float(mp.mpf(ci) ** n / mp.mpf(xi))
                        for ci, xi in zip(c.tolist(), x.tolist())])
    ulps = np.abs(w - ref) / np.spacing(np.abs(ref))
    assert ulps.max() <= 2.0


_BAD_BESSEL_ORDERS = {
    "bessel_J-fraction": lambda: specfun.bessel_J(2.5, 3.0),
    "bessel_J-past-max": lambda: specfun.bessel_J(251, 300.0),
    "bessel_J-nan": lambda: specfun.bessel_J(float("nan"), 3.0),
    "bessel_table-fraction": lambda: specfun.bessel_table(np.array([3.0, 3.0]),
                                                          [(1, [1], 1), (1, [2.5], 3)]),
    "bessel_table-negative": lambda: specfun.bessel_table(np.array([3.0]), [(1, [-1], 1)]),
    "bessel_table-past-max": lambda: specfun.bessel_table(np.array([400.0]), [(1, [300], 250)]),
    "bulk_integrals-fraction": lambda: spectral.bulk_integrals(10, [2, 2.5]),
    "bulk_integrals-past-max": lambda: spectral.bulk_integrals(200, [10, 300]),
    "segment_integral-fraction": lambda: spectral.segment_integral(10, 2.5, 1),
    "segment_integral-past-max": lambda: spectral.segment_integral(200, 300, 1),
    "axis_integrals-fraction": lambda: spectral.axis_integrals([(10, 2, 0), (12, 2.5, 1)]),
    "axis_integrals-past-max": lambda: spectral.axis_integrals([(10, 2, 1), (200, 300, 0)]),
    "ray_integrals-fraction": lambda: spectral.ray_integrals(10, [2, 2.5]),
    "ray_integrals-negative": lambda: spectral.ray_integrals(10, [2, -1]),
    "ray_integrals-nan": lambda: spectral.ray_integrals(10, [float("nan")]),
    "ray_integrals-past-max": lambda: spectral.ray_integrals(200, [10, 300]),
    "p0_amplitudes_bessel-past-max": lambda: spectral.p0_amplitudes_bessel(200, [10, 300]),
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


def _nodes_seen(edges):
    # (16-node integral of sin over edges, the nodes panel_quad passed to sin)
    seen = []
    value = panel_quad(lambda x: seen.append(x) or np.sin(x), edges, 16)
    return value, seen[0]


def test_panel_grid_is_built_once_per_content_and_read_only():
    edges = np.linspace(0.0, 3.0, 7)
    value, nodes = _nodes_seen(edges)
    again, same = _nodes_seen(edges.copy())
    grid = _quadrature._grid(edges.tobytes(), 16)
    assert again == value and nodes.base is same.base is grid[0]
    assert not nodes.flags.writeable
    assert not grid[0].flags.writeable and not grid[1].flags.writeable
    # the list form builds its grid per call, with the same arithmetic
    assert panel_quad(np.sin, [edges], 16).tolist() == [value]


def test_panel_grid_follows_edges_changed_in_place():
    edges = np.linspace(0.0, 3.0, 7)
    before, old_nodes = _nodes_seen(edges)
    edges[-1] = 4.0
    after, new_nodes = _nodes_seen(edges)
    # the list form builds its grid from the edges as they are now
    assert after == panel_quad(np.sin, [edges], 16)[0] != before
    assert new_nodes.max() > old_nodes.max()


def test_panel_grid_cache_stays_within_its_bound():
    for i in range(200):
        panel_quad(np.sin, np.linspace(0.0, 1.0 + i, 3), 4)
    info = _quadrature._grid.cache_info()
    assert info.maxsize == _quadrature.GRIDS
    assert info.currsize <= info.maxsize


def test_bessel_steps_is_the_routes_domain():
    # 10 pi/2 = 15.7: the even steps from 2 through 14
    assert spectral.bessel_steps(10, range(20)) == [2, 4, 6, 8, 10, 12, 14]
    assert spectral.bessel_steps(1, range(20)) == []
    assert spectral.bessel_steps(2, [2, 3, 4]) == [2]
    for t in (0, 3, 16, 2.5):
        with pytest.raises(ValueError, match=rf"^the Bessel route requires even t in "
                                             rf"\[2, n pi/2\), got t={t}, n=10$"):
            spectral.p0_amplitudes_bessel(10, [2, t])


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


@pytest.mark.parametrize("budget", [None, 1], ids=["default-budget", "budget-1"])
def test_axis_integrals_equal_scalar_dimension_references(monkeypatch, budget):
    # pieces of mixed n, nu and k share tables, yet each row is bit for bit
    # the piece integrated alone with the scalar-n weight (n = 2 included:
    # numpy squares |cos| for a scalar exponent 2; odd n copy cos's sign)
    if budget is not None:
        monkeypatch.setattr(spectral, "_TABLE_BUDGET", budget)
    pieces = [(n, nu, k) for n, nu in [(12, 10), (2, 1), (30, 26), (5, 6), (60, 40), (2, 3),
                                       (4, 2), (30, 7)]
              for k in (0, 1, 2, n)]
    values, errs = spectral.axis_integrals(pieces[::-1] + pieces)
    assert values.shape == errs.shape == (2 * len(pieces),)
    reference = []
    for n, nu, k in pieces[::-1] + pieces:
        edges = spectral._bulk_edges(n) if k == 0 else spectral._segment_edges(n, k)
        value, err = panel_quad_with_error(
            lambda x: specfun.bessel_table(x, [(x.size, [nu], int(np.ceil(n * pi / 2)) - 1)])[0]
            * spectral._weight(n, x), edges)
        reference.append((value, err))
    assert list(zip(values.tolist(), errs.tolist())) == reference


def test_axis_integrals_validation():
    for values in spectral.axis_integrals([]):
        assert values.shape == (0,)
    with pytest.raises(ValueError, match=r"^dimension must be >= 2, got 1$"):
        spectral.axis_integrals([(4, 2, 0), (1, 1, 1)])
    with pytest.raises(ValueError, match=r"^order must satisfy 1 <= nu < n pi/2, got nu=7, n=4$"):
        spectral.axis_integrals([(30, 7, 1), (4, 7, 0)])
    with pytest.raises(ValueError, match=r"^segment index must be >= 0, got -1$"):
        spectral.axis_integrals([(4, 2, 0), (4, 2, -1)])


def test_axis_integrals_name_the_first_unconverged_piece(monkeypatch):
    # a group that fails reports its first failing piece, in piece order
    monkeypatch.setattr(spectral, "panel_quad_with_error",
                        lambda f, edges: (np.ones((1, len(edges))), np.array([[0.0, 1.0, 1.0]])))
    with pytest.raises(ArithmeticError, match=r"^quadrature for segment 3 did not converge"):
        spectral.axis_integrals([(12, 10, 0), (30, 26, 3), (12, 10, 1)])


# ---------------------------------------------------------------------------
# Ray integral: the sum of every segment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, nu", [(4, 4), (6, 4), (10, 8), (12, 10)])
def test_ray_equals_the_segment_sum_within_the_chain(n, nu):
    # sum_{k >= 1} I_k is the ray, and segments 1..K-1 plus the certified
    # chain B(K) bound that sum, so the two routes agree within their budgets;
    # B(K) falls only like K^(-1/2), hence the long segment sum
    k_max = n + 200
    segments = [spectral.segment_integral(n, nu, k) for k in range(1, k_max)]
    (ray,), (ray_err,) = spectral.ray_integrals(n, [nu])
    gap = abs(ray - sum(seg.value for seg in segments))
    budget = (ray_err + sum(seg.quad_error for seg in segments)
              + spectral.segment_tail_bound(n, nu, k_max))
    assert gap <= budget, (gap, budget)
    assert abs(ray) > budget  # the agreement is not vacuous


def test_ray_integrals_validation():
    for values in spectral.ray_integrals(4, []):
        assert values.shape == (0,)
    with pytest.raises(ValueError):
        spectral.ray_integrals(1, [1])
    with pytest.raises(ValueError):
        spectral.ray_integrals(4, [2, 7])  # nu >= n pi/2
    with pytest.raises(ValueError):
        spectral.ray_integrals(4, [0])


@pytest.mark.parametrize("n", [2, 5, 12, 30, 60])
def test_ray_integrals_equal_one_order_calls(n):
    # each row is formed elementwise, so it does not depend on its batch
    orders = list(range(1, int(np.ceil(n * pi / 2))))
    values, errs = spectral.ray_integrals(n, orders)
    assert values.shape == errs.shape == (len(orders),)
    for nu, value, err in zip(orders, values, errs):
        assert spectral.ray_integrals(n, [nu]) == ([value], [err])
    reversed_values, reversed_errs = spectral.ray_integrals(n, orders[::-1])
    assert np.array_equal(reversed_values, values[::-1])
    assert np.array_equal(reversed_errs, errs[::-1])


def _recording_seeds(monkeypatch):
    """Every later specfun._hankel01e call appends its nodes to the returned list."""
    calls, seeds = [], specfun._hankel01e

    def recording(z):
        calls.append(z)
        return seeds(z)

    monkeypatch.setattr(specfun, "_hankel01e", recording)
    return calls


@pytest.mark.parametrize("orders", [range(2, 93, 2), [2]])
def test_the_ray_calls_hankel1e_at_orders_0_and_1_once_per_rule(monkeypatch, orders):
    # one _hankel01e call per rule gives both orders on all its nodes
    calls = _recording_seeds(monkeypatch)
    spectral.ray_integrals(60, orders)
    assert [z.size for z in calls] == [spectral._RAY_PANELS * NODES,
                                       spectral._RAY_PANELS * REFINED_NODES]


@pytest.mark.parametrize("n", [2, 12, 60, 150])
def test_upward_hankel_matches_amos_on_the_ray_nodes(monkeypatch, n):
    # upward recurrence is stable for H1 in the upper half-plane, so the two
    # seeds give every order the route accepts to within 1e-12 relative of
    # scipy's hankel1e (AMOS; Amos, ACM TOMS 12, 1986), an oracle here only.
    # The worst, 1.32e-13 at n = 150, is the recurrence's: seeded from AMOS
    # itself it is the same
    from scipy import special

    seeds = specfun._hankel01e
    calls = _recording_seeds(monkeypatch)
    top = int(np.ceil(n * pi / 2)) - 1  # the largest order with nu < n pi/2
    spectral.ray_integrals(n, [top])
    assert len(calls) == 2
    orders = np.arange(top + 1)
    for z in calls:
        rows = np.empty((orders.size, z.size), dtype=complex)
        specfun._upward(z, seeds,
                        [(nu, slice(None), row) for nu, row in zip(orders.tolist(), rows)])
        exact = special.hankel1e(orders[:, None], z)
        assert np.max(np.abs(rows - exact) / np.abs(exact)) <= 1e-12, n


# ---------------------------------------------------------------------------
# Bessel-route amplitude
# ---------------------------------------------------------------------------

def _assert_within_budget(n, ts, rel=None):
    """Each amplitude lies within tail_bound + quad_error of the exact one, and
    within rel of it where that is not zero."""
    for t, res in zip(ts, spectral.p0_amplitudes_bessel(n, ts)):
        exact = abs(float(oracles.exact_return_amplitude(n, t)))
        error = abs(res.amplitude - exact)
        assert error <= res.tail_bound + res.quad_error, (n, t, res, exact)
        if rel is not None and exact:
            assert error <= rel * exact, (n, t, res, exact)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 60))
@example(2)  # t = 2 is an exact zero
@example(30)
@example(60)
def test_bessel_amplitude_lies_within_its_budget_of_the_exact_amplitude(n):
    _assert_within_budget(n, spectral.bessel_steps(n, range(int(n * pi / 2) + 1)), rel=1e-6)


@pytest.mark.parametrize("n, ts, rel", [(100, None, None), (150, None, None),
                                        (300, [2, 4, 10], 1e-6), (2000, [2, 4, 10], 1e-6)])
def test_bessel_amplitude_budget_past_the_scan_cap(n, ts, rel):
    # at n = 150 amplitudes reach 5e-32, where the bulk's budget is the larger
    # part; nothing is truncated, so no Bessel argument lies past n pi/2
    _assert_within_budget(n, ts or spectral.bessel_steps(n, range(int(n * pi / 2) + 1)), rel)


@pytest.mark.parametrize("n", [4, 10, 40])
def test_bessel_budget_is_t_times_the_pieces_error_estimates(n):
    # tail_bound is t times the ray's estimate, quad_error t times the bulk's
    ts = spectral.bessel_steps(n, range(int(n * pi / 2) + 1))
    bulks, bulk_errs = spectral.bulk_integrals(n, ts)
    rays, ray_errs = spectral.ray_integrals(n, ts)
    assert spectral.p0_amplitudes_bessel(n, ts) == [
        (t * abs(bulk + ray), t * ray_err, t * bulk_err)
        for t, bulk, ray, bulk_err, ray_err in zip(ts, bulks, rays, bulk_errs, ray_errs)]


def test_bessel_amplitude_matches_chebyshev_within_budget():
    res = spectral.p0_amplitude_bessel(10, 8)
    reference = abs(spectral.p0_amplitude_chebyshev(10, 8))
    assert abs(res.amplitude - reference) <= res.tail_bound + res.quad_error + 1e-9


def test_bessel_amplitude_n2_t2_vanishes_within_budget():
    res = spectral.p0_amplitude_bessel(2, 2)
    assert res.amplitude <= res.tail_bound + res.quad_error + 1e-9


def test_bessel_amplitude_rejects_odd_or_tiny_t():
    with pytest.raises(ValueError):
        spectral.p0_amplitude_bessel(10, 7)
    with pytest.raises(ValueError):
        spectral.p0_amplitude_bessel(10, 0)


def test_tail_bound_decreases_with_truncation_point():
    bounds_seq = [spectral.segment_tail_bound(12, 10, k) for k in (12, 24, 48, 96)]
    assert all(a > b for a, b in zip(bounds_seq, bounds_seq[1:]))


def test_chain_sum_exceeds_the_hurwitz_zeta_value_by_at_most_0_032_over_k_squared():
    # at nu = 1/2 the expansion-error term is 0, so the bound is the
    # prefactor below times S(K) = (K - 1/2)^(-3/2) + 2 K^(-1/2), which must
    # bound zeta(3/2, K - 1/2) from above, and tightly
    import mpmath as mp

    n = 8
    prefactor = 2.0**-n * (1.5 * pi * n) * specfun.beta_half_integrals(n * pi)[1]
    ks = sorted(set(range(1, 51)) | set(np.geomspace(50, 1e6, 41).round().astype(int).tolist()))
    with mp.workdps(40):
        for k in ks:
            chain = mp.mpf(spectral.segment_tail_bound(n, 0.5, k)) / mp.mpf(prefactor)
            excess = chain / mp.zeta(1.5, k - 0.5) - 1
            assert 0 <= excess <= 0.032 / k**2, k


def test_ray_sum_lies_within_the_chain_from_segment_one():
    # two independent routes to sum_{k >= 1} I_k at every Theorem 2 order:
    # the quadrature up the ray n pi/2 + iy, and the contour chain's bound
    # from k_min = 1
    worst = 0.0
    for n in range(4, 61):
        orders = [nu for nu in range(2, n) if bounds.theorem2_admissible(n, nu)]
        rays, errs = spectral.ray_integrals(n, orders)
        for nu, ray, err in zip(orders, rays, errs):
            ratio = (abs(ray) + err) / spectral.segment_tail_bound(n, nu, 1)
            assert ratio <= 1.0, (n, nu)
            worst = max(worst, ratio)
    assert worst < 0.05


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


@pytest.mark.parametrize("n", [5, 10, 24, 30, 60])
def test_batched_bessel_amplitudes_match_one_order_calls(n):
    ts = list(range(2, int(np.ceil(n * pi / 2)), 2))
    batch = spectral.p0_amplitudes_bessel(n, ts)
    assert len(batch) == len(ts)
    # a row must not depend on which other orders share its batch
    assert batch == [spectral.p0_amplitude_bessel(n, t) for t in ts]
    assert spectral.p0_amplitudes_bessel(n, ts[::-1]) == batch[::-1]


def test_batched_bessel_amplitudes_validation():
    assert spectral.p0_amplitudes_bessel(10, []) == []
    with pytest.raises(ValueError):
        spectral.p0_amplitudes_bessel(10, [2, 7])
    with pytest.raises(ValueError):
        spectral.p0_amplitudes_bessel(10, [2, 16])  # t >= n pi/2


@pytest.mark.parametrize("n, budget", [(5, 1), (30, 1), (60, 1), (5, 10**9), (30, 10**9)])
def test_bessel_amplitudes_do_not_depend_on_the_budget(monkeypatch, n, budget):
    # the budget groups the bulk sweeps: one order per group at budget 1,
    # all orders in one group at 10**9
    ts = list(range(2, int(np.ceil(n * pi / 2)), 2))
    rows = spectral.p0_amplitudes_bessel(n, ts)
    monkeypatch.setattr(spectral, "_TABLE_BUDGET", budget)
    assert spectral.p0_amplitudes_bessel(n, ts) == rows


def test_bessel_work_stays_within_the_table_budget(monkeypatch):
    sweeps = []

    def record(x, blocks):
        rows = max(len(orders) for _, orders, _ in blocks)
        sweeps.append((rows + spectral._NODE_STATE) * x.size)
        return original(x, blocks)

    original = spectral.bessel_table
    monkeypatch.setattr(spectral, "bessel_table", record)
    argv = ["p0", "--n", "60", "--t-max", "92", "--method", "bessel", "--parity", "even"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    pairs = [(n, int(0.8663 * n)) for n in range(4, 41)]
    bounds.theorem2_bounds([(n, nu) for n, nu in pairs if bounds.theorem2_admissible(n, nu)])
    assert sweeps
    # at most 0.56 MB of float64 per sweep group
    assert max(sweeps) <= spectral._TABLE_BUDGET <= 70_000
