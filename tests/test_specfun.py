"""Special functions: reference-grid accuracy, identities, bound formulas."""

import random
import warnings
from math import lgamma, pi, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hypercube_walk import _quadrature, specfun, spectral
from hypercube_walk._quadrature import NODES, REFINED_NODES, panel_quad_with_error


# ---------------------------------------------------------------------------
# Chebyshev
# ---------------------------------------------------------------------------

def test_chebyshev_low_degrees():
    for z in (-1.0, -0.37, 0.0, 0.8, 1.0):
        assert specfun.chebyshev_T(0, z) == 1.0
        assert specfun.chebyshev_T(1, z) == pytest.approx(z, abs=1e-15)
    assert specfun.chebyshev_T(2, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_chebyshev_exact_at_endpoints():
    for t in range(0, 12):
        assert specfun.chebyshev_T(t, 1.0) == 1.0
        assert specfun.chebyshev_T(t, -1.0) == (1.0 if t % 2 == 0 else -1.0)


def test_chebyshev_rejects_nan():
    for t in (3, 4):
        with pytest.raises(ValueError):
            specfun.chebyshev_T(t, float("nan"))


def test_chebyshev_t10_matches_recurrence():
    assert specfun.chebyshev_T(10, 0.3) == pytest.approx(
        oracles.chebyshev_recurrence(10, 0.3), abs=1e-12
    )


def test_chebyshev_recurrence_grid_to_degree_200():
    zs = np.linspace(-1.0, 1.0, 41)
    for t in (3, 25, 77, 200):
        for z in zs:
            assert specfun.chebyshev_T(t, float(z)) == pytest.approx(
                oracles.chebyshev_recurrence(t, float(z)), abs=1e-10
            )


@settings(deadline=None, max_examples=80)
@given(
    t=st.integers(min_value=0, max_value=150),
    z=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_chebyshev_matches_recurrence_property(t, z):
    assert specfun.chebyshev_T(t, z) == pytest.approx(
        oracles.chebyshev_recurrence(t, z), abs=1e-10
    )


def test_chebyshev_clamps_roundoff_but_rejects_beyond():
    assert specfun.chebyshev_T(5, 1.0 + 1e-16) == 1.0
    with pytest.raises(ValueError):
        specfun.chebyshev_T(5, 1.001)
    with pytest.raises(ValueError):
        specfun.chebyshev_T(-1, 0.5)


# ---------------------------------------------------------------------------
# Bessel J
# ---------------------------------------------------------------------------

def _envelope(x: float) -> float:
    return min(1.0, sqrt(2.0 / (pi * max(x, 1e-3))))


def test_bessel_at_zero_argument():
    assert specfun.bessel_J(0, 0.0) == 1.0
    for nu in (1, 2, 9, 60):
        assert specfun.bessel_J(nu, 0.0) == 0.0


def test_bessel_reference_grid_relative_accuracy():
    cases = []
    for nu in (0, 1, 2, 5, 17, 34, 60, 120, 200):
        xs = {0.5, 1.0, 4.0, 11.0, 19.0, 30.0}
        xs |= {0.3 * nu, 0.7 * nu, 0.95 * nu, float(nu), 1.3 * nu + 3.0, 5.0 * nu + 21.0}
        if nu <= 17:
            xs |= {433.0, 5011.0, 99000.0}
        for x in xs:
            if x > 0:
                cases.append((nu, float(x)))
    checked = 0
    for nu, x in cases:
        ref = oracles.ref_bessel_j(nu, x)
        if abs(ref) < 0.05 * _envelope(x):
            continue  # relative error is meaningless next to a zero crossing
        got = specfun.bessel_J(nu, x)
        assert abs(got - ref) <= 1e-10 * abs(ref), (nu, x, got, ref)
        checked += 1
    assert checked > 60


def test_bessel_deep_decay_below_order():
    # exercises the backward recurrence and its overflow rescaling where
    # J_nu(x) is hundreds of orders of magnitude below the seed scale
    for nu in (60, 120, 200):
        for frac in (0.25, 0.5, 0.75):
            x = frac * nu
            ref = oracles.ref_bessel_j(nu, x, dps=60)
            got = specfun.bessel_J(nu, x)
            if abs(ref) > 1e-280:
                assert abs(got - ref) <= 1e-9 * abs(ref), (nu, x, got, ref)
            else:
                assert got == 0.0  # below double range; underflow is the contract


def _assert_few_ulps(got, ref, label):
    # two ulps where the reference is a normal float, the least subnormal below
    normal = ref >= np.finfo(float).tiny
    assert np.all(np.abs(got - ref)[normal] <= 2 * np.finfo(float).eps * ref[normal]), label
    assert np.all(np.abs(got - ref)[~normal] <= np.finfo(float).smallest_subnormal), label


def test_bessel_at_tiny_arguments_is_the_leading_series_term():
    # below x = 1e-50 Miller's first step overflowed past its rescale and
    # returned nan; the leading term (x/2)^nu / nu! is J to 1e-100 relative.
    # The reference is that term in 40-digit arithmetic: scipy's jv forms it
    # as exp(nu log(x/2) - lgamma(nu + 1)) and is itself up to 1.2e-13 off
    import mpmath

    xs = np.concatenate([np.logspace(-320.0, np.log10(9.99e-51), 300), [5e-324, 1e-60]])
    log_half = np.log(xs) - np.log(2.0)
    for nu in range(251):
        got = specfun.bessel_J(nu, xs)
        assert not np.isnan(got).any(), nu
        # a term below e^-746 rounds to 0 in double; mpmath is spent on the rest
        live = nu * log_half - lgamma(nu + 1) > -746.0
        ref = np.zeros_like(xs)
        with mpmath.workdps(40):
            ref[live] = [float((mpmath.mpf(x) / 2) ** nu / mpmath.factorial(nu))
                         for x in xs[live]]
        _assert_few_ulps(got, ref, nu)
    assert specfun.bessel_J(0, 1e-60) == 1.0


def test_bessel_at_tiny_arguments_matches_mpmath():
    xs = np.concatenate([np.logspace(-300.0, -50.0, 60), [1e-60, 2e-72, 6e-58, 1e-51]])
    for nu in range(41):
        ref = np.array([oracles.ref_bessel_j(nu, x) for x in xs])
        _assert_few_ulps(specfun.bessel_J(nu, xs), ref, nu)


def test_bessel_bounded_by_one():
    xs = np.linspace(0.0, 2000.0, 4001)
    for nu in (0, 1, 7, 40, 150):
        assert np.max(np.abs(specfun.bessel_J(nu, xs))) <= 1.0


def test_bessel_at_turning_point_bound():
    for nu in range(1, 201):
        val = specfun.bessel_J(nu, float(nu))
        assert 0.0 < val < 0.45 / nu ** (1.0 / 3.0)


def test_bessel_growth_envelope_below_order():
    # J_nu(nu t) <= J_nu(nu) t^nu exp(nu (1 - t^2)/2) on (0, 1]
    ts = np.linspace(0.05, 1.0, 20)
    for nu in (5, 17, 33, 60):
        at_nu = specfun.bessel_J(nu, float(nu))
        for t in ts:
            lhs = specfun.bessel_J(nu, float(nu * t))
            rhs = at_nu * t**nu * np.exp(nu * (1.0 - t * t) / 2.0)
            assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


def test_bessel_three_term_recurrence():
    xs = np.array([3.7, 12.0, 47.0, 190.0, 1100.0])
    for nu in (5, 17, 34, 60):
        low = specfun.bessel_J(nu - 1, xs)
        mid = specfun.bessel_J(nu, xs)
        high = specfun.bessel_J(nu + 1, xs)
        scale = np.abs(low) + np.abs(mid) + np.abs(high)
        assert np.all(np.abs(low + high - (2.0 * nu / xs) * mid) <= 1e-9 * scale)


def test_bessel_scalar_and_array_shapes():
    scalar = specfun.bessel_J(3, 7.5)
    assert isinstance(scalar, float)
    arr = specfun.bessel_J(3, np.array([[0.0, 7.5], [1.0, 2.0]]).ravel())
    assert arr.shape == (4,)
    assert arr[1] == pytest.approx(scalar, abs=1e-15)
    assert arr[0] == 0.0


def test_bessel_rejects_out_of_range():
    with pytest.raises(ValueError):
        specfun.bessel_J(-1, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_J(251, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_J(5, -0.5)
    with pytest.raises(ValueError):
        specfun.bessel_J(5, 3.0e5)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=250),
                          st.floats(min_value=0.0, max_value=1.0e4)),
                min_size=1, max_size=12))
@example([(250, 0.0), (0, 0.0), (3, 2.0), (250, 1.0), (3, 0.0)])
def test_upward_kernel_equals_the_plain_recurrence(pairs):
    # every node of the table sits at or above its own order, so all of them
    # take the upward kernel; so does every node of the one-block table at or
    # above an order of another pair.  The plain recurrence starts from the
    # same seeds, specfun._j01, each an elementwise function of its node
    orders = [nu for nu, _ in pairs]
    offsets = np.array([d for _, d in pairs])
    xs = np.array(orders) + offsets

    def plain(nu, x):
        return oracles.upward_recurrence(nu, x, *specfun._j01(x))

    expected = [plain(nu, xs[i:i + 1])[0] for i, nu in enumerate(orders)]
    table = specfun.bessel_table(xs, [(1, [nu], nu) for nu in orders])
    assert np.array_equal(table[0], expected)
    table = specfun.bessel_table(xs, [(xs.size, orders, max(orders))])
    for nu, row in zip(orders, table):
        at = xs >= nu
        assert np.array_equal(row[at], plain(nu, xs[at]))
    # the same kernel steps complex seeds: H1 at z = x + 250i, every order
    # captured on every node (|z| >= 250, so no order overflows); the extra
    # node at x = 0 keeps two nodes or more, because numpy rounds an in-place
    # product of one-element complex arrays without the fused multiply-add it
    # uses for every longer or out-of-place one
    z = np.append(xs, 0.0) + 1j * specfun.MAX_ORDER
    h0, h1 = specfun._hankel01e(z)
    rows = np.empty((len(orders), z.size), dtype=complex)
    specfun._upward(z, specfun._hankel01e, [(nu, slice(None), row) for nu, row in zip(orders, rows)])
    for nu, row in zip(orders, rows):
        assert np.array_equal(row, oracles.upward_recurrence(nu, z, h0, h1), equal_nan=True)


# ---------------------------------------------------------------------------
# Seeds: J_0, J_1 on the real axis and H1_0, H1_1 on a ray, against mpmath
# ---------------------------------------------------------------------------

UNIT = 2.0 ** -53


def _assert_alone_equals_batch(seeds, nodes, seed, picks=None):
    # the picked nodes' values (all by default) have the same bits alone as
    # inside a shuffled batch of every node
    order = np.random.default_rng(seed).permutation(nodes.size)
    batch = seeds(nodes[order])
    for i, k in enumerate(order):
        if picks is None or k in picks:
            for in_batch, alone in zip(batch, seeds(nodes[k:k + 1])):
                assert np.array_equal(in_batch[i:i + 1], alone), nodes[k]


@settings(deadline=None, max_examples=40)
@given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1100.0),
                          st.floats(min_value=0.0, max_value=specfun.MAX_ARGUMENT)),
                min_size=1, max_size=6),
       st.integers(min_value=0, max_value=2**32 - 1))
@example([0.0, 5e-324, 1e-300, 0.125, 1.0, 19.875, 20.0, 20.125], 0)
@example([39.875, np.nextafter(40.0, 0.0), 40.0, 40.125], 2)
@example([1023.875, 1023.9999999999999, 1024.0, 1024.125, 4.5e4, specfun.MAX_ARGUMENT], 1)
def test_j01_within_four_units_of_the_envelope(xs, seed):
    # u = 2^-53 of sqrt(2/(pi x)), or absolute below x = 1; both bands, the
    # Taylor table below 1024 and the expansion above, and the table's
    # series and expansion halves on either side of x = 40
    import mpmath as mp

    x = np.array(xs)
    values = specfun._j01(x)
    with mp.workdps(40):
        for i, xi in enumerate(xs):
            scale = 1.0 if xi < 1.0 else sqrt(2.0 / (pi * xi))
            for nu in (0, 1):
                error = abs(values[nu][i] - mp.besselj(nu, mp.mpf(xi)))
                assert error <= 4 * UNIT * scale, (nu, xi, values[nu][i])
    _assert_alone_equals_batch(specfun._j01, x, seed)


def _ray_nodes(n, rule):
    # the nodes specfun._hankel_ray seeds on for spectral.ray_integrals
    u = _quadrature._grid(np.linspace(0.0, 1.0, spectral._RAY_PANELS + 1).tobytes(), rule)[0]
    return specfun._hankel_ray([n * pi / 2], [n], u.ravel(), [])[2][0]


def _assert_hankel01e_matches_mpmath(z, digits):
    # H1_nu(w) = (2/(i pi)) e^(-i nu pi/2) K_nu(-iw) (DLMF 10.27.8), whose
    # evaluation by mpmath does not cancel where H1 is small, also at large
    # Im w, where its J + iY form loses digits
    import mpmath as mp

    values = specfun._hankel01e(z)
    with mp.workdps(digits):
        for i, w in enumerate(z.tolist()):
            wm = mp.mpc(w.real, w.imag)
            for nu in (0, 1):
                exact = complex(2 / (1j * mp.pi) * mp.exp(-0.5j * nu * mp.pi)
                                * mp.besselk(nu, -1j * wm) * mp.exp(-1j * wm))
                assert abs(values[nu][i] - exact) <= 2e-15 * abs(exact), (nu, w)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=150), st.sampled_from([NODES, REFINED_NODES]),
       st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(2, REFINED_NODES, [0, 1, 5, 70], 0)  # |z| from pi, the Laplace band
@example(13, NODES, [0, 40, 80, 159], 1)  # |z| across 40
@example(13, REFINED_NODES, [0, 234, 235, 383], 2)  # |z| across 40
def test_hankel01e_matches_mpmath_on_the_ray_nodes(n, rule, picks, seed):
    z = _ray_nodes(n, rule)
    picks = {p % z.size for p in picks}
    _assert_hankel01e_matches_mpmath(z[sorted(picks)], 20)
    _assert_alone_equals_batch(specfun._hankel01e, z, seed, picks)


@pytest.mark.parametrize("direction", [1.0, 1j])  # the real axis and arg z = pi/2
def test_hankel01e_on_either_side_of_the_expansion_threshold(direction):
    # the Laplace rule just below |z| = 40 and the expansion at 40
    z = np.array([np.nextafter(40.0, 0.0), 40.0], dtype=complex) * direction
    _assert_hankel01e_matches_mpmath(z, 40)


def test_hankel01e_of_a_real_array_across_the_threshold_keeps_imaginary_parts():
    # the Laplace rule below |z| = 40 and the expansion at 41 both return
    # complex values, whatever the dtype of the nodes they share
    z = np.array([np.nextafter(40.0, 0.0), 41.0])
    for real, cplx in zip(specfun._hankel01e(z), specfun._hankel01e(z.astype(complex))):
        np.testing.assert_array_equal(real, cplx)


def _hankel01e_near_rows(z):
    # the Laplace rule as one (nodes, z) array per order, each column summed
    # by np.add.accumulate in node order: the form the per-order
    # accumulators replaced, kept here as their oracle
    s2, w0, w1 = (np.array(v) for v in specfun._laplace_rule())
    root = np.sqrt(1.0 + np.multiply.outer(s2, 0.5j / z))
    i0 = np.add.accumulate(w0[:, None] / root, axis=0)[-1]
    i1 = np.add.accumulate(w1[:, None] * root, axis=0)[-1]
    q = np.sqrt(1.0 / (pi * z))
    return q * ((1 - 1j) * (2.0 / sqrt(pi))) * i0, q * ((-1 - 1j) * (4.0 / sqrt(pi))) * i1


def test_hankel01e_near_equals_the_rows_form_bit_for_bit():
    # 3 <= |z| < 40 and 0 <= arg z <= pi/2, the band the Laplace rule serves,
    # with both edges of the band and of the angle, and the ray nodes of
    # n = 2..25 below |z| = 40
    radius = np.append(np.geomspace(3.0, 40.0, 97)[:-1], np.nextafter(40.0, 0.0))
    angle = np.linspace(0.0, pi / 2, 33)
    grid = np.multiply.outer(radius, np.exp(1j * angle)).ravel()
    rays = np.concatenate([_ray_nodes(n, rule) for n in range(2, 26)
                           for rule in (NODES, REFINED_NODES)])
    for z in (grid, rays[np.abs(rays) < 40.0], grid[:1]):
        for near, rows in zip(specfun._hankel01e_near(z), _hankel01e_near_rows(z)):
            assert near.shape == z.shape
            np.testing.assert_array_equal(near, rows)


# where each argument sits relative to its order: below it (Miller), at or
# above it (upward), tiny (Miller with its overflow rescale) or exactly zero
_ARGUMENT_PLACES = {
    "below": lambda nu, u: u * nu,
    "above": lambda nu, u: nu + 1.0e4 * u,
    "tiny": lambda nu, u: 1e-8 + 1e-3 * u,
    "zero": lambda nu, u: 0.0,
}


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=250),
                          st.sampled_from(sorted(_ARGUMENT_PLACES)),
                          st.floats(min_value=0.0, max_value=1.0)),
                min_size=1, max_size=12),
       st.integers(min_value=1, max_value=4))
@example([(250, "tiny", 0.0), (250, "below", 0.99), (3, "above", 0.0), (0, "zero", 0.0)], 1)
@example([(120, "tiny", 0.5), (120, "tiny", 0.0), (7, "below", 0.5), (7, "above", 1.0)], 2)
def test_bessel_table_equals_one_order_calls(pairs, blocks):
    # pairs with top = nu are bessel_J, whatever blocks share the call; the
    # nodes dealt into a few blocks of every order, each with the largest
    # order as its top, give every row of a one-order, one-block call
    orders = [nu for nu, _, _ in pairs]
    xs = [_ARGUMENT_PLACES[place](nu, u) for nu, place, u in pairs]
    got = specfun.bessel_table(np.array(xs), [(1, [nu], nu) for nu in orders])
    expected = [specfun.bessel_J(nu, x) for nu, x in zip(orders, xs)]
    assert np.array_equal(got[0], expected)
    cuts = sorted({0, len(xs)} | set(range(0, len(xs), -(-len(xs) // blocks))))
    top = max(orders)
    got = specfun.bessel_table(np.array(xs), [(hi - lo, orders, top)
                                             for lo, hi in zip(cuts, cuts[1:])])
    for row, nu in zip(got, orders):
        assert np.array_equal(row, specfun.bessel_table(np.array(xs), [(len(xs), [nu], top)])[0])


def test_bessel_table_reaches_the_miller_overflow_rescale():
    # at x = 1e-8 the backward recurrence from order 266 (top 250 plus the
    # pad of a node below top/2) passes 1e250 within about 50 steps, so the
    # rescale branch runs; the result still matches the leading term
    # (x/2)^nu / nu! to within rounding, here at nu = 20
    got = specfun.bessel_table(np.array([1e-8, 1e-8]), [(1, [20], 20), (1, [250], 250)])[0]
    assert got[0] == pytest.approx((0.5e-8) ** 20 / np.prod(np.arange(1.0, 21.0)), rel=1e-12)
    assert got[1] == 0.0


def test_bessel_table_rescales_every_captured_order():
    # several orders captured per node, each rescaled with its node: nodes of
    # one block from 1e-8 to 1e-2 with orders 2, 20, 120 and 250 in one sweep
    # from 266, the start of a node below 250/2, and the nodes of a second
    # block that join the sweep later, at 76, the start below 60/2
    first = np.geomspace(1e-8, 1e-2, 13)
    second = np.geomspace(3e-7, 5e-3, 7)
    table = specfun.bessel_table(np.concatenate([first, second]),
                                 [(first.size, [2, 20, 120, 250], 250),
                                  (second.size, [3, 30, 60], 60)])
    assert np.all(table[3, first.size:] == 0.0)  # rows past the second block's orders
    checked = 0
    for orders, lo, hi in (([2, 20, 120, 250], 0, first.size),
                           ([3, 30, 60], first.size, table.shape[1])):
        x = np.concatenate([first, second])[lo:hi]
        for row, nu in enumerate(orders):
            for xi, got in zip(x, table[row, lo:hi]):
                exact = oracles.ref_bessel_j(nu, float(xi))
                if abs(exact) >= np.finfo(float).tiny:
                    assert got == pytest.approx(exact, rel=1e-13), (nu, xi)
                    checked += 1
                else:
                    assert abs(got) < np.finfo(float).tiny, (nu, xi)
    assert checked > 40


def test_miller_tier_pads_meet_the_ratio_bound():
    # each tier's pad p is the least with phi(q)^(p+1) <= 2^-56, phi(q) the
    # bound on one step's J and Y ratios at x <= q top; starts rise with x
    for q, pad in specfun._MILLER_TIERS:
        phi = q / (1.0 + sqrt(1.0 - q * q)) * q / (2.0 - q)
        assert phi ** (pad + 1) <= 2.0**-56 < phi**pad
    for top in range(1, specfun.MAX_ORDER + 1):
        starts = specfun._miller_starts(top)[1]
        assert starts == sorted(starts) and all(start % 2 == 0 for start in starts)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=specfun.MAX_ORDER),
       st.floats(min_value=0.0, max_value=0.05),
       st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=3))
@example(250, 0.0, [0.0])
@example(1, 0.05, [])
@example(37, 1e-3, [0.5, 1.0])
def test_bessel_table_is_accurate_on_either_side_of_each_miller_tier_edge(top, offset, fractions):
    # nodes just below and above each tier's edge q top start the sweep at
    # different orders; J at the top, where a short pad leaves the largest
    # error, and at orders between the node and the top agrees with mpmath
    edges = specfun._miller_starts(top)[0]
    x = np.unique([node for edge in edges for node in
                   (np.nextafter(edge, 0.0), edge, edge * (1.0 - offset), edge * (1.0 + offset))])
    orders = sorted({top} | {int(u * top) for u in fractions})
    table = specfun.bessel_table(x, [(x.size, orders, top)])
    checked = 0
    for row, nu in enumerate(orders):
        for xi, got in zip(x.tolist(), table[row]):
            if xi < nu:  # Miller's nodes
                exact = oracles.ref_bessel_j(nu, xi)
                if abs(exact) >= np.finfo(float).tiny:
                    assert got == pytest.approx(exact, rel=1e-13), (top, nu, xi)
                    checked += 1
    assert checked >= len(edges)  # every node below the top is Miller's there


_SWEEP_BLOCKS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=specfun.MAX_ORDER),
              st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
              st.lists(st.floats(min_value=-50.0, max_value=np.log10(2.0 * specfun.MAX_ORDER)),
                       min_size=1, max_size=8)),
    min_size=1, max_size=4)


@settings(deadline=None, max_examples=60)
@given(_SWEEP_BLOCKS)
@example([(250, [0.08, 1.0], [-8.0, -8.0])])  # past 1e250 within a few steps
@example([(250, [1.0, 0.5, 0.0], [-50.0, -20.0, -3.0, 0.0, 2.3]),
          (60, [0.05, 1.0], [-6.5, -2.3, 1.0]), (3, [1.0], [-49.0, 0.4])])
@example([(120, [1.0, 0.25], [2.3, -30.0, 1.5, -30.0])])  # nodes out of order
def test_bessel_table_equals_a_sweep_that_scans_every_order(blocks):
    # the gate on the scalar bound skips only scans that would find nothing:
    # every node from 1e-50 up past its top, rescaled or not, keeps its bits
    x = np.array([10.0 ** e for _, _, exponents in blocks for e in exponents])
    spec = [(len(exponents), [int(u * top) for u in fractions], top)
            for top, fractions, exponents in blocks]
    got = specfun.bessel_table(x, spec)
    with mock.patch.object(specfun, "_miller_sweep", oracles.miller_sweep_scanning):
        expected = specfun.bessel_table(x, spec)
    assert got.tobytes() == expected.tobytes()


def test_bessel_table_refuses_bad_blocks():
    with pytest.raises(ValueError, match=r"^block sizes must sum to the 2 nodes, got 3$"):
        specfun.bessel_table(np.array([1.0, 2.0]), [(3, [1], 1)])
    with pytest.raises(ValueError, match=r"^top must be an integer in \[7, 250\], got 6$"):
        specfun.bessel_table(np.array([1.0, 2.0]), [(1, [1], 1), (1, [2, 7], 6)])
    with pytest.raises(ValueError, match=r"^top must be an integer in \[0, 250\], got 251$"):
        specfun.bessel_table(np.array([1.0]), [(1, [], 251)])
    assert specfun.bessel_table(np.array([1.0, 2.0]), [(2, [], 0)]).shape == (0, 2)


# ---------------------------------------------------------------------------
# g
# ---------------------------------------------------------------------------

def test_g_at_one():
    assert specfun.g_function(1.0) == 1.0 + 0.0j


def test_g_real_on_real_axis():
    for x in (1.0, 1.5, 4.0, 30.0):
        assert specfun.g_function(x).imag == 0.0


def test_g_ray_maximum_matches_cubic_root():
    # the maximizer on Re z = 1 satisfies y0^2 = t0 with t0^3 + t0^2 = 1
    lo, hi = 0.5, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid**3 + mid**2 < 1.0:
            lo = mid
        else:
            hi = mid
    t0 = 0.5 * (lo + hi)
    y0 = sqrt(t0)
    assert y0 == pytest.approx(0.8688369618327093, abs=1e-12)
    assert abs(specfun.g_ray_maximizer() - y0) <= 1e-15
    value = specfun.g_function(1.0 + 1j * y0)
    assert value.real == pytest.approx(1.2979706845675665, abs=1e-10)
    assert value.imag == pytest.approx(0.2606647857152361, abs=1e-10)
    # grid confirmation that it is the ray maximum
    ys = np.linspace(1e-7, 60.0, 300001)
    zs = 1.0 + 1j * ys
    im = (zs - np.sqrt(zs * zs - 1.0) + np.arccos(1.0 / zs)).imag
    assert im.max() <= value.imag + 1e-9
    assert abs(ys[np.argmax(im)] - y0) < 1e-3


def test_im_g_slope_on_the_ray_changes_sign_once_at_the_maximizer():
    # d/dy Im g(1 + iy) = Re g'(z) = 1 - Re(sqrt(z^2 - 1)/z): positive below
    # y0, negative above, out to y = 1e4 where it is about -1/(2 y^2) = -5e-9
    y0 = specfun.g_ray_maximizer()
    ys = np.geomspace(1e-8, 1e4, 400001)
    zs = 1.0 + 1j * ys
    slope = 1.0 - (np.sqrt(zs * zs - 1.0) / zs).real
    assert np.all(slope != 0.0)
    changes = np.flatnonzero(np.diff(np.sign(slope)))
    assert changes.size == 1
    k = int(changes[0])
    assert slope[0] > 0.0
    assert ys[k] < y0 < ys[k + 1]


def test_im_g_below_threshold_on_quarter_plane():
    xs = np.linspace(1.0, 25.0, 301)
    ys = np.linspace(0.0, 25.0, 301)
    grid_x, grid_y = np.meshgrid(xs, ys)
    zs = grid_x + 1j * grid_y
    im = (zs - np.sqrt(zs * zs - 1.0) + np.arccos(1.0 / zs)).imag
    assert np.nanmax(im) < 0.2607


def test_g_domain_errors():
    with pytest.raises(ValueError):
        specfun.g_function(0.5)
    with pytest.raises(ValueError):
        specfun.g_function(1.0 - 1.0j)


def test_g_array_is_the_appendix_ray_expression_bit_for_bit():
    # the 400,001-point ray the appendix row once took its maximum from, and
    # the expression it evaluated inline before it called g_function
    z = 1.0 + 1j * np.linspace(1e-8, 60.0, 400001)
    expected = z - np.sqrt(z * z - 1.0) + np.arccos(1.0 / z)
    assert np.array_equal(specfun.g_function(z), expected)


def test_g_array_equals_scalar_calls():
    zs = np.array([1.0, 1.5, 30.0, 1.0 + 1e-12j, 4.0 + 0.5j, 1.0 + 0.8688369618327093j,
                   25.0 + 25.0j, 1e6 + 1.0j])
    values = specfun.g_function(zs)
    assert values.shape == zs.shape
    assert [complex(v) for v in values] == [specfun.g_function(complex(z)) for z in zs]
    assert all(v.imag == 0.0 for v in values[:3])
    with pytest.raises(ValueError):
        specfun.g_function(np.array([2.0, 0.5]))


# ---------------------------------------------------------------------------
# Variation bound, eta, beta integrals
# ---------------------------------------------------------------------------

def test_variation_bound_at_pi_half():
    assert specfun.variation_bound(pi / 2) == pytest.approx(2.272365087427448, abs=1e-12)


def test_variation_bound_decreasing():
    cs = np.linspace(1.01, 100.0, 500)
    vals = [specfun.variation_bound(float(c)) for c in cs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        specfun.variation_bound(1.0)


def test_eta_envelope_below_430():
    # worst case of |1 + eta| over nu >= 1, Re w >= pi/2; the rounded-up
    # variation constant 2.273 gives the same sub-430 ceiling
    worst = 1.0 + specfun.eta_bound(1.0, pi / 2)
    assert worst < 430.0
    assert 1.0 + 2 * 2.273 * np.exp(2 * 2.273) < 430.0
    assert worst <= 1.0 + 2 * 2.273 * np.exp(2 * 2.273)


def test_beta_literals_are_scipy_beta_bit_for_bit():
    from scipy import special

    assert specfun.BETA_HALF_QUARTER == special.beta(0.5, 0.25)
    assert specfun.BETA_HALF_3QUARTER == special.beta(0.5, 0.75)


def test_beta_half_integrals_closed_forms():
    first, second = specfun.beta_half_integrals(1.0)
    assert first == pytest.approx(2.6220575542921196, abs=1e-13)
    assert second == pytest.approx(1.1981402347355918, abs=1e-13)


def test_beta_half_integrals_match_quadrature():
    from scipy.integrate import quad

    for a in (0.5, 1.0, 3.7):
        first, second = specfun.beta_half_integrals(a)
        q1, _ = quad(lambda y: (a * a + y * y) ** -0.75, 0.0, np.inf)
        q2, _ = quad(lambda y: (a * a + y * y) ** -1.25, 0.0, np.inf)
        assert first == pytest.approx(q1, rel=1e-10)
        assert second == pytest.approx(q2, rel=1e-10)


def test_beta_half_integrals_scaling():
    base, _ = specfun.beta_half_integrals(1.3)
    scaled, _ = specfun.beta_half_integrals(4 * 1.3)
    assert scaled == pytest.approx(base / 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        specfun.beta_half_integrals(0.0)


# ---------------------------------------------------------------------------
# The integral identity for T_t
# ---------------------------------------------------------------------------

def test_integral_identity_spot_checks():
    for t in (2, 8, 14):
        for z in (0.0, 0.5, -0.9, 1.0, -1.0):
            value, cert = specfun.chebyshev_from_bessel_integral(t, z)
            target = specfun.chebyshev_T(t, z)
            assert cert <= 1e-4
            assert abs(value - target) <= cert, (t, z, value, target, cert)


def test_integral_identity_rejects_odd_degree():
    with pytest.raises(ValueError):
        specfun.chebyshev_from_bessel_integral(3, 0.5)
    with pytest.raises(ValueError):
        specfun.chebyshev_from_bessel_integral(8, 1.5)


def test_integral_identity_rejects_nan_and_odd_degree():
    specfun._identity_table.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, z in ((4, float("nan")), (3, 0.5), (0, 0.5), (-2, 0.5)):
            with pytest.raises(ValueError):
                specfun.chebyshev_from_bessel_integral(t, z)
    assert specfun._identity_table.cache_info().currsize == 0


# The (t, z) grid of criterion-07 and the bound-sweep benchmark
IDENTITY_GRID = [(t, z) for t in range(2, 21, 2)
                 for z in (0.0, 0.25, -0.25, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0)]


def _identity_reference(t, z):
    # the identity with J_t and the H1 rows evaluated afresh at every node of
    # every call, on the bulk edges and ray panels the function uses
    edges = specfun._identity_table(t)[0]
    a = float(edges[-1])
    z = abs(z)

    def bulk(x):
        return specfun.bessel_J(t, x) / x * np.cos(x * z)

    def ray(u):
        (y,), (dy_du,), (w,), (row,) = specfun._hankel_ray([a], [a], u, [(0, t)])
        h = row * (1j * dy_du) / w
        return 0.5 * (np.exp(-y * (1.0 + z)) * (h * np.exp(1j * a * (1.0 + z))).real
                      + np.exp(-y * (1.0 - z)) * (h * np.exp(1j * a * (1.0 - z))).real)

    finite, bulk_err = panel_quad_with_error(bulk, edges)
    tail, ray_err = panel_quad_with_error(ray, specfun._IDENTITY_RAY_EDGES)
    sign = -1.0 if (t // 2) % 2 else 1.0
    return float(sign * t * (finite + tail)), float(t * (bulk_err + ray_err))


def test_integral_identity_tables_equal_uncached_reference():
    specfun._identity_table.cache_clear()
    cold = [specfun.chebyshev_from_bessel_integral(t, z) for t, z in IDENTITY_GRID]
    warm = [specfun.chebyshev_from_bessel_integral(t, z) for t, z in IDENTITY_GRID]
    reference = [_identity_reference(t, z) for t, z in IDENTITY_GRID]
    assert cold == reference
    assert warm == reference


def test_integral_identity_independent_of_call_order():
    results = []
    for seed in (0, 1, 2):
        order = list(IDENTITY_GRID)
        random.Random(seed).shuffle(order)
        specfun._identity_table.cache_clear()
        results.append({(t, z): specfun.chebyshev_from_bessel_integral(t, z) for t, z in order})
    assert results[0] == results[1] == results[2]


def test_integral_identity_same_bits_at_plus_and_minus_z():
    for t, z in IDENTITY_GRID:
        assert (specfun.chebyshev_from_bessel_integral(t, z)
                == specfun.chebyshev_from_bessel_integral(t, -z)), (t, z)


@pytest.mark.parametrize("t, z", [(2, 0.99), (2, -0.99), (2, 0.999), (4, 0.9999),
                                  (20, 0.999), (8, 1 - 1e-8), (8, 1 - 1e-12)])
def test_integral_identity_holds_near_plus_minus_one(t, z):
    # the integration-by-parts tail this route replaced gave 5.2e11 +- 5.4e11
    # at (2, 0.999): its frequency 1 - |z| went to 0
    value, cert = specfun.chebyshev_from_bessel_integral(t, z)
    assert abs(value - oracles.chebyshev_mp(t, z)) <= cert <= 1e-10, (value, cert)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(2, 21, 2)), st.floats(-1.0, 1.0))
@example(2, 1.0)
@example(20, -1.0)
@example(16, 1 - 1e-12)
@example(18, -(1 - 1e-12))
@example(20, 1 - 1e-16)
def test_integral_identity_property(t, z):
    """|value - T_t(z)| <= certificate <= 1e-10 for even t in 2..20 and z in [-1, 1].

    This is the tested range.  Past t = 20 the 32-panel ray's estimate can
    miss (at t = 40, z = +-(1 - 1e-8), the error is 6.1e-12 against a
    certificate of 1.8e-12).
    """
    value, cert = specfun.chebyshev_from_bessel_integral(t, z)
    assert abs(value - oracles.chebyshev_mp(t, z)) <= cert <= 1e-10, (value, cert)


def test_integral_identity_one_bessel_call_on_both_rules(monkeypatch):
    sizes = []
    bessel_J = specfun.bessel_J

    def counted(nu, x):
        sizes.append(np.size(x))
        return bessel_J(nu, x)

    monkeypatch.setattr(specfun, "bessel_J", counted)
    specfun._identity_table.cache_clear()
    for z in (0.0, 0.25, -0.25, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0):
        specfun.chebyshev_from_bessel_integral(12, z)
    panels = len(specfun._identity_table(12)[0]) - 1
    assert sizes == [panels * (NODES + REFINED_NODES)]


def test_identity_integrand_sees_only_positive_nodes(monkeypatch):
    # the bulk divides by x and the ray by (1 - u) unguarded: every bulk node,
    # even on the panel that starts at 0, must be > 0 and every ray node < 1
    seen = []
    quad = specfun.panel_quad_with_error

    def recording(f, edges, *args):
        def recorded(x):
            seen.append(x.copy())
            return f(x)
        return quad(recorded, edges, *args)

    monkeypatch.setattr(specfun, "panel_quad_with_error", recording)
    for t in range(2, 21, 2):
        seen.clear()
        value, cert = specfun.chebyshev_from_bessel_integral(t, 0.5)
        bulk_nodes, ray_nodes = seen[:1], seen[1:]
        assert len(bulk_nodes) == len(ray_nodes) == 1
        assert ray_nodes[0].size == specfun._IDENTITY_RAY_PANELS * (NODES + REFINED_NODES)
        assert all(x.min() > 0.0 for x in bulk_nodes)
        assert all(u.min() > 0.0 and u.max() < 1.0 for u in ray_nodes)
        assert np.isfinite(value) and np.isfinite(cert)


def test_integral_identity_cache_is_bounded():
    info = specfun._identity_table.cache_info()
    assert info.maxsize == specfun.IDENTITY_TABLES < 100
    specfun._identity_table.cache_clear()
    for t in range(2, 2 * specfun.IDENTITY_TABLES + 10, 2):
        specfun.chebyshev_from_bessel_integral(t, 0.5)
    assert specfun._identity_table.cache_info().currsize == specfun.IDENTITY_TABLES
