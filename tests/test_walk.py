"""Symmetric-subspace simulator: definitions, invariants, hand examples."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hypercube_walk import walk


def _norm_sq(amps):
    """Squared norm of each (alpha_right, alpha_left) row on the last two axes."""
    return np.sum(amps * amps, axis=(-2, -1))


def _level_probabilities(amps):
    return np.sum(amps * amps, axis=-2)


def _start(n):
    """The oracle's start state as a ``walk.SymmetricState``."""
    return walk.SymmetricState(n, *next(oracles.stepwise_walk(n, 0)))


def test_start_state_n5():
    assert walk.trajectory(5, 0)[0].tolist() == [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]


def test_start_state_n1():
    assert walk.trajectory(1, 0)[0].tolist() == [[1, 0], [0, 0]]


@pytest.mark.parametrize("n", [1, 2, 7, 33, 60])
def test_start_state_normalized(n):
    assert _norm_sq(walk.trajectory(n, 0)[0]) == pytest.approx(1.0, abs=1e-15)


def test_start_state_rejects_zero():
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        walk.trajectory(0, 0)


def test_walk_params_validation():
    with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
        walk._check(0, 5)
    with pytest.raises(ValueError, match="t_max must be >= 0, got -1"):
        walk._check(3, -1)
    walk._check(1, 0)


def _coin(n, w):
    """The coin of level w from ``_coin_diagonals``, as a 2x2 matrix."""
    diag_right, off, diag_left = walk._coin_diagonals(n)
    return np.array([[diag_right[w], off[w]], [off[w], diag_left[w]]])


def test_coin_n2_w1_is_swap():
    assert oracles.coin(2, 1).tolist() == [[0, 1], [1, 0]]
    assert _coin(2, 1).tolist() == [[0, 1], [1, 0]]


def test_coin_n2_w0_degenerate():
    assert oracles.coin(2, 0).tolist() == [[1, 0], [0, -1]]
    assert _coin(2, 0).tolist() == [[1, 0], [0, -1]]


def test_coin_n4_w1():
    expected = np.array([[0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]])
    assert np.allclose(oracles.coin(4, 1), expected, atol=1e-15)
    assert np.array_equal(_coin(4, 1), oracles.coin(4, 1))


def test_coin_orthogonal_up_to_n100():
    for n in range(1, 101):
        for w in range(n + 1):
            c = _coin(n, w)
            assert np.array_equal(c, oracles.coin(n, w))
            assert np.max(np.abs(c @ c.T - np.eye(2))) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_coin_diagonals_are_cached_and_read_only(n):
    diagonals = walk._coin_diagonals(n)
    assert walk._coin_diagonals(n) is diagonals
    for array in diagonals:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    for w in range(n + 1):
        assert _coin(n, w).tolist() == oracles.coin(n, w).tolist()


def test_step_n2_hand_calculation():
    state = walk.step(_start(2))
    assert state.alpha_left[1] == pytest.approx(1.0, abs=1e-15)
    assert abs(state.alpha_right).max() == 0.0
    state = walk.step(state)
    assert state.alpha_left[2] == pytest.approx(1.0, abs=1e-15)
    assert state.alpha_right[0] ** 2 + state.alpha_left[0] ** 2 == 0.0


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_step_preserves_norm_of_random_states(n, seed):
    rng = np.random.default_rng(seed)
    alpha_right = rng.standard_normal(n + 1)
    alpha_left = rng.standard_normal(n + 1)
    alpha_right[n] = 0.0
    alpha_left[0] = 0.0
    scale = np.sqrt(alpha_right @ alpha_right + alpha_left @ alpha_left)
    state = walk.SymmetricState(n, alpha_right / scale, alpha_left / scale)
    stepped = walk.step(state)
    assert _norm_sq(np.array([stepped.alpha_right, stepped.alpha_left])) == \
        pytest.approx(1.0, abs=1e-12)


def test_norm_preserved_along_long_trajectory():
    assert np.abs(_norm_sq(walk.trajectory(50, 200)) - 1.0).max() <= 1e-12


def test_level_probability_examples():
    assert _level_probabilities(walk.trajectory(7, 0)[0])[0] == 1.0
    levels = _level_probabilities(walk.trajectory(2, 2)[2])
    assert levels[2] == pytest.approx(1.0, abs=1e-15)
    assert levels[0] == 0.0


def test_level_probabilities_sum_to_one():
    for levels in _level_probabilities(walk.trajectory(13, 40)):
        assert levels.sum() == pytest.approx(1.0, abs=1e-12)


def test_vertex_probability_divides_by_binomial():
    # the scan's maximum and its level are those of P_w / C(n, w) on the trajectory
    scan = walk.scan([6], 9)
    for t, levels in enumerate(_level_probabilities(walk.trajectory(6, 9))):
        per_vertex = [levels[w] / comb(6, w) for w in range(7)]
        w_best = int(np.argmax(per_vertex))
        assert scan.argmax_w[t, 0] == w_best
        assert scan.max_vertex_prob[t, 0] == per_vertex[w_best]
        assert scan.p0[t, 0] == levels[0]


def test_parity_levels_bitwise_zero():
    for t, levels in enumerate(_level_probabilities(walk.trajectory(9, 25))):
        off_parity = levels[np.arange(10) % 2 != t % 2]
        assert np.all(off_parity == 0.0)


def test_unreachable_levels_bitwise_zero():
    for t, levels in enumerate(_level_probabilities(walk.trajectory(14, 10))):
        assert np.all(levels[t + 1:] == 0.0)


@pytest.mark.parametrize("t_max", [0, 1, 100])
@pytest.mark.parametrize("n", [1, 2, 13, 60])
def test_trajectory_equals_repeated_step_bit_for_bit(n, t_max):
    amps = walk.trajectory(n, t_max)
    assert amps.shape == (t_max + 1, 2, n + 1)
    state = _start(n)
    for t in range(t_max + 1):
        for got, want in zip(amps[t], (state.alpha_right, state.alpha_left)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))  # signed zeros too
        state = walk.step(state)


def test_trajectory_validates():
    with pytest.raises(ValueError):
        walk.trajectory(0, 5)
    with pytest.raises(ValueError):
        walk.trajectory(3, -1)


def test_scan_n2_max_probabilities():
    scan = walk.scan([2], 2)
    assert scan.max_vertex_prob[:, 0].tolist() == pytest.approx([1.0, 0.5, 1.0])
    assert scan.argmax_w[:, 0].tolist() == [0, 1, 2]


def test_scan_t0_row():
    scan = walk.scan([17], 0)
    assert [field.shape for field in scan] == [(1, 1)] * 3
    assert (scan.p0[0, 0], scan.max_vertex_prob[0, 0], scan.argmax_w[0, 0]) == (1.0, 1.0, 0)


def test_scan_n50_minimum_location_and_depth():
    t_best, p_best = walk.t_min(walk.scan([50], 100).max_vertex_prob[:, 0])
    assert abs(t_best - (-0.754 + 0.849 * 50)) <= 2
    assert 1e-15 <= p_best <= 1e-13
    assert p_best <= 5 * 1.93**-50


@pytest.mark.parametrize("n", [1, 2, 13, 60])
def test_scan_equals_stepwise_reference_exactly(n):
    for field, expected in zip(walk.scan([n], 150), oracles.stepwise_scan([n], 150)):
        assert field.dtype == expected.dtype and np.array_equal(field, expected)


@settings(deadline=None, max_examples=25)
@given(
    ns=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6),
    t_max=st.integers(min_value=0, max_value=300),
)
def test_scans_rows_equal_single_dimension_scans(ns, t_max):
    # array_equal on the float fields: padding (a wrong padding binomial, say)
    # and batch-mates must not move one bit of a dimension's column
    batch = walk.scan(ns, t_max)
    for column, n in enumerate(ns):
        alone = walk.scan([n], t_max)
        for field, lone in zip(batch, alone):
            assert np.array_equal(field[:, column], lone[:, 0])


def _block_length(ns):
    return max(2, walk.BLOCK_ELEMENTS // (len(ns) * (max(ns) + 1)))


@st.composite
def _scan_at_block_edges(draw):
    ns = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=5))
    ns = draw(st.permutations(ns + draw(st.sampled_from([[], [1], [60], [1, 60]]))))
    blocks = draw(st.integers(min_value=1, max_value=3))
    t_max = blocks * _block_length(ns) + draw(st.sampled_from([-1, 0, 1]))
    return ns, t_max


@settings(deadline=None, max_examples=20)
@given(case=_scan_at_block_edges())
@example(case=([1], 2 * _block_length([1]) - 1))
@example(case=([60], _block_length([60])))
@example(case=([60, 1], 3 * _block_length([60, 1]) + 1))
def test_scan_arrays_equal_the_reference_loop_bit_for_bit(case):
    # block edges: the last block is full, holds one step, or holds two
    ns, t_max = case
    got = walk.scan(ns, t_max)
    want = oracles.stepwise_scan(ns, t_max)
    for field, expected in zip(got, want):
        assert field.dtype == expected.dtype and np.array_equal(field, expected)
    for field, expected in zip(got[:2], want[:2]):
        assert np.array_equal(np.signbit(field), np.signbit(expected))


@pytest.mark.parametrize("n", [1, 2, 3, 60])
def test_step_equals_the_reference_coin_shift_bit_for_bit(n):
    state = _start(n)
    for alpha_right, alpha_left in itertools.islice(oracles.stepwise_walk(n, 300), 1, None):
        state = walk.step(state)
        for got, want in ((state.alpha_right, alpha_right), (state.alpha_left, alpha_left)):
            assert got.shape == (n + 1,)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))  # signed zeros too


@pytest.mark.parametrize("ns, t_max, limit", [
    (range(2, 61), 1000, 640_000),
    ([60], 3000, 200_000),
])
def test_scan_arrays_transient_memory_is_bounded(ns, t_max, limit):
    # beyond its three outputs, a scan holds a block of B steps' states and
    # two buffers of their squares, 4 B rows*width floats (at most
    # 4 walk.BLOCK_ELEMENTS unless B is the floor of 2), plus tables per level:
    # 580 kB for 59 dimensions of up to 61 levels (B = 2) and 172 kB for one
    # dimension of 61 levels (B = 67).  A doubled budget fails the second.
    walk.scan(ns, t_max)  # fill the per-n caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        arrays = walk.scan(ns, t_max)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - sum(field.nbytes for field in arrays) <= limit


def test_scans_validates_at_call():
    # a bad dimension anywhere in the batch, or a negative t_max, is refused
    # before any step is taken
    with pytest.raises(ValueError):
        walk.scan([3, 0, 5], 10)
    with pytest.raises(ValueError):
        walk.scan([3], -1)


def _in_parity(t, parity):
    return parity == "all" or t % 2 == (parity == "odd")


def test_parity_steps():
    assert list(range(5)[walk._parity_steps("even")]) == [0, 2, 4]
    assert list(range(5)[walk._parity_steps("odd")]) == [1, 3]
    assert list(range(5)[walk._parity_steps("all")]) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        walk._parity_steps("bogus")


def test_t_min_tie_breaks_to_first():
    assert walk.t_min(np.full(4, 0.5)) == (0, 0.5)


def test_t_min_parity_filter():
    column = walk.scan([12], 30).max_vertex_prob[:, 0]
    t_even, _ = walk.t_min(column, parity="even")
    t_odd, _ = walk.t_min(column, parity="odd")
    assert t_even % 2 == 0 and t_odd % 2 == 1
    with pytest.raises(ValueError):
        walk.t_min(column, parity="bogus")
    with pytest.raises(ValueError):
        walk.t_min(np.array([]))


@settings(deadline=None, max_examples=200)
@given(
    # few distinct values, so ties are common
    values=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1e-300, 3e-17, 1.0]), max_size=12),
    parity=st.sampled_from(["all", "even", "odd"]),
)
def test_t_min_array_equals_brute_force(values, parity):
    candidates = [(v, t) for t, v in enumerate(values) if _in_parity(t, parity)]
    if not candidates:
        with pytest.raises(ValueError, match="empty profile"):
            walk.t_min(np.array(values), parity)
        return
    value, t = min(candidates)
    assert walk.t_min(np.array(values), parity) == (t, value)
    assert walk.t_min(values, parity) == (t, value)


@pytest.mark.parametrize("parity", ["all", "even", "odd"])
@pytest.mark.parametrize("horizon", [0, 1, 2])
def test_t_min_array_short_horizons(parity, horizon):
    values = np.array([1.0, 0.5, 0.5][: horizon + 1])
    if parity == "odd" and horizon == 0:
        with pytest.raises(ValueError, match="empty profile"):
            walk.t_min(values, parity)
        return
    t = {"all": min(horizon, 1), "even": 0 if horizon < 2 else 2, "odd": 1}[parity]
    assert walk.t_min(values, parity) == (t, values[t])


def test_t_min_array_takes_a_scan_arrays_column():
    # against the first minimum of the oracle's stepwise column, one step at a time
    arrays = walk.scan([7, 12], 30)
    _, reference, _ = oracles.stepwise_scan([7, 12], 30)
    for column in range(2):
        for parity in ("all", "even", "odd"):
            steps = [t for t in range(31) if _in_parity(t, parity)]
            t_best = min(steps, key=lambda t: (reference[t, column], t))
            assert walk.t_min(arrays.max_vertex_prob[:, column], parity) == \
                (t_best, reference[t_best, column])


def test_scan_arrays_validation():
    with pytest.raises(ValueError):
        walk.scan([], 10)
    with pytest.raises(ValueError):
        walk.scan([3], -1)
    assert walk.scan([3, 5], 4).p0.shape == (5, 2)


def test_lemma1_chain_inequalities_hold_on_trajectories():
    from hypercube_walk import bounds

    for n in (3, 5, 8, 12, 20):
        coin_margin, shift_margin = bounds.lemma1_chain_margins(walk.trajectory(n, 26))
        assert coin_margin >= -1e-15
        assert shift_margin >= -1e-15
