"""Symmetric-subspace simulator: definitions, invariants, hand examples."""

import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercube_walk import walk


def test_start_state_n5():
    state = walk.start_state(5)
    assert state.alpha_right.tolist() == [1, 0, 0, 0, 0, 0]
    assert state.alpha_left.tolist() == [0, 0, 0, 0, 0, 0]


def test_start_state_n1():
    state = walk.start_state(1)
    assert state.alpha_right.tolist() == [1, 0]
    assert state.alpha_left.tolist() == [0, 0]


@pytest.mark.parametrize("n", [1, 2, 7, 33, 60])
def test_start_state_normalized(n):
    assert walk.start_state(n).norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_start_state_rejects_zero():
    with pytest.raises(ValueError):
        walk.start_state(0)


def test_walk_params_validation():
    with pytest.raises(ValueError):
        walk.WalkParams(0, 5)
    with pytest.raises(ValueError):
        walk.WalkParams(3, -1)


def test_coin_n2_w1_is_swap():
    assert walk.coin_matrix(2, 1).tolist() == [[0, 1], [1, 0]]


def test_coin_n2_w0_degenerate():
    assert walk.coin_matrix(2, 0).tolist() == [[1, 0], [0, -1]]


def test_coin_n4_w1():
    expected = np.array([[0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]])
    assert np.allclose(walk.coin_matrix(4, 1), expected, atol=1e-15)


def test_coin_rejects_out_of_range():
    with pytest.raises(ValueError):
        walk.coin_matrix(4, -1)
    with pytest.raises(ValueError):
        walk.coin_matrix(4, 5)


def test_coin_orthogonal_up_to_n100():
    for n in range(1, 101):
        for w in range(n + 1):
            c = walk.coin_matrix(n, w)
            assert np.max(np.abs(c @ c.T - np.eye(2))) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_coin_diagonals_are_cached_and_read_only(n):
    diagonals = walk._coin_diagonals(n)
    assert walk._coin_diagonals(n) is diagonals
    for array in diagonals:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    diag_right, off, diag_left = diagonals
    for w in range(n + 1):
        assert walk.coin_matrix(n, w).tolist() == [[diag_right[w], off[w]],
                                                   [off[w], diag_left[w]]]


def test_step_n2_hand_calculation():
    state = walk.step(walk.start_state(2))
    assert state.alpha_left[1] == pytest.approx(1.0, abs=1e-15)
    assert abs(state.alpha_right).max() == 0.0
    state = walk.step(state)
    assert state.alpha_left[2] == pytest.approx(1.0, abs=1e-15)
    assert walk.level_probabilities(state)[0] == 0.0


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
    assert stepped.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_norm_preserved_along_long_trajectory():
    state = walk.start_state(50)
    for _ in range(200):
        state = walk.step(state)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)


def _states(n, t_max):
    """The rows of walk.trajectory as single states."""
    return [walk.SymmetricState(n, *amps) for amps in walk.trajectory(n, t_max)]


def test_level_probability_examples():
    assert walk.level_probabilities(walk.start_state(7))[0] == 1.0
    levels = walk.level_probabilities(_states(2, 2)[2])
    assert levels[2] == pytest.approx(1.0, abs=1e-15)
    assert levels[0] == 0.0


def test_level_probabilities_sum_to_one():
    for state in _states(13, 40):
        assert walk.level_probabilities(state).sum() == pytest.approx(1.0, abs=1e-12)


def test_vertex_probability_divides_by_binomial():
    for state in _states(6, 9):
        levels = walk.level_probabilities(state)
        per_vertex = walk.vertex_probabilities(state)
        for w in range(7):
            assert per_vertex[w] == pytest.approx(levels[w] / comb(6, w), abs=1e-15)


def test_parity_levels_bitwise_zero():
    for t, state in enumerate(_states(9, 25)):
        levels = walk.level_probabilities(state)
        off_parity = levels[np.arange(10) % 2 != t % 2]
        assert np.all(off_parity == 0.0)


def test_unreachable_levels_bitwise_zero():
    for t, state in enumerate(_states(14, 10)):
        levels = walk.level_probabilities(state)
        assert np.all(levels[t + 1:] == 0.0)


@pytest.mark.parametrize("t_max", [0, 1, 100])
@pytest.mark.parametrize("n", [1, 2, 13, 60])
def test_trajectory_equals_repeated_step_bit_for_bit(n, t_max):
    amps = walk.trajectory(n, t_max)
    assert amps.shape == (t_max + 1, 2, n + 1)
    state = walk.start_state(n)
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
    profile = walk.scan(walk.WalkParams(2, 2))
    assert [row.max_vertex_prob for row in profile] == pytest.approx([1.0, 0.5, 1.0])
    assert [row.argmax_w for row in profile] == [0, 1, 2]


def test_scan_t0_row():
    row = walk.scan(walk.WalkParams(17, 0))[0]
    assert row.t == 0 and row.p0 == 1.0 and row.max_vertex_prob == 1.0 and row.argmax_w == 0


def test_scan_n50_minimum_location_and_depth():
    profile = walk.scan(walk.WalkParams(50, 100))
    t_best, p_best = walk.t_min(profile)
    assert abs(t_best - (-0.754 + 0.849 * 50)) <= 2
    assert 1e-15 <= p_best <= 1e-13
    assert p_best <= 5 * 1.93**-50


def _stepwise_scan(n, t_max):
    """Reference: one walk stepped alone through the public single-state API."""
    state = walk.start_state(n)
    rows = []
    for t in range(t_max + 1):
        per_vertex = walk.vertex_probabilities(state)
        w_best = int(np.argmax(per_vertex))
        rows.append(walk.ProbabilityProfile(
            t, float(walk.level_probabilities(state)[0]), float(per_vertex[w_best]), w_best))
        state = walk.step(state)
    return rows


@pytest.mark.parametrize("n", [1, 2, 13, 60])
def test_scan_equals_stepwise_reference_exactly(n):
    assert walk.scan(walk.WalkParams(n, 150)) == _stepwise_scan(n, 150)


@settings(deadline=None, max_examples=25)
@given(
    ns=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6),
    t_max=st.integers(min_value=0, max_value=300),
)
def test_scans_rows_equal_single_dimension_scans(ns, t_max):
    # array_equal on the float fields: padding (a wrong padding binomial, say)
    # and batch-mates must not move one bit of a dimension's column
    batch = walk.scan_arrays(ns, t_max)
    for column, n in enumerate(ns):
        alone = walk.scan_arrays([n], t_max)
        for field, lone in zip(batch, alone):
            assert np.array_equal(field[:, column], lone[:, 0])


def _reference_coin_shift(n, alpha_right, alpha_left):
    """Coin then shift with fresh arrays, one row per walk, levels padded to the last axis."""
    width = alpha_right.shape[-1]
    coins = np.zeros((3, np.size(n), width))
    for row, m in enumerate(np.atleast_1d(n)):
        for w in range(m + 1):
            coin = walk.coin_matrix(m, w)
            coins[:, row, w] = coin[0, 0], coin[0, 1], coin[1, 1]
    diag_right, off, diag_left = coins.reshape(3, *alpha_right.shape)
    beta_right = diag_right * alpha_right + off * alpha_left
    beta_left = off * alpha_right + diag_left * alpha_left
    new_right = np.zeros(alpha_right.shape)
    new_left = np.zeros(alpha_left.shape)
    new_left[..., 1:] = beta_right[..., :-1]
    new_right[..., :-1] = beta_left[..., 1:]
    return new_right, new_left


def _reference_scan_arrays(ns, t_max):
    """scan_arrays as one walk step and one set of statistics at a time."""
    width = max(ns) + 1
    binom = np.ones((len(ns), width))
    for row, n in enumerate(ns):
        binom[row, : n + 1] = [comb(n, w) for w in range(n + 1)]
    alpha_right = np.zeros((len(ns), width))
    alpha_left = np.zeros((len(ns), width))
    alpha_right[:, 0] = 1.0
    rows = np.arange(len(ns))
    p0, peak = np.empty((2, t_max + 1, len(ns)))
    argmax = np.empty((t_max + 1, len(ns)), dtype=np.intp)
    for t in range(t_max + 1):
        levels = alpha_right**2 + alpha_left**2
        per_vertex = levels / binom
        argmax[t] = np.argmax(per_vertex, axis=1)
        p0[t] = levels[:, 0]
        peak[t] = per_vertex[rows, argmax[t]]
        alpha_right, alpha_left = _reference_coin_shift(ns, alpha_right, alpha_left)
    return walk.ScanArrays(p0, peak, argmax)


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
    got = walk.scan_arrays(ns, t_max)
    want = _reference_scan_arrays(ns, t_max)
    for field, expected in zip(got, want):
        assert field.dtype == expected.dtype and np.array_equal(field, expected)
    for field, expected in zip(got[:2], want[:2]):
        assert np.array_equal(np.signbit(field), np.signbit(expected))


@pytest.mark.parametrize("n", [1, 2, 3, 60])
def test_step_equals_the_reference_coin_shift_bit_for_bit(n):
    state = walk.start_state(n)
    alpha_right, alpha_left = state.alpha_right, state.alpha_left
    for _ in range(300):
        state = walk.step(state)
        alpha_right, alpha_left = _reference_coin_shift(n, alpha_right, alpha_left)
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
    walk.scan_arrays(ns, t_max)  # fill the per-n caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        arrays = walk.scan_arrays(ns, t_max)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - sum(field.nbytes for field in arrays) <= limit


def test_scans_validates_at_call():
    # a bad dimension anywhere in the batch, or a negative t_max, is refused
    # before any step is taken
    with pytest.raises(ValueError):
        walk.scan_arrays([3, 0, 5], 10)
    with pytest.raises(ValueError):
        walk.scan_arrays([3], -1)


def _in_parity(t, parity):
    return parity == "all" or t % 2 == (parity == "odd")


def test_parity_steps():
    assert list(range(5)[walk._parity_steps("even")]) == [0, 2, 4]
    assert list(range(5)[walk._parity_steps("odd")]) == [1, 3]
    assert list(range(5)[walk._parity_steps("all")]) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        walk._parity_steps("bogus")


def test_t_min_tie_breaks_to_first():
    rows = [walk.ProbabilityProfile(t, 1.0, 0.5, 0) for t in range(4)]
    assert walk.t_min(rows) == (0, 0.5)


def test_t_min_parity_filter():
    profile = walk.scan(walk.WalkParams(12, 30))
    t_even, _ = walk.t_min(profile, parity="even")
    t_odd, _ = walk.t_min(profile, parity="odd")
    assert t_even % 2 == 0 and t_odd % 2 == 1
    with pytest.raises(ValueError):
        walk.t_min(profile, parity="bogus")
    with pytest.raises(ValueError):
        walk.t_min([])


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
            walk.t_min_array(np.array(values), parity)
        return
    value, t = min(candidates)
    assert walk.t_min_array(np.array(values), parity) == (t, value)
    profile = [walk.ProbabilityProfile(t, 1.0, v, 0) for t, v in enumerate(values)]
    assert walk.t_min(profile, parity) == (t, value)


@pytest.mark.parametrize("parity", ["all", "even", "odd"])
@pytest.mark.parametrize("horizon", [0, 1, 2])
def test_t_min_array_short_horizons(parity, horizon):
    values = np.array([1.0, 0.5, 0.5][: horizon + 1])
    if parity == "odd" and horizon == 0:
        with pytest.raises(ValueError, match="empty profile"):
            walk.t_min_array(values, parity)
        return
    t = {"all": min(horizon, 1), "even": 0 if horizon < 2 else 2, "odd": 1}[parity]
    assert walk.t_min_array(values, parity) == (t, values[t])


def test_t_min_array_takes_a_scan_arrays_column():
    arrays = walk.scan_arrays([7, 12], 30)
    for column, n in enumerate([7, 12]):
        profile = walk.scan(walk.WalkParams(n, 30))
        for parity in ("all", "even", "odd"):
            assert walk.t_min_array(arrays.max_vertex_prob[:, column], parity) == \
                walk.t_min(profile, parity)


def test_scan_arrays_validation():
    with pytest.raises(ValueError):
        walk.scan_arrays([], 10)
    with pytest.raises(ValueError):
        walk.scan_arrays([3], -1)
    assert walk.scan_arrays([3, 5], 4).p0.shape == (5, 2)


def test_lemma1_chain_inequalities_hold_on_trajectories():
    from hypercube_walk import bounds

    for n in (3, 5, 8, 12, 20):
        coin_margin, shift_margin = bounds.lemma1_chain_margins(walk.trajectory(n, 26))
        assert coin_margin >= -1e-15
        assert shift_margin >= -1e-15
