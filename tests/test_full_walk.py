"""Dense full-state oracle: definitions and agreement with the reduced walk."""

import tracemalloc
from math import comb, fsum, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypercube_walk import full, walk


def test_full_start_n2():
    state = full.full_start(2)
    assert state.amp.shape == (2, 4)  # direction-major: amp[i, x]
    assert state.amp[0, 0] == pytest.approx(1 / np.sqrt(2))
    assert state.amp[1, 0] == pytest.approx(1 / np.sqrt(2))
    assert np.all(state.amp[:, 1:] == 0.0)


def test_full_start_n1_and_norm():
    state = full.full_start(1)
    assert state.amp[0, 0] == 1.0
    for n in (1, 3, 9):
        assert np.sum(full.full_start(n).amp**2) == pytest.approx(1.0, abs=1e-15)


def test_full_start_rejects_out_of_range():
    with pytest.raises(ValueError):
        full.full_start(0)
    with pytest.raises(ValueError):
        full.full_start(17)


def test_full_step_n1_is_bit_flip():
    state = full.full_start(1)
    stepped = full.full_step(state)
    assert stepped.amp[0, 1] == pytest.approx(1.0)
    assert stepped.amp[0, 0] == 0.0


def test_full_step_n2_hand_calculation():
    # the coin at 0^n swaps the two direction amplitudes, the shift moves
    # |00,1> to |01... bit 0 flip -> vertex 1, and |00,2> to vertex 2
    state = full.full_step(full.full_start(2))
    assert state.amp[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert state.amp[1, 2] == pytest.approx(1 / np.sqrt(2))
    assert np.sum(state.amp**2) == pytest.approx(1.0, abs=1e-14)


def test_full_step_preserves_norm_of_random_states():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 10):
        amp = rng.standard_normal((n, 2**n))
        amp /= np.linalg.norm(amp)
        state = full.FullState(n, amp)
        assert np.sum(full.full_step(state).amp**2) == pytest.approx(1.0, abs=1e-12)


def test_project_symmetric_start():
    alpha_right, alpha_left = full.project_symmetric(full.full_start(6))
    assert alpha_right[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(alpha_left).max() < 1e-14


def test_project_symmetric_n2_after_two_steps():
    state = full.full_start(2)
    for _ in range(2):
        state = full.full_step(state)
    projected = full.project_symmetric(state)
    assert projected.shape == (2, 3)
    assert projected[1, 2] == pytest.approx(1.0, abs=1e-13)


def test_projection_of_random_state_loses_norm():
    rng = np.random.default_rng(11)
    amp = rng.standard_normal((5, 2**5))
    amp /= np.linalg.norm(amp)
    projected = full.project_symmetric(full.FullState(5, amp))
    assert np.sum(projected**2) < 1.0


def test_full_vertex_probability_examples():
    probs = np.sum(full.full_start(4).amp**2, axis=0)
    assert probs.shape == (16,)
    assert probs[0] == pytest.approx(1.0)
    stepped = np.sum(full.full_step(full.full_start(2)).amp**2, axis=0)
    assert stepped[1] == pytest.approx(0.5)
    assert stepped.sum() == pytest.approx(1.0, abs=1e-12)


def test_vertices_within_level_have_equal_probability():
    state = full.full_start(8)
    for _ in range(9):
        state = full.full_step(state)
    probs = np.sum(state.amp**2, axis=0)
    weights = np.bitwise_count(np.arange(2**8, dtype=np.uint64)).astype(int)
    for w in range(9):
        level = probs[weights == w]
        assert level.max() - level.min() < 1e-12


def _vertex_probabilities(amps):
    """Per-level vertex probability P_w / C(n, w) of a (2, n+1) amplitude row."""
    n = amps.shape[-1] - 1
    return np.sum(amps * amps, axis=0) / [comb(n, w) for w in range(n + 1)]


def test_vertex_probabilities_n10_t4_match_oracle():
    dense = full.full_start(10)
    for _ in range(4):
        dense = full.full_step(dense)
    weights = np.bitwise_count(np.arange(2**10, dtype=np.uint64)).astype(int)
    dense_probs = np.sum(dense.amp**2, axis=0)
    for w, expected in enumerate(_vertex_probabilities(walk.trajectory(10, 4)[4])):
        assert np.abs(dense_probs[weights == w] - expected).max() < 1e-10
    # the scan's maximum is the largest of them
    scan = walk.scan([10], 4)
    assert dense_probs.max() == pytest.approx(scan.max_vertex_prob[4, 0], abs=1e-10)


def test_oracle_agreement_amplitudes_and_vertex_probabilities():
    for n in (1, 2, 4, 6):
        dense = full.full_start(n)
        weights = np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(int)
        for t, amps in enumerate(walk.trajectory(n, 15)):
            projected = full.project_symmetric(dense)
            assert np.abs(projected - amps).max() < 1e-10
            # residual outside the symmetric subspace stays negligible
            assert abs(np.sum(projected**2) - 1.0) < 1e-12
            dense_probs = np.sum(dense.amp**2, axis=0)
            for w, expected in enumerate(_vertex_probabilities(amps)):
                level = dense_probs[weights == w]
                assert np.abs(level - expected).max() < 1e-10
            dense = full.full_step(dense)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1))
def test_full_step_gather_equals_per_direction_loop(n, seed):
    # the shift is a pure permutation, so the gather must not move one bit
    amp = np.random.default_rng(seed).standard_normal((n, 2**n))
    stepped = full.full_step(full.FullState(n, amp))
    assert np.array_equal(stepped.amp, oracles.full_step_per_direction(amp))


def test_full_step_gather_equals_per_direction_loop_along_a_walk():
    for n in (1, 2, 7, 12):
        state = full.full_start(n)
        for _ in range(12):
            expected = oracles.full_step_per_direction(state.amp)
            state = full.full_step(state)
            assert np.array_equal(state.amp, expected)


def _stepwise_projections(n, t_max):
    state = full.full_start(n)
    rows = [full.project_symmetric(state)]
    for _ in range(t_max):
        state = full.full_step(state)
        rows.append(full.project_symmetric(state))
    return np.array(rows)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(min_value=1, max_value=12), t_max=st.integers(min_value=0, max_value=40))
def test_trajectory_equals_stepwise_loop_bit_for_bit(n, t_max):
    projected = full.trajectory(n, t_max)
    assert projected.shape == (t_max + 1, 2, n + 1)
    assert np.array_equal(projected, _stepwise_projections(n, t_max))


@pytest.mark.parametrize("n, t_max", [(0, 5), (17, 5), (16, -1), (3, -2)])
def test_trajectory_refuses_bad_arguments_before_allocating(n, t_max):
    # a state at n = 16 is 8 MiB, so a check after the first allocation
    # would show in the peak
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            full.trajectory(n, t_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_trajectory_holds_no_state_per_step():
    # two arrays of one half state each (the state and the coined buffer),
    # one (2^(n-1),) direction sum and the result: measured 1.23 states of
    # 384 KiB plus the result.  Keeping every step's state would take about
    # 20 MB here, a natural-order state (2^n columns) one more state, and
    # read-only index tables, which np.take and np.bincount copy on every
    # call, half a state more each.  The per-n index tables are filled first.
    n, t_max = 12, 100
    state_bytes = n * 2**n * 8  # 384 KiB
    full.trajectory(n, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        projected = full.trajectory(n, t_max)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * state_bytes + projected.nbytes


@settings(deadline=None, max_examples=30)
@given(n=st.integers(min_value=1, max_value=12), t_max=st.integers(min_value=0, max_value=30))
def test_walk_from_the_origin_is_exactly_positive_zero_off_its_parity(n, t_max):
    # the hypercube is bipartite: after t steps from 0^n only the vertices of
    # parity t mod 2 hold amplitude; the others hold exactly +0.0, which adds
    # nothing to a level sum, so trajectory steps and projects one half only
    parity = np.bitwise_count(np.arange(2**n, dtype=np.uint64)) & 1
    state = full.full_start(n)
    for t in range(t_max + 1):
        off = state.amp[:, parity != t % 2]
        assert np.all(off == 0.0) and not np.any(np.signbit(off)), t
        state = full.full_step(state)


def _sector_terms(amp):
    """Per level w: the amplitudes of the outgoing and of the incoming sector."""
    n = amp.shape[0]
    weights = np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(int)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    rows = []
    for w in range(n + 1):
        level = amp.T[weights == w]
        level_bits = bits[weights == w]
        rows.append([level[level_bits == sector] for sector in (0, 1)])
    return rows


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_project_symmetric_within_recursive_summation_budget(n):
    u = 2.0**-53
    rng = np.random.default_rng(n)
    states = [rng.standard_normal((n, 2**n))]
    walked = full.full_start(n)
    for _ in range(3 * n):
        walked = full.full_step(walked)
    states.append(walked.amp)
    for amp in states:
        projected = full.project_symmetric(full.FullState(n, amp))
        for w, sectors in enumerate(_sector_terms(amp)):
            for alpha, terms, size in zip(
                projected[:, w],
                sectors,
                (comb(n, w) * (n - w), comb(n, w) * w),
            ):
                assert len(terms) == size
                if size == 0:
                    assert alpha == 0.0
                    continue
                norm = sqrt(size)
                exact = fsum(terms) / norm
                # (N-1) u sum|a| for the sum; a few u of |exact| cover the
                # division and the two roundings of the reference itself
                budget = (size - 1) * u * fsum(abs(terms)) / norm + 4 * u * abs(exact)
                assert abs(alpha - exact) <= budget
