"""Dense full-state oracle: definitions and agreement with the reduced walk."""

from math import comb, fsum, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypercube_walk import full, walk


def test_full_start_n2():
    state = full.full_start(2)
    assert state.amp[0, 0] == pytest.approx(1 / np.sqrt(2))
    assert state.amp[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert np.all(state.amp[1:] == 0.0)


def test_full_start_n1_and_norm():
    state = full.full_start(1)
    assert state.amp[0, 0] == 1.0
    for n in (1, 3, 9):
        assert full.full_start(n).norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_full_start_rejects_out_of_range():
    with pytest.raises(ValueError):
        full.full_start(0)
    with pytest.raises(ValueError):
        full.full_start(17)


def test_full_step_n1_is_bit_flip():
    state = full.full_start(1)
    stepped = full.full_step(state)
    assert stepped.amp[1, 0] == pytest.approx(1.0)
    assert stepped.amp[0, 0] == 0.0


def test_full_step_n2_hand_calculation():
    # the coin at 0^n swaps the two direction amplitudes, the shift moves
    # |00,1> to |01... bit 0 flip -> vertex 1, and |00,2> to vertex 2
    state = full.full_step(full.full_start(2))
    assert state.amp[1, 0] == pytest.approx(1 / np.sqrt(2))
    assert state.amp[2, 1] == pytest.approx(1 / np.sqrt(2))
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-14)


def test_full_step_preserves_norm_of_random_states():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 10):
        amp = rng.standard_normal((2**n, n))
        amp /= np.linalg.norm(amp)
        state = full.FullState(n, amp)
        assert full.full_step(state).norm_sq() == pytest.approx(1.0, abs=1e-12)


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
    amp = rng.standard_normal((2**5, 5))
    amp /= np.linalg.norm(amp)
    projected = full.project_symmetric(full.FullState(5, amp))
    assert np.sum(projected**2) < 1.0


def test_full_vertex_probability_examples():
    probs = full.full_vertex_probabilities(full.full_start(4))
    assert probs.shape == (16,)
    assert probs[0] == pytest.approx(1.0)
    stepped = full.full_vertex_probabilities(full.full_step(full.full_start(2)))
    assert stepped[1] == pytest.approx(0.5)
    assert stepped.sum() == pytest.approx(1.0, abs=1e-12)


def test_vertices_within_level_have_equal_probability():
    state = full.full_start(8)
    for _ in range(9):
        state = full.full_step(state)
    probs = full.full_vertex_probabilities(state)
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
    dense_probs = full.full_vertex_probabilities(dense)
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
            dense_probs = full.full_vertex_probabilities(dense)
            for w, expected in enumerate(_vertex_probabilities(amps)):
                level = dense_probs[weights == w]
                assert np.abs(level - expected).max() < 1e-10
            dense = full.full_step(dense)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1))
def test_full_step_gather_equals_per_direction_loop(n, seed):
    # the shift is a pure permutation, so the gather must not move one bit
    amp = np.random.default_rng(seed).standard_normal((2**n, n))
    stepped = full.full_step(full.FullState(n, amp))
    assert np.array_equal(stepped.amp, oracles.full_step_per_direction(amp))


def test_full_step_gather_equals_per_direction_loop_along_a_walk():
    for n in (1, 2, 7, 12):
        state = full.full_start(n)
        for _ in range(12):
            expected = oracles.full_step_per_direction(state.amp)
            state = full.full_step(state)
            assert np.array_equal(state.amp, expected)


def _sector_terms(amp):
    """Per level w: the amplitudes of the outgoing and of the incoming sector."""
    n = amp.shape[1]
    weights = np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(int)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    rows = []
    for w in range(n + 1):
        level = amp[weights == w]
        level_bits = bits[weights == w]
        rows.append([level[level_bits == sector] for sector in (0, 1)])
    return rows


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_project_symmetric_within_recursive_summation_budget(n):
    u = 2.0**-53
    rng = np.random.default_rng(n)
    states = [rng.standard_normal((2**n, n))]
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
