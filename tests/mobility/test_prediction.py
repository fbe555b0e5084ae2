"""Tests for prediction evaluation (Figures 3 and 4 inputs)."""

import numpy as np
import pytest

from repro.core.errors import ValidationError
from repro.mobility.dataset import TransitionPair
from repro.mobility.markov import MarkovMobilityModel
from repro.mobility.prediction import (
    predicted_pos_samples,
    prediction_accuracy,
    prediction_accuracy_reference,
)


@pytest.fixture
def fitted_model():
    sequences = {
        0: [1, 2, 1, 2, 1, 3, 1, 2, 1, 2],
        1: [5, 6, 7, 5, 6, 7, 5, 6],
    }
    return MarkovMobilityModel.from_sequences(sequences)


class TestPredictionAccuracy:
    def test_perfect_when_m_covers_support(self, fitted_model):
        pairs = [TransitionPair(0, 1, 2), TransitionPair(0, 2, 1)]
        accuracy = prediction_accuracy(fitted_model, pairs, m_values=(3,))
        assert accuracy[3] == 1.0

    def test_top1_picks_modal_successor(self, fitted_model):
        # From 1, cell 2 is the most frequent successor.
        accuracy = prediction_accuracy(
            fitted_model, [TransitionPair(0, 1, 2)], m_values=(1,)
        )
        assert accuracy[1] == 1.0
        accuracy_miss = prediction_accuracy(
            fitted_model, [TransitionPair(0, 1, 3)], m_values=(1,)
        )
        assert accuracy_miss[1] == 0.0

    def test_accuracy_monotone_in_m(self, fitted_model):
        pairs = [
            TransitionPair(0, 1, 3),
            TransitionPair(0, 2, 1),
            TransitionPair(1, 5, 6),
            TransitionPair(1, 6, 5),
        ]
        accuracy = prediction_accuracy(fitted_model, pairs, m_values=(1, 2, 3))
        assert accuracy[1] <= accuracy[2] <= accuracy[3]

    def test_unknown_taxis_skipped(self, fitted_model):
        pairs = [TransitionPair(0, 1, 2), TransitionPair(99, 1, 2)]
        accuracy = prediction_accuracy(fitted_model, pairs, m_values=(1,))
        assert accuracy[1] == 1.0  # the unknown-taxi pair did not dilute

    def test_empty_pairs_rejected(self, fitted_model):
        with pytest.raises(ValidationError):
            prediction_accuracy(fitted_model, [])

    def test_all_unknown_taxis_rejected(self, fitted_model):
        with pytest.raises(ValidationError):
            prediction_accuracy(fitted_model, [TransitionPair(99, 1, 2)])

    def test_bad_m_rejected(self, fitted_model):
        with pytest.raises(ValidationError):
            prediction_accuracy(
                fitted_model, [TransitionPair(0, 1, 2)], m_values=(0,)
            )


class TestKernelEquality:
    """The batched Figure-3 path equals its per-pair oracle exactly."""

    def test_fig3_curve_identical_on_testbed(self, testbed):
        m_values = tuple(range(3, 16))
        vec = prediction_accuracy(testbed.model, testbed.dataset.held_out, m_values)
        ref = prediction_accuracy_reference(
            testbed.model, testbed.dataset.held_out, m_values
        )
        assert vec == ref  # exact float equality, not approx

    def test_kernels_agree_on_fallback_rows(self, fitted_model):
        # Current cell 9 was never visited by taxi 0: the oracle falls
        # back to a uniform row; the batched ranker must do the same.
        pairs = [TransitionPair(0, 9, 1), TransitionPair(0, 1, 2)]
        for m_values in ((1,), (1, 2, 3)):
            vec = prediction_accuracy(fitted_model, pairs, m_values)
            ref = prediction_accuracy_reference(fitted_model, pairs, m_values)
            assert vec == ref


class TestPosSamples:
    def test_one_sample_per_candidate_location(self, fitted_model):
        samples = predicted_pos_samples(fitted_model)
        # taxi 0 has 3 locations, taxi 1 has 3 locations.
        assert len(samples) == 6

    def test_samples_are_probabilities(self, fitted_model):
        samples = predicted_pos_samples(fitted_model)
        assert all(0.0 <= s <= 1.0 for s in samples)

    def test_explicit_current_cells(self, fitted_model):
        samples = predicted_pos_samples(fitted_model, current_cells={0: 1, 1: 5})
        profile_0 = fitted_model.pos_profile(0, 1)
        assert sorted(samples)[:3]  # non-empty
        assert set(np.round(sorted(profile_0.values()), 9)) <= set(
            np.round(sorted(samples), 9)
        )

    def test_default_uses_most_visited(self, fitted_model):
        # taxi 0's most visited cell is 1; profile from cell 1 must appear.
        samples = predicted_pos_samples(fitted_model)
        profile = fitted_model.pos_profile(0, 1)
        for value in profile.values():
            assert any(abs(value - s) < 1e-12 for s in samples)
