"""Tests for replay-based configuration evaluation (§3.2)."""

import numpy as np
import pytest

from repro.exits.evaluation import WindowBuffer, evaluate_thresholds
from repro.models.prediction import RampObservation


def simple_window():
    """Three samples, two ramps at depths 0.3 and 0.7.

    Sample 0: easy (confident and correct at both ramps).
    Sample 1: medium (confident+correct only at the late ramp).
    Sample 2: hard (never confident; early ramp would be wrong).
    """
    errors = np.array([
        [0.1, 0.05],
        [0.8, 0.2],
        [0.9, 0.7],
    ])
    correct = np.array([
        [True, True],
        [False, True],
        [False, False],
    ])
    depths = [0.3, 0.7]
    overheads = [0.1, 0.1]
    return errors, correct, depths, overheads


def test_zero_thresholds_mean_no_exits_and_full_accuracy():
    errors, correct, depths, overheads = simple_window()
    ev = evaluate_thresholds(errors, correct, [0.0, 0.0], depths, overheads, 10.0)
    assert ev.exit_rate == 0.0
    assert ev.accuracy == 1.0
    # Every input still pays the ramp overheads.
    assert ev.mean_savings_ms == pytest.approx(-0.2)


def test_exits_assigned_to_earliest_qualifying_ramp():
    errors, correct, depths, overheads = simple_window()
    ev = evaluate_thresholds(errors, correct, [0.5, 0.5], depths, overheads, 10.0)
    assert ev.exit_counts.tolist() == [1, 1]
    assert ev.exit_rate == pytest.approx(2 / 3)


def test_accuracy_counts_non_exits_as_correct():
    errors, correct, depths, overheads = simple_window()
    ev = evaluate_thresholds(errors, correct, [0.5, 0.5], depths, overheads, 10.0)
    assert ev.accuracy == 1.0
    # At a very permissive threshold all three samples exit at the early ramp,
    # where only the first one agrees with the original model.
    ev_aggressive = evaluate_thresholds(errors, correct, [0.95, 0.95], depths, overheads, 10.0)
    assert ev_aggressive.accuracy == pytest.approx(1 / 3)


def test_latency_savings_accounting():
    errors, correct, depths, overheads = simple_window()
    ev = evaluate_thresholds(errors, correct, [0.5, 0.0], depths, overheads, 10.0)
    # Only sample 0 exits, at depth 0.3: saves 7ms minus the first ramp's
    # overhead; the other two samples pay both overheads.
    expected = ((10.0 * 0.7 - 0.1) + (-0.2) * 2) / 3
    assert ev.mean_savings_ms == pytest.approx(expected)


def test_ramp_utilities_sign():
    errors, correct, depths, overheads = simple_window()
    ev = evaluate_thresholds(errors, correct, [0.5, 0.5], depths, overheads, 10.0)
    utilities = ev.ramp_utilities()
    assert utilities.shape == (2,)
    assert utilities[0] > 0  # the early ramp saves 7ms on one input


def test_savings_monotone_in_threshold():
    errors, correct, depths, overheads = simple_window()
    previous = -np.inf
    for threshold in (0.0, 0.3, 0.6, 0.95):
        ev = evaluate_thresholds(errors, correct, [threshold, threshold], depths,
                                 overheads, 10.0)
        assert ev.total_savings_ms >= previous - 1e-9
        previous = ev.total_savings_ms


def test_accuracy_monotone_non_increasing_in_threshold():
    errors, correct, depths, overheads = simple_window()
    previous = 1.1
    for threshold in (0.0, 0.3, 0.6, 0.95):
        ev = evaluate_thresholds(errors, correct, [threshold, threshold], depths,
                                 overheads, 10.0)
        assert ev.accuracy <= previous + 1e-9
        previous = ev.accuracy


def test_shape_validation():
    errors, correct, depths, overheads = simple_window()
    with pytest.raises(ValueError):
        evaluate_thresholds(errors, correct[:2], [0.5, 0.5], depths, overheads, 10.0)
    with pytest.raises(ValueError):
        evaluate_thresholds(errors, correct, [0.5], depths, overheads, 10.0)


def test_empty_window_is_benign():
    ev = evaluate_thresholds(np.zeros((0, 2)), np.zeros((0, 2), dtype=bool),
                             [0.5, 0.5], [0.3, 0.7], [0.1, 0.1], 10.0)
    assert ev.num_samples == 0
    assert ev.accuracy == 1.0


class TestWindowBuffer:
    @staticmethod
    def obs(ramp_id, depth, error, correct):
        return RampObservation(ramp_id=ramp_id, depth_fraction=depth,
                               error_score=error, correct=correct)

    def test_record_and_matrices(self):
        buffer = WindowBuffer([0, 2], capacity=4)
        buffer.record([self.obs(0, 0.3, 0.4, True), self.obs(2, 0.7, 0.1, True)])
        assert len(buffer) == 1
        assert buffer.errors_matrix().shape == (1, 2)
        assert buffer.correct_matrix().dtype == bool

    def test_record_missing_ramp_raises(self):
        buffer = WindowBuffer([0, 2])
        with pytest.raises(KeyError):
            buffer.record([self.obs(0, 0.3, 0.4, True)])

    def test_capacity_bounds_history(self):
        buffer = WindowBuffer([0], capacity=3)
        for i in range(10):
            buffer.record([self.obs(0, 0.3, i / 10.0, True)])
        assert len(buffer) == 3
        assert buffer.errors_matrix()[:, 0].tolist() == pytest.approx([0.7, 0.8, 0.9])

    def test_latest_returns_most_recent_rows(self):
        buffer = WindowBuffer([0], capacity=10)
        for i in range(6):
            buffer.record([self.obs(0, 0.3, i / 10.0, True)])
        errors, correct = buffer.latest(2)
        assert errors.shape == (2, 1)
        assert errors[-1, 0] == pytest.approx(0.5)
        assert errors[:, 0].tolist() == pytest.approx([0.4, 0.5])

        errors, correct = buffer.latest(0)
        assert errors.shape == (0, 1) and correct.shape == (0, 1)
        assert correct.dtype == bool

        errors, correct = buffer.latest(50)
        assert np.array_equal(errors, buffer.errors_matrix())
        assert np.array_equal(correct, buffer.correct_matrix())

        with pytest.raises(ValueError):
            buffer.latest(-1)

    def test_evaluate_on_empty_window_sees_no_samples(self):
        buffer = WindowBuffer([0], capacity=10)
        for i in range(5):
            buffer.record([self.obs(0, 0.3, 0.1, False)])
        evaluation = buffer.evaluate([0.5], [0.3], [0.0], 10.0, window=0)
        assert evaluation.num_samples == 0
        assert buffer.evaluate([0.5], [0.3], [0.0], 10.0, window=3).num_samples == 3

    def test_rebuild_preserves_shared_columns(self):
        buffer = WindowBuffer([0, 1], capacity=8)
        for i in range(4):
            buffer.record([self.obs(0, 0.3, 0.2, True), self.obs(1, 0.7, 0.4, False)])
        buffer.rebuild([1, 2])
        assert buffer.ramp_ids == [1, 2]
        errors = buffer.errors_matrix()
        assert errors.shape == (4, 2)
        # Column for ramp 1 kept, new ramp 2 backfilled as "never exits".
        assert np.allclose(errors[:, 0], 0.4)
        assert np.allclose(errors[:, 1], 1.0)

    def test_rebuild_same_ids_is_noop(self):
        buffer = WindowBuffer([0, 1], capacity=8)
        buffer.record([self.obs(0, 0.3, 0.2, True), self.obs(1, 0.7, 0.4, False)])
        buffer.rebuild([0, 1])
        assert len(buffer) == 1

    def test_evaluate_delegates_to_replay(self):
        buffer = WindowBuffer([0], capacity=8)
        for error, correct in [(0.1, True), (0.9, False)]:
            buffer.record([self.obs(0, 0.5, error, correct)])
        ev = buffer.evaluate([0.5], [0.5], [0.1], 10.0)
        assert ev.num_samples == 2
        assert ev.exit_rate == pytest.approx(0.5)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            WindowBuffer([0], capacity=0)
