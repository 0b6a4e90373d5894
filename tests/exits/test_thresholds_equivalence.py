"""The incremental greedy search is exactly Algorithm 1's full-replay spec.

``tune_thresholds_greedy`` scores each candidate from the current exit
assignment instead of replaying the whole window; the verbatim pre-change
loop lives in :mod:`repro.exits._reference`.  On random windows both must
return the same thresholds, round and evaluation counts, and the same final
evaluation, field for field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exits._reference import mismatched_fields, reference_tune_thresholds_greedy
from repro.exits.thresholds import tune_thresholds_greedy
from repro.models.prediction import ramp_error_score


def random_window(seed, n, num_ramps, error_grid, flip_rate, twin_ramps=False):
    """A window whose errors track correctness, optionally snapped to a grid.

    Snapping errors onto multiples of a tuning step (0.01, 0.1) places them
    exactly on candidate thresholds, which exercises the strict ``<`` exit
    test.  ``twin_ramps`` draws depths from three values with free ramps, so
    ramps at the same depth see identical errors and their candidates tie.
    """
    rng = np.random.default_rng(seed)
    if twin_ramps:
        depths = np.sort(rng.choice([0.25, 0.5, 0.75], size=num_ramps))
    else:
        depths = np.sort(rng.uniform(0.05, 0.95, size=num_ramps))
    required = np.clip(rng.normal(rng.uniform(0.1, 0.9), 0.2, size=n), 0.0, 1.0)
    sharpness = rng.uniform(0.02, 0.1, size=n)
    errors = np.asarray(ramp_error_score(required[:, None], depths[None, :],
                                         sharpness[:, None])).reshape(n, num_ramps)
    if error_grid == "uniform":
        errors = rng.uniform(0.0, 1.0, size=(n, num_ramps))
    elif error_grid:
        errors = np.round(np.round(errors / error_grid) * error_grid, 6)
    correct = (required[:, None] <= depths[None, :]).reshape(n, num_ramps)
    correct ^= rng.random((n, num_ramps)) < flip_rate
    overheads = [0.0] * num_ramps if twin_ramps else list(rng.uniform(0.0, 1.5, size=num_ramps))
    full_latency_ms = float(rng.uniform(2.0, 80.0))
    return errors, correct, list(depths), overheads, full_latency_ms


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(0, 300),
       num_ramps=st.integers(0, 10),
       error_grid=st.sampled_from([None, 0.01, 0.1, 0.05, "uniform"]),
       flip_rate=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
       twin_ramps=st.booleans(),
       accuracy_constraint=st.sampled_from([0.0, 0.001, 0.01, 0.02, 0.05, 0.2]),
       conservative_margin=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
       initial_step=st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.3, 0.7, 1.0]),
       min_step=st.sampled_from([0.001, 0.01, 0.05, 0.1]))
def test_greedy_equals_full_replay_reference(seed, n, num_ramps, error_grid, flip_rate,
                                             twin_ramps, accuracy_constraint,
                                             conservative_margin, initial_step, min_step):
    errors, correct, depths, overheads, full_latency_ms = random_window(
        seed, n, num_ramps, error_grid, flip_rate, twin_ramps)
    kwargs = dict(accuracy_constraint=accuracy_constraint,
                  conservative_margin=conservative_margin,
                  initial_step=initial_step, min_step=min_step)
    fast = tune_thresholds_greedy(errors, correct, depths, overheads, full_latency_ms,
                                  **kwargs)
    reference = reference_tune_thresholds_greedy(errors, correct, depths, overheads,
                                                 full_latency_ms, **kwargs)
    assert mismatched_fields(fast, reference) == []


@pytest.mark.parametrize("max_rounds", [0, 1, 3])
def test_round_cap_matches_reference(max_rounds):
    errors, correct, depths, overheads, full_latency_ms = random_window(7, 256, 6, 0.01, 0.0)
    fast = tune_thresholds_greedy(errors, correct, depths, overheads, full_latency_ms,
                                  max_rounds=max_rounds)
    reference = reference_tune_thresholds_greedy(errors, correct, depths, overheads,
                                                 full_latency_ms, max_rounds=max_rounds)
    assert mismatched_fields(fast, reference) == []


def test_zero_step_matches_reference():
    errors, correct, depths, overheads, full_latency_ms = random_window(3, 64, 3, None, 0.0)
    fast = tune_thresholds_greedy(errors, correct, depths, overheads, full_latency_ms,
                                  initial_step=0.0, min_step=0.0)
    reference = reference_tune_thresholds_greedy(errors, correct, depths, overheads,
                                                 full_latency_ms, initial_step=0.0,
                                                 min_step=0.0)
    assert mismatched_fields(fast, reference) == []


def test_mismatched_fields_names_the_difference():
    errors, correct, depths, overheads, full_latency_ms = random_window(5, 128, 4, None, 0.0)
    fast = tune_thresholds_greedy(errors, correct, depths, overheads, full_latency_ms)
    other = tune_thresholds_greedy(errors, correct, depths, overheads, full_latency_ms,
                                   accuracy_constraint=0.2)
    assert mismatched_fields(fast, fast) == []
    assert "thresholds" in mismatched_fields(fast, other)
    assert "evaluation.exit_counts" in mismatched_fields(fast, other)


def test_negative_step_rejected():
    errors, correct, depths, overheads, full_latency_ms = random_window(1, 16, 2, None, 0.0)
    with pytest.raises(ValueError, match="initial_step"):
        tune_thresholds_greedy(errors, correct, depths, overheads, full_latency_ms,
                               initial_step=-0.1)


@pytest.mark.parametrize("bad", ["correct", "overheads"])
def test_shape_errors_match_the_evaluator(bad):
    errors, correct, depths, overheads, full_latency_ms = random_window(2, 16, 3, None, 0.0)
    if bad == "correct":
        correct = correct[:, :2]
    else:
        overheads = overheads[:2]
    with pytest.raises(ValueError):
        reference_tune_thresholds_greedy(errors, correct, depths, overheads, full_latency_ms)
    with pytest.raises(ValueError):
        tune_thresholds_greedy(errors, correct, depths, overheads, full_latency_ms)
