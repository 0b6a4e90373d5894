"""Tests for generative serving with Apparate (§3.4)."""

import pytest

from repro.api import Experiment
from repro.core.generative import ApparateTokenPolicy, generative_ramp_depths
from repro.generative.parallel import TokenFeedback
from repro.models.prediction import PredictionModel
from repro.models.zoo import get_model


@pytest.fixture(scope="module")
def t5_prediction():
    return PredictionModel(get_model("t5-large"), seed=0)


def test_generative_ramp_depths_are_block_boundaries():
    depths = generative_ramp_depths("t5-large")
    assert len(depths) > 10
    assert all(0.0 < d < 1.0 for d in depths)
    assert depths == sorted(depths)


def test_policy_requires_candidates(t5_prediction):
    with pytest.raises(ValueError):
        ApparateTokenPolicy(t5_prediction, [])


def test_policy_starts_without_exiting(t5_prediction):
    policy = ApparateTokenPolicy(t5_prediction, generative_ramp_depths("t5-large"))
    decision = policy.decide(0, 0, 0.05, 0.05)
    assert not decision.exited
    assert policy.threshold == 0.0


def test_policy_threshold_rises_with_easy_feedback(t5_prediction):
    policy = ApparateTokenPolicy(t5_prediction, generative_ramp_depths("t5-large"),
                                 refresh_period=16)
    records = [TokenFeedback(0, i, 0.05, False, True) for i in range(160)]
    policy.feedback(records)
    assert policy.threshold > 0.0
    decision = policy.decide(0, 99, 0.05, 0.05)
    assert decision.exited


def test_policy_accuracy_violation_lowers_threshold(t5_prediction):
    policy = ApparateTokenPolicy(t5_prediction, generative_ramp_depths("t5-large"),
                                 refresh_period=16)
    policy.feedback([TokenFeedback(0, i, 0.05, False, True) for i in range(160)])
    aggressive = policy.threshold
    assert aggressive > 0.0
    # A burst of confident-but-wrong tokens must pull the threshold back down.
    policy.feedback([TokenFeedback(1, i, 0.05, True, False) for i in range(160)])
    assert policy.threshold < aggressive


def test_policy_moves_ramp_later_when_exits_are_rare(t5_prediction):
    depths = generative_ramp_depths("t5-large")
    policy = ApparateTokenPolicy(t5_prediction, depths, refresh_period=16,
                                 adjustment_period=64, initial_position=2)
    start = policy.position
    # Feedback says the ramp is never confident: errors high, agreement low.
    records = [TokenFeedback(0, i, 0.95, False, False) for i in range(256)]
    policy.feedback(records)
    assert policy.position >= start  # never moves earlier on bad evidence
    assert policy.tokens_seen == 256


def test_run_generative_vanilla_and_apparate(small_generative_workload):
    report = Experiment(model="t5-large", workload=small_generative_workload) \
        .run(["vanilla", "apparate"])
    vanilla = report.result("vanilla").raw
    apparate = report.result("apparate").raw
    assert len(vanilla.tokens) == small_generative_workload.total_tokens()
    assert apparate.metrics.median_tpt() <= vanilla.median_tpt() * 1.05
    assert apparate.metrics.mean_sequence_accuracy() >= 0.97


def test_run_generative_apparate_summary(small_generative_workload):
    result = Experiment(model="t5-large", workload=small_generative_workload) \
        .run(["apparate"]).result("apparate").raw
    summary = result.summary()
    assert {"tpt_p50_ms", "sequence_accuracy", "ramp_depth", "threshold"} <= set(summary)


def test_generative_llama_model_runs(small_generative_workload):
    result = Experiment(model="llama2-7b", workload=small_generative_workload) \
        .run(["apparate"]).result("apparate").raw
    assert result.metrics.mean_sequence_accuracy() >= 0.97
    assert len(result.metrics.tokens) == small_generative_workload.total_tokens()
