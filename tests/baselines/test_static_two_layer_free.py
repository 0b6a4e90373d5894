"""Tests for the static-EE, two-layer and FREE baselines (§4.2, §4.4)."""

import numpy as np
import pytest

from repro.api import Experiment
from repro.baselines.free import FreeTokenPolicy, calibrate_free_policy
from repro.baselines.static_ee import StaticEEVariant, calibrate_static_thresholds
from repro.baselines.two_layer import TwoLayerSystem
from repro.core.generative import generative_ramp_depths
from repro.models.prediction import PredictionModel
from repro.models.zoo import get_model


# --------------------------------------------------------------------- static


def test_static_shared_variant_uses_one_threshold(resnet50_stack, small_video_workload):
    result = Experiment(model="resnet50", workload=small_video_workload,
                        overrides={"static_ee": {"variant": StaticEEVariant.SHARED}}) \
        .run(["static_ee"]).result("static_ee").raw
    assert len(set(np.round(result.thresholds, 6))) == 1
    assert len(result.ramp_depths) >= 8


def test_static_per_ramp_variant_allows_distinct_thresholds(small_video_workload):
    result = Experiment(model="resnet50", workload=small_video_workload,
                        overrides={"static_ee": {"variant": StaticEEVariant.PER_RAMP}}) \
        .run(["static_ee"]).result("static_ee").raw
    assert len(result.thresholds) == len(result.ramp_depths)


def test_static_calibration_respects_constraint_on_calibration_data(resnet50_stack):
    spec, _profile, prediction, catalog, _exec = resnet50_stack
    from repro.workloads.video import make_video_workload
    trace = make_video_workload("urban-day", num_frames=800, seed=31).trace
    depths = [r.depth_fraction for r in catalog.ramps]
    overheads = [r.overhead_fraction * spec.bs1_latency_ms for r in catalog.ramps]
    thresholds = calibrate_static_thresholds(trace, prediction, depths, overheads,
                                             spec.bs1_latency_ms, StaticEEVariant.SHARED)
    from repro.baselines.static_ee import _observation_matrices
    from repro.exits.evaluation import evaluate_thresholds
    errors, correct = _observation_matrices(trace, prediction, depths)
    evaluation = evaluate_thresholds(errors, correct, thresholds, depths, overheads,
                                     spec.bs1_latency_ms)
    assert evaluation.accuracy >= 0.99


def test_static_ee_loses_more_accuracy_than_apparate(small_video_workload):
    """Table 2: one-time tuning degrades under drift; Apparate does not."""
    report = Experiment(model="resnet50", workload=small_video_workload,
                        overrides={"static_ee": {"variant": StaticEEVariant.SHARED}}) \
        .run(["static_ee", "apparate"])
    static = report.result("static_ee").raw
    apparate = report.result("apparate").raw
    assert apparate.metrics.accuracy() >= static.metrics.accuracy()


def test_static_oracle_variant_calibrates_on_test_stream(small_video_workload):
    oracle, shared = (
        Experiment(model="resnet50", workload=small_video_workload,
                   overrides={"static_ee": {"variant": variant}})
        .run(["static_ee"]).result("static_ee").raw
        for variant in (StaticEEVariant.ORACLE, StaticEEVariant.SHARED))
    assert oracle.metrics.accuracy() >= shared.metrics.accuracy() - 0.02


def test_static_summary_fields(small_video_workload):
    summary = Experiment(model="resnet50", workload=small_video_workload) \
        .run(["static_ee"]).result("static_ee").raw.summary()
    assert "num_ramps" in summary and "p50_ms" in summary


# ------------------------------------------------------------------ two-layer


def test_two_layer_calibration_monotone(resnet50_stack):
    _spec, _profile, prediction, _catalog, _exec = resnet50_stack
    from repro.workloads.video import make_video_workload
    trace = make_video_workload("urban-day", num_frames=1500, seed=33).trace
    strict = TwoLayerSystem(capability_depth=0.4, runtime_fraction=0.3)
    loose = TwoLayerSystem(capability_depth=0.4, runtime_fraction=0.3)
    strict.calibrate(trace, prediction, accuracy_constraint=0.001)
    loose.calibrate(trace, prediction, accuracy_constraint=0.05)
    assert loose.confidence_threshold >= strict.confidence_threshold


def test_two_layer_latency_structure(small_video_workload):
    result = Experiment(model="resnet50", workload=small_video_workload) \
        .run(["two_layer"]).result("two_layer").raw
    spec = get_model("resnet50")
    compressed_time = 0.40 * spec.bs1_latency_ms
    assert result.latencies_ms.min() >= compressed_time - 1e-6
    assert 0.0 < result.escalation_rate < 1.0
    assert result.accuracy >= 0.98


def test_two_layer_escalated_inputs_slower_than_vanilla(small_nlp_workload):
    """Hard inputs pay compressed + base model time (worse tails than Apparate)."""
    report = Experiment(model="bert-base", workload=small_nlp_workload) \
        .run(["vanilla", "two_layer"])
    vanilla = report.result("vanilla").raw
    two_layer = report.result("two_layer").raw
    assert two_layer.summary()["p95_ms"] > vanilla.p95_latency()


def test_two_layer_apparate_wins_p95(small_nlp_workload):
    report = Experiment(model="bert-base", workload=small_nlp_workload) \
        .run(["apparate", "two_layer"])
    apparate = report.result("apparate").raw
    two_layer = report.result("two_layer").raw
    assert apparate.metrics.p95_latency() < two_layer.summary()["p95_ms"]


# ----------------------------------------------------------------------- FREE


def test_free_calibration_returns_valid_pair(small_generative_workload):
    prediction = PredictionModel(get_model("t5-large"), seed=0)
    depths = generative_ramp_depths("t5-large")
    depth, threshold = calibrate_free_policy(prediction, small_generative_workload, depths)
    assert depth in depths or any(abs(depth - d) < 1e-9 for d in depths)
    assert 0.0 <= threshold < 1.0


def test_free_policy_never_adapts(small_generative_workload):
    prediction = PredictionModel(get_model("t5-large"), seed=0)
    policy = FreeTokenPolicy(prediction, ramp_depth=0.4, threshold=0.5)
    policy.feedback([])  # no-op by design
    before = (policy.ramp_depth, policy.threshold)
    for i in range(50):
        policy.decide(0, i, 0.9, 0.05)
    assert (policy.ramp_depth, policy.threshold) == before


def test_free_runs_and_reports_metrics(small_generative_workload):
    metrics = Experiment(model="t5-large", workload=small_generative_workload) \
        .run(["free"]).result("free").raw
    assert len(metrics.tokens) == small_generative_workload.total_tokens()
    assert 0.0 <= metrics.exit_rate() <= 1.0


def test_apparate_matches_or_beats_free_accuracy_under_trend_drift():
    """§4.4: FREE's one-time tuning degrades when the workload drifts harder."""
    from repro.generative.sequences import make_generative_workload
    workload = make_generative_workload("cnn-dailymail", num_sequences=80, rate_qps=2.0,
                                        seed=17, drift_amplitude=0.35, drift_mode="trend")
    report = Experiment(model="t5-large", workload=workload).run(["free", "apparate"])
    free = report.result("free").raw
    apparate = report.result("apparate").raw
    assert apparate.metrics.mean_sequence_accuracy() >= \
        free.mean_sequence_accuracy() - 0.005
