"""End-to-end integration tests spanning workloads, platforms and Apparate."""

import pytest

from repro.api import Experiment
from repro.core.apparate import Apparate
from repro.generative.sequences import make_generative_workload
from repro.workloads.nlp import make_nlp_workload
from repro.workloads.video import make_video_workload

import numpy as np


@pytest.mark.parametrize("model,scene", [("resnet18", "urban-day"), ("vgg11", "highway")])
def test_cv_end_to_end_latency_accuracy_throughput(model, scene):
    workload = make_video_workload(scene, num_frames=2500, seed=41)
    report = Experiment(model=model, workload=workload).run(["vanilla", "apparate"])
    vanilla = report.result("vanilla").raw
    apparate = report.result("apparate").raw
    # Latency improves, accuracy within constraint, throughput preserved,
    # tail within the 2% ramp budget.
    assert apparate.metrics.median_latency() < vanilla.median_latency()
    assert apparate.metrics.accuracy() >= 0.985
    assert apparate.metrics.throughput_qps() >= vanilla.throughput_qps() * 0.97
    assert apparate.metrics.p95_latency() <= vanilla.p95_latency() * 1.05


def test_nlp_end_to_end_on_both_platforms():
    workload = make_nlp_workload("amazon", num_requests=2500, rate_qps=20, seed=42)
    sweep = Experiment(model="bert-base", workload=workload) \
        .sweep(systems=["vanilla", "apparate"], platform=["clockwork", "tfserve"])
    assert len(sweep) == 2
    for point in sweep:
        vanilla = point.report.result("vanilla").raw
        apparate = point.report.result("apparate").raw
        assert apparate.metrics.median_latency() <= vanilla.median_latency()
        assert apparate.metrics.accuracy() >= 0.98


def test_apparate_between_vanilla_and_oracle():
    workload = make_video_workload("urban-day", num_frames=2500, seed=43)
    report = Experiment(model="resnet50", workload=workload) \
        .run(["vanilla", "apparate", "optimal"])
    vanilla = report.result("vanilla").raw
    apparate = report.result("apparate").raw
    oracle = np.median(report.result("optimal").raw)
    assert oracle <= apparate.metrics.median_latency() <= vanilla.median_latency()


def test_accuracy_constraint_sweep_monotone_wins():
    """Figure 19: looser accuracy constraints never reduce latency savings."""
    workload = make_video_workload("urban-day", num_frames=2500, seed=44)
    medians = []
    sweep = Experiment(model="resnet50", workload=workload) \
        .sweep(systems=["apparate"], accuracy_constraint=[0.01, 0.05])
    for point in sweep:
        constraint = point.params["accuracy_constraint"]
        result = point.report.result("apparate").raw
        medians.append(result.metrics.median_latency())
        assert result.metrics.accuracy() >= 1.0 - constraint - 0.01
    assert medians[1] <= medians[0] * 1.05


def test_ramp_budget_sweep_monotone_wins():
    """Table 3: larger ramp budgets never reduce median latency savings (much)."""
    workload = make_video_workload("urban-day", num_frames=2500, seed=45)
    sweep = Experiment(model="resnet50", workload=workload) \
        .sweep(systems=["apparate"], ramp_budget=[0.02, 0.10])
    small, large = (point.report.result("apparate").raw for point in sweep)
    assert large.metrics.median_latency() <= small.metrics.median_latency() * 1.10


def test_generative_end_to_end():
    # Long-output summarization gives the adaptive policy enough token
    # feedback to both activate exits and hold the accuracy constraint.
    workload = make_generative_workload("cnn-dailymail", num_sequences=90, rate_qps=2.0,
                                        seed=46)
    report = Experiment(model="t5-large", workload=workload).run(["vanilla", "apparate"])
    vanilla = report.result("vanilla").raw
    apparate = report.result("apparate").raw
    assert apparate.metrics.median_tpt() < vanilla.median_tpt()
    assert apparate.metrics.mean_sequence_accuracy() >= 0.98


def test_full_api_round_trip():
    """Register -> prepare -> serve -> compare, through the public API only."""
    system = Apparate(seed=7)
    workload = make_video_workload("crossroads", num_frames=2000, seed=47)
    deployment = system.register("resnet50", accuracy_constraint=0.01, ramp_budget=0.02,
                                 bootstrap_workload=workload)
    assert deployment.preparation.num_initial_ramps >= 1
    result = deployment.serve(workload)
    vanilla = deployment.serve_vanilla(workload)
    assert result.metrics.median_latency() < vanilla.median_latency()
    assert result.controller.stats.threshold_tunings > 0


def test_determinism_across_runs():
    workload = make_video_workload("urban-day", num_frames=1500, seed=48)
    a, b = (Experiment(model="resnet50", workload=workload, seed=3)
            .run(["apparate"]).result("apparate").raw for _ in range(2))
    assert a.metrics.median_latency() == pytest.approx(b.metrics.median_latency())
    assert a.metrics.accuracy() == pytest.approx(b.metrics.accuracy())
