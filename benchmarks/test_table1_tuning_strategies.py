"""Table 1: thresholds need frequent tuning to avoid accuracy loss.

The paper compares (a) tuning thresholds once on initial data, (b) tuning on
a uniformly sampled subset, and (c) continual tuning, reporting 8-15 point
accuracy drops for the one-time strategies.  We regenerate the three rows for
a CV and an NLP workload.
"""

import numpy as np
import pytest

from bench_common import cv_workload, nlp_workload, pct_win, print_table, run_once
from repro.baselines.static_ee import _observation_matrices
from repro.api import Experiment
from repro.core.pipeline import model_stack
from repro.exits._reference import mismatched_fields, reference_tune_thresholds_greedy
from repro.exits.evaluation import evaluate_thresholds
from repro.exits.placement import initial_ramp_selection
from repro.exits.thresholds import tune_thresholds_greedy

CASES = {"resnet50": ("cv", "urban-day"), "bert-base": ("nlp", "amazon")}


def one_time_strategy(model_name, workload, sample: str):
    """Accuracy/savings of thresholds tuned once on a data sample."""
    spec, _profile, prediction, catalog, _exec = model_stack(model_name)
    active = initial_ramp_selection(catalog)
    depths = [catalog.ramp(r).depth_fraction for r in active]
    overheads = [catalog.ramp(r).overhead_fraction * spec.bs1_latency_ms for r in active]

    n = len(workload.trace)
    if sample == "initial":
        calibration = workload.trace.slice(0, n // 10)
    else:  # uniformly sampled
        indices = np.arange(0, n, 10)
        calibration = workload.trace.slice(0, n)
        calibration = type(calibration)(name="sampled",
                                        raw_difficulty=calibration.raw_difficulty[indices],
                                        sharpness=calibration.sharpness[indices],
                                        confidence_shift=calibration.confidence_shift[indices])
    cal_errors, cal_correct = _observation_matrices(calibration, prediction, depths)
    tuned = tune_thresholds_greedy(cal_errors, cal_correct, depths, overheads,
                                   spec.bs1_latency_ms, accuracy_constraint=0.01)
    reference = reference_tune_thresholds_greedy(cal_errors, cal_correct, depths, overheads,
                                                 spec.bs1_latency_ms, accuracy_constraint=0.01)
    assert mismatched_fields(tuned, reference) == []
    errors, correct = _observation_matrices(workload.trace, prediction, depths)
    evaluation = evaluate_thresholds(errors, correct, tuned.thresholds, depths, overheads,
                                     spec.bs1_latency_ms)
    return evaluation.accuracy, evaluation.mean_savings_ms / spec.bs1_latency_ms * 100.0


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_table1_one_time_tuning_loses_accuracy(benchmark, model_name):
    kind, source = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    def evaluate_strategies():
        initial_acc, initial_savings = one_time_strategy(model_name, workload, "initial")
        sampled_acc, sampled_savings = one_time_strategy(model_name, workload, "sampled")
        report = Experiment(model=model_name, workload=workload) \
            .run(["vanilla", "apparate"])
        vanilla = report.result("vanilla").raw
        continual = report.result("apparate").raw
        continual_acc = continual.metrics.accuracy()
        continual_savings = pct_win(vanilla.median_latency(),
                                    continual.metrics.median_latency())
        return [
            {"strategy": "Initial Only", "accuracy": initial_acc, "savings_%": initial_savings},
            {"strategy": "Uniformly Sampled", "accuracy": sampled_acc, "savings_%": sampled_savings},
            {"strategy": "Continual Tuning", "accuracy": continual_acc, "savings_%": continual_savings},
        ]

    rows = run_once(benchmark, evaluate_strategies)
    for row in rows:
        row["model"] = model_name
    print_table("Table 1 — threshold tuning strategies", rows)

    initial, sampled, continual = rows
    # Shape: continual tuning holds ~99% accuracy; one-time strategies drop
    # measurably below it.
    assert continual["accuracy"] >= 0.985
    assert continual["accuracy"] >= initial["accuracy"]
    assert continual["accuracy"] >= sampled["accuracy"]
    assert min(initial["accuracy"], sampled["accuracy"]) < continual["accuracy"] + 1e-9
