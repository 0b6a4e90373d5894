"""Figure 19 and Table 3: sensitivity to the accuracy constraint and ramp budget.

Looser accuracy constraints increase Apparate's wins markedly; larger ramp
budgets help only marginally (diminishing returns from overlapping ramps).
"""

import pytest

from bench_common import cv_workload, nlp_workload, pct_win, print_table, run_once
from repro.api import Experiment

ACCURACY_TARGETS = [0.01, 0.02, 0.05]
RAMP_BUDGETS = [0.02, 0.05, 0.10]
CASES = {"resnet50": ("cv", "urban-day"), "gpt2-medium": ("nlp", "amazon")}


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_fig19_accuracy_constraint_sensitivity(benchmark, model_name):
    kind, source = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    def sweep():
        experiment = Experiment(model=model_name, workload=workload)
        vanilla = experiment.run(["vanilla"]).result("vanilla").raw
        points = experiment.sweep(systems=["apparate"],
                                  accuracy_constraint=ACCURACY_TARGETS)
        return vanilla, {point.params["accuracy_constraint"]:
                         point.report.result("apparate").raw for point in points}

    vanilla, results = run_once(benchmark, sweep)
    rows = []
    wins = {}
    for target in ACCURACY_TARGETS:
        wins[target] = pct_win(vanilla.median_latency(), results[target].metrics.median_latency())
        rows.append({"model": model_name, "accuracy_target_%": target * 100,
                     "win_%": wins[target],
                     "achieved_accuracy": results[target].metrics.accuracy()})
    print_table("Figure 19 — accuracy-constraint sensitivity", rows)

    # Shape: loosening the constraint never reduces the achievable win, and
    # every run respects its own constraint (with finite-window slack).
    assert wins[0.05] >= wins[0.01] - 2.0
    for target in ACCURACY_TARGETS:
        assert results[target].metrics.accuracy() >= 1.0 - target - 0.01


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_table3_ramp_budget_sensitivity(benchmark, model_name):
    kind, source = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    def sweep():
        experiment = Experiment(model=model_name, workload=workload)
        vanilla = experiment.run(["vanilla"]).result("vanilla").raw
        points = experiment.sweep(systems=["apparate"], ramp_budget=RAMP_BUDGETS)
        return vanilla, {point.params["ramp_budget"]:
                         point.report.result("apparate").raw for point in points}

    vanilla, results = run_once(benchmark, sweep)
    rows = []
    wins = {}
    for budget in RAMP_BUDGETS:
        wins[budget] = pct_win(vanilla.median_latency(), results[budget].metrics.median_latency())
        rows.append({"model": model_name, "ramp_budget_%": budget * 100,
                     "win_%": wins[budget],
                     "active_ramps": results[budget].controller.config.num_active(),
                     "p95_ms": results[budget].metrics.p95_latency()})
    print_table("Table 3 — ramp-budget sensitivity", rows)

    # Shape: more budget never hurts much, and gains taper (diminishing returns).
    assert wins[0.10] >= wins[0.02] - 3.0
    spread = wins[0.10] - wins[0.02]
    assert spread < 25.0
