"""Figure 4: optimal early exits lower latencies without harming throughput.

Modulating the vanilla serving latencies by each input's optimal exit point
(no queueing or scheduling changes) yields 35-55% median improvements in the
paper.  We regenerate the vanilla-vs-optimal latency CDF summary.
"""

import numpy as np
import pytest

from bench_common import cv_workload, nlp_workload, pct_win, print_table, run_once
from repro.api import Experiment

CASES = {"resnet50": ("cv", "urban-day"), "bert-base": ("nlp", "amazon")}


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_fig04_optimal_exits_lower_latency(benchmark, model_name):
    kind, source = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    def compare():
        report = Experiment(model=model_name, workload=workload) \
            .run(["vanilla", "optimal"])
        return report.result("vanilla").raw, report.result("optimal").raw

    vanilla, optimal = run_once(benchmark, compare)
    rows = [{
        "model": model_name,
        "vanilla_p50_ms": vanilla.median_latency(),
        "optimal_p50_ms": float(np.median(optimal)),
        "p50_win_%": pct_win(vanilla.median_latency(), float(np.median(optimal))),
        "vanilla_p95_ms": vanilla.p95_latency(),
        "optimal_p95_ms": float(np.percentile(optimal, 95)),
    }]
    print_table("Figure 4 — vanilla vs optimal EE", rows)

    # Shape: optimal exiting improves the median substantially and never makes
    # any request slower (same queuing, same scheduling).
    assert np.median(optimal) < vanilla.median_latency()
    assert rows[0]["p50_win_%"] > 10.0
    assert np.all(optimal <= vanilla.latencies() + 1e-9)
