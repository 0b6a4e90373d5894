"""Figures 12 and 13: Apparate's CV classification results.

Figure 12 reports median latency savings vs vanilla serving (alongside the
optimal) for the six CV models; Figure 13 shows that Apparate's P95 latency
stays within the 2% ramp budget of vanilla serving.  The paper's bands are
40.5-91.5% median wins, with medians within ~20% of the optimal for CV.
"""

import numpy as np
import pytest

from bench_common import cv_workload, pct_win, print_table, run_once
from repro.api import Experiment

CV_MODELS = ["resnet18", "resnet50", "resnet101", "vgg11", "vgg13", "vgg16"]


@pytest.mark.parametrize("model_name", CV_MODELS)
def test_fig12_fig13_cv_latency_wins_and_tails(benchmark, model_name):
    workload = cv_workload(model_name, "urban-day")

    def compare():
        report = Experiment(model=model_name, workload=workload) \
            .run(["vanilla", "apparate", "optimal"])
        return (report.result("vanilla").raw, report.result("apparate").raw,
                report.result("optimal").raw)

    vanilla, apparate, optimal = run_once(benchmark, compare)
    median_win = pct_win(vanilla.median_latency(), apparate.metrics.median_latency())
    p25_win = pct_win(vanilla.p25_latency(), apparate.metrics.p25_latency())
    optimal_win = pct_win(vanilla.median_latency(), float(np.median(optimal)))
    rows = [{
        "model": model_name,
        "vanilla_p50_ms": vanilla.median_latency(),
        "apparate_p50_ms": apparate.metrics.median_latency(),
        "p50_win_%": median_win,
        "p25_win_%": p25_win,
        "optimal_win_%": optimal_win,
        "apparate_p95_ms": apparate.metrics.p95_latency(),
        "vanilla_p95_ms": vanilla.p95_latency(),
        "accuracy": apparate.metrics.accuracy(),
    }]
    print_table("Figures 12-13 — CV classification", rows)

    # Figure 12 shape: large median wins, tracking (but not exceeding) optimal.
    assert 25.0 <= median_win <= 95.0
    assert median_win <= optimal_win + 5.0
    # Figure 13 shape: the tail stays within the 2% worst-case budget.
    assert apparate.metrics.p95_latency() <= vanilla.p95_latency() * 1.03
    # The 1% accuracy constraint holds (small slack for finite-window drift).
    assert apparate.metrics.accuracy() >= 0.985
    # Throughput is preserved: exits never change what the GPU executes.
    assert apparate.metrics.throughput_qps() >= vanilla.throughput_qps() * 0.97
