"""Table 4: Apparate's wins are insensitive to the underlying serving platform.

The paper reports median/P95 latencies within a few percent when running the
same workload on Clockwork vs TensorFlow-Serving, because Apparate never
alters platform decisions.
"""

import pytest

from bench_common import cv_workload, nlp_workload, pct_win, print_table, run_once
from repro.api import Experiment

CASES = {"resnet50": ("cv", "urban-day"), "gpt2-medium": ("nlp", "amazon")}
PLATFORMS = ["clockwork", "tfserve"]


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_table4_platform_insensitivity(benchmark, model_name):
    kind, source = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    def sweep():
        points = Experiment(model=model_name, workload=workload) \
            .sweep(systems=["vanilla", "apparate"], platform=PLATFORMS)
        return {point.params["platform"]: (point.report.result("vanilla").raw,
                                           point.report.result("apparate").raw)
                for point in points}

    results = run_once(benchmark, sweep)
    rows = []
    wins = {}
    for platform in PLATFORMS:
        vanilla, apparate = results[platform]
        wins[platform] = pct_win(vanilla.median_latency(), apparate.metrics.median_latency())
        rows.append({"model": model_name, "platform": platform,
                     "apparate_p50_ms": apparate.metrics.median_latency(),
                     "apparate_p95_ms": apparate.metrics.p95_latency(),
                     "win_%": wins[platform],
                     "accuracy": apparate.metrics.accuracy()})
    print_table("Table 4 — serving-platform comparison", rows)

    # Shape: both platforms see a benefit and the relative wins are close
    # (the paper reports within ~3 percentage points).
    assert all(w > 0.0 for w in wins.values())
    assert abs(wins["clockwork"] - wins["tfserve"]) < 15.0
    for platform in PLATFORMS:
        assert results[platform][1].metrics.accuracy() >= 0.98
