"""Figure 8: many lightweight ramps beat fewer, heavier ramps.

Under the same ramp budget, Apparate's default (pooling + final fc) ramps
allow more simultaneously active positions than conv-heavy or deep-pooler
alternatives, which the paper finds yields 1.3-5.4x lower median latencies.
"""

import pytest

from bench_common import cv_workload, nlp_workload, print_table, run_once
from repro.api import Experiment
from repro.exits.ramps import RampStyle

CASES = {
    "resnet50": ("cv", "urban-day", [RampStyle.LIGHTWEIGHT, RampStyle.CONV_HEAVY]),
    "bert-base": ("nlp", "amazon", [RampStyle.LIGHTWEIGHT, RampStyle.STACKED_FC,
                                    RampStyle.DEEP_POOLER]),
}


@pytest.mark.parametrize("model_name", sorted(CASES))
def test_fig08_lightweight_ramps_maximize_savings(benchmark, model_name):
    kind, source, styles = CASES[model_name]
    workload = cv_workload(model_name, source) if kind == "cv" else nlp_workload(model_name, source)

    def sweep():
        points = Experiment(model=model_name, workload=workload) \
            .sweep(systems=["apparate"], ramp_style=styles)
        return {point.params["ramp_style"]: point.report.result("apparate").raw
                for point in points}

    results = run_once(benchmark, sweep)
    rows = [{"model": model_name, "ramp_style": style.value,
             "p50_ms": results[style].metrics.median_latency(),
             "accuracy": results[style].metrics.accuracy(),
             "active_ramps": results[style].controller.config.num_active()}
            for style in styles]
    print_table("Figure 8 — ramp architecture comparison", rows)

    light = results[RampStyle.LIGHTWEIGHT]
    for style in styles[1:]:
        heavy = results[style]
        # Shape: the lightweight default is at least as good as heavier styles
        # and never activates fewer ramps; every style meets the constraint.
        assert light.metrics.median_latency() <= heavy.metrics.median_latency() * 1.05
        assert light.controller.catalog.max_active_ramps() >= \
            heavy.controller.catalog.max_active_ramps()
        assert heavy.metrics.accuracy() >= 0.985
