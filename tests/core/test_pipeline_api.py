"""Tests for the classification pipelines and the public Apparate API."""

import pytest

from repro.api import Experiment, ExitPolicySpec
from repro.core.apparate import Apparate
from repro.core.pipeline import build_platform, model_stack
from repro.exits.ramps import RampStyle
from repro.models.quantization import quantized_spec
from repro.models.zoo import get_model


def test_model_stack_components(resnet50_stack):
    spec, profile, prediction, catalog, executor = resnet50_stack
    assert spec.name == "resnet50"
    assert profile.total_latency_ms(1) == pytest.approx(spec.bs1_latency_ms)
    assert len(catalog) > 5
    assert executor.spec is spec


def test_build_platform_by_name(resnet50_stack):
    _spec, profile, *_rest = resnet50_stack
    assert build_platform("clockwork", profile).__class__.__name__ == "ClockworkPlatform"
    assert build_platform("tfserve", profile).__class__.__name__ == "TFServingPlatform"
    with pytest.raises(ValueError):
        build_platform("triton", profile)


def test_run_vanilla_serves_all_requests(small_video_workload):
    metrics = Experiment(model="resnet50", workload=small_video_workload) \
        .run(["vanilla"]).result("vanilla").raw
    assert len(metrics.served()) == len(small_video_workload)
    assert metrics.exit_rate() == 0.0
    assert metrics.accuracy() == 1.0


def test_run_apparate_improves_median_latency_cv(small_video_workload):
    report = Experiment(model="resnet50", workload=small_video_workload) \
        .run(["vanilla", "apparate"])
    vanilla = report.result("vanilla").raw
    apparate = report.result("apparate").raw
    assert apparate.metrics.median_latency() < vanilla.median_latency()
    assert apparate.metrics.exit_rate() > 0.3


def test_run_apparate_meets_accuracy_constraint(small_video_workload):
    apparate = Experiment(model="resnet50", workload=small_video_workload,
                          ee=ExitPolicySpec(accuracy_constraint=0.01)) \
        .run(["apparate"]).result("apparate").raw
    assert apparate.metrics.accuracy() >= 0.985


def test_run_apparate_tail_latency_within_budget(small_video_workload):
    report = Experiment(model="resnet50", workload=small_video_workload,
                        ee=ExitPolicySpec(ramp_budget=0.02)) \
        .run(["vanilla", "apparate"])
    vanilla = report.result("vanilla").raw
    apparate = report.result("apparate").raw
    assert apparate.metrics.p95_latency() <= vanilla.p95_latency() * 1.05


def test_run_apparate_throughput_preserved(small_video_workload):
    """Exits release results early but never change platform throughput."""
    report = Experiment(model="resnet50", workload=small_video_workload) \
        .run(["vanilla", "apparate"])
    vanilla = report.result("vanilla").raw
    apparate = report.result("apparate").raw
    assert apparate.metrics.throughput_qps() >= vanilla.throughput_qps() * 0.97


def test_run_apparate_summary_fields(small_video_workload):
    result = Experiment(model="resnet50", workload=small_video_workload) \
        .run(["apparate"]).result("apparate")
    assert {"p50_ms", "accuracy", "threshold_tunings", "ramp_adjustments",
            "active_ramps"} <= set(result.raw.summary())


def test_run_apparate_with_ablation_switch(small_video_workload):
    result = Experiment(model="resnet50", workload=small_video_workload,
                        ee=ExitPolicySpec(ramp_adjustment_enabled=False)) \
        .run(["apparate"]).result("apparate").raw
    assert result.controller.stats.ramp_adjustments == 0


def test_run_apparate_alternative_ramp_style(small_nlp_workload):
    result = Experiment(model="bert-base", workload=small_nlp_workload,
                        ee=ExitPolicySpec(ramp_style=RampStyle.DEEP_POOLER)) \
        .run(["apparate"]).result("apparate").raw
    assert result.metrics.accuracy() >= 0.98


def test_run_apparate_on_quantized_model(small_nlp_workload):
    quantized = quantized_spec(get_model("bert-base"), register=True)
    result = Experiment(model=quantized, workload=small_nlp_workload) \
        .run(["apparate"]).result("apparate").raw
    assert len(result.metrics.served()) > 0
    assert result.metrics.accuracy() >= 0.98


class TestApparateAPI:
    def test_register_and_serve(self, small_video_workload):
        system = Apparate(seed=0)
        deployment = system.register("resnet50", bootstrap_workload=small_video_workload)
        assert deployment.preparation.num_candidate_ramps > 5
        assert deployment.preparation.training is not None
        result = deployment.serve(small_video_workload)
        vanilla = deployment.serve_vanilla(small_video_workload)
        assert result.metrics.median_latency() < vanilla.median_latency()

    def test_register_without_bootstrap(self):
        system = Apparate()
        deployment = system.register("vgg11")
        assert deployment.preparation.training is None
        assert deployment.slo_ms == get_model("vgg11").default_slo_ms

    def test_registered_models_listing(self):
        system = Apparate()
        system.register("resnet18")
        system.register("vgg11")
        assert system.registered_models() == ["resnet18", "vgg11"]
        assert system.deployment("vgg11").spec.name == "vgg11"
        with pytest.raises(KeyError):
            system.deployment("bert-base")

    def test_custom_slo_and_constraints(self):
        system = Apparate()
        deployment = system.register("resnet50", slo_ms=100.0, accuracy_constraint=0.05,
                                     ramp_budget=0.05)
        assert deployment.slo_ms == 100.0
        assert deployment.accuracy_constraint == 0.05
        assert deployment.ramp_budget == 0.05
