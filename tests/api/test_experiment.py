"""Tests for the declarative Experiment facade: runs, overrides, sweeps, JSON."""

import json

import pytest

from repro.api import (ClusterSpec, Experiment, ExitPolicySpec, WorkloadSpec,
                       KIND_CLASSIFICATION, KIND_CLUSTER, KIND_GENERATIVE)
from repro.exits.ramps import RampStyle
from repro.baselines.static_ee import StaticEEResult, StaticEEVariant


WORKLOAD = WorkloadSpec("video", "urban-day", requests=500)


# ------------------------------------------------------------------- basics

def test_kind_dispatch():
    assert Experiment(model="resnet50", workload=WORKLOAD).kind == KIND_CLASSIFICATION
    assert Experiment(model="resnet50", workload=WORKLOAD,
                      cluster=ClusterSpec(replicas=2)).kind == KIND_CLUSTER
    generative = Experiment(model="t5-large",
                            workload=WorkloadSpec("generative", requests=10))
    assert generative.kind == KIND_GENERATIVE


def test_run_produces_report_with_named_metrics():
    report = Experiment(model="resnet50", workload=WORKLOAD, seed=3) \
        .run(["vanilla", "apparate"])
    assert report.systems() == ["vanilla", "apparate"]
    for system in ("vanilla", "apparate"):
        summary = report.result(system).summary
        assert {"p50_ms", "p95_ms", "throughput_qps", "accuracy"} <= set(summary)
    assert report.result("apparate").metric("exit_rate") > 0.0


def test_run_rejects_mismatched_workload_kind():
    with pytest.raises(ValueError, match="generative"):
        Experiment(model="t5-large", workload=WORKLOAD).run(["vanilla"])
    with pytest.raises(ValueError, match="resnet50"):
        Experiment(model="resnet50",
                   workload=WorkloadSpec("generative", requests=10)).run(["vanilla"])


def test_run_rejects_unsupported_system_for_kind():
    with pytest.raises(ValueError, match="free"):
        Experiment(model="resnet50", workload=WORKLOAD).run(["free"])
    with pytest.raises(ValueError, match="static_ee"):
        Experiment(model="resnet50", workload=WORKLOAD,
                   cluster=ClusterSpec(replicas=2)).run(["static_ee"])


def test_spec_validation_names_the_offending_value():
    with pytest.raises(ValueError, match="-3"):
        ClusterSpec(replicas=-3)
    with pytest.raises(ValueError, match="coin_flip"):
        ClusterSpec(balancer="coin_flip")
    with pytest.raises(ValueError, match="anarchic"):
        ClusterSpec(fleet_mode="anarchic")
    with pytest.raises(ValueError, match="audio"):
        WorkloadSpec("audio")
    with pytest.raises(ValueError, match="-0.5"):
        ExitPolicySpec(accuracy_constraint=-0.5)
    for rate in (0.0, -1.0, float("nan"), float("inf")):
        for kind in ("video", "nlp", "generative"):
            with pytest.raises(ValueError, match=f"rate .*{rate}"):
                WorkloadSpec(kind, rate=rate)
    for budget in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"ramp_budget .*{budget}"):
            ExitPolicySpec(ramp_budget=budget)
    with pytest.raises(ValueError, match="ramp_style 'zzz'"):
        ExitPolicySpec(ramp_style="zzz")
    assert ExitPolicySpec(ramp_style="conv_heavy").ramp_style is \
        RampStyle.CONV_HEAVY
    with pytest.raises(ValueError, match="unknown model 'nope'"):
        Experiment(model="nope", workload=WORKLOAD)
    for slo_ms in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"slo_ms .*{slo_ms}"):
            Experiment(model="resnet50", workload=WORKLOAD, slo_ms=slo_ms)
    # Integer fields: NaN, infinite and fractional values name the field.
    for value in (float("nan"), float("inf"), 2.5):
        for field in ("requests", "seed", "prefix_groups", "prefix_tokens"):
            with pytest.raises(ValueError, match=f"{field} must be an "
                                                 f"integer, got {value}"):
                WorkloadSpec("generative", **{field: value})
        for field in ClusterSpec.INT_KEYS:
            knobs = {"replicas": 2, field: value}
            if field.startswith(("prefill", "decode")):
                knobs["disaggregate"] = True
            with pytest.raises(ValueError, match=f"{field} must be an "
                                                 f"integer, got {value}"):
                ClusterSpec(**knobs)
        with pytest.raises(ValueError, match=f"initial_ramp_ids .*{value}"):
            ExitPolicySpec(initial_ramp_ids=(1, value))
        for field in ("seed", "max_batch_size"):
            with pytest.raises(ValueError, match=f"{field} must be an "
                                                 f"integer, got {value}"):
                Experiment(model="resnet50", workload=WORKLOAD,
                           **{field: value})
    # Integral floats stay accepted, stored as ints.
    assert WorkloadSpec("video", requests=2000.0).requests == 2000
    assert type(ClusterSpec(replicas=3.0, sync_period=32.0).sync_period) is int


# ----------------------------------------------------------------- overrides

def test_system_overrides_reach_the_runner(small_video_workload):
    """Per-system overrides carry knobs only one system understands."""
    report = Experiment(
        model="resnet50", workload=small_video_workload, seed=4,
        overrides={"static_ee": {"variant": StaticEEVariant.PER_RAMP}}) \
        .run(["static_ee"])
    result = report.result("static_ee")
    assert result.details["variant"] == "per_ramp"
    assert isinstance(result.raw, StaticEEResult)
    assert result.summary == result.raw.summary()


def test_generative_cluster_runs_every_generative_system():
    """A cluster spec on a generative model dispatches to the generative
    fleet control plane (the old 'not yet supported' rejection is gone)."""
    experiment = Experiment(model="t5-large",
                            workload=WorkloadSpec("generative", requests=24),
                            cluster=ClusterSpec(replicas=4))
    assert experiment.kind == "generative_cluster"
    report = experiment.run(["vanilla", "apparate", "free", "optimal"])
    for system in ("vanilla", "apparate", "free", "optimal"):
        summary = report.result(system).summary
        assert summary["num_replicas"] == 4.0
        assert summary["peak_replicas"] == 4.0
        assert {"tpt_p50_ms", "token_p99_ms", "dispatch_imbalance"} <= set(summary)


def test_remaining_unsupported_combinations_name_the_offenders():
    """Kind-unsupported systems raise naming the system, kind and model."""
    generative_cluster = Experiment(
        model="t5-large", workload=WorkloadSpec("generative", requests=5),
        cluster=ClusterSpec(replicas=2))
    with pytest.raises(ValueError, match="static_ee.*generative_cluster.*t5-large"):
        generative_cluster.run(["static_ee"])
    with pytest.raises(ValueError, match="two_layer"):
        generative_cluster.run(["two_layer"])
    with pytest.raises(ValueError, match="free.*cluster.*resnet50"):
        Experiment(model="resnet50", workload=WORKLOAD,
                   cluster=ClusterSpec(replicas=2)).run(["free"])


def test_optimal_runs_on_the_experiment_drop_policy():
    """The oracle must be computed on the same drop_expired configuration."""
    workload = WorkloadSpec("video", requests=400, rate=240.0)
    report = Experiment(model="resnet50", workload=workload,
                        drop_expired=False, seed=0).run(["vanilla", "optimal"])
    assert report.result("vanilla").metric("num_served") == 400.0
    assert report.result("optimal").metric("num_served") == 400.0


def test_describe_records_all_run_shaping_knobs():
    experiment = Experiment(model="resnet50", workload=WORKLOAD,
                            drop_expired=False, max_batch_size=8,
                            ee=ExitPolicySpec(ramp_adjustment_enabled=False,
                                              initial_ramp_ids=(2, 5)))
    params = experiment.describe()
    assert params["drop_expired"] is False
    assert params["max_batch_size"] == 8
    assert params["ee"]["ramp_adjustment_enabled"] is False
    assert params["ee"]["initial_ramp_ids"] == [2, 5]


def test_overrides_keyed_by_alias_reach_the_canonical_system():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100),
                            overrides={"static": {"variant": "per_ramp"}})
    result = experiment.run(["static_ee"]).result("static_ee")
    assert result.details["variant"] == "per_ramp"


def test_overrides_for_unknown_system_raise():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100),
                            overrides={"static_eee": {"variant": "per_ramp"}})
    with pytest.raises(ValueError, match="static_eee"):
        experiment.run(["static_ee"])


def test_unknown_override_keyword_raises_value_error():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100),
                            overrides={"vanilla": {"bogus_knob": 1}})
    with pytest.raises(ValueError, match="bogus_knob"):
        experiment.run(["vanilla"])


@pytest.mark.parametrize("system, knob", [("vanilla", "seed"),
                                          ("vanilla", "replicas"),
                                          ("apparate", "obs"),
                                          ("static_ee", "experiment"),
                                          ("two_layer", "calibration_fraction")])
def test_override_repeating_an_experiment_knob_raises_value_error(system, knob):
    """A knob the experiment already sets is not a per-system override."""
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100),
                            overrides={system: {knob: None}})
    with pytest.raises(ValueError, match=f"invalid override for system "
                                         f"'{system}'.*{knob}"):
        experiment.run([system])


# -------------------------------------------------------------------- sweeps

def test_sweep_over_replicas_and_balancer():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=300))
    sweep = experiment.sweep(systems=["vanilla"], replicas=[1, 2],
                             balancer=["round_robin", "join_shortest_queue"])
    assert len(sweep) == 4
    assert [p.params for p in sweep][:2] == [
        {"replicas": 1, "balancer": "round_robin"},
        {"replicas": 1, "balancer": "join_shortest_queue"},
    ]
    for point in sweep:
        assert point.report.result("vanilla").kind == KIND_CLUSTER
        assert point.report.result("vanilla").metric("num_served") == 300.0


def test_sweep_is_deterministic():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=300), seed=9)
    first = experiment.sweep(systems=["vanilla", "apparate"], replicas=[1, 2])
    second = experiment.sweep(systems=["vanilla", "apparate"], replicas=[1, 2])
    assert first.to_json() == second.to_json()


def test_sweep_rejects_unknown_parameter():
    experiment = Experiment(model="resnet50", workload=WORKLOAD)
    with pytest.raises(ValueError, match="voltage"):
        experiment.sweep(voltage=[1, 2])


def test_sweep_validates_whole_grid_before_running(monkeypatch):
    """A bad value anywhere in the grid must fail before any point runs."""
    import repro.api.registry as registry
    ran = []
    monkeypatch.setattr(
        registry.SystemRunner, "run",
        lambda self, experiment, **kw: ran.append(self.name))
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100))
    with pytest.raises(ValueError, match="coin_flip"):
        experiment.sweep(systems=["vanilla"],
                         balancer=["round_robin", "coin_flip"])
    assert ran == [], "grid points ran before the grid was fully validated"


def test_sweep_workload_axis_requires_spec(small_video_workload):
    experiment = Experiment(model="resnet50", workload=small_video_workload)
    with pytest.raises(ValueError, match="WorkloadSpec"):
        experiment.sweep(requests=[100, 200])


def test_sweep_shares_workload_when_no_workload_axis(monkeypatch):
    """Sweeping replicas must not regenerate the identical workload per point."""
    builds = []
    original_build = WorkloadSpec.build

    def counting_build(self, default_seed=0):
        builds.append(default_seed)
        return original_build(self, default_seed)

    monkeypatch.setattr(WorkloadSpec, "build", counting_build)
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=100))
    experiment.sweep(systems=["vanilla"], replicas=[1, 2, 4])
    assert len(builds) == 1
    # Sweeping the seed must rebuild, since the trace depends on it.
    builds.clear()
    experiment2 = Experiment(model="resnet50",
                             workload=WorkloadSpec("video", requests=100))
    experiment2.sweep(systems=["vanilla"], replicas=[1], seed=[0, 1])
    assert len(builds) == 2


def test_sweep_scalar_values_are_promoted_to_axes():
    experiment = Experiment(model="resnet50",
                            workload=WorkloadSpec("video", requests=200))
    sweep = experiment.sweep(systems=["vanilla"], replicas=2, seed=5)
    assert len(sweep) == 1
    assert sweep.points[0].params == {"replicas": 2, "seed": 5}


# ---------------------------------------------------- disaggregated serving

def test_disagg_kind_dispatch_and_validation():
    generative = WorkloadSpec("generative", requests=10)
    disagg = Experiment(model="t5-large", workload=generative,
                        cluster=ClusterSpec(replicas=2, disaggregate=True))
    assert disagg.kind == "generative_disagg"
    # A non-generative model cannot disaggregate.
    with pytest.raises(ValueError, match="disaggregate.*generative"):
        Experiment(model="resnet50", workload=WORKLOAD,
                   cluster=ClusterSpec(replicas=2, disaggregate=True)).kind


def test_cluster_spec_rejects_pool_keys_without_disaggregate():
    """Pool knobs on a monolithic spec would be silently dead configuration,
    so construction rejects them naming the offending key."""
    with pytest.raises(ValueError, match="prefill_replicas"):
        ClusterSpec(replicas=2, prefill_replicas=3)
    with pytest.raises(ValueError, match="decode_autoscaler"):
        ClusterSpec(replicas=2, decode_autoscaler="reactive")


def test_cluster_spec_rejects_fleet_sizing_keys_with_disaggregate():
    """The converse dead-configuration class: fleet-wide bounds/profiles
    have no meaning once the fleet is split into pools."""
    with pytest.raises(ValueError, match="min_replicas.*prefill"):
        ClusterSpec(replicas=2, disaggregate=True, autoscaler="reactive",
                    min_replicas=2)
    with pytest.raises(ValueError, match="profiles"):
        ClusterSpec(replicas=2, disaggregate=True, profiles="2,1")
    with pytest.raises(ValueError, match="prefill_in_slot"):
        ClusterSpec(replicas=2, disaggregate=True, prefill_in_slot=True)
    # describe() reports only the knobs that actually apply per deployment.
    disagg = ClusterSpec(replicas=2, disaggregate=True).describe()
    assert "min_replicas" not in disagg and "profiles" not in disagg
    assert "decode_min_replicas" in disagg


def test_prefill_in_slot_is_a_generative_cluster_knob():
    """prefill_in_slot reaches the monolithic generative fleet through the
    public spec surface (and is rejected on classification models)."""
    workload = WorkloadSpec("generative", requests=10, rate=20.0)
    spec = ClusterSpec(replicas=1, prefill_in_slot=True)
    inslot = Experiment(model="t5-large", workload=workload, cluster=spec) \
        .run(["vanilla"]).result("vanilla")
    free_prompts = Experiment(model="t5-large", workload=workload,
                              cluster=ClusterSpec(replicas=1)) \
        .run(["vanilla"]).result("vanilla")
    # Charging prefill in the decode slot can only lengthen TTFT.
    assert inslot.summary["ttft_mean_ms"] > free_prompts.summary["ttft_mean_ms"]
    with pytest.raises(ValueError, match="prefill_in_slot.*generative"):
        Experiment(model="resnet50", workload=WORKLOAD, cluster=spec).kind


def test_explicit_unknown_arrival_process_raises_per_kind():
    """An explicitly named process the kind's factory does not know raises
    instead of silently serving a different trace."""
    with pytest.raises(ValueError, match="maf"):
        WorkloadSpec("generative", requests=5, arrival_process="maf").build()
    with pytest.raises(ValueError, match="diurnal"):
        WorkloadSpec("nlp", requests=5, arrival_process="diurnal").build()
    # None picks each kind's default process.
    WorkloadSpec("generative", requests=5).build()
    WorkloadSpec("nlp", requests=5).build()


def test_video_workload_rejects_an_arrival_process():
    """Video frames arrive at the fixed fps: a process there would be
    silently ignored, so the spec refuses it."""
    with pytest.raises(ValueError, match="arrival_process.*video"):
        WorkloadSpec("video", requests=5, arrival_process="flash_crowd")


def test_describe_reports_the_arrival_process_when_set():
    base = WorkloadSpec("nlp", requests=5).describe()
    assert "arrival_process" not in base
    crowd = WorkloadSpec("nlp", requests=5,
                         arrival_process="flash_crowd").describe()
    assert crowd == {**base, "arrival_process": "flash_crowd"}
    assert crowd != WorkloadSpec("nlp", requests=5,
                                 arrival_process="maf").describe()


def test_disagg_runs_every_generative_system():
    experiment = Experiment(
        model="t5-large", workload=WorkloadSpec("generative", requests=24),
        cluster=ClusterSpec(replicas=2, disaggregate=True,
                            prefill_replicas=1, decode_replicas=3))
    report = experiment.run(["vanilla", "apparate", "free", "optimal"])
    for system in ("vanilla", "apparate", "free", "optimal"):
        result = report.result(system)
        assert result.kind == "generative_disagg"
        assert result.summary["prefill_replicas"] == 1.0
        assert result.summary["num_replicas"] == 3.0
        assert {"ttft_p99_ms", "ttft_mean_ms", "transfer_ms_mean",
                "prefill_replica_seconds"} <= set(result.summary)
        assert "prefill_fleet_timeline" in result.details
    json.dumps(report.to_json())     # fully JSON-safe


def test_ttft_surfaces_for_every_generative_kind():
    """TTFT (mean + p99) rides on RunResult for single-engine, cluster and
    disaggregated generative runs alike."""
    generative = WorkloadSpec("generative", requests=12)
    for cluster in (None, ClusterSpec(replicas=2),
                    ClusterSpec(replicas=2, disaggregate=True)):
        report = Experiment(model="t5-large", workload=generative,
                            cluster=cluster).run(["vanilla"])
        summary = report.result("vanilla").summary
        assert summary["ttft_p99_ms"] >= summary["tpt_p50_ms"]
        assert summary["ttft_mean_ms"] > 0.0
        assert "shed" in summary


def test_sweep_accepts_pool_keys_and_implies_disaggregate():
    """Regression: the cluster grid takes the per-pool keys (implying
    disaggregate=True) instead of silently ignoring them."""
    experiment = Experiment(model="t5-large",
                            workload=WorkloadSpec("generative", requests=16))
    sweep = experiment.sweep(systems=["vanilla"],
                             prefill_replicas=[1, 2], decode_replicas=2)
    assert len(sweep) == 2
    for point in sweep:
        result = point.report.result("vanilla")
        assert result.kind == "generative_disagg"
        assert result.params["cluster"]["disaggregate"] is True
    assert [p.params["prefill_replicas"] for p in sweep] == [1, 2]
    assert sweep.results("vanilla")[0].summary["prefill_replicas"] == 1.0
    assert sweep.results("vanilla")[1].summary["prefill_replicas"] == 2.0


def test_sweep_rejects_unknown_cluster_key_naming_it():
    """Regression: an unknown cluster-grid key raises ValueError naming the
    key instead of being silently dropped."""
    experiment = Experiment(model="t5-large",
                            workload=WorkloadSpec("generative", requests=16))
    with pytest.raises(ValueError, match="prefill_replica_count"):
        experiment.sweep(systems=["vanilla"], prefill_replica_count=[1, 2])


# ---------------------------------------------------------------------- JSON

def test_report_to_json_round_trips():
    report = Experiment(model="resnet50",
                        workload=WorkloadSpec("video", requests=200), seed=1) \
        .run(["vanilla", "apparate"])
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["schema"] == "repro.run_report/v1"
    assert [r["system"] for r in payload["results"]] == ["vanilla", "apparate"]
    assert payload["results"][0]["summary"]["num_served"] == 200.0
    assert payload["params"]["model"] == "resnet50"


def test_format_table_renders_missing_metrics_as_dash():
    report = Experiment(model="resnet50",
                        workload=WorkloadSpec("video", requests=150), seed=1) \
        .run(["vanilla", "two_layer"])
    table = report.format_table()
    assert "two-layer" in table
    assert "-" in table          # two_layer reports no drop_rate/throughput
    assert "median latency" in table
