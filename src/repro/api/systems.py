"""Registered serving systems: every comparable system behind one interface.

Each runner adapts one of the repo's serving implementations (Apparate,
vanilla, and the paper's baselines) to the registry contract: take an
:class:`~repro.api.experiment.Experiment`, dispatch on its kind
(classification / cluster / generative / generative_cluster /
generative_disagg), and return a :class:`~repro.api.result.RunResult` in
the shared schema.  A single-replica kind runs the same fleet
implementation as its cluster kind on a one-replica pool and reports that
replica's own result.  The legacy ``run_*`` entry points are thin shims
over these registrations.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.api.registry import register_system
from repro.api.result import (KIND_CLASSIFICATION, KIND_CLUSTER, KIND_GENERATIVE,
                              KIND_GENERATIVE_CLUSTER, KIND_GENERATIVE_DISAGG,
                              RunResult)
from repro.api.specs import ClusterSpec
from repro.baselines.free import (_free_generative_cluster_impl,
                                  _free_generative_disagg_impl)
from repro.baselines.oracle import (_optimal_classification_impl,
                                    _optimal_generative_cluster_impl,
                                    _optimal_generative_disagg_impl)
from repro.baselines.static_ee import StaticEEVariant, _static_ee_impl
from repro.baselines.two_layer import _two_layer_impl
from repro.core.generative import (GenerativeRunResult,
                                   _generative_apparate_cluster_impl,
                                   _generative_apparate_disagg_impl,
                                   _generative_vanilla_cluster_impl,
                                   _generative_vanilla_disagg_impl)
from repro.core.pipeline import (ApparateRunResult, _apparate_cluster_impl,
                                 _vanilla_cluster_impl)
from repro.obs import build_recorder
from repro.serving.disagg import DisaggregatedMetrics
from repro.serving.generative_cluster import GenerativeClusterMetrics
from repro.serving.metrics import ClusterMetrics, FleetMetrics

__all__ = ["REGISTERED_SYSTEMS"]

#: Canonical registry contents; tests assert the registry matches this set.
REGISTERED_SYSTEMS = ("apparate", "free", "optimal", "static_ee", "two_layer",
                      "vanilla")

_CLASSIFY_BATCH = 16
_GENERATIVE_BATCH = 8

#: The pool a single-replica experiment (one without a ClusterSpec) serves
#: on: one replica, every fleet knob at its default.
_ONE_REPLICA = ClusterSpec(replicas=1)


def _result(experiment, system: str, kind: str, summary: Dict[str, float],
            raw: Any, details: Optional[Dict[str, Any]] = None,
            trace=None) -> RunResult:
    details = dict(details) if details else {}
    if trace is not None and trace.enabled:
        details["obs"] = trace.summary()
    return RunResult(system=system, kind=kind, model=experiment.spec.name,
                     summary=dict(summary), params=experiment.describe(),
                     details=details, raw=raw, trace=trace)


def _recorder_for(experiment):
    """The live recorder for ``Experiment.trace``, or ``None`` when off.

    ``None`` (not :data:`~repro.obs.NULL_RECORDER`) keeps untraced runs on
    the exact pre-observability code path: the runners fall back to their
    module-level null recorder singleton.
    """
    recorder = build_recorder(experiment.trace)
    return recorder if recorder.enabled else None


def _pool(experiment) -> ClusterSpec:
    """The experiment's fleet, or the one-replica pool when it has none."""
    return experiment.cluster if experiment.cluster is not None else _ONE_REPLICA


def _cluster_kwargs(experiment) -> Dict[str, Any]:
    cluster = _pool(experiment)
    return {
        "replicas": cluster.replicas,
        "balancer": cluster.balancer,
        "platform": experiment.platform,
        "slo_ms": experiment.slo_ms,
        "max_batch_size": experiment.batch_size(_CLASSIFY_BATCH),
        "seed": experiment.seed,
        "drop_expired": experiment.drop_expired,
        "autoscaler": cluster.autoscaler,
        "min_replicas": cluster.resolved_min_replicas(),
        "max_replicas": cluster.resolved_max_replicas(),
        "profiles": cluster.profiles,
        "tenancy": cluster.tenants,
        "faults": cluster.faults,
    }


def _fleet_details(metrics: FleetMetrics) -> Dict[str, Any]:
    """Cluster extras every fleet system reports: dispatch balance plus the
    autoscaling fleet-size timeline and replica-seconds consumed of each
    pool (the decode pool first in a disaggregated run)."""
    pool = metrics.pool
    details = {
        "dispatch_counts": list(pool.dispatch_counts),
        "fleet_timeline": [[float(t), int(n)] for t, n in pool.timeline],
        "replica_seconds": float(pool.replica_seconds),
    }
    if isinstance(metrics, ClusterMetrics):
        details["rerouted"] = int(metrics.rerouted)
    if metrics.crashes or metrics.recoveries:
        details["crashes"] = int(metrics.crashes)
        details["recoveries"] = int(metrics.recoveries)
        details["requeued"] = int(metrics.requeued)
    if metrics.tenant_rollups:
        details["tenant_rollups"] = {tenant: dict(stats) for tenant, stats
                                     in metrics.tenant_rollups.items()}
    if metrics.kernel_stats:
        details["kernel"] = dict(metrics.kernel_stats)
    aggregate = metrics.aggregate()
    if isinstance(metrics, GenerativeClusterMetrics) and aggregate.kv_enabled:
        details["kv_cache"] = {
            "hit_rate": aggregate.kv_hit_rate(),
            "hit_tokens": int(aggregate.kv_hit_tokens),
            "miss_tokens": int(aggregate.kv_miss_tokens),
            "evictions": int(aggregate.kv_evictions),
            "evicted_tokens": int(aggregate.kv_evicted_tokens),
            "recompute_tokens": int(aggregate.kv_recompute_tokens),
        }
    if isinstance(metrics, DisaggregatedMetrics):
        prefill = metrics.prefill
        details.update({
            "prefill_dispatch_counts": list(prefill.dispatch_counts),
            "prefill_token_counts": list(metrics.prefill_token_counts),
            "prefill_fleet_timeline": [[float(t), int(n)]
                                       for t, n in prefill.timeline],
            "prefill_replica_seconds": float(prefill.replica_seconds),
        })
    return details


def _generative_cluster_kwargs(experiment) -> Dict[str, Any]:
    """ClusterSpec knobs threaded into every generative fleet system."""
    cluster = _pool(experiment)
    return {
        "replicas": cluster.replicas,
        "balancer": cluster.balancer,
        "max_batch_size": experiment.batch_size(_GENERATIVE_BATCH),
        "seed": experiment.seed,
        "autoscaler": cluster.autoscaler,
        "min_replicas": cluster.resolved_min_replicas(),
        "max_replicas": cluster.resolved_max_replicas(),
        "profiles": cluster.profiles,
        "prefill_in_slot": cluster.prefill_in_slot,
        "ttft_slo_ms": experiment.slo_ms,
        "tenancy": cluster.tenants,
        "faults": cluster.faults,
        "kv_capacity": cluster.kv_capacity,
    }


def _disagg_kwargs(experiment) -> Dict[str, Any]:
    """Per-pool ClusterSpec knobs threaded into every disaggregated system."""
    cluster = experiment.cluster
    prefill_min, prefill_max = cluster.resolved_prefill_band()
    decode_min, decode_max = cluster.resolved_decode_band()
    return {
        "prefill_replicas": cluster.resolved_prefill_replicas(),
        "decode_replicas": cluster.resolved_decode_replicas(),
        # Raw values (not canonical names) so balancer/autoscaler *instances*
        # reach the platform with their configuration intact.
        "prefill_balancer": cluster.prefill_balancer
        if cluster.prefill_balancer is not None else cluster.balancer,
        "decode_balancer": cluster.decode_balancer
        if cluster.decode_balancer is not None else cluster.balancer,
        "max_batch_size": experiment.batch_size(_GENERATIVE_BATCH),
        "seed": experiment.seed,
        "prefill_autoscaler": cluster.prefill_autoscaler
        if cluster.prefill_autoscaler is not None else cluster.autoscaler,
        "decode_autoscaler": cluster.decode_autoscaler
        if cluster.decode_autoscaler is not None else cluster.autoscaler,
        "prefill_min_replicas": prefill_min,
        "prefill_max_replicas": prefill_max,
        "decode_min_replicas": decode_min,
        "decode_max_replicas": decode_max,
        "prefill_profiles": cluster.prefill_profiles,
        "decode_profiles": cluster.decode_profiles,
        "ttft_slo_ms": experiment.slo_ms,
        "tenancy": cluster.tenants,
        "faults": cluster.faults,
        "kv_capacity": cluster.kv_capacity,
    }


def _pool_result(experiment, system: str, metrics, trace) -> RunResult:
    """Report a pool run whose raw outcome is its metrics: the fleet rollups
    for a cluster experiment, the one replica's own metrics otherwise."""
    if experiment.cluster is None:
        single = metrics.aggregate()
        return _result(experiment, system, experiment.kind, single.summary(),
                       raw=single, trace=trace)
    return _result(experiment, system, experiment.kind, metrics.summary(),
                   raw=metrics, details=_fleet_details(metrics), trace=trace)


# ---------------------------------------------------------------------------
# Core systems.
# ---------------------------------------------------------------------------

@register_system(
    "vanilla",
    kinds=(KIND_CLASSIFICATION, KIND_CLUSTER, KIND_GENERATIVE,
           KIND_GENERATIVE_CLUSTER, KIND_GENERATIVE_DISAGG),
    description="the original model with no early exits (the paper's baseline)",
    aliases=("baseline",))
def _vanilla_system(experiment, **kw) -> RunResult:
    obs = _recorder_for(experiment)
    if experiment.kind == KIND_GENERATIVE_DISAGG:
        metrics = _generative_vanilla_disagg_impl(
            experiment.spec, experiment.workload_obj(),
            **_disagg_kwargs(experiment), obs=obs, **kw)
    elif experiment.is_generative:
        metrics = _generative_vanilla_cluster_impl(
            experiment.spec, experiment.workload_obj(),
            **_generative_cluster_kwargs(experiment), obs=obs, **kw)
    else:
        metrics = _vanilla_cluster_impl(experiment.spec, experiment.workload_obj(),
                                        **_cluster_kwargs(experiment), obs=obs,
                                        **kw)
    return _pool_result(experiment, "vanilla", metrics, obs)


@register_system(
    "apparate",
    kinds=(KIND_CLASSIFICATION, KIND_CLUSTER, KIND_GENERATIVE,
           KIND_GENERATIVE_CLUSTER, KIND_GENERATIVE_DISAGG),
    description="Apparate: adaptive early exits managed at runtime (the system)")
def _apparate_system(experiment, **kw) -> RunResult:
    ee = experiment.ee
    cluster = _pool(experiment)
    obs = _recorder_for(experiment)
    if experiment.is_generative:
        if experiment.kind == KIND_GENERATIVE_DISAGG:
            impl, pool_kwargs = (_generative_apparate_disagg_impl,
                                 _disagg_kwargs(experiment))
        else:
            impl, pool_kwargs = (_generative_apparate_cluster_impl,
                                 _generative_cluster_kwargs(experiment))
        outcome = impl(experiment.spec, experiment.workload_obj(),
                       fleet_mode=cluster.fleet_mode,
                       accuracy_constraint=ee.accuracy_constraint,
                       **pool_kwargs, obs=obs, **kw)
        if experiment.cluster is None:
            policy = outcome.policies[0]
            single = GenerativeRunResult(metrics=outcome.metrics.aggregate(),
                                         policy=policy)
            return _result(experiment, "apparate", KIND_GENERATIVE,
                           single.summary(), raw=single,
                           details={"ramp_depth": policy.ramp_depth,
                                    "threshold": policy.threshold},
                           trace=obs)
        summary = outcome.summary()
        details = _fleet_details(outcome.metrics)
        details["fleet_mode"] = cluster.fleet_mode
        details["ramp_depth"] = summary.get("ramp_depth", 0.0)
        details["threshold"] = summary.get("threshold", 0.0)
        return _result(experiment, "apparate", experiment.kind,
                       summary, raw=outcome, details=details, trace=obs)
    outcome = _apparate_cluster_impl(
        experiment.spec, experiment.workload_obj(),
        fleet_mode=cluster.fleet_mode, sync_period=cluster.sync_period,
        accuracy_constraint=ee.accuracy_constraint,
        ramp_budget=ee.ramp_budget, ramp_style=ee.ramp_style,
        ramp_adjustment_enabled=ee.ramp_adjustment_enabled,
        initial_ramp_ids=ee.initial_ramp_ids,
        **_cluster_kwargs(experiment), obs=obs, **kw)
    if experiment.cluster is None:
        controller = outcome.fleet.primary()
        single = ApparateRunResult(metrics=outcome.metrics.aggregate(),
                                   controller=controller)
        return _result(experiment, "apparate", KIND_CLASSIFICATION,
                       single.summary(), raw=single,
                       details={"final_config": controller.config.describe()},
                       trace=obs)
    details = _fleet_details(outcome.metrics)
    details["fleet_mode"] = cluster.fleet_mode
    return _result(
        experiment, "apparate", KIND_CLUSTER, outcome.summary(), raw=outcome,
        details=details, trace=obs)


# ---------------------------------------------------------------------------
# Paper baselines.
# ---------------------------------------------------------------------------

@register_system(
    "static_ee",
    kinds=(KIND_CLASSIFICATION,),
    description="BranchyNet/DeeBERT-style static early exits, one-time tuning",
    aliases=("static",))
def _static_ee_system(experiment, variant=StaticEEVariant.SHARED,
                      **kw) -> RunResult:
    obs = _recorder_for(experiment)
    outcome = _static_ee_impl(experiment.spec, experiment.workload_obj(),
                              variant=StaticEEVariant(variant),
                              ramp_style=experiment.ee.ramp_style,
                              platform=experiment.platform,
                              slo_ms=experiment.slo_ms,
                              accuracy_constraint=experiment.ee.accuracy_constraint,
                              max_batch_size=experiment.batch_size(_CLASSIFY_BATCH),
                              seed=experiment.seed, obs=obs, **kw)
    return _result(experiment, "static_ee", KIND_CLASSIFICATION, outcome.summary(),
                   raw=outcome,
                   details={"variant": StaticEEVariant(variant).value,
                            "thresholds": list(outcome.thresholds),
                            "ramp_depths": list(outcome.ramp_depths)},
                   trace=obs)


@register_system(
    "two_layer",
    kinds=(KIND_CLASSIFICATION,),
    description="two-layer cascade (Tabi/FilterForward): compressed model + escalation")
def _two_layer_system(experiment, **kw) -> RunResult:
    obs = _recorder_for(experiment)
    outcome = _two_layer_impl(experiment.spec, experiment.workload_obj(),
                              platform=experiment.platform,
                              slo_ms=experiment.slo_ms,
                              accuracy_constraint=experiment.ee.accuracy_constraint,
                              max_batch_size=experiment.batch_size(_CLASSIFY_BATCH),
                              seed=experiment.seed, obs=obs, **kw)
    return _result(experiment, "two_layer", KIND_CLASSIFICATION, outcome.summary(),
                   raw=outcome, trace=obs)


@register_system(
    "free",
    kinds=(KIND_GENERATIVE, KIND_GENERATIVE_CLUSTER, KIND_GENERATIVE_DISAGG),
    description="FREE (Bae et al.): one fixed generative ramp, no runtime adaptation")
def _free_system(experiment, **kw) -> RunResult:
    obs = _recorder_for(experiment)
    if experiment.kind == KIND_GENERATIVE_DISAGG:
        metrics = _free_generative_disagg_impl(
            experiment.spec, experiment.workload_obj(),
            accuracy_constraint=experiment.ee.accuracy_constraint,
            **_disagg_kwargs(experiment), obs=obs, **kw)
    else:
        metrics = _free_generative_cluster_impl(
            experiment.spec, experiment.workload_obj(),
            accuracy_constraint=experiment.ee.accuracy_constraint,
            **_generative_cluster_kwargs(experiment), obs=obs, **kw)
    return _pool_result(experiment, "free", metrics, obs)


@register_system(
    "optimal",
    kinds=(KIND_CLASSIFICATION, KIND_GENERATIVE, KIND_GENERATIVE_CLUSTER,
           KIND_GENERATIVE_DISAGG),
    description="optimal oracle: every input exits at its earliest correct ramp",
    aliases=("oracle",))
def _optimal_system(experiment, **kw) -> RunResult:
    obs = _recorder_for(experiment)
    if experiment.kind == KIND_GENERATIVE_DISAGG:
        metrics = _optimal_generative_disagg_impl(
            experiment.spec, experiment.workload_obj(),
            **_disagg_kwargs(experiment), obs=obs, **kw)
        return _pool_result(experiment, "optimal", metrics, obs)
    if experiment.is_generative:
        metrics = _optimal_generative_cluster_impl(
            experiment.spec, experiment.workload_obj(),
            **_generative_cluster_kwargs(experiment), obs=obs, **kw)
        return _pool_result(experiment, "optimal", metrics, obs)
    # Classification spans record the replayed vanilla timeline (the oracle
    # discounts its latencies analytically) — see _optimal_classification_impl.
    latencies = _optimal_classification_impl(
        experiment.spec, experiment.workload_obj(),
        platform=experiment.platform, slo_ms=experiment.slo_ms,
        max_batch_size=experiment.batch_size(_CLASSIFY_BATCH),
        seed=experiment.seed, drop_expired=experiment.drop_expired, obs=obs, **kw)
    summary = _latency_summary(latencies)
    return _result(experiment, "optimal", KIND_CLASSIFICATION, summary,
                   raw=latencies, trace=obs)


def _latency_summary(latencies: np.ndarray) -> Dict[str, float]:
    """Shared-schema summary for the oracle's bare latency array."""
    arr = np.asarray(latencies, dtype=float)
    if arr.size == 0:
        return {"p25_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
                "mean_ms": 0.0, "accuracy": 1.0, "num_served": 0.0}
    return {
        "p25_ms": float(np.percentile(arr, 25)),
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
        "mean_ms": float(arr.mean()),
        # The oracle exits where the prediction already matches the original
        # model, so it is lossless by construction.
        "accuracy": 1.0,
        "num_served": float(arr.size),
    }
