"""Optimal early exiting (§2.2): the upper bound Apparate is compared against.

For classification, the optimal strategy knows — for every input — the
earliest ramp position whose prediction matches the original model, exits
there with zero ramp overhead, and leaves queuing/scheduling untouched
(latencies of the vanilla run are reduced by exactly the serving time the
exit avoided).  For generative serving, every token exits at the earliest
candidate ramp that produces the correct value, ignoring the delay of
generating the remaining KV states (§4.3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.pipeline import Workload, _vanilla_cluster_impl, model_stack
from repro.generative.parallel import TokenFeedback
from repro.generative.sequences import GenerativeWorkload
from repro.models.prediction import PredictionModel
from repro.models.zoo import ModelSpec, get_model
from repro.serving.hf_pipelines import GenerativeMetrics, TokenDecision
from repro.serving.metrics import ServingMetrics
from repro.workloads.difficulty import DifficultyTrace

__all__ = ["optimal_exit_depths", "optimal_latencies", "run_optimal_classification",
           "OracleTokenPolicy", "run_optimal_generative"]


def optimal_exit_depths(trace: DifficultyTrace, prediction: PredictionModel,
                        candidate_depths: Sequence[float]) -> np.ndarray:
    """Earliest candidate depth at which each input's prediction is correct.

    Inputs whose prediction never emerges before the model end get depth 1.0
    (no exit).
    """
    depths = np.asarray(sorted(candidate_depths), dtype=float)
    required = prediction.required_depths(trace.raw_difficulty)
    result = np.ones(len(trace), dtype=float)
    if depths.size == 0:
        return result
    # For each input, the first candidate depth >= required depth.
    idx = np.searchsorted(depths, required, side="left")
    has_exit = idx < depths.size
    result[has_exit] = depths[idx[has_exit]]
    return result


def optimal_latencies(vanilla: ServingMetrics, trace: DifficultyTrace,
                      prediction: PredictionModel,
                      candidate_depths: Sequence[float]) -> np.ndarray:
    """Per-request latencies under optimal exiting, derived from a vanilla run.

    As in §2.2, queuing and scheduling decisions are untouched: each request's
    vanilla latency is reduced by the serving time between its optimal exit
    point and the end of the model.
    """
    exit_depths = optimal_exit_depths(trace, prediction, candidate_depths)
    latencies: List[float] = []
    for response in vanilla.served():
        depth = float(exit_depths[response.request_id])
        saved = response.serving_ms * (1.0 - depth)
        latencies.append(response.latency_ms - saved)
    return np.asarray(latencies, dtype=float)


def _optimal_classification_impl(model: Union[str, ModelSpec], workload: Workload,
                                 platform: str = "clockwork",
                                 slo_ms: Optional[float] = None,
                                 max_batch_size: int = 16, seed: int = 0,
                                 drop_expired: bool = True, obs=None) -> np.ndarray:
    # The oracle replays the vanilla run's schedule, so the recorded spans
    # are the vanilla serving timeline (its latencies are then discounted
    # analytically and do not correspond to any simulated timeline).
    spec, _profile, prediction, catalog, _executor = model_stack(model, seed=seed)
    vanilla = _vanilla_cluster_impl(spec, workload, replicas=1,
                                    platform=platform, slo_ms=slo_ms,
                                    max_batch_size=max_batch_size, seed=seed,
                                    drop_expired=drop_expired, obs=obs)
    return optimal_latencies(vanilla.aggregate(), workload.trace, prediction,
                             [r.depth_fraction for r in catalog.ramps])


def run_optimal_classification(model: Union[str, ModelSpec], workload: Workload,
                               platform: str = "clockwork", slo_ms: Optional[float] = None,
                               max_batch_size: int = 16, seed: int = 0) -> np.ndarray:
    """Run vanilla serving and return per-request latencies under optimal exits.

    Equivalent to ``Experiment(...).run(systems=["optimal"])``.
    """
    from repro.api import Experiment
    experiment = Experiment(model=model, workload=workload, platform=platform,
                            slo_ms=slo_ms, max_batch_size=max_batch_size, seed=seed)
    return experiment.run(["optimal"]).result("optimal").raw


class OracleTokenPolicy:
    """Generative oracle: exit every token at its earliest correct ramp."""

    def __init__(self, prediction: PredictionModel, candidate_depths: Sequence[float]) -> None:
        self.prediction = prediction
        self.candidate_depths = sorted(float(d) for d in candidate_depths)

    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        required = self.prediction.required_depth(raw_difficulty)
        for depth in self.candidate_depths:
            if depth >= required:
                return TokenDecision(exited=True, exit_depth=depth, error_score=0.0,
                                     correct=True)
        return TokenDecision(exited=False, exit_depth=None, error_score=1.0, correct=True)

    def feedback(self, records: Sequence[TokenFeedback]) -> None:
        return None


def _oracle_token_policy(spec: ModelSpec, seed: int) -> "OracleTokenPolicy":
    prediction = PredictionModel(spec, seed=seed)
    _spec, _profile, _prediction, catalog, _executor = model_stack(spec, seed=seed)
    return OracleTokenPolicy(prediction, [r.depth_fraction for r in catalog.ramps])


def _optimal_generative_cluster_impl(model: Union[str, ModelSpec],
                                     workload: GenerativeWorkload,
                                     replicas: int = 2, balancer="round_robin",
                                     max_batch_size: int = 8, seed: int = 0,
                                     autoscaler="none", min_replicas=None,
                                     max_replicas=None, profiles=None,
                                     prefill_in_slot: bool = False,
                                     ttft_slo_ms: Optional[float] = None,
                                     tenancy=None, faults=None,
                                     kv_capacity=None, obs=None):
    """The generative oracle at fleet scale: every token on every replica
    exits at its earliest correct ramp with zero overhead."""
    from repro.core.generative import build_generative_cluster
    spec = get_model(model) if isinstance(model, str) else model
    policy = _oracle_token_policy(spec, seed)
    cluster = build_generative_cluster(spec, replicas, balancer=balancer,
                                       max_batch_size=max_batch_size,
                                       ramp_overhead=0.0, seed=seed,
                                       profiles=profiles, autoscaler=autoscaler,
                                       min_replicas=min_replicas,
                                       max_replicas=max_replicas,
                                       prefill_in_slot=prefill_in_slot,
                                       ttft_slo_ms=ttft_slo_ms,
                                       tenancy=tenancy, faults=faults,
                                       kv_capacity=kv_capacity, obs=obs)
    return cluster.run(workload, lambda ordinal: policy)


def _optimal_generative_disagg_impl(model: Union[str, ModelSpec],
                                    workload: GenerativeWorkload,
                                    max_batch_size: int = 8, seed: int = 0,
                                    **pool_kwargs):
    """The generative oracle on disaggregated pools: zero-overhead earliest
    correct exits on every decode replica."""
    from repro.core.generative import build_disaggregated_platform
    spec = get_model(model) if isinstance(model, str) else model
    policy = _oracle_token_policy(spec, seed)
    pools = build_disaggregated_platform(spec, max_batch_size=max_batch_size,
                                         ramp_overhead=0.0, seed=seed,
                                         **pool_kwargs)
    return pools.run(workload, lambda ordinal: policy)


def run_optimal_generative(model: Union[str, ModelSpec], workload: GenerativeWorkload,
                           max_batch_size: int = 8, seed: int = 0) -> GenerativeMetrics:
    """Serve a generative workload with the oracle exit policy (zero overhead).

    Equivalent to ``Experiment(...).run(systems=["optimal"])``.
    """
    from repro.api import Experiment
    experiment = Experiment(model=model, workload=workload,
                            max_batch_size=max_batch_size, seed=seed)
    return experiment.run(["optimal"]).result("optimal").raw
