"""FREE-style generative early exiting (§4.4, Figure 18).

FREE (Bae et al., EMNLP'23) attaches a single fixed ramp to a generative
model, fine-tunes against it, and picks the ramp position and threshold once
on a representative dataset (the first ~3% of samples) subject to a 1%
accuracy constraint.  There is no runtime adaptation, so workload drift can
push accuracy below the constraint (the paper measures up to 5.5% loss) while
Apparate's adaptive ramp stays within it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.generative import generative_ramp_depths
from repro.exits.ramps import RampStyle, ramp_overhead_fraction
from repro.generative.parallel import TokenFeedback
from repro.generative.sequences import GenerativeWorkload
from repro.models.prediction import PredictionModel, ramp_error_score
from repro.models.zoo import ModelSpec, get_model
from repro.serving.hf_pipelines import GenerativeMetrics, TokenDecision

__all__ = ["FreeTokenPolicy", "calibrate_free_policy", "run_free_generative"]


@dataclass
class FreeTokenPolicy:
    """Single fixed ramp with a fixed threshold; no adaptation."""

    prediction: PredictionModel
    ramp_depth: float
    threshold: float

    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        error = self.prediction.error_score(raw_difficulty, self.ramp_depth, sharpness)
        correct = self.prediction.is_correct(raw_difficulty, self.ramp_depth)
        exited = self.threshold > 0.0 and error < self.threshold
        return TokenDecision(exited=exited, exit_depth=self.ramp_depth if exited else None,
                             error_score=error, correct=correct)

    def feedback(self, records: Sequence[TokenFeedback]) -> None:
        return None   # FREE performs no runtime adaptation.


def calibrate_free_policy(prediction: PredictionModel, workload: GenerativeWorkload,
                          candidate_depths: Sequence[float],
                          accuracy_constraint: float = 0.01,
                          calibration_fraction: float = 0.03) -> Tuple[float, float]:
    """One-time (depth, threshold) selection on the leading slice of the workload.

    The pair maximizing expected per-token savings (exit rate times depth
    saved) subject to the accuracy constraint on the calibration tokens wins.
    """
    num_calibration = max(1, int(len(workload.sequences) * calibration_fraction))
    difficulties: List[float] = []
    sharpness: List[float] = []
    for sample in workload.sequences[:num_calibration]:
        difficulties.extend(sample.token_difficulty.tolist())
        sharpness.extend(sample.token_sharpness.tolist())
    required = prediction.required_depths(difficulties)
    sharpness_arr = np.asarray(sharpness, dtype=float)

    best_depth = sorted(candidate_depths)[len(candidate_depths) // 2]
    best_threshold = 0.0
    best_savings = -np.inf
    n = max(required.size, 1)
    for depth in sorted(candidate_depths):
        errors = np.asarray(ramp_error_score(required, depth, sharpness_arr))
        correct = required <= depth
        for threshold in np.arange(0.05, 0.99, 0.05):
            exits = errors < threshold
            num_exited = int(exits.sum())
            accuracy = (int(correct[exits].sum()) + (n - num_exited)) / n
            if accuracy < 1.0 - accuracy_constraint:
                continue
            savings = num_exited * (1.0 - depth)
            if savings > best_savings:
                best_savings = savings
                best_depth = float(depth)
                best_threshold = float(threshold)
    return best_depth, best_threshold


def _free_generative_cluster_impl(model: Union[str, ModelSpec],
                                  workload: GenerativeWorkload,
                                  replicas: int = 2, balancer="round_robin",
                                  accuracy_constraint: float = 0.01,
                                  max_batch_size: int = 8,
                                  calibration_fraction: float = 0.03,
                                  seed: int = 0, autoscaler="none",
                                  min_replicas=None, max_replicas=None,
                                  profiles=None, prefill_in_slot: bool = False,
                                  ttft_slo_ms: Optional[float] = None,
                                  tenancy=None, faults=None, kv_capacity=None,
                                  obs=None):
    """FREE at fleet scale: one (depth, threshold) pair calibrated once on the
    leading workload slice, then deployed frozen on every replica (including
    any the autoscaler boots mid-run) — no runtime adaptation anywhere."""
    from repro.core.generative import build_generative_cluster
    spec = get_model(model) if isinstance(model, str) else model
    policy = _calibrated_free_policy(spec, workload, accuracy_constraint,
                                     calibration_fraction, seed)
    overhead = ramp_overhead_fraction(spec, RampStyle.DECODE_HEAD)
    cluster = build_generative_cluster(spec, replicas, balancer=balancer,
                                       max_batch_size=max_batch_size,
                                       ramp_overhead=overhead, seed=seed,
                                       profiles=profiles, autoscaler=autoscaler,
                                       min_replicas=min_replicas,
                                       max_replicas=max_replicas,
                                       prefill_in_slot=prefill_in_slot,
                                       ttft_slo_ms=ttft_slo_ms,
                                       tenancy=tenancy, faults=faults,
                                       kv_capacity=kv_capacity, obs=obs)
    return cluster.run(workload, lambda ordinal: policy)


def _calibrated_free_policy(spec: ModelSpec, workload: GenerativeWorkload,
                            accuracy_constraint: float,
                            calibration_fraction: float,
                            seed: int) -> FreeTokenPolicy:
    """One-time (depth, threshold) calibration shared by the fleet impls."""
    prediction = PredictionModel(spec, seed=seed)
    depths = generative_ramp_depths(spec, seed=seed)
    depth, threshold = calibrate_free_policy(prediction, workload, depths,
                                             accuracy_constraint=accuracy_constraint,
                                             calibration_fraction=calibration_fraction)
    return FreeTokenPolicy(prediction=prediction, ramp_depth=depth,
                           threshold=threshold)


def _free_generative_disagg_impl(model: Union[str, ModelSpec],
                                 workload: GenerativeWorkload,
                                 accuracy_constraint: float = 0.01,
                                 max_batch_size: int = 8,
                                 calibration_fraction: float = 0.03,
                                 seed: int = 0, **pool_kwargs):
    """FREE on disaggregated pools: the frozen calibrated policy runs on
    every decode replica; the prefill pool is policy-free."""
    from repro.core.generative import build_disaggregated_platform
    spec = get_model(model) if isinstance(model, str) else model
    policy = _calibrated_free_policy(spec, workload, accuracy_constraint,
                                     calibration_fraction, seed)
    overhead = ramp_overhead_fraction(spec, RampStyle.DECODE_HEAD)
    pools = build_disaggregated_platform(spec, max_batch_size=max_batch_size,
                                         ramp_overhead=overhead, seed=seed,
                                         **pool_kwargs)
    return pools.run(workload, lambda ordinal: policy)


def run_free_generative(model: Union[str, ModelSpec], workload: GenerativeWorkload,
                        accuracy_constraint: float = 0.01, max_batch_size: int = 8,
                        seed: int = 0) -> GenerativeMetrics:
    """Serve a generative workload with the FREE baseline.

    Equivalent to ``Experiment(...).run(systems=["free"])``.
    """
    from repro.api import Experiment, ExitPolicySpec
    experiment = Experiment(model=model, workload=workload,
                            ee=ExitPolicySpec(accuracy_constraint=accuracy_constraint),
                            max_batch_size=max_batch_size, seed=seed)
    return experiment.run(["free"]).result("free").raw
