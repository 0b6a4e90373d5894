"""Generative serving with Apparate (§3.4, §4.3).

For generative LLMs Apparate deploys a *single* adaptive ramp (a ramp budget
of one, as in §4.4's comparison against FREE) that reuses the model's own
decode head, so no ramp training is needed.  The token policy below manages
the two runtime knobs the paper describes:

* the ramp's **threshold**, re-tuned from windowed token feedback whenever the
  achieved accuracy of exited tokens dips below the constraint and refreshed
  periodically to maximize exits otherwise; and
* the ramp's **position**, shifted later when too few tokens exit (the ramp is
  too shallow to be confident) and probed earlier when almost everything exits
  and accuracy headroom remains (more savings available).

Feedback is truncated at the first deviating token of each parallel-decoding
instance (see :func:`repro.generative.parallel.truncate_feedback`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.controller import FleetController
from repro.core.pipeline import model_stack
from repro.exits.ramps import RampStyle, ramp_overhead_fraction
from repro.generative.decoding import DecodeTimingModel, PrefillModel
from repro.generative.parallel import TokenFeedback
from repro.generative.sequences import GenerativeWorkload
from repro.models.prediction import PredictionModel
from repro.models.zoo import ModelSpec, get_model
from repro.serving.autoscaler import (Autoscaler, build_autoscaler,
                                      canonical_autoscaler_name)
from repro.serving.cluster import LoadBalancer
from repro.serving.disagg import DisaggregatedMetrics, DisaggregatedPlatform
from repro.serving.generative_cluster import (GenerativeClusterMetrics,
                                              GenerativeClusterPlatform,
                                              PolicyFactory)
from repro.serving.hf_pipelines import (
    ContinuousBatchingEngine,
    GenerativeMetrics,
    TokenDecision,
    TokenExitPolicy,
    VanillaTokenPolicy,
)

__all__ = ["ApparateTokenPolicy", "GenerativeRunResult",
           "GenerativeClusterRunResult", "build_generative_cluster",
           "build_disaggregated_platform",
           "run_generative_vanilla", "run_generative_apparate",
           "run_generative_vanilla_cluster", "run_generative_apparate_cluster",
           "run_generative_vanilla_disagg", "run_generative_apparate_disagg",
           "generative_ramp_depths"]


def generative_ramp_depths(model: Union[str, ModelSpec], seed: int = 0) -> List[float]:
    """Candidate ramp depths (block boundaries) for a generative model."""
    _spec, _profile, _prediction, catalog, _executor = model_stack(model, seed=seed)
    return [r.depth_fraction for r in catalog.ramps]


class ApparateTokenPolicy:
    """Adaptive single-ramp exit policy for generative decoding."""

    def __init__(self, prediction: PredictionModel, candidate_depths: Sequence[float],
                 accuracy_constraint: float = 0.01, window: int = 768,
                 refresh_period: int = 32, adjustment_period: int = 128,
                 initial_position: Optional[int] = None,
                 low_exit_rate: float = 0.50, high_exit_rate: float = 0.90,
                 tuning_safety: float = 0.25) -> None:
        if not candidate_depths:
            raise ValueError("candidate_depths must be non-empty")
        self.prediction = prediction
        self.candidate_depths = sorted(float(d) for d in candidate_depths)
        self.accuracy_constraint = float(accuracy_constraint)
        self.refresh_period = int(refresh_period)
        self.adjustment_period = int(adjustment_period)
        self.low_exit_rate = float(low_exit_rate)
        self.high_exit_rate = float(high_exit_rate)
        # Thresholds are tuned against a fraction of the allowed accuracy loss
        # so that drift between tuning rounds does not breach the constraint.
        self.tuning_safety = float(tuning_safety)

        self.position = int(initial_position) if initial_position is not None \
            else len(self.candidate_depths) // 2
        self.threshold = 0.0
        self._window: Deque[Tuple[float, bool]] = deque(maxlen=int(window))
        self.tokens_seen = 0
        self.tokens_since_move = 0
        self.threshold_tunings = 0
        self.position_moves = 0

    # --------------------------------------------------------------- helpers
    @property
    def ramp_depth(self) -> float:
        return self.candidate_depths[self.position]

    def _released_accuracy(self, threshold: float) -> Tuple[float, float]:
        """(accuracy, exit rate) on the feedback window under ``threshold``."""
        if not self._window:
            return 1.0, 0.0
        errors = np.array([e for e, _ in self._window])
        correct = np.array([c for _, c in self._window], dtype=bool)
        exits = errors < threshold if threshold > 0 else np.zeros_like(correct)
        n = errors.size
        num_exited = int(exits.sum())
        num_correct = int(correct[exits].sum()) + (n - num_exited)
        return num_correct / n, num_exited / n

    def _tune_threshold(self) -> None:
        """Pick the largest threshold that satisfies the (tightened) constraint."""
        target = 1.0 - self.accuracy_constraint * self.tuning_safety
        best = 0.0
        for candidate in np.arange(0.02, 0.99, 0.02):
            accuracy, _rate = self._released_accuracy(float(candidate))
            if accuracy >= target:
                best = float(candidate)
            else:
                break
        self.threshold = best
        self.threshold_tunings += 1

    def _adjust_position(self) -> None:
        """Move the ramp later when exits are rare, probe earlier when abundant.

        Moving later uses a coarse stride (a tenth of the candidate list) so
        that a badly placed ramp converges within a few adjustment rounds;
        probing earlier is conservative (one position at a time), matching the
        low-risk probing phase of §3.3.
        """
        accuracy, exit_rate = self._released_accuracy(self.threshold)
        moved = False
        later_stride = max(1, len(self.candidate_depths) // 10)
        if exit_rate < self.low_exit_rate and self.position < len(self.candidate_depths) - 1:
            self.position = min(self.position + later_stride, len(self.candidate_depths) - 1)
            moved = True
        elif (exit_rate > self.high_exit_rate
              and accuracy >= 1.0 - 0.5 * self.accuracy_constraint
              and self.position > 0):
            self.position -= 1
            moved = True
        if moved:
            self.position_moves += 1
            self.threshold = 0.0     # new position starts conservative (§3.3)
            self._window.clear()
            self.tokens_since_move = 0

    # --------------------------------------------------------------- policy API
    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        depth = self.ramp_depth
        error = self.prediction.error_score(raw_difficulty, depth, sharpness)
        correct = self.prediction.is_correct(raw_difficulty, depth)
        exited = self.threshold > 0.0 and error < self.threshold
        return TokenDecision(exited=exited, exit_depth=depth if exited else None,
                             error_score=error, correct=correct)

    def feedback(self, records: Sequence[TokenFeedback]) -> None:
        for record in records:
            self._window.append((record.error_score, record.correct))
            self.tokens_seen += 1
            self.tokens_since_move += 1

            accuracy, _ = self._released_accuracy(self.threshold)
            accuracy_violation = accuracy < 1.0 - self.accuracy_constraint
            periodic_refresh = self.tokens_seen % self.refresh_period == 0
            if (accuracy_violation or periodic_refresh) and len(self._window) >= 96:
                self._tune_threshold()
            # Position moves are rate-limited: the ramp must have been in
            # place (and its threshold re-tuned) for a full adjustment period
            # before its exit rate is judged, which prevents oscillation.
            if (self.tokens_since_move >= 2 * self.adjustment_period
                    and self.tokens_seen % self.adjustment_period == 0
                    and len(self._window) >= 128 and self.threshold > 0.0):
                self._adjust_position()


@dataclass
class GenerativeRunResult:
    """Outcome of one generative Apparate run."""

    metrics: GenerativeMetrics
    policy: ApparateTokenPolicy

    def summary(self) -> Dict[str, float]:
        data = self.metrics.summary()
        data.update({
            "ramp_depth": self.policy.ramp_depth,
            "threshold": self.policy.threshold,
            "threshold_tunings": float(self.policy.threshold_tunings),
            "position_moves": float(self.policy.position_moves),
        })
        return data


@dataclass
class GenerativeClusterRunResult:
    """Outcome of one Apparate generative *cluster* run.

    ``policies`` holds the per-replica token policies in ordinal order; in
    ``shared`` fleet mode every entry is the same object (one fleet-wide
    policy fed by every replica's token feedback).
    """

    metrics: GenerativeClusterMetrics
    policies: List[ApparateTokenPolicy]
    fleet_mode: str = "independent"

    def _unique_policies(self) -> List[ApparateTokenPolicy]:
        seen: Dict[int, ApparateTokenPolicy] = {}
        for policy in self.policies:
            seen.setdefault(id(policy), policy)
        return list(seen.values())

    def summary(self) -> Dict[str, float]:
        data = self.metrics.summary()
        unique = self._unique_policies()
        data.update({
            "num_policies": float(len(unique)),
            "threshold_tunings": float(sum(p.threshold_tunings for p in unique)),
            "position_moves": float(sum(p.position_moves for p in unique)),
        })
        if unique:
            data["ramp_depth"] = float(np.mean([p.ramp_depth for p in unique]))
            data["threshold"] = float(np.mean([p.threshold for p in unique]))
        return data


# ---------------------------------------------------------------------------
# Generative cluster serving (the fleet control plane driving the continuous
# batching engine; see repro.serving.generative_cluster).
# ---------------------------------------------------------------------------

def _normalize_ttft_slo(ttft_slo_ms: Optional[float]) -> Optional[float]:
    """Treat ``None`` and non-positive values as "no TTFT SLO".

    Generative model specs carry ``default_slo_ms=0.0`` (the paper sets no
    response-time SLO for generation), so a zero flowing down from the
    experiment layer means shedding is off, not an instant deadline.
    """
    if ttft_slo_ms is None or float(ttft_slo_ms) <= 0.0:
        return None
    return float(ttft_slo_ms)


def _resolve_generative_autoscaler(autoscaler: Union[str, Autoscaler, None],
                                   slots: int) -> Union[Autoscaler, None]:
    """Build a name-selected autoscaler with decode-slot-aware watermarks.

    The reactive policy's default queue watermarks assume one-at-a-time
    request serving; a decode replica with ``slots`` concurrent streams is
    only saturated once jobs in system approach the slot count, so the
    hysteresis band is scaled to it.  Instances pass through untouched.
    """
    if autoscaler is None or isinstance(autoscaler, Autoscaler):
        return autoscaler
    key = canonical_autoscaler_name(autoscaler)
    if key == "reactive":
        return build_autoscaler(key, scale_out_load=1.25 * slots,
                                scale_in_load=0.25 * slots)
    return build_autoscaler(key)


def build_generative_cluster(model: Union[str, ModelSpec], replicas: int,
                             balancer: Union[str, LoadBalancer] = "round_robin",
                             max_batch_size: int = 8, flush_limit: int = 8,
                             ramp_overhead: float = 0.0, seed: int = 0,
                             profiles: Optional[Sequence] = None,
                             autoscaler: Union[str, Autoscaler, None] = "none",
                             min_replicas: Optional[int] = None,
                             max_replicas: Optional[int] = None,
                             prefill_in_slot: bool = False,
                             ttft_slo_ms: Optional[float] = None,
                             tenancy=None, faults=None,
                             kv_capacity: Optional[float] = None,
                             obs=None) -> GenerativeClusterPlatform:
    """Construct a fleet of continuous-batching decode replicas.

    The engine is stateless, so one instance (model timing + slot count +
    flush limit) is shared by every replica, including ones the autoscaler
    boots mid-run; heterogeneity comes from ``profiles`` speed multipliers.

    ``prefill_in_slot=True`` makes the fleet *monolithic* in the
    prefill/decode sense: a sequence claiming a decode slot first runs its
    prompt's chunked prefill on that replica, stretched by contention with
    the decode streams in flight — the behaviour disaggregation removes
    (compare with :func:`build_disaggregated_platform`).  ``ttft_slo_ms``
    enables deadline shedding of sequences whose wait already blew the SLO.
    ``kv_capacity`` gives each replica a KV-cache byte budget (prefix reuse
    plus LRU eviction with recompute); ``None`` keeps cache modelling off.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    spec = get_model(model) if isinstance(model, str) else model
    timing = DecodeTimingModel(spec, ramp_overhead_fraction=ramp_overhead)
    engine = ContinuousBatchingEngine(
        timing, max_batch_size=max_batch_size, flush_limit=flush_limit,
        prefill=PrefillModel(spec) if prefill_in_slot else None)
    return GenerativeClusterPlatform(
        [engine] * replicas, balancer=balancer, seed=seed, profiles=profiles,
        autoscaler=_resolve_generative_autoscaler(autoscaler, max_batch_size),
        min_replicas=min_replicas, max_replicas=max_replicas,
        ttft_slo_ms=_normalize_ttft_slo(ttft_slo_ms),
        tenancy=tenancy, faults=faults, kv_capacity=kv_capacity, obs=obs)


def _generative_vanilla_cluster_impl(model: Union[str, ModelSpec],
                                     workload: GenerativeWorkload,
                                     replicas: int = 2,
                                     balancer: Union[str, LoadBalancer] = "round_robin",
                                     max_batch_size: int = 8, seed: int = 0,
                                     autoscaler: Union[str, Autoscaler, None] = "none",
                                     min_replicas: Optional[int] = None,
                                     max_replicas: Optional[int] = None,
                                     profiles: Optional[Sequence] = None,
                                     prefill_in_slot: bool = False,
                                     ttft_slo_ms: Optional[float] = None,
                                     tenancy=None, faults=None,
                                     kv_capacity: Optional[float] = None,
                                     obs=None) -> GenerativeClusterMetrics:
    cluster = build_generative_cluster(model, replicas, balancer=balancer,
                                       max_batch_size=max_batch_size,
                                       ramp_overhead=0.0, seed=seed,
                                       profiles=profiles, autoscaler=autoscaler,
                                       min_replicas=min_replicas,
                                       max_replicas=max_replicas,
                                       prefill_in_slot=prefill_in_slot,
                                       ttft_slo_ms=ttft_slo_ms,
                                       tenancy=tenancy, faults=faults,
                                       kv_capacity=kv_capacity, obs=obs)
    # The vanilla policy is stateless: every replica (including scaled-out
    # ones) shares it.
    policy = VanillaTokenPolicy()
    return cluster.run(workload, lambda ordinal: policy)


def _generative_apparate_cluster_impl(model: Union[str, ModelSpec],
                                      workload: GenerativeWorkload,
                                      replicas: int = 2,
                                      balancer: Union[str, LoadBalancer] = "round_robin",
                                      fleet_mode: str = "independent",
                                      accuracy_constraint: float = 0.01,
                                      max_batch_size: int = 8,
                                      flush_limit: int = 8, seed: int = 0,
                                      autoscaler: Union[str, Autoscaler, None] = "none",
                                      min_replicas: Optional[int] = None,
                                      max_replicas: Optional[int] = None,
                                      profiles: Optional[Sequence] = None,
                                      prefill_in_slot: bool = False,
                                      ttft_slo_ms: Optional[float] = None,
                                      tenancy=None, faults=None,
                                      kv_capacity: Optional[float] = None,
                                      obs=None) -> GenerativeClusterRunResult:
    if fleet_mode not in FleetController.MODES:
        raise ValueError(f"unknown fleet mode {fleet_mode!r}; "
                         f"choose from {tuple(FleetController.MODES)}")
    spec = get_model(model) if isinstance(model, str) else model
    prediction = PredictionModel(spec, seed=seed)
    depths = generative_ramp_depths(spec, seed=seed)
    overhead = ramp_overhead_fraction(spec, RampStyle.DECODE_HEAD)
    cluster = build_generative_cluster(model, replicas, balancer=balancer,
                                       max_batch_size=max_batch_size,
                                       flush_limit=flush_limit,
                                       ramp_overhead=overhead, seed=seed,
                                       profiles=profiles, autoscaler=autoscaler,
                                       min_replicas=min_replicas,
                                       max_replicas=max_replicas,
                                       prefill_in_slot=prefill_in_slot,
                                       ttft_slo_ms=ttft_slo_ms,
                                       tenancy=tenancy, faults=faults,
                                       kv_capacity=kv_capacity, obs=obs)

    policies: List[ApparateTokenPolicy] = []
    shared = ApparateTokenPolicy(prediction, depths,
                                 accuracy_constraint=accuracy_constraint) \
        if fleet_mode == "shared" else None

    def policy_factory(ordinal: int) -> ApparateTokenPolicy:
        policy = shared if shared is not None else ApparateTokenPolicy(
            prediction, depths, accuracy_constraint=accuracy_constraint)
        policies.append(policy)
        return policy

    metrics = cluster.run(workload, policy_factory)
    return GenerativeClusterRunResult(metrics=metrics, policies=policies,
                                      fleet_mode=fleet_mode)


# ---------------------------------------------------------------------------
# Prefill/decode disaggregated serving (two pools on one global clock; see
# repro.serving.disagg).
# ---------------------------------------------------------------------------

def _resolve_prefill_autoscaler(autoscaler: Union[str, Autoscaler, None]
                                ) -> Union[Autoscaler, None]:
    """Build a name-selected autoscaler with prompt-chunk-aware watermarks.

    A prefill replica's "jobs in system" are pending prefill *chunks*
    (queued prompt tokens in chunk units), each worth roughly one decode
    step of accelerator time, so the reactive hysteresis band is set in
    chunks of backlog per replica.  Instances pass through untouched.
    """
    if autoscaler is None or isinstance(autoscaler, Autoscaler):
        return autoscaler
    key = canonical_autoscaler_name(autoscaler)
    if key == "reactive":
        return build_autoscaler(key, scale_out_load=6.0, scale_in_load=0.75)
    return build_autoscaler(key)


def build_disaggregated_platform(model: Union[str, ModelSpec],
                                 prefill_replicas: int = 2,
                                 decode_replicas: int = 2,
                                 prefill_balancer: Union[str, LoadBalancer] = "round_robin",
                                 decode_balancer: Union[str, LoadBalancer] = "round_robin",
                                 max_batch_size: int = 8,
                                 prefill_batch: int = 4,
                                 flush_limit: int = 8,
                                 ramp_overhead: float = 0.0, seed: int = 0,
                                 prefill_profiles: Optional[Sequence] = None,
                                 decode_profiles: Optional[Sequence] = None,
                                 prefill_autoscaler: Union[str, Autoscaler, None] = "none",
                                 decode_autoscaler: Union[str, Autoscaler, None] = "none",
                                 prefill_min_replicas: Optional[int] = None,
                                 prefill_max_replicas: Optional[int] = None,
                                 decode_min_replicas: Optional[int] = None,
                                 decode_max_replicas: Optional[int] = None,
                                 ttft_slo_ms: Optional[float] = None,
                                 transfer_gbps: float = 16.0,
                                 tenancy=None, faults=None,
                                 kv_capacity: Optional[float] = None,
                                 obs=None) -> DisaggregatedPlatform:
    """Construct a prefill pool + decode pool behind one handoff queue.

    Decode engines carry no in-slot prefill model (their prompts arrive
    prefilled); the prefill pool charges chunked prefill compute, and every
    handoff pays the KV-transfer time over a ``transfer_gbps`` interconnect.
    ``kv_capacity`` gives each decode replica a KV-cache byte budget (prefix
    reuse plus LRU eviction with recompute); ``None`` keeps it off.
    """
    spec = get_model(model) if isinstance(model, str) else model
    timing = DecodeTimingModel(spec, ramp_overhead_fraction=ramp_overhead)
    engine = ContinuousBatchingEngine(timing, max_batch_size=max_batch_size,
                                      flush_limit=flush_limit)
    prefill = PrefillModel(spec, transfer_gbps=transfer_gbps)
    return DisaggregatedPlatform(
        prefill, [engine] * decode_replicas,
        prefill_replicas=prefill_replicas, prefill_batch=prefill_batch,
        prefill_balancer=prefill_balancer, decode_balancer=decode_balancer,
        seed=seed, prefill_profiles=prefill_profiles,
        decode_profiles=decode_profiles,
        prefill_autoscaler=_resolve_prefill_autoscaler(prefill_autoscaler),
        decode_autoscaler=_resolve_generative_autoscaler(decode_autoscaler,
                                                         max_batch_size),
        prefill_min_replicas=prefill_min_replicas,
        prefill_max_replicas=prefill_max_replicas,
        decode_min_replicas=decode_min_replicas,
        decode_max_replicas=decode_max_replicas,
        ttft_slo_ms=_normalize_ttft_slo(ttft_slo_ms),
        tenancy=tenancy, faults=faults, kv_capacity=kv_capacity, obs=obs)


def _generative_vanilla_disagg_impl(model: Union[str, ModelSpec],
                                    workload: GenerativeWorkload,
                                    max_batch_size: int = 8, seed: int = 0,
                                    **pool_kwargs) -> DisaggregatedMetrics:
    pools = build_disaggregated_platform(model, max_batch_size=max_batch_size,
                                         ramp_overhead=0.0, seed=seed,
                                         **pool_kwargs)
    policy = VanillaTokenPolicy()
    return pools.run(workload, lambda ordinal: policy)


def _generative_apparate_disagg_impl(model: Union[str, ModelSpec],
                                     workload: GenerativeWorkload,
                                     fleet_mode: str = "independent",
                                     accuracy_constraint: float = 0.01,
                                     max_batch_size: int = 8,
                                     flush_limit: int = 8, seed: int = 0,
                                     **pool_kwargs) -> GenerativeClusterRunResult:
    """Apparate on the disaggregated platform: per-decode-replica (or one
    fleet-wide, with ``fleet_mode="shared"``) adaptive token policies; the
    prefill pool is policy-free (no tokens are released there)."""
    if fleet_mode not in FleetController.MODES:
        raise ValueError(f"unknown fleet mode {fleet_mode!r}; "
                         f"choose from {tuple(FleetController.MODES)}")
    spec = get_model(model) if isinstance(model, str) else model
    prediction = PredictionModel(spec, seed=seed)
    depths = generative_ramp_depths(spec, seed=seed)
    overhead = ramp_overhead_fraction(spec, RampStyle.DECODE_HEAD)
    pools = build_disaggregated_platform(model, max_batch_size=max_batch_size,
                                         flush_limit=flush_limit,
                                         ramp_overhead=overhead, seed=seed,
                                         **pool_kwargs)

    policies: List[ApparateTokenPolicy] = []
    shared = ApparateTokenPolicy(prediction, depths,
                                 accuracy_constraint=accuracy_constraint) \
        if fleet_mode == "shared" else None

    def policy_factory(ordinal: int) -> ApparateTokenPolicy:
        policy = shared if shared is not None else ApparateTokenPolicy(
            prediction, depths, accuracy_constraint=accuracy_constraint)
        policies.append(policy)
        return policy

    metrics = pools.run(workload, policy_factory)
    return GenerativeClusterRunResult(metrics=metrics, policies=policies,
                                      fleet_mode=fleet_mode)


# ---------------------------------------------------------------------------
# One-call generative runs: thin shims over the system registry.
# ---------------------------------------------------------------------------

def run_generative_vanilla(model: Union[str, ModelSpec], workload: GenerativeWorkload,
                           max_batch_size: int = 8, seed: int = 0) -> GenerativeMetrics:
    """Serve a generative workload with the original model (no exits).

    Equivalent to ``Experiment(...).run(systems=["vanilla"])``.
    """
    from repro.api import Experiment
    experiment = Experiment(model=model, workload=workload,
                            max_batch_size=max_batch_size, seed=seed)
    return experiment.run(["vanilla"]).result("vanilla").raw


def run_generative_apparate(model: Union[str, ModelSpec], workload: GenerativeWorkload,
                            accuracy_constraint: float = 0.01, max_batch_size: int = 8,
                            flush_limit: int = 8, seed: int = 0) -> GenerativeRunResult:
    """Serve a generative workload with Apparate's adaptive single ramp.

    Equivalent to ``Experiment(...).run(systems=["apparate"])``.
    """
    from repro.api import Experiment, ExitPolicySpec
    experiment = Experiment(model=model, workload=workload,
                            ee=ExitPolicySpec(accuracy_constraint=accuracy_constraint),
                            max_batch_size=max_batch_size, seed=seed,
                            overrides={"apparate": {"flush_limit": flush_limit}})
    return experiment.run(["apparate"]).result("apparate").raw


def run_generative_vanilla_cluster(model: Union[str, ModelSpec],
                                   workload: GenerativeWorkload,
                                   replicas: int = 2,
                                   balancer: Union[str, LoadBalancer] = "round_robin",
                                   max_batch_size: int = 8, seed: int = 0,
                                   autoscaler: Union[str, Autoscaler, None] = "none",
                                   min_replicas: Optional[int] = None,
                                   max_replicas: Optional[int] = None,
                                   profiles: Optional[Sequence] = None
                                   ) -> GenerativeClusterMetrics:
    """Serve a generative workload with a fleet of the original model.

    Equivalent to ``Experiment(..., cluster=ClusterSpec(...)).run(["vanilla"])``.
    """
    from repro.api import ClusterSpec, Experiment
    cluster = ClusterSpec(replicas=replicas, balancer=balancer,
                          autoscaler=autoscaler, min_replicas=min_replicas,
                          max_replicas=max_replicas, profiles=profiles)
    experiment = Experiment(model=model, workload=workload, cluster=cluster,
                            max_batch_size=max_batch_size, seed=seed)
    return experiment.run(["vanilla"]).result("vanilla").raw


def run_generative_apparate_cluster(model: Union[str, ModelSpec],
                                    workload: GenerativeWorkload,
                                    replicas: int = 2,
                                    balancer: Union[str, LoadBalancer] = "round_robin",
                                    fleet_mode: str = "independent",
                                    accuracy_constraint: float = 0.01,
                                    max_batch_size: int = 8,
                                    flush_limit: int = 8, seed: int = 0,
                                    autoscaler: Union[str, Autoscaler, None] = "none",
                                    min_replicas: Optional[int] = None,
                                    max_replicas: Optional[int] = None,
                                    profiles: Optional[Sequence] = None
                                    ) -> GenerativeClusterRunResult:
    """Serve a generative workload across a fleet of Apparate decode replicas.

    ``fleet_mode`` selects the token-level EE control topology: ``independent``
    gives each replica its own :class:`ApparateTokenPolicy`; ``shared`` feeds
    every replica's token feedback into one fleet-wide policy.

    Equivalent to ``Experiment(..., cluster=ClusterSpec(...)).run(["apparate"])``.
    """
    from repro.api import ClusterSpec, Experiment, ExitPolicySpec
    cluster = ClusterSpec(replicas=replicas, balancer=balancer,
                          fleet_mode=fleet_mode, autoscaler=autoscaler,
                          min_replicas=min_replicas, max_replicas=max_replicas,
                          profiles=profiles)
    experiment = Experiment(model=model, workload=workload, cluster=cluster,
                            ee=ExitPolicySpec(accuracy_constraint=accuracy_constraint),
                            max_batch_size=max_batch_size, seed=seed,
                            overrides={"apparate": {"flush_limit": flush_limit}})
    return experiment.run(["apparate"]).result("apparate").raw


def run_generative_vanilla_disagg(model: Union[str, ModelSpec],
                                  workload: GenerativeWorkload,
                                  prefill_replicas: int = 2,
                                  decode_replicas: int = 2,
                                  max_batch_size: int = 8, seed: int = 0,
                                  **cluster_kwargs) -> DisaggregatedMetrics:
    """Serve a generative workload on disaggregated prefill/decode pools
    with the original model (no exits).

    Equivalent to ``Experiment(..., cluster=ClusterSpec(disaggregate=True,
    ...)).run(["vanilla"])``; extra keywords go to :class:`ClusterSpec`.
    """
    from repro.api import ClusterSpec, Experiment
    cluster = ClusterSpec(replicas=max(prefill_replicas, decode_replicas),
                          disaggregate=True,
                          prefill_replicas=prefill_replicas,
                          decode_replicas=decode_replicas, **cluster_kwargs)
    experiment = Experiment(model=model, workload=workload, cluster=cluster,
                            max_batch_size=max_batch_size, seed=seed)
    return experiment.run(["vanilla"]).result("vanilla").raw


def run_generative_apparate_disagg(model: Union[str, ModelSpec],
                                   workload: GenerativeWorkload,
                                   prefill_replicas: int = 2,
                                   decode_replicas: int = 2,
                                   fleet_mode: str = "independent",
                                   accuracy_constraint: float = 0.01,
                                   max_batch_size: int = 8, seed: int = 0,
                                   **cluster_kwargs) -> GenerativeClusterRunResult:
    """Serve a generative workload on disaggregated prefill/decode pools
    with Apparate's adaptive token exits on the decode pool.

    Equivalent to ``Experiment(..., cluster=ClusterSpec(disaggregate=True,
    ...)).run(["apparate"])``; extra keywords go to :class:`ClusterSpec`.
    """
    from repro.api import ClusterSpec, Experiment, ExitPolicySpec
    cluster = ClusterSpec(replicas=max(prefill_replicas, decode_replicas),
                          disaggregate=True, fleet_mode=fleet_mode,
                          prefill_replicas=prefill_replicas,
                          decode_replicas=decode_replicas, **cluster_kwargs)
    experiment = Experiment(model=model, workload=workload, cluster=cluster,
                            ee=ExitPolicySpec(accuracy_constraint=accuracy_constraint),
                            max_batch_size=max_batch_size, seed=seed)
    return experiment.run(["apparate"]).result("apparate").raw
