"""Generative fleet control plane: token-level early exits at cluster scale.

This module closes the last capability gap of the reproduction: the
continuous-batching generative engine (:mod:`repro.serving.hf_pipelines`)
previously only ran on a single replica, so the paper's token-level
latency/goodput story could not be examined under the fleet dynamics
(balancing, autoscaling, drain/retire) that PR 3 built for classification.

:class:`GenerativeClusterPlatform` dispatches one stream of generative
*sequences* across a dynamic fleet of decode replicas on a shared global
clock:

* each replica models the accelerator as ``max_batch_size`` concurrent decode
  slots; an admitted sequence waits in the replica's queue for a free slot and
  is then decoded as its own stream — per-token exits, deferred tails and
  forced flushes follow §3.4 exactly (the stream decode is *shared code* with
  the single-replica engine, so one replica reproduces it bit-for-bit);
* the pluggable :class:`~repro.serving.cluster.LoadBalancer` policies operate
  unchanged, but are costed by outstanding **decode work** — queued tokens ×
  the replica's depth-scaled expected step time — rather than request count,
  so ``least_work_left`` sees through a queue of short SQuAD answers standing
  behind one long CNN/DailyMail summary;
* the pluggable :class:`~repro.serving.autoscaler.Autoscaler` policies are
  evaluated on the global clock; scale-out boots replicas after the
  provisioning delay and scale-in *drains* them — a draining replica finishes
  its queued and in-flight sequences (no token is ever abandoned mid-stream),
  takes no new dispatches, then retires;
* replicas may be heterogeneous: a :class:`~repro.serving.fleet.ReplicaProfile`
  speed multiplier divides every decode-step duration.

:class:`GenerativeClusterMetrics` mirrors the classification
:class:`~repro.serving.metrics.ClusterMetrics` rollups at token granularity:
fleet TPT percentiles (including the queueing-inclusive per-token p99 that
dominates under load), deferred-flush counts, the fleet-size timeline and
cost-weighted replica-seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (Any, Callable, ClassVar, Dict, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.faults import FaultSchedule, FaultSpec, coerce_faults
from repro.generative.decoding import (KVCacheAccountant, PrefillModel,
                                       kv_bytes_per_token)
from repro.obs.recorder import NULL_RECORDER
from repro.serving.autoscaler import Autoscaler, build_autoscaler
from repro.serving.cluster import LoadBalancer, build_balancer
from repro.serving.fleet import ACTIVE, BaseFleet, ReplicaProfile
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        GenerativeMetrics, TokenExitPolicy,
                                        VanillaTokenPolicy)
from repro.serving.kernel import (RUNNER_KINDS, EventQueue, PoolRuntime,
                                  SimPlatform)
from repro.serving.metrics import dispatch_imbalance_ratio
from repro.tenancy import (TenancyConfig, TenantRuntime, build_sequence_runtime,
                           coerce_tenancy, sequence_rollups)

#: shared stateless policy used to pin a tenant's sequences to the full model
#: (exit-policy override ``allow_exits=False``).
_NO_EXIT_POLICY = VanillaTokenPolicy()

__all__ = ["GenerativeReplicaHandle", "GenerativeReplicaEntry",
           "GenerativeFleetState", "GenerativeClusterMetrics",
           "GenerativeClusterPlatform", "PolicyFactory"]

#: Per-ordinal token-exit-policy source for one run.  Called once per replica
#: (ordinals continue past the initial fleet when the autoscaler scales out);
#: returning a shared object gives fleet-wide ("shared") EE control, fresh
#: objects give per-replica ("independent") control.
PolicyFactory = Callable[[int], TokenExitPolicy]


def _enqueue_sequence(entry, sample, tenants: Optional[TenantRuntime] = None
                      ) -> None:
    """Join a sequence replica's queue in tenant rank order and open the
    sequence's span there.  Opening is idempotent, so a requeued or
    handed-off sequence keeps its original span.  Shared by the decode
    and prefill entry classes as their ``enqueue``."""
    entry.queue.append(sample)
    if tenants is not None:
        tenants.reposition(entry.queue)
    obs = entry.obs
    if obs.enabled:
        obs.admit(sample.sequence_id, sample.arrival_ms, kind="sequence",
                  pool=entry.obs_pool, replica=entry.replica_id)


class _EngineView:
    """Platform-shaped shim over a decode replica for autoscaler policies.

    The classification autoscalers read replica capacity through
    ``handle.platform`` (``max_batch_size`` + ``predicted_batch_time_ms``);
    for a decode replica the analogous quantities are the number of decode
    slots and the expected time to turn every slot over once (mean sequence
    length × depth-scaled step time).
    """

    def __init__(self, entry: "GenerativeReplicaEntry") -> None:
        self._entry = entry

    @property
    def max_batch_size(self) -> int:
        return self._entry.engine.max_batch_size

    def predicted_batch_time_ms(self, batch_size: int) -> float:
        return self._entry.mean_tokens * self._entry.expected_token_ms()


class GenerativeReplicaHandle:
    """Read-only decode-replica view for load balancers and autoscalers.

    Mirrors :class:`~repro.serving.fleet.ReplicaHandle` so every existing
    balancer (round-robin, JSQ, least-work-left, power-of-two, weighted
    variants) and autoscaler (reactive, predictive) runs unchanged on
    generative fleets — the *cost model* underneath is token-level.
    """

    def __init__(self, entry: "GenerativeReplicaEntry") -> None:
        self._entry = entry
        self.index = 0
        self.platform = _EngineView(entry)

    @property
    def replica_id(self) -> int:
        return self._entry.replica_id

    @property
    def profile(self) -> ReplicaProfile:
        return self._entry.profile

    @property
    def weight(self) -> float:
        """Dispatch weight of this replica (its relative speed)."""
        return self._entry.profile.speed

    def queue_length(self) -> int:
        return len(self._entry.queue)

    def jobs_in_system(self, now_ms: float) -> int:
        """Queued sequences plus the streams decoding in occupied slots."""
        return len(self._entry.queue) + self._entry.busy_slots(now_ms)

    def backlog_ms(self, now_ms: float) -> float:
        """Remaining decode time of the stream occupying the *soonest-free*
        slot — when the replica could next start a queued sequence."""
        free = self._entry.next_free_slot_ms()
        return max(0.0, free - now_ms)

    def work_left_ms(self, now_ms: float) -> float:
        """Outstanding decode work in expected milliseconds.

        In-flight streams contribute their remaining slot occupancy; queued
        sequences contribute ``tokens × depth-scaled step time`` at the
        replica's speed.  This is what makes ``least_work_left`` price decode
        replicas correctly: ten queued 12-token answers are cheaper than two
        60-token summaries even though JSQ counts them as five times the load.
        """
        entry = self._entry
        work = sum(max(0.0, t - now_ms) for t in entry.slots)
        if not entry.queue:
            return work
        token_ms = entry.expected_token_ms()
        queued_tokens = sum(s.num_tokens for s in entry.queue)
        # Queued work drains across all slots in parallel.
        return work + queued_tokens * token_ms / entry.engine.max_batch_size

    # ------------------------------------------------------------- KV signals
    def kv_prefix_hit_tokens(self, item) -> int:
        """Shared-prefix tokens of ``item``'s group resident in this
        replica's KV cache (0 when the cache model is disabled)."""
        kv = self._entry.kv
        return kv.prefix_hit_tokens(item) if kv is not None else 0

    def kv_prefix_hit_ms(self, item) -> float:
        """Prefill milliseconds resident shared-prefix tokens would save
        ``item`` here, priced at this replica's re-prefill rate (0 when the
        cache model is disabled)."""
        kv = self._entry.kv
        if kv is None:
            return 0.0
        return kv.prefix_hit_tokens(item) * kv.recompute_ms_per_token

    def kv_overflow_ms(self, item, now_ms: float) -> float:
        """Expected recompute cost of the cache overflow admitting ``item``
        would cause here (0 when the cache model is disabled)."""
        kv = self._entry.kv
        if kv is None:
            return 0.0
        return kv.overflow_tokens(item) * kv.recompute_ms_per_token


@dataclass
class GenerativeReplicaEntry:
    """One decode replica of the fleet: engine, policy, slots and lifecycle."""

    replica_id: int
    engine: ContinuousBatchingEngine
    policy: TokenExitPolicy
    profile: ReplicaProfile
    mean_tokens: float
    #: per-slot completion time of the stream it is decoding (-inf = free).
    slots: List[float] = field(default_factory=list)
    queue: List = field(default_factory=list)
    metrics: GenerativeMetrics = field(default_factory=GenerativeMetrics)
    handle: Optional[GenerativeReplicaHandle] = None
    status: str = ACTIVE
    added_ms: float = 0.0
    retired_ms: Optional[float] = None
    #: sequences the balancer routed here.
    dispatched: int = 0
    last_completion_ms: float = -np.inf
    #: released-token accounting feeding the depth-scaled work estimate.
    released_tokens: int = 0
    released_exits: int = 0
    #: KV-cache accountant (``None`` disables the cache model entirely).
    kv: Optional[KVCacheAccountant] = None
    #: sequence id -> decode slot it occupies; lets an eviction charge the
    #: victim's recompute as an extension of its slot occupancy.
    kv_slot_of: Dict[int, int] = field(default_factory=dict, repr=False,
                                       compare=False)
    #: span hooks (the shared no-op recorder unless the run installs one)
    #: and the pool tag stamped onto this replica's spans/gauges.
    obs: object = field(default=NULL_RECORDER, repr=False, compare=False)
    obs_pool: str = field(default="serve", repr=False, compare=False)
    #: kernel-scheduler bookkeeping: dirty flag + per-slot armed event times.
    _kdirty: bool = field(default=False, repr=False, compare=False)
    _slot_armed: Dict[int, float] = field(default_factory=dict, repr=False,
                                          compare=False)
    _kv_evict_pending: bool = field(default=False, repr=False, compare=False)

    #: pool-runtime facts: busy decode slots are counted, under this name.
    BUSY_GAUGE: ClassVar[str] = "busy_slots"
    enqueue = _enqueue_sequence

    def __post_init__(self) -> None:
        if not self.slots:
            self.slots = [-np.inf] * self.engine.max_batch_size
        if self.handle is None:
            self.handle = GenerativeReplicaHandle(self)

    # ------------------------------------------------------------------ slots
    def busy_slots(self, now_ms: float) -> int:
        return sum(1 for t in self.slots if t > now_ms + 1e-9)

    busy = busy_slots

    def free_slot_index(self, now_ms: float) -> Optional[int]:
        for index, t in enumerate(self.slots):
            if t <= now_ms + 1e-9:
                return index
        return None

    def next_free_slot_ms(self) -> float:
        return min(self.slots)

    def is_idle(self, now_ms: float) -> bool:
        return not self.queue and self.busy_slots(now_ms) == 0

    def active_ms(self, end_ms: float) -> float:
        """Wall-clock time this replica was provisioned (added → retired)."""
        until = self.retired_ms if self.retired_ms is not None else end_ms
        return max(0.0, until - self.added_ms)

    # ------------------------------------------------------------- work model
    def expected_token_ms(self) -> float:
        """Depth-scaled expected decode-step time per token on this replica.

        A full step costs ``full_step + ramp_overhead``; a token that exits at
        the policy's current ramp depth only pays the head portion.  The two
        are blended by this replica's *observed* exit rate so the estimate
        adapts with the policy (and stays exactly ``full_step`` for vanilla).
        Deterministic: depends only on the run's own history.
        """
        timing = self.engine.timing
        overhead = timing.ramp_overhead_ms(1)
        full = timing.full_step_ms(1) + overhead
        depth = getattr(self.policy, "ramp_depth", None)
        threshold = getattr(self.policy, "threshold", 0.0)
        if depth is None or self.released_tokens == 0:
            return full / self.profile.speed
        exit_rate = self.released_exits / self.released_tokens
        if threshold is not None and float(threshold) <= 0.0:
            exit_rate = 0.0
        partial = timing.partial_step_ms(1, float(depth)) + overhead
        return (exit_rate * partial + (1.0 - exit_rate) * full) / self.profile.speed

    def record_stream(self, num_tokens: int, num_exited: int) -> None:
        self.released_tokens += int(num_tokens)
        self.released_exits += int(num_exited)

    # ------------------------------------------------------------ slot claims
    def claim_streams(self, now_ms: float, ttft_slo_ms: Optional[float],
                      tenant_runtime: Optional["TenantRuntime"] = None) -> bool:
        """Free decode slots claim queue heads and run the stream decode.

        This is the one slot-claim loop shared by the monolithic cluster and
        the disaggregated decode pool (whose engines simply carry no in-slot
        prefill model).  Returns whether anything changed at this timestamp.

        The TTFT deadline check runs on the time decode *would start* — for
        a monolithic engine that includes the prompt's in-slot prefill,
        stretched by contention with the busy decode slots — so a sequence
        that provably cannot make its SLO is shed before any compute is
        spent on it, and the shed decision is consistent with the TTFT the
        sequence would have recorded.

        ``tenant_runtime`` (optional) applies per-tenant overrides: a
        sequence whose tenant pins a TTFT SLO sheds against that value
        (``None`` disables shedding for the tenant), and a sequence whose
        tenant forbids exits decodes under the shared vanilla policy.
        """
        progressed = False
        while self.queue:
            slot = self.free_slot_index(now_ms)
            if slot is None:
                break
            sample = self.queue.pop(0)
            kv = self.kv
            hit = kv.prefix_hit_tokens(sample) if kv is not None else 0
            decode_start = now_ms
            if self.engine.prefill is not None:
                # Monolithic in-slot prefill: the prompt's chunks contend
                # with the decode streams already in flight.  Shared-prefix
                # tokens already resident in the KV cache skip their share
                # of the prefill (``hit`` is 0 with the cache disabled).
                decode_start = now_ms + self.engine.prefill.inslot_prefill_ms(
                    sample.prompt_tokens - hit,
                    self.busy_slots(now_ms)) / self.profile.speed
            ttft_limit = ttft_slo_ms
            policy = self.policy
            if tenant_runtime is not None:
                ttft_limit = tenant_runtime.ttft_of.get(sample.sequence_id,
                                                        ttft_slo_ms)
                if sample.sequence_id in tenant_runtime.no_exit_ids:
                    policy = _NO_EXIT_POLICY
            obs = self.obs
            if ttft_limit is not None \
                    and decode_start - sample.arrival_ms > ttft_limit:
                self.metrics.shed_sequence_ids.append(sample.sequence_id)
                if obs.enabled:
                    sid = sample.sequence_id
                    prev = obs.last_phase_end(sid)
                    obs.phase(sid, "queue",
                              sample.arrival_ms if prev is None else prev,
                              now_ms, pool=self.obs_pool,
                              replica=self.replica_id)
                    obs.close(sid, now_ms, outcome="shed")
                progressed = True
                continue
            # Queueing spans arrival -> first decode step, so TTFT rolls up
            # every pipeline stage the sequence crossed.
            self.metrics.queueing_delays_ms[sample.sequence_id] = \
                decode_start - sample.arrival_ms
            before = len(self.metrics.tokens)
            completion = self.engine.decode_stream(
                sample, decode_start, policy, self.metrics,
                speed=self.profile.speed)
            released = self.metrics.tokens[before:]
            num_exited = sum(1 for t in released if t.exited)
            self.record_stream(len(released), num_exited)
            self.slots[slot] = completion
            if kv is not None:
                kv.admit(sample, completion)
                self.kv_slot_of[int(sample.sequence_id)] = slot
            self.last_completion_ms = max(self.last_completion_ms, completion)
            if obs.enabled:
                # The span reuses the exact floats the metrics recorded:
                # queue ends (and decode starts) at ``decode_start``, whose
                # distance from arrival *is* queueing_delays_ms.
                sid = sample.sequence_id
                pool_name = self.obs_pool
                replica = self.replica_id
                prev = obs.last_phase_end(sid)
                queue_start = sample.arrival_ms if prev is None else prev
                if self.engine.prefill is not None and decode_start != now_ms:
                    obs.phase(sid, "queue", queue_start, now_ms,
                              pool=pool_name, replica=replica)
                    obs.phase(sid, "prefill", now_ms, decode_start,
                              pool=pool_name, replica=replica)
                else:
                    obs.phase(sid, "queue", queue_start, decode_start,
                              pool=pool_name, replica=replica)
                obs.phase(sid, "decode", decode_start, completion,
                          pool=pool_name, replica=replica)
                if hit:
                    obs.annotate(sid, kv_hit_tokens=int(hit))
                obs.close(sid, completion, outcome="served",
                          tokens=len(released), exited_tokens=num_exited)
            progressed = True
        return progressed


class GenerativeFleetState(BaseFleet):
    """Dynamic decode-replica membership (ACTIVE → DRAINING → RETIRED)."""

    def add(self, engine: ContinuousBatchingEngine, policy: TokenExitPolicy,
            profile: ReplicaProfile, mean_tokens: float, now_ms: float,
            kv: Optional[KVCacheAccountant] = None) -> GenerativeReplicaEntry:
        entry = GenerativeReplicaEntry(replica_id=self._next_id, engine=engine,
                                       policy=policy, profile=profile,
                                       mean_tokens=mean_tokens, added_ms=now_ms,
                                       kv=kv)
        # Every add path (initial fleet, autoscale boot, crash recovery)
        # funnels here, so new replicas always see the run's recorder.
        entry.obs = self.obs
        entry.obs_pool = self.obs_pool
        return self._register(entry, now_ms)


@dataclass
class GenerativeClusterMetrics:
    """Per-replica token metrics plus fleet-wide rollups for one cluster run.

    ``replicas`` covers every replica that ever decoded during the run —
    including ones the autoscaler retired mid-run — so token conservation and
    all rollups span the full membership history.
    """

    replicas: List[GenerativeMetrics] = field(default_factory=list)
    #: sequences the balancer routed to each replica, aligned with ``replicas``.
    dispatch_counts: List[int] = field(default_factory=list)
    #: global wall-clock span (first arrival to last token release) in ms.
    makespan_ms: float = 0.0
    #: (time_ms, active_replicas) recorded at every membership change.
    fleet_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: cost-weighted replica-seconds consumed by the fleet.
    replica_seconds: float = 0.0
    #: unweighted provisioned milliseconds (denominator for utilization).
    replica_active_ms: float = 0.0
    #: per-replica provisioned milliseconds, aligned with ``replicas``.
    replica_uptimes_ms: List[float] = field(default_factory=list)
    #: fault injection: crashes fired, replacements booted, and queued
    #: sequences requeued to surviving replicas by a crash.
    crashes: int = 0
    recoveries: int = 0
    requeued: int = 0
    #: per-tenant rollups (empty unless the run configured tenancy); see
    #: :func:`repro.tenancy.rollup.sequence_rollups` for the keys.
    tenant_rollups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    _aggregate: Optional[GenerativeMetrics] = field(default=None, init=False,
                                                    repr=False, compare=False)

    def num_replicas(self) -> int:
        return len(self.replicas)

    def peak_replicas(self) -> int:
        """Largest number of simultaneously active replicas during the run."""
        if not self.fleet_timeline:
            return len(self.replicas)
        return max(count for _, count in self.fleet_timeline)

    def aggregate(self) -> GenerativeMetrics:
        """Merged token stream measured on the cluster's global clock."""
        if self._aggregate is None:
            self._aggregate = GenerativeMetrics.merged(
                self.replicas, makespan_ms=self.makespan_ms)
        return self._aggregate

    def total_tokens(self) -> int:
        return len(self.aggregate().tokens)

    def fleet_throughput_tokens_per_s(self) -> float:
        return self.aggregate().throughput_tokens_per_s()

    def p99_token_latency(self) -> float:
        """Queueing-inclusive per-token p99 over the merged stream."""
        return self.aggregate().p99_token_latency()

    def dispatch_imbalance(self) -> float:
        """Max/mean per-replica dispatch-rate ratio (1.0 = perfectly even)."""
        return dispatch_imbalance_ratio(self.dispatch_counts,
                                        self.replica_uptimes_ms)

    def per_replica_summaries(self) -> List[Dict[str, float]]:
        return [m.summary() for m in self.replicas]

    def summary(self) -> Dict[str, float]:
        """Fleet rollup: aggregate token stats plus cluster-only metrics."""
        data = self.aggregate().summary()
        data.update({
            "num_replicas": float(self.num_replicas()),
            "peak_replicas": float(self.peak_replicas()),
            "dispatch_imbalance": self.dispatch_imbalance(),
            "replica_seconds": float(self.replica_seconds),
        })
        if self.crashes or self.recoveries:
            data["crashes"] = float(self.crashes)
            data["recoveries"] = float(self.recoveries)
            data["requeued"] = float(self.requeued)
        return data


class GenerativeClusterPlatform:
    """A dynamic fleet of continuous-batching decode replicas.

    The event loop mirrors :class:`~repro.serving.cluster.ClusterPlatform`
    phase for phase — boot, admit/dispatch, autoscale, serve, retire, advance
    the shared clock — with the classification replica step replaced by slot
    claiming: a free decode slot claims the replica's queue head and runs the
    stream decode shared with the single-replica engine.

    Parameters
    ----------
    engines:
        Per-initial-replica :class:`ContinuousBatchingEngine`.  Engines are
        stateless (all mutable state lives in the run's fleet entries), so
        one engine may be shared by every replica.
    balancer / seed:
        Dispatch policy name/instance and the seed for stochastic balancers.
    profiles:
        Optional per-initial-replica :class:`ReplicaProfile` (or speed floats
        / ``"speed[:cost]"`` strings) for heterogeneous fleets.
    autoscaler / min_replicas / max_replicas:
        Elasticity, exactly as in the classification cluster.  Scaled-out
        replicas reuse the first engine's configuration (engines are
        stateless) and run at ``scale_out_profile`` (default: base speed).
    kv_capacity:
        Fleet-default per-replica KV-cache budget in bytes (a replica
        profile's ``kv_capacity_bytes`` overrides it).  ``None`` (the
        default) disables the cache model entirely and the run is
        bit-identical to pre-cache behaviour; with a budget set, each
        replica runs a :class:`~repro.generative.decoding.KVCacheAccountant`
        — admissions claim footprint, over-capacity occupancy triggers LRU
        eviction as a kernel event, and an evicted running sequence pays a
        re-prefill recompute as an extension of its decode slot.
    """

    def __init__(self, engines: Sequence[ContinuousBatchingEngine],
                 balancer: Union[str, LoadBalancer] = "round_robin",
                 seed: int = 0,
                 profiles: Optional[Sequence[Union[ReplicaProfile, float, str]]] = None,
                 autoscaler: Union[str, Autoscaler, None] = "none",
                 min_replicas: Optional[int] = None,
                 max_replicas: Optional[int] = None,
                 scale_out_profile: Optional[ReplicaProfile] = None,
                 ttft_slo_ms: Optional[float] = None,
                 tenancy: Union[None, str, TenancyConfig] = None,
                 faults: Union[None, str, FaultSpec, FaultSchedule] = None,
                 kv_capacity: Optional[float] = None,
                 obs=None) -> None:
        self.engines = list(engines)
        if not self.engines:
            raise ValueError("a generative cluster needs at least one replica")
        #: Observability recorder shared by every replica (no-op when unset).
        self.obs = obs if obs is not None else NULL_RECORDER
        #: Kernel schedule counters of the most recent ``run()``.
        self.last_kernel_stats = None
        if ttft_slo_ms is not None and ttft_slo_ms <= 0:
            raise ValueError(f"ttft_slo_ms must be positive, got {ttft_slo_ms}")
        self.ttft_slo_ms = None if ttft_slo_ms is None else float(ttft_slo_ms)
        if kv_capacity is not None and not (
                float(kv_capacity) > 0.0 and np.isfinite(kv_capacity)):
            raise ValueError(f"kv_capacity must be positive and finite bytes, "
                             f"got {kv_capacity}")
        self.kv_capacity = None if kv_capacity is None else float(kv_capacity)
        self.seed = int(seed)
        self.balancer = build_balancer(balancer, seed=seed, kind="generative")
        self.autoscaler = build_autoscaler(autoscaler)
        self.tenancy = coerce_tenancy(tenancy)
        self.faults = coerce_faults(faults)

        n = len(self.engines)
        if profiles is None:
            self.profiles: List[ReplicaProfile] = [ReplicaProfile() for _ in range(n)]
        else:
            self.profiles = [ReplicaProfile.coerce(p) for p in profiles]
            if len(self.profiles) != n:
                raise ValueError(f"got {len(self.profiles)} replica profiles "
                                 f"for {n} replicas")
        self.min_replicas = n if min_replicas is None else int(min_replicas)
        self.max_replicas = n if max_replicas is None else int(max_replicas)
        if not 1 <= self.min_replicas <= n:
            raise ValueError(f"min_replicas must be in [1, {n}] "
                             f"(the initial fleet size), got {self.min_replicas}")
        if self.max_replicas < n:
            raise ValueError(f"max_replicas must be >= the initial fleet size "
                             f"({n}), got {self.max_replicas}")
        self.scale_out_profile = scale_out_profile if scale_out_profile is not None \
            else ReplicaProfile()

    @property
    def num_replicas(self) -> int:
        """Size of the initial fleet (the fleet ``run()`` starts from)."""
        return len(self.engines)

    def _add_replica(self, fleet: GenerativeFleetState,
                     policy_factory: PolicyFactory, mean_tokens: float,
                     now_ms: float,
                     crashed: Optional[GenerativeReplicaEntry] = None
                     ) -> GenerativeReplicaEntry:
        """Bring one decode replica online: scale-out hardware, or the
        crashed entry's engine and profile with a fresh policy and an empty
        KV cache (a crash loses the cache along with the queued work)."""
        if crashed is None:
            engine, profile = self.engines[0], self.scale_out_profile
        else:
            engine, profile = crashed.engine, crashed.profile
        return fleet.add(engine, policy_factory(fleet.next_ordinal()), profile,
                         mean_tokens, now_ms,
                         kv=_kv_accountant(engine, profile, self.kv_capacity))

    # --------------------------------------------------------------- main loop
    def run(self, workload, policy_factory: PolicyFactory) -> GenerativeClusterMetrics:
        """Serve every sequence in ``workload`` across the (dynamic) fleet.

        ``policy_factory(ordinal)`` supplies each replica's token-exit policy
        for this run (fresh state per run keeps repeated ``run()`` calls on
        one cluster object bit-identical); returning one shared object gives
        fleet-wide EE control.  Returns per-replica + fleet token metrics
        covering every replica that decoded, including ones retired mid-run.
        """
        self.balancer.reset()
        self.autoscaler.reset()
        self.autoscaler.set_bounds(self.min_replicas, self.max_replicas)

        pending = sorted(workload.sequences,
                         key=lambda s: (s.arrival_ms, s.sequence_id))
        tenant_runtime = build_sequence_runtime(pending, self.tenancy, self.seed)
        num_sequences = len(pending)
        start = pending[0].arrival_ms if pending else 0.0
        mean_tokens = workload.mean_output_length() or 1.0

        fleet = GenerativeFleetState()
        fleet.obs = self.obs
        for engine, profile in zip(self.engines, self.profiles):
            fleet.add(engine, policy_factory(fleet.next_ordinal()), profile,
                      mean_tokens, start,
                      kv=_kv_accountant(engine, profile, self.kv_capacity))

        if num_sequences == 0:
            return self._collect(fleet, start, start)

        runner = _GenerativeRun(self, pending, policy_factory, fleet,
                                mean_tokens, start,
                                tenant_runtime=tenant_runtime,
                                faults=self.faults)
        runner.drive()
        self.last_kernel_stats = runner.events.stats()

        end = max((e.last_completion_ms for e in fleet.entries
                   if np.isfinite(e.last_completion_ms)), default=start)
        metrics = self._collect(fleet, start, end)
        runner.record_run(metrics)
        if tenant_runtime is not None:
            metrics.tenant_rollups = sequence_rollups(metrics.aggregate(),
                                                      tenant_runtime)
        return metrics

    def _collect(self, fleet: GenerativeFleetState, start_ms: float,
                 end_ms: float) -> GenerativeClusterMetrics:
        return GenerativeClusterMetrics(**_decode_pool_fields(fleet, start_ms,
                                                             end_ms))


def _kv_accountant(engine: ContinuousBatchingEngine, profile: ReplicaProfile,
                  capacity: Optional[float], prefill: Optional[PrefillModel] = None
                  ) -> Optional[KVCacheAccountant]:
    """Fresh KV accountant for one decode replica (``None`` = cache off).

    The profile's ``kv_capacity_bytes`` overrides the pool-wide
    ``capacity``.  Recompute is a re-prefill, priced at ``prefill``'s
    chunked rate scaled by the replica's speed; by default that is the
    engine's own prefill model, otherwise a default :class:`PrefillModel`
    over the same timing spec (a monolith without in-slot prefill still
    pays for re-prefilling evicted context).
    """
    if profile.kv_capacity_bytes is not None:
        capacity = profile.kv_capacity_bytes
    if capacity is None:
        return None
    if prefill is None:
        prefill = engine.prefill
    if prefill is None:
        prefill = PrefillModel(engine.timing.spec)
    recompute = prefill.chunk_time_ms() / prefill.tokens_per_chunk \
        / profile.speed
    return KVCacheAccountant(capacity,
                             kv_bytes_per_token(engine.timing.spec),
                             recompute_ms_per_token=recompute)


def _decode_pool_fields(fleet: GenerativeFleetState, start_ms: float,
                       end_ms: float) -> Dict[str, Any]:
    """Close a decode fleet's books; return its
    :class:`GenerativeClusterMetrics` fields.

    Each replica's metrics get their makespan and, with a cache model, the
    KV accountant's counters.
    """
    fleet.finalize(end_ms)
    for entry in fleet.entries:
        metrics = entry.metrics
        if metrics.tokens:
            metrics.makespan_ms = max(entry.last_completion_ms - start_ms, 1e-9)
        kv = entry.kv
        if kv is not None:
            metrics.kv_enabled = True
            metrics.kv_hit_tokens = kv.hit_tokens
            metrics.kv_miss_tokens = kv.miss_tokens
            metrics.kv_evictions = kv.evictions
            metrics.kv_evicted_tokens = kv.evicted_tokens
            metrics.kv_recompute_tokens = kv.recompute_tokens
    decoded_anything = any(entry.metrics.tokens for entry in fleet.entries)
    return dict(
        replicas=[entry.metrics for entry in fleet.entries],
        dispatch_counts=[entry.dispatched for entry in fleet.entries],
        makespan_ms=max(end_ms - start_ms, 1e-9) if decoded_anything else 0.0,
        fleet_timeline=list(fleet.timeline),
        replica_seconds=fleet.replica_seconds(end_ms),
        replica_active_ms=fleet.active_replica_ms(end_ms),
        replica_uptimes_ms=[entry.active_ms(end_ms) for entry in fleet.entries],
    )


#: runner event kinds of a decode pool (the monolithic cluster's and the
#: disaggregated decode pool's): a decode slot freed, a KV eviction is due.
_SLOT_FREE, _EVICT = RUNNER_KINDS, RUNNER_KINDS + 1


def _run_eviction(pool: PoolRuntime, entry: GenerativeReplicaEntry,
                  now_ms: float) -> None:
    """Fire one replica's deferred KV-eviction event.

    Evicts LRU residents until occupancy fits; a still-running victim's
    recompute charge extends its decode-slot occupancy (the slot re-prefills
    the evicted context before the stream can finish), so the freed-slot
    event is re-armed at the later time.
    """
    entry._kv_evict_pending = False
    kv = entry.kv
    if kv is None:
        return
    obs = entry.obs
    for seq_id, recompute_ms in kv.evict_to_fit(now_ms):
        if obs.enabled:
            obs.annotate(seq_id, kv_evicted=True)
        slot = entry.kv_slot_of.pop(seq_id, None)
        if slot is None or recompute_ms <= 0.0:
            continue
        if entry.slots[slot] > now_ms + 1e-9:
            entry.slots[slot] += recompute_ms
            entry.last_completion_ms = max(entry.last_completion_ms,
                                           entry.slots[slot])
            if obs.enabled:
                obs.annotate(seq_id, kv_recompute_ms=recompute_ms)
    _arm_slots(pool.sim.events, entry, now_ms)
    pool.wake(entry)


def _schedule_eviction(events: EventQueue, entry: GenerativeReplicaEntry,
                       now_ms: float) -> None:
    """Register a same-timestamp eviction event when occupancy overflowed.

    Deferred to an event (rather than evicting inline during the claim pass)
    so eviction observes the full admission state of the timestamp;
    ``_kv_evict_pending`` dedupes, and ``needs_eviction`` requires an
    evictable non-MRU resident, so a single oversubscribing sequence cannot
    re-arm the event forever.
    """
    kv = entry.kv
    if kv is not None and not entry._kv_evict_pending and kv.needs_eviction():
        entry._kv_evict_pending = True
        events.push(now_ms, _EVICT, entry)


def _arm_slots(events: EventQueue, entry: GenerativeReplicaEntry,
               now_ms: float) -> None:
    """Register a slot-free event per occupied decode slot.

    ``_slot_armed`` remembers the completion time last armed per slot so an
    unchanged slot is never double-registered.  Events never need cancelling:
    a slot with a live future event is occupied, and claims only ever take
    slots whose time has passed, so a stale record in ``_slot_armed`` can
    never collide with a pending event.
    """
    armed = entry._slot_armed
    for index, t in enumerate(entry.slots):
        if t > now_ms + 1e-9 and armed.get(index) != t:
            armed[index] = t
            events.push(t, _SLOT_FREE, entry)


def _claim_decode_slots(pool: PoolRuntime, now_ms: float,
                       ttft_slo_ms: Optional[float]) -> bool:
    """The decode phase of the monolithic cluster and the disaggregated
    decode pool: free slots of each dirty replica claim queue heads and run
    the stream decode (deadline shedding included).

    A replica with queued work and a free slot is always dirty: claims
    leave either an empty queue or no free slot, slots only free through
    their slot event, and admissions wake their target.
    """
    events = pool.sim.events
    tenants = pool.tenants
    progressed = False
    for entry in pool.drain_dirty():
        if entry.claim_streams(now_ms, ttft_slo_ms, tenants):
            progressed = True
        _arm_slots(events, entry, now_ms)
        _schedule_eviction(events, entry, now_ms)
    return progressed


def _on_decode_event(pool: PoolRuntime, event, now_ms: float) -> bool:
    """Handle a decode pool's own event kinds; False for any other kind."""
    if event.kind == _SLOT_FREE:
        pool.wake(event.payload)
    elif event.kind == _EVICT:
        _run_eviction(pool, event.payload, now_ms)
    else:
        return False
    return True


class _GenerativeRun(SimPlatform):
    """Kernel-scheduled execution of one :meth:`GenerativeClusterPlatform.run`.

    Same phase order as the seed rescan loop (boots → admit → autoscale →
    slot claims → retire); the slot-claim phase touches only the replicas
    whose queue changed or whose decode slot freed, and the clock advances
    through the event heap (slot completions, boots) plus the arrival cursor.
    Routing, scaling, crashes and gauges run on the pool's
    :class:`PoolRuntime`; slot claims and KV eviction are this runner's own.
    """

    def __init__(self, cluster: GenerativeClusterPlatform, pending: List,
                 policy_factory: PolicyFactory, fleet: GenerativeFleetState,
                 mean_tokens: float, start_ms: float,
                 tenant_runtime: Optional[TenantRuntime] = None,
                 faults: Optional[FaultSchedule] = None) -> None:
        super().__init__(start_ms, pending)
        self.install_obs(cluster.obs, start_ms)
        self.ttft_slo_ms = cluster.ttft_slo_ms
        self.pool = PoolRuntime(
            self, fleet, cluster.balancer, cluster.autoscaler,
            cluster.min_replicas, cluster.max_replicas,
            partial(cluster._add_replica, fleet, policy_factory, mean_tokens),
            tenants=tenant_runtime)
        self.schedule_faults(faults, start_ms)

    # --------------------------------------------------------- kernel contract
    def done(self, now_ms: float) -> bool:
        if self.next_arrival < self.num_items:
            return False
        for entry in self.pool.serving:
            if entry.queue or entry.busy_slots(now_ms):
                return False
        return True

    def on_event(self, event) -> None:
        if not _on_decode_event(self.pool, event, self.clock.now_ms):
            super().on_event(event)

    # ------------------------------------------------------------------- pass
    def step(self, now: float) -> bool:
        pool = self.pool
        # Phase 1: admit + dispatch every sequence that has arrived by now.
        self.admit_arrivals(pool, now)
        # Phase 2: autoscaler decision on the global clock.
        pool.scale(now)
        # Phase 3 per dirty replica: free decode slots claim queue heads.
        progressed = _claim_decode_slots(pool, now, self.ttft_slo_ms)
        # Phase 4: drained replicas that have gone idle leave the fleet.
        pool.retire_idle(now)
        return progressed
