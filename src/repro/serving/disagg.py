"""Prefill/decode disaggregated generative serving with independent pools.

Production LLM fleets split the two generative phases onto separate machine
pools (DistServe, Splitwise): **prefill** is compute-bound and batch-friendly
— a prompt's tokens are processed in parallel chunks — while **decode** is
memory-bound and TPT-critical — one token per step per stream.  Running both
on one replica makes them interfere: a prompt's prefill chunks steal compute
from every decode stream in flight, so time-to-first-token and decode cadence
degrade together under prompt-heavy load.

:class:`DisaggregatedPlatform` runs two :class:`~repro.serving.fleet.BaseFleet`
pools on one shared global clock:

* a **prefill pool** of chunk-batch replicas — each takes up to
  ``prefill_batch`` queued prompts and runs their chunks back to back
  (:meth:`~repro.generative.decoding.PrefillModel.batch_prefill_ms`);
* a **decode pool** of the existing continuous-batching early-exit replicas
  (:class:`~repro.serving.generative_cluster.GenerativeReplicaEntry` — the
  stream decode is *shared code* with the monolithic cluster);
* a **handoff queue** between them: a prefilled sequence becomes eligible for
  decode dispatch only after its KV cache has been shipped across the
  interconnect (bytes grow with prompt tokens × layer depth, see
  :meth:`~repro.generative.decoding.PrefillModel.transfer_ms`).

Each pool has its *own* balancer and its *own* autoscaler evaluated on the
global clock, so the two pools size independently: the prefill scaler sees
queued prompt chunks (prompt-token pressure), the decode scaler sees
outstanding decode work — under a diurnal prompt-heavy cycle the pools grow
and shrink on different schedules, which a monolithic fleet cannot express.

:class:`DisaggregatedMetrics` extends the generative cluster rollups (whose
base fields describe the decode pool) with the prefill pool's fleet timeline
/ replica-seconds and the per-sequence prefill and KV-transfer delays; the
aggregate token stream's TTFT is inclusive of queueing + prefill + transfer
because each sequence's recorded queueing delay spans arrival → first decode
step.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.faults import FaultSchedule, FaultSpec, coerce_faults
from repro.generative.decoding import PrefillModel
from repro.generative.sequences import SequenceSample
from repro.obs.recorder import NULL_RECORDER
from repro.serving.autoscaler import Autoscaler, build_autoscaler
from repro.serving.cluster import LoadBalancer, build_balancer
from repro.serving.fleet import ACTIVE, BaseFleet, ReplicaProfile
from repro.serving.generative_cluster import (GenerativeClusterMetrics,
                                              GenerativeFleetState,
                                              PolicyFactory, _enqueue_sequence,
                                              _claim_decode_slots,
                                              _decode_pool_fields, _kv_accountant,
                                              _on_decode_event)
from repro.serving.hf_pipelines import ContinuousBatchingEngine
from repro.serving.kernel import RUNNER_KINDS, PoolRuntime, SimPlatform
from repro.tenancy import (TenancyConfig, TenantRuntime, build_sequence_runtime,
                           coerce_tenancy, sequence_rollups)

__all__ = ["PrefillReplicaHandle", "PrefillReplicaEntry", "PrefillFleetState",
           "DisaggregatedMetrics", "DisaggregatedPlatform"]


class _PrefillView:
    """Platform-shaped shim over a prefill replica for autoscaler policies.

    The predictive autoscaler reads capacity as ``max_batch_size`` requests
    per ``predicted_batch_time_ms``; for a prefill replica that is one
    chunk-batch of prompts at the workload's mean prompt length.
    """

    def __init__(self, entry: "PrefillReplicaEntry") -> None:
        self._entry = entry

    @property
    def max_batch_size(self) -> int:
        return self._entry.prefill_batch

    def predicted_batch_time_ms(self, batch_size: int) -> float:
        entry = self._entry
        tokens = int(round(batch_size * max(entry.mean_prompt_tokens, 1.0)))
        return entry.model.batch_prefill_ms(tokens) / entry.profile.speed


class PrefillReplicaHandle:
    """Read-only prefill-replica view for load balancers and autoscalers.

    Load is expressed in *pending prefill chunks* — queued prompt tokens
    divided into chunk units, plus the chunk-batch on the accelerator — so
    JSQ balances by prompt length rather than prompt count, and the reactive
    autoscaler's "jobs in system" watermark scales with queued prompt tokens,
    which is exactly the signal the prefill pool must grow on.
    """

    def __init__(self, entry: "PrefillReplicaEntry") -> None:
        self._entry = entry
        self.index = 0
        self.platform = _PrefillView(entry)

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

    def jobs_in_system(self, now_ms: float) -> float:
        """Pending prefill chunks: queued prompt chunks + the in-flight batch."""
        entry = self._entry
        chunks = sum(entry.model.num_chunks(s.prompt_tokens)
                     for s in entry.queue)
        if entry.busy_until_ms > now_ms + 1e-9:
            chunks += (entry.busy_until_ms - now_ms) / max(
                entry.model.chunk_time_ms() / entry.profile.speed, 1e-9)
        return float(chunks)

    def backlog_ms(self, now_ms: float) -> float:
        """Remaining accelerator time of the in-flight chunk-batch."""
        return max(0.0, self._entry.busy_until_ms - now_ms)

    def work_left_ms(self, now_ms: float) -> float:
        """Expected milliseconds until this replica would drain its queue."""
        entry = self._entry
        work = self.backlog_ms(now_ms)
        queued_tokens = sum(s.prompt_tokens for s in entry.queue)
        if queued_tokens <= 0:
            return work
        return work + entry.model.batch_prefill_ms(queued_tokens) / entry.profile.speed

    # ------------------------------------------------------------- KV signals
    # Prefill replicas hold no decode-side KV residency, so the cache
    # signals read 0 and the KV-aware policies degrade to least-work here.
    def kv_prefix_hit_tokens(self, item) -> int:
        return 0

    def kv_prefix_hit_ms(self, item) -> float:
        return 0.0

    def kv_overflow_ms(self, item, now_ms: float) -> float:
        return 0.0


@dataclass
class PrefillReplicaEntry:
    """One prefill replica: chunk-batch processor with fleet lifecycle."""

    replica_id: int
    model: PrefillModel
    profile: ReplicaProfile
    prefill_batch: int
    mean_prompt_tokens: float
    queue: List[SequenceSample] = field(default_factory=list)
    #: the chunk-batch on the accelerator (empty when free).
    in_flight: List[SequenceSample] = field(default_factory=list)
    busy_until_ms: float = -np.inf
    handle: Optional[PrefillReplicaHandle] = None
    status: str = ACTIVE
    added_ms: float = 0.0
    retired_ms: Optional[float] = None
    #: sequences the balancer routed here.
    dispatched: int = 0
    #: sequences / prompt tokens this replica finished prefilling.
    prefilled: int = 0
    prefilled_tokens: int = 0
    last_completion_ms: float = -np.inf
    #: span hooks (the shared no-op recorder unless the run installs one)
    #: and the pool tag stamped onto this replica's spans.
    obs: object = field(default=NULL_RECORDER, repr=False, compare=False)
    obs_pool: str = field(default="prefill", repr=False, compare=False)
    #: kernel-scheduler bookkeeping: dirty flag for the pool's dirty list.
    _kdirty: bool = field(default=False, repr=False, compare=False)

    #: pool-runtime facts: a busy replica counts once; no decode KV cache.
    BUSY_GAUGE: ClassVar[str] = "busy_replicas"
    kv: ClassVar[None] = None
    enqueue = _enqueue_sequence

    def __post_init__(self) -> None:
        if self.handle is None:
            self.handle = PrefillReplicaHandle(self)

    def is_free(self, now_ms: float) -> bool:
        return not self.in_flight and self.busy_until_ms <= now_ms + 1e-9

    def busy(self, now_ms: float) -> int:
        return 0 if self.is_free(now_ms) else 1

    def is_idle(self, now_ms: float) -> bool:
        """No queued prompts and nothing on the accelerator (retirement)."""
        return not self.queue and self.is_free(now_ms)

    def active_ms(self, end_ms: float) -> float:
        """Wall-clock time this replica was provisioned (added → retired)."""
        until = self.retired_ms if self.retired_ms is not None else end_ms
        return max(0.0, until - self.added_ms)


class PrefillFleetState(BaseFleet):
    """Dynamic prefill-replica membership (ACTIVE → DRAINING → RETIRED)."""

    def add(self, model: PrefillModel, profile: ReplicaProfile,
            prefill_batch: int, mean_prompt_tokens: float,
            now_ms: float) -> PrefillReplicaEntry:
        entry = PrefillReplicaEntry(replica_id=self._next_id, model=model,
                                    profile=profile,
                                    prefill_batch=prefill_batch,
                                    mean_prompt_tokens=mean_prompt_tokens,
                                    added_ms=now_ms, obs=self.obs,
                                    obs_pool=self.obs_pool)
        return self._register(entry, now_ms)


@dataclass
class DisaggregatedMetrics(GenerativeClusterMetrics):
    """Two-pool rollup of one disaggregated run.

    The inherited :class:`GenerativeClusterMetrics` fields describe the
    **decode pool** (that is where tokens are produced); the ``prefill_*``
    fields describe the prefill pool, and the per-sequence delay maps record
    the pipeline stages every sequence crossed: ``prefill_delays_ms`` spans
    arrival → prefill completion (queueing included), ``transfer_delays_ms``
    is the KV-cache shipping time prefill → decode replica.
    """

    prefill_dispatch_counts: List[int] = field(default_factory=list)
    prefill_counts: List[int] = field(default_factory=list)
    #: prompt tokens prefilled per replica, aligned with ``prefill_counts``.
    prefill_token_counts: List[int] = field(default_factory=list)
    prefill_fleet_timeline: List[Tuple[float, int]] = field(default_factory=list)
    prefill_replica_seconds: float = 0.0
    prefill_active_ms: float = 0.0
    prefill_uptimes_ms: List[float] = field(default_factory=list)
    prefill_delays_ms: Dict[int, float] = field(default_factory=dict)
    transfer_delays_ms: Dict[int, float] = field(default_factory=dict)

    def num_prefill_replicas(self) -> int:
        return len(self.prefill_uptimes_ms)

    def prefill_peak_replicas(self) -> int:
        """Largest number of simultaneously active prefill replicas."""
        if not self.prefill_fleet_timeline:
            return self.num_prefill_replicas()
        return max(count for _, count in self.prefill_fleet_timeline)

    @staticmethod
    def _finite_mean(values) -> float:
        """Mean over the finite entries only (empty / all-NaN -> 0.0).

        Mirrors :func:`repro.utils.stats.summarize_latencies`: a sentinel
        NaN/inf recorded for a sequence that never completed its stage must
        not poison the summary that feeds ``RunReport.to_json()``.
        """
        arr = np.asarray(list(values), dtype=float)
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            return 0.0
        return float(arr.mean())

    def mean_prefill_delay_ms(self) -> float:
        return self._finite_mean(self.prefill_delays_ms.values())

    def mean_transfer_ms(self) -> float:
        return self._finite_mean(self.transfer_delays_ms.values())

    def summary(self) -> Dict[str, float]:
        data = super().summary()
        data.update({
            "prefill_replicas": float(self.num_prefill_replicas()),
            "prefill_peak_replicas": float(self.prefill_peak_replicas()),
            "prefill_replica_seconds": float(self.prefill_replica_seconds),
            "prefill_delay_mean_ms": self.mean_prefill_delay_ms(),
            "transfer_ms_mean": self.mean_transfer_ms(),
        })
        return data


class DisaggregatedPlatform:
    """Two independently balanced and autoscaled pools on one global clock.

    Parameters
    ----------
    prefill_model:
        Chunked-prefill / KV-transfer cost model shared by every prefill
        replica (including ones the prefill autoscaler boots mid-run).
    decode_engines:
        Per-initial-decode-replica :class:`ContinuousBatchingEngine`.  Decode
        engines should carry no in-slot prefill model — prompts reaching the
        decode pool are already prefilled.
    prefill_replicas / prefill_batch:
        Initial prefill pool size and the maximum prompts per chunk-batch.
    prefill_balancer / decode_balancer / seed:
        Per-pool dispatch policies; stochastic balancers draw from seeds
        ``seed`` (prefill) and ``seed + 1`` (decode) so repeated ``run()``
        calls on one platform object stay bit-identical.
    prefill_autoscaler / decode_autoscaler (+ per-pool min/max):
        Independent elasticity.  The prefill scaler reads queued prompt
        chunks, the decode scaler outstanding decode work, so the pools size
        independently under shifting prompt/decode pressure.
    prefill_profiles / decode_profiles:
        Optional per-initial-replica heterogeneity, as in the clusters.
    ttft_slo_ms:
        Optional deadline shedding: a sequence whose wait already exceeds
        the TTFT SLO when a decode slot frees up is shed (counted per decode
        replica in ``shed_sequence_ids``), mirroring the classification
        fleet's drop path at sequence granularity.
    tenancy:
        Optional multi-tenant config (spec string, :class:`TenancyConfig` or
        tenant list).  Sequences are tagged and ranked at ``run()`` time;
        both pools' queues are kept rank-sorted, so weighted-fair / strict
        priority shapes prefill order and decode slot claims alike.
        Per-tenant TTFT-SLO and exit-policy overrides apply in the decode
        pool's slot-claim loop.
    faults:
        Optional crash/recovery schedule (spec string, :class:`FaultSpec`
        or :class:`FaultSchedule`).  Each fault names its target pool: a
        ``pool="prefill"`` crash force-retires a prefill replica (its
        in-flight chunk-batch is salvaged, queued prompts requeue through
        the prefill balancer), a ``pool="decode"`` crash retires a decode
        replica (in-flight streams salvage, queued sequences requeue).
        The crashed hardware boots back ``down_ms`` later.
    kv_capacity:
        Pool-default per-decode-replica KV-cache budget in bytes (a decode
        profile's ``kv_capacity_bytes`` overrides it).  ``None`` disables
        the cache model; with a budget, each decode replica runs a
        :class:`~repro.generative.decoding.KVCacheAccountant` — residency,
        prefix hits, LRU eviction as a kernel event, recompute charged as a
        decode-slot extension — priced against the platform's prefill model.
    """

    def __init__(self, prefill_model: PrefillModel,
                 decode_engines: Sequence[ContinuousBatchingEngine],
                 prefill_replicas: int = 1,
                 prefill_batch: int = 4,
                 prefill_balancer: Union[str, LoadBalancer] = "round_robin",
                 decode_balancer: Union[str, LoadBalancer] = "round_robin",
                 seed: int = 0,
                 prefill_profiles: Optional[Sequence] = None,
                 decode_profiles: Optional[Sequence] = None,
                 prefill_autoscaler: Union[str, Autoscaler, None] = "none",
                 decode_autoscaler: Union[str, Autoscaler, None] = "none",
                 prefill_min_replicas: Optional[int] = None,
                 prefill_max_replicas: Optional[int] = None,
                 decode_min_replicas: Optional[int] = None,
                 decode_max_replicas: Optional[int] = None,
                 ttft_slo_ms: Optional[float] = None,
                 tenancy: Union[None, str, TenancyConfig] = None,
                 faults: Union[None, str, FaultSpec, FaultSchedule] = None,
                 kv_capacity: Optional[float] = None,
                 obs=None) -> None:
        self.prefill_model = prefill_model
        self.decode_engines = list(decode_engines)
        if not self.decode_engines:
            raise ValueError("a disaggregated platform needs at least one "
                             "decode replica")
        #: Observability recorder shared by both pools (no-op when unset).
        self.obs = obs if obs is not None else NULL_RECORDER
        #: Kernel schedule counters of the most recent ``run()``.
        self.last_kernel_stats = None
        if int(prefill_replicas) < 1:
            raise ValueError(f"prefill_replicas must be >= 1, "
                             f"got {prefill_replicas}")
        if int(prefill_batch) < 1:
            raise ValueError(f"prefill_batch must be >= 1, got {prefill_batch}")
        if ttft_slo_ms is not None and ttft_slo_ms <= 0:
            raise ValueError(f"ttft_slo_ms must be positive, got {ttft_slo_ms}")
        self.num_prefill = int(prefill_replicas)
        self.prefill_batch = int(prefill_batch)
        self.ttft_slo_ms = None if ttft_slo_ms is None else float(ttft_slo_ms)
        if kv_capacity is not None and not (
                float(kv_capacity) > 0.0 and np.isfinite(kv_capacity)):
            raise ValueError(f"kv_capacity must be positive and finite bytes, "
                             f"got {kv_capacity}")
        self.kv_capacity = None if kv_capacity is None else float(kv_capacity)
        self.seed = int(seed)
        self.tenancy = coerce_tenancy(tenancy)
        self.faults = coerce_faults(faults)

        self.prefill_balancer = build_balancer(prefill_balancer, seed=seed,
                                               kind="generative")
        self.decode_balancer = build_balancer(decode_balancer, seed=seed + 1,
                                              kind="generative")
        self.prefill_autoscaler = build_autoscaler(prefill_autoscaler)
        self.decode_autoscaler = build_autoscaler(decode_autoscaler)
        # One *instance* passed for both pools (e.g. a fleet-wide default
        # threaded down from ClusterSpec) must not be aliased: a shared
        # balancer would run one dispatch cursor/RNG stream across pools and
        # a shared autoscaler would corrupt its cooldown/EWMA state by
        # observing both pools' admissions.  Clone the decode-side copy.
        if self.decode_balancer is self.prefill_balancer:
            self.decode_balancer = copy.deepcopy(self.prefill_balancer)
        if self.decode_autoscaler is self.prefill_autoscaler:
            self.decode_autoscaler = copy.deepcopy(self.prefill_autoscaler)

        self.prefill_profiles = self._coerce_profiles(
            prefill_profiles, self.num_prefill, "prefill")
        self.decode_profiles = self._coerce_profiles(
            decode_profiles, len(self.decode_engines), "decode")

        self.prefill_min, self.prefill_max = self._pool_band(
            "prefill", self.num_prefill, prefill_min_replicas,
            prefill_max_replicas)
        self.decode_min, self.decode_max = self._pool_band(
            "decode", len(self.decode_engines), decode_min_replicas,
            decode_max_replicas)

    @staticmethod
    def _coerce_profiles(profiles, count: int, pool: str) -> List[ReplicaProfile]:
        if profiles is None:
            return [ReplicaProfile() for _ in range(count)]
        coerced = [ReplicaProfile.coerce(p) for p in profiles]
        if len(coerced) != count:
            raise ValueError(f"got {len(coerced)} {pool} replica profiles "
                             f"for {count} replicas")
        return coerced

    @staticmethod
    def _pool_band(pool: str, initial: int, lower: Optional[int],
                   upper: Optional[int]) -> Tuple[int, int]:
        low = initial if lower is None else int(lower)
        high = initial if upper is None else int(upper)
        if not 1 <= low <= initial:
            raise ValueError(f"{pool}_min_replicas must be in [1, {initial}] "
                             f"(the initial pool size), got {low}")
        if high < initial:
            raise ValueError(f"{pool}_max_replicas must be >= the initial "
                             f"pool size ({initial}), got {high}")
        return low, high

    @property
    def num_decode(self) -> int:
        """Size of the initial decode pool."""
        return len(self.decode_engines)

    # --------------------------------------------------------------- main loop
    def run(self, workload, policy_factory: PolicyFactory) -> DisaggregatedMetrics:
        """Serve every sequence through prefill → handoff → decode.

        ``policy_factory(ordinal)`` supplies the token-exit policy of each
        *decode* replica (prefill replicas produce no tokens).  All mutable
        state lives in run-local fleets, so repeated calls on one platform
        object are bit-identical.
        """
        self.prefill_balancer.reset()
        self.decode_balancer.reset()
        self.prefill_autoscaler.reset()
        self.decode_autoscaler.reset()
        self.prefill_autoscaler.set_bounds(self.prefill_min, self.prefill_max)
        self.decode_autoscaler.set_bounds(self.decode_min, self.decode_max)

        pending = sorted(workload.sequences,
                         key=lambda s: (s.arrival_ms, s.sequence_id))
        tenant_runtime = build_sequence_runtime(pending, self.tenancy, self.seed)
        num_sequences = len(pending)
        start = pending[0].arrival_ms if pending else 0.0
        mean_tokens = workload.mean_output_length() or 1.0
        mean_prompt = getattr(workload, "mean_prompt_length", lambda: 0.0)() or 1.0

        prefill_fleet = PrefillFleetState()
        prefill_fleet.obs = self.obs
        prefill_fleet.obs_pool = "prefill"
        for profile in self.prefill_profiles:
            prefill_fleet.add(self.prefill_model, profile, self.prefill_batch,
                              mean_prompt, start)
        decode_fleet = GenerativeFleetState()
        decode_fleet.obs = self.obs
        decode_fleet.obs_pool = "decode"
        for engine, profile in zip(self.decode_engines, self.decode_profiles):
            decode_fleet.add(engine, policy_factory(decode_fleet.next_ordinal()),
                             profile, mean_tokens, start,
                             kv=_kv_accountant(engine, profile, self.kv_capacity,
                                              self.prefill_model))

        if num_sequences == 0:
            return self._collect(prefill_fleet, decode_fleet, {}, {}, start, start)

        runner = _DisaggRun(self, pending, policy_factory, prefill_fleet,
                            decode_fleet, mean_tokens, mean_prompt, start,
                            tenant_runtime=tenant_runtime, faults=self.faults)
        runner.drive()
        self.last_kernel_stats = runner.events.stats()

        end = max((e.last_completion_ms for e in decode_fleet.entries
                   if np.isfinite(e.last_completion_ms)), default=start)
        metrics = self._collect(prefill_fleet, decode_fleet,
                                runner.prefill_delays, runner.transfer_delays,
                                start, end)
        runner.record_run(metrics)
        if tenant_runtime is not None:
            metrics.tenant_rollups = sequence_rollups(metrics.aggregate(),
                                                      tenant_runtime)
        return metrics

    # ------------------------------------------------------- replica factories
    def _add_prefill(self, fleet: PrefillFleetState, policy_factory,
                     mean_tokens: float, mean_prompt: float, now_ms: float,
                     crashed: Optional[PrefillReplicaEntry] = None
                     ) -> PrefillReplicaEntry:
        """Bring one prefill replica online (scale-out, or the rebuild of a
        ``crashed`` entry's profile).  Scaled-out replicas cycle the
        configured profile band so an elastic heterogeneous pool keeps its
        configured speed mix instead of silently booting base-speed
        hardware."""
        profiles = self.prefill_profiles
        profile = profiles[fleet.next_ordinal() % len(profiles)] \
            if crashed is None else crashed.profile
        return fleet.add(self.prefill_model, profile, self.prefill_batch,
                         mean_prompt, now_ms)

    def _add_decode(self, fleet: GenerativeFleetState, policy_factory,
                    mean_tokens: float, mean_prompt: float, now_ms: float,
                    crashed=None):
        """Bring one decode replica online (scale-out cycling the profile
        band, or the rebuild of a ``crashed`` entry's engine and profile
        with a fresh, empty KV cache)."""
        if crashed is None:
            profiles = self.decode_profiles
            engine = self.decode_engines[0]
            profile = profiles[fleet.next_ordinal() % len(profiles)]
        else:
            engine, profile = crashed.engine, crashed.profile
        return fleet.add(engine, policy_factory(fleet.next_ordinal()), profile,
                         mean_tokens, now_ms,
                         kv=_kv_accountant(engine, profile, self.kv_capacity,
                                          self.prefill_model))

    # ------------------------------------------------------------------ collect
    def _collect(self, prefill_fleet: PrefillFleetState,
                 decode_fleet: GenerativeFleetState,
                 prefill_delays: Dict[int, float],
                 transfer_delays: Dict[int, float],
                 start_ms: float, end_ms: float) -> DisaggregatedMetrics:
        prefill_end = max(end_ms, max(
            (e.last_completion_ms for e in prefill_fleet.entries
             if np.isfinite(e.last_completion_ms)), default=start_ms))
        prefill_fleet.finalize(prefill_end)
        return DisaggregatedMetrics(
            **_decode_pool_fields(decode_fleet, start_ms, end_ms),
            prefill_dispatch_counts=[e.dispatched
                                     for e in prefill_fleet.entries],
            prefill_counts=[e.prefilled for e in prefill_fleet.entries],
            prefill_token_counts=[e.prefilled_tokens
                                  for e in prefill_fleet.entries],
            prefill_fleet_timeline=list(prefill_fleet.timeline),
            prefill_replica_seconds=prefill_fleet.replica_seconds(prefill_end),
            prefill_active_ms=prefill_fleet.active_replica_ms(prefill_end),
            prefill_uptimes_ms=[e.active_ms(prefill_end)
                                for e in prefill_fleet.entries],
            prefill_delays_ms=dict(prefill_delays),
            transfer_delays_ms=dict(transfer_delays),
        )


# --------------------------------------------------------------------- kernel
#: runner event kind of the prefill pool: a chunk-batch finished.  The
#: decode pool's kinds are the generative cluster's.
_PREFILL_DONE = RUNNER_KINDS + 2


class _DisaggRun(SimPlatform):
    """Kernel-scheduled port of the disaggregated pass/advance loop.

    Same phase order per pass as the monolithic runners, once per pool:
    admit arrivals into prefill, scale the prefill pool, progress prefill
    chunk-batches (completions feed the handoff heap), dispatch due
    handoffs into decode, scale the decode pool, run the decode slot loop,
    retire idle drained replicas in both pools.  Each pool is a
    :class:`PoolRuntime` with its own dirty list, so a pass touches only
    the replicas whose state changed; prefill completions and decode slot
    frees live on the shared heap, the arrival cursor and the handoff head
    are the external candidates.  Prefill batches and the handoff heap are
    this runner's own.
    """

    def __init__(self, platform: DisaggregatedPlatform,
                 pending: List[SequenceSample], policy_factory: PolicyFactory,
                 prefill_fleet: PrefillFleetState,
                 decode_fleet: GenerativeFleetState, mean_tokens: float,
                 mean_prompt: float, start_ms: float,
                 tenant_runtime: Optional[TenantRuntime] = None,
                 faults: Optional[FaultSchedule] = None) -> None:
        super().__init__(start_ms, pending)
        self.install_obs(platform.obs, start_ms)
        self.ttft_slo_ms = platform.ttft_slo_ms
        self.ppool = PoolRuntime(
            self, prefill_fleet, platform.prefill_balancer,
            platform.prefill_autoscaler, platform.prefill_min,
            platform.prefill_max,
            partial(platform._add_prefill, prefill_fleet, policy_factory,
                    mean_tokens, mean_prompt),
            tenants=tenant_runtime)
        self.dpool = PoolRuntime(
            self, decode_fleet, platform.decode_balancer,
            platform.decode_autoscaler, platform.decode_min,
            platform.decode_max,
            partial(platform._add_decode, decode_fleet, policy_factory,
                    mean_tokens, mean_prompt),
            tenants=tenant_runtime)
        #: (ready_ms, sequence_id, sample) — KV transfer complete, decodeable.
        self.handoff: List[Tuple[float, int, SequenceSample]] = []
        self.prefill_delays: Dict[int, float] = {}
        self.transfer_delays: Dict[int, float] = {}
        self.schedule_faults(faults, start_ms)

    # ------------------------------------------------------------------ gauges
    def sample_gauges(self, now_ms: float) -> None:
        self.ppool.sample_gauges(now_ms)
        self.dpool.sample_gauges(now_ms)
        self.obs.gauge(now_ms, "handoff_pending", len(self.handoff),
                       pool="decode")
        self.sample_tenant_backlog(now_ms, self.pools)

    # --------------------------------------------------------- kernel contract
    def done(self, now_ms: float) -> bool:
        if self.next_arrival < self.num_items or self.handoff:
            return False
        for entry in self.ppool.serving:
            if entry.queue or entry.in_flight:
                return False
        for entry in self.dpool.serving:
            if entry.queue or entry.busy_slots(now_ms):
                return False
        return True

    def next_external_ms(self, now_ms: float) -> Optional[float]:
        candidate = super().next_external_ms(now_ms)
        if self.handoff and (candidate is None or self.handoff[0][0] < candidate):
            candidate = self.handoff[0][0]
        return candidate

    def on_event(self, event) -> None:
        if event.kind == _PREFILL_DONE:
            self.ppool.wake(event.payload)
        elif not _on_decode_event(self.dpool, event, self.clock.now_ms):
            super().on_event(event)

    # ------------------------------------------------------------------- pass
    def step(self, now: float) -> bool:
        ppool = self.ppool
        dpool = self.dpool

        # Phase 1: admit arrivals into the prefill pool.
        self.admit_arrivals(ppool, now)

        # Phase 2: the prefill pool's own autoscaler (queued prompt chunks
        # drive its load signal).
        ppool.scale(now)

        # Phase 3: prefill progress — finish due chunk-batches (pushing
        # their sequences into the handoff queue with the KV-transfer
        # delay) and start new ones on free replicas.
        progressed = False
        handoff = self.handoff
        prefill_delays = self.prefill_delays
        transfer_delays = self.transfer_delays
        obs = self.obs
        for entry in ppool.drain_dirty():
            if entry.in_flight and entry.busy_until_ms <= now + 1e-9:
                done = entry.busy_until_ms
                for sample in entry.in_flight:
                    transfer = entry.model.transfer_ms(sample.prompt_tokens)
                    prefill_delays[sample.sequence_id] = done - sample.arrival_ms
                    transfer_delays[sample.sequence_id] = transfer
                    heapq.heappush(handoff, (done + transfer,
                                             sample.sequence_id, sample))
                    if obs.enabled:
                        # The transfer ends exactly where the handoff entry
                        # becomes decodeable (same float as the heap key).
                        obs.phase(sample.sequence_id, "kv_transfer", done,
                                  done + transfer, pool="prefill",
                                  replica=entry.replica_id)
                entry.prefilled += len(entry.in_flight)
                entry.prefilled_tokens += sum(s.prompt_tokens
                                              for s in entry.in_flight)
                entry.in_flight = []
                progressed = True
            if entry.is_free(now) and entry.queue:
                batch = entry.queue[:entry.prefill_batch]
                del entry.queue[:len(batch)]
                tokens = sum(s.prompt_tokens for s in batch)
                duration = entry.model.batch_prefill_ms(tokens) / entry.profile.speed
                entry.in_flight = batch
                entry.busy_until_ms = now + duration
                entry.last_completion_ms = max(entry.last_completion_ms,
                                               now + duration)
                if obs.enabled:
                    # ``busy_until_ms`` is the float later recorded into
                    # prefill_delays, so the span ends bit-exactly there.
                    batch_end = entry.busy_until_ms
                    replica = entry.replica_id
                    for sample in batch:
                        obs.phase(sample.sequence_id, "prefill_wait",
                                  sample.arrival_ms, now, pool="prefill",
                                  replica=replica)
                        obs.phase(sample.sequence_id, "prefill", now,
                                  batch_end, pool="prefill", replica=replica)
                if entry.busy_until_ms > now + 1e-9:
                    self.events.push(entry.busy_until_ms, _PREFILL_DONE, entry)
                else:
                    # Degenerate zero-cost chunk: complete it in the next
                    # pass at this same timestamp instead of scheduling.
                    ppool.wake(entry)
                progressed = True

        # Phase 4: handoff — transferred sequences dispatch to the decode
        # pool through its own balancer.
        moved = 0
        while handoff and handoff[0][0] <= now + 1e-9:
            dpool.route(heapq.heappop(handoff)[2], now)
            moved += 1
        if moved:
            dpool.autoscaler.observe_admitted(moved, now)
            progressed = True

        # Phase 5: the decode pool's own autoscaler (outstanding decode
        # work drives its load signal, as in the monolithic cluster).
        dpool.scale(now)

        # Phase 6: free decode slots claim queue heads and run the slot
        # loop shared with the monolithic cluster (the decode engines
        # carry no in-slot prefill model — prompts arrive prefilled —
        # and doomed sequences are shed against the TTFT SLO).  The
        # recorded queueing delay spans arrival → first decode step, so
        # the aggregate TTFT includes prefill + transfer + both waits.
        if _claim_decode_slots(dpool, now, self.ttft_slo_ms):
            progressed = True

        # Phase 7: drained replicas that have gone idle leave their pool.
        ppool.retire_idle(now)
        dpool.retire_idle(now)
        return progressed
