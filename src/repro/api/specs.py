"""Declarative experiment specs: workload, cluster and exit-policy configs.

These small frozen dataclasses describe *what* to run without building any of
it.  An :class:`~repro.api.experiment.Experiment` composes them and only
materializes workloads/platforms when a run starts, which makes experiments
cheap to copy (``dataclasses.replace``) — the mechanism behind
``Experiment.sweep``.

All validation happens at construction time and raises :class:`ValueError`
naming the offending value, so a bad spec fails before any compute is spent
and every front end (Python API, CLI, benchmarks) reports the same error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.controller import FleetController
from repro.exits.ramps import RampStyle
from repro.faults import FaultSchedule, FaultSpec, coerce_faults
from repro.serving.autoscaler import Autoscaler, canonical_autoscaler_name
from repro.serving.cluster import (LoadBalancer, ReplicaProfile,
                                   canonical_balancer_name)
from repro.obs.spec import TraceSpec
from repro.tenancy import (TENANT_POLICIES, TenancyConfig, TenantSpec,
                           coerce_tenancy)
from repro.utils.fields import split_fields

# TraceSpec lives in repro.obs (the observability subsystem owns its own
# validation) but is re-exported here: it is an experiment spec like the rest.
__all__ = ["WorkloadSpec", "ClusterSpec", "ExitPolicySpec", "TraceSpec",
           "WORKLOAD_KINDS"]

#: Workload families an experiment can declare.
WORKLOAD_KINDS = ("video", "nlp", "generative")


def _integer(name: str, value) -> int:
    """``value`` as an ``int``.  NaN, infinite and fractional values raise a
    :class:`ValueError` naming the field; integral floats such as ``2000.0``
    pass."""
    if isinstance(value, numbers.Integral):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _coerce_integers(spec, names: Sequence[str]) -> None:
    """Replace each named field of a frozen spec, unless ``None``, with its
    :func:`_integer` value."""
    for name in names:
        value = getattr(spec, name)
        if value is not None:
            object.__setattr__(spec, name, _integer(name, value))


#: Default per-kind sources and arrival rates (mirroring the CLI defaults).
_KIND_DEFAULTS = {
    "video": {"source": "urban-day", "rate": 30.0},
    "nlp": {"source": "amazon", "rate": 20.0},
    "generative": {"source": "cnn-dailymail", "rate": 2.0},
}


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload described by name, not yet generated.

    Attributes
    ----------
    kind:
        ``"video"``, ``"nlp"`` or ``"generative"``.
    source:
        Scene / dataset preset name; empty selects the kind's default
        (``urban-day`` / ``amazon`` / ``cnn-dailymail``).
    requests:
        Stream length (frames, requests or sequences).
    rate:
        Arrival rate (fps for video, qps otherwise); ``None`` selects the
        kind's default.
    seed:
        Workload seed; ``None`` inherits the experiment seed.
    arrival_process:
        ``None`` selects the kind's default process.  NLP: ``"maf"``
        (bursty, the default) or ``"poisson"``.  Generative: ``"poisson"``
        (the default) or ``"diurnal"`` (day/night rate cycle for autoscaling
        and pool-sizing studies).  Both kinds also accept ``"flash_crowd"``
        (Poisson baseline plus one sudden sustained spike) and
        ``"trace:<path>"`` (replay a CSV of arrival timestamps in ms).  An
        explicit process the kind's workload factory does not know raises
        :class:`ValueError`, and so does any process on a video workload
        (frames arrive at the fixed fps).
    overrides:
        Optional preset-parameter overrides forwarded to the workload factory.
    prefix_groups / prefix_share / prefix_tokens:
        Shared-prefix structure (generative only): with ``prefix_groups > 0``
        each sequence joins one of that many prefix groups with probability
        ``prefix_share`` and prepends the group's shared prefix (~
        ``prefix_tokens`` tokens) to its prompt.  Drawn from a dedicated RNG
        stream, so ``prefix_groups=0`` (the default) leaves every existing
        trace bit-identical.
    """

    kind: str
    source: str = ""
    requests: int = 4000
    rate: Optional[float] = None
    seed: Optional[int] = None
    arrival_process: Optional[str] = None
    overrides: Optional[Dict[str, float]] = None
    prefix_groups: int = 0
    prefix_share: float = 0.8
    prefix_tokens: int = 256

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}; "
                             f"choose from {WORKLOAD_KINDS}")
        _coerce_integers(self, ("requests", "seed", "prefix_groups",
                                "prefix_tokens"))
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.rate is not None and not (math.isfinite(self.rate)
                                          and self.rate > 0):
            raise ValueError(f"rate must be positive and finite, "
                             f"got {self.rate}")
        if self.arrival_process is not None and self.kind == "video":
            # Video frames arrive at the fixed fps; the process would be
            # silently ignored.
            raise ValueError("arrival_process only applies to nlp and "
                             "generative workloads, not kind='video'")
        if self.prefix_groups < 0:
            raise ValueError(f"prefix_groups must be >= 0, "
                             f"got {self.prefix_groups}")
        if self.prefix_groups > 0:
            if self.kind != "generative":
                raise ValueError("prefix_groups only applies to generative "
                                 f"workloads, not kind={self.kind!r}")
            if not 0.0 < float(self.prefix_share) <= 1.0:
                raise ValueError(f"prefix_share must be in (0, 1], "
                                 f"got {self.prefix_share}")
            if self.prefix_tokens < 1:
                raise ValueError(f"prefix_tokens must be >= 1, "
                                 f"got {self.prefix_tokens}")

    @classmethod
    def parse(cls, text: str, requests: int = 4000, rate: Optional[float] = None,
              seed: Optional[int] = None) -> "WorkloadSpec":
        """Parse ``"video:urban-day"`` / ``"nlp:imdb"`` / ``"generative:squad"``.

        The ``:source`` part is optional (``"video"`` selects the kind's
        default source), but neither part may be empty.
        """
        if len(split_fields(text, ":", "workload field")) > 2:
            raise ValueError(f"workload {text!r} has more than one ':'; "
                             "expected 'kind[:source]'")
        kind, _, source = str(text).partition(":")
        return cls(kind=kind, source=source, requests=requests, rate=rate, seed=seed)

    @property
    def is_generative(self) -> bool:
        return self.kind == "generative"

    def resolved_source(self) -> str:
        return self.source or _KIND_DEFAULTS[self.kind]["source"]

    def resolved_rate(self) -> float:
        return self.rate if self.rate is not None else _KIND_DEFAULTS[self.kind]["rate"]

    def build(self, default_seed: int = 0):
        """Materialize the workload, memoized by content in the trace cache.

        Generation is fully seeded, so the same resolved spec + seed always
        produces a bit-identical stream; :mod:`repro.workloads.cache` keys on
        exactly those inputs and hands back the shared materialized trace.
        Runs never mutate workloads, so sharing is safe.
        """
        # Imported here to keep spec construction free of workload machinery.
        from repro.workloads.cache import get_or_materialize

        return get_or_materialize(self, default_seed)

    def materialize(self, default_seed: int = 0):
        """Generate the workload, bypassing the trace cache."""
        # Imported here to keep spec construction free of workload machinery.
        from repro.generative.sequences import make_generative_workload
        from repro.workloads.nlp import make_nlp_workload
        from repro.workloads.video import make_video_workload

        seed = self.seed if self.seed is not None else default_seed
        source = self.resolved_source()
        rate = self.resolved_rate()
        if self.kind == "video":
            return make_video_workload(source, num_frames=self.requests, fps=rate,
                                       seed=seed, preset_overrides=self.overrides)
        if self.kind == "nlp":
            return make_nlp_workload(source, num_requests=self.requests, rate_qps=rate,
                                     seed=seed,
                                     arrival_process=self.arrival_process or "maf",
                                     preset_overrides=self.overrides)
        # An explicitly named process the generative factory does not know
        # (e.g. the NLP-only "maf") raises ValueError there.
        return make_generative_workload(source, num_sequences=self.requests,
                                        rate_qps=rate, seed=seed,
                                        arrival_process=self.arrival_process
                                        or "poisson",
                                        preset_overrides=self.overrides,
                                        prefix_groups=self.prefix_groups,
                                        prefix_share=float(self.prefix_share),
                                        prefix_tokens=self.prefix_tokens)

    def describe(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "kind": self.kind,
            "source": self.resolved_source(),
            "requests": self.requests,
            "rate": self.resolved_rate(),
        }
        if self.arrival_process is not None:
            data["arrival_process"] = self.arrival_process
        if self.prefix_groups > 0:
            data.update({
                "prefix_groups": self.prefix_groups,
                "prefix_share": float(self.prefix_share),
                "prefix_tokens": self.prefix_tokens,
            })
        return data


@dataclass(frozen=True)
class ClusterSpec:
    """Fleet shape, control topology and elasticity for cluster serving.

    ``replicas`` platforms sit behind ``balancer``; ``fleet_mode`` selects the
    EE control topology (one controller per replica, or one shared controller
    syncing every ``sync_period`` samples).  ``autoscaler`` makes the fleet
    elastic within ``[min_replicas, max_replicas]`` (defaults: 1 and
    ``2 * replicas`` when a scaler is enabled, frozen at ``replicas``
    otherwise), and ``profiles`` makes it heterogeneous — one
    :class:`~repro.serving.fleet.ReplicaProfile` (or speed float /
    ``"speed[:cost]"`` string, or one comma-separated string) per replica.
    Every profile's speed/cost multiplier must be strictly positive
    (validated here, so weighted balancers can never divide by zero).

    The same spec drives both serving families: on classification models it
    builds a :class:`~repro.serving.cluster.ClusterPlatform`, on generative
    models a :class:`~repro.serving.generative_cluster.GenerativeClusterPlatform`
    (token-level engines on the fleet control plane; ``fleet_mode="shared"``
    feeds every replica's token feedback into one fleet-wide policy and
    ``sync_period`` is ignored there — the shared policy is always in sync).

    ``disaggregate=True`` (generative models only) splits the fleet into a
    prefill pool and a decode pool connected by a KV-transfer handoff queue
    (:class:`~repro.serving.disagg.DisaggregatedPlatform`).  The
    ``prefill_*`` / ``decode_*`` knobs then size, balance, autoscale and
    profile each pool independently; unset pool knobs inherit the fleet-wide
    value (``prefill_replicas``/``decode_replicas`` default to ``replicas``,
    pool balancers default to ``balancer``, pool autoscalers to
    ``autoscaler``).  Pool knobs on a non-disaggregated spec raise
    :class:`ValueError` — they would be silently dead configuration — and so
    do the fleet-wide ``min_replicas``/``max_replicas``/``profiles`` on a
    disaggregated one (bounds and profiles are strictly per-pool).

    ``tenants`` turns on multi-tenant serving: requests are tagged with a
    tenant, dispatched under ``tenant_policy`` (weighted-fair or
    strict-priority, layered over the balancer), and reported per tenant in
    the run details.  ``faults`` injects replica crash/recovery events on the
    simulation clock; ``"prefill"``-pool faults require ``disaggregate=True``.
    Both default to off, preserving the single-tenant fault-free fast path.

    ``kv_capacity`` (generative models only) gives every replica a KV-cache
    budget in bytes: shared prefixes already resident shorten prefill, and
    oversubscription triggers LRU eviction with recompute (see
    :class:`~repro.generative.decoding.KVCacheAccountant`).  Per-replica
    ``ReplicaProfile.kv_capacity_bytes`` overrides the fleet-wide value.
    ``None`` (the default) keeps cache modelling off and every run
    bit-identical to the uncapped platforms.
    """

    replicas: int = 2
    balancer: Union[str, LoadBalancer] = "round_robin"
    fleet_mode: str = "independent"
    sync_period: int = 64
    autoscaler: Union[str, Autoscaler, None] = "none"
    min_replicas: Optional[int] = None
    max_replicas: Optional[int] = None
    profiles: Optional[Union[str, Sequence[Union[ReplicaProfile, float, str]]]] = None
    #: Monolithic generative fleets only: decode slots also run each prompt's
    #: chunked prefill, stretched by contention with in-flight streams — the
    #: deployment disaggregation removes (the honest comparator for it).
    prefill_in_slot: bool = False
    disaggregate: bool = False
    prefill_replicas: Optional[int] = None
    decode_replicas: Optional[int] = None
    prefill_balancer: Optional[Union[str, LoadBalancer]] = None
    decode_balancer: Optional[Union[str, LoadBalancer]] = None
    prefill_autoscaler: Optional[Union[str, Autoscaler]] = None
    decode_autoscaler: Optional[Union[str, Autoscaler]] = None
    prefill_min_replicas: Optional[int] = None
    prefill_max_replicas: Optional[int] = None
    decode_min_replicas: Optional[int] = None
    decode_max_replicas: Optional[int] = None
    prefill_profiles: Optional[Union[str, Sequence[Union[ReplicaProfile, float, str]]]] = None
    decode_profiles: Optional[Union[str, Sequence[Union[ReplicaProfile, float, str]]]] = None
    #: Multi-tenant serving: ``None`` keeps the single-default-tenant fast
    #: path; otherwise a :class:`~repro.tenancy.TenancyConfig`, a sequence of
    #: :class:`~repro.tenancy.TenantSpec`, or a ``"name:key=value,...;..."``
    #: string (see :func:`repro.tenancy.parse_tenants`).
    tenants: Union[None, str, TenancyConfig, Sequence[TenantSpec]] = None
    #: Dispatch discipline layered over the balancer when ``tenants`` is set.
    tenant_policy: str = "weighted_fair"
    #: Failure injection: ``None`` disables it; otherwise a
    #: :class:`~repro.faults.FaultSpec`/:class:`~repro.faults.FaultSchedule`
    #: or a ``"crash:down[:pool]"`` / ``"mtbf=..,mttr=..,horizon=.."`` string
    #: (see :func:`repro.faults.parse_faults`).
    faults: Union[None, str, FaultSpec, FaultSchedule] = None
    #: Per-replica KV-cache budget in bytes (generative only); ``None``
    #: disables cache modelling entirely.
    kv_capacity: Optional[float] = None

    #: every pool-scoped field; set on a non-disaggregated spec they would be
    #: dead configuration, so construction rejects that combination.
    POOL_KEYS = ("prefill_replicas", "decode_replicas", "prefill_balancer",
                 "decode_balancer", "prefill_autoscaler", "decode_autoscaler",
                 "prefill_min_replicas", "prefill_max_replicas",
                 "decode_min_replicas", "decode_max_replicas",
                 "prefill_profiles", "decode_profiles")

    #: every integer field, validated and coerced by :func:`_integer`.
    INT_KEYS = ("replicas", "sync_period", "min_replicas", "max_replicas",
                "prefill_replicas", "decode_replicas", "prefill_min_replicas",
                "prefill_max_replicas", "decode_min_replicas",
                "decode_max_replicas")

    def __post_init__(self) -> None:
        _coerce_integers(self, self.INT_KEYS)
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        canonical_balancer_name(self.balancer)   # raises on unknown names
        if self.fleet_mode not in FleetController.MODES:
            raise ValueError(f"unknown fleet mode {self.fleet_mode!r}; "
                             f"choose from {tuple(FleetController.MODES)}")
        if self.sync_period < 1:
            raise ValueError(f"sync_period must be >= 1, got {self.sync_period}")
        if self.autoscaler is None:
            object.__setattr__(self, "autoscaler", "none")
        canonical_autoscaler_name(self.autoscaler)   # raises on unknown names
        if self.profiles is not None:
            object.__setattr__(self, "profiles",
                               self._coerce_profiles("profiles", self.profiles,
                                                     self.replicas))
        if self.min_replicas is not None \
                and not 1 <= self.min_replicas <= self.replicas:
            raise ValueError(f"min_replicas must be in [1, replicas="
                             f"{self.replicas}], got {self.min_replicas}")
        if self.max_replicas is not None and self.max_replicas < self.replicas:
            raise ValueError(f"max_replicas must be >= replicas="
                             f"{self.replicas}, got {self.max_replicas}")
        if self.tenant_policy not in TENANT_POLICIES:
            raise ValueError(f"tenant_policy must be one of {TENANT_POLICIES}, "
                             f"got {self.tenant_policy!r}")
        object.__setattr__(self, "tenants",
                           coerce_tenancy(self.tenants, self.tenant_policy))
        if self.kv_capacity is not None:
            capacity = float(self.kv_capacity)
            if not math.isfinite(capacity) or capacity <= 0.0:
                raise ValueError(f"kv_capacity must be positive and finite, "
                                 f"got {self.kv_capacity}")
        object.__setattr__(self, "faults", coerce_faults(self.faults))
        if self.faults is not None and not self.disaggregate:
            bad = [f for f in self.faults if f.pool == "prefill"]
            if bad:
                raise ValueError("faults targeting pool='prefill' only apply "
                                 "to disaggregated serving; set "
                                 "disaggregate=True")
        self._validate_pools()

    @staticmethod
    def _coerce_profiles(name: str, value, count: int):
        profiles = ReplicaProfile.parse_list(value) if isinstance(value, str) \
            else tuple(ReplicaProfile.coerce(p) for p in value)
        if len(profiles) != count:
            raise ValueError(f"got {len(profiles)} {name} for {count} replicas")
        return profiles

    def _validate_pools(self) -> None:
        if not self.disaggregate:
            dead = [key for key in self.POOL_KEYS
                    if getattr(self, key) is not None]
            if dead:
                raise ValueError(f"cluster key(s) {dead} only apply to "
                                 "disaggregated serving; set disaggregate=True")
            return
        # The converse dead-configuration class: fleet-wide sizing knobs have
        # no meaning once the fleet is split into pools (replicas/balancer/
        # autoscaler survive as pool *defaults*, but bounds and profiles are
        # strictly per-pool).
        dead = [key for key in ("min_replicas", "max_replicas", "profiles")
                if getattr(self, key) is not None]
        if dead:
            raise ValueError(f"cluster key(s) {dead} do not apply to "
                             "disaggregated serving; use the prefill_*/"
                             "decode_* pool equivalents")
        if self.prefill_in_slot:
            raise ValueError("prefill_in_slot is the monolithic deployment "
                             "(prefill running in decode slots); it cannot "
                             "be combined with disaggregate=True")
        for name in ("prefill_replicas", "decode_replicas"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("prefill_balancer", "decode_balancer"):
            value = getattr(self, name)
            if value is not None:
                canonical_balancer_name(value)
        for name in ("prefill_autoscaler", "decode_autoscaler"):
            value = getattr(self, name)
            if value is not None:
                canonical_autoscaler_name(value)
        for name, pool in (("prefill_profiles", self.resolved_prefill_replicas()),
                           ("decode_profiles", self.resolved_decode_replicas())):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name,
                                   self._coerce_profiles(name, value, pool))
        for low_name, high_name, pool_name in (
                ("prefill_min_replicas", "prefill_max_replicas", "prefill"),
                ("decode_min_replicas", "decode_max_replicas", "decode")):
            pool = self.resolved_prefill_replicas() if pool_name == "prefill" \
                else self.resolved_decode_replicas()
            low = getattr(self, low_name)
            high = getattr(self, high_name)
            if low is not None and not 1 <= low <= pool:
                raise ValueError(f"{low_name} must be in [1, {pool_name} "
                                 f"pool={pool}], got {low}")
            if high is not None and high < pool:
                raise ValueError(f"{high_name} must be >= the {pool_name} "
                                 f"pool size ({pool}), got {high}")

    def balancer_name(self) -> str:
        return canonical_balancer_name(self.balancer)

    def autoscaler_name(self) -> str:
        return canonical_autoscaler_name(self.autoscaler)

    def resolved_min_replicas(self) -> int:
        """The lower fleet bound (frozen at ``replicas`` without a scaler)."""
        if self.min_replicas is not None:
            return self.min_replicas
        return self.replicas if self.autoscaler_name() == "none" else 1

    def resolved_max_replicas(self) -> int:
        """The upper fleet bound (defaults to ``2 * replicas`` with a scaler)."""
        if self.max_replicas is not None:
            return self.max_replicas
        return self.replicas if self.autoscaler_name() == "none" \
            else 2 * self.replicas

    # ------------------------------------------------------ disaggregated pools
    def resolved_prefill_replicas(self) -> int:
        """Initial prefill pool size (defaults to the fleet-wide count)."""
        return self.prefill_replicas if self.prefill_replicas is not None \
            else self.replicas

    def resolved_decode_replicas(self) -> int:
        """Initial decode pool size (defaults to the fleet-wide count)."""
        return self.decode_replicas if self.decode_replicas is not None \
            else self.replicas

    def prefill_balancer_name(self) -> str:
        return canonical_balancer_name(self.prefill_balancer
                                       if self.prefill_balancer is not None
                                       else self.balancer)

    def decode_balancer_name(self) -> str:
        return canonical_balancer_name(self.decode_balancer
                                       if self.decode_balancer is not None
                                       else self.balancer)

    def prefill_autoscaler_name(self) -> str:
        return canonical_autoscaler_name(self.prefill_autoscaler
                                         if self.prefill_autoscaler is not None
                                         else self.autoscaler)

    def decode_autoscaler_name(self) -> str:
        return canonical_autoscaler_name(self.decode_autoscaler
                                         if self.decode_autoscaler is not None
                                         else self.autoscaler)

    def _pool_band(self, pool: int, scaler: str, lower: Optional[int],
                   upper: Optional[int]) -> Tuple[int, int]:
        low = lower if lower is not None \
            else (pool if scaler == "none" else 1)
        high = upper if upper is not None \
            else (pool if scaler == "none" else 2 * pool)
        return low, high

    def resolved_prefill_band(self) -> Tuple[int, int]:
        """(min, max) prefill pool bounds under the prefill autoscaler."""
        return self._pool_band(self.resolved_prefill_replicas(),
                               self.prefill_autoscaler_name(),
                               self.prefill_min_replicas,
                               self.prefill_max_replicas)

    def resolved_decode_band(self) -> Tuple[int, int]:
        """(min, max) decode pool bounds under the decode autoscaler."""
        return self._pool_band(self.resolved_decode_replicas(),
                               self.decode_autoscaler_name(),
                               self.decode_min_replicas,
                               self.decode_max_replicas)

    def describe(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "replicas": self.replicas,
            "balancer": self.balancer_name(),
            "fleet_mode": self.fleet_mode,
            "sync_period": self.sync_period,
            "autoscaler": self.autoscaler_name(),
            "disaggregate": bool(self.disaggregate),
        }
        if not self.disaggregate:
            # Fleet-wide bounds/profiles are rejected on disaggregated specs
            # (per-pool only), so they are reported only for monolithic ones.
            data.update({
                "min_replicas": self.resolved_min_replicas(),
                "max_replicas": self.resolved_max_replicas(),
                "profiles": None if self.profiles is None
                else [p.describe() for p in self.profiles],
                "prefill_in_slot": bool(self.prefill_in_slot),
            })
        if self.disaggregate:
            prefill_band = self.resolved_prefill_band()
            decode_band = self.resolved_decode_band()
            data.update({
                "prefill_replicas": self.resolved_prefill_replicas(),
                "decode_replicas": self.resolved_decode_replicas(),
                "prefill_balancer": self.prefill_balancer_name(),
                "decode_balancer": self.decode_balancer_name(),
                "prefill_autoscaler": self.prefill_autoscaler_name(),
                "decode_autoscaler": self.decode_autoscaler_name(),
                "prefill_min_replicas": prefill_band[0],
                "prefill_max_replicas": prefill_band[1],
                "decode_min_replicas": decode_band[0],
                "decode_max_replicas": decode_band[1],
                "prefill_profiles": None if self.prefill_profiles is None
                else [p.describe() for p in self.prefill_profiles],
                "decode_profiles": None if self.decode_profiles is None
                else [p.describe() for p in self.decode_profiles],
            })
        if self.tenants is not None:
            data["tenants"] = self.tenants.describe()
        if self.faults is not None:
            data["faults"] = self.faults.describe()
        if self.kv_capacity is not None:
            data["kv_capacity"] = float(self.kv_capacity)
        return data


@dataclass(frozen=True)
class ExitPolicySpec:
    """Early-exit policy knobs shared by every EE-capable system.

    ``accuracy_constraint`` and ``ramp_budget`` are the paper's two user
    inputs (§3); the remaining fields are ablation switches used by the
    sensitivity studies.
    """

    accuracy_constraint: float = 0.01
    ramp_budget: float = 0.02
    ramp_style: RampStyle = RampStyle.LIGHTWEIGHT
    initial_ramp_ids: Optional[Tuple[int, ...]] = None
    ramp_adjustment_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.accuracy_constraint) < 1.0:
            raise ValueError("accuracy_constraint must be in [0, 1), "
                             f"got {self.accuracy_constraint}")
        budget = float(self.ramp_budget)
        if not (math.isfinite(budget) and budget > 0.0):
            raise ValueError(f"ramp_budget must be positive and finite, "
                             f"got {self.ramp_budget}")
        try:
            style = RampStyle(self.ramp_style)
        except ValueError:
            raise ValueError(f"unknown ramp_style {self.ramp_style!r}; choose "
                             f"from {[s.value for s in RampStyle]}") from None
        object.__setattr__(self, "ramp_style", style)
        if self.initial_ramp_ids is not None:
            object.__setattr__(self, "initial_ramp_ids",
                               tuple(_integer("initial_ramp_ids", r)
                                     for r in self.initial_ramp_ids))

    def describe(self) -> Dict[str, object]:
        return {
            "accuracy_constraint": float(self.accuracy_constraint),
            "ramp_budget": float(self.ramp_budget),
            "ramp_style": self.ramp_style.value,
            "initial_ramp_ids": None if self.initial_ramp_ids is None
            else list(self.initial_ramp_ids),
            "ramp_adjustment_enabled": bool(self.ramp_adjustment_enabled),
        }
