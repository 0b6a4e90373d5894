"""Tenant classes for multi-tenant serving scenarios.

A :class:`TenantSpec` names one traffic class (an *interactive* product
surface, a *batch* backfill job, ...) with a dispatch weight, an optional
traffic share, and per-tenant overrides of the cluster-wide SLO, TTFT SLO
and early-exit policy.  A :class:`TenancyConfig` bundles the tenant set
with the dispatch policy that orders their work:

* ``weighted_fair`` — start-time fair queueing over the tenants' weights:
  each tenant's requests are stamped with a virtual finish tag, so a
  4:1 weight split yields a 4:1 service split under contention while idle
  tenants cannot starve anyone.
* ``strict_priority`` — every ``interactive`` request is served before any
  ``batch`` request that is queued at the same time; within a class the
  order stays FIFO.

Both policies only *order* work; replica placement still goes through the
configured balancer, so tenancy layers cleanly over the existing fleet
control plane.  When no tenancy is configured the runners take a
single-default-tenant fast path that adds no per-request work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple, Union

__all__ = ["TenantSpec", "TenancyConfig", "TENANT_POLICIES", "TENANT_PRIORITIES",
           "DEFAULT_TENANT", "parse_tenants", "coerce_tenancy"]

TENANT_POLICIES: Tuple[str, ...] = ("weighted_fair", "strict_priority")
TENANT_PRIORITIES: Tuple[str, ...] = ("interactive", "batch")

#: Tenant name used for untagged traffic when no tenancy is configured.
DEFAULT_TENANT = "default"


def _require_finite(key: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class TenantSpec:
    """One tenant class.

    ``weight`` is the weighted-fair dispatch weight; ``share`` is the
    fraction of untagged traffic assigned to this tenant (tenants with
    ``share=None`` split the remainder equally).  ``slo_ms`` /
    ``ttft_slo_ms`` override the cluster-wide values for this tenant's
    requests (``ttft_slo_ms=0`` disables TTFT shedding for the tenant);
    ``allow_exits=False`` pins the tenant's traffic to the full model, an
    exit-policy override for accuracy-critical tenants.
    """

    name: str
    weight: float = 1.0
    share: Optional[float] = None
    priority: str = "interactive"
    slo_ms: Optional[float] = None
    ttft_slo_ms: Optional[float] = None
    allow_exits: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"tenant name must be a non-empty string, got {self.name!r}")
        weight = _require_finite(f"tenant {self.name!r} weight", self.weight)
        if weight <= 0:
            raise ValueError(f"tenant {self.name!r} weight must be positive, got {self.weight!r}")
        object.__setattr__(self, "weight", weight)
        if self.share is not None:
            share = _require_finite(f"tenant {self.name!r} share", self.share)
            if not 0.0 < share <= 1.0:
                raise ValueError(
                    f"tenant {self.name!r} share must be in (0, 1], got {self.share!r}")
            object.__setattr__(self, "share", share)
        if self.priority not in TENANT_PRIORITIES:
            raise ValueError(f"tenant {self.name!r} priority must be one of "
                             f"{TENANT_PRIORITIES}, got {self.priority!r}")
        if self.slo_ms is not None:
            slo = _require_finite(f"tenant {self.name!r} slo_ms", self.slo_ms)
            if slo <= 0:
                raise ValueError(
                    f"tenant {self.name!r} slo_ms must be positive, got {self.slo_ms!r}")
            object.__setattr__(self, "slo_ms", slo)
        if self.ttft_slo_ms is not None:
            ttft = _require_finite(f"tenant {self.name!r} ttft_slo_ms", self.ttft_slo_ms)
            if ttft < 0:
                raise ValueError(f"tenant {self.name!r} ttft_slo_ms must be >= 0 "
                                 f"(0 disables shedding), got {self.ttft_slo_ms!r}")
            object.__setattr__(self, "ttft_slo_ms", ttft)
        if not isinstance(self.allow_exits, bool):
            raise ValueError(f"tenant {self.name!r} allow_exits must be a bool, "
                             f"got {self.allow_exits!r}")

    @property
    def class_rank(self) -> int:
        """Strict-priority rank: interactive before batch."""
        return TENANT_PRIORITIES.index(self.priority)


@dataclass(frozen=True)
class TenancyConfig:
    """A tenant set plus the dispatch policy that orders their work."""

    tenants: Tuple[TenantSpec, ...]
    policy: str = "weighted_fair"

    def __post_init__(self) -> None:
        tenants = tuple(self.tenants)
        if not tenants:
            raise ValueError("tenancy needs at least one tenant")
        for spec in tenants:
            if not isinstance(spec, TenantSpec):
                raise ValueError(f"tenants must be TenantSpec instances, got {spec!r}")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        object.__setattr__(self, "tenants", tenants)
        if self.policy not in TENANT_POLICIES:
            raise ValueError(f"tenant_policy must be one of {TENANT_POLICIES}, "
                             f"got {self.policy!r}")
        explicit = sum(spec.share for spec in tenants if spec.share is not None)
        if explicit > 1.0 + 1e-9:
            raise ValueError(f"tenant shares sum to {explicit}, must be <= 1")
        free = [spec for spec in tenants if spec.share is None]
        if not free and abs(explicit - 1.0) > 1e-6:
            raise ValueError(f"tenant shares sum to {explicit}, must be 1 when all "
                             "tenants pin an explicit share")
        if free and explicit > 1.0 - 1e-9:
            raise ValueError("tenant shares leave no traffic for tenants without an "
                             f"explicit share: {[spec.name for spec in free]}")

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.tenants)

    def get(self, name: str) -> TenantSpec:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def resolved_shares(self) -> Dict[str, float]:
        """Traffic share per tenant with ``None`` shares splitting the remainder."""
        explicit = sum(spec.share for spec in self.tenants if spec.share is not None)
        free = [spec for spec in self.tenants if spec.share is None]
        leftover = max(0.0, 1.0 - explicit)
        shares: Dict[str, float] = {}
        for spec in self.tenants:
            if spec.share is not None:
                shares[spec.name] = spec.share
            else:
                shares[spec.name] = leftover / len(free)
        total = sum(shares.values())
        return {name: value / total for name, value in shares.items()}

    def describe(self) -> str:
        parts = []
        for spec in self.tenants:
            bits = [f"w={spec.weight:g}", spec.priority]
            if spec.slo_ms is not None:
                bits.append(f"slo={spec.slo_ms:g}")
            if spec.ttft_slo_ms is not None:
                bits.append(f"ttft={spec.ttft_slo_ms:g}")
            if not spec.allow_exits:
                bits.append("no-exits")
            parts.append(f"{spec.name}({','.join(bits)})")
        return f"{self.policy}[{'; '.join(parts)}]"


_PARSE_KEYS = ("weight", "share", "priority", "slo", "ttft", "exits")


def _parse_tenant_clause(clause: str) -> TenantSpec:
    clause = clause.strip()
    name, _, rest = clause.partition(":")
    name = name.strip()
    if not name.isidentifier():
        raise ValueError(f"tenant name {name!r} in clause {clause!r} must be "
                         "an identifier (letters, digits, underscores)")
    kwargs: Dict[str, object] = {}
    if rest.strip():
        for item in rest.split(","):
            item = item.strip()
            if not item:
                raise ValueError(f"tenant {name!r}: empty field in {rest!r}")
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ValueError(f"tenant {name!r}: expected key=value, got {item!r}")
            if key == "weight":
                kwargs["weight"] = float(value)
            elif key == "share":
                kwargs["share"] = float(value)
            elif key == "priority":
                kwargs["priority"] = value
            elif key == "slo":
                kwargs["slo_ms"] = float(value)
            elif key == "ttft":
                kwargs["ttft_slo_ms"] = float(value)
            elif key == "exits":
                lowered = value.lower()
                if lowered in ("1", "true", "yes", "on"):
                    kwargs["allow_exits"] = True
                elif lowered in ("0", "false", "no", "off"):
                    kwargs["allow_exits"] = False
                else:
                    raise ValueError(f"tenant {name!r}: exits must be a boolean "
                                     f"(true/false), got {value!r}")
            else:
                raise ValueError(f"tenant {name!r}: unknown key {key!r}; "
                                 f"choose from {_PARSE_KEYS}")
    return TenantSpec(name=name, **kwargs)


def parse_tenants(text: str, policy: str = "weighted_fair") -> TenancyConfig:
    """Parse a CLI tenant string into a :class:`TenancyConfig`.

    Format: ``name[:key=value,...]`` clauses joined by ``;`` — e.g.
    ``"interactive:weight=4,slo=80;backfill:weight=1,priority=batch"``.
    Keys: ``weight``, ``share``, ``priority``, ``slo`` (ms), ``ttft`` (ms,
    0 disables shedding), ``exits`` (true/false).
    """
    clauses = text.split(";")
    if not any(clause.strip() for clause in clauses):
        raise ValueError(f"could not parse any tenants from {text!r}")
    for position, clause in enumerate(clauses):
        if not clause.strip():
            raise ValueError(f"empty tenant clause at position {position} "
                             f"of {text!r}")
    return TenancyConfig(tenants=tuple(_parse_tenant_clause(c) for c in clauses),
                         policy=policy)


def coerce_tenancy(value: Union[None, str, TenancyConfig, Sequence[TenantSpec]],
                   policy: str = "weighted_fair") -> Optional[TenancyConfig]:
    """Coerce user-facing spellings of a tenant set into a TenancyConfig.

    Accepts ``None`` (no tenancy), an existing :class:`TenancyConfig`
    (re-wrapped if ``policy`` differs), a CLI-style string, or a sequence
    of :class:`TenantSpec`.
    """
    if value is None:
        return None
    if isinstance(value, TenancyConfig):
        if value.policy != policy:
            return replace(value, policy=policy)
        return value
    if isinstance(value, str):
        return parse_tenants(value, policy=policy)
    if isinstance(value, Sequence):
        return TenancyConfig(tenants=tuple(value), policy=policy)
    raise ValueError(f"tenants must be None, a string, a TenancyConfig or a sequence "
                     f"of TenantSpec, got {value!r}")
