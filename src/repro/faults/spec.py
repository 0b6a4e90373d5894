"""Replica failure injection.

A :class:`FaultSpec` is one crash/recover cycle: at ``crash_ms`` a replica
is force-retired (its queued work requeues through the balancer, in-flight
work is salvaged) and ``down_ms`` later a replacement boots through the
normal provisioning path.  A :class:`FaultSchedule` is an ordered set of
faults — either hand-written or drawn from seeded exponential MTBF/MTTR
processes via :meth:`FaultSchedule.poisson` — injected into the runners as
kernel events, so autoscalers and balancers observe churn as ordinary
fleet state changes on the shared simulation clock.

``pool`` selects the target pool on the disaggregated platform
(``"prefill"`` or ``"decode"``); the monolithic platforms have a single
pool and ignore it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.fields import split_fields

__all__ = ["FaultSpec", "FaultSchedule", "FAULT_POOLS", "parse_faults", "coerce_faults"]

FAULT_POOLS: Tuple[str, ...] = ("decode", "prefill")

#: Largest expected crash count ``horizon_ms / mtbf_ms`` a random fault
#: process may draw (the draw loops once per crash).
MAX_EXPECTED_CRASHES = 100_000


@dataclass(frozen=True)
class FaultSpec:
    """One replica crash at ``crash_ms``, recovered ``down_ms`` later."""

    crash_ms: float
    down_ms: float
    pool: str = "decode"

    def __post_init__(self) -> None:
        crash = float(self.crash_ms)
        if not math.isfinite(crash) or crash < 0:
            raise ValueError(f"fault crash_ms must be finite and >= 0, got {self.crash_ms!r}")
        object.__setattr__(self, "crash_ms", crash)
        down = float(self.down_ms)
        if not math.isfinite(down) or down <= 0:
            raise ValueError(f"fault down_ms must be finite and positive, got {self.down_ms!r}")
        object.__setattr__(self, "down_ms", down)
        if self.pool not in FAULT_POOLS:
            raise ValueError(f"fault pool must be one of {FAULT_POOLS}, got {self.pool!r}")

    @property
    def recover_ms(self) -> float:
        return self.crash_ms + self.down_ms


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable set of fault injections."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        for fault in faults:
            if not isinstance(fault, FaultSpec):
                raise ValueError(f"faults must be FaultSpec instances, got {fault!r}")
        object.__setattr__(self, "faults",
                           tuple(sorted(faults, key=lambda f: (f.crash_ms, f.pool))))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def for_pool(self, pool: str) -> Tuple[FaultSpec, ...]:
        if pool not in FAULT_POOLS:
            raise ValueError(f"fault pool must be one of {FAULT_POOLS}, got {pool!r}")
        return tuple(f for f in self.faults if f.pool == pool)

    def describe(self) -> str:
        if not self.faults:
            return "none"
        return "; ".join(f"{f.pool}@{f.crash_ms:g}+{f.down_ms:g}" for f in self.faults)

    @classmethod
    def of(cls, *faults: FaultSpec) -> "FaultSchedule":
        return cls(faults=tuple(faults))

    @classmethod
    def poisson(cls, mtbf_ms: float, mttr_ms: float, horizon_ms: float,
                seed: int = 0, pool: str = "decode") -> "FaultSchedule":
        """Draw a seeded crash/recover process over ``[0, horizon_ms)``.

        Inter-crash gaps are exponential with mean ``mtbf_ms`` and each
        outage's duration is exponential with mean ``mttr_ms`` (clamped to
        at least 1 ms so a recovery event always exists).  At most
        :data:`MAX_EXPECTED_CRASHES` crashes may be expected over the
        horizon.
        """
        for key, value in (("mtbf_ms", mtbf_ms), ("mttr_ms", mttr_ms),
                           ("horizon_ms", horizon_ms)):
            value = float(value)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"fault {key} must be finite and positive, got {value!r}")
        if horizon_ms / mtbf_ms > MAX_EXPECTED_CRASHES:
            raise ValueError(f"fault horizon_ms={horizon_ms:g} over mtbf_ms="
                             f"{mtbf_ms:g} expects more than "
                             f"{MAX_EXPECTED_CRASHES} crashes")
        rng = np.random.default_rng(int(seed))
        faults = []
        now = float(rng.exponential(mtbf_ms))
        while now < horizon_ms:
            down = max(float(rng.exponential(mttr_ms)), 1.0)
            faults.append(FaultSpec(crash_ms=now, down_ms=down, pool=pool))
            now += float(rng.exponential(mtbf_ms))
        return cls(faults=tuple(faults))


def _parse_fault_clause(clause: str) -> FaultSpec:
    parts = [p.strip() for p in clause.split(":")]
    if len(parts) not in (2, 3) or not all(parts):
        raise ValueError(f"fault clause must be crash_ms:down_ms[:pool], got {clause!r}")
    kwargs: Dict[str, object] = {"crash_ms": float(parts[0]), "down_ms": float(parts[1])}
    if len(parts) == 3:
        kwargs["pool"] = parts[2]
    return FaultSpec(**kwargs)


def parse_faults(text: str) -> FaultSchedule:
    """Parse a CLI fault string into a :class:`FaultSchedule`.

    Two formats:

    * explicit — ``crash_ms:down_ms[:pool]`` clauses joined by ``;``,
      e.g. ``"5000:2000;9000:1500:prefill"``;
    * random process — ``mtbf=<ms>,mttr=<ms>,horizon=<ms>[,seed=<n>][,pool=<p>]``,
      drawn via :meth:`FaultSchedule.poisson`.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty fault schedule string")
    if "=" in text:
        kwargs: Dict[str, Union[float, int, str]] = {}
        seen = set()
        for item in split_fields(text, ",", "fault schedule field"):
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ValueError(f"fault schedule: expected key=value, got {item!r}")
            if key in seen:
                raise ValueError(f"fault schedule: duplicate key {key!r} in {text!r}")
            seen.add(key)
            if key in ("mtbf", "mttr", "horizon"):
                kwargs[f"{key}_ms"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "pool":
                kwargs["pool"] = value
            else:
                raise ValueError(f"fault schedule: unknown key {key!r}; choose from "
                                 "('mtbf', 'mttr', 'horizon', 'seed', 'pool')")
        missing = [k for k in ("mtbf_ms", "mttr_ms", "horizon_ms") if k not in kwargs]
        if missing:
            raise ValueError(f"fault schedule is missing required keys {missing} in {text!r}")
        return FaultSchedule.poisson(**kwargs)  # type: ignore[arg-type]
    clauses = split_fields(text, ";", "fault clause")
    return FaultSchedule(faults=tuple(_parse_fault_clause(c) for c in clauses))


def coerce_faults(value: Union[None, str, FaultSchedule, FaultSpec,
                               Sequence[FaultSpec]]) -> Optional[FaultSchedule]:
    """Coerce user-facing spellings of a fault schedule; ``None`` = no faults."""
    if value is None:
        return None
    if isinstance(value, FaultSchedule):
        return value if len(value) else None
    if isinstance(value, FaultSpec):
        return FaultSchedule.of(value)
    if isinstance(value, str):
        schedule = parse_faults(value)
        return schedule if len(schedule) else None
    if isinstance(value, Sequence):
        schedule = FaultSchedule(faults=tuple(value))
        return schedule if len(schedule) else None
    raise ValueError(f"faults must be None, a string, a FaultSpec/FaultSchedule or a "
                     f"sequence of FaultSpec, got {value!r}")
