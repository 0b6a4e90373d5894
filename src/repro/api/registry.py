"""System registry: serving systems discovered by name, not by import.

Every comparable system (Apparate, vanilla, the paper's baselines, future
ROADMAP systems) registers once under a short name with the experiment kinds
it supports.  ``Experiment.run(systems=[...])``, the CLI's ``--systems`` flag
and the benchmarks all resolve systems through this registry, so adding a new
system is one ``@register_system`` decorator, reachable from every front
end at once.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.api.result import (KIND_CLASSIFICATION, KIND_CLUSTER, KIND_GENERATIVE,
                              KIND_GENERATIVE_CLUSTER, KIND_GENERATIVE_DISAGG,
                              RunResult)

__all__ = ["SystemRunner", "register_system", "get_system", "list_systems",
           "canonical_system_name", "system_descriptions"]

_ALL_KINDS = (KIND_CLASSIFICATION, KIND_CLUSTER, KIND_GENERATIVE,
              KIND_GENERATIVE_CLUSTER, KIND_GENERATIVE_DISAGG)


@dataclass(frozen=True)
class SystemRunner:
    """A registered serving system: name, supported kinds, and the runner.

    ``fn`` takes the experiment plus the per-system override keywords its
    signature names, and returns a :class:`~repro.api.result.RunResult` in
    the shared schema.
    """

    name: str
    kinds: FrozenSet[str]
    description: str
    fn: Callable[..., RunResult]

    def supports(self, kind: str) -> bool:
        return kind in self.kinds

    def run(self, experiment) -> RunResult:
        """Run the system on ``experiment`` after checking kind support."""
        kind = experiment.kind
        if not self.supports(kind):
            # Name every offending piece of the combination — the system, the
            # experiment kind it cannot serve, and the model that induced it —
            # so a bad config is diagnosable from the message alone.
            raise ValueError(
                f"system {self.name!r} does not support {kind} experiments "
                f"(model {experiment.spec.name!r}; {self.name!r} supports: "
                f"{sorted(self.kinds)})")
        overrides = experiment.overrides_for(self.name)
        try:
            inspect.signature(self.fn).bind(experiment, **overrides)
        except TypeError as exc:
            # A keyword the runner does not name (or one repeating the
            # experiment) is a configuration error, and the API boundary
            # reports those as ValueError.
            raise ValueError(f"invalid override for system {self.name!r} "
                             f"({sorted(overrides)}): {exc}") from None
        return self.fn(experiment, **overrides)


_REGISTRY: Dict[str, SystemRunner] = {}
_ALIASES: Dict[str, str] = {}


def register_system(name: str, *, kinds: Iterable[str], description: str = "",
                    aliases: Tuple[str, ...] = ()) -> Callable:
    """Class/function decorator that registers a system runner under ``name``."""
    kind_set = frozenset(kinds)
    unknown = kind_set.difference(_ALL_KINDS)
    if unknown:
        raise ValueError(f"unknown experiment kinds {sorted(unknown)} for system "
                         f"{name!r}; choose from {_ALL_KINDS}")

    def decorator(fn: Callable[..., RunResult]) -> Callable[..., RunResult]:
        if name in _REGISTRY:
            raise ValueError(f"system {name!r} is already registered")
        _REGISTRY[name] = SystemRunner(name=name, kinds=kind_set,
                                       description=description or (fn.__doc__ or "").strip(),
                                       fn=fn)
        for alias in aliases:
            _ALIASES[alias] = name
        return fn

    return decorator


def canonical_system_name(name: str) -> str:
    """Resolve a system name or alias; raise ValueError naming the value."""
    key = str(name).strip().lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise ValueError(f"unknown system {name!r}; "
                         f"registered systems: {list_systems()}")
    return key


def get_system(name: str) -> SystemRunner:
    """Look up a registered system by name or alias."""
    return _REGISTRY[canonical_system_name(name)]


def list_systems(kind: Optional[str] = None) -> List[str]:
    """Sorted names of registered systems, optionally filtered by kind."""
    if kind is None:
        return sorted(_REGISTRY)
    if kind not in _ALL_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; choose from {_ALL_KINDS}")
    return sorted(n for n, runner in _REGISTRY.items() if runner.supports(kind))


def system_descriptions() -> Dict[str, str]:
    """Name -> one-line description for every registered system."""
    return {name: _REGISTRY[name].description for name in list_systems()}
