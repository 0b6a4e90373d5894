"""Per-layer tracing of the simulator from outside its code.

:class:`LayerTracer` wraps the public functions listed in :data:`LAYERS`
for the duration of a ``with tracer.installed():`` block and restores the
originals when the block exits.  Module-level functions are replaced in every
loaded ``repro`` module that bound them by name (``from x import f``);
methods are replaced on the defining class and on every subclass that
overrides them.

Each wrapped call adds to its entry's calls, total seconds and self seconds
(total minus the time spent in wrapped callees).  Coarse entries also keep a
span ``[id, parent_id, name, start_s, end_s]`` in memory; hot scalar leaves
(called per request or per token) keep only their counters, so tracing a
run does not allocate a record per token.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Layer", "LAYERS", "GROUPS", "LayerTracer"]


@dataclass(frozen=True)
class Layer:
    """One traced entry: a function, a method, or a set of methods."""

    name: str           # metric prefix, e.g. "exits.evaluation.evaluate_thresholds"
    group: str          # layer group the entry's self time is charged to
    module: str
    attr: str           # "func", "Class.method" or "Class.{m1,m2,...}"
    span: bool          # keep a span per call (coarse) or counters only (hot)
    hook: Optional[str] = None


def _layer(name, group, target, span=False, hook=None) -> Layer:
    module, attr = target.split(":")
    return Layer(name, group, module, attr, span, hook)


_RECORDER_HOOKS = "{admit,phase,annotate,last_phase_end,close,gauge}"

#: Everything the traced run wraps, grouped by simulator layer.
LAYERS: Tuple[Layer, ...] = (
    # Exit control, classification (Alg. 1 tuning and Alg. 2 ramp moves).
    _layer("core.controller.observe_batch", "exit_control",
           "repro.core.controller:ApparateController.observe_batch"),
    _layer("core.controller.tune_thresholds", "exit_control",
           "repro.core.controller:ApparateController.tune_thresholds", True,
           hook="tune"),
    _layer("core.controller.adjust_ramps", "exit_control",
           "repro.core.controller:ApparateController.adjust_ramps", True),
    _layer("exits.thresholds.tune_thresholds_greedy", "exit_control",
           "repro.exits.thresholds:tune_thresholds_greedy", True),
    _layer("exits.evaluation.evaluate_thresholds", "exit_control",
           "repro.exits.evaluation:evaluate_thresholds"),
    _layer("exits.adjustment.RampAdjuster.propose", "exit_control",
           "repro.exits.adjustment:RampAdjuster.propose", True),
    # Exit control, generative.
    _layer("core.generative.ApparateTokenPolicy.decide", "token_policy",
           "repro.core.generative:ApparateTokenPolicy.decide"),
    _layer("core.generative.ApparateTokenPolicy.feedback", "token_policy",
           "repro.core.generative:ApparateTokenPolicy.feedback"),
    # Model execution and the prediction model behind it.
    _layer("models.ModelExecutor.execute_batch", "models",
           "repro.models.execution:ModelExecutor.execute_batch"),
    _layer("models.PredictionModel.error_score", "models",
           "repro.models.prediction:PredictionModel.error_score"),
    _layer("models.PredictionModel.is_correct", "models",
           "repro.models.prediction:PredictionModel.is_correct"),
    _layer("models.PredictionModel.observe", "models",
           "repro.models.prediction:PredictionModel.observe"),
    # Serving runners, balancing and autoscaling.
    _layer("serving.ServingPlatform.run", "serving",
           "repro.serving.platform:ServingPlatform.run", True),
    _layer("serving.ClusterPlatform.run", "serving",
           "repro.serving.cluster:ClusterPlatform.run", True),
    _layer("serving.GenerativeClusterPlatform.run", "serving",
           "repro.serving.generative_cluster:GenerativeClusterPlatform.run", True),
    _layer("serving.DisaggregatedPlatform.run", "serving",
           "repro.serving.disagg:DisaggregatedPlatform.run", True),
    _layer("serving.SimPlatform.drive", "serving",
           "repro.serving.kernel:SimPlatform.drive", True),
    _layer("serving.LoadBalancer.choose", "serving",
           "repro.serving.cluster:LoadBalancer.choose"),
    _layer("serving.Autoscaler.desired_replicas", "serving",
           "repro.serving.autoscaler:Autoscaler.desired_replicas"),
    # Generative timing and KV-cache models (every public method).
    _layer("decoding.DecodeTimingModel", "decoding",
           "repro.generative.decoding:DecodeTimingModel.*"),
    _layer("decoding.PrefillModel", "decoding",
           "repro.generative.decoding:PrefillModel.*"),
    _layer("decoding.KVCacheAccountant", "decoding",
           "repro.generative.decoding:KVCacheAccountant.*"),
    # The program's own request tracing.
    _layer("obs.TraceRecorder.hooks", "obs",
           "repro.obs.recorder:TraceRecorder." + _RECORDER_HOOKS),
    # Model-stack set-up, paid inside every run.
    _layer("setup.build_graph_for_model", "setup",
           "repro.graph.builders:build_graph_for_model", True),
    _layer("setup.build_latency_profile", "setup",
           "repro.models.latency:build_latency_profile", True),
    _layer("setup.build_ramp_catalog", "setup",
           "repro.exits.placement:build_ramp_catalog", True),
)

#: Spans the benchmark opens itself, around its own calls into the program.
WORKLOAD_BUILD = "setup.workload_build"
EXPERIMENT_RUN = "api.Experiment.run"

#: Layer groups in report order; "other" is time inside ``Experiment.run``
#: that no wrapped function covers (API glue, metrics roll-ups, runner loops
#: not listed above).
GROUPS = ("exit_control", "token_policy", "models", "serving", "decoding",
          "obs", "setup", "other")


def _methods(cls: type, spec: str) -> List[str]:
    if spec == "*":
        return [name for name, value in vars(cls).items()
                if not name.startswith("_") and inspect.isfunction(value)]
    if spec.startswith("{"):
        return spec.strip("{}").split(",")
    return [spec]


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


class LayerTracer:
    """Counters and spans for the functions in :data:`LAYERS`."""

    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: [id, parent_id, name, start_s, end_s], start/end relative to t0.
        self.spans: List[List[Any]] = []
        #: outcome counters kept by hooks, e.g. tunings that changed a threshold.
        self.counters: Dict[str, int] = {}
        self._frames: List[List[float]] = []
        self._open_spans: List[int] = []
        self._depth: Dict[str, int] = {}
        self._t0 = time.perf_counter()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _enter(self, name: str, keep_span: bool) -> Tuple[List[float], int]:
        frame = [0.0]
        self._frames.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        sid = -1
        if keep_span:
            sid = len(self.spans)
            parent = self._open_spans[-1] if self._open_spans else None
            self.spans.append([sid, parent, name, 0.0, 0.0])
            self._open_spans.append(sid)
        return frame, sid

    def _exit(self, name: str, frame: List[float], sid: int, start: float,
              elapsed: float) -> None:
        frames = self._frames
        frames.pop()
        if frames:
            frames[-1][0] += elapsed
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[2] += elapsed - frame[0]
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:          # count recursive calls' time once
            stat[1] += elapsed
        if sid >= 0:
            self._open_spans.pop()
            record = self.spans[sid]
            record[3] = start - self._t0
            record[4] = start + elapsed - self._t0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        frame, sid = self._enter(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, sid, start, time.perf_counter() - start)

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name, keep_span = layer.name, layer.span
        hook = _HOOKS.get(layer.hook) if layer.hook else None
        enter, exit_, clock = self._enter, self._exit, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = hook(self, args) if hook is not None else None
            frame, sid = enter(name, keep_span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, frame, sid, start, clock() - start)
            if done is not None:
                done(result)
            return result

        traced.layer_trace_name = name
        return traced

    # -------------------------------------------------------- install/restore
    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every entry of :data:`LAYERS` (idempotent per tracer)."""
        if self._patches:
            return
        modules = [importlib.import_module(layer.module) for layer in LAYERS]
        loaded = [module for name, module in list(sys.modules.items())
                  if name.split(".")[0] == "repro" and module is not None]
        for layer, module in zip(LAYERS, modules):
            if "." not in layer.attr:
                original = getattr(module, layer.attr)
                wrapper = self._wrap(layer, original)
                for other in loaded:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, original, wrapper)
                continue
            class_name, spec = layer.attr.split(".", 1)
            base = getattr(module, class_name)
            for method in _methods(base, spec):
                for cls in _subclasses(base):
                    original = vars(cls).get(method)
                    if inspect.isfunction(original):
                        self._patch(cls, method, original,
                                    self._wrap(layer, original))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # --------------------------------------------------------------- reports
    def group_self_s(self) -> Dict[str, float]:
        """Self seconds per layer group; "other" is the uncovered remainder
        of the benchmark's ``Experiment.run`` spans."""
        group_of = {layer.name: layer.group for layer in LAYERS}
        group_of[WORKLOAD_BUILD] = "setup"
        group_of[EXPERIMENT_RUN] = "other"
        totals = {group: 0.0 for group in GROUPS}
        for name, (_, _, self_s) in self.stats.items():
            totals[group_of[name]] += self_s
        return totals

    def to_json(self) -> Dict[str, Any]:
        """Everything recorded, in seconds, for the span file."""
        return {
            "functions": {name: {"calls": int(calls), "total_s": total,
                                 "self_s": self_s}
                          for name, (calls, total, self_s)
                          in sorted(self.stats.items())},
            "groups_self_s": self.group_self_s(),
            "counters": dict(sorted(self.counters.items())),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }


# ----------------------------------------------------------------- hooks
# A hook runs before the wrapped call and returns a callback that receives
# its result; both only read state the program already holds.  Outcomes the
# program counts itself (tunings, ramp adjustments, ramp-set changes) are
# read from its run summary instead.

def _tune_hook(tracer: LayerTracer, args: Tuple[Any, ...]):
    controller = args[0]
    before = controller.deployed_config()[2]

    def done(_result):
        if controller.deployed_config()[2] != before:
            tracer.count("tunings_changed")
    return done


_HOOKS = {"tune": _tune_hook}
