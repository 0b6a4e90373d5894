"""Workloads, episode runner and correctness checks of the system benchmark.

A workload is a stream of *episodes*: each episode is one trace generated
from ``seed * 1000 + index`` and served by one ``Experiment.run``.  The
benchmark measures many short episodes instead of one long one because the
host cost of a trace depends on the trace itself (how often Apparate
re-tunes, how many requests a fleet must salvage); the total over many
episodes is steady from seed to seed where a single trace is not.  How many
episodes a run serves depends only on the workload and ``--seconds``, never
on how fast the program is, so two versions of the program serve the same
traces for the same seed.

Run as a script this module is the benchmark's child process, started by
``run.py`` in a fresh interpreter so that set-up time and peak memory belong
to one workload alone::

    python3 perfbench/harness.py setup   --workload NAME --seed N
    python3 perfbench/harness.py measure --workload NAME --seed N \
        --seconds S --trace 0|1

Both print one JSON object as their last line; the traced run also writes
its spans to ``perfbench/out/``.  A third role re-records the summary
digests that every run is checked against (see :func:`record_digests`)::

    PYTHONPATH=src python3 perfbench/harness.py record --seeds 0-40
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Workload", "WORKLOADS", "Episode", "episode_seed", "episode_trace",
           "episode_count", "check_episode", "check_recorded", "recorded_digests",
           "record_digests", "summary_digest", "time_setup", "measure",
           "trace_layers", "sim_metrics"]

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
BASELINE = HERE / "baseline.json"

CLASSIFICATION = "classification"
GENERATIVE = "generative"

#: Episodes always run, so the simulated figures come from a fixed set.
MIN_EPISODES = 3
#: Episodes served a second time after the timed loop.
REPEATED_EPISODES = 1
#: A run stops starting new episodes once this many times ``--seconds`` have
#: passed (three times more when traced: every episode is then served
#: twice, once under the tracer), so a much slower program still finishes.
SAFETY_FACTOR = 2.5
TRACED_COST = 3.0


# --------------------------------------------------------------- workloads
# Trace builders import the program lazily: set-up time includes the import.

def _cv_trace(seed: int, size: int):
    from repro.workloads.video import make_video_workload
    # 20 fps is benchmarks/bench_common.CV_FPS["resnet101"].
    return make_video_workload("urban-day", num_frames=size, fps=20.0, seed=seed)


def _cv_experiment(trace):
    from repro.api import Experiment
    return Experiment(model="resnet101", workload=trace)


NLP_RATE_QPS = 200.0


def _nlp_trace(seed: int, size: int):
    from repro.workloads.nlp import make_nlp_workload
    # Poisson, not the bursty "maf" process: MAF's slow rate excursions make
    # the host cost of one episode vary sixfold, too much for a steady run.
    # The crash below overruns the fleet in every episode instead.
    return make_nlp_workload("amazon", num_requests=size, rate_qps=NLP_RATE_QPS,
                             seed=seed, arrival_process="poisson")


def _nlp_experiment(trace):
    from repro.api import ClusterSpec, Experiment
    from repro.faults import FaultSchedule, FaultSpec
    # One replica crashes halfway through the episode and recovers 5 s later.
    span_ms = len(trace) / NLP_RATE_QPS * 1000.0
    faults = FaultSchedule.of(FaultSpec(crash_ms=span_ms / 2, down_ms=5000.0))
    return Experiment(model="bert-base", workload=trace,
                      cluster=ClusterSpec(replicas=8,
                                          balancer="join_shortest_queue",
                                          autoscaler="reactive", faults=faults))


DISAGG_RATE_QPS = 20.0
DISAGG_PERIOD_S = 10.0


def _disagg_trace(seed: int, size: int):
    from repro.generative.sequences import make_generative_workload
    # The benchmarks/test_disagg.py workload with its day/night cycle
    # compressed so that one short episode spans a whole period.
    return make_generative_workload(
        "cnn-dailymail", num_sequences=size, rate_qps=DISAGG_RATE_QPS, seed=seed,
        arrival_process="diurnal", diurnal_period_s=DISAGG_PERIOD_S,
        preset_overrides={"mean_prompt_tokens": 1024, "min_prompt_tokens": 256})


def _disagg_experiment(trace):
    from repro.api import ClusterSpec, Experiment, ExitPolicySpec
    return Experiment(
        model="t5-large", workload=trace,
        ee=ExitPolicySpec(accuracy_constraint=0.01),
        cluster=ClusterSpec(replicas=6, disaggregate=True,
                            balancer="least_work_left",
                            prefill_replicas=2, decode_replicas=4,
                            prefill_autoscaler="reactive",
                            decode_autoscaler="reactive",
                            prefill_min_replicas=1, prefill_max_replicas=6,
                            decode_min_replicas=2, decode_max_replicas=8))


KV_RATE_QPS = 15.0
KV_CAPACITY_TOKENS = 3000     # per replica: steady LRU eviction


def _kv_trace(seed: int, size: int):
    from repro.generative.sequences import make_generative_workload
    return make_generative_workload(
        "squad", num_sequences=size, rate_qps=KV_RATE_QPS, seed=seed,
        prefix_groups=8, prefix_share=1.0, prefix_tokens=256)


def _kv_experiment(trace):
    from repro.api import ClusterSpec, Experiment
    from repro.generative.decoding import kv_bytes_per_token
    from repro.models.zoo import get_model
    capacity = KV_CAPACITY_TOKENS * kv_bytes_per_token(get_model("t5-large"))
    return Experiment(model="t5-large", workload=trace, trace=True,
                      cluster=ClusterSpec(replicas=4, balancer="prefix_affinity",
                                          prefill_in_slot=True,
                                          kv_capacity=capacity))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build an episode and how to serve it."""

    name: str
    why: str
    model: str
    system: str
    kind: str
    episode_size: int
    episode_s: float                # host seconds per episode at the baseline
    trace: Callable[[int, int], Any] = field(repr=False)
    experiment: Callable[[Any], Any] = field(repr=False)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("cv-apparate-single",
             "paper's headline CV setting; Apparate exit control (Alg. 1 "
             "replay tuning) dominates host time, no kernel or cluster runner",
             "resnet101", "apparate", CLASSIFICATION, 800, 0.85,
             _cv_trace, _cv_experiment),
    Workload("nlp-vanilla-fleet",
             "a crash overruns an 8-replica JSQ fleet with reactive autoscaling: "
             "admission, salvage rerouting, balancing, requeue; no exit control",
             "bert-base", "vanilla", CLASSIFICATION, 2500, 0.42,
             _nlp_trace, _nlp_experiment),
    Workload("gen-apparate-disagg",
             "prompt-heavy diurnal stream on a 2 prefill + 4 decode fleet; "
             "the Apparate token policy dominates host time",
             "t5-large", "apparate", GENERATIVE, 150, 1.1,
             _disagg_trace, _disagg_experiment),
    Workload("gen-kv-cluster-traced",
             "shared-prefix stream on a 4-replica KV-bounded prefix-affinity "
             "cluster with request tracing on; KV accounting and obs, no exit control",
             "t5-large", "vanilla", GENERATIVE, 1500, 0.38,
             _kv_trace, _kv_experiment),
)}


def episode_seed(seed: int, index: int) -> int:
    """Trace seed of episode ``index`` of a run seeded with ``seed``."""
    if not 0 <= index < 1000:
        raise ValueError(f"episode index must be in [0, 1000), got {index}")
    return int(seed) * 1000 + index


def episode_count(workload: Workload, seconds: float) -> int:
    """Episodes a run of ``seconds`` serves: as many as take ``seconds`` at
    the baseline speed, and at least :data:`MIN_EPISODES`."""
    return max(MIN_EPISODES, round(seconds / workload.episode_s))


def episode_trace(workload: Workload, seed: int, index: int,
                  size: Optional[int] = None):
    """The trace of episode ``index``; ``size`` overrides the episode size."""
    return workload.trace(episode_seed(seed, index), size or workload.episode_size)


# ---------------------------------------------------------------- episodes
@dataclass
class Episode:
    """One served trace: what it cost the host and what it simulated."""

    index: int
    items: int                      # requests (classification) or tokens
    host_s: List[float]             # one entry per run of this trace
    reference_s: List[float]        # reference kernel time around each run
    digest: str
    summary: Dict[str, float]
    details: Dict[str, Any]
    expected: Dict[str, int]
    problems: List[str]

    @property
    def scaled_s(self) -> float:
        """Host seconds at the reference speed (fastest run)."""
        return min(host * REFERENCE_S / ref
                   for host, ref in zip(self.host_s, self.reference_s))


def summary_digest(summary: Dict[str, float]) -> str:
    """Digest of a simulated summary; floats are serialized exactly."""
    text = json.dumps(summary, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recorded_digests(workload: Workload, seed: int) -> List[str]:
    """Digests of episodes ``0 .. MIN_EPISODES-1`` at the default episode
    size, as recorded in ``baseline.json``; empty for an unrecorded seed."""
    digests = json.loads(BASELINE.read_text()).get("digests", {})
    return digests.get(workload.name, {}).get(str(seed), [])


def check_recorded(episodes: List["Episode"], recorded: List[str]) -> None:
    """Mark every episode whose summary digest differs from the recorded one
    as failed: the simulated figures (the ``sim_*`` values) must not change
    unless the simulator's behaviour is meant to."""
    for episode, digest in zip(episodes, recorded):
        if episode.digest != digest:
            episode.problems.append(
                f"episode {episode.index}: summary digest {episode.digest} != "
                f"recorded {digest}; the simulated figures changed")


def expected_counts(workload: Workload, trace, result) -> Dict[str, int]:
    """What a correct run must account for, taken from the trace and the raw
    metrics rather than from the summary under test."""
    if workload.kind == CLASSIFICATION:
        metrics = getattr(result.raw, "metrics", result.raw)
        if hasattr(metrics, "aggregate"):
            metrics = metrics.aggregate()
        return {"requests": len(trace),
                "dropped": metrics.num_responses() - metrics.num_served()}
    return {"tokens": int(trace.total_tokens())}


def check_episode(workload: Workload, summary: Dict[str, float],
                  expected: Dict[str, int]) -> List[str]:
    """Correctness problems of one run; empty when the run is correct."""
    problems = [f"summary[{key!r}] = {value!r} is not finite"
                for key, value in summary.items() if not math.isfinite(value)]
    if workload.kind == CLASSIFICATION:
        served = summary.get("num_served", float("nan"))
        if served + expected["dropped"] != expected["requests"]:
            problems.append(f"served {served:g} + dropped {expected['dropped']} "
                            f"!= {expected['requests']} requests in the trace")
    else:
        tokens = summary.get("num_tokens", float("nan"))
        if tokens != expected["tokens"]:
            problems.append(f"emitted {tokens:g} tokens, the trace holds "
                            f"{expected['tokens']}")
    return problems


# The host's speed drifts by a fifth over seconds when other tenants load
# the machine.  A fixed pure-Python kernel, timed right before and after each
# served run, measures the speed the run saw; run times are scaled to the
# speed at which the kernel takes REFERENCE_S.
REFERENCE_S = 0.025


def reference_kernel() -> float:
    """Heap, dict and float work like the simulator's event loop."""
    from heapq import heappop, heappush
    heap: List[tuple] = []
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(30_000):
        heappush(heap, ((i * 7919) % 1009, i))
        table[i & 255] = acc
        acc += (i % 13) * 0.5
        if len(heap) > 64:
            acc -= heappop(heap)[0] * 1e-3
    return acc


def _time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def _serve(workload: Workload, trace) -> tuple:
    """One timed ``Experiment.run`` (the Experiment is built outside the
    clock) and the mean reference-kernel time around it."""
    experiment = workload.experiment(trace)
    gc.collect()
    before = _time_reference()
    start = time.perf_counter()
    result = experiment.run([workload.system]).result(workload.system)
    host_s = time.perf_counter() - start
    return result, host_s, (before + _time_reference()) / 2


def run_episode(workload: Workload, seed: int, index: int,
                size: Optional[int] = None) -> Episode:
    trace = episode_trace(workload, seed, index, size)
    result, host_s, reference_s = _serve(workload, trace)
    return _episode(workload, index, trace, result, host_s, reference_s)


def _episode(workload: Workload, index: int, trace, result,
             host_s: float, reference_s: float) -> Episode:
    summary = dict(result.summary)
    expected = expected_counts(workload, trace, result)
    items = expected.get("requests", expected.get("tokens"))
    return Episode(index=index, items=items, host_s=[host_s],
                   reference_s=[reference_s],
                   digest=summary_digest(summary), summary=summary,
                   details=dict(result.details), expected=expected,
                   problems=check_episode(workload, summary, expected))


def rerun_episode(workload: Workload, seed: int, episode: Episode,
                  size: Optional[int] = None) -> None:
    """Serve an episode's trace again; its digest must not change."""
    result, host_s, reference_s = _serve(
        workload, episode_trace(workload, seed, episode.index, size))
    episode.host_s.append(host_s)
    episode.reference_s.append(reference_s)
    digest = summary_digest(dict(result.summary))
    if digest != episode.digest:
        episode.problems.append(f"episode {episode.index}: summary digest "
                                f"{digest} != first run's {episode.digest}")


# ------------------------------------------------------------------ set-up
def time_setup(workload: Workload, seed: int) -> tuple:
    """Host seconds to import ``repro.api``, build episode 0's trace and build
    the model stack once, and the mean reference-kernel time around them.
    Meaningful only in a fresh interpreter."""
    before = _time_reference()
    start = time.perf_counter()
    import repro.api  # noqa: F401
    from repro.core.pipeline import model_stack

    episode_trace(workload, seed, 0)
    model_stack(workload.model)
    setup_s = time.perf_counter() - start
    return setup_s, (before + _time_reference()) / 2


# ------------------------------------------------------------- measurement
def _planned(workload: Workload, seconds: float, cost: float):
    """Indices of the episodes a run serves: :func:`episode_count` of them,
    cut short only if ``SAFETY_FACTOR * cost * seconds`` pass first."""
    deadline = time.perf_counter() + SAFETY_FACTOR * cost * seconds
    for index in range(episode_count(workload, seconds)):
        if index >= MIN_EPISODES and time.perf_counter() > deadline:
            print(f"perfbench: safety deadline passed after {index} episodes",
                  file=sys.stderr)
            return
        yield index


def measure(workload: Workload, seed: int, seconds: float,
            size: Optional[int] = None) -> List[Episode]:
    """Serve :func:`episode_count` new episodes, then serve the first
    :data:`REPEATED_EPISODES` again: their digests must not change."""
    episodes = [run_episode(workload, seed, index, size)
                for index in _planned(workload, seconds, 1.0)]
    for episode in episodes[:REPEATED_EPISODES]:
        rerun_episode(workload, seed, episode, size)
    return episodes


def sim_metrics(workload: Workload, episodes: List[Episode]) -> Dict[str, tuple]:
    """Simulated figures as ``name -> (value, unit)``, each the median over the
    first :data:`MIN_EPISODES` episodes, so a seed always gives the same
    values whatever the host speed."""
    fixed = [episode.summary for episode in episodes[:MIN_EPISODES]]

    def med(key: str) -> float:
        return statistics.median([summary[key] for summary in fixed])

    if workload.kind == CLASSIFICATION:
        out = {"sim_p50_ms": (med("p50_ms"), "ms"),
               "sim_p99_ms": (med("p99_ms"), "ms"),
               "sim_accuracy": (med("accuracy"), "share")}
        drops = [100.0 * e.expected["dropped"] / e.expected["requests"]
                 for e in episodes[:MIN_EPISODES]]
        out["sim_drop_pct"] = (statistics.median(drops), "%")
        return out
    return {"sim_tpt_p50_ms": (med("tpt_p50_ms"), "ms"),
            "sim_ttft_p99_ms": (med("ttft_p99_ms"), "ms"),
            "sim_accuracy": (med("sequence_accuracy"), "share")}


# ------------------------------------------------------------- traced run
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def trace_layers(workload: Workload, seed: int, seconds: float,
                 size: Optional[int] = None, out_dir: Optional[Path] = None
                 ) -> tuple:
    """Serve each of :func:`episode_count` episodes untraced, then again
    under a :class:`LayerTracer`.  Returns ``(per_layer, episodes)``; the
    per-layer values cover the traced runs only."""
    from layer_trace import EXPERIMENT_RUN, LAYERS, WORKLOAD_BUILD, LayerTracer

    tracer = LayerTracer()
    episodes: List[Episode] = []
    overheads: List[float] = []
    items = 0
    gauge_samples = 0
    for index in _planned(workload, seconds, TRACED_COST):
        trace = episode_trace(workload, seed, index, size)
        result, plain_s, reference_s = _serve(workload, trace)
        episode = _episode(workload, index, trace, result, plain_s, reference_s)
        with tracer.installed():
            # A fresh trace, so that the traced run starts as cold as the
            # untraced one did.
            with tracer.span(WORKLOAD_BUILD):
                trace = episode_trace(workload, seed, index, size)
            experiment = workload.experiment(trace)
            gc.collect()
            start = time.perf_counter()
            with tracer.span(EXPERIMENT_RUN):
                traced = experiment.run([workload.system]).result(workload.system)
            traced_s = time.perf_counter() - start
        if summary_digest(dict(traced.summary)) != episode.digest:
            episode.problems.append(f"episode {index}: traced summary differs "
                                    "from the untraced one")
        overheads.append(traced_s / plain_s)
        items += episode.items
        if traced.trace is not None:
            gauge_samples += len(traced.trace.gauges)
        episodes.append(episode)

    stats = tracer.stats
    run_s = stats[EXPERIMENT_RUN][1] + stats[WORKLOAD_BUILD][1]
    count = len(episodes)
    per_layer: Dict[str, tuple] = {}
    for layer in LAYERS:
        calls, total_s, self_s = stats.get(layer.name, (0, 0.0, 0.0))
        per_layer[f"{layer.name}.calls"] = (calls / count, "count")
        per_layer[f"{layer.name}.self_pct"] = (100.0 * _ratio(self_s, run_s), "%")
        per_layer[f"{layer.name}.total_pct"] = (100.0 * _ratio(total_s, run_s), "%")
    per_layer[f"{WORKLOAD_BUILD}.self_pct"] = (
        100.0 * _ratio(stats[WORKLOAD_BUILD][2], run_s), "%")
    for group, self_s in tracer.group_self_s().items():
        per_layer[f"layer.{group}.self_pct"] = (100.0 * _ratio(self_s, run_s), "%")

    def controller_total(key: str) -> float:
        """Sum of an ``ApparateController`` stat over the episodes."""
        if workload.kind != CLASSIFICATION:
            return 0.0
        return sum(e.summary.get(key, 0.0) for e in episodes)

    evaluations = stats.get("exits.evaluation.evaluate_thresholds", (0,))[0]
    greedy = stats.get("exits.thresholds.tune_thresholds_greedy", (0,))[0]
    per_layer.update({
        "exit_control.tune_changed_share": (
            _ratio(tracer.counters.get("tunings_changed", 0),
                   controller_total("threshold_tunings")), "share"),
        "exit_control.propose_changed_share": (
            _ratio(controller_total("ramp_set_changes"),
                   controller_total("ramp_adjustments")), "share"),
        "exit_control.evaluations_per_greedy_call": (_ratio(evaluations, greedy),
                                                     "count"),
        "exit_control.evaluations_per_item": (_ratio(evaluations, items), "count"),
    })

    def per_item(getter: Callable[[Episode], float]) -> float:
        return _ratio(sum(getter(e) for e in episodes), items)

    def kernel(key: str) -> float:
        return per_item(lambda e: e.details.get("kernel", {}).get(key, 0))

    def policy_per_ktoken(key: str) -> float:
        if workload.kind != GENERATIVE:   # classification tunings are counted above
            return 0.0
        return 1000.0 * per_item(lambda e: e.summary.get(key, 0.0))

    kv = [e.details["kv_cache"] for e in episodes if "kv_cache" in e.details]
    obs_spans = sum(e.details.get("obs", {}).get("spans", {}).get("total", 0)
                    for e in episodes)
    per_layer.update({
        "token_policy.tunings_per_ktoken": (policy_per_ktoken("threshold_tunings"),
                                            "count"),
        "token_policy.moves_per_ktoken": (policy_per_ktoken("position_moves"),
                                          "count"),
        "serving.kernel_pushed_per_item": (kernel("pushed"), "count"),
        "serving.kernel_fired_per_item": (kernel("fired"), "count"),
        "serving.kernel_cancelled_per_item": (kernel("cancelled"), "count"),
        "serving.rerouted_share": (
            _ratio(sum(e.details.get("rerouted", 0) for e in episodes),
                   sum(e.expected.get("requests", 0) for e in episodes)), "share"),
        "decoding.kv_hit_share": (
            _ratio(sum(k["hit_tokens"] for k in kv),
                   sum(k["hit_tokens"] + k["miss_tokens"] for k in kv)), "share"),
        "obs.spans_per_item": (_ratio(obs_spans, items), "count"),
        "obs.gauge_samples_per_episode": (gauge_samples / count, "count"),
        "trace_overhead": (statistics.median(overheads), "x"),
    })

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{workload.name}-seed{seed}-layers.json"
        payload = {"workload": workload.name, "seed": seed, "episodes": count,
                   "items": items, "overheads": overheads, **tracer.to_json()}
        path.write_text(json.dumps(payload))
    return per_layer, episodes


# -------------------------------------------------------------------- child
def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _episode_json(episode: Episode) -> Dict[str, Any]:
    return {"index": episode.index, "items": episode.items,
            "host_s": episode.host_s, "reference_s": episode.reference_s,
            "scaled_s": episode.scaled_s, "digest": episode.digest,
            "problems": episode.problems}


def record_digests(seeds: List[int]) -> None:
    """Write the summary digests of episodes ``0 .. MIN_EPISODES-1`` of every
    workload and seed into ``baseline.json``.  Run this only when a change is
    meant to alter what the simulator computes."""
    baseline = json.loads(BASELINE.read_text())
    digests = baseline.setdefault("digests", {})
    for workload in WORKLOADS.values():
        table = digests.setdefault(workload.name, {})
        for seed in seeds:
            table[str(seed)] = [run_episode(workload, seed, index).digest
                                for index in range(MIN_EPISODES)]
        digests[workload.name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")


def _seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "record"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seeds", type=_seed_range, help="record: A-B")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.role == "record":
        if args.seeds is None:
            parser.error("record needs --seeds")
        record_digests(args.seeds)
        return 0
    if args.workload is None or args.seed is None:
        parser.error(f"{args.role} needs --workload and --seed")
    workload = WORKLOADS[args.workload]

    setup_s, reference_s = time_setup(workload, args.seed)
    record: Dict[str, Any] = {"setup_s": setup_s, "reference_s": reference_s,
                              "scaled_setup_s": setup_s * REFERENCE_S / reference_s}
    if args.role == "measure":
        if args.trace:
            per_layer, episodes = trace_layers(workload, args.seed, args.seconds,
                                               out_dir=OUT_DIR)
            record["per_layer"] = per_layer
        else:
            episodes = measure(workload, args.seed, args.seconds)
            record["sim"] = sim_metrics(workload, episodes)
        check_recorded(episodes, recorded_digests(workload, args.seed))
        record["planned"] = episode_count(workload, args.seconds)
        record["episodes"] = [_episode_json(e) for e in episodes]
        record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
