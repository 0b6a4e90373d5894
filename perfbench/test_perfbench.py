"""Smoke tests of the benchmark harness itself, at tiny episode sizes."""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from harness import (WORKLOADS, check_episode, check_recorded, measure,
                     recorded_digests, rerun_episode, trace_layers)
from layer_trace import LAYERS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {"cv-apparate-single": 80, "nlp-vanilla-fleet": 200,
        "gen-apparate-disagg": 6, "gen-kv-cluster-traced": 40}


def test_benchmark_json_lists_every_workload():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why}
                                      for w in WORKLOADS.values()]
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_episodes_are_correct_and_repeat(name):
    workload = WORKLOADS[name]
    episodes = measure(workload, seed=1, seconds=0.0, size=TINY[name])
    assert len(episodes) == harness.MIN_EPISODES
    assert [e.problems for e in episodes] == [[]] * len(episodes)
    repeated = episodes[:harness.REPEATED_EPISODES]
    assert all(len(e.host_s) == 2 and len(e.reference_s) == 2 for e in repeated)
    sim = harness.sim_metrics(workload, episodes)
    assert all(math.isfinite(value) for value, _ in sim.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    workload = WORKLOADS[name]
    per_layer, episodes = trace_layers(workload, seed=1, seconds=0.0,
                                       size=TINY[name], out_dir=tmp_path)
    assert list(per_layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [e.problems for e in episodes] == [[]] * len(episodes)
    spans = json.loads(next(tmp_path.glob("*-layers.json")).read_text())
    assert spans["spans"] and spans["functions"]
    # Every wrapper is gone again.
    for layer in LAYERS:
        owner_name, _, method = layer.attr.partition(".")
        owner = getattr(importlib.import_module(layer.module), owner_name)
        targets = vars(owner).values() if method else [owner]
        assert not any(hasattr(t, "layer_trace_name") for t in targets), layer.name
    from repro.exits import evaluation, thresholds
    assert thresholds.evaluate_thresholds is evaluation.evaluate_thresholds


def test_check_fires_on_tampered_summaries():
    cv = WORKLOADS["cv-apparate-single"]
    episode = measure(cv, seed=2, seconds=0.0, size=TINY[cv.name])[0]
    assert check_episode(cv, episode.summary, episode.expected) == []
    assert check_episode(cv, {**episode.summary, "num_served":
                              episode.summary["num_served"] - 1}, episode.expected)
    assert check_episode(cv, {**episode.summary, "p99_ms": float("nan")},
                         episode.expected)

    gen = WORKLOADS["gen-kv-cluster-traced"]
    episode = measure(gen, seed=2, seconds=0.0, size=TINY[gen.name])[0]
    assert check_episode(gen, episode.summary, episode.expected) == []
    assert check_episode(gen, {**episode.summary, "num_tokens":
                               episode.summary["num_tokens"] + 1}, episode.expected)

    episode.digest = "0" * 16
    rerun_episode(gen, 2, episode, size=TINY[gen.name])
    assert any("digest" in problem for problem in episode.problems)


def test_check_fires_on_a_digest_other_than_the_recorded_one():
    for workload in WORKLOADS.values():
        assert len(recorded_digests(workload, 1)) == harness.MIN_EPISODES
    assert recorded_digests(WORKLOADS["cv-apparate-single"], 10**6) == []
    cv = WORKLOADS["cv-apparate-single"]
    episodes = measure(cv, seed=2, seconds=0.0, size=TINY[cv.name])
    check_recorded(episodes, [e.digest for e in episodes])
    assert [e.problems for e in episodes] == [[]] * len(episodes)
    check_recorded(episodes, [episodes[0].digest, "0" * 16])
    assert episodes[0].problems == []
    assert "recorded" in episodes[1].problems[0]


def test_episode_count_does_not_depend_on_speed():
    # Tiny episodes finish far faster than the baseline, yet the run serves
    # exactly the episodes a baseline-speed run of these seconds would.
    cv = WORKLOADS["cv-apparate-single"]
    seconds = 4 * cv.episode_s
    assert harness.episode_count(cv, seconds) == 4
    episodes = measure(cv, seed=1, seconds=seconds, size=TINY[cv.name])
    assert [e.index for e in episodes] == [0, 1, 2, 3]


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_named_metric(trace, section):
    result = _run("--workload", "nlp-vanilla-fleet", "--seed", "3",
                  "--seconds", "0", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
