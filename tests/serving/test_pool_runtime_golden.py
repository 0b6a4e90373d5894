"""Golden crash/recover outcomes of the three fleet runners.

The fault property tests check conservation and determinism, and the seed
loop specs predate faults, so neither pins *what* a crash does: which
replica dies, where its orphans land, when the replacement boots.  These
runs do.  Each has tenancy, tracing, an autoscaler and faults on, and every
crashed pool requeues work, so orphan routing is exercised in every pool.

The expected values live in ``pool_runtime_golden.json`` next to this file.
Regenerate them (only for a change that is *meant* to alter crash
behaviour) with::

    PYTHONPATH=src python tests/serving/test_pool_runtime_golden.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from repro.api import ClusterSpec, Experiment, WorkloadSpec

GOLDEN = Path(__file__).with_name("pool_runtime_golden.json")

CLASSIFY_TENANTS = "chat:weight=4,slo=80;backfill:priority=batch,exits=false"
GENERATIVE_TENANTS = "chat:weight=4,ttft=400;batch:priority=batch"

CASES = {
    "classification": dict(
        model="resnet50",
        workload=WorkloadSpec("video", requests=1200, rate=600.0),
        cluster=ClusterSpec(replicas=3, balancer="jsq", autoscaler="reactive",
                            max_replicas=5, tenants=CLASSIFY_TENANTS,
                            faults="150:100;1200:300")),
    "generative": dict(
        model="t5-large",
        workload=WorkloadSpec("generative", requests=40, rate=80.0),
        cluster=ClusterSpec(replicas=3, autoscaler="reactive", max_replicas=5,
                            tenants=GENERATIVE_TENANTS, faults="800:600")),
    "disagg": dict(
        model="t5-large",
        workload=WorkloadSpec("generative", requests=40, rate=300.0),
        cluster=ClusterSpec(replicas=3, disaggregate=True, prefill_replicas=2,
                            decode_replicas=3, prefill_autoscaler="reactive",
                            prefill_max_replicas=3,
                            decode_autoscaler="reactive",
                            decode_max_replicas=4,
                            tenants=GENERATIVE_TENANTS,
                            faults="300:500:prefill;900:600:decode")),
}


def _prefill_requeues(trace) -> int:
    """Sequences a prefill crash moved: admitted to one prefill replica,
    prefilled on another."""
    moved = 0
    for span in trace.spans():
        if span.tags.get("requeued"):
            prefill = [p for p in span.phases if p[0] == "prefill"]
            if prefill and prefill[0][4] != span.replica:
                moved += 1
    return moved


def _outcome(name: str) -> dict:
    result = Experiment(trace=True, **CASES[name]).run(["vanilla"]) \
        .result("vanilla")
    metrics = result.raw
    outcome = {
        "summary": result.summary,
        "crashes": metrics.crashes,
        "recoveries": metrics.recoveries,
        "requeued": metrics.requeued,
        "kernel_stats": metrics.kernel_stats,
        "trace": result.trace.summary(),
    }
    if name == "disagg":
        outcome["prefill_requeued"] = _prefill_requeues(result.trace)
    # Canonical JSON form: tuples become lists, NaN compares as a token.
    return json.loads(json.dumps(outcome, sort_keys=True))


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_crash_outcomes_match_golden(name, golden):
    actual = _outcome(name)
    expected = golden[name]
    assert sorted(actual) == sorted(expected)
    for key in sorted(expected):
        assert _canon(actual[key]) == _canon(expected[key]), key


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_crashed_pool_requeues(name, golden):
    recorded = golden[name]
    assert recorded["crashes"] >= 1
    assert recorded["recoveries"] >= 1
    assert recorded["requeued"] > 0
    if name == "disagg":
        # Both the prefill and the decode crash must have moved work.
        assert recorded["crashes"] == 2
        assert 0 < recorded["prefill_requeued"] < recorded["requeued"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_pool_runtime_golden.py --record")
    GOLDEN.write_text(json.dumps({name: _outcome(name) for name in CASES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
