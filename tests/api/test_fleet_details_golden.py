"""Golden fleet results, byte for byte: summary and ``details`` key order too.

The CLI prints ``RunResult.to_json()`` without sorting keys, so a fleet
run's summary and ``details`` are part of its output format down to the
order of their keys.  These runs pin that output exactly, as the unsorted
``json.dumps`` string of each result, for one run of each fleet kind:

* a classification cluster with tenants, a crash and drop salvage (so
  ``rerouted`` > 0);
* a KV-bounded, autoscaled generative cluster;
* a disaggregated run whose prefill and decode pools both crash.

The expected strings live in ``fleet_details_golden.json`` next to this
file.  Regenerate them (only for a change that is *meant* to alter the
reported output) with::

    PYTHONPATH=src python tests/api/test_fleet_details_golden.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from repro.api import ClusterSpec, Experiment, WorkloadSpec

GOLDEN = Path(__file__).with_name("fleet_details_golden.json")

CASES = {
    "cluster": (
        dict(model="resnet50",
             workload=WorkloadSpec("video", requests=600, rate=600.0),
             cluster=ClusterSpec(
                 replicas=3, balancer="jsq",
                 tenants="chat:weight=4,slo=80;"
                         "backfill:priority=batch,exits=false",
                 faults="150:100")),
        ("vanilla", "apparate")),
    "generative_kv": (
        dict(model="t5-large",
             workload=WorkloadSpec("generative", requests=40, rate=40.0,
                                   prefix_groups=4),
             cluster=ClusterSpec(replicas=2, balancer="prefix-affinity",
                                 autoscaler="reactive", max_replicas=4,
                                 kv_capacity=300e6)),
        ("vanilla", "apparate")),
    "disagg": (
        dict(model="t5-large",
             workload=WorkloadSpec("generative", requests=40, rate=300.0),
             cluster=ClusterSpec(replicas=3, disaggregate=True,
                                 prefill_replicas=2, decode_replicas=3,
                                 faults="300:500:prefill;900:600:decode")),
        ("vanilla", "apparate")),
}


def _outputs(name: str) -> list:
    kwargs, systems = CASES[name]
    report = Experiment(**kwargs).run(list(systems))
    return [json.dumps(result.to_json()) for result in report.results]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_fleet_results_match_golden(name, golden):
    actual = _outputs(name)
    expected = golden[name]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


def test_golden_runs_exercise_every_fleet_detail(golden):
    """The recorded runs reach the optional details the builders emit."""
    cluster = json.loads(golden["cluster"][0])["details"]
    assert cluster["rerouted"] > 0
    assert cluster["crashes"] == 1 and cluster["requeued"] > 0
    assert sorted(cluster["tenant_rollups"]) == ["backfill", "chat"]
    kv = json.loads(golden["generative_kv"][0])["details"]["kv_cache"]
    assert kv["hit_tokens"] > 0 and kv["evictions"] > 0
    disagg = json.loads(golden["disagg"][0])
    assert disagg["kind"] == "generative_disagg"
    assert disagg["details"]["crashes"] == 2
    assert disagg["details"]["prefill_dispatch_counts"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_fleet_details_golden.py --record")
    GOLDEN.write_text(json.dumps({name: _outputs(name) for name in CASES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
