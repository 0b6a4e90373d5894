"""Tests for the generative fleet control plane: token-level early exits at
cluster scale, mirroring tests/serving/test_fleet_control.py — decode-work
balancing, drain/retire of in-flight streams, token conservation and
bit-identical determinism under autoscaling membership change."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generative import (ApparateTokenPolicy,
                                   _resolve_generative_autoscaler,
                                   build_generative_cluster,
                                   generative_ramp_depths)
from repro.generative.decoding import DecodeTimingModel
from repro.generative.sequences import GenerativeWorkload, SequenceSample
from repro.models.prediction import PredictionModel
from repro.models.zoo import get_model
from repro.serving.autoscaler import FixedAutoscaler, ReactiveAutoscaler
from repro.serving.generative_cluster import (GenerativeClusterMetrics,
                                              GenerativeClusterPlatform)
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        GenerativeMetrics, VanillaTokenPolicy)
from repro.serving.metrics import PoolMetrics

FAST = settings(max_examples=20, deadline=None)

SPEC = get_model("t5-large")


def make_sequence(seq_id, arrival_ms, tokens=6, difficulty=0.25):
    return SequenceSample(sequence_id=seq_id, arrival_ms=float(arrival_ms),
                          token_difficulty=np.full(tokens, float(difficulty)),
                          token_sharpness=np.full(tokens, 0.05))


def make_workload(arrivals, tokens=6):
    if np.isscalar(tokens):
        tokens = [tokens] * len(arrivals)
    return GenerativeWorkload(name="test", sequences=[
        make_sequence(i, t, tokens=n)
        for i, (t, n) in enumerate(zip(arrivals, tokens))])


def bursty_workload(tokens=6):
    """Low rate, a heavy burst, low rate again (decode steps are 18ms)."""
    times = (list(np.arange(0.0, 2000.0, 100.0))
             + list(np.arange(2000.0, 3200.0, 8.0))
             + list(np.arange(3200.0, 5000.0, 100.0)))
    return make_workload(times, tokens=tokens)


def elastic_cluster(initial=2, min_replicas=1, max_replicas=6,
                    autoscaler=None, balancer="join_shortest_queue",
                    max_batch_size=2, seed=0):
    scaler = autoscaler if autoscaler is not None else ReactiveAutoscaler(
        scale_out_load=2.5, scale_in_load=0.5, cooldown_ms=300.0,
        provision_delay_ms=100.0)
    return build_generative_cluster(SPEC, initial, balancer=balancer,
                                    max_batch_size=max_batch_size, seed=seed,
                                    autoscaler=scaler,
                                    min_replicas=min_replicas,
                                    max_replicas=max_replicas)


def vanilla_factory(ordinal):
    return VanillaTokenPolicy()


def token_multiset(metrics: GenerativeClusterMetrics) -> Counter:
    """(sequence_id, token_index) occurrences across every replica."""
    return Counter((t.sequence_id, t.token_index)
                   for replica in metrics.replicas for t in replica.tokens)


# ------------------------------------------------------------- construction

def test_cluster_validates_fleet_band_and_profiles():
    engine = ContinuousBatchingEngine(DecodeTimingModel(SPEC), max_batch_size=2)
    with pytest.raises(ValueError):
        GenerativeClusterPlatform([])
    with pytest.raises(ValueError):
        GenerativeClusterPlatform([engine, engine], min_replicas=0)
    with pytest.raises(ValueError):
        GenerativeClusterPlatform([engine, engine], min_replicas=3)
    with pytest.raises(ValueError):
        GenerativeClusterPlatform([engine, engine], max_replicas=1)
    with pytest.raises(ValueError):
        GenerativeClusterPlatform([engine, engine], profiles=[1.0])
    with pytest.raises(ValueError):   # zero-speed profile rejected at build
        GenerativeClusterPlatform([engine, engine], profiles=[1.0, 0.0])


def test_generative_autoscaler_resolution_scales_watermarks_to_slots():
    scaler = _resolve_generative_autoscaler("reactive", 8)
    assert isinstance(scaler, ReactiveAutoscaler)
    assert scaler.scale_out_load == pytest.approx(10.0)
    assert scaler.scale_in_load == pytest.approx(2.0)
    assert _resolve_generative_autoscaler("none", 8).name == "none"
    passthrough = ReactiveAutoscaler(scale_out_load=99.0)
    assert _resolve_generative_autoscaler(passthrough, 8) is passthrough
    assert _resolve_generative_autoscaler(None, 8) is None


# ---------------------------------------------------------- work-aware costing

def test_work_left_costs_queues_by_tokens_not_requests():
    """One 60-token summary and five 4-token answers arrive together on two
    replicas.  ``least_work_left`` prices the queues in tokens and piles every
    cheap answer opposite the summary; ``join_shortest_queue`` counts requests
    and splits them evenly — the decode-work cost model is what differs."""
    workload = GenerativeWorkload(name="mix", sequences=(
        [make_sequence(0, 0.0, tokens=60)]
        + [make_sequence(1 + i, 0.0, tokens=4) for i in range(5)]))
    engine = ContinuousBatchingEngine(DecodeTimingModel(SPEC), max_batch_size=1)

    lwl = GenerativeClusterPlatform([engine, engine],
                                    balancer="least_work_left") \
        .run(workload, vanilla_factory)
    assert lwl.pool.dispatch_counts == [1, 5]

    jsq = GenerativeClusterPlatform([engine, engine],
                                    balancer="join_shortest_queue") \
        .run(workload, vanilla_factory)
    assert jsq.pool.dispatch_counts == [3, 3]
    assert token_multiset(lwl) == token_multiset(jsq)


def test_handle_exposes_decode_work_signals():
    engine = ContinuousBatchingEngine(DecodeTimingModel(SPEC), max_batch_size=2)
    cluster = GenerativeClusterPlatform([engine], balancer="round_robin")
    workload = make_workload([0.0, 0.0, 0.0], tokens=4)
    metrics = cluster.run(workload, vanilla_factory)
    # After the run the fleet is gone, but the handle math is exercised via
    # the balancer; sanity-check the standalone entry surface instead.
    from repro.serving.fleet import ReplicaProfile
    from repro.serving.generative_cluster import GenerativeReplicaEntry
    entry = GenerativeReplicaEntry(replica_id=0, engine=engine,
                                   policy=VanillaTokenPolicy(),
                                   profile=ReplicaProfile(), mean_tokens=4.0)
    handle = entry
    assert handle.jobs_in_system(0.0) == 0
    assert handle.work_left_ms(0.0) == 0.0
    entry.queue.append(make_sequence(9, 0.0, tokens=4))
    entry.slots[0] = 100.0   # one stream decoding until t=100
    assert handle.jobs_in_system(0.0) == 2
    # 4 queued tokens x 18ms full step / 2 slots + 100ms backlog.
    assert handle.work_left_ms(0.0) == pytest.approx(100.0 + 4 * 18.0 / 2)
    assert handle.max_batch_size == 2
    assert handle.predicted_batch_time_ms(2) == pytest.approx(4 * 18.0)
    assert len(metrics.aggregate().tokens) == 12


# ------------------------------------------------------------- fleet lifecycle

def test_draining_replica_finishes_streams_but_gets_no_new_dispatches():
    class DrainSecondAt(FixedAutoscaler):
        def __init__(self, at_ms):
            self.at_ms = at_ms
            self.fired = False

        def reset(self):
            self.fired = False

        def desired_replicas(self, now_ms, replicas):
            if not self.fired and now_ms >= self.at_ms:
                self.fired = True
                return len(replicas) - 1
            return len(replicas)

    cluster = elastic_cluster(initial=2, min_replicas=1, max_replicas=2,
                              autoscaler=DrainSecondAt(500.0),
                              balancer="round_robin")
    workload = make_workload(np.arange(0.0, 4000.0, 40.0))
    metrics = cluster.run(workload, vanilla_factory)
    # Token conservation: the drained replica finished everything it held.
    assert token_multiset(metrics) == Counter(
        {(s.sequence_id, i): 1 for s in workload.sequences
         for i in range(s.num_tokens)})
    # The drained replica (id 1, the newest) froze well below an even split.
    assert metrics.pool.dispatch_counts[1] < metrics.pool.dispatch_counts[0]
    assert metrics.pool.timeline[0][1] == 2
    assert metrics.pool.timeline[-1][1] == 1
    # Every sequence dispatched to the drained replica was decoded by it.
    assert len(metrics.replicas[1].sequence_accuracy) == metrics.pool.dispatch_counts[1]


def test_reactive_scales_out_under_burst_and_back_in():
    cluster = elastic_cluster(initial=2, min_replicas=2, max_replicas=6)
    workload = bursty_workload()
    metrics = cluster.run(workload, vanilla_factory)
    sizes = [n for _, n in metrics.pool.timeline]
    assert metrics.pool.peak_replicas() > 2, "burst should trigger scale-out"
    assert sizes[-1] < metrics.pool.peak_replicas(), "lull should trigger scale-in"
    peak_cost = metrics.pool.peak_replicas() * metrics.makespan_ms / 1000.0
    assert metrics.pool.replica_seconds < peak_cost
    assert len(metrics.aggregate().tokens) == workload.total_tokens()


def test_repeated_runs_on_one_cluster_object_are_bit_identical():
    """Regression (mirrors the classification fleet): balancer seed-stream and
    autoscaler state must reset, so repeated run() calls on one cluster
    object — with fresh per-run Apparate policies — are bit-identical."""
    cluster = elastic_cluster(initial=3, min_replicas=1, max_replicas=6,
                              balancer="power_of_two_choices", seed=5)
    workload = bursty_workload()
    prediction = PredictionModel(SPEC, seed=0)
    depths = generative_ramp_depths(SPEC, seed=0)

    def apparate_factory(ordinal):
        return ApparateTokenPolicy(prediction, depths)

    first = cluster.run(workload, apparate_factory)
    second = cluster.run(workload, apparate_factory)
    assert first.pool.dispatch_counts == second.pool.dispatch_counts
    assert first.pool.timeline == second.pool.timeline
    assert first.makespan_ms == second.makespan_ms
    for a, b in zip(first.replicas, second.replicas):
        assert [(t.sequence_id, t.token_index, t.release_ms, t.exited)
                for t in a.tokens] \
            == [(t.sequence_id, t.token_index, t.release_ms, t.exited)
                for t in b.tokens]


@FAST
@given(gaps=st.lists(st.floats(0.0, 120.0), min_size=1, max_size=40),
       initial=st.integers(1, 3), seed=st.integers(0, 5),
       tokens=st.integers(1, 8))
def test_token_conservation_under_membership_change(gaps, initial, seed, tokens):
    """Every emitted token is attributed to exactly one replica across
    arbitrary scale-in/out events, and no token is lost or duplicated."""
    arrivals = np.cumsum(np.asarray(gaps, dtype=float))
    workload = make_workload(arrivals, tokens=tokens)
    cluster = build_generative_cluster(
        SPEC, initial, balancer="power_of_two_choices", seed=seed,
        max_batch_size=2,
        autoscaler=ReactiveAutoscaler(scale_out_load=1.5, scale_in_load=0.25,
                                      cooldown_ms=50.0, provision_delay_ms=20.0),
        min_replicas=1, max_replicas=initial + 3)
    metrics = cluster.run(workload, vanilla_factory)
    counts = token_multiset(metrics)
    assert set(counts.values()) <= {1}
    assert sum(counts.values()) == workload.total_tokens()
    assert sum(metrics.pool.dispatch_counts) == len(gaps)
    # Each sequence's tokens live on exactly one replica.
    for replica_a in range(len(metrics.replicas)):
        ids_a = set(metrics.replicas[replica_a].sequence_accuracy)
        for replica_b in range(replica_a + 1, len(metrics.replicas)):
            assert ids_a.isdisjoint(metrics.replicas[replica_b].sequence_accuracy)


# ---------------------------------------------------- heterogeneous replicas

def test_speed_profile_halves_decode_time():
    engine = ContinuousBatchingEngine(DecodeTimingModel(SPEC), max_batch_size=1)
    base = GenerativeClusterPlatform([engine]).run(
        make_workload([0.0], tokens=10), vanilla_factory)
    fast = GenerativeClusterPlatform([engine], profiles=[2.0]).run(
        make_workload([0.0], tokens=10), vanilla_factory)
    assert fast.makespan_ms == pytest.approx(base.makespan_ms / 2)
    np.testing.assert_allclose(fast.aggregate().tpt_values(),
                               base.aggregate().tpt_values() / 2)


def test_weighted_round_robin_dispatches_proportional_to_speed():
    engine = ContinuousBatchingEngine(DecodeTimingModel(SPEC), max_batch_size=2)
    cluster = GenerativeClusterPlatform([engine] * 3,
                                        balancer="weighted_round_robin",
                                        profiles=[2.0, 1.0, 1.0])
    workload = make_workload(np.arange(0.0, 4000.0, 10.0), tokens=2)
    metrics = cluster.run(workload, vanilla_factory)
    counts = metrics.pool.dispatch_counts
    assert counts[0] == pytest.approx(200, abs=2)
    assert counts[1] == pytest.approx(100, abs=2)
    assert counts[2] == pytest.approx(100, abs=2)


# ----------------------------------------------------------- metrics rollups

def test_cluster_metrics_empty_run_is_nan_safe():
    metrics = GenerativeClusterMetrics(replicas=[GenerativeMetrics()],
                                       pool=PoolMetrics(dispatch_counts=[0]))
    summary = metrics.summary()
    assert summary["tpt_p99_ms"] == 0.0
    assert summary["token_p99_ms"] == 0.0
    assert summary["num_tokens"] == 0.0
    assert metrics.pool.dispatch_imbalance() == 1.0
    empty_cluster = build_generative_cluster(SPEC, 2)
    collected = empty_cluster.run(GenerativeWorkload(name="empty"),
                                  vanilla_factory)
    assert collected.makespan_ms == 0.0
    assert collected.summary()["peak_replicas"] == 2.0


def test_fleet_summary_reports_deferred_flush_counts(small_generative_workload):
    from repro.core.generative import _generative_apparate_cluster_impl
    outcome = _generative_apparate_cluster_impl(
        SPEC, small_generative_workload, replicas=2, flush_limit=2, seed=4)
    summary = outcome.summary()
    assert summary["deferred_tokens"] >= summary["deferred_flushes"]
    assert summary["deferred_flushes"] > 0
    assert summary["num_policies"] == 2.0


def test_shared_fleet_mode_uses_one_policy():
    from repro.core.generative import _generative_apparate_cluster_impl
    workload = make_workload(np.arange(0.0, 3000.0, 10.0), tokens=8)
    outcome = _generative_apparate_cluster_impl(SPEC, workload, replicas=3,
                                                fleet_mode="shared", seed=1)
    assert len(outcome.policies) == 3
    assert len({id(p) for p in outcome.policies}) == 1
    assert outcome.summary()["num_policies"] == 1.0
    with pytest.raises(ValueError, match="anarchic"):
        _generative_apparate_cluster_impl(SPEC, workload, replicas=2,
                                          fleet_mode="anarchic")
