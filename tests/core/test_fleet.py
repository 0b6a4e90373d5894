"""Tests for fleet-scale EE control and the cluster pipeline entry points."""

import pytest

from repro.core.controller import ApparateController, FleetController
from repro.core.pipeline import (build_cluster, model_stack,
                                 run_apparate_cluster, run_vanilla_cluster)


@pytest.fixture(scope="module")
def stack():
    return model_stack("resnet50", seed=0)


def make_fleet(stack, num_replicas=2, mode="independent", **kwargs):
    spec, profile, _pred, catalog, _exec = stack
    return FleetController(spec, catalog, profile, num_replicas, mode=mode, **kwargs)


# ------------------------------------------------------------ FleetController

def test_independent_mode_gives_each_replica_its_own_controller(stack):
    fleet = make_fleet(stack, num_replicas=3, mode="independent")
    controllers = [fleet.replica_controller(i) for i in range(3)]
    assert all(isinstance(c, ApparateController) for c in controllers)
    assert len({id(c) for c in controllers}) == 3
    assert fleet.primary() is controllers[0]


def test_shared_mode_propagates_config_and_syncs_feedback(stack):
    _spec, _profile, _pred, _cat, executor = stack
    fleet = make_fleet(stack, num_replicas=2, mode="shared", sync_period=32)
    views = [fleet.replica_controller(i) for i in range(2)]
    # Both replicas read the same deployed configuration.
    assert views[0].deployed_config() == views[1].deployed_config()
    assert views[0].shared is fleet.primary()

    # Feedback smaller than the sync period stays buffered locally...
    ramp_ids, depths, thresholds, overheads = views[0].deployed_config()
    execution = executor.execute_batch([0.1] * 16, [0.05] * 16, ramp_ids, depths,
                                       thresholds, overheads)
    views[0].observe_batch(execution)
    assert fleet.primary().stats.samples_seen == 0
    # ...and reaches the shared controller once the period fills.
    views[0].observe_batch(execution)
    assert fleet.primary().stats.samples_seen == 32


def test_fleet_flush_drains_partial_buffers(stack):
    _spec, _profile, _pred, _cat, executor = stack
    fleet = make_fleet(stack, num_replicas=2, mode="shared", sync_period=256)
    view = fleet.replica_controller(1)
    ramp_ids, depths, thresholds, overheads = view.deployed_config()
    execution = executor.execute_batch([0.1] * 8, [0.05] * 8, ramp_ids, depths,
                                       thresholds, overheads)
    view.observe_batch(execution)
    assert fleet.primary().stats.samples_seen == 0
    fleet.flush()
    assert fleet.primary().stats.samples_seen == 8


def test_fleet_controller_validates_arguments(stack):
    with pytest.raises(ValueError):
        make_fleet(stack, num_replicas=0)
    with pytest.raises(ValueError):
        make_fleet(stack, mode="federated")
    with pytest.raises(ValueError):
        make_fleet(stack, mode="shared", sync_period=0)


def test_fleet_stats_summary_sums_controllers(stack):
    fleet = make_fleet(stack, num_replicas=3, mode="independent")
    summary = fleet.stats_summary()
    assert summary["num_controllers"] == 3.0
    shared = make_fleet(stack, num_replicas=3, mode="shared")
    assert shared.stats_summary()["num_controllers"] == 1.0


# ------------------------------------------------------------- pipeline runs

def test_build_cluster_replicates_platform(stack):
    _spec, profile, *_rest = stack
    cluster = build_cluster("clockwork", profile, replicas=3,
                            balancer="join_shortest_queue")
    assert cluster.num_replicas == 3
    assert cluster.balancer.name == "join_shortest_queue"
    assert len({id(p) for p in cluster.platforms}) == 3
    with pytest.raises(ValueError):
        build_cluster("clockwork", profile, replicas=0)


def test_run_vanilla_cluster_serves_all_requests(small_video_workload):
    fleet = run_vanilla_cluster("resnet50", small_video_workload, replicas=2,
                                balancer="round_robin", drop_expired=False)
    agg = fleet.aggregate()
    assert len(agg.served()) == len(small_video_workload)
    assert sum(fleet.pool.dispatch_counts) == len(small_video_workload)


@pytest.mark.parametrize("fleet_mode", ["independent", "shared"])
def test_run_apparate_cluster_modes(small_video_workload, fleet_mode):
    result = run_apparate_cluster("resnet50", small_video_workload, replicas=2,
                                  balancer="join_shortest_queue",
                                  fleet_mode=fleet_mode, drop_expired=False)
    agg = result.metrics.aggregate()
    assert len(agg.served()) == len(small_video_workload)
    # Exits activate at fleet scale and the accuracy constraint holds loosely.
    assert agg.exit_rate() > 0.0
    assert agg.accuracy() >= 0.95
    summary = result.summary()
    assert summary["num_replicas"] == 2.0
    expected_controllers = 2.0 if fleet_mode == "independent" else 1.0
    assert summary["num_controllers"] == expected_controllers
    assert summary["samples_seen"] == len(small_video_workload)


def test_cluster_outscales_single_replica(small_video_workload):
    one = run_vanilla_cluster("resnet50", small_video_workload, replicas=1,
                              drop_expired=False)
    two = run_vanilla_cluster("resnet50", small_video_workload, replicas=2,
                              balancer="least_work_left", drop_expired=False)
    assert two.aggregate().throughput_qps() >= one.aggregate().throughput_qps() * 0.95
    assert two.aggregate().p95_latency() <= one.aggregate().p95_latency() + 1e-9
