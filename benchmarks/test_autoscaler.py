"""Autoscaling economics: SLO attainment vs. replica-seconds, fixed vs. elastic.

Not a paper figure — this extends the reproduction toward the ROADMAP's
production-scale target.  A diurnal arrival trace (raised-cosine cycle between
30 and 360 qps) is served three ways on `least_work_left`:

* a **fixed fleet at max_replicas** (4) — the capacity-planned baseline that
  attains the SLO by paying for the peak all day;
* a **fixed fleet at min_replicas** (2) — the cost-planned baseline that
  melts during the peak (Clockwork degrades to batch-of-one once requests go
  late, so overload is catastrophic, not graceful);
* a **reactive autoscaler** between the two, scaling on queue depth and SLO
  headroom with a provisioning delay.

Expected shape (asserted): the reactive fleet's SLO attainment lands within
2% of the fixed-at-peak fleet while consuming measurably fewer
replica-seconds, and the undersized fixed fleet shows why elasticity matters
by attaining far less.
"""

import pytest

from bench_common import print_table, run_once
from repro.api import ClusterSpec, Experiment
from repro.serving.autoscaler import ReactiveAutoscaler
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.video import VideoWorkload, make_video_workload

NUM_FRAMES = 4000
SLO_MS = 50.0
LOW_QPS, HIGH_QPS = 30.0, 360.0
PERIOD_S = 12.0
MIN_REPLICAS, MAX_REPLICAS = 2, 4


@pytest.fixture(scope="module")
def diurnal_workload():
    """A day/night cycle: the right fleet size genuinely changes over time."""
    trace = make_video_workload("urban-day", num_frames=NUM_FRAMES, seed=7).trace
    arrivals = diurnal_arrivals(NUM_FRAMES, LOW_QPS, HIGH_QPS, period_s=PERIOD_S)
    return VideoWorkload(name="diurnal", trace=trace,
                         arrival_times_ms=arrivals,
                         fps=(LOW_QPS + HIGH_QPS) / 2.0)


def _run_fleet(workload, cluster: ClusterSpec):
    experiment = Experiment(model="resnet50", workload=workload,
                            cluster=cluster, slo_ms=SLO_MS,
                            drop_expired=False, seed=0)
    return experiment.run(["vanilla"]).result("vanilla").raw


def _reactive_spec() -> ClusterSpec:
    scaler = ReactiveAutoscaler(cooldown_ms=750.0, provision_delay_ms=250.0,
                                slo_ms=SLO_MS, slo_headroom=0.5)
    return ClusterSpec(replicas=MIN_REPLICAS, balancer="least_work_left",
                       autoscaler=scaler, min_replicas=MIN_REPLICAS,
                       max_replicas=MAX_REPLICAS)


def test_reactive_autoscaler_matches_peak_fleet_slo_at_lower_cost(
        benchmark, diurnal_workload):
    def sweep():
        fixed_peak = _run_fleet(diurnal_workload, ClusterSpec(
            replicas=MAX_REPLICAS, balancer="least_work_left"))
        fixed_floor = _run_fleet(diurnal_workload, ClusterSpec(
            replicas=MIN_REPLICAS, balancer="least_work_left"))
        reactive = _run_fleet(diurnal_workload, _reactive_spec())
        return fixed_peak, fixed_floor, reactive

    fixed_peak, fixed_floor, reactive = run_once(benchmark, sweep)

    def attainment(metrics):
        return 1.0 - metrics.aggregate().slo_violation_rate(SLO_MS)

    rows = []
    for name, metrics in (("fixed@4", fixed_peak), ("fixed@2", fixed_floor),
                          ("reactive 2..4", reactive)):
        rows.append({
            "fleet": name,
            "slo_attainment": attainment(metrics),
            "replica_seconds": metrics.pool.replica_seconds,
            "peak_replicas": metrics.pool.peak_replicas(),
            "p99_ms": metrics.aggregate().p99_latency(),
        })
    print_table(f"Diurnal {LOW_QPS:.0f}->{HIGH_QPS:.0f} qps, SLO {SLO_MS:.0f} ms",
                rows)

    # Conservation: every fleet answers the whole trace.
    for metrics in (fixed_peak, fixed_floor, reactive):
        assert len(metrics.aggregate().responses) == NUM_FRAMES

    # The elastic fleet actually flexed across the cycle.
    assert reactive.pool.peak_replicas() == MAX_REPLICAS
    sizes = [n for _, n in reactive.pool.timeline]
    assert min(sizes) == MIN_REPLICAS and len(set(sizes)) > 1

    # Acceptance: SLO attainment within 2% of the fixed-at-peak fleet...
    assert attainment(reactive) >= attainment(fixed_peak) - 0.02
    # ...at measurably fewer replica-seconds (>10% savings in practice ~23%).
    assert reactive.pool.replica_seconds < 0.9 * fixed_peak.pool.replica_seconds

    # Context row: the cost-planned fixed fleet is cheaper still but melts —
    # Clockwork's batch-of-one degradation under late queues is catastrophic.
    assert attainment(fixed_floor) < attainment(reactive) - 0.2


def test_replica_seconds_accounting_is_consistent(diurnal_workload):
    """replica-seconds of a fixed fleet = replicas x makespan (cost weight 1)."""
    metrics = _run_fleet(diurnal_workload, ClusterSpec(
        replicas=MIN_REPLICAS, balancer="least_work_left"))
    expected = MIN_REPLICAS * metrics.makespan_ms / 1000.0
    assert metrics.pool.replica_seconds == pytest.approx(expected, rel=1e-6)
