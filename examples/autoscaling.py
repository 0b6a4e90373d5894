#!/usr/bin/env python3
"""Autoscaling walkthrough: an elastic fleet riding a diurnal traffic cycle.

A fixed fleet must be sized for the peak — and then burns that capacity all
night.  This example serves a compressed day/night arrival cycle (40 qps off
hours, 600 qps rush) with a reactive autoscaler bounded to 2..6 replicas and
compares it against the capacity-planned fixed fleet of 6:

1. build a diurnal workload with :func:`repro.workloads.diurnal_arrivals`;
2. declare the elastic fleet in one ``ClusterSpec`` (``autoscaler=``,
   ``min_replicas=``/``max_replicas=``) and run it through ``Experiment``;
3. plot the fleet-size timeline (2 -> 6 -> 2 as the cycle turns), and compare
   SLO attainment and replica-seconds against the fixed fleet.

The autoscaler scales out on queue depth / SLO headroom with a provisioning
delay (machines don't boot instantly) and scales in by *draining* replicas:
a drained replica finishes its queued work, takes no new dispatches, then
retires — no request is lost across any membership change.

Run:  python examples/autoscaling.py
"""

from repro.api import ClusterSpec, Experiment
from repro.serving.autoscaler import ReactiveAutoscaler
from repro.workloads import diurnal_arrivals, make_video_workload
from repro.workloads.video import VideoWorkload

NUM_FRAMES = 9000
LOW_QPS, HIGH_QPS = 40.0, 600.0
PERIOD_S = 16.0
SLO_MS = 50.0
MIN_REPLICAS, MAX_REPLICAS = 2, 6


def diurnal_workload() -> VideoWorkload:
    trace = make_video_workload("urban-day", num_frames=NUM_FRAMES, seed=4).trace
    arrivals = diurnal_arrivals(NUM_FRAMES, LOW_QPS, HIGH_QPS, period_s=PERIOD_S)
    return VideoWorkload(name="diurnal", trace=trace, arrival_times_ms=arrivals,
                         fps=(LOW_QPS + HIGH_QPS) / 2.0)


def run_fleet(workload: VideoWorkload, cluster: ClusterSpec):
    experiment = Experiment(model="resnet50", workload=workload,
                            cluster=cluster, slo_ms=SLO_MS,
                            drop_expired=False, seed=0)
    return experiment.run(["vanilla"]).result("vanilla").raw


def render_timeline(metrics, width: int = 64) -> str:
    """ASCII strip chart of the fleet size over the run."""
    timeline = metrics.pool.timeline
    end_ms = max(metrics.makespan_ms, 1e-9)
    sizes = []
    for column in range(width):
        t = end_ms * column / width
        size = timeline[0][1]
        for stamp, count in timeline:
            if stamp - timeline[0][0] <= t:
                size = count
        sizes.append(size)
    lines = []
    for level in range(MAX_REPLICAS, 0, -1):
        row = "".join("#" if size >= level else " " for size in sizes)
        lines.append(f"{level:>2d} |{row}")
    return "\n".join(lines)


def main() -> None:
    workload = diurnal_workload()

    scaler = ReactiveAutoscaler(cooldown_ms=750.0, provision_delay_ms=250.0,
                                slo_ms=SLO_MS, slo_headroom=0.5)
    elastic = run_fleet(workload, ClusterSpec(
        replicas=MIN_REPLICAS, balancer="least_work_left", autoscaler=scaler,
        min_replicas=MIN_REPLICAS, max_replicas=MAX_REPLICAS))
    fixed = run_fleet(workload, ClusterSpec(
        replicas=MAX_REPLICAS, balancer="least_work_left"))

    print(f"diurnal cycle {LOW_QPS:.0f} -> {HIGH_QPS:.0f} qps, "
          f"period {PERIOD_S:.0f}s, SLO {SLO_MS:.0f} ms\n")
    print("fleet size over time (reactive autoscaler, 2..6 replicas):")
    print(render_timeline(elastic))

    sizes = [n for _, n in elastic.pool.timeline]
    trajectory = [sizes[0]] + [n for prev, n in zip(sizes, sizes[1:]) if n != prev]
    print("\ntrajectory: " + " -> ".join(str(n) for n in trajectory))

    print(f"\n{'fleet':<16s} {'SLO attainment':>15s} {'replica-seconds':>16s} "
          f"{'p99 ms':>8s}")
    for name, metrics in (("reactive 2..6", elastic),
                          (f"fixed@{MAX_REPLICAS}", fixed)):
        attainment = 1.0 - metrics.aggregate().slo_violation_rate(SLO_MS)
        print(f"{name:<16s} {attainment:15.1%} {metrics.pool.replica_seconds:16.1f} "
              f"{metrics.aggregate().p99_latency():8.1f}")

    saved = 1.0 - elastic.pool.replica_seconds / fixed.pool.replica_seconds
    print(f"\nthe elastic fleet matched the fixed fleet's SLO story while "
          f"spending {saved:.0%} fewer replica-seconds")


if __name__ == "__main__":
    main()
