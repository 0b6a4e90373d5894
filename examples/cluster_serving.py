#!/usr/bin/env python3
"""Cluster serving: a fleet of Apparate replicas behind a load balancer.

The paper evaluates Apparate on a single replica; production services put
fleets of identical replicas behind a load balancer.  This walkthrough scales
the same serving stack out to N replicas with ``ClusterPlatform`` and compares
the pluggable dispatch policies.

Choosing a balancer — the trade-offs in one paragraph each
----------------------------------------------------------
``round_robin``
    Zero state inspection and perfectly even request *counts*.  Ignores queue
    skew, so one slow batch (or an expensive request mix) makes that replica's
    queue snowball while the others idle.  Fine when requests are homogeneous
    and arrival order is already well mixed.

``join_shortest_queue`` (JSQ)
    Routes each arrival to the replica with the fewest waiting requests.
    Near-optimal tail latency when every request costs the same, but it needs
    the dispatcher to see every queue on every arrival — the coordination cost
    a real deployment pays for its balance.

``least_work_left``
    Like JSQ, but costs each queue in *milliseconds* using the model's latency
    profile (queued batches plus the in-flight batch's remaining time).  Sees
    through unequal queue costs — e.g. one replica holding a nearly-finished
    batch versus one that just started — at the price of needing a calibrated
    profile.

``power_of_two_choices``
    Samples two replicas at random and joins the shorter queue.  The classic
    result (Mitzenmacher '01): exponentially better balance than random with
    only two queue probes per arrival, and no global view.  The default pick
    when the dispatcher itself must scale.

``weighted_round_robin`` / ``weighted_join_shortest_queue``
    The same policies made speed-aware for heterogeneous fleets: dispatch
    shares (WRR) or queue lengths (WJSQ) are scaled by each replica's
    ``ReplicaProfile.speed``, so an int8 replica beside an fp32 one receives
    its fair multiple of the traffic.  (``least_work_left`` needs no variant —
    it already costs queues in milliseconds through each replica's scaled
    latency profile.)  See ``examples/autoscaling.py`` for the elastic-fleet
    side of the control plane.

Fleet-wide early-exit control comes in two modes: ``independent`` (one
ApparateController per replica, each adapting to its own traffic slice) and
``shared`` (one controller aggregating the whole fleet's profiling feedback
with a periodic sync — N× the tuning evidence, one warm-up).

Run:  python examples/cluster_serving.py
"""

from repro.api import ClusterSpec, Experiment
from repro.serving.cluster import balancer_names
from repro.workloads import make_video_workload

REPLICAS = 4


def main() -> None:
    # A saturating trace: arrivals far above one replica's capacity, so the
    # fleet (not the arrival rate) is the bottleneck and balancing matters.
    workload = make_video_workload("urban-day", num_frames=4000, fps=240.0, seed=1)

    print(f"=== vanilla fleet, {REPLICAS} replicas, per balancer ===")
    print(f"{'balancer':<24s} {'p50 ms':>9s} {'p99 ms':>9s} {'tput qps':>9s} "
          f"{'drops':>7s} {'imbalance':>10s}")
    fleet = Experiment(model="resnet50", workload=workload,
                       cluster=ClusterSpec(replicas=REPLICAS))
    for point in fleet.sweep(systems=["vanilla"],
                             balancer=balancer_names("classification")):
        balancer = point.params["balancer"]
        s = point.report.result("vanilla").summary
        print(f"{balancer:<24s} {s['p50_ms']:9.2f} {s['p99_ms']:9.2f} "
              f"{s['throughput_qps']:9.1f} {s['drop_rate']:7.2%} "
              f"{s['dispatch_imbalance']:10.2f}")

    print(f"\n=== Apparate fleet ({REPLICAS} replicas, join_shortest_queue) ===")
    jsq = Experiment(model="resnet50", workload=workload,
                     cluster=ClusterSpec(replicas=REPLICAS,
                                         balancer="join_shortest_queue"))
    results = {}
    for point in jsq.sweep(systems=["apparate"],
                           fleet_mode=["independent", "shared"]):
        mode = point.params["fleet_mode"]
        results[mode] = point.report.result("apparate").raw
        s = results[mode].summary()
        print(f"{mode:<12s} p50={s['p50_ms']:7.2f} ms  accuracy={s['accuracy']:.3f}  "
              f"exit rate={s['exit_rate']:.2%}  controllers={s['num_controllers']:.0f}  "
              f"threshold tunings={s['threshold_tunings']:.0f}")

    print("\nPer-replica view (independent mode):")
    for i, summary in enumerate(
            results["independent"].metrics.per_replica_summaries()):
        print(f"  replica {i}: served={summary['num_served']:.0f} "
              f"p50={summary['p50_ms']:.2f} ms exit rate={summary['exit_rate']:.2%}")


if __name__ == "__main__":
    main()
