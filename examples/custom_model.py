#!/usr/bin/env python3
"""Bring your own model: register a custom architecture with Apparate.

Apparate accepts any dataflow graph — this example registers a custom
"wide-resnet-20"-style model that is not part of the built-in zoo, shows which
positions qualify for ramps (cut vertices), and serves a workload with it.
It also demonstrates the per-deployment knobs: SLO, accuracy constraint,
ramp budget and ramp style.

Run:  python examples/custom_model.py
"""

from repro import ExitPolicySpec, Experiment, ModelSpec, Task, register_model
from repro.exits.placement import build_ramp_catalog
from repro.exits.ramps import RampStyle
from repro.graph.builders import build_resnet
from repro.graph.cut_vertices import feasible_ramp_positions
from repro.models.latency import build_latency_profile
from repro.workloads import make_video_workload


def main() -> None:
    # 1. Describe the custom model.  (Graphs for custom names fall back to the
    #    closest built-in family builder; here we reuse the ResNet-18 topology
    #    but with our own latency/overparameterization characteristics.)
    spec = register_model(ModelSpec(
        name="resnet18",              # reuse the resnet18 topology...
        task=Task.CV_CLASSIFICATION,
        family="resnet",
        params_millions=11.7,
        bs1_latency_ms=9.0,           # ...but a slower deployment target
        default_slo_ms=18.0,
        num_classes=100,
        headroom=0.9,
        batch_marginal_cost=0.3,
        num_blocks=8,
        hidden_width=512,
    ))

    # 2. Inspect the graph analysis Apparate performs during preparation.
    graph = build_resnet(18, num_classes=spec.num_classes)
    positions = feasible_ramp_positions(graph)
    print(f"{graph.name}: {graph.num_nodes()} operators, "
          f"{len(positions)} feasible ramp positions (cut vertices)")
    profile = build_latency_profile(spec, graph)
    catalog = build_ramp_catalog(spec, graph, profile, budget_fraction=0.03,
                                 style=RampStyle.LIGHTWEIGHT)
    print("candidate ramps (name @ depth fraction):")
    for ramp in catalog.ramps:
        print(f"  {ramp.node_name:<24s} @ {ramp.depth_fraction:.2f} "
              f"(overhead {100 * ramp.overhead_fraction:.2f}%)")

    # 3. Serve a workload with the custom deployment knobs.
    workload = make_video_workload("crossroads", num_frames=4000, seed=3)
    report = Experiment(model=spec, workload=workload, slo_ms=spec.default_slo_ms,
                        ee=ExitPolicySpec(accuracy_constraint=0.02,
                                          ramp_budget=0.03)) \
        .run(["vanilla", "apparate"])
    vanilla = report.result("vanilla").raw
    apparate = report.result("apparate").raw
    win = 100.0 * (vanilla.median_latency() - apparate.metrics.median_latency()) \
        / vanilla.median_latency()
    print(f"\nmedian latency: {vanilla.median_latency():.2f} ms -> "
          f"{apparate.metrics.median_latency():.2f} ms ({win:.1f}% lower), "
          f"accuracy {apparate.metrics.accuracy():.3f}, "
          f"p95 {apparate.metrics.p95_latency():.2f} ms "
          f"(vanilla {vanilla.p95_latency():.2f} ms)")


if __name__ == "__main__":
    main()
