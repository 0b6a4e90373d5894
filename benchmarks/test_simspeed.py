"""Simulator-speed regression benchmark: the event kernel vs the seed loops.

Not a paper figure — this guards the heap-scheduled discrete-event kernel
(:mod:`repro.serving.kernel`) the serving platforms run on.  A diurnal
arrival trace (raised-cosine cycle between 200 and 2000 qps) is served by a
32-replica TensorFlow-Serving-style fleet twice: once through the preserved
pre-kernel rescan loop (:func:`repro.serving._seed_loops.seed_cluster_run`,
O(replicas) bookkeeping per visited timestamp) and once through the kernel
(O(changed replicas) per timestamp).  Both must produce bit-identical
metrics; the kernel must simulate at least ``MIN_SPEEDUP`` times more
requests per wall-clock second.

Modes (``BENCH_SIMSPEED`` environment variable)
-----------------------------------------------
unset
    Smoke trace (60k requests, a few seconds) — runs under plain pytest and
    in the tier-1 suite; nothing is written.
``smoke``
    Smoke trace, and the measurements are written to ``BENCH_simspeed.json``
    (used by the CI speed gate to apply an absolute requests/sec floor).
``full`` or ``1``
    The tracked baseline: the 1M-request trace, written to
    ``BENCH_simspeed.json``.  Refresh with::

        BENCH_SIMSPEED=full PYTHONPATH=src python -m pytest -q benchmarks/test_simspeed.py
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.serving._seed_loops import seed_cluster_run
from repro.serving.cluster import ClusterPlatform
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.difficulty import InputSample

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_simspeed.json"

#: The kernel must simulate at least this many times more requests per
#: wall-clock second than the seed rescan loop on the benchmark trace.
MIN_SPEEDUP = 3.0

SMOKE_REQUESTS = 60_000
FULL_REQUESTS = 1_000_000

REPLICAS = 32
MAX_BATCH = 16
BATCH_TIMEOUT_MS = 4.0
GPU_TIME_MS = 8.0
LOW_QPS, HIGH_QPS, PERIOD_S = 200.0, 2000.0, 60.0


def _mode():
    value = os.environ.get("BENCH_SIMSPEED", "").strip().lower()
    if value in ("full", "1"):
        return FULL_REQUESTS, True
    if value == "smoke":
        return SMOKE_REQUESTS, True
    return SMOKE_REQUESTS, False


def _make_trace(n):
    # Deterministic diurnal cycle (no rng): the same trace on every machine.
    times = diurnal_arrivals(n, low_qps=LOW_QPS, high_qps=HIGH_QPS,
                             period_s=PERIOD_S)
    return [Request(request_id=i, arrival_ms=float(t),
                    sample=InputSample(index=i, raw_difficulty=0.3,
                                       sharpness=0.05, confidence_shift=0.0),
                    slo_ms=1000.0)
            for i, t in enumerate(times)]


def _make_cluster():
    return ClusterPlatform(
        [TFServingPlatform(max_batch_size=MAX_BATCH,
                           batch_timeout_ms=BATCH_TIMEOUT_MS)
         for _ in range(REPLICAS)],
        balancer="round_robin")


def _executor(batch, batch_start_ms):
    return BatchResult(gpu_time_ms=GPU_TIME_MS,
                       result_offsets_ms=[GPU_TIME_MS] * len(batch))


def test_kernel_simulation_speed():
    n, write = _mode()
    requests = _make_trace(n)

    # Whoever runs second pays gen-2 GC traversals over the first run's
    # millions of surviving objects; freeze long-lived data out of the
    # collector before each timed region so the order doesn't skew the ratio.
    gc.collect()
    gc.freeze()

    t0 = time.perf_counter()
    seed_metrics = seed_cluster_run(_make_cluster(), requests, _executor)
    seed_wall_s = time.perf_counter() - t0

    # Speed means nothing if the answers drift: the runs must agree exactly.
    # Keep only the comparison fields so the seed run's per-request metrics
    # can be freed before the kernel run is timed.
    seed_makespan_ms = seed_metrics.makespan_ms
    seed_dispatch_counts = seed_metrics.pool.dispatch_counts
    del seed_metrics
    gc.collect()
    gc.freeze()

    t0 = time.perf_counter()
    kernel_metrics = _make_cluster().run(requests, _executor)
    kernel_wall_s = time.perf_counter() - t0

    assert kernel_metrics.makespan_ms == seed_makespan_ms
    assert kernel_metrics.pool.dispatch_counts == seed_dispatch_counts

    seed_rps = n / seed_wall_s
    kernel_rps = n / kernel_wall_s
    speedup = seed_wall_s / kernel_wall_s
    print(f"\nsimspeed ({n:,} requests, {REPLICAS} replicas): "
          f"seed {seed_rps:,.0f} req/s, kernel {kernel_rps:,.0f} req/s, "
          f"speedup {speedup:.2f}x")

    if write:
        BENCH_PATH.write_text(json.dumps({
            "trace": {"requests": n, "arrivals": "diurnal",
                      "low_qps": LOW_QPS, "high_qps": HIGH_QPS,
                      "period_s": PERIOD_S},
            "cluster": {"replicas": REPLICAS, "balancer": "round_robin",
                        "max_batch_size": MAX_BATCH,
                        "batch_timeout_ms": BATCH_TIMEOUT_MS,
                        "gpu_time_ms": GPU_TIME_MS},
            "seed_loop": {"wall_s": round(seed_wall_s, 3),
                          "simulated_rps": round(seed_rps)},
            "kernel": {"wall_s": round(kernel_wall_s, 3),
                       "simulated_rps": round(kernel_rps)},
            "speedup": round(speedup, 2),
        }, indent=2) + "\n")

    assert speedup >= MIN_SPEEDUP, (
        f"kernel simulated {kernel_rps:,.0f} req/s vs seed loop "
        f"{seed_rps:,.0f} req/s — only {speedup:.2f}x, need {MIN_SPEEDUP}x")
