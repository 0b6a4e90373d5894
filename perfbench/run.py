"""System benchmark of the Apparate simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see ``harness.WORKLOADS`` and ``perfbench/README.md``) runs
whole ``repro.api.Experiment``s in fresh single-threaded child processes:

Each run serves a fixed number of episodes for the workload and
``--seconds`` (``harness.episode_count``), so a faster program serves the
same traces as a slower one.

* ``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
  several fresh processes), ``sim_items_per_s`` (simulated requests or
  tokens over the host seconds of every timed ``Experiment.run``), both
  scaled to a reference host speed, and ``peak_rss_mb`` of the measuring
  process.  The simulated figures (``sim_p50_ms``, ``sim_tpt_p50_ms``, ...)
  are printed above the result line; they are deterministic for a seed.
* ``--trace 1`` wraps the program's layers from outside (``layer_trace.py``)
  and prints per-layer calls, self and total time shares and ratios; the
  spans go to ``perfbench/out/``.

Every run is checked for correctness, including that the summaries of
episodes 0-2 match the digests recorded in ``baseline.json`` for the seed;
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from harness import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes that only time set-up; the measuring process adds one more.
SETUP_SAMPLES = 4
#: Keeps every run's episode count below the 1000 episode seeds of a seed.
MAX_SECONDS = 300.0


def deadline_s(seconds: float) -> float:
    """Every child must finish this long after the benchmark starts: set-up,
    the measuring child's safety budget (``harness.SAFETY_FACTOR`` times
    ``harness.TRACED_COST`` times ``seconds`` when traced) and the repeated
    episodes.  150 s at the default 15 s."""
    return 30.0 + 8.0 * seconds


def child_env() -> Dict[str, str]:
    """Environment of every child: the package from this checkout, one
    thread per numeric pool, and a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``harness.py`` with ``args`` and return its JSON record.

    ``subprocess.run`` kills the child and waits for it on timeout."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RuntimeError("benchmark deadline passed before the child started")
    proc = subprocess.run([sys.executable, str(HERE / "harness.py"), *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"harness {' '.join(args)} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Apparate simulator system benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1, the recorded baseline)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in [0, {MAX_SECONDS:g}]")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 1

    deadline = time.perf_counter() + deadline_s(args.seconds)
    workload = WORKLOADS[args.workload]
    common = ["--workload", workload.name, "--seed", str(args.seed)]
    try:
        setups = [run_child(["setup", *common], deadline)
                  for _ in range(SETUP_SAMPLES)]
        record = run_child(["measure", *common, "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(record)

    episodes = record["episodes"]
    runs = sum(len(e["host_s"]) for e in episodes)
    failed = sum(1 for e in episodes if e["problems"])
    for episode in episodes:
        for problem in episode["problems"]:
            print(f"perfbench: FAILED {workload.name} {problem}", file=sys.stderr)

    if len(episodes) < record["planned"]:
        print(f"perfbench: {workload.name} served {len(episodes)} of "
              f"{record['planned']} episodes before the safety deadline",
              file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {len(episodes)} "
          f"episodes of {workload.episode_size} "
          f"{'requests' if workload.kind == 'classification' else 'sequences'}, "
          f"{runs} runs, {failed} failed")
    if args.trace:
        metrics = record["per_layer"]
    else:
        items = sum(e["items"] for e in episodes)
        metrics = {
            "setup_s": (statistics.median(r["scaled_setup_s"] for r in setups), "s"),
            "sim_items_per_s": (items / sum(e["scaled_s"] for e in episodes), "1/s"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
        unscaled = {
            "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
            "sim_items_per_s": (items / sum(min(e["host_s"]) for e in episodes),
                                "1/s"),
            "reference_kernel_ms": (1000 * statistics.median(
                ref for e in episodes for ref in e["reference_s"]), "ms"),
        }
        for title, table in (
                ("host, scaled to the reference speed (reported)", metrics),
                ("host, unscaled", unscaled),
                ("simulated (exact for a seed; median of the first episodes)",
                 record["sim"])):
            print(f"  {title}:")
            for name, (value, unit) in table.items():
                print(f"    {name:<20} {value!r:>22} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runs,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
