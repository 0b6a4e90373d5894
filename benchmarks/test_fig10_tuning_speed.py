"""Figure 10: greedy threshold tuning vs exhaustive grid search.

The paper reports the greedy search running up to three orders of magnitude
faster than a (parallelized) grid search while giving up at most a few percent
of the achievable latency savings, for 2-4 active ramps.
"""

import numpy as np
import pytest

from bench_common import print_table, run_once
from repro.exits._reference import mismatched_fields, reference_tune_thresholds_greedy
from repro.exits.thresholds import tune_thresholds_greedy, tune_thresholds_grid
from repro.models.prediction import ramp_error_score


def make_window(num_ramps, n=512, seed=0):
    rng = np.random.default_rng(seed)
    required = np.clip(rng.normal(0.35, 0.15, size=n), 0.0, 1.0)
    sharpness = rng.uniform(0.03, 0.08, size=n)
    depths = np.linspace(0.25, 0.85, num_ramps)
    errors = np.asarray(ramp_error_score(required[:, None], depths[None, :],
                                         sharpness[:, None]))
    correct = required[:, None] <= depths[None, :]
    overheads = [0.05] * num_ramps
    return errors, correct, list(depths), overheads


@pytest.mark.parametrize("num_ramps", [2, 3, 4])
def test_fig10_greedy_vs_grid_runtime_and_optimality(benchmark, num_ramps):
    errors, correct, depths, overheads = make_window(num_ramps)

    def compare():
        greedy = tune_thresholds_greedy(errors, correct, depths, overheads, 20.0)
        grid = tune_thresholds_grid(errors, correct, depths, overheads, 20.0, step=0.1)
        return greedy, grid

    greedy, grid = run_once(benchmark, compare)
    gap_pct = 0.0
    if grid.evaluation.mean_savings_ms > 0:
        gap_pct = 100.0 * (grid.evaluation.mean_savings_ms - greedy.evaluation.mean_savings_ms) \
            / grid.evaluation.mean_savings_ms
    rows = [{"num_ramps": num_ramps,
             "greedy_ms": greedy.runtime_ms, "grid_ms": grid.runtime_ms,
             "speedup_x": grid.runtime_ms / max(greedy.runtime_ms, 1e-9),
             "greedy_evals": greedy.evaluations, "grid_evals": grid.evaluations,
             "savings_gap_%": gap_pct}]
    print_table("Figure 10 — tuning speed and optimality", rows)

    # Shape: the greedy search needs far fewer configuration evaluations and
    # the speedup grows with the number of ramps; the savings gap stays small.
    assert greedy.evaluations < grid.evaluations
    # The incremental search is exactly the full-replay Algorithm 1.
    reference = reference_tune_thresholds_greedy(errors, correct, depths, overheads, 20.0)
    assert mismatched_fields(greedy, reference) == []
    if num_ramps >= 3:
        assert grid.runtime_ms > greedy.runtime_ms
    assert gap_pct < 10.0
