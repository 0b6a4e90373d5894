"""Threshold tuning (§3.2, Algorithm 1) plus a grid-search reference.

The tuner searches for per-ramp thresholds that maximize latency savings on
the most recent window of recorded observations, subject to the accuracy
constraint.  It exploits the monotone structure of the problem (raising any
threshold can only increase exits, increasing latency savings and decreasing
accuracy) with greedy hill climbing:

* all thresholds start at 0 (no exiting) with a per-ramp step size;
* each round tries raising every ramp's threshold in isolation and applies the
  single change with the best marginal savings per unit of accuracy loss;
* step sizes follow multiplicative-increase / multiplicative-decrease: a
  chosen ramp doubles its step (promising direction), a ramp whose trial
  violated the constraint halves it (homing in on the accuracy boundary),
  lower-bounded at ``min_step``;
* the search ends when no ramp can be raised without violating the constraint
  and every step size has collapsed to the minimum.

``tune_thresholds_grid`` exhaustively evaluates a discretized grid and is used
as the optimality reference for Figure 10.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exits.evaluation import ConfigEvaluation, evaluate_thresholds

__all__ = ["ThresholdTuningResult", "tune_thresholds_greedy", "tune_thresholds_grid"]

# Accuracy-loss granularity below which extra loss is treated as free when
# ranking candidate moves (avoids division by ~0 for moves that add savings
# with no measurable accuracy change).
_EPS_LOSS = 1e-6


@dataclass
class ThresholdTuningResult:
    """Outcome of a threshold-tuning run."""

    thresholds: List[float]
    evaluation: ConfigEvaluation
    rounds: int
    evaluations: int
    runtime_ms: float

    def thresholds_by_ramp(self, ramp_ids: Sequence[int]) -> Dict[int, float]:
        return {int(r): float(t) for r, t in zip(ramp_ids, self.thresholds)}


def tune_thresholds_greedy(errors: np.ndarray, correct: np.ndarray,
                           depths: Sequence[float], overheads_ms: Sequence[float],
                           full_latency_ms: float, accuracy_constraint: float = 0.01,
                           initial_step: float = 0.1, min_step: float = 0.01,
                           max_rounds: int = 200,
                           conservative_margin: float = 0.0) -> ThresholdTuningResult:
    """Algorithm 1: greedy hill-climbing threshold search with MIMD steps.

    Parameters
    ----------
    errors / correct:
        ``(num_samples, num_ramps)`` recorded observations for the window.
    depths / overheads_ms:
        Per-ramp depth fractions and per-input overheads (model order).
    full_latency_ms:
        Whole-model serving time for converting depths to milliseconds.
    accuracy_constraint:
        Maximum tolerable accuracy loss relative to the original model
        (e.g. 0.01 for the paper's default 1%).
    conservative_margin:
        Pseudo-count of wrong results added to the window when checking the
        constraint.  With a finite window, a candidate threshold can look
        perfect by luck; the margin demands statistical headroom (e.g. a
        margin of 1 on a 256-sample window only admits thresholds whose
        observed loss is at least one sample below the budget).

    Candidates are scored incrementally.  The search keeps every sample's
    first exiting ramp under the current thresholds; raising ramp ``r``'s
    threshold can only move samples that still reach ``r`` un-exited to an
    exit at ``r``, so a candidate costs a few O(num_samples) array ops
    instead of a full replay.  The scores are bit-identical to
    :func:`~repro.exits.evaluation.evaluate_thresholds`, which produces the
    returned evaluation of the chosen thresholds.
    """
    start = time.perf_counter()
    if initial_step < 0.0:
        raise ValueError("initial_step must be non-negative")
    depths = list(depths)
    num_ramps = len(depths)
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    correct = np.atleast_2d(np.asarray(correct, dtype=bool))
    overheads = np.asarray(list(overheads_ms), dtype=float)
    if correct.shape != errors.shape:
        raise ValueError("errors and correct must have the same shape")
    if not (overheads.size == num_ramps == errors.shape[1]):
        raise ValueError("per-ramp arrays must match the number of ramp columns")
    thresholds = [0.0] * num_ramps
    step_sizes = [float(initial_step)] * num_ramps
    n = errors.shape[0]
    min_accuracy = 1.0 - float(accuracy_constraint)
    if conservative_margin > 0.0 and n > 0:
        min_accuracy += conservative_margin / n

    # Replay tables, built once.  Column ``num_ramps`` stands for "no exit":
    # such a sample is always correct and pays every ramp's overhead.
    error_columns = np.ascontiguousarray(errors.T)
    correct_cells = np.ones((n, num_ramps + 1), dtype=bool)
    correct_cells[:, :num_ramps] = correct
    correct_cells = correct_cells.ravel()
    row_offsets = np.arange(n) * (num_ramps + 1)
    cumulative_overhead = np.cumsum(overheads)
    savings_by_exit = np.empty(num_ramps + 1, dtype=float)
    savings_by_exit[:num_ramps] = (full_latency_ms * (1.0 - np.asarray(depths, dtype=float))
                                   - cumulative_overhead)
    savings_by_exit[num_ramps] = -float(cumulative_overhead[-1]) if num_ramps else 0.0

    def replay(first_exit: np.ndarray) -> Tuple[float, float]:
        """(accuracy, mean savings) of an exit assignment."""
        if n == 0:
            return 1.0, 0.0
        num_correct = np.count_nonzero(correct_cells[row_offsets + first_exit])
        return num_correct / n, float(savings_by_exit[first_exit].mean())

    first_exit = np.full(n, num_ramps, dtype=np.intp)
    best_accuracy, best_savings = replay(first_exit)
    evaluations = 1
    rounds = 0

    while rounds < max_rounds:
        rounds += 1
        best_ramp: Optional[int] = None
        best_score = -np.inf
        best_first_exit = first_exit
        best_candidate = (best_accuracy, best_savings)
        best_candidate_threshold = 0.0
        overstepped: List[int] = []

        for ramp in range(num_ramps):
            if thresholds[ramp] >= 1.0:
                continue
            threshold = min(1.0, thresholds[ramp] + step_sizes[ramp])
            if threshold > 0.0:
                newly_exiting = (first_exit > ramp) & (error_columns[ramp] < threshold)
                candidate_first_exit = np.where(newly_exiting, ramp, first_exit)
            else:
                candidate_first_exit = first_exit
            accuracy, savings = replay(candidate_first_exit)
            evaluations += 1
            if accuracy < min_accuracy:
                overstepped.append(ramp)
                continue
            gain = savings - best_savings
            loss = max(best_accuracy - accuracy, 0.0)
            if gain <= 0.0:
                continue
            score = gain / max(loss, _EPS_LOSS)
            if score > best_score:
                best_score = score
                best_ramp = ramp
                best_first_exit = candidate_first_exit
                best_candidate = (accuracy, savings)
                best_candidate_threshold = threshold

        if best_ramp is not None:
            thresholds[best_ramp] = best_candidate_threshold
            first_exit = best_first_exit
            best_accuracy, best_savings = best_candidate
            step_sizes[best_ramp] = min(step_sizes[best_ramp] * 2.0, 0.5)
            # Overstepped ramps still shrink their steps to zoom into the
            # accuracy boundary in later rounds.
            for ramp in overstepped:
                step_sizes[ramp] = max(step_sizes[ramp] / 2.0, min_step)
            continue

        # No admissible improvement this round: shrink overstepped ramps and
        # stop once every step has collapsed to the minimum.
        progressed = False
        for ramp in overstepped:
            if step_sizes[ramp] > min_step:
                step_sizes[ramp] = max(step_sizes[ramp] / 2.0, min_step)
                progressed = True
        if not progressed:
            break

    evaluation = evaluate_thresholds(errors, correct, thresholds, depths, overheads_ms,
                                     full_latency_ms)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ThresholdTuningResult(thresholds=thresholds, evaluation=evaluation,
                                 rounds=rounds, evaluations=evaluations,
                                 runtime_ms=runtime_ms)


def tune_thresholds_grid(errors: np.ndarray, correct: np.ndarray,
                         depths: Sequence[float], overheads_ms: Sequence[float],
                         full_latency_ms: float, accuracy_constraint: float = 0.01,
                         step: float = 0.1) -> ThresholdTuningResult:
    """Exhaustive grid search over discretized thresholds (Figure 10 baseline).

    Cost grows as ``O((1/step + 1) ** num_ramps)`` and is only practical for a
    handful of ramps; it exists to quantify how close the greedy search gets
    to the optimum.
    """
    start = time.perf_counter()
    depths = list(depths)
    num_ramps = len(depths)
    values = np.round(np.arange(0.0, 1.0 + step / 2, step), 6)
    min_accuracy = 1.0 - float(accuracy_constraint)

    best_thresholds = [0.0] * num_ramps
    best_eval = evaluate_thresholds(errors, correct, best_thresholds, depths, overheads_ms,
                                    full_latency_ms)
    evaluations = 1
    for combo in itertools.product(values, repeat=num_ramps):
        candidate = evaluate_thresholds(errors, correct, list(combo), depths, overheads_ms,
                                        full_latency_ms)
        evaluations += 1
        if candidate.accuracy < min_accuracy:
            continue
        if candidate.mean_savings_ms > best_eval.mean_savings_ms:
            best_eval = candidate
            best_thresholds = list(float(v) for v in combo)

    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ThresholdTuningResult(thresholds=best_thresholds, evaluation=best_eval,
                                 rounds=1, evaluations=evaluations, runtime_ms=runtime_ms)
