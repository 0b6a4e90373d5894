"""Reference threshold search: Algorithm 1 as a full re-evaluation per candidate.

This is a verbatim copy of the greedy loop of
:func:`repro.exits.thresholds.tune_thresholds_greedy` as it stood before the
loop began scoring candidates incrementally from the current exit
assignment.  Every candidate here is scored by a full
:func:`repro.exits.evaluation.evaluate_thresholds` replay of the window.  It
exists for exactly one purpose: the equivalence suite
(``tests/exits/test_thresholds_equivalence.py``) and the Figure 10 / Table 1
benchmarks run both searches on the same windows and assert **exactly**
equal thresholds, rounds, evaluation counts and final evaluations.

Do not use this for real tuning — it is the slow path by design — and do
not "fix" it to match the fast search: when the two disagree, the fast
search is wrong.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.exits.evaluation import ConfigEvaluation, evaluate_thresholds
from repro.exits.thresholds import _EPS_LOSS, ThresholdTuningResult

__all__ = ["reference_tune_thresholds_greedy", "mismatched_fields"]


def _evaluate(errors: np.ndarray, correct: np.ndarray, thresholds: Sequence[float],
              depths: Sequence[float], overheads_ms: Sequence[float],
              full_latency_ms: float) -> ConfigEvaluation:
    return evaluate_thresholds(errors, correct, thresholds, depths, overheads_ms,
                               full_latency_ms)


def reference_tune_thresholds_greedy(errors: np.ndarray, correct: np.ndarray,
                                     depths: Sequence[float], overheads_ms: Sequence[float],
                                     full_latency_ms: float, accuracy_constraint: float = 0.01,
                                     initial_step: float = 0.1, min_step: float = 0.01,
                                     max_rounds: int = 200,
                                     conservative_margin: float = 0.0) -> ThresholdTuningResult:
    """Algorithm 1 with one full window replay per candidate (the spec)."""
    start = time.perf_counter()
    depths = list(depths)
    num_ramps = len(depths)
    thresholds = [0.0] * num_ramps
    step_sizes = [float(initial_step)] * num_ramps
    num_samples = int(np.atleast_2d(np.asarray(errors)).shape[0]) if num_ramps else 0
    min_accuracy = 1.0 - float(accuracy_constraint)
    if conservative_margin > 0.0 and num_samples > 0:
        min_accuracy += conservative_margin / num_samples

    evaluations = 0
    rounds = 0
    best_eval = _evaluate(errors, correct, thresholds, depths, overheads_ms, full_latency_ms)
    evaluations += 1

    while rounds < max_rounds:
        rounds += 1
        best_ramp: Optional[int] = None
        best_score = -np.inf
        best_candidate_eval: Optional[ConfigEvaluation] = None
        best_candidate_threshold = 0.0
        overstepped: List[int] = []

        for ramp in range(num_ramps):
            if thresholds[ramp] >= 1.0:
                continue
            trial = list(thresholds)
            trial[ramp] = min(1.0, trial[ramp] + step_sizes[ramp])
            candidate = _evaluate(errors, correct, trial, depths, overheads_ms, full_latency_ms)
            evaluations += 1
            if candidate.accuracy < min_accuracy:
                overstepped.append(ramp)
                continue
            gain = candidate.mean_savings_ms - best_eval.mean_savings_ms
            loss = max(best_eval.accuracy - candidate.accuracy, 0.0)
            if gain <= 0.0:
                continue
            score = gain / max(loss, _EPS_LOSS)
            if score > best_score:
                best_score = score
                best_ramp = ramp
                best_candidate_eval = candidate
                best_candidate_threshold = trial[ramp]

        if best_ramp is not None and best_candidate_eval is not None:
            thresholds[best_ramp] = best_candidate_threshold
            best_eval = best_candidate_eval
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

    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ThresholdTuningResult(thresholds=thresholds, evaluation=best_eval,
                                 rounds=rounds, evaluations=evaluations,
                                 runtime_ms=runtime_ms)


def mismatched_fields(fast: ThresholdTuningResult,
                      reference: ThresholdTuningResult) -> List[str]:
    """Names of the result fields on which two searches differ (exactly).

    ``runtime_ms`` is wall time and is not compared; every
    :class:`ConfigEvaluation` field is, arrays element for element.
    """
    mismatched = [name for name in ("thresholds", "rounds", "evaluations")
                  if getattr(fast, name) != getattr(reference, name)]
    for item in dataclasses.fields(ConfigEvaluation):
        a = getattr(fast.evaluation, item.name)
        b = getattr(reference.evaluation, item.name)
        same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        if not same or type(a) is not type(b):
            mismatched.append(f"evaluation.{item.name}")
    return mismatched
