"""FREE-style generative early exiting (§4.4, Figure 18).

FREE (Bae et al., EMNLP'23) attaches a single fixed ramp to a generative
model, fine-tunes against it, and picks the ramp position and threshold once
on a representative dataset (the first ~3% of samples) subject to a 1%
accuracy constraint.  There is no runtime adaptation, so workload drift can
push accuracy below the constraint (the paper measures up to 5.5% loss) while
Apparate's adaptive ramp stays within it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.generative import generative_ramp_depths
from repro.generative.parallel import TokenFeedback
from repro.generative.sequences import GenerativeWorkload
from repro.models.prediction import PredictionModel, ramp_error_score
from repro.models.zoo import ModelSpec
from repro.serving.hf_pipelines import TokenDecision

__all__ = ["FreeTokenPolicy", "calibrate_free_policy"]

#: Leading share of the workload's sequences FREE calibrates on.
CALIBRATION_FRACTION = 0.03


@dataclass
class FreeTokenPolicy:
    """Single fixed ramp with a fixed threshold; no adaptation."""

    prediction: PredictionModel
    ramp_depth: float
    threshold: float

    def decide(self, sequence_id: int, token_index: int, raw_difficulty: float,
               sharpness: float) -> TokenDecision:
        error = self.prediction.error_score(raw_difficulty, self.ramp_depth, sharpness)
        correct = self.prediction.is_correct(raw_difficulty, self.ramp_depth)
        exited = self.threshold > 0.0 and error < self.threshold
        return TokenDecision(exited=exited, exit_depth=self.ramp_depth if exited else None,
                             error_score=error, correct=correct)

    def feedback(self, records: Sequence[TokenFeedback]) -> None:
        return None   # FREE performs no runtime adaptation.


def calibrate_free_policy(prediction: PredictionModel, workload: GenerativeWorkload,
                          candidate_depths: Sequence[float],
                          accuracy_constraint: float = 0.01,
                          calibration_fraction: float = CALIBRATION_FRACTION
                          ) -> Tuple[float, float]:
    """One-time (depth, threshold) selection on the leading slice of the workload.

    The pair maximizing expected per-token savings (exit rate times depth
    saved) subject to the accuracy constraint on the calibration tokens wins.
    """
    num_calibration = max(1, int(len(workload.sequences) * calibration_fraction))
    difficulties: List[float] = []
    sharpness: List[float] = []
    for sample in workload.sequences[:num_calibration]:
        difficulties.extend(sample.token_difficulty.tolist())
        sharpness.extend(sample.token_sharpness.tolist())
    required = prediction.required_depths(difficulties)
    sharpness_arr = np.asarray(sharpness, dtype=float)

    best_depth = sorted(candidate_depths)[len(candidate_depths) // 2]
    best_threshold = 0.0
    best_savings = -np.inf
    n = max(required.size, 1)
    for depth in sorted(candidate_depths):
        errors = np.asarray(ramp_error_score(required, depth, sharpness_arr))
        correct = required <= depth
        for threshold in np.arange(0.05, 0.99, 0.05):
            exits = errors < threshold
            num_exited = int(exits.sum())
            accuracy = (int(correct[exits].sum()) + (n - num_exited)) / n
            if accuracy < 1.0 - accuracy_constraint:
                continue
            savings = num_exited * (1.0 - depth)
            if savings > best_savings:
                best_savings = savings
                best_depth = float(depth)
                best_threshold = float(threshold)
    return best_depth, best_threshold


def _calibrated_free_policy(spec: ModelSpec, workload: GenerativeWorkload,
                            accuracy_constraint: float,
                            seed: int) -> FreeTokenPolicy:
    """FREE's policy for a run: one (depth, threshold) pair calibrated once
    on the leading workload slice, shared frozen by every decode replica
    (including any the autoscaler boots mid-run)."""
    prediction = PredictionModel(spec, seed=seed)
    depths = generative_ramp_depths(spec, seed=seed)
    depth, threshold = calibrate_free_policy(prediction, workload, depths,
                                             accuracy_constraint=accuracy_constraint)
    return FreeTokenPolicy(prediction=prediction, ramp_depth=depth,
                           threshold=threshold)
