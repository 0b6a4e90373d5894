"""Synthetic prediction model: input difficulty -> per-ramp confidence.

The real system attaches small classifier ramps to intermediate layers and
compares the entropy of each ramp's prediction against a threshold.  Without
trained networks we model the quantity that matters to Apparate's algorithms:
for every input there is an *earliest depth* at which the original model's
prediction has emerged, and ramp confidence improves monotonically with depth
past that point.

Concretely, each input carries a latent ``raw difficulty`` in ``[0, 1]``
produced by the workload generator.  A model with overparameterization
``headroom`` maps it to an **effective difficulty**

    d = 1 - headroom + headroom * raw

interpreted as the fraction of model depth required before the ramp prediction
agrees with the final model.  A ramp at depth fraction ``p`` then reports an
entropy-like error score

    error(p) = sigmoid((d - p) / sharpness)

which decreases smoothly in ``p`` (sharpness is a per-input trait).  A ramp
exits when ``error < threshold``, so threshold 0 never exits and larger
thresholds exit strictly more inputs — the monotonicity property exploited by
the hill-climbing threshold search (§3.2).  The ramp's prediction matches the
original model's output iff ``p >= d``; below that depth it is correct only at
a small confusion rate.  This preserves the second property Apparate leans on:
later ramps exhibit exit rates at least as high as earlier ones (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.models.zoo import ModelSpec

__all__ = ["RampObservation", "PredictionModel", "effective_difficulty", "ramp_error_score"]

# Probability that a ramp placed before the input's required depth happens to
# agree with the original model anyway (label confusion floor).
_GUESS_AGREEMENT = 0.05


def effective_difficulty(raw_difficulty: np.ndarray | float, headroom: float) -> np.ndarray | float:
    """Map workload difficulty to the fraction of model depth an input needs."""
    return 1.0 - headroom + headroom * np.clip(raw_difficulty, 0.0, 1.0)


def ramp_error_score(difficulty: np.ndarray | float, depth: np.ndarray | float,
                     sharpness: np.ndarray | float = 0.06,
                     confidence_shift: np.ndarray | float = 0.0) -> np.ndarray | float:
    """Entropy-like error score of a ramp at ``depth`` for the given difficulty.

    ``confidence_shift`` models miscalibration: a positive shift lowers the
    reported error (over-confidence), so a fixed threshold admits inputs it
    should not; a negative shift raises it (under-confidence), suppressing
    exits that would have been correct.  Correctness itself is unaffected —
    only the confidence signal moves — which is exactly why statically tuned
    thresholds degrade under drift while Apparate's feedback-driven re-tuning
    does not.
    """
    z = (np.asarray(difficulty, dtype=float) - np.asarray(depth, dtype=float)) / np.maximum(
        np.asarray(sharpness, dtype=float), 1e-6)
    raw = 1.0 / (1.0 + np.exp(-z))
    return np.clip(raw - np.asarray(confidence_shift, dtype=float), 0.0, 1.0)


@dataclass(frozen=True)
class RampObservation:
    """What the controller records for one (input, ramp) pair (§3.2).

    Attributes
    ----------
    ramp_id:
        Identifier of the ramp (its position index in the model).
    depth_fraction:
        Fraction of model latency elapsed at the ramp.
    error_score:
        Entropy-style error of the ramp's top prediction (lower = more
        confident); the ramp exits when this is *below* its threshold.
    correct:
        Whether the ramp's top prediction matches the original model's output
        (Apparate always has this because inputs run to completion).
    """

    ramp_id: int
    depth_fraction: float
    error_score: float
    correct: bool

    def would_exit(self, threshold: float) -> bool:
        """Whether this observation exits under ``threshold``."""
        return self.error_score < threshold


class PredictionModel:
    """Per-model synthetic prediction behaviour.

    Parameters
    ----------
    spec:
        Model whose overparameterization (``headroom``) shapes difficulty.
    seed:
        Seed for the confusion-floor draws (kept separate from workloads so
        that the same workload replayed on two models stays comparable).
    """

    def __init__(self, spec: ModelSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)

    def _confusion_draw(self, raw_difficulty: float, depth_fraction: float) -> float:
        """Deterministic pseudo-uniform used for the confusion floor.

        Determinism matters: the oracle baseline and the controller's replay
        evaluation must see the same correctness for the same (input, ramp)
        pair, otherwise accuracy accounting would drift between passes.
        """
        key = (self.seed, round(float(raw_difficulty), 9), round(float(depth_fraction), 9))
        return (hash(key) & 0xFFFFFFFF) / float(0x100000000)

    # ------------------------------------------------------------ per input
    def required_depth(self, raw_difficulty: float) -> float:
        """Earliest depth fraction at which this input's prediction emerges."""
        return float(effective_difficulty(raw_difficulty, self.spec.headroom))

    def required_depths(self, raw_difficulties: Sequence[float]) -> np.ndarray:
        return np.asarray(effective_difficulty(np.asarray(raw_difficulties, dtype=float),
                                               self.spec.headroom))

    def error_score(self, raw_difficulty: float, depth_fraction: float,
                    sharpness: float = 0.06, confidence_shift: float = 0.0) -> float:
        """Error score of a ramp at ``depth_fraction`` for this input."""
        d = self.required_depth(raw_difficulty)
        return float(ramp_error_score(d, depth_fraction, sharpness, confidence_shift))

    def is_correct(self, raw_difficulty: float, depth_fraction: float) -> bool:
        """Whether a ramp at ``depth_fraction`` matches the original model."""
        return self._agrees(raw_difficulty, self.required_depth(raw_difficulty), depth_fraction)

    def _agrees(self, raw_difficulty: float, required_depth: float,
                depth_fraction: float) -> bool:
        if depth_fraction >= required_depth:
            return True
        return self._confusion_draw(raw_difficulty, depth_fraction) < _GUESS_AGREEMENT

    # ----------------------------------------------------------- per request
    def observe(self, raw_difficulty: float, sharpness: float,
                ramp_ids: Sequence[int], ramp_depths: Sequence[float],
                confidence_shift: float = 0.0) -> List[RampObservation]:
        """Produce the observations recorded for one input at active ramps.

        Observations are produced for *every* active ramp regardless of
        upstream exits, because with Apparate all inputs run to the end of the
        model (§3).
        """
        d = self.required_depth(raw_difficulty)
        depths = list(ramp_depths)
        # One vectorized score over all ramps; element for element it equals
        # the scalar ``error_score`` (same ``np.exp``/``np.clip`` ufuncs).
        errors = np.atleast_1d(ramp_error_score(d, np.asarray(depths, dtype=float),
                                                sharpness, confidence_shift))
        return [RampObservation(ramp_id=int(ramp_id), depth_fraction=float(depth),
                                error_score=float(err),
                                correct=self._agrees(raw_difficulty, d, depth))
                for ramp_id, depth, err in zip(ramp_ids, depths, errors)]

    def exit_depth(self, raw_difficulty: float, sharpness: float,
                   ramp_depths: Sequence[float], thresholds: Sequence[float],
                   confidence_shift: float = 0.0) -> float | None:
        """Depth fraction of the earliest ramp that exits, or ``None``.

        This mirrors the runtime exiting rule: walk ramps in order and exit at
        the first one whose error score is below its threshold.
        """
        d = self.required_depth(raw_difficulty)
        for depth, threshold in zip(ramp_depths, thresholds):
            if threshold <= 0.0:
                continue
            if float(ramp_error_score(d, depth, sharpness, confidence_shift)) < threshold:
                return float(depth)
        return None
