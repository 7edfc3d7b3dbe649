"""Fusing the constraint-based score with a normalized detector score.

The fused score is mln_score(z) * survival(detector_score): the semantic
implausibility of the input scaled by how rare its neural representation
is among ID samples. Thresholding declares an outlier when the score is
at or above tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ScoreDistribution, survival
from .errors import ValidationError
from .mln import MlnModel, mln_score_batch
from .schema import Dataset


@dataclass(frozen=True)
class FusedScorer:
    model: MlnModel
    distribution: ScoreDistribution


def fuse_batch(scorer: FusedScorer, data: Dataset) -> np.ndarray:
    if data.schema != scorer.model.schema:
        raise ValidationError("dataset schema differs from the model's")
    if data.detector_scores is None:
        raise ValidationError("dataset lacks the __detector_score column")
    if not np.all(np.isfinite(data.detector_scores)):
        raise ValidationError("dataset contains non-finite detector scores")
    semantic = mln_score_batch(scorer.model, data.vectors)
    return semantic * survival(scorer.distribution, data.detector_scores)


def threshold(scores, tau: float) -> np.ndarray:
    """Outlier decision per score: True iff score >= tau."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    if not np.isfinite(tau):
        raise ValidationError(f"threshold must be finite, got {tau}")
    return scores >= tau
