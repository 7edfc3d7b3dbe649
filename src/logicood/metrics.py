"""Binary OOD detection metrics.

Scores follow the "higher = more OOD" convention everywhere. AUROC uses
the Mann-Whitney rank statistic with ties counted one half; AUPR uses
step interpolation; FPR95 is the ID false-positive rate at the loosest
threshold reaching 95% true-positive rate on OOD samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .errors import ValidationError
from .schema import Dataset


@dataclass(frozen=True)
class EvalResult:
    auroc: float
    aupr_id: float
    aupr_ood: float
    fpr95: float
    n_id: int
    n_ood: int

    def to_json_dict(self):
        return {
            "auroc": self.auroc,
            "aupr_id": self.aupr_id,
            "aupr_ood": self.aupr_ood,
            "fpr95": self.fpr95,
            "n_id": self.n_id,
            "n_ood": self.n_ood,
        }


def _check_classes(id_scores, ood_scores):
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ValidationError("both ID and OOD score lists must be non-empty")
    return id_scores, ood_scores


def auroc(id_scores, ood_scores) -> float:
    """P(score_ood > score_id) + 0.5 * P(tie), via midranks in O(n log n)."""
    id_scores, ood_scores = _check_classes(id_scores, ood_scores)
    n_id, n_ood = id_scores.size, ood_scores.size
    ranks = rankdata(np.concatenate([ood_scores, id_scores]))
    rank_sum = ranks[:n_ood].sum()
    u = rank_sum - n_ood * (n_ood + 1) / 2.0
    return float(u / (n_id * n_ood))


def auroc_from_counts(scores, id_counts, ood_counts) -> float:
    """auroc over rows grouped by score: scores[k] is held by id_counts[k]
    ID rows and ood_counts[k] OOD rows; equal scores may repeat.

    Rank sums are kept as exact integers (twice each midrank), so the
    result is bit-equal to auroc on the expanded rows.
    """
    scores = np.asarray(scores, dtype=np.float64)
    id_counts = np.asarray(id_counts, dtype=np.int64)
    ood_counts = np.asarray(ood_counts, dtype=np.int64)
    if scores.ndim != 1 or not scores.shape == id_counts.shape == ood_counts.shape:
        raise ValidationError("scores and both count arrays must be 1-d of one length")
    if np.any(id_counts < 0) or np.any(ood_counts < 0):
        raise ValidationError("row counts must be >= 0")
    n_id, n_ood = int(id_counts.sum()), int(ood_counts.sum())
    if n_id == 0 or n_ood == 0:
        raise ValidationError("both ID and OOD score lists must be non-empty")
    if np.isnan(scores[id_counts + ood_counts > 0]).any():
        return math.nan  # rankdata propagates NaN to every rank
    order = np.argsort(scores, kind="stable")
    scores = scores[order]
    starts = np.flatnonzero(np.append(True, scores[1:] != scores[:-1]))
    ood = np.add.reduceat(ood_counts[order], starts)
    tied = np.add.reduceat(id_counts[order], starts) + ood
    below = np.cumsum(tied) - tied
    # Twice the midrank of a tie block is 2 * below + tied + 1.
    twice_rank_sum = int(ood @ (2 * below + tied + 1))
    u = twice_rank_sum / 2 - n_ood * (n_ood + 1) / 2.0
    return float(u / (n_id * n_ood))


def fpr_at_tpr(id_scores, ood_scores, tpr_target: float = 0.95) -> float:
    """FPR on ID at the largest threshold with TPR >= tpr_target on OOD."""
    if not 0.0 < tpr_target <= 1.0:
        raise ValidationError("tpr_target must be in (0, 1]")
    id_scores, ood_scores = _check_classes(id_scores, ood_scores)
    n_ood = ood_scores.size
    k = math.ceil(tpr_target * n_ood)  # need at least k OOD samples >= threshold
    tau = np.sort(ood_scores)[n_ood - k]
    return float(np.mean(id_scores >= tau))


def aupr(scores_pos, scores_neg) -> float:
    """Area under precision-recall with step interpolation.

    `scores_pos` are the positive class; higher scores must rank positives
    first (negate scores to make ID the positive class).
    """
    scores_pos, scores_neg = _check_classes(scores_pos, scores_neg)
    scores = np.concatenate([scores_pos, scores_neg])
    labels = np.concatenate(
        [np.ones(scores_pos.size, dtype=bool), np.zeros(scores_neg.size, dtype=bool)]
    )
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]

    tp = np.cumsum(labels)
    predicted = np.arange(1, scores.size + 1)
    # Evaluate only at the last index of each tied score block.
    block_end = np.nonzero(np.append(np.diff(scores) != 0, True))[0]
    precision = tp[block_end] / predicted[block_end]
    recall = tp[block_end] / scores_pos.size

    area = 0.0
    prev_recall = 0.0
    for p, r in zip(precision, recall):
        area += (r - prev_recall) * p
        prev_recall = r
    return float(area)


def evaluate_scores(data: Dataset, scores) -> EvalResult:
    """All four metrics from a labeled dataset and matching score list."""
    if data.is_ood is None:
        raise ValidationError("dataset lacks the __is_ood column")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(data),):
        raise ValidationError(
            f"{scores.size} scores for {len(data)} rows"
        )
    id_scores = scores[~data.is_ood]
    ood_scores = scores[data.is_ood]
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ValidationError("dataset must contain both ID and OOD rows")
    return EvalResult(
        auroc=auroc(id_scores, ood_scores),
        aupr_id=aupr(-id_scores, -ood_scores),
        aupr_ood=aupr(ood_scores, id_scores),
        fpr95=fpr_at_tpr(id_scores, ood_scores),
        n_id=int(id_scores.size),
        n_ood=int(ood_scores.size),
    )


def save_eval_result(result: EvalResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json_dict(), fh, indent=2)
        fh.write("\n")
