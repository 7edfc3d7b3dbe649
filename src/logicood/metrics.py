"""Binary OOD detection metrics.

Scores follow the "higher = more OOD" convention everywhere. AUROC uses
the Mann-Whitney rank statistic with ties counted one half; AUPR uses
step interpolation with tied scores as one step; FPR95 is the ID
false-positive rate at the loosest threshold reaching 95% true-positive
rate on OOD samples. Any NaN score makes AUROC and AUPR NaN; FPR95 never
counts a NaN score as reaching a threshold.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

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
        return asdict(self)


def _tie_table(scores, id_counts, ood_counts):
    """The one grouping of equal scores behind every metric: the distinct
    scores ascending (-0.0 equals 0.0, NaN last) with the ID and OOD row
    count of each, where scores[k] is held by id_counts[k] ID rows and
    ood_counts[k] OOD rows."""
    values, inverse = np.unique(scores, return_inverse=True)
    ids, oods = (
        np.bincount(inverse, counts, values.size).astype(np.int64)
        for counts in (id_counts, ood_counts)
    )
    if not ids.any() or not oods.any():
        raise ValidationError("both ID and OOD score lists must be non-empty")
    return values, ids, oods


def _row_table(id_scores, ood_scores):
    id_scores, ood_scores = (np.asarray(s, dtype=np.float64) for s in (id_scores, ood_scores))
    is_ood = np.repeat([False, True], [id_scores.size, ood_scores.size])
    return _tie_table(np.concatenate([id_scores, ood_scores]), ~is_ood, is_ood)


def _auroc(values, ids, oods) -> float:
    if np.isnan(values[-1]):
        return math.nan
    n_id, n_ood = int(ids.sum()), int(oods.sum())
    tied = ids + oods
    below = np.cumsum(tied) - tied
    # Twice the midrank of a tie block is 2 * below + tied + 1; the rank sum
    # stays an exact integer.
    twice_rank_sum = int(oods @ (2 * below + tied + 1))
    u = twice_rank_sum / 2 - n_ood * (n_ood + 1) / 2.0
    return float(u / (n_id * n_ood))


def _aupr(values, pos, neg) -> float:
    """AUPR from the positive and negative counts of the tie blocks of
    `values`, listed from the block ranked first to the block ranked last."""
    if np.isnan(values[-1]):
        return math.nan
    tp = np.cumsum(pos)
    precision = tp / np.cumsum(pos + neg)
    recall = tp / tp[-1]
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def _fpr(values, ids, oods, tpr_target) -> float:
    n_ood = int(oods.sum())
    k = math.ceil(tpr_target * n_ood)  # need at least k OOD samples >= threshold
    # The threshold is the (n_ood - k)-th smallest OOD score, NaN sorting last.
    first = np.searchsorted(np.cumsum(oods), n_ood - k, side="right")
    reached = ids[first:][~np.isnan(values[first:])]
    return float(reached.sum() / ids.sum())


def auroc(id_scores, ood_scores) -> float:
    """P(score_ood > score_id) + 0.5 * P(tie), via midranks in O(n log n)."""
    return _auroc(*_row_table(id_scores, ood_scores))


def auroc_from_counts(scores, id_counts, ood_counts) -> float:
    """auroc over rows grouped by score: scores[k] is held by id_counts[k]
    ID rows and ood_counts[k] OOD rows; equal scores may repeat. The
    result is bit-equal to auroc on the expanded rows.
    """
    scores = np.asarray(scores, dtype=np.float64)
    id_counts = np.asarray(id_counts, dtype=np.int64)
    ood_counts = np.asarray(ood_counts, dtype=np.int64)
    if scores.ndim != 1 or not scores.shape == id_counts.shape == ood_counts.shape:
        raise ValidationError("scores and both count arrays must be 1-d of one length")
    if np.any(id_counts < 0) or np.any(ood_counts < 0):
        raise ValidationError("row counts must be >= 0")
    held = id_counts + ood_counts > 0  # a score no row holds takes no part
    return _auroc(*_tie_table(scores[held], id_counts[held], ood_counts[held]))


def fpr_at_tpr(id_scores, ood_scores, tpr_target: float = 0.95) -> float:
    """FPR on ID at the largest threshold with TPR >= tpr_target on OOD."""
    if not 0.0 < tpr_target <= 1.0:
        raise ValidationError("tpr_target must be in (0, 1]")
    return _fpr(*_row_table(id_scores, ood_scores), tpr_target)


def aupr(scores_pos, scores_neg) -> float:
    """Area under precision-recall with step interpolation.

    `scores_pos` are the positive class; higher scores must rank positives
    first (negate scores to make ID the positive class).
    """
    values, neg, pos = _row_table(scores_neg, scores_pos)
    return _aupr(values, pos[::-1], neg[::-1])


def evaluate_scores(data: Dataset, scores) -> EvalResult:
    """All four metrics from a labeled dataset and matching score list."""
    if data.is_ood is None:
        raise ValidationError("dataset lacks the __is_ood column")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(data),):
        raise ValidationError(f"{scores.size} scores for {len(data)} rows")
    values, ids, oods = _tie_table(scores, ~data.is_ood, data.is_ood)
    return EvalResult(
        auroc=_auroc(values, ids, oods),
        aupr_id=_aupr(values, ids, oods),
        aupr_ood=_aupr(values, oods[::-1], ids[::-1]),
        fpr95=_fpr(values, ids, oods, 0.95),
        n_id=int(ids.sum()),
        n_ood=int(oods.sum()),
    )
