"""The metrics as they were computed before the shared tie-block table:
scipy midranks for AUROC, a sort for FPR95 and a Python step loop for
AUPR. Kept verbatim as the reference the table-based metrics are checked
against bit for bit."""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import rankdata

from logicood.errors import ValidationError


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

