import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import aupr_brute, auroc_brute, fpr_at_tpr_brute
from logicood.errors import ValidationError
from logicood.metrics import aupr, auroc, auroc_from_counts, evaluate_scores, fpr_at_tpr
from logicood.schema import Dataset, Schema

BIN1 = Schema((("p", ("false", "true")),))


def labeled(scores, flags):
    n = len(scores)
    return (
        Dataset(
            BIN1,
            np.zeros((n, 1), dtype=np.int64),
            tuple(str(i) for i in range(n)),
            None,
            np.asarray(flags, dtype=bool),
        ),
        np.asarray(scores, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# AUROC


def test_auroc_perfect():
    assert auroc([0, 1], [2, 3]) == 1.0


def test_auroc_all_ties():
    assert auroc([1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auroc_hand_case():
    # pairs: (2>1)=1, (2>3)=0, (4>1)=1, (4>3)=1 -> 3/4
    assert auroc([1, 3], [2, 4]) == 0.75


def test_auroc_empty_class():
    with pytest.raises(ValidationError):
        auroc([], [1.0])


@given(st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_auroc_matches_bruteforce(seed):
    r = np.random.default_rng(seed)
    ids = np.round(r.normal(size=r.integers(1, 40)), 1)  # rounding forces ties
    oods = np.round(r.normal(0.5, size=r.integers(1, 40)), 1)
    assert auroc(ids, oods) == pytest.approx(auroc_brute(ids, oods), abs=1e-12)


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_auroc_invariant_to_monotone_transform(seed):
    r = np.random.default_rng(seed)
    ids = r.normal(size=20)
    oods = r.normal(0.5, size=20)
    base = auroc(ids, oods)
    assert auroc(np.exp(ids), np.exp(oods)) == pytest.approx(base, abs=1e-12)
    assert auroc(3 * ids + 7, 3 * oods + 7) == pytest.approx(base, abs=1e-12)


def _expanded_auroc(scores, id_counts, ood_counts):
    return auroc(np.repeat(scores, id_counts), np.repeat(scores, ood_counts))


@given(st.integers(0, 5000), st.sampled_from(["integers", "tenths", "signed-zero-inf"]))
@settings(max_examples=80, deadline=None)
def test_auroc_from_counts_bit_equal_to_expanded_rows(seed, kind):
    r = np.random.default_rng(seed)
    k = int(r.integers(1, 25))
    if kind == "integers":  # heavy ties, also between distinct patterns
        scores = r.integers(-2, 3, size=k).astype(np.float64)
    elif kind == "tenths":
        scores = np.round(r.normal(size=k), 1)
    else:
        scores = r.choice([0.0, -0.0, 1.5, np.inf, -np.inf], size=k)
    # Many patterns have a zero ID or zero OOD count, some have both zero.
    id_counts = r.integers(0, 40, size=k) * (r.random(k) < 0.6)
    ood_counts = r.integers(0, 40, size=k) * (r.random(k) < 0.6)
    id_counts[r.integers(k)] += 1
    ood_counts[r.integers(k)] += 1
    expected = _expanded_auroc(scores, id_counts, ood_counts)
    assert auroc_from_counts(scores, id_counts, ood_counts) == expected


def test_auroc_from_counts_hand_cases():
    # One pattern per class: a strict order, then a full tie.
    assert auroc_from_counts([0.0, 1.0], [3, 0], [0, 2]) == 1.0
    assert auroc_from_counts([2.0, 2.0], [3, 0], [0, 2]) == 0.5
    scores, id_counts, ood_counts = [1.0, np.nan], [2, 1], [1, 0]
    assert np.isnan(auroc_from_counts(scores, id_counts, ood_counts))
    assert np.isnan(_expanded_auroc(scores, id_counts, ood_counts))
    # A score no row holds takes no part, even NaN.
    assert auroc_from_counts([1.0, np.nan, 2.0], [1, 0, 0], [0, 0, 1]) == 1.0


def test_auroc_from_counts_validation():
    with pytest.raises(ValidationError, match="non-empty"):
        auroc_from_counts([0.0, 1.0], [0, 0], [1, 2])
    with pytest.raises(ValidationError, match=">= 0"):
        auroc_from_counts([0.0, 1.0], [-1, 2], [1, 2])
    with pytest.raises(ValidationError, match="one length"):
        auroc_from_counts([0.0, 1.0], [1], [1, 2])


def test_auroc_role_swap_on_tie_free_data(rng):
    ids = rng.permutation(np.arange(30, dtype=float))
    oods = rng.permutation(np.arange(30, dtype=float) + 0.5)
    assert auroc(ids, oods) == pytest.approx(1.0 - auroc(oods, ids), abs=1e-12)


# ---------------------------------------------------------------------------
# FPR at TPR


def test_fpr95_perfect_separation():
    assert fpr_at_tpr([0, 1, 2], [10, 11, 12]) == 0.0


def test_fpr95_identical_distributions(rng):
    x = rng.normal(size=20_000)
    y = rng.normal(size=20_000)
    assert fpr_at_tpr(x, y) == pytest.approx(0.95, abs=0.01)


def test_fpr95_single_ood_sample():
    assert fpr_at_tpr([0.0, 1.0, 2.0, 3.0], [1.5]) == 0.5


@given(st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_fpr_matches_bruteforce(seed):
    r = np.random.default_rng(seed)
    ids = np.round(r.normal(size=r.integers(1, 60)), 1)
    oods = np.round(r.normal(0.3, size=r.integers(1, 60)), 1)
    target = r.choice([0.5, 0.8, 0.95, 1.0])
    assert fpr_at_tpr(ids, oods, target) == fpr_at_tpr_brute(ids, oods, target)


def test_fpr_bad_target():
    with pytest.raises(ValidationError):
        fpr_at_tpr([1.0], [2.0], 0.0)


# ---------------------------------------------------------------------------
# AUPR


def test_aupr_perfect():
    assert aupr([2, 3], [0, 1]) == 1.0


def test_aupr_single_positive_ranked_last():
    n = 5
    assert aupr([0.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(1 / n)


def test_aupr_random_scorer_near_prevalence(rng):
    pos = rng.random(20_000)
    neg = rng.random(20_000)
    assert aupr(pos, neg) == pytest.approx(0.5, abs=0.02)


@given(st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_aupr_matches_bruteforce(seed):
    r = np.random.default_rng(seed)
    pos = np.round(r.normal(0.3, size=r.integers(1, 50)), 1)
    neg = np.round(r.normal(size=r.integers(1, 50)), 1)
    assert aupr(pos, neg) == pytest.approx(aupr_brute(pos, neg), abs=1e-12)


# ---------------------------------------------------------------------------
# Aggregate evaluation


def test_evaluate_perfect_separation():
    data, scores = labeled([0.0, 0.1, 5.0, 6.0], [False, False, True, True])
    result = evaluate_scores(data, scores)
    assert (result.auroc, result.aupr_id, result.aupr_ood, result.fpr95) == (
        1.0,
        1.0,
        1.0,
        0.0,
    )
    assert (result.n_id, result.n_ood) == (2, 2)


def test_evaluate_constant_scores():
    data, scores = labeled([1.0] * 6, [False, False, False, True, True, True])
    assert evaluate_scores(data, scores).auroc == 0.5


def test_evaluate_random_matches_oracles(rng):
    n = 100
    flags = rng.random(n) < 0.4
    flags[0], flags[1] = False, True
    scores = np.round(rng.normal(size=n), 1)
    data, scores = labeled(scores, flags)
    result = evaluate_scores(data, scores)
    ids, oods = scores[~flags], scores[flags]
    assert result.auroc == pytest.approx(auroc_brute(ids, oods), abs=1e-12)
    assert result.fpr95 == fpr_at_tpr_brute(ids, oods)
    assert result.aupr_ood == pytest.approx(aupr_brute(oods, ids), abs=1e-12)
    assert result.aupr_id == pytest.approx(aupr_brute(-ids, -oods), abs=1e-12)


def test_evaluate_requires_flags():
    data, scores = labeled([1.0, 2.0], [True, False])
    bare = Dataset(data.schema, data.vectors, data.sample_ids)
    with pytest.raises(ValidationError, match="__is_ood"):
        evaluate_scores(bare, scores)


def test_evaluate_length_mismatch():
    data, scores = labeled([1.0, 2.0], [True, False])
    with pytest.raises(ValidationError):
        evaluate_scores(data, scores[:1])


def test_evaluate_one_class_missing():
    data, scores = labeled([1.0, 2.0], [True, True])
    with pytest.raises(ValidationError):
        evaluate_scores(data, scores)
