import math

import numpy as np
import pytest

from logicood.constraints import compile_source
from logicood.distributions import ScoreDistribution, survival
from logicood.errors import ValidationError
from logicood.fusion import FusedScorer, fuse_batch, threshold
from logicood.mln import MlnModel, mln_score, mln_score_batch
from logicood.schema import Dataset, Schema

BIN2 = Schema((("p", ("false", "true")), ("q", ("false", "true"))))
GUMBEL = ScoreDistribution("gev", {"location": 0.0, "scale": 1.0, "shape": 0.0})
NONE = ScoreDistribution("none", {})


def make_model(weights=(2.0, 1.0)):
    cons = tuple(
        compile_source(s, BIN2, i) for i, s in enumerate(["p", "p -> q"])
    )
    return MlnModel(BIN2, cons, np.asarray(weights, dtype=np.float64))


def make_data(rng, n=200, with_scores=True):
    vectors = rng.integers(0, 2, size=(n, 2))
    return Dataset(
        BIN2,
        vectors.astype(np.int64),
        tuple(str(i) for i in range(n)),
        rng.normal(size=n) if with_scores else None,
        rng.random(n) < 0.5,
    )


def one_world(detector_scores, z=(1, 1)):
    """Rows that all hold world z, one per detector score."""
    n = len(detector_scores)
    return Dataset(
        BIN2,
        np.tile(np.asarray(z, dtype=np.int64), (n, 1)),
        tuple(str(i) for i in range(n)),
        np.asarray(detector_scores, dtype=np.float64),
    )


def test_fuse_batch_identity_factor():
    scorer = FusedScorer(make_model(), NONE)
    assert fuse_batch(scorer, one_world([123.0])).tolist() == [-3.0]


def test_fuse_batch_halving():
    # survival 0.5 at the Gumbel median ~0.3665
    median = -math.log(math.log(2))
    scorer = FusedScorer(make_model(), GUMBEL)
    fused = fuse_batch(scorer, one_world([median]))
    assert fused[0] == pytest.approx(-1.5)


def test_fuse_batch_non_finite_rejected():
    scorer = FusedScorer(make_model(), GUMBEL)
    with pytest.raises(ValidationError, match="non-finite detector scores"):
        fuse_batch(scorer, one_world([0.5, float("nan")]))


def test_fuse_batch_matches_scalar_bit_exact(rng):
    scorer = FusedScorer(make_model(), GUMBEL)
    data = make_data(rng, 500)
    fused = fuse_batch(scorer, data)
    for i in range(len(data)):
        row = mln_score(scorer.model, data.vectors[i])
        assert fused[i] == row * survival(scorer.distribution, data.detector_scores[i])


def test_fuse_batch_requires_detector_column(rng):
    scorer = FusedScorer(make_model(), GUMBEL)
    with pytest.raises(ValidationError, match="__detector_score"):
        fuse_batch(scorer, make_data(rng, 10, with_scores=False))


def test_fuse_batch_rejects_dataset_of_another_schema(rng):
    scorer = FusedScorer(make_model(), GUMBEL)
    qp = Schema((("q", ("false", "true")), ("p", ("false", "true"))))
    data = make_data(rng, 10)
    other = Dataset(qp, data.vectors, data.sample_ids, data.detector_scores, data.is_ood)
    with pytest.raises(ValidationError, match="schema differs"):
        fuse_batch(scorer, other)


def test_fuse_single_row(rng):
    scorer = FusedScorer(make_model(), GUMBEL)
    data = make_data(rng, 1)
    assert fuse_batch(scorer, data).shape == (1,)


def test_fused_monotone_in_detector_score():
    # Same semantics, negative MLN score: a higher detector score cannot
    # decrease the fused score.
    scorer = FusedScorer(make_model(), GUMBEL)
    low, high = fuse_batch(scorer, one_world([-1.0, 2.0]))
    assert high >= low


def test_none_family_preserves_mln_ranking(rng):
    scorer = FusedScorer(make_model(), NONE)
    data = make_data(rng, 300)
    fused = fuse_batch(scorer, data)
    mln = mln_score_batch(scorer.model, data.vectors)
    assert np.array_equal(np.argsort(fused, kind="stable"), np.argsort(mln, kind="stable"))


def test_constant_negative_mln_tracks_detector_ranking(rng):
    # With no constraints satisfied-variation (constant MLN score -w), the
    # fused ranking is the reverse-survival, i.e. detector, ranking.
    cons = (compile_source("p or not p", BIN2),)
    model = MlnModel(BIN2, cons, np.array([3.0]))
    scorer = FusedScorer(model, GUMBEL)
    data = make_data(rng, 300)
    fused = fuse_batch(scorer, data)
    det = data.detector_scores
    order_fused = np.argsort(fused, kind="stable")
    order_det = np.argsort(det, kind="stable")
    assert np.array_equal(order_fused, order_det)


def test_threshold_boundary():
    assert threshold([-5.0, -1.0, 0.0], 0.0).tolist() == [False, False, True]


def test_threshold_extremes():
    scores = [-5.0, -1.0, 0.0]
    assert threshold(scores, -1e300).tolist() == [True, True, True]
    assert threshold(scores, 1.0).tolist() == [False, False, False]


def test_threshold_rejects_non_finite():
    with pytest.raises(ValidationError):
        threshold([float("inf")], 0.0)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_threshold_rejects_a_non_finite_tau(tau):
    with pytest.raises(ValidationError, match="threshold must be finite"):
        threshold([0.1, 0.9], tau)
