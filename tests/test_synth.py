import math

import numpy as np
import pytest

from logicood.constraints import compile_source
from logicood.distributions import ScoreDistribution, quantile
from logicood.errors import ValidationError
from logicood.metrics import auroc
from logicood.mln import FitConfig, MlnModel, fit_weights
from logicood.schema import schema_from_dict
from logicood.synth import (
    DetectorSpec,
    SynthSpec,
    attach_detector_scores,
    make_benchmark,
    sample_id,
    sample_ood,
)

BIN2 = schema_from_dict({"p": "binary", "q": "binary"})


def mln_model(schema, sources, weights):
    cons = tuple(compile_source(s, schema, i) for i, s in enumerate(sources))
    return MlnModel(schema, cons, np.asarray(weights, dtype=np.float64))


def spec(sources=("p",), weights=(0.0,), schema=BIN2, **kwargs):
    model = mln_model(schema, list(sources), list(weights))
    defaults = dict(n_id=1000, n_ood=1000, seed=1)
    defaults.update(kwargs)
    return SynthSpec(schema, model, **defaults)


def world_counts(data):
    keys = [tuple(row) for row in data.vectors]
    return {k: keys.count(k) for k in set(keys)}


def test_sample_id_uniform_at_zero_weights():
    n = 100_000
    data = sample_id(spec(weights=(0.0,), n_id=n))
    counts = world_counts(data)
    expected = n / 4
    sigma = math.sqrt(n * 0.25 * 0.75)
    for count in counts.values():
        assert abs(count - expected) < 4 * sigma


def test_sample_id_logistic_rate():
    n = 10_000
    data = sample_id(spec(weights=(math.log(3),), n_id=n))
    rate = np.mean(data.vectors[:, 0] == 1)
    assert rate == pytest.approx(0.75, abs=0.01)


def test_sample_id_deterministic():
    s = spec(weights=(1.0,), seed=42)
    a, b = sample_id(s), sample_id(s)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.sample_ids == b.sample_ids


def test_sample_ood_uniform_counts():
    n = 40_000
    data = sample_ood(spec(weights=(5.0,), n_ood=n))
    counts = world_counts(data)
    sigma = math.sqrt(n * 0.25 * 0.75)
    for count in counts.values():
        assert abs(count - n / 4) < 4 * sigma
    assert np.all(data.is_ood)


def test_sample_ood_alternate_model_violates_planted_rule():
    schema = BIN2
    planted = "p -> q"
    truth = mln_model(schema, [planted], [2.5])
    anti = mln_model(schema, ["not (p -> q)"], [2.5])
    s = SynthSpec(schema, truth, n_id=5000, n_ood=5000,
                  ood_mode="alternate_mln", alternate_model=anti, seed=3)
    rule = compile_source(planted, schema)
    id_rate = rule.evaluate_batch(sample_id(s).vectors).mean()
    ood_rate = rule.evaluate_batch(sample_ood(s).vectors).mean()
    assert ood_rate < id_rate


def test_alternate_mode_requires_model():
    with pytest.raises(ValidationError, match="alternate_model"):
        spec(ood_mode="alternate_mln")


def test_attach_detector_scores_distribution_split():
    det = DetectorSpec(
        "gev", {"location": 0.0, "scale": 1.0, "shape": 0.0},
        {"location": 3.0, "scale": 1.0, "shape": 0.0},
    )
    s = spec(detector=det, n_id=20_000, n_ood=20_000)
    data = make_benchmark(s)
    ids = data.detector_scores[~data.is_ood]
    oods = data.detector_scores[data.is_ood]
    # Monte Carlo oracle for P(S_ood > S_id) with the same laws.
    rng = np.random.default_rng(99)
    mc_id = quantile(det.id_distribution(), rng.random(1_000_000))
    mc_ood = quantile(det.ood_distribution(), rng.random(1_000_000))
    expected = np.mean(mc_ood > mc_id)
    assert auroc(ids, oods) == pytest.approx(expected, abs=0.01)


def test_attach_identical_laws_auroc_half():
    det = DetectorSpec(
        "normal", {"mean": 0.0, "std": 1.0}, {"mean": 0.0, "std": 1.0}
    )
    data = make_benchmark(spec(detector=det, n_id=20_000, n_ood=20_000))
    ids = data.detector_scores[~data.is_ood]
    oods = data.detector_scores[data.is_ood]
    assert auroc(ids, oods) == pytest.approx(0.5, abs=0.01)


def test_attach_point_mass_laws_separate():
    det = DetectorSpec("uniform", {"a": 0.0, "b": 1e-9}, {"a": 5.0, "b": 5.0 + 1e-9})
    data = make_benchmark(spec(detector=det, n_id=100, n_ood=100))
    ids = data.detector_scores[~data.is_ood]
    oods = data.detector_scores[data.is_ood]
    assert auroc(ids, oods) == 1.0


def test_attach_requires_flags():
    det = DetectorSpec("normal", {"mean": 0.0, "std": 1.0}, {"mean": 1.0, "std": 1.0})
    s = spec(detector=det)
    data = sample_id(s)
    from logicood.schema import Dataset

    bare = Dataset(data.schema, data.vectors, data.sample_ids)
    with pytest.raises(ValidationError, match="flagged"):
        attach_detector_scores(bare, s)


def test_end_to_end_weight_recovery():
    schema = schema_from_dict({f"c{i}": "binary" for i in range(4)})
    sources = ["c0", "c0 -> c1", "c2 or c3", "c1 xor c2"]
    true_weights = [1.5, -0.8, 2.0, 0.7]
    truth = mln_model(schema, sources, true_weights)
    s = SynthSpec(schema, truth, n_id=100_000, n_ood=1, seed=11)
    data = sample_id(s)
    start = mln_model(schema, sources, [0.0] * 4)
    result = fit_weights(start, data, FitConfig(max_epochs=500))
    assert np.allclose(result.model.weights, true_weights, atol=0.05)
