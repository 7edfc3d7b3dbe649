import math
import sys

import numpy as np
import pytest
import synth_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from logicood.constraints import And, Atom, Implies, Not, Or, Xor, compile_constraint, compile_source
from logicood.distributions import ScoreDistribution, quantile
from logicood.errors import SpaceCapError, ValidationError
from logicood.metrics import auroc
from logicood.mln import FitConfig, MlnModel, fit_weights
from logicood.schema import BINARY_DOMAIN, Schema, schema_from_dict
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


def test_spec_refuses_a_model_of_another_schema():
    swapped = schema_from_dict({"y": "binary", "x": "binary"})
    with pytest.raises(ValidationError, match="^model: compiled against another schema"):
        SynthSpec(BIN2, mln_model(swapped, ["x"], [5.0]), n_id=200, n_ood=1)
    three = schema_from_dict({"p": ["a", "b", "c"], "q": "binary"})
    with pytest.raises(ValidationError, match="^model: compiled against another schema"):
        SynthSpec(BIN2, mln_model(three, ["p=c"], [1.0]), n_id=1, n_ood=1)
    with pytest.raises(ValidationError, match="^alternate_model: compiled against another schema"):
        SynthSpec(BIN2, mln_model(BIN2, ["p"], [1.0]), n_id=1, n_ood=1,
                  ood_mode="alternate_mln", alternate_model=mln_model(swapped, ["x"], [1.0]))


@st.composite
def synth_specs(draw):
    """A spec over binary and 3- to 5-valued concepts, whose models may be
    empty, in either OOD mode, with a cap the space may exceed."""
    sizes = draw(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=6))
    schema = Schema(
        tuple(
            (f"c{i}", BINARY_DOMAIN if size == 2 else tuple(f"v{j}" for j in range(size)))
            for i, size in enumerate(sizes)
        )
    )
    leaves = st.builds(
        lambda ci, vi: Atom(f"c{ci}", schema.domain(ci)[vi % sizes[ci]]),
        st.integers(0, len(sizes) - 1),
        st.integers(0, 4),
    )
    trees = st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(Not, kids), *(st.builds(cls, kids, kids) for cls in (And, Or, Xor, Implies))
        ),
        max_leaves=6,
    )

    def model():
        kb = draw(st.lists(trees, max_size=4))
        weights = draw(st.lists(st.floats(-8, 8), min_size=len(kb), max_size=len(kb)))
        return MlnModel(schema, tuple(compile_constraint(t, schema, None, i) for i, t in enumerate(kb)),
                        np.asarray(weights, dtype=np.float64))

    space = math.prod(sizes)
    ood_mode = draw(st.sampled_from(["uniform_over_Z", "alternate_mln"]))
    detector = draw(st.sampled_from([None, DetectorSpec(
        "normal", {"mean": 0.0, "std": 1.0}, {"mean": 2.0, "std": 0.5})]))
    return SynthSpec(
        schema,
        model(),
        n_id=draw(st.integers(1, 40)),
        n_ood=draw(st.integers(1, 40)),
        ood_mode=ood_mode,
        alternate_model=model() if ood_mode == "alternate_mln" else None,
        detector=detector,
        seed=draw(st.integers(0, 2**32)),
        space_cap=draw(st.integers(max(1, space // 2), 2 * space)),
    )


@given(synth_specs())
@settings(max_examples=150, deadline=None)
def test_benchmark_equals_the_enumerating_sampler_bit_for_bit(s):
    try:
        expected = synth_reference.make_benchmark(s)
    except SpaceCapError as exc:
        with pytest.raises(SpaceCapError) as got:
            make_benchmark(s)
        assert str(got.value) == str(exc)
        return
    data = make_benchmark(s)
    assert data.schema == expected.schema
    assert data.vectors.dtype == expected.vectors.dtype
    assert data.vectors.tobytes() == expected.vectors.tobytes()
    assert data.sample_ids == expected.sample_ids
    assert data.is_ood.tobytes() == expected.is_ood.tobytes()
    if s.detector is None:
        assert data.detector_scores is None and expected.detector_scores is None
    else:
        assert data.detector_scores.tobytes() == expected.detector_scores.tobytes()


def test_benchmark_over_no_concepts_equals_the_enumerating_sampler():
    """The one world of no concepts is the empty row, in either OOD mode."""
    schema = Schema(())
    empty = MlnModel(schema, (), np.zeros(0))
    for kwargs in ({}, {"ood_mode": "alternate_mln", "alternate_model": empty}):
        s = SynthSpec(schema, empty, n_id=3, n_ood=2, **kwargs)
        data, expected = make_benchmark(s), synth_reference.make_benchmark(s)
        assert data.vectors.shape == expected.vectors.shape == (5, 0)
        assert data.sample_ids == expected.sample_ids
        assert data.is_ood.tobytes() == expected.is_ood.tobytes()


def test_benchmark_enumerates_and_evaluates_no_world(monkeypatch):
    """Synthesis reads the constraints' own tables: with the enumeration
    and the satisfaction matrix refused wherever the package binds them,
    a benchmark is still made."""

    def refuse(*args, **kwargs):
        raise AssertionError("a world was enumerated or evaluated")

    for name, module in list(sys.modules.items()):
        if name == "logicood" or name.startswith("logicood."):
            for attr in ("enumerate_space", "satisfaction_matrix"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    schema = schema_from_dict({"p": "binary", "q": ["a", "b", "c"], "r": "binary"})
    truth = mln_model(schema, ["p -> q=c", "r xor p"], [1.5, -0.5])
    anti = mln_model(schema, ["not (p -> q=c)"], [2.0])
    det = DetectorSpec("normal", {"mean": 0.0, "std": 1.0}, {"mean": 1.0, "std": 1.0})
    for kwargs in ({}, {"ood_mode": "alternate_mln", "alternate_model": anti}):
        data = make_benchmark(SynthSpec(schema, truth, n_id=50, n_ood=30, detector=det, **kwargs))
        assert len(data) == 80 and data.is_ood.sum() == 30
