"""A Dataset's row form, narrow unsigned cells in column-major order,
against the C-order int64 matrix of the same rows: every score,
explanation, world count and fit is bit-equal on both."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicood.constraints import And, Atom, Implies, Not, Or, Xor, compile_constraint, compile_source
from logicood.mln import (
    MlnModel,
    WorldCounts,
    explain,
    explain_batch,
    fit_weights,
    mln_score,
    mln_score_batch,
)
from logicood.schema import BINARY_DOMAIN, Dataset, Schema, id_subset, load_dataset, save_dataset
from logicood.synth import DetectorSpec, SynthSpec, make_benchmark


def _tree(rng, schema, values, depth):
    """A random tree whose atoms on the wide concept name one of its values."""
    if depth <= 1 or rng.random() < 0.3:
        ci = int(rng.integers(len(schema)))
        name, domain = schema.concepts[ci]
        pool = values if len(domain) > 2 else range(2)
        return Atom(name, domain[int(rng.choice(pool))])
    kind = int(rng.integers(5))
    if kind == 0:
        return Not(_tree(rng, schema, values, depth - 1))
    cls = (And, Or, Xor, Implies)[kind - 1]
    return cls(_tree(rng, schema, values, depth - 1), _tree(rng, schema, values, depth - 1))


@st.composite
def cases(draw):
    """(model, dataset): binary concepts beside one concept of more than
    256 values, whose rows and atoms share a few values round 255/256."""
    n_binary, size = draw(st.integers(1, 4)), draw(st.integers(257, 600))
    at = draw(st.integers(0, n_binary))
    concepts = [(f"p{i}", BINARY_DOMAIN) for i in range(n_binary)]
    concepts.insert(at, ("wide", tuple(f"v{j}" for j in range(size))))
    schema = Schema(tuple(concepts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    values = [0, 1, 255, 256, size - 1, int(rng.integers(size))]
    trees = [_tree(rng, schema, values, 4) for _ in range(draw(st.integers(1, 4)))]
    model = MlnModel(schema, tuple(compile_constraint(t, schema, constraint_id=i)
                                   for i, t in enumerate(trees)), rng.normal(size=len(trees)))
    n = draw(st.integers(1, 60))
    rows = rng.integers(0, 2, (n, len(schema)))
    rows[:, at] = rng.choice(values, n)
    return model, Dataset(schema, rows, tuple(map(str, range(n))))


def _wide(data):
    """The same dataset with its rows as a C-order int64 matrix."""
    wide = copy.copy(data)
    object.__setattr__(wide, "vectors", np.ascontiguousarray(data.vectors, dtype=np.int64))
    return wide


@given(cases())
@settings(max_examples=60, deadline=None)
def test_row_form_scores_counts_and_fits_as_int64_rows(case):
    model, data = case
    wide = _wide(data)
    rows, rows64 = data.vectors, wide.vectors
    assert rows.dtype == np.uint16 and rows.flags.f_contiguous

    batch = mln_score_batch(model, rows)
    assert batch.tobytes() == mln_score_batch(model, rows64).tobytes()
    reports = explain_batch(model, rows)
    assert reports == explain_batch(model, rows64)
    assert np.array([r.total_score for r in reports]).tobytes() == batch.tobytes()
    for i in range(min(len(data), 5)):
        for z in (rows[i], rows64[i]):
            assert mln_score(model, z) == batch[i] == explain(model, z).total_score

    concepts = model.mentioned_concepts
    half = slice(None, None, 2)
    counts = WorldCounts.of(concepts, [rows, rows[half]])
    counts64 = WorldCounts.of(concepts, [rows64, rows64[half]])
    for name in ("worlds", "counts", "world_of"):
        got, want = getattr(counts, name), getattr(counts64, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    fit, fit64 = fit_weights(model, data), fit_weights(model, wide)
    assert fit.model.weights.tobytes() == fit64.model.weights.tobytes()
    assert fit.nll_history == fit64.nll_history


def test_package_producers_build_the_row_form(monkeypatch, tmp_path):
    """synth, load_dataset and id_subset fill a matrix in the row form
    themselves, so the Dataset constructor copies none of their rows."""
    schema = Schema((("p", BINARY_DOMAIN), ("q", ("a", "b", "c"))))
    truth = MlnModel(schema, (compile_source("p -> q=c", schema),), np.array([1.5]))
    det = DetectorSpec("normal", {"mean": 0.0, "std": 1.0}, {"mean": 1.0, "std": 1.0})
    spec = SynthSpec(schema, truth, n_id=40, n_ood=20, detector=det)
    expected = make_benchmark(spec)
    save_dataset(expected, tmp_path / "data.csv")

    def refuse(*args, **kwargs):
        raise AssertionError("a Dataset copied its rows into the row form")

    monkeypatch.setattr(np, "asfortranarray", refuse)
    for data in (make_benchmark(spec), load_dataset(tmp_path / "data.csv", schema),
                 id_subset(expected)):
        assert data.vectors.dtype == np.uint8 and data.vectors.flags.f_contiguous
    with pytest.raises(AssertionError, match="copied"):  # while int64 rows are copied
        Dataset(schema, np.asarray(expected.vectors, dtype=np.int64), expected.sample_ids)
