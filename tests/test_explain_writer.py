"""The grouped explain.json writer: byte for byte the text of the per-row
reference, with each distinct world explained once."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ast, random_schema, random_vectors
from explain_reference import explain_json
from logicood import cli, mln
from logicood.constraints import compile_constraint, compile_source
from logicood.mln import MlnModel
from logicood.schema import Dataset, Schema

# Characters json escapes, or that ensure_ascii writes as \u escapes.
AWKWARD = ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "/", "é", " ", "☃", "\U0001d11e"]
IDS = st.lists(
    st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()), max_size=6),
    unique=True,
    max_size=40,
)


def random_model(r, empty_kb):
    schema = random_schema(r, max_concepts=5)
    n = 0 if empty_kb else int(r.integers(1, 6))
    constraints = tuple(
        compile_constraint(random_ast(r, schema, max_depth=4), schema, constraint_id=i)
        for i in range(n)
    )
    # Signed weights: an unsatisfied constraint of positive weight contributes -0.0.
    return MlnModel(schema, constraints, r.normal(scale=1.5, size=n))


@given(st.integers(0, 10_000), st.booleans(), IDS)
@settings(max_examples=150, deadline=None)
def test_writer_bytes_equal_the_reference(tmp_path_factory, seed, empty_kb, ids):
    r = np.random.default_rng(seed)
    m = random_model(r, empty_kb)
    data = Dataset(m.schema, random_vectors(r, m.schema, len(ids)), tuple(ids))
    path = tmp_path_factory.mktemp("explain") / "explain.json"
    cli._write_explanations(path, m, data)
    assert path.read_bytes() == explain_json(m, data).encode("utf-8")


def test_zero_rows_write_an_empty_list(tmp_path):
    for sources in ((), ("p -> q=b",)):
        schema = Schema((("p", ("false", "true")), ("q", ("a", "b", "c"))))
        m = MlnModel(
            schema,
            tuple(compile_source(s, schema, i) for i, s in enumerate(sources)),
            np.ones(len(sources)),
        )
        data = Dataset(schema, np.zeros((0, 2), dtype=np.int64), ())
        cli._write_explanations(tmp_path / "explain.json", m, data)
        assert (tmp_path / "explain.json").read_text(encoding="utf-8") == "[]\n"


def test_each_world_is_explained_once(tmp_path, monkeypatch):
    schema = Schema(tuple((f"c{i}", ("false", "true")) for i in range(9)))
    sources = ["c0 -> c1", "c2 xor c3", "c4 or c5", "c6 and not c7"]
    m = MlnModel(
        schema,
        tuple(compile_source(s, schema, i) for i, s in enumerate(sources)),
        np.array([1.5, -0.5, 2.0, 0.25]),
    )
    # c8 is not mentioned: rows that differ only there share a world.
    rows = np.random.default_rng(11).integers(0, 2, size=(20_000, 9))
    data = Dataset(schema, rows, tuple(str(i) for i in range(len(rows))))
    seen = []
    explain_batch = mln.explain_batch

    def recording(model, batch):
        seen.append(np.asarray(batch)[:, :8])
        return explain_batch(model, batch)

    monkeypatch.setattr(mln, "explain_batch", recording)
    path = tmp_path / "explain.json"
    cli._write_explanations(path, m, data)
    (batch,) = seen
    assert len(batch) <= 256
    assert len(np.unique(batch, axis=0)) == len(batch)
    assert path.read_text(encoding="utf-8").count('\n    "__id": ') == len(rows)
