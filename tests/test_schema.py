import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from logicood.errors import ValidationError
from logicood.metrics import evaluate_scores
from logicood.mln import enumerate_space
from logicood.schema import (
    BINARY_DOMAIN,
    COL_DETECTOR,
    COL_ID,
    COL_OOD,
    Dataset,
    Schema,
    id_subset,
    load_dataset,
    load_schema,
    save_dataset,
    schema_from_dict,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_schema_basic(tmp_path):
    p = write(tmp_path / "s.json", '{"color":["red","blue","white"],"is_octagon":"binary"}')
    schema = load_schema(p)
    assert schema.names == ("color", "is_octagon")
    assert schema.domain_sizes == (3, 2)
    assert schema.domain("is_octagon") == ("false", "true")
    assert schema.is_binary("is_octagon")
    assert not schema.is_binary("color")


def test_schema_domain_too_small(tmp_path):
    p = write(tmp_path / "s.json", '{"c":["x"]}')
    with pytest.raises(ValidationError, match="at least 2"):
        load_schema(p)


def test_schema_duplicate_value(tmp_path):
    p = write(tmp_path / "s.json", '{"color":["red","red"]}')
    with pytest.raises(ValidationError, match="duplicate domain"):
        load_schema(p)


def test_schema_duplicate_concept():
    with pytest.raises(ValidationError, match="duplicate concept"):
        Schema((("a", ("x", "y")), ("a", ("x", "y"))))


def test_schema_bad_name():
    with pytest.raises(ValidationError, match="invalid concept name"):
        Schema((("9bad", ("x", "y")),))


def test_replace_builds_a_schema_of_its_own():
    s = Schema((("a", BINARY_DOMAIN), ("b", BINARY_DOMAIN)))
    t = replace(s, concepts=(("x", BINARY_DOMAIN),))
    assert [t.concept_index("x"), s.concept_index("a"), s.concept_index("b")] == [0, 0, 1]
    for schema, name in ((s, "x"), (t, "a")):
        with pytest.raises(ValidationError, match="unknown concept"):
            schema.concept_index(name)


def test_schema_bad_json(tmp_path):
    p = write(tmp_path / "s.json", "{nope")
    with pytest.raises(ValidationError, match=r"s\.json:1: invalid JSON"):
        load_schema(p)


def test_semantic_space_size():
    schema = Schema((("a", ("x", "y", "z")), ("b", ("f", "t"))))
    assert math.prod(schema.domain_sizes) == 6
    assert math.prod(Schema((("p", ("false", "true")),)).domain_sizes) == 2
    # Python ints are exact: 64 binary concepts must not wrap.
    big = Schema(tuple((f"b{i}", ("false", "true")) for i in range(64)))
    assert math.prod(big.domain_sizes) == 2**64


@pytest.fixture
def schema():
    return Schema((("color", ("red", "blue", "white")), ("is_octagon", ("false", "true"))))


def test_load_dataset_basic(tmp_path, schema):
    p = write(tmp_path / "d.csv", "color,is_octagon\nred,true\n")
    data = load_dataset(p, schema)
    assert len(data) == 1
    assert data.vectors.tolist() == [[0, 1]]
    assert data.detector_scores is None and data.is_ood is None


def test_load_dataset_bad_value(tmp_path, schema):
    p = write(tmp_path / "d.csv", "color,is_octagon\npurple,true\n")
    with pytest.raises(ValidationError) as err:
        load_dataset(p, schema)
    msg = str(err.value)
    assert "row 2" in msg and "color" in msg and "purple" in msg


def test_load_dataset_reserved_columns(tmp_path, schema):
    p = write(
        tmp_path / "d.csv",
        "__id,color,is_octagon,__detector_score,__is_ood\na,red,true,0.73,1\n",
    )
    data = load_dataset(p, schema)
    assert data.sample_ids == ("a",)
    assert data.detector_scores[0] == 0.73
    assert bool(data.is_ood[0]) is True


def test_load_dataset_unknown_column(tmp_path, schema):
    p = write(tmp_path / "d.csv", "color,is_octagon,bogus\nred,true,1\n")
    with pytest.raises(ValidationError, match="unknown column"):
        load_dataset(p, schema)


def test_load_dataset_ragged_row(tmp_path, schema):
    p = write(tmp_path / "d.csv", "color,is_octagon\nred\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_dataset(p, schema)


def test_load_dataset_missing_concept(tmp_path, schema):
    p = write(tmp_path / "d.csv", "color\nred\n")
    with pytest.raises(ValidationError, match="missing concept"):
        load_dataset(p, schema)


def test_load_dataset_bad_detector_score(tmp_path, schema):
    p = write(tmp_path / "d.csv", "color,is_octagon,__detector_score\nred,true,abc\n")
    with pytest.raises(ValidationError, match="non-numeric"):
        load_dataset(p, schema)


def test_dataset_duplicate_ids(schema):
    with pytest.raises(ValidationError, match="unique"):
        Dataset(schema, np.zeros((2, 2), dtype=np.int64), ("a", "a"))


def test_validate_rows(schema):
    rows = schema.validate_rows([[2, 1], [0, 0]])
    assert rows.dtype == np.int64 and rows.tolist() == [[2, 1], [0, 0]]
    for other in (np.array([[True, False]]), np.array([[2.0, 1.0]])):
        assert schema.validate_rows(other).dtype == np.int64
    # An integer array is checked in its own dtype and layout, never widened.
    for same in (rows.astype(np.int32), np.asfortranarray(rows, dtype=np.uint8)):
        checked = schema.validate_rows(same)
        assert checked.dtype == same.dtype and np.shares_memory(checked, same)
    assert schema.validate_rows(np.zeros((0, 2), dtype=np.int32)).shape == (0, 2)
    for bad in ([0, 1], [[0, 1, 0]], np.zeros((2, 2, 2))):
        with pytest.raises(ValidationError, match="rows of shape"):
            schema.validate_rows(bad)
    # Each column is checked against its own domain size.
    for bad in ([[3, 0]], [[0, 2]], [[-1, 0]], [[0, 0], [2, -1]]):
        with pytest.raises(ValidationError, match="out-of-domain"):
            schema.validate_rows(bad)


def test_row_dtype_is_the_narrowest_unsigned_type(schema):
    assert schema.row_dtype == np.uint8
    assert schema_from_dict({"p": "binary"}).row_dtype == np.uint8
    assert Schema((("c", tuple(map(str, range(256)))),)).row_dtype == np.uint8
    wide = Schema((("p", BINARY_DOMAIN), ("c", tuple(map(str, range(300))))))
    assert wide.row_dtype == np.uint16
    data = Dataset(wide, np.array([[1, 299], [0, 256]]), ("a", "b"))
    assert data.vectors.dtype == np.uint16 and data.vectors.tolist() == [[1, 299], [0, 256]]
    assert data.vectors.flags.f_contiguous
    with pytest.raises(ValidationError, match="out-of-domain"):
        Dataset(wide, np.array([[0, 300]]), ("a",))


def test_dataset_checks_rows(schema):
    data = Dataset(schema, np.array([[2, 1]], dtype=np.int32), ("a",))
    assert data.vectors.dtype == schema.row_dtype
    with pytest.raises(ValidationError, match="rows of shape"):
        Dataset(schema, np.zeros((1, 3), dtype=np.int64), ("a",))
    with pytest.raises(ValidationError, match="out-of-domain"):
        Dataset(schema, np.array([[0, 2]]), ("a",))


def test_dataset_vectors_are_a_read_only_view(schema):
    # Rows already in the row form are not copied.
    vectors = np.asfortranarray(np.array([[2, 1], [0, 0]], dtype=schema.row_dtype))
    data = Dataset(schema, vectors, ("a", "b"))
    with pytest.raises(ValueError, match="read-only"):
        data.vectors[0, 0] = 5
    assert np.shares_memory(data.vectors, vectors)
    vectors[0, 0] = 1
    assert vectors.flags.writeable


def test_dataset_copies_int64_rows_once_into_the_row_form(schema):
    vectors = np.array([[2, 1], [0, 0]], dtype=np.int64)
    data = Dataset(schema, vectors, ("a", "b"))
    assert data.vectors.dtype == schema.row_dtype and data.vectors.flags.f_contiguous
    assert data.vectors.base is not None and data.vectors.base.base is None  # one copy, viewed
    assert not np.shares_memory(data.vectors, vectors)
    with pytest.raises(ValueError, match="read-only"):
        data.vectors[0, 0] = 5
    assert vectors.dtype == np.int64 and vectors.tolist() == [[2, 1], [0, 0]]
    vectors[0, 0] = 1
    assert vectors.flags.writeable and data.vectors[0, 0] == 2


def test_dataset_rejects_non_boolean_is_ood():
    # 0/1 integer flags negate to -1/-2 under ~, which silently broke the
    # metrics and the ID subset; they are refused, not coerced.
    binary = schema_from_dict({"p": "binary"})
    vectors = np.zeros((4, 1), dtype=np.int64)
    ids = ("a", "b", "c", "d")
    with pytest.raises(ValidationError, match="__is_ood column must be boolean"):
        Dataset(binary, vectors, ids, None, np.array([0, 0, 1, 1]))
    data = Dataset(binary, vectors, ids, None, np.array([0, 0, 1, 1]) == 1)
    result = evaluate_scores(data, np.array([0.0, 0.1, 5.0, 6.0]))
    assert (result.auroc, result.n_id, result.n_ood) == (1.0, 2, 2)
    assert (result.aupr_id, result.aupr_ood) == (1.0, 1.0)
    assert id_subset(data).sample_ids == ("a", "b")


def test_dataset_roundtrip(tmp_path, schema, rng):
    n = 50
    vectors = np.stack(
        [rng.integers(0, 3, n), rng.integers(0, 2, n)], axis=1
    ).astype(np.int64)
    data = Dataset(
        schema,
        vectors,
        tuple(f"s{i}" for i in range(n)),
        rng.normal(size=n),
        rng.random(n) < 0.5,
    )
    p = tmp_path / "round.csv"
    save_dataset(data, p)
    back = load_dataset(p, schema)
    assert np.array_equal(back.vectors, data.vectors)
    assert back.sample_ids == data.sample_ids
    assert np.array_equal(back.detector_scores, data.detector_scores)
    assert np.array_equal(back.is_ood, data.is_ood)


def _save_dataset_row_loop(data, path):
    """save_dataset as it was written before the column-wise writer: one
    numpy scalar read per cell."""
    schema = data.schema
    header = [COL_ID, *schema.names]
    if data.detector_scores is not None:
        header.append(COL_DETECTOR)
    if data.is_ood is not None:
        header.append(COL_OOD)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in range(len(data)):
            row = [data.sample_ids[r]]
            row.extend(
                schema.concepts[c][1][data.vectors[r, c]] for c in range(len(schema))
            )
            if data.detector_scores is not None:
                row.append(repr(float(data.detector_scores[r])))
            if data.is_ood is not None:
                row.append("1" if data.is_ood[r] else "0")
            writer.writerow(row)


@pytest.mark.parametrize("scores", [False, True])
@pytest.mark.parametrize("flags", [False, True])
@pytest.mark.parametrize("n", [0, 1, 300])
def test_save_dataset_bytes_match_the_row_loop(tmp_path, rng, scores, flags, n):
    schema = Schema((
        ("shape", ("round", "a,b", 'say "hi"', "x\ny", " ", "nul\x00")),
        ("is_octagon", ("false", "true")),
        ("level", ("0", "1", "2")),
    ))
    data = Dataset(
        schema,
        (rng.random((n, 3)) * schema.domain_sizes).astype(np.int64),
        tuple(f"s{i}" if i % 7 else f'"id, {i}"' for i in range(n)),
        np.concatenate([[-0.0, 1e300, 5e-324], rng.normal(size=n)])[:n] if scores else None,
        rng.random(n) < 0.5 if flags else None,
    )
    save_dataset(data, tmp_path / "new.csv")
    _save_dataset_row_loop(data, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_space_size_matches_enumeration(rng):
    from conftest import random_schema

    for _ in range(20):
        schema = random_schema(rng)
        assert math.prod(schema.domain_sizes) == enumerate_space(schema).shape[0]
