"""The column-wise load_dataset against the row loop it replaced
(dataset_reference): on valid files the two give equal datasets, with
detector scores equal bit for bit, and on a file with exactly one fault
they raise the same message. Of several faults, the column-wise reader
reports the first in a fixed order, which the fixed tests pin."""

import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dataset_reference
from logicood.errors import ValidationError
from logicood.schema import COL_DETECTOR, COL_ID, COL_OOD, Schema, load_dataset

# Domain values and ids that a CSV file must quote; "?" is in no domain.
VALUES = ["a", "b,c", 'q"t', " ", "", "x\ny", "\r", "0", "1", "true"]
ID_CHARS = ["a", "b", ",", '"', "\r", "\n", " "]
SCORES = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["-0.0", "5e-324", "inf", "-inf", "nan", "1e400", " 1.5 ", "1_0", "+3"]),
)
FAULTS = ["width", "value", "score", "flag", "duplicate id",
          "unknown column", "missing column", "duplicate column"]


@st.composite
def files(draw):
    """(schema, header, rows) of a valid data file, columns in any order."""
    domains = draw(st.lists(
        st.one_of(st.just(("false", "true")), st.lists(
            st.sampled_from(VALUES), min_size=2, max_size=4, unique=True).map(tuple)),
        min_size=1, max_size=4,
    ))
    schema = Schema(tuple((f"c{i}", domain) for i, domain in enumerate(domains)))
    n = draw(st.integers(0, 8))
    columns = {
        name: [draw(st.sampled_from(domain)) for _ in range(n)] for name, domain in schema.concepts
    }
    if draw(st.booleans()):
        columns[COL_ID] = draw(st.lists(
            st.text(st.sampled_from(ID_CHARS), max_size=4), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        columns[COL_DETECTOR] = [draw(SCORES) for _ in range(n)]
    if draw(st.booleans()):
        columns[COL_OOD] = [draw(st.sampled_from(["0", "1"])) for _ in range(n)]
    header = draw(st.permutations(list(columns)))
    return schema, header, [[columns[col][r] for col in header] for r in range(n)]


def _fault(draw, schema, header, rows):
    """The name of one fault put into a valid file, or None when the file
    has no place for the one drawn."""
    fault = draw(st.sampled_from(FAULTS))
    row = draw(st.integers(0, len(rows) - 1)) if rows else None
    at = {col: c for c, col in enumerate(header)}
    if fault == "width" and rows:
        rows[row] = rows[row][:-1] if draw(st.booleans()) else [*rows[row], "extra"]
    elif fault == "value" and rows:
        rows[row][at[draw(st.sampled_from(schema.names))]] = "?"
    elif fault == "score" and rows and COL_DETECTOR in at:
        rows[row][at[COL_DETECTOR]] = draw(st.sampled_from(["abc", "", "1,5", "0x1"]))
    elif fault == "flag" and rows and COL_OOD in at:
        rows[row][at[COL_OOD]] = draw(st.sampled_from(["2", "true", "", " 1"]))
    elif fault == "duplicate id" and len(rows) > 1 and COL_ID in at:
        first, second = sorted(draw(st.lists(
            st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True)))
        rows[second][at[COL_ID]] = rows[first][at[COL_ID]]
    elif fault == "unknown column":
        c = draw(st.integers(0, len(header)))
        header.insert(c, "bogus")
        for cells in rows:
            cells.insert(c, "?")
    elif fault == "missing column":
        c = at[draw(st.sampled_from(schema.names))]
        for cells in (header, *rows):
            del cells[c]
    elif fault == "duplicate column":
        source, c = draw(st.integers(0, len(header) - 1)), draw(st.integers(0, len(header)))
        for cells in (header, *rows):
            cells.insert(c, cells[source])
    else:
        return None
    return fault


def _write(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _outcome(load, path, schema):
    try:
        return load(path, schema)
    except ValidationError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "d.csv"


@given(file=files())
@settings(max_examples=200, deadline=None)
def test_valid_files_load_as_the_row_loop_loads_them(csv_path, file):
    schema, header, rows = file
    path = _write(csv_path, header, rows)
    new, old = load_dataset(path, schema), dataset_reference.load_dataset(path, schema)
    assert np.array_equal(new.vectors, old.vectors) and new.vectors.dtype == old.vectors.dtype
    assert new.sample_ids == old.sample_ids
    for ours, theirs in ((new.detector_scores, old.detector_scores), (new.is_ood, old.is_ood)):
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@given(file=files(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_file_with_one_fault_gives_the_row_loops_message(csv_path, file, data):
    schema, header, rows = file
    assume(_fault(data.draw, schema, header, rows))
    path = _write(csv_path, header, rows)
    new = _outcome(load_dataset, path, schema)
    assert isinstance(new, str) and new == _outcome(dataset_reference.load_dataset, path, schema)


SCHEMA = Schema((("c0", ("false", "true")), ("c1", ("red", "blue"))))


@pytest.mark.parametrize(
    "text, message",
    [
        ("c0,c1\nmaybe,red\ntrue\n", "row 3 has 1 cells, expected 2"),
        ("c0,c1,bogus\ntrue,red,1\nfalse\n", "row 3 has 1 cells, expected 3"),
        ("c1,c0\ngreen,true\nred,maybe\n", "row 3, column 'c0': value 'maybe' not in domain"),
        ("c0,c1,__detector_score\ntrue,red,abc\nfalse,green,1.0\n",
         "row 3, column 'c1': value 'green' not in domain"),
        ("c0,c1,__is_ood,__detector_score\ntrue,red,2,1.0\nfalse,red,0,abc\n",
         "row 3: non-numeric detector score 'abc'"),
        ("__id,c0,c1,__is_ood\na,true,red,0\na,false,red,0\nb,true,red,yes\n",
         "row 4: __is_ood must be 0 or 1, got 'yes'"),
    ],
    ids=["width-before-value", "width-before-header", "concepts-in-schema-order",
         "concepts-before-score",
         "score-before-flag", "flag-before-duplicate-id"],
)
def test_of_two_faults_the_first_in_column_order_is_reported(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_dataset(path, SCHEMA)
    assert str(err.value) == f"{path}: {message}"
