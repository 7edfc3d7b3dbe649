"""The two-route CSV reader and the block writers against the row loops
they replaced (blocks_reference, writers_reference).

read_blocks cuts plain blocks with numpy and hands any other block, and
every later one, to csv.reader; whatever the rows per block, it gives the
reference's records, faults and file:line. The numpy cutter's columns and
csv.reader's convert alike. save_dataset and the scores and decisions
writer write the bytes of the csv.writer row loops."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blocks_reference
import writers_reference
from conftest import block_rows
from logicood import cli
from logicood.csvblocks import Cells, float_column, read_blocks
from logicood.errors import ValidationError
from logicood.schema import Dataset, Schema, save_dataset

LIMIT = csv.field_size_limit()
LONG = "a" * (LIMIT + 1)  # one field over the csv module's limit
BLOCKS = pytest.mark.parametrize("block", [1, 2, 3, None], ids=["1-row", "2-row", "3-row", "default"])

# Pieces of a CSV text, quote-free ones first so that hypothesis shrinks towards plain blocks;
# str.splitlines, but no CSV reader, ends a line at U+0085.
PIECES = ["a", "é", ",", "\r", "\n", "\n\n", "\r\n", "\x85", '"', "\0"]


@st.composite
def texts(draw):
    """A CSV text: a header, then rows and faults made of pieces, with or
    without a final line end, and at most one field over the limit."""
    body = draw(st.lists(st.sampled_from(PIECES), max_size=40))
    if draw(st.integers(0, 4)) == 0:
        body.insert(draw(st.integers(0, len(body))), LONG)
    return draw(st.sampled_from(["a,b\n", "a\n", "a,b,c\r\n", "é,a\r"])) + "".join(body)


def _width(path):
    """The header's count of cells, or 1 where the header cannot be read."""
    try:
        return len(next(blocks_reference.read_blocks(path)) or ()) or 1
    except ValidationError:
        return 1


def _outcome(read, path, block):
    """The header, each block as its first row and its columns as tuples of
    str, and the message of the fault that ends the reading (or None)."""
    got = []
    with block_rows(block, _width(path)):
        try:
            blocks = read(path)
            got.append(next(blocks))
            for first, columns in blocks:
                got.append((first, [tuple(c.strs()) if isinstance(c, Cells) else c for c in columns]))
        except ValidationError as exc:
            return got, str(exc)
    return got, None


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "f.csv"


@BLOCKS
@given(text=texts())
@example(text="a,b\n" + "x,y\n" * 4 + '"q\nr",z\n' + "x,y\n")  # a quote first in a later block
@example(text="a,b\nx,y\nx\n" + LONG + ",y\n")  # a width fault, then a field over the limit
@example(text="a\nx\n\nx\r")  # a blank line of a one-cell file, and a last line ended by \r
@example(text="a,b\r\nx,y\r\nx,y\r\n\r\nx,y")  # CRLF, a blank line, no final line end
@example(text="a,b\nx,y\rx,y\r\nx\n")  # a lone \r ends a line, then a width fault
@settings(max_examples=300, deadline=None)
def test_blocks_are_the_references_records_faults_and_lines(csv_path, block, text):
    path = _write(csv_path, text)
    assert _outcome(read_blocks, path, block) == _outcome(blocks_reference.read_blocks, path, block)


@BLOCKS
def test_a_quote_in_a_later_block_hands_the_rest_to_csv_reader(tmp_path, block):
    # A field over the limit after the quote counts every line numpy cut:
    # the header, the plain rows before the quote, the quoted cell's two lines.
    text = "a,b\n" + "x,y\n" * 6 + '"q\nr",z\n' + "x,y\n" * 2 + "x," + LONG + "\n"
    path = _write(tmp_path / "f.csv", text)
    got = _outcome(read_blocks, path, block)
    assert got == _outcome(blocks_reference.read_blocks, path, block)
    assert got[1] == f"{path}:12: field larger than field limit ({LIMIT})"


def test_a_malformed_record_before_bad_bytes_in_its_block_is_reported_first(tmp_path):
    # The bad byte lies past the text reader's reads of the oversized line,
    # so the reference meets the oversized field first; so must the reader
    # that takes the whole block of lines before it cuts it.
    path = tmp_path / "f.csv"
    path.write_bytes(b"a,b\nx,y\nx," + LONG.encode() + b"\n" + b"x,y\n" * 4000 + b"x,\xff\n")
    new, old = (_outcome(read, path, None) for read in (read_blocks, blocks_reference.read_blocks))
    assert new == old and old[1] == f"{path}:3: field larger than field limit ({LIMIT})"


DOMAIN = ("a", "é", "", "1.5", "aa", "1")
NUMBERS = ["1.5", "-0.0", "inf", "nan", "1e400", "+3", "5e-324", " 2", "2\t", "1_0", "x", "",
           "é", " 1", "1.5 ", "a"]


@given(
    rows=st.lists(st.lists(st.sampled_from([*DOMAIN, *NUMBERS]), min_size=2, max_size=2),
                  min_size=1, max_size=8),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=9, max_size=9),
    last=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_the_numpy_cutter_and_csv_reader_columns_convert_alike(csv_path, rows, ends, last):
    text = "a,b" + ends[0] + "".join(",".join(r) + e for r, e in zip(rows, ends[1:]))
    path = _write(csv_path, text if last else text.rstrip("\r\n"))
    blocks = read_blocks(path)
    next(blocks)
    for first, columns in blocks:
        for cut, want in zip(columns, zip(*rows)):
            split = Cells.of(want)  # as csv.reader's rows give the column
            assert cut.strs() == split.strs() == want
            assert cut.index(DOMAIN).tolist() == split.index(DOMAIN).tolist() == [
                DOMAIN.index(cell) if cell in DOMAIN else -1 for cell in want]
            assert _floats(cut, first) == _floats(split, first)


def _floats(cells, first):
    try:
        return [v.hex() for v in float_column("f.csv", cells, "score", first)]
    except ValidationError as exc:
        return str(exc)


# Ids and domain values that a CSV writer must quote or escape, and some it must not.
CHARS = [",", '"', "\r", "\n", "\0", " ", "é", "a"]
VALUES = st.text(st.sampled_from(CHARS), max_size=3)


@st.composite
def datasets(draw):
    domains = draw(st.lists(st.lists(VALUES, min_size=2, max_size=4, unique=True).map(tuple),
                            max_size=3))
    schema = Schema(tuple((f"c{i}", domain) for i, domain in enumerate(domains)))
    ids = tuple(draw(st.lists(VALUES, max_size=12, unique=True)))
    n = len(ids)
    vectors = np.array([[draw(st.integers(0, len(d) - 1)) for d in domains] for _ in range(n)],
                       dtype=np.int64).reshape(n, len(domains))
    scores = draw(st.none() | st.lists(st.floats(), min_size=n, max_size=n).map(np.array))
    flags = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array))
    return Dataset(schema, vectors, ids, None if scores is None else scores.astype(float),
                   None if flags is None else flags.astype(bool))


@BLOCKS
@given(data=datasets())
@example(data=Dataset(Schema(()), np.empty((2, 0), dtype=np.int64), ("", "a")))  # rows of one cell
@settings(max_examples=150, deadline=None)
def test_writers_write_the_row_loops_bytes(csv_path, block, data):
    d = csv_path.parent
    width = len(data.schema) + 1 + (data.detector_scores is not None) + (data.is_ood is not None)
    scores = np.arange(len(data), dtype=float) / 3 if data.detector_scores is None else data.detector_scores
    flags = scores > 0.5
    with block_rows(block, width):
        save_dataset(data, d / "new.csv")
        writers_reference.save_dataset(data, d / "old.csv")
    with block_rows(block, 2):
        cli._write_id_csv(d / "new_scores.csv", "score", data.sample_ids, scores)
        writers_reference.write_id_csv(d / "old_scores.csv", "score", data.sample_ids, scores.tolist())
        cli._write_id_csv(d / "new_flags.csv", "outlier", data.sample_ids, flags, ("0", "1"))
        writers_reference.write_id_csv(d / "old_flags.csv", "outlier", data.sample_ids,
                                       flags.astype(int).tolist())
    for name in ("", "_scores", "_flags"):
        assert (d / f"new{name}.csv").read_bytes() == (d / f"old{name}.csv").read_bytes(), name

