"""Memory bounds of the CSV and explain.json readers and writers, measured
with tracemalloc: each holds one block of rows at a time, so what it
allocates beyond its result does not grow with the file."""

import csv
import sys
import tracemalloc

import numpy as np
import pytest

from logicood import artifacts, cli
from logicood.constraints import compile_source
from logicood.mln import MlnModel
from logicood.schema import Dataset, Schema, load_dataset, save_dataset

SCHEMA = Schema(tuple((f"c{i}", ("false", "true")) for i in range(8)))
SMALL, LARGE = 4_000, 40_000


def _dataset(n):
    r = np.random.default_rng(0)
    return Dataset(SCHEMA, r.integers(0, 2, (n, len(SCHEMA))), tuple(f"id{i}" for i in range(n)),
                   r.normal(size=n), r.integers(0, 2, n).astype(bool))


def _extra(fn, *args):
    """The bytes fn(*args) allocates at its peak beyond what its result holds."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        del result
    finally:
        tracemalloc.stop()
    return peak - held


def _block_bytes(path):
    """The bytes of one block of path's records: BLOCK_CELLS cells at the
    file's mean size of a cell as csv.reader returns it, with its share of
    its row's list and its slot in a column."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    size = sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row)) + 8 * len(row) for row in rows)
    return artifacts.BLOCK_CELLS * size / sum(map(len, rows))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """{n: (dataset, its data file, a scores file of its ids)} for both sizes."""
    out = {}
    for n in (SMALL, LARGE):
        d = tmp_path_factory.mktemp(f"rows{n}")
        data = _dataset(n)
        save_dataset(data, d / "data.csv")
        cli._write_id_csv(d / "scores.csv", "score", data.sample_ids, data.detector_scores.tolist())
        out[n] = (data, d / "data.csv", d / "scores.csv")
    return out


def test_explain_writer_holds_a_small_share_of_its_file(tmp_path, files):
    data = files[LARGE][0]
    sources = ["c0 xor c1", "c2 xor c3", "c4 -> c5"]
    model = MlnModel(SCHEMA, tuple(compile_source(s, SCHEMA, i) for i, s in enumerate(sources)),
                     np.array([2.5, 2.5, 2.0]))
    path = tmp_path / "explain.json"
    extra = _extra(cli._write_explanations, path, model, data)
    assert extra < path.stat().st_size / 4


def test_load_dataset_extra_memory_grows_by_at_most_one_block(files):
    (_, small, _), (_, large, _) = files[SMALL], files[LARGE]
    # One byte a binary concept value: the reader fills the row form itself.
    assert load_dataset(large, SCHEMA).vectors.nbytes == LARGE * len(SCHEMA)
    growth = _extra(load_dataset, large, SCHEMA) - _extra(load_dataset, small, SCHEMA)
    assert growth <= _block_bytes(large)


def test_save_dataset_extra_memory_grows_by_at_most_one_block(tmp_path, files):
    (small, _, _), (large, path, _) = files[SMALL], files[LARGE]
    growth = _extra(save_dataset, large, tmp_path / "l.csv") - _extra(save_dataset, small,
                                                                     tmp_path / "s.csv")
    assert growth <= _block_bytes(path)


def test_eval_scores_read_extra_memory_grows_by_at_most_one_block(tmp_path, files):
    (small, _, small_scores), (large, _, large_scores) = files[SMALL], files[LARGE]
    growth = (_extra(cli._read_scores, large_scores, large)
              - _extra(cli._read_scores, small_scores, small))
    assert growth <= _block_bytes(large_scores)
