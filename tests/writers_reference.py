"""The CSV writers as they were before each distinct cell was formatted
once: save_dataset (with its helper blockwise) and the CLI's scores and
decisions writer, each a csv.writer row loop. Kept verbatim, but for
reading BLOCK_CELLS from the artifacts module when called, as the
reference the block writers are checked against byte for byte."""

from __future__ import annotations

import csv

from logicood import artifacts
from logicood.artifacts import atomic_open
from logicood.schema import COL_DETECTOR, COL_ID, COL_OOD, Dataset


def blockwise(array, width):
    """array's values as Python objects, made a block of rows `width` cells wide at a time."""
    from itertools import chain

    step = max(1, artifacts.BLOCK_CELLS // width)
    return chain.from_iterable(array[s:s + step].tolist() for s in range(0, len(array), step))


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset back to the CSV format accepted by load_dataset; the
    cells are made one block of rows at a time."""
    width = len(data.schema) + 1 + (data.detector_scores is not None) + (data.is_ood is not None)
    header, columns = [COL_ID, *data.schema.names], [data.sample_ids]
    for c, (_, domain) in enumerate(data.schema.concepts):
        columns.append(map(domain.__getitem__, blockwise(data.vectors[:, c], width)))
    if data.detector_scores is not None:
        header.append(COL_DETECTOR)
        columns.append(map(repr, map(float, blockwise(data.detector_scores, width))))
    if data.is_ood is not None:
        header.append(COL_OOD)
        columns.append(map("01".__getitem__, blockwise(data.is_ood, width)))
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def write_id_csv(path, column, ids, cells) -> None:
    """`__id,<column>`, then one `id,repr(cell)` row per sample; an id with a
    comma, quote or newline is CSV-quoted, and a row whose id has a \\r is quoted whole."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["__id", column])
        rows = zip(ids, cells)
        if any("\r" in sid for sid in ids):
            quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            for row in rows:
                (quoted if "\r" in row[0] else writer).writerow(row)
        writer.writerows(rows)
