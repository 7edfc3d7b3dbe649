"""load_dataset as it was written before the column-wise reader: a loop
over rows that checks each row's width, looks up each concept cell and
parses each score and flag, over the rows of read_csv. Kept verbatim as
the reference the column-wise reader is checked against: equal datasets
on valid files, and the same message on a file with one fault."""

from __future__ import annotations

import csv

import numpy as np

from logicood.artifacts import open_text
from logicood.errors import ValidationError
from logicood.schema import COL_DETECTOR, COL_ID, COL_OOD, Dataset, Schema


def read_csv(path) -> list[list[str]]:
    """The rows of a CSV file; a malformed row raises ValidationError."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return list(reader)
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None


def load_dataset(path, schema: Schema) -> Dataset:
    """Read a dataset CSV validated against the schema.

    Header must contain every concept name; reserved columns __id,
    __detector_score, __is_ood are optional.
    """
    header, *rows = read_csv(path) or [None]
    if header is None:
        raise ValidationError(f"{path}: empty dataset file")
    reserved = {COL_ID, COL_DETECTOR, COL_OOD}
    for col in header:
        if col not in reserved and col not in schema.names:
            raise ValidationError(f"{path}: unknown column {col!r}")
    if len(set(header)) != len(header):
        raise ValidationError(f"{path}: duplicate column in header")
    missing = [name for name in schema.names if name not in header]
    if missing:
        raise ValidationError(f"{path}: missing concept columns {missing}")

    col_of = {name: header.index(name) for name in header}
    concept_cols = [col_of[name] for name in schema.names]
    id_col = col_of.get(COL_ID)
    det_col = col_of.get(COL_DETECTOR)
    ood_col = col_of.get(COL_OOD)

    # Per-concept value -> index lookup, built once.
    lookups = [
        {value: i for i, value in enumerate(domain)} for _, domain in schema.concepts
    ]

    n = len(rows)
    vectors = np.empty((n, len(schema)), dtype=np.int64)
    ids = []
    det = np.empty(n) if det_col is not None else None
    ood = np.empty(n, dtype=bool) if ood_col is not None else None

    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}"
            )
        for c, (col, lookup) in enumerate(zip(concept_cols, lookups)):
            cell = row[col]
            try:
                vectors[r, c] = lookup[cell]
            except KeyError:
                raise ValidationError(
                    f"{path}: row {r + 2}, column {schema.names[c]!r}: "
                    f"value {cell!r} not in domain"
                ) from None
        ids.append(row[id_col] if id_col is not None else str(r))
        if det is not None:
            try:
                det[r] = float(row[det_col])
            except ValueError:
                raise ValidationError(
                    f"{path}: row {r + 2}: non-numeric detector score {row[det_col]!r}"
                ) from None
        if ood is not None:
            cell = row[ood_col]
            if cell not in ("0", "1"):
                raise ValidationError(
                    f"{path}: row {r + 2}: {COL_OOD} must be 0 or 1, got {cell!r}"
                )
            ood[r] = cell == "1"

    if len(set(ids)) != n:  # name the first row whose id repeats
        first = {}
        r = next(r for r, sid in enumerate(ids) if first.setdefault(sid, r) != r)
        raise ValidationError(f"{path}: row {r + 2}: duplicate {COL_ID} {ids[r]!r}")
    return Dataset(schema, vectors, tuple(ids), det, ood)
