"""Semantic space definition and tabular data ingestion.

A schema fixes an ordered list of named concepts, each with a finite value
domain. A semantic vector assigns one domain index per concept; datasets are
collections of such vectors with optional detector scores and OOD flags.
Values are stored as domain indices internally; strings exist only at the
I/O boundary.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import (atomic_open, blame, blockwise, float_column, raise_after, read_blocks,
                        read_json, write_json)
from .errors import ValidationError

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Reserved dataset columns, not concept names.
COL_ID = "__id"
COL_DETECTOR = "__detector_score"
COL_OOD = "__is_ood"

BINARY_DOMAIN = ("false", "true")


@dataclass(frozen=True)
class Schema:
    """Ordered concepts with finite domains; order is significant."""

    concepts: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        seen = set()
        for name, domain in self.concepts:
            if not IDENT_RE.match(name):
                raise ValidationError(f"invalid concept name: {name!r}")
            if name in seen:
                raise ValidationError(f"duplicate concept name: {name!r}")
            seen.add(name)
            if len(domain) < 2:
                raise ValidationError(
                    f"concept {name!r} needs at least 2 domain values, got {len(domain)}"
                )
            if len(set(domain)) != len(domain):
                raise ValidationError(f"concept {name!r} has duplicate domain values")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.concepts)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(len(domain) for _, domain in self.concepts)

    def __len__(self) -> int:
        return len(self.concepts)

    def concept_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown concept: {name!r}") from None

    def domain(self, concept: int | str) -> tuple[str, ...]:
        if isinstance(concept, str):
            concept = self.concept_index(concept)
        return self.concepts[concept][1]

    def value_index(self, concept: int | str, value: str) -> int:
        domain = self.domain(concept)
        try:
            return domain.index(value)
        except ValueError:
            name = concept if isinstance(concept, str) else self.concepts[concept][0]
            raise ValidationError(
                f"value {value!r} not in domain of {name!r}; valid values: {list(domain)}"
            ) from None

    def is_binary(self, concept: int | str) -> bool:
        return self.domain(concept) == BINARY_DOMAIN

    def validate_rows(self, rows) -> np.ndarray:
        """rows as an int64 (n, len(self)) matrix of in-domain indices: the
        one shape and range check behind every dataset, score and
        evaluation."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self):
            raise ValidationError(
                f"rows of shape {rows.shape} do not match schema with {len(self)} concepts"
            )
        if rows.size and (rows.min() < 0 or (rows >= self.domain_sizes).any()):
            raise ValidationError("rows contain out-of-domain index")
        return rows


@dataclass(frozen=True)
class Dataset:
    """Rows of semantic vectors plus optional detector scores and OOD flags."""

    schema: Schema
    vectors: np.ndarray  # (n, n_concepts) int64 domain indices
    sample_ids: tuple[str, ...]
    detector_scores: np.ndarray | None = None  # (n,) float64
    is_ood: np.ndarray | None = None  # (n,) bool

    def __post_init__(self):
        # A read-only view: checked once here, the rows are trusted by every
        # later reader, and the caller's own array stays writable.
        vectors = self.schema.validate_rows(self.vectors).view()
        vectors.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        n = self.vectors.shape[0]
        if len(self.sample_ids) != n:
            raise ValidationError("sample_ids length mismatch")
        if len(set(self.sample_ids)) != n:
            raise ValidationError("sample_ids must be unique")
        for arr, name in ((self.detector_scores, COL_DETECTOR), (self.is_ood, COL_OOD)):
            if arr is not None and arr.shape != (n,):
                raise ValidationError(f"{name} column length mismatch")
        if self.is_ood is not None and self.is_ood.dtype != np.bool_:
            raise ValidationError(f"{COL_OOD} column must be boolean, not {self.is_ood.dtype}")

    def __len__(self) -> int:
        return self.vectors.shape[0]


def id_subset(data: Dataset) -> Dataset:
    """The in-distribution rows: those not flagged OOD (all rows when the
    dataset has no OOD column)."""
    if data.is_ood is None:
        return data
    keep = ~data.is_ood
    return Dataset(
        data.schema,
        data.vectors[keep],
        tuple(np.asarray(data.sample_ids, dtype=object)[keep]),
        None if data.detector_scores is None else data.detector_scores[keep],
        data.is_ood[keep],
    )


def load_schema(path) -> Schema:
    """Read a schema JSON file: {"concept": ["v1", ...] | "binary", ...}."""
    return blame(path, schema_from_dict, read_json(path))


def schema_from_dict(raw) -> Schema:
    if not isinstance(raw, dict) or not raw:
        raise ValidationError("schema must be a non-empty JSON object")
    concepts = []
    for name, domain in raw.items():
        if domain == "binary":
            domain = list(BINARY_DOMAIN)
        if not isinstance(domain, list) or not all(isinstance(v, str) for v in domain):
            raise ValidationError(
                f"concept {name!r}: domain must be a list of strings or \"binary\""
            )
        concepts.append((name, tuple(domain)))
    return Schema(tuple(concepts))


def save_schema(schema: Schema, path) -> None:
    raw = {
        name: ("binary" if domain == BINARY_DOMAIN else list(domain))
        for name, domain in schema.concepts
    }
    write_json(path, raw)


def load_dataset(path, schema: Schema) -> Dataset:
    """Read a dataset CSV validated against the schema.

    Header must contain every concept name; reserved columns __id,
    __detector_score, __is_ood are optional. Of several faults, the one
    reported is the first of: a row's width, the header, then the columns
    (concepts in schema order, __detector_score, __is_ood, a repeated
    __id), each at its first faulty row. The file is read one block at a
    time; each block's columns become arrays at once, and the faults wait
    until the reader has met every record.
    """
    blocks = read_blocks(path)
    header = next(blocks)
    if header is None:
        raise_after(blocks, f"{path}: empty dataset file")
    reserved = {COL_ID, COL_DETECTOR, COL_OOD}
    for col in header:
        if col not in reserved and col not in schema.names:
            raise_after(blocks, f"{path}: unknown column {col!r}")
    if len(set(header)) != len(header):
        raise_after(blocks, f"{path}: duplicate column in header")
    missing = [name for name in schema.names if name not in header]
    if missing:
        raise_after(blocks, f"{path}: missing concept columns {missing}")

    at = {col: c for c, col in enumerate(header)}
    lookups = {name: {value: i for i, value in enumerate(domain)} for name, domain in schema.concepts}
    lookups[COL_OOD] = {"0": False, "1": True}

    def convert(name, cells, row):
        """A block column's cells as an array; the first faulty cell raises at its row."""
        if name == COL_DETECTOR:
            return np.array(float_column(path, cells, "detector score", row))
        try:
            return np.array([lookups[name][cell] for cell in cells],
                            dtype=bool if name == COL_OOD else np.int64)
        except KeyError as exc:
            (cell,) = exc.args
        fault = (f": {COL_OOD} must be 0 or 1, got {cell!r}" if name == COL_OOD
                 else f", column {name!r}: value {cell!r} not in domain")
        raise ValidationError(f"{path}: row {row + cells.index(cell)}{fault}")

    # The checked columns in fault order, with their block arrays from an
    # empty one of each dtype, and the first fault of each.
    parts = {name: [convert(name, (), 2)] for name in (*schema.names, COL_DETECTOR, COL_OOD) if name in at}
    faults, ids, n = {}, [], 0
    for row, cells in blocks:
        n += len(cells[0]) if cells else 0
        ids.extend(cells[at[COL_ID]] if COL_ID in at else ())
        for rank, name in enumerate(parts):
            try:
                parts[name].append(convert(name, cells[at[name]], row))
            except ValidationError as exc:
                faults.setdefault(rank, str(exc))
    if faults:
        raise ValidationError(faults[min(faults)])

    vectors = np.empty((n, len(schema)), dtype=np.int64)
    for c, name in enumerate(schema.names):
        vectors[:, c] = np.concatenate(parts.pop(name))
    det, ood = (np.concatenate(parts[col]) if col in parts else None for col in (COL_DETECTOR, COL_OOD))
    ids = tuple(ids) if COL_ID in at else tuple(map(str, range(n)))
    if len(set(ids)) != n:  # name the first row whose id repeats
        first = {}
        r = next(r for r, sid in enumerate(ids) if first.setdefault(sid, r) != r)
        raise ValidationError(f"{path}: row {r + 2}: duplicate {COL_ID} {ids[r]!r}")
    return Dataset(schema, vectors, ids, det, ood)


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
