"""Semantic space definition and tabular data ingestion.

A schema fixes an ordered list of named concepts, each with a finite value
domain. A semantic vector assigns one domain index per concept; datasets are
collections of such vectors with optional detector scores and OOD flags.
Values are stored as domain indices internally; strings exist only at the
I/O boundary. A dataset holds its rows in one form, which the schema picks:
a read-only column-major matrix of the narrowest unsigned type that holds
every domain index (one byte a cell for domains of up to 256 values), so
that reading one concept reads one contiguous column of small cells.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import atomic_open, blame, read_json, write_json
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

    @cached_property
    def row_dtype(self) -> np.dtype:
        """The dtype of a Dataset's rows: the narrowest unsigned type that
        holds every domain index."""
        return np.min_scalar_type(max(self.domain_sizes, default=1) - 1)

    def empty_rows(self, n: int) -> np.ndarray:
        """An uninitialised (n, len(self)) matrix in a Dataset's row form:
        row_dtype, column-major."""
        return np.empty((n, len(self)), dtype=self.row_dtype, order="F")

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
        """rows as an (n, len(self)) matrix of in-domain indices: the one
        shape and range check behind every dataset, score and evaluation.
        An integer array keeps its dtype and layout, so no copy is made of
        it; any other input (lists, bool or float arrays) becomes int64."""
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":
            rows = rows.astype(np.int64)
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
    vectors: np.ndarray  # (n, n_concepts) domain indices in schema.row_dtype, column-major
    sample_ids: tuple[str, ...]
    detector_scores: np.ndarray | None = None  # (n,) float64
    is_ood: np.ndarray | None = None  # (n,) bool

    def __post_init__(self):
        # A read-only view in the row form: checked once here, the rows are
        # trusted by every later reader, and the caller's own array stays
        # writable. Rows in any other form are copied into it once.
        vectors = self.schema.validate_rows(self.vectors)
        if vectors.dtype != self.schema.row_dtype or not vectors.flags.f_contiguous:
            vectors = np.asfortranarray(vectors, dtype=self.schema.row_dtype)
        vectors = vectors.view()
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
    rows = data.schema.empty_rows(int(keep.sum()))
    return Dataset(
        data.schema,
        np.compress(keep, data.vectors, axis=0, out=rows),
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
    from .csvblocks import Cells, float_column, raise_after, read_blocks

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
    domains = {**dict(schema.concepts), COL_OOD: ("0", "1")}

    def convert(name, cells, row):
        """A block column's Cells as an array; the first faulty cell raises at its row."""
        if name == COL_DETECTOR:
            return np.array(float_column(path, cells, "detector score", row))
        codes = cells.index(domains[name])
        if codes.size and codes.min() < 0:
            r = int(np.argmax(codes < 0))
            fault = (f": {COL_OOD} must be 0 or 1, got {cells[r]!r}" if name == COL_OOD
                     else f", column {name!r}: value {cells[r]!r} not in domain")
            raise ValidationError(f"{path}: row {row + r}{fault}")
        return codes == 1 if name == COL_OOD else codes.astype(schema.row_dtype)

    # The checked columns in fault order, with their block arrays from an
    # empty one of each dtype, and the first fault of each.
    parts = {name: [convert(name, Cells.of(()), 2)]
             for name in (*schema.names, COL_DETECTOR, COL_OOD) if name in at}
    faults, ids, n = {}, [], 0
    for row, cells in blocks:
        n += len(cells[0]) if cells else 0
        ids.extend(cells[at[COL_ID]].strs() if COL_ID in at else ())
        for rank, name in enumerate(parts):
            try:
                parts[name].append(convert(name, cells[at[name]], row))
            except ValidationError as exc:
                faults.setdefault(rank, str(exc))
    if faults:
        raise ValidationError(faults[min(faults)])

    vectors = schema.empty_rows(n)
    for c, name in enumerate(schema.names):
        np.concatenate(parts.pop(name), out=vectors[:, c])
    det, ood = (np.concatenate(parts[col]) if col in parts else None for col in (COL_DETECTOR, COL_OOD))
    ids = tuple(ids) if COL_ID in at else tuple(map(str, range(n)))
    try:  # the Dataset's check is the one set of the ids made
        return Dataset(schema, vectors, ids, det, ood)
    except ValidationError:  # its one check the columns do not pass already: a repeated id
        first = {}
        r = next(r for r, sid in enumerate(ids) if first.setdefault(sid, r) != r)
        raise ValidationError(f"{path}: row {r + 2}: duplicate {COL_ID} {ids[r]!r}") from None


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset back to the CSV format accepted by load_dataset; the
    text is made and written one block of rows at a time."""
    from .csvblocks import CsvFormat, row_slices

    fmt = CsvFormat()
    header = [COL_ID, *data.schema.names]
    columns = [fmt.column(data.vectors[:, c], domain)
               for c, (_, domain) in enumerate(data.schema.concepts)]
    if data.detector_scores is not None:
        header.append(COL_DETECTOR)
        columns.append(fmt.column(data.detector_scores))
    if data.is_ood is not None:
        header.append(COL_OOD)
        columns.append(fmt.column(data.is_ood, ("0", "1")))
    with atomic_open(path) as fh:
        fh.write(fmt.lines([fmt.cells(header)]))
        for part in row_slices(len(data), len(header)):
            ids = fmt.cells(data.sample_ids[part])
            fh.write(fmt.lines(zip(ids, *(column(part) for column in columns))))
