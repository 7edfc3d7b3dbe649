"""Semantic space definition and tabular data ingestion.

A schema fixes an ordered list of named concepts, each with a finite value
domain. A semantic vector assigns one domain index per concept; datasets are
collections of such vectors with optional detector scores and OOD flags.
Values are stored as domain indices internally; strings exist only at the
I/O boundary.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

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
    _index: dict = field(default_factory=dict, repr=False, compare=False)

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
            self._index[name] = len(self._index)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.concepts)

    @property
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

    def validate_vector(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.int64)
        if z.shape != (len(self),):
            raise ValidationError(
                f"vector length {z.shape} does not match schema with {len(self)} concepts"
            )
        sizes = np.asarray(self.domain_sizes)
        if np.any(z < 0) or np.any(z >= sizes):
            raise ValidationError("vector has out-of-domain index")
        return z


@dataclass(frozen=True)
class Dataset:
    """Rows of semantic vectors plus optional detector scores and OOD flags."""

    schema: Schema
    vectors: np.ndarray  # (n, n_concepts) int64 domain indices
    sample_ids: tuple[str, ...]
    detector_scores: np.ndarray | None = None  # (n,) float64
    is_ood: np.ndarray | None = None  # (n,) bool

    def __post_init__(self):
        n = self.vectors.shape[0]
        if self.vectors.ndim != 2 or self.vectors.shape[1] != len(self.schema):
            raise ValidationError("vector matrix shape does not match schema")
        if len(self.sample_ids) != n:
            raise ValidationError("sample_ids length mismatch")
        if len(set(self.sample_ids)) != n:
            raise ValidationError("sample_ids must be unique")
        for arr, name in ((self.detector_scores, COL_DETECTOR), (self.is_ood, COL_OOD)):
            if arr is not None and arr.shape != (n,):
                raise ValidationError(f"{name} column length mismatch")
        sizes = np.asarray(self.schema.domain_sizes)
        if n and (np.any(self.vectors < 0) or np.any(self.vectors >= sizes)):
            raise ValidationError("dataset contains out-of-domain index")

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
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"schema file {path}: invalid JSON: {exc}") from exc
    return schema_from_dict(raw)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)
        fh.write("\n")


def semantic_space_size(schema: Schema) -> int:
    """Number of possible worlds: the product of all domain sizes (exact)."""
    return math.prod(schema.domain_sizes)


def load_dataset(path, schema: Schema) -> Dataset:
    """Read a dataset CSV validated against the schema.

    Header must contain every concept name; reserved columns __id,
    __detector_score, __is_ood are optional.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty dataset file") from None
        rows = list(reader)
    return _dataset_from_rows(header, rows, schema, str(path))


def _dataset_from_rows(header, rows, schema: Schema, origin: str) -> Dataset:
    reserved = {COL_ID, COL_DETECTOR, COL_OOD}
    for col in header:
        if col not in reserved and col not in schema.names:
            raise ValidationError(f"{origin}: unknown column {col!r}")
    if len(set(header)) != len(header):
        raise ValidationError(f"{origin}: duplicate column in header")
    missing = [name for name in schema.names if name not in header]
    if missing:
        raise ValidationError(f"{origin}: missing concept columns {missing}")

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
                f"{origin}: row {r + 2} has {len(row)} cells, expected {len(header)}"
            )
        for c, (col, lookup) in enumerate(zip(concept_cols, lookups)):
            cell = row[col]
            try:
                vectors[r, c] = lookup[cell]
            except KeyError:
                raise ValidationError(
                    f"{origin}: row {r + 2}, column {schema.names[c]!r}: "
                    f"value {cell!r} not in domain"
                ) from None
        ids.append(row[id_col] if id_col is not None else str(r))
        if det is not None:
            try:
                det[r] = float(row[det_col])
            except ValueError:
                raise ValidationError(
                    f"{origin}: row {r + 2}: non-numeric detector score {row[det_col]!r}"
                ) from None
        if ood is not None:
            cell = row[ood_col]
            if cell not in ("0", "1"):
                raise ValidationError(
                    f"{origin}: row {r + 2}: {COL_OOD} must be 0 or 1, got {cell!r}"
                )
            ood[r] = cell == "1"

    return Dataset(schema, vectors, tuple(ids), det, ood)


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset back to the CSV format accepted by load_dataset."""
    schema = data.schema
    header = [COL_ID, *schema.names]
    if data.detector_scores is not None:
        header.append(COL_DETECTOR)
    if data.is_ood is not None:
        header.append(COL_OOD)
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
