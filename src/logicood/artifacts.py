"""Artifact file I/O: the one atomic writer and the one text, CSV and JSON readers.

Every file the package writes goes through atomic_open: the text goes to a
temporary file in the target's directory, which replaces the target only
when the write succeeded, so no reader sees a half-written artifact and a
failed write leaves an existing target unchanged. Each artifact's format
stays in its home module (save_schema, save_weights, ...).

Every CSV file the package reads (data and scores files) goes through
read_columns, which checks each row's width and returns whole columns.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager

from .errors import ValidationError


@contextmanager
def atomic_open(path):
    """A UTF-8 text handle, without newline translation, on a temporary
    `.tmp_*~` file beside path; it replaces path when the block succeeds
    and is deleted when the block raises."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp_{os.urandom(8).hex()}~")
    # Created as open(path, "w") creates a file, so the umask sets its mode
    # (tempfile.mkstemp would make every artifact owner-only).
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path, payload) -> None:
    """The payload as 2-space-indented JSON plus a final newline."""
    write_text(path, json.dumps(payload, indent=2) + "\n")


@contextmanager
def open_text(path, newline=None):
    """A UTF-8 text handle on path; bytes not UTF-8 raise ValidationError naming their line."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:  # LF, CRLF and CR end a line, as in every reader
                bad = next(n for n, b in enumerate(raw.read().splitlines(), 1)
                           if b.decode(errors="replace").encode() != b)
            raise ValidationError(f"{path}:{bad}: not UTF-8 text") from None


def read_columns(path) -> tuple[list[str] | None, list[tuple[str, ...]]]:
    """A CSV file's header and its columns, each a tuple of cells, or
    (None, []) for an empty file. A malformed row, or the first row whose
    width differs from the header's, raises ValidationError naming it."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header, *rows = list(reader) or [None]
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        return None, []
    width = len(header)
    r = next((r for r, row in enumerate(rows) if len(row) != width), None)
    if r is not None:  # rows are numbered from 2, after the header
        raise ValidationError(f"{path}: row {r + 2} has {len(rows[r])} cells, expected {width}")
    return header, list(zip(*rows)) or [()] * width


def float_column(path, column, what) -> list[float]:
    """float() of each cell of a read_columns column; the first cell it
    rejects raises ValidationError naming its row."""
    values = []
    try:
        for cell in column:
            values.append(float(cell))
    except ValueError:
        row = len(values) + 2
        raise ValidationError(f"{path}: row {row}: non-numeric {what} {cell!r}") from None
    return values


def blame(path, fn, *args):
    """fn(*args), with a ValidationError it raises prefixed by path, the
    file at fault."""
    try:
        return fn(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def read_json(path):
    """The parsed JSON of a file; text that is not UTF-8, malformed JSON, or
    JSON nested too deeply for the parser raises ValidationError."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}:{exc.lineno}: invalid JSON: {exc.msg} (column {exc.colno})"
            ) from None
        except RecursionError:
            raise ValidationError(f"{path}: JSON nests too deeply") from None
