"""Artifact file I/O: the one atomic writer and the one text, CSV and JSON readers.

Every file the package writes goes through atomic_open: the text goes to a
temporary file in the target's directory, which replaces the target only
when the write succeeded, so no reader sees a half-written artifact and a
failed write leaves an existing target unchanged. Each artifact's format
stays in its home module (save_schema, save_weights, ...).
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


def read_csv(path) -> list[list[str]]:
    """The rows of a CSV file; a malformed row raises ValidationError."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return list(reader)
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None


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
