"""Artifact file I/O: the one atomic writer and the one text and JSON readers.

Every file the package writes goes through atomic_open: the text goes to a
temporary file in the target's directory, which replaces the target only
when the write succeeded, so no reader sees a half-written artifact and a
failed write leaves an existing target unchanged. Each artifact's format
stays in its home module (save_schema, save_weights, ...).

CSV files (data, scores and decisions files) are read and formatted by
the csvblocks module, BLOCK_CELLS cells at a time.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

from .errors import ValidationError

BLOCK_CELLS = 1 << 16  # cells per block that CSV readers and writers hold


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
            raise ValidationError(f"{path}:{first_bad_line(path)}: not UTF-8 text") from None


def first_bad_line(path, size=1 << 16):
    """The number of the first line of a file that is not UTF-8, or None,
    read size characters at a time; LF, CRLF and CR each end a line."""
    line = 1
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        while text := fh.readline(size):
            try:
                text.encode()
            except UnicodeEncodeError:  # a byte not UTF-8, escaped as a lone surrogate
                return line
            line += text.endswith("\n")


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
