"""Artifact file I/O: the one atomic writer and the one JSON reader.

Every file the package writes goes through atomic_open: the text goes to a
temporary file in the target's directory, which replaces the target only
when the write succeeded, so no reader sees a half-written artifact and a
failed write leaves an existing target unchanged. Each artifact's format
stays in its home module (save_schema, save_weights, ...).
"""

from __future__ import annotations

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


def read_json(path):
    """The parsed JSON of a file; malformed JSON, or JSON nested too deeply
    for the parser, raises ValidationError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}:{exc.lineno}: invalid JSON: {exc.msg} (column {exc.colno})"
            ) from None
        except RecursionError:
            raise ValidationError(f"{path}: JSON nests too deeply") from None
