"""Artifact file I/O: the one atomic writer and the one text, CSV and JSON readers.

Every file the package writes goes through atomic_open: the text goes to a
temporary file in the target's directory, which replaces the target only
when the write succeeded, so no reader sees a half-written artifact and a
failed write leaves an existing target unchanged. Each artifact's format
stays in its home module (save_schema, save_weights, ...).

Every CSV file the package reads (data and scores files) goes through
read_blocks, which yields the header and then the records in blocks of at
most BLOCK_CELLS cells, as columns. A reader and each writer hold one block
of rows at a time, whatever the size of the file.
"""

from __future__ import annotations

import csv
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


def read_blocks(path):
    """A CSV file's header (None for an empty file), then its records in
    blocks of at most BLOCK_CELLS cells, each as its first row's number
    (from 2) and a list of its columns, emptied when the next block is read.
    A malformed record or bytes not UTF-8 raise ValidationError where they
    are met; the first row whose width differs from the header's ends the
    blocks and raises ValidationError after the last record."""
    from itertools import islice
    from operator import itemgetter

    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield (header := next(reader, None))
            width, row, fault = len(header or ()), 2, None
            while block := list(islice(reader, max(1, BLOCK_CELLS // max(1, width)))):
                first, row = row, row + len(block)
                if fault is None and set(map(len, block)) != {width}:
                    r = next(r for r, cells in enumerate(block) if len(cells) != width)
                    fault = f"{path}: row {first + r} has {len(block[r])} cells, expected {width}"
                if fault is None:  # column by column: zip(*block) makes an iterator per row
                    columns = [tuple(map(itemgetter(c), block)) for c in range(width)]
                    del block
                    yield first, columns
                    columns.clear()  # so that one block's cells are held at a time
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    if fault is not None:
        raise ValidationError(fault)


def raise_after(blocks, message):
    """Raise ValidationError(message) once blocks is exhausted, so that a
    fault its reader meets later comes first."""
    for _ in blocks:
        pass
    raise ValidationError(message)


def blockwise(array, width):
    """array's values as Python objects, made a block of rows `width` cells wide at a time."""
    from itertools import chain

    step = max(1, BLOCK_CELLS // width)
    return chain.from_iterable(array[s:s + step].tolist() for s in range(0, len(array), step))


def float_column(path, cells, what, row) -> list[float]:
    """float() of each cell of a block column whose first cell is in the
    given row; the first cell float() rejects, or would bend (a `_` between
    digits, or whitespace around them), raises ValidationError naming its row."""
    import re

    bent = re.compile(r"[\s_]").search  # float() accepts no other whitespace
    suspect, values = bent("".join(cells)), []
    try:
        for cell in cells:
            if suspect and bent(cell):
                raise ValueError
            values.append(float(cell))
    except ValueError:
        r = len(values)
        raise ValidationError(f"{path}: row {row + r}: non-numeric {what} {cells[r]!r}") from None
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
