"""CSV files read and written a block of rows at a time.

read_blocks is the one reader of data and scores files: it yields the
header and then the records in blocks of at most artifacts.BLOCK_CELLS
cells, each column as Cells, the one form the readers convert. CsvFormat
makes the text of every CSV file the package writes, exactly as
csv.writer writes it. A reader and each writer hold one block of rows at
a time, whatever the size of the file.

The functions that read or write a CSV file import this module when
called, so importing the CLI does not compile it.
"""

from __future__ import annotations

import csv

import numpy as np

from . import artifacts
from .errors import ValidationError


def read_blocks(path):
    """A CSV file's header (None for an empty file), then its records in
    blocks of at most BLOCK_CELLS cells, each as its first row's number
    (from 2) and a list of its columns as Cells, emptied when the next block
    is read. A malformed record or bytes not UTF-8 raise ValidationError
    where they are met; the first row whose width differs from the header's
    ends the blocks and raises ValidationError after the last record.

    The header goes through csv.reader. After it, the file is read a block
    of lines at a time, and numpy cuts a plain block at its commas and line
    ends: one with no quote, no NUL and no line over the field limit, whose
    lines end with \n or \r\n, so that it holds one record a line, and
    whose records are as wide as the header. The first block that is not
    plain, and every block after it, goes to csv.reader."""
    from itertools import chain, islice

    with artifacts.open_text(path, newline="") as fh:
        reader, cut = csv.reader(fh), 0  # cut: lines read apart from reader, not in its line_num
        try:
            yield (header := next(reader, None))
            width, row, fault = len(header or ()), 2, None
            step = max(1, artifacts.BLOCK_CELLS // max(1, width))
            plain = width > 0
            while True:
                if plain:
                    lines = []
                    try:
                        lines.extend(islice(fh, step))
                    except UnicodeDecodeError:  # a malformed record read before the bad bytes comes first
                        cut, reader = cut + reader.line_num, csv.reader(lines)
                        for _ in reader:
                            pass
                        raise
                    if not lines:
                        break
                    records, columns, bad = len(lines), _cut(lines, width), None
                    if columns is not None:
                        cut += records
                    else:  # csv.reader reads the block, left in lines, and the rest
                        plain, cut = False, cut + reader.line_num
                        reader, lines = csv.reader(chain(iter(lines), fh)), None  # read lines are freed
                if not plain:
                    records, columns, bad = _split(list(islice(reader, step)), width)
                    if not records:
                        break
                first, row = row, row + records
                if fault is None and bad is not None:
                    fault = f"{path}: row {first + bad[0]} has {bad[1]} cells, expected {width}"
                if fault is None:
                    yield first, columns
                    columns.clear()  # so that one block's cells are held at a time
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            raise ValidationError(f"{path}:{cut + reader.line_num}: {exc}") from None
    if fault is not None:
        raise ValidationError(fault)


def _cut(lines, width):
    """A block of lines cut with numpy at its commas and line ends, as a
    Cells of each column, when it is plain and each record is `width` cells
    wide; lines is then emptied. Otherwise None, with the block's lines
    left in lines for csv.reader."""
    import io

    limit = csv.field_size_limit()
    text = "".join(lines)
    # csv.reader before Python 3.11 rejects a NUL, so such a block is left to it.
    if '"' in text or "\0" in text or len(text) > limit and max(map(len, lines)) > limit:
        return None
    records = len(lines)
    lines.clear()
    if not text.endswith("\n"):  # the file's last line, or a \r ends it
        text += "\n"
    codes = _code_points(text)
    ends = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))  # each cell's end
    starts = np.empty_like(ends)
    starts[:1], starts[1:] = 0, ends[:-1] + 1
    if "\r" in text:  # newline="" leaves a \r only at a line end: a line's last cell ends at its \r
        ends -= (codes[ends] == ord("\n")) & (codes[ends - 1] == ord("\r"))
    if ends.size == records * width:
        starts, ends = starts.reshape(records, width), ends.reshape(records, width)
        # Each record has width - 1 commas and ends at a \n (so a lone \r, which also
        # ends a line, fails), and a record of one cell is no blank line.
        if (codes[starts[1:, 0] - 1] == ord("\n")).all() and (width > 1 or (ends > starts).all()):
            return [Cells(text, codes, starts[:, c], ends[:, c]) for c in range(width)]
    lines.extend(io.StringIO(text, newline=""))  # the same records, for csv.reader to find the fault
    return None


def _split(block, width):
    """(records, columns, bad) of a block of csv.reader's rows: their count,
    a Cells of each column, and (row in the block, count of cells) of the
    first row of another width, where columns is None."""
    from operator import itemgetter

    if set(map(len, block)) - {width}:
        r = next(r for r, cells in enumerate(block) if len(cells) != width)
        return len(block), None, (r, len(block[r]))
    return len(block), [Cells.of(tuple(map(itemgetter(c), block))) for c in range(width)], None


def _code_points(text):
    """text's code points as an array, of one byte each for ASCII text."""
    if text.isascii():
        return np.frombuffer(text.encode(), np.uint8)
    return np.frombuffer(text.encode("utf-32-le"), "<u4")


class Cells:
    """One column of a block of CSV records, the form every reader converts:
    cell r is text[starts[r]:ends[r]], and codes holds text's code points."""

    def __init__(self, text, codes, starts, ends):
        self.text, self.codes, self.starts, self.ends = text, codes, starts, ends

    @classmethod
    def of(cls, cells):
        """The Cells of a sequence of str."""
        text = "".join(cells)
        sizes = np.fromiter(map(len, cells), np.intp, len(cells))
        ends = np.cumsum(sizes)
        return cls(text, _code_points(text), ends - sizes, ends)

    def __len__(self):
        return len(self.ends)

    def __getitem__(self, r):
        return self.text[self.starts[r]:self.ends[r]]

    def strs(self) -> tuple[str, ...]:
        """Each cell as a str; the bounds become Python ints 4096 at a time,
        as a column's worth of them would outweigh its strs."""
        from itertools import chain

        parts = (slice(s, s + 4096) for s in range(0, len(self), 4096))
        return tuple(chain.from_iterable(
            map(self.text.__getitem__, map(slice, self.starts[p].tolist(), self.ends[p].tolist()))
            for p in parts))

    def index(self, values) -> np.ndarray:
        """Each cell's index in a sequence of distinct str values, -1 for a
        cell equal to none: exact string equality, made by comparing code
        points column by column, with no str made per cell."""
        found = np.full(len(self), -1, dtype=np.int64)
        sizes = self.ends - self.starts
        for i, value in enumerate(values):
            rows = np.flatnonzero(sizes == len(value))
            at, same = self.starts[rows], np.ones(len(rows), dtype=bool)
            for k, code in enumerate(_code_points(value).tolist()):
                same &= self.codes[at + k] == code
            found[rows[same]] = i
        return found


def raise_after(blocks, message):
    """Raise ValidationError(message) once blocks is exhausted, so that a
    fault its reader meets later comes first."""
    for _ in blocks:
        pass
    raise ValidationError(message)


def float_column(path, cells, what, row) -> list[float]:
    """float() of each of a block's Cells, whose first is in the given row,
    in one pass; the first cell float() rejects, or would bend (a `_`
    between digits, or whitespace around them), raises ValidationError
    naming its row."""
    cells = cells.strs()
    if not _bent("".join(cells)):
        try:
            return list(map(float, cells))
        except ValueError:
            pass
    r = next(r for r, cell in enumerate(cells) if _bent(cell) or not _is_float(cell))
    raise ValidationError(f"{path}: row {row + r}: non-numeric {what} {cells[r]!r}")


def _bent(text):
    """Whether text holds a `_` or whitespace, the only characters beside a
    number that float() accepts; str.split splits at what float() strips."""
    return "_" in text or text.split(None, 1) not in ([text], [])


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def row_slices(rows, width):
    """Slices of a sequence of rows `width` cells wide, a block of rows each."""
    step = max(1, artifacts.BLOCK_CELLS // width)
    return (slice(s, s + step) for s in range(0, rows, step))


class CsvFormat:
    """CSV text as csv.writer(fh, **dialect) writes it, made without a
    writer call per cell: under QUOTE_MINIMAL, a str with none of the
    characters the writer may quote or escape is its own text, and every
    other value goes through the writer."""

    def __init__(self, **dialect):
        import io

        self._out = io.StringIO()
        self._writer = csv.writer(self._out, **dialect)
        d = self._writer.dialect
        self.end, self._join = d.lineterminator, d.delimiter.join
        self._minimal = d.quoting == csv.QUOTE_MINIMAL
        # \r, \n and NUL go through the writer whatever the line end, for it to decide.
        self._special = d.delimiter + d.quotechar + (d.escapechar or "") + d.lineterminator + "\r\n\0"

    def line(self, cells) -> str:
        """The writer's text of one row, without its line end."""
        self._writer.writerow(cells)
        text = self._out.getvalue()
        self._out.seek(0)
        self._out.truncate()
        return text[:len(text) - len(self.end)]

    def _plain(self, text):
        return self._minimal and not any(map(text.__contains__, self._special))

    def cells(self, values) -> list[str]:
        """Each str value's text in a row of several cells."""
        values = list(values)
        if self._plain("".join(values)):
            return values
        return [value if self._plain(value) else self.line((value,)) for value in values]

    def column(self, values, domain=None):
        """A function of a slice of rows that gives their cells' texts:
        domain[value] of each value, with each domain value formatted once,
        or repr(float(value)) with no domain."""
        values = np.asarray(values)
        if domain is None:
            return lambda part: list(map(repr, map(float, values[part].tolist())))
        texts = np.array(self.cells(domain), dtype=object)
        return lambda part: texts[values[part].astype(np.intp)].tolist()

    def lines(self, rows) -> str:
        """The text of rows of cell texts, each row with its line end."""
        texts = list(map(self._join, rows))
        if "" in texts:  # a row of one empty cell, which the writer quotes so that it is no blank line
            empty = self.line(("",))
            texts = [text or empty for text in texts]
        texts.append("")
        return self.end.join(texts)
