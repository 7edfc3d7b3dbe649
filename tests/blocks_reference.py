"""read_blocks as it was before plain blocks were cut with numpy: every
record through csv.reader, and each column a tuple of str. Kept verbatim,
but for reading BLOCK_CELLS from the artifacts module when called, so that
tests can patch it, as the reference the two-route reader is checked
against: the same records, the same faults and the same file:line."""

from __future__ import annotations

import csv

from logicood import artifacts
from logicood.artifacts import open_text
from logicood.errors import ValidationError


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
            while block := list(islice(reader, max(1, artifacts.BLOCK_CELLS // max(1, width)))):
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
