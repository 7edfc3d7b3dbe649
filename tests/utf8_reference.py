"""How open_text found the first line that is not UTF-8 before it read
the file in bounded chunks: the whole file read at once and split into
lines. Kept verbatim as the reference the chunked search is checked
against."""

from __future__ import annotations


def first_bad_line(raw) -> int:
    """The number of the first line of a binary file that is not UTF-8;
    StopIteration when every line is."""
    # LF, CRLF and CR end a line, as in every reader
    return next(n for n, b in enumerate(raw.read().splitlines(), 1)
                if b.decode(errors="replace").encode() != b)
