"""The rules and pieces shared by every reader and writer.

A file argument is either an open file object, used as given, or a path
(``str`` or ``os.PathLike``), opened here. A string is never file content.
``code_fault`` states the one rule for country codes, which both readers,
``DyadicRecord`` and every ``ImbalanceNetwork`` apply, so that every file
format the pipeline writes can carry every code it holds.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
from itertools import chain, repeat

import numpy as np

#: Rows reconciled, renumbered or written at a time.
_BLOCK = 1 << 13

#: The faults ``DyadicRecord`` words its own way, and ranks above the rest.
EMPTY, SPACED = "be empty", "contain whitespace"

_control = re.compile("[\x00-\x1f]").search
_not_xml = re.compile("[\ud800-\udfff\ufffe\uffff]").search


@functools.lru_cache(maxsize=1 << 12)
def code_fault(code: str) -> str | None:
    """The rule ``code`` breaks, worded to follow "must not", or ``None``.

    This is the one rule for country codes: each part keeps the code
    readable in some output. Records built in bulk name each country many
    times, so the faults of the last few thousand codes are cached."""
    if not code:  # an edge-list line would lose a field
        return EMPTY
    if code.split() != [code]:  # the edge-list reader splits a line at whitespace
        return SPACED
    if _control(code):  # no XML 1.0 document, so no GraphML, can carry these
        return "contain control characters"
    if code[0] == "#":  # the edge list would read the line as a comment
        return "start with '#'"
    if "," in code or '"' in code:  # the CSV outputs would split or quote the row
        return "contain ',' or '\"'"
    if _not_xml(code):  # nor these, none of which is an XML 1.0 character
        return "contain U+FFFE, U+FFFF or a surrogate"
    return None


def _undecodable_line(raw) -> int | None:
    """The number of the first line of the binary file ``raw`` that is not
    UTF-8, with lines ended at ``\\r`` too, as ``newline=""`` ends them."""
    raw.seek(0)
    line_no = 0
    for line in raw:
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return line_no + len(line[:exc.start + 1].splitlines())
        line_no += len(line.splitlines())


@contextlib.contextmanager
def opened(file, mode: str = "r"):
    """Yield ``file`` unchanged if it is a file object, else open it as a path.

    Text modes use UTF-8: reading skips a byte-order mark and leaves line ends
    untranslated, as the csv module expects; writing emits ``\\n`` line ends.
    Text that is not UTF-8 raises ``ValueError`` naming the path, if any, and
    the line. Binary modes (``"rb"``, ``"wb"``) open the path as bytes. A path
    opened here is closed on exit; a file object passed in is left open.
    """
    named = isinstance(file, (str, os.PathLike))
    if not named:
        handle = contextlib.nullcontext(file)
    elif "b" in mode:
        handle = open(file, mode)
    elif "w" in mode:
        handle = open(file, mode, encoding="utf-8", newline="\n")
    else:
        handle = open(file, mode, encoding="utf-8-sig", newline="")
    with handle as stream:
        try:
            yield stream
        except UnicodeDecodeError:
            raw = getattr(stream, "buffer", None)
            where = [os.fspath(file)] if named else []
            if line_no := raw is not None and raw.seekable() and _undecodable_line(raw):
                where.append(f"line {line_no}")
            raise ValueError(": ".join([*where, "not UTF-8 text"])) from None


def blocks(n: int) -> list[slice]:
    """Slices of ``_BLOCK`` rows, in order, covering ``n`` rows."""
    return [slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]


class CodeNumbers(dict):
    """Each code met in a read, to its number in order of first sight, or to
    -1 when it breaks a rule of ``code_fault``; a code is checked when it is
    first looked up, so once a read."""

    def __missing__(self, code: str) -> int:
        self[code] = number = -1 if code_fault(code) else len(self)
        return number

    def of(self, codes: list[str]) -> np.ndarray:
        """The numbers of ``codes``."""
        return np.fromiter(map(self.__getitem__, codes), np.intp, len(codes))

    def renumber(self, columns) -> tuple[str, ...]:
        """The codes that passed, sorted; each of ``columns``, arrays of their
        numbers, is renumbered in place to that order, ``_BLOCK`` rows at a time."""
        codes = sorted(code for code, i in self.items() if i >= 0)
        rank = np.zeros(len(self), dtype=np.intp)
        rank[[self[code] for code in codes]] = np.arange(len(codes))
        for ends in columns:
            for rows in blocks(len(ends)):
                ends[rows] = rank[ends[rows]]
        return tuple(codes)


def _append(columns: list[np.ndarray], parts) -> None:
    """Append ``parts``, one array per column, to ``columns`` in place, by
    ``ndarray.resize``, so the rows read are never held twice over, as
    ``np.concatenate`` would hold them. A part of a wider dtype (an
    ``object`` year too large for int64) widens the column."""
    if not len(parts[0]):
        return  # an empty part's columns may be of another dtype
    for i, part in enumerate(parts):
        column = columns[i]
        if column.dtype != np.result_type(column, part):
            column = columns[i] = column.astype(np.result_type(column, part))
        size = len(column)
        column.resize(size + len(part), refcheck=False)
        column[size:] = part


def row_parts(pieces, n, columns):
    """The parts of ``n`` rows, ``_BLOCK`` rows at a time: for each block, one
    tuple a row of ``pieces[0]``, the first field, ``pieces[1]``, the second
    field, and so on to ``pieces[-1]``, an empty first piece left out.

    ``pieces`` are literal text. ``columns(rows)`` gives the fields of the rows
    in the slice ``rows``, one array per field, of ``str`` or float; so only a
    block of rows is ever held as Python objects. Floats are written by
    ``repr``, which re-reads bit for bit."""
    for rows in blocks(n):
        fields = [map(repr, c.tolist()) if c.dtype.kind == "f" else c.tolist()
                  for c in columns(rows)]
        parts = [part for field, piece in zip(fields, pieces[1:]) for part in (field, repeat(piece))]
        yield zip(repeat(pieces[0]), *parts) if pieces[0] else zip(*parts)


def row_texts(pieces, n, columns):
    """The text of the rows of ``row_parts``, a block at a time."""
    return map("".join, map(chain.from_iterable, row_parts(pieces, n, columns)))


def write_text(file, text: str, more=()) -> None:
    """Write ``text``, then each of ``more``, to the path or text file ``file``."""
    with opened(file, "w") as stream:
        stream.write(text)
        stream.writelines(more)
