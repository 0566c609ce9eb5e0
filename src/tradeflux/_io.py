"""The rules and pieces shared by every reader and writer.

A file argument is either an open file object, used as given, or a path
(``str`` or ``os.PathLike``), opened here. A string is never file content.
No country code, whether read from a file or handed to an
``ImbalanceNetwork``, breaks a rule of ``code_fault``, so that every file
format the pipeline writes can carry it.
"""

from __future__ import annotations

import contextlib
import os
import re

import numpy as np

#: Characters no country code may hold: C0 controls, which no XML 1.0
#: document (so no GraphML) can carry, and ``,`` and ``"``, which split or
#: quote a row of the CSV outputs. Nor may a code start with ``#``, which
#: makes an edge-list line a comment.
BAD_CHARS = '\x00-\x1f,"'

#: Rows reconciled, renumbered or written at a time.
_BLOCK = 1 << 13

_control = re.compile("[\x00-\x1f]").search
_bad_char = re.compile(f"[{BAD_CHARS}]").search


def code_fault(code: str) -> str | None:
    """The rule ``code`` breaks, worded to follow "must not", or ``None``."""
    if _control(code):
        return "contain control characters"
    if code.startswith("#"):
        return "start with '#'"
    if _bad_char(code):
        return "contain ',' or '\"'"
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
    -1 when ``fault(code)`` is true; a code is checked when it is first looked
    up, so once a read."""

    def __init__(self, fault):
        super().__init__()
        self.fault = fault

    def __missing__(self, code: str) -> int:
        self[code] = number = -1 if self.fault(code) else len(self)
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


def row_texts(line: str, n: int, columns):
    """The text of ``n`` rows, each ``line.format(*fields)``, ``_BLOCK`` rows
    at a time. ``columns(rows)`` gives the fields of the rows in the slice
    ``rows``, one array per field, so only a block of rows is ever held as
    Python objects. Floats are written by ``repr``, which re-reads bit for bit."""
    for rows in blocks(n):
        fields = [map(repr, c.tolist()) if c.dtype.kind == "f" else c.tolist()
                  for c in columns(rows)]
        yield "".join(map(line.format, *fields))


def write_text(file, text: str, more=()) -> None:
    """Write ``text``, then each of ``more``, to the path or text file ``file``."""
    with opened(file, "w") as stream:
        stream.write(text)
        stream.writelines(more)
