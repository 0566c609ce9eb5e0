"""The rules shared by every reader and writer.

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

#: Characters no country code may hold: C0 controls, which no XML 1.0
#: document (so no GraphML) can carry, and ``,`` and ``"``, which split or
#: quote a row of the CSV outputs. Nor may a code start with ``#``, which
#: makes an edge-list line a comment.
BAD_CHARS = '\x00-\x1f,"'

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


@contextlib.contextmanager
def opened(file, mode: str = "r"):
    """Yield ``file`` unchanged if it is a file object, else open it as a path.

    Text modes use UTF-8; writing emits ``\\n`` line ends and reading leaves
    line ends untranslated, as the csv module expects. Binary modes
    (``"rb"``, ``"wb"``) open the path as bytes. A path opened here is
    closed on exit; a file object passed in is left open.
    """
    if not isinstance(file, (str, os.PathLike)):
        yield file
        return
    if "b" in mode:
        handle = open(file, mode)
    else:
        handle = open(file, mode, encoding="utf-8", newline="\n" if "w" in mode else "")
    with handle:
        yield handle
