"""Parsing and reconciliation of bilateral flow records.

Bilateral merchandise trade is double-reported: country A states its exports
to B, and B separately states its imports from A. Ideally the two figures
mirror each other; in real data they disagree. This module parses dyadic
records from delimited text, reconciles the two sides of every flow into a
single per-year export matrix under a configurable policy, and validates the
result.

Values are money in millions of current-year USD and are never deflated or
currency-converted. Country identity is an opaque string token; no ISO
validation is attempted.
"""

from __future__ import annotations

import csv
import functools
import math
import reprlib
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import attrgetter

import numpy as np

from . import _io
from ._io import CodeNumbers, _append, blocks, code_refusal, line_chunks, opened
from .errors import ConfigurationError

#: Relative disagreement between the two reports of one flow above which the
#: pair is counted as a conflict.
CONFLICT_TOLERANCE = 1e-6

#: Tokens (lowercased) treated as "no reported value".
MISSING_TOKENS = frozenset({"", ".", "na", "n/a", "nan", "none", "null"})

RECONCILE_POLICIES = ("average", "prefer-importer", "prefer-exporter", "max")


@dataclass(frozen=True)
class DyadicRecord:
    """One reported bilateral flow: what ``reporter`` says about ``partner``.

    ``exports`` is the reporter's claim about its own exports to the partner;
    ``imports`` is the reporter's claim about its imports from the partner
    (i.e. the partner's exports to the reporter). Either may be ``None`` when
    the reporter stayed silent on that side. A record is checked when it
    becomes a table, by ``DyadicTable.from_records``.
    """

    year: int
    reporter: str
    partner: str
    exports: float | None
    imports: float | None


def _row_checks(exports, imports, reporter, partner, token, codes, before=()):
    """The one rule for records rows: the mask of the rows that fail a check,
    and for each such row, in order, its index and the reason of the first
    check it fails, as a function of the index. The checks are ``before``,
    pairs of a mask and a reason, then export flow, import flow, self-trade
    and country codes (``code_refusal``'s, the reporter's before the partner's).

    ``exports`` and ``imports`` hold NaN where a flow is missing and -inf
    where it is not a number; ``reporter`` and ``partner`` hold the codes'
    numbers in a ``CodeNumbers``. ``token(i, name)`` is the text of row
    ``i``'s ``name`` flow, and ``codes(i)`` its reporter and partner."""
    checks = (
        *before,
        (np.isinf(exports) | (exports < 0), lambda i: _flow_fault(token(i, "exports"), "export")),
        (np.isinf(imports) | (imports < 0), lambda i: _flow_fault(token(i, "imports"), "import")),
        (reporter == partner, lambda i: "self-trade"),
        ((reporter < 0) | (partner < 0), lambda i: next(filter(None, map(code_refusal, codes(i))))),
    )
    bad = functools.reduce(np.logical_or, [mask for mask, _ in checks])
    at = np.flatnonzero(bad)
    first = np.argmax([mask[at] for mask, _ in checks], axis=0)
    return bad, [(i, checks[check][1]) for i, check in zip(at.tolist(), first.tolist())]


@dataclass(frozen=True)
class TradeMatrix:
    """Reconciled export matrix for one year.

    ``exports[i, j]`` is the resolved exports of ``countries[i]`` to
    ``countries[j]`` in millions of USD. Every matrix is checked when made: a
    ``ValueError`` names its first nonzero diagonal cell, else its first
    non-finite cell, else its first negative one, in row-major order. A float
    array is kept, not copied, so it must not be changed afterwards.
    """

    year: int
    countries: tuple[str, ...]
    exports: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.exports, dtype=float)
        n = len(self.countries)
        if matrix.shape != (n, n):
            raise ValueError(
                f"exports matrix shape {matrix.shape} does not match "
                f"{n} countries"
            )
        if len(set(self.countries)) != n:
            raise ValueError("duplicate country codes")
        diagonal = np.flatnonzero(np.diagonal(matrix))
        if diagonal.size:
            raise ValueError(f"nonzero diagonal at {self.countries[diagonal[0]]}")
        # no n x n temporary unless a cell is bad, which a NaN is to both tests
        if not (matrix.min(initial=0.0) >= 0 and np.isfinite(matrix.max(initial=0.0))):
            bad = ~np.isfinite(matrix)
            kind, bad = ("non-finite", bad) if bad.any() else ("negative", matrix < 0)
            i, j = divmod(int(np.argmax(bad)), n)
            raise ValueError(f"{kind} entry at {self.countries[i]}->{self.countries[j]}")
        object.__setattr__(self, "exports", matrix)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of reconciliation or of matrix validation.

    ``dropped`` holds (identifier, reason) pairs for inputs that were set
    aside rather than silently ignored. ``isolated`` lists countries with zero
    total trade. ``violations`` stays empty: a ``TradeMatrix`` is checked when made.
    """

    n_records: int
    n_conflicts: int = 0
    max_relative_conflict: float = 0.0
    dropped: tuple[tuple[str, str], ...] = ()
    violations: tuple[str, ...] = ()
    isolated: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        parts = [
            f"{self.n_records} records",
            f"{self.n_conflicts} conflicts",
            f"max relative conflict {self.max_relative_conflict:.3g}",
        ]
        if self.dropped:
            parts.append(f"{len(self.dropped)} dropped")
        if self.violations:
            parts.append(f"{len(self.violations)} invariant violations")
        if self.isolated:
            parts.append(f"{len(self.isolated)} isolated countries")
        return ", ".join(parts)


@dataclass(frozen=True)
class ColumnMap:
    """Names of the header columns carrying each dyadic field, each a ``str`` when made."""

    year: str = "year"
    reporter: str = "reporter"
    partner: str = "partner"
    exports: str = "exports"
    imports: str = "imports"

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"column name for {name} must be a string, not {type(value).__name__}"
                )

    @classmethod
    def from_dict(cls, mapping: dict) -> "ColumnMap":
        """The map given by a parsed JSON object of field names to column names.

        A refusal names a value's type, never the value, and at most 5
        unknown keys, however many entries the mapping holds."""
        if not isinstance(mapping, dict):
            raise ConfigurationError(
                f"not a JSON object of column names: a {type(mapping).__name__}"
            )
        unknown = sorted(set(mapping).difference(cls.__dataclass_fields__))
        if unknown:
            more = f" and {len(unknown) - 5} more" if len(unknown) > 5 else ""
            raise ConfigurationError(f"unknown format-map keys: {reprlib.repr(unknown[:5])}{more}")
        return cls(**mapping)


@dataclass(frozen=True, eq=False)
class DyadicTable:
    """Dyadic records as columns, one entry per record in input order.

    ``reporter`` and ``partner``, int32, index ``codes``, which is sorted and
    free of repeats; ``exports`` and ``imports`` hold NaN where the reporter
    stayed silent on that side. Every row passes the records-row checks
    (``_row_checks``), whether the parser or ``from_records`` made it.
    Tables compare by identity; compare their ``records()`` instead.
    """

    codes: tuple[str, ...]
    year: np.ndarray
    reporter: np.ndarray
    partner: np.ndarray
    exports: np.ndarray
    imports: np.ndarray

    @classmethod
    def from_records(cls, records) -> "DyadicTable":
        """The table of a ``DyadicRecord`` sequence, checked by the parser's
        ``_row_checks``, each distinct code once. The first record refused
        raises ``ValueError("record <i>: <reason>")``, a flow's token the ``repr``
        of the Python value it holds (a numpy scalar's ``item()``)."""
        number, n = CodeNumbers(), len(records)
        ends = number.of([r.reporter for r in records] + [r.partner for r in records])
        exports, imports = (
            np.fromiter(map(_record_flow, map(attrgetter(name), records)), float, n)
            for name in ("exports", "imports")
        )

        def token(i, name):
            value = getattr(records[i], name)
            return repr(value.item() if isinstance(value, np.generic) else value)

        _, failures = _row_checks(
            exports, imports, ends[:n], ends[n:], token,
            lambda i: (records[i].reporter, records[i].partner),
        )
        if failures:
            i, reason = failures[0]
            raise ValueError(f"record {i}: {reason(i)}")
        return cls(
            number.renumber([ends]),
            np.array(list(map(attrgetter("year"), records))),
            ends[:n], ends[n:], exports, imports,
        )

    def __len__(self) -> int:
        return len(self.reporter)

    def select(self, rows) -> "DyadicTable":
        """The rows picked by a boolean mask or an index array."""
        return DyadicTable(
            self.codes, self.year[rows], self.reporter[rows], self.partner[rows],
            self.exports[rows], self.imports[rows],
        )

    def records(self) -> list[DyadicRecord]:
        """One ``DyadicRecord`` per row."""
        codes = self.codes

        def flow(value):
            return None if math.isnan(value) else value

        return [
            DyadicRecord(year, codes[r], codes[p], flow(e), flow(i))
            for year, r, p, e, i in zip(
                self.year.tolist(), self.reporter.tolist(), self.partner.tolist(),
                self.exports.tolist(), self.imports.tolist(),
            )
        ]


@dataclass
class ParseResult:
    """Well-formed records plus the rows that could not be used.

    ``table`` holds the records as columns, each row checked by ``_parse_columns``;
    an empty file, like a header-only one, gives no codes and empty typed columns.
    ``records`` builds the same records as ``DyadicRecord`` objects on first use.
    """

    table: DyadicTable
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @functools.cached_property
    def records(self) -> list[DyadicRecord]:
        return self.table.records()


def _flow_or_flag(token: str) -> float:
    # NaN for a missing value; -inf, which the row checks reject, when unparsable
    try:
        return float(token)
    except ValueError:
        return math.nan if token.strip().lower() in MISSING_TOKENS else -math.inf


def _record_flow(value) -> float:
    """A record's flow as a flow column holds it: NaN for ``None``, and -inf,
    which the flow check refuses, for NaN and for what ``math`` cannot read
    as a real number; unlike ``float``, ``math`` reads no text as one."""
    if value is None:
        return math.nan
    try:
        return float(value) if math.isfinite(value) else -math.inf
    except (TypeError, OverflowError):
        return -math.inf


def _flow_column(tokens: list[str]) -> np.ndarray:
    """Values of one flow column: NaN where missing, -inf where unreadable."""
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        return np.fromiter(map(_flow_or_flag, tokens), float, len(tokens))


def _flow_fault(token: str, name: str) -> str:
    """Why the flow check refuses ``token``, a value of the ``name`` flow:
    unreadable, not finite, or negative."""
    try:
        kind = "negative" if math.isfinite(float(token)) else "non-finite"
    except ValueError:
        kind = "non-numeric"
    return f"{kind} {name} value {reprlib.repr(token)}"


def _by_distinct(tokens: list, convert) -> tuple[list, np.ndarray]:
    """``convert`` applied once per distinct token: the results, and for each
    token the position of its result."""
    position = dict(zip(dict.fromkeys(tokens), range(len(tokens))))
    inverse = np.fromiter(map(position.__getitem__, tokens), np.intp, len(tokens))
    return list(map(convert, position)), inverse


def _year(token: str) -> int | str:
    """The year ``token`` holds, or why ``int`` cannot read it."""
    try:
        return int(token.strip())
    except ValueError as exc:
        return str(exc)


def _header(header_line: str, columns: ColumnMap) -> tuple[str, list[str], dict]:
    """Delimiter, header cells, and the position of each required column, no two alike."""
    delimiter = "\t" if "\t" in header_line else ","
    header = next(csv.reader([header_line], delimiter=delimiter))
    lowered = [h.strip().lower() for h in header]
    positions = {}
    for name, wanted in vars(columns).items():
        if wanted in header:
            positions[name] = header.index(wanted)
        elif wanted.lower() in lowered:
            positions[name] = lowered.index(wanted.lower())
        else:
            raise ConfigurationError(f"required column {reprlib.repr(wanted)} not found in "
                                     f"header {reprlib.repr(header)}")
    for name, at in positions.items():
        other = next(known for known, place in positions.items() if place == at)
        if other != name:
            raise ConfigurationError(f"fields {other} and {name} both read column "
                                     f"{reprlib.repr(header[at])}")
    return delimiter, header, positions


def _parse_columns(line_nos, header: tuple, number: CodeNumbers, rows=None, fields=None,
                   width: int = 0):
    """Rows checked a column at a time: the kept rows' columns (year,
    reporter, partner, exports, imports) and the dropped rows.

    The rows come as ``rows``, lists of fields as read, or as ``fields``,
    one list of every row's fields, ``width`` to a row. Row ``i`` starts at
    line ``line_nos[i]``; ``header`` is what ``_header`` returns. Each check
    keeps its own mask, and a row that fails any is dropped, with the reason
    of the first it fails, in this order: too short for the mapped columns,
    year, export flow, import flow, self-trade, country codes. A row blank
    as read is skipped, unlisted.

    The reporter and partner columns hold the codes' numbers in ``number``,
    as int32.
    """
    _, names, positions = header
    if fields is None:  # each row padded with empty fields or cut to the header's width
        width, pad = len(names), [""] * len(names)
        fields = list(chain.from_iterable((row + pad)[:width] for row in rows))
    n = len(fields) // width

    def column(name: str) -> list[str]:
        return fields[positions[name]::width]

    def field(i: int, name: str) -> str:
        return fields[i * width + positions[name]]

    short = np.zeros(n, dtype=bool) if rows is None else (
        np.fromiter(map(len, rows), np.intp, n) <= max(positions.values()))

    years, year_at = _by_distinct(column("year"), _year)
    unread = np.array([isinstance(y, str) for y in years], dtype=bool)[year_at]
    year = np.array([0 if isinstance(y, str) else y for y in years])[year_at]

    stripped, inverse = _by_distinct(column("reporter") + column("partner"), str.strip)
    ends = number.of(stripped)[inverse]  # equal where the stripped codes are
    reporter, partner = ends[:n], ends[n:]

    exports, imports = _flow_column(column("exports")), _flow_column(column("imports"))

    bad, failures = _row_checks(
        exports, imports, reporter, partner, field,
        lambda i: (field(i, "reporter").strip(), field(i, "partner").strip()),
        before=((short, lambda i: f"expected {len(names)} columns, got {len(rows[i])}"),
                (unread, lambda i: years[year_at[i]])),
    )
    kept = (year, reporter, partner, exports, imports)
    dropped = []
    for i, reason in failures:
        row = fields[i * width:(i + 1) * width] if rows is None else rows[i]
        if any(map(str.strip, row)):  # a row blank as read is skipped
            dropped.append((f"line {line_nos[i]}", reason(i)))
    if failures:
        kept = tuple(values[~bad] for values in kept)
    return kept, dropped


def _parse_chunks(chunks, columns: ColumnMap) -> ParseResult:
    """Records from ``chunks``, as ``line_chunks`` gives them, the first
    line the header."""
    number = CodeNumbers()
    kept = [np.empty(0, dtype) for dtype in (np.int64, np.int32, np.int32, float, float)]
    dropped = []
    header = None
    line_no = 1  # of the next line to parse

    def check(line_nos, rows=None, fields=None, width=0):
        part, part_dropped = _parse_columns(line_nos, header, number, rows, fields, width)
        _append(kept, part)
        dropped.extend(part_dropped)

    for lines, text in chunks:
        if header is None:
            header = _header(lines[0], columns)
            lines, text, line_no = lines[1:], text[len(lines[0]):], line_no + 1
        if '"' in text:
            # a quoted field may span lines: one csv reader reads the rest
            rest = chain.from_iterable(more for more, _ in chunks)
            reader = csv.reader(chain(lines, rest), delimiter=header[0])
            first, rows, starts, read = line_no, [], [], 0
            for row in reader:  # each row numbered by the line it starts at
                rows.append(row)
                starts.append(line_no)
                line_no = first + reader.line_num
                read += sum(map(len, row))
                if read >= _io._CHUNK:  # about a chunk's characters
                    check(starts, rows)
                    rows, starts, read = [], [], 0
            check(starts, rows)
            break
        delimiter, _, positions = header
        widths = set(map(str.count, lines, repeat(delimiter)))
        width = widths.pop() + 1 if len(widths) == 1 else 0
        line_nos, line_no = range(line_no, line_no + len(lines)), line_no + len(lines)
        if width > max(positions.values()):
            # the rows are of one width, wide enough for the columns: one split
            lines.clear()  # the lines' strings are not held beside the fields
            text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
            check(line_nos, fields=text.removesuffix("\n").replace("\n", delimiter).split(delimiter),
                  width=width)
        elif lines:
            # ragged rows, or a blank line: each row split alone
            check(line_nos, [line.rstrip("\r\n").split(delimiter) for line in lines])
        del lines, text  # before line_chunks splits the next chunk
    return ParseResult(DyadicTable(number.renumber(kept[1:3]), *kept), dropped)


def parse_dyadic_records(stream, columns: ColumnMap | None = None) -> ParseResult:
    """Parse dyadic records from delimited text with a header row.

    ``stream`` is a path or an open text file object, never file content.
    The delimiter (comma or tab) is detected from the header row.
    Blank rows are skipped; every other unusable row is collected in
    ``ParseResult.dropped`` with its line number and the reason of the first
    column check it fails (see ``_parse_columns``), never silently skipped.

    The file is read by ``line_chunks``, which splits lines alike from paths
    and streams, about ``_io._CHUNK`` characters at a time, as edge lists
    are, and one checker checks each chunk's rows a column at a time.
    ``str.split`` splits a chunk into fields, whole when its rows are of one
    width, else line by line; from the first chunk holding a ``"``, since a
    quoted field may span lines, one ``csv`` reader reads the rest. A row is
    numbered by the line it starts at. Each code is checked once per call,
    and kept rows are appended in place to the result's columns, the codes
    as int32, so a parse holds the table and a few chunks' worth of
    strings, never the table twice.

    Raises :class:`ConfigurationError` when a required column named by
    ``columns`` is absent from the header or found by another field too.
    """
    columns = columns or ColumnMap()
    with opened(stream) as stream:
        try:
            return _parse_chunks(line_chunks(stream, _io._CHUNK), columns)
        except csv.Error as exc:
            raise ValueError(f"malformed CSV: {exc}") from None


def _resolve(policy: str, exp: np.ndarray, imp: np.ndarray) -> np.ndarray:
    """One flow from its exporter and importer claims, under ``policy``."""
    if policy == "average":
        with np.errstate(over="ignore"):
            resolved = 0.5 * (exp + imp)
        # two claims near the float limit overflow their sum; halve each first
        over = np.isinf(resolved)
        resolved[over] = 0.5 * exp[over] + 0.5 * imp[over]
        return resolved
    if policy == "prefer-importer":
        return imp
    if policy == "prefer-exporter":
        return exp
    # max, keeping the exporter side on ties as max() does
    return np.where(imp > exp, imp, exp)


def reconcile_flows(
    records: DyadicTable | list[DyadicRecord], year: int, policy: str = "average"
) -> tuple[TradeMatrix, ValidationReport]:
    """Merge double-reported flows into a single export matrix.

    ``records`` is a :class:`DyadicTable` or a sequence of
    :class:`DyadicRecord`, all of ``year``; a sequence is checked by
    :meth:`DyadicTable.from_records`.
    For the flow A->B there are up to two claims: A's export report and B's
    import report. ``policy`` picks the resolution (``average``,
    ``prefer-importer``, ``prefer-exporter``, ``max``); a single claim is
    taken as-is and no claim at all means zero flow. Claims disagreeing by
    more than ``CONFLICT_TOLERANCE`` relative are counted as conflicts.
    Only the first report of each (reporter, partner) pair is used; later
    ones are listed in the report's ``dropped``.
    """
    if policy not in RECONCILE_POLICIES:
        raise ConfigurationError(
            f"unknown reconcile policy {policy!r}; expected one of {RECONCILE_POLICIES}"
        )
    table = records if isinstance(records, DyadicTable) else DyadicTable.from_records(records)
    wrong = np.flatnonzero(table.year != year)
    if wrong.size:
        raise ValueError(
            f"record for year {table.year[wrong[0]]} passed to reconcile_flows({year})"
        )
    codes = table.codes
    # the countries of the rows, numbered in the table's sorted order; each
    # pair's first report names the same two countries as its later ones
    present = np.zeros(len(codes), dtype=bool)
    present[table.reporter] = True
    present[table.partner] = True
    countries = tuple(compress(codes, present))
    number = np.cumsum(present) - 1
    n = len(countries)

    def flat_at(rows: slice) -> np.ndarray:
        # each row's flow reporter->partner, as a flat matrix position
        return number[table.reporter[rows]] * n + number[table.partner[rows]]

    # A pair's first report is the least row at its position: one entry per
    # matrix cell finds it, with no sort. No column of the table is copied
    # whole: rows go a block at a time.
    row_type = np.min_scalar_type(len(table))
    least = np.full(n * n, len(table), dtype=row_type)
    for rows in blocks(len(table)):
        np.minimum.at(least, flat_at(rows), np.arange(rows.start, rows.stop, dtype=row_type))
    first = np.empty(len(table), dtype=bool)
    for rows in blocks(len(table)):
        first[rows] = least[flat_at(rows)] == np.arange(rows.start, rows.stop, dtype=row_type)
    del least
    later = ~first
    dropped = tuple(
        (f"{codes[r]}->{codes[p]}", "duplicate report for pair")
        for r, p in zip(table.reporter[later].tolist(), table.partner[later].tolist())
    )

    # Claims about the flow a->b: the exporter side from a's first report,
    # then the importer side from b's. A missing side is NaN in the table;
    # present values are finite by construction. A cell of the matrix is NaN
    # until a claim sets it, so the matrix itself marks the exporter claims,
    # and the cells that no claim sets are cleared last, a block at a time.
    exports = np.full((n, n), np.nan)
    for rows in blocks(len(table)):
        keep = first[rows] & ~np.isnan(table.exports[rows])
        exports.flat[flat_at(rows)[keep]] = table.exports[rows][keep]
    n_conflicts, max_conflict = 0, 0.0
    for rows in blocks(len(table)):
        keep = first[rows] & ~np.isnan(table.imports[rows])
        importer, exporter = np.divmod(flat_at(rows)[keep], n)
        at = exporter * n + importer
        claims = table.imports[rows][keep]
        both_exp = exports.flat[at]
        both = ~np.isnan(both_exp)
        both_exp, both_imp = both_exp[both], claims[both]
        claims[both] = _resolve(policy, both_exp, both_imp)
        exports.flat[at] = claims

        denom = np.maximum(np.abs(both_exp), np.abs(both_imp))
        rel = np.divide(
            np.abs(both_exp - both_imp), denom, out=np.zeros_like(denom), where=denom > 0
        )
        n_conflicts += int(np.count_nonzero(rel > CONFLICT_TOLERANCE))
        max_conflict = max(max_conflict, float(rel.max(initial=0.0)))
    cells = exports.reshape(-1)
    for part in blocks(cells.size):
        block = cells[part]
        block[np.isnan(block)] = 0.0  # no claim, no flow

    report = ValidationReport(
        n_records=len(table),
        n_conflicts=n_conflicts,
        max_relative_conflict=max_conflict,
        dropped=dropped,
    )
    return TradeMatrix(year, countries, exports), report


def validate_trade_matrix(tm: TradeMatrix) -> ValidationReport:
    """Report a matrix's nonzero cells, as ``n_records``, and its isolated
    countries. The matrix rules were checked when ``tm`` was made, so the
    report lists no violations.
    """
    matrix = tm.exports
    with np.errstate(over="ignore"):
        totals = matrix.sum(axis=0) + matrix.sum(axis=1)
    return ValidationReport(
        n_records=int(np.count_nonzero(matrix)),
        isolated=tuple(compress(tm.countries, totals == 0.0)),
    )
