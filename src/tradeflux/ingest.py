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
import io
import math
import re
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import attrgetter

import numpy as np

from ._io import BAD_CHARS, CodeNumbers, _append, blocks, code_fault, opened
from .errors import ConfigurationError

#: Relative disagreement between the two reports of one flow above which the
#: pair is counted as a conflict.
CONFLICT_TOLERANCE = 1e-6

#: Tokens (lowercased) treated as "no reported value".
MISSING_TOKENS = frozenset({"", ".", "na", "n/a", "nan", "none", "null"})

RECONCILE_POLICIES = ("average", "prefer-importer", "prefer-exporter", "max")

# matches exactly the characters for which str.isspace() is true
_has_space = re.compile(r"\s").search
# whitespace or BAD_CHARS: one search per code of each record
_bad_token = re.compile(rf"[\s{BAD_CHARS}]").search


@dataclass(frozen=True)
class DyadicRecord:
    """One reported bilateral flow: what ``reporter`` says about ``partner``.

    ``exports`` is the reporter's claim about its own exports to the partner;
    ``imports`` is the reporter's claim about its imports from the partner
    (i.e. the partner's exports to the reporter). Either may be ``None`` when
    the reporter stayed silent on that side.
    """

    year: int
    reporter: str
    partner: str
    exports: float | None
    imports: float | None

    def __post_init__(self):
        if not self.reporter or not self.partner:
            raise ValueError("country codes must be non-empty")
        if (_bad_token(self.reporter) or _bad_token(self.partner)
                or self.reporter[0] == "#" or self.partner[0] == "#"):
            if _has_space(self.reporter) or _has_space(self.partner):
                raise ValueError("country codes must be whitespace-free tokens")
            fault = code_fault(self.reporter) or code_fault(self.partner)
            raise ValueError(f"country codes must not {fault}")
        if self.reporter == self.partner:
            raise ValueError(f"self-trade record for {self.reporter!r}")
        for name in ("exports", "imports"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class TradeMatrix:
    """Reconciled export matrix for one year.

    ``exports[i, j]`` is the resolved exports of ``countries[i]`` to
    ``countries[j]`` in millions of USD. Construction checks shape only;
    value-level invariants are checked by :func:`validate_trade_matrix` so
    that defective matrices can be built and then reported on.
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
        object.__setattr__(self, "exports", matrix)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of parsing, reconciliation, or matrix validation.

    ``dropped`` holds (identifier, reason) pairs for inputs that were set
    aside rather than silently ignored. ``violations`` names broken matrix
    invariants; ``isolated`` lists countries with zero total trade.
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
    """Names of the header columns carrying each dyadic field."""

    year: str = "year"
    reporter: str = "reporter"
    partner: str = "partner"
    exports: str = "exports"
    imports: str = "imports"

    @classmethod
    def from_dict(cls, mapping: dict) -> "ColumnMap":
        """The map given by a parsed JSON object of field names to column names."""
        if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
            raise ConfigurationError(f"not a JSON object of column names: {mapping!r}")
        unknown = set(mapping) - {"year", "reporter", "partner", "exports", "imports"}
        if unknown:
            raise ConfigurationError(f"unknown format-map keys: {sorted(unknown)}")
        return cls(**mapping)


@dataclass(frozen=True, eq=False)
class DyadicTable:
    """Dyadic records as columns, one entry per record in input order.

    ``reporter`` and ``partner`` index ``codes``, which is sorted and free
    of repeats; ``exports`` and ``imports`` hold NaN where the reporter
    stayed silent on that side. Every row satisfies ``DyadicRecord``'s checks.
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
        """The table of a ``DyadicRecord`` sequence."""
        number, n = CodeNumbers(_refused_code), len(records)
        ends = number.of([r.reporter for r in records] + [r.partner for r in records])
        return cls(
            number.renumber([ends]),
            np.array(list(map(attrgetter("year"), records))),
            ends[:n], ends[n:],
            # None becomes NaN
            np.array(list(map(attrgetter("exports"), records)), dtype=float),
            np.array(list(map(attrgetter("imports"), records)), dtype=float),
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

    ``table`` holds the records as columns; ``records`` builds the same
    records as ``DyadicRecord`` objects on first use.
    """

    table: DyadicTable = field(default_factory=lambda: DyadicTable.from_records([]))
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @functools.cached_property
    def records(self) -> list[DyadicRecord]:
        return self.table.records()


def _parse_flow(token: str, name: str) -> float | None:
    if token.strip().lower() in MISSING_TOKENS:
        return None
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric {name} value {token!r}") from None
    if math.isnan(value):
        return None
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name} value {token!r}")
    if value < 0:
        raise ValueError(f"negative {name} value {token!r}")
    return value


def _parse_row(row: list[str], positions: dict, n_header: int) -> DyadicRecord | None:
    """One row's record, ``None`` for a blank row; a bad row raises
    ``ValueError`` with the reason it is dropped."""
    if not row or all(not cell.strip() for cell in row):
        return None
    if len(row) <= max(positions.values()):
        raise ValueError(f"expected {n_header} columns, got {len(row)}")
    year = int(row[positions["year"]].strip())
    reporter = row[positions["reporter"]].strip()
    partner = row[positions["partner"]].strip()
    exports = _parse_flow(row[positions["exports"]], "export")
    imports = _parse_flow(row[positions["imports"]], "import")
    if reporter == partner:
        raise ValueError("self-trade")
    return DyadicRecord(year, reporter, partner, exports, imports)


def _flow_or_flag(token: str) -> float:
    # NaN for a missing value; -inf, which the row checks reject, when unparsable
    try:
        return float(token)
    except ValueError:
        return math.nan if token.strip().lower() in MISSING_TOKENS else -math.inf


def _flow_column(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Values of one flow column, NaN where missing, and the rows whose
    token ``_parse_flow`` rejects."""
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        values = np.fromiter(map(_flow_or_flag, tokens), float, len(tokens))
    return values, np.isinf(values) | (values < 0)


def _by_distinct(tokens: list, convert) -> tuple[list, np.ndarray]:
    """``convert`` applied once per distinct token: the results, and for each
    token the position of its result."""
    position = dict(zip(dict.fromkeys(tokens), range(len(tokens))))
    inverse = np.fromiter(map(position.__getitem__, tokens), np.intp, len(tokens))
    return list(map(convert, position)), inverse


def _refused_code(code: str) -> bool:
    """Whether a stripped code fails ``DyadicRecord``'s code checks."""
    return not code or bool(_has_space(code) or code_fault(code))


def _year(token: str) -> int | None:
    try:
        return int(token.strip())
    except ValueError:
        return None


def _header(header_line: str, columns: ColumnMap) -> tuple[str, list[str], dict]:
    """Delimiter, header cells, and the position of each required column."""
    delimiter = "\t" if "\t" in header_line else ","
    header = next(csv.reader([header_line], delimiter=delimiter))
    lowered = [h.strip().lower() for h in header]
    positions = {}
    for name in ("year", "reporter", "partner", "exports", "imports"):
        wanted = getattr(columns, name)
        if wanted in header:
            positions[name] = header.index(wanted)
        elif wanted.lower() in lowered:
            positions[name] = lowered.index(wanted.lower())
        else:
            raise ConfigurationError(f"required column {wanted!r} not found in header {header}")
    return delimiter, header, positions


def _parse_columns(line_nos, header: tuple, number: CodeNumbers, rows=None, fields=None,
                   width: int = 0):
    """Rows checked a column at a time: the kept rows' columns (year,
    reporter, partner, exports, imports) and the dropped rows.

    The rows come as ``rows``, lists of fields as read, or as ``fields``,
    one list of every row's fields, ``width`` to a row. Row ``i`` starts at
    line ``line_nos[i]``; ``header`` is what ``_header`` returns. A row
    that fails a check goes through ``_parse_row``, which words the reason
    it is dropped (or finds it blank) from the row as read.

    The reporter and partner columns hold the codes' numbers in ``number``.
    """
    _, names, positions = header
    if fields is None:  # each row padded with empty fields or cut to the header's width
        width, pad = len(names), [""] * len(names)
        fields = list(chain.from_iterable((row + pad)[:width] for row in rows))
    n = len(fields) // width

    def column(name: str) -> list[str]:
        return fields[positions[name]::width]

    years, inverse = _by_distinct(column("year"), _year)
    bad = np.array([y is None for y in years], dtype=bool)[inverse]
    year = np.array([y or 0 for y in years])[inverse]
    if rows is not None:
        bad |= np.fromiter(map(len, rows), np.intp, n) <= max(positions.values())

    stripped, inverse = _by_distinct(column("reporter") + column("partner"), str.strip)
    ends = number.of(stripped)[inverse]
    reporter, partner = ends[:n], ends[n:]
    bad |= (reporter < 0) | (partner < 0) | (reporter == partner)

    exports, bad_exports = _flow_column(column("exports"))
    imports, bad_imports = _flow_column(column("imports"))
    bad |= bad_exports | bad_imports

    dropped = []
    for i in np.flatnonzero(bad).tolist():
        try:
            _parse_row(fields[i * width:(i + 1) * width] if rows is None else rows[i],
                       positions, len(names))
        except ValueError as exc:
            dropped.append((f"line {line_nos[i]}", str(exc)))
    kept = (year, reporter, partner, exports, imports)
    if bad.any():
        kept = tuple(values[~bad] for values in kept)
    return kept, dropped


def _universal_lines(texts):
    """The lines of the concatenated ``texts``, each ending at ``\\n``,
    ``\\r\\n`` or ``\\r`` as in a file opened with ``newline=""``."""
    held = ""
    for text in texts:
        lines = io.StringIO(held + text, newline="").readlines()
        # a closing \r may be the first half of a \r\n
        held = lines.pop() if text.endswith("\r") else ""
        yield from lines
    if held:
        yield held


#: Characters of records text read and parsed at a time, in whole lines.
_PARSE_CHUNK = 1 << 18


def _parse_chunks(chunks, columns: ColumnMap) -> ParseResult:
    """Records from ``chunks``, lists of whole lines, the first holding the
    header."""
    number = CodeNumbers(_refused_code)
    kept = [np.empty(0, dtype) for dtype in (np.int64, np.intp, np.intp, float, float)]
    dropped = []
    header = None
    line_no = 1  # of the next line to parse

    def check(line_nos, rows=None, fields=None, width=0):
        part, part_dropped = _parse_columns(line_nos, header, number, rows, fields, width)
        _append(kept, part)
        dropped.extend(part_dropped)

    for lines in chunks:
        text = "".join(lines)
        if '"' in text or text.count("\r") != text.count("\r\n"):
            # a quoted field may span lines: one csv reader reads the rest
            rest = _universal_lines(chain([text], map("".join, chunks)))
            if header is None:
                header = _header(next(rest), columns)
                line_no += 1
            reader = csv.reader(rest, delimiter=header[0])
            first, rows, starts, read = line_no, [], [], 0
            for row in reader:  # each row numbered by the line it starts at
                rows.append(row)
                starts.append(line_no)
                line_no = first + reader.line_num
                read += sum(map(len, row))
                if read >= _PARSE_CHUNK:  # about a chunk's characters
                    check(starts, rows)
                    rows, starts, read = [], [], 0
            check(starts, rows)
            break
        text = text.replace("\r\n", "\n")
        if header is None:
            header_line, _, text = text.partition("\n")
            header = _header(header_line, columns)
            line_no += 1
        delimiter, _, positions = header
        body = text.removesuffix("\n")
        lines = body.split("\n") if body else []
        widths = set(map(str.count, lines, repeat(delimiter)))
        width = widths.pop() + 1 if len(widths) == 1 else 0
        line_nos = range(line_no, line_no + len(lines))
        if width > max(positions.values()):
            # the rows are of one width, wide enough for the columns: one split
            del lines
            check(line_nos, fields=body.replace("\n", delimiter).split(delimiter), width=width)
        elif lines:
            # ragged rows, or a blank line: each row split alone
            check(line_nos, [line.split(delimiter) for line in lines])
        line_no += text.count("\n")
    if header is None:
        return ParseResult()
    return ParseResult(DyadicTable(number.renumber(kept[1:3]), *kept), dropped)


def parse_dyadic_records(stream, columns: ColumnMap | None = None) -> ParseResult:
    """Parse dyadic records from delimited text with a header row.

    ``stream`` is a path or an open text file object, never file content.
    The delimiter (comma or tab) is detected from the header row.
    Malformed rows are collected in ``ParseResult.dropped`` with their line
    numbers, never silently skipped.

    The file is read in chunks of whole lines, about ``_PARSE_CHUNK``
    characters each, so it is never held whole, and every row goes through
    one checker, which checks a chunk's rows a column at a time. Only how a
    chunk is split into fields depends on the input: ``str.split`` splits
    the whole chunk when its rows are of one width, or each line alone when
    they are ragged or one is blank; from the first chunk holding a ``"``
    or a carriage return outside a ``\\r\\n`` line end, since a quoted field
    may span lines, one ``csv`` reader reads the rest of the file and hands
    on its rows a chunk's worth at a time. A row is numbered by the line it
    starts at. Each country code is checked once per call, and a chunk's
    kept rows are appended in place to the result's columns, so a parse
    holds the table and a few chunks' worth of strings, never the table
    twice.

    Raises :class:`ConfigurationError` when a required column named by
    ``columns`` is absent from the header.
    """
    columns = columns or ColumnMap()
    with opened(stream) as stream:
        try:
            chunks = iter(functools.partial(stream.readlines, _PARSE_CHUNK), [])
            return _parse_chunks(chunks, columns)
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
    :class:`DyadicRecord`, all of ``year``.
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
    table = records
    if not isinstance(table, DyadicTable):
        table = DyadicTable.from_records(records)
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
    # then the importer side from b's. A missing side is NaN; present values
    # are finite by construction.
    exports = np.zeros((n, n))
    claimed = np.zeros(n * n, dtype=bool)  # the cells with an exporter claim
    for rows in blocks(len(table)):
        keep = first[rows] & ~np.isnan(table.exports[rows])
        at = flat_at(rows)[keep]
        exports.flat[at] = table.exports[rows][keep]
        claimed[at] = True
    n_conflicts, max_conflict = 0, 0.0
    for rows in blocks(len(table)):
        keep = first[rows] & ~np.isnan(table.imports[rows])
        importer, exporter = np.divmod(flat_at(rows)[keep], n)
        at = exporter * n + importer
        claims = table.imports[rows][keep]
        both = claimed[at]
        both_exp, both_imp = exports.flat[at[both]], claims[both]
        claims[both] = _resolve(policy, both_exp, both_imp)
        exports.flat[at] = claims

        denom = np.maximum(np.abs(both_exp), np.abs(both_imp))
        rel = np.divide(
            np.abs(both_exp - both_imp), denom, out=np.zeros_like(denom), where=denom > 0
        )
        n_conflicts += int(np.count_nonzero(rel > CONFLICT_TOLERANCE))
        max_conflict = max(max_conflict, float(rel.max(initial=0.0)))

    report = ValidationReport(
        n_records=len(table),
        n_conflicts=n_conflicts,
        max_relative_conflict=max_conflict,
        dropped=dropped,
    )
    return TradeMatrix(year, countries, exports), report


def validate_trade_matrix(tm: TradeMatrix) -> ValidationReport:
    """Check matrix invariants and report isolated countries.

    Purely a reporting operation: violations (nonzero diagonal, negative or
    non-finite entries) are listed by cell, not raised.
    """
    violations = []
    matrix = tm.exports
    diag = np.flatnonzero(np.diag(matrix) != 0.0)
    for i in diag:
        violations.append(f"nonzero diagonal at {tm.countries[i]}")
    bad = ~np.isfinite(matrix)
    for i, j in zip(*np.nonzero(bad)):
        violations.append(
            f"non-finite entry at {tm.countries[i]}->{tm.countries[j]}"
        )
    negative = matrix < 0
    for i, j in zip(*np.nonzero(negative)):
        violations.append(
            f"negative entry at {tm.countries[i]}->{tm.countries[j]}"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        totals = matrix.sum(axis=0) + matrix.sum(axis=1)
    isolated = tuple(
        tm.countries[i] for i in range(len(tm.countries)) if totals[i] == 0.0
    )
    nonzero = int(np.count_nonzero(matrix))
    return ValidationReport(
        n_records=nonzero, violations=tuple(violations), isolated=isolated
    )
