import collections
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import dict_loop_reconcile, rowwise_parse_dyadic_records, traced_peak
from tradeflux import _io, ingest
from tradeflux._io import code_fault
from tradeflux.errors import ConfigurationError
from tradeflux.ingest import (
    RECONCILE_POLICIES,
    ColumnMap,
    DyadicRecord,
    DyadicTable,
    TradeMatrix,
    parse_dyadic_records,
    reconcile_flows,
    validate_trade_matrix,
)

CSV = """year,reporter,partner,exports,imports
2000,USA,JPN,60.5,110
2000,JPN,USA,112,59
"""


def test_parse_basic_csv():
    result = parse_dyadic_records(io.StringIO(CSV))
    assert not result.dropped
    assert len(result.records) == 2
    first = result.records[0]
    assert first == DyadicRecord(2000, "USA", "JPN", 60.5, 110.0)


def test_parse_accepts_tabs():
    tsv = CSV.replace(",", "\t")
    result = parse_dyadic_records(io.StringIO(tsv))
    assert len(result.records) == 2
    assert result.records[1].reporter == "JPN"


def test_parse_path_input(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(CSV)
    result = parse_dyadic_records(str(path))
    assert len(result.records) == 2


def test_path_with_comma_is_a_path_not_content(tmp_path):
    # a str argument is always a path, whatever characters it contains
    path = tmp_path / "x,y.csv"
    path.write_text(CSV)
    assert len(parse_dyadic_records(str(path)).records) == 2
    assert len(parse_dyadic_records(path).records) == 2
    with pytest.raises(FileNotFoundError):
        parse_dyadic_records(CSV)


def test_parse_skips_a_byte_order_mark(tmp_path):
    text = CSV + "2000,USA,USA,1,2\n"  # a dropped row keeps its line number
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfyear,")
    expected, result = parse_dyadic_records(plain), parse_dyadic_records(marked)
    assert result.table.codes == expected.table.codes == ("JPN", "USA")
    assert repr(result.records) == repr(expected.records)
    assert result.dropped == expected.dropped == [("line 4", "self-trade")]


def test_text_that_is_not_utf8_is_named_by_its_line(tmp_path):
    # the bad byte lies past the decoder's first buffer, after \r\n and \r line ends
    path = tmp_path / "records.csv"
    path.write_bytes(CSV.encode() + b"2000,USA,JPN,1,2\r\n" * 3000 + b"2000,A,B,1,2\r"
                     + b"2000,A,\xffB,1,2\n2000,B,C,1,2\n")
    with pytest.raises(ValueError) as caught:
        parse_dyadic_records(path)
    assert str(caught.value) == f"{path}: line 3005: not UTF-8 text"
    with open(path, encoding="utf-8", newline="") as stream:
        with pytest.raises(ValueError) as caught:
            parse_dyadic_records(stream)
    assert str(caught.value) == "line 3005: not UTF-8 text"


def test_parse_case_insensitive_header_fallback():
    text = CSV.replace("year,reporter", "Year,Reporter")
    result = parse_dyadic_records(io.StringIO(text))
    assert len(result.records) == 2


def test_parse_custom_column_map():
    text = "yr;a;b;flow_ab;flow_ba\n".replace(";", ",") + "1995,AA,BB,1,2\n"
    columns = ColumnMap.from_dict(
        {"year": "yr", "reporter": "a", "partner": "b",
         "exports": "flow_ab", "imports": "flow_ba"}
    )
    result = parse_dyadic_records(io.StringIO(text), columns=columns)
    assert result.records == [DyadicRecord(1995, "AA", "BB", 1.0, 2.0)]


def test_parse_unknown_map_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown format-map keys"):
        ColumnMap.from_dict({"years": "yr"})


def test_parse_missing_column_raises():
    with pytest.raises(ConfigurationError, match="'imports' not found"):
        parse_dyadic_records(io.StringIO("year,reporter,partner,exports\n2000,A,B,1\n"))


def test_parse_missing_value_tokens_become_none():
    text = "year,reporter,partner,exports,imports\n2000,A,B,NA,\n2000,B,A,3.5,n/a\n"
    result = parse_dyadic_records(io.StringIO(text))
    assert result.records[0].exports is None
    assert result.records[0].imports is None
    assert result.records[1] == DyadicRecord(2000, "B", "A", 3.5, None)


def test_parse_malformed_rows_dropped_with_line_numbers():
    text = (
        "year,reporter,partner,exports,imports\n"
        "2000,A,B,1,2\n"
        "2000,A,A,1,2\n"          # self-trade
        "2000,A,C,-4,2\n"         # negative flow
        "2000,A,D,abc,2\n"        # non-numeric
        "noyear,A,E,1,2\n"        # bad year
        "2000,A\n"                # short row
    )
    result = parse_dyadic_records(io.StringIO(text))
    assert len(result.records) == 1
    where = [w for w, _ in result.dropped]
    assert where == ["line 3", "line 4", "line 5", "line 6", "line 7"]
    reasons = dict(result.dropped)
    assert "self-trade" in reasons["line 3"]
    assert "negative" in reasons["line 4"]


def test_parse_drops_codes_with_control_characters():
    text = "year,reporter,partner,exports,imports\n2000,A\x00,B,1,2\n2000,A,B,1,2\n"
    result = parse_dyadic_records(io.StringIO(text))
    assert result.dropped == [
        ("line 2", "country codes must not contain control characters")
    ]
    assert result.records == [DyadicRecord(2000, "A", "B", 1.0, 2.0)]


@pytest.mark.parametrize("delimiter, reporter, fault", [
    (",", "#A", "start with '#'"),
    (",", '"A,B"', "contain ',' or '\"'"),
    (",", 'A"B', "contain ',' or '\"'"),
    ("\t", "A,B", "contain ',' or '\"'"),
])
def test_parse_drops_codes_an_output_cannot_carry(delimiter, reporter, fault):
    rows = [["year", "reporter", "partner", "exports", "imports"],
            ["2000", reporter, "C", "1", "2"], ["2000", "A", "B", "1", "2"]]
    text = "".join(delimiter.join(row) + "\n" for row in rows)
    result = parse_dyadic_records(io.StringIO(text))
    assert result.dropped == [("line 2", f"country codes must not {fault}")]
    assert result.records == [DyadicRecord(2000, "A", "B", 1.0, 2.0)]


def test_parse_empty_input():
    result = parse_dyadic_records(io.StringIO(""))
    assert result.records == [] and result.dropped == []


def test_record_validation():
    with pytest.raises(ValueError, match="self-trade"):
        DyadicRecord(2000, "A", "A", 1.0, None)
    with pytest.raises(ValueError, match="non-negative"):
        DyadicRecord(2000, "A", "B", -1.0, None)
    with pytest.raises(ValueError, match="finite"):
        DyadicRecord(2000, "A", "B", math.inf, None)
    with pytest.raises(ValueError, match="whitespace"):
        DyadicRecord(2000, "A B", "C", 1.0, None)
    with pytest.raises(ValueError, match="non-empty"):
        DyadicRecord(2000, "", "C", 1.0, None)
    with pytest.raises(ValueError, match="control characters"):
        DyadicRecord(2000, "A", "\x07", 1.0, None)


@pytest.mark.parametrize("reporter, partner, reason", [
    # an empty code first, then whitespace, then the reporter's fault, then the partner's
    ("", "A B", "be non-empty"), ("A\x00", "", "be non-empty"),
    ("A\x00", "B C", "be whitespace-free tokens"), ("A\tB", "C", "be whitespace-free tokens"),
    ("A\x00", "#B", "not contain control characters"), ("#A", "B\x00", "not start with '#'"),
    ("A", "B\uffff", "not contain U+FFFE, U+FFFF or a surrogate"),
])
def test_record_code_faults_keep_their_order(reporter, partner, reason):
    with pytest.raises(ValueError) as caught:
        DyadicRecord(2000, reporter, partner, 1.0, None)
    assert str(caught.value) == f"country codes must {reason}"


# --- reconciliation -------------------------------------------------------


def _flow(tm, exporter, importer):
    return tm.exports[tm.countries.index(exporter), tm.countries.index(importer)]


def _two_sided(exporter_says, importer_says):
    return [
        DyadicRecord(2000, "A", "B", exporter_says, None),
        DyadicRecord(2000, "B", "A", None, importer_says),
    ]


@pytest.mark.parametrize(
    "policy,expected",
    [("average", 11.0), ("prefer-importer", 12.0), ("prefer-exporter", 10.0), ("max", 12.0)],
)
def test_reconcile_policies(policy, expected):
    tm, report = reconcile_flows(_two_sided(10.0, 12.0), 2000, policy=policy)
    assert _flow(tm, "A", "B") == expected
    assert report.n_conflicts == 1


def test_reconcile_single_sided_claim_taken_as_is():
    records = [DyadicRecord(2000, "A", "B", 10.0, None)]
    for policy in ("average", "prefer-importer", "prefer-exporter", "max"):
        tm, report = reconcile_flows(records, 2000, policy=policy)
        assert _flow(tm, "A", "B") == 10.0
        assert report.n_conflicts == 0


def test_reconcile_mirror_consistent_no_conflict():
    for policy in ("average", "prefer-importer", "prefer-exporter", "max"):
        tm, report = reconcile_flows(_two_sided(10.0, 10.0), 2000, policy=policy)
        assert _flow(tm, "A", "B") == 10.0
        assert report.n_conflicts == 0
        assert report.max_relative_conflict == 0.0


def test_reconcile_conflict_threshold_is_relative():
    # disagreement of 5e-7 relative stays under the 1e-6 threshold
    tm, report = reconcile_flows(_two_sided(1e6, 1e6 + 0.5), 2000)
    assert report.n_conflicts == 0
    assert report.max_relative_conflict == pytest.approx(5e-7, rel=1e-3)
    _, report = reconcile_flows(_two_sided(1e6, 1e6 + 5.0), 2000)
    assert report.n_conflicts == 1


def test_reconcile_duplicate_pair_first_wins():
    records = [
        DyadicRecord(2000, "A", "B", 10.0, None),
        DyadicRecord(2000, "A", "B", 99.0, None),
    ]
    tm, report = reconcile_flows(records, 2000)
    assert _flow(tm, "A", "B") == 10.0
    assert report.dropped == (("A->B", "duplicate report for pair"),)


# few countries and few distinct values, so duplicate pairs, one-sided and
# missing claims, zero claims and equal claims all come up often
_claims = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1.7e308]),
    st.floats(min_value=0.0, allow_infinity=False),
)
_reconcile_rows = st.lists(
    st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE"), _claims, _claims)
    .filter(lambda t: t[0] != t[1]),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_reconcile_rows, st.sampled_from(RECONCILE_POLICIES))
# max() keeps its first argument, the exporter side, when the claims tie
@example([("A", "B", -0.0, None), ("B", "A", None, 0.0)], "max")
def test_reconcile_matches_dict_loop(rows, policy):
    records = [DyadicRecord(2000, *row) for row in rows]
    tm, report = reconcile_flows(records, 2000, policy=policy)
    ref_tm, ref_report = dict_loop_reconcile(records, 2000, policy=policy)
    assert tm.countries == ref_tm.countries
    assert tm.exports.shape == ref_tm.exports.shape
    assert tm.exports.tobytes() == ref_tm.exports.tobytes()
    assert report == ref_report


@settings(max_examples=200, deadline=None)
@given(_reconcile_rows, st.sampled_from(RECONCILE_POLICIES), st.integers(1, 5))
def test_reconcile_a_few_rows_at_a_time_matches_dict_loop(rows, policy, block):
    # a pair's reports and its mirror's fall in different blocks
    with mock.patch.object(_io, "_BLOCK", block):
        test_reconcile_matches_dict_loop.hypothesis.inner_test(rows, policy)


def test_reconcile_average_halves_claims_near_the_float_limit():
    records = _two_sided(1.7e308, 1.6e308) + [
        DyadicRecord(2000, "C", "D", 3.0, None), DyadicRecord(2000, "D", "C", None, 4.5)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tm, _ = reconcile_flows(records, 2000, policy="average")
        assert validate_trade_matrix(tm).ok
    assert _flow(tm, "A", "B") == 0.5 * 1.7e308 + 0.5 * 1.6e308
    assert _flow(tm, "C", "D") == 0.5 * (3.0 + 4.5)


def test_reconcile_wrong_year_rejected():
    with pytest.raises(ValueError, match="year 1999"):
        reconcile_flows([DyadicRecord(1999, "A", "B", 1.0, None)], 2000)


def test_reconcile_unknown_policy():
    with pytest.raises(ConfigurationError, match="unknown reconcile policy"):
        reconcile_flows([], 2000, policy="median")


def test_reconcile_countries_sorted_and_matrix_square():
    records = [
        DyadicRecord(2000, "ZWE", "ALB", 1.0, None),
        DyadicRecord(2000, "MEX", "ZWE", 2.0, None),
    ]
    tm, _ = reconcile_flows(records, 2000)
    assert tm.countries == ("ALB", "MEX", "ZWE")
    assert tm.exports.shape == (3, 3)


@given(
    x=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    y=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_reconcile_average_symmetric_in_reporting_side(x, y):
    # swapping which side reported the export vs the mirror import must not
    # change the averaged flow
    tm1, _ = reconcile_flows(_two_sided(x, y), 2000, policy="average")
    tm2, _ = reconcile_flows(_two_sided(y, x), 2000, policy="average")
    assert _flow(tm1, "A", "B") == _flow(tm2, "A", "B")


# --- the columnar parser against the row-at-a-time one ----------------------

_FIELDS = ("year", "reporter", "partner", "exports", "imports")
_year_tokens = st.sampled_from(
    ["2000", "2000", " 2000 ", "1999", "2_000", "x", "", "٢٠٠٠", "99999999999999999999"]
)
_code_tokens = st.sampled_from(
    ["A", "B", "C", "D", " A", "B ", "", "  ", "A B", "A\x00", "\x01", "é", "#A", "A,B",
     'A"B']
)
_flow_tokens = st.one_of(
    st.sampled_from([
        "", " ", "NA", "na", "N/A", ".", "NaN", "nan", "-nan", "None", "NULL", " null ",
        "1", "2.5", "0", "-0.0", "-1", "inf", "-inf", "Infinity", "1e308", "1.7e308",
        "1e999", "1_000", " 3 ", "abc", "1\x00",
    ]),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
)


_clean_flows = st.one_of(
    st.sampled_from(["", "NA", "1", "2.5", "0", "1.7e308"]),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
)


@st.composite
def _records_files(draw):
    """Text of a records file and the column map to read it with."""
    order = draw(st.permutations(_FIELDS))
    if draw(st.booleans()):
        order.insert(draw(st.integers(0, len(order))), "note")
    naming = draw(st.sampled_from(["plain", "plain", "upper", "custom", "missing"]))
    names = {f: {"plain": f, "upper": f.upper(), "custom": f"c_{f}"}.get(naming, f)
             for f in order}
    if naming == "missing":
        names["imports"] = "imported"
    columns = ColumnMap(**{f: f"c_{f}" for f in _FIELDS}) if naming == "custom" else None
    delimiter = draw(st.sampled_from([",", "\t"]))

    hostile = {"year": _year_tokens, "reporter": _code_tokens, "partner": _code_tokens,
               "exports": _flow_tokens, "imports": _flow_tokens,
               "note": st.sampled_from(["", "x", "a b"])}
    # rows that parse, so that reconciliation sees duplicate and one-sided pairs
    clean = dict(hostile, year=st.just("2000"), reporter=st.sampled_from("ABCD"),
                 partner=st.sampled_from("ABCD"), exports=_clean_flows, imports=_clean_flows)
    lines = [delimiter.join(names[f] for f in order)]
    for _ in range(draw(st.integers(0, 10))):
        tokens = draw(st.sampled_from([clean, clean, hostile]))
        row = [draw(tokens[f]) for f in order]
        shape = draw(st.sampled_from(
            ["row"] * 6 + ["short", "long", "blank", "spaces", "empty", "quoted", "quote",
                           "broken"]
        ))
        if shape == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row.append("extra")
        elif shape in ("blank", "spaces"):
            row = [" " * (shape == "spaces")] * len(row)
        elif shape == "quoted":
            i = draw(st.integers(0, len(row) - 1))
            row[i] = f'"{row[i]}"'
        elif shape == "quote":
            row[-1] += '"'
        elif shape == "broken":  # a line break inside a quoted field
            i = draw(st.integers(0, len(row) - 1))
            at = draw(st.integers(0, len(row[i])))
            brk = draw(st.sampled_from(["\n", "\r\n", "\r"]))
            row[i] = f'"{row[i][:at]}{brk}{row[i][at:]}"'
        lines.append("" if shape == "empty" else delimiter.join(row))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), columns


@settings(max_examples=300, deadline=None)
@given(_records_files())
def test_parse_and_reconcile_match_the_row_loop(tmp_path_factory, case):
    text, columns = case
    path = tmp_path_factory.mktemp("records") / "records.csv"
    path.write_bytes(text.encode())
    try:
        expected_records, expected_dropped = rowwise_parse_dyadic_records(path, columns)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as caught:
            parse_dyadic_records(path, columns)
        assert str(caught.value) == str(exc)
        return
    parsed = parse_dyadic_records(path, columns)
    assert repr(parsed.records) == repr(expected_records)  # repr tells -0.0 from 0.0
    assert parsed.dropped == expected_dropped

    table = parsed.table.select(parsed.table.year == 2000)
    kept = [r for r in expected_records if r.year == 2000]
    for policy in RECONCILE_POLICIES:
        tm, report = reconcile_flows(table, 2000, policy=policy)
        ref_tm, ref_report = dict_loop_reconcile(kept, 2000, policy=policy)
        assert tm.countries == ref_tm.countries
        assert tm.exports.tobytes() == ref_tm.exports.tobytes()
        assert report == ref_report
        assert validate_trade_matrix(tm) == validate_trade_matrix(ref_tm)


@settings(max_examples=300, deadline=None)
@given(_records_files(), st.integers(1, 48))
def test_parse_in_chunks_of_a_few_characters_matches_the_row_loop(
    tmp_path_factory, case, chunk
):
    # each file spans many chunks, so line ends, quotes, ragged and bad rows
    # fall on either side of a chunk boundary; rows are renumbered and
    # reconciled a few at a time too
    with mock.patch.object(ingest, "_PARSE_CHUNK", chunk), \
            mock.patch.object(_io, "_BLOCK", chunk):
        test_parse_and_reconcile_match_the_row_loop.hypothesis.inner_test(
            tmp_path_factory, case
        )


class _ChunkedReadsOnly(io.StringIO):
    """A text file that fails any read of all that is left in it."""

    def __init__(self, text):
        super().__init__(text)
        self.chunks = 0

    def read(self, size=-1):
        assert size is not None and size >= 0, "unbounded read()"
        return super().read(size)

    def readlines(self, hint=-1):
        assert hint is not None and hint > 0, "unbounded readlines()"
        self.chunks += 1
        return super().readlines(hint)


@pytest.mark.parametrize("tail", ["", '2000,C,D,"3",1\n'])
def test_parse_never_reads_the_file_whole(tmp_path, tail):
    rows = [f"2000,R{i % 37},P{i % 41},{i}.5,NA" for i in range(3000)]
    rows[1500] = "2000,A,A,1,2"  # self-trade
    rows[2100] = "2000,A,B"  # short row
    text = "year,reporter,partner,exports,imports\r\n" + "\r\n".join(rows) + "\n" + tail
    path = tmp_path / "records.csv"
    path.write_text(text, newline="")
    stream = _ChunkedReadsOnly(text)
    with mock.patch.object(ingest, "_PARSE_CHUNK", 4096):
        parsed = parse_dyadic_records(stream)
    records, dropped = rowwise_parse_dyadic_records(path, None)
    assert stream.chunks > 10
    assert parsed.dropped == dropped == [
        ("line 1502", "self-trade"), ("line 2102", "expected 5 columns, got 3")
    ]
    assert repr(parsed.records) == repr(records)


def test_parse_checks_each_code_once(tmp_path):
    rows = [f"2000,R{i % 37},P{i % 41},{i}.5,NA" for i in range(3000)]
    rows[1500] = "2000,R1,R1,1,2"  # self-trade
    stream = _ChunkedReadsOnly("year,reporter,partner,exports,imports\n" + "\n".join(rows))
    checked = collections.Counter()

    def counted_code_fault(code):
        checked[code] += 1
        return code_fault(code)

    with mock.patch.object(ingest, "_PARSE_CHUNK", 4096), \
            mock.patch.object(_io, "code_fault", counted_code_fault):
        parsed = parse_dyadic_records(stream)
    assert stream.chunks >= 8
    assert parsed.dropped == [("line 1502", "self-trade")]
    codes = [f"R{i}" for i in range(37)] + [f"P{i}" for i in range(41)]
    assert checked == collections.Counter(codes)


def _nbytes(table):
    return sum(c.nbytes for c in (table.year, table.reporter, table.partner,
                                  table.exports, table.imports))


@pytest.mark.parametrize("first_row", [
    "2000,R0,P0,0.5,0.25", '2000,"R0",P0,0.5,0.25', "2000,R0,P0,0.5,0.25\n",
], ids=["plain", "quoted", "blank-line"])
def test_parse_holds_the_table_and_a_few_chunks_at_most(tmp_path, first_row):
    # the chunks' parts are not held beside a second, joined copy of them;
    # a quote or a blank line in the first row changes how the rows are
    # split, not how many are held at a time
    rows = [f"2000,R{i % 97},P{i % 89},{i}.5,{i}.25" for i in range(40_000)]
    rows[0] = first_row
    path = tmp_path / "records.csv"
    path.write_text("year,reporter,partner,exports,imports\n" + "\n".join(rows) + "\n")
    with mock.patch.object(ingest, "_PARSE_CHUNK", 1 << 14):
        parsed, peak = traced_peak(lambda: parse_dyadic_records(path))
        assert peak <= _nbytes(parsed.table) + 64 * ingest._PARSE_CHUNK
    assert len(parsed.table) == len(rows) and not parsed.dropped


def test_reconcile_holds_the_matrix_and_at_most_a_table_more():
    # 300k rows: many blocks of _io._BLOCK rows
    rng = np.random.default_rng(3)
    n = 1000
    reporter, partner = np.nonzero(rng.random((n, n)) < 0.3)
    keep = reporter != partner
    reporter, partner = reporter[keep], partner[keep]
    again = rng.integers(0, reporter.size, 500)  # duplicate reports
    reporter = np.concatenate([reporter, reporter[again]])
    partner = np.concatenate([partner, partner[again]])
    flows = rng.lognormal(size=(2, reporter.size))
    flows[rng.random(flows.shape) < 0.1] = np.nan
    table = DyadicTable(tuple(f"C{i:03d}" for i in range(n)),
                        np.full(reporter.size, 2000), reporter, partner, *flows)
    (matrix, report), peak = traced_peak(lambda: reconcile_flows(table, 2000))
    assert len(report.dropped) == again.size
    assert peak <= matrix.exports.nbytes + _nbytes(table)


@pytest.mark.parametrize("newline", ["", "\n", "\r", "\r\n"])
def test_parse_splits_lines_alike_whatever_the_stream_splits_them_at(tmp_path, newline):
    # a stream that ends lines at \r alone cuts \r\n in two at a chunk boundary
    text = (
        "year,reporter,partner,exports,imports\r\n2000,A,B,1,2\r\n2000,A,A,1,2\r"
        '2000,B,C,"3\r\n",4\n2000,C,D,x,1\r\n2000,D,A,5,6\r\n2000,D,D,1,1\r\n'
    )
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode())
    records, dropped = rowwise_parse_dyadic_records(path, None)
    # rows are numbered by the physical line they start at
    assert [where for where, _ in dropped] == ["line 3", "line 6", "line 8"]
    stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline)
    with mock.patch.object(ingest, "_PARSE_CHUNK", 8):
        parsed = parse_dyadic_records(stream)
    assert repr(parsed.records) == repr(records)
    assert parsed.dropped == dropped


# --- matrix validation and file format ------------------------------------


def test_validate_flags_each_violation():
    tm = TradeMatrix(2000, ("A", "B", "C"), np.array([
        [1.0, 2.0, 0.0],
        [-3.0, 0.0, 0.0],
        [np.inf, 0.0, 0.0],
    ]))
    report = validate_trade_matrix(tm)
    assert not report.ok
    assert any("nonzero diagonal at A" in v for v in report.violations)
    assert any("negative entry at B->A" in v for v in report.violations)
    assert any("non-finite entry at C->A" in v for v in report.violations)


def test_validate_reports_isolated_countries():
    tm = TradeMatrix(2000, ("A", "B", "C"), np.array([
        [0.0, 5.0, 0.0],
        [3.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]))
    report = validate_trade_matrix(tm)
    assert report.ok
    assert report.isolated == ("C",)
    assert report.n_records == 2


def test_matrix_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        TradeMatrix(2000, ("A", "B"), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="duplicate"):
        TradeMatrix(2000, ("A", "A"), np.zeros((2, 2)))
