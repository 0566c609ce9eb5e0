import ast
import collections
import csv
import io
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    dict_loop_reconcile,
    matrix_violations,
    package_uses,
    rowwise_parse_dyadic_records,
    traced_peak,
)
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


@pytest.mark.parametrize("value", [5, None, ["a"], b"yr"])
def test_column_map_refuses_a_column_name_that_is_not_text(value):
    for make in (lambda: ColumnMap(year=value), lambda: ColumnMap.from_dict({"year": value})):
        with pytest.raises(ConfigurationError) as caught:
            make()
        assert str(caught.value) == f"column name for year must be a string, not {value!r}"


@pytest.mark.parametrize("mapping, message", [
    ({"exports": "imports"}, "fields exports and imports both read column 'imports'"),
    ({"exports": "IMPORTS"}, "fields exports and imports both read column 'imports'"),
    ({"imports": "Year"}, "fields year and imports both read column 'year'"),
], ids=["same-name", "case-insensitive", "year"])
def test_parse_refuses_two_fields_reading_one_column(mapping, message):
    with pytest.raises(ConfigurationError) as caught:
        parse_dyadic_records(io.StringIO(CSV), ColumnMap(**mapping))
    assert str(caught.value) == message


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


_HEADER = "year,reporter,partner,exports,imports\n"


#: Rows each dropped for the first check they fail, or skipped (None).
_DROPS = {
    "short": ("x,A", "expected 5 columns, got 2"),
    "empty year": (",,,,,x", "invalid literal for int() with base 10: ''"),
    "year first": ("2000x,A,A,abc,", "invalid literal for int() with base 10: '2000x'"),
    "long year": ("9" * 5000 + ",A,B,1,2",
                  f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer "
                  "string conversion: value has 5000 digits; use "
                  "sys.set_int_max_str_digits() to increase the limit"),
    "infinite": ("2000,A,B,-inf,", "non-finite export value '-inf'"),
    "non-numeric": ("2000,A,B,abc,", "non-numeric export value 'abc'"),
    "negative": ("2000,A,B,-1,", "negative export value '-1'"),
    "export first": ("2000,A,B,abc,-1", "non-numeric export value 'abc'"),
    "import": ("2000,A,B,, inf", "non-finite import value ' inf'"),
    "flow first": ("2000,A,A,abc,2", "non-numeric export value 'abc'"),
    "empty codes": ("2000,,,1,2", "self-trade"),
    "same faulty codes": ("2000,A\x00,A\x00,1,2", "self-trade"),
    "same stripped codes": ("2000, A ,A,1,2", "self-trade"),
    "spaced codes": ("2000,A B,C D,1,2", "country codes must be whitespace-free tokens"),
    "blank": (" , , , , ", None),
}

#: What comes before the row: nothing, so the chunk is split in one go; a
#: blank line, so each line is split alone; a quoted row, so csv reads it.
_BEFORE = {"one split": "", "per line": "\n", "csv": '2000,"Q",R,1,2\n'}


@pytest.mark.parametrize("case, way", [
    (case, way) for case, (row, _) in _DROPS.items() for way in _BEFORE
    if way != "one split" or row.count(",") >= 4  # a short row is never split with the rest
])
def test_parse_words_each_dropped_row_by_its_first_fault(case, way):
    row, reason = _DROPS[case]
    before = _BEFORE[way]
    result = parse_dyadic_records(io.StringIO(_HEADER + before + row + "\n"))
    line = 2 + before.count("\n")
    assert result.dropped == ([] if reason is None else [(f"line {line}", reason)])
    assert len(result.table) == (way == "csv")


def test_parse_empty_input():
    result = parse_dyadic_records(io.StringIO(""))
    assert result.records == [] and result.dropped == []
    # the table a header-only file gives, with the same typed empty columns
    header_only = parse_dyadic_records(io.StringIO(_HEADER)).table
    assert result.table.codes == header_only.codes == ()
    for name in ("year", "reporter", "partner", "exports", "imports"):
        assert getattr(result.table, name).dtype == getattr(header_only, name).dtype, name


def _refused(*records) -> str:
    """What ``reconcile_flows`` raises for a good record followed by one
    record made of each of ``records``, tuples of fields after the year."""
    listed = [DyadicRecord(2000, "C", "D", 1.0, 2.0)]
    listed += [DyadicRecord(2000, *fields) for fields in records]
    with pytest.raises(ValueError) as caught:
        reconcile_flows(listed, 2000)
    return str(caught.value)


def test_record_validation():
    # a record is checked when its list becomes a table, as the parser checks a row
    assert _refused(("A", "A", 1.0, None)) == "record 1: self-trade"
    assert _refused(("A", "B", -1.0, None)) == "record 1: negative export value '-1.0'"
    assert _refused(("A", "B", math.inf, None)) == "record 1: non-finite export value 'inf'"
    assert _refused(("A B", "C", 1.0, None)) == \
        "record 1: country codes must be whitespace-free tokens"
    assert _refused(("", "C", 1.0, None)) == "record 1: country codes must be non-empty"
    assert _refused(("A", "\x07", 1.0, None)) == \
        "record 1: country codes must not contain control characters"
    # the parser's order: export flow, import flow, self-trade, then codes
    assert _refused(("A B", "A B", 1.0, None)) == "record 1: self-trade"
    assert _refused(("A", "A", -1.0, None)) == "record 1: negative export value '-1.0'"
    assert _refused(("", "", math.inf, None)) == "record 1: non-finite export value 'inf'"
    # NaN and text are not flows, though float() reads both
    assert _refused(("A", "B", math.nan, None)) == "record 1: non-finite export value 'nan'"
    assert _refused(("A", "B", 1.0, "1.0")) == \
        "record 1: non-numeric import value \"'1.0'\""
    # a numpy scalar is named by the Python value it holds, not by its repr
    assert _refused(("A", "B", np.float64(-1.0), None)) == \
        "record 1: negative export value '-1.0'"
    assert _refused(("A", "B", np.float64(math.nan), None)) == \
        "record 1: non-finite export value 'nan'"
    # the first record refused is named, whichever check refuses a later one
    assert _refused(("A", "\x07", 1.0, None), ("A", "B", -1.0, None)) == \
        "record 1: country codes must not contain control characters"


@pytest.mark.parametrize("reporter, partner, reason", [
    # an empty code first, then whitespace, then the reporter's fault, then the partner's
    ("", "A B", "be non-empty"), ("A\x00", "", "be non-empty"),
    ("A\x00", "B C", "be whitespace-free tokens"), ("A\tB", "C", "be whitespace-free tokens"),
    ("A\x00", "#B", "not contain control characters"), ("#A", "B\x00", "not start with '#'"),
    ("A", "B\uffff", "not contain U+FFFE, U+FFFF or a surrogate"),
])
def test_record_code_faults_keep_their_order(reporter, partner, reason):
    with pytest.raises(ValueError) as caught:
        reconcile_flows([DyadicRecord(2000, reporter, partner, 1.0, None)], 2000)
    assert str(caught.value) == f"record 0: country codes must {reason}"
    # a records row naming the same codes is dropped for the same reason
    text = f"{_HEADER}2000,{reporter},{partner},1,\n"
    assert parse_dyadic_records(io.StringIO(text)).dropped == [
        ("line 2", f"country codes must {reason}")
    ]


def test_records_check_each_code_once():
    # each distinct code once per table, as the parser checks it, not twice a record
    checked = collections.Counter()

    def counted_code_fault(code):
        checked[code] += 1
        return code_fault(code)

    with mock.patch.object(_io, "code_fault", counted_code_fault), \
            mock.patch.object(ingest, "code_fault", counted_code_fault):
        records = [DyadicRecord(2000, f"R{i % 37}", f"P{i % 41}", i + 0.5, None)
                   for i in range(3000)]
        matrix, report = reconcile_flows(records, 2000)
    assert len(matrix.countries) == 78 and len(report.dropped) == 3000 - 37 * 41
    codes = [f"R{i}" for i in range(37)] + [f"P{i}" for i in range(41)]
    assert checked == collections.Counter(codes)


# codes and flows a tab-separated file carries as they are: no NaN flow, and
# no code with whitespace around it or a line end in it
_tsv_codes = st.one_of(
    st.sampled_from(["A", "B", "C", "", "A B", "#A", "B\x00", 'A"B', "C\uffff"]),
    st.text('AB #,"\x00\x07\x0b\x1c é\uffff\ud800', max_size=3).filter(
        lambda code: code == code.strip()),
)
_tsv_flows = st.one_of(
    st.none(), st.floats(min_value=0.0, allow_infinity=False), st.floats(allow_nan=False),
    st.integers(-3, 10**400), st.sampled_from(["1.0", "nan", "", "NA"]),
)
_tsv_records = st.builds(
    DyadicRecord, st.integers(-2**63, 2**63 - 1), _tsv_codes, _tsv_codes, _tsv_flows,
    _tsv_flows,
)


def _as_tsv(records) -> str:
    """The text of ``records``, a flow written as its ``repr``."""
    text = io.StringIO()
    writer = csv.writer(text, delimiter="\t", lineterminator="\n")
    writer.writerow(["year", "reporter", "partner", "exports", "imports"])
    for r in records:
        flows = ("" if flow is None else repr(flow) for flow in (r.exports, r.imports))
        writer.writerow([r.year, r.reporter, r.partner, *flows])
    return text.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.lists(_tsv_records, min_size=1, max_size=8))
@example([DyadicRecord(2000, "A", "B", "1.0", None)])
@example([DyadicRecord(2000, "A", "B", 10**400, None)])
@example([DyadicRecord(2000, "#A", "B\x00", 1.0, None)])
def test_records_are_refused_as_their_rows_are_dropped(records):
    parsed = parse_dyadic_records(io.StringIO(_as_tsv(records)))
    if parsed.dropped:
        line, reason = parsed.dropped[0]
        with pytest.raises(ValueError) as caught:
            DyadicTable.from_records(records)
        assert str(caught.value) == f"record {int(line.removeprefix('line ')) - 2}: {reason}"
        return
    table = DyadicTable.from_records(records)
    assert table.codes == parsed.table.codes
    for name in ("year", "reporter", "partner", "exports", "imports"):
        column, expected = getattr(table, name), getattr(parsed.table, name)
        assert (column.dtype, column.tobytes()) == (expected.dtype, expected.tobytes())


def test_records_rows_are_checked_by_one_function():
    # ROADMAP aim 2's one records-row rule: the parser and from_records share
    # _row_checks, the only function that words a flow or a code fault
    def words_a_fault(node):
        return (isinstance(node, ast.Call)
                and ast.unparse(node.func) in ("_flow_fault", "_codes_fault"))

    assert package_uses(words_a_fault) == {("ingest", "_row_checks")}
    assert "__post_init__" not in vars(DyadicRecord)
    assert not hasattr(code_fault, "cache_info")


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
        # reconcile_flows makes only matrices that TradeMatrix's check passes
        assert not matrix_violations(tm.countries, tm.exports)


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


def test_an_unquoted_bare_cr_file_is_split_without_the_csv_reader(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes(b"year,reporter,partner,exports,imports\r2000,A,B,1,2\r"
                     b"2000,B,C,x,4\r2000,C,A,5,6\r")
    with mock.patch.object(ingest.csv, "reader", wraps=csv.reader) as spy:
        parsed = parse_dyadic_records(path)
    # the header's row alone goes through csv
    assert [call.args[0] for call in spy.call_args_list] == [
        ["year,reporter,partner,exports,imports\r"]
    ]
    records, dropped = rowwise_parse_dyadic_records(path, None)
    assert parsed.dropped == dropped == [("line 3", "non-numeric export value 'x'")]
    assert repr(parsed.records) == repr(records)


@settings(max_examples=300, deadline=None)
@given(st.text("ab\r\n", max_size=40), st.sampled_from(["", None, "\n", "\r", "\r\n"]),
       st.integers(1, 8))
def test_line_chunks_end_lines_at_every_line_end_whatever_the_newline_setting(
    text, newline, size
):
    stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline)
    chunks = list(_io.line_chunks(stream, size))
    assert all(lines and chunk == "".join(lines) for lines, chunk in chunks)
    lines = [line for lines, _ in chunks for line in lines]
    if newline is None:  # the stream ends every line in \n
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    assert lines == io.StringIO(text, newline="").readlines()


def test_lines_are_split_by_one_generator():
    # ROADMAP aim 2's one reader rule: no function of the package but
    # _io.line_chunks reads lines or splits text into lines of its own
    def splits_lines(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "readlines"
        return (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("StringIO")
                and any(keyword.arg == "newline" for keyword in node.keywords))

    assert package_uses(splits_lines) == {("_io", "line_chunks")}


# --- matrix validation and file format ------------------------------------


def test_trade_matrix_refuses_each_violation():
    for cells, message in [
        ({(0, 1): 2.0, (0, 0): 1.0}, "nonzero diagonal at A"),
        ({(2, 2): math.nan}, "nonzero diagonal at C"),
        ({(0, 1): math.nan}, "non-finite entry at A->B"),
        ({(1, 0): math.inf}, "non-finite entry at B->A"),
        ({(2, 1): -math.inf}, "non-finite entry at C->B"),
        ({(1, 0): -3.0}, "negative entry at B->A"),
        # precedence: the diagonal, then non-finite, then negative cells, and
        # within a kind the first cell in row-major order
        ({(0, 0): 1.0, (0, 1): math.nan, (1, 0): -3.0}, "nonzero diagonal at A"),
        ({(1, 1): 1.0, (2, 2): -1.0, (0, 1): math.inf}, "nonzero diagonal at B"),
        ({(0, 1): -3.0, (2, 0): math.inf}, "non-finite entry at C->A"),
        ({(2, 0): -1.0, (1, 2): -math.inf}, "non-finite entry at B->C"),
        ({(2, 0): -1.0, (1, 2): -2.0}, "negative entry at B->C"),
    ]:
        exports = np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        for cell, value in cells.items():
            exports[cell] = value
        with pytest.raises(ValueError) as caught:
            TradeMatrix(2000, ("A", "B", "C"), exports)
        assert str(caught.value) == message == matrix_violations(("A", "B", "C"), exports)[0]


def test_trade_matrix_refuses_a_matrix_that_built_a_wrong_network():
    # NaN, negative and diagonal cells once built C->A 3.0 and C->B 2.0
    with pytest.raises(ValueError, match="^nonzero diagonal at C$"):
        TradeMatrix(2000, ("A", "B", "C"), np.array([[0, np.nan, 3], [1, 0, 0], [0, -2, 5]]))


def test_trade_matrix_check_matches_the_per_cell_loops():
    rng = np.random.default_rng(35)
    bad_values = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0]
    for _ in range(500):
        n = int(rng.integers(0, 6))
        countries = tuple(f"C{i}" for i in range(n))
        exports = np.where(rng.random((n, n)) < 0.5, rng.lognormal(0.0, 1.0, (n, n)), 0.0)
        np.fill_diagonal(exports, 0.0)
        if n:
            for _ in range(int(rng.integers(0, 3))):
                exports[tuple(rng.integers(0, n, 2))] = bad_values[rng.integers(len(bad_values))]
            i = int(rng.integers(n))
            exports[i, i] = rng.choice([0.0, 0.0, 0.0, 1.0, math.nan, -0.0])
        violations = matrix_violations(countries, exports)
        if violations:
            with pytest.raises(ValueError) as caught:
                TradeMatrix(2000, countries, exports)
            assert str(caught.value) == violations[0]
        else:
            assert TradeMatrix(2000, countries, exports).exports is exports


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
