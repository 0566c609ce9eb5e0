import csv
import io
import os
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bruteforce_imbalance_edges,
    elementtree_graphml,
    first_pair_violation,
    linewise_read_edge_list,
    random_network,
    random_trade_matrix,
    traced_peak,
)
from tradeflux import network
from tradeflux.backbone import extract_backbone, write_backbone_tsv
from tradeflux._io import code_fault
from tradeflux.ingest import TradeMatrix
from tradeflux.network import (
    ImbalanceNetwork,
    build_imbalance_network,
    node_accounts,
    read_edge_list,
    total_flux,
    write_accounts_csv,
    write_edge_list,
    write_graphml,
)


def test_two_country_deficit_points_at_surplus():
    # C1 exports 5 to C2 and only receives 3 back, so C2 owes the difference:
    # money flows C2 -> C1 carrying 2.
    tm = TradeMatrix(2000, ("C1", "C2"), np.array([[0.0, 5.0], [3.0, 0.0]]))
    net = build_imbalance_network(tm)
    assert [(net.countries[i], net.countries[j], w) for i, j, w in net.iter_edges()] == [
        ("C2", "C1", 2.0)
    ]


def test_three_country_cycle():
    tm = TradeMatrix(2000, ("C1", "C2", "C3"), np.array([
        [0.0, 3.0, 0.0],
        [0.0, 0.0, 2.0],
        [2.0, 0.0, 0.0],
    ]))
    net = build_imbalance_network(tm)
    edges = {(net.countries[i], net.countries[j]): w for i, j, w in net.iter_edges()}
    assert edges == {("C2", "C1"): 3.0, ("C3", "C2"): 2.0, ("C1", "C3"): 2.0}


def test_builder_matches_bruteforce_reference():
    rng = np.random.default_rng(7)
    for _ in range(10):
        tm = random_trade_matrix(rng, n=15, density=0.5)
        net = build_imbalance_network(tm)
        got = {
            (net.countries[i], net.countries[j]): w for i, j, w in net.iter_edges()
        }
        want = bruteforce_imbalance_edges(tm)
        assert got.keys() == want.keys()
        for pair in want:
            assert got[pair] == pytest.approx(want[pair], rel=1e-14)


def test_balanced_pair_produces_no_edge():
    exports = np.array([[0.0, 7.25], [7.25, 0.0]])
    net = build_imbalance_network(TradeMatrix(2000, ("A", "B"), exports))
    assert net.n_edges == 0
    # imbalance at float-noise scale is treated as balanced too
    exports = np.array([[0.0, 1e9], [1e9 * (1 + 1e-14), 0.0]])
    net = build_imbalance_network(TradeMatrix(2000, ("A", "B"), exports))
    assert net.n_edges == 0


def test_accounts_match_manual_sums(net3):
    accounts = {a.country: a for a in node_accounts(net3)}
    assert accounts["S"].s_out == 3.0 and accounts["S"].s_in == 0.0
    assert accounts["S"].delta_s == -3.0 and accounts["S"].classification == "source"
    assert accounts["A"].k_in == 1 and accounts["A"].k_out == 1
    assert accounts["A"].delta_s == 1.0 and accounts["A"].classification == "sink"
    assert accounts["B"].delta_s == 2.0 and accounts["B"].classification == "sink"


def test_neutral_classification():
    net = ImbalanceNetwork.from_edges([("A", "B", 2.0), ("B", "C", 2.0)])
    accounts = {a.country: a for a in node_accounts(net)}
    assert accounts["B"].classification == "neutral"
    assert accounts["B"].delta_s == 0.0


def test_global_balance_is_structural():
    # imbalances must cancel for any edge list, not just builder outputs
    rng = np.random.default_rng(11)
    for _ in range(10):
        net = random_network(rng, n=30, density=0.3)
        assert abs(net.delta_s.sum()) < 1e-9 * total_flux(net)


def test_from_edges_validation():
    with pytest.raises(ValueError, match="self-loops"):
        ImbalanceNetwork.from_edges([("A", "A", 1.0)])
    with pytest.raises(ValueError, match="positive"):
        ImbalanceNetwork.from_edges([("A", "B", 0.0)])
    with pytest.raises(ValueError, match="positive"):
        ImbalanceNetwork.from_edges([("A", "B", np.inf)])
    with pytest.raises(ValueError, match="duplicate edge"):
        ImbalanceNetwork.from_edges([("A", "B", 1.0), ("A", "B", 2.0)])
    with pytest.raises(ValueError, match="reciprocal"):
        ImbalanceNetwork.from_edges([("A", "B", 1.0), ("B", "A", 2.0)])
    with pytest.raises(ValueError, match="out of range"):
        ImbalanceNetwork(("A", "B"), [0], [5], [1.0])
    with pytest.raises(ValueError, match="duplicate country"):
        ImbalanceNetwork(("A", "A"), [], [], [])


def test_pair_checks_report_the_same_edge_as_a_loop():
    rng = np.random.default_rng(17)
    countries = tuple(f"N{i}" for i in range(6))
    for _ in range(300):
        edges = [
            (int(i), int(j))
            for i, j in rng.integers(0, 6, size=(rng.integers(1, 12), 2))
            if i != j
        ]
        src, dst = zip(*edges) if edges else ((), ())
        expected = first_pair_violation(countries, edges)
        if expected is None:
            ImbalanceNetwork(countries, src, dst, np.ones(len(edges)))
            continue
        with pytest.raises(ValueError) as caught:
            ImbalanceNetwork(countries, src, dst, np.ones(len(edges)))
        assert str(caught.value).startswith(expected)


def test_isolated_countries_keep_zero_accounts():
    net = ImbalanceNetwork.from_edges([("A", "B", 1.0)], countries=("A", "B", "Z"))
    accounts = {a.country: a for a in node_accounts(net)}
    assert accounts["Z"].k_in == accounts["Z"].k_out == 0
    assert accounts["Z"].delta_s == 0.0


def test_adjacency_views(net3):
    s = net3.index["S"]
    b = net3.index["B"]
    targets, weights = net3.out_edges(s)
    assert sorted(net3.countries[t] for t in targets) == ["A", "B"]
    assert weights.sum() == 3.0
    sources, weights = net3.in_edges(b)
    assert sorted(net3.countries[u] for u in sources) == ["A", "S"]
    assert weights.sum() == 2.0
    assert net3.weight_between(s, b) == 1.0
    assert net3.weight_between(b, s) == 0.0


def test_reverse_flips_edges_and_imbalances(net3):
    rev = net3.reverse()
    assert rev.countries == net3.countries
    fwd_edges = {(i, j): w for i, j, w in net3.iter_edges()}
    rev_edges = {(j, i): w for i, j, w in rev.iter_edges()}
    assert fwd_edges == rev_edges
    np.testing.assert_array_equal(rev.delta_s, -net3.delta_s)
    np.testing.assert_array_equal(rev.s_in, net3.s_out)


def test_canonical_edge_order():
    net = ImbalanceNetwork.from_edges(
        [("C", "A", 1.0), ("B", "A", 2.0), ("B", "C", 3.0)]
    )
    pairs = [(net.countries[i], net.countries[j]) for i, j, _ in net.iter_edges()]
    assert pairs == sorted(pairs)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
    st.booleans(),
)))
def test_canonical_order_is_lexsorts(case):
    # random, presorted and repeated pairs all land where lexsort puts them;
    # distinct weights show the whole permutation, ties included
    n, pairs, presort = case
    if presort:
        pairs = sorted(pairs)
    src = np.array([i for i, _ in pairs], dtype=np.int64)
    dst = np.array([j for _, j in pairs], dtype=np.int64)
    weight = np.arange(1.0, len(pairs) + 1)
    order = np.lexsort((dst, src))
    net = ImbalanceNetwork([f"C{i}" for i in range(n)], src, dst, weight, validate=False)
    np.testing.assert_array_equal(net.src, src[order])
    np.testing.assert_array_equal(net.dst, dst[order])
    np.testing.assert_array_equal(net.weight, weight[order])
    rev = net.reverse()
    back = np.lexsort((net.src, net.dst))
    np.testing.assert_array_equal(rev.src, net.dst[back])
    np.testing.assert_array_equal(rev.dst, net.src[back])
    np.testing.assert_array_equal(rev.weight, net.weight[back])


def test_total_flux(net3):
    assert total_flux(net3) == 4.0


def test_edge_list_round_trip(net3):
    buf = io.StringIO()
    write_edge_list(net3, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "src\tdst\tweight"
    back = read_edge_list(io.StringIO(text))
    assert back.countries == net3.countries
    assert list(back.iter_edges()) == list(net3.iter_edges())


def test_edge_list_keeps_countries_without_edges():
    net = ImbalanceNetwork(["A", "B", "C", "D"], [1], [3], [2.5])
    buf = io.StringIO()
    write_edge_list(net, buf)
    assert buf.getvalue() == "src\tdst\tweight\n#countries\tA\tB\tC\tD\nB\tD\t2.5\n"
    back = read_edge_list(io.StringIO(buf.getvalue()))
    assert back.countries == net.countries
    assert list(back.iter_edges()) == list(net.iter_edges())
    # a reader that skips comment lines still reads the edges
    edges = [line for line in buf.getvalue().splitlines()[1:] if not line.startswith("#")]
    assert edges == ["B\tD\t2.5"]


def test_edge_list_without_isolated_countries_has_no_countries_line(net3):
    buf = io.StringIO()
    write_edge_list(net3, buf)
    assert "#" not in buf.getvalue()


def test_edge_list_reader_tolerates_headerless_and_spaces():
    back = read_edge_list(io.StringIO("S A 2.0\nS B 1.0\nA B 1.0\n"))
    assert back.n_edges == 3
    with pytest.raises(ValueError, match="expected"):
        read_edge_list(io.StringIO("S A\n"))
    with pytest.raises(ValueError, match="bad weight"):
        read_edge_list(io.StringIO("src dst weight\nS A x\n"))


@pytest.mark.parametrize("text", ["A\tB\t1.0\nB\tC\t2.0\n", "src\tdst\tweight\nA\tB\t1.0\n"],
                         ids=["headerless", "header"])
def test_edge_list_reader_skips_a_byte_order_mark(tmp_path, text):
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    expected, net = read_edge_list(plain), read_edge_list(marked)
    assert net.countries == expected.countries
    assert list(net.iter_edges()) == list(expected.iter_edges())


def test_edge_list_text_that_is_not_utf8_is_named_by_its_line(tmp_path):
    path = tmp_path / "network.tsv"
    path.write_bytes(b"A\tB\t1.0\r\n" * 5000 + b"B\tC\t2.0\r" + b"C\t\xffD\t3\n")
    with pytest.raises(ValueError) as caught:
        read_edge_list(path)
    assert str(caught.value) == f"{path}: line 5002: not UTF-8 text"
    with open(path, encoding="utf-8", newline="") as stream:
        with pytest.raises(ValueError) as caught:
            read_edge_list(stream)
    assert str(caught.value) == "line 5002: not UTF-8 text"


def _offset_network(offsets: int, n: int = 1000) -> ImbalanceNetwork:
    """Each node sends to the ``offsets`` nodes after it, modulo ``n``."""
    src = np.repeat(np.arange(n), offsets)
    dst = (src + np.tile(np.arange(1, offsets + 1), n)) % n
    weight = np.random.default_rng(offsets).lognormal(size=src.size)
    return ImbalanceNetwork([f"C{i:04d}" for i in range(n)], src, dst, weight)


@pytest.fixture(scope="module")
def networks_4x_apart():
    return [_offset_network(24), _offset_network(96)]  # 24k and 96k edges


def test_writers_hold_a_block_of_edges_not_the_network(networks_4x_apart):
    bound = 4 << 20  # bytes: half a KiB for each of a block's 8,192 rows
    for net in networks_4x_apart:
        backbone = extract_backbone(net, 1.0)
        assert backbone.n_edges == net.n_edges
        for write in (
            lambda: write_edge_list(net, os.devnull),
            lambda: write_backbone_tsv(backbone, os.devnull),
            lambda: write_graphml(net, os.devnull),
        ):
            _, peak = traced_peak(write)
            assert peak <= bound, (net.n_edges, peak)


def test_edge_list_reader_holds_the_network_and_a_few_chunks(networks_4x_apart, tmp_path):
    for net in networks_4x_apart:
        path = tmp_path / f"{net.n_edges}.tsv"
        write_edge_list(net, path)
        back, peak = traced_peak(lambda: read_edge_list(path))
        assert list(back.iter_edges())[-3:] == list(net.iter_edges())[-3:]
        arrays = sum(v.nbytes for v in vars(back).values() if isinstance(v, np.ndarray))
        assert peak <= 2 * arrays + 6 * network._READ_CHUNK, (net.n_edges, peak)


def test_edge_list_round_trip_exact_weights():
    rng = np.random.default_rng(3)
    net = random_network(rng, n=12)
    buf = io.StringIO()
    write_edge_list(net, buf)
    back = read_edge_list(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(back.weight, net.weight)


def test_graphml_carries_accounts_and_weights(net3):
    buf = io.BytesIO()
    write_graphml(net3, buf)
    root = ET.fromstring(buf.getvalue())
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    nodes = root.findall(".//g:node", ns)
    assert {n.get("id") for n in nodes} == {"S", "A", "B"}
    by_id = {n.get("id"): n for n in nodes}
    delta = by_id["S"].find("g:data[@key='n_delta_s']", ns)
    assert float(delta.text) == -3.0
    edges = root.findall(".//g:edge", ns)
    assert len(edges) == 3
    weights = {
        (e.get("source"), e.get("target")): float(e.find("g:data[@key='e_weight']", ns).text)
        for e in edges
    }
    assert weights[("S", "A")] == 2.0


# codes mixing characters GraphML must escape with non-ASCII ones and a
# lone surrogate, which UTF-8 cannot encode
_codes = st.text(
    st.one_of(st.sampled_from("&<>\"'\t\r\nAZé€中\ud800"), st.characters()),
    min_size=1,
    max_size=4,
)
# country codes must also pass the code rule; edge attribute names need not
_country_codes = _codes.filter(lambda code: code_fault(code) is None)


@st.composite
def _graphml_cases(draw):
    countries = draw(st.lists(_country_codes, max_size=8, unique=True))
    n = len(countries)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in chosen]

    def column(values):
        return draw(st.lists(values, min_size=len(edges), max_size=len(edges)))

    # at most 7 edges meet at a node, so its strengths stay finite
    weights = column(st.floats(min_value=0.0, max_value=1e300, exclude_min=True))
    net = ImbalanceNetwork(
        countries, [e[0] for e in edges], [e[1] for e in edges], weights
    )
    # names may repeat a node attribute's; "weight" is rejected
    names = draw(st.lists(st.one_of(_codes, st.just("s_in")), max_size=3, unique=True)
                 .filter(lambda names: "weight" not in names))
    edge_attrs = {name: np.array(column(st.floats()), dtype=float) for name in names}
    return net, edge_attrs or None


@settings(max_examples=150, deadline=None)
@given(_graphml_cases())
def test_graphml_bytes_match_elementtree(case):
    net, edge_attrs = case
    buf = io.BytesIO()
    write_graphml(net, buf, edge_attrs=edge_attrs)
    assert buf.getvalue() == elementtree_graphml(net, edge_attrs)


def test_graphml_edge_attribute_may_share_a_node_attribute_name(net3):
    buf = io.BytesIO()
    write_graphml(net3, buf, edge_attrs={"s_in": np.arange(3.0)})
    root = ET.fromstring(buf.getvalue())
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    keys = {k.get("id"): k.get("for") for k in root.findall("g:key", ns)}
    assert len(keys) == len(root.findall("g:key", ns)) == 5
    for kind in ("node", "edge"):
        for element in root.findall(f".//g:{kind}", ns):
            assert {keys[d.get("key")] for d in element.findall("g:data", ns)} == {kind}


def test_graphml_rejects_edge_attribute_named_weight(net3):
    with pytest.raises(ValueError, match="'weight'"):
        write_graphml(net3, io.BytesIO(), edge_attrs={"weight": np.ones(3)})


@pytest.mark.parametrize("edges", [
    [("A", "B", 1e308), ("C", "B", 1e308)],  # s_in overflows
    [("A", "B", 1e308), ("A", "C", 1e308)],  # s_out overflows
    [("A", "B", 1e308), ("C", "D", 1.7e308)],  # only the total flux overflows
])
def test_strengths_past_the_float_range_are_rejected(edges):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="node strengths overflow"):
            ImbalanceNetwork.from_edges(edges)


def test_edge_list_rejects_control_characters_in_codes():
    with pytest.raises(ValueError, match="line 2: country code 'A\\\\x00'"):
        read_edge_list(io.StringIO("src dst weight\nA\x00 B 1.0\n"))


@pytest.mark.parametrize("code, fault", [
    ("#B", "start with '#'"), ("B,C", "contain ',' or '\"'"), ('"B"', "contain ',' or '\"'"),
])
def test_edge_list_rejects_codes_an_output_cannot_carry(code, fault):
    with pytest.raises(ValueError) as caught:
        read_edge_list(io.StringIO(f"src dst weight\nA {code} 1.0\n"))
    assert str(caught.value) == f"line 2: country code {code!r} must not {fault}"


@pytest.mark.parametrize("code, fault", [
    ("#A", "start with '#'"), ("A,B", "contain ',' or '\"'"), ("A\x00", "contain control characters"),
    # the edge list reader splits at whitespace, and an empty code leaves a field out
    ("A B", "contain whitespace"), ("A\xa0B", "contain whitespace"), ("A\tB", "contain whitespace"),
    ("", "be empty"),
    # no XML 1.0 document can carry these
    ("A\uffffB", "contain U+FFFE, U+FFFF or a surrogate"),
    ("\ufffe", "contain U+FFFE, U+FFFF or a surrogate"),
    ("A\ud800", "contain U+FFFE, U+FFFF or a surrogate"),
])
def test_networks_built_in_the_library_refuse_codes_no_file_can_carry(code, fault):
    message = f"country code {code!r} must not {fault}"
    with pytest.raises(ValueError) as caught:
        ImbalanceNetwork.from_edges([(code, "B", 2.0), ("B", "C", 1.0), ("C", code, 0.5)])
    assert str(caught.value) == message
    tm = TradeMatrix(2000, (code, "B"), np.array([[0.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(ValueError) as caught:
        build_imbalance_network(tm)
    assert str(caught.value) == message


# any character, with whitespace, the characters XML 1.0 cannot carry and the
# empty code drawn often
_any_code = st.text(
    st.one_of(st.characters(), st.sampled_from(" \t\xa0\u2028\x1f\ufffe\uffff\ud800")),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(_any_code)
@example("A B")
@example("A\uffffB")
@example("")
def test_every_code_the_rule_accepts_survives_every_output(tmp_path_factory, code):
    # the third country has no edge, so the edge list lists it on a #countries line
    countries = (code, code + "0", code + "1")
    if fault := code_fault(code):
        with pytest.raises(ValueError) as caught:
            ImbalanceNetwork(countries, [0], [1], [2.5])
        assert str(caught.value) == f"country code {code!r} must not {fault}"
        return
    net = ImbalanceNetwork(countries, [0], [1], [2.5])
    path = tmp_path_factory.mktemp("codes") / "network.tsv"
    write_edge_list(net, path)
    read = read_edge_list(path)
    assert read.countries == countries
    assert (read.src.tolist(), read.dst.tolist(), read.weight.tolist()) == ([0], [1], [2.5])

    buf = io.BytesIO()
    write_graphml(net, buf)
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    nodes = ET.fromstring(buf.getvalue()).findall(".//g:node", ns)
    assert tuple(node.get("id") for node in nodes) == countries

    text = io.StringIO()
    write_accounts_csv(node_accounts(net), text)
    rows = list(csv.reader(io.StringIO(text.getvalue(), newline="")))
    assert [len(row) for row in rows] == [7] * 4
    assert tuple(row[0] for row in rows[1:]) == countries


# whitespace of every kind, comment marks, header words, control characters,
# a character XML cannot carry and weights float() parses or refuses, so each
# branch of the reader comes up
_edge_code = st.sampled_from(
    ["A", "B", "C", "D", "E", "F", "G", "é", "#A", "src", "A\x00", "\x01B", "A,B", '"C"', "A\uffff"]
)
_edge_weight = st.one_of(
    st.sampled_from(["1", "2.5", "1e308", "-1", "0", "nan", "inf", "1_0", "x", "weight"]),
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
)
_gap = st.sampled_from([" ", "\t", "  ", "\x0b", "\x1c", "\u2028"])
_edge_triple = st.tuples(
    st.just("") | _gap, _edge_code, _gap, _edge_code, _gap, _edge_weight, st.just("") | _gap
).map("".join)
_edge_line = st.one_of(
    _edge_triple,
    _edge_triple,
    st.lists(_edge_code | _edge_weight, max_size=4).map(" ".join),
    st.sampled_from(["", "  ", "# a comment", "src\tdst\tweight"]),
    st.lists(_edge_code, max_size=3).map(lambda codes: "\t".join(("#countries", *codes))),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_edge_line, max_size=8),
    st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=8, max_size=8),
    st.sampled_from([1, 20, network._READ_CHUNK]),  # lines read at a time: 1, a few, all
)
def test_edge_list_reader_matches_line_loop(tmp_path_factory, lines, ends, chunk):
    path = tmp_path_factory.mktemp("edges") / "network.tsv"
    path.write_bytes("".join(map("".join, zip(lines, ends))).encode())

    def outcome(read):
        try:
            net = read(path)
        except ValueError as exc:
            return str(exc)
        return net.countries, net.src.tolist(), net.dst.tolist(), net.weight.tobytes()

    with mock.patch.object(network, "_READ_CHUNK", chunk):
        assert outcome(read_edge_list) == outcome(linewise_read_edge_list)
