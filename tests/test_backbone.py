import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import quadrature_significance, random_network, weak_components
from tradeflux.backbone import (
    _edge_alphas,
    _significance,
    backbone_stats,
    backbone_sweep,
    connected_components,
    extract_backbone,
    write_backbone_graphml,
    write_backbone_tsv,
    write_backbone_tsvs,
    write_stats_csv,
)
from tradeflux.network import ImbalanceNetwork


def edge_set(backbone):
    base = backbone.base
    return {
        (base.countries[base.src[e]], base.countries[base.dst[e]])
        for e in backbone.edge_index
    }


def test_significance_closed_form_values():
    p = np.array([2.0 / 3.0, 0.0, 1.0, 0.9])
    k = np.array([2, 5, 5, 1])  # the last is the degree-1 convention
    np.testing.assert_allclose(_significance(p, k), [1.0 / 3.0, 1.0, 0.0, 1.0])


def test_either_endpoint_keeps_the_edge(net3):
    # S->B: out-test at S gives 2/3 (fails at 0.55), in-test at B gives 1/2
    bb = extract_backbone(net3, 0.55)
    assert ("S", "B") in edge_set(bb)
    # hub -> leaf edge goes the other way round: source fires, target is k=1
    star = ImbalanceNetwork.from_edges(
        [("H", "L0", 100.0)] + [("H", f"L{i}", 1.0) for i in range(1, 10)]
    )
    bb = extract_backbone(star, 0.05)
    assert ("H", "L0") in edge_set(bb)


def test_threshold_is_strict(net3):
    # S->B scores exactly 0.5 at its best endpoint; S->A scores 1/3
    bb = extract_backbone(net3, 0.5)
    assert edge_set(bb) == {("S", "A")}


def test_degree_one_endpoints_never_fire():
    lone = ImbalanceNetwork.from_edges([("A", "B", 5.0)])
    bb = extract_backbone(lone, 1.0 - 1e-9)
    assert bb.n_edges == 0


def test_alpha_validation(net3):
    for alpha in (0.0, -0.1, 1.0000001):
        with pytest.raises(ValueError, match="alpha"):
            extract_backbone(net3, alpha)


def test_nesting_over_random_networks():
    rng = np.random.default_rng(13)
    ladder = (0.001, 0.01, 0.05, 0.2, 0.8)
    for _ in range(5):
        net = random_network(rng, n=40, density=0.3)
        sets = [edge_set(extract_backbone(net, a)) for a in ladder]
        for tighter, looser in zip(sets, sets[1:]):
            assert tighter <= looser


def test_edge_scores_match_scalar_function(net3):
    def oracle(p, k):  # the null's tail mass by quadrature; 1 at degree 1
        return 1.0 if k == 1 else quadrature_significance(p, k)

    for net in (net3, random_network(np.random.default_rng(83), n=30, density=0.3)):
        a_src, a_dst = _edge_alphas(net)
        for e, (i, j, w) in enumerate(zip(net.src, net.dst, net.weight)):
            assert abs(a_src[e] - oracle(w / net.s_out[i], int(net.k_out[i]))) <= 1e-10
            assert abs(a_dst[e] - oracle(w / net.s_in[j], int(net.k_in[j]))) <= 1e-10


def test_stats_percentages_by_hand(net3):
    # at 0.5 only S->A (weight 2 of 4) survives, touching 2 of 3 nodes
    stats = backbone_stats(extract_backbone(net3, 0.5))
    assert stats.pct_flux == pytest.approx(50.0)
    assert stats.pct_nodes == pytest.approx(200.0 / 3.0)
    assert stats.pct_edges == pytest.approx(100.0 / 3.0)


def test_stats_near_one_threshold_keeps_everything(net3):
    stats = backbone_stats(extract_backbone(net3, 1.0 - 1e-9))
    assert (stats.pct_flux, stats.pct_nodes, stats.pct_edges) == (100.0, 100.0, 100.0)


def test_stats_node_denominator_ignores_isolated():
    net = ImbalanceNetwork.from_edges(
        [("A", "B", 2.0), ("A", "C", 1.0)], countries=("A", "B", "C", "Z")
    )
    stats = backbone_stats(extract_backbone(net, 1.0 - 1e-9))
    assert stats.pct_nodes == 100.0  # Z is not in either count


def test_stats_empty_base_raises():
    empty = ImbalanceNetwork.from_edges([], countries=("A", "B"))
    with pytest.raises(ValueError, match="no edges"):
        backbone_stats(extract_backbone(empty, 0.5))


def test_sweep_matches_individual_extractions(net3):
    alphas = (0.8, 0.5, 0.2, 0.05)
    results = backbone_sweep(net3, alphas)
    assert [s.alpha for _, s in results] == list(alphas)
    for (bb, stats), alpha in zip(results, alphas):
        solo = extract_backbone(net3, alpha)
        assert edge_set(bb) == edge_set(solo)
        assert stats == backbone_stats(solo)


def test_sweep_validation(net3):
    with pytest.raises(ValueError, match="non-empty"):
        backbone_sweep(net3, [])
    with pytest.raises(ValueError, match="distinct"):
        backbone_sweep(net3, [0.1, 0.1])
    with pytest.raises(ValueError, match="alpha"):
        backbone_sweep(net3, [0.1, 2.0])


def test_connected_components_sizes():
    net = ImbalanceNetwork.from_edges(
        [("A", "B", 1.0), ("B", "C", 2.0), ("X", "Y", 1.0)],
        countries=("A", "B", "C", "X", "Y", "LONER"),
    )
    comps = connected_components(net)
    names = [sorted(net.countries[i] for i in comp) for comp in comps]
    assert names == [["A", "B", "C"], ["X", "Y"]]  # LONER has no edge


def test_backbone_tsv_lists_scores(net3):
    bb = extract_backbone(net3, 0.7)
    buf = io.StringIO()
    write_backbone_tsv(bb, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "src\tdst\tweight\talpha_at_source\talpha_at_target"
    rows = [line.split("\t") for line in lines[1:]]
    assert {(r[0], r[1]) for r in rows} == edge_set(bb)
    for row in rows:
        assert min(float(row[3]), float(row[4])) < 0.7


def test_one_pass_tsvs_match_each_backbone_row_by_row():
    # 30k edges: the widest backbone spans several blocks of rows
    n, offsets = 1000, 30
    src = np.repeat(np.arange(n), offsets)
    dst = (src + np.tile(np.arange(1, offsets + 1), n)) % n
    weight = np.random.default_rng(4).lognormal(sigma=2.0, size=src.size)
    net = ImbalanceNetwork([f"C{i:04d}" for i in range(n)], src, dst, weight)
    backbones = [b for b, _ in backbone_sweep(net, [0.9, 0.2, 0.01])]
    assert backbones[0].n_edges > 2 * 8192 and backbones[-1].n_edges > 0
    streams = [io.StringIO() for _ in backbones]
    write_backbone_tsvs(backbones, streams)
    for backbone, stream in zip(backbones, streams):
        rows = [f"{net.countries[net.src[e]]}\t{net.countries[net.dst[e]]}\t"
                f"{net.weight[e].item()!r}\t{a.item()!r}\t{b.item()!r}\n"
                for e, a, b in zip(backbone.edge_index, backbone.alpha_at_source,
                                   backbone.alpha_at_target)]
        header = "src\tdst\tweight\talpha_at_source\talpha_at_target\n"
        assert stream.getvalue() == header + "".join(rows)
    with pytest.raises(ValueError, match="share one base"):
        write_backbone_tsvs([backbones[0], extract_backbone(random_network(
            np.random.default_rng(1), n=5), 0.5)], [io.StringIO(), io.StringIO()])


def test_backbone_graphml_carries_alpha_attributes(net3):
    bb = extract_backbone(net3, 0.7)
    buf = io.BytesIO()
    write_backbone_graphml(bb, buf)
    root = ET.fromstring(buf.getvalue())
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    edges = root.findall(".//g:edge", ns)
    assert len(edges) == bb.n_edges
    scored = {
        (e.get("source"), e.get("target")): float(
            e.find("g:data[@key='e_alpha_at_source']", ns).text
        )
        for e in edges
    }
    codes = net3.countries
    expect = {
        (codes[net3.src[e]], codes[net3.dst[e]]): a_s
        for e, a_s in zip(bb.edge_index, bb.alpha_at_source)
    }
    assert scored == pytest.approx(expect)


def test_stats_csv_format(net3):
    results = backbone_sweep(net3, (0.8, 0.5))
    buf = io.StringIO()
    write_stats_csv([s for _, s in results], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "alpha,pct_flux,pct_nodes,pct_edges"
    assert len(lines) == 3
    assert [float(x) for x in lines[2].split(",")][0] == 0.5


def test_connected_components_match_flooding():
    rng = np.random.default_rng(23)
    nets = [random_network(rng, n=30, density=0.04) for _ in range(20)]
    # a 500-node chain each way, beside a pair and two isolated nodes
    codes, link = [f"N{i:03d}" for i in range(504)], np.arange(499)
    nets.append(ImbalanceNetwork(codes, [*link, 502], [*(link + 1), 503], np.ones(500)))
    nets.append(ImbalanceNetwork(codes, [*(link + 1), 503], [*link, 500], np.ones(500)))
    for net in nets:
        edges = list(zip(net.src.tolist(), net.dst.tolist()))
        assert connected_components(net) == weak_components(net.n_nodes, edges)
