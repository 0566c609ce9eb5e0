import ast
import errno
import importlib
import json
import os
import stat
import subprocess
import sys
import textwrap
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import tradeflux
from helpers import random_network, random_trade_matrix
from tradeflux import diffusion, ingest
from tradeflux.cli import _write_outputs, main
from tradeflux.network import (
    ImbalanceNetwork,
    build_imbalance_network,
    read_edge_list,
    write_edge_list,
)

TWO_COUNTRY = """year,reporter,partner,exports,imports
2000,C1,C2,5,3
2000,C2,C1,3,5
"""


@pytest.fixture
def net3_file(tmp_path, net3):
    path = tmp_path / "network.tsv"
    with open(path, "w") as fh:
        write_edge_list(net3, fh)
    return str(path)


def test_write_outputs_leave_no_temp_file_when_the_writer_fails(tmp_path):
    old = tmp_path / "network.tsv"
    old.write_bytes(b"src\tdst\tweight\n")

    def writer(*tmps):
        for tmp in tmps:
            Path(tmp).write_text("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        _write_outputs(str(tmp_path), ["network.tsv", "accounts.csv"], writer)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["network.tsv"]
    assert old.read_bytes() == b"src\tdst\tweight\n"


@pytest.mark.parametrize("argv, module, writer, failing_call, stderr_before", [
    (["build", "{records}", "--year", "2000"], "network", "write_accounts_csv", 1,
     "tradeflux: 2 records, 0 conflicts, max relative conflict 0\n"),
    (["backbone", "{network}", "--alpha", "0.9,0.5", "--format", "graphml"],
     "backbone", "write_backbone_graphml", 2, ""),
    (["backbone", "{network}"], "backbone", "write_stats_csv", 1, ""),
    (["dollar", "{network}", "--from", "S", "--exact"], "cli", "write_text", 1, ""),
], ids=["build", "backbone-graphml", "backbone-tsv", "dollar-exact"])
def test_a_step_that_fails_while_writing_replaces_no_output(
    argv, module, writer, failing_call, stderr_before, net3_file, tmp_path, capsys, monkeypatch
):
    records = tmp_path / "records.csv"
    records.write_text(TWO_COUNTRY)
    argv = [arg.format(records=records, network=net3_file) for arg in argv]
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 0
    old = {path.name: f"older {path.name}\n".encode() for path in out.iterdir()}
    for name, data in old.items():
        (out / name).write_bytes(data)
    capsys.readouterr()

    module = importlib.import_module(f"tradeflux.{module}")
    real, calls = getattr(module, writer), []
    disk_full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fails_on_a_full_disk(*args):
        calls.append(args)
        if len(calls) < failing_call:
            return real(*args)
        raise disk_full

    monkeypatch.setattr(module, writer, fails_on_a_full_disk)
    assert main([*argv, "-o", str(out)]) == 1
    assert len(calls) == failing_call
    assert {path.name: path.read_bytes() for path in out.iterdir()} == old
    # the lines that follow a write, such as backbone's "alpha ...: kept", are not printed
    assert capsys.readouterr().err == f"{stderr_before}tradeflux: {disk_full}\n"


def _uses_by_function(tree):
    """(top-level function or ``None``, what is used) for every call, as
    ``call <callee>``, and every name or attribute named ``stderr``."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield owner, f"call {ast.unparse(node.func)}"
            elif getattr(node, "attr", getattr(node, "id", None)) == "stderr":
                yield owner, "stderr"


def test_one_function_writes_the_outputs_and_one_writes_to_stderr():
    tree = ast.parse(Path(tradeflux.cli.__file__).read_text(encoding="utf-8"))
    uses = list(_uses_by_function(tree))
    writes = {"call tempfile.mkstemp", "call os.replace", "call os.rename",
              "call os.makedirs", "call os.chmod", "call os.umask"}
    assert {owner for owner, use in uses if use in writes} == {"_write_outputs"}
    assert {owner for owner, use in uses if use in {"stderr", "call print"}} == {"_err"}
    steps = [top.name for top in tree.body
             if isinstance(top, ast.FunctionDef) and top.name.startswith("_cmd_")]
    assert len(steps) == 5
    calls = [owner for owner, use in uses if use == "call _write_outputs"]
    assert sorted(calls) == sorted(steps)


def test_build_two_country_sample(tmp_path, capsys):
    src = tmp_path / "records.csv"
    src.write_text(TWO_COUNTRY)
    out = tmp_path / "out"
    assert main(["build", str(src), "--year", "2000", "-o", str(out)]) == 0
    edges = (out / "network.tsv").read_text().splitlines()
    assert edges == ["src\tdst\tweight", "C2\tC1\t2.0"]
    accounts = (out / "accounts.csv").read_text().splitlines()
    assert accounts[0] == "country,k_in,k_out,s_in,s_out,delta_s,class"
    assert len(accounts) == 3
    assert accounts[1].startswith("C1,1,0,2.0,0.0,2.0,sink")
    assert accounts[2].startswith("C2,0,1,0.0,2.0,-2.0,source")
    assert "0 conflicts" in capsys.readouterr().err


def test_build_drops_codes_a_later_file_cannot_carry(tmp_path, capsys):
    src = tmp_path / "records.csv"
    src.write_text(
        "year,reporter,partner,exports,imports\n"
        '2000,#A,C,1,0\n2000,"A,B",C,2,0\n2000,C,D,3,0\n2000,D,E,1,0\n'
    )
    out = tmp_path / "out"
    assert main(["build", str(src), "--year", "2000", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "tradeflux: dropped line 2: country code '#A' must not start with '#'\n" in err
    assert "tradeflux: dropped line 3: country code 'A,B' must not contain ',' or '\"'\n" in err
    export = ["export", str(out / "network.tsv"), "--format", "tsv", "-o", str(out / "x")]
    assert main(export) == 0
    assert (out / "x" / "network.tsv").read_bytes() == (out / "network.tsv").read_bytes()
    assert {line.count(",") for line in (out / "accounts.csv").read_text().splitlines()} == {6}


def test_build_drops_a_code_graphml_cannot_carry(tmp_path, capsys):
    src = tmp_path / "records.csv"
    code = "A\uffffB"
    src.write_text("year,reporter,partner,exports,imports\n"
                   f"2000,{code},C,1,0\n2000,C,D,3,0\n2000,D,E,1,0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["build", str(src), "--year", "2000", "-o", str(out)]) == 0
    dropped = [line for line in capsys.readouterr().err.splitlines() if "dropped" in line]
    assert dropped == [
        f"tradeflux: dropped line 2: country code {code!r} must not contain U+FFFE, U+FFFF or a "
        "surrogate"
    ]
    assert main(["export", str(out / "network.tsv"), "-o", str(out)]) == 0
    ET.parse(out / "network.graphml")


def test_export_refuses_a_code_graphml_cannot_carry(tmp_path, capsys):
    code = "A\uffffB"
    edges = tmp_path / "network.tsv"
    edges.write_text(f"src\tdst\tweight\nC\tD\t1.0\n{code}\tC\t2.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["export", str(edges), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"tradeflux: line 3: country code {code!r} must not contain U+FFFE, U+FFFF or a surrogate\n"
    )
    assert not (out / "network.graphml").exists()


def test_build_keeps_a_country_whose_trade_balances(tmp_path):
    src = tmp_path / "records.csv"
    # A's trade with B balances, so A has no edge but is still a country
    src.write_text("year,reporter,partner,exports,imports\n2000,A,B,5,5\n2000,B,C,3,1\n")
    out = tmp_path / "out"
    assert main(["build", str(src), "--year", "2000", "-o", str(out)]) == 0
    assert (out / "accounts.csv").read_text().splitlines()[1] == "A,0,0,0.0,0.0,0.0,neutral"
    network = str(out / "network.tsv")
    assert read_edge_list(network).countries == ("A", "B", "C")
    assert main(["export", network, "-o", str(out / "x")]) == 0
    graphml = ET.parse(out / "x" / "network.graphml")
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    assert [node.get("id") for node in graphml.iter(f"{ns}node")] == ["A", "B", "C"]
    assert main(["export", network, "--format", "tsv", "-o", str(out / "x")]) == 0
    assert (out / "x" / "network.tsv").read_bytes() == (out / "network.tsv").read_bytes()


def test_outputs_follow_the_umask(tmp_path):
    src = tmp_path / "records.csv"
    src.write_text(TWO_COUNTRY)
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["build", str(src), "--year", "2000", "-o", str(out)]) == 0
        assert main(["export", str(out / "network.tsv"), "-o", str(out / "export")]) == 0
    finally:
        os.umask(old)
    for name in ("network.tsv", "accounts.csv", "export/network.graphml"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o644, name


def test_build_empty_file_fails(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("year,reporter,partner,exports,imports\n")
    assert main(["build", str(src), "--year", "2000", "-o", str(tmp_path)]) == 1
    assert "no records" in capsys.readouterr().err


def test_build_reports_conflicts_but_succeeds(tmp_path, capsys):
    src = tmp_path / "records.csv"
    src.write_text(
        "year,reporter,partner,exports,imports\n"
        "2000,C1,C2,10,2\n"
        "2000,C2,C1,3,12\n"
    )
    out = tmp_path / "out"
    assert main(["build", str(src), "--year", "2000", "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "2 conflicts" in err
    assert (out / "network.tsv").exists()


def test_build_format_map_inline_and_file(tmp_path):
    src = tmp_path / "records.csv"
    src.write_text("yr,rep,par,exp,imp\n2000,AA,BB,4,\n")
    mapping = json.dumps(
        {"year": "yr", "reporter": "rep", "partner": "par",
         "exports": "exp", "imports": "imp"}
    )
    out1 = tmp_path / "o1"
    assert main(["build", str(src), "--year", "2000", "--format-map", mapping,
                 "-o", str(out1)]) == 0
    map_file = tmp_path / "map.json"
    map_file.write_text(mapping)
    out2 = tmp_path / "o2"
    assert main(["build", str(src), "--year", "2000", "--format-map", str(map_file),
                 "-o", str(out2)]) == 0
    assert (out1 / "network.tsv").read_text() == (out2 / "network.tsv").read_text()


@pytest.mark.parametrize("mapping", [
    '{"bogus": "x"}', '{"year": 5}', '{"year": null}', '{"reporter": ["a"]}', '["year"]',
    '{"year": ' + "[" * 100_000 + "]" * 100_000 + "}",
    json.dumps([f"column {i}" for i in range(50_000)]),
    json.dumps({f"column {i}": "x" for i in range(50_000)}),
    json.dumps({"year": [f"column {i}" for i in range(50_000)]}),
    json.dumps({"k" * 400_000: "x"}),
], ids=["unknown-key", "number", "null", "array-value", "array", "too-deep",
        "long-array", "many-unknown-keys", "long-array-value", "long-unknown-key"])
def test_build_bad_format_map_is_usage_error(tmp_path, capsys, mapping):
    src = tmp_path / "records.csv"
    src.write_text(TWO_COUNTRY)
    # only an object is taken inline, and Linux caps one argument at 128 KiB
    if not mapping.startswith("{") or len(mapping) > 2**17:
        (tmp_path / "map.json").write_text(mapping)
        mapping = str(tmp_path / "map.json")
    code = main(["build", str(src), "--year", "2000",
                 "--format-map", mapping, "-o", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tradeflux: bad --format-map: ") and err.count("\n") == 1
    assert len(err.encode()) <= 300


@pytest.mark.parametrize("mapping, message", [
    ('{"imports": "imported"}',
     "required column 'imported' not found in header "
     "['year', 'reporter', 'partner', 'exports', 'imports']"),
    ('{"exports": "imports"}', "fields exports and imports both read column 'imports'"),
], ids=["missing", "shared"])
def test_build_refuses_a_map_the_header_cannot_serve(tmp_path, capsys, mapping, message):
    src = tmp_path / "records.csv"
    src.write_text(TWO_COUNTRY)
    out = tmp_path / "out"
    code = main(["build", str(src), "--year", "2000", "--format-map", mapping, "-o", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"tradeflux: {message}\n"
    assert not out.exists()


def test_build_filters_by_year(tmp_path, capsys):
    src = tmp_path / "records.csv"
    src.write_text(
        "year,reporter,partner,exports,imports\n"
        "1999,C1,C2,9,9\n"
        "2000,C1,C2,5,3\n"
    )
    out = tmp_path / "out"
    assert main(["build", str(src), "--year", "1999", "-o", str(out)]) == 0
    assert main(["build", str(src), "--year", "1998", "-o", str(out)]) == 1
    assert "no records for year 1998" in capsys.readouterr().err


def test_build_uses_a_single_year_table_as_parsed(tmp_path, monkeypatch):
    # a file of good rows, all of --year, is never copied row by row: not by
    # the parser, nor by build's year filter
    def select(self, keep):
        raise AssertionError("select() copied a table none of whose rows go")

    monkeypatch.setattr(ingest.DyadicTable, "select", select)
    src = tmp_path / "records.csv"
    src.write_text(TWO_COUNTRY)
    out = tmp_path / "out"
    assert main(["build", str(src), "--year", "2000", "-o", str(out)]) == 0
    assert (out / "network.tsv").read_text().splitlines() == ["src\tdst\tweight", "C2\tC1\t2.0"]


def test_disparity_outputs(tmp_path):
    rng = np.random.default_rng(41)
    net = random_network(rng, n=40, density=0.5)
    path = tmp_path / "network.tsv"
    with open(path, "w") as fh:
        write_edge_list(net, fh)
    out = tmp_path / "out"
    assert main(["disparity", str(path), "-o", str(out)]) == 0
    lines = (out / "disparity_profile.csv").read_text().splitlines()
    assert lines[0] == "direction,k,mean_kY,null_mean,null_p2sigma,n_nodes"
    directions = {line.split(",")[0] for line in lines[1:]}
    assert directions == {"in", "out"}
    fits = json.loads((out / "scaling_fit.json").read_text())
    assert set(fits) == {"in", "out"}
    assert {"beta", "intercept", "r_squared", "k_range", "n_points"} <= set(fits["in"])


def test_disparity_insufficient_degrees_fails(net3_file, tmp_path, capsys):
    assert main(["disparity", net3_file, "-o", str(tmp_path)]) == 1
    assert "at least 3 degree classes" in capsys.readouterr().err


def test_disparity_failed_fit_writes_no_profile(net3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["disparity", net3_file, "-o", str(out)]) == 1
    assert not (out / "disparity_profile.csv").exists()


def test_backbone_default_ladder(net3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["backbone", net3_file, "-o", str(out)]) == 0
    for tag in ("0.2", "0.1", "0.05", "0.01"):
        assert (out / f"backbone_a{tag}.tsv").exists()
    stats = (out / "backbone_stats.csv").read_text().splitlines()
    assert len(stats) == 5
    assert stats[1].split(",")[0] == "0.2"


def test_backbone_thresholds_that_print_alike_keep_their_own_files(
    net3_file, tmp_path, capsys
):
    out = tmp_path / "out"
    alphas = ("0.2", "0.05000001", "0.05")
    assert main(["backbone", net3_file, "--alpha", ",".join(alphas), "-o", str(out)]) == 0
    assert sorted(p.name for p in out.glob("backbone_a*.tsv")) == sorted(
        f"backbone_a{a}.tsv" for a in alphas
    )
    printed = [line.split(":")[1] for line in capsys.readouterr().err.splitlines()]
    assert printed == [f" alpha {a}" for a in alphas]


def test_backbone_near_one_keeps_everything(net3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["backbone", net3_file, "--alpha", "0.999999999", "-o", str(out)]) == 0
    stats = (out / "backbone_stats.csv").read_text().splitlines()[1].split(",")
    assert [float(x) for x in stats[1:]] == [100.0, 100.0, 100.0]


def test_backbone_alpha_validation(net3_file, tmp_path, capsys):
    assert main(["backbone", net3_file, "--alpha", "0.01,0.05", "-o", str(tmp_path)]) == 2
    assert "strictly decreasing" in capsys.readouterr().err
    assert main(["backbone", net3_file, "--alpha", "1.5", "-o", str(tmp_path)]) == 2
    assert main(["backbone", net3_file, "--alpha", "abc", "-o", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["backbone", net3_file, "--alpha", ",", "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "tradeflux: at least one alpha is required\n"


def test_backbone_on_an_edgeless_network_makes_no_directory(tmp_path, capsys):
    path = tmp_path / "network.tsv"
    path.write_text("src\tdst\tweight\n")
    out = tmp_path / "out"
    assert main(["backbone", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "tradeflux: base network has no edges\n"
    assert not out.exists()


def test_backbone_graphml_format(net3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["backbone", net3_file, "--alpha", "0.7", "--format", "graphml",
                 "-o", str(out)]) == 0
    root = ET.parse(out / "backbone_a0.7.graphml").getroot()
    assert root.tag.endswith("graphml")


def test_dollar_exact_fixture(net3_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["dollar", net3_file, "--from", "S", "--exact", "-o", str(out)]) == 0
    lines = (out / "ranking_S_forward.csv").read_text().splitlines()
    assert lines[0] == "rank,partner,global_share_pct,local_share_pct,direct"
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[1] == "B" and float(first[2]) == pytest.approx(200.0 / 3.0)
    assert second[1] == "A" and float(second[2]) == pytest.approx(100.0 / 3.0)
    diag = json.loads((out / "dollar_diagnostics.json").read_text())
    assert diag["detailed_balance_rel_flux"] < 1e-9
    assert diag["reconstruction_rel_err_forward"] < 1e-9
    assert diag["reconstruction_rel_err_backward"] < 1e-9


def test_dollar_mc_reports_hops_and_standard_error(net3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["dollar", net3_file, "--from", "S", "--walkers", "40000", "--seed", "2",
                 "-o", str(out)]) == 0
    diag = json.loads((out / "dollar_diagnostics.json").read_text())
    # one hop from S, and a second for the 2/3 reaching A times the 1/2 it passes on
    assert diag["mean_hops"] == pytest.approx(4.0 / 3.0, abs=0.02)
    rows = [line.split(",") for line in (out / "ranking_S_forward.csv").read_text().splitlines()[1:]]
    p = np.array([float(row[2]) / 100.0 for row in rows])
    assert diag["max_share_se"] == pytest.approx(np.sqrt(p * (1 - p) / 40000).max(), rel=1e-9)


def test_dollar_exact_reports_hops(net3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["dollar", net3_file, "--from", "S", "--exact", "-o", str(out)]) == 0
    diag = json.loads((out / "dollar_diagnostics.json").read_text())
    # the value the MC run above estimates: 1 + (2/3)(1/2)
    assert diag["mean_hops"] == pytest.approx(4.0 / 3.0, rel=1e-12, abs=1e-12)


def test_dollar_exact_reports_excluded_nodes(tmp_path, capsys):
    net = ImbalanceNetwork.from_edges([
        ("S", "A", 2.0), ("S", "B", 1.0), ("A", "B", 1.0),
        ("X", "Y", 1.0), ("Y", "Z", 1.0), ("Z", "X", 1.0),
    ])
    path = tmp_path / "network.tsv"
    write_edge_list(net, path)
    out = tmp_path / "out"
    assert main(["dollar", str(path), "--from", "S", "--exact", "-o", str(out)]) == 0
    warning = "excluded 3 node(s) unable to reach an absorber: X, Y, Z"
    assert f"tradeflux: warning: {warning}\n" in capsys.readouterr().err
    diag = json.loads((out / "dollar_diagnostics.json").read_text())
    assert diag["warnings"] == [warning]


def test_no_walk_builds_a_reversed_network(monkeypatch, tmp_path):
    net = random_network(np.random.default_rng(61), n=30, density=0.3)
    path = tmp_path / "network.tsv"
    write_edge_list(net, path)

    def refuse(self):
        raise AssertionError("a walk built a reversed copy of the network")

    monkeypatch.setattr(ImbalanceNetwork, "reverse", refuse)
    consumer = net.countries[int(np.argmin(net.delta_s))]
    producer = net.countries[int(np.argmax(net.delta_s))]
    for focal, direction in ((consumer, "forward"), (producer, "backward")):
        assert main(["dollar", str(path), "--from", focal, "--direction", direction,
                     "--exact", "-o", str(tmp_path / direction)]) == 0
    diffusion.backward_walk_mc(net, producer, diffusion.WalkConfig(n_walkers=1000))


def test_dollar_exact_refuses_only_a_focal_unable_to_reach_an_absorber(trap, tmp_path, capsys):
    path = tmp_path / "network.tsv"
    write_edge_list(trap, path)
    out = tmp_path / "out"
    assert main(["dollar", str(path), "--from", "P", "--exact", "-o", str(out)]) == 0
    rows = (out / "ranking_P_forward.csv").read_text().splitlines()
    assert rows[1:] == ["1,Q,100.0,100.0,true"]
    capsys.readouterr()
    refused = tmp_path / "refused"
    assert main(["dollar", str(path), "--from", "A", "--exact", "-o", str(refused)]) == 1
    assert capsys.readouterr().err == "tradeflux: A cannot reach any absorber\n"
    assert not refused.exists()


def test_dollar_local_share_survives_a_weight_near_the_float_limit(tmp_path, capsys):
    path = tmp_path / "network.tsv"
    path.write_text("S\tA\t1.7e308\nS\tB\t1e-300\n")
    out = tmp_path / "out"
    assert main(["dollar", str(path), "--from", "S", "--exact", "-o", str(out)]) == 0
    rows = [line.split(",") for line in (out / "ranking_S_forward.csv").read_text().splitlines()]
    assert rows[1][1:4] == ["A", "100.0", "100.0"]
    assert "(local 100.00%, direct)" in capsys.readouterr().err


def test_dollar_misclassified_focal(net3_file, tmp_path, capsys):
    code = main(["dollar", net3_file, "--from", "B", "-o", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "net producer" in err and "backward" in err
    code = main(["dollar", net3_file, "--from", "S", "--direction", "backward",
                 "-o", str(tmp_path)])
    assert code == 2
    assert "net consumer" in capsys.readouterr().err


@pytest.mark.parametrize("direction, starts", [("forward", "consumers"),
                                               ("backward", "producers")])
def test_dollar_hints_no_direction_a_neutral_start_cannot_take(
    direction, starts, tmp_path, capsys
):
    # A, named on the #countries line, has no edge, so no walk starts there
    path = tmp_path / "network.tsv"
    path.write_text("src\tdst\tweight\n#countries\tA\tB\tC\nB\tC\t1.0\n")
    code = main(["dollar", str(path), "--from", "A", "--direction", direction,
                 "-o", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"tradeflux: A is a net neutral (delta_s = 0.0); {direction} walks start at "
        f"net {starts}.\n"
    )


def test_dollar_unknown_country(net3_file, tmp_path, capsys):
    assert main(["dollar", net3_file, "--from", "NOPE", "-o", str(tmp_path)]) == 2
    assert "unknown country" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--top", "--walkers", "--max-steps"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_dollar_rejects_counts_below_one_before_reading(flag, value, tmp_path, capsys):
    missing = str(tmp_path / "no-network.tsv")
    assert main(["dollar", missing, "--from", "S", flag, value, "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"tradeflux: {flag} must be >= 1, got {value}\n"


def test_dollar_rejects_a_negative_seed_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "no-network.tsv")
    assert main(["dollar", missing, "--from", "S", "--seed", "-1", "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "tradeflux: --seed must be >= 0, got -1\n"


def test_dollar_rejects_a_walker_count_past_int64_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "no-network.tsv")
    walkers = str(10**20)
    assert main(["dollar", missing, "--from", "S", "--walkers", walkers,
                 "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"tradeflux: --walkers must be <= 9223372036854775807, got {walkers}\n"
    )


def test_dollar_mc_is_byte_deterministic(net3_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["dollar", net3_file, "--from", "S", "--walkers", "20000", "--seed", "7"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert (out1 / "ranking_S_forward.csv").read_bytes() == (
        out2 / "ranking_S_forward.csv"
    ).read_bytes()
    assert (out1 / "dollar_diagnostics.json").read_bytes() == (
        out2 / "dollar_diagnostics.json"
    ).read_bytes()


def test_dollar_backward_ranking(net3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["dollar", net3_file, "--from", "B", "--direction", "backward",
                 "--exact", "-o", str(out)]) == 0
    lines = (out / "ranking_B_backward.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "S"


def test_export_graphml(net3_file, tmp_path):
    out = tmp_path / "out"
    assert main(["export", net3_file, "-o", str(out)]) == 0
    root = ET.parse(out / "network.graphml").getroot()
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    assert len(root.findall(".//g:node", ns)) == 3


def test_missing_input_file(tmp_path, capsys):
    assert main(["export", str(tmp_path / "nope.tsv"), "-o", str(tmp_path)]) == 1
    assert "no such file" in capsys.readouterr().err


def test_directory_arguments_end_in_one_line(tmp_path, capsys):
    assert main(["disparity", str(tmp_path), "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"tradeflux: {tmp_path}: Is a directory\n"
    src = tmp_path / "records.csv"
    src.write_text(TWO_COUNTRY)
    code = main(["build", str(src), "--year", "2000", "--format-map", str(tmp_path),
                 "-o", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"tradeflux: {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("step, text", [
    (["build", "--year", "2000"], TWO_COUNTRY.encode() + b"2000,C1,C3,1,2\r\n" * 2000
     + b"2000,C2,\xe9C3,1,2\n"),
    (["backbone"], b"src\tdst\tweight\r\n" + b"S\tA\t2.0\r" * 5000 + b"S\tB\t1.\xff\n"),
], ids=["build", "backbone"])
def test_text_that_is_not_utf8_ends_in_its_path_and_line(step, text, tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_bytes(text)
    assert main([step[0], str(src), *step[1:], "-o", str(tmp_path / "out")]) == 1
    line_no = text.count(b"\n") + text.count(b"\r") - text.count(b"\r\n")
    assert capsys.readouterr().err == f"tradeflux: {src}: line {line_no}: not UTF-8 text\n"
    assert not (tmp_path / "out").exists()


def test_module_entry_point_prints_no_runpy_warning(tmp_path):
    src_root = Path(tradeflux.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src_root), PYTHONWARNINGS="default")
    result = subprocess.run(
        [sys.executable, "-m", "tradeflux.cli", "export", str(tmp_path / "nope.tsv"),
         "-o", str(tmp_path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert result.returncode == 1
    assert result.stderr == f"tradeflux: {tmp_path / 'nope.tsv'}: no such file\n"


def _run_fresh(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter that imports tradeflux from this tree."""
    src_root = Path(tradeflux.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src_root)),
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _every_step(tmp_path) -> dict:
    """The argv of each CLI step, by name, on a 30-country pipeline."""
    tm = random_trade_matrix(np.random.default_rng(5), n=30, density=0.5)
    flows = tm.exports.tolist()
    lines = ["year,reporter,partner,exports,imports"]
    for i, reporter in enumerate(tm.countries):
        for j, partner in enumerate(tm.countries):
            if i != j and (flows[i][j] or flows[j][i]):
                lines.append(f"2000,{reporter},{partner},{flows[i][j]!r},{flows[j][i]!r}")
    (tmp_path / "records.csv").write_text("\n".join(lines) + "\n")
    net = build_imbalance_network(tm)
    consumer = tm.countries[int(np.argmin(net.delta_s))]
    network, out = str(tmp_path / "network.tsv"), str(tmp_path / "out")
    return {
        "build": ["build", str(tmp_path / "records.csv"), "--year", "2000", "-o", str(tmp_path)],
        "disparity": ["disparity", network, "-o", out],
        "backbone": ["backbone", network, "-o", out],
        "export": ["export", network, "-o", out],
        "dollar": ["dollar", network, "--from", consumer, "--walkers", "2000", "-o", out],
        "dollar --exact": ["dollar", network, "--from", consumer, "--exact", "-o", out],
    }


def test_no_step_needs_scipy(tmp_path):
    out = _run_fresh("""
        import json, sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        import tradeflux
        from tradeflux.cli import main
        for step, argv in json.loads(sys.argv[1]).items():
            assert main(argv) == 0, step
        exec("from tradeflux import *", {})
        assert sys.modules["scipy"] is None
        print("ok")
    """, json.dumps(_every_step(tmp_path)))
    assert out == "ok\n"


def test_no_step_loads_numpy_ma(tmp_path):
    # numpy.ma costs ~15 ms to import; np.unique without return_index loads it
    out = _run_fresh("""
        import json, sys
        from tradeflux.cli import main
        for step, argv in json.loads(sys.argv[1]).items():
            assert main(argv) == 0, step
            assert "numpy.ma" not in sys.modules, step
        print("ok")
    """, json.dumps(_every_step(tmp_path)))
    assert out == "ok\n"


#: The stage modules each step needs; every step also loads the package shell,
#: the CLI, ``_io`` and ``errors``.
STAGES = {
    "build": {"ingest", "network"},
    "disparity": {"network", "disparity"},
    "backbone": {"network", "backbone"},
    "dollar": {"network", "diffusion"},
    "dollar --exact": {"network", "diffusion"},
    "export": {"network"},
}


def test_each_step_loads_only_its_own_stage(tmp_path):
    # importing a stage costs start-up time; importing tradeflux loads none
    steps = _every_step(tmp_path)
    for step, stage in STAGES.items():
        out = _run_fresh("""
            import json, sys
            import tradeflux
            assert not {"tradeflux.network", "tradeflux.errors"} & set(sys.modules)
            from tradeflux.cli import main
            assert main(json.loads(sys.argv[1])) == 0
            print(" ".join(sorted(name for name in sys.modules if name.startswith("tradeflux"))))
        """, json.dumps(steps[step]))
        expected = {"tradeflux", "tradeflux.cli", "tradeflux._io", "tradeflux.errors",
                    *(f"tradeflux.{module}" for module in stage)}
        assert set(out.split()) == expected, step


def test_bad_policy_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "records.csv"
    src.write_text(TWO_COUNTRY)
    with pytest.raises(SystemExit) as caught:
        main(["build", str(src), "--year", "2000", "--policy", "median"])
    assert caught.value.code == 2
    assert "invalid choice: 'median' (choose from 'average', 'prefer-importer', " \
        "'prefer-exporter', 'max')" in capsys.readouterr().err
    assert not (tmp_path / "network.tsv").exists()


def test_exact_dollar_loads_no_random_generator(tmp_path):
    # its balance probes come from a fixed formula; numpy.random costs ~6 MB of RSS
    out = _run_fresh("""
        import json, sys
        from tradeflux.cli import main
        steps = json.loads(sys.argv[1])
        assert main(steps["build"]) == 0
        assert main(steps["dollar --exact"]) == 0
        print("numpy.random" in sys.modules)
    """, json.dumps(_every_step(tmp_path)))
    assert out == "False\n"


#: Every public name ``tradeflux`` has exported.
EXPORTED = (
    "AbsorptionMatrix BackboneNetwork BackboneStats ColumnMap ConfigurationError "
    "DisparityPoint DisparityProfile DyadicRecord ImbalanceNetwork "
    "InsufficientDataError NoConvergenceError NodeAccount ScalingFit TradeMatrix "
    "ValidationReport WalkConfig backbone backbone_stats backbone_sweep "
    "backward_walk_mc build_imbalance_network connected_components "
    "detailed_balance_check diffusion disparity disparity_points disparity_profile "
    "errors exact_absorption extract_backbone "
    "fit_scaling_exponent forward_walk_mc imbalance_reconstruction ingest network "
    "node_accounts null_model_moments "
    "parse_dyadic_records rank_partners read_edge_list reconcile_flows total_flux "
    "validate_trade_matrix write_edge_list write_graphml"
).split()


def test_all_lists_exactly_the_exported_names():
    assert sorted(tradeflux.__all__) == sorted(EXPORTED)


def test_every_exported_name_still_imports():
    star = {}
    exec("from tradeflux import *", star)
    assert set(EXPORTED) <= set(star), set(EXPORTED) - set(star)
    for name in EXPORTED:
        exec(f"from tradeflux import {name}", {})
        assert name in dir(tradeflux), name
    assert tradeflux.diffusion is diffusion
    assert tradeflux.exact_absorption is diffusion.exact_absorption


def test_walker_names_are_the_diffusion_module_objects():
    for name in ("AbsorptionMatrix", "WalkConfig", "backward_walk_mc", "forward_walk_mc",
                 "rank_partners"):
        assert getattr(tradeflux, name) is getattr(diffusion, name)
    net = ImbalanceNetwork.from_edges([("S", "A", 2.0), ("S", "B", 1.0), ("A", "B", 1.0)])
    assert type(diffusion.exact_absorption(net)) is diffusion.AbsorptionMatrix


_HEADER = b"year,reporter,partner,exports,imports\n"
#: Records files a careless or hostile source might hand to ``build``.
HOSTILE_RECORDS = {
    "bad-utf8": _HEADER + b"2000,\xff\xfe,B,1,2\n",
    "nul-code": _HEADER + b"2000,A\x00,B,1,2\n2000,B,C,1,2\n",
    "nul-value": _HEADER + b"2000,A,B,1\x00,2\n2000,B,C,1,2\n",
    "strengths-overflow": _HEADER + b"2000,A,B,1e308,1e308\n2000,C,B,1e308,1e308\n",
    "average-overflow": _HEADER + b"2000,A,B,1.7e308,1.6e308\n2000,C,A,1,2\n",
    "beyond-float": _HEADER + b"2000,A,B,1e999,2\n2000,B,C,1,2\n",
    "quotes": _HEADER + b'2000,"A,B",C,1,2\n2000,B,C,1,2\n2000,"unterminated\n',
    "huge-quoted-field": _HEADER + b'2000,"' + b"A" * 200_000 + b'",B,1,2\n',
    "ragged": _HEADER + b"2000,A\n2000,A,B,1,2,3\n2000,B,C,1\n",
    "bare-cr": _HEADER.replace(b"\n", b"\r") + b"2000,A,B,1,2\r2000,B,C,3,4\r",
    "header-only": _HEADER,
    "empty": b"",
    "no-such-column": b"yr,a,b\n2000,A,B\n",
    "long-flow": _HEADER + b"2000,A,B," + b"x" * 1_000_000 + b",1\n2000,B,C,1,2\n",
    "long-header": b",".join([b"year", b"reporter", b"partner", b"exports",
                              *(b"column %d" % i for i in range(50_000))]) + b"\n",
}
#: Edge lists, with one ordinary file among them.
HOSTILE_EDGES = {
    "ordinary": b"src\tdst\tweight\nS\tA\t2.0\nS\tB\t1.0\nA\tB\t1.0\n",
    "bad-utf8": b"S\t\xff\t2.0\n",
    "nul-code": b"S\tA\x00\t2.0\nS\tB\t1.0\n",
    "strengths-overflow": b"S\tA\t1e308\nB\tA\t1e308\n",
    "flux-overflow": b"S\tA\t1e308\nB\tC\t1.7e308\n",
    "near-max": b"S\tA\t1.7e308\nS\tB\t1e-300\n",
    "tiny": b"S\tA\t5e-324\nS\tB\t5e-324\nA\tB\t5e-324\n",
    "non-finite": b"S\tA\tinf\nS\tB\tnan\n",
    "negative": b"S\tA\t-1\n",
    "quotes": b'"S"\t"A"\t2.0\n',
    "ragged": b"S\tA\nS\tA\t1\t2\n",
    "reciprocal": b"S A 1\nA S 2\n",
    "self-loop": b"S S 1\n",
    "header-only": b"src\tdst\tweight\n",
    "empty": b"",
    "long-weight": b"S\tA\t1.0\nS\tB\t" + b"1" * 1_000_000 + b"x\n",
    "long-code": b"S\t" + b"A" * 1_000_000 + b",\t1.0\n",
}
_EDGE_STEPS = (
    ["disparity"], ["backbone"], ["backbone", "--format", "graphml"],
    ["dollar", "--from", "S", "--walkers", "2000"], ["dollar", "--from", "S", "--exact"],
    ["dollar", "--from", "A", "--direction", "backward", "--exact"],
    ["export"], ["export", "--format", "tsv"],
)


def _fuzz_run(argv, out, capsys):
    """Run ``main`` once; what a user sees must be short tradeflux lines and an exit code."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["-o", str(out)])
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    lines = err.rstrip("\n").split("\n") if err else []
    assert all(line.startswith("tradeflux: ") for line in lines), err
    assert all(len(line.encode()) <= 300 for line in lines), [len(line) for line in lines]
    if code:
        assert not out.exists() or not any(out.iterdir()), sorted(out.iterdir())
    return code


@pytest.mark.parametrize("name", HOSTILE_RECORDS)
def test_build_on_hostile_records_ends_in_tradeflux_lines(name, tmp_path, capsys):
    src = tmp_path / "records.csv"
    src.write_bytes(HOSTILE_RECORDS[name])
    _fuzz_run(["build", str(src), "--year", "2000"], tmp_path / "out", capsys)


@pytest.mark.parametrize("name", HOSTILE_EDGES)
def test_steps_on_hostile_edge_lists_end_in_tradeflux_lines(name, tmp_path, capsys):
    network = tmp_path / "network.tsv"
    network.write_bytes(HOSTILE_EDGES[name])
    codes = [
        _fuzz_run([step[0], str(network), *step[1:]], tmp_path / f"out{i}", capsys)
        for i, step in enumerate(_EDGE_STEPS)
    ]
    if name == "ordinary":
        assert codes == [1, 0, 0, 0, 0, 0, 0, 0]  # too few degree classes to fit
