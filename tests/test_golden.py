"""Golden outputs of the CLI pipeline on a fixed-seed input.

Every subcommand runs in-process through ``tradeflux.cli.main`` on the same
40-country record file, and each output file is compared by sha256 against
hashes recorded from a known-good run. The exact absorbing solve goes
through LAPACK, whose rounding may differ between builds, so its outputs
are compared numerically at 1e-12 instead of by hash. The two Monte Carlo
rankings are also checked against that exact solve, which holds whatever
random stream the walker draws.
"""

import hashlib
import json

import numpy as np
import pytest

from tradeflux.cli import main
from tradeflux.diffusion import exact_absorption
from tradeflux.network import read_edge_list

N_COUNTRIES = 40
DENSITY = 0.5
FOCAL_CONSUMER = "C23"
FOCAL_PRODUCER = "C26"
MC_WALKERS = 5000

GOLDEN = {
    "backbone_graphml/backbone_a0.05.graphml":
        "98634dfc5f40bb79e0bafd78b6e6d2705421d8c20afe568df37364bb71523448",
    "backbone_graphml/backbone_a0.3.graphml":
        "414af4a72144eb59282e72acafaf0b2a75eb36a6de4670adc5675eb1ece5a94b",
    "backbone_graphml/backbone_stats.csv":
        "cf5014f00d7a6667a8ecd1f848b534d6818cee46c0f262ce46bc2c455deaadb1",
    "backbone_tsv/backbone_a0.01.tsv":
        "c3ef61457b5338def594042ca886d2b312573998fcf538265db6d0d4ccacd4f8",
    "backbone_tsv/backbone_a0.05.tsv":
        "8af310ad78c93913d41c5c550ec9410b2e5e2c4e12dd4f8e0aebfaf69270d066",
    "backbone_tsv/backbone_a0.1.tsv":
        "68f1bbbb6d7235dcb90b62ca17a925168ef301c210c44631a84f58950fb01b9d",
    "backbone_tsv/backbone_a0.2.tsv":
        "46a8e555c4bed16a44169885fcfe5abefb5acc0b1db720ecbae13862f11b3e7c",
    "backbone_tsv/backbone_stats.csv":
        "8260542cdb5987130eb8a341b0a9f2ce8807ebe27a5c688a22cfb73225caca64",
    "build/accounts.csv":
        "55294a72918222ee26b09189d69c6210339a6ee86946f35bb0ea47294874e9d0",
    "build/network.tsv":
        "2df1ef54e7ad52cb904af25ed5458616720e46339ce0bb9055f2d597c4bc7698",
    "disparity/disparity_profile.csv":
        "58430fec246e168ab52c34a852cbef76e1ff65557d7a576011575ac11f4aae08",
    "disparity/scaling_fit.json":
        "7ef310501d0de7123eaf52612f1f8e57b70dd6dc045d92ef077056e5a58bb9a7",
    "dollar_backward/dollar_diagnostics.json":
        "5d3910c16d942bcc9d20e08eeeea29dc485f2dc488e15bea8e7f05dd3d76a442",
    "dollar_backward/ranking_C26_backward.csv":
        "8e5a743cb43777b448ec182fe98abeb6216f2df8a4415fd2c472853b9dcc1431",
    "dollar_forward/dollar_diagnostics.json":
        "dda382cdab72c1e8e671a5ef7a98906e67970681bfbee3f4671295ea2b15977a",
    "dollar_forward/ranking_C23_forward.csv":
        "da64c15b870ff5e419ac3d8c974a737a2505cd2c3b30dbd0591c441d9e988db5",
    "export_graphml/network.graphml":
        "726531b28ef3d077664c063a53f824fd5c50caea734e56a959966808a1f047a7",
    "export_tsv/network.tsv":
        "2df1ef54e7ad52cb904af25ed5458616720e46339ce0bb9055f2d597c4bc7698",
}

EXACT_RANKING = [
    (1, "C30", 28.995214477171, 0.0, "false"),
    (2, "C11", 15.892126059493418, 0.0, "false"),
    (3, "C25", 11.859288993513493, 0.0, "false"),
    (4, "C26", 8.324177714952553, 0.0, "false"),
    (5, "C17", 7.794072092333454, 0.0, "false"),
    (6, "C32", 6.608240717281277, 4.575744095596849, "true"),
    (7, "C06", 4.410833885162589, 0.0, "false"),
    (8, "C12", 4.158536885831707, 0.11786359981879699, "true"),
]


def _write_records(path) -> None:
    """One row per ordered (reporter, partner) pair trading in either
    direction, carrying the reporter's exports and its imports, each with
    2% reporting noise so the two claims on a flow disagree."""
    rng = np.random.default_rng(2007)
    codes = [f"C{i:02d}" for i in range(N_COUNTRIES)]
    flows = np.where(
        rng.random((N_COUNTRIES, N_COUNTRIES)) < DENSITY,
        rng.lognormal(3.0, 1.4, (N_COUNTRIES, N_COUNTRIES)),
        0.0,
    )
    np.fill_diagonal(flows, 0.0)
    noise = 1.0 + 0.02 * rng.standard_normal((N_COUNTRIES, N_COUNTRIES, 2))

    def claim(value: float, factor: float) -> str:
        return f"{value * factor:.3f}" if value > 0 else ""

    lines = ["year,reporter,partner,exports,imports"]
    for i in range(N_COUNTRIES):
        for j in range(N_COUNTRIES):
            if i == j or (flows[i, j] == 0 and flows[j, i] == 0):
                continue
            lines.append(
                f"2000,{codes[i]},{codes[j]},"
                f"{claim(flows[i, j], noise[i, j, 0])},"
                f"{claim(flows[j, i], noise[i, j, 1])}"
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    records = root / "records.csv"
    _write_records(records)
    network = str(root / "build" / "network.tsv")
    steps = {
        "build": ["build", str(records), "--year", "2000"],
        "disparity": ["disparity", network],
        "backbone_tsv": ["backbone", network],
        "backbone_graphml": ["backbone", network, "--alpha", "0.3,0.05",
                             "--format", "graphml"],
        "dollar_forward": ["dollar", network, "--from", FOCAL_CONSUMER,
                           "--walkers", str(MC_WALKERS), "--seed", "3"],
        "dollar_backward": ["dollar", network, "--from", FOCAL_PRODUCER,
                            "--direction", "backward", "--walkers", str(MC_WALKERS),
                            "--seed", "4"],
        "dollar_exact": ["dollar", network, "--from", FOCAL_CONSUMER, "--exact",
                         "--top", "8"],
        "export_graphml": ["export", network],
        "export_tsv": ["export", network, "--format", "tsv"],
    }
    for name, argv in steps.items():
        assert main(argv + ["-o", str(root / name)]) == 0, name
    return root


def test_pipeline_outputs_match_recorded_hashes(pipeline):
    got = {
        path.relative_to(pipeline).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(pipeline.glob("*/*"))
        if path.parent.name != "dollar_exact"
    }
    assert got == GOLDEN


def test_exact_dollar_outputs_match_recorded_values(pipeline):
    out = pipeline / "dollar_exact"
    assert sorted(p.name for p in out.iterdir()) == [
        "dollar_diagnostics.json", f"ranking_{FOCAL_CONSUMER}_forward.csv"
    ]
    lines = (out / f"ranking_{FOCAL_CONSUMER}_forward.csv").read_text().splitlines()
    assert lines[0] == "rank,partner,global_share_pct,local_share_pct,direct"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), r[1], r[4]) for r in rows] == [
        (rank, partner, direct) for rank, partner, _, _, direct in EXACT_RANKING
    ]
    for row, (_, _, global_pct, local_pct, _) in zip(rows, EXACT_RANKING):
        assert float(row[2]) == pytest.approx(global_pct, rel=1e-12, abs=1e-12)
        assert float(row[3]) == pytest.approx(local_pct, rel=1e-12, abs=1e-12)

    diag = json.loads((out / "dollar_diagnostics.json").read_text())
    assert set(diag) == {
        "focal", "direction", "method", "detailed_balance_probe_abs",
        "detailed_balance_rel_flux", "reconstruction_rel_err_forward",
        "reconstruction_rel_err_backward", "mean_hops", "warnings",
    }
    assert (diag["focal"], diag["direction"], diag["method"]) == (
        FOCAL_CONSUMER, "forward", "dense"
    )
    for key in ("detailed_balance_rel_flux", "reconstruction_rel_err_forward",
                "reconstruction_rel_err_backward"):
        assert 0.0 <= diag[key] < 1e-12, key
    assert diag["mean_hops"] >= 1.0  # a walker leaves its start at least once
    assert diag["warnings"] == []


@pytest.mark.parametrize("step, focal, direction", [
    ("dollar_forward", FOCAL_CONSUMER, "forward"),
    ("dollar_backward", FOCAL_PRODUCER, "backward"),
])
def test_mc_rankings_agree_with_exact(pipeline, step, focal, direction):
    exact = exact_absorption(read_edge_list(pipeline / "build" / "network.tsv"), direction)
    p_exact = dict(zip(exact.targets, exact.shares[exact.starts.index(focal)]))
    lines = (pipeline / step / f"ranking_{focal}_{direction}.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert rows
    p = np.array([p_exact[row[1]] for row in rows])
    share = np.array([float(row[2]) / 100.0 for row in rows])
    se = np.sqrt(p * (1 - p) / MC_WALKERS)
    assert (np.abs(share - p) > 3 * se).sum() <= 1
