"""End-to-end acceptance checks with pinned tolerances.

Each check prints a single PASS/FAIL line on the real stdout (bypassing
pytest capture) so a full run always ends with a readable checklist.
Checks 10-12 compare against published statistics of the expanded
bilateral trade dataset and only run when TRADEFLUX_DATASET points at a
dyadic records file; see README for the environment knobs.
"""

import contextlib
import json
import os
import time

import numpy as np
import pytest

from helpers import (
    null_model_sample,
    null_model_shares,
    quadrature_significance,
    random_network,
)
from tradeflux.backbone import backbone_stats, extract_backbone
from tradeflux.diffusion import WalkConfig, exact_absorption, forward_walk_mc
from tradeflux.disparity import (
    DisparityProfile,
    ProfileRow,
    disparity_profile,
    fit_scaling_exponent,
    null_model_moments,
)
from tradeflux.ingest import ColumnMap, parse_dyadic_records, reconcile_flows
from tradeflux.network import (
    ImbalanceNetwork,
    build_imbalance_network,
    node_accounts,
    total_flux,
)


@pytest.fixture
def criterion(capfd):
    """Context manager printing one [PASS]/[FAIL] line outside capture."""

    @contextlib.contextmanager
    def report(number, description):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"[FAIL] {number:>2}  {description}", flush=True)
            raise
        with capfd.disabled():
            print(f"[PASS] {number:>2}  {description}", flush=True)

    return report


def test_c01_null_model_moments(criterion):
    with criterion(1, "null sampler matches closed-form moments (1% / 5%)"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for k in (2, 5, 10, 50):
            draws = null_model_sample(k, 100_000, rng)
            mean, var = null_model_moments(k)
            assert abs(draws.mean() - mean) <= 0.01 * mean
            assert abs(draws.var() - var) <= 0.05 * var
        assert time.perf_counter() - t0 < 10.0


def test_c02_significance_closed_form_vs_quadrature(criterion):
    with criterion(2, "significance (1-p)^(k-1) vs quadrature within 1e-10"):
        t0 = time.perf_counter()
        ks = range(2, 42)
        ps = np.linspace(0.0, 0.96, 25)
        checked = 0
        for k in ks:
            for p in ps:
                closed = (1.0 - p) ** (k - 1)
                assert abs(closed - quadrature_significance(p, k)) <= 1e-10
                checked += 1
        assert checked == 1000
        assert time.perf_counter() - t0 < 1.0


def test_c03_backbone_nesting(criterion):
    with criterion(3, "backbones nest across alpha on 20 random networks"):
        rng = np.random.default_rng(103)
        alphas = (0.001, 0.01, 0.05, 0.2)
        t0 = time.perf_counter()
        for _ in range(20):
            net = random_network(rng, n=100, density=0.2)
            sets = []
            for alpha in alphas:
                bb = extract_backbone(net, alpha)
                sets.append(set(map(int, bb.edge_index)))
            for tighter, looser in zip(sets, sets[1:]):
                assert tighter <= looser
        assert time.perf_counter() - t0 < 5.0


def test_c04_null_calibration_firing_rate(criterion):
    with criterion(4, "endpoint test fires at rate 0.05 +/- 0.02 under the null"):
        rng = np.random.default_rng(104)
        alpha = 0.05
        fired = 0
        edges_total = 0
        for replicate in range(20):
            k = 200
            shares = null_model_shares(k, 1, rng)[0]
            edges = [
                ("HUB", f"L{i:03d}", float(s) * 1000.0) for i, s in enumerate(shares)
            ]
            net = ImbalanceNetwork.from_edges(edges)
            bb = extract_backbone(net, alpha)
            # leaves have k_in = 1 and never fire, so every kept edge is a
            # firing of the hub's stick-breaking out-share test
            fired += bb.n_edges
            edges_total += net.n_edges
        rate = fired / edges_total
        assert abs(rate - alpha) <= 0.02


def test_c05_monte_carlo_matches_exact_solver(criterion):
    with criterion(5, "MC (1e6 walkers) within 3 SE of exact on 20 networks"):
        rng = np.random.default_rng(105)
        t0 = time.perf_counter()
        outside = 0
        cells = 0
        for trial in range(20):
            net = random_network(rng, n=50, density=0.4)
            exact = exact_absorption(net, "forward")
            row = int(rng.integers(len(exact.starts)))
            mc = forward_walk_mc(
                net, exact.starts[row], WalkConfig(n_walkers=1_000_000, seed=trial)
            )
            p = exact.shares[row]
            se = np.sqrt(p * (1.0 - p) / 1_000_000)
            outside += int((np.abs(mc.shares[0] - p) > 3.0 * se).sum())
            cells += p.size
        assert outside <= 0.01 * cells
        assert time.perf_counter() - t0 < 120.0


def test_c06_detailed_balance(criterion):
    with criterion(6, "exact forward/backward satisfy detailed balance (1e-9 flux)"):
        from tradeflux.diffusion import detailed_balance_check

        rng = np.random.default_rng(106)
        for _ in range(10):
            net = random_network(rng, n=40, density=0.35)
            fwd = exact_absorption(net, "forward")
            bwd = exact_absorption(net, "backward")
            gap = detailed_balance_check(fwd, bwd, node_accounts(net))
            assert gap < 1e-9 * total_flux(net)


def test_c07_imbalance_reconstruction(criterion):
    with criterion(7, "absorption shares rebuild imbalances to 1e-9 relative"):
        from tradeflux.diffusion import imbalance_reconstruction

        rng = np.random.default_rng(107)
        for _ in range(10):
            net = random_network(rng, n=40, density=0.35)
            accounts = node_accounts(net)
            delta = {a.country: a.delta_s for a in accounts}
            for direction, sign in (("forward", 1.0), ("backward", -1.0)):
                matrix = exact_absorption(net, direction)
                recon = imbalance_reconstruction(matrix, accounts)
                for country, value in recon.items():
                    expected = sign * delta[country]
                    assert abs(value - expected) <= 1e-9 * abs(expected)


def test_c08_hand_solved_fixture(net3, criterion):
    with criterion(8, "3-node fixture: exact (1/3, 2/3); MC within 0.002"):
        exact = exact_absorption(net3, "forward")
        assert exact.targets == ("A", "B")
        np.testing.assert_allclose(
            exact.shares[0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12
        )
        mc = forward_walk_mc(net3, "S", WalkConfig(n_walkers=1_000_000, seed=8))
        np.testing.assert_allclose(
            mc.shares[0], [1.0 / 3.0, 2.0 / 3.0], atol=0.002
        )


def test_c09_scaling_fit_recovery(criterion):
    with criterion(9, "scaling fit recovers beta in {0, 0.5, 0.6, 1} +/- 0.02"):
        rng = np.random.default_rng(109)
        for beta in (0.0, 0.5, 0.6, 1.0):
            rows = []
            for k in range(2, 80):
                value = float(k) ** beta * (1.0 + 0.01 * rng.standard_normal())
                mean, var = null_model_moments(k)
                rows.append(ProfileRow(k, value, mean, mean + 2 * np.sqrt(var), 10))
            fit = fit_scaling_exponent(DisparityProfile("out", tuple(rows)))
            assert abs(fit.beta - beta) <= 0.02


# ---------------------------------------------------------------------------
# dataset-conditional checks
# ---------------------------------------------------------------------------

DATASET = os.environ.get("TRADEFLUX_DATASET")
needs_dataset = pytest.mark.skipif(
    not DATASET, reason="TRADEFLUX_DATASET not set; expanded dataset unavailable"
)


def _dataset_codes():
    # ISO3-style defaults, overridable for datasets with other naming schemes
    raw = os.environ.get("TRADEFLUX_CODES", "USA,JPN,RUS,CHE")
    usa, jpn, rus, che = (tok.strip() for tok in raw.split(","))
    return usa, jpn, rus, che


@pytest.fixture(scope="module")
def dataset_network():
    columns = None
    map_path = os.environ.get("TRADEFLUX_FORMAT_MAP")
    if map_path:
        with open(map_path, "r", encoding="utf-8") as fh:
            columns = ColumnMap.from_dict(json.load(fh))
    with open(DATASET, "r", encoding="utf-8") as fh:
        parsed = parse_dyadic_records(fh, columns=columns)
    records = [r for r in parsed.records if r.year == 2000]
    matrix, _ = reconcile_flows(records, 2000, policy="average")
    return build_imbalance_network(matrix)


@needs_dataset
def test_c10_backbone_table_year_2000(dataset_network, criterion):
    with criterion(10, "year-2000 backbone sizes at alpha 0.05 and 0.01 (+/- 3)"):
        for alpha, expected in ((0.05, (84.0, 97.0, 15.0)), (0.01, (75.0, 96.0, 10.0))):
            stats = backbone_stats(extract_backbone(dataset_network, alpha))
            got = (stats.pct_flux, stats.pct_nodes, stats.pct_edges)
            for value, target in zip(got, expected):
                assert abs(value - target) <= 3.0, (alpha, got)


@needs_dataset
def test_c11_scaling_exponents_year_2000(dataset_network, criterion):
    with criterion(11, "year-2000 concentration exponents: in 0.6, out 0.5 (+/- 0.1)"):
        fit_in = fit_scaling_exponent(disparity_profile(dataset_network, "in"))
        fit_out = fit_scaling_exponent(disparity_profile(dataset_network, "out"))
        assert abs(fit_in.beta - 0.6) <= 0.1
        assert abs(fit_out.beta - 0.5) <= 0.1


@needs_dataset
def test_c12_dollar_experiment_spot_checks(dataset_network, criterion):
    with criterion(12, "year-2000 absorption spot checks (USA, Russia, Switzerland)"):
        usa, jpn, rus, che = _dataset_codes()
        net = dataset_network
        fwd = exact_absorption(net, "forward")
        bwd = exact_absorption(net, "backward")
        assert abs(100.0 * fwd.share(usa, jpn) - 19.5) <= 1.5
        assert abs(100.0 * bwd.share(rus, usa) - 33.3) <= 2.0
        from tradeflux.diffusion import rank_partners

        ranking = rank_partners(net, fwd, che, top=10)
        assert any(not r.direct for r in ranking)
