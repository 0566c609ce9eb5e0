import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import csgraph_reaches, random_network, reference_walk, traced_peak
from tradeflux import diffusion
from tradeflux.diffusion import (
    DIRECTIONS,
    AbsorptionMatrix,
    WalkConfig,
    _focal_solve,
    _hop_table,
    _row_totals,
    _system,
    _walk,
    backward_walk_mc,
    detailed_balance_check,
    exact_absorption,
    forward_walk_mc,
    imbalance_reconstruction,
    rank_partners,
    write_ranking_csv,
)
from tradeflux.network import ImbalanceNetwork, node_accounts, total_flux


def test_fixture_exact_shares(net3):
    result = exact_absorption(net3, "forward")
    assert result.starts == ("S",)
    assert result.targets == ("A", "B")
    np.testing.assert_allclose(result.shares[0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert result.non_absorbed[0] == pytest.approx(0.0, abs=1e-12)
    assert result.method == "dense"
    assert result.mean_hops is None


def test_fixture_backward_fully_attributes_to_s(net3):
    result = exact_absorption(net3, "backward")
    assert result.starts == ("A", "B")
    assert result.targets == ("S",)
    np.testing.assert_allclose(result.shares, [[1.0], [1.0]], atol=1e-12)


def test_fixture_mc_close_to_exact(net3):
    config = WalkConfig(n_walkers=1_000_000, seed=0)
    result = forward_walk_mc(net3, "S", config)
    np.testing.assert_allclose(result.shares[0], [1.0 / 3.0, 2.0 / 3.0], atol=0.002)
    assert result.non_absorbed[0] == 0.0
    assert result.n_walkers == 1_000_000
    # one hop from S, and a second for the walkers reaching A (2/3) that A
    # passes on to B (1/2): 1 + 1/3 = 4/3 in expectation
    assert result.mean_hops == pytest.approx(4.0 / 3.0, abs=0.005)


def test_fixture_detailed_balance_and_reconstruction(net3):
    accounts = node_accounts(net3)
    fwd = exact_absorption(net3, "forward")
    bwd = exact_absorption(net3, "backward")
    assert detailed_balance_check(fwd, bwd, accounts) < 1e-9 * total_flux(net3)
    assert imbalance_reconstruction(fwd, accounts) == pytest.approx(
        {"A": 1.0, "B": 2.0}
    )
    assert imbalance_reconstruction(bwd, accounts) == pytest.approx({"S": 3.0})


def test_absorption_probability_rules(net3):
    assert net3.countries == ("A", "B", "S")
    # forward walkers are absorbed by producers with probability delta_s / s_in
    np.testing.assert_allclose(_walk(net3, "forward")[2], [0.5, 1.0, 0.0])
    # backward walks run forward on the reversed network, where S is the producer
    np.testing.assert_allclose(_walk(net3, "backward")[2], [0.0, 0.0, 1.0])


def test_walk_config_validation():
    with pytest.raises(ValueError, match="n_walkers"):
        WalkConfig(n_walkers=0)
    with pytest.raises(ValueError, match="max_steps"):
        WalkConfig(max_steps=0)
    with pytest.raises(ValueError, match="seed"):
        WalkConfig(seed=-1)
    with pytest.raises(ValueError, match="n_walkers"):
        WalkConfig(n_walkers=2**63)
    assert WalkConfig(n_walkers=2**63 - 1).n_walkers == 2**63 - 1


def test_mc_determinism(net3):
    config = WalkConfig(n_walkers=50_000, seed=123)
    a = forward_walk_mc(net3, "S", config)
    b = forward_walk_mc(net3, "S", config)
    np.testing.assert_array_equal(a.shares, b.shares)
    c = forward_walk_mc(net3, "S", WalkConfig(n_walkers=50_000, seed=124))
    assert not np.array_equal(a.shares, c.shares)


def test_mc_matches_scalar_reference_loop(net3):
    n = 20_000
    counts = reference_walk(net3, net3.index["S"], n, seed=99)
    reference = counts[[net3.index["A"], net3.index["B"]]] / n
    result = forward_walk_mc(net3, "S", WalkConfig(n_walkers=n, seed=1))
    # two independent estimators of the same shares; SE ~ 0.0033 each
    np.testing.assert_allclose(result.shares[0], reference, atol=0.02)


def test_mc_start_validation(net3):
    with pytest.raises(ValueError, match="net consumer"):
        forward_walk_mc(net3, "B")
    with pytest.raises(ValueError, match="net producer"):
        backward_walk_mc(net3, "S")
    with pytest.raises(KeyError, match="unknown country"):
        forward_walk_mc(net3, "QQ")
    neutral = ImbalanceNetwork.from_edges([("A", "B", 2.0), ("B", "C", 2.0)])
    with pytest.raises(ValueError, match="net consumer"):
        forward_walk_mc(neutral, "B")


def test_mc_backward_equals_forward_on_reversed(net3):
    config = WalkConfig(n_walkers=40_000, seed=17)
    back = backward_walk_mc(net3, "B", config)
    fwd_on_rev = forward_walk_mc(net3.reverse(), "B", config)
    np.testing.assert_array_equal(back.shares, fwd_on_rev.shares)
    assert back.direction == "backward"


def test_exact_rows_stochastic_on_random_networks():
    rng = np.random.default_rng(23)
    for _ in range(5):
        net = random_network(rng, n=30, density=0.35)
        for direction in ("forward", "backward"):
            result = exact_absorption(net, direction)
            np.testing.assert_allclose(
                result.shares.sum(axis=1), 1.0, atol=1e-9
            )


def test_exact_identities_on_random_networks():
    rng = np.random.default_rng(29)
    for _ in range(5):
        net = random_network(rng, n=25, density=0.35)
        accounts = node_accounts(net)
        fwd = exact_absorption(net, "forward")
        bwd = exact_absorption(net, "backward")
        assert detailed_balance_check(fwd, bwd, accounts) < 1e-9 * total_flux(net)
        delta = {a.country: a.delta_s for a in accounts}
        recon = imbalance_reconstruction(fwd, accounts)
        for country, value in recon.items():
            assert value == pytest.approx(delta[country], rel=1e-9)
        recon = imbalance_reconstruction(bwd, accounts)
        for country, value in recon.items():
            assert value == pytest.approx(-delta[country], rel=1e-9)


def _expected_hops(net, direction):
    """``N 1`` with ``N = (I - Q)^-1`` formed densely over every node."""
    work = net if direction == "forward" else net.reverse()
    hop = np.zeros((work.n_nodes, work.n_nodes))
    hop[work.src, work.dst] = work.weight / work.s_out[work.src]
    absorb = np.where(work.delta_s > 0, work.delta_s / np.maximum(work.s_in, 1e-300), 0.0)
    q = hop * (1.0 - absorb)[None, :]
    return np.linalg.inv(np.eye(work.n_nodes) - q).sum(axis=1)


def test_focal_solve_matches_full_solves():
    rng = np.random.default_rng(41)
    for _ in range(4):
        net = random_network(rng, n=25, density=0.35)
        accounts = node_accounts(net)
        for direction in DIRECTIONS:
            full = exact_absorption(net, direction)
            system = _system(net, direction)
            hops = _expected_hops(net, direction)[system.starts]
            shares, solved_hops = _row_totals(system, np.eye(system.starts.size))
            np.testing.assert_allclose(shares, full.shares, rtol=0, atol=1e-12)
            np.testing.assert_allclose(solved_hops, hops, rtol=1e-12)

            recon = imbalance_reconstruction(full, accounts)
            mass = np.abs(net.delta_s[system.starts])
            (solved_recon,), _ = _row_totals(system, mass[None, :])
            np.testing.assert_allclose(solved_recon, list(recon.values()), rtol=1e-12)
            worst = max(abs(t - abs(net.delta_s[net.index[c]])) / abs(net.delta_s[net.index[c]])
                        for c, t in recon.items())

            for row, focal in enumerate(full.starts[:3]):
                matrix, probe, errors = _focal_solve(net, focal, direction)
                assert (matrix.direction, matrix.starts, matrix.targets) == (
                    direction, (focal,), full.targets
                )
                np.testing.assert_allclose(matrix.shares[0], full.shares[row], rtol=0, atol=1e-12)
                assert matrix.mean_hops == pytest.approx(hops[row], rel=1e-12)
                assert errors[direction] == pytest.approx(worst, abs=1e-12)
                assert probe < 1e-12 * total_flux(net)


def test_balance_probe_catches_one_wrong_backward_share(monkeypatch):
    net = random_network(np.random.default_rng(47), n=25, density=0.35)
    focal = net.countries[int(np.argmin(net.delta_s))]
    flux = total_flux(net)
    backward = exact_absorption(net, "backward")
    # perturb the share carrying the largest flux delta_j g[j, i]
    mass = net.delta_s[[net.index[c] for c in backward.starts]]
    j, i = np.unravel_index(np.argmax(mass[:, None] * backward.shares), backward.shares.shape)
    wrong = backward.shares.copy()
    wrong[j, i] *= 1.0 + 1e-6

    solve = diffusion._row_totals

    def mutant(system, weights):
        totals, hops = solve(system, weights)
        if system.direction == "backward":
            totals = weights @ wrong
        return totals, hops

    assert _focal_solve(net, focal, "forward")[1] < 1e-12 * flux
    monkeypatch.setattr(diffusion, "_row_totals", mutant)
    assert _focal_solve(net, focal, "forward")[1] > 1e-9 * flux


def test_focal_solve_holds_one_system_matrix():
    net = random_network(np.random.default_rng(53), n=600, density=0.02)
    focal = net.countries[int(np.argmin(net.delta_s))]
    m = max(_system(net, d).a.shape[0] for d in DIRECTIONS)
    # one m x m matrix, plus a few dozen doubles per edge for both walks' edge entries
    bound = 8 * (m * m + 32 * net.n_edges)
    _, focal_peak = traced_peak(lambda: _focal_solve(net, focal, "forward"))
    _, full_peak = traced_peak(lambda: [exact_absorption(net, d) for d in DIRECTIONS])
    assert focal_peak < bound < full_peak


def test_exact_requires_both_roles():
    cycle = ImbalanceNetwork.from_edges(
        [("A", "B", 1.0), ("B", "C", 1.0), ("C", "A", 1.0)]
    )
    with pytest.raises(ValueError, match="consumer and one net producer"):
        exact_absorption(cycle, "forward")
    with pytest.raises(ValueError, match="direction"):
        exact_absorption(cycle, "up")


def test_unreachable_neutral_cycle_is_excluded(net3):
    # a balanced 3-cycle off to the side can never be entered from S
    edges = [(net3.countries[i], net3.countries[j], w) for i, j, w in net3.iter_edges()]
    edges += [("X", "Y", 1.0), ("Y", "Z", 1.0), ("Z", "X", 1.0)]
    net = ImbalanceNetwork.from_edges(edges)
    result = exact_absorption(net, "forward")
    assert result.starts == ("S",)
    np.testing.assert_allclose(result.shares[0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert len(result.warnings) == 1
    assert "3 node(s)" in result.warnings[0]
    mc = forward_walk_mc(net, "S", WalkConfig(n_walkers=20_000, seed=2))
    assert mc.non_absorbed[0] == 0.0


def test_step_cap_reports_non_absorbed(net3):
    result = forward_walk_mc(net3, "S", WalkConfig(n_walkers=30_000, seed=3, max_steps=1))
    # after one hop, walkers at A survive with probability 1/2: about 1/3 stuck
    assert result.non_absorbed[0] == pytest.approx(1.0 / 3.0, abs=0.02)
    assert result.shares[0].sum() + result.non_absorbed[0] == pytest.approx(1.0)
    assert any("not absorbed" in w for w in result.warnings)


class _LastColumnRng:
    """Generator stand-in that sends every walker down its node's last
    column and absorbs every walker wherever it arrives."""

    def multinomial(self, n, pvals):
        moved = np.zeros(np.shape(pvals), dtype=np.int64)
        moved[..., -1] = n
        return moved

    def binomial(self, n, p):
        return np.array(n, dtype=np.int64)


def test_mc_last_column_is_a_real_edge(monkeypatch):
    # S and A have fewer out-edges (forward, backward) than the widest
    # node C, and the padding's target, node 0, is never their real target
    net = ImbalanceNetwork.from_edges(
        [("S", "Z", 3.0), ("C", "A", 1.0), ("C", "B", 1.0), ("C", "Z", 1.0)]
    )
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _LastColumnRng())
    config = WalkConfig(n_walkers=8, max_steps=4)
    for result, landed in (
        (forward_walk_mc(net, "S", config), "Z"),
        (backward_walk_mc(net, "A", config), "C"),
    ):
        assert result.share(result.starts[0], landed) == 1.0
        assert result.shares.sum() + result.non_absorbed[0] == 1.0
        assert result.mean_hops == 1.0


def test_mc_billion_walkers_close_to_exact(net3):
    result = forward_walk_mc(net3, "S", WalkConfig(n_walkers=10**9, seed=5))
    np.testing.assert_allclose(result.shares[0], [1.0 / 3.0, 2.0 / 3.0], atol=1e-4)
    assert result.non_absorbed[0] == 0.0


_hop_rows = st.one_of(
    st.tuples(st.integers(1, 300), st.floats(1e-12, 1e12)).map(lambda kw: [kw[1]] * kw[0]),
    st.floats(1e-12, 1e12).map(lambda w: [w]),
    st.lists(st.floats(-12.0, 12.0).map(lambda x: 10.0**x), min_size=1, max_size=300),
    # a few ulps apart, where the shares' rounding shows
    st.lists(st.integers(-4, 4), min_size=2, max_size=300).map(
        lambda ns: [1.0 + n * 2.0**-52 for n in ns]
    ),
)


@given(rows=st.lists(_hop_rows, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_hop_table_reproduces_hop_shares(rows):
    # one source node per row, all pointing at a shared pool of targets
    net = ImbalanceNetwork.from_edges(
        [(f"R{r}", f"T{j:03d}", w) for r, row in enumerate(rows) for j, w in enumerate(row)]
    )
    work, _, _, hop = _walk(net, "forward")
    share, target = _hop_table(work, hop)
    assert share.shape == target.shape == (net.n_nodes, net.k_out.max())
    for v in range(net.n_nodes):
        k = net.k_out[v]
        dst, weight = net.out_edges(v)
        padding = share.shape[1] - k
        assert np.all(share[v, :padding] == 0.0)
        np.testing.assert_allclose(
            share[v, padding:], weight / net.s_out[v], rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(target[v, padding:], dst)
        if k > 0:
            assert share[v, -1] > 0.0
            # numpy accepts the row: the shares before the last sum to at most 1
            np.random.default_rng(0).multinomial(10**6, share[v])


@st.composite
def _reach_cases(draw):
    """A network of random edges, closed balanced cycles, a chain of up to
    500 nodes and isolated nodes, sometimes linked, with its producers or
    one node as the seeds."""
    n_random = draw(st.integers(1, 12))
    cycles = draw(st.lists(st.integers(3, 6), max_size=2))
    chain = draw(st.sampled_from([0, 2, 500]))
    n = n_random + sum(cycles) + chain + draw(st.integers(0, 4))
    edges = {}  # one edge per unordered pair, the first one drawn

    def add(i, j, w=1.0):
        if i != j:
            edges.setdefault((min(i, j), max(i, j)), (i, j, w))

    pair = st.tuples(st.integers(0, n_random - 1), st.integers(0, n_random - 1))
    for i, j in draw(st.lists(pair, max_size=30)):
        add(i, j, draw(st.floats(0.5, 4.0)))
    at = n_random
    for size in cycles:
        for k in range(size):
            add(at + k, at + (k + 1) % size)
        at += size
    downhill = draw(st.booleans())
    for k in range(at, at + chain - 1):
        i, j = (k, k + 1) if downhill else (k + 1, k)
        add(i, j)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=4)):
        add(i, j, 2.0)
    src, dst, weight = zip(*edges.values()) if edges else ((), (), ())
    net = ImbalanceNetwork([f"N{i:03d}" for i in range(n)], src, dst, weight)
    seed = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if seed is None:
        return net, net.delta_s > 0
    return net, np.arange(n) == seed


@given(case=_reach_cases())
@settings(max_examples=100, deadline=None)
def test_reaches_matches_csgraph_search(case):
    net, seeds = case
    np.testing.assert_array_equal(net._flood(seeds), csgraph_reaches(net, seeds))


def test_every_source_agrees_with_exact_small():
    rng = np.random.default_rng(37)
    for _ in range(2):
        net = random_network(rng, n=15, density=0.4)
        exact = exact_absorption(net, "forward")
        n = 100_000
        for row, start in enumerate(exact.starts):
            mc = forward_walk_mc(net, start, WalkConfig(n_walkers=n, seed=row))
            p = exact.shares[row]
            se = np.sqrt(p * (1 - p) / n)
            outside = np.abs(mc.shares[0] - p) > 3 * se
            assert outside.mean() <= 0.01 or outside.sum() <= 1


def test_detailed_balance_input_validation(net3):
    accounts = node_accounts(net3)
    fwd = exact_absorption(net3, "forward")
    bwd = exact_absorption(net3, "backward")
    with pytest.raises(ValueError, match="forward and one backward"):
        detailed_balance_check(bwd, fwd, accounts)
    other = ImbalanceNetwork.from_edges([("S", "A", 1.0)])
    with pytest.raises(ValueError, match="different consumer/producer"):
        detailed_balance_check(fwd, exact_absorption(other, "backward"), accounts)


def test_reconstruction_requires_full_coverage():
    net = ImbalanceNetwork.from_edges([("S1", "T", 2.0), ("S2", "T", 1.0)])
    accounts = node_accounts(net)
    partial = forward_walk_mc(net, "S1", WalkConfig(n_walkers=100, seed=0))
    with pytest.raises(ValueError, match="missing: S2"):
        imbalance_reconstruction(partial, accounts)


def test_rank_partners_ordering_and_direct_flags(net3):
    matrix = exact_absorption(net3, "forward")
    ranking = rank_partners(net3, matrix, "S")
    assert [(r.rank, r.partner) for r in ranking] == [(1, "B"), (2, "A")]
    assert ranking[0].global_share_pct == pytest.approx(200.0 / 3.0)
    assert ranking[0].local_share_pct == pytest.approx(100.0 / 3.0)
    assert ranking[0].direct and ranking[1].direct


def test_rank_partners_indirect_absorber():
    chain = ImbalanceNetwork.from_edges([("A", "B", 1.0), ("B", "C", 1.0)])
    matrix = exact_absorption(chain, "forward")
    ranking = rank_partners(chain, matrix, "A")
    assert [r.partner for r in ranking] == ["C"]
    assert ranking[0].global_share_pct == pytest.approx(100.0)
    assert not ranking[0].direct
    assert ranking[0].local_share_pct == 0.0


def test_rank_partners_tie_breaks_alphabetically():
    net = ImbalanceNetwork.from_edges([("S", "TB", 1.0), ("S", "TA", 1.0)])
    matrix = exact_absorption(net, "forward")
    ranking = rank_partners(net, matrix, "S", top=5)
    assert [r.partner for r in ranking] == ["TA", "TB"]


def test_rank_partners_validation(net3):
    matrix = exact_absorption(net3, "forward")
    with pytest.raises(ValueError, match="top"):
        rank_partners(net3, matrix, "S", top=0)
    with pytest.raises(ValueError, match="not a start node"):
        rank_partners(net3, matrix, "A")


def test_ranking_csv_format(net3):
    matrix = exact_absorption(net3, "forward")
    buf = io.StringIO()
    write_ranking_csv(rank_partners(net3, matrix, "S"), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "rank,partner,global_share_pct,local_share_pct,direct"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "B" and first[4] == "true"


def test_share_accessor(net3):
    matrix = exact_absorption(net3, "forward")
    assert matrix.share("S", "B") == pytest.approx(2.0 / 3.0)
