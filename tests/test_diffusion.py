import ast
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    check_block_solve,
    csgraph_reaches,
    dense_fundamental,
    package_uses,
    random_network,
    reference_walk,
    system_size,
    traced_peak,
)
from tradeflux import diffusion
from tradeflux._io import _BLOCK
from tradeflux.diffusion import (
    DIRECTIONS,
    AbsorptionMatrix,
    WalkConfig,
    _focal_solve,
    _hop_table,
    _solve,
    _start,
    _walk,
    backward_walk_mc,
    detailed_balance_check,
    exact_absorption,
    forward_walk_mc,
    imbalance_reconstruction,
    rank_partners,
    write_ranking_csv,
)
from tradeflux.errors import NoConvergenceError
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
    # forward walkers start at consumers and are absorbed by producers with
    # probability delta_s / s_in
    _, is_start, is_sink, absorb_p, _ = _walk(net3, "forward")
    np.testing.assert_array_equal(is_start, [False, False, True])
    np.testing.assert_array_equal(is_sink, [True, True, False])
    np.testing.assert_allclose(absorb_p, [0.5, 1.0, 0.0])
    # backward walks run over the in-edges, with the roles swapped: S absorbs
    _, is_start, is_sink, absorb_p, _ = _walk(net3, "backward")
    np.testing.assert_array_equal(is_start, [True, True, False])
    np.testing.assert_array_equal(is_sink, [False, False, True])
    np.testing.assert_allclose(absorb_p, [0.0, 0.0, 1.0])


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


def test_walk_counts_must_be_integers(net3):
    # 2.5 walkers once moved 2 and divided by 2.5, so shares summed to 0.8
    for field, value in (("n_walkers", 2.5), ("max_steps", 1e3), ("seed", 0.5)):
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got"):
            WalkConfig(**{field: value})
    config = WalkConfig(n_walkers=np.int64(10), seed=np.uint8(1), max_steps=np.int32(50))
    assert forward_walk_mc(net3, "S", config).shares.sum() == pytest.approx(1.0)
    matrix = exact_absorption(net3, "forward")
    with pytest.raises(TypeError, match="^top must be an integer, got 2.5"):
        rank_partners(net3, matrix, "S", top=2.5)
    assert len(rank_partners(net3, matrix, "S", top=np.int64(1))) == 1


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
    # delta_s as a plain float: numpy 2 would print np.float64(2.0)
    message = "B is a net producer (delta_s = 2.0); forward walks start at net consumers"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        forward_walk_mc(net3, "B")
    with pytest.raises(ValueError, match="net producer"):
        backward_walk_mc(net3, "S")
    with pytest.raises(KeyError, match="unknown country"):
        forward_walk_mc(net3, "QQ")
    neutral = ImbalanceNetwork.from_edges([("A", "B", 2.0), ("B", "C", 2.0)])
    with pytest.raises(ValueError, match="net consumer"):
        forward_walk_mc(neutral, "B")


def test_a_start_index_must_name_a_node():
    # A -> B <- C: -1 once walked from C, 2.7 from C too, and 3 raised a bare
    # IndexError; each is now refused as an unknown node or a non-integer
    net = ImbalanceNetwork.from_edges([("A", "B", 1.0), ("C", "B", 1.0)])
    assert _start(net, 2, "forward") == _start(net, np.int64(2), "forward") == 2
    for index in (-1, 3):
        message = f"^'unknown country index {index}'$"
        with pytest.raises(KeyError, match=message):
            _start(net, index, "forward")
        with pytest.raises(KeyError, match=message):
            forward_walk_mc(net, index, WalkConfig(n_walkers=10))
        with pytest.raises(KeyError, match=message):
            _focal_solve(net, index, "forward")
    for call in (_start, _focal_solve):
        with pytest.raises(TypeError, match="^start must be an integer, got 2.7$"):
            call(net, 2.7, "forward")


def test_an_unknown_direction_is_refused_before_the_start_is_judged(net3):
    message = re.escape(f"direction must be one of {DIRECTIONS}, got 'up'")
    with pytest.raises(ValueError, match=f"^{message}$"):
        _start(net3, "B", "up")
    with pytest.raises(ValueError, match=f"^{message}$"):
        _focal_solve(net3, "B", "up")


def _walk_cases(net3, trap):
    """Networks whose backward walks are checked against the reversed
    network's forward walks: the fixtures, random networks, and one with
    isolated nodes first and last."""
    rng = np.random.default_rng(19)
    nets = [net3, trap, *(random_network(rng, n=25, density=0.35) for _ in range(3))]
    lone = nets[-1]
    nets.append(ImbalanceNetwork(("AAA", *lone.countries, "ZZZ"),
                                 lone.src + 1, lone.dst + 1, lone.weight))
    return nets


def _producers(net):
    return [net.countries[i] for i in np.argsort(-net.delta_s)[:2] if net.delta_s[i] > 0]


def test_mc_backward_equals_forward_on_reversed(net3, trap):
    config = WalkConfig(n_walkers=40_000, seed=17)
    for net in _walk_cases(net3, trap):
        for start in _producers(net):
            back = backward_walk_mc(net, start, config)
            fwd_on_rev = forward_walk_mc(net.reverse(), start, config)
            assert back.direction == "backward"
            assert back.targets == fwd_on_rev.targets
            np.testing.assert_array_equal(back.shares, fwd_on_rev.shares)
            assert back.mean_hops == fwd_on_rev.mean_hops


def test_exact_backward_equals_forward_on_reversed(net3, trap):
    for net in _walk_cases(net3, trap):
        rev = net.reverse()
        back, fwd_on_rev = exact_absorption(net, "backward"), exact_absorption(rev, "forward")
        assert (back.starts, back.targets, back.warnings) == (
            fwd_on_rev.starts, fwd_on_rev.targets, fwd_on_rev.warnings
        )
        np.testing.assert_array_equal(back.shares, fwd_on_rev.shares)
        np.testing.assert_array_equal(back.non_absorbed, fwd_on_rev.non_absorbed)
        for start in _producers(net):
            matrix, probe, errors = _focal_solve(net, start, "backward")
            rev_matrix, rev_probe, rev_errors = _focal_solve(rev, start, "forward")
            assert (matrix.targets, matrix.mean_hops, probe) == (
                rev_matrix.targets, rev_matrix.mean_hops, rev_probe
            )
            np.testing.assert_array_equal(matrix.shares, rev_matrix.shares)
            # the reversed network's forward walk is this one's backward walk
            assert errors == {"forward": rev_errors["backward"],
                              "backward": rev_errors["forward"]}
            assert set(matrix.warnings) == set(rev_matrix.warnings)


def test_exact_rows_stochastic_on_random_networks():
    rng = np.random.default_rng(23)
    for _ in range(5):
        net = random_network(rng, n=30, density=0.35)
        for direction in ("forward", "backward"):
            result = exact_absorption(net, direction)
            np.testing.assert_allclose(
                result.shares.sum(axis=1), 1.0, atol=1e-9
            )


def test_exact_identities_on_random_networks(trap):
    rng = np.random.default_rng(29)
    for net in [trap, *(random_network(rng, n=25, density=0.35) for _ in range(5))]:
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


def test_focal_solve_matches_full_solves():
    rng = np.random.default_rng(41)
    for _ in range(4):
        net = random_network(rng, n=25, density=0.35)
        accounts = node_accounts(net)
        for direction in DIRECTIONS:
            full = exact_absorption(net, direction)
            starts, sinks, _, solved_hops, _ = _solve(net, direction, lambda s, _: np.eye(s.size))
            fundamental, b = dense_fundamental(net, direction)
            shares = (fundamental @ b)[np.ix_(starts, sinks)]
            hops = fundamental.sum(axis=1)[starts]
            np.testing.assert_allclose(full.shares, shares, rtol=0, atol=1e-12)
            np.testing.assert_allclose(solved_hops, hops, rtol=1e-12)

            recon = imbalance_reconstruction(full, accounts)
            mass = np.abs(net.delta_s[starts])
            _, _, (solved_recon,), _, _ = _solve(net, direction, lambda s, _: mass[None, :])
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

    solve = diffusion._solve

    def mutant(net, direction, weigh):
        kept = []

        def keep(starts, solved):
            kept.append(weigh(starts, solved))
            return kept[0]

        starts, sinks, totals, hops, warnings = solve(net, direction, keep)
        if direction == "backward":
            totals = kept[0] @ wrong
        return starts, sinks, totals, hops, warnings

    assert _focal_solve(net, focal, "forward")[1] < 1e-12 * flux
    monkeypatch.setattr(diffusion, "_solve", mutant)
    assert _focal_solve(net, focal, "forward")[1] > 1e-9 * flux


def test_focal_solve_holds_one_system_matrix():
    net = random_network(np.random.default_rng(53), n=600, density=0.02)
    focal = net.countries[int(np.argmin(net.delta_s))]
    m = max(system_size(net, d) for d in DIRECTIONS)
    # one m x m matrix, plus a few dozen doubles per edge for both walks' edge entries
    bound = 8 * (m * m + 32 * net.n_edges)
    _, focal_peak = traced_peak(lambda: _focal_solve(net, focal, "forward"))
    _, full_peak = traced_peak(lambda: [exact_absorption(net, d) for d in DIRECTIONS])
    assert focal_peak < bound < full_peak


def test_solve_holds_its_matrix_edge_entries_and_a_few_blocks():
    net = random_network(np.random.default_rng(59), n=1000, density=0.1)
    step = diffusion._SOLVE_BLOCK
    for direction in DIRECTIONS:
        m = system_size(net, direction)
        _, _, is_sink, _, edges = diffusion._walk(net, direction)
        into_absorbers = np.count_nonzero(is_sink[edges(slice(None))[1]])
        _, peak = traced_peak(lambda: _solve(net, direction, lambda s, _: np.ones((4, s.size))))
        # A and B's entries, 16 bytes for each edge into an absorber; then the
        # larger of one fill block's temporaries and the elimination's: y, one
        # _SOLVE_BLOCK x m block row and a few _SOLVE_BLOCK^2 blocks. A copy of
        # A, 8 m^2 bytes, would not fit beside them, nor a second block row
        work = max(16 * _BLOCK, 4 * m + step * m + 4 * step * step)
        assert peak - 8 * m * m < 16 * into_absorbers + 8 * work


def test_exact_absorption_frees_its_identity_weights_once_the_solve_holds_them():
    net = random_network(np.random.default_rng(59), n=1000, density=0.1)
    step = diffusion._SOLVE_BLOCK
    for direction in DIRECTIONS:
        m, s = system_size(net, direction), np.count_nonzero(diffusion._walk(net, direction)[1])
        _, peak = traced_peak(lambda: exact_absorption(net, direction))
        # A, y (m x s), and the first block's factors and update of y, a block
        # row; what is left, B's entries and the reach arrays, is less than the
        # s x s identity
        held = 8 * (m * m + m * s + step * (m - step + s))
        assert peak - held < 8 * s * s


def test_the_exact_solve_is_the_only_linear_solve_in_the_package():
    # ROADMAP aim 2's one exact-solve path: no other function of the package
    # solves, inverts or least-squares a matrix, or imports a linalg module
    def is_solve(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return "linalg" in ast.unparse(node)
        return (isinstance(node, ast.Attribute) and node.attr in {"solve", "inv", "lstsq"}
                and "linalg" in ast.unparse(node.value))

    assert package_uses(is_solve) == {("diffusion", "_solve")}


def test_block_solve_matches_dense_reference():
    net = random_network(np.random.default_rng(61), n=300, density=0.1)
    check_block_solve(net, block=7)


def test_a_singular_later_block_raises(monkeypatch):
    # once the one absorber B keeps nothing, walkers from A circle B -> C -> D
    # for ever: A's first block, on A and B, is nonsingular, and eliminating it
    # leaves C and D the 2-cycle block [[1, -1], [-1, 1]], which is singular
    net = ImbalanceNetwork.from_edges(
        [("A", "B", 1.0), ("B", "C", 1.0), ("C", "D", 1.0), ("D", "B", 1.0)]
    )
    walk = diffusion._walk

    def keeps_nothing(net, direction):
        ptr, is_start, is_sink, absorb_p, edges = walk(net, direction)
        return ptr, is_start, is_sink, np.zeros_like(absorb_p), edges

    assert _solve(net, "forward", lambda s, _: np.eye(s.size))[2][0, 0] == 1.0
    monkeypatch.setattr(diffusion, "_walk", keeps_nothing)
    monkeypatch.setattr(diffusion, "_SOLVE_BLOCK", 2)
    with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as spy:
        with pytest.raises(NoConvergenceError, match="^absorbing system is singular: "):
            _solve(net, "forward", lambda s, _: np.eye(s.size))
    assert spy.call_count == 2


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


def test_a_start_unable_to_reach_an_absorber_is_excluded_not_fatal(trap):
    assert trap.delta_s[trap.index["A"]] < 0  # rounding made it a consumer
    result = exact_absorption(trap, "forward")
    assert result.starts == ("A", "P")
    assert result.share("P", "Q") == 1.0
    np.testing.assert_array_equal(result.shares[0], 0.0)
    np.testing.assert_array_equal(result.non_absorbed, [1.0, 0.0])
    backward = exact_absorption(trap, "backward")
    assert detailed_balance_check(result, backward, node_accounts(trap)) == 0.0
    assert result.warnings == (
        "excluded 8 node(s) unable to reach an absorber: A, B, C, D, E, F, G, Z",
    )
    _focal_solve(trap, "P", "forward")
    with pytest.raises(NoConvergenceError, match="^A cannot reach any absorber$"):
        _focal_solve(trap, "A", "forward")


def test_a_network_whose_every_start_is_trapped_gives_zero_rows(trap):
    # the trap's cycle beside its mirror image, where rounding makes A' a producer
    names = trap.countries
    cycle = [(names[i], names[j], w) for i, j, w in trap.iter_edges() if names[i] != "P"]
    net = ImbalanceNetwork.from_edges(cycle + [(d + "'", s + "'", w) for s, d, w in cycle])
    for direction, start in (("forward", "A"), ("backward", "A'")):
        result = exact_absorption(net, direction)
        assert result.starts == (start,) and len(result.warnings) == 1
        np.testing.assert_array_equal(result.shares, [[0.0]])
        np.testing.assert_array_equal(result.non_absorbed, [1.0])


def test_mc_and_exact_agree_on_a_trapped_start(trap):
    mc = forward_walk_mc(trap, "A", WalkConfig(n_walkers=1000, max_steps=50))
    exact = exact_absorption(trap, "forward")
    assert mc.targets == exact.targets
    for matrix in (mc, exact):
        row = matrix.starts.index("A")
        np.testing.assert_array_equal(matrix.shares[row], 0.0)
        assert matrix.non_absorbed[row] == 1.0


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
    # S, T (forward) and A, Y (backward) have fewer edges than the widest
    # nodes C and Z, and the padding's target, node 0, is never their real
    # target; T's and Y's lighter edge, their last real one, comes first in
    # walk order, so it is last only once the heavier edge is moved first
    net = ImbalanceNetwork.from_edges([
        ("S", "Z", 3.0), ("C", "A", 1.0), ("C", "B", 1.0), ("C", "Z", 1.0),
        ("T", "Y", 1.0), ("T", "Z", 2.0), ("U", "Y", 3.0),
    ])
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _LastColumnRng())
    config = WalkConfig(n_walkers=8, max_steps=4)
    for result, landed in (
        (forward_walk_mc(net, "S", config), "Z"),
        (forward_walk_mc(net, "T", config), "Y"),
        (backward_walk_mc(net, "A", config), "C"),
        (backward_walk_mc(net, "Y", config), "T"),
    ):
        assert result.share(result.starts[0], landed) == 1.0
        assert result.shares.sum() + result.non_absorbed[0] == 1.0
        assert result.mean_hops == 1.0
        assert result.mean_hops_se == 0.0


def test_mc_mean_hops_within_three_se_of_exact(net3):
    # S's walkers take 1 or 2 hops forward, and so do B's backward; a numpy
    # walker count whose cube passes the int64 range
    config = WalkConfig(n_walkers=np.int64(3_000_000), seed=11)
    for start, direction in (("S", "forward"), ("B", "backward")):
        mc = diffusion._mc_matrix(net3, start, direction, config)
        exact = _focal_solve(net3, start, direction)[0]
        assert exact.mean_hops_se is None and mc.mean_hops_se > 0.0
        # hops are 1 or 2 with probability 2/3 and 1/3 forward, 1/2 each backward
        variance = 2.0 / 9.0 if direction == "forward" else 0.25
        assert mc.mean_hops_se == pytest.approx(np.sqrt(variance / config.n_walkers), rel=0.02)
        assert abs(mc.mean_hops - exact.mean_hops) <= 3 * mc.mean_hops_se


def test_mc_mean_hops_se_counts_walkers_stopped_at_the_cap(net3):
    # after one hop every walker has taken one; those at A take a second
    # only with a second step
    result = forward_walk_mc(net3, "S", WalkConfig(n_walkers=30_000, seed=3, max_steps=1))
    assert (result.mean_hops, result.mean_hops_se) == (1.0, 0.0)


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
    for direction in DIRECTIONS:
        forward = direction == "forward"
        k_out, s_out = (net.k_out, net.s_out) if forward else (net.k_in, net.s_in)
        ptr, *_, edges = _walk(net, direction)
        share, target = _hop_table(ptr, edges)
        assert share.shape == target.shape == (net.n_nodes, k_out.max())
        with mock.patch.object(diffusion, "_BLOCK", 1):  # a block per row
            for whole, blocked in zip((share, target), _hop_table(ptr, edges)):
                np.testing.assert_array_equal(blocked, whole)
        for v in range(net.n_nodes):
            k = k_out[v]
            # the walk's edges out of v: canonical order forward, by source backward
            out = (net.src if forward else net.dst) == v
            dst, hop = (net.dst if forward else net.src)[out], net.weight[out] / s_out[v]
            # heaviest first, ties in walk order: a sort by falling share
            order = sorted(range(k), key=lambda e: (-hop[e], e))
            np.testing.assert_allclose(share[v, :k], hop[order], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(target[v, :k], dst[order])
            assert np.all(np.diff(share[v, :k]) <= 0.0)
            # then the padding, whose last column targets the last real edge
            assert np.all(share[v, k:] == 0.0)
            if k > 0:
                assert target[v, -1] == target[v, k - 1]
                # numpy accepts the row: the shares before the last sum to at most 1
                np.random.default_rng(0).multinomial(10**6, share[v])


def test_hop_table_holds_its_two_tables_and_one_block_of_edges():
    net = random_network(np.random.default_rng(59), n=1000, density=0.1)
    for direction in DIRECTIONS:
        ptr, *_, edges = _walk(net, direction)
        (share, target), peak = traced_peak(lambda: _hop_table(ptr, edges))
        assert (share.dtype, target.dtype) == (np.float64, np.int32)
        # beyond the tables, a fill block's tails, heads, shares and columns
        # with their temporaries, or a sort block's order and rows, under 64
        # bytes a block entry; one array of the walk's ~95k edges would not fit
        assert peak <= share.nbytes + target.nbytes + 64 * _BLOCK, (direction, peak)


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
    # along the edges: against those of the transposed graph
    np.testing.assert_array_equal(net._flood(seeds, against=False, along=True),
                                  csgraph_reaches(net.reverse(), seeds))


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


def test_mc_agrees_with_exact_on_weights_spanning_twelve_decades():
    # hop shares from 1e-12 to near 1 in one row, where edge order matters
    rng = np.random.default_rng(71)
    codes = [f"N{i:02d}" for i in range(15)]
    edges = [(codes[i], codes[j], 10.0 ** rng.uniform(-6.0, 6.0))
             for i in range(15) for j in range(i + 1, 15) if rng.random() < 0.5]
    net = ImbalanceNetwork.from_edges([(d, s, w) if rng.random() < 0.5 else (s, d, w)
                                       for s, d, w in edges])
    n, outside = 100_000, []
    for direction in DIRECTIONS:
        exact = exact_absorption(net, direction)
        for row, start in enumerate(exact.starts):
            mc = diffusion._mc_matrix(net, start, direction, WalkConfig(n_walkers=n, seed=row))
            p = exact.shares[row]
            outside.extend(np.abs(mc.shares[0] - p) > 3 * np.sqrt(p * (1 - p) / n))
    assert len(outside) >= 50
    assert np.mean(outside) <= 0.01


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


def test_reconstruction_names_missing_accounts(net3):
    # once a bare KeyError('S'); detailed_balance_check words it the same way
    fwd, bwd = exact_absorption(net3, "forward"), exact_absorption(net3, "backward")
    accounts = [a for a in node_accounts(net3) if a.country != "S"]
    for check in (lambda: imbalance_reconstruction(fwd, accounts),
                  lambda: imbalance_reconstruction(bwd, accounts),
                  lambda: detailed_balance_check(fwd, bwd, accounts)):
        with pytest.raises(ValueError, match="^accounts missing for: S$"):
            check()


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
