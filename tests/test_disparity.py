import io
import json
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pernode_disparity_points, pernode_profile_rows
from tradeflux.disparity import (
    DIRECTIONS,
    DisparityProfile,
    ProfileRow,
    disparity_points,
    disparity_profile,
    fit_scaling_exponent,
    null_model_moments,
    null_model_sample,
    null_model_shares,
    write_fit_json,
    write_profile_csv,
)
from tradeflux.errors import InsufficientDataError
from tradeflux.network import ImbalanceNetwork


def star(weights, direction="out"):
    """Hub network with the given edge weights on the hub's side."""
    if direction == "out":
        edges = [("HUB", f"L{i}", w) for i, w in enumerate(weights)]
    else:
        edges = [(f"L{i}", "HUB", w) for i, w in enumerate(weights)]
    return ImbalanceNetwork.from_edges(edges)


def concentration(net, code, direction):
    """kY of one node, read from its disparity point; None without a point."""
    return {p.country: p.ky for p in disparity_points(net, direction)}.get(code)


def test_known_concentration_values():
    net = star([3.0, 1.0])
    # shares 0.75/0.25: kY = 2 * (9/16 + 1/16) = 1.25
    assert concentration(net, "HUB", "out") == pytest.approx(1.25)
    assert concentration(net, "L0", "in") == 1.0
    net = star([1.0, 1.0, 1.0, 1.0], direction="in")
    assert concentration(net, "HUB", "in") == pytest.approx(1.0)


def test_extremes_hit_the_bounds():
    even = star([2.5] * 8)
    assert concentration(even, "HUB", "out") == pytest.approx(1.0)
    # one partner utterly dominant pushes kY toward k
    skewed = star([1e12] + [1e-6] * 7)
    assert concentration(skewed, "HUB", "out") == pytest.approx(8.0, rel=1e-6)


@given(
    weights=st.lists(
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_concentration_bounds(weights):
    net = star(weights)
    ky = concentration(net, "HUB", "out")
    k = len(weights)
    assert 1.0 - 1e-9 <= ky <= k + 1e-9


def test_scale_invariance():
    weights = [5.0, 1.0, 3.5, 0.25]
    a = concentration(star(weights), "HUB", "out")
    b = concentration(star([w * 7.3 for w in weights]), "HUB", "out")
    assert a == pytest.approx(b, rel=1e-12)


def test_degree_zero_and_bad_arguments(net3):
    # concentration is undefined at degree zero: S has no in-edges, so no point
    assert concentration(net3, "S", "in") is None
    with pytest.raises(ValueError, match="direction"):
        disparity_points(net3, "sideways")
    with pytest.raises(ValueError, match="direction"):
        disparity_profile(net3, "sideways")


@st.composite
def concentration_networks(draw):
    """Networks that stress the per-degree-class kernel.

    A circulant core (node i sends to i+1..i+reach) puts many nodes in one
    degree class, with rows past 128 edges once reach exceeds 128. Random
    edges spread the degrees, leaves add degree-1 nodes, and a few nodes
    stay isolated. Weights span 1e-12..1e12.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_core = draw(st.one_of(st.integers(0, 40), st.integers(260, 320)))
    reach = draw(st.one_of(st.integers(1, 8), st.integers(129, 159)))
    reach = min(reach, max(1, (n_core - 1) // 2))
    n_extra = draw(st.integers(0, 40))
    n_leaves = draw(st.integers(0, 20))
    n_isolated = draw(st.integers(0, 3))
    n_active = n_core + n_extra + n_leaves
    src, dst = [], []
    if n_core >= 3:
        src.append(np.repeat(np.arange(n_core), reach))
        dst.append((src[-1] + np.tile(np.arange(1, reach + 1), n_core)) % n_core)
    if n_core + n_extra >= 2:
        m = draw(st.integers(0, 4 * (n_core + n_extra)))
        src.append(rng.integers(0, n_core + n_extra, m))
        dst.append(rng.integers(0, n_core + n_extra, m))
    if n_leaves and n_core + n_extra:
        leaves = np.arange(n_core + n_extra, n_active)
        hubs = rng.integers(0, n_core + n_extra, n_leaves)
        outward = rng.random(n_leaves) < 0.5
        src.append(np.where(outward, hubs, leaves))
        dst.append(np.where(outward, leaves, hubs))
    src = np.concatenate([np.zeros(0, np.int64), *src])
    dst = np.concatenate([np.zeros(0, np.int64), *dst])
    # one direction per unordered pair and no self-loops
    keep = src != dst
    src, dst = src[keep], dst[keep]
    pair = np.minimum(src, dst) * max(n_active, 1) + np.maximum(src, dst)
    _, first = np.unique(pair, return_index=True)
    src, dst = src[first], dst[first]
    weight = 10.0 ** rng.uniform(-12.0, 12.0, src.size)
    countries = [f"N{i:03d}" for i in range(n_active + n_isolated)]
    return ImbalanceNetwork(countries, src, dst, weight)


@given(net=concentration_networks(), direction=st.sampled_from(DIRECTIONS))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_the_per_node_oracle_bit_for_bit(net, direction):
    want = pernode_disparity_points(net, direction)
    got = disparity_points(net, direction)
    assert [repr(astuple(p)) for p in got] == [repr(astuple(p)) for p in want]
    if not want:
        with pytest.raises(ValueError, match="no .*-edges"):
            disparity_profile(net, direction)
        return
    rows = disparity_profile(net, direction).rows
    assert [repr(astuple(r)) for r in rows] == [
        repr(astuple(r)) for r in pernode_profile_rows(want)
    ]


def test_null_moments_closed_form():
    mean, var = null_model_moments(2)
    assert mean == pytest.approx(4.0 / 3.0)
    assert var == pytest.approx(4.0 / 45.0)
    mean, var = null_model_moments(1)
    assert mean == 1.0 and var == 0.0
    with pytest.raises(ValueError):
        null_model_moments(0)


def test_null_sampler_agrees_with_moments():
    rng = np.random.default_rng(5)
    draws = null_model_sample(3, 30_000, rng)
    mean, var = null_model_moments(3)
    assert draws.mean() == pytest.approx(mean, rel=0.02)
    assert draws.var() == pytest.approx(var, rel=0.1)
    assert np.all(draws >= 1.0 - 1e-12) and np.all(draws <= 3.0 + 1e-12)


def test_null_shares_sum_to_one():
    rng = np.random.default_rng(6)
    for k in (1, 2, 7, 40):
        shares = null_model_shares(k, 500, rng)
        assert shares.shape == (500, k)
        np.testing.assert_allclose(shares.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(shares >= 0)


def test_points_and_significance_flag():
    # 30 partners, one carrying nearly everything: far outside two sigma
    net = star([1000.0] + [1.0] * 29)
    out_points = {p.country: p for p in disparity_points(net, "out")}
    assert set(out_points) == {"HUB"}
    hub = out_points["HUB"]
    assert hub.k == 30
    assert hub.significant
    leaf = {p.country: p for p in disparity_points(net, "in")}["L0"]
    assert leaf.k == 1 and leaf.ky == 1.0
    assert not leaf.significant  # sigma is zero at k = 1, never flags


def test_profile_rows_aggregate_by_degree():
    edges = [
        ("A", "B", 3.0), ("A", "C", 1.0),   # A: k_out 2, kY 1.25
        ("D", "E", 1.0), ("D", "F", 1.0),   # D: k_out 2, kY 1.0
        ("G", "B", 2.0),                    # G: k_out 1
    ]
    net = ImbalanceNetwork.from_edges(edges)
    profile = disparity_profile(net, "out")
    assert [r.k for r in profile.rows] == [1, 2]
    row = profile.rows[1]
    assert row.n_nodes == 2
    assert row.mean_ky == pytest.approx((1.25 + 1.0) / 2)
    mean, var = null_model_moments(2)
    assert row.null_mean == pytest.approx(mean)
    assert row.null_p2sigma == pytest.approx(mean + 2 * np.sqrt(var))


def test_profile_requires_edges():
    empty = ImbalanceNetwork.from_edges([], countries=("A", "B"))
    with pytest.raises(ValueError, match="no out-edges"):
        disparity_profile(empty, "out")


def _synthetic_profile(beta, ks, noise=0.0, rng=None, n_nodes=10):
    rows = []
    for k in ks:
        value = float(k) ** beta
        if noise:
            value *= 1.0 + noise * rng.standard_normal()
        mean, var = null_model_moments(k)
        rows.append(ProfileRow(k, value, mean, mean + 2 * np.sqrt(var), n_nodes))
    return DisparityProfile("out", tuple(rows))


def test_fit_recovers_exact_power_law():
    profile = _synthetic_profile(0.5, range(2, 40))
    fit = fit_scaling_exponent(profile)
    assert fit.beta == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.k_range == (2, 39)


def test_fit_weights_populated_degrees_harder():
    # identical values, so weighting must not change the (flat) answer
    profile = _synthetic_profile(0.0, range(2, 20))
    fit = fit_scaling_exponent(profile)
    assert fit.beta == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0  # zero total variance convention


def test_fit_excludes_small_degrees():
    rows = (ProfileRow(1, 1.0, 1.0, 1.0, 100),) + _synthetic_profile(
        0.6, range(2, 30)
    ).rows
    fit = fit_scaling_exponent(DisparityProfile("in", rows), k_min=2)
    assert fit.beta == pytest.approx(0.6, abs=1e-9)
    assert fit.k_range[0] == 2


def test_fit_needs_three_degree_classes():
    profile = _synthetic_profile(0.5, [2, 3])
    with pytest.raises(InsufficientDataError, match="at least 3"):
        fit_scaling_exponent(profile)


def test_profile_csv_round_trip_textually(net3):
    profiles = [disparity_profile(net3, "in"), disparity_profile(net3, "out")]
    buf = io.StringIO()
    write_profile_csv(profiles, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "direction,k,mean_kY,null_mean,null_p2sigma,n_nodes"
    assert len(lines) == 1 + sum(len(p.rows) for p in profiles)
    direction, k, mean_ky, *_ = lines[1].split(",")
    assert direction == "in" and int(k) == profiles[0].rows[0].k
    assert float(mean_ky) == profiles[0].rows[0].mean_ky
    assert lines[-1].split(",")[0] == "out"


def test_fit_json_fields():
    fit = fit_scaling_exponent(_synthetic_profile(1.0, range(2, 10)))
    buf = io.StringIO()
    write_fit_json([fit], buf)
    payload = json.loads(buf.getvalue())
    assert list(payload) == [fit.direction]
    assert payload[fit.direction]["beta"] == pytest.approx(1.0)
    assert payload[fit.direction]["k_range"] == [2, 9]
    assert set(payload[fit.direction]) == {
        "beta", "intercept", "r_squared", "k_range", "n_points"
    }
