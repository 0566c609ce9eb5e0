import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeflux.disparity import (
    DisparityProfile,
    ProfileRow,
    disparity,
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


def test_known_concentration_values():
    net = star([3.0, 1.0])
    # shares 0.75/0.25: kY = 2 * (9/16 + 1/16) = 1.25
    assert disparity(net, "HUB", "out") == pytest.approx(1.25)
    assert disparity(net, "L0", "in") == 1.0
    net = star([1.0, 1.0, 1.0, 1.0], direction="in")
    assert disparity(net, "HUB", "in") == pytest.approx(1.0)


def test_extremes_hit_the_bounds():
    even = star([2.5] * 8)
    assert disparity(even, "HUB", "out") == pytest.approx(1.0)
    # one partner utterly dominant pushes kY toward k
    skewed = star([1e12] + [1e-6] * 7)
    assert disparity(skewed, "HUB", "out") == pytest.approx(8.0, rel=1e-6)


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
    ky = disparity(net, "HUB", "out")
    k = len(weights)
    assert 1.0 - 1e-9 <= ky <= k + 1e-9


def test_scale_invariance():
    weights = [5.0, 1.0, 3.5, 0.25]
    a = disparity(star(weights), "HUB", "out")
    b = disparity(star([w * 7.3 for w in weights]), "HUB", "out")
    assert a == pytest.approx(b, rel=1e-12)


def test_degree_zero_and_bad_arguments(net3):
    with pytest.raises(ValueError, match="no in-edges"):
        disparity(net3, "S", "in")
    with pytest.raises(ValueError, match="direction"):
        disparity(net3, "S", "sideways")
    with pytest.raises(KeyError, match="unknown country"):
        disparity(net3, "XX", "out")


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
