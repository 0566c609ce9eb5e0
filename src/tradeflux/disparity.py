"""Weight concentration per node and its random-partition null model.

For a node with degree k and strength s, each neighbour carries a share
p = w / s of the node's flux. The concentration statistic is

    kY = k * sum(p ** 2)

which runs from 1 (flux split evenly over k partners) to k (all flux on a
single partner). It is computed one degree class at a time: the nodes of
degree k are scored together, as one array of k weights per node.

Observed values are compared against partitions drawn uniformly at
random: k shares obtained by breaking the unit interval at k - 1 uniform
points. Under that null the statistic has closed-form mean and variance,
so "more concentrated than chance" reduces to a two-sigma exceedance
without simulation.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ._io import opened
from .errors import InsufficientDataError
from .network import ImbalanceNetwork

DIRECTIONS = ("in", "out")


def _by_degree(
    net: ImbalanceNetwork, direction: str
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(k, nodes, ky)`` for each degree class k >= 1, by increasing k.

    ``nodes`` are the class's node indices in node order and ``ky`` their
    concentrations. The class's edge weights form one (nodes, k) array,
    each row in its node's own edge order, so each row is summed exactly as
    ``np.sum`` sums that node's weights alone.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if direction == "in":
        degrees, ptr, weights = net.k_in, net._in_ptr, net.weight[net._in_order]
    else:
        degrees, ptr, weights = net.k_out, net._out_ptr, net.weight
    # each degree that occurs, increasing; np.unique would load numpy.ma
    for k in (np.flatnonzero(np.bincount(degrees)[1:]) + 1).tolist():
        nodes = np.flatnonzero(degrees == k)
        w = weights[ptr[nodes, None] + np.arange(k)]
        p = w / w.sum(axis=1, keepdims=True)
        yield k, nodes, k * np.sum(p**2, axis=1)


def null_model_moments(k: int) -> tuple[float, float]:
    """Mean and variance of kY for a uniformly random split into k shares.

    The k shares are the gaps between k - 1 uniform points on [0, 1];
    moments follow in closed form:

        mean = 2k / (k + 1)
        var  = k^2 * ( (20 + 4k) / ((k+1)(k+2)(k+3)) - 4 / (k+1)^2 )

    At k = 1 both reduce to the degenerate point mass at 1.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    k = float(k)
    mean = 2.0 * k / (k + 1.0)
    var = k * k * (
        (20.0 + 4.0 * k) / ((k + 1.0) * (k + 2.0) * (k + 3.0))
        - 4.0 / ((k + 1.0) ** 2)
    )
    return mean, max(var, 0.0)


def null_model_shares(k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` random partitions of 1 into k shares, shape (size, k).

    Shares are the gaps between k - 1 sorted uniform points, so each row
    sums to one by construction.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k == 1:
        return np.ones((size, 1))
    cuts = np.sort(rng.random((size, k - 1)), axis=1)
    bounds = np.concatenate(
        [np.zeros((size, 1)), cuts, np.ones((size, 1))], axis=1
    )
    return np.diff(bounds, axis=1)


def null_model_sample(k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` values of kY under the random-partition null."""
    shares = null_model_shares(k, size, rng)
    return k * np.sum(shares**2, axis=1)


@dataclass(frozen=True)
class DisparityPoint:
    """Observed concentration of one node against its null moments."""

    country: str
    direction: str
    k: int
    strength: float
    ky: float
    null_mean: float
    null_sigma: float

    @property
    def significant(self) -> bool:
        """True when kY exceeds the null mean by more than two sigma."""
        return self.ky > self.null_mean + 2.0 * self.null_sigma


def disparity_points(net: ImbalanceNetwork, direction: str) -> list[DisparityPoint]:
    """One point per node with at least one edge on the requested side,
    in node order."""
    strengths = net.s_in if direction == "in" else net.s_out
    points = {}
    for k, nodes, ky in _by_degree(net, direction):
        mean, var = null_model_moments(k)
        sigma = float(np.sqrt(var))
        for i, value in zip(nodes.tolist(), ky.tolist()):
            points[i] = DisparityPoint(
                country=net.countries[i],
                direction=direction,
                k=k,
                strength=float(strengths[i]),
                ky=value,
                null_mean=mean,
                null_sigma=sigma,
            )
    return [points[i] for i in sorted(points)]


@dataclass(frozen=True)
class ProfileRow:
    """Degree-class aggregate: mean observed kY over the n_nodes at degree k."""

    k: int
    mean_ky: float
    null_mean: float
    null_p2sigma: float
    n_nodes: int


@dataclass(frozen=True)
class DisparityProfile:
    direction: str
    rows: tuple[ProfileRow, ...]


def disparity_profile(net: ImbalanceNetwork, direction: str) -> DisparityProfile:
    """Mean concentration per degree class, with the null two-sigma band.

    Rows are sorted by degree. Raises ValueError when no node has an edge
    on the requested side.
    """
    rows = []
    for k, _, ky in _by_degree(net, direction):
        mean, var = null_model_moments(k)
        rows.append(
            ProfileRow(
                k=k,
                mean_ky=float(np.mean(ky)),
                null_mean=mean,
                null_p2sigma=mean + 2.0 * float(np.sqrt(var)),
                n_nodes=ky.size,
            )
        )
    if not rows:
        raise ValueError(f"network has no {direction}-edges")
    return DisparityProfile(direction=direction, rows=tuple(rows))


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit mean_kY ~ 10**intercept * k**beta over a degree range.

    ``intercept`` is the log10-space intercept; ``r_squared`` is the
    weighted coefficient of determination of the log-log regression.
    """

    direction: str
    beta: float
    intercept: float
    r_squared: float
    k_range: tuple[int, int]
    n_points: int


def fit_scaling_exponent(profile: DisparityProfile, k_min: int = 2) -> ScalingFit:
    """Weighted log-log fit of mean concentration against degree.

    Degree classes below ``k_min`` are excluded: k = 1 is pinned at
    kY = 1 by construction and carries no scaling information. Classes
    are weighted by sqrt(n_nodes) so well-populated degrees dominate.
    Fewer than three usable classes raise InsufficientDataError.
    """
    rows = [r for r in profile.rows if r.k >= k_min and r.mean_ky > 0]
    if len(rows) < 3:
        raise InsufficientDataError(
            f"scaling fit needs at least 3 degree classes with k >= {k_min}, "
            f"got {len(rows)}"
        )
    x = np.log10([r.k for r in rows])
    y = np.log10([r.mean_ky for r in rows])
    w = np.sqrt([r.n_nodes for r in rows])
    beta, intercept = np.polyfit(x, y, 1, w=w)
    resid = y - (beta * x + intercept)
    ss_res = float(np.sum((w * resid) ** 2))
    y_bar = float(np.sum(w * w * y) / np.sum(w * w))
    ss_tot = float(np.sum((w * (y - y_bar)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        direction=profile.direction,
        beta=float(beta),
        intercept=float(intercept),
        r_squared=r_squared,
        k_range=(rows[0].k, rows[-1].k),
        n_points=len(rows),
    )


def write_profile_csv(profiles: Sequence[DisparityProfile], stream) -> None:
    """Write one header, then ``direction,k,mean_kY,null_mean,null_p2sigma,n_nodes``
    rows for each profile in turn.

    ``stream`` is a path or an open text file object."""
    with opened(stream, "w") as stream:
        stream.write("direction,k,mean_kY,null_mean,null_p2sigma,n_nodes\n")
        for profile in profiles:
            for r in profile.rows:
                stream.write(
                    f"{profile.direction},{r.k},{r.mean_ky!r},{r.null_mean!r},"
                    f"{r.null_p2sigma!r},{r.n_nodes}\n"
                )


def write_fit_json(fits: Sequence[ScalingFit], stream) -> None:
    """Write a JSON object keyed by each fit's direction, in the order given.

    ``stream`` is a path or an open text file object."""
    payload = {
        fit.direction: {
            "beta": fit.beta,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "k_range": list(fit.k_range),
            "n_points": fit.n_points,
        }
        for fit in fits
    }
    with opened(stream, "w") as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
