"""Absorbing random walks tracing where net money flows end up, by simulation.

A unit of currency injected at a net consumer (a node spending more than
it earns) wanders along edges: from node v it hops to partner u with
probability proportional to the edge weight v->u. On arriving at a net
producer it is absorbed with probability delta_s / s_in, the fraction of
the producer's income it keeps rather than re-spends; otherwise it keeps
moving. Absorption shares e[i, j] say how much of consumer i's deficit is
ultimately banked by producer j.

The time-reversed question (where did producer j's surplus originate?) is
the same walk on the reversed network: flipping every edge swaps incoming
and outgoing strengths, so net producers become the walk's starting
points and net consumers its absorbers.

The Monte Carlo walker samples each hop from per-node Walker/Vose alias
tables (Walker 1977, ACM TOMS 3(3):253; Vose 1991, IEEE TSE 17(9):972),
built once per walk in O(edges): one uniform draw picks a column of the
node's row and the edge it leads to, exactly and in O(1) per hop whatever
the node's degree. Walkers run in lock-step blocks of fixed size, so the
walker's memory is bounded by the block size, not by the walker count.

Every absorbing system here terminates with probability one: accounts are
derived from the edge list, so any set of nodes closed under outgoing
edges has non-negative total imbalance and, once it contains a net
consumer, must also contain a net producer. A walker can therefore never
be trapped in a sink-free region, and dead-end nodes (no outgoing edges)
are always full absorbers.

This module needs no scipy; the exact solve lives in ``tradeflux.diffusion``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import opened
from .network import ImbalanceNetwork, NodeAccount

DIRECTIONS = ("forward", "backward")

#: Fraction of walkers allowed to hit the step cap before a warning is issued.
NON_ABSORBED_WARNING = 0.01

#: Walkers simulated together in lock-step; bounds the walker's memory.
_WALKER_BLOCK = 1 << 16


def absorption_probability(account: NodeAccount, direction: str) -> float:
    """Chance a walker is absorbed on arrival at this node.

    Forward walkers are absorbed by net producers with probability
    delta_s / s_in; backward walkers by net consumers with probability
    |delta_s| / s_out. Everyone else passes walkers through.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if direction == "forward":
        if account.delta_s <= 0:
            return 0.0
        if account.s_in <= 0:
            raise ValueError(f"{account.country}: positive imbalance with no income")
        return account.delta_s / account.s_in
    if account.delta_s >= 0:
        return 0.0
    if account.s_out <= 0:
        raise ValueError(f"{account.country}: negative imbalance with no spending")
    return -account.delta_s / account.s_out


@dataclass(frozen=True)
class WalkConfig:
    """Monte Carlo parameters; ``max_steps`` caps hops per walker."""

    n_walkers: int = 1_000_000
    seed: int = 0
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.n_walkers < 1:
            raise ValueError("n_walkers must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class AbsorptionMatrix:
    """Absorption shares for a set of start nodes.

    ``shares[i, j]`` is the probability that a walker launched at
    ``starts[i]`` is absorbed at ``targets[j]``; rows sum to one minus
    ``non_absorbed[i]``. ``method`` records how the numbers were produced:
    ``monte-carlo`` or ``dense`` (the exact solve).
    """

    direction: str
    starts: tuple[str, ...]
    targets: tuple[str, ...]
    shares: np.ndarray
    non_absorbed: np.ndarray
    method: str
    n_walkers: int | None
    warnings: tuple[str, ...]

    def share(self, start: str, target: str) -> float:
        return float(
            self.shares[self.starts.index(start), self.targets.index(target)]
        )


def _absorb_vector(work: ImbalanceNetwork) -> np.ndarray:
    # forward-sense absorption on `work`; a node with delta_s > 0 has s_in > 0
    denom = np.where(work.s_in > 0, work.s_in, 1.0)
    return np.where(work.delta_s > 0, work.delta_s / denom, 0.0)


def _row_cumsum(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` that restart wherever the sorted ``rows`` changes.

    Each row's total is taken off at the next row's first entry, so the
    running sum never grows past one row's total and rounding stays about
    as small as in a separate cumsum per row.
    """
    if values.size == 0:
        return values.copy()
    first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    shifted = values.copy()
    shifted[first[1:]] -= np.add.reduceat(values, first)[:-1]
    run = np.cumsum(shifted)
    carried = run[first] - values[first]
    return run - np.repeat(carried, np.diff(np.r_[first, values.size]))


def _alias_tables(work: ImbalanceNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias tables of every node's hop distribution, in CSR edge order.

    Edge e of node v owns column ``e - ptr[v]`` of v's row: a walker that
    picks that column uniformly takes e with probability ``prob[e]`` and
    edge ``alias[e]``, always in the same row, otherwise. With k = k_out[v]
    and scaled shares q = k w / s_out, the columns reproduce the shares
    exactly: ``(prob[e] + sum over alias[f] == e of (1 - prob[f])) / k ==
    w[e] / s_out[v]``.

    The tables are those of the sweep construction (Hübschle-Schneider and
    Sanders, "Parallel Weighted Random Sampling", ESA 2019), computed for
    all rows at once. Within a row, light edges (q < 1) lay their deficits
    1 - q end to end and heavy edges lay their excesses q - 1 end to end. A light edge borrows from the first
    heavy edge whose cumulative excess ends past where its own deficit
    starts. A heavy edge keeps whatever its excess did not lend to the
    lights before that point and hands the rest of its column to the
    next heavy edge; the row's last heavy edge keeps its whole column.
    """
    src = work.src
    with np.errstate(over="ignore"):
        q = work.weight * work.k_out[src] / work.s_out[src]
    # a weight near the float limit overflows w k; divide first there alone
    over = np.isinf(q)
    q[over] = work.weight[over] / work.s_out[src[over]] * work.k_out[src[over]]
    light = np.flatnonzero(q < 1.0)
    heavy = np.flatnonzero(q >= 1.0)
    deficit = 1.0 - q[light]
    deficit_end = _row_cumsum(deficit, src[light])
    excess_end = _row_cumsum(q[heavy] - 1.0, src[heavy])

    # Merge light deficit starts with heavy excess ends, row by row; on a
    # tie the heavy end comes first, so it does not count as lying past.
    is_light = np.repeat([False, True], [heavy.size, light.size])
    order = np.lexsort((
        is_light,
        np.concatenate([excess_end, deficit_end - deficit]),
        src[np.concatenate([heavy, light])],
    ))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    lights_before = (np.cumsum(is_light[order]) - is_light[order])[rank]
    heavies_before = rank - lights_before

    n_heavy = np.bincount(src[heavy], minlength=work.n_nodes)
    heavy_stop = np.cumsum(n_heavy)
    n_light = np.bincount(src[light], minlength=work.n_nodes)
    light_start = np.cumsum(n_light) - n_light

    prob = np.ones(work.n_edges)
    alias = np.arange(work.n_edges)

    # Rounding can leave a light edge past its row's last heavy edge, or a
    # row of lights only; those go to the last heavy edge, or keep their column.
    lender = np.minimum(heavies_before[heavy.size:], heavy_stop[src[light]] - 1)
    lends = n_heavy[src[light]] > 0
    prob[light[lends]] = q[light[lends]]
    alias[light[lends]] = heavy[lender[lends]]

    following = np.flatnonzero(np.arange(1, heavy.size + 1) < heavy_stop[src[heavy]])
    row = src[heavy[following]]
    seen = lights_before[following]
    lent = np.where(seen > light_start[row], np.r_[0.0, deficit_end][seen], 0.0)
    prob[heavy[following]] = np.minimum(1.0, 1.0 + excess_end[following] - lent)
    alias[heavy[following]] = heavy[following + 1]
    return prob, alias


def _mc_run(
    work: ImbalanceNetwork, start: int, config: WalkConfig
) -> tuple[np.ndarray, float]:
    """Absorption counts per node and the fraction of walkers never absorbed.

    Walkers move in lock-step blocks of at most ``_WALKER_BLOCK``; a block
    keeps only its live walkers' positions and adds its absorptions to one
    count per node, so memory does not grow with ``n_walkers``. A hop is
    one alias-table draw: ``x = u * k_out[v]`` picks column ``floor(x)`` of
    v's row, and the fraction ``x - floor(x)`` decides between the
    column's own edge and its alias. That is one uniform draw and one
    comparison per hop, O(1) whatever the degree, and for every u in
    [0, 1) the column lies inside v's own row. Blocks draw from one
    generator in turn, so a seed fixes the whole result.
    """
    rng = np.random.default_rng(config.seed)
    prob, alias = _alias_tables(work)
    # where a column leads: its alias's target at 2e, its own edge's at 2e + 1
    dest = np.stack([work.dst[alias], work.dst], axis=1).ravel()
    row_start = work._out_ptr[:-1]
    k_out = work.k_out.astype(float)
    absorb_p = _absorb_vector(work)

    counts = np.zeros(work.n_nodes, dtype=np.int64)
    lost = 0
    for first in range(0, config.n_walkers, _WALKER_BLOCK):
        at = np.full(min(_WALKER_BLOCK, config.n_walkers - first), start)
        for _ in range(config.max_steps):
            if at.size == 0:
                break
            x = rng.random(at.size) * k_out[at]
            column = x.astype(np.int64)
            e = row_start[at] + column
            landed = dest[2 * e + (x - column < prob[e])]
            hit = rng.random(at.size) < absorb_p[landed]
            counts += np.bincount(np.compress(hit, landed), minlength=work.n_nodes)
            at = np.compress(~hit, landed)
        lost += at.size
    return counts, lost / config.n_walkers


def _mc_matrix(
    net: ImbalanceNetwork, start, direction: str, config: WalkConfig
) -> AbsorptionMatrix:
    if isinstance(start, str):
        if start not in net.index:
            raise KeyError(f"unknown country {start!r}")
        start = net.index[start]
    start = int(start)
    if direction == "forward":
        if net.delta_s[start] >= 0:
            raise ValueError(
                f"forward walks start at a net consumer; "
                f"{net.countries[start]} has delta_s = {net.delta_s[start]!r}"
            )
        work = net
    else:
        if net.delta_s[start] <= 0:
            raise ValueError(
                f"backward walks start at a net producer; "
                f"{net.countries[start]} has delta_s = {net.delta_s[start]!r}"
            )
        work = net.reverse()

    sinks = np.flatnonzero(work.delta_s > 0)
    counts, lost = _mc_run(work, start, config)
    shares = counts[sinks][None, :] / config.n_walkers
    code = net.countries[start]
    warnings = ()
    if lost > NON_ABSORBED_WARNING:
        warnings = (
            f"{code}: {lost:.4f} of walkers were not absorbed "
            f"within {config.max_steps} steps",
        )
    return AbsorptionMatrix(
        direction=direction,
        starts=(code,),
        targets=tuple(net.countries[i] for i in sinks),
        shares=shares,
        non_absorbed=np.array([lost]),
        method="monte-carlo",
        n_walkers=config.n_walkers,
        warnings=warnings,
    )


def forward_walk_mc(
    net: ImbalanceNetwork, start, config: WalkConfig | None = None
) -> AbsorptionMatrix:
    """Estimate where one net consumer's deficit ends up, by simulation."""
    return _mc_matrix(net, start, "forward", config or WalkConfig())


def backward_walk_mc(
    net: ImbalanceNetwork, start, config: WalkConfig | None = None
) -> AbsorptionMatrix:
    """Estimate where one net producer's surplus came from, by simulation."""
    return _mc_matrix(net, start, "backward", config or WalkConfig())


@dataclass(frozen=True)
class PartnerRank:
    """One row of a who-absorbs-whose-money ranking."""

    rank: int
    partner: str
    global_share_pct: float
    local_share_pct: float
    direct: bool


def rank_partners(
    net: ImbalanceNetwork, matrix: AbsorptionMatrix, start: str, top: int = 10
) -> list[PartnerRank]:
    """Top absorption partners of ``start``, with the direct-edge comparison.

    ``global_share_pct`` is the walk's absorption share; ``local_share_pct``
    is the weight fraction of the direct edge between the two countries
    (zero, with ``direct=False``, when no such edge exists). Partners the
    walk never reaches are omitted; ties break alphabetically.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    if start not in matrix.starts:
        raise ValueError(f"{start!r} is not a start node of this matrix")
    row = matrix.shares[matrix.starts.index(start)]
    s_idx = net.index[start]
    local_total = (
        net.s_out[s_idx] if matrix.direction == "forward" else net.s_in[s_idx]
    )
    ranked = sorted(
        (
            (float(share), partner)
            for share, partner in zip(row, matrix.targets)
            if share > 0
        ),
        key=lambda t: (-t[0], t[1]),
    )
    out = []
    for rank, (share, partner) in enumerate(ranked[:top], start=1):
        p_idx = net.index[partner]
        if matrix.direction == "forward":
            w = net.weight_between(s_idx, p_idx)
        else:
            w = net.weight_between(p_idx, s_idx)
        out.append(
            PartnerRank(
                rank=rank,
                partner=partner,
                global_share_pct=100.0 * share,
                local_share_pct=float(100.0 * w / local_total) if local_total > 0 else 0.0,
                direct=w > 0,
            )
        )
    return out


def write_ranking_csv(rows: list[PartnerRank], stream) -> None:
    """One ``rank,partner,global_share_pct,local_share_pct,direct`` row per partner.

    ``stream`` is a path or an open text file object."""
    with opened(stream, "w") as stream:
        stream.write("rank,partner,global_share_pct,local_share_pct,direct\n")
        for r in rows:
            stream.write(
                f"{r.rank},{r.partner},{r.global_share_pct!r},"
                f"{r.local_share_pct!r},{'true' if r.direct else 'false'}\n"
            )
