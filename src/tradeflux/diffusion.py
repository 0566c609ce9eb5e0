"""Absorbing random walks tracing where net money flows end up, simulated and solved.

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

The Monte Carlo walker follows walker counts, not walkers. All walkers
start together and take their t-th hop in step t. Given where they stand,
their hops are independent draws from their nodes' hop distributions, so
the m walkers at node v split over v's out-edges as one draw of
Multinomial(m, w / s_out); given where they arrive, each is absorbed
independently, so a node absorbs Binomial(a, p) of its a arrivals. The
walker counts per node therefore follow the same law as those of walkers
moved one hop at a time: an exact rewrite, not an approximation, and one
that never consults the exact solve. The walk holds one int64 count per
node and an n x k_max hop table (k_max the largest out-degree), within
the n x n matrix the exact solve allocates, and its memory and time per
step do not grow with the walker count.

Every absorbing system here terminates with probability one: accounts are
derived from the edge list, so any set of nodes closed under outgoing
edges has non-negative total imbalance and, once it contains a net
consumer, must also contain a net producer. A walker can therefore never
be trapped in a sink-free region, and dead-end nodes (no outgoing edges)
are always full absorbers.

The exact solve covers every start node at once; detailed balance and
imbalance reconstruction check a forward and a backward solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import write_text
from .errors import NoConvergenceError
from .network import ImbalanceNetwork, NodeAccount

DIRECTIONS = ("forward", "backward")

#: Fraction of walkers allowed to hit the step cap before a warning is issued.
NON_ABSORBED_WARNING = 0.01

#: Largest walker count: the walk holds per-node counts as int64.
MAX_WALKERS = 2**63 - 1


@dataclass(frozen=True)
class WalkConfig:
    """Monte Carlo parameters; ``max_steps`` caps hops per walker."""

    n_walkers: int = 1_000_000
    seed: int = 0
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.n_walkers < 1:
            raise ValueError("n_walkers must be >= 1")
        if self.n_walkers > MAX_WALKERS:
            raise ValueError(f"n_walkers must be <= {MAX_WALKERS}")
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
    ``monte-carlo`` or ``dense`` (the exact solve). ``mean_hops`` is the
    hops a simulated walker took on average; the exact solve leaves it
    ``None``.
    """

    direction: str
    starts: tuple[str, ...]
    targets: tuple[str, ...]
    shares: np.ndarray
    non_absorbed: np.ndarray
    method: str
    n_walkers: int | None
    warnings: tuple[str, ...]
    mean_hops: float | None = None

    def share(self, start: str, target: str) -> float:
        return float(
            self.shares[self.starts.index(start), self.targets.index(target)]
        )


def _walk(net: ImbalanceNetwork, direction: str) -> tuple:
    """The walk in ``direction`` as ``(work, sinks, absorb_p, hop)``: the network
    it runs forward on (``net.reverse()`` for a backward walk), its absorbers,
    each node's absorption probability ``delta_s / s_in`` (zero off the
    absorbers) and each edge's hop share ``w / s_out``, in CSR edge order."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    work = net if direction == "forward" else net.reverse()
    # a node with delta_s > 0 has s_in > 0
    denom = np.where(work.s_in > 0, work.s_in, 1.0)
    absorb_p = np.where(work.delta_s > 0, work.delta_s / denom, 0.0)
    hop = work.weight / work.s_out[work.src]
    return work, np.flatnonzero(work.delta_s > 0), absorb_p, hop


def _hop_table(work: ImbalanceNetwork, hop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every node's hop shares ``w / s_out`` and edge targets, one row per node.

    Both arrays are n x k_max, in CSR edge order, with each row right-aligned
    after zero padding: a node's last column is always its last real edge,
    so the remainder a multinomial draw leaves on the last column falls on
    a real edge. Rows of nodes without outgoing edges are all padding.
    """
    src, k_out = work.src, work.k_out
    shape = (work.n_nodes, int(k_out.max(initial=0)))
    column = np.arange(work.n_edges) - work._out_ptr[src] + (shape[1] - k_out[src])
    share = np.zeros(shape)
    target = np.zeros(shape, dtype=np.int64)
    share[src, column] = hop
    target[src, column] = work.dst
    return share, target


def _mc_run(
    work: ImbalanceNetwork, absorb_p: np.ndarray, hop: np.ndarray, start: int,
    config: WalkConfig,
) -> tuple[np.ndarray, float, int]:
    """Absorption counts per node, the fraction never absorbed, and the hops taken.

    The walk keeps one count of walkers per node, not one position per
    walker. Each step, one multinomial draw splits every occupied node's
    walkers over its out-edges, and one binomial draw per node absorbs
    some of the walkers that arrived there. A step costs as much as the
    occupied nodes' rows of the hop table, whatever ``n_walkers`` is.
    """
    rng = np.random.default_rng(config.seed)
    share, target = _hop_table(work, hop)

    counts = np.zeros(work.n_nodes, dtype=np.int64)
    at = np.zeros(work.n_nodes, dtype=np.int64)
    at[start] = config.n_walkers
    hops = 0  # a Python int: the total over all steps may pass the int64 range
    for _ in range(config.max_steps):
        if not (moving := int(at.sum())):
            break
        hops += moving
        live = np.flatnonzero(at)
        moved = rng.multinomial(at[live], share[live])
        arrived = np.zeros(work.n_nodes, dtype=np.int64)
        np.add.at(arrived, target[live].ravel(), moved.ravel())
        absorbed = rng.binomial(arrived, absorb_p)
        counts += absorbed
        at = arrived - absorbed
    return counts, int(at.sum()) / config.n_walkers, hops


def _mc_matrix(
    net: ImbalanceNetwork, start, direction: str, config: WalkConfig
) -> AbsorptionMatrix:
    if isinstance(start, str):
        if start not in net.index:
            raise KeyError(f"unknown country {start!r}")
        start = net.index[start]
    start = int(start)
    forward = direction == "forward"
    if (net.delta_s[start] >= 0) if forward else (net.delta_s[start] <= 0):
        raise ValueError(
            f"{direction} walks start at a net {'consumer' if forward else 'producer'}; "
            f"{net.countries[start]} has delta_s = {net.delta_s[start]!r}"
        )
    work, sinks, absorb_p, hop = _walk(net, direction)
    counts, lost, hops = _mc_run(work, absorb_p, hop, start, config)
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
        mean_hops=hops / config.n_walkers,
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
    write_text(stream, "rank,partner,global_share_pct,local_share_pct,direct\n", (
        f"{r.rank},{r.partner},{r.global_share_pct!r},"
        f"{r.local_share_pct!r},{'true' if r.direct else 'false'}\n" for r in rows
    ))


def exact_absorption(net: ImbalanceNetwork, direction: str = "forward") -> AbsorptionMatrix:
    """Absorption shares for every start node by solving the hitting system.

    With hop matrix P and per-node absorption vector a, the absorbed-at-t
    probabilities f satisfy f = P (a 1_t + (1 - a) f); the solve inverts
    ``I - P diag(1 - a)`` restricted to nodes that can reach an absorber,
    by one dense LAPACK solve for all absorbers at once.
    """
    work, sinks, absorb_p, hop = _walk(net, direction)
    starts = np.flatnonzero(work.delta_s < 0)
    if starts.size == 0 or sinks.size == 0:
        raise ValueError(
            "absorption needs at least one net consumer and one net producer"
        )
    total = float(work.weight.sum())
    if abs(float(work.delta_s.sum())) > 1e-9 * total:
        raise ValueError("node imbalances do not sum to zero; accounts are inconsistent")

    reach = work._flood(work.delta_s > 0)
    trapped = np.flatnonzero(~reach & (work.k_in + work.k_out > 0))
    if not reach[starts].all():
        bad = [work.countries[i] for i in starts if not reach[i]]
        raise NoConvergenceError(
            f"start nodes cannot reach any absorber: {', '.join(bad)}"
        )
    warnings = ()
    if trapped.size:
        names = ", ".join(work.countries[i] for i in trapped[:8])
        warnings = (
            f"excluded {trapped.size} node(s) unreachable from any start "
            f"and unable to reach an absorber: {names}",
        )

    nodes = np.flatnonzero(reach)
    m = nodes.size
    pos = np.full(work.n_nodes, -1, dtype=np.int64)
    pos[nodes] = np.arange(m)
    sink_pos = np.full(work.n_nodes, -1, dtype=np.int64)
    sink_pos[sinks] = np.arange(sinks.size)

    live = reach[work.src]
    es, ed = work.src[live], work.dst[live]
    hop = hop[live]
    # hop rows must be proper distributions for the system to be absorbing
    row_sum = np.bincount(es, weights=hop, minlength=work.n_nodes)
    active = work.k_out > 0
    if np.any(np.abs(row_sum[active & reach] - 1.0) > 1e-9):
        raise ValueError("outgoing hop probabilities do not sum to one")

    into = reach[ed]
    rows = pos[es[into]]
    cols = pos[ed[into]]
    vals = hop[into] * (1.0 - absorb_p[ed[into]])

    B = np.zeros((m, sinks.size))
    hits = sink_pos[ed] >= 0
    np.add.at(B, (pos[es[hits]], sink_pos[ed[hits]]), hop[hits] * absorb_p[ed[hits]])

    A = np.eye(m)
    A[rows, cols] -= vals
    try:
        F = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"absorbing system is singular: {exc}") from exc

    shares = np.clip(F[pos[starts], :], 0.0, 1.0)
    non_absorbed = np.maximum(1.0 - shares.sum(axis=1), 0.0)
    return AbsorptionMatrix(
        direction=direction,
        starts=tuple(work.countries[i] for i in starts),
        targets=tuple(work.countries[i] for i in sinks),
        shares=shares,
        non_absorbed=non_absorbed,
        method="dense",
        n_walkers=None,
        warnings=warnings,
    )


def detailed_balance_check(
    forward: AbsorptionMatrix,
    backward: AbsorptionMatrix,
    accounts: list[NodeAccount],
) -> float:
    """Largest violation of |delta_i| e[i, j] == delta_j g[j, i], in flux units.

    ``forward`` and ``backward`` must cover the same consumers and
    producers; a perfect pair of solutions moves the same money i -> j
    whichever end of the pipe you watch.
    """
    if forward.direction != "forward" or backward.direction != "backward":
        raise ValueError("expected one forward and one backward matrix, in that order")
    if set(forward.starts) != set(backward.targets) or set(forward.targets) != set(
        backward.starts
    ):
        raise ValueError("matrices cover different consumer/producer sets")
    delta = {a.country: a.delta_s for a in accounts}
    missing = (set(forward.starts) | set(forward.targets)) - set(delta)
    if missing:
        raise ValueError(f"accounts missing for: {', '.join(sorted(missing))}")

    row_of = {code: i for i, code in enumerate(backward.starts)}
    col_of = {code: i for i, code in enumerate(backward.targets)}
    row_perm = [row_of[t] for t in forward.targets]
    col_perm = [col_of[s] for s in forward.starts]
    G = backward.shares[np.ix_(row_perm, col_perm)]
    d_src = np.array([delta[c] for c in forward.starts])
    d_snk = np.array([delta[c] for c in forward.targets])
    lhs = np.abs(d_src)[:, None] * forward.shares
    rhs = (d_snk[:, None] * G).T
    if lhs.size == 0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)))


def imbalance_reconstruction(
    matrix: AbsorptionMatrix, accounts: list[NodeAccount]
) -> dict[str, float]:
    """Rebuild each target's imbalance from absorption shares.

    A forward matrix over all net consumers reconstructs every producer's
    surplus as sum_i e[i, j] |delta_i|; a backward matrix over all
    producers reconstructs every consumer's deficit. Partial coverage of
    the start side would silently underestimate, so it is an error.
    """
    delta = {a.country: a.delta_s for a in accounts}
    if matrix.direction == "forward":
        required = {c for c, d in delta.items() if d < 0}
    else:
        required = {c for c, d in delta.items() if d > 0}
    missing = required - set(matrix.starts)
    if missing:
        raise ValueError(
            f"matrix must cover every start node; missing: {', '.join(sorted(missing))}"
        )
    mass = np.array([abs(delta[c]) for c in matrix.starts])
    totals = mass @ matrix.shares
    return {c: float(t) for c, t in zip(matrix.targets, totals)}
