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

In exact arithmetic no walker is ever trapped: any set of nodes closed under
outgoing edges has non-negative total imbalance, so once it holds a net
consumer it holds a net producer. Rounding breaks this: it can leave a node
of a balanced cycle with delta_s = -1e-16, a consumer that reaches no
absorber. The exact solve excludes such nodes, names them in a warning and
refuses only a focal start among them. Dead-end nodes (no outgoing edges)
are always full absorbers.

``exact_absorption`` solves for every start node at once, and
``detailed_balance_check`` and ``imbalance_reconstruction`` check a pair of
such full solutions. ``dollar --exact`` reports one start, so it solves the
transposed system for that start's row of the fundamental matrix instead,
with a few more right-hand sides that rebuild every imbalance and probe
detailed balance (``_focal_solve``): memory one m x m matrix and its LAPACK
copy, not the start x absorber blocks of both directions.
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
    expected number of hops from the one start: the simulated walkers'
    average, or exact from the focal solve of ``dollar --exact``;
    ``exact_absorption`` leaves it ``None``.
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


def _start(net: ImbalanceNetwork, start, direction: str) -> int:
    """The index of ``start``, a code or an index, if it may start a walk in
    ``direction``: the one rule that forward walks start at net consumers and
    backward walks at net producers. An unknown code raises ``KeyError``, a
    node of the wrong kind ``ValueError``."""
    if isinstance(start, str):
        if start not in net.index:
            raise KeyError(f"unknown country {start!r}")
        start = net.index[start]
    start = int(start)
    delta_s = float(net.delta_s[start])
    forward = direction == "forward"
    if (delta_s >= 0) if forward else (delta_s <= 0):
        kind = "neutral" if delta_s == 0 else "producer" if forward else "consumer"
        raise ValueError(
            f"{net.countries[start]} is a net {kind} (delta_s = {delta_s!r}); "
            f"{direction} walks start at net {'consumers' if forward else 'producers'}"
        )
    return start


def _mc_matrix(
    net: ImbalanceNetwork, start, direction: str, config: WalkConfig
) -> AbsorptionMatrix:
    start = _start(net, start, direction)
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
        local = 0.0
        if local_total > 0:
            # 100 * w first, as recorded rankings were computed, unless that overflows
            local = 100.0 * w
            local = local / local_total if np.isfinite(local) else 100.0 * (w / local_total)
        out.append(
            PartnerRank(
                rank=rank,
                partner=partner,
                global_share_pct=100.0 * share,
                local_share_pct=float(local),
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


@dataclass(frozen=True)
class _System:
    """One direction's hitting system ``A F = B``: A dense, B as edge entries.

    ``A = I - Q`` lives on the m nodes that can reach an absorber; ``b``
    holds the ``(row, column, value)`` entries of B, which has one column
    per absorber in ``sinks``. Row ``start_rows[i]`` of ``F = A^-1 B`` holds
    ``starts[i]``'s absorption shares.
    """

    direction: str
    starts: np.ndarray
    sinks: np.ndarray
    start_rows: np.ndarray
    a: np.ndarray
    b: tuple[np.ndarray, np.ndarray, np.ndarray]
    warnings: tuple[str, ...]


def _system(net: ImbalanceNetwork, direction: str) -> _System:
    """The absorbing system of the walk in ``direction``.

    With hop matrix P and per-node absorption vector a, the absorbed-at-t
    probabilities f satisfy f = P (a 1_t + (1 - a) f), so ``Q = P diag(1 - a)``
    and ``B = P diag(a)``, both restricted to the nodes that can reach an
    absorber. Every other node with an edge, start or not, is excluded and
    named in the one warning, and the walk's net consumers left are the starts.
    The walk's network is dropped before A is allocated.
    """
    work, sinks, absorb_p, hop = _walk(net, direction)
    reach = work._flood(work.delta_s > 0)
    starts = np.flatnonzero((work.delta_s < 0) & reach)
    if not starts.size:
        raise ValueError("absorption needs at least one net consumer and one net producer")
    trapped = np.flatnonzero(~reach & (work.k_in + work.k_out > 0))
    warnings = ()
    if trapped.size:
        names = ", ".join(work.countries[i] for i in trapped[:8])
        warnings = (f"excluded {trapped.size} node(s) unable to reach an absorber: {names}",)

    nodes = np.flatnonzero(reach)
    pos = np.full(work.n_nodes, -1, dtype=np.int64)
    pos[nodes] = np.arange(nodes.size)
    sink_pos = np.full(work.n_nodes, -1, dtype=np.int64)
    sink_pos[sinks] = np.arange(sinks.size)

    live = reach[work.src]
    es, ed = work.src[live], work.dst[live]
    hop = hop[live]
    hits = sink_pos[ed] >= 0
    b = (pos[es[hits]], sink_pos[ed[hits]], hop[hits] * absorb_p[ed[hits]])
    into = reach[ed]
    es, ed, hop = pos[es[into]], ed[into], hop[into]
    del work, live, hits, into
    a = np.eye(nodes.size)
    a[es, pos[ed]] -= hop * (1.0 - absorb_p[ed])
    return _System(direction, starts, sinks, pos[starts], a, b, warnings)


def _solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"absorbing system is singular: {exc}") from exc


def exact_absorption(net: ImbalanceNetwork, direction: str = "forward") -> AbsorptionMatrix:
    """Absorption shares for every start that can reach an absorber, solved exactly.

    One dense LAPACK solve ``A F = B`` for all absorbers at once (see
    ``_system``). The matrix leaves ``mean_hops`` ``None``: expected hops
    are a per-start figure that only ``dollar --exact``'s focal solve reports.
    """
    system = _system(net, direction)
    b = np.zeros((system.a.shape[0], system.sinks.size))
    rows, cols, vals = system.b
    b[rows, cols] = vals  # one edge per (node, absorber) pair
    f = _solve(system.a, b)

    shares = np.clip(f[system.start_rows], 0.0, 1.0)
    non_absorbed = np.maximum(1.0 - shares.sum(axis=1), 0.0)
    return AbsorptionMatrix(
        direction=direction,
        starts=tuple(net.countries[i] for i in system.starts),
        targets=tuple(net.countries[i] for i in system.sinks),
        shares=shares,
        non_absorbed=non_absorbed,
        method="dense",
        n_walkers=None,
        warnings=system.warnings,
    )


def _row_totals(system: _System, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``weights @ F`` and ``weights @ N 1`` for rows of ``weights`` over the starts.

    ``N = A^-1`` is the fundamental matrix: ``N[i, v]`` is the expected
    number of visits a walker from ``i`` pays to ``v`` before absorption,
    each followed by one hop, so ``N 1`` is every node's expected hop count.
    One solve ``A^T Y = W^T`` gives both, as ``Y^T B`` and ``Y^T 1``. ``Y^T B``
    is summed edge by edge into the absorbers, so neither F nor B is formed.
    """
    rhs = np.zeros((system.a.shape[0], len(weights)))
    rhs[system.start_rows] = np.transpose(weights)
    y = _solve(system.a.T, rhs)
    rows, cols, vals = system.b
    totals = np.array([
        np.bincount(cols, weights=y[rows, k] * vals, minlength=system.sinks.size)
        for k in range(y.shape[1])
    ])
    return totals, y.sum(axis=0)


def _focal_solve(
    net: ImbalanceNetwork, focal: str, direction: str
) -> tuple[AbsorptionMatrix, float, dict[str, float]]:
    """One start's exact shares, and both directions' checks, without full blocks.

    Returns ``(matrix, probe_abs, reconstruction)``. ``matrix`` holds
    ``focal``'s clipped shares in ``direction``, its exact ``mean_hops`` and
    both directions' warnings. ``probe_abs`` checks detailed balance
    ``D_S F = (D_P G)^T`` on probes (Freivalds): the larger of
    ``|u' D_S F v - v' D_P G u|`` and the same with u and v swapped, for F
    and G the forward and backward shares and D_S and D_P the consumers'
    and producers' ``|delta_s|``. ``reconstruction`` maps each direction to
    the largest relative error of its absorbers' ``|delta_s|`` rebuilt
    from unclipped shares. Each direction makes one ``_row_totals`` solve,
    for ``|delta|``, ``|delta| u`` and ``|delta| v`` on its starts and, in
    ``direction``, the focal start's unit vector. A focal start that
    ``_system`` excluded, as unable to reach an absorber, raises
    ``NoConvergenceError``.
    """
    # probes in [1/2, 1) from the Weyl sequences k / phi and k (sqrt(2) - 1)
    # mod 1: a formula keeps runs byte-identical and numpy.random unloaded,
    # and entries below one keep probed sums within the network's flux
    k = np.arange(net.n_nodes)
    u = 0.5 + 0.5 * (k * 0.6180339887498949 % 1.0)
    v = 0.5 + 0.5 * (k * 0.41421356237309503 % 1.0)
    size = np.abs(net.delta_s)
    focal_idx = _start(net, focal, direction)
    sums, reconstruction, warnings = {}, {}, {}
    for d in DIRECTIONS:
        system = _system(net, d)
        starts, sinks = system.starts, system.sinks
        mass = size[starts]
        weights = [mass, mass * u[starts], mass * v[starts]]
        if d == direction:
            if focal_idx not in starts:
                raise NoConvergenceError(f"{focal} cannot reach any absorber")
            weights.append(starts == focal_idx)
        totals, hops = _row_totals(system, np.array(weights, dtype=float))
        warnings.update(dict.fromkeys(system.warnings))
        del system  # free this direction's A before the next is built
        reconstruction[d] = float(np.max(np.abs(totals[0] - size[sinks]) / size[sinks]))
        sums[d] = (totals[1] @ v[sinks], totals[2] @ u[sinks])
        if d == direction:
            row = np.clip(totals[3], 0.0, 1.0)
            targets = tuple(net.countries[i] for i in sinks)
            mean_hops = float(hops[3])

    (fwd_uv, fwd_vu), (bwd_uv, bwd_vu) = sums["forward"], sums["backward"]
    probe_abs = float(max(abs(fwd_uv - bwd_vu), abs(fwd_vu - bwd_uv)))
    matrix = AbsorptionMatrix(
        direction=direction,
        starts=(focal,),
        targets=targets,
        shares=row[None, :],
        non_absorbed=np.array([max(1.0 - row.sum(), 0.0)]),
        method="dense",
        n_walkers=None,
        warnings=tuple(warnings),
        mean_hops=mean_hops,
    )
    return matrix, probe_abs, reconstruction


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
