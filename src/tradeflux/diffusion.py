"""Absorbing random walks tracing where net money flows end up, simulated and solved.

A unit of currency injected at a net consumer (a node spending more than
it earns) wanders along edges: from node v it hops to partner u with
probability proportional to the edge weight v->u. On arriving at a net
producer it is absorbed with probability delta_s / s_in, the fraction of
the producer's income it keeps rather than re-spends; otherwise it keeps
moving. Absorption shares e[i, j] say how much of consumer i's deficit is
ultimately banked by producer j.

The time-reversed question (where did producer j's surplus originate?) is
the same walk over the in-edges, with incoming and outgoing strengths
swapped, so net producers become the walk's starting points and net
consumers its absorbers; no reversed copy of the network is built.

The Monte Carlo walker follows walker counts, not walkers. All walkers
start together and take their t-th hop in step t. Given where they stand,
their hops are independent draws from their nodes' hop distributions, so
the m walkers at node v split over v's out-edges as one draw of
Multinomial(m, w / s_out); given where they arrive, each is absorbed
independently, so a node absorbs Binomial(a, p) of its a arrivals. The
walker counts per node therefore follow the same law as those of walkers
moved one hop at a time: an exact rewrite, not an approximation, and one
that never consults the exact solve. The walk holds one int64 count per
node and an n x k_max hop table (k_max the largest out-degree) of float64
shares and int32 targets, within the n x n matrix the exact solve
allocates, and its memory and time per step do not grow with the walker
count. Each table row lists its node's edges heaviest first, so a step
pays only for the prefix of each occupied row that its draw reaches
before the row's walkers run out.

In exact arithmetic no walker is ever trapped: any set of nodes closed under
outgoing edges has non-negative total imbalance, so once it holds a net
consumer it holds a net producer. Rounding breaks this: it can leave a node
of a balanced cycle with delta_s = -1e-16, a consumer that reaches no
absorber. The exact solve excludes such nodes and names them in a warning.
``exact_absorption`` gives each start among them a zero row, never absorbed,
as the Monte Carlo walker does; ``dollar --exact`` refuses such a focal
start. Dead-end nodes (no outgoing edges) are always full absorbers.

Every exact share comes from one call, ``_solve``, that builds a walk's
system and solves it transposed, by block elimination in A's own storage,
then writes B there too. ``exact_absorption`` weights it with the identity,
for every start at once; ``detailed_balance_check`` and
``imbalance_reconstruction`` check a pair of such full solutions.
``dollar --exact`` reports one start, so it weights the solve with that
start's unit vector and a few rows that rebuild every imbalance and probe
detailed balance (``_focal_solve``): memory one m x m matrix and a few
blocks of its rows, not the start x absorber blocks of both directions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._io import _BLOCK, _append, blocks, write_text
from .errors import NoConvergenceError
from .network import ImbalanceNetwork, NodeAccount

DIRECTIONS = ("forward", "backward")

#: Fraction of walkers allowed to hit the step cap before a warning is issued.
NON_ABSORBED_WARNING = 0.01

#: Largest walker count: the walk holds per-node counts as int64.
MAX_WALKERS = 2**63 - 1

#: Unknowns per block of the exact solve: LAPACK sees one diagonal block at a
#: time, once, and no temporary of the elimination is larger than one block row.
_SOLVE_BLOCK = 128


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; ``TypeError`` unless it is an integer, numpy's too."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class WalkConfig:
    """Monte Carlo parameters; ``max_steps`` caps hops per walker."""

    n_walkers: int = 1_000_000
    seed: int = 0
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("n_walkers", "seed", "max_steps"):
            _integer(name, getattr(self, name))
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
    ``non_absorbed[i]``, up to the rounding that an exact matrix clips from
    its shares and reports in ``non_absorbed``, which may read a few ulps
    below zero. ``method`` records how the numbers were produced:
    ``monte-carlo``, or ``dense`` from the exact ``_solve``. ``mean_hops`` is the
    expected number of hops from the one start: the simulated walkers'
    average, or exact from the focal solve of ``dollar --exact``;
    ``exact_absorption`` leaves it ``None``. ``mean_hops_se`` is the
    simulated average's standard error, ``None`` for an exact matrix.
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
    mean_hops_se: float | None = None

    def share(self, start: str, target: str) -> float:
        return float(
            self.shares[self.starts.index(start), self.targets.index(target)]
        )


def _walk(net: ImbalanceNetwork, direction: str) -> tuple:
    """The walk in ``direction`` as ``(ptr, is_start, is_sink, absorb_p,
    edges)``, over ``net``'s own arrays. Forward it hops src -> dst in
    canonical order; backward, dst -> src over the in-edges in
    ``net._in_order``, which is ``net.reverse()``'s canonical order, with
    ``_in_ptr`` as row starts ``ptr`` and the strengths swapped, so every
    value is bit for bit the reversed copy's and no copy is built. Here alone
    the walk's ``delta_s = s_in - s_out`` decides its sides: ``is_start`` marks
    where it is negative, ``is_sink`` the absorbers, where it is positive.
    ``absorb_p`` is ``delta_s / s_in`` on the absorbers, zero elsewhere;
    ``edges(rows)`` gives the tails and heads, as intp, and hop shares
    ``w / s_out`` of the walk's edges ``rows``."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    forward = direction == "forward"
    s_in, s_out = (net.s_in, net.s_out) if forward else (net.s_out, net.s_in)
    ptr, delta_s = (net._out_ptr if forward else net._in_ptr), s_in - s_out
    is_sink = delta_s > 0

    def edges(rows: slice) -> tuple:
        # a block's int32 indices widened once: numpy widens an int32 index on every use
        at = rows if forward else net._in_order[rows].astype(np.intp)
        ends = (net.src, net.dst) if forward else (net.dst, net.src)
        tail, head = (end[at].astype(np.intp) for end in ends)
        return tail, head, net.weight[at] / s_out[tail]

    # a node with delta_s > 0 has s_in > 0
    absorb_p = np.where(is_sink, delta_s / np.where(s_in > 0, s_in, 1.0), 0.0)
    return ptr, delta_s < 0, is_sink, absorb_p, edges


def _hop_table(ptr: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray]:
    """Every node's hop shares ``w / s_out`` and edge targets, one row per node.

    Both arrays are n x k_max, the shares float64 and the targets int32.
    Each row holds the node's edges of the walk ``ptr, edges`` of ``_walk``,
    heaviest first, ties in the walk's order, then zero padding. A
    multinomial draw fills its columns in order and stops once the row's
    walkers are placed, so heavy edges first make that prefix short. The
    draw leaves its rounding remainder on the last column, so a row's last
    column, padding in a short row, targets the row's last real edge. Rows
    of nodes without outgoing edges are all padding. The tables are filled
    a ``_io._BLOCK`` of edges at a time, then sorted a block of rows at a
    time, so no array of the walk's edges is held whole beside them.
    """
    degree = np.diff(ptr)
    shape = (degree.size, int(degree.max(initial=0)))
    share = np.zeros(shape)
    target = np.zeros(shape, dtype=np.int32)
    for rows in blocks(int(ptr[-1])):
        tail, head, hop = edges(rows)
        column = np.arange(rows.start, rows.stop) - ptr[tail]
        share[tail, column] = hop
        target[tail, column] = head
        del tail, head, hop, column  # not held through the sort
    step = _BLOCK // max(shape[1], 1) + 1
    for top in range(0, shape[0], step):
        rows = slice(top, top + step)
        order = np.argsort(-share[rows], axis=1, kind="stable")
        share[rows] = np.take_along_axis(share[rows], order, axis=1)
        target[rows] = np.take_along_axis(target[rows], order, axis=1)
    rows = np.flatnonzero(degree)
    target[rows, -1] = target[rows, degree[rows] - 1]
    return share, target


def _mc_run(
    ptr: np.ndarray, absorb_p: np.ndarray, edges, start: int, config: WalkConfig
) -> tuple[np.ndarray, float, int, int]:
    """Absorption counts per node, the fraction never absorbed, and the sums of
    the walkers' hop counts and of their squares.

    The walk keeps one count of walkers per node, not one position per
    walker. Each step, one multinomial draw splits every occupied node's
    walkers over its out-edges, and one binomial draw per node absorbs
    some of the walkers that arrived there. A step costs as much as the
    drawn prefix of each occupied node's row of the hop table, up to the
    column where the row's walkers run out, whatever ``n_walkers`` is.
    A walker absorbed in step t took t hops, one still moving at the cap
    ``max_steps``; each step adds 1 to a moving walker's hops and 2t - 1
    to their square.
    """
    rng = np.random.default_rng(config.seed)
    share, target = _hop_table(ptr, edges)

    counts = np.zeros(ptr.size - 1, dtype=np.int64)
    at = np.zeros_like(counts)
    at[start] = config.n_walkers
    # Python ints: the totals over all steps may pass the int64 range
    hops = squares = 0
    for step in range(1, config.max_steps + 1):
        if not (moving := int(at.sum())):
            break
        hops += moving
        squares += moving * (2 * step - 1)
        live = np.flatnonzero(at)
        moved = rng.multinomial(at[live], share[live])
        arrived = np.zeros_like(counts)
        np.add.at(arrived, target[live].ravel(), moved.ravel())
        absorbed = rng.binomial(arrived, absorb_p)
        counts += absorbed
        at = arrived - absorbed
    return counts, int(at.sum()) / config.n_walkers, hops, squares


def _start(net: ImbalanceNetwork, start, direction: str) -> int:
    """The index of ``start``, a code or an index, if it may start a walk in
    ``direction``: the one rule that a walk starts where ``_walk``'s
    ``is_start`` holds, at a net consumer forward and a net producer
    backward. An unknown code or an index outside ``range(net.n_nodes)``
    raises ``KeyError``, a start neither code nor integer ``TypeError``, and
    an unknown direction or a node of the wrong kind ``ValueError``."""
    is_start = _walk(net, direction)[1]
    if isinstance(start, str):
        if start not in net.index:
            raise KeyError(f"unknown country {start!r}")
        start = net.index[start]
    if (start := _integer("start", start)) not in range(net.n_nodes):
        raise KeyError(f"unknown country index {start}")
    if not is_start[start]:
        delta_s, forward = float(net.delta_s[start]), direction == "forward"
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
    ptr, _, is_sink, absorb_p, edges = _walk(net, direction)
    counts, lost, hops, squares = _mc_run(ptr, absorb_p, edges, start, config)
    n = int(config.n_walkers)  # a Python int, as hops and squares: n**3 passes int64
    sinks = np.flatnonzero(is_sink)
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
        shares=counts[sinks][None, :] / n,
        non_absorbed=np.array([lost]),
        method="monte-carlo",
        n_walkers=n,
        warnings=warnings,
        mean_hops=hops / n,
        # sqrt(variance / n) with the plug-in variance squares / n - mean**2,
        # as the shares' p (1 - p); exact in integers up to the one division
        mean_hops_se=math.sqrt((n * squares - hops * hops) / n**3),
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
    _integer("top", top)
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


def _solve(net: ImbalanceNetwork, direction: str, weigh) -> tuple:
    """``(starts, sinks, W F, W N 1, warnings)`` for the walk in ``direction``.

    With hop matrix P and per-node absorption vector a, the absorbed-at-t
    probabilities f satisfy f = P (a 1_t + (1 - a) f), so the hitting system
    is ``A F = B`` with ``A = I - Q``, ``Q = P diag(1 - a)`` and
    ``B = P diag(a)``, on the m nodes that can reach an absorber. Every
    other node with an edge, start or not, is excluded and named in the one
    warning. ``starts`` holds every start of the walk and ``sinks`` every
    absorber, one column of F each. Once the reach set sizes A, A is filled
    and B's entries collected one ``_io._BLOCK`` of edges at a time, so no
    per-edge temporary lives beside A; an entry is an int32 row and column
    and a float64 value, 16 bytes.

    ``weigh(starts, solved)`` gives the weight rows W over ``starts``;
    ``solved`` marks the starts that can reach an absorber, the rest being
    left out (zero rows of F, infinite hops). ``N = A^-1`` is the
    fundamental matrix: ``N[i, v]`` is the expected number of visits a
    walker from ``i`` pays to ``v`` before absorption, each followed by one
    hop, so ``N 1`` is every node's expected hop count. One solve
    ``A^T Y = W^T`` gives both results, as ``Y^T B`` and ``Y^T 1``.

    The solve is a block elimination in A's own storage, ``_SOLVE_BLOCK``
    unknowns at a time: LAPACK inverts each diagonal block once, and GEMMs
    on ``_SOLVE_BLOCK`` rows at a time apply that inverse to the block's
    column of A, which then holds the factors, and to the carried weights,
    and update the trailing matrix and weights; a block back-substitution
    follows. ``A^T`` is column diagonally dominant (Q >= 0,
    zero diagonal, row sums <= 1), so this is the order partial pivoting
    picks, and A, a nonsingular M-matrix, has no singular diagonal block. B,
    m x sinks with sinks within the reach set, is then written into A's
    consumed storage, so the solve's one m x m array is A.
    """
    _, is_start, is_sink, absorb_p, edges = _walk(net, direction)
    reach = net._flood(is_sink, against=direction == "forward", along=direction == "backward")
    starts, sinks = np.flatnonzero(is_start), np.flatnonzero(is_sink)
    if not (starts.size and sinks.size):
        raise ValueError("absorption needs at least one net consumer and one net producer")
    trapped = np.flatnonzero(~reach & (net.k_in + net.k_out > 0))
    warnings = ()
    if trapped.size:
        names = ", ".join(net.countries[i] for i in trapped[:8])
        warnings = (f"excluded {trapped.size} node(s) unable to reach an absorber: {names}",)

    # the rows of A and columns of B, looked up for reached nodes and sinks only
    pos, sink_pos = (np.cumsum(mask, dtype=np.int32) - 1 for mask in (reach, is_sink))

    a = np.eye(np.count_nonzero(reach))
    entries = [np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0)]
    for rows in blocks(net.n_edges):
        tail, head, hop = edges(rows)
        into = reach[head]  # and then the tail reaches an absorber too
        tail, head, hop = pos[tail[into]], head[into], hop[into]
        absorb = absorb_p[head]
        hits = is_sink[head]
        _append(entries, (tail[hits], sink_pos[head[hits]], hop[hits] * absorb[hits]))
        a[tail, pos[head]] -= hop * (1.0 - absorb)
    del tail, head, hop, into, absorb, hits  # the last block's, not kept through the solve
    solved = reach[starts]
    weights = weigh(starts, solved)
    m, step = a.shape[0], _SOLVE_BLOCK
    y = np.zeros((m, len(weights)))
    at = pos[starts[solved]]
    for column in range(len(weights)):  # a row at a time: no copy of them all
        y[at, column] = weights[column, solved]
    del weights, at  # y holds them now
    # with M = A^T, held transposed in a, block k takes Y_k = M_kk^-1 Y_k and
    # X = M_kk^-1 M_kt, then M_tt -= M_tk X and Y_t -= M_tk Y_k. With
    # F = A_kk^-1 = (M_kk^-1)^T, X^T = a[t, k] F replaces the block's column
    # in a, _SOLVE_BLOCK rows at a time, for the back-substitution
    for top in range(0, m, step):
        end = min(top + step, m)
        k, t = slice(top, end), slice(end, m)
        try:
            factor = np.linalg.inv(a[k, k])
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"absorbing system is singular: {exc}") from exc
        y[k] = factor.T @ y[k]
        for row in range(end, m, step):
            r = slice(row, row + step)
            a[r, k] = a[r, k] @ factor
            a[r, t] -= a[r, k] @ a[k, t]
            y[r] -= a[k, r].T @ y[k]
    for top in reversed(range(0, m, step)):
        k, t = slice(top, top + step), slice(top + step, m)
        y[k] -= a[t, k].T @ y[t]
    b = a.reshape(-1)[: m * sinks.size].reshape(m, sinks.size)
    b[:] = 0.0
    rows, cols, vals = entries
    b[rows, cols] = vals  # one edge per (node, absorber) pair
    del entries, rows, cols, vals  # b holds them now
    return starts, sinks, y.T @ b, y.sum(axis=0), warnings


def _dense(net: ImbalanceNetwork, direction: str, starts, sinks, f: np.ndarray,
           warnings: tuple[str, ...], mean_hops: float | None = None) -> AbsorptionMatrix:
    """The exact shares ``f`` of ``starts`` at ``sinks``, clipped to [0, 1], as
    an ``AbsorptionMatrix`` whose ``non_absorbed`` is what each row of ``f``
    leaves before clipping, where rounding may show as a few ulps below zero."""
    return AbsorptionMatrix(
        direction=direction,
        starts=tuple(net.countries[i] for i in starts),
        targets=tuple(net.countries[i] for i in sinks),
        shares=np.clip(f, 0.0, 1.0),
        non_absorbed=1.0 - f.sum(axis=1),
        method="dense",
        n_walkers=None,
        warnings=warnings,
        mean_hops=mean_hops,
    )


def exact_absorption(net: ImbalanceNetwork, direction: str = "forward") -> AbsorptionMatrix:
    """Absorption shares for every start of the walk, solved exactly.

    The starts' rows of ``F = A^-1 B`` come from ``_solve``, the one exact
    solve, with the identity as weights; a start that cannot reach an
    absorber keeps a zero row. The matrix leaves ``mean_hops`` ``None``:
    expected hops are a per-start figure that only ``dollar --exact``'s
    focal solve reports.
    """
    starts, sinks, f, _, warnings = _solve(net, direction, lambda s, _: np.eye(s.size))
    return _dense(net, direction, starts, sinks, f, warnings)


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
    from unclipped shares. Each direction makes one ``_solve``, weighted by
    ``|delta|``, ``|delta| u`` and ``|delta| v`` on its starts and, in
    ``direction``, the focal start's unit vector. A focal start that cannot
    reach an absorber raises ``NoConvergenceError`` before the elimination.
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
        def weigh(starts, solved):
            mass = size[starts]
            weights = [mass, mass * u[starts], mass * v[starts]]
            if d == direction:
                if focal_idx not in starts[solved]:
                    raise NoConvergenceError(
                        f"{net.countries[focal_idx]} cannot reach any absorber")
                weights.append(starts == focal_idx)
            return np.array(weights, dtype=float)

        _, sinks, totals, hops, found = _solve(net, d, weigh)
        warnings.update(dict.fromkeys(found))
        reconstruction[d] = float(np.max(np.abs(totals[0] - size[sinks]) / size[sinks]))
        sums[d] = (totals[1] @ v[sinks], totals[2] @ u[sinks])
        if d == direction:
            focal_sinks, row, mean_hops = sinks, totals[3:], float(hops[3])

    (fwd_uv, fwd_vu), (bwd_uv, bwd_vu) = sums["forward"], sums["backward"]
    probe_abs = float(max(abs(fwd_uv - bwd_vu), abs(fwd_vu - bwd_uv)))
    matrix = _dense(net, direction, [focal_idx], focal_sinks, row, tuple(warnings), mean_hops)
    return matrix, probe_abs, reconstruction


def _deltas(accounts: list[NodeAccount], matrix: AbsorptionMatrix) -> dict[str, float]:
    """Each account's ``delta_s`` by country; every start and target of
    ``matrix`` must have an account."""
    delta = {a.country: a.delta_s for a in accounts}
    missing = (set(matrix.starts) | set(matrix.targets)) - set(delta)
    if missing:
        raise ValueError(f"accounts missing for: {', '.join(sorted(missing))}")
    return delta


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
    delta = _deltas(accounts, forward)

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
    the start side would silently underestimate, so it is an error, as is
    a start or target without an account.
    """
    delta = _deltas(accounts, matrix)
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
