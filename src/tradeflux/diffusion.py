"""Exact absorption shares, and the identities that check a pair of them.

``tradeflux.walk`` simulates the absorbing walks; this module solves the
same system exactly for every start node. A forward and a backward solution
satisfy detailed balance, and each reconstructs the other side's imbalances.
It re-exports the walker's names from ``walk``.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError
from .network import ImbalanceNetwork, NodeAccount
from .walk import (
    DIRECTIONS, NON_ABSORBED_WARNING, AbsorptionMatrix, PartnerRank, WalkConfig,
    _absorb_vector, backward_walk_mc, forward_walk_mc, rank_partners,
    write_ranking_csv,
)


def _reaches(work: ImbalanceNetwork, seed_mask: np.ndarray) -> np.ndarray:
    """Mask of nodes from which some seed node is reachable."""
    return work._flood(seed_mask)


def exact_absorption(net: ImbalanceNetwork, direction: str = "forward") -> AbsorptionMatrix:
    """Absorption shares for every start node by solving the hitting system.

    With hop matrix P and per-node absorption vector a, the absorbed-at-t
    probabilities f satisfy f = P (a 1_t + (1 - a) f); the solve inverts
    ``I - P diag(1 - a)`` restricted to nodes that can reach an absorber,
    by one dense LAPACK solve for all absorbers at once.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    work = net if direction == "forward" else net.reverse()

    starts = np.flatnonzero(work.delta_s < 0)
    sinks = np.flatnonzero(work.delta_s > 0)
    if starts.size == 0 or sinks.size == 0:
        raise ValueError(
            "absorption needs at least one net consumer and one net producer"
        )
    total = float(work.weight.sum())
    if abs(float(work.delta_s.sum())) > 1e-9 * total:
        raise ValueError("node imbalances do not sum to zero; accounts are inconsistent")

    absorb_p = _absorb_vector(work)
    reach = _reaches(work, work.delta_s > 0)
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
    hop = work.weight[live] / work.s_out[es]
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

    row_perm = [backward.starts.index(t) for t in forward.targets]
    col_perm = [backward.targets.index(s) for s in forward.starts]
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
