"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: the edge
builder is checked against a quadratic double loop, the significance
closed form against adaptive quadrature, and the vectorised walker
against a one-walker-at-a-time Python loop.
"""

import numpy as np
from scipy import integrate

from tradeflux.ingest import TradeMatrix
from tradeflux.network import ImbalanceNetwork, build_imbalance_network


def random_trade_matrix(rng, n=20, density=0.4, year=2000) -> TradeMatrix:
    """Random export matrix with lognormal entries and a zero diagonal."""
    codes = tuple(f"C{i:03d}" for i in range(n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    exports = np.where(mask, rng.lognormal(3.0, 1.0, (n, n)), 0.0)
    return TradeMatrix(year, codes, exports)


def random_network(rng, n=20, density=0.4) -> ImbalanceNetwork:
    """Random imbalance network guaranteed to have a consumer and a producer."""
    net = build_imbalance_network(random_trade_matrix(rng, n, density))
    while not ((net.delta_s > 0).any() and (net.delta_s < 0).any()):
        net = build_imbalance_network(random_trade_matrix(rng, n, density))
    return net


def bruteforce_imbalance_edges(tm: TradeMatrix) -> dict:
    """Reference edge builder: explicit double loop over ordered pairs.

    An edge i -> j exists when i runs a deficit against j, i.e. when
    exports[i, j] - exports[j, i] < 0, and carries the absolute net flow.
    """
    edges = {}
    n = len(tm.countries)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            net_flow = tm.exports[i, j] - tm.exports[j, i]
            tol = 1e-12 * max(tm.exports[i, j], tm.exports[j, i])
            if net_flow < -tol:
                edges[(tm.countries[i], tm.countries[j])] = -net_flow
    return edges


def quadrature_significance(p: float, k: int) -> float:
    """Upper-tail mass of the maximal-share null density, by quadrature.

    Integrates (k-1)(1-x)^(k-2) from p to 1 with tolerances far below
    the 1e-10 comparison threshold.
    """
    value, _ = integrate.quad(
        lambda x: (k - 1) * (1.0 - x) ** (k - 2),
        p,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return value


def reference_walk(net: ImbalanceNetwork, start: int, n_walkers: int, seed: int):
    """Scalar per-walker simulation, independent of the vectorised path.

    Returns absorption counts per node index.
    """
    rng = np.random.default_rng(seed)
    absorb = np.where(net.delta_s > 0, net.delta_s / np.maximum(net.s_in, 1e-300), 0.0)
    counts = np.zeros(net.n_nodes, dtype=int)
    for _ in range(n_walkers):
        cur = start
        while True:
            targets, weights = net.out_edges(cur)
            cum = np.cumsum(weights) / weights.sum()
            pick = min(int(np.searchsorted(cum, rng.random(), side="right")), cum.size - 1)
            cur = int(targets[pick])
            if absorb[cur] > 0 and rng.random() < absorb[cur]:
                counts[cur] += 1
                break
    return counts


def first_pair_violation(countries, edges) -> str | None:
    """Message for the first edge, in canonical order, that repeats an
    earlier pair or reverses one; a plain set-based loop over the edges."""
    seen = set()
    for i, j in sorted(edges):
        if (i, j) in seen:
            return f"duplicate edge {countries[i]}->{countries[j]}"
        if (j, i) in seen:
            return f"reciprocal edges for pair {countries[i]}/{countries[j]}"
        seen.add((i, j))
    return None


def weak_components(n: int, edges, include_isolated: bool) -> list[list[int]]:
    """Weakly connected components by repeated flooding, largest first."""
    neighbours = {v: set() for v in range(n)}
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    unseen = {v for v in range(n) if neighbours[v] or include_isolated}
    comps = []
    while unseen:
        frontier = {min(unseen)}
        comp = set()
        while frontier:
            comp |= frontier
            frontier = {u for v in frontier for u in neighbours[v]} - comp
        unseen -= comp
        comps.append(sorted(comp))
    return sorted(comps, key=lambda c: (-len(c), c[0]))
