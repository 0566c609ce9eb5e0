"""Statistically significant edge filtering for imbalance networks.

An edge carrying share p of a node's flux at degree k is scored by

    alpha(p, k) = (1 - p) ** (k - 1)

the probability that a uniformly random split of the node's flux over k
partners gives some partner a share of at least p. Small alpha means the
edge is too heavy to be a fluctuation of an even split. Each edge gets two
scores, one per endpoint, and survives a threshold if either endpoint
finds it significant; filtering with a stricter threshold always yields a
subset of a looser one.

Degree-1 endpoints carry their node's whole flux by construction, so
their score is fixed at 1 and they can only enter a backbone through the
opposite endpoint.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import compress

import numpy as np

from ._io import blocks, opened, row_parts, write_text
from .network import ImbalanceNetwork, write_graphml


def _significance(p, k):
    """alpha(p, k) elementwise, fixed at 1 for degree-1 endpoints."""
    return np.where(k == 1, 1.0, (1.0 - p) ** (k - 1))


def _edge_alphas(net: ImbalanceNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge significance at the source (out-share) and target (in-share)."""
    # at most 1 exactly: a sum of non-negative floats rounds to at least each term
    p_out = net.weight / net.s_out[net.src]
    p_in = net.weight / net.s_in[net.dst]
    return (
        _significance(p_out, net.k_out[net.src]),
        _significance(p_in, net.k_in[net.dst]),
    )


@dataclass(frozen=True)
class BackboneNetwork:
    """Edges of ``base`` whose best endpoint score beats ``threshold``."""

    base: ImbalanceNetwork
    threshold: float
    edge_index: np.ndarray
    alpha_at_source: np.ndarray
    alpha_at_target: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.edge_index.size)

    @property
    def node_indices(self) -> np.ndarray:
        """Indices of base nodes incident to at least one retained edge."""
        kept = np.concatenate(
            [self.base.src[self.edge_index], self.base.dst[self.edge_index]]
        )
        return np.flatnonzero(np.bincount(kept))

    def as_network(self) -> ImbalanceNetwork:
        """The retained edges as a standalone network on the full node set."""
        return ImbalanceNetwork(
            self.base.countries,
            self.base.src[self.edge_index],
            self.base.dst[self.edge_index],
            self.base.weight[self.edge_index],
        )


def _backbones(net: ImbalanceNetwork, alphas) -> list[BackboneNetwork]:
    """One backbone per threshold, in the order given, over shared scores."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must be non-empty")
    if len(set(alphas)) != len(alphas):
        raise ValueError("alphas must be distinct")
    for a in alphas:
        if not 0.0 < a <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {a}")
    a_src, a_dst = _edge_alphas(net)
    out = []
    for a in alphas:
        kept = np.flatnonzero((a_src < a) | (a_dst < a))
        out.append(BackboneNetwork(net, a, kept, a_src[kept], a_dst[kept]))
    return out


def extract_backbone(net: ImbalanceNetwork, alpha: float) -> BackboneNetwork:
    """Keep every edge significant at level ``alpha`` for either endpoint.

    Retention is strict (score < alpha), so alpha = 1 keeps exactly the
    edges with at least one endpoint of degree >= 2 and a nonzero share
    margin, and thresholds nest monotonically.
    """
    return _backbones(net, [alpha])[0]


@dataclass(frozen=True)
class BackboneStats:
    """Share of base flux, active nodes, and edges surviving a threshold."""

    alpha: float
    pct_flux: float
    pct_nodes: float
    pct_edges: float


def backbone_stats(backbone: BackboneNetwork) -> BackboneStats:
    """Percentages retained relative to the base network.

    The node denominator counts base nodes that touch at least one base
    edge, so isolated countries dilute neither side of the ratio.
    """
    base = backbone.base
    if base.n_edges == 0:
        raise ValueError("base network has no edges")
    base_nodes = int(np.count_nonzero(base.k_in + base.k_out))
    kept_w = float(base.weight[backbone.edge_index].sum())
    return BackboneStats(
        alpha=backbone.threshold,
        pct_flux=100.0 * kept_w / float(base.weight.sum()),
        pct_nodes=100.0 * backbone.node_indices.size / base_nodes,
        pct_edges=100.0 * backbone.n_edges / base.n_edges,
    )


def backbone_sweep(
    net: ImbalanceNetwork, alphas
) -> list[tuple[BackboneNetwork, BackboneStats]]:
    """Extract backbones for several thresholds over shared edge scores.

    ``alphas`` must be distinct values in (0, 1]; they are processed in
    the order given.
    """
    return [(bb, backbone_stats(bb)) for bb in _backbones(net, alphas)]


def connected_components(net: ImbalanceNetwork) -> list[list[int]]:
    """Weakly connected components, largest first, ties by lowest node.

    Nodes without edges belong to no component. Each component is one
    flood, both ways along the edges, from its lowest unseen node.
    """
    unseen = net.k_in + net.k_out > 0
    comps = []
    while unseen.any():
        seed = np.zeros(net.n_nodes, dtype=bool)
        seed[np.argmax(unseen)] = True
        comp = net._flood(seed, along=True)
        unseen &= ~comp
        comps.append(np.flatnonzero(comp).tolist())
    comps.sort(key=lambda g: (-len(g), g[0]))
    return comps


def write_backbone_tsv(backbone: BackboneNetwork, stream) -> None:
    """Tab-separated retained edges with both endpoint scores.

    ``stream`` is a path or an open text file object."""
    write_backbone_tsvs([backbone], [stream])


def write_backbone_tsvs(backbones, streams) -> None:
    """Write each of ``backbones`` to the matching one of ``streams`` as
    ``write_backbone_tsv`` would, in one pass over the widest backbone.

    The backbones are thresholds of one network's scores, as
    ``backbone_sweep`` gives them, so each keeps the widest's edges whose
    better score beats its threshold. Each row of the widest is formatted
    once, a block at a time, and written to every stream that keeps it.
    """
    widest = max(backbones, key=lambda b: b.n_edges)
    base, kept = widest.base, widest.edge_index
    if any(backbone.base is not base for backbone in backbones):
        raise ValueError("backbones must share one base network")
    score = np.minimum(widest.alpha_at_source, widest.alpha_at_target)
    members = [score < backbone.threshold for backbone in backbones]
    codes = np.array(base.countries, dtype=object)
    rows = row_parts(("", "\t", "\t", "\t", "\t", "\n"), kept.size, lambda at: (
        codes[base.src[kept[at]]], codes[base.dst[kept[at]]], base.weight[kept[at]],
        widest.alpha_at_source[at], widest.alpha_at_target[at],
    ))
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(opened(stream, "w")) for stream in streams]
        for file in files:
            file.write("src\tdst\tweight\talpha_at_source\talpha_at_target\n")
        for at, parts in zip(blocks(kept.size), rows):
            texts = list(map("".join, parts))
            for file, member in zip(files, members, strict=True):
                file.write("".join(compress(texts, member[at].tolist())))


def write_backbone_graphml(backbone: BackboneNetwork, stream) -> None:
    """GraphML of the retained edges carrying both endpoint scores.

    Retained edges keep their base order, which is already canonical, so
    the score arrays align with the rebuilt network's edge order.
    """
    write_graphml(
        backbone.as_network(),
        stream,
        edge_attrs={
            "alpha_at_source": backbone.alpha_at_source,
            "alpha_at_target": backbone.alpha_at_target,
        },
    )


def write_stats_csv(stats: list[BackboneStats], stream) -> None:
    """One ``alpha,pct_flux,pct_nodes,pct_edges`` row per threshold.

    ``stream`` is a path or an open text file object."""
    write_text(stream, "alpha,pct_flux,pct_nodes,pct_edges\n", (
        f"{s.alpha!r},{s.pct_flux!r},{s.pct_nodes!r},{s.pct_edges!r}\n" for s in stats
    ))
