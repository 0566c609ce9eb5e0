"""Filtering a dense flow network down to its significant backbone.

An edge survives at level alpha if, for at least one of its endpoints,
carrying that share of the endpoint's flux would be too unlikely under a
uniformly random split. Tightening alpha peels the network down to the
edges that dominate somebody's books.
"""

import numpy as np

from tradeflux.backbone import backbone_sweep, connected_components
from tradeflux.ingest import TradeMatrix
from tradeflux.network import build_imbalance_network, total_flux

rng = np.random.default_rng(3)

n = 150
codes = tuple(f"C{i:03d}" for i in range(n))
mask = rng.random((n, n)) < 0.3
np.fill_diagonal(mask, False)
exports = np.where(mask, rng.lognormal(3.0, 1.8, (n, n)), 0.0)
net = build_imbalance_network(TradeMatrix(2000, codes, exports))
print(f"base network: {net.n_nodes} nodes, {net.n_edges} edges, "
      f"flux {total_flux(net):.0f}")

# The sweep shares one pass of significance scores across all levels, so
# the resulting backbones nest by construction.
alphas = (0.2, 0.1, 0.05, 0.01)
results = backbone_sweep(net, alphas)

print(f"\n{'alpha':>6} {'% flux':>7} {'% nodes':>8} {'% edges':>8}")
for _, stats in results:
    print(f"{stats.alpha:6.2f} {stats.pct_flux:7.1f} {stats.pct_nodes:8.1f} "
          f"{stats.pct_edges:8.1f}")
print("\nnote the shape: edges fall away much faster than flux, because the"
      "\nfilter keeps precisely the edges that carry someone's big money.")

tightest, _ = results[-1]
skeleton = tightest.as_network()
comps = connected_components(skeleton)
print(f"\nat alpha = {tightest.threshold}: {tightest.n_edges} edges remain, "
      f"{len(comps)} weak component(s), largest has {len(comps[0])} nodes")

best = np.minimum(tightest.alpha_at_source, tightest.alpha_at_target)
print("\nfive most significant edges (best endpoint score):")
for r in np.argsort(best, kind="stable")[:5]:
    e = tightest.edge_index[r]
    print(f"  {codes[net.src[e]]} -> {codes[net.dst[e]]}: weight {net.weight[e]:9.1f}, "
          f"alpha_src {tightest.alpha_at_source[r]:.2e}, "
          f"alpha_dst {tightest.alpha_at_target[r]:.2e}")
