"""From raw dyadic records to an imbalance network.

Walks the ingest stage end to end: parse double-reported bilateral flows,
reconcile the two sides of each flow, and turn pairwise imbalances into a
directed money-flow graph with per-country accounts.
"""

import io

from tradeflux.ingest import (
    parse_dyadic_records,
    reconcile_flows,
    validate_trade_matrix,
)
from tradeflux.network import (
    build_imbalance_network,
    node_accounts,
    total_flux,
    write_edge_list,
)

RECORDS = """year,reporter,partner,exports,imports
2000,USA,JPN,60,110
2000,JPN,USA,112,59
2000,USA,DEU,40,70
2000,DEU,USA,69,41
2000,JPN,DEU,30,20
2000,DEU,JPN,21,29
2000,CHE,USA,25,10
2000,USA,CHE,11,24
2000,CHE,JPN,8,8
2000,JPN,CHE,8,8
"""

# Readers take a path or an open file object, never a string of content.
parsed = parse_dyadic_records(io.StringIO(RECORDS))
print(f"parsed {len(parsed.records)} records, {len(parsed.dropped)} dropped")

# Each flow is claimed twice (A's export report, B's import report) and the
# claims rarely agree. "average" splits the difference; the report counts
# how often and how badly the two sides disagreed.
matrix, report = reconcile_flows(parsed.records, year=2000, policy="average")
print("reconciliation:", report.summary())
print("matrix check:  ", validate_trade_matrix(matrix).summary())

# Only the net flow of each pair matters: the deficit side gets an edge
# pointing at the surplus side, weighted by the difference.
net = build_imbalance_network(matrix)
print(f"network: {net.n_nodes} countries, {net.n_edges} edges, "
      f"total flux {total_flux(net):.2f}")

buf = io.StringIO()
write_edge_list(net, buf)
print("\nedge list:")
print(buf.getvalue())

accounts = node_accounts(net)
print(f"{'country':8} {'k_in':>4} {'k_out':>5} {'s_in':>8} {'s_out':>8} "
      f"{'delta_s':>8}  class")
for a in accounts:
    print(f"{a.country:8} {a.k_in:4d} {a.k_out:5d} {a.s_in:8.2f} {a.s_out:8.2f} "
          f"{a.delta_s:8.2f}  {a.classification}")

# Surpluses and deficits cancel by construction: every edge credits one
# account with exactly what it debits another.
print(f"\nsum of imbalances: {net.delta_s.sum():.2e}")
