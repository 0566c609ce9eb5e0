"""The paper's dollar-experiment table as one library session.

Run as a child process by the ``paper_table`` workload:

    PYTHONPATH=src python3 bench/table.py NETWORK_TSV --walkers N --seed S

It imports tradeflux once, reads the edge list once, solves the forward and
backward absorbing systems for all starts (with the detailed-balance and
reconstruction diagnostics), then walks 1e6 Monte Carlo dollars from the
two largest net consumers (forward) and the two largest net producers
(backward) and ranks each one's partners. It writes no files: the results
and its own timings go to standard output as one JSON object.

The traced benchmark run calls :func:`run_table` in-process with a span
recorder, so the traced and untraced sessions make the same calls.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from tradeflux import (
    WalkConfig,
    backward_walk_mc,
    detailed_balance_check,
    exact_absorption,
    forward_walk_mc,
    imbalance_reconstruction,
    node_accounts,
    rank_partners,
    read_edge_list,
    total_flux,
)


def _no_span(name):
    return contextlib.nullcontext()


def exact_diagnostics(net, fwd, bwd, accounts) -> tuple[float, float]:
    """Detailed balance relative to total flux, and the worst relative
    imbalance reconstruction over both directions, as ``dollar --exact``
    computes them."""
    balance = detailed_balance_check(fwd, bwd, accounts) / total_flux(net)
    actual = {a.country: abs(a.delta_s) for a in accounts}
    reconstruction = max(
        abs(v - actual[c]) / actual[c]
        for m in (fwd, bwd)
        for c, v in imbalance_reconstruction(m, accounts).items()
    )
    return balance, reconstruction


def run_table(net, walkers: int, seed: int, span=_no_span) -> dict:
    """Exact table plus four MC walks on ``net``; ``span(name)`` wraps each call."""
    accounts = node_accounts(net)
    with span("diffusion.exact_forward"):
        fwd = exact_absorption(net, "forward")
    with span("diffusion.exact_backward"):
        bwd = exact_absorption(net, "backward")
    with span("diffusion.balance"):
        balance, reconstruction = exact_diagnostics(net, fwd, bwd, accounts)
    order = np.argsort(net.delta_s, kind="stable")
    plan = [
        ("forward", net.countries[order[0]], forward_walk_mc, fwd),
        ("forward", net.countries[order[1]], forward_walk_mc, fwd),
        ("backward", net.countries[order[-1]], backward_walk_mc, bwd),
        ("backward", net.countries[order[-2]], backward_walk_mc, bwd),
    ]
    walks = []
    for k, (direction, start, walk, exact) in enumerate(plan):
        with span("diffusion.mc"):
            mc = walk(net, start, WalkConfig(n_walkers=walkers, seed=seed + k))
        with span("diffusion.rank"):
            ranking = rank_partners(net, mc, start, top=net.n_nodes)
        walks.append(
            {
                "direction": direction,
                "start": start,
                "targets": list(mc.targets),
                "mc": mc.shares[0].tolist(),
                "exact": exact.shares[exact.starts.index(start)].tolist(),
                "non_absorbed": float(mc.non_absorbed[0]),
                "ranking": [
                    [r.partner, r.global_share_pct, r.local_share_pct, r.direct]
                    for r in ranking
                ],
            }
        )
    return {
        "detailed_balance_rel": balance,
        "reconstruction_rel": reconstruction,
        "walks": walks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("network")
    parser.add_argument("--walkers", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    with open(args.network, "r", encoding="utf-8") as fh:
        net = read_edge_list(fh)
    t_load = time.perf_counter()
    result = run_table(net, args.walkers, args.seed)
    t_end = time.perf_counter()
    result["load_s"] = t_load - t_start
    result["dollar_s"] = t_end - t_load
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
