"""In-memory spans and the traced, in-process replay of each workload step.

The replay calls the same public tradeflux functions each CLI subcommand
calls, in the same order, and records a span around each call; nothing
is added to the library. ``ImbalanceNetwork.reverse`` runs inside
``exact_absorption`` and ``backward_walk_mc``, so it is wrapped for the
duration of a replay to give the reversal its own span. Layers a
workload's steps never call are then timed alone (:func:`time_alone`).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from workload import DEFAULT_ALPHAS, YEAR


class Tracer:
    """Spans with name, start, end, parent span and workload id, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def has(self, name: str) -> bool:
        return any(s["name"] == name for s in self.spans)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def layer_time(self, root: str) -> float:
        """Time covered by the direct children of the spans named ``root``."""
        roots = {s["id"] for s in self.spans if s["name"] == root}
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] in roots)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}, indent=1))


@contextlib.contextmanager
def traced_reverse(tracer: Tracer):
    from tradeflux.network import ImbalanceNetwork

    original = ImbalanceNetwork.reverse

    def reverse(self):
        with tracer.span("network.reverse"):
            return original(self)

    ImbalanceNetwork.reverse = reverse
    try:
        yield
    finally:
        ImbalanceNetwork.reverse = original


def _parse(path: Path):
    from tradeflux import parse_dyadic_records

    with open(path, "r", encoding="utf-8") as fh:
        return parse_dyadic_records(fh)


def _load(path: Path):
    from tradeflux import read_edge_list

    with open(path, "r", encoding="utf-8") as fh:
        return read_edge_list(fh)


def _write_edges(net, path: Path) -> None:
    from tradeflux import write_edge_list

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_edge_list(net, fh)


def _write_graphml(net, path: Path) -> None:
    from tradeflux import write_graphml

    with open(path, "wb") as fh:
        write_graphml(net, fh)


def _write_backbones(results, out: Path) -> None:
    from tradeflux.backbone import write_backbone_tsv, write_stats_csv

    for backbone, _ in results:
        path = out / f"backbone_a{backbone.threshold:g}.tsv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_backbone_tsv(backbone, fh)
    with open(out / "backbone_stats.csv", "w", encoding="utf-8", newline="\n") as fh:
        write_stats_csv([s for _, s in results], fh)


def _profiles(net) -> dict:
    from tradeflux import disparity_profile

    return {d: disparity_profile(net, d) for d in ("in", "out")}


def _fits(profiles: dict) -> dict:
    from tradeflux import fit_scaling_exponent

    return {d: fit_scaling_exponent(p, k_min=2) for d, p in profiles.items()}


def read_network(tracer: Tracer, path: Path):
    with tracer.span("network.read_edges"):
        return _load(path)


def replay_build(tracer: Tracer, records: Path, out: Path):
    """``build``: parse, reconcile, validate, build, account, write edges."""
    from tradeflux import (
        build_imbalance_network,
        node_accounts,
        reconcile_flows,
        validate_trade_matrix,
    )

    with tracer.span("cli.build"):
        with tracer.span("ingest.parse"):
            parsed = _parse(records)
        kept = [r for r in parsed.records if r.year == YEAR]
        with tracer.span("ingest.reconcile"):
            matrix, report = reconcile_flows(kept, YEAR, policy="average")
        with tracer.span("ingest.validate"):
            validation = validate_trade_matrix(matrix)
        with tracer.span("network.build"):
            net = build_imbalance_network(matrix)
        with tracer.span("network.accounts"):
            node_accounts(net)
        with tracer.span("network.write_edges"):
            _write_edges(net, out / "network.tsv")
    tracer.count("ingest.records", len(parsed.records))
    tracer.count("ingest.dropped", len(parsed.dropped) + len(report.dropped))
    tracer.count("ingest.conflicts", report.n_conflicts)
    tracer.count("ingest.input_bytes", records.stat().st_size)
    tracer.count("network.edges_bytes", (out / "network.tsv").stat().st_size)
    return net, validation.ok


def replay_disparity(tracer: Tracer, network: Path):
    with tracer.span("cli.disparity"):
        net = read_network(tracer, network)
        with tracer.span("disparity.profile"):
            profiles = _profiles(net)
        with tracer.span("disparity.fit"):
            _fits(profiles)
    tracer.count("disparity.degree_classes", sum(len(p.rows) for p in profiles.values()))
    return profiles


def replay_backbone(tracer: Tracer, network: Path, out: Path):
    from tradeflux import backbone_sweep

    with tracer.span("cli.backbone"):
        net = read_network(tracer, network)
        with tracer.span("backbone.sweep"):
            results = backbone_sweep(net, DEFAULT_ALPHAS)
        with tracer.span("backbone.write_tsv"):
            _write_backbones(results, out)
    tracer.count("backbone.kept_edges", sum(b.n_edges for b, _ in results))
    return [s for _, s in results]


def _ranked(tracer: Tracer, net, matrix, focal: str, out: Path):
    from tradeflux import rank_partners
    from tradeflux.diffusion import write_ranking_csv

    with tracer.span("diffusion.rank"):
        ranking = rank_partners(net, matrix, focal, top=net.n_nodes)
        with open(out / f"ranking_{focal}_forward.csv", "w", encoding="utf-8") as fh:
            write_ranking_csv(ranking, fh)
    return [(r.partner, r.global_share_pct, r.local_share_pct, r.direct) for r in ranking]


def replay_dollar_mc(tracer: Tracer, network: Path, focal: str, walkers: int, seed: int,
                     out: Path):
    from tradeflux import WalkConfig, forward_walk_mc, node_accounts

    with tracer.span("cli.dollar"):
        net = read_network(tracer, network)
        with tracer.span("network.accounts"):
            node_accounts(net)
        with tracer.span("diffusion.mc"):
            matrix = forward_walk_mc(net, focal, WalkConfig(n_walkers=walkers, seed=seed))
        ranking = _ranked(tracer, net, matrix, focal, out)
    tracer.count("diffusion.mc_walkers", walkers)
    tracer.count("diffusion.mc_non_absorbed", float(matrix.non_absorbed[0]))
    return matrix, ranking


def record_exact(tracer: Tracer, net, balance: float, recon: float) -> None:
    """Diagnostics, system sizes and dense-LU cost of the two exact solves.

    The solver restricts to the m nodes that can reach an absorber and has
    one right-hand side per absorber; LU of an m x m matrix costs 2m^3/3
    flops and each right-hand side 2m^2 more for the triangular solves.
    These costs are computed from m, not measured.
    """
    for absorbing, src, dst in ((net.delta_s > 0, net.src, net.dst),
                                (net.delta_s < 0, net.dst, net.src)):
        reach = absorbing
        while True:
            grown = reach.copy()
            grown[src[reach[dst]]] = True
            if np.array_equal(grown, reach):
                break
            reach = grown
        m, rhs = int(reach.sum()), int(absorbing.sum())
        tracer.counts["diffusion.exact_m"] = max(tracer.counts.get("diffusion.exact_m", 0), m)
        tracer.count("diffusion.exact_rhs", rhs)
        tracer.count("diffusion.exact_flops_computed", 2.0 * m**3 / 3.0 + 2.0 * m * m * rhs)
        tracer.count("diffusion.exact_bytes_computed", 8.0 * (m * m + 2.0 * m * rhs))
    tracer.counts["diffusion.detailed_balance_rel"] = balance
    tracer.counts["diffusion.reconstruction_rel"] = recon


def replay_dollar_exact(tracer: Tracer, network: Path, focal: str, out: Path):
    from tradeflux import exact_absorption, node_accounts

    from table import exact_diagnostics

    with tracer.span("cli.dollar"):
        net = read_network(tracer, network)
        with tracer.span("network.accounts"):
            accounts = node_accounts(net)
        with tracer.span("diffusion.exact_forward"):
            fwd = exact_absorption(net, "forward")
        with tracer.span("diffusion.exact_backward"):
            bwd = exact_absorption(net, "backward")
        with tracer.span("diffusion.balance"):
            balance, recon = exact_diagnostics(net, fwd, bwd, accounts)
        ranking = _ranked(tracer, net, fwd, focal, out)
    record_exact(tracer, net, balance, recon)
    return ranking


def replay_export(tracer: Tracer, network: Path, out: Path) -> None:
    with tracer.span("cli.export"):
        net = read_network(tracer, network)
        with tracer.span("network.write_graphml"):
            _write_graphml(net, out / "network.graphml")
    tracer.count("network.graphml_bytes", (out / "network.graphml").stat().st_size)


def time_alone(tracer: Tracer, records: Path, network: Path, focal: str, walkers: int,
               seed: int, out: Path) -> None:
    """Time alone, once, on this workload's inputs, each layer its steps
    never called.

    Every per-layer time is reported on every workload, yet paper_table
    never parses or filters and each pipeline either walks or solves. Such
    a layer runs here under the root span ``alone``, which no process's
    unaccounted time includes; its inputs are prepared outside its span.
    """
    from tradeflux import (
        WalkConfig,
        backbone_sweep,
        build_imbalance_network,
        exact_absorption,
        forward_walk_mc,
        node_accounts,
        rank_partners,
        reconcile_flows,
        validate_trade_matrix,
    )
    from tradeflux.network import ImbalanceNetwork

    from table import exact_diagnostics

    made = {}

    def once(key, make):
        if key not in made:
            made[key] = make()
        return made[key]

    def net():
        return once("net", lambda: _load(network))

    def parsed():
        return once("parsed", lambda: _parse(records))

    def matrix():
        return once("matrix", lambda: reconcile_flows(parsed().records, YEAR)[0])

    def exact(direction):
        return once(direction, lambda: exact_absorption(net(), direction))

    layers = (
        ("ingest.parse", lambda: (records,), _parse),
        ("ingest.reconcile", lambda: (parsed().records, YEAR), reconcile_flows),
        ("ingest.validate", lambda: (matrix(),), validate_trade_matrix),
        ("network.build", lambda: (matrix(),), build_imbalance_network),
        ("network.accounts", lambda: (net(),), node_accounts),
        ("network.write_edges", lambda: (net(), out / "network.tsv"), _write_edges),
        ("network.read_edges", lambda: (network,), _load),
        ("network.write_graphml", lambda: (net(), out / "network.graphml"), _write_graphml),
        ("disparity.profile", lambda: (net(),), _profiles),
        ("disparity.fit", lambda: (once("profiles", lambda: _profiles(net())),), _fits),
        ("backbone.sweep", lambda: (net(), DEFAULT_ALPHAS), backbone_sweep),
        ("backbone.write_tsv",
         lambda: (once("sweep", lambda: backbone_sweep(net(), DEFAULT_ALPHAS)), out),
         _write_backbones),
        ("diffusion.mc", lambda: (net(), focal, WalkConfig(n_walkers=walkers, seed=seed)),
         forward_walk_mc),
        ("diffusion.exact_forward", lambda: (net(), "forward"), exact_absorption),
        ("diffusion.exact_backward", lambda: (net(), "backward"), exact_absorption),
        ("network.reverse", lambda: (net(),), ImbalanceNetwork.reverse),
        ("diffusion.balance",
         lambda: (net(), exact("forward"), exact("backward"), node_accounts(net())),
         exact_diagnostics),
        ("diffusion.rank", lambda: (net(), exact("forward"), focal), rank_partners),
    )
    with tracer.span("alone"):
        for name, prepare, call in layers:
            if tracer.has(name):
                continue
            args = prepare()
            with tracer.span(name):
                result = call(*args)
            if name == "diffusion.mc":
                tracer.count("diffusion.mc_walkers", walkers)
            elif name == "diffusion.balance" and "diffusion.exact_m" not in tracer.counts:
                record_exact(tracer, net(), *result)
