"""Workload definitions, seeded inputs, and the reference answers checks use.

The generator emits exactly one dyadic row per ordered (reporter, partner)
pair that trades in at least one direction. The row carries the reporter's
own view of both flows, each with independent multiplicative reporting
noise, so the mirror reports of every flow disagree slightly (conflicts)
while no pair is reported twice (nothing is dropped).

The reference answers come from the library itself, called on in-memory
records that never pass through the CSV parser, so a defect anywhere in the
file-to-file path shows as a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import ndtri

YEAR = 2000
NOISE = 0.02
DEFAULT_ALPHAS = (0.2, 0.1, 0.05, 0.01)
#: Set-ups per run; set-up time is their median.
SETUPS = 3


@dataclass(frozen=True)
class Workload:
    """One closed-loop client running its steps one after another."""

    name: str
    n: int
    density: float
    kind: str  # "pipeline": the CLI subcommands; "table": one library session
    dollar: str  # "mc", "exact", or "both"
    walkers: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_mc", 200, 0.6, "pipeline", "mc", 1_000_000,
            "paper scale through the CLI: start-up and import, then the Monte "
            "Carlo walker; bypasses the exact solver",
        ),
        Workload(
            "scale_exact", 1000, 0.1, "pipeline", "exact", 0,
            "5x the paper's edges through the CLI: ingest, edge-list and GraphML "
            "I/O and the exact solves; bypasses the Monte Carlo walker",
        ),
        Workload(
            "paper_table", 200, 0.6, "table", "both", 1_000_000,
            "the paper's dollar table in one library session: import and load "
            "once, exact solves, four MC walks incl. backward; no ingest or writes",
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload at n=20, small enough to run in seconds."""
    return replace(workload, n=20, density=0.6, walkers=20_000)


@dataclass(frozen=True)
class Inputs:
    """Generated records for one input set."""

    countries: tuple[str, ...]
    reporter: np.ndarray
    partner: np.ndarray
    exports: np.ndarray
    imports: np.ndarray


def generate(n: int, density: float, seed: int) -> Inputs:
    """Gravity-like flows between ``n`` countries; each directed flow exists
    with probability ``density``.

    Which flows exist and their true sizes come from a fixed stream per
    (n, density): the Monte Carlo walker's cost follows the realised mean
    hops per walker, which varies by ~12% between independently drawn
    networks of this size, and a benchmark whose work depends on the seed
    cannot hold a bound. The seed draws the country labels (so row and edge
    order differ between seeds) and the reporting noise.
    """
    base = np.random.default_rng([n, round(density * 1000)])
    # lognormal sizes at fixed quantiles make strengths heavy-tailed
    size = np.exp(ndtri((np.arange(n) + 0.5) / n))
    present = base.random((n, n)) < density
    np.fill_diagonal(present, False)
    true = np.where(present, np.outer(size, size) * base.lognormal(3.0, 1.0, (n, n)), 0.0)
    reporter, partner = np.nonzero(present | present.T)

    rng = np.random.default_rng(seed)
    width = len(str(n - 1))
    countries = tuple(f"C{i:0{width}d}" for i in rng.permutation(n))
    # the reporter's claims on its own exports and on its imports, each noisy
    exports = true[reporter, partner] * np.exp(NOISE * rng.standard_normal(reporter.size))
    imports = true[partner, reporter] * np.exp(NOISE * rng.standard_normal(reporter.size))
    return Inputs(countries, reporter, partner, exports, imports)


def _rows(inputs: Inputs):
    c = inputs.countries
    return (
        (c[r], c[p], e, i)
        for r, p, e, i in zip(
            inputs.reporter.tolist(),
            inputs.partner.tolist(),
            inputs.exports.tolist(),
            inputs.imports.tolist(),
        )
    )


def write_records(inputs: Inputs, path: Path) -> None:
    """Records CSV with floats in shortest round-trip form."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("year,reporter,partner,exports,imports\n")
        fh.writelines(f"{YEAR},{r},{p},{e!r},{i!r}\n" for r, p, e, i in _rows(inputs))


@dataclass
class Reference:
    """Library answers for one input set."""

    net: object
    report: object
    edges: list
    accounts: list
    backbone_stats: list
    backbone_kept: dict
    profiles: dict
    fits: dict
    consumers: tuple[str, str]  # the two largest net consumers, largest first
    producers: tuple[str, str]  # the two largest net producers, largest first
    exact: dict  # direction -> AbsorptionMatrix, when asked for


def reference(inputs: Inputs, directions: tuple[str, ...]) -> Reference:
    """Reconcile, build, profile and filter in-process; solve the absorbing
    system exactly for each of ``directions``."""
    from tradeflux import (
        DyadicRecord,
        backbone_sweep,
        build_imbalance_network,
        disparity_profile,
        exact_absorption,
        fit_scaling_exponent,
        node_accounts,
        reconcile_flows,
    )

    records = [DyadicRecord(YEAR, r, p, e, i) for r, p, e, i in _rows(inputs)]
    matrix, report = reconcile_flows(records, YEAR, policy="average")
    net = build_imbalance_network(matrix)
    sweep = backbone_sweep(net, DEFAULT_ALPHAS)
    profiles = {d: disparity_profile(net, d) for d in ("in", "out")}
    order = np.argsort(net.delta_s, kind="stable")
    return Reference(
        net=net,
        report=report,
        edges=[(net.countries[i], net.countries[j], w) for i, j, w in net.iter_edges()],
        accounts=node_accounts(net),
        backbone_stats=[s for _, s in sweep],
        backbone_kept={b.threshold: b.n_edges for b, _ in sweep},
        profiles=profiles,
        fits={d: fit_scaling_exponent(p, k_min=2) for d, p in profiles.items()},
        consumers=(net.countries[order[0]], net.countries[order[1]]),
        producers=(net.countries[order[-1]], net.countries[order[-2]]),
        exact={d: exact_absorption(net, d) for d in directions},
    )
