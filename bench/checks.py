"""Output checks: each operation's output against the library reference.

Every check returns a list of error strings; an empty list is a pass.
Deterministic outputs must match the reference bit for bit (floats are
written in shortest round-trip form, so equal text parses to equal
doubles). Monte Carlo shares are judged against exact absorption rows by
:class:`McPool`.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from workload import DEFAULT_ALPHAS

#: ROADMAP gate for detailed balance (relative to total flux) and for
#: imbalance reconstruction (relative).
GATE = 1e-9
#: Exact rows recomputed in a child process may differ by BLAS rounding.
EXACT_ATOL = 1e-12
#: Walkers not absorbed above this fraction make the library warn.
NON_ABSORBED_MAX = 0.01


def _mismatch(what: str, got: list, want: list) -> list[str]:
    if got == want:
        return []
    if len(got) != len(want):
        return [f"{what}: {len(got)} rows, expected {len(want)}"]
    i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    return [f"{what}: row {i} is {got[i]!r}, expected {want[i]!r}"]


def _csv_rows(path: Path) -> list[list[str]]:
    """Rows after the header."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def read_edges(path: Path) -> list[tuple[str, str, float]]:
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline() != "src\tdst\tweight\n":
            raise ValueError(f"{path.name}: bad header")
        return [(s, d, float(w)) for s, d, w in (line.split("\t") for line in fh)]


def check_network(net, ref) -> list[str]:
    got = [(net.countries[i], net.countries[j], w) for i, j, w in net.iter_edges()]
    return _mismatch("network", got, ref.edges)


def check_build(out: Path, ref, stderr: str) -> list[str]:
    errors = _mismatch("network.tsv", read_edges(out / "network.tsv"), ref.edges)
    rows = _csv_rows(out / "accounts.csv")
    got = [(c, int(ki), int(ko), float(si), float(so), float(d), cl)
           for c, ki, ko, si, so, d, cl in rows]
    want = [(a.country, a.k_in, a.k_out, a.s_in, a.s_out, a.delta_s, a.classification)
            for a in ref.accounts]
    errors += _mismatch("accounts.csv", got, want)
    if "dropped" in stderr:
        errors.append("build dropped records")
    if f" {ref.report.n_conflicts} conflicts" not in stderr:
        errors.append(f"build did not report {ref.report.n_conflicts} conflicts")
    return errors


def check_disparity(out: Path, ref) -> list[str]:
    rows = _csv_rows(out / "disparity_profile.csv")
    got = [(d, int(k), float(m), float(nm), float(p2), int(n)) for d, k, m, nm, p2, n in rows]
    want = [(d, r.k, r.mean_ky, r.null_mean, r.null_p2sigma, r.n_nodes)
            for d in ("in", "out") for r in ref.profiles[d].rows]
    errors = _mismatch("disparity_profile.csv", got, want)
    fits = json.loads((out / "scaling_fit.json").read_text(encoding="utf-8"))
    for d, fit in ref.fits.items():
        want_fit = {"beta": fit.beta, "intercept": fit.intercept,
                    "r_squared": fit.r_squared, "k_range": list(fit.k_range),
                    "n_points": fit.n_points}
        if fits.get(d) != want_fit:
            errors.append(f"scaling_fit.json[{d}] is {fits.get(d)}, expected {want_fit}")
    return errors


def check_backbone(out: Path, ref) -> list[str]:
    rows = _csv_rows(out / "backbone_stats.csv")
    got = [tuple(float(x) for x in row) for row in rows]
    want = [(s.alpha, s.pct_flux, s.pct_nodes, s.pct_edges) for s in ref.backbone_stats]
    errors = _mismatch("backbone_stats.csv", got, want)
    for alpha in DEFAULT_ALPHAS:
        with open(out / f"backbone_a{alpha:g}.tsv", "r", encoding="utf-8") as fh:
            kept = sum(1 for _ in fh) - 1
        if kept != ref.backbone_kept[alpha]:
            errors.append(f"backbone at {alpha:g} kept {kept} edges, "
                          f"expected {ref.backbone_kept[alpha]}")
    return errors


def read_ranking(path: Path) -> list[tuple[str, float, float, bool]]:
    rows = _csv_rows(path)
    return [(p, float(g), float(loc), d == "true") for _, p, g, loc, d in rows]


def check_ranking(ranking, ref, start: str, direction: str) -> list[str]:
    """Partners are absorbers, shares fall, local shares match the edge list."""
    net = ref.net
    s = net.index[start]
    sign = 1.0 if direction == "forward" else -1.0
    total = net.s_out[s] if direction == "forward" else net.s_in[s]
    errors = []
    for rank, (partner, share, local, direct) in enumerate(ranking, start=1):
        p = net.index.get(partner)
        if p is None or sign * net.delta_s[p] <= 0:
            errors.append(f"rank {rank}: {partner} is not an absorber")
            continue
        w = net.weight_between(s, p) if direction == "forward" else net.weight_between(p, s)
        want = float(100.0 * w / total) if total > 0 else 0.0
        if (local, direct) != (want, w > 0):
            errors.append(f"rank {rank}: local share {local!r} ({direct}), "
                          f"expected {want!r} ({w > 0})")
    keys = [(-g, p) for p, g, _, _ in ranking]
    if keys != sorted(keys) or any(g <= 0 for _, g, _, _ in ranking):
        errors.append("ranking is not in falling share order")
    if sum(g for _, g, _, _ in ranking) > 100.0 * (1.0 + GATE):
        errors.append("ranking shares exceed 100%")
    return errors


def check_dollar_mc(out: Path, ref, start: str, walkers: int, pool, key) -> list[str]:
    ranking = read_ranking(out / f"ranking_{start}_forward.csv")
    errors = check_ranking(ranking, ref, start, "forward")
    diag = json.loads((out / "dollar_diagnostics.json").read_text(encoding="utf-8"))
    if diag.get("method") != "monte-carlo" or diag.get("n_walkers") != walkers:
        errors.append(f"diagnostics describe {diag.get('method')} with "
                      f"{diag.get('n_walkers')} walkers")
    if not diag.get("non_absorbed", 1.0) <= NON_ABSORBED_MAX or diag.get("warnings"):
        errors.append(f"walkers not absorbed: {diag.get('non_absorbed')}")
    exact = ref.exact["forward"]
    shares = {p: g / 100.0 for p, g, _, _ in ranking}
    pool.add(key, [shares.get(t, 0.0) for t in exact.targets],
             exact.shares[exact.starts.index(start)], walkers)
    return errors


def check_dollar_exact(out: Path, ref, start: str) -> list[str]:
    errors = check_ranking(read_ranking(out / f"ranking_{start}_forward.csv"),
                           ref, start, "forward")
    diag = json.loads((out / "dollar_diagnostics.json").read_text(encoding="utf-8"))
    for name in ("detailed_balance_rel_flux", "reconstruction_rel_err_forward",
                 "reconstruction_rel_err_backward"):
        if not diag.get(name, math.inf) <= GATE:
            errors.append(f"{name} = {diag.get(name)} exceeds {GATE}")
    return errors


def check_export(out: Path, ref) -> list[str]:
    nodes = edges = 0
    for _, elem in ET.iterparse(out / "network.graphml"):
        tag = elem.tag.rsplit("}", 1)[-1]
        nodes += tag == "node"
        edges += tag == "edge"
        if tag in ("node", "edge"):
            elem.clear()
    if (nodes, edges) != (ref.net.n_nodes, ref.net.n_edges):
        return [f"network.graphml has {nodes} nodes and {edges} edges, "
                f"expected {ref.net.n_nodes} and {ref.net.n_edges}"]
    return []


#: Operations of one paper_table session, in the order they run.
TABLE_OPS = ("exact_forward", "exact_backward", "detailed_balance", "reconstruction") + tuple(
    f"{kind}_{i}" for i in range(4) for kind in ("mc", "rank")
)


def check_table(result: dict, ref, walkers: int, pool, key) -> dict[str, list[str]]:
    """Errors per operation of a paper_table session's JSON result."""
    errors = {op: [] for op in TABLE_OPS}
    if not result.get("detailed_balance_rel", math.inf) <= GATE:
        errors["detailed_balance"].append(
            f"detailed balance {result.get('detailed_balance_rel')} exceeds {GATE}")
    if not result.get("reconstruction_rel", math.inf) <= GATE:
        errors["reconstruction"].append(
            f"reconstruction {result.get('reconstruction_rel')} exceeds {GATE}")
    starts = [("forward", c) for c in ref.consumers] + [("backward", c) for c in ref.producers]
    walks = result.get("walks", [])
    if [(w["direction"], w["start"]) for w in walks] != starts:
        errors["mc_0"].append(f"walks started at {[w['start'] for w in walks]}, "
                              f"expected {[c for _, c in starts]}")
        return errors
    for i, walk in enumerate(walks):
        exact = ref.exact[walk["direction"]]
        row = exact.shares[exact.starts.index(walk["start"])]
        op = f"exact_{walk['direction']}"
        if np.max(np.abs(np.asarray(walk["exact"]) - row), initial=0.0) > EXACT_ATOL:
            errors[op].append(f"exact row of {walk['start']} differs from the reference")
        if walk["targets"] != list(exact.targets):
            errors[f"mc_{i}"].append(f"walk {i} targets differ from the exact solve")
            continue
        if not walk["non_absorbed"] <= NON_ABSORBED_MAX:
            errors[f"mc_{i}"].append(f"walk {i}: {walk['non_absorbed']} not absorbed")
        pool.add((key, i), walk["mc"], row, walkers)
        ranking = [tuple(r) for r in walk["ranking"]]
        errors[f"rank_{i}"] += check_ranking(ranking, ref, walk["start"], walk["direction"])
        mc = dict(zip(walk["targets"], walk["mc"]))
        if any(g != 100.0 * mc[p] for p, g, _, _ in ranking):
            errors[f"rank_{i}"].append(f"walk {i}: ranking shares differ from the walk")
    return errors


class McPool:
    """Monte Carlo rows against exact rows, pooled over one run.

    The C05 rule allows 1% of cells outside 3 standard errors. It was set
    for the ~1,000 cells of 20 networks; a run here pools 100 to 2,000
    (about 100 per walk), and a correct sampler puts each cell outside with
    probability 2*Phi(-3) = 0.27%, so at 300 cells the plain 1% allowance
    (3 cells) would fail about one correct run in a hundred. The allowance
    is therefore the larger of 1% and the count a correct sampler exceeds
    with probability below 1e-4.
    A broken sampler moves most cells by many standard errors and fails
    either way.
    """

    OUTSIDE_P = 2.0 * 0.0013498980316301  # 2*Phi(-3)
    FALSE_ALARM = 1e-4

    def __init__(self):
        self.rows = {}

    def add(self, key, mc, exact, walkers: int) -> None:
        self.rows[key] = (np.asarray(mc, dtype=float), np.asarray(exact, dtype=float), walkers)

    @classmethod
    def allowed(cls, cells: int) -> int:
        lam = cls.OUTSIDE_P * cells
        k, term = 0, math.exp(-lam)
        cdf = term
        while 1.0 - cdf > cls.FALSE_ALARM:
            k += 1
            term *= lam / k
            cdf += term
        return max(int(0.01 * cells), k)

    def verdict(self) -> tuple[int, int, int]:
        """(cells outside 3 SE, cells, cells allowed outside)."""
        outside = cells = 0
        for mc, p, n in self.rows.values():
            se = np.sqrt(p * (1.0 - p) / n)
            outside += int(np.count_nonzero(np.abs(mc - p) > 3.0 * se))
            cells += p.size
        return outside, cells, self.allowed(cells)
