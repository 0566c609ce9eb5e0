"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: the edge
builder is checked against a quadratic double loop, the significance
closed form against adaptive quadrature, the vectorised walker
against a one-walker-at-a-time Python loop, the streamed GraphML writer
against an ElementTree build of the same document, the vectorised
reconciliation against a dict loop over the claims, the matrix check
against the per-cell loops it replaced, the columnar
readers against the row-at-a-time readers they replaced, the
per-degree-class concentration kernel against a per-node loop, the
numpy reachability search against the scipy ``csgraph`` one it replaced,
the blocked exact solve against a dense matrix inverse, and the closed-form
null moments against random partitions drawn by breaking a stick.
"""

import ast
import csv
import io
import math
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy import integrate
from scipy.sparse import csgraph

import tradeflux
from tradeflux.disparity import (
    DIRECTIONS,
    DisparityPoint,
    ProfileRow,
    null_model_moments,
)
from tradeflux.errors import ConfigurationError
from tradeflux.ingest import (
    CONFLICT_TOLERANCE,
    MISSING_TOKENS,
    ColumnMap,
    DyadicRecord,
    TradeMatrix,
    ValidationReport,
)
from tradeflux.network import ImbalanceNetwork, build_imbalance_network


def traced_peak(call):
    """What ``call()`` returns, and the most memory tracemalloc saw it hold
    beyond what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def package_uses(matches) -> set:
    """``(module, function)`` for each node of ``src/tradeflux/*.py`` that
    ``matches(node)`` accepts, naming the innermost function it lies in
    (``None`` outside any)."""
    uses = set()
    for path in sorted(Path(tradeflux.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs = [d for d in ast.walk(tree) if isinstance(d, ast.FunctionDef)]
        for node in filter(matches, ast.walk(tree)):
            # ast.walk meets an enclosing def before the defs nested in it
            inside = [d.name for d in defs if d.lineno <= node.lineno <= d.end_lineno]
            uses.add((path.stem, inside[-1] if inside else None))
    return uses


def dense_fundamental(net: ImbalanceNetwork, direction: str):
    """``N = (I - Q)^-1`` and ``B = P diag(a)``, formed densely over every node
    of ``net`` (reversed for the backward walk) by matrix inversion."""
    work = net if direction == "forward" else net.reverse()
    hop = np.zeros((work.n_nodes, work.n_nodes))
    hop[work.src, work.dst] = work.weight / work.s_out[work.src]
    absorb = np.where(work.delta_s > 0, work.delta_s / np.maximum(work.s_in, 1e-300), 0.0)
    q = hop * (1.0 - absorb)[None, :]
    return np.linalg.inv(np.eye(work.n_nodes) - q), hop * absorb[None, :]


def system_size(net: ImbalanceNetwork, direction: str) -> int:
    """m, the number of nodes whose walks in ``direction`` can reach an
    absorber: the unknowns of the exact system, found by ``csgraph``."""
    work = net if direction == "forward" else net.reverse()
    return int(np.count_nonzero(csgraph_reaches(work, work.delta_s > 0)))


def check_block_solve(net: ImbalanceNetwork, block: int) -> None:
    """Solve ``net``'s exact systems ``block`` unknowns at a time and check them
    against ``dense_fundamental`` at 1e-12, in both directions: every start's
    shares and hops (identity weights), and ``_focal_solve``'s shares, hops
    and reconstruction for the largest start. No ``np.linalg.solve`` call may
    get a matrix wider than one block; tracemalloc cannot see LAPACK's own
    copy of its matrix, so only a count of what LAPACK is given bounds it."""
    from unittest import mock

    from tradeflux import diffusion
    from tradeflux.network import total_flux

    with mock.patch.object(diffusion, "_SOLVE_BLOCK", block), \
            mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as spy:
        for direction in diffusion.DIRECTIONS:
            m = system_size(net, direction)
            assert m > 2 * block
            spy.reset_mock()
            starts, sinks, solved, solved_hops, _ = diffusion._solve(
                net, direction, lambda s, _: np.eye(s.size)
            )
            assert spy.call_count == -(-m // block)
            fundamental, b = dense_fundamental(net, direction)
            shares = (fundamental @ b)[np.ix_(starts, sinks)]
            hops = fundamental.sum(axis=1)[starts]
            np.testing.assert_allclose(solved, shares, rtol=0, atol=1e-12)
            np.testing.assert_allclose(solved_hops, hops, rtol=1e-12)

            mass = np.abs(net.delta_s)
            worst = np.max(np.abs(mass[starts] @ shares - mass[sinks]) / mass[sinks])
            row = int(np.argmax(mass[starts]))
            matrix, probe, errors = diffusion._focal_solve(
                net, net.countries[starts[row]], direction
            )
            np.testing.assert_allclose(matrix.shares[0], shares[row], rtol=0, atol=1e-12)
            assert abs(matrix.non_absorbed[0]) < 1e-12
            assert abs(matrix.mean_hops - hops[row]) <= 1e-12 * hops[row]
            assert abs(errors[direction] - worst) <= 1e-12
            assert probe < 1e-12 * total_flux(net)
        assert all(max(call.args[0].shape) <= block for call in spy.call_args_list)


def random_trade_matrix(rng, n=20, density=0.4, year=2000) -> TradeMatrix:
    """Random export matrix with lognormal entries and a zero diagonal."""
    codes = tuple(f"C{i:03d}" for i in range(n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    exports = np.where(mask, rng.lognormal(3.0, 1.0, (n, n)), 0.0)
    return TradeMatrix(year, codes, exports)


def matrix_violations(countries, exports) -> list[str]:
    """Every matrix rule ``exports`` breaks, as the per-cell loops that
    ``TradeMatrix``'s check replaced listed them: each nonzero diagonal
    cell, then each non-finite cell, then each negative cell, each kind in
    row-major order."""
    matrix = np.asarray(exports, dtype=float)
    violations = []
    for i in np.flatnonzero(np.diag(matrix) != 0.0):
        violations.append(f"nonzero diagonal at {countries[i]}")
    for i, j in zip(*np.nonzero(~np.isfinite(matrix))):
        violations.append(f"non-finite entry at {countries[i]}->{countries[j]}")
    for i, j in zip(*np.nonzero(matrix < 0)):
        violations.append(f"negative entry at {countries[i]}->{countries[j]}")
    return violations


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
            out = net.src == cur
            targets, weights = net.dst[out], net.weight[out]
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


def csgraph_reaches(work: ImbalanceNetwork, seed_mask: np.ndarray) -> np.ndarray:
    """Mask of nodes from which some seed node is reachable.

    A breadth-first search over the reversed edges, started at an extra
    node with one edge into every seed.
    """
    n = work.n_nodes
    seeds = np.flatnonzero(seed_mask)
    rows = np.concatenate([work.dst, np.full(seeds.size, n)])
    cols = np.concatenate([work.src, seeds])
    reversed_graph = scipy.sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(n + 1, n + 1)
    )
    found = csgraph.breadth_first_order(reversed_graph, n, return_predecessors=False)
    reach = np.zeros(n + 1, dtype=bool)
    reach[found] = True
    return reach[:n]


def weak_components(n: int, edges) -> list[list[int]]:
    """Weakly connected components by repeated flooding, largest first;
    nodes without edges belong to none."""
    neighbours = {v: set() for v in range(n)}
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    unseen = {v for v in range(n) if neighbours[v]}
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


_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def elementtree_graphml(net: ImbalanceNetwork, edge_attrs=None) -> bytes:
    """GraphML document built as an ElementTree, indented and serialised
    by the standard library."""
    ET.register_namespace("", _GRAPHML_NS)
    root = ET.Element(f"{{{_GRAPHML_NS}}}graphml")
    node_attrs = ("s_in", "s_out", "delta_s")
    node_keys = {}
    for name in node_attrs:
        key_id = f"n_{name}"
        ET.SubElement(
            root,
            f"{{{_GRAPHML_NS}}}key",
            id=key_id,
            attrib={"for": "node", "attr.name": name, "attr.type": "double"},
        )
        node_keys[name] = key_id
    edge_names = ("weight",) + tuple(edge_attrs or ())
    edge_keys = {}
    for name in edge_names:
        key_id = f"e_{name}"
        ET.SubElement(
            root,
            f"{{{_GRAPHML_NS}}}key",
            id=key_id,
            attrib={"for": "edge", "attr.name": name, "attr.type": "double"},
        )
        edge_keys[name] = key_id

    graph = ET.SubElement(
        root, f"{{{_GRAPHML_NS}}}graph", id="G", edgedefault="directed"
    )
    for i, code in enumerate(net.countries):
        node = ET.SubElement(graph, f"{{{_GRAPHML_NS}}}node", id=code)
        for name, values in (
            ("s_in", net.s_in),
            ("s_out", net.s_out),
            ("delta_s", net.delta_s),
        ):
            data = ET.SubElement(node, f"{{{_GRAPHML_NS}}}data", key=node_keys[name])
            data.text = repr(float(values[i]))
    for e, (i, j, w) in enumerate(net.iter_edges()):
        edge = ET.SubElement(
            graph,
            f"{{{_GRAPHML_NS}}}edge",
            source=net.countries[i],
            target=net.countries[j],
        )
        data = ET.SubElement(edge, f"{{{_GRAPHML_NS}}}data", key=edge_keys["weight"])
        data.text = repr(w)
        for name, values in (edge_attrs or {}).items():
            data = ET.SubElement(edge, f"{{{_GRAPHML_NS}}}data", key=edge_keys[name])
            data.text = repr(float(values[e]))

    tree = ET.ElementTree(root)
    ET.indent(tree)
    buf = io.BytesIO()
    tree.write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue()


def _resolve_claims(exp_side, imp_side, policy: str) -> float:
    if exp_side is None and imp_side is None:
        return 0.0
    if exp_side is None:
        return imp_side
    if imp_side is None:
        return exp_side
    if policy == "average":
        mean = 0.5 * (exp_side + imp_side)
        # two claims near the float limit overflow their sum; halve each first
        return mean if math.isfinite(mean) else 0.5 * exp_side + 0.5 * imp_side
    if policy == "prefer-importer":
        return imp_side
    if policy == "prefer-exporter":
        return exp_side
    return max(exp_side, imp_side)


def dict_loop_reconcile(records, year: int, policy: str = "average"):
    """Reconciliation one claim at a time through dicts keyed by pair.

    Takes the records of one year and a known policy; returns the same
    ``(TradeMatrix, ValidationReport)`` pair as ``reconcile_flows``.
    """
    dropped = []
    by_pair = {}
    for record in records:
        key = (record.reporter, record.partner)
        if key in by_pair:
            dropped.append(
                (f"{record.reporter}->{record.partner}", "duplicate report for pair")
            )
            continue
        by_pair[key] = record

    countries = tuple(sorted({c for pair in by_pair for c in pair}))
    index = {code: i for i, code in enumerate(countries)}
    exports = np.zeros((len(countries), len(countries)))

    # Claims about the flow a->b: exporter side from a's record, importer
    # side from b's record.
    claims = {}
    for (reporter, partner), record in by_pair.items():
        if record.exports is not None:
            claims.setdefault((reporter, partner), [None, None])[0] = record.exports
        if record.imports is not None:
            claims.setdefault((partner, reporter), [None, None])[1] = record.imports

    n_conflicts = 0
    max_rel = 0.0
    for (source, destination), (exp_side, imp_side) in claims.items():
        exports[index[source], index[destination]] = _resolve_claims(
            exp_side, imp_side, policy
        )
        if exp_side is not None and imp_side is not None:
            denom = max(abs(exp_side), abs(imp_side))
            rel = abs(exp_side - imp_side) / denom if denom > 0 else 0.0
            max_rel = max(max_rel, rel)
            if rel > CONFLICT_TOLERANCE:
                n_conflicts += 1

    report = ValidationReport(
        n_records=len(records),
        n_conflicts=n_conflicts,
        max_relative_conflict=max_rel,
        dropped=tuple(dropped),
    )
    return TradeMatrix(year, countries, exports), report


def _parse_flow(token: str, name: str) -> float | None:
    if token is None or token.strip().lower() in MISSING_TOKENS:
        return None
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric {name} value {token!r}") from None
    if math.isnan(value):
        return None
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name} value {token!r}")
    if value < 0:
        raise ValueError(f"negative {name} value {token!r}")
    return value


def _rowwise_codes_fault(reporter: str, partner: str) -> str | None:
    """Why a row naming ``reporter`` and ``partner`` is dropped for its
    codes, or ``None``: an empty code first, then whitespace, then the
    reporter's fault, then the partner's."""
    if "" in (reporter, partner):
        return "country codes must be non-empty"
    if any(c.isspace() for c in reporter + partner):
        return "country codes must be whitespace-free tokens"
    for code in (reporter, partner):
        if fault := _linewise_code_fault(code):
            return f"country codes must not {fault}"
    return None


def rowwise_parse_dyadic_records(path, columns):
    """Records parsed one ``csv`` row at a time, each row's flows and codes
    checked here; returns ``(records, dropped)``."""
    columns = columns or ColumnMap()
    with open(path, encoding="utf-8", newline="") as stream:
        header_line = stream.readline()
        if not header_line:
            return [], []
        delimiter = "\t" if "\t" in header_line else ","
        header = next(csv.reader([header_line], delimiter=delimiter))
        positions = {}
        for name in ("year", "reporter", "partner", "exports", "imports"):
            wanted = getattr(columns, name)
            try:
                positions[name] = header.index(wanted)
            except ValueError:
                lowered = [h.strip().lower() for h in header]
                if wanted.lower() in lowered:
                    positions[name] = lowered.index(wanted.lower())
                else:
                    raise ConfigurationError(
                        f"required column {wanted!r} not found in header {header}"
                    ) from None

        records, dropped = [], []
        reader = csv.reader(stream, delimiter=delimiter)
        line_no = 2  # where the next row starts: rows are numbered by physical line
        for row in reader:
            where, line_no = f"line {line_no}", 2 + reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                if len(row) <= max(positions.values()):
                    raise ValueError(
                        f"expected {len(header)} columns, got {len(row)}"
                    )
                year = int(row[positions["year"]].strip())
                reporter = row[positions["reporter"]].strip()
                partner = row[positions["partner"]].strip()
                exports = _parse_flow(row[positions["exports"]], "export")
                imports = _parse_flow(row[positions["imports"]], "import")
                if reporter == partner:
                    raise ValueError("self-trade")
                if fault := _rowwise_codes_fault(reporter, partner):
                    raise ValueError(fault)
            except ValueError as exc:
                dropped.append((where, str(exc)))
                continue
            records.append(DyadicRecord(year, reporter, partner, exports, imports))
        return records, dropped


def _linewise_code_fault(code: str) -> str | None:
    if any(ord(c) < 0x20 for c in code):
        return "contain control characters"
    if code[0] == "#":
        return "start with '#'"
    if set(code) & {",", '"'}:
        return "contain ',' or '\"'"
    if any(c in "\ufffe\uffff" or "\ud800" <= c <= "\udfff" for c in code):
        return "contain U+FFFE, U+FFFF or a surrogate"
    return None


def linewise_read_edge_list(path) -> ImbalanceNetwork:
    """Edge list read one line at a time into ``(src, dst, weight)`` tuples.

    Beyond the reader it replaced, it rejects, after the weight check,
    codes that some output could not carry: with a C0 control character
    (GraphML), a leading ``#`` (the edge list), a ``,`` or ``"`` (CSV), or
    U+FFFE, U+FFFF or a surrogate (GraphML again);
    and it adds the codes of ``#countries`` lines to the countries.
    """
    edges, listed = [], []
    with open(path, encoding="utf-8", newline="") as stream:
        for line_no, line in enumerate(stream, start=1):
            parts = line.split()
            if parts[:1] == ["#countries"]:
                for code in parts[1:]:
                    if fault := _linewise_code_fault(code):
                        raise ValueError(f"line {line_no}: country code {code!r} must not {fault}")
                listed += parts[1:]
                continue
            if not parts or line.lstrip().startswith("#"):
                continue
            if len(parts) != 3:
                raise ValueError(f"line {line_no}: expected 'src dst weight'")
            try:
                w = float(parts[2])
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise ValueError(f"line {line_no}: bad weight {parts[2]!r}") from None
            for code in parts[:2]:
                if fault := _linewise_code_fault(code):
                    raise ValueError(f"line {line_no}: country code {code!r} must not {fault}")
            edges.append((parts[0], parts[1], w))
    countries = sorted({*listed, *(code for s, d, _ in edges for code in (s, d))})
    return ImbalanceNetwork.from_edges(edges, countries)


def null_model_shares(k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` random partitions of 1 into k shares, shape (size, k).

    Shares are the gaps between k - 1 sorted uniform points, so each row
    sums to one by construction.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k == 1:
        return np.ones((size, 1))
    cuts = np.sort(rng.random((size, k - 1)), axis=1)
    bounds = np.concatenate(
        [np.zeros((size, 1)), cuts, np.ones((size, 1))], axis=1
    )
    return np.diff(bounds, axis=1)


def null_model_sample(k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` values of kY under the random-partition null."""
    shares = null_model_shares(k, size, rng)
    return k * np.sum(shares**2, axis=1)


def pernode_disparity_points(net: ImbalanceNetwork, direction: str) -> list:
    """``disparity_points`` with kY summed one node at a time, as
    ``np.sum`` sums that node's own weights."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    degrees = net.k_in if direction == "in" else net.k_out
    strengths = net.s_in if direction == "in" else net.s_out
    points = []
    for i, code in enumerate(net.countries):
        k = int(degrees[i])
        if k == 0:
            continue
        weights = net.weight[(net.dst if direction == "in" else net.src) == i]
        p = weights / weights.sum()
        mean, var = null_model_moments(k)
        points.append(
            DisparityPoint(
                country=code,
                direction=direction,
                k=k,
                strength=float(strengths[i]),
                ky=float(p.size * np.sum(p**2)),
                null_mean=mean,
                null_sigma=float(np.sqrt(var)),
            )
        )
    return points


def pernode_profile_rows(points) -> list:
    """``disparity_profile``'s rows, grouped from per-node points."""
    by_k = {}
    for pt in points:
        by_k.setdefault(pt.k, []).append(pt)
    rows = []
    for k in sorted(by_k):
        group = by_k[k]
        mean, var = null_model_moments(k)
        rows.append(
            ProfileRow(
                k=k,
                mean_ky=float(np.mean([pt.ky for pt in group])),
                null_mean=mean,
                null_p2sigma=mean + 2.0 * float(np.sqrt(var)),
                n_nodes=len(group),
            )
        )
    return rows
