"""Directed imbalance networks and per-node flux accounts.

Every unordered country pair with unbalanced bilateral trade contributes one
directed edge pointing from the deficit country to the surplus country,
weighted by the absolute net flow between them. The resulting graph is a
closed money-flow system: each edge adds the same amount to one node's
incoming strength and another's outgoing strength, so the total of all
node imbalances is zero.

Networks are immutable after construction; all account computations are
read-only and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import (CodeNumbers, _append, _control, _not_xml, code_fault, line_chunks,
                  opened, row_texts, write_text)

#: Relative tolerance below which a pair's net flow is treated as exactly
#: balanced (no edge), absorbing float noise from reconciliation arithmetic.
ZERO_IMBALANCE_RTOL = 1e-12


class ImbalanceNetwork:
    """Immutable directed weighted graph over a fixed country list.

    Edges are stored as parallel arrays ``src``, ``dst``, ``weight`` in
    canonical order (sorted by source index, then target index). Per-node
    degrees and strengths are precomputed:

    - ``k_in`` / ``k_out``: number of incoming / outgoing edges,
    - ``s_in`` / ``s_out``: summed incoming / outgoing weight,
    - ``delta_s``: ``s_in - s_out``, the node's net imbalance.

    Isolated countries stay in ``countries`` with all-zero accounts.
    At most one direction may exist per unordered pair, weights must be
    strictly positive and finite, and self-loops are rejected. Strengths
    must be finite too: weights summing past the float range are rejected.
    Every network, however made, is checked: its codes by ``_io.code_fault``, so
    that every file the pipeline writes can carry them, then its edges and strengths.
    Edge arrays given in canonical order and in the stored dtypes are kept,
    not copied, so they must not be changed afterwards.
    """

    def __init__(self, countries, src, dst, weight):
        self.countries: tuple[str, ...] = tuple(countries)
        n = len(self.countries)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=float)
        # keys sort like (src, dst); every file the pipeline writes is in that
        # order already, and then the arrays are kept as given
        keys = src * n + dst
        if np.any(keys[1:] <= keys[:-1]):
            order = np.argsort(keys, kind="stable")
            keys, src, dst, weight = keys[order], src[order], dst[order], weight[order]
        self.src, self.dst, self.weight = src, dst, weight
        self.index = {code: i for i, code in enumerate(self.countries)}
        if len(self.index) != len(self.countries):
            raise ValueError("duplicate country codes")
        for code in self.countries:
            if fault := code_fault(code):
                raise ValueError(f"country code {code!r} must not {fault}")
        self._check_invariants(keys)
        del keys

        self.k_in = np.bincount(self.dst, minlength=n)
        self.k_out = np.bincount(self.src, minlength=n)
        with np.errstate(over="ignore", invalid="ignore"):
            self.s_in = np.bincount(self.dst, weights=self.weight, minlength=n)
            self.s_out = np.bincount(self.src, weights=self.weight, minlength=n)
            self.delta_s = self.s_in - self.s_out
            # each is the total flux; infinite if any strength is
            totals = (self.s_in.sum(), self.s_out.sum())
        if not np.isfinite(totals).all():
            raise ValueError(
                "node strengths overflow: the edge weights sum past the float range"
            )

        # CSR-style adjacency. Outgoing edges are contiguous in canonical
        # order; incoming edges are indexed through a stable permutation.
        self._out_ptr = np.searchsorted(self.src, np.arange(n + 1))
        self._in_order = np.argsort(self.dst, kind="stable")
        self._in_ptr = np.searchsorted(self.dst[self._in_order], np.arange(n + 1))

    def _check_invariants(self, keys):
        """Check the edges, in canonical order, whose keys ``src * n + dst`` are ``keys``."""
        n = len(self.countries)
        if self.src.size:
            if self.src.min() < 0 or self.src.max() >= n:
                raise ValueError("edge source index out of range")
            if self.dst.min() < 0 or self.dst.max() >= n:
                raise ValueError("edge target index out of range")
        if np.any(self.src == self.dst):
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isfinite(self.weight)) or np.any(self.weight <= 0):
            raise ValueError("edge weights must be strictly positive and finite")
        # Report the first edge, in canonical order, repeating an earlier
        # pair or reversing one. Keys sort like canonical order, so repeats
        # are adjacent and a reversal (j, i) precedes (i, j) exactly when j < i.
        duplicate = np.zeros(keys.size, dtype=bool)
        duplicate[1:] = keys[1:] == keys[:-1]
        low = np.flatnonzero(self.dst < self.src)
        flipped = self.dst[low] * n + self.src[low]
        at = np.minimum(np.searchsorted(keys, flipped), max(keys.size - 1, 0))
        bad = np.concatenate([np.flatnonzero(duplicate)[:1], low[keys[at] == flipped][:1]])
        if bad.size:
            e = bad.min()
            i, j = self.src[e], self.dst[e]
            if duplicate[e]:
                raise ValueError(f"duplicate edge {self.countries[i]}->{self.countries[j]}")
            raise ValueError(
                f"reciprocal edges for pair {self.countries[i]}/{self.countries[j]}: "
                "an imbalance network carries at most one direction per pair"
            )

    @classmethod
    def from_edges(cls, edges, countries=None) -> "ImbalanceNetwork":
        """Build from ``(source_code, target_code, weight)`` triples.

        ``countries`` may list extra (isolated) nodes; by default the node
        set is the sorted set of codes appearing in the edges.
        """
        edges = list(edges)
        if countries is None:
            countries = sorted({c for s, d, _ in edges for c in (s, d)})
        index = {code: i for i, code in enumerate(countries)}
        src = [index[s] for s, _, _ in edges]
        dst = [index[d] for _, d, _ in edges]
        weight = [w for _, _, w in edges]
        return cls(countries, src, dst, weight)

    @property
    def n_nodes(self) -> int:
        return len(self.countries)

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    def iter_edges(self):
        """Yield ``(source_index, target_index, weight)`` in canonical order."""
        for i, j, w in zip(self.src, self.dst, self.weight):
            yield int(i), int(j), float(w)

    def weight_between(self, source: int, target: int) -> float:
        """Edge weight for source->target, or 0.0 when absent."""
        lo, hi = self._out_ptr[source], self._out_ptr[source + 1]
        e = lo + np.searchsorted(self.dst[lo:hi], target)
        return float(self.weight[e]) if e < hi and self.dst[e] == target else 0.0

    def _flood(self, seed_mask, against: bool = True, along: bool = False) -> np.ndarray:
        """Mask of the nodes a breadth-first search from ``seed_mask`` reaches
        ``against`` the edges (those that reach a seed), ``along`` them (those
        a seed reaches) or both (the seeds' weakly connected components).

        Each pass gathers the edges of the whole frontier at once, as
        ``np.repeat`` of their CSR row starts plus an ``arange``, so the
        Python loop runs once per BFS level, never once per node.
        """
        walks = [(self._in_ptr, self._in_order, self.src)] if against else []
        if along:
            walks.append((self._out_ptr, None, self.dst))
        seen = np.array(seed_mask, dtype=bool)
        frontier = np.flatnonzero(seen)
        while frontier.size:
            reached = []
            for ptr, order, ends in walks:
                lo = ptr[frontier]
                count = ptr[frontier + 1] - lo
                at = np.repeat(lo - (np.cumsum(count) - count), count)
                at += np.arange(at.size)
                reached.append(ends[at if order is None else order[at]])
            fresh = np.zeros_like(seen)
            fresh[np.concatenate(reached)] = True
            fresh &= ~seen
            seen |= fresh
            frontier = np.flatnonzero(fresh)
        return seen

    def reverse(self) -> "ImbalanceNetwork":
        """The same network with every edge flipped (weights kept)."""
        # by target, then source: the flipped edges' canonical order
        order = self._in_order
        return ImbalanceNetwork(self.countries, self.dst[order], self.src[order],
                                self.weight[order])


@dataclass(frozen=True)
class NodeAccount:
    """Degrees, strengths, and net imbalance of one country."""

    country: str
    k_in: int
    k_out: int
    s_in: float
    s_out: float
    delta_s: float

    @property
    def classification(self) -> str:
        """``sink`` (net producer), ``source`` (net consumer), or ``neutral``."""
        if self.delta_s > 0:
            return "sink"
        if self.delta_s < 0:
            return "source"
        return "neutral"


def build_imbalance_network(tm) -> ImbalanceNetwork:
    """Construct the imbalance network from a reconciled export matrix.

    For each pair the net flow is ``exports[i, j] - exports[j, i]``; the pair
    contributes a single edge from the deficit side to the surplus side
    carrying the absolute difference, or no edge when balanced within
    ``ZERO_IMBALANCE_RTOL`` relative to the larger gross flow. ``tm`` is a
    ``TradeMatrix``, checked when made; its ``exports`` must not change after.
    """
    exports = tm.exports
    n = len(exports)
    edges = [np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)]
    # a block of rows i at a time, about 2**16 cells: the edges i -> j, which
    # np.nonzero yields in canonical order
    step = max(1, (1 << 16) // max(n, 1))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        out, back = exports[rows], exports[:, rows].T
        # j has the surplus of the pair when it sells i more than it buys
        flow = back - out
        edge = flow > ZERO_IMBALANCE_RTOL * np.maximum(out, back)
        src, dst = np.nonzero(edge)
        _append(edges, (src + start, dst, flow[edge]))
    return ImbalanceNetwork(tm.countries, *edges)


def node_accounts(net: ImbalanceNetwork) -> list[NodeAccount]:
    """Per-country accounts in country order."""
    return [
        NodeAccount(
            country=code,
            k_in=int(net.k_in[i]),
            k_out=int(net.k_out[i]),
            s_in=float(net.s_in[i]),
            s_out=float(net.s_out[i]),
            delta_s=float(net.delta_s[i]),
        )
        for i, code in enumerate(net.countries)
    ]


def total_flux(net: ImbalanceNetwork) -> float:
    """Sum of all edge weights."""
    return float(net.weight.sum())


def write_accounts_csv(accounts: list[NodeAccount], stream) -> None:
    """One ``country,k_in,k_out,s_in,s_out,delta_s,class`` row per account;
    ``stream`` is a path or an open text file object."""
    write_text(stream, "country,k_in,k_out,s_in,s_out,delta_s,class\n", (
        f"{a.country},{a.k_in},{a.k_out},{a.s_in!r},{a.s_out!r},"
        f"{a.delta_s!r},{a.classification}\n" for a in accounts
    ))


# ---------------------------------------------------------------------------
# Graph file formats
# ---------------------------------------------------------------------------


def write_edge_list(net: ImbalanceNetwork, stream) -> None:
    """Write the tab-separated edge list ``src dst weight`` with a header.

    ``stream`` is a path or an open text file object. When a country has no
    edge, a ``#countries`` line after the header lists every country, so
    that ``read_edge_list`` keeps it; readers that skip comments still read
    the edges."""
    codes = np.array(net.countries, dtype=object)
    header = "src\tdst\tweight\n"
    if not np.all(net.k_in + net.k_out):
        header += "\t".join(("#countries", *codes)) + "\n"
    write_text(stream, header, row_texts(("", "\t", "\t", "\n"), net.n_edges, lambda at: (
        codes[net.src[at]], codes[net.dst[at]], net.weight[at]
    )))


#: Characters of edge-list text read, split and converted at a time.
_READ_CHUNK = 1 << 16


def _edge_list_error(lines: list[str], line_no: int) -> ValueError:
    """The error for the first bad line of ``lines``, which follow any header
    row and start at line ``line_no`` + 1 of the file, found one at a time."""
    for line_no, line in enumerate(lines, start=line_no + 1):
        parts = line.split()
        codes = parts[1:] if parts[:1] == ["#countries"] else []
        if parts and not parts[0].startswith("#"):
            if len(parts) != 3:
                return ValueError(f"line {line_no}: expected 'src dst weight'")
            try:
                float(parts[2])
            except ValueError:
                return ValueError(f"line {line_no}: bad weight {parts[2]!r}")
            codes = parts[:2]
        for code in codes:
            if fault := code_fault(code):
                return ValueError(f"line {line_no}: country code {code!r} must not {fault}")
    raise AssertionError("no bad line")


def _edge_columns(stream) -> tuple:
    """The countries, then the src, dst and weight columns, of edge-list text."""
    number = CodeNumbers()
    columns = [np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)]
    line_no = 0
    for lines, text in line_chunks(stream, _READ_CHUNK):
        data, start = lines, 0
        header = lines[0].split() if line_no == 0 else ()
        if len(header) == 3 and header[0][0] != "#":
            try:
                float(header[2])
            except ValueError:  # a header row
                data, start, text = lines[1:], 1, text[len(lines[0]):]
        listed = []
        if "#" in text:
            for line in data:
                if (parts := line.split())[:1] == ["#countries"]:
                    listed += parts[1:]
            data = [line for line in data if not line.lstrip().startswith("#")]
            text = "".join(data)
        fields = text.split()
        m = len(fields) // 3
        ends = number.of(fields[0::3] + fields[1::3] + listed)
        try:
            # every line holds three fields or none, and no code breaks a code rule
            if not set(map(len, map(str.split, data))) <= {0, 3} or ends.min(initial=0) < 0:
                raise ValueError
            weight = np.fromiter(map(float, fields[2::3]), float, m)
        except ValueError:
            raise _edge_list_error(lines[start:], line_no + start) from None
        _append(columns, (ends[:m], ends[m:2 * m], weight))
        line_no += len(lines)
    return number.renumber(columns[:2]), *columns


def read_edge_list(stream) -> ImbalanceNetwork:
    """Parse an edge-list file (tab- or space-separated, optional header).

    ``stream`` is a path or an open text file object, never file content.
    The countries are the edge endpoints and the codes of any ``#countries``
    line, which names countries that may have no edge, in sorted order.

    Each line is ``src dst weight``; blank lines and other lines starting
    with ``#`` are skipped, and so is a first line whose weight is not a
    number. The text is read by ``line_chunks``, as records are, and split
    and converted a chunk at a time; a bad line raises ``ValueError``
    naming the first one.
    """
    with opened(stream) as stream:  # the chunks' text is freed before the network is built
        return ImbalanceNetwork(*_edge_columns(stream))


_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


#: ``str.translate`` table escaping an attribute value as ``xml.etree.ElementTree`` does.
_XML_ATTR = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                           "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def write_graphml(
    net: ImbalanceNetwork, stream, edge_attrs: dict[str, np.ndarray] | None = None
) -> None:
    """Write GraphML with edge weights and per-node strength attributes.

    ``stream`` is a path or an open binary file object.
    ``edge_attrs`` maps extra attribute names to per-edge value arrays in
    canonical edge order (used for backbone significance exports); the
    name ``weight`` is taken by the edge weight, and a name breaking the XML
    part of ``_io.code_fault``'s rule for codes raises ``ValueError``.

    Nodes and edges are written a block at a time, byte for byte as an
    indented ``xml.etree.ElementTree`` serialisation would write them.
    """
    edge_attrs = edge_attrs or {}
    if "weight" in edge_attrs:
        raise ValueError("edge attribute 'weight' would repeat the edge weight's key")
    for name in edge_attrs:
        if _control(name) or _not_xml(name):
            raise ValueError(f"edge attribute name {name!r} is not XML text")
    values = {  # an edgeless network has integer strengths; written as floats all the same
        "node": {"s_in": net.s_in, "s_out": net.s_out, "delta_s": net.delta_s},
        "edge": {"weight": net.weight, **edge_attrs},
    }
    # node and edge keys apart, so an edge attribute may share a node attribute's name
    keys = {kind: [f"{kind[0]}_{name}".translate(_XML_ATTR) for name in names]
            for kind, names in values.items()}
    codes = np.array([code.translate(_XML_ATTR) for code in net.countries], dtype=object)
    with opened(stream, "wb") as stream:

        def write(text: str) -> None:
            stream.write(text.encode("utf-8", "xmlcharrefreplace"))

        write(f"<?xml version='1.0' encoding='utf-8'?>\n<graphml xmlns=\"{_GRAPHML_NS}\">\n")
        for kind, names in values.items():
            for name, key in zip(names, keys[kind]):
                write(f'  <key for="{kind}" attr.name="{name.translate(_XML_ATTR)}" '
                      f'attr.type="double" id="{key}" />\n')
        if not len(codes):
            write('  <graph id="G" edgedefault="directed" />\n</graphml>')
            return
        write('  <graph id="G" edgedefault="directed">\n')
        for kind, opening, n, ends in (
            ("node", ('    <node id="', '">\n'), len(codes), lambda at: (codes[at],)),
            ("edge", ('    <edge source="', '" target="', '">\n'), net.n_edges,
             lambda at: (codes[net.src[at]], codes[net.dst[at]])),
        ):
            # the text between fields: each value sits in a <data> element of its key
            tags = [*(f'      <data key="{key}">' for key in keys[kind]), f"    </{kind}>\n"]
            pieces = [*opening[:-1], opening[-1] + tags[0], *("</data>\n" + t for t in tags[1:])]
            # one value to a node or edge: a column of another length raises ValueError
            columns = [np.asarray(c, dtype=float).reshape(n) for c in values[kind].values()]
            for text in row_texts(pieces, n,
                                  lambda at: (*ends(at), *(column[at] for column in columns))):
                write(text)
        write("  </graph>\n</graphml>")
