"""Graph types and input formats.

Two immutable carriers: SimpleGraph (loopless, no parallel edges) and
Multigraph (loopless, parallel edges allowed, edges carry stable ids).
Parsers raise GraphFormatError naming the offending byte or record,
constructors raise DomainError on misuse.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import DomainError, GraphFormatError, SizeLimitError


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def mask_members(mask):
    """The set bits of a mask, ascending, as a tuple of vertex ids."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def max_clique_size(adj, mask):
    """Largest clique inside the vertex mask, branch and bound.

    Branches on the lowest candidate first and drops a branch once its
    size plus its candidates cannot beat the best; the frames wait on an
    explicit stack, so no recursion limit bounds the depth.
    """
    best = 0
    stack = []  # (clique size, candidates still to branch on)
    size, p = 0, mask
    while True:
        if size + p.bit_count() > best:
            if not p:
                best = size
            else:
                b = p & -p
                if p ^ b:
                    stack.append((size, p ^ b))
                size, p = size + 1, p & adj[b.bit_length() - 1]
                continue
        if not stack:
            return best
        size, p = stack.pop()


class SimpleGraph:
    """Undirected simple graph on vertex ids 0..n-1; adj[v] is v's neighbour mask.

    omegas() is kept after its first call (the graph is immutable, so it
    cannot go stale); equality and hashing read only n and the edges.
    """

    __slots__ = ("n", "edges", "adj", "_omega")

    def __init__(self, n, edges=()):
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise DomainError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        # the masks hold each pair once, so reading the neighbours above
        # every u gives the edges deduplicated and in ascending order
        listed = []
        for u, a in enumerate(adj):
            m = a >> (u + 1)
            while m:
                b = m & -m
                listed.append((u, u + b.bit_length()))
                m ^= b
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(listed))
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "_omega", None)

    def __setattr__(self, name, value):
        raise AttributeError("SimpleGraph is immutable")

    def omegas(self):
        """omega(v), the size of the largest clique containing v, for every vertex."""
        if self._omega is None:
            om = tuple(1 + max_clique_size(self.adj, a) for a in self.adj)
            object.__setattr__(self, "_omega", om)
        return self._omega

    @property
    def edge_count(self):
        return len(self.edges)

    def neighbours(self, v):
        return mask_members(self.adj[v])

    def degree(self, v):
        return self.adj[v].bit_count()

    def has_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise DomainError(f"vertex pair ({u},{v}) out of range")
        return bool(self.adj[u] >> v & 1)

    def is_connected(self):
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= self.adj[b.bit_length() - 1]
                m ^= b
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    @classmethod
    def from_edge_mask(cls, n, mask):
        """The graph whose pair of lexicographic rank k is an edge iff bit k is set."""
        edges = []
        k = 0
        for u in range(n):
            for v in range(u + 1, n):
                if mask >> k & 1:
                    edges.append((u, v))
                k += 1
        return cls(n, edges)

    def __eq__(self, other):
        return isinstance(other, SimpleGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={self.edge_count})"


class Multigraph:
    """Loopless multigraph; edge ids 0..m-1 index the listing order."""

    __slots__ = ("n", "edges", "_incident", "_mu")

    def __init__(self, n, edges=()):
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        incident = [[] for _ in range(n)]
        mu = {}
        listed = []
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise DomainError(f"loop at vertex {u} not allowed")
            p = _pair(u, v)
            listed.append(p)
            incident[u].append(eid)
            incident[v].append(eid)
            mu[p] = mu.get(p, 0) + 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(listed))
        object.__setattr__(self, "_incident", tuple(tuple(ids) for ids in incident))
        object.__setattr__(self, "_mu", mu)

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph is immutable")

    @classmethod
    def of_simple(cls, g):
        return cls(g.n, g.edges)

    @property
    def edge_count(self):
        return len(self.edges)

    def endpoints(self, eid):
        if not 0 <= eid < len(self.edges):
            raise DomainError(f"edge id {eid} out of range")
        return self.edges[eid]

    def incident(self, v):
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} out of range")
        return self._incident[v]

    def degree(self, v):
        return len(self.incident(v))

    def multiplicities(self):
        """Read-only map from each support pair (u, v), u < v, to mu(uv)."""
        return MappingProxyType(self._mu)

    def support(self):
        """Underlying simple graph on the same vertex set."""
        return SimpleGraph(self.n, self._mu.keys())

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and sorted(self.edges) == sorted(other.edges)
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.edges))))

    def __repr__(self):
        return f"Multigraph(n={self.n}, m={self.edge_count})"


def complement(g):
    edges = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adj[u] >> v & 1:
                edges.append((u, v))
    return SimpleGraph(g.n, edges)


def complement_masks(g):
    """Adjacency masks of the complement of g."""
    full = (1 << g.n) - 1
    return [full ^ a ^ (1 << v) for v, a in enumerate(g.adj)]


def induced_subgraph(g, vertices):
    """Subgraph induced on the given ids, relabelled 0..k-1.

    Returns (subgraph, labels) where labels[i] is the original id of
    new vertex i; labels are in increasing original order.
    """
    labels = []
    seen = set()
    for v in vertices:
        if not 0 <= v < g.n:
            raise DomainError(f"vertex {v} out of range")
        if v in seen:
            raise DomainError(f"duplicate vertex {v} in induced set")
        seen.add(v)
        labels.append(v)
    labels.sort()
    index = {v: i for i, v in enumerate(labels)}
    edges = []
    for i, v in enumerate(labels):
        m = g.adj[v]
        for w in labels[i + 1 :]:
            if m >> w & 1:
                edges.append((index[v], index[w]))
    return SimpleGraph(len(labels), edges), tuple(labels)


def line_graph(mg):
    """Line graph of a multigraph; parallel edges become adjacent vertices.

    Refuses, before any list is built, a multigraph with more than
    LINE_GRAPH_PAIR_LIMIT pairs of edges at a common vertex.
    """
    m = mg.edge_count
    if m == 0:
        raise DomainError("line graph of an edgeless multigraph is not defined")
    pairs = sum(d * (d - 1) // 2 for d in map(mg.degree, range(mg.n)))
    if pairs > LINE_GRAPH_PAIR_LIMIT:
        raise SizeLimitError(
            f"line graph needs {pairs} pairs of edges at a common vertex, "
            f"above the limit {LINE_GRAPH_PAIR_LIMIT}"
        )
    edges = []
    for v in range(mg.n):
        ids = mg.incident(v)
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                edges.append((ids[a], ids[b]))
    return SimpleGraph(m, edges)


# graph6: byte values 63..126 carry 6 bits each; the header names the
# vertex count, the body packs the upper triangle column by column.

_G6_HEADER = ">>graph6<<"

# largest n the 4-byte graph6 size form writes; multigraph text is held
# to it too, since linegraph writes the m-vertex line graph as graph6
GRAPH6_VERTEX_LIMIT = 258047

# most pairs of edges at a common vertex, the sum over v of C(d(v), 2),
# that line_graph admits: its pair loop does that much work
LINE_GRAPH_PAIR_LIMIT = 2**18


def _g6_number(n):
    if n <= 62:
        return bytes([n + 63])
    if n <= GRAPH6_VERTEX_LIMIT:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise SizeLimitError(
        f"graph6 encoding for n={n} not supported (limit {GRAPH6_VERTEX_LIMIT})"
    )


def to_graph6(g):
    n = g.n
    out = bytearray(_g6_number(n))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(g.adj[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = word << 1 | b
        out.append(word + 63)
    return out.decode("ascii")


def parse_graph6(text):
    """Decode one graph6 line; errors name the byte offset."""
    if isinstance(text, bytes):
        # latin-1 keeps each byte's value and offset
        text = text.decode("latin-1")
    # ASCII whitespace only: a non-ASCII space is an invalid byte, not padding
    s = text.strip(" \t\n\r\v\f")
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise GraphFormatError("empty graph6 text")
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"invalid graph6 byte {ord(ch)} at offset {off}")
    data = s.encode("ascii")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise GraphFormatError("8-byte graph6 size form not supported (offset 0)")
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 size field at offset 1")
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        if n <= 62:
            raise GraphFormatError("non-canonical long size form at offset 0")
        body, body_off = data[4:], 4
    else:
        n = data[0] - 63
        body, body_off = data[1:], 1
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise GraphFormatError(
            f"graph6 body for n={n} needs {expect} bytes, got {len(body)}"
            f" (offset {body_off})"
        )
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            byte = body[k // 6]
            if (byte - 63) >> (5 - k % 6) & 1:
                edges.append((u, v))
            k += 1
    while k % 6:
        byte = body[k // 6]
        if (byte - 63) >> (5 - k % 6) & 1:
            raise GraphFormatError(
                f"nonzero padding bit at offset {body_off + k // 6}"
            )
        k += 1
    return SimpleGraph(n, edges)


def parse_multigraph(text):
    """Parse the multigraph listing format.

    Records are separated by newlines or "/". The first record is
    "n <count>", each following record "u v m" adds m parallel edges
    between u and v; edge ids follow listing order. The vertex count
    and the edge count may each be at most GRAPH6_VERTEX_LIMIT.
    """
    records = []
    for chunk in text.replace("/", "\n").split("\n"):
        chunk = chunk.strip()
        if chunk:
            records.append(chunk)
    if not records:
        raise GraphFormatError("empty multigraph text")
    head = records[0].split()
    if len(head) != 2 or head[0] != "n":
        raise GraphFormatError(f"record 1: expected header 'n <count>', got {records[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise GraphFormatError(f"record 1: bad vertex count {head[1]!r}") from None
    if n < 0:
        raise GraphFormatError(f"record 1: negative vertex count {n}")
    if n > GRAPH6_VERTEX_LIMIT:
        raise SizeLimitError(
            f"record 1: vertex count {n} above the limit {GRAPH6_VERTEX_LIMIT}"
        )
    edges = []
    seen_pairs = set()
    for rno, rec in enumerate(records[1:], start=2):
        tok = rec.split()
        if len(tok) != 3:
            raise GraphFormatError(f"record {rno}: expected 'u v m', got {rec!r}")
        try:
            u, v, m = int(tok[0]), int(tok[1]), int(tok[2])
        except ValueError:
            raise GraphFormatError(f"record {rno}: non-integer token in {rec!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"record {rno}: vertex out of range in {rec!r}")
        if u == v:
            raise GraphFormatError(f"record {rno}: loop at vertex {u}")
        if m <= 0:
            raise GraphFormatError(f"record {rno}: multiplicity {m} must be positive")
        p = _pair(u, v)
        if p in seen_pairs:
            raise GraphFormatError(f"record {rno}: duplicate pair {p}")
        seen_pairs.add(p)
        if len(edges) + m > GRAPH6_VERTEX_LIMIT:
            raise SizeLimitError(
                f"record {rno}: edge count {len(edges) + m} above the limit "
                f"{GRAPH6_VERTEX_LIMIT}"
            )
        edges.extend([p] * m)
    return Multigraph(n, edges)


def format_multigraph(mg):
    """Canonical listing: sorted pairs, one record per pair."""
    lines = [f"n {mg.n}"]
    for (u, v), m in sorted(mg.multiplicities().items()):
        lines.append(f"{u} {v} {m}")
    return "\n".join(lines) + "\n"
