"""The reference generator of the class table src/superlocal/classes.g6.

Vertex-orderly generation of one graph per isomorphism class, which
produced the table that `superlocal.enumerate_graph_classes` reads.
The tests regenerate the classes up to 7 vertices and compare them with
the table line for line. From the repository root,

    PYTHONPATH=src python3 tests/orderly.py

rewrites the table: the graph6 lines of every class with 1 to 8
vertices (harness.ENUMERATION_N_LIMIT), n ascending, about a second.
"""

from pathlib import Path

from bruteforce import clique_table
from superlocal import SimpleGraph, harness, to_graph6

TABLE = Path(__file__).resolve().parents[1] / "src" / "superlocal" / "classes.g6"


def _has_smaller_relabelling(label, free, prefix, adj, groups):
    """True if some labelling that extends prefix gives a smaller mask.

    Labels are handed out from n-1 down; prefix holds the neighbour masks
    of the vertices given labels n-1, ..., label+1, in that order. The
    vertex given ``label`` fixes group ``label`` of the mask, its
    adjacency to those labels with label n-1 as the most significant
    bit, and every higher group already equals the candidate's.
    """
    # narrow the free vertices to those whose group would tie the
    # candidate's; one that falls below it first gives a smaller mask
    target = groups[label]
    tie = free
    shift = len(prefix)
    for a in prefix:
        shift -= 1
        if target >> shift & 1:
            if tie & ~a:
                return True
            tie &= a
        else:
            tie &= ~a
    if not label:
        return False
    expanded = 0
    while tie:
        y = tie.bit_length() - 1
        b = 1 << y
        tie ^= b
        ay = adj[y]
        # a twin z of y already expanded here (N(y) - z == N(z) - y) gives
        # the same masks: swapping y and z is an automorphism fixing prefix
        seen = expanded
        while seen:
            zb = seen & -seen
            if not (ay ^ adj[zb.bit_length() - 1]) & ~(b | zb):
                break
            seen ^= zb
        if seen:
            continue
        if _has_smaller_relabelling(label - 1, free ^ b, prefix + [ay], adj, groups):
            return True
        expanded |= b
    return False


def _candidate_neighbourhoods(padj):
    """The neighbourhoods s < 2^m, ascending, of a new vertex 0 over a
    parent with m vertices and adjacency masks padj that survive the two
    rejections of class_levels."""
    m = len(padj)
    full = (1 << m) - 1
    # (bits of y and z, bit of z) per twin pair y < z
    twins = [
        (1 << y | 1 << z, 1 << z)
        for z in range(m)
        for y in range(z)
        if (padj[y] ^ padj[z]) & ~(1 << y | 1 << z) == 0
    ]
    # alpha[t]: the largest stable set of the parent inside the mask t
    alpha = clique_table([full ^ a ^ 1 << v for v, a in enumerate(padj)])
    top = alpha[full]
    out = []
    for s in range(full + 1):
        if top < m and alpha[full ^ s] == top:
            continue
        for pair, high in twins:
            if s & pair == high:
                break
        else:
            out.append(s)
    return out


def class_levels(limit):
    """For n = 1, ..., limit, the adjacency masks of one graph per
    isomorphism class of n-vertex graphs, in increasing order of each
    class's least edge mask.

    Vertex-orderly generation (Read 1978, "Every one a winner"; McKay
    1998, "Isomorph-free exhaustive generation"). Bit k of an edge mask
    is the pair of lexicographic rank k, so vertex 0's edges are the n-1
    lowest bits and the bits above them are the mask of G - 0. If M is
    the least mask of G's orbit and labels x as 0, then M >> (n-1) is
    the least mask of the orbit of G - x: a smaller labelling of G - x
    would extend, with x at 0, to a smaller one of G. So every
    representative is (P << (n-1)) | S for an (n-1)-vertex
    representative P and some S < 2^(n-1), and such a candidate is kept
    when no relabelling gives a smaller mask. Parents taken in order,
    each with its S ascending, keep the masks ascending, so the search
    hands over the adjacency masks it builds and no edge mask is formed.

    Two kinds of S are dropped before that search, since each has a
    relabelling with a smaller mask (P's vertex v is the candidate's
    v + 1, and mask group L, vertex L's adjacency to the labels above
    it, ranks higher the larger L is):
    - twins y < z of P (N(y) - z == N(z) - y) with z in S and y not.
      Swapping y and z is an automorphism of P, so it keeps the bits
      of P and moves S's bit z down to y.
    - when alpha(P) < n - 1, an S that misses a maximum stable set of
      P. A least mask labels a maximum stable set at the top, so its
      top alpha groups are zero and the next one is not. The candidate
      takes its top groups from P: alpha(P) zero ones, then a nonzero
      one, which exists since alpha(P) < n - 1. But that stable set and
      vertex 0 give alpha(G) = alpha(P) + 1, so G's least mask has a
      zero group there.
    """
    level = [[0]]  # adjacency masks of each class
    yield level
    for m in range(1, limit):
        full = (1 << (m + 1)) - 1
        grown = []
        for padj in level:
            # parent vertex v becomes vertex v + 1 and the new vertex 0 has
            # neighbourhood s; candidate group L is parent group L - 1, and s
            shifted = [a << 1 for a in padj]
            groups = [0] + [a >> (v + 1) for v, a in enumerate(padj)]
            for s in _candidate_neighbourhoods(padj):
                adj = [s << 1] + [a | (s >> v & 1) for v, a in enumerate(shifted)]
                groups[0] = s
                if not _has_smaller_relabelling(m, full, [], adj, groups):
                    grown.append(adj)
        level = grown
        yield level


def table_lines(limit):
    """The graph6 lines of every class with 1 to limit vertices, n ascending."""
    return [
        to_graph6(SimpleGraph.from_masks(adj))
        for level in class_levels(limit)
        for adj in level
    ]


if __name__ == "__main__":
    lines = table_lines(harness.ENUMERATION_N_LIMIT)
    TABLE.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    print(f"wrote {len(lines)} classes to {TABLE}")
