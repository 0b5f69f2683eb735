"""Hot integer kernels over bitmasks and plain lists, in pure Python.

Three kernels: the maximum-matching subset DP, vertex-orderly generation
of isomorphism classes, and brute-force edge-colouring feasibility.
Exact rational code elsewhere never goes through here. Callers reach
them as ``_kernels.<name>`` so that a tracer can wrap these bindings.
"""

from __future__ import annotations

# the kernel implementation in use, recorded in benchmark fingerprints
ACTIVE = "pure"


def matching_dp(adj, dp):
    """Fill dp[mask] with the maximum matching size inside mask; adj holds bitmasks."""
    dp[0] = 0
    for mask in range(1, len(dp)):
        b = mask & -mask
        rest = mask ^ b
        best = dp[rest]
        m = adj[b.bit_length() - 1] & rest
        # dp[rest ^ u] <= dp[rest], so one neighbour u with equality
        # already gives the maximum, dp[rest] + 1
        while m:
            ub = m & -m
            if dp[rest ^ ub] == best:
                best += 1
                break
            m ^= ub
        dp[mask] = best


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


def orbit_representatives(n):
    """Sorted least edge masks of the isomorphism classes of n-vertex graphs.

    Vertex-orderly generation (Read 1978, "Every one a winner"; McKay
    1998, "Isomorph-free exhaustive generation"). Bit k of a mask is
    the pair of lexicographic rank k (as in SimpleGraph.from_edge_mask),
    so vertex 0's edges are the n-1 lowest bits and the bits above them
    are the mask of G - 0. If M is the least mask of G's orbit and labels
    x as 0, then M >> (n-1) is the least mask of the orbit of G - x: a
    smaller labelling of G - x would extend, with x at 0, to a smaller
    one of G. So every representative is (P << (n-1)) | S
    for an (n-1)-vertex representative P and some S < 2^(n-1), and such
    a candidate is kept when no relabelling gives a smaller mask.
    """
    level = [(0, [0])]  # (mask, adjacency masks) of each class
    for m in range(1, n):
        full = (1 << (m + 1)) - 1
        grown = []
        for parent, padj in level:
            # parent vertex v becomes vertex v + 1 and the new vertex 0 has
            # neighbourhood s; candidate group L is parent group L - 1, and s
            shifted = [a << 1 for a in padj]
            groups = [0] + [a >> (v + 1) for v, a in enumerate(padj)]
            for s in range(1 << m):
                adj = [s << 1] + [a | (s >> v & 1) for v, a in enumerate(shifted)]
                groups[0] = s
                if not _has_smaller_relabelling(m, full, [], adj, groups):
                    grown.append(((parent << m) | s, adj))
        level = grown
    return [mask for mask, _ in level]


def edge_colouring_feasible(eu, ev, k, n, cap):
    """1 if the edges colour with k colours, 0 if not, -1 past cap steps."""
    # backtracking over edges in listing order; an edge may only use a
    # colour at most one above the maximum used so far (symmetry cut)
    m = len(eu)
    if m == 0:
        return 1
    vcol = [0] * n
    tried = [0] * m
    maxu = [0] * (m + 1)
    pos = 0
    steps = 0
    while True:
        steps += 1
        if steps > cap:
            return -1
        limit = min(maxu[pos] + 1, k)
        c = tried[pos] + 1
        while c <= limit and (vcol[eu[pos]] | vcol[ev[pos]]) >> c & 1:
            c += 1
        if c <= limit:
            tried[pos] = c
            vcol[eu[pos]] |= 1 << c
            vcol[ev[pos]] |= 1 << c
            maxu[pos + 1] = max(c, maxu[pos])
            pos += 1
            if pos == m:
                return 1
            tried[pos] = 0
        else:
            tried[pos] = 0
            pos -= 1
            if pos < 0:
                return 0
            c = tried[pos]
            vcol[eu[pos]] &= ~(1 << c)
            vcol[ev[pos]] &= ~(1 << c)
