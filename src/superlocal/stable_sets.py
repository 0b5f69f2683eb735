"""Stable set enumeration.

Maximal stable sets come from Bron-Kerbosch with pivoting over vertex
bitmasks, as the cliques of the complement. Maximum stable sets are
the largest cliques of the complement within a vertex mask, from the
package's one maximum-clique branch and bound (graphs.maximum_cliques)
asked for every tie, so no smaller maximal set is ever listed; the
sets of a larger mask that lie inside a smaller one are kept when there
are any, with no new search. Guarded at 24 vertices.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, check_vertex_limit
from .graphs import mask_members, maximum_cliques

ENUMERATION_VERTEX_LIMIT = 24


class StableSetFamily(NamedTuple):
    sets: tuple  # vertex bitmasks, sorted by their member lists


def _bron_kerbosch(adj, start):
    """All maximal cliques, given by adjacency bitmasks, inside the start mask.

    Branches in increasing order on p & ~adj[pivot]; the frames wait on
    an explicit stack, so no recursion limit bounds the depth.
    """
    out = []
    stack = []  # (r, p, x, candidates not yet branched on, never 0)
    r, p, x = 0, start, 0
    while True:
        cand = 0
        if p == 0 and x == 0:
            out.append(r)
        else:
            # pivot with most candidates removed; ties go to the lowest id
            best, best_cnt = -1, -1
            m = p | x
            while m:
                b = m & -m
                u = b.bit_length() - 1
                cnt = (p & adj[u]).bit_count()
                if cnt > best_cnt:
                    best, best_cnt = u, cnt
                m ^= b
            cand = p & ~adj[best]
        if not cand:
            if not stack:
                return out
            r, p, x, cand = stack.pop()
        b = cand & -cand
        if cand ^ b:
            stack.append((r, p ^ b, x | b, cand ^ b))
        nbrs = adj[b.bit_length() - 1]
        r, p, x = r | b, p & nbrs, x & nbrs


def check_enumeration_size(g):
    """Refuse a graph above ENUMERATION_VERTEX_LIMIT vertices."""
    check_vertex_limit("stable set enumeration", g.n, ENUMERATION_VERTEX_LIMIT)


def maximal_stable_sets(g):
    """Maximal stable sets of g, as vertex bitmasks in g's ids."""
    check_enumeration_size(g)
    masks = _bron_kerbosch(g.complement_masks(), (1 << g.n) - 1)
    return StableSetFamily(sets=tuple(sorted(masks, key=mask_members)))


def maximum_stable_sets(g, within, known=()):
    """Maximum stable sets of g inside the vertex mask within, as vertex
    bitmasks sorted by their member lists.

    known may hold every maximum stable set of g inside some vertex
    mask W that contains within, in the same order. When one of them
    lies inside within, alpha is the same on within as on W, so the
    maximum stable sets inside within are exactly those of known that
    lie inside it, and they are returned with no search.
    """
    check_enumeration_size(g)
    if within & ~((1 << g.n) - 1):
        raise DomainError(f"vertex mask {within} is not within the {g.n} vertices")
    kept = tuple(m for m in known if not m & ~within)
    if kept:
        return kept
    return tuple(maximum_cliques(g.complement_masks(), within, ties=True)[1])
