"""Stable set enumeration.

Maximal stable sets come from Bron-Kerbosch with pivoting over vertex
bitmasks, as the cliques of the complement. Maximum stable sets come
from their own branch and bound on the complement within a vertex
mask, pruned at the best size found so far, so no smaller maximal set
is ever listed. Guarded at 24 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, check_vertex_limit
from .graphs import mask_members

ENUMERATION_VERTEX_LIMIT = 24


@dataclass(frozen=True)
class StableSetFamily:
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


def _maximum_sets(comp, start):
    """All maximum cliques, given by adjacency bitmasks, inside the start mask.

    Branches on the lowest candidate, taking it first, so every set is
    built in increasing vertex order and the sets come out sorted by
    their member lists. Only sets of the best size so far are kept, and
    a branch stops once its size plus its candidate count falls below
    that size; the frames wait on an explicit stack.
    """
    best = 0
    out = []
    stack = []  # (set, size, candidates still to branch on)
    r, size, p = 0, 0, start
    while True:
        if not p:
            if size > best:
                best = size
                out.clear()
            if size == best:
                out.append(r)
        elif size + p.bit_count() >= best:
            b = p & -p
            if p ^ b:
                stack.append((r, size, p ^ b))
            r, size, p = r | b, size + 1, p & comp[b.bit_length() - 1]
            continue
        if not stack:
            return out
        r, size, p = stack.pop()


def check_enumeration_size(g):
    """Refuse a graph above ENUMERATION_VERTEX_LIMIT vertices."""
    check_vertex_limit("stable set enumeration", g.n, ENUMERATION_VERTEX_LIMIT)


def maximal_stable_sets(g):
    """Maximal stable sets of g, as vertex bitmasks in g's ids."""
    check_enumeration_size(g)
    masks = _bron_kerbosch(g.complement_masks(), (1 << g.n) - 1)
    return StableSetFamily(sets=tuple(sorted(masks, key=mask_members)))


def maximum_stable_sets(g, within):
    """Maximum stable sets of g inside the vertex mask within, as vertex
    bitmasks sorted by their member lists."""
    check_enumeration_size(g)
    if within & ~((1 << g.n) - 1):
        raise DomainError(f"vertex mask {within} is not within the {g.n} vertices")
    return tuple(_maximum_sets(g.complement_masks(), within))
