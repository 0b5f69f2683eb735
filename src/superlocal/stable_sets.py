"""Stable set and clique enumeration.

Maximal stable sets and cliques come from Bron-Kerbosch with pivoting
over vertex bitmasks; stable sets are the cliques of the complement,
optionally within a vertex mask. Maximum stable sets come from their
own branch and bound on the complement, pruned at the best size found
so far, so no smaller maximal set is ever listed. Guarded at 24
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, SizeLimitError
from .graphs import complement_masks, mask_members

ENUMERATION_VERTEX_LIMIT = 24


@dataclass(frozen=True)
class StableSetFamily:
    sets: tuple  # frozensets of vertex ids, sorted for determinism
    kind: str  # "maximal" or "maximum"
    masks: tuple  # the same sets as vertex bitmasks, in the same order

    def __iter__(self):
        return iter(self.sets)

    def __len__(self):
        return len(self.sets)


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


def _sorted_family(masks):
    """(frozensets, masks), both in the order of the sorted member lists."""
    order = sorted((mask_members(m), m) for m in masks)
    return tuple(frozenset(ms) for ms, _ in order), tuple(m for _, m in order)


def check_enumeration_size(g, limit=None):
    """Refuse a graph above the vertex limit (default ENUMERATION_VERTEX_LIMIT)."""
    if limit is None:
        limit = ENUMERATION_VERTEX_LIMIT
    if g.n > limit:
        raise SizeLimitError(
            f"stable set enumeration limited to {limit} vertices, got {g.n}"
        )


def _complement_within(g, limit, within):
    """Complement adjacency masks and the start mask (default: every vertex)."""
    check_enumeration_size(g, limit)
    full = (1 << g.n) - 1
    if within is not None and within & ~full:
        raise DomainError(f"vertex mask {within} is not within the {g.n} vertices")
    return complement_masks(g), full if within is None else within


def maximal_cliques(g, limit=None):
    """Maximal cliques as frozensets, sorted for determinism."""
    check_enumeration_size(g, limit)
    masks = _bron_kerbosch(g.adj, (1 << g.n) - 1)
    return _sorted_family(masks)[0]


def maximal_stable_sets(g, limit=None, within=None):
    """Maximal stable sets of g inside the vertex mask within (default: all), in g's ids."""
    sets, masks = _sorted_family(_bron_kerbosch(*_complement_within(g, limit, within)))
    return StableSetFamily(sets=sets, kind="maximal", masks=masks)


def maximum_stable_sets(g, limit=None, within=None):
    """Maximum stable sets of g inside the vertex mask within (default: all), in g's ids."""
    masks = tuple(_maximum_sets(*_complement_within(g, limit, within)))
    sets = tuple(frozenset(mask_members(m)) for m in masks)
    return StableSetFamily(sets=sets, kind="maximum", masks=masks)


def membership_probabilities(g, limit=None):
    """p(v) = share of maximum stable sets containing v; sums to alpha."""
    if g.n == 0:
        raise DomainError("membership probabilities need a nonempty vertex set")
    fam = maximum_stable_sets(g, limit=limit)
    count = len(fam.sets)
    hits = [0] * g.n
    for s in fam.sets:
        for v in s:
            hits[v] += 1
    return {v: Fraction(hits[v], count) for v in range(g.n)}
