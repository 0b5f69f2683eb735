"""Stable set and clique enumeration.

Bron-Kerbosch with pivoting over vertex bitmasks. Stable sets are
enumerated as cliques of the complement, optionally within a vertex
mask. Guarded at 24 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, SizeLimitError

ENUMERATION_VERTEX_LIMIT = 24


@dataclass(frozen=True)
class StableSetFamily:
    sets: tuple  # frozensets of vertex ids, sorted for determinism
    kind: str  # "maximal" or "maximum"

    def __iter__(self):
        return iter(self.sets)

    def __len__(self):
        return len(self.sets)


def _bron_kerbosch(adj, start):
    """All maximal cliques, given by adjacency bitmasks, inside the start mask."""
    out = []

    def expand(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
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
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            expand(r | b, p & adj[v], x & adj[v])
            p ^= b
            x |= b
            cand ^= b

    expand(0, start, 0)
    return out


def _mask_to_set(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return frozenset(out)


def _check_size(g, limit):
    if limit is None:
        limit = ENUMERATION_VERTEX_LIMIT
    if g.n > limit:
        raise SizeLimitError(
            f"stable set enumeration limited to {limit} vertices, got {g.n}"
        )


def maximal_cliques(g, limit=None):
    """Maximal cliques as frozensets, sorted for determinism."""
    _check_size(g, limit)
    masks = _bron_kerbosch([g.adj_mask(v) for v in range(g.n)], (1 << g.n) - 1)
    return tuple(sorted((_mask_to_set(m) for m in masks), key=sorted))


def maximal_stable_sets(g, limit=None, within=None):
    """Maximal stable sets of g inside the vertex mask within (default: all), in g's ids."""
    _check_size(g, limit)
    full = (1 << g.n) - 1
    if within is not None and within & ~full:
        raise DomainError(f"vertex mask {within} is not within the {g.n} vertices")
    comp = [~g.adj_mask(v) & full & ~(1 << v) for v in range(g.n)]
    masks = _bron_kerbosch(comp, full if within is None else within)
    sets = tuple(sorted((_mask_to_set(m) for m in masks), key=sorted))
    return StableSetFamily(sets=sets, kind="maximal")


def maximum_stable_sets(g, limit=None, within=None):
    fam = maximal_stable_sets(g, limit=limit, within=within)
    alpha = max((len(s) for s in fam.sets), default=0)
    sets = tuple(s for s in fam.sets if len(s) == alpha)
    return StableSetFamily(sets=sets, kind="maximum")


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
