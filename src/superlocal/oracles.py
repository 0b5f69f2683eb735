"""Exact ground-truth oracles.

Chromatic number by saturation-ordered branch and bound, fractional
chromatic number by a certified exact LP, stability number, the
complement-matching colouring for graphs with stability number at most
two, and the cyclic greedy colouring of linear interval representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .errors import DomainError, InternalBugError, SizeLimitError
from .graphs import complement_masks, max_clique_size, realize_linear_interval
from .invariants import clique_number
from .simplex import solve_simplex
from .stable_sets import ENUMERATION_VERTEX_LIMIT, maximal_stable_sets

CHROMATIC_VERTEX_LIMIT = 16
MATCHING_VERTEX_LIMIT = 20
LP_SET_LIMIT = 4096


@dataclass(frozen=True)
class VertexColouring:
    colours: tuple  # colour index per vertex, 0-based
    k: int


def verify_vertex_colouring(g, vc):
    """True iff the colouring is proper and uses colours 0..k-1."""
    if len(vc.colours) != g.n:
        return False
    if any(not 0 <= c < vc.k for c in vc.colours):
        return False
    return all(vc.colours[u] != vc.colours[v] for u, v in g.edges)


def _dsatur_pick(adj, colours):
    """The uncoloured vertex of most colours seen, then highest degree,
    then lowest index, with the mask of the colours it sees."""
    pick, pick_key, pick_sat = -1, None, 0
    for v, cv in enumerate(colours):
        if cv >= 0:
            continue
        sat = 0
        m = adj[v]
        while m:
            b = m & -m
            u = b.bit_length() - 1
            if colours[u] >= 0:
                sat |= 1 << colours[u]
            m ^= b
        key = (sat.bit_count(), adj[v].bit_count(), -v)
        if pick_key is None or key > pick_key:
            pick, pick_key, pick_sat = v, key, sat
    return pick, pick_sat


def _dsatur_greedy(adj, n):
    colours = [-1] * n
    for _ in range(n):
        pick, pick_sat = _dsatur_pick(adj, colours)
        c = 0
        while pick_sat >> c & 1:
            c += 1
        colours[pick] = c
    return colours


def check_chromatic_size(g, limit):
    """Refuse a graph above the branch-and-bound vertex limit."""
    if g.n > limit:
        raise SizeLimitError(f"chromatic number limited to {limit} vertices, got {g.n}")


def chromatic_number(g, limit=CHROMATIC_VERTEX_LIMIT):
    """Exact chi with a witness colouring."""
    check_chromatic_size(g, limit)
    n = g.n
    if n == 0:
        return 0, VertexColouring((), 0)
    adj = g.adj
    lb = clique_number(g)
    greedy = _dsatur_greedy(adj, n)
    best = greedy[:]
    best_k = max(greedy) + 1
    if best_k > lb:
        colours = [-1] * n

        def rec(done, used):
            nonlocal best, best_k
            if used >= best_k:
                return
            if done == n:
                best_k = used
                best = colours[:]
                return
            pick, pick_sat = _dsatur_pick(adj, colours)
            cap = min(used + 1, best_k - 1)
            for c in range(cap):
                if pick_sat >> c & 1:
                    continue
                colours[pick] = c
                rec(done + 1, max(used, c + 1))
                colours[pick] = -1
                if best_k == lb:
                    return

        rec(0, 0)
    vc = VertexColouring(tuple(best), best_k)
    if not verify_vertex_colouring(g, vc):
        raise InternalBugError("branch and bound produced an improper colouring")
    return best_k, vc


def stability_number(g, limit=ENUMERATION_VERTEX_LIMIT):
    if g.n > limit:
        raise SizeLimitError(f"stability number limited to {limit} vertices, got {g.n}")
    return max_clique_size(complement_masks(g), (1 << g.n) - 1)


@dataclass(frozen=True)
class FractionalChromaticSolution:
    value: Fraction
    weights: dict  # frozenset -> positive Fraction, a valid fractional colouring
    dual: tuple  # per-vertex fractional clique certifying optimality


def fractional_chromatic_solution(g, vertex_limit=None, set_limit=LP_SET_LIMIT):
    """Certified optimum of the covering LP over maximal stable sets.

    The packing dual (maximise the sum of per-vertex values subject to
    at most 1 on every stable set) is solved exactly; covering weights
    come from the optimal tableau. Both feasibilities and equality of
    the two objective values are re-checked before returning.
    """
    n = g.n
    if n == 0:
        return FractionalChromaticSolution(Fraction(0), {}, ())
    fam = maximal_stable_sets(g, limit=vertex_limit)
    if len(fam.sets) > set_limit:
        raise SizeLimitError(
            f"LP over {len(fam.sets)} stable sets exceeds the limit {set_limit}"
        )
    rows = [[(mask >> v) & 1 for v in range(n)] for mask in fam.masks]
    value, y, w = solve_simplex(rows, [1] * len(rows), [1] * n)

    # certificate: y is a feasible fractional clique, w a feasible
    # fractional colouring, and the two objectives agree exactly; all
    # checked in integers, every value scaled to one common denominator
    scale = math.lcm(value.denominator, *(q.denominator for q in (*y, *w)))
    ys = [q.numerator * (scale // q.denominator) for q in y]
    ws = [q.numerator * (scale // q.denominator) for q in w]
    if any(yi < 0 for yi in ys):
        raise InternalBugError("negative dual vertex weight")
    for s in fam.sets:
        if sum(map(ys.__getitem__, s)) > scale:
            raise InternalBugError("fractional clique overloads a stable set")
    if any(wi < 0 for wi in ws):
        raise InternalBugError("negative stable set weight")
    cover = [0] * n
    for wi, s in zip(ws, fam.sets):
        for v in s:
            cover[v] += wi
    if any(cv < scale for cv in cover):
        raise InternalBugError("stable set weights fail to cover a vertex")
    target = value.numerator * (scale // value.denominator)
    if sum(ys) != target or sum(ws) != target:
        raise InternalBugError("primal and dual objective values disagree")
    weights = {s: wi for wi, s in zip(w, fam.sets) if wi > 0}
    return FractionalChromaticSolution(value=value, weights=weights, dual=tuple(y))


def fractional_chromatic_number(g, vertex_limit=None, set_limit=LP_SET_LIMIT):
    return fractional_chromatic_solution(g, vertex_limit, set_limit).value


def chi_via_complement_matching(g, limit=MATCHING_VERTEX_LIMIT):
    """chi = n - nu(complement) for graphs with stability number <= 2.

    Colour classes are the matched complement pairs plus singletons.
    """
    n = g.n
    if n > limit:
        raise SizeLimitError(f"matching oracle limited to {limit} vertices, got {n}")
    if n == 0:
        return 0, VertexColouring((), 0)
    adj = complement_masks(g)
    # alpha >= 3 exactly when three vertices are pairwise non-adjacent,
    # a triangle v < u < w of the complement
    for v in range(n):
        later = adj[v] >> (v + 1) << (v + 1)
        while later:
            ub = later & -later
            later ^= ub
            u = ub.bit_length() - 1
            third = later & adj[u]
            if third:
                w = (third & -third).bit_length() - 1
                raise DomainError(
                    f"stability number exceeds 2: vertices {v}, {u} and {w} "
                    "are pairwise non-adjacent"
                )
    # every entry is at most n/2, so one byte holds it
    dp = bytearray(1 << n)
    _kernels.matching_dp(adj, dp)
    full = (1 << n) - 1
    nu = dp[full]

    colours = [-1] * n
    nxt = 0
    mask = full
    while mask:
        b = mask & -mask
        v = b.bit_length() - 1
        if dp[mask] == dp[mask ^ b]:
            colours[v] = nxt
            nxt += 1
            mask ^= b
            continue
        m = adj[v] & mask
        paired = False
        while m:
            ub = m & -m
            u = ub.bit_length() - 1
            if dp[mask] == dp[mask ^ b ^ ub] + 1:
                colours[v] = colours[u] = nxt
                nxt += 1
                mask ^= b | ub
                paired = True
                break
            m ^= ub
        if not paired:
            raise InternalBugError("matching DP table is inconsistent")
    if nxt != n - nu:
        raise InternalBugError("matching reconstruction lost pairs")
    vc = VertexColouring(tuple(colours), nxt)
    if not verify_vertex_colouring(g, vc):
        raise InternalBugError("complement matching produced an improper colouring")
    return nxt, vc


def colour_linear_interval(rep, offset=0):
    """Left-to-right cyclic colouring with omega colours; proper for every offset."""
    g = realize_linear_interval(rep)
    if g.n == 0:
        raise DomainError("empty representation has nothing to colour")
    omega = clique_number(g)
    if not 0 <= offset < omega:
        raise DomainError(f"offset {offset} outside 0..{omega - 1}")
    colours = tuple((v + offset) % omega for v in range(g.n))
    return VertexColouring(colours, omega)
