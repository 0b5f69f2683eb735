"""Exact ground-truth oracles.

Chromatic number by saturation-ordered branch and bound, fractional
chromatic number certified by a clique and a DSATUR colouring of the
same size where they meet and by an exact LP otherwise, stability
number, and the complement-matching colouring for graphs with stability
number at most two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .errors import DomainError, InternalBugError, SizeLimitError
from .graphs import complement_masks, mask_members, max_clique_size
from .invariants import clique_number
from .simplex import solve_simplex
from .stable_sets import (
    ENUMERATION_VERTEX_LIMIT,
    check_enumeration_size,
    maximal_stable_sets,
)

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
    # frozenset -> positive Fraction, a fractional colouring of total value:
    # over stable sets, and over maximal ones on the LP route
    weights: dict
    dual: tuple  # per-vertex fractional clique certifying optimality


def _clique_of_size(adj, cand, size):
    """Members of a clique of the given size inside the mask cand, which
    must hold one: the lowest candidate u stays while a clique of the
    size still left fits in u and its neighbours within cand."""
    members = []
    while size and cand:
        b = cand & -cand
        u = b.bit_length() - 1
        if 1 + max_clique_size(adj, cand & adj[u]) >= size:
            members.append(u)
            cand &= adj[u]
            size -= 1
        else:
            cand ^= b
    return members


def _integral_solution(g, omega, colours):
    """chi_f = omega, certified by weight 1 on each of omega stable
    colour classes and on each vertex of an omega-clique."""
    adj = g.adj
    # every vertex of a largest clique has omega(v) = omega
    top = 0
    for v, om in enumerate(g.omegas()):
        if om == omega:
            top |= 1 << v
    clique = _clique_of_size(adj, top, omega)
    cmask = sum(1 << u for u in set(clique))
    if cmask.bit_count() != omega or any(cmask & ~adj[u] != 1 << u for u in clique):
        raise InternalBugError("clique witness is not a clique of omega vertices")
    classes = [0] * omega
    for v, c in enumerate(colours):
        if 0 <= c < omega:
            classes[c] |= 1 << v
    covered = 0
    for cls in classes:
        if any(adj[v] & cls for v in mask_members(cls)):
            raise InternalBugError("colour class is not a stable set")
        covered |= cls
    if covered != (1 << g.n) - 1:
        raise InternalBugError("colour classes fail to cover a vertex")
    one, zero = Fraction(1), Fraction(0)
    return FractionalChromaticSolution(
        value=Fraction(omega),
        weights={frozenset(mask_members(cls)): one for cls in classes},
        dual=tuple(one if cmask >> v & 1 else zero for v in range(g.n)),
    )


def fractional_chromatic_solution(g, vertex_limit=None):
    """Certified optimum of the covering LP over stable sets.

    When the DSATUR colouring uses omega colours, its classes (weight 1
    each) and a largest clique (weight 1 on each member) are primal and
    dual solutions of value omega, so chi_f = omega with no enumeration.
    Otherwise the packing dual over the maximal stable sets (maximise
    the sum of per-vertex values subject to at most 1 on every set) is
    solved exactly, and the covering weights come from the optimal
    tableau. Either certificate is re-checked before returning.
    """
    check_enumeration_size(g, vertex_limit)
    n = g.n
    if n == 0:
        return FractionalChromaticSolution(Fraction(0), {}, ())
    omega = clique_number(g)
    colours = _dsatur_greedy(g.adj, n)
    if max(colours) + 1 == omega:
        return _integral_solution(g, omega, colours)
    fam = maximal_stable_sets(g, limit=vertex_limit)
    if len(fam.sets) > LP_SET_LIMIT:
        raise SizeLimitError(
            f"LP over {len(fam.sets)} stable sets exceeds the limit {LP_SET_LIMIT}"
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


def fractional_chromatic_number(g, vertex_limit=None):
    return fractional_chromatic_solution(g, vertex_limit).value


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
