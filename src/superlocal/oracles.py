"""Exact ground-truth oracles.

Chromatic number by saturation-ordered branch and bound, fractional
chromatic number certified by a clique and a DSATUR colouring of the
same size where they meet and by an exact LP otherwise, stability
number, and the complement-matching colouring for graphs with stability
number at most two. The stability number and the clique of the chi_f
certificate come from the package's one maximum-clique branch and bound
(graphs.maximum_cliques), each asking for its first largest clique.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import _kernels, stable_sets
from .errors import DomainError, InternalBugError, SizeLimitError, check_vertex_limit
from .graphs import _dsatur_pick, mask_members, maximum_cliques
from .invariants import clique_number
from .simplex import solve_simplex
from .stable_sets import check_enumeration_size, maximal_stable_sets

CHROMATIC_VERTEX_LIMIT = 16
MATCHING_VERTEX_LIMIT = 20
LP_SET_LIMIT = 4096


class VertexColouring(NamedTuple):
    colours: tuple  # colour index per vertex, 0-based
    k: int


def verify_vertex_colouring(g, vc):
    """True iff the colouring is proper and uses colours 0..k-1."""
    if len(vc.colours) != g.n:
        return False
    if any(not 0 <= c < vc.k for c in vc.colours):
        return False
    return all(vc.colours[u] != vc.colours[v] for u, v in g.edges)


def chromatic_number(g):
    """Exact chi with a witness colouring."""
    check_vertex_limit("chromatic number", g.n, CHROMATIC_VERTEX_LIMIT)
    n = g.n
    if n == 0:
        return 0, VertexColouring((), 0)
    adj = g.adj
    lb = clique_number(g)
    best = g.greedy_colouring()
    best_k = max(best) + 1
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


def stability_number(g):
    check_vertex_limit("stability number", g.n, stable_sets.ENUMERATION_VERTEX_LIMIT)
    return maximum_cliques(g.complement_masks(), (1 << g.n) - 1)[0]


class FractionalChromaticSolution(NamedTuple):
    value: Fraction
    # stable-set mask -> positive numerator over den, a fractional colouring
    # of total value: over stable sets, and over maximal ones on the LP route
    weights: dict
    dual: tuple  # per-vertex numerators over den, a fractional clique of total value
    den: int  # > 0


def _integral_solution(g, omega, colours):
    """chi_f = omega, certified by weight 1 on each of omega stable
    colour classes and on each vertex of an omega-clique, all over 1."""
    adj = g.adj
    # v with omega(v) = omega and the first largest clique inside N(v)
    # make an omega-clique
    v = g.omegas().index(omega)
    cmask = 1 << v | maximum_cliques(adj, adj[v])[1][0]
    members = mask_members(cmask)
    if len(members) != omega or any(cmask & ~adj[u] != 1 << u for u in members):
        raise InternalBugError("clique witness is not a clique of omega vertices")
    if not verify_vertex_colouring(g, VertexColouring(colours, omega)):
        raise InternalBugError("DSATUR classes are not a proper omega-colouring")
    classes = [0] * omega
    for v, c in enumerate(colours):
        classes[c] |= 1 << v
    return FractionalChromaticSolution(
        value=Fraction(omega),
        weights=dict.fromkeys(classes, 1),
        dual=tuple(cmask >> v & 1 for v in range(g.n)),
        den=1,
    )


def fractional_chromatic_solution(g):
    """Certified optimum of the covering LP over stable sets.

    When the DSATUR colouring uses omega colours, its classes (weight 1
    each) and a largest clique (weight 1 on each member) are primal and
    dual solutions of value omega, so chi_f = omega with no enumeration.
    Otherwise the packing dual over the maximal stable sets (maximise
    the sum of per-vertex values subject to at most 1 on every set) is
    solved exactly, and the covering weights come from the optimal
    tableau. Either certificate is re-checked before returning.
    """
    check_enumeration_size(g)
    n = g.n
    if n == 0:
        return FractionalChromaticSolution(Fraction(0), {}, (), 1)
    omega = clique_number(g)
    colours = g.greedy_colouring()
    if max(colours) + 1 == omega:
        return _integral_solution(g, omega, colours)
    fam = maximal_stable_sets(g)
    if len(fam.sets) > LP_SET_LIMIT:
        raise SizeLimitError(
            f"LP over {len(fam.sets)} stable sets exceeds the limit {LP_SET_LIMIT}"
        )
    rows = [[(mask >> v) & 1 for v in range(n)] for mask in fam.sets]
    value, y, w, den = solve_simplex(rows, [1] * len(rows), [1] * n)

    # certificate: y is a feasible fractional clique, w a feasible
    # fractional colouring, and the two objectives agree exactly; all
    # checked on the simplex's integer numerators over its one den
    if den <= 0:
        raise InternalBugError("nonpositive simplex denominator")
    if any(yi < 0 for yi in y):
        raise InternalBugError("negative dual vertex weight")
    members = [mask_members(mask) for mask in fam.sets]
    for ms in members:
        if sum(map(y.__getitem__, ms)) > den:
            raise InternalBugError("fractional clique overloads a stable set")
    if any(wi < 0 for wi in w):
        raise InternalBugError("negative stable set weight")
    cover = [0] * n
    for wi, ms in zip(w, members):
        for v in ms:
            cover[v] += wi
    if any(cv < den for cv in cover):
        raise InternalBugError("stable set weights fail to cover a vertex")
    if sum(y) != value or sum(w) != value:
        raise InternalBugError("primal and dual objective values disagree")
    return FractionalChromaticSolution(
        value=Fraction(value, den),
        weights={mask: wi for wi, mask in zip(w, fam.sets) if wi > 0},
        dual=tuple(y),
        den=den,
    )


def chi_via_complement_matching(g):
    """chi = n - nu(complement) for graphs with stability number <= 2.

    Colour classes are the matched complement pairs plus singletons.
    """
    n = g.n
    check_vertex_limit("matching oracle", n, MATCHING_VERTEX_LIMIT)
    if n == 0:
        return 0, VertexColouring((), 0)
    adj = g.complement_masks()
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
