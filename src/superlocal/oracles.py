"""Exact ground-truth oracles.

Chromatic number by saturation-ordered branch and bound, fractional
chromatic number certified by a clique and a DSATUR colouring of the
same size where they meet and by an exact LP on the dominated-vertex
core otherwise, stability number, and the complement-matching colouring
for graphs with stability number at most two. The stability number and
the clique of the chi_f certificate come from the package's one
maximum-clique branch and bound (graphs.maximum_cliques), each asking
for its first largest clique.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import _kernels, stable_sets
from .errors import DomainError, InternalBugError, SizeLimitError, check_vertex_limit
from .graphs import _dsatur_pick, mask_members, maximum_cliques
from .invariants import clique_number
from .simplex import solve_simplex
from .stable_sets import _bron_kerbosch, check_enumeration_size, maximal_stable_sets

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
        sat = [0] * n  # per vertex, the mask of the colours on its neighbours
        deg = [a.bit_count() for a in adj]
        nbrs = [mask_members(a) for a in adj]

        def rec(done, used):
            nonlocal best, best_k
            if used >= best_k:
                return
            if done == n:
                best_k = used
                best = colours[:]
                return
            pick = _dsatur_pick(colours, sat, deg)
            seen, saved = sat[pick], sat[:]
            cap = min(used + 1, best_k - 1)
            for c in range(cap):
                if seen >> c & 1:
                    continue
                colours[pick] = c
                for u in nbrs[pick]:
                    sat[u] |= 1 << c
                rec(done + 1, max(used, c + 1))
                sat[:] = saved
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
    # of total value: over stable sets, and on the LP route over maximal
    # ones of g, the core's weighted sets lifted to all of g
    weights: dict
    dual: tuple  # per-vertex numerators over den, a fractional clique of total value
    den: int  # > 0


def _integral_solution(g, omega, colours):
    """chi_f = omega, certified by weight 1 on each of omega stable
    colour classes and on each vertex of an omega-clique, all over 1."""
    adj = g.adj
    cmask = g.omega_clique()
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


def _dominated_core(g):
    """(core, dropped): the vertex mask left once every dominated vertex
    is deleted, and the deleted vertices in order of deletion.

    u is dominated when some vertex v of the current graph is not
    adjacent to u and has every neighbour of u as a neighbour. The
    lowest dominated vertex goes first, until none is left; of two
    false twins only the lower goes, as the higher no longer has its
    dominator.
    """
    adj = g.adj
    core = (1 << g.n) - 1
    dropped = []
    u = 0
    while u < g.n:
        if core >> u & 1:
            # the dominators of u: the other vertices adjacent to all of
            # N(u), which leaves N(u) itself out
            doms = core ^ 1 << u
            m = adj[u] & core
            while m and doms:
                b = m & -m
                doms &= adj[b.bit_length() - 1]
                m ^= b
            if doms:
                core ^= 1 << u
                dropped.append(u)
                # only a neighbour of u can have become dominated
                low = adj[u] & core
                u = min(u, (low & -low).bit_length() - 1) if low else u
                continue
        u += 1
    return core, dropped


def _lift_sets(adj, dropped, masks):
    """Puts each dropped vertex, the last dropped first, into every set
    of masks that holds none of its neighbours."""
    for u in reversed(dropped):
        b, nbrs = 1 << u, adj[u]
        masks = [m if m & nbrs else m | b for m in masks]
    return masks


def fractional_chromatic_solution(g):
    """Certified optimum of the covering LP over stable sets.

    When the DSATUR colouring uses omega colours, its classes (weight 1
    each) and a largest clique (weight 1 on each member) are primal and
    dual solutions of value omega, so chi_f = omega with no enumeration.
    Otherwise the packing dual (maximise the sum of per-vertex values
    subject to at most 1 on every maximal stable set) is solved exactly
    on the dominated-vertex core (_dominated_core), and the covering
    weights come from the optimal tableau. Deleting a dominated vertex u
    keeps chi_f: in a fractional colouring of G - u, u can join every
    set that holds its dominator v. So the core's weighted sets are
    lifted (_lift_sets), the last deleted vertex first, and each then
    covers u at least as much as v; the lifted sets are distinct
    maximal stable sets of g, and the dual is 0 on deleted vertices.
    With nothing deleted the LP runs over all of g's maximal stable
    sets in their listed order. Either certificate is re-checked before
    returning, the LP's against every maximal stable set of g.
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
    core, dropped = _dominated_core(g)
    sets = fam.sets
    if dropped:
        sets = _bron_kerbosch(g.complement_masks(), core)
    cols = mask_members(core)
    rows = [[(mask >> v) & 1 for v in cols] for mask in sets]
    value, yc, w, den = solve_simplex(rows, [1] * len(rows), [1] * len(cols))
    y = [0] * n
    for v, yv in zip(cols, yc):
        y[v] = yv
    weighted = [(mask, wi) for mask, wi in zip(sets, w) if wi]
    lifted = _lift_sets(g.adj, dropped, [mask for mask, _ in weighted])
    weights = dict(zip(lifted, (wi for _, wi in weighted)))

    # certificate: y is a feasible fractional clique, w a feasible
    # fractional colouring over maximal stable sets of g, and the two
    # objectives agree exactly; all checked on the simplex's integer
    # numerators over its one den
    if den <= 0:
        raise InternalBugError("nonpositive simplex denominator")
    if any(yi < 0 for yi in y):
        raise InternalBugError("negative dual vertex weight")
    for mask in fam.sets:
        if sum(map(y.__getitem__, mask_members(mask))) > den:
            raise InternalBugError("fractional clique overloads a stable set")
    if any(wi < 0 for wi in w):
        raise InternalBugError("negative stable set weight")
    if not weights.keys() <= set(fam.sets):
        raise InternalBugError("a weighted set is not a maximal stable set")
    cover = [0] * n
    for mask, wi in weights.items():
        for v in mask_members(mask):
            cover[v] += wi
    if any(cv < den for cv in cover):
        raise InternalBugError("stable set weights fail to cover a vertex")
    if sum(y) != value or sum(w) != value:
        raise InternalBugError("primal and dual objective values disagree")
    return FractionalChromaticSolution(Fraction(value, den), weights, tuple(y), den)


def chi_via_complement_matching(g):
    """chi = n - nu(complement) for graphs with stability number <= 2.

    Colour classes are the matched complement pairs plus singletons,
    numbered by their lowest vertex.
    """
    n = g.n
    check_vertex_limit("matching oracle", n, MATCHING_VERTEX_LIMIT)
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
    pairs = _kernels.matching_dp(adj, (1 << n) - 1)
    # a pair's upper end takes the colour of its lower end, met first
    partner = {u: v for v, u in pairs}
    colours = [-1] * n
    k = 0
    for w in range(n):
        if w in partner:
            colours[w] = colours[partner[w]]
        else:
            colours[w] = k
            k += 1
    if k != n - len(pairs):
        raise InternalBugError("complement matching pairs overlap")
    vc = VertexColouring(tuple(colours), k)
    if not verify_vertex_colouring(g, vc):
        raise InternalBugError("complement matching produced an improper colouring")
    return k, vc
