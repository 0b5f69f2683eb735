"""Independent reference implementations used as test oracles.

Everything here recomputes values from first principles with plain
subset enumeration or unpruned backtracking, sharing only the graph
containers with the package under test (induced_subgraph and the
fractional construction's trace classes count as containers). The
fractional colouring references keep weights as frozensets of vertex
ids with Fraction values, so tests convert the package's bitmasks and
integer numerators to that form before comparing. There are
three exceptions: bf_neighbourhood_average, which reads omega from the
graph's own omegas() so that the question-scan lemma tests reach 12
vertices (omegas() itself is checked against bf_omega_v);
bf_solve_simplex, a full Fraction tableau that must make the same
Bland pivots as the package's integer simplex; and bf_chi_prime_cut,
a backtracking pruned by colour symmetry so that chi' is checked on
every corpus multigraph with up to 12 edges and on the Petersen graph
(it is checked against bf_chi_prime).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from superlocal import (
    ColouringVerdict,
    InternalBugError,
    IterationRecord,
    IterationTrace,
    SimpleGraph,
    induced_subgraph,
)


def _members(mask, n):
    return [v for v in range(n) if mask >> v & 1]


def bf_is_stable(g, members):
    return all(not g.has_edge(u, v) for u, v in itertools.combinations(members, 2))


def bf_is_clique(g, members):
    return all(g.has_edge(u, v) for u, v in itertools.combinations(members, 2))


def bf_maximal_stable_sets(g):
    """Backtracking over every stable set, each vertex out or (when no
    member is adjacent) in; a complete set is kept when every other
    vertex has a neighbour in it."""
    out = []

    def rec(v, members):
        if v == g.n:
            if all(
                any(g.has_edge(w, u) for u in members)
                for w in range(g.n)
                if w not in members
            ):
                out.append(frozenset(members))
            return
        rec(v + 1, members)
        if not any(g.has_edge(u, v) for u in members):
            rec(v + 1, members + [v])

    rec(0, [])
    return sorted(out, key=sorted)


def bf_maximal_cliques(g):
    out = []
    for mask in range(1 << g.n):
        members = _members(mask, g.n)
        if not bf_is_clique(g, members):
            continue
        if any(
            bf_is_clique(g, members + [w]) for w in range(g.n) if w not in members
        ):
            continue
        out.append(frozenset(members))
    return sorted(out, key=sorted)


def bf_stability_number(g):
    best = 0
    for mask in range(1 << g.n):
        members = _members(mask, g.n)
        if bf_is_stable(g, members):
            best = max(best, len(members))
    return best


def bf_clique_number(g):
    best = 0
    for mask in range(1 << g.n):
        members = _members(mask, g.n)
        if bf_is_clique(g, members):
            best = max(best, len(members))
    return best


def bf_maximum_stable_sets(g):
    alpha = bf_stability_number(g)
    return [
        frozenset(_members(mask, g.n))
        for mask in range(1 << g.n)
        if bin(mask).count("1") == alpha and bf_is_stable(g, _members(mask, g.n))
    ]


def bf_membership_probabilities(g):
    sets = bf_maximum_stable_sets(g)
    return {
        v: Fraction(sum(1 for s in sets if v in s), len(sets)) for v in range(g.n)
    }


def bf_omega_v(g, v):
    best = 0
    nbrs = g.neighbours(v)
    for r in range(len(nbrs) + 1):
        for combo in itertools.combinations(nbrs, r):
            if bf_is_clique(g, list(combo)):
                best = max(best, r)
    return 1 + best


def bf_gamma_l_prime_induced(g, v):
    """(d(v) + 1 + omega(v)) / 2 as the global bound of the closed
    neighbourhood, which has maximum degree d(v) and clique number omega(v)."""
    sub, _ = induced_subgraph(g, (v,) + g.neighbours(v))
    delta = max(sub.degree(u) for u in range(sub.n))
    return Fraction(delta + 1 + bf_clique_number(sub), 2)


def bf_neighbourhood_average(g, v):
    """Average of (d(u) + 1 + omega(u)) / 2 over the closed neighbourhood of v."""
    om = g.omegas()
    members = (v,) + g.neighbours(v)
    return Fraction(sum(g.degree(u) + 1 + om[u] for u in members), 2 * len(members))


def bf_clique_average_bound(g):
    """Clique average from its definition: Fraction averages of
    (d(v) + 1 + omega(v)) / 2 over every maximal clique."""
    glp = [Fraction(g.degree(v) + 1 + bf_omega_v(g, v), 2) for v in range(g.n)]
    return max(sum(glp[v] for v in c) / len(c) for c in bf_maximal_cliques(g))


def bf_subgraph_neighbourhood_bound(g):
    """Question bound from its definition, one induced subgraph at a time.

    Every nonempty vertex set is rebuilt as its own relabelled graph,
    omega comes from neighbourhood subsets, and the closed-neighbourhood
    averages of gamma_l_prime are Fractions.
    """
    best = Fraction(0)
    for mask in range(1, 1 << g.n):
        members = _members(mask, g.n)
        h = SimpleGraph(
            len(members),
            [
                (i, j)
                for i, j in itertools.combinations(range(len(members)), 2)
                if g.has_edge(members[i], members[j])
            ],
        )
        glp = [Fraction(h.degree(v) + 1 + bf_omega_v(h, v), 2) for v in range(h.n)]
        for v in range(h.n):
            closed = (v,) + h.neighbours(v)
            best = max(best, sum(glp[u] for u in closed) / len(closed))
    return best


def clique_table(adj):
    """clq[s], the clique number of every vertex set s of the graph with
    adjacency masks adj, as a list of 2^len(adj) ints.

    One pass in increasing order: with v the lowest vertex of s and
    rest = s - v, a largest clique of s either avoids v or is v plus a
    clique inside N(v), so clq[s] = max(clq[rest], 1 + clq[rest & N(v)]).
    """
    clq = [0] * (1 << len(adj))
    for s in range(1, len(clq)):
        low = s & -s
        rest = s ^ low
        a = clq[rest]
        b = 1 + clq[rest & adj[low.bit_length() - 1]]
        clq[s] = a if a >= b else b
    return clq


def bf_question_by_deletions(g):
    """The question scan of the lemma without a prune: every centre v
    visits G - (N(v) - T) for every T within N(v), reading clique
    numbers from the 2^n clique_table, and the best average of
    h = d + 1 + omega over N[v] in that subgraph is kept as an integer
    pair compared by cross products."""
    n = g.n
    full = (1 << n) - 1
    adj = g.adj
    clq = clique_table(adj)
    best_num, best_den = 0, 1
    for v in range(n):
        nbrs = adj[v]
        t = nbrs
        while True:
            mask = full ^ nbrs ^ t
            num = t.bit_count() + 2 + clq[t]
            den = 1
            m = t
            while m:
                b = m & -m
                nu = adj[b.bit_length() - 1] & mask
                num += nu.bit_count() + 2 + clq[nu]
                den += 1
                m ^= b
            if num * best_den > best_num * den:
                best_num, best_den = num, den
            if not t:
                break
            t = (t - 1) & nbrs
    return Fraction(best_num, 2 * best_den)


def bf_gamma_ll_prime(g):
    if g.n == 0:
        return Fraction(0)
    if not g.edges:
        return Fraction(1)
    om = [bf_omega_v(g, v) for v in range(g.n)]
    return max(
        Fraction(g.degree(u) + g.degree(v) + om[u] + om[v] + 2, 4) for u, v in g.edges
    )


def bf_superlocal_fractional_colour(g):
    """Reference for superlocal_fractional_colour.

    Each round rebuilds the surviving graph with induced_subgraph, lists
    its maximum stable sets by brute force in sorted order, and maps
    every set back through the labels table. Returns (weights, total,
    trace): weights maps frozensets to Fractions in order of first use,
    and trace is the package's IterationTrace, so that it compares
    equal field by field. Each round is capped at the budget left under
    gamma'_ll, as in the paper, and raises AssertionError when the cap
    binds; the package's construction has no budget and records only a
    round's low, so agreeing with it shows that the cap never binds.
    """
    bound = bf_gamma_ll_prime(g)
    weights = {}
    wo = {v: Fraction(0) for v in range(g.n)}
    total = Fraction(0)
    records = []
    alive = tuple(range(g.n))
    while alive and total < bound:
        sub, labels = induced_subgraph(g, alive)
        sets = [
            frozenset(labels[v] for v in s)
            for s in sorted(bf_maximum_stable_sets(sub), key=sorted)
        ]
        count = len(sets)
        hits = {v: sum(1 for s in sets if v in s) for v in alive}
        low = min((1 - wo[v]) * count / hits[v] for v in alive if hits[v])
        val = min(low, bound - total)
        if val != low:
            raise AssertionError(f"the cap under gamma'_ll binds: {val} < {low}")
        for s in sets:
            weights[s] = weights.get(s, Fraction(0)) + Fraction(val, count)
        for v in alive:
            wo[v] += Fraction(hits[v], count) * val
        total += val
        records.append(IterationRecord(alive, count, low))
        alive = tuple(v for v in alive if wo[v] < 1)
    return weights, total, IterationTrace(records=tuple(records))


def bf_verify_fractional_colouring(g, weights, recorded, bound):
    """Reference for verify_fractional_colouring: the same checks and
    messages in the same order, on frozensets with Fraction weights and
    the recorded total, with stability tested pair by pair through
    has_edge."""
    violations = []
    cover = {v: Fraction(0) for v in range(g.n)}
    for key in sorted(weights, key=sorted):
        w = weights[key]
        members = sorted(key)
        if w <= 0:
            violations.append(f"set {members} has nonpositive weight {w}")
        for v in members:
            if not 0 <= v < g.n:
                violations.append(f"set {members} contains unknown vertex {v}")
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if 0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v):
                    violations.append(f"set {members} is not stable: edge ({u},{v})")
        for v in members:
            if v in cover:
                cover[v] += w
    for v in range(g.n):
        if cover[v] != 1:
            violations.append(f"vertex {v} covered {cover[v]}, expected 1")
    total = sum(weights.values(), Fraction(0))
    if total != recorded:
        violations.append(f"recorded total {recorded} differs from actual {total}")
    if total > Fraction(bound):
        violations.append(f"total {total} exceeds bound {Fraction(bound)}")
    return ColouringVerdict(valid=not violations, violations=tuple(violations))


def bf_colourable(g, k):
    """Straight backtracking, no ordering tricks."""
    if g.n == 0:
        return True
    if k <= 0:
        return g.edge_count == 0 and g.n == 0
    colours = [0] * g.n

    def rec(v):
        if v == g.n:
            return True
        for c in range(1, k + 1):
            if all(colours[u] != c for u in g.neighbours(v) if u < v):
                colours[v] = c
                if rec(v + 1):
                    return True
        colours[v] = 0
        return False

    return rec(0)


def bf_chromatic_number(g):
    for k in range(g.n + 1):
        if bf_colourable(g, k):
            return k
    raise AssertionError("n colours always suffice")


def bf_dsatur(g):
    """DSATUR (Brelaz 1979) with every saturation set rebuilt on every
    pick: the uncoloured vertex whose neighbours show the most distinct
    colours, then the highest degree, then the lowest id, takes the
    lowest colour none of its neighbours has."""
    colours = [-1] * g.n
    for _ in range(g.n):
        pick, pick_key = None, None
        for v in range(g.n):
            if colours[v] < 0:
                seen = {colours[u] for u in g.neighbours(v)} - {-1}
                key = (len(seen), g.degree(v), -v)
                if pick_key is None or key > pick_key:
                    pick, pick_key = v, key
        seen = {colours[u] for u in g.neighbours(pick)}
        colours[pick] = next(c for c in itertools.count() if c not in seen)
    return colours


def bf_matching_number(g):
    """Maximum matching by recursion on the first unsaturated vertex."""

    def rec(mask):
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        best = rec(rest)
        for u in g.neighbours(v):
            if rest >> u & 1:
                best = max(best, 1 + rec(rest ^ (1 << u)))
        return best

    return rec((1 << g.n) - 1)


def bf_chi_prime(mg):
    """Chromatic index by unpruned backtracking over edge colourings."""
    m = mg.edge_count
    if m == 0:
        return 0
    adjacent = [
        [
            f
            for f in range(m)
            if f != e and set(mg.endpoints(e)) & set(mg.endpoints(f))
        ]
        for e in range(m)
    ]

    def feasible(k):
        colours = [0] * m

        def rec(e):
            if e == m:
                return True
            for c in range(1, k + 1):
                if all(colours[f] != c for f in adjacent[e] if f < e):
                    colours[e] = c
                    if rec(e + 1):
                        return True
            colours[e] = 0
            return False

        return rec(0)

    k = 1
    while not feasible(k):
        k += 1
    return k


def bf_chi_prime_cut(mg):
    """Chromatic index by backtracking that breaks colour symmetry.

    Edges are coloured in listing order, and an edge may only take a
    colour at most one above the largest used so far: any colouring
    renames to one of that form.
    """
    m = mg.edge_count
    ends = [mg.endpoints(e) for e in range(m)]
    taken = [0] * mg.n  # per vertex, the bitmask of colours at it

    def rec(e, used, k):
        if e == m:
            return True
        u, v = ends[e]
        for c in range(min(used + 1, k)):
            if not (taken[u] | taken[v]) >> c & 1:
                taken[u] |= 1 << c
                taken[v] |= 1 << c
                found = rec(e + 1, max(used, c + 1), k)
                taken[u] ^= 1 << c
                taken[v] ^= 1 << c
                if found:
                    return True
        return False

    k = max((mg.degree(v) for v in range(mg.n)), default=0)
    while not rec(0, 0, k):
        k += 1
    return k


def _bf_mu(mg, u, v):
    """Multiplicity of the pair uv, 0 off the support."""
    return mg.multiplicities().get((min(u, v), max(u, v)), 0)


def bf_t_value(mg, u, v):
    """max over common neighbours w of mu(uv) + mu(uw) + mu(vw); 0 without one."""
    return max(
        (_bf_mu(mg, u, v) + _bf_mu(mg, u, w) + _bf_mu(mg, v, w)
         for w in range(mg.n)
         if w not in (u, v) and _bf_mu(mg, u, w) and _bf_mu(mg, v, w)),
        default=0,
    )


def bf_nine_expressions(mg, u, v, w):
    """The nine candidate values for the edge pair (uv, vw) with midpoint v."""
    du, dv, dw = mg.degree(u), mg.degree(v), mg.degree(w)
    mu_uv, mu_vw = _bf_mu(mg, u, v), _bf_mu(mg, v, w)
    tuv, tvw = bf_t_value(mg, u, v), bf_t_value(mg, v, w)
    h = Fraction(1, 2)
    left = (du + h * (dv - mu_uv), dv + h * (du - mu_uv), h * (du + dv - mu_uv + tuv))
    right = (dv + h * (dw - mu_vw), dw + h * (dv - mu_vw), h * (dv + dw - mu_vw + tvw))
    return tuple(a + b for a in left for b in right)


def bf_gamma_bar_ll(mg):
    """Edge bound straight from its definition.

    The nine expressions for every ordered pair of distinct incident
    edge ids, then the ceiling of half their max; 1 when no two edges
    share an endpoint.
    """
    best = Fraction(0)
    for v in range(mg.n):
        ids = mg.incident(v)
        for e1, e2 in itertools.permutations(ids, 2):
            u = sum(mg.endpoints(e1)) - v
            w = sum(mg.endpoints(e2)) - v
            best = max(best, max(bf_nine_expressions(mg, u, v, w)))
    if best == 0:
        return 1
    return math.ceil(best / 2)


def bf_line_graph(mg):
    """The line graph from its definition: every pair of edge ids whose
    edges share an endpoint, parallel edges included."""
    m = mg.edge_count
    pairs = [
        (a, b)
        for a, b in itertools.combinations(range(m), 2)
        if set(mg.endpoints(a)) & set(mg.endpoints(b))
    ]
    return SimpleGraph(m, pairs)


def bf_isomorphic(g, h):
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in g.edges):
            return True
    return False


def bf_complement(g):
    """The complement of g, every vertex pair tested through has_edge."""
    pairs = itertools.combinations(range(g.n), 2)
    return SimpleGraph(g.n, [(u, v) for u, v in pairs if not g.has_edge(u, v)])


def bf_edge_mask(g):
    """The edge set as an integer: bit k is the pair of lexicographic rank k,
    the bit order of orderly.py's least masks, by which the class table
    sorts each n; ranked by itertools."""
    pairs = itertools.combinations(range(g.n), 2)
    return sum(1 << k for k, (u, v) in enumerate(pairs) if g.has_edge(u, v))


def bf_graph_of_edge_mask(n, mask):
    """The n-vertex graph whose pair of rank k in bf_edge_mask's order is
    an edge iff bit k of mask is set."""
    pairs = itertools.combinations(range(n), 2)
    return SimpleGraph(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])


def bf_perm_edge_maps(n):
    """Edge-index permutation table, one tuple per vertex permutation.

    Edge indices are ranks in lexicographic pair order, the bit order of
    bf_edge_mask, listed by itertools.
    """
    pairs = list(itertools.combinations(range(n), 2))
    rank = {pair: k for k, pair in enumerate(pairs)}
    return [
        tuple(rank[tuple(sorted((perm[u], perm[v])))] for u, v in pairs)
        for perm in itertools.permutations(range(n))
    ]


def bf_orbit_minimum(mask, maps):
    """Least image of an edge mask under every map of bf_perm_edge_maps."""
    bits = [e for e in range(len(maps[0])) if mask >> e & 1]
    return min(sum(1 << pm[e] for e in bits) for pm in maps)


def bf_isomorphism_classes(graphs):
    """Greedy dedup by pairwise isomorphism tests; quadratic, tiny n only."""
    reps = []
    for g in graphs:
        if not any(bf_isomorphic(g, h) for h in reps):
            reps.append(g)
    return reps


def bf_solve_simplex(a, b, c):
    """Reference for solve_simplex: (value, x, y) from the same Bland pivots,
    as the Fractions that solve_simplex gives as numerators over its det.

    Keeps the full m x (nv + m + 1) tableau, slack identity included,
    as Fractions normalised after every pivot. y is read off the slack
    columns of the final objective row.
    """
    m = len(a)
    nv = len(c)
    one = Fraction(1)
    rows = []
    for i in range(m):
        if b[i] < 0:
            raise InternalBugError("simplex needs nonnegative right-hand sides")
        row = [Fraction(x) for x in a[i]]
        row.extend(one if j == i else Fraction(0) for j in range(m))
        row.append(Fraction(b[i]))
        rows.append(row)
    obj = [-Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = [nv + i for i in range(m)]
    width = nv + m

    guard = 0
    max_steps = 1000 * (m + nv + 1)
    while True:
        guard += 1
        if guard > max_steps:
            raise InternalBugError("simplex exceeded its step guard")
        enter = -1
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise InternalBugError("unbounded linear program")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, rows[leave])]
        basis[leave] = enter

    x = [Fraction(0)] * nv
    for i, bi in enumerate(basis):
        if bi < nv:
            x[bi] = rows[i][-1]
    y = [obj[nv + i] for i in range(m)]
    return obj[-1], x, y
