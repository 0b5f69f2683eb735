"""Degree-clique colouring bounds.

Global, local, and superlocal variants for simple graphs, the
nine-expression edge bound for multigraphs, the clique-average bound,
and the subgraph-neighbourhood-average bound. All values are exact
rationals or integers; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, check_vertex_limit
from .graphs import line_graph, maximum_cliques
from .stable_sets import _bron_kerbosch

SUBGRAPH_SCAN_LIMIT = 12


def clique_number(g):
    return max(g.omegas(), default=0)


def local_sums(g):
    """h(v) = d(v) + 1 + omega(v) for every vertex: twice its local bound.

    Every degree-clique bound of a simple graph averages h / 2 over some
    set: one vertex, the two ends of an edge, a clique, a closed
    neighbourhood.
    """
    return [a.bit_count() + 1 + om for a, om in zip(g.adj, g.omegas())]


def gamma_ll_prime(g):
    """Max of the per-edge bound; 1 on an edgeless nonempty graph, 0 on the empty graph."""
    if g.n == 0:
        return Fraction(0)
    if not g.edges:
        return Fraction(1)
    # the edge bound is (h(u) + h(v)) / 4
    h = local_sums(g)
    return Fraction(max(h[u] + h[v] for u, v in g.edges), 4)


def gamma_ll(g):
    return math.ceil(gamma_ll_prime(g))


class GraphBounds(NamedTuple):
    delta: int
    omega: int
    gamma_prime: Fraction
    gamma: int
    gamma_l_prime: Fraction
    gamma_l: int
    gamma_ll_prime: Fraction
    gamma_ll: int


def graph_bounds(g):
    if g.n == 0:
        z = Fraction(0)
        return GraphBounds(0, 0, z, 0, z, 0, z, 0)
    delta, omega = max(a.bit_count() for a in g.adj), clique_number(g)
    gp = Fraction(delta + 1 + omega, 2)
    glp = Fraction(max(local_sums(g)), 2)
    gllp = gamma_ll_prime(g)
    return GraphBounds(
        delta=delta,
        omega=omega,
        gamma_prime=gp,
        gamma=math.ceil(gp),
        gamma_l_prime=glp,
        gamma_l=math.ceil(glp),
        gamma_ll_prime=gllp,
        gamma_ll=math.ceil(gllp),
    )


def gamma_bar_ll(mg):
    """Ceiling of half the max of the nine expressions over adjacent edge pairs.

    The nine expressions of the pair (uv, vw) are the sums a + b with a
    from the left triple of uv and b from the right triple of vw, so
    their max is max(left) + max(right). Doubled, both maxima are the
    same integer g of an edge, symmetric in its endpoints:
    g(uv) = max(2d(u)+d(v), 2d(v)+d(u), d(u)+d(v)+t(uv)) - mu(uv).
    The doubled max over pairs is therefore the sum of the two largest
    g over the incident edge ids of some vertex v; a neighbour u with
    mu(uv) >= 2 may fill both places (the pair u = w). Halving and
    rounding up is one ceiling division by 4.

    The support pairs are read once into per-vertex rows mu[u][v], and
    t(uv) = mu(uv) + max(mu(uw) + mu(vw)) comes from one walk over the
    shorter of the rows of u and v, looking each w up in the other.
    Each vertex keeps its two largest g as they arrive, so nothing is
    sorted, and the work space stays linear in n plus the support.
    """
    if mg.edge_count == 0:
        raise DomainError("edge bound undefined on an edgeless multigraph")
    n = mg.n
    pairs = mg.multiplicities()
    deg = [mg.degree(v) for v in range(n)]
    mu = [{} for _ in range(n)]
    for (u, v), m_uv in pairs.items():
        mu[u][v] = mu[v][u] = m_uv
    first = [0] * n  # largest g at each vertex so far (every g is positive)
    second = [0] * n  # second largest, 0 while fewer than two edges
    for (u, v), m_uv in pairs.items():
        du, dv = deg[u], deg[v]
        short, other = (mu[u], mu[v]) if len(mu[u]) <= len(mu[v]) else (mu[v], mu[u])
        t = 0
        for w, m_w in short.items():
            # no loops: neither u nor v has a row entry for itself, so
            # only common neighbours w are found in both rows
            m_other = other.get(w)
            if m_other is not None and m_w + m_other > t:
                t = m_w + m_other
        if t:
            t += m_uv
        g = max(2 * du + dv, 2 * dv + du, du + dv + t) - m_uv
        for x in (u, v):
            if g > first[x]:
                second[x] = g if m_uv >= 2 else first[x]
                first[x] = g
            elif g > second[x]:
                second[x] = g
    best = max((a + b for a, b in zip(first, second) if b), default=0)
    if best == 0:
        # no two edges share an endpoint: the line graph is edgeless
        return 1
    return -(-best // 4)


def gamma_bar_ll_via_line_graph(mg):
    """Independent route: the superlocal bound of the line graph."""
    if mg.edge_count == 0:
        raise DomainError("edge bound undefined on an edgeless multigraph")
    return gamma_ll(line_graph(mg))


def clique_average_bound(g):
    """Max over maximal cliques of the average per-vertex local bound.

    Twice gamma_l_prime(v) is the integer h(v) of local_sums, so each
    clique's average is its integer sum of h over twice its size. The
    cliques are read as bare masks from Bron-Kerbosch and summed by a
    bit loop; the best (sum, size) pair is compared by cross products,
    and the one Fraction is built at the end.
    """
    if g.n == 0:
        raise DomainError("clique average needs a nonempty vertex set")
    h = local_sums(g)
    best_num, best_den = 0, 1
    # no size refusal here: the scan is over the graph's own cliques
    for clique in _bron_kerbosch(g.adj, (1 << g.n) - 1):
        total = size = 0
        while clique:
            b = clique & -clique
            total += h[b.bit_length() - 1]
            size += 1
            clique ^= b
        if total * best_den > best_num * size:
            best_num, best_den = total, size
    return Fraction(best_num, 2 * best_den)


def subgraph_neighbourhood_bound(g):
    """Max closed-neighbourhood average over all nonempty induced subgraphs.

    The max is over every induced subgraph H = G[mask] and every vertex
    v of H of the average of gamma_l_prime, computed in H, over the
    closed neighbourhood of v in H. Each clique number the walk below
    needs, clq(s) = omega(G[s]), is searched by maximum_cliques at most
    once per call and kept in a dict; the walk is 2^d(v) subsets per
    centre, so the scan refuses above SUBGRAPH_SCAN_LIMIT vertices.

    Lemma: only the subgraphs that delete part of one neighbourhood
    need a visit. In H, twice gamma_l_prime(u) is the integer
    h_H(u) = d_H(u) + 1 + omega_H(u), and both terms can only grow when
    vertices are added to H. Fix v and T = N_H(v). Every mask with that
    T is {v} | T | S with S outside N[v], and the average is over the
    fixed set {v} | T, so the best such mask takes all of S: it is
    full ^ (N(v) ^ T), that is G - (N(v) - T). The scan therefore runs
    T over the subsets of N(v), by t = (t - 1) & N(v) down to 0. The
    centre has h = |T| + 2 + clq(T); each u in T has
    h = |N(u) & mask| + 2 + clq(N(u) & mask).

    Prune: the scan starts from the best T = N(v), H = G, over every v,
    which reads only h_G = local_sums(g). Deleting vertices lowers no
    h, so each u in T has h_H(u) <= h_G(u), and with |T| = k the sum
    over T is at most the sum of the k largest h_G over N(v). The centre
    has h_H(v) = k + 2 + clq(T) <= k + 1 + min(omega(v), k + 1), since
    clq(T) <= min(omega(v) - 1, k): each deleted neighbour costs the
    centre at least 1. So every T of size k averages at most
    (k + 1 + min(omega(v), k + 1) + top_k) / (k + 1). At k = d(v) this
    is the start value at v, so bit k of the mask ok records, for each
    k < d(v), whether that bound beats the best from before the walk; a
    centre with ok = 0 is skipped, and the walk skips every T whose bit
    |T| is clear before reading a clique number. The best only grows,
    so the stale ok admits extra T but never rejects one that could win.

    Cost: O(d(v) log d(v)) per centre for the prune; each surviving
    centre visits the 2^d(v) - 1 proper subsets of N(v), and each one
    of an admitted size reads at most d(v) + 1 clique numbers, every
    distinct set searched once. The best average is kept as an integer
    pair compared by cross products, and the one Fraction is built at
    the end.
    """
    check_vertex_limit("subgraph scan", g.n, SUBGRAPH_SCAN_LIMIT)
    if g.n == 0:
        raise DomainError("bound needs a nonempty vertex set")
    n = g.n
    full = (1 << n) - 1
    adj = g.adj
    om = g.omegas()
    h = local_sums(g)
    # per centre, h over N(v) from the largest down
    tops = [
        sorted((h[u] for u in range(n) if a >> u & 1), reverse=True) for a in adj
    ]
    best_num, best_den = 0, 1
    for v, top in enumerate(tops):
        num, den = h[v] + sum(top), len(top) + 1
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    memo = {}

    def clq(s):
        w = memo.get(s)
        if w is None:
            w = memo[s] = maximum_cliques(adj, s)[0]
        return w

    for v, top in enumerate(tops):
        cap = om[v]
        ok = 0  # the sizes k whose bound beats best, as bits
        s = 0  # the sum of the k largest h over N(v)
        for k, hu in enumerate(top):
            # the prune's bound for |T| = k, over k + 1 = c vertices
            c = k + 1
            if (c + (c if c < cap else cap) + s) * best_den > best_num * c:
                ok |= 1 << k
            s += hu
        if not ok:
            continue  # no T smaller than N(v) can beat best
        nbrs = adj[v]
        t = nbrs  # the start pass has counted T = N(v)
        while t:
            t = (t - 1) & nbrs
            c = t.bit_count() + 1  # the average is over {v} | T
            if not ok >> (c - 1) & 1:
                continue
            mask = full ^ nbrs ^ t
            num = c + 1 + clq(t)
            m = t
            while m:
                b = m & -m
                nu = adj[b.bit_length() - 1] & mask
                num += nu.bit_count() + 2 + clq(nu)
                m ^= b
            if num * best_den > best_num * c:
                best_num, best_den = num, c
    return Fraction(best_num, 2 * best_den)
