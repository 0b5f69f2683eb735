"""Degree-clique colouring bounds.

Global, local, and superlocal variants for simple graphs, the
nine-expression edge bound for multigraphs, the clique-average bound,
and the subgraph-neighbourhood-average bound. All values are exact
rationals or integers; no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, check_vertex_limit
from .graphs import line_graph
from .stable_sets import _bron_kerbosch

SUBGRAPH_SCAN_LIMIT = 12


def clique_number(g):
    return max(g.omegas(), default=0)


def gamma_ll_prime(g):
    """Max of the per-edge bound; 1 on an edgeless nonempty graph, 0 on the empty graph."""
    if g.n == 0:
        return Fraction(0)
    if not g.edges:
        return Fraction(1)
    # s(x) = d(x) + 1 + omega(x); the edge bound is (s(u) + s(v)) / 4
    s = [g.degree(v) + 1 + om for v, om in enumerate(g.omegas())]
    return Fraction(max(s[u] + s[v] for u, v in g.edges), 4)


def gamma_ll(g):
    return math.ceil(gamma_ll_prime(g))


@dataclass(frozen=True)
class VertexBounds:
    degree: tuple
    omega: tuple
    gamma_l_prime: tuple


def vertex_bounds(g):
    deg = tuple(g.degree(v) for v in range(g.n))
    om = g.omegas()
    glp = tuple(Fraction(deg[v] + 1 + om[v], 2) for v in range(g.n))
    return VertexBounds(degree=deg, omega=om, gamma_l_prime=glp)


@dataclass(frozen=True)
class GraphBounds:
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
    deg = [g.degree(v) for v in range(g.n)]
    om = g.omegas()
    delta, omega = max(deg), max(om)
    gp = Fraction(delta + 1 + omega, 2)
    glp = Fraction(max(d + 1 + o for d, o in zip(deg, om)), 2)
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

    Twice gamma_l_prime(v) is the integer d(v) + 1 + omega(v), so each
    clique's average is its integer sum over twice its size. The
    cliques are read as bare masks from Bron-Kerbosch and summed by a
    bit loop; the best (sum, size) pair is compared by cross products,
    and the one Fraction is built at the end.
    """
    if g.n == 0:
        raise DomainError("clique average needs a nonempty vertex set")
    twice = [g.degree(v) + 1 + om for v, om in enumerate(g.omegas())]
    best_num, best_den = 0, 1
    # no size refusal here: the scan is over the graph's own cliques
    for clique in _bron_kerbosch(g.adj, (1 << g.n) - 1):
        total = size = 0
        while clique:
            b = clique & -clique
            total += twice[b.bit_length() - 1]
            size += 1
            clique ^= b
        if total * best_den > best_num * size:
            best_num, best_den = total, size
    return Fraction(best_num, 2 * best_den)


def subgraph_neighbourhood_bound(g):
    """Max closed-neighbourhood average over all nonempty induced subgraphs.

    The max is over every induced subgraph H = G[mask] and every vertex
    v of H of the average of gamma_l_prime, computed in H, over the
    closed neighbourhood of v in H. Builds a table over all 2^n vertex
    sets, so refuses above SUBGRAPH_SCAN_LIMIT vertices.

    One pass in increasing order fills clq[s], the clique number of
    every vertex set s: with v the lowest vertex of s and rest = s - v,
    a largest clique of s either avoids v or is v plus a clique inside
    N(v), so clq[s] = max(clq[rest], 1 + clq[rest & N(v)]).

    Lemma: only the subgraphs that delete part of one neighbourhood
    need a visit. In H, twice gamma_l_prime(u) is the integer
    h_H(u) = d_H(u) + 1 + omega_H(u), and both terms can only grow when
    vertices are added to H. Fix v and T = N_H(v). Every mask with that
    T is {v} | T | S with S outside N[v], and the average is over the
    fixed set {v} | T, so the best such mask takes all of S: it is
    full ^ (N(v) ^ T), that is G - (N(v) - T). The scan therefore runs
    T over the subsets of N(v), by t = (t - 1) & N(v) down to 0. The
    centre has h = |T| + 2 + clq[T]; each u in T has
    h = |N(u) & mask| + 2 + clq[N(u) & mask].

    Cost: sum over v of 2^d(v) subgraphs, at most d(v) + 1 table reads
    each, plus the 2^n clq table. The best average is kept as an
    integer pair compared by cross products, and the one Fraction is
    built at the end.
    """
    check_vertex_limit("subgraph scan", g.n, SUBGRAPH_SCAN_LIMIT)
    if g.n == 0:
        raise DomainError("bound needs a nonempty vertex set")
    n = g.n
    full = (1 << n) - 1
    adj = g.adj
    clq = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        a = clq[rest]
        b = 1 + clq[rest & adj[low.bit_length() - 1]]
        clq[s] = a if a >= b else b
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
