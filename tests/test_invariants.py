import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superlocal import (
    DomainError,
    Multigraph,
    SimpleGraph,
    SizeLimitError,
    clique_average_bound,
    clique_number,
    gamma_bar_ll,
    gamma_bar_ll_via_line_graph,
    gamma_ll,
    gamma_ll_prime,
    graph_bounds,
    induced_subgraph,
    subgraph_neighbourhood_bound,
    vertex_bounds,
)
from bruteforce import (
    bf_clique_average_bound,
    bf_clique_number,
    bf_gamma_bar_ll,
    bf_gamma_l_prime_induced,
    bf_gamma_ll_prime,
    bf_neighbourhood_average,
    bf_nine_expressions,
    bf_omega_v,
    bf_subgraph_neighbourhood_bound,
    bf_t_value,
)
from conftest import complete, cycle, double_star, path, pendant_clique, petersen


# path 1-0-2-3 with multiplicities 3, 2, 3
PARALLEL_PATH = [(0, 1)] * 3 + [(0, 2)] * 2 + [(2, 3)] * 3


def multigraphs_st():
    def build(n, picks):
        edges = []
        for (u, v), m in picks:
            if u != v and u < n and v < n:
                edges.extend([(u, v)] * m)
        return Multigraph(n, edges)

    return st.integers(2, 6).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(
                st.tuples(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(1, 3),
                ),
                max_size=8,
            ),
        )
    )


def graphs_st(max_n, max_edges):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            SimpleGraph,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=max_edges,
            )
            if n >= 2
            else st.just([]),
        )
    )


small_graphs_st = graphs_st(8, 20)


def seeded_g12():
    """A seeded G(12, 1/2), at the subgraph scan limit."""
    rng = random.Random(4)
    return SimpleGraph(
        12, [e for e in itertools.combinations(range(12), 2) if rng.randrange(2)]
    )


def seeded_dense_g12():
    """A seeded G(12, 9/10): dense neighbourhoods, so the scan rarely prunes."""
    rng = random.Random(4)
    return SimpleGraph(
        12, [e for e in itertools.combinations(range(12), 2) if rng.randrange(10)]
    )


class TestCliqueNumbers:
    def test_omega_v_matches_bruteforce(self, classes6):
        for g in classes6:
            for v in range(g.n):
                assert g.omegas()[v] == bf_omega_v(g, v)

    def test_clique_number_matches_bruteforce(self, classes6):
        for g in classes6:
            assert clique_number(g) == bf_clique_number(g)


class TestLocalBounds:
    def test_dual_routes_agree(self, classes6):
        for g in classes6:
            glp = vertex_bounds(g).gamma_l_prime
            for v in range(g.n):
                assert glp[v] == bf_gamma_l_prime_induced(g, v)

    def test_gamma_ll_prime_matches_bruteforce(self, classes6):
        for g in classes6:
            assert gamma_ll_prime(g) == bf_gamma_ll_prime(g)

    def test_cycle5_values(self):
        g = cycle(5)
        assert vertex_bounds(g).gamma_l_prime == (Fraction(5, 2),) * 5
        assert gamma_ll_prime(g) == Fraction(5, 2)
        assert gamma_ll(g) == 3

    def test_complete_graph_values(self):
        for n in (2, 4, 6):
            g = complete(n)
            assert vertex_bounds(g).gamma_l_prime[0] == n
            assert gamma_ll_prime(g) == n
            assert gamma_ll(g) == n

    def test_path3_values(self):
        g = path(3)
        assert vertex_bounds(g).gamma_l_prime == (2, Fraction(5, 2), 2)
        assert gamma_ll_prime(g) == Fraction(9, 4)
        assert gamma_ll(g) == 3

    def test_petersen_transitive(self):
        g = petersen()
        assert set(vertex_bounds(g).gamma_l_prime) == {3}
        assert gamma_ll_prime(g) == 3

    def test_edgeless_conventions(self):
        assert gamma_ll_prime(SimpleGraph(3)) == 1
        assert gamma_ll(SimpleGraph(3)) == 1
        assert gamma_ll_prime(SimpleGraph(0)) == 0
        assert gamma_ll(SimpleGraph(0)) == 0

    def test_bound_chain(self, classes6):
        # the edge bound refines the vertex bound refines the global bound
        for g in classes6:
            b = graph_bounds(g)
            assert b.gamma_ll_prime <= b.gamma_l_prime <= b.gamma_prime
            assert b.gamma_ll <= b.gamma_l <= b.gamma
            assert b.gamma == math.ceil(b.gamma_prime)
            assert b.gamma_ll == math.ceil(b.gamma_ll_prime)

    def test_vertex_bounds_arrays(self):
        g = double_star()
        vb = vertex_bounds(g)
        assert vb.degree == (3, 3, 1, 1, 1, 1)
        assert vb.omega == (2, 2, 2, 2, 2, 2)
        assert vb.gamma_l_prime == (3, 3, 2, 2, 2, 2)


class TestMultigraphBound:
    def test_t_value_triangle(self):
        mg = Multigraph(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)])
        assert bf_t_value(mg, 0, 1) == 6

    def test_t_value_no_common_neighbour(self):
        mg = Multigraph(2, [(0, 1)] * 3)
        assert bf_t_value(mg, 0, 1) == 0

    def test_nine_expressions_path(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        vals = bf_nine_expressions(mg, 0, 1, 2)
        assert len(vals) == 9
        assert max(vals) == 4

    def test_fixed_values(self):
        cases = [
            (Multigraph(2, [(0, 1)]), 1),
            (Multigraph(3, [(0, 1), (1, 2)]), 2),
            (Multigraph(4, [(0, 1), (2, 3)]), 1),
            (Multigraph(6, [(0, 1), (2, 3), (4, 5)]), 1),
            (Multigraph(4, [(0, 1), (0, 2), (0, 3)]), 3),  # simple star: no u = w
            (Multigraph(4, PARALLEL_PATH), 7),
            (Multigraph.of_simple(petersen()), 4),
            (Multigraph.of_simple(cycle(5)), 3),
        ]
        # dipoles: no common neighbour (t = 0), and from m = 2 on the one
        # support edge fills both places at each end
        for m in range(2, 7):
            cases.append((Multigraph(2, [(0, 1)] * m), m))
        # fat triangles: every edge has a common neighbour, t = 3 * mu
        for mu in (1, 2, 3):
            cases.append(
                (Multigraph(3, [(0, 1), (0, 2), (1, 2)] * mu), 3 * mu)
            )
        for mg, expected in cases:
            assert gamma_bar_ll(mg) == expected
            assert bf_gamma_bar_ll(mg) == expected
            assert gamma_bar_ll_via_line_graph(mg) == expected

    def test_edgeless_rejected(self):
        with pytest.raises(DomainError):
            gamma_bar_ll(Multigraph(3))
        with pytest.raises(DomainError):
            gamma_bar_ll_via_line_graph(Multigraph(3))

    @given(multigraphs_st())
    def test_routes_agree_random(self, mg):
        if mg.edge_count == 0:
            return
        assert gamma_bar_ll(mg) == gamma_bar_ll_via_line_graph(mg)

    @given(multigraphs_st())
    def test_matches_pairwise_definition(self, mg):
        if mg.edge_count == 0:
            return
        assert gamma_bar_ll(mg) == bf_gamma_bar_ll(mg)

    def test_parallel_pair_counts_twice(self):
        # the max pair at vertex 0 is two parallel 02 edges (u = w = 2);
        # the best pair with distinct neighbours reaches only 23/2
        mg = Multigraph(4, PARALLEL_PATH)
        assert max(bf_nine_expressions(mg, 2, 0, 2)) == 13
        assert max(bf_nine_expressions(mg, 1, 0, 2)) == Fraction(23, 2)
        assert gamma_bar_ll(mg) == 7

    def test_seeded_dense_multigraph(self):
        rng = random.Random(20)
        edges = []
        for u, v in itertools.combinations(range(20), 2):
            if rng.randrange(10) < 7:
                edges.extend([(u, v)] * rng.randint(1, 3))
        mg = Multigraph(20, edges)
        k = gamma_bar_ll(mg)
        assert k == bf_gamma_bar_ll(mg) == gamma_bar_ll_via_line_graph(mg)

    def test_linear_memory_on_a_sparse_matching(self):
        # a perfect matching on 20,000 vertices; a neighbour mask per
        # vertex, as long as its largest neighbour id, would alone take
        # n/16 = 1,250 bytes per vertex here
        n = 20000
        tracemalloc.start()
        try:
            mg = Multigraph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
            assert gamma_bar_ll(mg) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * n

    @given(multigraphs_st())
    def test_at_least_max_degree(self, mg):
        # needed so every uncoloured endpoint keeps a spare colour
        if mg.edge_count == 0:
            return
        k = gamma_bar_ll(mg)
        assert k >= max(mg.degree(v) for v in range(mg.n))


class TestAverageBounds:
    def test_clique_average_complete(self):
        assert clique_average_bound(complete(5)) == 5

    def test_clique_average_cycle5(self):
        # maximal cliques are the edges, each endpoint carries 5/2
        assert clique_average_bound(cycle(5)) == Fraction(5, 2)

    def test_clique_average_pendant_clique(self):
        g = pendant_clique(6)
        assert g.n == 42
        assert clique_average_bound(g) == 9

    def test_clique_average_matches_bruteforce(self, classes6, connected7):
        assert len(connected7) == 996
        for g in classes6 + connected7:
            assert clique_average_bound(g) == bf_clique_average_bound(g)

    @given(graphs_st(10, 30))
    def test_clique_average_matches_bruteforce_random(self, g):
        assert clique_average_bound(g) == bf_clique_average_bound(g)

    def test_clique_average_needs_vertices(self):
        with pytest.raises(DomainError):
            clique_average_bound(SimpleGraph(0))

    def test_neighbourhood_average_double_star(self):
        g = double_star()
        assert bf_neighbourhood_average(g, 0) == Fraction(5, 2)
        assert bf_neighbourhood_average(g, 2) == Fraction(5, 2)

    def test_neighbourhood_average_pendant_clique(self):
        g = pendant_clique(6)
        # clique vertex: six neighbours at 9, six pendants at 2, self 9
        assert bf_neighbourhood_average(g, 0) == Fraction(11, 2)

    def test_subgraph_bound_k2(self):
        assert subgraph_neighbourhood_bound(complete(2)) == 2

    def test_subgraph_bound_double_star(self):
        assert subgraph_neighbourhood_bound(double_star()) == Fraction(5, 2)

    def test_subgraph_bound_dominates_whole_graph_average(self, classes6):
        for g in classes6:
            if g.n == 0:
                continue
            bound = subgraph_neighbourhood_bound(g)
            for v in range(g.n):
                assert bound >= bf_neighbourhood_average(g, v)

    def test_subgraph_bound_matches_bruteforce(self, classes6):
        for g in classes6:
            assert subgraph_neighbourhood_bound(g) == bf_subgraph_neighbourhood_bound(g)

    @given(small_graphs_st)
    def test_subgraph_bound_matches_bruteforce_random(self, g):
        assert subgraph_neighbourhood_bound(g) == bf_subgraph_neighbourhood_bound(g)

    @given(graphs_st(8, 28))
    def test_subgraph_bound_matches_bruteforce_dense(self, g):
        # near-complete neighbourhoods, where 2^d(v) is largest
        assert subgraph_neighbourhood_bound(g) == bf_subgraph_neighbourhood_bound(g)

    @pytest.mark.parametrize(
        "g",
        [petersen(), seeded_g12(), seeded_dense_g12()],
        ids=["petersen", "g12", "dense_g12"],
    )
    def test_subgraph_bound_over_induced_subgraphs(self, g):
        best = Fraction(0)
        for mask in range(1, 1 << g.n):
            h, _ = induced_subgraph(g, [v for v in range(g.n) if mask >> v & 1])
            best = max(best, max(bf_neighbourhood_average(h, v) for v in range(h.n)))
        assert subgraph_neighbourhood_bound(g) == best

    @pytest.mark.parametrize(
        "g",
        [petersen(), seeded_g12(), seeded_dense_g12(), pendant_clique(3)],
        ids=["petersen", "g12", "dense_g12", "pendant_clique3"],
    )
    def test_subgraph_bound_over_neighbourhood_deletions(self, g):
        # the lemma's route: G - (N(v) - T) for each v and each T within N(v)
        # the prune fires on Petersen and K_n: every vertex after the first is skipped
        best = Fraction(0)
        for v in range(g.n):
            nbrs = g.neighbours(v)
            for r in range(len(nbrs) + 1):
                for t in itertools.combinations(nbrs, r):
                    gone = set(nbrs) - set(t)
                    h, labels = induced_subgraph(
                        g, [u for u in range(g.n) if u not in gone]
                    )
                    best = max(best, bf_neighbourhood_average(h, labels.index(v)))
        assert subgraph_neighbourhood_bound(g) == best

    def test_subgraph_bound_limit(self):
        with pytest.raises(SizeLimitError):
            subgraph_neighbourhood_bound(SimpleGraph(13))
        with pytest.raises(SizeLimitError):
            subgraph_neighbourhood_bound(cycle(5), limit=4)
        with pytest.raises(DomainError):
            subgraph_neighbourhood_bound(SimpleGraph(0))


def test_graph_bounds_computes_omega_once(monkeypatch):
    from superlocal import graphs

    real = graphs.max_clique_size
    calls = []

    def counted(adj, mask):
        calls.append(mask)
        return real(adj, mask)

    monkeypatch.setattr(graphs, "max_clique_size", counted)
    b = graph_bounds(petersen())
    # one clique search per vertex neighbourhood, shared by every bound
    assert len(calls) == 10
    assert (b.omega, b.gamma_l_prime, b.gamma_ll_prime) == (2, 3, 3)
