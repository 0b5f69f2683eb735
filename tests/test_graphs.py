import itertools
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from superlocal import (
    DomainError,
    GraphFormatError,
    Multigraph,
    SimpleGraph,
    SizeLimitError,
    complement,
    format_multigraph,
    induced_subgraph,
    line_graph,
    parse_graph6,
    parse_multigraph,
    random_corpus,
    to_graph6,
)
from superlocal import graphs
from superlocal.graphs import GRAPH6_VERTEX_LIMIT
from bruteforce import (
    bf_clique_number,
    bf_complement,
    bf_dsatur,
    bf_is_clique,
    bf_line_graph,
    bf_omega_v,
    bf_stability_number,
    bf_t_value,
    clique_table,
)
from conftest import ACCEPTANCE_SEED, all_graphs_upto, complete, cycle, path, petersen

graphs_st = st.integers(0, 10).flatmap(
    lambda n: st.builds(
        SimpleGraph,
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
            .filter(lambda p: p[0] != p[1]),
            max_size=20,
        )
        if n >= 2
        else st.just([]),
    )
)


class TestSimpleGraph:
    def test_dedupes_and_sorts_edges(self):
        g = SimpleGraph(4, [(2, 1), (1, 2), (0, 3)])
        assert g.edges == ((0, 3), (1, 2))
        assert g.edge_count == 2

    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                        lambda p: p[0] != p[1]
                    ),
                    max_size=30,
                ),
            )
        )
    )
    def test_edges_read_off_the_masks(self, case):
        # duplicates and both orientations collapse to ascending pairs
        n, pairs = case
        pairs = pairs + [(v, u) for u, v in pairs[::2]]
        g = SimpleGraph(n, pairs)
        assert g.edges == tuple(sorted({(min(e), max(e)) for e in pairs}))
        for v in range(n):
            assert g.adj[v] == sum(1 << u for u in g.neighbours(v))

    @given(graphs_st)
    def test_from_masks_round_trip(self, g):
        h = SimpleGraph.from_masks(g.adj)
        assert h == g and h.adj == g.adj

    def test_from_masks_refusals(self):
        with pytest.raises(DomainError, match=r"^pair \(0,2\) in the mask of 0 but not of 2$"):
            SimpleGraph.from_masks([0b100, 0, 0])
        # the upper pairs all probe true; the bit count finds the lower one
        with pytest.raises(DomainError, match=r"^pair \(0,2\) in the mask of 2 but not of 0$"):
            SimpleGraph.from_masks([0b010, 0b101, 0b011])
        with pytest.raises(DomainError, match="^loop at vertex 1 not allowed$"):
            SimpleGraph.from_masks([0b10, 0b11])
        for masks in ([0b100, 0b001], [-1, 0]):
            with pytest.raises(DomainError, match=r"^mask of vertex 0 has a bit outside 0\.\.1$"):
                SimpleGraph.from_masks(masks)

    def test_rejects_loops_and_range(self):
        with pytest.raises(DomainError):
            SimpleGraph(3, [(1, 1)])
        with pytest.raises(DomainError):
            SimpleGraph(3, [(0, 3)])
        with pytest.raises(DomainError):
            SimpleGraph(-1)

    def test_neighbours_and_degree(self):
        g = path(4)
        assert g.neighbours(0) == (1,)
        assert g.neighbours(1) == (0, 2)
        assert g.degree(1) == 2
        assert g.has_edge(2, 1)
        assert not g.has_edge(0, 2)
        for u, v in ((0, 4), (-1, 0)):
            with pytest.raises(DomainError, match=rf"^vertex pair \({u},{v}\) out of range$"):
                g.has_edge(u, v)
        assert repr(g) == "SimpleGraph(n=4, m=3)"

    def test_immutable(self):
        g = path(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_omega_cache_keeps_identity_and_immutability(self):
        g = petersen()
        om = g.omegas()
        assert om == (2,) * 10
        assert g.omegas() is om
        twin = SimpleGraph(g.n, g.edges)
        assert g == twin and hash(g) == hash(twin)
        for name in ("n", "adj", "_omega"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
        assert g.omegas() is om

    def test_omega_clique_is_the_first_largest_search_witness(self, connected7):
        # the first vertex v of largest omega(v), with the first largest
        # clique inside N(v) as a separate search finds it
        for g in connected7 + [SimpleGraph(0), SimpleGraph(3)]:
            om = g.omegas()
            expected = 0
            if g.n:
                v = om.index(max(om))
                expected = 1 << v | graphs.maximum_cliques(g.adj, g.adj[v])[1][0]
            assert g.omega_clique() == expected
            assert bf_is_clique(g, graphs.mask_members(expected))
            assert expected.bit_count() == max(om, default=0)
        fresh = petersen()
        assert fresh.omega_clique() == 0b11 and fresh.omegas() == (2,) * 10

    def test_connectivity(self):
        assert cycle(5).is_connected()
        assert not SimpleGraph(3, [(0, 1)]).is_connected()
        assert SimpleGraph(1).is_connected()
        assert SimpleGraph(0).is_connected()  # vacuous


class TestComplementAndSubgraph:
    @given(graphs_st)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs_st)
    def test_complement_masks_are_the_complement_and_kept(self, g):
        comp = g.complement_masks()
        assert comp == bf_complement(g).adj
        assert complement(g) == bf_complement(g)
        assert g.complement_masks() is comp

    def test_complement_edge_counts(self):
        g = cycle(5)
        assert complement(g).edge_count == 10 - 5

    def test_induced_subgraph_labels(self):
        g = cycle(5)
        h, labels = induced_subgraph(g, [4, 0, 1])
        assert labels == (0, 1, 4)
        assert h.edges == ((0, 1), (0, 2))

    def test_induced_subgraph_errors(self):
        g = cycle(4)
        with pytest.raises(DomainError):
            induced_subgraph(g, [0, 0])
        with pytest.raises(DomainError):
            induced_subgraph(g, [7])

    @given(graphs_st, st.data())
    def test_induced_subgraph_adjacency(self, g, data):
        if g.n == 0:
            return
        verts = data.draw(
            st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n)
        )
        h, labels = induced_subgraph(g, verts)
        for i, j in itertools.combinations(range(h.n), 2):
            assert h.has_edge(i, j) == g.has_edge(labels[i], labels[j])


class TestCliqueTable:
    def test_every_subset_of_every_small_class(self, classes6):
        # on the adjacency masks the table holds omega(G[s]), on the
        # complement masks alpha(G[s])
        for g in classes6:
            clq = clique_table(g.adj)
            stab = clique_table(g.complement_masks())
            assert len(clq) == len(stab) == 1 << g.n
            for s in range(1 << g.n):
                h, _ = induced_subgraph(g, graphs.mask_members(s))
                assert clq[s] == bf_clique_number(h)
                assert stab[s] == bf_stability_number(h)


class TestMaximumCliques:
    def test_every_mask_of_every_small_class(self, classes6):
        # the first largest clique is the first of the ties, which are
        # cliques of the mask listed by their member lists
        for g in classes6:
            for s in range(1 << g.n):
                size, first = graphs.maximum_cliques(g.adj, s)
                tied_size, tied = graphs.maximum_cliques(g.adj, s, ties=True)
                h, _ = induced_subgraph(g, graphs.mask_members(s))
                assert size == tied_size == bf_clique_number(h)
                assert first == tied[:1]
                assert tied == sorted(set(tied), key=graphs.mask_members)
                for c in tied:
                    members = graphs.mask_members(c)
                    assert c & ~s == 0 and len(members) == size
                    assert all(c & ~g.adj[v] == 1 << v for v in members)

    def test_empty_mask(self):
        for adj in ((), (0,), complete(3).adj):
            assert graphs.maximum_cliques(adj, 0) == (0, [0])
            assert graphs.maximum_cliques(adj, 0, ties=True) == (0, [0])


class TestDsatur:
    """The greedy keeps one saturation mask per vertex and ORs each new
    colour into the masks of the coloured vertex's neighbours; the
    reference rebuilds every saturation set on every pick."""

    def test_every_class_up_to_seven_vertices(self):
        for g in all_graphs_upto(7):
            assert list(g.greedy_colouring()) == bf_dsatur(g)

    def test_seeded_random_graphs(self):
        rng = random.Random(32)
        for i in range(200):
            n, p = rng.randint(8, 24), (0.25, 0.5, 0.75)[i % 3]
            g = SimpleGraph(
                n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            )
            assert list(g.greedy_colouring()) == bf_dsatur(g)

    def test_saturation_outranks_degree(self):
        # hub 0 (degree 12) is coloured 0 first; then 1, seeing one
        # colour, goes before 3 (degree 11, seeing none), and 2 before 3
        # too; with 3 ahead of 1 the path 1-2-3 would need colour 2
        g = SimpleGraph(
            25,
            [(0, 1), (1, 2), (2, 3)]
            + [(0, v) for v in range(4, 15)]
            + [(3, v) for v in range(15, 25)],
        )
        assert g.greedy_colouring()[:4] == (0, 1, 0, 1)
        assert list(g.greedy_colouring()) == bf_dsatur(g)


class TestGraph6:
    def test_known_encodings(self):
        assert to_graph6(complete(5)) == "D~{"
        assert to_graph6(cycle(5)) == "Dhc"
        assert parse_graph6("D~{") == complete(5)
        assert parse_graph6("Dhc") == cycle(5)

    def test_header_and_bytes_input(self):
        assert parse_graph6(">>graph6<<Dhc") == cycle(5)
        assert parse_graph6(b"Dhc\n") == cycle(5)

    def test_round_trip_all_small_classes(self, classes6):
        for g in classes6:
            assert parse_graph6(to_graph6(g)) == g

    @given(graphs_st)
    def test_round_trip_random(self, g):
        assert parse_graph6(to_graph6(g)) == g

    @given(graphs_st)
    def test_matches_networkx(self, g):
        gx = nx.from_graph6_bytes(to_graph6(g).encode())
        assert set(gx.nodes) == set(range(g.n))
        assert {tuple(sorted(e)) for e in gx.edges} == set(g.edges)

    def test_long_form_n63(self):
        g = SimpleGraph(63, [(0, 62)])
        enc = to_graph6(g)
        assert enc.startswith("~")
        assert parse_graph6(enc) == g

    def test_errors(self):
        with pytest.raises(GraphFormatError, match="empty"):
            parse_graph6("")
        with pytest.raises(GraphFormatError, match="offset 1"):
            parse_graph6("D" + chr(30) + "cc")
        with pytest.raises(GraphFormatError, match="needs"):
            parse_graph6("Dhcc")
        with pytest.raises(GraphFormatError, match="needs"):
            parse_graph6("Dh")
        with pytest.raises(GraphFormatError, match="padding"):
            # n=3 uses 3 of 6 body bits; set one of the 3 padding bits
            parse_graph6("B" + chr(63 + 4))
        with pytest.raises(GraphFormatError, match="non-canonical"):
            parse_graph6("~??D")
        with pytest.raises(GraphFormatError, match="8-byte"):
            parse_graph6("~~??????")
        with pytest.raises(GraphFormatError, match="^truncated graph6 size field at offset 1$"):
            parse_graph6("~??")

    @pytest.mark.parametrize("text, value, off", [
        ("D\u00e9c", 233, 1),
        ("\u00e9", 233, 0),
        (b"D\xc3\xa9c", 195, 1),
        (b"\xff", 255, 0),
        (b"Dhc\xa0", 160, 3),  # a latin-1 space, stripped by str.strip
    ])
    def test_non_ascii_is_refused_where_it_stands(self, text, value, off):
        # never replaced by '?', a valid byte that reads as another graph
        with pytest.raises(GraphFormatError, match=f"invalid graph6 byte {value} at offset {off}$"):
            parse_graph6(text)

    def test_encoding_refused_above_the_vertex_limit(self):
        with pytest.raises(SizeLimitError, match=r"^graph6 encoding for n=258048 not supported"):
            to_graph6(SimpleGraph(GRAPH6_VERTEX_LIMIT + 1))

    def test_networkx_accepts_our_encodings(self):
        for g in (petersen(), complete(7), SimpleGraph(2)):
            nx.from_graph6_bytes(to_graph6(g).encode())


class TestMultigraph:
    def test_listing_order_ids(self):
        mg = Multigraph(3, [(0, 1), (1, 2), (0, 1)])
        assert mg.edge_count == 3
        assert mg.endpoints(0) == (0, 1)
        assert mg.endpoints(2) == (0, 1)
        assert mg.incident(1) == (0, 1, 2)
        assert mg.degree(1) == 3
        assert dict(mg.multiplicities()) == {(0, 1): 2, (1, 2): 1}
        with pytest.raises(TypeError):
            mg.multiplicities()[0, 2] = 1

    def test_rejects_loops(self):
        with pytest.raises(DomainError):
            Multigraph(2, [(1, 1)])

    def test_refusals_out_of_range(self):
        with pytest.raises(DomainError, match="^vertex count must be nonnegative$"):
            Multigraph(-1)
        with pytest.raises(DomainError, match=r"^edge \(0,2\) out of range for n=2$"):
            Multigraph(2, [(0, 1), (0, 2)])
        mg = Multigraph(2, [(0, 1)])
        with pytest.raises(DomainError, match="^edge id 1 out of range$"):
            mg.endpoints(1)
        with pytest.raises(DomainError, match="^vertex 2 out of range$"):
            mg.incident(2)
        with pytest.raises(AttributeError, match="^Multigraph is immutable$"):
            mg.n = 3
        assert repr(mg) == "Multigraph(n=2, m=1)"

    def test_hash_ignores_listing_order(self):
        a = Multigraph(3, [(0, 1), (1, 2), (0, 1)])
        b = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        assert a.edges != b.edges
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_of_simple_and_support(self):
        g = cycle(4)
        mg = Multigraph.of_simple(g)
        assert mg.support() == g
        assert mg.edge_count == 4

    def test_format_parse_round_trip(self):
        mg = Multigraph(4, [(2, 3), (0, 1), (0, 1), (1, 2)])
        text = format_multigraph(mg)
        assert text == "n 4\n0 1 2\n1 2 1\n2 3 1\n"
        back = parse_multigraph(text)
        assert back.n == 4
        assert dict(back.multiplicities()) == {(0, 1): 2, (1, 2): 1, (2, 3): 1}
        assert format_multigraph(back) == text

    def test_parse_slash_separator(self):
        mg = parse_multigraph("n 3 / 0 1 2 / 1 2 1")
        assert mg.n == 3
        assert dict(mg.multiplicities()) == {(0, 1): 2, (1, 2): 1}

    def test_parse_errors_name_records(self):
        with pytest.raises(GraphFormatError, match="record 1"):
            parse_multigraph("m 3")
        with pytest.raises(GraphFormatError, match="record 1"):
            parse_multigraph("n x")
        with pytest.raises(GraphFormatError, match="record 2"):
            parse_multigraph("n 3\n0 1")
        with pytest.raises(GraphFormatError, match="record 2"):
            parse_multigraph("n 3\n0 1 z")
        with pytest.raises(GraphFormatError, match="record 3"):
            parse_multigraph("n 3\n0 1 1\n0 3 1")
        with pytest.raises(GraphFormatError, match="record 3: loop"):
            parse_multigraph("n 3\n0 1 1\n2 2 1")
        with pytest.raises(GraphFormatError, match="record 2: multiplicity"):
            parse_multigraph("n 3\n0 1 0")
        with pytest.raises(GraphFormatError, match="record 3: duplicate"):
            parse_multigraph("n 3\n0 1 1\n1 0 2")
        with pytest.raises(GraphFormatError, match="empty"):
            parse_multigraph("  \n ")
        # tokens are ASCII decimal digits, not whatever int() accepts
        with pytest.raises(GraphFormatError, match="record 2: non-integer token"):
            parse_multigraph("n 3\n0 1 1_0")
        with pytest.raises(GraphFormatError, match="record 1: bad vertex count"):
            parse_multigraph("n 0_3\n0 1 +2")
        with pytest.raises(GraphFormatError, match="^record 1: negative vertex count -3$"):
            parse_multigraph("n -3")
        with pytest.raises(GraphFormatError, match="record 2: non-integer token"):
            parse_multigraph("n 3\n0 1 +2")
        with pytest.raises(GraphFormatError, match="U\\+0663 at offset 2"):
            parse_multigraph("n \u0663\n0 1 \u0662\n")
        # str.split() also splits at VT, FF and 0x1c-0x1f; the format does not
        with pytest.raises(GraphFormatError, match="U\\+001C at offset 1"):
            parse_multigraph("n\x1c3\n0\x1f1\x1f2\n")
        with pytest.raises(GraphFormatError, match="U\\+000B at offset 7"):
            parse_multigraph("n 3\n0 1\x0b2")
        assert parse_multigraph("n 3\r\n0\t1 2\r\n").edge_count == 2

    @pytest.mark.parametrize(
        "text, record",
        [
            ("n 258048", "record 1"),
            ("n 2 / 0 1 258048", "record 2"),
            ("n 100000000 / 0 1 1", "record 1"),
        ],
    )
    def test_parse_size_limit(self, text, record):
        # refused at the count, before any per-vertex or per-edge list
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=record):
                parse_multigraph(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_parse_edge_total_limit(self):
        # the limit is on the running total over records, not per record
        with pytest.raises(SizeLimitError, match="record 3: edge count 258048"):
            parse_multigraph("n 3 / 0 1 258000 / 1 2 48")

    def test_parse_at_the_size_limit(self):
        mg = parse_multigraph(f"n 2 / 1 0 {GRAPH6_VERTEX_LIMIT}")
        assert mg.edge_count == GRAPH6_VERTEX_LIMIT
        assert mg.endpoints(0) == (0, 1)


class TestLineGraph:
    def test_triangle(self):
        lg = line_graph(Multigraph.of_simple(cycle(3)))
        assert lg == complete(3)

    def test_edgeless_rejected(self):
        with pytest.raises(DomainError):
            line_graph(Multigraph(3))

    def test_degree_identity(self):
        # d_L(e) = d(u) + d(v) - mu(u,v) - 1 for e = uv
        mg = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (0, 2)])
        lg = line_graph(mg)
        for e in range(mg.edge_count):
            u, v = mg.endpoints(e)
            mu = mg.multiplicities()[u, v]
            assert lg.degree(e) == mg.degree(u) + mg.degree(v) - mu - 1

    def test_parallel_edges_adjacent(self):
        mg = Multigraph(2, [(0, 1)] * 3)
        assert line_graph(mg) == complete(3)

    def test_matches_bruteforce(self):
        corpus = random_corpus("multigraph", seed=ACCEPTANCE_SEED, count=500)
        dipoles = [Multigraph(2, [(0, 1)] * k) for k in range(1, 7)]
        matching = Multigraph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        for mg in corpus + dipoles + [Multigraph.of_simple(path(7)), matching]:
            lg, bf = line_graph(mg), bf_line_graph(mg)
            assert lg == bf and lg.adj == bf.adj

    def test_omegas_on_the_corpus_line_graphs(self):
        # pairwise intersecting edges share an endpoint or lie on three
        # vertices, so omega(e) of e = uv is max(d(u), d(v), t(uv))
        brute = twins = 0
        for mg in random_corpus("multigraph", seed=ACCEPTANCE_SEED, count=500):
            lg = line_graph(mg)
            om = lg.omegas()
            for e, (u, v) in enumerate(mg.edges):
                assert om[e] == max(mg.degree(u), mg.degree(v), bf_t_value(mg, u, v))
            # the subset scan is 2^d per vertex, so it reads the sparser ones
            if max(map(lg.degree, range(lg.n))) <= 12:
                assert om == tuple(bf_omega_v(lg, v) for v in range(lg.n))
                brute += 1
                twins += lg.n - len({a | 1 << v for v, a in enumerate(lg.adj)})
        assert brute > 300 and twins > 1000

    def test_one_clique_search_per_twin_class(self, monkeypatch):
        real = graphs.maximum_cliques
        calls = []

        def counted(adj, mask, ties=False):
            calls.append(mask)
            return real(adj, mask, ties)

        monkeypatch.setattr(graphs, "maximum_cliques", counted)
        # five parallel edges: L is K5, whose vertices all share N[v]
        lg = line_graph(Multigraph(2, [(0, 1)] * 5))
        assert lg.omegas() == (5,) * 5
        assert len(calls) == 1

    def test_memory_on_a_perfect_matching(self):
        # the line graph of a matching is edgeless; an incidence mask per
        # vertex would hold m^2 / 2 bits, several times parsing's peak
        m = 10000
        text = f"n {2 * m} / " + " / ".join(f"{2 * i} {2 * i + 1} 1" for i in range(m))
        tracemalloc.start()
        try:
            mg = parse_multigraph(text)
            parse_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            lg = line_graph(mg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lg.n == m and lg.edges == ()
        assert peak < 1.1 * parse_peak

    def test_pair_budget(self, monkeypatch):
        # a dipole of k edges has C(k, 2) pairs at each of its two vertices
        monkeypatch.setattr(graphs, "LINE_GRAPH_PAIR_LIMIT", 6)
        assert line_graph(Multigraph(2, [(0, 1)] * 3)) == complete(3)
        with pytest.raises(SizeLimitError, match="above the limit 6"):
            line_graph(Multigraph(2, [(0, 1)] * 4))
