import itertools
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
    to_graph6,
)
from superlocal import graphs
from superlocal.graphs import GRAPH6_VERTEX_LIMIT
from bruteforce import bf_edge_mask
from conftest import complete, cycle, path, petersen

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

    def test_connectivity(self):
        assert cycle(5).is_connected()
        assert not SimpleGraph(3, [(0, 1)]).is_connected()
        assert SimpleGraph(1).is_connected()
        assert SimpleGraph(0).is_connected()  # vacuous

    def test_edge_mask_round_trip(self):
        for g in (cycle(5), path(4), complete(4), SimpleGraph(3)):
            assert SimpleGraph.from_edge_mask(g.n, bf_edge_mask(g)) == g

    @given(graphs_st)
    def test_edge_mask_round_trip_random(self, g):
        assert SimpleGraph.from_edge_mask(g.n, bf_edge_mask(g)) == g


class TestComplementAndSubgraph:
    @given(graphs_st)
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs_st)
    def test_complement_masks_are_the_complement_and_kept(self, g):
        comp = g.complement_masks()
        assert comp == complement(g).adj
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

    def test_pair_budget(self, monkeypatch):
        # a dipole of k edges has C(k, 2) pairs at each of its two vertices
        monkeypatch.setattr(graphs, "LINE_GRAPH_PAIR_LIMIT", 6)
        assert line_graph(Multigraph(2, [(0, 1)] * 3)) == complete(3)
        with pytest.raises(SizeLimitError, match="above the limit 6"):
            line_graph(Multigraph(2, [(0, 1)] * 4))
