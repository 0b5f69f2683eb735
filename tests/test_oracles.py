import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superlocal import (
    DomainError,
    InternalBugError,
    SimpleGraph,
    SizeLimitError,
    VertexColouring,
    chi_via_complement_matching,
    chromatic_number,
    clique_number,
    fractional_chromatic_solution,
    parse_graph6,
    stability_number,
    verify_vertex_colouring,
)
from superlocal import _kernels, graphs, oracles
from bruteforce import (
    bf_chromatic_number,
    bf_is_stable,
    bf_matching_number,
    bf_stability_number,
)
from conftest import (
    GRAPH22_GRAPH6,
    SPARSE_CHECK_GRAPH6,
    complete,
    cycle,
    path,
    petersen,
    reference_stable_set_lp,
)

F = Fraction


def bits(*vertices):
    return sum(1 << v for v in vertices)


def members(g, mask):
    assert 0 <= mask < 1 << g.n
    return [v for v in range(g.n) if mask >> v & 1]


class TestChromaticNumber:
    def test_matches_bruteforce(self, classes6):
        for g in classes6:
            chi, vc = chromatic_number(g)
            assert chi == bf_chromatic_number(g)
            assert verify_vertex_colouring(g, vc)
            assert vc.k == chi

    def test_fixtures(self):
        assert chromatic_number(cycle(5))[0] == 3
        assert chromatic_number(cycle(6))[0] == 2
        assert chromatic_number(complete(7))[0] == 7
        assert chromatic_number(petersen())[0] == 3
        assert chromatic_number(SimpleGraph(4))[0] == 1
        assert chromatic_number(SimpleGraph(0))[0] == 0

    def test_limit(self, monkeypatch):
        with pytest.raises(SizeLimitError):
            chromatic_number(SimpleGraph(17))
        # the limit is read when the function runs
        monkeypatch.setattr(oracles, "CHROMATIC_VERTEX_LIMIT", 4)
        with pytest.raises(SizeLimitError):
            chromatic_number(cycle(5))
        monkeypatch.setattr(oracles, "CHROMATIC_VERTEX_LIMIT", 17)
        assert chromatic_number(SimpleGraph(17))[0] == 1


class TestVerifyColouring:
    def test_accepts_proper(self):
        g = path(3)
        assert verify_vertex_colouring(g, VertexColouring((0, 1, 0), 2))

    def test_rejects_bad(self):
        g = path(3)
        assert not verify_vertex_colouring(g, VertexColouring((0, 1), 2))
        assert not verify_vertex_colouring(g, VertexColouring((0, 2, 0), 2))
        assert not verify_vertex_colouring(g, VertexColouring((0, 0, 1), 2))


class TestStability:
    def test_matches_bruteforce(self, classes6):
        for g in classes6:
            assert stability_number(g) == bf_stability_number(g)

    def test_limit(self):
        with pytest.raises(SizeLimitError):
            stability_number(SimpleGraph(25))


class TestFractionalChromatic:
    def test_fixtures(self):
        assert fractional_chromatic_solution(cycle(5)).value == F(5, 2)
        assert fractional_chromatic_solution(cycle(7)).value == F(7, 3)
        assert fractional_chromatic_solution(complete(6)).value == 6
        assert fractional_chromatic_solution(petersen()).value == F(5, 2)
        assert fractional_chromatic_solution(path(4)).value == 2
        assert fractional_chromatic_solution(SimpleGraph(1)).value == 1
        assert fractional_chromatic_solution(SimpleGraph(5)).value == 1
        assert fractional_chromatic_solution(SimpleGraph(0)).value == 0

    def test_odd_cycle_formula(self):
        # chi_f(C_{2k+1}) = 2 + 1/k
        for k in (2, 3, 4):
            assert fractional_chromatic_solution(cycle(2 * k + 1)).value == 2 + F(1, k)

    def test_certificate_is_independently_valid(self, classes6):
        for g in classes6:
            if g.n == 0:
                continue
            sol = fractional_chromatic_solution(g)
            # integer numerators over one positive denominator
            den = sol.den
            assert isinstance(den, int) and den > 0
            assert all(isinstance(q, int) for q in (*sol.weights.values(), *sol.dual))
            # weights form a fractional colouring of exactly the optimum size
            cover = [0] * g.n
            for s, w in sol.weights.items():
                assert w > 0
                assert bf_is_stable(g, members(g, s))
                for v in members(g, s):
                    cover[v] += w
            assert all(c >= den for c in cover)
            assert F(sum(sol.weights.values()), den) == sol.value
            # dual weights form a fractional clique of the same size
            assert len(sol.dual) == g.n
            assert all(y >= 0 for y in sol.dual)
            assert F(sum(sol.dual), den) == sol.value

    def test_sandwich(self, classes6):
        for g in classes6:
            if g.n == 0:
                continue
            chi_f = fractional_chromatic_solution(g).value
            assert clique_number(g) <= chi_f <= chromatic_number(g)[0]

    def test_set_limit(self):
        # six disjoint triangles and the wheel W5: 24 vertices, omega 3 and
        # DSATUR 4, so the LP is reached, over 3^6 * 6 = 4374 maximal stable sets
        triangles = [(t + a, t + b) for t in range(0, 18, 3) for a, b in ((0, 1), (0, 2), (1, 2))]
        wheel = [(18 + i, 18 + (i + 1) % 5) for i in range(5)] + [(18 + i, 23) for i in range(5)]
        g = SimpleGraph(24, triangles + wheel)
        with pytest.raises(SizeLimitError, match="LP over 4374 stable sets"):
            fractional_chromatic_solution(g)

    def test_integral_route_passes_the_set_limit(self):
        # eight disjoint triangles: 3^8 = 6561 maximal stable sets, but
        # three colour classes and a triangle settle chi_f = 3 without them
        g = SimpleGraph(
            24, [(t + a, t + b) for t in range(0, 24, 3) for a, b in ((0, 1), (0, 2), (1, 2))]
        )
        assert fractional_chromatic_solution(g).value == 3

    def test_both_routes_match_the_reference_lp(self, classes6, monkeypatch):
        # chi_f against the reference simplex over the brute-force maximal
        # stable sets, with each certificate re-checked against those sets
        real = oracles.solve_simplex
        lp_calls = []

        def counted(a, b, c):
            lp_calls.append(len(a))
            return real(a, b, c)

        monkeypatch.setattr(oracles, "solve_simplex", counted)
        larger = [parse_graph6(code) for code in (*SPARSE_CHECK_GRAPH6, GRAPH22_GRAPH6)]
        routes = {"lp": 0, "integral": 0}
        for g in [g for g in classes6 if g.n] + larger:
            before = len(lp_calls)
            sol = fractional_chromatic_solution(g)
            routes["lp" if len(lp_calls) > before else "integral"] += 1
            (rows, _, _), (value, _, _) = reference_stable_set_lp(g)
            assert sol.value == value
            den = sol.den
            assert den > 0
            cover = [0] * g.n
            for s, w in sol.weights.items():
                assert w > 0 and bf_is_stable(g, members(g, s))
                for v in members(g, s):
                    cover[v] += w
            assert min(cover) >= den and F(sum(sol.weights.values()), den) == value
            assert min(sol.dual) >= 0 and F(sum(sol.dual), den) == value
            for row in rows:
                assert sum(y for y, bit in zip(sol.dual, row) if bit) <= den
        assert routes["lp"] > 0 and routes["integral"] > 0
        assert len(lp_calls) == routes["lp"]

    @pytest.mark.parametrize(
        "module, target, fake, message",
        [
            (graphs, "_dsatur_greedy", lambda adj, n: [0, 0, 1], "not a proper omega-colouring"),
            (graphs, "_dsatur_greedy", lambda adj, n: [0, 1, -1], "not a proper omega-colouring"),
            (oracles, "_clique_of_size", lambda adj, cand, size: [0, 2], "not a clique"),
            (oracles, "_clique_of_size", lambda adj, cand, size: [1], "not a clique"),
        ],
        ids=["improper-colouring", "uncovered", "non-clique", "small-clique"],
    )
    def test_corrupted_integral_certificate_raises(
        self, monkeypatch, module, target, fake, message
    ):
        # P3 has omega 2, so a two-colouring and an edge certify chi_f = 2
        monkeypatch.setattr(module, target, fake)
        with pytest.raises(InternalBugError, match=message):
            fractional_chromatic_solution(path(3))


class TestCertificateRejections:
    """Each corrupted simplex result on C5 trips its own certificate check.

    C5's maximal stable sets are {0,2}, {0,3}, {1,3}, {1,4}, {2,4}, and
    its only optimum is 1/2 on every vertex and on every set: numerators
    1 over the denominator 2, and the value 5 over 2.
    """

    @pytest.mark.parametrize(
        "value, y, w, det, message",
        [
            (5, [-1, 2, 2, 1, 1], [1] * 5, 2, "negative dual vertex weight"),
            (5, [2, 1, 1, 1, 0], [1] * 5, 2, "overloads a stable set"),
            (5, [1] * 5, [-1, 2, 1, 1, 2], 2, "negative stable set weight"),
            (5, [1] * 5, [1, 1, 1, 2, 0], 2, "fail to cover a vertex"),
            (6, [1] * 5, [1] * 5, 2, "objective values disagree"),
            # all zero over 0 passes every other check
            (0, [0] * 5, [0] * 5, 0, "nonpositive simplex denominator"),
        ],
        ids=[
            "negative-dual",
            "overload",
            "negative-weight",
            "uncovered",
            "objective",
            "nonpositive-denominator",
        ],
    )
    def test_corrupted_solution_raises(self, monkeypatch, value, y, w, det, message):
        monkeypatch.setattr(
            "superlocal.oracles.solve_simplex", lambda a, b, c: (value, y, w, det)
        )
        with pytest.raises(InternalBugError, match=message):
            fractional_chromatic_solution(cycle(5))

    def test_mixed_denominators_accepted(self, monkeypatch):
        # C5 (0..4) beside the edge 56 has omega 2 and chi 3, so it reaches
        # the LP; its sets pair each of C5's five with 5 or with 6. The
        # clique is 3/6 on C5, and this colouring splits C5's halves
        # between 5 and 6 in halves, thirds and sixths, all over 6
        g = SimpleGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
        y = [3] * 5 + [0] * 2
        w = [3, 0, 3, 0, 1, 2, 0, 3, 0, 3]
        monkeypatch.setattr(oracles, "solve_simplex", lambda a, b, c: (15, y, w, 6))
        sol = fractional_chromatic_solution(g)
        assert sol.value == F(5, 2)
        assert sol.den == 6
        assert sol.dual == tuple(y)
        assert sol.weights == {
            bits(0, 2, 5): 3,
            bits(0, 3, 5): 3,
            bits(1, 3, 5): 1,
            bits(1, 3, 6): 2,
            bits(1, 4, 6): 3,
            bits(2, 4, 6): 3,
        }


class TestComplementMatching:
    def test_matches_chromatic_when_applicable(self, classes6):
        seen = 0
        for g in classes6:
            if g.n == 0 or stability_number(g) > 2:
                continue
            seen += 1
            chi, vc = chi_via_complement_matching(g)
            assert chi == chromatic_number(g)[0]
            assert verify_vertex_colouring(g, vc)
            assert vc.k == chi
        assert seen > 50

    def test_rejects_alpha3(self):
        with pytest.raises(DomainError):
            chi_via_complement_matching(path(5))
        with pytest.raises(DomainError):
            chi_via_complement_matching(SimpleGraph(3))

    def test_refusal_names_a_stable_triple(self, classes6):
        # the refusal is exactly alpha >= 3, and it names its witness
        refused = 0
        for g in classes6:
            if stability_number(g) <= 2:
                continue
            refused += 1
            with pytest.raises(DomainError, match="pairwise non-adjacent") as info:
                chi_via_complement_matching(g)
            triple = [int(t) for t in re.findall(r"\d+", str(info.value).split("vertices")[1])]
            assert len(triple) == 3
            assert not any(g.has_edge(a, b) for a, b in itertools.combinations(triple, 2))
        assert refused > 50

    def test_fixtures(self):
        assert chi_via_complement_matching(cycle(5))[0] == 3
        assert chi_via_complement_matching(complete(4))[0] == 4
        assert chi_via_complement_matching(cycle(4))[0] == 2
        assert chi_via_complement_matching(SimpleGraph(0))[0] == 0

    def test_limit(self):
        with pytest.raises(SizeLimitError):
            chi_via_complement_matching(SimpleGraph(21))


class TestMatchingKernel:
    def test_matches_recursive_bruteforce(self, classes6):
        for g in classes6:
            if g.n == 0:
                continue
            dp = bytearray(1 << g.n)
            _kernels.matching_dp(g.adj, dp)
            assert dp[(1 << g.n) - 1] == bf_matching_number(g)


def interval_graphs():
    """Graphs on points 0..n-1 with u ~ v iff some closed interval [a, b] holds both."""

    def build(n, pairs):
        edges = set()
        for a, b in pairs:
            lo, hi = min(a, b), max(a, b)
            edges.update(itertools.combinations(range(lo, hi + 1), 2))
        return SimpleGraph(n, edges)

    return st.integers(1, 8).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=6,
            ),
        )
    )


class TestLinearIntervalColouring:
    @given(interval_graphs())
    def test_proper_and_optimal_random(self, g):
        # interval graphs are perfect: chi equals omega
        k, vc = chromatic_number(g)
        assert verify_vertex_colouring(g, vc)
        assert k == clique_number(g)
