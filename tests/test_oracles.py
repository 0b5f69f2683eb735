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
    fractional_chromatic_number,
    fractional_chromatic_solution,
    stability_number,
    verify_vertex_colouring,
)
from superlocal import _kernels
from bruteforce import (
    bf_chromatic_number,
    bf_is_stable,
    bf_matching_number,
    bf_stability_number,
)
from conftest import complete, cycle, path, petersen

F = Fraction


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

    def test_limit(self):
        with pytest.raises(SizeLimitError):
            chromatic_number(SimpleGraph(17))
        with pytest.raises(SizeLimitError):
            chromatic_number(cycle(5), limit=4)
        assert chromatic_number(SimpleGraph(17), limit=17)[0] == 1


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
        assert fractional_chromatic_number(cycle(5)) == F(5, 2)
        assert fractional_chromatic_number(cycle(7)) == F(7, 3)
        assert fractional_chromatic_number(complete(6)) == 6
        assert fractional_chromatic_number(petersen()) == F(5, 2)
        assert fractional_chromatic_number(path(4)) == 2
        assert fractional_chromatic_number(SimpleGraph(1)) == 1
        assert fractional_chromatic_number(SimpleGraph(5)) == 1
        assert fractional_chromatic_number(SimpleGraph(0)) == 0

    def test_odd_cycle_formula(self):
        # chi_f(C_{2k+1}) = 2 + 1/k
        for k in (2, 3, 4):
            assert fractional_chromatic_number(cycle(2 * k + 1)) == 2 + F(1, k)

    def test_certificate_is_independently_valid(self, classes6):
        for g in classes6:
            if g.n == 0:
                continue
            sol = fractional_chromatic_solution(g)
            # weights form a fractional colouring of exactly the optimum size
            cover = [F(0)] * g.n
            for s, w in sol.weights.items():
                assert w > 0
                assert bf_is_stable(g, sorted(s))
                for v in s:
                    cover[v] += w
            assert all(c >= 1 for c in cover)
            assert sum(sol.weights.values()) == sol.value
            # dual weights form a fractional clique of the same size
            assert all(y >= 0 for y in sol.dual)
            assert sum(sol.dual) == sol.value

    def test_sandwich(self, classes6):
        for g in classes6:
            if g.n == 0:
                continue
            chi_f = fractional_chromatic_number(g)
            assert clique_number(g) <= chi_f <= chromatic_number(g)[0]

    def test_set_limit(self):
        # eight disjoint triangles: 24 vertices and 3^8 = 6561 maximal stable sets
        g = SimpleGraph(
            24, [(t + a, t + b) for t in range(0, 24, 3) for a, b in ((0, 1), (0, 2), (1, 2))]
        )
        with pytest.raises(SizeLimitError, match="LP over 6561 stable sets"):
            fractional_chromatic_solution(g)


H = F(1, 2)


class TestCertificateRejections:
    """Each corrupted simplex result on C5 trips its own certificate check.

    C5's maximal stable sets are {0,2}, {0,3}, {1,3}, {1,4}, {2,4}, and
    its only optimum is 1/2 on every vertex and on every set.
    """

    @pytest.mark.parametrize(
        "value, y, w, message",
        [
            (F(5, 2), [-H, 1, 1, H, H], [H] * 5, "negative dual vertex weight"),
            (F(5, 2), [1, H, H, H, 0], [H] * 5, "overloads a stable set"),
            (F(5, 2), [H] * 5, [-H, 1, H, H, 1], "negative stable set weight"),
            (F(5, 2), [H] * 5, [H, H, H, 1, 0], "fail to cover a vertex"),
            (F(3), [H] * 5, [H] * 5, "objective values disagree"),
        ],
        ids=["negative-dual", "overload", "negative-weight", "uncovered", "objective"],
    )
    def test_corrupted_solution_raises(self, monkeypatch, value, y, w, message):
        monkeypatch.setattr(
            "superlocal.oracles.solve_simplex", lambda a, b, c: (value, y, w)
        )
        with pytest.raises(InternalBugError, match=message):
            fractional_chromatic_solution(cycle(5))

    def test_mixed_denominators_accepted(self, monkeypatch):
        # P4 has sets {0,2}, {0,3}, {1,3} and many optimal fractional
        # cliques; this one mixes halves and thirds
        y = [H, F(2, 3), H, F(1, 3)]
        w = [F(1), F(0), F(1)]
        monkeypatch.setattr(
            "superlocal.oracles.solve_simplex", lambda a, b, c: (F(2), y, w)
        )
        sol = fractional_chromatic_solution(path(4))
        assert sol.value == 2
        assert sol.dual == tuple(y)
        assert sol.weights == {frozenset({0, 2}): 1, frozenset({1, 3}): 1}


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
