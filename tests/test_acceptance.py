"""Acceptance gate: one test per criterion, one pass/fail line each.

Every comparison is exact (integers and Fractions); there are no
floating tolerances anywhere.
"""

import math
from fractions import Fraction

import pytest

from superlocal import (
    Multigraph,
    check_graph,
    CheckFlags,
    chi_via_complement_matching,
    chromatic_number,
    clique_average_bound,
    edge_colour,
    enumerate_graph_classes,
    fractional_chromatic_solution,
    gamma_bar_ll,
    gamma_ll,
    gamma_ll_prime,
    graph_bounds,
    line_graph,
    random_corpus,
    search_counterexamples,
    stability_number,
    subgraph_neighbourhood_bound,
    superlocal_fractional_colour,
    verify_fractional_colouring,
    verify_vertex_colouring,
)
from superlocal import oracles, stable_sets
from bruteforce import bf_chi_prime_cut, bf_membership_probabilities, bf_neighbourhood_average
from conftest import ACCEPTANCE_SEED as SEED, cycle, double_star, pendant_clique, petersen

F = Fraction


def report(num, text):
    print(f"criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def multigraph_corpus():
    corpus = random_corpus("multigraph", seed=SEED, count=500)
    assert len(corpus) == 500
    return corpus


@pytest.fixture(scope="module")
def circular_corpus():
    return random_corpus("circular_interval", seed=SEED, count=200)


@pytest.fixture(scope="module")
def co_triangle_corpus():
    return random_corpus("co_triangle_free", seed=SEED, count=200)


def test_criterion_1_fractional_bound_with_constructive_weighting(connected7):
    assert len(connected7) == 996
    failures = []
    for g in connected7:
        bound = gamma_ll_prime(g)
        chi_f = fractional_chromatic_solution(g).value
        if chi_f > bound:
            failures.append((g, "chi_f above bound"))
            continue
        fc, _ = superlocal_fractional_colour(g)
        verdict = verify_fractional_colouring(g, fc, bound)
        if not verdict.valid:
            failures.append((g, verdict.violations))
    assert not failures, failures[:5]
    report(1, "chi_f <= gamma'_ll with valid constructive weighting on all "
              "996 connected graphs, n <= 7")


def test_criterion_2_c5_tightness():
    g = cycle(5)
    b = graph_bounds(g)
    assert fractional_chromatic_solution(g).value == F(5, 2)
    assert b.gamma_ll_prime == F(5, 2)
    assert chromatic_number(g)[0] == 3
    assert b.gamma_ll == 3
    report(2, "C_5: chi_f = gamma'_ll = 5/2 and chi = gamma_ll = 3")


def test_criterion_3_separating_examples(monkeypatch):
    ds = double_star()
    fc, _ = superlocal_fractional_colour(ds)
    assert fc.total == 3 and gamma_ll_prime(ds) == 3
    assert fractional_chromatic_solution(ds).value == 2
    assert subgraph_neighbourhood_bound(ds) == F(5, 2)

    k = 6
    pc = pendant_clique(k)
    assert pc.n == 42
    for v in range(k):
        assert bf_neighbourhood_average(pc, v) == F(11, 2) == F(3 * k, 4) + 1
    # the pendant clique has 42 vertices: raise the chi and enumeration
    # limits for this test's run only
    monkeypatch.setattr(oracles, "CHROMATIC_VERTEX_LIMIT", pc.n)
    monkeypatch.setattr(stable_sets, "ENUMERATION_VERTEX_LIMIT", pc.n)
    chi_f = fractional_chromatic_solution(pc).value
    assert chi_f == 6
    assert F(11, 2) < chi_f
    assert chromatic_number(pc)[0] == 6
    assert clique_average_bound(pc) == 9 == F(3 * k, 2)
    report(3, "double-star: T=3, chi_f=2, subgraph bound 5/2; "
              "pendant-clique k=6: average 11/2 < chi_f = 6, clique bound 9")


def test_criterion_4_edge_colouring_at_the_bound(multigraph_corpus):
    checked_brute = 0
    for mg in multigraph_corpus:
        assert mg.n <= 8 and mg.edge_count <= 28
        k, col = edge_colour(mg)
        assert k == gamma_bar_ll(mg)
        assert col.is_complete() and col.validate()
        if mg.edge_count <= 12:
            assert bf_chi_prime_cut(mg) <= k
            checked_brute += 1
    assert checked_brute > 0

    for m in range(1, 7):
        dipole = Multigraph(2, [(0, 1)] * m)
        assert edge_colour(dipole)[0] == m
    for mu in (1, 2, 3):
        fat = Multigraph(3, [(0, 1), (0, 2), (1, 2)] * mu)
        k, col = edge_colour(fat)
        assert k == 3 * mu == bf_chi_prime_cut(fat)
        assert col.is_complete() and col.validate()
    pet = Multigraph.of_simple(petersen())
    k, col = edge_colour(pet)
    assert k == 4 == bf_chi_prime_cut(pet)
    assert col.is_complete() and col.validate()
    report(4, f"500 random multigraphs coloured at k = edge bound "
              f"({checked_brute} cross-checked against brute chi'); "
              f"dipoles, fat triangles, Petersen exact")


def test_criterion_5_line_graph_equivalence(multigraph_corpus):
    checked = 0
    for mg in multigraph_corpus:
        if mg.edge_count < 2:
            continue
        assert gamma_bar_ll(mg) == gamma_ll(line_graph(mg))
        checked += 1
    assert checked > 400
    report(5, f"edge bound equals line-graph bound on all {checked} "
              f"corpus multigraphs with >= 2 edges")


def test_criterion_6_circular_interval_round_up(circular_corpus):
    for g in circular_corpus:
        assert g.n <= 10
        chi = chromatic_number(g)[0]
        chi_f = fractional_chromatic_solution(g).value
        assert chi == math.ceil(chi_f)
        assert chi <= gamma_ll(g)
    report(6, "200 circular interval graphs: chi = ceil(chi_f) and "
              "chi <= gamma_ll")


def test_criterion_7_co_triangle_free(co_triangle_corpus):
    branch_checked = 0
    for g in co_triangle_corpus:
        assert g.n <= 14
        assert stability_number(g) <= 2
        chi_m, vc = chi_via_complement_matching(g)
        assert verify_vertex_colouring(g, vc)
        assert chi_m <= gamma_ll(g)
        if g.n <= 12:
            assert chromatic_number(g)[0] == chi_m
            branch_checked += 1
    assert branch_checked > 0
    report(7, f"200 co-triangle-free graphs: chi = n - matching(complement) "
              f"<= gamma_ll ({branch_checked} checked against branch and bound)")


def test_criterion_8_conjecture_suites(connected7, circular_corpus,
                                       co_triangle_corpus):
    claims = ("superlocal-chi", "clique-average")
    total = 0
    for space, circular in (
        (connected7, False),
        (circular_corpus, True),
        (co_triangle_corpus, False),
    ):
        summary = search_counterexamples(
            space, CheckFlags(claims=claims, circular_interval=circular)
        )
        assert summary.findings == ()
        for claim in claims:
            assert summary.verdict_counts[claim]["violated"] == 0
        total += summary.total
    report(8, f"zero counterexamples to either open conjecture over "
              f"{total} graphs")


def test_criterion_9_membership_probability_inequalities():
    graphs = 0
    for n in range(1, 7):
        for g in enumerate_graph_classes(n):
            graphs += 1
            p = bf_membership_probabilities(g)
            om = g.omegas()
            for v in range(g.n):
                lhs = sum(p[u] for u in g.neighbours(v))
                assert lhs >= 2 - (om[v] + 1) * p[v]
            for u, v in g.edges:
                nu, nv = set(g.neighbours(u)), set(g.neighbours(v))
                joint = (nu | nv) - {u, v}
                lhs = sum(p[x] for x in joint)
                rhs = (
                    4
                    - (om[v] + 2) * p[v]
                    - (om[u] + 2) * p[u]
                    - sum(p[w] for w in nu & nv)
                )
                assert lhs >= rhs
    assert graphs == 208
    report(9, "expected-weight inequalities hold for every vertex and edge "
              "of all 208 graph classes, n <= 6")
