import random
import sys
from fractions import Fraction

import pytest

from superlocal import (
    DomainError,
    SimpleGraph,
    SizeLimitError,
    induced_subgraph,
    maximal_cliques,
    maximal_stable_sets,
    maximum_stable_sets,
    membership_probabilities,
)
from superlocal.graphs import max_clique_size
from superlocal.stable_sets import _bron_kerbosch, _maximum_sets
from bruteforce import (
    bf_maximal_cliques,
    bf_maximal_stable_sets,
    bf_maximum_stable_sets,
    bf_membership_probabilities,
)
from conftest import complete, cycle, path, petersen


def test_maximal_cliques_match_bruteforce(classes6):
    for g in classes6:
        assert list(maximal_cliques(g)) == bf_maximal_cliques(g)


def test_maximal_stable_sets_match_bruteforce(classes6):
    for g in classes6:
        fam = maximal_stable_sets(g)
        assert list(fam) == bf_maximal_stable_sets(g)
        assert fam.kind == "maximal"


def test_maximum_stable_sets_match_bruteforce(classes6):
    for g in classes6:
        fam = maximum_stable_sets(g)
        assert list(fam) == sorted(bf_maximum_stable_sets(g), key=sorted)
        assert fam.kind == "maximum"


def as_masks(sets):
    return [sum(1 << v for v in s) for s in sets]


def within_masks(g, rng):
    """The empty mask, every vertex, each single vertex dropped, and a few at random."""
    full = (1 << g.n) - 1
    return [0, full] + [full ^ (1 << v) for v in range(g.n)] + [
        rng.randrange(1 << g.n) for _ in range(4)
    ]


def test_within_matches_induced_subgraph(classes6):
    rng = random.Random(7)
    for g in classes6:
        for mask in within_masks(g, rng):
            sub, labels = induced_subgraph(g, [v for v in range(g.n) if mask >> v & 1])

            def relabel(fam):
                return [frozenset(labels[v] for v in s) for s in fam]

            maximal = maximal_stable_sets(g, within=mask)
            maximum = maximum_stable_sets(g, within=mask)
            assert list(maximal) == relabel(maximal_stable_sets(sub))
            assert list(maximum) == relabel(maximum_stable_sets(sub))
            # the branch and bound lists the sets already in sorted order
            assert list(maximum) == relabel(
                sorted(bf_maximum_stable_sets(sub), key=sorted)
            )
            assert list(maximum.masks) == as_masks(maximum)
            assert list(maximal.masks) == as_masks(maximal)
            assert (maximal.kind, maximum.kind) == ("maximal", "maximum")


def test_within_rejects_masks_outside_the_graph():
    g = cycle(5)
    for mask in (1 << 5, (1 << 6) - 1, -1, -2):
        with pytest.raises(DomainError):
            maximal_stable_sets(g, within=mask)
        with pytest.raises(DomainError):
            maximum_stable_sets(g, within=mask)
    assert list(maximal_stable_sets(SimpleGraph(0), within=0)) == [frozenset()]


def test_membership_probabilities_match_bruteforce(classes6):
    for g in classes6:
        p = membership_probabilities(g)
        assert p == bf_membership_probabilities(g)
        assert all(isinstance(x, Fraction) for x in p.values())


def test_membership_probabilities_sum_to_alpha(classes6):
    for g in classes6:
        p = membership_probabilities(g)
        alpha = max(len(s) for s in maximal_stable_sets(g))
        assert sum(p.values()) == alpha


def test_cycle5_probabilities_uniform():
    p = membership_probabilities(cycle(5))
    assert p == {v: Fraction(2, 5) for v in range(5)}


def test_petersen_probabilities_uniform():
    p = membership_probabilities(petersen())
    assert p == {v: Fraction(2, 5) for v in range(10)}


def test_path3_probabilities():
    # unique maximum stable set: the two leaves
    p = membership_probabilities(path(3))
    assert p == {0: Fraction(1), 1: Fraction(0), 2: Fraction(1)}


def test_complete_graph_families():
    g = complete(4)
    assert [sorted(s) for s in maximal_stable_sets(g)] == [[0], [1], [2], [3]]
    assert list(maximal_cliques(g)) == [frozenset(range(4))]
    assert membership_probabilities(g) == {v: Fraction(1, 4) for v in range(4)}


def test_searches_deeper_than_the_recursion_limit():
    # on K_n every search takes one vertex per level, n levels deep
    n = sys.getrecursionlimit() + 10
    full = (1 << n) - 1
    adj = [full ^ (1 << v) for v in range(n)]
    assert max_clique_size(adj, full) == n
    assert _bron_kerbosch(adj, full) == [full]
    assert _maximum_sets(adj, full) == [full]


def test_edgeless_graph():
    g = SimpleGraph(3)
    fam = maximal_stable_sets(g)
    assert list(fam) == [frozenset({0, 1, 2})]
    assert [sorted(s) for s in maximal_cliques(g)] == [[0], [1], [2]]


def test_empty_graph():
    # the empty set is vacuously the unique maximal stable set / clique
    g = SimpleGraph(0)
    assert list(maximal_stable_sets(g)) == [frozenset()]
    assert list(maximal_cliques(g)) == [frozenset()]
    with pytest.raises(DomainError):
        membership_probabilities(g)


def test_size_limit_enforced():
    g = SimpleGraph(25)
    with pytest.raises(SizeLimitError):
        maximal_stable_sets(g)
    with pytest.raises(SizeLimitError):
        maximal_cliques(cycle(5), limit=4)
    assert len(maximal_stable_sets(g, limit=25)) == 1


def test_family_iteration_and_len():
    fam = maximal_stable_sets(cycle(5))
    assert len(fam) == 5
    assert all(isinstance(s, frozenset) for s in fam)
    # deterministic order: sorted by members
    assert list(fam) == sorted(fam, key=sorted)


def test_maximum_sets_appear_in_maximal_family(classes6):
    for g in classes6:
        maximal = set(maximal_stable_sets(g))
        assert set(maximum_stable_sets(g)) <= maximal


def test_expected_neighbourhood_weight_vertex():
    # for a uniform random maximum stable set S and every vertex v:
    # E(|S ∩ N(v)|) >= 2 - (omega(v)+1) Pr(v in S)
    from superlocal import enumerate_graph_classes, omega_v

    for n in range(1, 8):
        for g in enumerate_graph_classes(n):
            p = membership_probabilities(g)
            for v in range(g.n):
                lhs = sum(p[u] for u in g.neighbours(v))
                assert lhs >= 2 - (omega_v(g, v) + 1) * p[v]


def test_expected_neighbourhood_weight_edge():
    # edge version over N(u,v) = (N(u) ∪ N(v)) \ {u,v}
    from superlocal import enumerate_graph_classes, omega_v

    for n in range(1, 8):
        for g in enumerate_graph_classes(n):
            p = membership_probabilities(g) if g.n else {}
            for u, v in g.edges:
                nu, nv = set(g.neighbours(u)), set(g.neighbours(v))
                joint = (nu | nv) - {u, v}
                lhs = sum(p[x] for x in joint)
                rhs = (
                    4
                    - (omega_v(g, v) + 2) * p[v]
                    - (omega_v(g, u) + 2) * p[u]
                    - sum(p[w] for w in nu & nv)
                )
                assert lhs >= rhs
