import random
import sys
from fractions import Fraction

import pytest

from superlocal import (
    DomainError,
    SimpleGraph,
    SizeLimitError,
    complement,
    enumerate_graph_classes,
    induced_subgraph,
    maximal_stable_sets,
    maximum_stable_sets,
    stability_number,
)
from superlocal import stable_sets
from superlocal.graphs import mask_members, max_clique_size
from superlocal.stable_sets import _bron_kerbosch, _maximum_sets
from bruteforce import (
    bf_maximal_cliques,
    bf_maximal_stable_sets,
    bf_maximum_stable_sets,
    bf_membership_probabilities,
)
from conftest import complete, cycle, path, petersen


def test_maximal_cliques_match_bruteforce(classes6):
    # the maximal cliques of g are the maximal stable sets of its complement
    for g in classes6:
        assert list(maximal_stable_sets(complement(g)).sets) == as_masks(bf_maximal_cliques(g))


def test_maximal_stable_sets_match_bruteforce(classes6):
    for g in classes6:
        fam = maximal_stable_sets(g)
        assert list(fam.sets) == as_masks(bf_maximal_stable_sets(g))
        # vertex bitmasks in a deterministic order: sorted by members
        assert all(isinstance(s, int) for s in fam.sets)
        assert list(fam.sets) == sorted(fam.sets, key=mask_members)


def test_maximum_stable_sets_match_bruteforce(classes6):
    for g in classes6:
        masks = maximum_stable_sets(g, (1 << g.n) - 1)
        assert list(masks) == as_masks(sorted(bf_maximum_stable_sets(g), key=sorted))


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

            def relabel(sets):
                return as_masks([labels[v] for v in s] for s in sets)

            maximum = maximum_stable_sets(g, within=mask)
            whole = maximum_stable_sets(sub, (1 << sub.n) - 1)
            assert list(maximum) == relabel(mask_members(m) for m in whole)
            # the branch and bound lists the sets already in sorted order
            assert list(maximum) == relabel(sorted(bf_maximum_stable_sets(sub), key=sorted))


def test_within_rejects_masks_outside_the_graph():
    g = cycle(5)
    for mask in (1 << 5, (1 << 6) - 1, -1, -2):
        with pytest.raises(DomainError):
            maximum_stable_sets(g, within=mask)
    assert maximum_stable_sets(SimpleGraph(0), within=0) == (0,)


def test_membership_probabilities_sum_to_alpha(classes6):
    # bf_membership_probabilities is the reference that the expected-weight
    # inequalities below and acceptance criterion 9 read
    for g in classes6:
        assert sum(bf_membership_probabilities(g).values()) == stability_number(g)


def test_cycle5_probabilities_uniform():
    p = bf_membership_probabilities(cycle(5))
    assert p == {v: Fraction(2, 5) for v in range(5)}


def test_petersen_probabilities_uniform():
    p = bf_membership_probabilities(petersen())
    assert p == {v: Fraction(2, 5) for v in range(10)}


def test_path3_probabilities():
    # unique maximum stable set: the two leaves
    p = bf_membership_probabilities(path(3))
    assert p == {0: Fraction(1), 1: Fraction(0), 2: Fraction(1)}


def test_complete_graph_families():
    g = complete(4)
    assert maximal_stable_sets(g).sets == (0b0001, 0b0010, 0b0100, 0b1000)
    assert maximal_stable_sets(complement(g)).sets == (0b1111,)


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
    assert maximal_stable_sets(g).sets == (0b111,)
    assert maximal_stable_sets(complement(g)).sets == (0b001, 0b010, 0b100)


def test_empty_graph():
    # the empty set is vacuously the unique maximal stable set / clique
    g = SimpleGraph(0)
    assert maximal_stable_sets(g).sets == (0,)
    assert maximal_stable_sets(complement(g)).sets == (0,)


def test_size_limit_enforced(monkeypatch):
    g = SimpleGraph(25)
    with pytest.raises(SizeLimitError):
        maximal_stable_sets(g)
    # the limit is read when the function runs
    monkeypatch.setattr(stable_sets, "ENUMERATION_VERTEX_LIMIT", 4)
    with pytest.raises(SizeLimitError):
        maximal_stable_sets(cycle(5))
    monkeypatch.setattr(stable_sets, "ENUMERATION_VERTEX_LIMIT", 25)
    assert len(maximal_stable_sets(g).sets) == 1


def test_maximum_sets_appear_in_maximal_family(classes6):
    for g in classes6:
        maximal = set(maximal_stable_sets(g).sets)
        assert set(maximum_stable_sets(g, (1 << g.n) - 1)) <= maximal


def test_expected_neighbourhood_weight_vertex():
    # for a uniform random maximum stable set S and every vertex v:
    # E(|S ∩ N(v)|) >= 2 - (omega(v)+1) Pr(v in S)
    for n in range(1, 8):
        for g in enumerate_graph_classes(n):
            p = bf_membership_probabilities(g)
            om = g.omegas()
            for v in range(g.n):
                lhs = sum(p[u] for u in g.neighbours(v))
                assert lhs >= 2 - (om[v] + 1) * p[v]


def test_expected_neighbourhood_weight_edge():
    # edge version over N(u,v) = (N(u) ∪ N(v)) \ {u,v}
    for n in range(1, 8):
        for g in enumerate_graph_classes(n):
            p = bf_membership_probabilities(g)
            om = g.omegas()
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
