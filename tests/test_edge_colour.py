import random

import pytest

from superlocal import (
    DomainError,
    InternalBugError,
    Multigraph,
    PartialEdgeColouring,
    build_maximal_fan,
    edge_colour,
    fan_sequence_resolve,
    gamma_bar_ll,
    gamma_bar_ll_via_line_graph,
    kempe_swap,
    random_corpus,
    rotate_fan,
)
from bruteforce import bf_chi_prime
from conftest import count_validations, cycle, path, petersen


def triangle_state():
    """Spec'd hand example: hole (0,2) with two triangle edges coloured."""
    mg = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    c = PartialEdgeColouring(mg, 3, {0: 1, 2: 2})
    return mg, c


def crafted_sequence_state():
    """Size-2 fan with pairwise disjoint missing sets at k=4."""
    mg = Multigraph(5, [(0, 1), (0, 2), (0, 2), (1, 3), (1, 4), (2, 4), (2, 3)])
    c0 = PartialEdgeColouring(mg, 4, {1: 1, 2: 4, 3: 2, 4: 3, 5: 2, 6: 3})
    return mg, c0


class TestPartialEdgeColouring:
    def test_assign_unassign(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 2)
        c.assign(0, 1)
        assert c.colour_of(0) == 1
        assert c.present(1) == {1}
        assert c.missing(1) == {2}
        assert c.edge_at(0, 1) == 0
        assert c.edge_at(0, 2) is None
        c.unassign(0)
        assert c.colour_of(0) is None
        assert c.missing(1) == {1, 2}

    def test_errors(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        with pytest.raises(DomainError):
            PartialEdgeColouring(mg, -1)
        c = PartialEdgeColouring(mg, 2)
        with pytest.raises(DomainError):
            c.assign(0, 3)
        with pytest.raises(DomainError):
            c.assign(0, 0)
        c.assign(0, 1)
        with pytest.raises(DomainError):
            c.assign(0, 2)  # already coloured
        with pytest.raises(DomainError):
            c.assign(1, 1)  # colour clash at vertex 1
        with pytest.raises(DomainError):
            c.unassign(1)
        with pytest.raises(DomainError):
            c.colour_of(9)

    def test_initial_assignment_and_completeness(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 2, {0: 1, 1: 2})
        assert c.is_complete()
        assert c.uncoloured() == ()
        assert c.assignment == {0: 1, 1: 2}
        c.unassign(1)
        assert not c.is_complete()
        assert c.uncoloured() == (1,)

    def test_copy_is_independent(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 2, {0: 1})
        d = c.copy()
        d.assign(1, 2)
        assert c.colour_of(1) is None
        assert d.colour_of(1) == 2

    def test_validate_detects_corruption(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 2, {0: 1, 1: 2})
        assert c.validate()
        c._col[1] = 1  # break properness behind the index's back
        with pytest.raises(InternalBugError):
            c.validate()

    def test_corrupt_index_fails_at_the_change(self):
        # edge 1 joins vertices 1 and 2; vertex 2's index gains a colour
        # no edge carries there, and the next change at vertex 2 sees it
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 3, {0: 1})
        c._at[2][3] = 1
        with pytest.raises(InternalBugError, match="vertex 2"):
            c.assign(1, 2)
        d = PartialEdgeColouring(mg, 3, {0: 1, 1: 2})
        d._at[2][3] = 1
        with pytest.raises(InternalBugError, match="vertex 2"):
            d.unassign(1)

    def test_corrupt_index_elsewhere_fails_at_validate(self):
        # vertex 0 is on edge 0 only; changes to edge 1 never rebuild it
        mg = Multigraph(4, [(0, 1), (2, 3)])
        c = PartialEdgeColouring(mg, 2, {0: 1})
        c._at[0][2] = 0
        c.assign(1, 1)
        c.unassign(1)
        c.assign(1, 2)
        with pytest.raises(InternalBugError, match="vertex 0"):
            c.validate()


class TestBuildMaximalFan:
    def test_triangle_example(self):
        mg, c = triangle_state()
        fan = build_maximal_fan(mg, c, 1, 0)
        assert fan.edge == 1
        assert fan.hinge == 0
        assert fan.vertices == (2, 1)
        assert fan.edges == (1, 0)
        assert fan.witnesses == (None, (0, 1))

    def test_dipole_size_one(self):
        mg = Multigraph(2, [(0, 1), (0, 1)])
        c = PartialEdgeColouring(mg, 2, {0: 1})
        fan = build_maximal_fan(mg, c, 1, 0)
        assert fan.vertices == (1,)
        assert fan.edges == (1,)

    def test_preconditions(self):
        mg, c = triangle_state()
        with pytest.raises(DomainError):
            build_maximal_fan(mg, c, 0, 0)  # edge 0 is coloured
        with pytest.raises(DomainError):
            build_maximal_fan(mg, c, 1, 1)  # 1 is not an endpoint of edge 1

    def test_deterministic(self):
        mg, c = crafted_sequence_state()
        fans = [build_maximal_fan(mg, c, 0, 0) for _ in range(3)]
        assert fans[0] == fans[1] == fans[2]


class TestRotateFan:
    def test_identity(self):
        mg, c = triangle_state()
        fan = build_maximal_fan(mg, c, 1, 0)
        r = rotate_fan(c, fan, 1)
        assert r.assignment == c.assignment
        r.assign(1, 3)  # the copy is independent
        assert c.colour_of(1) is None

    def test_triangle_rotation(self):
        mg, c = triangle_state()
        fan = build_maximal_fan(mg, c, 1, 0)
        r = rotate_fan(c, fan, 2)
        assert r.assignment == {1: 1, 2: 2}
        assert r.colour_of(0) is None
        assert r.validate()

    def test_hinge_palette_preserved(self):
        mg, c = crafted_sequence_state()
        fan = build_maximal_fan(mg, c, 0, 0)
        for j in range(1, len(fan.vertices) + 1):
            r = rotate_fan(c, fan, j)
            assert r.present(0) == c.present(0)
            assert r.validate()

    def test_bad_index(self):
        mg, c = triangle_state()
        fan = build_maximal_fan(mg, c, 1, 0)
        with pytest.raises(DomainError):
            rotate_fan(c, fan, 0)
        with pytest.raises(DomainError):
            rotate_fan(c, fan, 3)

    def test_stale_witness_is_bug(self):
        mg, c = triangle_state()
        fan = build_maximal_fan(mg, c, 1, 0)
        d = c.copy()
        d.unassign(0)
        d.assign(0, 3)  # invalidate the witness colour
        with pytest.raises(InternalBugError):
            rotate_fan(d, fan, 2)


class TestKempeSwap:
    def test_path_swap(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 2, {0: 1, 1: 2})
        s = kempe_swap(c, 1, 2, 0)
        assert s.assignment == {0: 2, 1: 1}

    def test_swap_is_involution(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 2, {0: 1, 1: 2})
        s = kempe_swap(kempe_swap(c, 1, 2, 0), 1, 2, 0)
        assert s.assignment == c.assignment

    def test_empty_chain(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 3, {0: 1, 1: 2})
        s = kempe_swap(c, 2, 3, 0)  # vertex 0 misses both
        assert s.assignment == c.assignment

    def test_full_cycle_guard(self):
        # edge ids are sorted pairs: 0=(0,1), 1=(0,3), 2=(1,2), 3=(2,3)
        mg = Multigraph.of_simple(cycle(4))
        c = PartialEdgeColouring(mg, 2, {0: 1, 1: 2, 2: 2, 3: 1})
        for v in range(4):
            with pytest.raises(DomainError):
                kempe_swap(c, 1, 2, v)

    def test_other_guards(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 2, {0: 1})
        with pytest.raises(DomainError):
            kempe_swap(c, 1, 1, 0)
        with pytest.raises(DomainError):
            kempe_swap(c, 1, 3, 0)
        with pytest.raises(DomainError):
            kempe_swap(c, 1, 2, 5)


class TestFanSequence:
    def test_crafted_all_disjoint_case(self):
        mg, c0 = crafted_sequence_state()
        fan = build_maximal_fan(mg, c0, 0, 0)
        assert fan.vertices == (1, 2)
        assert c0.missing(0) == {2, 3}
        assert c0.missing(1) == {1, 4}
        assert c0.missing(2) == set()
        done = fan_sequence_resolve(mg, c0, fan)
        assert done.is_complete()
        assert done.validate()
        assert done.assignment == {0: 1, 1: 2, 2: 4, 3: 2, 4: 3, 5: 1, 6: 3}
        # the input state is untouched
        assert c0.colour_of(0) is None

    def test_rejects_wrong_fan_size(self):
        mg = Multigraph(2, [(0, 1), (0, 1)])
        c = PartialEdgeColouring(mg, 2, {0: 1})
        fan = build_maximal_fan(mg, c, 1, 0)
        with pytest.raises(DomainError):
            fan_sequence_resolve(mg, c, fan)

    def test_rejects_shared_missing_colours(self):
        mg, c = triangle_state()
        fan = build_maximal_fan(mg, c, 1, 0)
        with pytest.raises(DomainError):
            fan_sequence_resolve(mg, c, fan)


class TestEdgeColour:
    def test_dipoles(self):
        for mu in (1, 2, 3, 4):
            mg = Multigraph(2, [(0, 1)] * mu)
            k, col = edge_colour(mg)
            assert k == max(mu, 1)
            assert col.is_complete()
            assert sorted(col.assignment.values()) == list(range(1, mu + 1))

    def test_fat_triangles(self):
        for mu in (1, 2, 3):
            mg = Multigraph(3, [(0, 1), (0, 2), (1, 2)] * mu)
            k, col = edge_colour(mg)
            assert k == 3 * mu
            assert col.is_complete() and col.validate()
            assert k == bf_chi_prime(mg)

    def test_small_fixtures_match_bruteforce(self):
        fixtures = [
            Multigraph.of_simple(path(3)),
            Multigraph.of_simple(path(5)),
            Multigraph.of_simple(cycle(5)),
            Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (1, 3)]),
            Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]),
        ]
        for mg in fixtures:
            k, col = edge_colour(mg)
            assert col.is_complete() and col.validate()
            assert bf_chi_prime(mg) <= k

    def test_petersen(self):
        mg = Multigraph.of_simple(petersen())
        k, col = edge_colour(mg)
        assert k == 4
        assert col.is_complete() and col.validate()

    def test_star(self):
        mg = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
        k, col = edge_colour(mg)
        assert k == 3
        assert sorted(col.assignment.values()) == [1, 2, 3]

    def test_stats_account_for_every_edge(self):
        mg = Multigraph.of_simple(petersen())
        k, col = edge_colour(mg)
        s = col.stats
        assert set(s) == {"direct", "rotation", "kempe", "sequence_steps", "beta_swaps"}
        assert s["direct"] + s["rotation"] + s["beta_swaps"] == mg.edge_count

    def test_one_validation_per_colouring(self, monkeypatch):
        # the mutators check every change; the finished colouring is
        # validated once (the rare-branch fixtures below check the same)
        calls = count_validations(monkeypatch)
        mg = Multigraph.of_simple(petersen())
        _, col = edge_colour(mg)
        assert col.stats["direct"] == mg.edge_count
        assert len(calls) == 1

    def test_insertion_orders(self):
        mg = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (1, 3), (0, 2)])
        k0, _ = edge_colour(mg)
        rng = random.Random(7)
        for _ in range(12):
            order = list(range(mg.edge_count))
            rng.shuffle(order)
            k, col = edge_colour(mg, insertion_order=order)
            assert k == k0
            assert col.is_complete() and col.validate()

    def test_errors(self):
        with pytest.raises(DomainError):
            edge_colour(Multigraph(3))
        mg = Multigraph(3, [(0, 1), (1, 2)])
        with pytest.raises(DomainError):
            edge_colour(mg, insertion_order=[0, 0])
        with pytest.raises(DomainError):
            edge_colour(mg, insertion_order=[0])

    def test_corpus_meets_bound_and_line_graph(self):
        for mg in random_corpus("multigraph", seed=20240817, count=100):
            k, col = edge_colour(mg)
            assert k == gamma_bar_ll(mg) == gamma_bar_ll_via_line_graph(mg)
            assert col.is_complete() and col.validate()
            assert all(1 <= c <= k for c in col.assignment.values())


def _stats(direct=0, rotation=0, kempe=0, sequence_steps=0):
    return {
        "direct": direct,
        "rotation": rotation,
        "kempe": kempe,
        "sequence_steps": sequence_steps,
        "beta_swaps": 0,
    }


class TestRareBranches:
    """Smallest inputs found by tests/branch_search.py (seed 2, 300,000 trials).

    The search covers multigraphs on at most 6 vertices; the beta-swap
    branch never fired in it and has no fixture.
    """

    def test_kempe_swap(self, monkeypatch):
        calls = count_validations(monkeypatch)
        mg = Multigraph(5, [(3, 4), (0, 3), (0, 2), (0, 1), (1, 2), (1, 4), (2, 3)])
        k, col = edge_colour(mg, insertion_order=[4, 6, 5, 0, 2, 3, 1])
        assert col.stats == _stats(direct=7, kempe=1)
        assert len(calls) == 1
        assert k == gamma_bar_ll_via_line_graph(mg) == 4
        assert col.is_complete() and col.validate()

    def test_rotation_and_sequence_step(self, monkeypatch):
        calls = count_validations(monkeypatch)
        mg = Multigraph(
            5, [(1, 4), (0, 3), (1, 4), (2, 4), (1, 3), (2, 4), (1, 3), (0, 3)]
        )
        k, col = edge_colour(mg, insertion_order=[7, 5, 1, 3, 2, 4, 6, 0])
        assert col.stats == _stats(direct=7, rotation=1, sequence_steps=1)
        assert len(calls) == 1
        assert k == gamma_bar_ll_via_line_graph(mg)
        assert col.is_complete() and col.validate()

    def test_fan_sequence_from_partial_state(self, monkeypatch):
        mg = Multigraph(
            5, [(2, 4), (1, 2), (2, 4), (3, 4), (3, 4), (1, 2), (0, 1), (0, 1)]
        )
        k = gamma_bar_ll(mg)
        c0 = PartialEdgeColouring(mg, k, {1: 2, 2: 1, 3: 5, 4: 3, 5: 4, 6: 3, 7: 5})
        hole = 0
        fan = build_maximal_fan(mg, c0, hole, min(mg.endpoints(hole)))
        assert len(fan.vertices) == 2
        calls = count_validations(monkeypatch)
        done = fan_sequence_resolve(mg, c0, fan)
        assert done.stats == _stats(rotation=1, sequence_steps=1)
        assert len(calls) == 1
        assert done.is_complete() and done.validate()
        assert c0.colour_of(hole) is None
