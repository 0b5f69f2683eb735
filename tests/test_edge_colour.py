import ast
import hashlib
import random
import sys

import pytest

from superlocal import (
    DomainError,
    InternalBugError,
    Multigraph,
    PartialEdgeColouring,
    build_maximal_fan,
    edge_colour,
    gamma_bar_ll,
    gamma_bar_ll_via_line_graph,
    kempe_swap,
    random_corpus,
    rotate_fan,
)
from superlocal.edge_colour import _resolve_hole, _try_beta_swap, _walk_chain
import branch_search
from bruteforce import bf_chi_prime
from conftest import ACCEPTANCE_SEED, count_validations, cycle, path, petersen


def coloured(mg, k, assignment):
    """A partial colouring of mg with k colours, assigned in edge id order."""
    c = PartialEdgeColouring(mg, k)
    for eid in sorted(assignment):
        c.assign(eid, assignment[eid])
    return c


def missing(c, w):
    """The colours missing at w, as a set."""
    return {col for col in range(1, c.k + 1) if c.missing_mask(w) >> col & 1}


def relabelled(mg, order):
    """mg with its edges listed in order: new edge i is edge order[i] of mg."""
    return Multigraph(mg.n, [mg.edges[i] for i in order])


def inserted_in_order(mg, order):
    """(k, colouring, stats) of edge_colour's insertion loop run in order."""
    k = gamma_bar_ll(mg)
    c = PartialEdgeColouring(mg, k)
    for eid in order:
        _resolve_hole(mg, c, eid)
    return k, c, c.stats


def triangle_state():
    """Spec'd hand example: hole (0,2) with two triangle edges coloured."""
    mg = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    c = coloured(mg, 3, {0: 1, 2: 2})
    return mg, c


def check_views_after_changes(monkeypatch):
    """After every assign and unassign, compare both endpoints' colour views.

    The mask, the count and the index must each equal what the
    assignment gives, recomputed here without the class's own checks.
    Returns the list of edges changed so far.
    """
    changed = []
    for name in ("assign", "unassign"):
        original = getattr(PartialEdgeColouring, name)

        def checked(self, eid, *colour, _original=original):
            _original(self, eid, *colour)
            for w in self.mg.endpoints(eid):
                at = {}
                for e in self.mg.incident(w):
                    if self.colour_of(e) is not None:
                        at[self.colour_of(e)] = e
                held = (self._present[w], self._count[w], self._at[w])
                assert held == (sum(1 << col for col in at), len(at), at)
            changed.append(eid)

        monkeypatch.setattr(PartialEdgeColouring, name, checked)
    return changed


def count_rebuilds(monkeypatch):
    """Record, per _check(w) call, whether it ran inside validate()."""
    inside = []
    depth = [0]
    validate, check = PartialEdgeColouring.validate, PartialEdgeColouring._check

    def counted_validate(self):
        depth[0] += 1
        try:
            return validate(self)
        finally:
            depth[0] -= 1

    def counted_check(self, w):
        inside.append(depth[0] > 0)
        return check(self, w)

    monkeypatch.setattr(PartialEdgeColouring, "validate", counted_validate)
    monkeypatch.setattr(PartialEdgeColouring, "_check", counted_check)
    return inside


def crafted_sequence_state():
    """Size-2 fan with pairwise disjoint missing sets at k=4."""
    mg = Multigraph(5, [(0, 1), (0, 2), (0, 2), (1, 3), (1, 4), (2, 4), (2, 3)])
    c0 = coloured(mg, 4, {1: 1, 2: 4, 3: 2, 4: 3, 5: 2, 6: 3})
    return mg, c0


class TestPartialEdgeColouring:
    def test_assign_unassign(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = PartialEdgeColouring(mg, 2)
        c.assign(0, 1)
        assert c.colour_of(0) == 1
        assert missing(c, 1) == {2}
        assert c.edge_at(0, 1) == 0
        assert c.edge_at(0, 2) is None
        c.unassign(0)
        assert c.colour_of(0) is None
        assert missing(c, 1) == {1, 2}

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
        c = coloured(mg, 2, {0: 1, 1: 2})
        assert c.is_complete()
        assert c.uncoloured() == ()
        assert c.assignment == {0: 1, 1: 2}
        c.unassign(1)
        assert not c.is_complete()
        assert c.uncoloured() == (1,)

    def test_validate_detects_corruption(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = coloured(mg, 2, {0: 1, 1: 2})
        assert c.validate()
        c._col[1] = 1  # break properness behind the index's back
        with pytest.raises(InternalBugError):
            c.validate()

    def test_corrupt_index_fails_at_the_change(self):
        # edge 1 joins vertices 1 and 2; vertex 2's index gains a colour
        # no edge carries there, and the next change at vertex 2 sees it
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = coloured(mg, 3, {0: 1})
        c._at[2][3] = 1
        with pytest.raises(InternalBugError, match="vertex 2"):
            c.assign(1, 2)
        d = coloured(mg, 3, {0: 1, 1: 2})
        d._at[2][3] = 1
        with pytest.raises(InternalBugError, match="vertex 2"):
            d.unassign(1)

    def test_index_naming_another_edge_fails_at_removal(self):
        # vertex 2's entry for colour 2 names edge 0, not edge 1
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = coloured(mg, 3, {0: 1, 1: 2})
        c._at[2][2] = 0
        with pytest.raises(InternalBugError, match="vertex 2"):
            c.unassign(1)

    def test_corrupt_index_elsewhere_fails_at_validate(self):
        # vertex 0 is on edge 0 only; changes to edge 1 never rebuild it
        mg = Multigraph(4, [(0, 1), (2, 3)])
        c = coloured(mg, 2, {0: 1})
        c._at[0][2] = 0
        c.assign(1, 1)
        c.unassign(1)
        c.assign(1, 2)
        with pytest.raises(InternalBugError, match="vertex 0"):
            c.validate()

    def test_corrupt_mask_fails_at_the_change(self):
        # vertex 2's mask gains colour 2, which no edge carries there;
        # assigning colour 2 at vertex 2 reads that bit
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = coloured(mg, 3, {0: 1})
        c._present[2] |= 1 << 2
        with pytest.raises(InternalBugError, match="vertex 2"):
            c.assign(1, 2)
        # vertex 2's mask loses colour 2, which edge 1 carries there
        d = coloured(mg, 3, {0: 1, 1: 2})
        d._present[2] &= ~(1 << 2)
        with pytest.raises(InternalBugError, match="vertex 2"):
            d.unassign(1)

    def test_corrupt_count_fails_at_the_change(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = coloured(mg, 3, {0: 1})
        c._count[2] += 1
        with pytest.raises(InternalBugError, match="vertex 2"):
            c.assign(1, 2)
        d = coloured(mg, 3, {0: 1, 1: 2})
        d._count[2] -= 1
        with pytest.raises(InternalBugError, match="vertex 2"):
            d.unassign(1)

    @pytest.mark.parametrize("view, w, colour", [("mask", 0, 2), ("count", 0, 0), ("mask", 2, 3)])
    def test_corrupt_views_elsewhere_fail_at_validate(self, view, w, colour):
        # a change reads only its own colour's bit and its endpoints'
        # counts: vertex 0 is on edge 0 only, and no change below uses
        # colour 3; validate() compares every vertex's whole mask and count
        mg = Multigraph(4, [(0, 1), (2, 3)])
        c = coloured(mg, 3, {0: 1})
        if view == "mask":
            c._present[w] |= 1 << colour
        else:
            c._count[w] += 1
        c.assign(1, 1)
        c.unassign(1)
        c.assign(1, 2)
        with pytest.raises(InternalBugError, match=f"vertex {w}"):
            c.validate()

    def test_sets_follow_the_masks(self):
        mg = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
        c = coloured(mg, 70, {0: 3, 1: 65, 2: 1})
        assert missing(c, 1) == set(range(1, 71)) - {1, 3, 65}
        assert c.missing_mask(1) == sum(1 << col for col in missing(c, 1))
        assert c.least_common_missing(0, 1) == 2
        full = coloured(Multigraph(2, [(0, 1)]), 1, {0: 1})
        assert full.least_common_missing(0, 1) is None
        assert full.missing_mask(0) == 0


class TestBuildMaximalFan:
    def test_triangle_example(self):
        mg, c = triangle_state()
        fan = build_maximal_fan(mg, c, 1, 0)
        assert fan.vertices == (2, 1)
        assert fan.edges == (1, 0)
        assert fan.witnesses == (None, (0, 1))

    def test_witness_is_earliest_fan_vertex(self):
        # star at hinge 0: colour 2 is missing at both fan vertices 1 and
        # 2, so vertex 3's witness is the earlier one
        mg = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
        c = coloured(mg, 3, {1: 1, 2: 2})
        fan = build_maximal_fan(mg, c, 0, 0)
        assert fan.vertices == (1, 2, 3)
        assert fan.witnesses == (None, (0, 1), (0, 2))
        rotate_fan(c, fan, 3)
        assert c.assignment == {0: 2, 1: 1}
        assert c.validate()

    def test_hinge_mask_without_index_entry_is_bug(self):
        mg, c = triangle_state()
        c._present[0] |= 1 << 3  # colour 3 is on no edge at the hinge
        with pytest.raises(InternalBugError, match="vertex 0"):
            build_maximal_fan(mg, c, 1, 0)

    def test_dipole_size_one(self):
        mg = Multigraph(2, [(0, 1), (0, 1)])
        c = coloured(mg, 2, {0: 1})
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
        before = c.assignment
        assert rotate_fan(c, fan, 1) is None
        assert c.assignment == before

    def test_triangle_rotation(self):
        mg, c = triangle_state()
        fan = build_maximal_fan(mg, c, 1, 0)
        assert rotate_fan(c, fan, 2) is None
        assert c.assignment == {1: 1, 2: 2}
        assert c.colour_of(0) is None
        assert c.validate()

    def test_hinge_palette_preserved(self):
        for j in (1, 2):
            mg, c = crafted_sequence_state()
            fan = build_maximal_fan(mg, c, 0, 0)
            hinge_missing = c.missing_mask(0)
            rotate_fan(c, fan, j)
            assert c.missing_mask(0) == hinge_missing
            assert c.validate()

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
        c.unassign(0)
        c.assign(0, 3)  # invalidate the witness colour
        with pytest.raises(InternalBugError):
            rotate_fan(c, fan, 2)


class TestKempeSwap:
    def test_path_swap(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = coloured(mg, 2, {0: 1, 1: 2})
        assert kempe_swap(c, 1, 2, 0) is None
        assert c.assignment == {0: 2, 1: 1}
        assert c.validate()

    def test_swap_is_involution(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = coloured(mg, 2, {0: 1, 1: 2})
        kempe_swap(c, 1, 2, 0)
        kempe_swap(c, 1, 2, 0)
        assert c.assignment == {0: 1, 1: 2}

    def test_empty_chain(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = coloured(mg, 3, {0: 1, 1: 2})
        kempe_swap(c, 2, 3, 0)  # vertex 0 misses both
        assert c.assignment == {0: 1, 1: 2}

    def test_full_cycle_guard(self):
        # edge ids are sorted pairs: 0=(0,1), 1=(0,3), 2=(1,2), 3=(2,3)
        mg = Multigraph.of_simple(cycle(4))
        c = coloured(mg, 2, {0: 1, 1: 2, 2: 2, 3: 1})
        for v in range(4):
            with pytest.raises(DomainError):
                kempe_swap(c, 1, 2, v)

    def test_other_guards(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        c = coloured(mg, 2, {0: 1})
        with pytest.raises(DomainError):
            kempe_swap(c, 1, 1, 0)
        with pytest.raises(DomainError):
            kempe_swap(c, 1, 3, 0)
        with pytest.raises(DomainError):
            kempe_swap(c, 1, 2, 5)

    def test_collision_on_reassignment_is_a_bug_signal(self):
        # vertex 0's index and count gain colour 2 behind the mask's back;
        # the walk reads the mask, so the swap runs and its reassignment
        # of edge 0 to colour 2 meets the stale entry
        mg = Multigraph(4, [(0, 1), (1, 2), (0, 3)])
        c = coloured(mg, 3, {0: 1, 1: 2})
        c._at[0][2] = 2
        c._count[0] += 1
        with pytest.raises(InternalBugError, match="alternating swap collided"):
            kempe_swap(c, 1, 2, 0)


class TestFanSequence:
    def test_crafted_all_disjoint_case(self):
        mg, c0 = crafted_sequence_state()
        fan = build_maximal_fan(mg, c0, 0, 0)
        assert fan.vertices == (1, 2)
        assert missing(c0, 0) == {2, 3}
        assert missing(c0, 1) == {1, 4}
        assert missing(c0, 2) == set()
        branch_search.resolve_hole(mg, c0, 0)
        assert c0.stats == _stats(rotation=1, sequence_steps=1)
        assert c0.is_complete()
        assert c0.validate()
        assert c0.assignment == {0: 1, 1: 2, 2: 4, 3: 2, 4: 3, 5: 1, 6: 3}


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

    def test_rebuilds_only_inside_validate(self, monkeypatch):
        # each change checks what it wrote; the one validate() at the end
        # rebuilds every vertex once
        inside = count_rebuilds(monkeypatch)
        mg = Multigraph.of_simple(petersen())
        edge_colour(mg)
        assert inside == [True] * mg.n
        mg = Multigraph(5, [(1, 2), (2, 3), (1, 4), (3, 4), (0, 2), (0, 1), (0, 3)])
        inside.clear()
        _, col = edge_colour(mg)
        assert col.stats["kempe"] == 1
        assert inside == [True] * mg.n

    def test_dipole_at_scale(self):
        # one colour per parallel edge; each insertion reads only the
        # present masks, so 20,000 edges colour in well under a second
        m = 20_000
        k, col = edge_colour(Multigraph(2, [(0, 1)] * m))
        assert k == m
        assert col.assignment == {eid: eid + 1 for eid in range(m)}
        assert col.validate()

    def test_one_validation_per_colouring(self, monkeypatch):
        # the mutators check every change; the finished colouring is
        # validated once (the rare-branch fixtures below check the same)
        calls = count_validations(monkeypatch)
        mg = Multigraph.of_simple(petersen())
        _, col = edge_colour(mg)
        assert col.stats["direct"] == mg.edge_count
        assert len(calls) == 1

    def test_relabelling(self):
        # inserting mg's edges in a given order is colouring mg with its
        # edges listed in that order: the same k and stats, and new edge i
        # gets the colour of edge order[i]; the fixtures in TestRareBranches
        # are the old (multigraph, insertion order) finds listed this way
        rng = random.Random(7)
        cases = [
            (Multigraph(5, [(3, 4), (0, 3), (0, 2), (0, 1), (1, 2), (1, 4), (2, 3)]),
             [4, 6, 5, 0, 2, 3, 1]),
            (Multigraph(5, [(1, 4), (0, 3), (1, 4), (2, 4), (1, 3), (2, 4), (1, 3), (0, 3)]),
             [7, 5, 1, 3, 2, 4, 6, 0]),
        ]
        mg = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (1, 3), (0, 2)])
        for _ in range(12):
            order = list(range(mg.edge_count))
            rng.shuffle(order)
            cases.append((mg, order))
        fired = set()
        for mg, order in cases:
            k0, c0, stats = inserted_in_order(mg, order)
            k, col = edge_colour(relabelled(mg, order))
            assert k == k0
            assert col.stats == stats
            assert col.assignment == {i: c0.colour_of(e) for i, e in enumerate(order)}
            assert col.is_complete() and col.validate()
            fired.update(case for case, count in stats.items() if count)
        assert fired == {"direct", "rotation", "kempe", "sequence_steps"}

    def test_errors(self):
        with pytest.raises(DomainError):
            edge_colour(Multigraph(3))

    def test_corpus_colourings_pinned(self):
        # sha256 over (k, sorted assignment, stats) for the 500-multigraph
        # acceptance corpus, as computed when the colour sets were Python sets
        digest = hashlib.sha256()
        for mg in random_corpus("multigraph", seed=ACCEPTANCE_SEED, count=500):
            k, col = edge_colour(mg)
            record = (k, sorted(col.assignment.items()), sorted(col.stats.items()))
            digest.update(repr(record).encode("ascii"))
        assert digest.hexdigest() == "c16be0d3fa9f032ba03bbfaede7e99a5e88be6b03a2f151da2ddd4500a700c0f"

    def test_views_agree_after_every_change_on_corpus(self, monkeypatch):
        # the acceptance corpus fires two rotations and a fan-sequence step
        changed = check_views_after_changes(monkeypatch)
        fired = {"rotation": 0, "sequence_steps": 0}
        for mg in random_corpus("multigraph", seed=ACCEPTANCE_SEED, count=500):
            _, col = edge_colour(mg)
            for case in fired:
                fired[case] += col.stats[case]
        assert fired == {"rotation": 2, "sequence_steps": 1}
        assert len(changed) > 5_951

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

    The search covers multigraphs on at most 6 vertices, each listed in
    a random edge order; the beta-swap branch never fired in it and has
    no fixture. Its exchange is tested from a hand-built state instead.
    """

    def test_kempe_swap(self, monkeypatch):
        calls = count_validations(monkeypatch)
        changed = check_views_after_changes(monkeypatch)
        mg = Multigraph(5, [(1, 2), (2, 3), (1, 4), (3, 4), (0, 2), (0, 1), (0, 3)])
        k, col = edge_colour(mg)
        assert col.stats == _stats(direct=7, kempe=1)
        assert len(calls) == 1
        assert len(changed) > mg.edge_count  # the swap unassigned and reassigned
        assert k == gamma_bar_ll_via_line_graph(mg) == 4
        assert col.is_complete() and col.validate()

    def test_step_guard(self, monkeypatch):
        # with the swap a no-op, the Kempe case repeats until the guard
        # ends the insertion: 4 * k * m + 16 = 128 steps at k = 4, m = 7
        mg = Multigraph(5, [(1, 2), (2, 3), (1, 4), (3, 4), (0, 2), (0, 1), (0, 3)])
        module = sys.modules[_resolve_hole.__module__]
        monkeypatch.setattr(module, "kempe_swap", lambda c, a, b, start: None)
        with pytest.raises(InternalBugError, match=r"insertion exceeded 128 steps at edge 6"):
            edge_colour(mg)

    def test_direct_collision_is_a_bug_signal(self, monkeypatch):
        # a least common missing colour that is present at vertex 0
        mg, c = triangle_state()
        monkeypatch.setattr(PartialEdgeColouring, "least_common_missing", lambda self, u, v: 1)
        with pytest.raises(InternalBugError, match="direct colouring collided") as caught:
            _resolve_hole(mg, c, 1)
        assert isinstance(caught.value.__cause__, DomainError)
        assert c.assignment == {0: 1, 2: 2}

    def test_rotation_and_sequence_step(self, monkeypatch):
        calls = count_validations(monkeypatch)
        changed = check_views_after_changes(monkeypatch)
        mg = Multigraph(
            5, [(0, 3), (2, 4), (0, 3), (2, 4), (1, 4), (1, 3), (1, 3), (1, 4)]
        )
        k, col = edge_colour(mg)
        assert col.stats == _stats(direct=7, rotation=1, sequence_steps=1)
        assert len(calls) == 1
        assert len(changed) > mg.edge_count
        assert k == gamma_bar_ll_via_line_graph(mg)
        assert col.is_complete() and col.validate()

    def test_fan_sequence_from_partial_state(self, monkeypatch):
        mg = Multigraph(
            5, [(2, 4), (1, 2), (2, 4), (3, 4), (3, 4), (1, 2), (0, 1), (0, 1)]
        )
        k = gamma_bar_ll(mg)
        c0 = coloured(mg, k, {1: 2, 2: 1, 3: 5, 4: 3, 5: 4, 6: 3, 7: 5})
        hole = 0
        fan = build_maximal_fan(mg, c0, hole, min(mg.endpoints(hole)))
        assert len(fan.vertices) == 2
        calls = count_validations(monkeypatch)
        changed = check_views_after_changes(monkeypatch)
        branch_search.resolve_hole(mg, c0, hole)
        assert c0.stats == _stats(rotation=1, sequence_steps=1)
        assert len(calls) == 1
        assert changed
        assert c0.is_complete() and c0.validate()

    def test_kempe_swap_along_the_second_chain(self, monkeypatch):
        # hole 3 = (1, 3) at hinge 1, which misses colours 1 and 2; fan
        # vertices 3 and 2 both miss colour 4, and the (1, 4) chain from 3
        # runs 3 -1- 5 -4- 1 into the hinge, so the swap runs from 2
        mg = Multigraph(6, [(1, 5), (3, 5), (0, 5), (1, 3), (2, 4), (2, 3), (1, 2)])
        k = gamma_bar_ll(mg)
        c0 = coloured(mg, k, {0: 4, 1: 1, 2: 2, 4: 1, 5: 2, 6: 3})
        assert branch_search.second_chain_hole(mg, c0) == 3
        assert build_maximal_fan(mg, c0, 3, 1).vertices == (3, 2, 5)
        assert missing(c0, 1) == {1, 2}
        assert _walk_chain(c0, 1, 4, 3)[0] == [3, 5, 1]
        module = sys.modules[_resolve_hole.__module__]
        real = module.kempe_swap
        swaps = []

        def recorded(c, a, b, start):
            swaps.append((a, b, start))
            return real(c, a, b, start)

        monkeypatch.setattr(module, "kempe_swap", recorded)
        branch_search.resolve_hole(mg, c0, 3)
        assert swaps == [(1, 4, 2)]
        assert c0.stats == _stats(rotation=1, kempe=1)
        assert c0.is_complete() and c0.validate()

    def beta_swap_state(self):
        """Edges 0, 2 and 3 coloured 1, 3 and 2 with k = 3; edge 1 is the hole.

        Edge 2 is parallel to the hole, and its colour 3 is missing at
        vertex 1 and at vertex 3, ahead of the hinge 2.
        """
        mg = Multigraph(4, [(0, 1), (0, 2), (0, 2), (2, 3)])
        return mg, coloured(mg, 3, {0: 1, 2: 3, 3: 2})

    def test_beta_swap_exchange(self, monkeypatch):
        """The exchange alone, from a hand-built state.

        This shows what _try_beta_swap does when it is reached, not that
        the insertion loop can reach it: the search above never did.
        """
        mg, c = self.beta_swap_state()
        changed = check_views_after_changes(monkeypatch)
        # hole 1 at hinge 2, stepping from vertex 0 toward vertex 3 over
        # edge 3 of colour 2; the previous step coloured edge 0 with
        # colour 1, and its step-before vertex is 1
        assert _try_beta_swap(mg, c, 1, 2, 0, 3, 2, 3, {"prev": (0, 1, 1)})
        assert c.assignment == {0: 3, 1: 1, 2: 2, 3: 3}
        assert changed
        assert c.is_complete() and c.validate()
        assert c.stats["beta_swaps"] == 1

    def test_beta_swap_refused_when_ahead_is_behind(self):
        mg, c = self.beta_swap_state()
        # the vertex ahead, 3, is the previous step's vertex
        assert not _try_beta_swap(mg, c, 1, 2, 0, 3, 2, 3, {"prev": (0, 1, 3)})
        assert c.assignment == {0: 1, 2: 3, 3: 2}
        assert c.stats["beta_swaps"] == 0

    def test_branch_search_runs(self, monkeypatch, capsys):
        # a short seeded search that reaches the fan sequence from a partial
        # state, and its find must replay
        argv = ["branch_search.py", "--seed", "4", "--trials", "4000"]
        monkeypatch.setattr(sys, "argv", argv)
        branch_search.main()
        found = {}
        for line in capsys.readouterr().out.splitlines():
            case, literal = line.split(": ", 1)
            found[case] = ast.literal_eval(literal)
        assert set(found) == {"resolve_hole"}
        hit = found["resolve_hole"]
        mg = Multigraph(hit["n"], hit["edges"])
        c0 = coloured(mg, gamma_bar_ll(mg), hit["assignment"])
        fan = build_maximal_fan(mg, c0, hit["hole"], min(mg.endpoints(hit["hole"])))
        assert len(fan.vertices) == 2
        branch_search.resolve_hole(mg, c0, hit["hole"])
        assert c0.stats == hit["stats"]
