from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superlocal import (
    FractionalColouring,
    InternalBugError,
    SimpleGraph,
    SizeLimitError,
    StableSetFamily,
    fractional_chromatic_number,
    gamma_ll_prime,
    superlocal_fractional_colour,
    verify_fractional_colouring,
)
from bruteforce import bf_superlocal_fractional_colour, bf_verify_fractional_colouring
from conftest import complete, cycle, double_star, petersen

F = Fraction


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


def assert_matches_reference(g):
    fc, trace = superlocal_fractional_colour(g)
    ref_fc, ref_trace = bf_superlocal_fractional_colour(g)
    # the same weights in the same dict order, the same total and records
    assert list(fc.weights.items()) == list(ref_fc.weights.items())
    assert fc.total == ref_fc.total
    assert trace == ref_trace


def test_cycle5_trace():
    g = cycle(5)
    fc, trace = superlocal_fractional_colour(g)
    assert fc.total == F(5, 2)
    assert len(fc.weights) == 5
    assert all(w == F(1, 2) for w in fc.weights.values())
    assert trace.bound == F(5, 2)
    [rec] = trace.records
    assert rec.vertices == (0, 1, 2, 3, 4)
    assert rec.num_max_sets == 5
    assert rec.low == F(5, 2)
    assert rec.val == F(5, 2)
    assert rec.total_after == F(5, 2)


def test_double_star_trace():
    g = double_star()
    fc, trace = superlocal_fractional_colour(g)
    assert trace.bound == 3
    assert fc.total == 3
    first, second = trace.records
    # round 1: the four leaves form the unique maximum stable set
    assert first.num_max_sets == 1
    assert first.val == 1
    assert first.total_after == 1
    # round 2: the two centres survive as singleton maximum stable sets
    assert second.vertices == (0, 1)
    assert second.num_max_sets == 2
    assert second.val == 2
    assert second.total_after == 3


def test_petersen_stops_below_bound():
    g = petersen()
    fc, trace = superlocal_fractional_colour(g)
    assert trace.bound == 3
    assert fc.total == F(5, 2)
    assert len(trace.records) == 1
    assert trace.records[0].num_max_sets == 5


def test_complete_graph():
    fc, trace = superlocal_fractional_colour(complete(4))
    assert fc.total == 4
    assert len(trace.records) == 1
    assert fc.weights == {
        frozenset({0}): 1,
        frozenset({1}): 1,
        frozenset({2}): 1,
        frozenset({3}): 1,
    }


def test_single_vertex_and_empty():
    fc, trace = superlocal_fractional_colour(SimpleGraph(1))
    assert fc.total == 1
    assert fc.weights == {frozenset({0}): 1}
    fc0, trace0 = superlocal_fractional_colour(SimpleGraph(0))
    assert fc0.total == 0
    assert fc0.weights == {}
    assert trace0.records == ()


def test_no_vertex_in_a_maximum_set_raises(monkeypatch):
    empty = StableSetFamily(sets=(frozenset(),), masks=(0,))
    monkeypatch.setattr(
        "superlocal.frac_colour.maximum_stable_sets", lambda g, within: empty
    )
    with pytest.raises(InternalBugError, match="no vertex lies in any maximum stable set"):
        superlocal_fractional_colour(cycle(5))


def test_all_small_classes_valid(classes6):
    for g in classes6:
        bound = gamma_ll_prime(g)
        fc, trace = superlocal_fractional_colour(g)
        verdict = verify_fractional_colouring(g, fc, bound)
        assert verdict.valid, verdict.violations
        assert fc.total <= bound
        if g.n:
            assert fractional_chromatic_number(g) <= fc.total


@given(graphs_st(7, 12))
def test_random_graphs_valid(g):
    bound = gamma_ll_prime(g)
    fc, _ = superlocal_fractional_colour(g)
    assert verify_fractional_colouring(g, fc, bound).valid
    assert fractional_chromatic_number(g) <= fc.total <= bound


def test_matches_reference_on_connected7(connected7):
    assert len(connected7) == 996
    for g in connected7:
        assert_matches_reference(g)


@given(graphs_st(10, 30))
def test_matches_reference_random(g):
    assert_matches_reference(g)


def test_refuses_before_computing_the_target(monkeypatch):
    from superlocal import graphs

    calls = []
    real = graphs.max_clique_size

    def counted(adj, mask):
        calls.append(mask)
        return real(adj, mask)

    monkeypatch.setattr(graphs, "max_clique_size", counted)
    with pytest.raises(SizeLimitError, match="limited to 24 vertices, got 25"):
        superlocal_fractional_colour(complete(25))
    # the size refusal comes first: no clique search for the target
    assert calls == []


def corruptions(g, fc, bound):
    """(weights, total, bound) triples, each with one fault planted."""
    weights = list(fc.weights.items())
    first_key, first_w = weights[0]
    dropped = dict(weights[1:])
    rescaled = dict(weights)
    rescaled[first_key] = first_w * F(2, 3)
    unknown = dict(weights)
    unknown[frozenset({0, g.n, g.n + 2})] = F(1, 7)
    out = [
        (dropped, fc.total, bound),
        (rescaled, fc.total, bound),
        (unknown, fc.total, bound),
        (dict(weights), fc.total, fc.total - F(1, 3)),
    ]
    if g.edges:
        unstable = dict(weights)
        unstable[frozenset(g.edges[-1])] = F(-1, 5)
        out.append((unstable, fc.total + F(1, 2), bound))
    return out


def test_verifier_matches_reference(classes6):
    checked = violations = 0
    for g in classes6:
        fc, trace = superlocal_fractional_colour(g)
        cases = [(fc.weights, fc.total, trace.bound)] + corruptions(g, fc, trace.bound)
        for weights, total, bound in cases:
            colouring = FractionalColouring(weights=weights, total=total)
            got = verify_fractional_colouring(g, colouring, bound)
            assert got == bf_verify_fractional_colouring(g, colouring, bound)
            checked += 1
            violations += len(got.violations)
    assert checked > 5 * len(classes6)
    assert violations > 4 * len(classes6)


class TestVerifierRejections:
    def check(self, g, weights, total, bound):
        return verify_fractional_colouring(
            g, FractionalColouring(weights=weights, total=total), bound
        )

    def test_nonpositive_weight(self):
        v = self.check(SimpleGraph(1), {frozenset({0}): F(0)}, F(0), 1)
        assert not v.valid
        assert any("nonpositive" in s for s in v.violations)

    def test_unstable_set(self):
        g = complete(2)
        v = self.check(g, {frozenset({0, 1}): F(1)}, F(1), 2)
        assert not v.valid
        assert any("not stable" in s for s in v.violations)

    def test_unknown_vertex(self):
        v = self.check(SimpleGraph(1), {frozenset({0, 5}): F(1)}, F(1), 2)
        assert not v.valid
        assert any("unknown vertex" in s for s in v.violations)

    def test_wrong_coverage(self):
        g = SimpleGraph(2)
        v = self.check(g, {frozenset({0}): F(1)}, F(1), 2)
        assert not v.valid
        assert any("covered" in s for s in v.violations)
        # overcoverage is rejected too: exact unit coverage is required
        v2 = self.check(
            g,
            {frozenset({0, 1}): F(1), frozenset({0}): F(1, 2)},
            F(3, 2),
            2,
        )
        assert not v2.valid

    def test_total_mismatch(self):
        v = self.check(SimpleGraph(1), {frozenset({0}): F(1)}, F(2), 3)
        assert not v.valid
        assert any("recorded total" in s for s in v.violations)

    def test_total_exceeds_bound(self):
        g = SimpleGraph(1)
        v = self.check(g, {frozenset({0}): F(1)}, F(1), F(1, 2))
        assert not v.valid
        assert any("exceeds bound" in s for s in v.violations)

    def test_accepts_valid(self):
        g = cycle(4)
        weights = {frozenset({0, 2}): F(1), frozenset({1, 3}): F(1)}
        v = self.check(g, weights, F(2), 3)
        assert v.valid
        assert v.violations == ()
