import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superlocal import (
    FractionalColouring,
    InternalBugError,
    IterationTrace,
    SimpleGraph,
    SizeLimitError,
    fractional_chromatic_solution,
    gamma_ll_prime,
    superlocal_fractional_colour,
    to_graph6,
    verify_fractional_colouring,
)
from superlocal.cli import main
from superlocal.graphs import mask_members
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


def as_fractions(weights, den):
    """Mask -> numerator weights as the references' frozenset -> Fraction form."""
    return {frozenset(mask_members(m)): F(w, den) for m, w in weights.items()}


def assert_matches_reference(g):
    fc, trace = superlocal_fractional_colour(g)
    ref_weights, ref_total, ref_trace = bf_superlocal_fractional_colour(g)
    # the same weights in the same dict order, the same total and records
    assert list(as_fractions(fc.weights, fc.den).items()) == list(ref_weights.items())
    assert fc.total == ref_total
    assert trace == ref_trace
    # positive numerators over their least common denominator
    assert all(w > 0 for w in fc.weights.values())
    assert math.gcd(fc.den, *fc.weights.values()) == 1


def printed_totals(g, tmp_path, capsys):
    """The total_after of each round in `superlocal frac` json output."""
    p = tmp_path / "g.g6"
    p.write_text(to_graph6(g) + "\n", encoding="ascii")
    assert main(["frac", str(p)]) == 0
    return [rec["total_after"] for rec in json.loads(capsys.readouterr().out)["iterations"]]


def test_cycle5_trace(tmp_path, capsys):
    g = cycle(5)
    fc, trace = superlocal_fractional_colour(g)
    assert fc.total == F(5, 2)
    assert len(fc.weights) == 5
    assert fc.den == 2
    assert all(w == 1 for w in fc.weights.values())
    assert gamma_ll_prime(g) == F(5, 2)
    [rec] = trace.records
    assert rec.vertices == (0, 1, 2, 3, 4)
    assert rec.num_max_sets == 5
    assert rec.low == F(5, 2)
    assert printed_totals(g, tmp_path, capsys) == ["5/2"]


def test_double_star_trace(tmp_path, capsys):
    g = double_star()
    fc, trace = superlocal_fractional_colour(g)
    assert gamma_ll_prime(g) == 3
    assert fc.total == 3
    first, second = trace.records
    # round 1: the four leaves form the unique maximum stable set
    assert first.num_max_sets == 1
    assert first.low == 1
    # round 2: the two centres survive as singleton maximum stable sets
    assert second.vertices == (0, 1)
    assert second.num_max_sets == 2
    assert second.low == 2
    # the printed running total is the sum of each round's low
    assert printed_totals(g, tmp_path, capsys) == ["1/1", "3/1"]


def test_petersen_stops_below_bound():
    g = petersen()
    fc, trace = superlocal_fractional_colour(g)
    assert gamma_ll_prime(g) == 3
    assert fc.total == F(5, 2)
    assert len(trace.records) == 1
    assert trace.records[0].num_max_sets == 5


def test_complete_graph():
    fc, trace = superlocal_fractional_colour(complete(4))
    assert fc.total == 4
    assert len(trace.records) == 1
    assert fc.weights == {0b0001: 1, 0b0010: 1, 0b0100: 1, 0b1000: 1}
    assert fc.den == 1


def test_single_vertex_and_empty():
    fc, trace = superlocal_fractional_colour(SimpleGraph(1))
    assert fc.total == 1
    assert (fc.weights, fc.den) == ({0b1: 1}, 1)
    fc0, trace0 = superlocal_fractional_colour(SimpleGraph(0))
    assert fc0.total == 0
    assert (fc0.weights, fc0.den) == ({}, 1)
    assert trace0.records == ()


def test_no_vertex_in_a_maximum_set_raises(monkeypatch):
    monkeypatch.setattr(
        "superlocal.frac_colour.maximum_stable_sets", lambda g, within, known=(): (0,)
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
            assert fractional_chromatic_solution(g).value <= fc.total


@given(graphs_st(7, 12))
def test_random_graphs_valid(g):
    bound = gamma_ll_prime(g)
    fc, _ = superlocal_fractional_colour(g)
    assert verify_fractional_colouring(g, fc, bound).valid
    assert fractional_chromatic_solution(g).value <= fc.total <= bound


def test_matches_reference_on_connected7(connected7):
    assert len(connected7) == 996
    for g in connected7:
        assert_matches_reference(g)


@given(graphs_st(10, 30))
def test_matches_reference_random(g):
    assert_matches_reference(g)


def test_refuses_before_computing_the_target(monkeypatch):
    from superlocal import graphs, stable_sets

    calls = []
    real = graphs.maximum_cliques

    def counted(adj, mask, ties=False):
        calls.append(mask)
        return real(adj, mask, ties)

    # stable_sets binds the name at import, and the construction's
    # maximum stable sets come through it
    monkeypatch.setattr(graphs, "maximum_cliques", counted)
    monkeypatch.setattr(stable_sets, "maximum_cliques", counted)
    with pytest.raises(SizeLimitError, match="limited to 24 vertices, got 25"):
        superlocal_fractional_colour(complete(25))
    # the size refusal comes first: no clique search
    assert calls == []


def test_reads_no_bound(monkeypatch):
    from superlocal import graphs

    expected = superlocal_fractional_colour(cycle(5))

    def refuse(adj, mask, ties=False):
        raise AssertionError("the construction computed a clique number")

    monkeypatch.setattr(graphs, "maximum_cliques", refuse)
    # a fresh graph: no omega vector cached, and gamma'_ll needs one
    assert superlocal_fractional_colour(cycle(5)) == expected
    assert IterationTrace._fields == ("records",)


def corruptions(g, fc, bound):
    """(weights, den, total, bound) cases, each with one fault planted."""
    weights, den, n = fc.weights, fc.den, g.n
    first = next(iter(weights))
    dropped = dict(weights)
    del dropped[first]
    # the first weight times 2/3, over 3 * den
    rescaled = {m: 3 * w for m, w in weights.items()}
    rescaled[first] = 2 * weights[first]
    # an extra set on vertices 0, n and n + 2 of weight 1/7
    unknown = {m: 7 * w for m, w in weights.items()}
    unknown[1 | 1 << n | 1 << (n + 2)] = den
    # the first set also holds vertex n; the coverage stays right
    beyond = {(m | 1 << n if m == first else m): w for m, w in weights.items()}
    zero = dict(weights)
    zero[first] = 0
    out = [
        (dropped, den, fc.total, bound),
        (rescaled, 3 * den, fc.total, bound),
        (unknown, 7 * den, fc.total, bound),
        (dict(weights), den, fc.total, fc.total - F(1, 3)),
        (beyond, den, fc.total, bound),
        (zero, den, fc.total, bound),
        # numerators that would be right over den, read over den + 1
        (dict(weights), den + 1, fc.total, bound),
    ]
    if g.edges:
        # an edge as an extra set of weight -1/5
        u, v = g.edges[-1]
        unstable = {m: 10 * w for m, w in weights.items()}
        unstable[1 << u | 1 << v] = -2 * den
        out.append((unstable, 10 * den, fc.total + F(1, 2), bound))
    return out


def test_verifier_matches_reference(classes6):
    checked = violations = 0
    for g in classes6:
        fc, _ = superlocal_fractional_colour(g)
        bound = gamma_ll_prime(g)
        cases = [(fc.weights, fc.den, fc.total, bound)]
        cases += corruptions(g, fc, bound)
        for weights, den, total, bound in cases:
            colouring = FractionalColouring(weights=weights, den=den, total=total)
            got = verify_fractional_colouring(g, colouring, bound)
            ref = bf_verify_fractional_colouring(g, as_fractions(weights, den), total, bound)
            assert got == ref
            checked += 1
            violations += len(got.violations)
    assert checked > 8 * len(classes6)
    assert violations > 7 * len(classes6)


class TestVerifierRejections:
    def check(self, g, weights, den, total, bound):
        return verify_fractional_colouring(
            g, FractionalColouring(weights=weights, den=den, total=total), bound
        )

    def test_nonpositive_weight(self):
        v = self.check(SimpleGraph(1), {0b1: 0}, 1, F(0), 1)
        assert not v.valid
        assert any("nonpositive" in s for s in v.violations)

    def test_zero_numerator_beside_full_cover(self):
        g = SimpleGraph(2)
        v = self.check(g, {0b11: 1, 0b01: 0}, 1, F(1), 2)
        assert v.violations == ("set [0] has nonpositive weight 0",)

    def test_unstable_set(self):
        g = complete(2)
        v = self.check(g, {0b11: 1}, 1, F(1), 2)
        assert not v.valid
        assert any("not stable" in s for s in v.violations)

    def test_unknown_vertex(self):
        v = self.check(SimpleGraph(1), {0b100001: 1}, 1, F(1), 2)
        assert not v.valid
        assert any("unknown vertex" in s for s in v.violations)

    def test_mask_bit_at_n(self):
        # the set covers vertex 0 once, as it should, but also names vertex 1
        v = self.check(SimpleGraph(1), {0b11: 1}, 1, F(1), 2)
        assert v.violations == ("set [0, 1] contains unknown vertex 1",)

    def test_negative_mask(self):
        v = self.check(SimpleGraph(1), {0b1: 1, -1: 1}, 1, F(2), 2)
        assert v.violations[0] == "set mask -1 is negative"

    def test_wrong_coverage(self):
        g = SimpleGraph(2)
        v = self.check(g, {0b01: 1}, 1, F(1), 2)
        assert not v.valid
        assert any("covered" in s for s in v.violations)
        # overcoverage is rejected too: exact unit coverage is required
        v2 = self.check(g, {0b11: 2, 0b01: 1}, 2, F(3, 2), 2)
        assert not v2.valid

    def test_other_denominator(self):
        # C4's two colour classes with numerators right over 2, read over 4
        g = cycle(4)
        v = self.check(g, {0b0101: 2, 0b1010: 2}, 4, F(2), 3)
        assert v.violations == (
            "vertex 0 covered 1/2, expected 1",
            "vertex 1 covered 1/2, expected 1",
            "vertex 2 covered 1/2, expected 1",
            "vertex 3 covered 1/2, expected 1",
            "recorded total 2 differs from actual 1",
        )

    def test_nonpositive_denominator(self):
        for den in (0, -1):
            v = self.check(SimpleGraph(1), {0b1: 1}, den, F(1), 1)
            assert v.violations == (f"denominator {den} is not positive",)

    def test_total_mismatch(self):
        v = self.check(SimpleGraph(1), {0b1: 1}, 1, F(2), 3)
        assert not v.valid
        assert any("recorded total" in s for s in v.violations)

    def test_total_exceeds_bound(self):
        g = SimpleGraph(1)
        v = self.check(g, {0b1: 1}, 1, F(1), F(1, 2))
        assert not v.valid
        assert any("exceeds bound" in s for s in v.violations)

    def test_accepts_valid(self):
        g = cycle(4)
        v = self.check(g, {0b0101: 1, 0b1010: 1}, 1, F(2), 3)
        assert v.valid
        assert v.violations == ()
        # the same weighting over a larger denominator is valid too
        assert self.check(g, {0b0101: 3, 0b1010: 3}, 3, F(2), 3).valid
