from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superlocal import (
    InternalBugError,
    enumerate_graph_classes,
    fractional_chromatic_solution,
    maximal_stable_sets,
    parse_graph6,
)
from superlocal.simplex import solve_simplex
from bruteforce import bf_solve_simplex
from golden import GRAPH22_GRAPH6
from conftest import SPARSE_CHECK_GRAPH6, reference_stable_set_lp

F = Fraction


def solved(a, b, c):
    """solve_simplex's integer numerators divided by its denominator, which
    must be positive, as the reference's (value, x, y) Fractions."""
    value, x, y, det = solve_simplex(a, b, c)
    assert all(isinstance(q, int) for q in (value, *x, *y, det))
    assert det > 0
    return F(value, det), [F(xi, det) for xi in x], [F(yi, det) for yi in y]


def test_basic_box():
    value, x, y = solved([[1, 0], [0, 1]], [1, 2], [1, 1])
    assert value == 3
    assert x == [1, 2]
    assert y == [1, 1]


def test_two_constraints():
    value, x, y = solved([[1, 1], [1, 3]], [4, 6], [3, 2])
    assert value == 12
    assert x == [4, 0]
    assert sum(yi * bi for yi, bi in zip(y, [4, 6])) == 12


def test_degenerate_zero():
    value, x, _ = solved([[1]], [0], [1])
    assert value == 0
    assert x == [0]


def test_exact_fractions():
    assert solve_simplex([[3]], [1], [1]) == (1, [1], [1], 3)
    value, x, _ = solved([[3]], [1], [1])
    assert value == F(1, 3)
    assert x == [F(1, 3)]


def test_negative_rhs_rejected():
    with pytest.raises(InternalBugError):
        solve_simplex([[1]], [-1], [1])


def test_unbounded_detected():
    with pytest.raises(InternalBugError):
        solve_simplex([[0]], [1], [1])
    with pytest.raises(InternalBugError):
        solve_simplex([[-1]], [2], [1])


def test_zero_objective():
    value, x, y = solved([[1]], [5], [0])
    assert value == 0
    assert y == [0]


small_lp = st.tuples(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)


@given(small_lp)
def test_duality_random(case):
    m, nv, data = case
    num = st.integers(-3, 3)
    a = [[data.draw(num) for _ in range(nv)] for _ in range(m)]
    b = [data.draw(st.integers(0, 5)) for _ in range(m)]
    c = [data.draw(num) for _ in range(nv)]
    try:
        value, x, y = solved(a, b, c)
    except InternalBugError:
        return  # unbounded instance
    # primal feasibility and objective
    assert all(xi >= 0 for xi in x)
    for row, bi in zip(a, b):
        assert sum(r * xi for r, xi in zip(row, x)) <= bi
    assert sum(ci * xi for ci, xi in zip(c, x)) == value
    # dual feasibility and strong duality
    assert all(yi >= 0 for yi in y)
    for j in range(nv):
        assert sum(a[i][j] * y[i] for i in range(m)) >= c[j]
    assert sum(yi * bi for yi, bi in zip(y, b)) == value


def test_non_integer_input_rejected():
    for bad in (0.5, F(1, 2)):
        with pytest.raises(InternalBugError, match="integer"):
            solve_simplex([[bad]], [1], [1])
        with pytest.raises(InternalBugError, match="integer"):
            solve_simplex([[1]], [bad], [1])
        with pytest.raises(InternalBugError, match="integer"):
            solve_simplex([[1]], [1], [bad])


def _outcome(solver, a, b, c):
    try:
        return solver(a, b, c)
    except InternalBugError as exc:
        return str(exc)


def test_negative_rhs_matches_reference():
    a, b, c = [[1, 2], [3, -1]], [2, -1], [1, 1]
    assert _outcome(solved, a, b, c) == _outcome(bf_solve_simplex, a, b, c)


@settings(max_examples=400)
@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_matches_reference_random(m, nv, data):
    coeff = st.integers(-4, 4)
    a = [[data.draw(coeff) for _ in range(nv)] for _ in range(m)]
    b = [data.draw(st.integers(0, 4)) for _ in range(m)]
    c = [data.draw(coeff) for _ in range(nv)]
    assert _outcome(solved, a, b, c) == _outcome(bf_solve_simplex, a, b, c)


def _stable_set_lp(g):
    rows = [[s >> v & 1 for v in range(g.n)] for s in maximal_stable_sets(g).sets]
    return rows, [1] * len(rows), [1] * g.n


def test_matches_reference_on_stable_set_lps():
    for n in range(1, 7):
        for g in enumerate_graph_classes(n):
            a, b, c = _stable_set_lp(g)
            assert solved(a, b, c) == bf_solve_simplex(a, b, c)


@pytest.mark.parametrize("code", SPARSE_CHECK_GRAPH6)
def test_matches_reference_on_benchmark_lps(code):
    g = parse_graph6(code)
    lp, reference = reference_stable_set_lp(g)
    assert _stable_set_lp(g) == lp
    assert 45 <= len(lp[0]) <= 90
    assert solved(*lp) == reference


def test_stable_set_lp_at_scale():
    # the covering LP of a 22-vertex graph, whose chi_f itself needs no LP
    g = parse_graph6(GRAPH22_GRAPH6)
    assert g.n == 22
    lp, reference = reference_stable_set_lp(g)
    assert _stable_set_lp(g) == lp
    assert len(lp[0]) == 163
    assert solved(*lp) == reference
    assert reference[0] == fractional_chromatic_solution(g).value == 4
