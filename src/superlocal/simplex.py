"""Exact simplex for small integer linear programs.

Maximises c.x subject to A.x <= b, x >= 0 with b >= 0, so the slack
basis is feasible and no phase-1 is needed. A, b and c must be Python
integers.

The tableau is compact: it keeps one column per nonbasic variable plus
the right-hand side, m rows and one objective row, and no slack
identity. Pivoting is fraction-free (Edmonds 1967; Bareiss 1968): every
entry is an integer equal to the true rational entry times ``det``, the
previous pivot, and each update ``(piv * v - f * w) // det`` divides
exactly by ``det``; f is the row's entry in the entering column, w the
pivot row's entry in the same column as v. When ``piv == det`` the
update is sparse: (det * v - f * w) / det = v wherever f * w = 0, so
only rows with f != 0 and, in them, columns with w != 0 are rewritten.
On the 0/1 stable-set LPs that is most pivots and about a fifth of the
entries. Otherwise every entry is rescaled and all are rewritten. Bland's
rule picks the pivots: enter on the lowest variable id with a negative
reduced cost, leave on the lowest ratio with ties to the lowest basis
id; so ``det`` stays positive, signs are read off the integers and
ratios are compared by cross products. It guarantees termination
without perturbation. The optimum, the primal and the dual are returned
as those integers, numerators over the final ``det``.
"""

from __future__ import annotations

from .errors import InternalBugError


def solve_simplex(a, b, c):
    """Returns (value, x, y, det): the optimum, the primal solution and
    the dual solution as integer numerators over det > 0.

    a: m rows of length nv, b: length m (all >= 0), c: length nv, all
    integers. y is read off the objective entries of the slack
    variables (0 for a basic slack), so it is a feasible dual whenever
    the primal is optimal; callers should still verify both
    feasibilities and value equality.
    """
    m = len(a)
    nv = len(c)
    for vec in (*a, b, c):
        if not all(isinstance(v, int) for v in vec):
            raise InternalBugError("simplex needs integer coefficients")
    rows = []
    for i in range(m):
        if b[i] < 0:
            raise InternalBugError("simplex needs nonnegative right-hand sides")
        rows.append(list(a[i]) + [b[i]])
    obj = [-cj for cj in c] + [0]
    # variable ids: x_j is j, the slack of row i is nv + i
    nonbasic = list(range(nv))
    basis = [nv + i for i in range(m)]
    det = 1

    guard = 0
    max_steps = 1000 * (m + nv + 1)
    while True:
        guard += 1
        if guard > max_steps:
            raise InternalBugError("simplex exceeded its step guard")
        enter = -1
        for j in range(nv):
            if obj[j] < 0 and (enter < 0 or nonbasic[j] < nonbasic[enter]):
                enter = j
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                if leave < 0:
                    leave = i
                    continue
                # rows[i][-1] / coeff against the best ratio so far
                lhs = rows[i][-1] * rows[leave][enter]
                rhs = rows[leave][-1] * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise InternalBugError("unbounded linear program")
        prow = rows[leave]
        piv = prow[enter]
        others = [row for row in (*rows, obj) if row is not prow]
        if piv == det:
            # an entry with f * w == 0 keeps its value
            others = [row for row in others if row[enter]]
            cols = [j for j, w in enumerate(prow) if w]
        else:
            cols = range(nv + 1)
        for row in others:
            f = row[enter]
            for j in cols:
                row[j] = (piv * row[j] - f * prow[j]) // det
            row[enter] = -f
        prow[enter] = det
        det = piv
        nonbasic[enter], basis[leave] = basis[leave], nonbasic[enter]

    x = [0] * nv
    for i, bi in enumerate(basis):
        if bi < nv:
            x[bi] = rows[i][-1]
    y = [0] * m
    for j, vj in enumerate(nonbasic):
        if vj >= nv:
            y[vj - nv] = obj[j]
    return obj[-1], x, y, det
