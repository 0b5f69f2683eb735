"""Superlocal fractional colouring construction.

Iteratively spreads weight uniformly over all maximum stable sets of
the surviving graph: each round uses the largest value that does not
overfill a vertex, then drops the vertices whose coverage reached 1.
Each round covers its lowest-ratio vertex exactly, so at most n rounds
run and every vertex ends covered exactly once. A round hands its sets
to the next one: when one of them avoids every vertex just covered, the
survivors keep the same stability number, and their maximum stable
sets are those of the round's sets that avoid the covered vertices, so
no new search runs. The construction reads no bound: the theorem that
its total is at most gamma'_ll is checked by verify_fractional_colouring
alone.

Every amount, each vertex's remaining deficit, the running total and
each set's weight, is an integer numerator over one running
denominator, and stable sets stay vertex bitmasks throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InternalBugError
from .graphs import mask_members
from .stable_sets import check_enumeration_size, maximum_stable_sets


class FractionalColouring(NamedTuple):
    weights: dict  # stable-set bitmask -> positive int numerator over den
    den: int
    total: Fraction


class IterationRecord(NamedTuple):
    vertices: tuple  # surviving vertex ids at the start of the round
    num_max_sets: int
    low: Fraction  # the weight the round spends; the total is the sum of low


class IterationTrace(NamedTuple):
    records: tuple


class ColouringVerdict(NamedTuple):
    valid: bool
    violations: tuple


def superlocal_fractional_colour(g):
    """Returns (FractionalColouring, IterationTrace) without verifying them.

    The rounds run until every vertex is covered, at most n of them;
    there is no budget. Only an overfilled vertex is caught here;
    callers run verify_fractional_colouring, which checks the total
    against gamma'_ll, and an invalid weighting is a bug signal, not an
    input error. A graph above the stable-set enumeration limit is
    refused before any set is listed. The weights come in order of
    first use, over the least denominator that holds them all.
    """
    check_enumeration_size(g)

    # vertex v still lacks coverage need[v] / den, 1 - wo(v); the total
    # so far is total / den and set m carries weights[m] / den
    den = 1
    need = [1] * g.n
    total = 0
    weights = {}  # in order of first use
    records = []
    alive, within = tuple(range(g.n)), (1 << g.n) - 1
    masks = ()
    while alive:
        masks = maximum_stable_sets(g, within, masks)
        count = len(masks)
        hits = [0] * g.n
        for m in masks:
            while m:
                b = m & -m
                hits[b.bit_length() - 1] += 1
                m ^= b
        # low is count times the least need[v] / (den * hits[v]) over
        # vertices with a hit, the pairs compared by cross products
        low_need, low_hits = 0, 0
        for v in alive:
            h = hits[v]
            if h and (not low_hits or need[v] * low_hits < low_need * h):
                low_need, low_hits = need[v], h
        if not low_hits:
            raise InternalBugError("no vertex lies in any maximum stable set")
        low = Fraction(count * low_need, den * low_hits)
        # each set's share is low / count = low_need / (den * low_hits)
        d = math.gcd(low_need, low_hits)
        share, scale = low_need // d, low_hits // d
        if scale > 1:
            den *= scale
            total *= scale
            for v in alive:
                need[v] *= scale
            for m in weights:
                weights[m] *= scale
        for m in masks:
            weights[m] = weights.get(m, 0) + share
        # v gains hits[v] * share; share = low / count keeps every
        # deficit at 0 or above, so the overfill guard cannot fire on
        # correct code and stays as a bug signal
        for v in alive:
            h = hits[v]
            if h:
                need[v] -= h * share
                if need[v] <= 0:
                    if need[v]:
                        raise InternalBugError(
                            f"vertex {v} overfilled to {1 - Fraction(need[v], den)}"
                        )
                    within ^= 1 << v
        total += count * share
        records.append(IterationRecord(vertices=alive, num_max_sets=count, low=low))
        alive = tuple(v for v in alive if need[v])

    d = math.gcd(den, *weights.values())
    fc = FractionalColouring(
        weights={m: w // d for m, w in weights.items()},
        den=den // d,
        total=Fraction(total, den),
    )
    return fc, IterationTrace(records=tuple(records))


def verify_fractional_colouring(g, fc, bound):
    """Exact check: stable masks on g's vertices, positive numerators,
    unit coverage, the recorded total, and the total within bound.

    Coverage and the total are sums of numerators over fc.den, compared
    on integers; a Fraction is built only for a violation message. A set
    is stable when no member u has a neighbour among the members above
    it. The violations of each set are listed in the order of the sets'
    member lists, then those of each vertex, then those of the total.
    """
    n, adj, den = g.n, g.adj, fc.den
    if den <= 0:
        return ColouringVerdict(valid=False, violations=(f"denominator {den} is not positive",))
    faults = []  # (member list, the set's violations)
    cover = [0] * n
    total = 0
    for mask, w in fc.weights.items():
        total += w
        if mask < 0:
            faults.append(([], [f"set mask {mask} is negative"]))
            continue
        bad = []
        if w <= 0:
            bad.append(f"has nonpositive weight {Fraction(w, den)}")
        if mask >> n:
            bad.extend(f"contains unknown vertex {v}" for v in mask_members(mask >> n << n))
        m = mask & ((1 << n) - 1)
        while m:
            b = m & -m
            u = b.bit_length() - 1
            cover[u] += w
            clash = adj[u] & m
            while clash:
                c = clash & -clash
                bad.append(f"is not stable: edge ({u},{c.bit_length() - 1})")
                clash ^= c
            m ^= b
        if bad:
            members = list(mask_members(mask))
            faults.append((members, [f"set {members} {s}" for s in bad]))
    faults.sort(key=lambda f: f[0])
    violations = [s for _, bad in faults for s in bad]
    for v in range(n):
        if cover[v] != den:
            violations.append(f"vertex {v} covered {Fraction(cover[v], den)}, expected 1")
    recorded, limit = Fraction(fc.total), Fraction(bound)
    if total * recorded.denominator != recorded.numerator * den:
        violations.append(
            f"recorded total {fc.total} differs from actual {Fraction(total, den)}"
        )
    if total * limit.denominator > limit.numerator * den:
        violations.append(f"total {Fraction(total, den)} exceeds bound {limit}")
    return ColouringVerdict(valid=not violations, violations=tuple(violations))
