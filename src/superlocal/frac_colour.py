"""Superlocal fractional colouring construction.

Iteratively spreads weight uniformly over all maximum stable sets of
the surviving graph: each round uses the largest value that neither
overfills a vertex nor exceeds the remaining budget, then drops the
vertices whose coverage reached 1. With budget at least the superlocal
bound this terminates with every vertex covered exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalBugError
from .invariants import gamma_ll_prime
from .stable_sets import check_enumeration_size, maximum_stable_sets


@dataclass(frozen=True)
class FractionalColouring:
    weights: dict  # frozenset(vertices) -> positive Fraction
    total: Fraction


@dataclass(frozen=True)
class IterationRecord:
    vertices: tuple  # surviving vertex ids at the start of the round
    num_max_sets: int
    low: Fraction
    val: Fraction
    total_after: Fraction


@dataclass(frozen=True)
class IterationTrace:
    bound: Fraction
    records: tuple


@dataclass(frozen=True)
class ColouringVerdict:
    valid: bool
    violations: tuple


def superlocal_fractional_colour(g):
    """Returns (FractionalColouring, IterationTrace) without verifying them.

    The budget, trace.bound, is the graph's superlocal value. Only an
    overfilled vertex is caught here; callers run
    verify_fractional_colouring, and an invalid weighting is a bug
    signal, not an input error. A graph above the stable-set
    enumeration limit is refused before the bound is computed.
    """
    check_enumeration_size(g)
    bound = gamma_ll_prime(g)

    # vertex v still lacks coverage num[v] / den[v] (reduced), 1 - wo(v)
    num = [1] * g.n
    den = [1] * g.n
    weights = {}  # set mask -> weight, in order of first use
    sets = {}  # set mask -> the same set as a frozenset
    total = Fraction(0)
    records = []
    alive = tuple(range(g.n))
    while alive and total < bound:
        fam = maximum_stable_sets(g, within=sum(1 << v for v in alive))
        count = len(fam.masks)
        hits = [0] * g.n
        for m in fam.masks:
            while m:
                b = m & -m
                hits[b.bit_length() - 1] += 1
                m ^= b
        # low is count times the least num/(den * hits) over vertices with
        # a hit, the pairs compared by cross products
        low_num, low_den = 0, 0
        for v in alive:
            h = hits[v]
            if h and (not low_den or num[v] * low_den < low_num * den[v] * h):
                low_num, low_den = num[v], den[v] * h
        if not low_den:
            raise InternalBugError("no vertex lies in any maximum stable set")
        low = Fraction(count * low_num, low_den)
        val = min(low, bound - total)
        share = val / count
        for m, s in zip(fam.masks, fam.sets):
            if m in weights:
                weights[m] += share
            else:
                weights[m] = share
                sets[m] = s
        # v gains hits[v] * val / count; val <= low keeps every deficit
        # at 0 or above, so the overfill guard cannot fire on correct
        # code and stays as a bug signal
        vn, vd = val.numerator, val.denominator * count
        for v in alive:
            h = hits[v]
            if h:
                top = num[v] * vd - h * vn * den[v]
                bottom = den[v] * vd
                if top < 0:
                    raise InternalBugError(
                        f"vertex {v} overfilled to {1 - Fraction(top, bottom)}"
                    )
                d = math.gcd(top, bottom)
                num[v], den[v] = top // d, bottom // d
        total += val
        records.append(
            IterationRecord(
                vertices=alive,
                num_max_sets=count,
                low=low,
                val=val,
                total_after=total,
            )
        )
        alive = tuple(v for v in alive if num[v])

    weights = {sets[m]: w for m, w in weights.items()}
    fc = FractionalColouring(weights=weights, total=total)
    return fc, IterationTrace(bound=bound, records=tuple(records))


def verify_fractional_colouring(g, fc, bound):
    """Exact check: stable keys, positive weights, unit coverage, total within bound.

    Every weight, the recorded total and the bound are scaled to one
    common denominator, so the sums and comparisons are on integers and
    a Fraction is built only for a violation message. A set is stable
    when no member u has a neighbour among the members above it.
    """
    violations = []
    n, adj = g.n, g.adj
    keys = sorted(fc.weights, key=sorted)
    recorded, limit = Fraction(fc.total), Fraction(bound)
    weights = [Fraction(fc.weights[key]) for key in keys]
    den = math.lcm(
        recorded.denominator, limit.denominator, *(w.denominator for w in weights)
    )
    cover = [0] * n
    total = 0
    for key, w in zip(keys, weights):
        members = sorted(key)
        scaled = w.numerator * (den // w.denominator)
        total += scaled
        if scaled <= 0:
            violations.append(f"set {members} has nonpositive weight {fc.weights[key]}")
        mask = 0
        for v in members:
            if 0 <= v < n:
                mask |= 1 << v
            else:
                violations.append(f"set {members} contains unknown vertex {v}")
        for u in members:
            if 0 <= u < n:
                clash = adj[u] & mask & ~((2 << u) - 1)
                while clash:
                    b = clash & -clash
                    v = b.bit_length() - 1
                    violations.append(f"set {members} is not stable: edge ({u},{v})")
                    clash ^= b
        while mask:
            b = mask & -mask
            cover[b.bit_length() - 1] += scaled
            mask ^= b
    for v in range(n):
        if cover[v] != den:
            violations.append(f"vertex {v} covered {Fraction(cover[v], den)}, expected 1")
    if total != recorded.numerator * (den // recorded.denominator):
        violations.append(
            f"recorded total {fc.total} differs from actual {Fraction(total, den)}"
        )
    if total > limit.numerator * (den // limit.denominator):
        violations.append(f"total {Fraction(total, den)} exceeds bound {limit}")
    return ColouringVerdict(valid=not violations, violations=tuple(violations))
