"""Seeded search for the smallest inputs that fire the rare colouring branches.

    PYTHONPATH=src python tests/branch_search.py [--seed 2] [--trials 300000]

Random multigraphs on 3..6 vertices with 3..9 edges feed two searches:

* edge_colour on the multigraph with its edges listed in a random order
  (edge_colour inserts them in listing order): for each of the rotation,
  Kempe-swap and fan-sequence branches, the input with the fewest edges
  (then vertices) that fires it;
* a random maximal partial colouring at k = gamma_bar_ll: the smallest
  state with a hole whose maximal fan at its lower endpoint has size 2
  and pairwise disjoint missing sets, so that the insertion loop starts
  in a fan sequence. resolve_hole, the fan-sequence driver kept here
  with the tests, runs edge_colour's insertion loop on that one hole.
  This partial-state search is how the fan sequence is reached
  directly, and where a state for the beta-swap would be looked for.

Each result prints as a Python literal with the stats it produced;
TestRareBranches in test_edge_colour.py keeps them as fixtures. The
beta-swap branch has never fired in such a search, so it has none.
"""

from __future__ import annotations

import argparse
import random

from superlocal import (
    Multigraph,
    PartialEdgeColouring,
    build_maximal_fan,
    edge_colour,
    gamma_bar_ll,
)
from superlocal.edge_colour import _fresh_stats, _resolve_hole

CASES = ("rotation", "kempe", "sequence_steps", "beta_swaps")


def random_multigraph(rng):
    n = rng.randint(3, 6)
    p = rng.random()
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges += [(u, v)] * rng.choice((1, 1, 1, 2, 2, 3))
    rng.shuffle(edges)
    return n, edges


def random_maximal_partial(mg, k, rng):
    """Each edge in random order takes a random colour free at both ends, if any."""
    c = PartialEdgeColouring(mg, k)
    order = list(range(mg.edge_count))
    rng.shuffle(order)
    for eid in order:
        u, v = mg.endpoints(eid)
        both = c.missing_mask(u) & c.missing_mask(v)
        free = [colour for colour in range(1, k + 1) if both >> colour & 1]
        if free:
            c.assign(eid, rng.choice(free))
    return c


def sequence_hole(mg, c):
    """First hole whose maximal fan at its lower endpoint starts a fan sequence."""
    for hole in c.uncoloured():
        hinge = min(mg.endpoints(hole))
        fan = build_maximal_fan(mg, c, hole, hinge)
        if len(fan.vertices) != 2:
            continue
        sets = [c.missing_mask(w) for w in (hinge,) + fan.vertices]
        if not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]):
            return hole
    return None


def resolve_hole(mg, c, hole):
    """Colour the hole in c by edge_colour's insertion loop; c.stats counts the cases."""
    stats = _fresh_stats()
    _resolve_hole(mg, c, hole, stats)
    c.validate()
    c.stats = stats


def search(seed, trials):
    rng = random.Random(seed)
    best = {}
    for _ in range(trials):
        n, edges = random_multigraph(rng)
        if not 3 <= len(edges) <= 9:
            continue
        key = (len(edges), n)
        mg = Multigraph(n, edges)
        order = list(range(mg.edge_count))
        rng.shuffle(order)
        listed = [edges[i] for i in order]
        _, col = edge_colour(Multigraph(n, listed))
        for case in CASES:
            if col.stats[case] and (case not in best or key < best[case][0]):
                best[case] = (key, {"n": n, "edges": listed, "stats": col.stats})
        c = random_maximal_partial(mg, gamma_bar_ll(mg), rng)
        hole = sequence_hole(mg, c)
        if hole is not None and ("resolve_hole" not in best or key < best["resolve_hole"][0]):
            start = c.assignment
            resolve_hole(mg, c, hole)
            best["resolve_hole"] = (
                key,
                {"n": n, "edges": edges, "assignment": start, "hole": hole, "stats": c.stats},
            )
    return {case: found for case, (_, found) in sorted(best.items())}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--trials", type=int, default=300_000)
    args = parser.parse_args()
    for case, found in search(args.seed, args.trials).items():
        print(f"{case}: {found!r}")


if __name__ == "__main__":
    main()
