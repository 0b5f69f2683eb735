"""Seeded search for the smallest inputs that fire the rare colouring branches.

    PYTHONPATH=src python tests/branch_search.py [--seed 2] [--trials 300000]

Random multigraphs on 3..6 vertices with 3..9 edges feed two searches:

* edge_colour under a random insertion order: for each of the rotation,
  Kempe-swap and fan-sequence branches, the input with the fewest edges
  (then vertices) that fires it;
* a random maximal partial colouring at k = gamma_bar_ll: the smallest
  state with a hole whose maximal fan has size 2 and pairwise disjoint
  missing sets, which is the input of fan_sequence_resolve.

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
    fan_sequence_resolve,
    gamma_bar_ll,
)

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
        free = sorted(set.intersection(*(c.missing(w) for w in mg.endpoints(eid))))
        if free:
            c.assign(eid, rng.choice(free))
    return c


def sequence_hole(mg, c):
    """First hole whose maximal fan at its lower endpoint starts a fan sequence."""
    for hole in c.uncoloured():
        fan = build_maximal_fan(mg, c, hole, min(mg.endpoints(hole)))
        if len(fan.vertices) != 2:
            continue
        sets = [c.missing(fan.hinge)] + [c.missing(w) for w in fan.vertices]
        if not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]):
            return hole, fan
    return None


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
        _, col = edge_colour(mg, insertion_order=order)
        for case in CASES:
            if col.stats[case] and (case not in best or key < best[case][0]):
                best[case] = (key, {"n": n, "edges": edges, "order": order, "stats": col.stats})
        c = random_maximal_partial(mg, gamma_bar_ll(mg), rng)
        found = sequence_hole(mg, c)
        if found and ("fan_sequence_resolve" not in best or key < best["fan_sequence_resolve"][0]):
            hole, fan = found
            done = fan_sequence_resolve(mg, c, fan)
            best["fan_sequence_resolve"] = (
                key,
                {"n": n, "edges": edges, "assignment": c.assignment, "hole": hole, "stats": done.stats},
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
