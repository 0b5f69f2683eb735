import itertools

import pytest
from hypothesis import HealthCheck, settings

from superlocal import (
    FractionalColouring,
    PartialEdgeColouring,
    SimpleGraph,
    enumerate_graph_classes,
    superlocal_fractional_colour,
)

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


def all_graphs_upto(limit):
    out = []
    for n in range(1, limit + 1):
        out.extend(enumerate_graph_classes(n))
    return out


@pytest.fixture(scope="session")
def classes6():
    """One representative per isomorphism class, n = 1..6."""
    return all_graphs_upto(6)


@pytest.fixture(scope="session")
def connected7():
    """One representative per connected isomorphism class, n = 1..7."""
    from superlocal import enumerate_connected_graphs

    out = []
    for n in range(1, 8):
        out.extend(enumerate_connected_graphs(n))
    return out


def graph_from_pairs(n, pairs):
    return SimpleGraph(n, pairs)


def cycle(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return SimpleGraph(n, list(itertools.combinations(range(n), 2)))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(10, outer + spokes + inner)


def double_star():
    """Two adjacent centres, two pendant leaves on each."""
    return SimpleGraph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def pendant_clique(k):
    """K_k with k pendant leaves attached to every clique vertex."""
    edges = list(itertools.combinations(range(k), 2))
    nxt = k
    for v in range(k):
        for _ in range(k):
            edges.append((v, nxt))
            nxt += 1
    return SimpleGraph(nxt, edges)


def corrupted_fractional_colour(g, bound=None):
    """The construction's result with its first stable set dropped."""
    fc, trace = superlocal_fractional_colour(g, bound)
    weights = dict(fc.weights)
    del weights[next(iter(weights))]
    return FractionalColouring(weights=weights, total=fc.total), trace


def count_validations(monkeypatch):
    """Record every PartialEdgeColouring.validate() call from here on."""
    calls = []
    original = PartialEdgeColouring.validate

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PartialEdgeColouring, "validate", counted)
    return calls
