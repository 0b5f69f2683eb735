"""The size guards: no limit is raised, and each vertex-count refusal
comes from errors.check_vertex_limit with its exact text.

A limit may be lowered, never raised, so each constant is pinned at or
below the value it had when this test was written. Every refusal case
below is cheap, because each guard refuses before any work is done.
"""

import re

import pytest

from superlocal import (
    SimpleGraph,
    SizeLimitError,
    chi_via_complement_matching,
    chromatic_number,
    enumerate_graph_classes,
    random_corpus,
    stability_number,
    subgraph_neighbourhood_bound,
)
from superlocal import graphs, harness, invariants, oracles, stable_sets

CEILINGS = [
    (oracles, "CHROMATIC_VERTEX_LIMIT", 16),
    (stable_sets, "ENUMERATION_VERTEX_LIMIT", 24),
    (oracles, "MATCHING_VERTEX_LIMIT", 20),
    (invariants, "SUBGRAPH_SCAN_LIMIT", 12),
    (harness, "ENUMERATION_N_LIMIT", 8),
    (oracles, "LP_SET_LIMIT", 4096),
    (graphs, "LINE_GRAPH_PAIR_LIMIT", 2**18),
    (graphs, "GRAPH6_VERTEX_LIMIT", 258_047),
    (harness, "CORPUS_VERTEX_LIMIT", 500),
]


@pytest.mark.parametrize("module, name, ceiling", CEILINGS)
def test_limit_is_not_raised(module, name, ceiling):
    assert getattr(module, name) <= ceiling


# (refusal text, module and constant of the limit, call on n vertices)
VERTEX_GUARDS = [
    ("chromatic number", oracles, "CHROMATIC_VERTEX_LIMIT",
     lambda n: chromatic_number(SimpleGraph(n))),
    ("stability number", stable_sets, "ENUMERATION_VERTEX_LIMIT",
     lambda n: stability_number(SimpleGraph(n))),
    ("matching oracle", oracles, "MATCHING_VERTEX_LIMIT",
     lambda n: chi_via_complement_matching(SimpleGraph(n))),
    ("stable set enumeration", stable_sets, "ENUMERATION_VERTEX_LIMIT",
     lambda n: stable_sets.check_enumeration_size(SimpleGraph(n))),
    ("subgraph scan", invariants, "SUBGRAPH_SCAN_LIMIT",
     lambda n: subgraph_neighbourhood_bound(SimpleGraph(n))),
    ("enumeration", harness, "ENUMERATION_N_LIMIT", enumerate_graph_classes),
    # count 0: the parameters are refused before any graph is drawn
    ("seeded corpus", harness, "CORPUS_VERTEX_LIMIT",
     lambda n: random_corpus("circular_interval", 0, 0, n=n)),
]


@pytest.mark.parametrize(
    "what, module, name, call", VERTEX_GUARDS, ids=[g[0] for g in VERTEX_GUARDS]
)
def test_refused_one_vertex_above_the_limit(what, module, name, call):
    limit = getattr(module, name)
    text = f"{what} limited to {limit} vertices, got {limit + 1}"
    with pytest.raises(SizeLimitError, match=f"^{re.escape(text)}$"):
        call(limit + 1)
