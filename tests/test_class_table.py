"""The committed class table, src/superlocal/classes.g6.

enumerate_graph_classes reads every isomorphism class from this table.
Its lines are checked three ways: against the reference generator that
produced them (orderly.py), by a pinned sha256, and by networkx alone,
which reads the file without the package's code.
"""

import hashlib
import importlib.resources
import tomllib
from pathlib import Path

import networkx as nx
import pytest

import orderly

ROOT = Path(__file__).resolve().parents[1]
TABLE = orderly.TABLE
TABLE_SHA256 = "d623253b2ce79b7c16632d8b881fd38941942005f958f47f40e83d0c62a7e9e1"

# graphs on n = 1..8 vertices up to isomorphism (OEIS A000088)
A000088 = (1, 2, 4, 11, 34, 156, 1044, 12346)


def table_lines():
    return TABLE.read_bytes().splitlines()


def test_table_sha256_pinned():
    assert hashlib.sha256(TABLE.read_bytes()).hexdigest() == TABLE_SHA256


def test_generator_reproduces_the_table_up_to_7_vertices():
    regenerated = [line.encode("ascii") for line in orderly.table_lines(7)]
    assert regenerated == table_lines()[: sum(A000088[:7])]


# networkx 3.5 notes that its unattributed hashes changed; every hash
# compared here comes from the same version
@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_table_checked_by_networkx_alone():
    by_n = {}
    for line in table_lines():
        by_n.setdefault(line[0] - 63, []).append(nx.from_graph6_bytes(line))
    assert sorted(by_n) == list(range(1, 9))
    assert tuple(len(by_n[n]) for n in range(1, 9)) == A000088
    # n <= 7: each line is isomorphic to exactly one atlas graph, and no
    # two lines to the same one
    atlas = {}
    for i, h in enumerate(nx.graph_atlas_g()):
        key = (h.number_of_nodes(), nx.weisfeiler_lehman_graph_hash(h))
        atlas.setdefault(key, []).append((i, h))
    for n in range(1, 8):
        matched = []
        for g in by_n[n]:
            bucket = atlas.get((n, nx.weisfeiler_lehman_graph_hash(g)), [])
            hits = [i for i, h in bucket if nx.is_isomorphic(g, h)]
            assert len(hits) == 1
            matched.extend(hits)
        assert len(set(matched)) == len(matched)
    # n = 8: no two lines are isomorphic
    buckets = {}
    for g in by_n[8]:
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), []).append(g)
    for bucket in buckets.values():
        for i, g in enumerate(bucket):
            assert not any(nx.is_isomorphic(g, h) for h in bucket[i + 1 :])


def test_table_ships_as_package_data():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "classes.g6" in config["tool"]["setuptools"]["package-data"]["superlocal"]
    shipped = importlib.resources.files("superlocal").joinpath("classes.g6")
    assert shipped.read_bytes() == TABLE.read_bytes()
