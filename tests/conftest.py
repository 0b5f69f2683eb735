import functools
import itertools
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, settings

from superlocal import (
    FractionalColouring,
    PartialEdgeColouring,
    SimpleGraph,
    enumerate_graph_classes,
    superlocal_fractional_colour,
)
from bruteforce import bf_maximal_stable_sets, bf_solve_simplex

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

# no test may run longer than this; the slowest takes about 2.4 s
TEST_TIME_LIMIT_S = 60


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test that runs past TEST_TIME_LIMIT_S, naming it, rather
    than let it hang the suite. SIGALRM reaches only the main thread."""
    if threading.current_thread() is not threading.main_thread():
        return (yield)
    limit = TEST_TIME_LIMIT_S

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the {limit} s test time limit", pytrace=False)

    handler = signal.signal(signal.SIGALRM, expire)
    delay, interval = signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.monotonic()
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if delay:
            left = delay - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6), interval)


# the seed of the acceptance gate's corpora (test_acceptance.py), whose
# 500 multigraphs other tests check too
ACCEPTANCE_SEED = 20240815


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
    out = []
    for n in range(1, 8):
        out.extend(enumerate_graph_classes(n, connected_only=True))
    return out


# the first six graphs of the sparse-check benchmark workload, drawn from
# random.Random(20240815) with edge probability 1/4 at n = 18, 18, 19, 19,
# 20, 20; their LPs have 45 to 90 rows, and each one pivots both with
# piv == det (the sparse update) and with piv != det (the dense one)
SPARSE_CHECK_GRAPH6 = (
    "Q@GGj_p`?_???XG?eK[@CsqA?P?",
    "Q`VA@AXWA@`?lGC_?KOO_gPGo??",
    "RGP?@`_EWgG??P?a_IRAK@PG_PqA?_",
    "RS\\TD_RH[??UQGACcAP_CcFO@c_CB_",
    "So?G?@`OSPOB`??N@CS_GWL_DGQGDAODO",
    "So@U@?a_??FBADCo_?WD?gGQOi_GE@o_O",
)


@functools.cache
def reference_stable_set_lp(g):
    """The covering LP of g over bf_maximal_stable_sets, as (rows, b, c),
    and the reference simplex's (value, x, y) on it; kept per graph, since
    the simplex and the oracle tests both solve the largest ones, so its
    callers only read the result."""
    rows = [[int(v in s) for v in range(g.n)] for s in bf_maximal_stable_sets(g)]
    lp = (rows, [1] * len(rows), [1] * g.n)
    return lp, bf_solve_simplex(*lp)


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


def corrupted_fractional_colour(g):
    """The construction's result with its first stable set dropped."""
    fc, trace = superlocal_fractional_colour(g)
    weights = dict(fc.weights)
    del weights[next(iter(weights))]
    return FractionalColouring(weights=weights, den=fc.den, total=fc.total), trace


def count_validations(monkeypatch):
    """Record every PartialEdgeColouring.validate() call from here on."""
    calls = []
    original = PartialEdgeColouring.validate

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PartialEdgeColouring, "validate", counted)
    return calls
