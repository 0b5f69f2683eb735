"""Corpus generation, exhaustive enumeration, and claim verification.

Runs every bound claim against exact oracles over enumerated or seeded
graph collections. Proven claims are hard: a violation aborts with a
bug signal. Open claims are findings: a violated instance is re-checked
by independent brute force before it is reported.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import _kernels
from .errors import DomainError, InternalBugError, SizeLimitError
from .frac_colour import superlocal_fractional_colour, verify_fractional_colouring
from .graphs import (
    Multigraph,
    SimpleGraph,
    complement,
    format_multigraph,
    line_graph,
    to_graph6,
)
from .invariants import (
    SUBGRAPH_SCAN_LIMIT,
    clique_average_bound,
    gamma_bar_ll,
    gamma_ll,
    graph_bounds,
    subgraph_neighbourhood_bound,
)
from .oracles import (
    CHROMATIC_VERTEX_LIMIT,
    MATCHING_VERTEX_LIMIT,
    chi_via_complement_matching,
    chromatic_number,
    fractional_chromatic_solution,
    stability_number,
)
from .stable_sets import ENUMERATION_VERTEX_LIMIT
from .edge_colour import edge_colour

ENUMERATION_N_LIMIT = 8
CHI_PRIME_STEP_CAP = 200_000_000

SIMPLE_CLAIMS = (
    "frac-bound",  # chi_f <= gamma'_ll, and the constructive weighting is valid
    "superlocal-chi",  # chi <= gamma_ll (open)
    "clique-average",  # chi_f <= max clique average of gamma'_l (open)
    "round-up",  # chi = ceil(chi_f), promised circular-interval inputs
    "interval-chi",  # chi <= gamma_ll, promised circular-interval inputs
    "alpha2-chi",  # alpha <= 2: chi = n - matching(complement) <= gamma_ll
    "question-bound",  # chi_f <= subgraph neighbourhood average (open)
)
MULTI_CLAIMS = (
    "edge-colour",  # edge_colour succeeds with k = gamma_bar_ll
    "line-graph-match",  # gamma_bar_ll(G) = gamma_ll(L(G))
    "chi-prime-bound",  # brute-force chi' <= gamma_bar_ll
)
HARD_CLAIMS = frozenset(
    {
        "frac-bound",
        "round-up",
        "interval-chi",
        "alpha2-chi",
        "edge-colour",
        "line-graph-match",
        "chi-prime-bound",
    }
)

HOLDS, VIOLATED, NOT_APPLICABLE = "holds", "violated", "not-applicable"


# The values each simple claim's verdict reads; check_graph computes the
# union over the requested claims and leaves every other value None. The
# bounds and the encoding are always computed.
CLAIM_NEEDS = {
    "frac-bound": ("chi_f", "frac"),
    "superlocal-chi": ("chi",),
    "clique-average": ("chi_f", "clique_average"),
    "round-up": ("chi", "chi_f"),
    "interval-chi": ("chi",),
    "alpha2-chi": ("alpha", "chi"),  # the matching runs only when alpha <= 2
    "question-bound": ("chi_f", "question"),
}


@dataclass(frozen=True)
class CheckFlags:
    claims: tuple = SIMPLE_CLAIMS + MULTI_CLAIMS
    circular_interval: bool = False  # input promised to be circular interval
    limit_n: int | None = None  # caps each oracle's vertex limit (--limit-n)
    chi_prime_edge_limit: int = 0  # 0 disables the brute-force chi' cross-check

    def __post_init__(self):
        if self.limit_n is not None and self.limit_n < 0:
            raise DomainError(f"--limit-n must be nonnegative, got {self.limit_n}")

    def vertex_limit(self, limit):
        """The package limit of one oracle, lowered to limit_n when it is set."""
        return limit if self.limit_n is None else min(limit, self.limit_n)


@dataclass(frozen=True)
class BoundReport:
    encoding: str
    n: int
    bounds: object
    chi: object
    chi_f: object
    alpha: object
    frac_total: object
    frac_valid: object
    clique_average: object
    question_value: object
    verdicts: dict
    bug: bool
    timings_us: dict


@dataclass(frozen=True)
class MultigraphReport:
    encoding: str
    n: int
    m: int
    gamma_bar_ll: object
    line_graph_gamma_ll: object
    chi_prime: object
    colours_used: object
    verdicts: dict
    bug: bool
    timings_us: dict


@dataclass(frozen=True)
class Finding:
    encoding: str
    claim: str
    values: tuple  # ((name, serialized value), ...) sorted by name


@dataclass(frozen=True)
class SearchSummary:
    total: int
    verdict_counts: dict  # claim -> {holds, violated, not-applicable}
    findings: tuple
    reports: tuple


def frac_str(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _now_us():
    return time.perf_counter_ns() // 1000


def check_graph(g, flags=None):
    """Evaluate every requested claim on one simple graph.

    Only the values that the requested claims read are computed
    (CLAIM_NEEDS); the others are None, as size refusals are.
    """
    flags = flags or CheckFlags()
    needs = {name for claim in flags.claims for name in CLAIM_NEEDS.get(claim, ())}
    timings = {}
    t0 = _now_us()
    enc = to_graph6(g)
    bounds = graph_bounds(g)
    timings["bounds"] = _now_us() - t0

    def guarded(name, fn):
        if name not in needs:
            return None
        t = _now_us()
        try:
            value = fn()
        except SizeLimitError:
            value = None
        timings[name] = _now_us() - t
        return value

    chi_result = guarded(
        "chi",
        lambda: chromatic_number(g, limit=flags.vertex_limit(CHROMATIC_VERTEX_LIMIT)),
    )
    chi = None if chi_result is None else chi_result[0]
    stable_limit = flags.vertex_limit(ENUMERATION_VERTEX_LIMIT)
    alpha = guarded("alpha", lambda: stability_number(g, limit=stable_limit))
    chi_f_sol = guarded(
        "chi_f", lambda: fractional_chromatic_solution(g, vertex_limit=stable_limit)
    )
    chi_f = None if chi_f_sol is None else chi_f_sol.value

    def run_frac():
        fc, _ = superlocal_fractional_colour(g)
        verdict = verify_fractional_colouring(g, fc, bounds.gamma_ll_prime)
        if not verdict.valid:
            raise InternalBugError("invalid weighting: " + "; ".join(verdict.violations))
        return fc.total

    frac_total = guarded("frac", run_frac)

    clique_avg = guarded(
        "clique_average", lambda: clique_average_bound(g) if g.n else None
    )
    question_value = None
    scan_limit = flags.vertex_limit(SUBGRAPH_SCAN_LIMIT)
    if 1 <= g.n <= scan_limit:
        question_value = guarded(
            "question", lambda: subgraph_neighbourhood_bound(g, limit=scan_limit)
        )

    verdicts = {}

    def judge(claim, applicable, holds):
        if claim not in flags.claims:
            return
        if not applicable:
            verdicts[claim] = NOT_APPLICABLE
        else:
            verdicts[claim] = HOLDS if holds() else VIOLATED

    judge(
        "frac-bound",
        chi_f is not None and frac_total is not None,
        lambda: chi_f <= bounds.gamma_ll_prime,
    )
    judge("superlocal-chi", chi is not None, lambda: chi <= bounds.gamma_ll)
    judge(
        "clique-average",
        chi_f is not None and clique_avg is not None,
        lambda: chi_f <= clique_avg,
    )
    judge(
        "round-up",
        flags.circular_interval and chi is not None and chi_f is not None,
        lambda: chi == math.ceil(chi_f),
    )
    judge(
        "interval-chi",
        flags.circular_interval and chi is not None,
        lambda: chi <= bounds.gamma_ll,
    )
    if "alpha2-chi" in flags.claims:
        if alpha is not None and alpha <= 2:
            try:
                chi_m, _ = chi_via_complement_matching(
                    g, limit=flags.vertex_limit(MATCHING_VERTEX_LIMIT)
                )
            except SizeLimitError:
                chi_m = None
            if chi_m is None:
                verdicts["alpha2-chi"] = NOT_APPLICABLE
            else:
                ok = chi_m <= bounds.gamma_ll and (chi is None or chi_m == chi)
                verdicts["alpha2-chi"] = HOLDS if ok else VIOLATED
        else:
            verdicts["alpha2-chi"] = NOT_APPLICABLE
    judge(
        "question-bound",
        chi_f is not None and question_value is not None,
        lambda: chi_f <= question_value,
    )

    bug = any(
        verdicts.get(c) == VIOLATED for c in verdicts if c in HARD_CLAIMS
    )
    return BoundReport(
        encoding=enc,
        n=g.n,
        bounds=bounds,
        chi=chi,
        chi_f=chi_f,
        alpha=alpha,
        frac_total=frac_total,
        frac_valid=None if frac_total is None else True,
        clique_average=clique_avg,
        question_value=question_value,
        verdicts=verdicts,
        bug=bug,
        timings_us=timings,
    )


def multigraph_line(mg):
    """One-line text encoding with '/' record separators."""
    return format_multigraph(mg).strip().replace("\n", " / ")


def check_multigraph(mg, flags=None):
    """Evaluate the edge-colouring claims on one multigraph."""
    flags = flags or CheckFlags()
    timings = {}
    enc = multigraph_line(mg)
    verdicts = {}
    if mg.edge_count == 0:
        for claim in MULTI_CLAIMS:
            if claim in flags.claims:
                verdicts[claim] = NOT_APPLICABLE
        return MultigraphReport(
            encoding=enc,
            n=mg.n,
            m=0,
            gamma_bar_ll=None,
            line_graph_gamma_ll=None,
            chi_prime=None,
            colours_used=None,
            verdicts=verdicts,
            bug=False,
            timings_us=timings,
        )

    colours_used = None
    if "edge-colour" in flags.claims:
        # edge_colour computes gamma_bar_ll itself and validates the finished
        # colouring against that k; line-graph-match checks k independently
        t0 = _now_us()
        k, colouring = edge_colour(mg)
        colours_used = len(set(colouring.assignment.values()))
        verdicts["edge-colour"] = HOLDS if colouring.is_complete() else VIOLATED
        timings["edge_colour"] = _now_us() - t0
    else:
        t0 = _now_us()
        k = gamma_bar_ll(mg)
        timings["gamma_bar_ll"] = _now_us() - t0

    lg_value = None
    if "line-graph-match" in flags.claims:
        t0 = _now_us()
        try:
            lg_value = gamma_ll(line_graph(mg))
        except SizeLimitError:
            verdicts["line-graph-match"] = NOT_APPLICABLE
        else:
            verdicts["line-graph-match"] = HOLDS if lg_value == k else VIOLATED
        timings["line_graph"] = _now_us() - t0

    chi_prime = None
    if "chi-prime-bound" in flags.claims:
        if 0 < flags.chi_prime_edge_limit and mg.edge_count <= flags.chi_prime_edge_limit:
            t0 = _now_us()
            chi_prime = chi_prime_bruteforce(mg)
            verdicts["chi-prime-bound"] = HOLDS if chi_prime <= k else VIOLATED
            timings["chi_prime"] = _now_us() - t0
        else:
            verdicts["chi-prime-bound"] = NOT_APPLICABLE

    bug = any(verdicts.get(c) == VIOLATED for c in verdicts if c in HARD_CLAIMS)
    return MultigraphReport(
        encoding=enc,
        n=mg.n,
        m=mg.edge_count,
        gamma_bar_ll=k,
        line_graph_gamma_ll=lg_value,
        chi_prime=chi_prime,
        colours_used=colours_used,
        verdicts=verdicts,
        bug=bug,
        timings_us=timings,
    )


def chi_prime_bruteforce(mg, cap=CHI_PRIME_STEP_CAP):
    """Exact chromatic index by backtracking feasibility per colour count."""
    m = mg.edge_count
    if m == 0:
        return 0
    eu, ev = zip(*mg.edges)
    delta = max(mg.degree(v) for v in range(mg.n))
    for k in range(delta, delta + m + 1):
        res = _kernels.edge_colouring_feasible(eu, ev, k, mg.n, cap)
        if res == -1:
            raise SizeLimitError(
                f"edge-colouring search exceeded {cap} steps at k={k}"
            )
        if res == 1:
            return k
    raise InternalBugError("no colour count up to degree + edge count was feasible")


# ---------------------------------------------------------------------------
# exhaustive enumeration


def enumerate_graph_classes(n, connected_only=False):
    """One representative per isomorphism class, minimum edge-mask canonical."""
    if n < 1:
        raise DomainError("enumeration needs at least one vertex")
    if n > ENUMERATION_N_LIMIT:
        raise SizeLimitError(
            f"enumeration limited to {ENUMERATION_N_LIMIT} vertices, got {n}"
        )
    out = []
    for mask in _kernels.orbit_representatives(n):
        g = SimpleGraph.from_edge_mask(n, mask)
        if connected_only and not g.is_connected():
            continue
        out.append(g)
    return tuple(out)


def enumerate_connected_graphs(n):
    return enumerate_graph_classes(n, connected_only=True)


# ---------------------------------------------------------------------------
# seeded corpora


def _bernoulli(rng, p):
    return rng.randrange(p.denominator) < p.numerator


def _random_simple(rng, n_max, p):
    n = rng.randint(1, n_max)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if _bernoulli(rng, p)
    ]
    return SimpleGraph(n, edges)


def _random_multigraph(rng, n_max, p, mu_max, max_edges):
    n = rng.randint(2, max(2, n_max))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if _bernoulli(rng, p):
                edges.extend([(u, v)] * rng.randint(1, mu_max))
    edges = edges[:max_edges]
    if not edges:
        u = rng.randrange(n - 1)
        edges = [(u, rng.randint(u + 1, n - 1))]
    return Multigraph(n, edges)


def _random_circular_interval(rng, n_max):
    # vertices sit at positions 0..n-1 on a circle; each arc covers a run
    # of consecutive positions and becomes a clique
    n = rng.randint(1, n_max)
    edges = set()
    for _ in range(rng.randint(1, n)):
        start = rng.randrange(n)
        length = rng.randint(1, n)
        covered = sorted((start + i) % n for i in range(length))
        for i, u in enumerate(covered):
            for v in covered[i + 1 :]:
                edges.add((u, v))
    return SimpleGraph(n, sorted(edges))


def _random_co_triangle_free(rng, n_max, p):
    n = rng.randint(1, n_max)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    edges = []
    for u, v in pairs:
        if _bernoulli(rng, p) and not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append((u, v))
    return complement(SimpleGraph(n, edges))


CORPUS_KINDS = ("simple", "multigraph", "circular_interval", "co_triangle_free")


def random_corpus(kind, seed, count, **params):
    """Deterministic list of graphs; same seed, same corpus, byte for byte."""
    if count < 0:
        raise DomainError("count must be nonnegative")
    rng = random.Random(seed)
    known = {
        "simple": {"n": 8, "p": Fraction(1, 2)},
        "multigraph": {
            "n": 8,
            "p": Fraction(1, 2),
            "mu_max": 3,
            "max_edges": 28,
        },
        "circular_interval": {"n": 10},
        "co_triangle_free": {"n": 14, "p": Fraction(1, 2)},
    }
    if kind not in known:
        raise DomainError(f"unknown corpus kind {kind!r}; expected one of {CORPUS_KINDS}")
    cfg = dict(known[kind])
    for key, value in params.items():
        if key not in cfg:
            raise DomainError(f"unknown parameter {key!r} for corpus kind {kind!r}")
        cfg[key] = value
    for key in ("n", "mu_max", "max_edges"):
        if key in cfg:
            if Fraction(cfg[key]).denominator != 1:
                raise DomainError(
                    f"corpus parameter {key} must be an integer, got {cfg[key]}"
                )
            cfg[key] = int(cfg[key])
            if cfg[key] < 1:
                raise DomainError(f"corpus needs {key} >= 1")
    if "p" in cfg:
        cfg["p"] = Fraction(cfg["p"])
        if not 0 <= cfg["p"] <= 1:
            raise DomainError(f"probability {cfg['p']} outside [0,1]")
    out = []
    for _ in range(count):
        if kind == "simple":
            out.append(_random_simple(rng, cfg["n"], cfg["p"]))
        elif kind == "multigraph":
            out.append(
                _random_multigraph(
                    rng, cfg["n"], cfg["p"], cfg["mu_max"], cfg["max_edges"]
                )
            )
        elif kind == "circular_interval":
            out.append(_random_circular_interval(rng, cfg["n"]))
        else:
            out.append(_random_co_triangle_free(rng, cfg["n"], cfg["p"]))
    return out


# ---------------------------------------------------------------------------
# independent re-verification of findings


def _omega_v_subsets(g, v):
    """Largest clique through v by scanning all neighbourhood subsets."""
    nbrs = g.neighbours(v)
    best = 0
    for mask in range(1 << len(nbrs)):
        members = [nbrs[i] for i in range(len(nbrs)) if mask >> i & 1]
        if all(g.has_edge(a, b) for a, b in itertools.combinations(members, 2)):
            best = max(best, len(members))
    return 1 + best


def _gamma_ll_subsets(g):
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    om = [_omega_v_subsets(g, v) for v in range(g.n)]
    best = max(
        Fraction(g.degree(u) + g.degree(v) + om[u] + om[v] + 2, 4) for u, v in g.edges
    )
    return math.ceil(best)


def _colourable_backtrack(g, k):
    """Plain backtracking k-colourability, no heuristics."""
    if g.n == 0:
        return True
    if k <= 0:
        return False
    colours = [0] * g.n

    def rec(v):
        if v == g.n:
            return True
        used = max(colours[:v], default=0)
        for c in range(1, min(k, used + 1) + 1):
            if all(colours[u] != c for u in g.neighbours(v) if u < v):
                colours[v] = c
                if rec(v + 1):
                    return True
                colours[v] = 0
        return False

    return rec(0)


def _maximal_cliques_subsets(g):
    cliques = []
    for mask in range(1, 1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        if not all(g.has_edge(a, b) for a, b in itertools.combinations(members, 2)):
            continue
        extendable = any(
            all(g.has_edge(w, m) for m in members)
            for w in range(g.n)
            if w not in members
        )
        if not extendable:
            cliques.append(members)
    return cliques


def reverify_finding(g, claim, report):
    """Confirm a violated open claim with independent brute force."""
    if claim == "superlocal-chi":
        k = _gamma_ll_subsets(g)
        if k != report.bounds.gamma_ll:
            return False
        return not _colourable_backtrack(g, k)
    if claim == "clique-average":
        om = [_omega_v_subsets(g, v) for v in range(g.n)]
        glp = [Fraction(g.degree(v) + 1 + om[v], 2) for v in range(g.n)]
        best = max(
            Fraction(sum(glp[v] for v in members), len(members))
            for members in _maximal_cliques_subsets(g)
        )
        if best != report.clique_average:
            return False
        return report.chi_f > best
    if claim == "question-bound":
        # independent subgraph scan built on object-level reconstruction
        from .graphs import induced_subgraph

        best = Fraction(0)
        for mask in range(1, 1 << g.n):
            vertices = tuple(v for v in range(g.n) if mask >> v & 1)
            h, _ = induced_subgraph(g, vertices)
            om = [_omega_v_subsets(h, v) for v in range(h.n)]
            glp = [Fraction(h.degree(v) + 1 + om[v], 2) for v in range(h.n)]
            for v in range(h.n):
                members = (v,) + h.neighbours(v)
                avg = Fraction(sum(glp[u] for u in members), len(members))
                best = max(best, avg)
        if best != report.question_value:
            return False
        return report.chi_f > best
    raise DomainError(f"no independent re-verifier for claim {claim!r}")


def _finding_values(claim, report):
    if claim == "superlocal-chi":
        pairs = [("chi", str(report.chi)), ("gamma_ll", str(report.bounds.gamma_ll))]
    elif claim == "clique-average":
        pairs = [
            ("chi_f", frac_str(report.chi_f)),
            ("clique_average", frac_str(report.clique_average)),
        ]
    elif claim == "question-bound":
        pairs = [
            ("chi_f", frac_str(report.chi_f)),
            ("question_value", frac_str(report.question_value)),
        ]
    else:
        pairs = []
    return tuple(sorted(pairs))


def search_counterexamples(space, claims=None, flags=None):
    """Stream check_graph / check_multigraph over a graph collection.

    A violated hard claim aborts immediately; a violated open claim is
    re-verified by brute force and recorded as a finding.
    """
    base = flags or CheckFlags()
    if claims is not None:
        base = replace(base, claims=tuple(claims))
    for claim in base.claims:
        if claim not in SIMPLE_CLAIMS + MULTI_CLAIMS:
            raise DomainError(f"unknown claim {claim!r}")
    counts = {
        claim: {HOLDS: 0, VIOLATED: 0, NOT_APPLICABLE: 0} for claim in base.claims
    }
    findings = []
    reports = []
    for g in space:
        if isinstance(g, Multigraph):
            report = check_multigraph(g, base)
        else:
            report = check_graph(g, base)
        reports.append(report)
        for claim, verdict in report.verdicts.items():
            counts[claim][verdict] += 1
            if verdict != VIOLATED:
                continue
            if claim in HARD_CLAIMS:
                raise InternalBugError(
                    f"proven claim {claim} violated on {report.encoding}"
                )
            if not reverify_finding(g, claim, report):
                raise InternalBugError(
                    f"finding for {claim} on {report.encoding} failed "
                    "independent re-verification"
                )
            findings.append(
                Finding(
                    encoding=report.encoding,
                    claim=claim,
                    values=_finding_values(claim, report),
                )
            )
    return SearchSummary(
        total=len(reports),
        verdict_counts=counts,
        findings=tuple(findings),
        reports=tuple(reports),
    )


# ---------------------------------------------------------------------------
# report serialization (no floats anywhere; timings are intentionally omitted)


def _opt(value, conv):
    return None if value is None else conv(value)


def bounds_to_dict(b):
    """The eight GraphBounds values, fractions as "p/q" strings."""
    return {
        "delta": b.delta,
        "omega": b.omega,
        "gamma_prime": frac_str(b.gamma_prime),
        "gamma": b.gamma,
        "gamma_l_prime": frac_str(b.gamma_l_prime),
        "gamma_l": b.gamma_l,
        "gamma_ll_prime": frac_str(b.gamma_ll_prime),
        "gamma_ll": b.gamma_ll,
    }


def report_to_dict(report):
    if isinstance(report, MultigraphReport):
        return {
            "encoding": report.encoding,
            "n": report.n,
            "m": report.m,
            "gamma_bar_ll": report.gamma_bar_ll,
            "line_graph_gamma_ll": report.line_graph_gamma_ll,
            "chi_prime": report.chi_prime,
            "colours_used": report.colours_used,
            "verdicts": dict(sorted(report.verdicts.items())),
            "bug": report.bug,
        }
    return {
        "encoding": report.encoding,
        "n": report.n,
        **bounds_to_dict(report.bounds),
        "chi": report.chi,
        "chi_f": _opt(report.chi_f, frac_str),
        "alpha": report.alpha,
        "frac_total": _opt(report.frac_total, frac_str),
        "frac_valid": report.frac_valid,
        "clique_average": _opt(report.clique_average, frac_str),
        "question_value": _opt(report.question_value, frac_str),
        "verdicts": dict(sorted(report.verdicts.items())),
        "bug": report.bug,
    }


def reports_jsonl(reports):
    lines = [
        json.dumps(report_to_dict(r), sort_keys=True)
        for r in sorted(reports, key=lambda r: r.encoding)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def reports_csv(reports):
    ordered = sorted(reports, key=lambda r: r.encoding)
    claims = sorted({c for r in ordered for c in r.verdicts})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["encoding", "chi", "chi_f", "gamma_ll", "gamma_ll_prime", "clique_average"]
        + claims
    )
    for r in ordered:
        if isinstance(r, MultigraphReport):
            row = [r.encoding, "", "", "", "", ""]
        else:
            row = [
                r.encoding,
                "" if r.chi is None else r.chi,
                "" if r.chi_f is None else frac_str(r.chi_f),
                r.bounds.gamma_ll,
                frac_str(r.bounds.gamma_ll_prime),
                "" if r.clique_average is None else frac_str(r.clique_average),
            ]
        row += [r.verdicts.get(c, "") for c in claims]
        writer.writerow(row)
    return buf.getvalue()


def summary_to_dict(summary):
    return {
        "total": summary.total,
        "verdicts": {
            claim: dict(sorted(counts.items()))
            for claim, counts in sorted(summary.verdict_counts.items())
        },
        "findings": [
            {"encoding": f.encoding, "claim": f.claim, "values": dict(f.values)}
            for f in summary.findings
        ],
    }


def write_reports(reports, jsonl_path=None, csv_path=None):
    """Write serialized reports; returns the (jsonl, csv) strings."""
    jl = reports_jsonl(reports)
    cv = reports_csv(reports)
    if jsonl_path is not None:
        with open(jsonl_path, "w", encoding="ascii") as fh:
            fh.write(jl)
    if csv_path is not None:
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write(cv)
    return jl, cv
