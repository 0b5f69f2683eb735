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
from fractions import Fraction
from typing import NamedTuple

from . import _kernels, graphs
from .errors import DomainError, InternalBugError, SizeLimitError, check_vertex_limit
from .frac_colour import superlocal_fractional_colour, verify_fractional_colouring
from .graphs import (
    Multigraph,
    SimpleGraph,
    complement,
    format_multigraph,
    induced_subgraph,
    line_graph,
    parse_graph6,
    to_graph6,
)
from .invariants import (
    clique_average_bound,
    gamma_bar_ll,
    gamma_ll,
    graph_bounds,
    subgraph_neighbourhood_bound,
)
from .oracles import (
    chi_via_complement_matching,
    chromatic_number,
    fractional_chromatic_solution,
    stability_number,
)
from .edge_colour import edge_colour

ENUMERATION_N_LIMIT = 8
CORPUS_VERTEX_LIMIT = 500


class Claim(NamedTuple):
    multi: bool  # checked on multigraphs, else on simple graphs
    proven: bool  # a violation is a bug; an open claim's is a finding
    alias: str | None  # the short --claims token
    needs: tuple = ()  # the values check_graph computes for the verdict
    finding: tuple = ()  # the report_to_dict keys a finding records


# One row per claim, in the default order. check_graph computes the union
# of the requested claims' needs and leaves every other value None; the
# bounds and the encoding are always computed.
CLAIMS = {
    # chi_f <= gamma'_ll, and the constructive weighting is valid
    "frac-bound": Claim(False, True, "thm4", ("chi_f", "frac")),
    # chi <= gamma_ll
    "superlocal-chi": Claim(False, False, "conj3", ("chi",), ("chi", "gamma_ll")),
    # chi_f <= max clique average of gamma'_l
    "clique-average": Claim(
        False, False, "conj6", ("chi_f", "clique_average"), ("chi_f", "clique_average")
    ),
    # chi = ceil(chi_f), promised circular-interval inputs
    "round-up": Claim(False, True, "thm8", ("chi", "chi_f")),
    # chi <= gamma_ll, promised circular-interval inputs
    "interval-chi": Claim(False, True, "thm9", ("chi",)),
    # alpha <= 2: chi = n - matching(complement) <= gamma_ll; the matching
    # runs only when alpha <= 2
    "alpha2-chi": Claim(False, True, "thm10", ("alpha", "chi")),
    # chi_f <= subgraph neighbourhood average
    "question-bound": Claim(
        False, False, "question", ("chi_f", "question"), ("chi_f", "question_value")
    ),
    # edge_colour succeeds with k = gamma_bar_ll
    "edge-colour": Claim(True, True, "thm11"),
    # gamma_bar_ll(G) = gamma_ll(L(G))
    "line-graph-match": Claim(True, True, None),
}
SIMPLE_CLAIMS = tuple(name for name, c in CLAIMS.items() if not c.multi)
MULTI_CLAIMS = tuple(name for name, c in CLAIMS.items() if c.multi)
HARD_CLAIMS = frozenset(name for name, c in CLAIMS.items() if c.proven)
CLAIM_ALIASES = {c.alias: name for name, c in CLAIMS.items() if c.alias}

HOLDS, VIOLATED, NOT_APPLICABLE = "holds", "violated", "not-applicable"


class _CheckFlags(NamedTuple):
    claims: tuple = tuple(CLAIMS)
    circular_interval: bool = False  # input promised to be circular interval
    limit_n: int | None = None  # no exact oracle runs above this many vertices (--limit-n)


class CheckFlags(_CheckFlags):
    """The claims to check and their options, refused at construction
    when a claim is unknown or limit_n is negative."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for claim in self.claims:
            if claim not in CLAIMS:
                raise DomainError(f"unknown claim {claim!r}")
        if self.limit_n is not None and self.limit_n < 0:
            raise DomainError(f"--limit-n must be nonnegative, got {self.limit_n}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip __new__'s checks
        return cls(*iterable)


class BoundReport(NamedTuple):
    encoding: str
    n: int
    bounds: object
    chi: object
    chi_f: object
    alpha: object
    frac_total: object
    clique_average: object
    question_value: object
    verdicts: dict
    bug: bool


class MultigraphReport(NamedTuple):
    encoding: str
    n: int
    m: int
    verdicts: dict
    bug: bool
    # all None on an edgeless multigraph; the last two also when their
    # claim is not requested or its check is refused
    gamma_bar_ll: object = None
    line_graph_gamma_ll: object = None
    colours_used: object = None


class Finding(NamedTuple):
    encoding: str
    claim: str
    values: tuple  # ((name, serialized value), ...) sorted by name


class SearchSummary(NamedTuple):
    total: int
    verdict_counts: dict  # claim -> {holds, violated, not-applicable}
    findings: tuple
    reports: tuple


def frac_str(x):
    """x, an int or a Fraction, as "p/q" in lowest terms."""
    return f"{x.numerator}/{x.denominator}"


def check_graph(g, flags=None):
    """Evaluate every requested claim on one simple graph.

    Only the values that the requested claims read are computed (their
    needs in CLAIMS); the others are None, as size refusals are.
    """
    flags = flags or CheckFlags()
    needs = {name for claim in flags.claims for name in CLAIMS[claim].needs}
    if flags.limit_n is not None and g.n > flags.limit_n:
        # each oracle refuses above the lower of its own limit and limit_n;
        # the matching waits for alpha
        needs -= {"chi", "alpha", "chi_f", "question"}
    enc = to_graph6(g)
    bounds = graph_bounds(g)

    def guarded(name, fn):
        if name not in needs:
            return None
        try:
            return fn()
        except SizeLimitError:
            return None

    chi = guarded("chi", lambda: chromatic_number(g)[0])
    alpha = guarded("alpha", lambda: stability_number(g))
    chi_f = guarded("chi_f", lambda: fractional_chromatic_solution(g).value)

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
    question_value = guarded(
        "question", lambda: subgraph_neighbourhood_bound(g) if g.n else None
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
    chi_m = None
    if "alpha2-chi" in flags.claims and alpha is not None and alpha <= 2:
        try:
            chi_m, _ = chi_via_complement_matching(g)
        except SizeLimitError:
            pass
    judge(
        "alpha2-chi",
        chi_m is not None,
        lambda: chi_m <= bounds.gamma_ll and (chi is None or chi_m == chi),
    )
    judge(
        "question-bound",
        chi_f is not None and question_value is not None,
        lambda: chi_f <= question_value,
    )

    bug = any(v == VIOLATED for c, v in verdicts.items() if c in HARD_CLAIMS)
    return BoundReport(
        encoding=enc,
        n=g.n,
        bounds=bounds,
        chi=chi,
        chi_f=chi_f,
        alpha=alpha,
        frac_total=frac_total,
        clique_average=clique_avg,
        question_value=question_value,
        verdicts=verdicts,
        bug=bug,
    )


def multigraph_line(mg):
    """One-line text encoding with '/' record separators."""
    return format_multigraph(mg).strip().replace("\n", " / ")


def check_multigraph(mg, flags=None):
    """Evaluate the edge-colouring claims on one multigraph."""
    flags = flags or CheckFlags()
    enc = multigraph_line(mg)
    if mg.edge_count == 0:
        verdicts = dict.fromkeys([c for c in MULTI_CLAIMS if c in flags.claims], NOT_APPLICABLE)
        return MultigraphReport(enc, mg.n, 0, verdicts, bug=False)

    verdicts = {}
    colours_used = None
    if "edge-colour" in flags.claims:
        # edge_colour computes gamma_bar_ll itself and validates the finished
        # colouring against that k; line-graph-match checks k independently
        k, colouring = edge_colour(mg)
        colours_used = len(set(colouring.assignment.values()))
        verdicts["edge-colour"] = HOLDS if colouring.is_complete() else VIOLATED
    else:
        k = gamma_bar_ll(mg)

    lg_value = None
    if "line-graph-match" in flags.claims:
        try:
            lg_value = gamma_ll(line_graph(mg))
        except SizeLimitError:
            verdicts["line-graph-match"] = NOT_APPLICABLE
        else:
            verdicts["line-graph-match"] = HOLDS if lg_value == k else VIOLATED

    bug = any(v == VIOLATED for c, v in verdicts.items() if c in HARD_CLAIMS)
    return MultigraphReport(
        encoding=enc,
        n=mg.n,
        m=mg.edge_count,
        gamma_bar_ll=k,
        line_graph_gamma_ll=lg_value,
        colours_used=colours_used,
        verdicts=verdicts,
        bug=bug,
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration


def enumerate_graph_classes(n, connected_only=False):
    """One representative per isomorphism class, minimum edge-mask canonical,
    each parsed from its line of the class table."""
    if n < 1:
        raise DomainError("enumeration needs at least one vertex")
    check_vertex_limit("enumeration", n, ENUMERATION_N_LIMIT)
    out = []
    for line in _kernels.orbit_representatives(n):
        g = parse_graph6(line)
        if connected_only and not g.is_connected():
            continue
        out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# seeded corpora


def _bernoulli(rng, p):
    return rng.randrange(p.denominator) < p.numerator


def _random_simple(rng, n, p):
    n = rng.randint(1, n)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if _bernoulli(rng, p)
    ]
    return SimpleGraph(n, edges)


def _random_multigraph(rng, n, p, mu_max, max_edges):
    n = rng.randint(2, n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if _bernoulli(rng, p):
                # drawn even when no room is left, so the draws do not depend on max_edges
                mu = rng.randint(1, mu_max)
                edges.extend([(u, v)] * min(mu, max_edges - len(edges)))
    if not edges:
        u = rng.randrange(n - 1)
        edges = [(u, rng.randint(u + 1, n - 1))]
    return Multigraph(n, edges)


def _random_circular_interval(rng, n):
    # vertices sit at positions 0..n-1 on a circle; each arc covers a run
    # of consecutive positions and becomes a clique
    n = rng.randint(1, n)
    adj = [0] * n
    for _ in range(rng.randint(1, n)):
        start = rng.randrange(n)
        length = rng.randint(1, n)
        arc = ((1 << length) - 1) << start
        arc = (arc | arc >> n) & ((1 << n) - 1)
        for v in graphs.mask_members(arc):
            adj[v] |= arc ^ 1 << v
    return SimpleGraph.from_masks(adj)


def _random_co_triangle_free(rng, n, p):
    n = rng.randint(1, n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs:
        if _bernoulli(rng, p) and not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return complement(SimpleGraph.from_masks(adj))


class Corpus(NamedTuple):
    make: object  # make(rng, **params) -> one graph
    defaults: dict  # the parameters --params may set; n is the largest vertex count
    multi: bool = False  # multigraphs, checked against the multigraph claims
    circular_interval: bool = False  # every graph is promised circular interval


CORPORA = {
    "simple": Corpus(_random_simple, {"n": 8, "p": Fraction(1, 2)}),
    "multigraph": Corpus(
        _random_multigraph,
        {"n": 8, "p": Fraction(1, 2), "mu_max": 3, "max_edges": 28},
        multi=True,
    ),
    "circular_interval": Corpus(
        _random_circular_interval, {"n": 10}, circular_interval=True
    ),
    "co_triangle_free": Corpus(_random_co_triangle_free, {"n": 14, "p": Fraction(1, 2)}),
}
CORPUS_KINDS = tuple(CORPORA)


def random_corpus(kind, seed, count, **params):
    """Deterministic list of graphs; same seed, same corpus, byte for byte."""
    if count < 0:
        raise DomainError("count must be nonnegative")
    if kind not in CORPORA:
        raise DomainError(f"unknown corpus kind {kind!r}; expected one of {CORPUS_KINDS}")
    corpus = CORPORA[kind]
    cfg = dict(corpus.defaults)
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
    # every generator loops over the n^2/2 vertex pairs, the circular
    # interval one over a clique per arc
    check_vertex_limit("seeded corpus", cfg["n"], CORPUS_VERTEX_LIMIT)
    if corpus.multi and cfg["n"] < 2:
        raise DomainError(f"multigraph corpus needs n >= 2, got {cfg['n']}")
    if corpus.multi and cfg["max_edges"] > graphs.GRAPH6_VERTEX_LIMIT:
        # the edge limit of multigraph text, which gen writes
        raise SizeLimitError(
            f"multigraph corpus max_edges {cfg['max_edges']} above the limit "
            f"{graphs.GRAPH6_VERTEX_LIMIT}"
        )
    if "p" in cfg:
        cfg["p"] = Fraction(cfg["p"])
        if not 0 <= cfg["p"] <= 1:
            raise DomainError(f"probability {cfg['p']} outside [0,1]")
    rng = random.Random(seed)
    return [corpus.make(rng, **cfg) for _ in range(count)]


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
    d = report_to_dict(report)
    return tuple((key, str(d[key])) for key in sorted(CLAIMS[claim].finding))


def search_counterexamples(space, flags=None):
    """Stream check_graph / check_multigraph over a graph collection.

    A violated hard claim aborts immediately; a violated open claim is
    re-verified by brute force and recorded as a finding. The counts
    list the requested claims that apply to the kinds of graph in the
    space (simple or multigraph), or all of them if the space is empty.
    """
    base = flags or CheckFlags()
    counts = {
        claim: {HOLDS: 0, VIOLATED: 0, NOT_APPLICABLE: 0} for claim in base.claims
    }
    kinds = set()  # Claim.multi of each graph checked
    findings = []
    reports = []
    for g in space:
        multi = isinstance(g, Multigraph)
        kinds.add(multi)
        if multi:
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
            findings.append(Finding(report.encoding, claim, _finding_values(claim, report)))
    if kinds:
        counts = {claim: c for claim, c in counts.items() if CLAIMS[claim].multi in kinds}
    return SearchSummary(
        total=len(reports),
        verdict_counts=counts,
        findings=tuple(findings),
        reports=tuple(reports),
    )


# ---------------------------------------------------------------------------
# report serialization (no floats anywhere)


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
        # run_frac raises on an invalid weighting, so a total is a valid one
        "frac_valid": None if report.frac_total is None else True,
        "clique_average": _opt(report.clique_average, frac_str),
        "question_value": _opt(report.question_value, frac_str),
        "verdicts": dict(sorted(report.verdicts.items())),
        "bug": report.bug,
    }


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
    """Write serialized reports, sorted by encoding; returns the (jsonl, csv)
    strings, both read from one report_to_dict per report. A csv value that
    is null or absent (a multigraph has no chi) is an empty cell."""
    dicts = [report_to_dict(r) for r in sorted(reports, key=lambda r: r.encoding)]
    jl = "".join(json.dumps(d, sort_keys=True) + "\n" for d in dicts)
    columns = ["encoding", "chi", "chi_f", "gamma_ll", "gamma_ll_prime", "clique_average"]
    claims = sorted({c for d in dicts for c in d["verdicts"]})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns + claims)
    for d in dicts:
        writer.writerow(
            ["" if d.get(key) is None else d[key] for key in columns]
            + [d["verdicts"].get(c, "") for c in claims]
        )
    cv = buf.getvalue()
    if jsonl_path is not None:
        with open(jsonl_path, "w", encoding="ascii") as fh:
            fh.write(jl)
    if csv_path is not None:
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write(cv)
    return jl, cv
