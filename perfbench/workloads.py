"""The benchmark's workloads: inputs from the seed, one run, output checks.

Each workload is one process with one caller: a closed loop that checks
its graphs in sequence, with no threads, sized for a 2-core machine.
``make_inputs`` and ``check`` run in the parent, outside the timed
region; ``run`` runs in the timed child process. Why each workload was
chosen, and what is left out, is written in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from superlocal import harness
from superlocal.graphs import (
    Multigraph,
    SimpleGraph,
    format_multigraph,
    parse_graph6,
    parse_multigraph,
    to_graph6,
)
from superlocal.invariants import gamma_bar_ll_via_line_graph

ACCEPTANCE_SEED = 20240815
SIMPLE_VALUES = ("chi", "chi_f", "alpha", "frac_total")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _read_jsonl(path):
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _opt_fraction(text):
    return None if text is None else Fraction(text)


def _check_search(summary, records, expected):
    """Problems with one search's summary and its jsonl reports."""
    problems = []
    if summary["total"] != expected:
        problems.append(f"summary total {summary['total']}, expected {expected}")
    if len(records) != expected:
        problems.append(f"{len(records)} jsonl records, expected {expected}")
    recount = Counter(
        (claim, verdict) for rec in records for claim, verdict in rec["verdicts"].items()
    )
    for claim, counts in summary["verdicts"].items():
        for verdict, count in counts.items():
            if recount[(claim, verdict)] != count:
                problems.append(f"{claim} {verdict}: summary {count}, jsonl {recount[(claim, verdict)]}")
        if claim in harness.HARD_CLAIMS and counts["violated"]:
            problems.append(f"proven claim {claim} violated {counts['violated']} times")
    by_encoding = {rec["encoding"]: rec for rec in records}
    for finding in summary["findings"]:
        rec = by_encoding.get(finding["encoding"])
        if rec is None:
            problems.append(f"finding on {finding['encoding']} has no report")
            continue
        report = SimpleNamespace(
            bounds=SimpleNamespace(gamma_ll=rec["gamma_ll"]),
            chi_f=_opt_fraction(rec["chi_f"]),
            clique_average=_opt_fraction(rec["clique_average"]),
            question_value=_opt_fraction(rec["question_value"]),
        )
        graph = parse_graph6(rec["encoding"])
        if not harness.reverify_finding(graph, finding["claim"], report):
            problems.append(f"finding {finding['claim']} on {rec['encoding']} not re-verified")
    return problems


def _refusals(records):
    """(values refused, values requested) among chi, chi_f, alpha, frac total."""
    simple = [rec for rec in records if "chi" in rec]
    refused = sum(rec[key] is None for rec in simple for key in SIMPLE_VALUES)
    return refused, len(simple) * len(SIMPLE_VALUES)


def _clique_through(adj, cand):
    """Largest clique inside the vertex mask cand, by plain branching."""
    best = 0
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        best = max(best, 1 + _clique_through(adj, cand & adj[v]))
    return best


def _gamma_ll_prime_and_omega(g):
    """gamma'_ll and omega by a route that shares no code with invariants.py."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    om = [1 + _clique_through(adj, adj[v]) for v in range(g.n)]
    deg = [a.bit_count() for a in adj]
    best = max(Fraction(deg[u] + deg[v] + om[u] + om[v] + 2, 4) for u, v in g.edges)
    return best, max(om)


class SearchWorkload:
    """A ``superlocal search`` CLI call whose reports are written with --out."""

    item_binding = "check"

    def run(self, inputs, out_prefix, main):
        return main(self.argv + ["--out", out_prefix])

    def check(self, inputs, stdout_path, out_prefix):
        summary = _read_json(stdout_path)
        records = _read_jsonl(out_prefix + ".jsonl")
        problems = _check_search(summary, records, self.expected)
        problems += self.check_records(inputs, records)
        return problems, _sha256(out_prefix + ".jsonl"), _refusals(records)

    def make_inputs(self, seed, work):
        # the run seed is recorded and leaves the input unchanged
        return {}

    def check_records(self, inputs, records):
        return []


class SearchN7(SearchWorkload):
    """The enumeration has no seed."""

    name = "search-n7"
    expected = 853
    argv = ["search", "--n", "7"]


class MultigraphCorpus(SearchWorkload):
    """The corpus seed is the acceptance seed, whatever the run seed.

    Over five corpus seeds the work spread 15-22% (quartile distance over
    median), wider than the bounds in BENCHMARK.json allow.
    """

    name = "multigraph-corpus"
    expected = 500
    argv = ["search", "--corpus", "multigraph", "--seed", str(ACCEPTANCE_SEED), "--count", "500"]

    def check_records(self, inputs, records):
        problems = []
        for rec in records:
            if rec["gamma_bar_ll"] != rec["line_graph_gamma_ll"]:
                problems.append(f"line-graph route differs on {rec['encoding']}")
            if not rec["colours_used"] or rec["colours_used"] > rec["gamma_bar_ll"]:
                problems.append(f"{rec['colours_used']} colours used on {rec['encoding']}")
        return problems


class SparseCheck(SearchWorkload):
    """Ten graphs passed as a list to search_counterexamples, default claims."""

    name = "sparse-check-n22"
    expected = 10
    sizes = (18, 18, 19, 19, 20, 20, 21, 21, 22, 22)

    def make_inputs(self, seed, work):
        # The graphs are drawn once, from the acceptance seed; the run seed
        # shuffles their order. Fresh graphs per seed, or only relabelled
        # vertices, moved one graph's LP from 1.6 s to 8.9 s and the run
        # from 8 s to 20 s, because Bland's rule pivots by row order.
        base = random.Random(ACCEPTANCE_SEED)
        lines = []
        for n in self.sizes:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if base.randrange(4) == 0]
            lines.append(to_graph6(SimpleGraph(n, edges)))
        random.Random(seed).shuffle(lines)
        path = work / "graphs.g6"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return {"graphs": str(path)}

    def run(self, inputs, out_prefix, main):
        with open(inputs["graphs"], encoding="ascii") as fh:
            graphs = [parse_graph6(line) for line in fh if line.strip()]
        summary = harness.search_counterexamples(graphs)
        harness.write_reports(summary.reports, out_prefix + ".jsonl", out_prefix + ".csv")
        print(json.dumps(harness.summary_to_dict(summary), sort_keys=True))
        return 0

    def check_records(self, inputs, records):
        problems = []
        with open(inputs["graphs"], encoding="ascii") as fh:
            wanted = sorted(line.strip() for line in fh if line.strip())
        if sorted(rec["encoding"] for rec in records) != wanted:
            problems.append("reported encodings differ from the input graphs")
        for rec in records:
            g = parse_graph6(rec["encoding"])
            gllp, omega = _gamma_ll_prime_and_omega(g)
            chi_f = _opt_fraction(rec["chi_f"])
            if Fraction(rec["gamma_ll_prime"]) != gllp:
                problems.append(f"gamma_ll_prime {rec['gamma_ll_prime']} != {gllp} on {rec['encoding']}")
            if chi_f is None or not omega <= chi_f <= gllp:
                problems.append(f"chi_f {rec['chi_f']} outside [{omega}, {gllp}] on {rec['encoding']}")
            if rec["frac_valid"] is not True:
                problems.append(f"fractional construction not valid on {rec['encoding']}")
            elif chi_f is not None and chi_f > Fraction(rec["frac_total"]):
                problems.append(f"chi_f above the construction's total on {rec['encoding']}")
        return problems


class EdgecolourLarge:
    """``superlocal edgecolour FILE`` on one large seeded multigraph."""

    name = "edgecolour-large"
    expected = 1
    item_binding = "cli"
    n, edges = 60, 1708

    def make_inputs(self, seed, work):
        # n = 60, edge probability 1/2, multiplicity 1..3, first 1,708
        # edges; drawn again from the same stream in the rare case that a
        # draw has fewer edges
        rng = random.Random(seed)
        edges = []
        while len(edges) < self.edges:
            edges = []
            for u in range(self.n):
                for v in range(u + 1, self.n):
                    if rng.randrange(2):
                        edges.extend([(u, v)] * rng.randint(1, 3))
        mg = Multigraph(self.n, edges[: self.edges])
        path = work / "multigraph.txt"
        path.write_text(format_multigraph(mg), encoding="ascii")
        # the colour count the output must reach, by the independent route
        return {"multigraph": str(path), "k": gamma_bar_ll_via_line_graph(mg)}

    def run(self, inputs, out_prefix, main):
        return main(["edgecolour", inputs["multigraph"]])

    def check(self, inputs, stdout_path, out_prefix):
        with open(inputs["multigraph"], encoding="ascii") as fh:
            mg = parse_multigraph(fh.read())
        with open(stdout_path, encoding="ascii") as fh:
            lines = [line.split() for line in fh if line.strip()]
        problems = []
        if not lines or lines[0][0] != "k":
            return ["no 'k' header line"], _sha256(stdout_path), (0, 0)
        k = int(lines[0][1])
        if k != inputs["k"]:
            problems.append(f"k = {k}, the line-graph route gives {inputs['k']}")
        colour = {}
        for eid, c in lines[1:]:
            colour[int(eid)] = int(c)
        if sorted(colour) != list(range(mg.edge_count)):
            problems.append(f"{len(colour)} edges coloured, expected {mg.edge_count}")
        if not all(1 <= c <= k for c in colour.values()):
            problems.append(f"a colour lies outside 1..{k}")
        for v in range(mg.n):
            at_v = [colour.get(eid) for eid in mg.incident(v)]
            if len(set(at_v)) != len(at_v):
                problems.append(f"colouring is not proper at vertex {v}")
        return problems, _sha256(stdout_path), (0, 0)


WORKLOADS = {w.name: w for w in (SearchN7(), MultigraphCorpus(), SparseCheck(), EdgecolourLarge())}
