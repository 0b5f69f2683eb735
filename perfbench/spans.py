"""Spans and counts recorded from outside the package.

Every probe is a wrapper set on the name a caller looks up. The modules
bind names with ``from ... import``, so ``harness.chromatic_number`` and
``oracles.chromatic_number`` are separate bindings of one function, and
each caller's binding is wrapped on its own. Nothing under ``src/`` is
edited; the wrappers exist only inside a benchmark process.

A layer's self time is its span's duration minus the time its child
spans cover, so the self times of one process add up to at most its
traced wall time.
"""

from __future__ import annotations

import sys
import time


def _module(short):
    # sys.modules, because ``superlocal.edge_colour`` is the function of
    # that name and hides the module of the same name
    return sys.modules["superlocal." + short]


def _add(counts, name, value):
    counts[name] = counts.get(name, 0) + value


def _edge_cases(result, counts):
    for case, value in result[1].stats.items():
        _add(counts, "edge_colour.case." + case, value)


# (span name, [(module, attribute) bindings that callers look up], counter)
# The counter turns a returned object into counts; call counts are kept
# for every span regardless.
LAYERS = (
    ("invariants.subgraph_neighbourhood_bound", [("harness", "subgraph_neighbourhood_bound")], None),
    ("invariants.graph_bounds", [("harness", "graph_bounds"), ("cli", "graph_bounds")], None),
    ("invariants.clique_average_bound", [("harness", "clique_average_bound")], None),
    ("invariants.gamma_bar_ll", [("harness", "gamma_bar_ll"), ("edge_colour", "gamma_bar_ll"), ("cli", "gamma_bar_ll")], None),
    ("invariants.gamma_ll", [("harness", "gamma_ll"), ("cli", "gamma_ll")], None),
    ("oracles.fractional_chromatic_solution", [("harness", "fractional_chromatic_solution")], None),
    ("oracles.chromatic_number", [("harness", "chromatic_number"), ("cli", "chromatic_number")], None),
    ("oracles.stability_number", [("harness", "stability_number"), ("oracles", "stability_number"), ("cli", "stability_number")], None),
    ("oracles.chi_via_complement_matching", [("harness", "chi_via_complement_matching")], None),
    ("simplex.solve_simplex", [("oracles", "solve_simplex")],
     lambda r, c: _add(c, "simplex.solve_simplex.rows", len(r[2]))),
    ("stable_sets.maximal_stable_sets", [("oracles", "maximal_stable_sets")],
     lambda r, c: _add(c, "stable_sets.maximal_stable_sets.sets", len(r.sets))),
    ("stable_sets.maximum_stable_sets", [("frac_colour", "maximum_stable_sets")], None),
    ("kernels.matching_dp", [("_kernels", "matching_dp")], None),
    ("kernels.orbit_representatives", [("_kernels", "orbit_representatives")], None),
    ("frac_colour.superlocal_fractional_colour",
     [("harness", "superlocal_fractional_colour"), ("cli", "superlocal_fractional_colour")],
     lambda r, c: _add(c, "frac_colour.rounds", len(r[1].records))),
    ("frac_colour.verify_fractional_colouring",
     [("harness", "verify_fractional_colouring"), ("frac_colour", "verify_fractional_colouring"),
      ("cli", "verify_fractional_colouring")], None),
    ("edge_colour.edge_colour", [("harness", "edge_colour"), ("cli", "edge_colour")], _edge_cases),
    ("graphs.line_graph", [("harness", "line_graph"), ("cli", "line_graph")], None),
    ("graphs.parse_multigraph", [("cli", "parse_multigraph")], None),
    ("harness.enumerate_graph_classes", [("cli", "enumerate_graph_classes")], None),
    ("harness.random_corpus", [("cli", "random_corpus")], None),
    ("harness.check_graph", [("harness", "check_graph")], None),
    ("harness.check_multigraph", [("harness", "check_multigraph")], None),
    ("harness.write_reports", [("cli", "write_reports")], None),
)

# The per-layer metrics, in the order they are printed. A span that a
# workload never enters reads 0 there.
PER_LAYER = tuple(
    (name, "s" if name.endswith("_s") else "count")
    for name in (
        "invariants.subgraph_neighbourhood_bound.self_s",
        "invariants.graph_bounds.self_s",
        "invariants.clique_average_bound.self_s",
        "oracles.fractional_chromatic_solution.self_s",
        "simplex.solve_simplex.self_s",
        "simplex.solve_simplex.rows",
        "stable_sets.maximal_stable_sets.self_s",
        "stable_sets.maximal_stable_sets.sets",
        "oracles.chromatic_number.self_s",
        "oracles.stability_number.self_s",
        "oracles.chi_via_complement_matching.self_s",
        "kernels.matching_dp.self_s",
        "frac_colour.superlocal_fractional_colour.self_s",
        "frac_colour.rounds",
        "frac_colour.verify_fractional_colouring.self_s",
        "stable_sets.maximum_stable_sets.self_s",
        "stable_sets.maximum_stable_sets.calls",
        "invariants.gamma_bar_ll.self_s",
        "invariants.gamma_bar_ll.calls",
        "edge_colour.edge_colour.self_s",
        "edge_colour.validate.self_s",
        "edge_colour.validate.calls",
        "edge_colour.case.direct",
        "edge_colour.case.rotation",
        "edge_colour.case.kempe",
        "edge_colour.case.sequence_steps",
        "edge_colour.case.beta_swaps",
        "graphs.line_graph.self_s",
        "invariants.gamma_ll.self_s",
        "harness.enumerate_graph_classes.self_s",
        "kernels.orbit_representatives.self_s",
        "harness.random_corpus.self_s",
        "graphs.parse_multigraph.self_s",
        "harness.check_graph.self_s",
        "harness.check_multigraph.self_s",
        "harness.write_reports.self_s",
        "cli.main.self_s",
        "trace.overhead_s",  # traced minus untraced wall_s, processes in alternation
    )
)

# span names whose call count is itself a published counter
CALL_COUNTS = (
    "invariants.gamma_bar_ll",
    "stable_sets.maximum_stable_sets",
    "edge_colour.validate",
)


class Tracer:
    """Self time and call count per span name, kept in memory.

    One process runs one caller with no threads, so a plain stack of
    open spans gives each span's parent. ``clock`` reads the time; the
    benchmark passes one that leaves out its speed probes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self._open = []  # child time accumulated by each open span

    def wrap(self, fn, name, counter=None):
        opened, clock = self._open, self.clock

        def span(*args, **kwargs):
            child = [0.0]
            opened.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                opened.pop()
                if opened:
                    opened[-1][0] += elapsed
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child[0]
                self.calls[name] = self.calls.get(name, 0) + 1
            if counter is not None:
                counter(result, self.counts)
            return result

        return span

    def install(self):
        """Wrap every layer binding of the imported package."""
        for name, bindings, counter in LAYERS:
            for short, attr in bindings:
                owner = _module(short)
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, counter))
        # a method: every caller reaches it through the class
        cls = _module("edge_colour").PartialEdgeColouring
        cls.validate = self.wrap(cls.validate, "edge_colour.validate")

    def layer_metrics(self):
        out = {name + ".self_s": value for name, value in self.self_s.items()}
        out.update(self.counts)
        for name in CALL_COUNTS:
            out[name + ".calls"] = self.calls.get(name, 0)
        return out
