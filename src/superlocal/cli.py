"""Command-line interface.

One binary, seven subcommands, uniform conventions: exact "p/q"
rationals, byte-stable output for fixed inputs and seeds, exit codes
0 (ok), 1 (input error), 2 (size refusal), 3 (internal bug signal).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .edge_colour import edge_colour
from .errors import DomainError, GraphFormatError, InternalBugError, SizeLimitError
from .frac_colour import superlocal_fractional_colour, verify_fractional_colouring
from .graphs import (
    Multigraph,
    line_graph,
    parse_graph6,
    parse_multigraph,
    to_graph6,
)
from .harness import (
    CheckFlags,
    MULTI_CLAIMS,
    SIMPLE_CLAIMS,
    enumerate_graph_classes,
    frac_str,
    multigraph_line,
    random_corpus,
    search_counterexamples,
    summary_to_dict,
    write_reports,
)
from .invariants import (
    SUBGRAPH_SCAN_LIMIT,
    gamma_bar_ll,
    gamma_bar_ll_via_line_graph,
    gamma_ll,
    graph_bounds,
    vertex_bounds,
)
from .oracles import (
    CHROMATIC_VERTEX_LIMIT,
    MATCHING_VERTEX_LIMIT,
    chromatic_number,
    fractional_chromatic_number,
    stability_number,
)
from .stable_sets import ENUMERATION_VERTEX_LIMIT

# stable public tokens for the claims, mapped onto the descriptive names
CLAIM_ALIASES = {
    "thm4": "frac-bound",
    "conj3": "superlocal-chi",
    "conj6": "clique-average",
    "thm8": "round-up",
    "thm9": "interval-chi",
    "thm10": "alpha2-chi",
    "thm11": "edge-colour",
    "question": "question-bound",
}


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc


def _load_any(text):
    """Multigraph text when the first record is a header, graph6 otherwise."""
    stripped = text.strip()
    if not stripped:
        raise GraphFormatError("empty input")
    first = stripped.split("\n", 1)[0].strip()
    if first.startswith("n ") or first == "n" or stripped.startswith("n "):
        return parse_multigraph(text)
    return parse_graph6(first)


def _load_simple(text):
    g = _load_any(text)
    if isinstance(g, Multigraph):
        support = g.support()
        if support.edge_count != g.edge_count:
            raise DomainError("this subcommand needs a simple graph")
        return support
    return g


def _load_multi(text):
    g = _load_any(text)
    if isinstance(g, Multigraph):
        return g
    return Multigraph.of_simple(g)


def _json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _plain(obj, prefix=""):
    lines = []
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, dict):
            lines.extend(_plain(value, prefix=f"{prefix}{key}."))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix}{key} " + " ".join(str(v) for v in value))
        else:
            lines.append(f"{prefix}{key} {value}")
    return lines if prefix else "\n".join(lines) + "\n"


def _render(obj, fmt):
    if fmt == "plain":
        return _plain(obj)
    return _json(obj)


def _limits(args):
    cap = getattr(args, "limit_n", None)

    def low(default):
        return default if cap is None else min(default, cap)

    return {
        "chromatic": low(CHROMATIC_VERTEX_LIMIT),
        "stable": low(ENUMERATION_VERTEX_LIMIT),
        "matching": low(MATCHING_VERTEX_LIMIT),
        "question": low(SUBGRAPH_SCAN_LIMIT),
    }


def cmd_bounds(args):
    g = _load_any(_read_text(args.file))
    if isinstance(g, Multigraph):
        out = {
            "kind": "multigraph",
            "n": g.n,
            "m": g.edge_count,
            "gamma_bar_ll": gamma_bar_ll(g) if g.edge_count else None,
        }
        return _render(out, args.format)
    b = graph_bounds(g)
    vb = vertex_bounds(g)
    out = {
        "kind": "simple",
        "n": g.n,
        "m": g.edge_count,
        "delta": b.delta,
        "omega": b.omega,
        "gamma_prime": frac_str(b.gamma_prime),
        "gamma": b.gamma,
        "gamma_l_prime": frac_str(b.gamma_l_prime),
        "gamma_l": b.gamma_l,
        "gamma_ll_prime": frac_str(b.gamma_ll_prime),
        "gamma_ll": b.gamma_ll,
        "vertex_degree": list(vb.degree),
        "vertex_omega": list(vb.omega),
        "vertex_gamma_l_prime": [frac_str(x) for x in vb.gamma_l_prime],
    }
    return _render(out, args.format)


def cmd_oracle(args):
    g = _load_simple(_read_text(args.file))
    lim = _limits(args)
    chi, _ = chromatic_number(g, limit=lim["chromatic"])
    chi_f = fractional_chromatic_number(g, vertex_limit=lim["stable"])
    alpha = stability_number(g, limit=lim["stable"])
    out = {"chi": chi, "chi_f": frac_str(chi_f), "alpha": alpha}
    return _render(out, args.format)


def cmd_frac(args):
    g = _load_simple(_read_text(args.file))
    fc, trace = superlocal_fractional_colour(g)
    if args.verify:
        verdict = verify_fractional_colouring(g, fc, trace.bound)
        if not verdict.valid:
            raise InternalBugError("; ".join(verdict.violations))
    coverage = {v: Fraction(0) for v in range(g.n)}
    for members, weight in fc.weights.items():
        for v in members:
            coverage[v] += weight
    out = {
        "bound": frac_str(trace.bound),
        "total": frac_str(fc.total),
        "wo": [frac_str(coverage[v]) for v in range(g.n)],
        "weights": [
            {"set": sorted(members), "weight": frac_str(weight)}
            for members, weight in sorted(
                fc.weights.items(), key=lambda kv: tuple(sorted(kv[0]))
            )
        ],
        "iterations": [
            {
                "vertices": list(rec.vertices),
                "num_max_sets": rec.num_max_sets,
                "low": frac_str(rec.low),
                "val": frac_str(rec.val),
                "total_after": frac_str(rec.total_after),
            }
            for rec in trace.records
        ],
    }
    if args.verify:
        out["verified"] = True
    return _render(out, args.format)


def cmd_edgecolour(args):
    mg = _load_multi(_read_text(args.file))
    k, colouring = edge_colour(mg)
    if args.verify:
        colouring.validate()
        # the line-graph route, independent of the bound edge_colour used
        if k != gamma_bar_ll_via_line_graph(mg):
            raise InternalBugError("colour count differs from the line-graph bound")
    if args.format == "json":
        out = {
            "k": k,
            "colours": {str(e): colouring.assignment[e] for e in sorted(colouring.assignment)},
        }
        if args.verify:
            out["verified"] = True
        return _json(out)
    lines = [f"k {k}"]
    for eid in sorted(colouring.assignment):
        lines.append(f"{eid} {colouring.assignment[eid]}")
    if args.verify:
        lines.append("verify ok")
    return "\n".join(lines) + "\n"


def cmd_linegraph(args):
    mg = _load_multi(_read_text(args.file))
    lg = line_graph(mg)
    enc = to_graph6(lg)
    if args.format == "json":
        out = {"graph6": enc, "n": lg.n, "m": lg.edge_count}
        if args.verify:
            out["gamma_ll"] = gamma_ll(lg)
            out["gamma_bar_ll"] = gamma_bar_ll(mg)
            if out["gamma_ll"] != out["gamma_bar_ll"]:
                raise InternalBugError(
                    "line-graph bound differs from the direct edge bound"
                )
            out["verified"] = True
        return _json(out)
    lines = [enc]
    if args.verify:
        a, b = gamma_ll(lg), gamma_bar_ll(mg)
        if a != b:
            raise InternalBugError("line-graph bound differs from the direct edge bound")
        lines.append(f"verify ok gamma_ll {a}")
    return "\n".join(lines) + "\n"


def _parse_claims(spec, default):
    if not spec:
        return default
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name = CLAIM_ALIASES.get(token, token)
        if name not in SIMPLE_CLAIMS + MULTI_CLAIMS:
            raise DomainError(f"unknown claim {token!r}")
        if name not in out:
            out.append(name)
    if not out:
        raise DomainError("no claims requested")
    return tuple(out)


def _parse_params(spec):
    out = {}
    if not spec:
        return out
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise DomainError(f"parameter {item!r} is not key=value")
        key, value = item.split("=", 1)
        try:
            out[key.strip()] = Fraction(value.strip()) if "/" in value else int(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"parameter {item!r}: {exc}") from None
    return out


def cmd_search(args):
    lim = _limits(args)
    circular = False
    if args.n is not None:
        space = enumerate_graph_classes(args.n, connected_only=not args.all_classes)
        default_claims = SIMPLE_CLAIMS
    elif args.corpus is not None:
        params = _parse_params(args.params)
        space = random_corpus(args.corpus, args.seed, args.count, **params)
        circular = args.corpus == "circular_interval"
        default_claims = MULTI_CLAIMS if args.corpus == "multigraph" else SIMPLE_CLAIMS
    else:
        raise DomainError("search needs either --n or --corpus")
    claims = _parse_claims(args.claims, default_claims)
    flags = CheckFlags(
        claims=claims,
        circular_interval=circular,
        chromatic_limit=lim["chromatic"],
        stable_set_limit=lim["stable"],
        matching_limit=lim["matching"],
        question_limit=lim["question"],
        chi_prime_edge_limit=args.chi_prime_edges,
    )
    summary = search_counterexamples(space, flags=flags)
    if args.out:
        write_reports(summary.reports, args.out + ".jsonl", args.out + ".csv")
    return _render(summary_to_dict(summary), args.format)


def cmd_gen(args):
    if args.n is not None:
        graphs = enumerate_graph_classes(args.n, connected_only=args.connected)
        lines = [to_graph6(g) for g in graphs]
    elif args.corpus is not None:
        params = _parse_params(args.params)
        graphs = random_corpus(args.corpus, args.seed, args.count, **params)
        lines = [
            multigraph_line(g) if isinstance(g, Multigraph) else to_graph6(g)
            for g in graphs
        ]
    else:
        raise DomainError("gen needs either --n or --corpus")
    return "\n".join(lines) + ("\n" if lines else "")


def _parser():
    parser = argparse.ArgumentParser(
        prog="superlocal",
        description="Superlocal degree-clique bounds, colourings, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_default="json", fmts=("json", "plain")):
        p.add_argument("--format", choices=fmts, default=fmt_default)
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--limit-n", type=int, default=None, dest="limit_n",
                       help="lower the per-oracle size limits")

    p = sub.add_parser("bounds", help="invariants of one graph (graph6 or multigraph text)")
    p.add_argument("file", help="input path, '-' for stdin")
    add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", help="exact chi, chi_f, alpha")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("frac", help="run the constructive fractional colouring")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_frac)

    p = sub.add_parser("edgecolour", help="edge-colour a multigraph at the nine-expression bound")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true")
    add_common(p, fmt_default="plain")
    p.set_defaults(func=cmd_edgecolour)

    p = sub.add_parser("linegraph", help="emit the line graph as graph6")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true")
    add_common(p, fmt_default="plain")
    p.set_defaults(func=cmd_linegraph)

    p = sub.add_parser("search", help="verify claims over an enumeration or corpus")
    p.add_argument("--n", type=int, default=None, help="enumerate all classes on n vertices")
    p.add_argument("--all-classes", action="store_true",
                   help="include disconnected graphs in the enumeration")
    p.add_argument("--corpus", choices=("simple", "multigraph", "circular_interval",
                                        "co_triangle_free"), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--params", default=None, help="corpus parameters, key=value pairs")
    p.add_argument("--claims", default=None,
                   help="comma list; names or tokens like conj3, thm4")
    p.add_argument("--chi-prime-edges", type=int, default=0, dest="chi_prime_edges",
                   help="brute-force chi' cross-check up to this many edges")
    add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="emit an enumeration or seeded corpus")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--corpus", choices=("simple", "multigraph", "circular_interval",
                                        "co_triangle_free"), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--params", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen, format="plain", limit_n=None)

    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        text = args.func(args)
    except (GraphFormatError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return 2
    except InternalBugError as exc:
        print(f"bug signal: {exc}", file=sys.stderr)
        return 3
    out_path = getattr(args, "out", None)
    if out_path and args.func is not cmd_search:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
