"""Command-line interface.

One binary, seven subcommands, uniform conventions: exact "p/q"
rationals, byte-stable output for fixed inputs and seeds, exit codes
0 (ok), 1 (input error), 2 (size refusal), 3 (internal bug signal).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from . import errors, oracles, stable_sets
from .edge_colour import edge_colour
from .errors import DomainError, GraphFormatError, InternalBugError, SizeLimitError
from .frac_colour import superlocal_fractional_colour, verify_fractional_colouring
from .graphs import (
    Multigraph,
    line_graph,
    mask_members,
    parse_graph6,
    parse_multigraph,
    to_graph6,
)
from .harness import (
    CLAIM_ALIASES,
    CLAIMS,
    CORPORA,
    CORPUS_KINDS,
    CheckFlags,
    MULTI_CLAIMS,
    SIMPLE_CLAIMS,
    bounds_to_dict,
    enumerate_graph_classes,
    frac_str,
    multigraph_line,
    random_corpus,
    search_counterexamples,
    summary_to_dict,
    write_reports,
)
from .invariants import (
    gamma_bar_ll,
    gamma_bar_ll_via_line_graph,
    gamma_ll,
    gamma_ll_prime,
    graph_bounds,
    local_sums,
)
from .oracles import chromatic_number, fractional_chromatic_solution, stability_number

def _read_text(path):
    """The ASCII text of a file, or of stdin for "-"."""
    try:
        if path == "-":
            text = sys.stdin.read()
            text.encode("ascii")  # the file route's check: ASCII or refused
            return text
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text):
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _check_writable(prefix):
    """Refuse an --out prefix whose files cannot be opened; leave no new file."""
    for path in (prefix + ".jsonl", prefix + ".csv"):
        existed = os.path.exists(path)
        try:
            open(path, "a", encoding="ascii").close()
        except OSError as exc:
            raise DomainError(f"cannot write {prefix}: {exc}") from exc
        if not existed:
            os.remove(path)


def _load_any(text):
    """Multigraph text when the first record is a header, else one graph6 line."""
    stripped = text.strip()
    if not stripped:
        raise GraphFormatError("empty input")
    first, _, rest = stripped.partition("\n")
    first = first.strip()
    # the header's first token is "n" alone; a graph6 line may start with
    # the byte n (47 vertices), but never with n and whitespace
    if first.split(None, 1)[0] == "n":
        return parse_multigraph(text)
    if rest.strip():
        raise GraphFormatError("graph6 input is one line; more text follows it")
    return parse_graph6(first)


def _load_simple(text, what, limit):
    """The input as a simple graph, refused above limit vertices as what.

    A multigraph input is refused before support() builds adjacency
    masks, which cost about n^2/2 bits on a sparse graph, so a size
    refusal costs no more memory than parsing.
    """
    g = _load_any(text)
    multi = isinstance(g, Multigraph)
    if multi and any(mu > 1 for mu in g.multiplicities().values()):
        raise DomainError("this subcommand needs a simple graph")
    errors.check_vertex_limit(what, g.n, limit)
    return g.support() if multi else g


def _load_multi(text):
    g = _load_any(text)
    if isinstance(g, Multigraph):
        return g
    return Multigraph.of_simple(g)


def _json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _plain_scalar(value):
    # true, false and null as the JSON format writes them
    return json.dumps(value) if value is None or isinstance(value, bool) else str(value)


def _plain(obj, prefix=""):
    lines = []
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, (list, tuple)) and value and all(
            isinstance(v, dict) for v in value
        ):
            value = dict(enumerate(value))  # items become indexed dotted keys
        if isinstance(value, dict):
            lines.extend(_plain(value, prefix=f"{prefix}{key}."))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix}{key} " + " ".join(map(_plain_scalar, value)))
        else:
            lines.append(f"{prefix}{key} {_plain_scalar(value)}")
    return lines if prefix else "\n".join(lines) + "\n"


def _render(obj, fmt):
    if fmt == "plain":
        return _plain(obj)
    return _json(obj)


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
    out = {
        "kind": "simple",
        "n": g.n,
        "m": g.edge_count,
        **bounds_to_dict(graph_bounds(g)),
        "vertex_degree": [a.bit_count() for a in g.adj],
        "vertex_omega": list(g.omegas()),
        "vertex_gamma_l_prime": [frac_str(Fraction(h, 2)) for h in local_sums(g)],
    }
    return _render(out, args.format)


def cmd_oracle(args):
    # chi has the lowest vertex limit, so one refusal at the lower of it
    # and --limit-n (a negative one is refused by CheckFlags) covers all three
    limit = oracles.CHROMATIC_VERTEX_LIMIT
    if CheckFlags(limit_n=args.limit_n).limit_n is not None:
        limit = min(limit, args.limit_n)
    g = _load_simple(_read_text(args.file), "chromatic number", limit)
    chi, _ = chromatic_number(g)
    chi_f = fractional_chromatic_solution(g).value
    alpha = stability_number(g)
    out = {"chi": chi, "chi_f": frac_str(chi_f), "alpha": alpha}
    return _render(out, args.format)


def cmd_frac(args):
    g = _load_simple(
        _read_text(args.file), "stable set enumeration", stable_sets.ENUMERATION_VERTEX_LIMIT
    )
    fc, trace = superlocal_fractional_colour(g)
    bound = gamma_ll_prime(g)
    # always verified; --verify only adds the marker to the output
    verdict = verify_fractional_colouring(g, fc, bound)
    if not verdict.valid:
        raise InternalBugError("; ".join(verdict.violations))
    # the verifier has proved every vertex covered exactly once
    sets = sorted((mask_members(mask), w) for mask, w in fc.weights.items())
    out = {
        "bound": frac_str(bound),
        "total": frac_str(fc.total),
        "wo": ["1/1"] * g.n,
        "weights": [
            {"set": list(members), "weight": frac_str(Fraction(w, fc.den))}
            for members, w in sets
        ],
        "iterations": [
            {
                "vertices": list(rec.vertices),
                "num_max_sets": rec.num_max_sets,
                "low": frac_str(rec.low),
                # the value a round spends: low, as no cap under the bound binds
                "val": frac_str(rec.low),
                "total_after": frac_str(total),
            }
            for rec, total in zip(
                trace.records, itertools.accumulate(rec.low for rec in trace.records)
            )
        ],
    }
    if args.verify:
        out["verified"] = True
    return _render(out, args.format)


def cmd_edgecolour(args):
    mg = _load_multi(_read_text(args.file))
    # edge_colour validates the colouring it returns; --verify adds the
    # line-graph route, independent of the bound edge_colour used
    k, colouring = edge_colour(mg)
    if args.verify:
        if k != gamma_bar_ll_via_line_graph(mg):
            raise InternalBugError("colour count differs from the line-graph bound")
    assignment = colouring.assignment
    if args.format == "json":
        out = {
            "k": k,
            "colours": {str(e): assignment[e] for e in sorted(assignment)},
        }
        if args.verify:
            out["verified"] = True
        return _json(out)
    lines = [f"k {k}"]
    for eid in sorted(assignment):
        lines.append(f"{eid} {assignment[eid]}")
    if args.verify:
        lines.append("verify ok")
    return "\n".join(lines) + "\n"


def cmd_linegraph(args):
    mg = _load_multi(_read_text(args.file))
    lg = line_graph(mg)
    enc = to_graph6(lg)
    if args.verify:
        k = gamma_ll(lg)
        if k != gamma_bar_ll(mg):
            raise InternalBugError("line-graph bound differs from the direct edge bound")
    if args.format == "json":
        out = {"graph6": enc, "n": lg.n, "m": lg.edge_count}
        if args.verify:
            out.update(gamma_ll=k, gamma_bar_ll=k, verified=True)
        return _json(out)
    lines = [enc]
    if args.verify:
        lines.append(f"verify ok gamma_ll {k}")
    return "\n".join(lines) + "\n"


def _parse_claims(spec, default, space):
    """The claims named in spec, each one of the space's default claims."""
    if spec is None:
        return default
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name = CLAIM_ALIASES.get(token, token)
        if name not in CLAIMS:
            raise DomainError(f"unknown claim {token!r}")
        if name not in default:
            shown = repr(token) if name == token else f"{token!r} ({name})"
            raise DomainError(f"claim {shown} does not apply to {space}")
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
        key = key.strip()
        if key in out:
            raise DomainError(f"parameter {key!r} given twice")
        try:
            out[key] = Fraction(value.strip())
        except ValueError as exc:
            raise DomainError(f"parameter {item!r}: {exc}") from None
        except ZeroDivisionError:
            raise DomainError(f"parameter {item!r} has a zero denominator") from None
    return out


# the graph-source options that only one source reads, by argparse dest
ENUMERATION_ONLY = {"all_classes": "--all-classes", "connected": "--connected"}
CORPUS_ONLY = {"seed": "--seed", "count": "--count", "params": "--params"}


def _graphs(args, connected_only):
    """The classes of --n, or else the seeded corpus of --corpus.

    An option that only the other source reads is an input error.
    """
    source, unread = ("--n", CORPUS_ONLY) if args.n is not None else ("--corpus", ENUMERATION_ONLY)
    for dest, option in unread.items():
        if getattr(args, dest, None) is not None:
            raise DomainError(f"{option} does nothing with {source}")
    if args.n is not None:
        return enumerate_graph_classes(args.n, connected_only=connected_only)
    seed = 0 if args.seed is None else args.seed
    count = 100 if args.count is None else args.count
    return random_corpus(args.corpus, seed, count, **_parse_params(args.params))


def cmd_search(args):
    corpus = CORPORA.get(args.corpus)  # None for the classes of --n
    where = f"the {args.corpus} corpus" if corpus else "the simple graphs of --n"
    multi = bool(corpus and corpus.multi)
    flags = CheckFlags(
        claims=_parse_claims(args.claims, MULTI_CLAIMS if multi else SIMPLE_CLAIMS, where),
        circular_interval=bool(corpus and corpus.circular_interval),
        limit_n=args.limit_n,
    )
    if multi and args.limit_n is not None:
        raise DomainError(f"--limit-n does nothing with {where}")
    if args.out:
        _check_writable(args.out)
    summary = search_counterexamples(
        _graphs(args, connected_only=not args.all_classes), flags=flags
    )
    if args.out:
        try:
            write_reports(summary.reports, args.out + ".jsonl", args.out + ".csv")
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc}") from exc
    return _render(summary_to_dict(summary), args.format)


def cmd_gen(args):
    lines = [
        multigraph_line(g) if isinstance(g, Multigraph) else to_graph6(g)
        for g in _graphs(args, connected_only=bool(args.connected))
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# built once per process; main looks each handler up by name when it runs
@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="superlocal",
        description="Superlocal degree-clique bounds, colourings, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p, flag, flag_help):
        # options that only one source reads default to None, so that
        # _graphs can refuse one given to the other
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--n", type=int, help="enumerate all classes on n vertices")
        source.add_argument("--corpus", choices=CORPUS_KINDS, help="draw a seeded corpus")
        p.add_argument(flag, action="store_true", default=None, help=flag_help)
        p.add_argument("--seed", type=int, help="corpus seed (default 0)")
        p.add_argument("--count", type=int, help="corpus size (default 100)")
        p.add_argument("--params", help="corpus parameters, key=value pairs")

    def add_common(p, fmt_default="json", limit_n=False):
        p.add_argument("--format", choices=("json", "plain"), default=fmt_default)
        p.add_argument("--out", default=None, help="write output to a file")
        if limit_n:
            p.add_argument("--limit-n", type=int, default=None, dest="limit_n",
                           help="lower the per-oracle size limits")

    p = sub.add_parser("bounds", help="invariants of one graph (graph6 or multigraph text)")
    p.add_argument("file", help="input path, '-' for stdin")
    add_common(p)

    p = sub.add_parser("oracle", help="exact chi, chi_f, alpha")
    p.add_argument("file")
    add_common(p, limit_n=True)

    p = sub.add_parser("frac", help="run the constructive fractional colouring")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true")
    add_common(p)

    p = sub.add_parser("edgecolour", help="edge-colour a multigraph at the nine-expression bound")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true")
    add_common(p, fmt_default="plain")

    p = sub.add_parser("linegraph", help="emit the line graph as graph6")
    p.add_argument("file")
    p.add_argument("--verify", action="store_true")
    add_common(p, fmt_default="plain")

    p = sub.add_parser("search", help="verify claims over an enumeration or corpus")
    add_source(p, "--all-classes", "include disconnected graphs in the enumeration")
    p.add_argument("--claims", default=None,
                   help="comma list; names or tokens like conj3, thm4")
    add_common(p, limit_n=True)

    p = sub.add_parser("gen", help="emit an enumeration or seeded corpus")
    add_source(p, "--connected", "only connected graphs in the enumeration")
    p.add_argument("--out", default=None)
    p.set_defaults(format="plain")

    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        text = globals()[f"cmd_{args.command}"](args)
        out_path = getattr(args, "out", None)
        if out_path and args.command != "search":
            _write_text(out_path, text)
        else:
            sys.stdout.write(text)
    except (GraphFormatError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return 2
    except InternalBugError as exc:
        print(f"bug signal: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
