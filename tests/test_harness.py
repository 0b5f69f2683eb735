import io
import json
import re
import sys
from pathlib import Path
from fractions import Fraction

import pytest

from superlocal import (
    CheckFlags,
    DomainError,
    Finding,
    InternalBugError,
    Multigraph,
    SimpleGraph,
    SizeLimitError,
    check_graph,
    check_multigraph,
    enumerate_graph_classes,
    frac_str,
    gamma_bar_ll,
    gamma_ll,
    multigraph_line,
    random_corpus,
    report_to_dict,
    reverify_finding,
    search_counterexamples,
    stability_number,
    summary_to_dict,
    to_graph6,
    write_reports,
)
from superlocal import cli, harness
from superlocal.harness import MULTI_CLAIMS, SIMPLE_CLAIMS, _colourable_backtrack
from bruteforce import (
    bf_chi_prime,
    bf_chi_prime_cut,
    bf_edge_mask,
    bf_graph_of_edge_mask,
    bf_isomorphic,
    bf_isomorphism_classes,
    bf_orbit_minimum,
    bf_perm_edge_maps,
)
from conftest import (
    complete,
    count_validations,
    corrupted_fractional_colour,
    cycle,
    path,
    petersen,
)
import orderly

README = Path(__file__).resolve().parent.parent / "README.md"

def is_c5(g):
    """Whether g is a 5-cycle, under any labelling."""
    return g.n == 5 and all(g.degree(v) == 2 for v in range(5)) and g.is_connected()


# class counts for n = 1..8: all graphs, then connected only
ALL_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]

# The harness bindings through which check_graph computes each claim's
# values; graph_bounds runs for every claim, the matching only when
# alpha <= 2.
CLAIM_CALLS = {
    "frac-bound": (
        "fractional_chromatic_solution",
        "superlocal_fractional_colour",
        "verify_fractional_colouring",
    ),
    "superlocal-chi": ("chromatic_number",),
    "clique-average": ("fractional_chromatic_solution", "clique_average_bound"),
    "round-up": ("chromatic_number", "fractional_chromatic_solution"),
    "interval-chi": ("chromatic_number",),
    "alpha2-chi": ("stability_number", "chromatic_number"),
    "question-bound": ("fractional_chromatic_solution", "subgraph_neighbourhood_bound"),
}
TRACED_BINDINGS = (
    "chromatic_number",
    "stability_number",
    "fractional_chromatic_solution",
    "superlocal_fractional_colour",
    "verify_fractional_colouring",
    "clique_average_bound",
    "subgraph_neighbourhood_bound",
    "chi_via_complement_matching",
    "graph_bounds",
)


class TestEnumeration:
    def test_class_counts(self):
        for n in range(1, 8):
            graphs = enumerate_graph_classes(n)
            masks = [bf_edge_mask(g) for g in graphs]
            assert len(masks) == ALL_COUNTS[n - 1]
            assert all(a < b for a, b in zip(masks, masks[1:]))

    def test_connected_counts(self):
        for n in range(1, 8):
            assert len(enumerate_graph_classes(n, connected_only=True)) == CONNECTED_COUNTS[n - 1]

    def test_n8_count(self):
        assert len(enumerate_graph_classes(8)) == ALL_COUNTS[7]

    def test_matches_pairwise_dedup_bruteforce(self):
        for n in (1, 2, 3, 4):
            every = [
                bf_graph_of_edge_mask(n, mask)
                for mask in range(1 << (n * (n - 1) // 2))
            ]
            assert len(bf_isomorphism_classes(every)) == len(
                enumerate_graph_classes(n)
            )

    def test_representatives_pairwise_nonisomorphic(self):
        reps = enumerate_graph_classes(5)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not bf_isomorphic(reps[i], reps[j])

    def test_rejected_candidates_are_not_orbit_minima(self):
        # every neighbourhood s that the two rejections drop for a parent P
        # gives a candidate (P << m) | s with a smaller image
        dropped = 0
        for n in range(2, 7):
            m = n - 1
            maps = bf_perm_edge_maps(n)
            for parent in enumerate_graph_classes(m):
                kept = set(orderly._candidate_neighbourhoods(list(parent.adj)))
                for s in set(range(1 << m)) - kept:
                    candidate = (bf_edge_mask(parent) << m) | s
                    assert bf_orbit_minimum(candidate, maps) < candidate
                    dropped += 1
        assert dropped > 0

    def test_each_rejection_fires_alone(self):
        # two isolated vertices: alpha = m turns the stable-set rule off, and
        # the twins drop s = {1}, which swaps down to {0}
        assert orderly._candidate_neighbourhoods([0, 0]) == [0, 1, 3]
        # an edge: s = {0} has no twin fault but misses the stable set {1}
        assert orderly._candidate_neighbourhoods([0b10, 0b01]) == [3]

    def test_representatives_are_orbit_minima(self):
        for n in (3, 4, 5, 6):
            maps = bf_perm_edge_maps(n)
            for g in enumerate_graph_classes(n):
                assert bf_edge_mask(g) == bf_orbit_minimum(bf_edge_mask(g), maps)

    def test_bounds(self):
        with pytest.raises(DomainError):
            enumerate_graph_classes(0)
        with pytest.raises(SizeLimitError):
            enumerate_graph_classes(9)


class TestCorpora:
    def test_deterministic(self):
        for kind in ("simple", "multigraph", "circular_interval", "co_triangle_free"):
            a = random_corpus(kind, seed=11, count=12)
            b = random_corpus(kind, seed=11, count=12)
            assert a == b
            c = random_corpus(kind, seed=12, count=12)
            assert a != c

    def test_simple_extremes(self):
        for g in random_corpus("simple", seed=3, count=6, p=1):
            assert g.edge_count == g.n * (g.n - 1) // 2
        for g in random_corpus("simple", seed=3, count=6, p=0):
            assert g.edge_count == 0

    def test_multigraph_constraints(self):
        for mg in random_corpus("multigraph", seed=5, count=40):
            assert 2 <= mg.n <= 8
            assert 1 <= mg.edge_count <= 28

    def test_multigraph_needs_two_vertices(self):
        # a loopless edge needs two vertices, so n = 1 is refused, not
        # quietly raised to 2
        for count in (0, 1):
            with pytest.raises(DomainError, match="n >= 2"):
                random_corpus("multigraph", seed=1, count=count, n=1)
        for mg in random_corpus("multigraph", seed=5, count=10, n=2):
            assert mg.n == 2 and mg.edge_count >= 1

    def test_co_triangle_free_alpha(self):
        for g in random_corpus("co_triangle_free", seed=9, count=25):
            assert stability_number(g) <= 2

    def test_circular_interval_sizes(self):
        for g in random_corpus("circular_interval", seed=13, count=25):
            assert 1 <= g.n <= 10

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            random_corpus("nope", seed=1, count=1)
        with pytest.raises(DomainError):
            random_corpus("simple", seed=1, count=-1)
        with pytest.raises(DomainError):
            random_corpus("simple", seed=1, count=1, mu_max=2)
        with pytest.raises(DomainError):
            random_corpus("simple", seed=1, count=1, n=0)
        for kind in ("simple", "multigraph", "co_triangle_free"):
            for count in (0, 1):
                for p in (2, Fraction(-1, 2)):
                    with pytest.raises(DomainError):
                        random_corpus(kind, seed=1, count=count, p=p)
        for params in (
            {"max_edges": -1},
            {"max_edges": 0},
            {"mu_max": 0},
            {"n": Fraction(3, 2)},
            {"mu_max": Fraction(5, 2)},
            {"max_edges": Fraction(7, 2)},
        ):
            with pytest.raises(DomainError):
                random_corpus("multigraph", seed=1, count=1, **params)


class TestCheckGraph:
    def test_cycle5(self):
        r = check_graph(cycle(5))
        assert r.encoding == "Dhc"
        assert r.chi == 3
        assert r.chi_f == Fraction(5, 2)
        assert r.alpha == 2
        assert r.frac_total == Fraction(5, 2)
        assert report_to_dict(r)["frac_valid"] is True
        assert r.clique_average == Fraction(5, 2)
        assert r.question_value == Fraction(5, 2)
        assert r.bounds.gamma_ll == 3
        assert not r.bug
        assert r.verdicts == {
            "frac-bound": "holds",
            "superlocal-chi": "holds",
            "clique-average": "holds",
            "round-up": "not-applicable",
            "interval-chi": "not-applicable",
            "alpha2-chi": "holds",
            "question-bound": "holds",
        }

    def test_one_clique_search_per_vertex_and_one_for_alpha(self, monkeypatch):
        # chi's lower bound, the construction and the clique average all
        # read the omega vector that graph_bounds filled
        from superlocal import graphs, oracles

        real = graphs.maximum_cliques
        calls = []

        def counted(adj, mask, ties=False):
            calls.append(mask)
            return real(adj, mask, ties)

        monkeypatch.setattr(graphs, "maximum_cliques", counted)
        monkeypatch.setattr(oracles, "maximum_cliques", counted)
        r = check_graph(petersen())
        assert len(calls) == 10 + 1
        assert (r.bounds.omega, r.chi, r.alpha) == (2, 3, 4)

    def test_one_dsatur_colouring_per_graph(self, monkeypatch, capsys):
        # chi's upper bound and the chi_f certificate read the colouring
        # that the graph keeps; petersen takes the LP route and the branch
        # and bound, C6 the integral route
        from superlocal import graphs

        real = graphs._dsatur_greedy
        calls = []

        def counted(adj, n):
            calls.append(n)
            return real(adj, n)

        monkeypatch.setattr(graphs, "_dsatur_greedy", counted)
        r = check_graph(petersen())
        assert calls == [10]
        assert (r.chi, r.chi_f) == (3, Fraction(5, 2))
        calls.clear()
        r = check_graph(cycle(6))
        assert calls == [6]
        assert (r.chi, r.chi_f) == (2, 2)
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(petersen()) + "\n"))
        assert cli.main(["oracle", "-"]) == 0
        assert calls == [10]
        assert json.loads(capsys.readouterr().out)["chi_f"] == "5/2"

    def test_cycle5_as_circular_interval(self):
        r = check_graph(cycle(5), CheckFlags(circular_interval=True))
        assert r.verdicts["round-up"] == "holds"
        assert r.verdicts["interval-chi"] == "holds"

    def test_limits_mark_not_applicable(self):
        flags = CheckFlags(limit_n=4)
        r = check_graph(cycle(5), flags)
        assert r.chi is None
        assert r.question_value is None
        assert r.verdicts["superlocal-chi"] == "not-applicable"
        assert r.verdicts["question-bound"] == "not-applicable"

    def test_oracle_refusals_leave_null_and_not_applicable(self):
        # K_21 is above the limits of chi (16), the scan (12) and the
        # complement matching (20), but not of alpha or chi_f (24): each
        # refusal inside check_graph is a null value, not an error
        r = check_graph(complete(21))
        assert (r.chi, r.question_value) == (None, None)
        assert (r.alpha, r.chi_f) == (1, 21)
        for claim in ("superlocal-chi", "question-bound", "alpha2-chi"):
            assert r.verdicts[claim] == "not-applicable"
        assert r.verdicts["frac-bound"] == "holds"
        assert not r.bug

    def test_limit_n_refuses_exactly_above_each_oracle_limit(self, classes6):
        # each limited value is None exactly when n > min(its limit, N);
        # a claim reading one of them is then not-applicable, and every
        # other value is the unlimited report's
        from superlocal import invariants, oracles, stable_sets

        limits = {
            "chi": oracles.CHROMATIC_VERTEX_LIMIT,
            "alpha": stable_sets.ENUMERATION_VERTEX_LIMIT,
            "chi_f": stable_sets.ENUMERATION_VERTEX_LIMIT,
            "question_value": invariants.SUBGRAPH_SCAN_LIMIT,
        }
        for g in classes6:
            full = report_to_dict(check_graph(g))
            for limit_n in range(8):
                d = report_to_dict(check_graph(g, CheckFlags(limit_n=limit_n)))
                refused = {k for k, lim in limits.items() if g.n > min(lim, limit_n)}
                assert {k for k in limits if d[k] is None} == refused
                expected = {k: v for k, v in full.items() if k not in refused}
                expected["verdicts"] = {
                    claim: "not-applicable"
                    if set(harness.CLAIMS[claim].needs) & refused
                    else verdict
                    for claim, verdict in full["verdicts"].items()
                }
                assert {k: v for k, v in d.items() if k not in refused} == expected

    def test_negative_limit_n_is_a_domain_error(self):
        with pytest.raises(DomainError, match="must be nonnegative"):
            CheckFlags(limit_n=-1)
        with pytest.raises(DomainError, match="must be nonnegative"):
            CheckFlags()._replace(limit_n=-1)
        with pytest.raises(DomainError, match="unknown claim 'bogus'"):
            CheckFlags()._replace(claims=("bogus",))

    def test_claim_selection(self):
        r = check_graph(cycle(5), CheckFlags(claims=("superlocal-chi",)))
        assert set(r.verdicts) == {"superlocal-chi"}

    def test_claims_table_matches_readme_and_reverifier(self):
        # the section's first table: claim, alias, statement
        section = README.read_text(encoding="utf-8").split("\n## Claims\n")[1]
        table = next(block for block in section.split("\n\n") if block.startswith("|"))
        rows = re.findall(r"^\| `([a-z0-9-]+)` +\| (?:`([a-z0-9]+)`)? +\|", table, re.M)
        assert rows == [(name, c.alias or "") for name, c in harness.CLAIMS.items()]
        report = check_graph(cycle(5))
        for name, c in harness.CLAIMS.items():
            if c.proven:
                with pytest.raises(DomainError, match="no independent re-verifier"):
                    reverify_finding(cycle(5), name, report)
            else:
                assert reverify_finding(cycle(5), name, report) is False
            assert bool(c.needs) == (not c.multi)

    @pytest.mark.parametrize("check, graph", [
        (check_graph, cycle(5)),
        (check_multigraph, Multigraph(2, [(0, 1)])),
    ])
    def test_unknown_claim_is_refused(self, check, graph):
        # a misspelt name is refused when the flags are built, so neither
        # entry point returns a report that lacks its verdict
        with pytest.raises(DomainError, match="unknown claim 'superlocal_chi'"):
            check(graph, CheckFlags(claims=("superlocal_chi",)))

    @pytest.mark.parametrize("claim", SIMPLE_CLAIMS)
    def test_each_claim_computes_only_what_it_reads(self, monkeypatch, claim):
        calls = {}
        for name in TRACED_BINDINGS:
            real = getattr(harness, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        # Petersen has alpha = 4, so alpha2-chi never reaches the matching
        r = check_graph(petersen(), CheckFlags(claims=(claim,), circular_interval=True))
        assert set(r.verdicts) == {claim}
        assert calls == dict.fromkeys(CLAIM_CALLS[claim] + ("graph_bounds",), 1)

    def test_unrequested_values_serialize_as_null(self):
        r = check_graph(cycle(5), CheckFlags(claims=("superlocal-chi",)))
        assert r.chi == 3
        d = report_to_dict(r)
        for key in ("chi_f", "alpha", "frac_total", "frac_valid", "clique_average",
                    "question_value"):
            assert d[key] is None
        assert write_reports([r])[1].splitlines()[1] == "Dhc,3,,3,5/2,,holds"

    def test_alpha3_not_applicable(self):
        r = check_graph(path(5))
        assert r.verdicts["alpha2-chi"] == "not-applicable"

    def test_one_verification_per_graph(self, monkeypatch):
        frac_colour = sys.modules["superlocal.frac_colour"]
        real = frac_colour.verify_fractional_colouring
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        # the harness and the construction each look the name up in their own module
        monkeypatch.setattr(harness, "verify_fractional_colouring", counted)
        monkeypatch.setattr(frac_colour, "verify_fractional_colouring", counted)
        r = check_graph(cycle(5))
        assert len(calls) == 1
        assert r.frac_total == Fraction(5, 2)
        assert report_to_dict(r)["frac_valid"] is True

    def test_invalid_weighting_is_a_bug_signal(self, monkeypatch):
        monkeypatch.setattr(harness, "superlocal_fractional_colour", corrupted_fractional_colour)
        # whatever chi_f is: a refused LP must not turn it into not-applicable
        for flags in (CheckFlags(), CheckFlags(limit_n=3)):
            with pytest.raises(InternalBugError, match="invalid weighting"):
                check_graph(cycle(5), flags)


class TestCheckMultigraph:
    def test_path(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        r = check_multigraph(mg)
        assert r.encoding == "n 3 / 0 1 1 / 1 2 1"
        assert r.gamma_bar_ll == 2
        assert r.line_graph_gamma_ll == 2
        assert r.colours_used == 2
        assert r.verdicts == {"edge-colour": "holds", "line-graph-match": "holds"}

    def test_edgeless(self):
        r = check_multigraph(Multigraph(4))
        assert r.m == 0
        assert r.gamma_bar_ll is None
        assert all(v == "not-applicable" for v in r.verdicts.values())
        assert not r.bug

    def test_fat_triangle(self):
        mg = Multigraph(3, [(0, 1), (0, 2), (1, 2)] * 2)
        r = check_multigraph(mg)
        assert r.gamma_bar_ll == 6
        assert r.colours_used == 6
        assert bf_chi_prime_cut(mg) == 6

    def test_one_gamma_bar_ll_per_multigraph(self, monkeypatch):
        calls = []

        def counted(mg):
            calls.append(mg)
            return gamma_bar_ll(mg)

        # the harness and edge_colour each look the name up in their own module
        monkeypatch.setattr(harness, "gamma_bar_ll", counted)
        monkeypatch.setattr(sys.modules["superlocal.edge_colour"], "gamma_bar_ll", counted)
        mg = Multigraph(3, [(0, 1), (0, 2), (1, 2)] * 2)
        for claims in (MULTI_CLAIMS, ("edge-colour",), ("line-graph-match",)):
            calls.clear()
            r = check_multigraph(mg, CheckFlags(claims=claims))
            assert len(calls) == 1
            assert r.gamma_bar_ll == 6
            assert not r.bug

    def test_one_validation_per_multigraph(self, monkeypatch):
        # edge_colour validates its finished colouring; the harness adds none
        calls = count_validations(monkeypatch)
        r = check_multigraph(Multigraph(3, [(0, 1), (0, 2), (1, 2)] * 2))
        assert r.verdicts["edge-colour"] == "holds"
        assert len(calls) == 1

    def test_refused_line_graph_is_not_applicable(self):
        dipole = Multigraph(2, [(0, 1)] * 1000)
        r = check_multigraph(dipole, CheckFlags(claims=("line-graph-match",)))
        assert r.verdicts == {"line-graph-match": "not-applicable"}
        assert r.line_graph_gamma_ll is None
        assert not r.bug


class TestChiPrimeBruteforce:
    """The symmetry-cut chi' backtracking that the tests check chi' with."""

    def test_fixtures(self):
        assert bf_chi_prime_cut(Multigraph(3)) == 0
        assert bf_chi_prime_cut(Multigraph.of_simple(cycle(5))) == 3
        assert bf_chi_prime_cut(Multigraph.of_simple(complete(4))) == 3
        assert bf_chi_prime_cut(Multigraph(4, [(0, 1), (0, 2), (0, 3)])) == 3
        assert bf_chi_prime_cut(Multigraph(2, [(0, 1)] * 3)) == 3
        assert bf_chi_prime_cut(Multigraph.of_simple(path(4))) == 2

    def test_matches_plain_backtracking(self):
        for mg in random_corpus("multigraph", seed=31, count=20, n=5, max_edges=9):
            assert bf_chi_prime_cut(mg) == bf_chi_prime(mg)


class TestReverify:
    def test_rejects_consistent_reports(self):
        # claims hold on C_5, so a "finding" must fail re-verification
        r = check_graph(cycle(5))
        assert reverify_finding(cycle(5), "superlocal-chi", r) is False
        assert reverify_finding(cycle(5), "clique-average", r) is False
        assert reverify_finding(cycle(5), "question-bound", r) is False

    def test_rejects_tampered_bound(self):
        r = check_graph(cycle(5))
        fake = r._replace(bounds=r.bounds._replace(gamma_ll=2))
        assert reverify_finding(cycle(5), "superlocal-chi", fake) is False

    def test_unknown_claim(self):
        r = check_graph(cycle(5))
        with pytest.raises(DomainError):
            reverify_finding(cycle(5), "frac-bound", r)

    def test_gamma_ll_on_empty_and_edgeless_graphs(self):
        for g, value in ((SimpleGraph(0), 0), (SimpleGraph(3), 1)):
            assert harness._gamma_ll_subsets(g) == value == gamma_ll(g)

    @pytest.mark.parametrize(
        "claim, field", [("clique-average", "clique_average"), ("question-bound", "question_value")]
    )
    def test_rejects_a_value_its_brute_force_disagrees_with(self, claim, field):
        # chi_f = 3 exceeds the true value 5/2 on C5, so the finding stands
        # until the report's own value disagrees with the brute force
        r = check_graph(cycle(5))._replace(chi_f=Fraction(3))
        assert reverify_finding(cycle(5), claim, r) is True
        fake = r._replace(**{field: Fraction(2)})
        assert reverify_finding(cycle(5), claim, fake) is False

    def test_backtracking_colourability(self):
        assert not _colourable_backtrack(cycle(5), 2)
        assert _colourable_backtrack(cycle(5), 3)
        assert not _colourable_backtrack(complete(4), 3)
        assert _colourable_backtrack(complete(4), 4)
        assert _colourable_backtrack(SimpleGraph(3), 1)
        assert _colourable_backtrack(SimpleGraph(0), 0)
        assert not _colourable_backtrack(SimpleGraph(2), 0)


class TestSearch:
    def test_small_classes_zero_findings(self):
        space = [g for n in range(1, 6) for g in enumerate_graph_classes(n)]
        summary = search_counterexamples(space, CheckFlags(claims=SIMPLE_CLAIMS))
        assert summary.total == 52
        assert summary.findings == ()
        for claim, counts in summary.verdict_counts.items():
            assert counts["violated"] == 0
            assert sum(counts.values()) == 52

    def test_multigraph_corpus(self):
        space = random_corpus("multigraph", seed=41, count=30)
        summary = search_counterexamples(space, CheckFlags(claims=MULTI_CLAIMS))
        assert summary.total == 30
        assert summary.findings == ()
        assert summary.verdict_counts["edge-colour"]["holds"] == 30

    def test_mixed_space(self):
        space = [cycle(5), Multigraph(3, [(0, 1), (1, 2)])]
        summary = search_counterexamples(space)
        assert summary.total == 2
        assert tuple(summary.verdict_counts) == SIMPLE_CLAIMS + MULTI_CLAIMS
        assert summary.verdict_counts["superlocal-chi"]["holds"] == 1
        assert summary.verdict_counts["edge-colour"]["holds"] == 1

    def test_summary_lists_the_claims_of_the_space(self):
        # the default flags request every claim; on simple graphs only the
        # simple ones get a verdict, so only they are counted
        summary = search_counterexamples([cycle(5)])
        assert tuple(summary.verdict_counts) == SIMPLE_CLAIMS
        assert sorted(summary_to_dict(summary)["verdicts"]) == sorted(SIMPLE_CLAIMS)
        assert all(sum(c.values()) == 1 for c in summary.verdict_counts.values())
        multi = search_counterexamples([Multigraph(3, [(0, 1), (1, 2)])])
        assert tuple(multi.verdict_counts) == MULTI_CLAIMS
        # an empty space has no kind of graph, so every requested claim stays
        empty = search_counterexamples([], CheckFlags(claims=MULTI_CLAIMS))
        assert tuple(empty.verdict_counts) == MULTI_CLAIMS

    def test_unknown_claim(self):
        with pytest.raises(DomainError):
            search_counterexamples([cycle(5)], CheckFlags(claims=("bogus",)))

    def test_open_claim_finding(self, monkeypatch, capsys):
        # no open claim fails on any corpus, so a lowered scan value on C5
        # (chi_f = 5/2 > 2) stands in for a counterexample
        real = harness.subgraph_neighbourhood_bound

        def lowered(g):
            return Fraction(2) if is_c5(g) else real(g)

        reverified = []
        monkeypatch.setattr(harness, "subgraph_neighbourhood_bound", lowered)
        monkeypatch.setattr(
            harness, "reverify_finding", lambda g, claim, r: not reverified.append(claim)
        )
        summary = search_counterexamples([cycle(5)], CheckFlags(claims=("question-bound",)))
        assert reverified == ["question-bound"]
        assert summary.findings == (
            Finding("Dhc", "question-bound", (("chi_f", "5/2"), ("question_value", "2/1"))),
        )
        assert summary.verdict_counts == {
            "question-bound": {"holds": 0, "violated": 1, "not-applicable": 0}
        }
        finding = {
            "encoding": "Dhc",
            "claim": "question-bound",
            "values": {"chi_f": "5/2", "question_value": "2/1"},
        }
        assert summary_to_dict(summary)["findings"] == [finding]

        argv = ["search", "--n", "5", "--claims", "question"]
        assert cli.main(argv) == 0
        d = json.loads(capsys.readouterr().out)
        # the enumeration's representative of C5 is not labelled as cycle(5)
        finding["encoding"] = "DLo"
        assert d["findings"] == [finding]
        assert d["verdicts"]["question-bound"] == {
            "holds": 20, "not-applicable": 0, "violated": 1
        }
        assert cli.main(argv + ["--format", "plain"]) == 0
        assert capsys.readouterr().out.splitlines()[:4] == [
            "findings.0.claim question-bound",
            "findings.0.encoding DLo",
            "findings.0.values.chi_f 5/2",
            "findings.0.values.question_value 2/1",
        ]


    def test_violated_proven_claim_is_a_bug_signal(self, monkeypatch, capsys):
        # chi_f = 3 on C5 would break chi_f <= gamma'_ll = 5/2, which is proven
        real = harness.fractional_chromatic_solution

        def raised(g):
            sol = real(g)
            return sol._replace(value=Fraction(3)) if is_c5(g) else sol

        monkeypatch.setattr(harness, "fractional_chromatic_solution", raised)
        with pytest.raises(InternalBugError, match="^proven claim frac-bound violated on Dhc$"):
            search_counterexamples([cycle(5)], CheckFlags(claims=("frac-bound",)))
        assert cli.main(["search", "--n", "5", "--claims", "frac-bound"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "bug signal: proven claim frac-bound violated on DLo\n"

    def test_finding_that_fails_reverification_is_a_bug_signal(self, monkeypatch):
        # chi = 4 on C5 breaks chi <= gamma_ll = 3, but the brute-force
        # re-verifier 3-colours C5, so the finding is a bug, not a result
        real = harness.chromatic_number
        monkeypatch.setattr(harness, "chromatic_number", lambda g: (4, real(g)[1]))
        text = "^finding for superlocal-chi on Dhc failed independent re-verification$"
        with pytest.raises(InternalBugError, match=text):
            search_counterexamples([cycle(5)], CheckFlags(claims=("superlocal-chi",)))

    @pytest.mark.parametrize(
        "name, claim",
        [("clique_average_bound", "clique-average"), ("subgraph_neighbourhood_bound", "question-bound")],
    )
    def test_wrong_bound_fails_reverification(self, monkeypatch, name, claim):
        # a bound of 2 on C5 reads the claim violated (chi_f = 5/2); the
        # brute force recomputes 5/2, so the finding is a bug, not a result
        monkeypatch.setattr(harness, name, lambda g: Fraction(2))
        text = f"^finding for {claim} on Dhc failed independent re-verification$"
        with pytest.raises(InternalBugError, match=text):
            search_counterexamples([cycle(5)], CheckFlags(claims=(claim,)))


class TestSerialization:
    def test_frac_str(self):
        assert frac_str(Fraction(5, 2)) == "5/2"
        assert frac_str(3) == "3/1"
        assert frac_str(Fraction(-1, 3)) == "-1/3"

    def test_multigraph_line(self):
        assert multigraph_line(Multigraph(2, [(0, 1)])) == "n 2 / 0 1 1"

    def test_report_dict_cycle5(self):
        d = report_to_dict(check_graph(cycle(5)))
        assert d["encoding"] == "Dhc"
        assert d["chi"] == 3
        assert d["chi_f"] == "5/2"
        assert d["gamma_ll_prime"] == "5/2"
        assert d["gamma_ll"] == 3
        assert d["frac_total"] == "5/2"
        assert d["clique_average"] == "5/2"
        assert "timings" not in d and "timings_us" not in d

    def test_no_floats_anywhere(self):
        reports = [check_graph(g) for g in enumerate_graph_classes(4)]
        reports.append(check_multigraph(Multigraph(3, [(0, 1), (1, 2)])))

        def walk(x):
            assert not isinstance(x, float)
            if isinstance(x, dict):
                for k, v in x.items():
                    walk(k)
                    walk(v)
            elif isinstance(x, (list, tuple)):
                for v in x:
                    walk(v)

        for line in write_reports(reports)[0].splitlines():
            walk(json.loads(line))

    def test_jsonl_sorted_and_stable(self):
        reports = [check_graph(g) for g in enumerate_graph_classes(4)]
        a, _ = write_reports(reports)
        b, _ = write_reports(list(reversed(reports)))
        assert a == b
        encodings = [json.loads(line)["encoding"] for line in a.splitlines()]
        assert encodings == sorted(encodings)
        assert a.endswith("\n")
        assert write_reports([])[0] == ""

    def test_csv_shape(self):
        reports = [check_graph(cycle(5)), check_multigraph(Multigraph(2, [(0, 1)]))]
        _, text = write_reports(reports)
        lines = text.splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[:6] == [
            "encoding",
            "chi",
            "chi_f",
            "gamma_ll",
            "gamma_ll_prime",
            "clique_average",
        ]
        assert header[6:] == sorted(header[6:])
        assert lines[2].startswith("n 2 / 0 1 1,,,,,,")
        assert write_reports(reports)[1] == text

    def test_write_reports(self, tmp_path):
        reports = [check_graph(cycle(4))]
        jl_path = tmp_path / "out.jsonl"
        cv_path = tmp_path / "out.csv"
        jl, cv = write_reports(reports, jsonl_path=jl_path, csv_path=cv_path)
        assert jl_path.read_text(encoding="ascii") == jl
        assert cv_path.read_text(encoding="ascii") == cv

    def test_summary_dict(self):
        summary = search_counterexamples([cycle(5)], CheckFlags(claims=("superlocal-chi",)))
        d = summary_to_dict(summary)
        assert d == {
            "total": 1,
            "verdicts": {
                "superlocal-chi": {
                    "holds": 1,
                    "not-applicable": 0,
                    "violated": 0,
                }
            },
            "findings": [],
        }

    def test_claims_keep_other_flags(self):
        # clique-average reads chi_f, and a limit of 3 vertices refuses C5's LP
        flags = CheckFlags(claims=("clique-average",), limit_n=3)
        summary = search_counterexamples([cycle(5)], flags)
        assert summary.reports[0].chi_f is None
        default = search_counterexamples([cycle(5)], CheckFlags(claims=("clique-average",)))
        assert default.reports[0].chi_f == Fraction(5, 2)
