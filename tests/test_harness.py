import dataclasses
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from superlocal import (
    CheckFlags,
    DomainError,
    InternalBugError,
    Multigraph,
    SimpleGraph,
    SizeLimitError,
    check_graph,
    check_multigraph,
    chi_prime_bruteforce,
    enumerate_connected_graphs,
    enumerate_graph_classes,
    frac_str,
    gamma_bar_ll,
    multigraph_line,
    perm_edge_maps,
    random_corpus,
    report_to_dict,
    reports_csv,
    reports_jsonl,
    reverify_finding,
    search_counterexamples,
    stability_number,
    summary_to_dict,
    write_reports,
)
from superlocal import _kernels, harness
from superlocal.harness import MULTI_CLAIMS, SIMPLE_CLAIMS, _colourable_backtrack
from bruteforce import bf_chi_prime, bf_isomorphic, bf_isomorphism_classes
from conftest import complete, cycle, path, petersen

# class counts for n = 1..8: all graphs, then connected only
ALL_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]


class TestEnumeration:
    def test_class_counts(self):
        for n in range(1, 8):
            assert len(enumerate_graph_classes(n)) == ALL_COUNTS[n - 1]

    def test_connected_counts(self):
        for n in range(1, 8):
            assert len(enumerate_connected_graphs(n)) == CONNECTED_COUNTS[n - 1]

    @pytest.mark.skipif(not _kernels.HAVE_JIT, reason="needs the jit backend")
    def test_n8_count(self):
        assert len(enumerate_graph_classes(8)) == ALL_COUNTS[7]

    def test_matches_pairwise_dedup_bruteforce(self):
        for n in (1, 2, 3, 4):
            every = [
                SimpleGraph.from_edge_mask(n, mask)
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

    def test_representatives_are_orbit_minima(self):
        for n in (3, 4, 5):
            pm = perm_edge_maps(n)
            pow2 = 1 << np.arange(pm.shape[1], dtype=np.int64)
            for g in enumerate_graph_classes(n):
                mask = g.edge_mask()
                bits = [i for i in range(pm.shape[1]) if mask >> i & 1]
                images = pow2[pm[:, bits]].sum(axis=1) if bits else np.zeros(1)
                assert mask == int(images.min())

    def test_bounds(self):
        with pytest.raises(DomainError):
            enumerate_graph_classes(0)
        with pytest.raises(SizeLimitError):
            enumerate_graph_classes(9)

    def test_backends_agree(self):
        if not _kernels.HAVE_JIT:
            pytest.skip("needs both backends")
        for n in (2, 4, 5):
            jit = enumerate_graph_classes(n, backend="jit")
            pure = enumerate_graph_classes(n, backend="pure")
            assert jit == pure


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
        with pytest.raises(DomainError):
            random_corpus("simple", seed=1, count=1, p=2)


class TestCheckGraph:
    def test_cycle5(self):
        r = check_graph(cycle(5))
        assert r.encoding == "Dhc"
        assert r.chi == 3
        assert r.chi_f == Fraction(5, 2)
        assert r.alpha == 2
        assert r.frac_total == Fraction(5, 2)
        assert r.frac_valid is True
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

    def test_cycle5_as_circular_interval(self):
        r = check_graph(cycle(5), CheckFlags(circular_interval=True))
        assert r.verdicts["round-up"] == "holds"
        assert r.verdicts["interval-chi"] == "holds"

    def test_limits_mark_not_applicable(self):
        flags = CheckFlags(chromatic_limit=3, question_limit=4)
        r = check_graph(cycle(5), flags)
        assert r.chi is None
        assert r.question_value is None
        assert r.verdicts["superlocal-chi"] == "not-applicable"
        assert r.verdicts["question-bound"] == "not-applicable"

    def test_claim_selection(self):
        r = check_graph(cycle(5), CheckFlags(claims=("superlocal-chi",)))
        assert set(r.verdicts) == {"superlocal-chi"}

    def test_alpha3_not_applicable(self):
        r = check_graph(path(5))
        assert r.verdicts["alpha2-chi"] == "not-applicable"

    def test_timings_are_integers(self):
        r = check_graph(cycle(5))
        assert r.timings_us
        assert all(isinstance(t, int) for t in r.timings_us.values())


class TestCheckMultigraph:
    def test_path(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        r = check_multigraph(mg)
        assert r.encoding == "n 3 / 0 1 1 / 1 2 1"
        assert r.gamma_bar_ll == 2
        assert r.line_graph_gamma_ll == 2
        assert r.colours_used == 2
        assert r.chi_prime is None  # brute cross-check disabled by default
        assert r.verdicts == {
            "edge-colour": "holds",
            "line-graph-match": "holds",
            "chi-prime-bound": "not-applicable",
        }

    def test_chi_prime_enabled(self):
        mg = Multigraph(3, [(0, 1), (1, 2)])
        r = check_multigraph(mg, CheckFlags(chi_prime_edge_limit=10))
        assert r.chi_prime == 2
        assert r.verdicts["chi-prime-bound"] == "holds"

    def test_edgeless(self):
        r = check_multigraph(Multigraph(4))
        assert r.m == 0
        assert r.gamma_bar_ll is None
        assert all(v == "not-applicable" for v in r.verdicts.values())
        assert not r.bug

    def test_fat_triangle(self):
        mg = Multigraph(3, [(0, 1), (0, 2), (1, 2)] * 2)
        r = check_multigraph(mg, CheckFlags(chi_prime_edge_limit=10))
        assert r.gamma_bar_ll == 6
        assert r.colours_used == 6
        assert r.chi_prime == 6

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


class TestChiPrimeBruteforce:
    def test_fixtures(self):
        assert chi_prime_bruteforce(Multigraph(3)) == 0
        assert chi_prime_bruteforce(Multigraph.of_simple(cycle(5))) == 3
        assert chi_prime_bruteforce(Multigraph.of_simple(complete(4))) == 3
        assert chi_prime_bruteforce(Multigraph(4, [(0, 1), (0, 2), (0, 3)])) == 3
        assert chi_prime_bruteforce(Multigraph(2, [(0, 1)] * 3)) == 3
        assert chi_prime_bruteforce(Multigraph.of_simple(path(4))) == 2

    def test_matches_plain_backtracking(self):
        for mg in random_corpus("multigraph", seed=31, count=20, n=5, max_edges=9):
            assert chi_prime_bruteforce(mg) == bf_chi_prime(mg)

    def test_step_cap(self):
        with pytest.raises(SizeLimitError):
            chi_prime_bruteforce(Multigraph.of_simple(cycle(5)), cap=1)

    def test_backends_agree(self):
        if not _kernels.HAVE_JIT:
            pytest.skip("needs both backends")
        for mg in random_corpus("multigraph", seed=33, count=10, n=5, max_edges=8):
            assert chi_prime_bruteforce(mg, backend="jit") == chi_prime_bruteforce(
                mg, backend="pure"
            )


class TestReverify:
    def test_rejects_consistent_reports(self):
        # claims hold on C_5, so a "finding" must fail re-verification
        r = check_graph(cycle(5))
        assert reverify_finding(cycle(5), "superlocal-chi", r) is False
        assert reverify_finding(cycle(5), "clique-average", r) is False
        assert reverify_finding(cycle(5), "question-bound", r) is False

    def test_rejects_tampered_bound(self):
        r = check_graph(cycle(5))
        fake = dataclasses.replace(
            r, bounds=dataclasses.replace(r.bounds, gamma_ll=2)
        )
        assert reverify_finding(cycle(5), "superlocal-chi", fake) is False

    def test_unknown_claim(self):
        r = check_graph(cycle(5))
        with pytest.raises(DomainError):
            reverify_finding(cycle(5), "frac-bound", r)

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
        summary = search_counterexamples(space, claims=SIMPLE_CLAIMS)
        assert summary.total == 52
        assert summary.findings == ()
        for claim, counts in summary.verdict_counts.items():
            assert counts["violated"] == 0
            assert sum(counts.values()) == 52

    def test_multigraph_corpus(self):
        space = random_corpus("multigraph", seed=41, count=30)
        summary = search_counterexamples(space, claims=MULTI_CLAIMS)
        assert summary.total == 30
        assert summary.findings == ()
        assert summary.verdict_counts["edge-colour"]["holds"] == 30

    def test_mixed_space(self):
        space = [cycle(5), Multigraph(3, [(0, 1), (1, 2)])]
        summary = search_counterexamples(space)
        assert summary.total == 2
        assert summary.verdict_counts["superlocal-chi"]["holds"] == 1
        assert summary.verdict_counts["edge-colour"]["holds"] == 1

    def test_unknown_claim(self):
        with pytest.raises(DomainError):
            search_counterexamples([cycle(5)], claims=("bogus",))


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

        for line in reports_jsonl(reports).splitlines():
            walk(json.loads(line))

    def test_jsonl_sorted_and_stable(self):
        reports = [check_graph(g) for g in enumerate_graph_classes(4)]
        a = reports_jsonl(reports)
        b = reports_jsonl(list(reversed(reports)))
        assert a == b
        encodings = [json.loads(line)["encoding"] for line in a.splitlines()]
        assert encodings == sorted(encodings)
        assert a.endswith("\n")
        assert reports_jsonl([]) == ""

    def test_csv_shape(self):
        reports = [check_graph(cycle(5)), check_multigraph(Multigraph(2, [(0, 1)]))]
        text = reports_csv(reports)
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
        assert reports_csv(reports) == text

    def test_write_reports(self, tmp_path):
        reports = [check_graph(cycle(4))]
        jl_path = tmp_path / "out.jsonl"
        cv_path = tmp_path / "out.csv"
        jl, cv = write_reports(reports, jsonl_path=jl_path, csv_path=cv_path)
        assert jl_path.read_text(encoding="ascii") == jl
        assert cv_path.read_text(encoding="ascii") == cv

    def test_summary_dict(self):
        summary = search_counterexamples([cycle(5)], claims=("superlocal-chi",))
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
        # C5 has five maximal stable sets, so a limit of 1 refuses its LP
        flags = CheckFlags(lp_set_limit=1)
        summary = search_counterexamples([cycle(5)], claims=("superlocal-chi",), flags=flags)
        assert summary.reports[0].chi_f is None
        default = search_counterexamples([cycle(5)], claims=("superlocal-chi",))
        assert default.reports[0].chi_f == Fraction(5, 2)


@pytest.mark.skipif(not _kernels.HAVE_JIT, reason="needs both backends")
class TestBackendEquality:
    def test_matching(self):
        for g in [cycle(5), petersen(), complete(6), path(6)]:
            adj = np.array([g.adj_mask(v) for v in range(g.n)], np.int64)
            dp_a = np.zeros(1 << g.n, np.int32)
            dp_b = np.zeros(1 << g.n, np.int32)
            _kernels.matching_dp(adj, dp_a, backend="jit")
            _kernels.matching_dp(adj, dp_b, backend="pure")
            assert np.array_equal(dp_a, dp_b)

    def test_edge_feasible(self):
        mg = Multigraph.of_simple(cycle(5))
        eu = np.array([mg.endpoints(e)[0] for e in range(5)], np.int64)
        ev = np.array([mg.endpoints(e)[1] for e in range(5)], np.int64)
        for k in (2, 3):
            a = _kernels.edge_colouring_feasible(eu, ev, k, 5, 10**6, backend="jit")
            b = _kernels.edge_colouring_feasible(eu, ev, k, 5, 10**6, backend="pure")
            assert a == b == (1 if k == 3 else 0)
