import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import superlocal
from superlocal import Multigraph, cli, format_multigraph, parse_graph6, parse_multigraph, to_graph6
from superlocal.cli import main
from bruteforce import bf_isomorphic
from conftest import complete, count_validations, corrupted_fractional_colour, cycle, petersen


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.g6"
    p.write_text("Dhc\n", encoding="ascii")
    return str(p)


@pytest.fixture
def fat_triangle_file(tmp_path):
    p = tmp_path / "fat.mg"
    p.write_text("n 3\n0 1 2\n1 2 2\n0 2 2\n", encoding="ascii")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_simple_json(self, capsys, c5_file):
        code, out, _ = run(capsys, "bounds", c5_file)
        assert code == 0
        d = json.loads(out)
        assert d["kind"] == "simple"
        assert d["n"] == 5
        assert d["gamma_ll_prime"] == "5/2"
        assert d["gamma_ll"] == 3
        assert d["vertex_gamma_l_prime"] == ["5/2"] * 5

    def test_multigraph(self, capsys, fat_triangle_file):
        code, out, _ = run(capsys, "bounds", fat_triangle_file)
        assert code == 0
        d = json.loads(out)
        assert d == {"kind": "multigraph", "n": 3, "m": 6, "gamma_bar_ll": 6}

    def test_plain_format(self, capsys, c5_file):
        code, out, _ = run(capsys, "bounds", c5_file, "--format", "plain")
        assert code == 0
        assert "gamma_ll_prime 5/2\n" in out
        assert "vertex_degree 2 2 2 2 2\n" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\n"))
        code, out, _ = run(capsys, "bounds", "-")
        assert code == 0
        assert json.loads(out)["n"] == 5

    def test_multigraph_header_with_a_tab(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("n\t3\n0 1 2\n"))
        code, out, _ = run(capsys, "bounds", "-")
        assert code == 0
        d = json.loads(out)
        assert (d["kind"], d["n"], d["m"]) == ("multigraph", 3, 2)

    def test_graph6_line_starting_with_n(self, capsys, monkeypatch):
        # byte n is the graph6 size of a 47-vertex graph
        text = to_graph6(cycle(47))
        assert text[0] == "n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        code, out, _ = run(capsys, "bounds", "-")
        assert code == 0
        d = json.loads(out)
        assert (d["kind"], d["n"], d["m"]) == ("simple", 47, 47)

    def test_out_file(self, capsys, c5_file, tmp_path):
        target = tmp_path / "bounds.json"
        code, out, _ = run(capsys, "bounds", c5_file, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="ascii"))["n"] == 5

    def test_byte_stable(self, capsys, c5_file):
        _, a, _ = run(capsys, "bounds", c5_file)
        _, b, _ = run(capsys, "bounds", c5_file)
        assert a == b

    def test_one_clique_search_per_vertex(self, capsys, monkeypatch, tmp_path):
        # the per-vertex arrays and the maxima read one cached omega vector
        from superlocal import graphs

        real = graphs.max_clique_size
        calls = []

        def counted(adj, mask):
            calls.append(mask)
            return real(adj, mask)

        monkeypatch.setattr(graphs, "max_clique_size", counted)
        p = tmp_path / "petersen.g6"
        p.write_text(to_graph6(petersen()) + "\n", encoding="ascii")
        code, out, _ = run(capsys, "bounds", str(p))
        assert code == 0
        assert len(calls) == 10
        assert json.loads(out)["vertex_omega"] == [2] * 10

    def test_complete_graph_deeper_than_the_recursion_limit(self, tmp_path):
        # each clique search runs n - 1 levels deep; the searches keep
        # their frames on a stack of their own
        n = sys.getrecursionlimit() + 10
        p = tmp_path / "complete.g6"
        p.write_text(to_graph6(complete(n)) + "\n", encoding="ascii")
        src = Path(superlocal.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "superlocal.cli", "bounds", str(p)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
        assert "Traceback" not in done.stderr
        out = json.loads(done.stdout)
        assert (out["omega"], out["gamma_ll"]) == (n, n)


class TestOracle:
    def test_values(self, capsys, c5_file):
        code, out, _ = run(capsys, "oracle", c5_file)
        assert code == 0
        assert json.loads(out) == {"alpha": 2, "chi": 3, "chi_f": "5/2"}

    def test_limit_refusal(self, capsys, c5_file):
        code, _, err = run(capsys, "oracle", c5_file, "--limit-n", "3")
        assert code == 2
        assert "size refusal" in err

    def test_negative_limit_is_input_error(self, capsys, c5_file):
        for argv in (("oracle", c5_file), ("search", "--n", "3")):
            code, _, err = run(capsys, *argv, "--limit-n", "-1")
            assert code == 1
            assert "--limit-n must be nonnegative" in err

    def test_rejects_true_multigraph(self, capsys, fat_triangle_file):
        for command in ("oracle", "frac"):
            code, _, err = run(capsys, command, fat_triangle_file)
            assert code == 1
            assert "simple graph" in err

    def test_accepts_simple_multigraph_text(self, capsys, tmp_path):
        p = tmp_path / "p3.mg"
        p.write_text("n 3\n0 1 1\n1 2 1\n", encoding="ascii")
        code, out, _ = run(capsys, "oracle", str(p))
        assert code == 0
        assert json.loads(out)["chi"] == 2


class TestRefusalMemory:
    # support() spends about n^2/2 bits of adjacency masks on a sparse
    # graph, so oracle and frac refuse a large multigraph text before
    # building them and peak no higher than bounds, which keeps to the
    # multigraph; building the masks first peaks at about four times it
    n = 20000

    @pytest.fixture
    def matching_text(self):
        return f"n {self.n} / " + " / ".join(f"{2 * i} {2 * i + 1} 1" for i in range(self.n // 2))

    def traced(self, capsys, tmp_path, text, command, *options):
        p = tmp_path / "input.mg"
        p.write_text(text, encoding="ascii")
        tracemalloc.start()
        try:
            code = main([command, str(p), *options])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, capsys.readouterr().err, peak

    def test_refused_before_support(self, capsys, tmp_path, matching_text):
        code, _, bounds_peak = self.traced(capsys, tmp_path, matching_text, "bounds")
        assert code == 0
        for argv, message in (
            (("oracle",), "chromatic number limited to 16 vertices"),
            (("oracle", "--limit-n", "3"), "chromatic number limited to 3 vertices"),
            (("frac",), "stable set enumeration limited to 24 vertices"),
        ):
            code, err, peak = self.traced(capsys, tmp_path, matching_text, *argv)
            assert code == 2
            assert err == f"size refusal: {message}, got {self.n}\n"
            assert peak < 1.1 * bounds_peak

    def test_repeated_edge_is_still_an_input_error(self, capsys, tmp_path, matching_text):
        doubled = matching_text.replace(" 0 1 1 ", " 0 1 2 ", 1)
        for command in ("oracle", "frac"):
            code, err, _ = self.traced(capsys, tmp_path, doubled, command)
            assert code == 1
            assert err == "error: this subcommand needs a simple graph\n"


class TestFrac:
    def test_verified_run(self, capsys, c5_file):
        code, out, _ = run(capsys, "frac", c5_file, "--verify")
        assert code == 0
        d = json.loads(out)
        assert d["bound"] == "5/2"
        assert d["total"] == "5/2"
        assert d["wo"] == ["1/1"] * 5
        assert d["verified"] is True
        assert len(d["weights"]) == 5
        assert all(w["weight"] == "1/2" for w in d["weights"])
        [it] = d["iterations"]
        assert it["num_max_sets"] == 5
        assert it["val"] == "5/2"

    def test_plain(self, capsys, c5_file):
        code, out, _ = run(capsys, "frac", c5_file, "--format", "plain")
        assert code == 0
        assert "total 5/2\n" in out

    def test_plain_has_no_python_reprs(self, capsys, c5_file):
        code, out, _ = run(capsys, "frac", c5_file, "--verify", "--format", "plain")
        assert code == 0
        assert not any(ch in out for ch in "{'") and "True" not in out
        assert "iterations.0.low 5/2\n" in out
        assert "weights.0.set 0 2\n" in out
        assert "verified true\n" in out

    @pytest.mark.parametrize(
        "graph6, digests",
        [
            (
                "Dhc",  # C5: one round
                (
                    "a4309bdc6275d9f56fb1579cad51a8e30bfdc2fadbdc3f70481f632d13d9f4a0",
                    "ad739028c0e582cd1a383e49d1bfb448f8743e99ac7412c06ee7093591d43dca",
                ),
            ),
            (
                "IheA@GUAo",  # the Petersen graph: stops below its bound
                (
                    "df1206b324e79d364a3bd178fae8e4c0c9ab14c15b2d323b621b3e1a3c46496b",
                    "20c81663078f1df92cc0819ebc3166ebeb0ec9c0bf14ba15e5e44d94cca5e574",
                ),
            ),
            (
                "UGHWJC??KCD_LgsO?C@D?KIG?SGgMblbAWgocAQ_",  # 22 rounds, 111 sets
                (
                    "a1f8bcf401bbec64eb3993e410f192a2eca1fe20856798a169bc2ef9d1350db2",
                    "a36e2b28080a9a83ce472d3e3a5ff52914e20f3285779d84b25a5d5cf0a41485",
                ),
            ),
        ],
    )
    def test_output_pinned(self, capsys, tmp_path, graph6, digests):
        # sha256 of json and plain stdout, as written when the weights were
        # frozensets with Fraction values
        p = tmp_path / "g.g6"
        p.write_text(graph6 + "\n", encoding="ascii")
        outs = []
        for fmt in ("json", "plain"):
            code, out, _ = run(capsys, "frac", str(p), "--format", fmt)
            assert code == 0
            outs.append(out)
        assert tuple(hashlib.sha256(o.encode("ascii")).hexdigest() for o in outs) == digests
        if len(graph6) > 20:
            d = json.loads(outs[0])
            assert (len(d["iterations"]), len(d["weights"])) == (22, 111)
            assert d["total"] == "1493369/317520"

    def test_verified_without_the_flag(self, capsys, monkeypatch, c5_file):
        # --verify only prints the marker; an invalid weighting is a bug signal either way
        monkeypatch.setattr(cli, "superlocal_fractional_colour", corrupted_fractional_colour)
        for extra in ((), ("--verify",)):
            code, out, err = run(capsys, "frac", c5_file, *extra)
            assert code == 3
            assert out == ""
            assert "bug signal" in err


class TestEdgecolour:
    def test_plain_verify(self, capsys, fat_triangle_file):
        code, out, _ = run(capsys, "edgecolour", fat_triangle_file, "--verify")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k 6"
        assert lines[-1] == "verify ok"
        colours = {}
        for line in lines[1:-1]:
            eid, colour = line.split()
            colours[int(eid)] = int(colour)
        assert sorted(colours) == list(range(6))
        # recheck properness directly against the parsed multigraph
        mg = parse_multigraph("n 3\n0 1 2\n1 2 2\n0 2 2\n")
        for e in range(6):
            for f in range(e + 1, 6):
                if set(mg.endpoints(e)) & set(mg.endpoints(f)):
                    assert colours[e] != colours[f]

    def test_json(self, capsys, fat_triangle_file):
        code, out, _ = run(
            capsys, "edgecolour", fat_triangle_file, "--format", "json", "--verify"
        )
        assert code == 0
        d = json.loads(out)
        assert d["k"] == 6
        assert d["verified"] is True
        assert len(d["colours"]) == 6

    def test_verify_checks_k_by_the_line_graph(self, capsys, monkeypatch, fat_triangle_file):
        # k = 6 comes from gamma_bar_ll; a line-graph route that answers
        # k + 1 must raise the bug signal
        monkeypatch.setattr(cli, "gamma_bar_ll_via_line_graph", lambda mg: 6 + 1)
        code, out, err = run(capsys, "edgecolour", fat_triangle_file, "--verify")
        assert code == 3
        assert out == ""
        assert "line-graph bound" in err

    @pytest.mark.parametrize("verify", [(), ("--verify",)])
    def test_one_validation_per_run(self, capsys, monkeypatch, fat_triangle_file, verify):
        # edge_colour validates the colouring; --verify adds only the k check
        calls = count_validations(monkeypatch)
        code, _, _ = run(capsys, "edgecolour", fat_triangle_file, *verify)
        assert code == 0
        assert len(calls) == 1

    def test_graph6_input(self, capsys, c5_file):
        code, out, _ = run(capsys, "edgecolour", c5_file)
        assert code == 0
        assert out.splitlines()[0] == "k 3"

    def test_output_pinned(self, capsys, tmp_path):
        # sha256 of plain and json stdout on a seeded 60-vertex multigraph
        # with 1,708 edges, as written when the colour sets were Python sets
        rng = random.Random(1)
        edges = []
        for u in range(60):
            for v in range(u + 1, 60):
                if rng.randrange(2):
                    edges.extend([(u, v)] * rng.randint(1, 3))
        p = tmp_path / "large.mg"
        p.write_text(format_multigraph(Multigraph(60, edges[:1708])), encoding="ascii")
        digests = []
        for fmt in ("plain", "json"):
            code, out, _ = run(capsys, "edgecolour", str(p), "--format", fmt)
            assert code == 0
            digests.append(hashlib.sha256(out.encode("ascii")).hexdigest())
        assert digests == [
            "b0e14509518f485609f0f67a2ca605a93b6e5cf3bc8f4c83f448139efd7ee8ed",
            "ecd491ebe3154be478eb448b3b62b6c8d1d717439ce4bd0a803374557ca96e2b",
        ]


class TestLinegraph:
    def test_fat_triangle_is_k6(self, capsys, fat_triangle_file):
        code, out, _ = run(capsys, "linegraph", fat_triangle_file, "--verify")
        assert code == 0
        lines = out.splitlines()
        g = parse_graph6(lines[0])
        assert g.n == 6
        assert g.edge_count == 15
        assert lines[1] == "verify ok gamma_ll 6"

    def test_json(self, capsys, c5_file):
        code, out, _ = run(capsys, "linegraph", c5_file, "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["n"] == 5
        assert bf_isomorphic(parse_graph6(d["graph6"]), cycle(5))

    def test_edgeless_rejected(self, capsys, tmp_path):
        p = tmp_path / "e.mg"
        p.write_text("n 3\n", encoding="ascii")
        code, _, err = run(capsys, "linegraph", str(p))
        assert code == 1
        assert "error" in err

    def test_pair_budget_refusal(self, capsys, tmp_path):
        # 2,000 parallel edges: 2 * C(2000, 2) pairs, far above the budget
        p = tmp_path / "dipole.mg"
        p.write_text("n 2\n0 1 2000\n", encoding="ascii")
        code, out, err = run(capsys, "linegraph", str(p))
        assert code == 2
        assert out == ""
        assert "size refusal" in err

    def test_verify_json(self, capsys, fat_triangle_file):
        code, out, _ = run(
            capsys, "linegraph", fat_triangle_file, "--verify", "--format", "json"
        )
        assert code == 0
        d = json.loads(out)
        assert (d["n"], d["m"], d["gamma_ll"], d["gamma_bar_ll"]) == (6, 15, 6, 6)
        assert d["verified"] is True


class TestSearch:
    def test_enumeration(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "5", "--claims", "conj3,conj6"
        )
        assert code == 0
        d = json.loads(out)
        assert d["total"] == 21
        assert d["findings"] == []
        assert d["verdicts"]["superlocal-chi"]["holds"] == 21
        assert d["verdicts"]["clique-average"]["violated"] == 0

    def test_all_classes(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "4", "--all-classes", "--claims", "conj3"
        )
        assert code == 0
        assert json.loads(out)["total"] == 11

    def test_corpus_with_reports(self, capsys, tmp_path):
        base = str(tmp_path / "run")
        code, out, _ = run(
            capsys,
            "search",
            "--corpus",
            "multigraph",
            "--seed",
            "7",
            "--count",
            "10",
            "--out",
            base,
            "--chi-prime-edges",
            "8",
        )
        assert code == 0
        d = json.loads(out)
        assert d["total"] == 10
        jl = (tmp_path / "run.jsonl").read_text(encoding="ascii")
        assert len(jl.splitlines()) == 10
        cv = (tmp_path / "run.csv").read_text(encoding="ascii")
        assert cv.splitlines()[0].startswith("encoding,")

    def test_circular_corpus_judges_interval_claims(self, capsys):
        code, out, _ = run(
            capsys,
            "search",
            "--corpus",
            "circular_interval",
            "--seed",
            "3",
            "--count",
            "8",
            "--claims",
            "thm8,thm9",
        )
        assert code == 0
        d = json.loads(out)
        assert d["verdicts"]["round-up"]["violated"] == 0
        assert d["verdicts"]["interval-chi"]["violated"] == 0

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, "search", "--n", "4", "--claims", "nope")
        assert code == 1
        assert "unknown claim" in err

    @pytest.mark.parametrize("spec", ["", ","], ids=["empty", "comma"])
    def test_empty_claim_list_is_input_error(self, capsys, spec):
        # an empty list names no claim; only a missing --claims means the defaults
        code, out, err = run(capsys, "search", "--n", "4", "--claims", spec)
        assert code == 1
        assert out == ""
        assert "no claims requested" in err

    def test_negative_chi_prime_edges_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "search", "--corpus", "multigraph", "--count", "1",
            "--chi-prime-edges", "-5",
        )
        assert code == 1
        assert "--chi-prime-edges" in err

    @pytest.mark.parametrize(
        "space, claim, name",
        [
            (("--n", "3"), "edge-colour", "edge-colour"),
            (("--n", "3"), "thm11", "edge-colour"),
            (("--corpus", "simple", "--count", "2"), "line-graph-match", "line-graph-match"),
            (("--corpus", "multigraph", "--count", "2"), "thm4", "frac-bound"),
        ],
    )
    def test_claim_outside_the_space_is_input_error(self, capsys, space, claim, name):
        code, out, err = run(capsys, "search", *space, "--claims", claim)
        assert code == 1
        assert out == ""
        assert name in err and "does not apply" in err

    def test_default_reports_pinned(self, capsys, tmp_path):
        # sha256 of the default `search --n 6 --out P` files and stdout, as
        # written when every value was computed for every claim
        base = tmp_path / "P"
        code, out, _ = run(capsys, "search", "--n", "6", "--out", str(base))
        assert code == 0
        digests = [
            hashlib.sha256(data).hexdigest()
            for data in (
                base.with_suffix(".jsonl").read_bytes(),
                base.with_suffix(".csv").read_bytes(),
                out.encode("ascii"),
            )
        ]
        assert digests == [
            "468c9c4badf47d6bb50f6c043988248c65b00cf80ebcdb9e29eb0ba11184e898",
            "1f1dd52744d2af9e317435259387c53661e49cf66d99956be7af1b061f66b8a5",
            "20a5422a2dd6db6f076421debd64eb0e12441fba9a84dec9b69c3e7aa0df7b3a",
        ]

    def test_needs_space(self, capsys):
        code, _, err = run(capsys, "search")
        assert code == 1
        assert "one of the arguments --n --corpus is required" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--n", "3", "--chi-prime-edges", "5"), "--chi-prime-edges does nothing"),
            (("--corpus", "multigraph", "--claims", "thm11", "--chi-prime-edges", "5"),
             "--chi-prime-edges does nothing"),
            (("--corpus", "multigraph", "--limit-n", "5"),
             "--limit-n does nothing with the multigraph corpus"),
        ],
    )
    def test_option_no_claim_reads_is_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, "search", *argv)
        assert code == 1
        assert out == ""
        assert message in err


class TestGen:
    def test_enumeration_graph6(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "4", "--connected")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        for line in lines:
            assert parse_graph6(line).n == 4

    def test_corpus_deterministic(self, capsys):
        _, a, _ = run(capsys, "gen", "--corpus", "multigraph", "--seed", "5",
                      "--count", "6")
        _, b, _ = run(capsys, "gen", "--corpus", "multigraph", "--seed", "5",
                      "--count", "6")
        assert a == b
        for line in a.splitlines():
            mg = parse_multigraph(line)
            assert isinstance(mg, Multigraph)

    def test_params(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--corpus", "simple", "--seed", "2", "--count", "4",
            "--params", "n=4,p=1/1"
        )
        assert code == 0
        for line in out.splitlines():
            g = parse_graph6(line)
            assert g.edge_count == g.n * (g.n - 1) // 2

    def test_decimal_params(self, capsys):
        # decimals are exact: n=6.0 is n=6 and p=0.5 is p=1/2
        _, a, _ = run(capsys, "gen", "--corpus", "simple", "--seed", "4", "--count", "9",
                      "--params", "n=6.0,p=0.5")
        _, b, _ = run(capsys, "gen", "--corpus", "simple", "--seed", "4", "--count", "9",
                      "--params", "n=6,p=1/2")
        assert a == b and len(a.splitlines()) == 9

    def test_bad_params(self, capsys):
        cases = [
            ("gen", "simple", "zap=1", "unknown parameter"),
            ("search", "simple", "p=1/0", "'p=1/0'"),
            ("gen", "multigraph", "max_edges=-1", "max_edges >= 1"),
            ("gen", "multigraph", "mu_max=0", "mu_max >= 1"),
            ("gen", "simple", "n=3/2", "n must be an integer"),
            ("gen", "simple", "p=2", "outside [0,1]"),
            ("search", "multigraph", "p=-1/2", "outside [0,1]"),
            ("gen", "simple", "n=3,n=4", "'n' given twice"),
            ("search", "multigraph", "n=4, n=4", "'n' given twice"),
            ("gen", "multigraph", "n=1", "n >= 2"),
            ("gen", "simple", "n=6.5", "n must be an integer"),
            ("search", "multigraph", "mu_max=0.5", "mu_max must be an integer"),
            ("gen", "co_triangle_free", "p=1.25", "outside [0,1]"),
            ("gen", "simple", "p=half", "'p=half'"),
            ("gen", "simple", "p=1/0", "'p=1/0' has a zero denominator"),
            ("search", "simple", "n", "parameter 'n' is not key=value"),
        ]
        for command, corpus, params, message in cases:
            for count in ("0", "1"):
                code, _, err = run(
                    capsys, command, "--corpus", corpus, "--count", count,
                    "--params", params
                )
                assert code == 1
                assert message in err

    def test_huge_mu_max_is_cut_at_max_edges(self, capsys):
        # each pair's multiplicity is drawn in full, then cut to the room
        # left under max_edges (default 28), never built as a list first
        params = "mu_max=1" + "0" * 30
        out = run(capsys, "gen", "--corpus", "multigraph", "--count", "1", "--params", params)
        assert out == (0, "n 8 / 0 3 28\n", "")

    @pytest.mark.parametrize("command", ["gen", "search"])
    @pytest.mark.parametrize("count", ["0", "1"])
    def test_max_edges_above_the_multigraph_text_limit(self, capsys, command, count):
        code, out, err = run(
            capsys, command, "--corpus", "multigraph", "--count", count,
            "--params", "max_edges=258048"
        )
        assert (code, out) == (2, "")
        assert err == "size refusal: multigraph corpus max_edges 258048 above the limit 258047\n"


@pytest.mark.parametrize("command, flag", [("search", "--all-classes"), ("gen", "--connected")])
@pytest.mark.parametrize(
    "argv, message",
    [
        ((), "one of the arguments --n --corpus is required"),
        (("--n", "3", "--corpus", "simple"), "argument --corpus: not allowed with argument --n"),
        (("--n", "3", "--seed", "0"), "--seed does nothing with --n"),
        (("--n", "3", "--count", "5"), "--count does nothing with --n"),
        (("--n", "3", "--params", "n=3"), "--params does nothing with --n"),
        (("--corpus", "simple", "FLAG"), "FLAG does nothing with --corpus"),
    ],
)
def test_graph_source_option_that_is_not_read(capsys, command, flag, argv, message):
    # search and gen share the graph-source options; each one that the
    # chosen source does not read is an input error that names it
    argv = [flag if a == "FLAG" else a for a in argv]
    code, out, err = run(capsys, command, *argv)
    assert code == 1
    assert out == ""
    assert message.replace("FLAG", flag) in err


def test_corpus_seed_and_count_defaults(capsys):
    _, default, _ = run(capsys, "gen", "--corpus", "simple")
    _, explicit, _ = run(capsys, "gen", "--corpus", "simple", "--seed", "0", "--count", "100")
    assert default == explicit and len(default.splitlines()) == 100


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bounds", "/definitely/not/there")
        assert code == 1
        assert "cannot read" in err

    def test_bad_graph6(self, capsys, tmp_path):
        p = tmp_path / "junk"
        p.write_text("Dhcc\n", encoding="ascii")
        code, _, err = run(capsys, "bounds", str(p))
        assert code == 1

    @pytest.mark.parametrize("text", [
        "D\u00e9c\n",  # read as D?c before
        "\u00e9\n",  # read as the empty graph before
        "n \u0663\n0 1 1\n",  # an Arabic-Indic 3 that int() accepts
    ])
    def test_non_ascii_stdin_is_refused(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "bounds", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read -: 'ascii' codec can't encode")

    def test_blank_stdin_is_empty_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(" \n"))
        assert run(capsys, "bounds", "-") == (1, "", "error: empty input\n")

    def test_non_decimal_multigraph_token_is_refused(self, capsys, monkeypatch):
        # int() reads 1_0 as 10, which edgecolour coloured as ten edges
        monkeypatch.setattr("sys.stdin", io.StringIO("n 3\n0 1 1_0\n"))
        err = "error: record 2: non-integer token in '0 1 1_0'\n"
        assert run(capsys, "edgecolour", "-") == (1, "", err)

    def test_non_ascii_file_is_refused(self, capsys, tmp_path):
        p = tmp_path / "c5.g6"
        p.write_bytes(b"D\xc3\xa9c\n")
        code, out, err = run(capsys, "bounds", str(p))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {p}: 'ascii' codec can't decode")

    def test_graph6_is_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\ngarbage\n"))
        code, out, err = run(capsys, "oracle", "-")
        assert code == 1
        assert out == ""
        assert err == "error: graph6 input is one line; more text follows it\n"
        # blank lines around the one line are no second line
        monkeypatch.setattr("sys.stdin", io.StringIO("\n Dhc \n\n \n"))
        code, out, _ = run(capsys, "oracle", "-")
        assert code == 0
        assert json.loads(out)["chi"] == 3

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "4"],
        ["gen", "--n", "3"],
        ["frac", "c5"],
    ])
    def test_out_into_missing_directory(self, capsys, monkeypatch, c5_file, tmp_path, argv):
        # search refuses the path before it searches
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking --out")

        monkeypatch.setattr(cli, "search_counterexamples", no_search)
        argv = [c5_file if arg == "c5" else arg for arg in argv]
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err
        assert not target.parent.exists()

    def test_out_check_leaves_no_file(self, capsys, tmp_path):
        # the writability check opens no file that a refused search leaves
        base = tmp_path / "P"
        code, out, err = run(capsys, "search", "--n", "9", "--out", str(base))
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main([]) == 1  # a subcommand is required

    @pytest.mark.parametrize("command", ["bounds", "frac", "edgecolour", "linegraph"])
    def test_limit_n_only_where_it_is_read(self, capsys, c5_file, command):
        # only oracle and search read --limit-n; the others reject it
        code, out, err = run(capsys, command, c5_file, "--limit-n", "-1")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --limit-n" in err

    @pytest.mark.parametrize("command", ["bounds", "edgecolour", "linegraph"])
    def test_size_refusal_from_multigraph_text(self, capsys, tmp_path, command):
        p = tmp_path / "big.mg"
        p.write_text("n 2\n0 1 1000000\n", encoding="ascii")
        code, out, err = run(capsys, command, str(p))
        assert code == 2
        assert out == ""
        assert "size refusal" in err

    def test_size_refusal_from_enumeration(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "9")
        assert code == 2
        assert "size refusal" in err

    def test_roundtrip_petersen(self, capsys, tmp_path):
        p = tmp_path / "pet.g6"
        p.write_text(to_graph6(petersen()) + "\n", encoding="ascii")
        code, out, _ = run(capsys, "oracle", str(p))
        assert code == 0
        assert json.loads(out) == {"alpha": 4, "chi": 3, "chi_f": "5/2"}


PROBE = """
import sys
before = set(sys.modules)
import superlocal, superlocal.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"superlocal"})))
"""


def test_import_loads_only_the_standard_library():
    src = Path(superlocal.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []
