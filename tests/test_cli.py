import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superlocal
from superlocal import (
    Multigraph,
    cli,
    edge_colour,
    parse_graph6,
    parse_multigraph,
    to_graph6,
)
from superlocal.cli import main
from bruteforce import bf_isomorphic
import golden
from golden import GRAPH22_GRAPH6, large_multigraph, sha256
from conftest import (
    complete,
    count_validations,
    corrupted_fractional_colour,
    cycle,
    petersen,
)


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


@pytest.fixture
def golden_run():
    """golden.run in a directory that holds the golden table's inputs."""
    with golden.inputs_dir():
        yield golden.run


def golden_input(text):
    """The name of the golden table's input file that holds text."""
    return next(name for name, held in golden.INPUTS.items() if held == text + "\n")


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

    def test_empty_graph(self, capsys, monkeypatch):
        # graph6 "?" has no vertices: every bound is 0
        monkeypatch.setattr(sys, "stdin", io.StringIO("?\n"))
        code, out, err = run(capsys, "bounds", "-")
        assert (code, err) == (0, "")
        d = json.loads(out)
        assert (d["n"], d["m"], d["delta"], d["omega"]) == (0, 0, 0, 0)
        assert (d["gamma"], d["gamma_l"], d["gamma_ll"]) == (0, 0, 0)
        assert d["gamma_prime"] == d["gamma_l_prime"] == d["gamma_ll_prime"] == "0/1"
        assert d["vertex_degree"] == d["vertex_omega"] == d["vertex_gamma_l_prime"] == []

    def test_byte_stable(self, capsys, c5_file):
        _, a, _ = run(capsys, "bounds", c5_file)
        _, b, _ = run(capsys, "bounds", c5_file)
        assert a == b

    def test_one_clique_search_per_vertex(self, capsys, monkeypatch, tmp_path):
        # the per-vertex arrays and the maxima read one cached omega vector
        from superlocal import graphs

        real = graphs.maximum_cliques
        calls = []

        def counted(adj, mask, ties=False):
            calls.append(mask)
            return real(adj, mask, ties)

        monkeypatch.setattr(graphs, "maximum_cliques", counted)
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


@pytest.mark.parametrize(
    "command, text, digests",
    [
        ("bounds", "Dhc", (  # C5
            "abc49e053baf5d08a5bb82765e7cafaee5e577dfe554ec240db1aab855f5cc0c",
            "fe6b10351228203816521f989389059c9f2e1c58e3319634bf94ec627aa92c69",
        )),
        ("oracle", "Dhc", (
            "8bd0dfeaffb3f145503d08eb43e3660473002019b8ef226948ff14ff81a34f98",
            "44652e0086246818fc232d483f592d1d1a675f26524d4370b0469a75298f7a1c",
        )),
        ("bounds", "IheA@GUAo", (  # the Petersen graph
            "f0ffe62b4e06e1a238207069501c6586211e30cd8b02205eca93c708af0567b2",
            "b6e62f15c2f88860e1dc5ee218733452ef52b44e1fba4513ec97f993f034d9cf",
        )),
        ("oracle", "IheA@GUAo", (
            "fa34f52bec68dad47cc8003813e10bb42aac7787c35db1061ad36a35e56feabe",
            "f537f2a5c697bb34cdf562f9e7e24c23e79977a2df533076bb756c04d1a8499c",
        )),
        ("bounds", "FhQC?", (
            "b68664a33cf767b71d5dc78c8d1ce06f01f4d2508956f8eb5864c5f418d2ddef",
            "d4967cb83832fea78309fff28f7f1f404ec1d81ecaac01a4b942f7e09c5cae75",
        )),
        ("oracle", "FhQC?", (
            "7a9ab6008dcb51d6b0a0bcbf6b0e11dde74dca7ab2b3ef7c70e58b6ba3401b6d",
            "f70989a4f9dc02536c5d826643378c0681ef3350b7957e333fe67a577764a38b",
        )),
        ("bounds", "?", (  # no vertices
            "cd318c2e77128434d9b1837edfc402bdeb897da65ab641b418638378509bdd4b",
            "e7d3bf4bf1c4fa22adc8f4ef8639afbe9a069a0a63050976dda54e9dbcfe4224",
        )),
        ("oracle", "?", (
            "271e92eecb2e8dc3d076710e68e717491c50f98860486f5b43e027d686d716df",
            "5eeadb8aa7e76632da43483a6eff9a9d49a48085dd09a83412e7c3a31e853d4d",
        )),
        ("bounds", "B?", (  # three vertices, no edges
            "bc136be6e316ffb7ad2e2fbee3adb24fabca6d17f07ce479c98d460cff45f4ea",
            "2abe23961e6e70c7cadf444887c1b5adb6a3b8e1a8192a45aa3b3f2135dad4bb",
        )),
        ("oracle", "B?", (
            "ece40773341559fcdf6f83574a1f73b3e25e3dbe6b43a59927d2960681050ab0",
            "d6e63130e7442a4c7fa34a25ef6d351547072308293aa47ae44f7b50b6a08e94",
        )),
        ("bounds", GRAPH22_GRAPH6, (
            "e49bf4b0faa74472ee940207778ccbeeb869ab9dcf52ead61e4131b7bd627e4a",
            "d1049a95cae62700410a3b4765fc32aa0928050e444205e8f60d76bb02bf1172",
        )),
        ("bounds", "n 3\n0 1 2\n1 2 2\n0 2 2", (  # the fat triangle
            "00280c9dd32f1b343783e127b07abe005904549ab46fefc1f0dd8de7c08eca60",
            "a556a100952472ec0d80d6705b1a2e288630f54b7129b3af2461999b2db1ed4b",
        )),
    ],
)
def test_bounds_and_oracle_pinned(golden_run, command, text, digests):
    # sha256 of json and plain stdout, as written while the per-vertex
    # bounds were a VertexBounds record of Fractions; tests/golden.sha256
    # holds the same digests as these commands' stdout records
    outs = []
    for fmt in ("json", "plain"):
        code, out, err, _ = golden_run(f"{command} {golden_input(text)} --format {fmt}")
        assert (code, err) == (0, "")
        outs.append(out)
    assert tuple(sha256(o.encode("ascii")) for o in outs) == digests


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
                GRAPH22_GRAPH6,  # 22 rounds, 111 sets
                (
                    "a1f8bcf401bbec64eb3993e410f192a2eca1fe20856798a169bc2ef9d1350db2",
                    "a36e2b28080a9a83ce472d3e3a5ff52914e20f3285779d84b25a5d5cf0a41485",
                ),
            ),
        ],
    )
    def test_output_pinned(self, golden_run, graph6, digests):
        # sha256 of json and plain stdout, as written when the weights were
        # frozensets with Fraction values; tests/golden.sha256 holds the
        # same digests
        outs = []
        for fmt in ("json", "plain"):
            code, out, _, _ = golden_run(f"frac {golden_input(graph6)} --format {fmt}")
            assert code == 0
            outs.append(out)
        assert tuple(sha256(o.encode("ascii")) for o in outs) == digests
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

    def test_output_pinned(self, golden_run):
        # sha256 of plain and json stdout on a seeded 60-vertex multigraph
        # with 1,708 edges, as written when the colour sets were Python sets
        digests = []
        for fmt in ("plain", "json"):
            code, out, _, _ = golden_run(f"edgecolour large1.mg --format {fmt}")
            assert code == 0
            digests.append(sha256(out.encode("ascii")))
        assert digests == [
            "b0e14509518f485609f0f67a2ca605a93b6e5cf3bc8f4c83f448139efd7ee8ed",
            "ecd491ebe3154be478eb448b3b62b6c8d1d717439ce4bd0a803374557ca96e2b",
        ]

    def test_benchmark_input_pinned(self):
        # the edgecolour-large benchmark's input at its default seed, whose
        # outputs the golden table pins: every insertion is direct
        _, colouring = edge_colour(parse_multigraph(large_multigraph(20240815)))
        assert colouring.stats == {
            "direct": 1708, "rotation": 0, "kempe": 0, "sequence_steps": 0, "beta_swaps": 0
        }


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

    def test_verify_checks_the_direct_edge_bound(self, capsys, monkeypatch, fat_triangle_file):
        # gamma_ll of the line graph is 6; a direct bound that answers 7
        # must raise the bug signal
        monkeypatch.setattr(cli, "gamma_bar_ll", lambda mg: 6 + 1)
        code, out, err = run(capsys, "linegraph", fat_triangle_file, "--verify")
        assert code == 3
        assert out == ""
        assert "line-graph bound differs from the direct edge bound" in err

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
        )
        assert code == 0
        d = json.loads(out)
        assert d["total"] == 10
        jl = (tmp_path / "run.jsonl").read_text(encoding="ascii")
        assert len(jl.splitlines()) == 10
        for line in jl.splitlines():
            rec = json.loads(line)
            assert sorted(rec) == [
                "bug", "colours_used", "encoding", "gamma_bar_ll",
                "line_graph_gamma_ll", "m", "n", "verdicts",
            ]
            assert sorted(rec["verdicts"]) == ["edge-colour", "line-graph-match"]
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

    def test_chi_prime_edges_is_not_an_option(self, capsys):
        code, out, err = run(
            capsys, "search", "--corpus", "multigraph", "--chi-prime-edges", "5",
        )
        assert code == 1
        assert out == ""
        assert err.endswith("error: unrecognized arguments: --chi-prime-edges 5\n")

    def test_chi_prime_bound_is_not_a_claim(self, capsys):
        code, out, err = run(
            capsys, "search", "--corpus", "multigraph", "--claims", "chi-prime-bound",
        )
        assert code == 1
        assert out == ""
        assert "unknown claim 'chi-prime-bound'" in err

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

    def test_default_reports_pinned(self, golden_run):
        # sha256 of the default `search --n N --out P` files and stdout, as
        # written when every value was computed for every claim; at n = 7
        # the jsonl digest is the output_sha256 of the search-n7 benchmark
        pinned = {
            "6": [
                "468c9c4badf47d6bb50f6c043988248c65b00cf80ebcdb9e29eb0ba11184e898",
                "1f1dd52744d2af9e317435259387c53661e49cf66d99956be7af1b061f66b8a5",
                "20a5422a2dd6db6f076421debd64eb0e12441fba9a84dec9b69c3e7aa0df7b3a",
            ],
            "7": [
                "e0aebe42f53aafed8513fb2c18a466b9dc870783c2f330cbf7031b25cbf7539b",
                "85aa2e9adcac139624888d28571debf9b50036a4fd4cf5b6f0629565e389c2b2",
                "8393df1edacab71ca6010724040185e3c24b21edafdfdd8a6f8c4b633223da4e",
            ],
        }
        for n, expected in pinned.items():
            code, out, _, files = golden_run(f"search --n {n} --out P")
            assert code == 0
            digests = [
                sha256(data) for data in (files["P.jsonl"], files["P.csv"], out.encode("ascii"))
            ]
            assert digests == expected, n

    def test_needs_space(self, capsys):
        code, _, err = run(capsys, "search")
        assert code == 1
        assert "one of the arguments --n --corpus is required" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
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

    @pytest.mark.parametrize(
        "corpus, params, digest",
        [
            ("simple", (), "063ee696b853a4bdbb80dea7afadea3d777f4d3e7f5e9ceb2a1b678168ec76f3"),
            ("multigraph", (), "72bac6c1d9297281c8ed9e46e1a7baaae8f1ca368f52512c49666073d3d04e81"),
            ("circular_interval", (),
             "31946789a744b1f56ffc006f097fe98682ef0fac493dcf43d7960272d0d96ccf"),
            ("co_triangle_free", (),
             "fed6a056f746827764aba8fdf5bd00de3d37aa06242cfbb8ec616471e3c25588"),
            ("circular_interval", ("--params", "n=22"),
             "505347e72a5bd154e1940e146d5e37e244ba353bf8da1433cd2b070dfe0014b3"),
            ("co_triangle_free", ("--params", "n=22"),
             "e924d0cca73a52613a6974d407a4f9262715fb8500fd9499330e879a3956fc1d"),
        ],
    )
    def test_corpus_pinned(self, golden_run, corpus, params, digest):
        # sha256 of `gen --corpus K --seed 3 --count 40` stdout: a generator
        # may change how it builds a graph, never which graph a seed draws
        code, out, err, _ = golden_run(
            " ".join(("gen", "--corpus", corpus, "--seed", "3", "--count", "40", *params))
        )
        assert (code, err) == (0, "")
        assert sha256(out.encode("ascii")) == digest

    def test_params(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--corpus", "simple", "--seed", "2", "--count", "4",
            "--params", "n=4,p=1/1"
        )
        assert code == 0
        for line in out.splitlines():
            g = parse_graph6(line)
            assert g.edge_count == g.n * (g.n - 1) // 2

    def test_empty_params_item_is_skipped(self, capsys):
        _, a, _ = run(capsys, "gen", "--corpus", "simple", "--count", "3",
                      "--params", "n=5,,p=1/2")
        code, b, _ = run(capsys, "gen", "--corpus", "simple", "--count", "3",
                         "--params", "n=5,p=1/2")
        assert code == 0
        assert a == b and len(a.splitlines()) == 3

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

    @pytest.mark.parametrize("command", ["gen", "search"])
    @pytest.mark.parametrize("corpus", ["simple", "co_triangle_free"])
    @pytest.mark.parametrize("count", ["0", "1"])
    def test_vertex_count_above_the_corpus_limit(self, capsys, command, corpus, count):
        # refused before any graph is drawn, so --count 0 is refused too
        code, out, err = run(
            capsys, command, "--corpus", corpus, "--count", count, "--params", "n=100000,p=0"
        )
        assert (code, out) == (2, "")
        assert err == "size refusal: seeded corpus limited to 500 vertices, got 100000\n"


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

    def test_out_fails_after_the_check(self, capsys, monkeypatch, tmp_path):
        # the path passed the up-front check, but writing the reports failed
        def full_disk(reports, jsonl_path, csv_path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_reports", full_disk)
        target = tmp_path / "P"
        code, out, err = run(capsys, "search", "--n", "3", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err == f"error: cannot write {target}: [Errno 28] No space left on device\n"
        assert "Traceback" not in err

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

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

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


# short valid inputs: graph6 for K1, K3, C5 and the Petersen graph, and
# multigraph text with newline and "/" separators and multiplicities up to 3
FUZZ_SEEDS = (
    "@",
    "Bw",
    "Dhc",
    "IheA@GUAo",
    "n 3\n0 1 2\n1 2 2\n0 2 2\n",
    "n 2/0 1 3",
    "n 4\n0 1 1\n1 2 1\n2 3 1\n0 3 2\n",
)
FUZZ_CHARS = st.characters(min_codepoint=32, max_codepoint=126) | st.just("\n")
FUZZ_EDIT = st.tuples(st.sampled_from("idr"), st.integers(0, 40), FUZZ_CHARS)


@st.composite
def mutated_input(draw, seeds=FUZZ_SEEDS):
    """A seed with up to four single-character inserts, deletes or replaces."""
    text = draw(st.sampled_from(seeds))
    for kind, at, ch in draw(st.lists(FUZZ_EDIT, max_size=4)):
        at %= len(text) + 1
        if kind == "i":
            text = text[:at] + ch + text[at:]
        elif at < len(text):
            text = text[:at] + (ch if kind == "r" else "") + text[at + 1:]
    return text


def run_quietly(argv, stdin=""):
    """(exit code, stderr) of main(argv) reading stdin, with stdout discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            sys.stdin = old_stdin
    return code, err.getvalue()


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    mutated_input(),
    st.sampled_from(["bounds", "oracle", "frac", "edgecolour", "linegraph"]),
    st.booleans(),
    st.booleans(),
)
def test_mutated_input_ends_in_an_answer_or_a_refusal(text, command, verify, plain):
    """Every command on mutated short input exits 0, 1 or 2, never with a
    traceback. Dense graphs and high multiplicities are left out until
    the exponential searches have work budgets (ROADMAP.md, items 1 and
    7), so no seed here is dense or has a multiplicity above 3."""
    argv = [command, "-"]
    if verify and command in ("frac", "edgecolour", "linegraph"):
        argv.append("--verify")
    if plain:
        argv += ["--format", "plain"]
    code, err = run_quietly(argv, text)
    assert code in (0, 1, 2), (text, argv, err)


# option text to mutate: each corpus kind's parameters, and search's
# --claims and --limit-n
PARAMS_SEEDS = {
    "simple": ("n=8,p=1/2", "p=0.25"),
    "multigraph": ("n=6,p=1/2,mu_max=3,max_edges=28", "mu_max=2"),
    "circular_interval": ("n=10",),
    "co_triangle_free": ("n=14,p=1/2", "n=9"),
}
CLAIMS_SEEDS = ("frac-bound,superlocal-chi", "thm4, conj3,question", "alpha2-chi")
LIMIT_N_SEEDS = ("3", "0", "12")


@st.composite
def mutated_options(draw):
    """argv whose --params, --claims or --limit-n text is mutated.

    Mutated parameters go to gen only, with --count fixed at 2:
    search on a dense corpus would wait on the exponential searches,
    which have no work budget yet (ROADMAP.md, items 1 and 7).
    """
    option = draw(st.sampled_from(("params", "claims", "limit-n")))
    if option == "params":
        kind = draw(st.sampled_from(sorted(PARAMS_SEEDS)))
        text = draw(mutated_input(PARAMS_SEEDS[kind]))
        return ["gen", "--corpus", kind, "--count", "2", f"--params={text}"]
    text = draw(mutated_input(CLAIMS_SEEDS if option == "claims" else LIMIT_N_SEEDS))
    return ["search", "--n", "4", f"--{option}={text}"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_options())
def test_mutated_options_end_in_an_answer_or_a_refusal(argv):
    code, err = run_quietly(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("search", "--n", "4", "--seed", "3", "--limit-n", "2"), 1),
        (("search", "--corpus", "simple", "--count", "2", "--all-classes", "--limit-n", "3"), 1),
        (("search", "--corpus", "multigraph", "--count", "0", "--limit-n", "3"), 1),
        (("search", "--corpus", "multigraph", "--claims", "thm11", "--limit-n", "3"), 1),
        (("search", "--corpus", "multigraph", "--count", "2", "--limit-n", "-1"), 1),
        (("gen", "--corpus", "multigraph", "--count", "2", "--limit-n", "3"), 1),
        (("search", "--corpus", "simple", "--count", "2", "--seed", "5", "--limit-n", "3"), 0),
        (("search", "--n", "4", "--all-classes", "--limit-n", "0"), 0),
    ],
)
def test_options_across_graph_sources(argv, expected):
    code, err = run_quietly(list(argv))
    assert code == expected, err
    assert "Traceback" not in err


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
