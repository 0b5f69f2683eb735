import io
import json

import pytest

from superlocal import Multigraph, cli, parse_graph6, parse_multigraph, to_graph6
from superlocal.cli import main
from bruteforce import bf_isomorphic
from conftest import cycle, petersen


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


class TestOracle:
    def test_values(self, capsys, c5_file):
        code, out, _ = run(capsys, "oracle", c5_file)
        assert code == 0
        assert json.loads(out) == {"alpha": 2, "chi": 3, "chi_f": "5/2"}

    def test_limit_refusal(self, capsys, c5_file):
        code, _, err = run(capsys, "oracle", c5_file, "--limit-n", "3")
        assert code == 2
        assert "size refusal" in err

    def test_rejects_true_multigraph(self, capsys, fat_triangle_file):
        code, _, err = run(capsys, "oracle", fat_triangle_file)
        assert code == 1
        assert "simple graph" in err

    def test_accepts_simple_multigraph_text(self, capsys, tmp_path):
        p = tmp_path / "p3.mg"
        p.write_text("n 3\n0 1 1\n1 2 1\n", encoding="ascii")
        code, out, _ = run(capsys, "oracle", str(p))
        assert code == 0
        assert json.loads(out)["chi"] == 2


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

    def test_graph6_input(self, capsys, c5_file):
        code, out, _ = run(capsys, "edgecolour", c5_file)
        assert code == 0
        assert out.splitlines()[0] == "k 3"


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

    def test_needs_space(self, capsys):
        code, _, err = run(capsys, "search")
        assert code == 1
        assert "either --n or --corpus" in err


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

    def test_bad_params(self, capsys):
        cases = [
            ("gen", "simple", "zap=1", "unknown parameter"),
            ("search", "simple", "p=1/0", "'p=1/0'"),
            ("gen", "multigraph", "max_edges=-1", "max_edges >= 1"),
            ("gen", "multigraph", "mu_max=0", "mu_max >= 1"),
            ("gen", "simple", "n=3/2", "n must be an integer"),
        ]
        for command, corpus, params, message in cases:
            code, _, err = run(
                capsys, command, "--corpus", corpus, "--count", "1", "--params", params
            )
            assert code == 1
            assert message in err


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

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main([]) == 1  # a subcommand is required

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
