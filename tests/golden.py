"""One table of CLI commands, and the bytes each one writes.

Every row of COMMANDS runs in-process through superlocal.cli.main, in a
temporary directory that holds the INPUTS files, so every path a command
reads or writes is relative and no output holds a temporary path. A
command's record is its exit code and the sha256 of its stdout, of its
stderr and of each file it leaves (the --out files), one line each:

    PYTHONPATH=src python3 tests/golden.py                         # print the records
    PYTHONPATH=src python3 tests/golden.py > tests/golden.sha256   # pin them again

tests/test_golden.py compares the records with tests/golden.sha256, and
two trees write the same bytes when `diff` finds their records equal.

Text that argparse writes (usage lines, --help) wraps to the terminal
width, so no row reaches it; stdin input is left to the fuzz tests. The
inputs are built here without the package, so that a run against any
tree feeds it the same bytes.
"""

import collections
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

from superlocal import cli

# a fixed 22-vertex graph of edge density about 1/4, with 163 maximal
# stable sets and chi_f 4
GRAPH22_GRAPH6 = "UGHWJC??KCD_LgsO?C@D?KIG?SGgMblbAWgocAQ_"


def large_multigraph(seed):
    """Multigraph text on 60 vertices: pairs kept with probability 1/2 at
    multiplicity 1..3, the first 1,708 edges; drawn again from the same
    stream while a draw has fewer edges. Seed 20240815 is the input of the
    edgecolour-large benchmark."""
    rng = random.Random(seed)
    edges = []
    while len(edges) < 1708:
        edges = []
        for u in range(60):
            for v in range(u + 1, 60):
                if rng.randrange(2):
                    edges.extend([(u, v)] * rng.randint(1, 3))
    counts = collections.Counter(edges[:1708])
    return "n 60\n" + "".join(f"{u} {v} {m}\n" for (u, v), m in sorted(counts.items()))


def path_text(n):
    return f"n {n}\n" + "".join(f"{v} {v + 1} 1\n" for v in range(n - 1))


INPUTS = {
    "c5.g6": "Dhc\n",
    "petersen.g6": "IheA@GUAo\n",
    "fhqc.g6": "FhQC?\n",
    "k0.g6": "?\n",  # no vertices
    "k1.g6": "@\n",
    "b.g6": "B?\n",  # three vertices, no edges
    "graph22.g6": GRAPH22_GRAPH6 + "\n",
    "bad.g6": "Dhcc\n",  # one byte past C5's encoding
    "fat-triangle.mg": "n 3\n0 1 2\n1 2 2\n0 2 2\n",
    "dipole5.mg": "n 2\n0 1 5\n",
    "dipole2000.mg": "n 2\n0 1 2000\n",  # the line graph's pair budget refuses it
    "path5.mg": path_text(5),
    "path17.mg": path_text(17),
    "path25.mg": path_text(25),
    "matching3.mg": "n 6\n0 1 1\n2 3 1\n4 5 1\n",
    "edgeless3.mg": "n 3\n",
    "large1.mg": large_multigraph(1),
    "large20240815.mg": large_multigraph(20240815),
}

FORMATS = ("json", "plain")
VERIFY = ("", " --verify")
KINDS = ("simple", "multigraph", "circular_interval", "co_triangle_free")
CORPUS = "--seed 3 --count 40"

# each row is split on whitespace into the argv of one command
COMMANDS = [
    *(
        f"{command} {name} --format {fmt}"
        for command in ("bounds", "oracle")
        for name in (
            "c5.g6", "petersen.g6", "fhqc.g6", "k0.g6", "b.g6", "graph22.g6", "fat-triangle.mg"
        )
        for fmt in FORMATS
    ),
    *(
        f"frac {name} --format {fmt}{verify}"
        for name in ("c5.g6", "petersen.g6", "graph22.g6", "k1.g6", "k0.g6")
        for fmt in FORMATS
        for verify in VERIFY
    ),
    *(
        f"edgecolour {name} --format {fmt}{verify}"
        for name in ("fat-triangle.mg", "large1.mg", "large20240815.mg")
        for fmt in FORMATS
        for verify in VERIFY
    ),
    *(
        f"linegraph {name} --format {fmt}{verify}"
        for name in ("fat-triangle.mg", "dipole5.mg", "path5.mg", "matching3.mg")
        for fmt in FORMATS
        for verify in VERIFY
    ),
    *(f"search --n {n} --out P" for n in range(1, 9)),
    *(f"search --n {n} --all-classes --format plain" for n in range(1, 8)),
    "search --n 7 --claims conj3,thm4,question --out P",
    "search --n 6 --limit-n 5 --out P",
    *(f"gen --n {n}{connected}" for n in range(1, 9) for connected in ("", " --connected")),
    *(f"gen --corpus {kind} {CORPUS}" for kind in KINDS),
    *(
        f"gen --corpus {kind} {CORPUS} --params n=22"
        for kind in ("circular_interval", "co_triangle_free")
    ),
    *(f"search --corpus {kind} {CORPUS} --out P" for kind in KINDS),
    f"search --corpus co_triangle_free {CORPUS} --params n=22 --limit-n 21 --out P",
    "search --corpus multigraph --seed 20240815 --count 500 --out P",
    # refusals and input errors that the package raises
    "oracle path17.mg",
    "frac path25.mg",
    "frac fat-triangle.mg",
    "linegraph dipole2000.mg",
    "bounds bad.g6",
    "edgecolour edgeless3.mg",
    "search --n 9 --out P",
    "search --corpus simple --params n=501",
    "search --n 7 --seed 1",
    "search --n 4 --claims bogus",
    "search --corpus multigraph --limit-n 5",
]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(command):
    """The exit code, stdout, stderr and left files (name to bytes) of one
    command, run in the current directory; the files are removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    files = {}
    for name in sorted(set(os.listdir()) - set(INPUTS)):
        with open(name, "rb") as fh:
            files[name] = fh.read()
        os.remove(name)
    return code, out.getvalue(), err.getvalue(), files


def record(command):
    """The record lines of one command, run in the current directory."""
    code, out, err, files = run(command)
    streams = [
        ("exit", code),
        ("stdout", sha256(out.encode())),
        ("stderr", sha256(err.encode())),
        *((name, sha256(data)) for name, data in files.items()),
    ]
    return [f"{command} | {stream} {value}\n" for stream, value in streams]


@contextlib.contextmanager
def inputs_dir():
    """Work in a temporary directory that holds the INPUTS files."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # contextlib.chdir needs Python 3.11
        try:
            for name, text in INPUTS.items():
                with open(name, "w", encoding="ascii") as fh:
                    fh.write(text)
            yield
        finally:
            os.chdir(home)


def records():
    """The record lines of every row of COMMANDS, in table order."""
    with inputs_dir():
        return [line for command in COMMANDS for line in record(command)]


if __name__ == "__main__":
    sys.stdout.writelines(records())
