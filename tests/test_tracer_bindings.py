"""The benchmark tracer's bindings exist in the package, and its counters read.

perfbench/spans.py wraps named functions in the package's modules, and
its install() fails with AttributeError if one of them has gone. The
first test reads the list of bindings without installing anything, so a
refactor that drops one fails here rather than in a traced benchmark.
The second runs four commands under the installed tracer, so a change
to a value that a counter reads fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import superlocal.cli  # noqa: F401  (loads every module the tracer wraps)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_binding_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    missing = [
        f"{short}.{attr}"
        for _, bindings, _ in spans.LAYERS
        for short, attr in bindings
        if not callable(getattr(sys.modules.get("superlocal." + short), attr, None))
    ]
    assert missing == []
    edge_colour = sys.modules["superlocal.edge_colour"]
    assert callable(edge_colour.PartialEdgeColouring.validate)


SMOKE = """
import contextlib, io, json, sys
from superlocal import cli
from spans import Tracer

tracer = Tracer()
tracer.install()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    sys.stdin = io.StringIO("Dhc\\n")
    codes.append(cli.main(["frac", "-"]))
    after_frac = tracer.layer_metrics()
    codes.append(cli.main(["search", "--n", "5"]))
    sys.stdin = io.StringIO("IheA@GUAo\\n")
    codes.append(cli.main(["oracle", "-"]))
    sys.stdin = io.StringIO("n 3\\n0 1 2\\n1 2 2\\n0 2 2\\n")
    codes.append(cli.main(["edgecolour", "-"]))
print(json.dumps({"codes": codes, "frac": after_frac, "metrics": tracer.layer_metrics()}))
"""


def test_traced_commands_fill_the_counters():
    # a subprocess, so the installed wrappers stay out of this one
    src = Path(superlocal.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    done = subprocess.run(
        [sys.executable, "-c", SMOKE], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    # frac on C5 takes one round, and each round lists the maximum stable
    # sets once through frac_colour's own binding
    frac = result["frac"]
    assert frac["frac_colour.rounds"] == 1
    assert frac["stable_sets.maximum_stable_sets.calls"] == 1
    metrics = result["metrics"]
    assert metrics["stable_sets.maximum_stable_sets.calls"] == metrics["frac_colour.rounds"]
    # the chi_f LP has one row per maximal stable set, and the rows counter
    # reads the length of solve_simplex's dual, index 2 of what it returns;
    # Petersen's LP has 15 rows over 10 vertices, so a primal read there
    # would miscount (C5's, in the search, has 5 of each)
    assert (
        metrics["simplex.solve_simplex.rows"] == metrics["stable_sets.maximal_stable_sets.sets"]
    )
    for name in (
        "simplex.solve_simplex.rows",
        "stable_sets.maximal_stable_sets.sets",
        "frac_colour.rounds",
        "edge_colour.case.direct",
    ):
        assert metrics.get(name, 0) > 0, name
