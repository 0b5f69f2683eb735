"""The benchmark tracer's bindings exist in the package.

perfbench/spans.py wraps named functions in the package's modules, and
its install() fails with AttributeError if one of them has gone. This
test reads the list of bindings without installing anything, so a
refactor that drops one fails here rather than in a traced benchmark.
"""

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
