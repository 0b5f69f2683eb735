"""The package's result records: immutable, and cheap to import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from superlocal.edge_colour import Fan
from superlocal.frac_colour import (
    ColouringVerdict,
    FractionalColouring,
    IterationRecord,
    IterationTrace,
)
from superlocal.harness import (
    BoundReport,
    CheckFlags,
    Finding,
    MultigraphReport,
    SearchSummary,
)
from superlocal.invariants import GraphBounds
from superlocal.oracles import FractionalChromaticSolution, VertexColouring
from superlocal.stable_sets import StableSetFamily

SRC = Path(__file__).resolve().parent.parent / "src"

RECORDS = (
    Fan,
    FractionalColouring,
    IterationRecord,
    IterationTrace,
    ColouringVerdict,
    CheckFlags,
    BoundReport,
    MultigraphReport,
    Finding,
    SearchSummary,
    GraphBounds,
    VertexColouring,
    FractionalChromaticSolution,
    StableSetFamily,
)


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_fields_cannot_be_set(record_type):
    if record_type is CheckFlags:
        record = CheckFlags()
    else:
        record = record_type(*range(len(record_type._fields)))
    # a new name too: a record without __slots__ would take it in a __dict__
    for name in record_type._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_cli_import_leaves_dataclasses_out():
    # building dataclasses cost more than half of the package's import time
    code = "import sys, superlocal.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout == "False\n"
