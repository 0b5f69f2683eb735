"""List the statements of the superlocal package that the test suite never runs.

Runs the tier-1 suite in this process under a sys.settrace tracer that
installs its line tracer only on frames whose file is in the package,
then prints, for each module of the package, the executable lines that
no test reached. coverage.py is not a dependency. The traced run takes
about 2 minutes on a 2-core VM, so no test runs this script. From the
repository root:

    PYTHONPATH=src python3 tests/unrun.py              # the tier-1 suite
    PYTHONPATH=src python3 tests/unrun.py tests/test_frac_colour.py

Any arguments replace the default pytest arguments. File names are
normalised with os.path.realpath, so a module that two sys.path entries
reach is counted under one name.
"""

import dis
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TIER1_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def statement_lines(path):
    """The line numbers at which path's code objects start a statement."""
    code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def main(argv):
    # find the package without importing it, so that its module-level
    # statements run under the tracer
    package = Path(os.path.realpath(importlib.util.find_spec("superlocal").origin)).parent
    modules = sorted(package.glob("*.py"))
    ran = {str(path): set() for path in modules}
    tracers = {}  # a code object's file name -> its module's line tracer, or None

    def line_tracer(lines):
        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            lines = ran.get(os.path.realpath(name))
            tracers[name] = None if lines is None else line_tracer(lines)
        return tracers[name]

    os.chdir(ROOT)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv or TIER1_ARGS)
    finally:
        sys.settrace(None)
    total = 0
    for path in modules:
        unrun = sorted(statement_lines(path) - ran[str(path)])
        total += len(unrun)
        print(f"{path.name}: {len(unrun)} never ran")
        source = path.read_text(encoding="utf-8").splitlines()
        for line in unrun:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"{total} statements never ran in {len(modules)} modules (pytest exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
