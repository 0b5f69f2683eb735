"""List the statements of the superlocal package that the test suite never runs.

Runs the tier-1 suite in this process under the standard library's
trace module, then prints, for each module of the package, the
executable lines that no test reached. coverage.py is not a dependency.
The traced run takes several minutes (about 6 on a 2-core VM), so no
test runs this script. From the repository root:

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
import trace
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
    # no ignoredirs: trace caches what it ignores by a module's base
    # name, so ignoring the standard library's directories would also
    # ignore the package's __init__.py and errors.py
    tracer = trace.Trace(count=1, trace=0)
    os.chdir(ROOT)
    status = tracer.runfunc(pytest.main, argv or TIER1_ARGS)
    ran = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    total = 0
    for path in modules:
        unrun = sorted(statement_lines(path) - ran.get(str(path), set()))
        total += len(unrun)
        print(f"{path.name}: {len(unrun)} never ran")
        source = path.read_text(encoding="utf-8").splitlines()
        for line in unrun:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"{total} statements never ran in {len(modules)} modules (pytest exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
