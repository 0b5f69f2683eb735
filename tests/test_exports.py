"""The public surface stays what the package itself uses and documents."""

import ast
import re
from pathlib import Path

import superlocal

PACKAGE = Path(superlocal.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

# test-only by need: the rare-branch fixture in test_edge_colour.py reaches
# a fan-sequence state that no whole multigraph found so far produces
TEST_ONLY = {"fan_sequence_resolve"}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def referenced_names():
    """Names each top-level statement of the package's modules reads,
    less the names that the statement itself defines."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            defined = set()
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                defined.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
            out |= read - defined
    return out


def test_every_export_has_a_caller_in_the_package():
    names = exported_names()
    assert TEST_ONLY <= set(names)
    used = referenced_names()
    unused = [n for n in names if n not in used and n not in TEST_ONLY]
    assert unused == []


# the graph carriers, whose methods the export list does not name
CARRIERS = ("SimpleGraph", "Multigraph")


def attributes_read(trees, skip):
    """Attribute names read in the package's modules outside the node skip."""
    out = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_carrier_method_has_a_caller_in_the_package():
    # read by name, so a method shares its caller with any other
    # attribute of that name
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    unread = [
        f"{cls.name}.{member.name}"
        for cls in trees["graphs.py"].body
        if isinstance(cls, ast.ClassDef) and cls.name in CARRIERS
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        if member.name not in attributes_read(trees.values(), member)
    ]
    assert unread == []


def test_readme_library_block_runs():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
