"""The public surface stays what the package itself uses and documents."""

import ast
import re
from pathlib import Path

import superlocal

PACKAGE = Path(superlocal.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

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
    used = referenced_names()
    unused = [n for n in exported_names() if n not in used]
    assert unused == []


def package_trees():
    return {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


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
    # carriers: every public class of the package, whose methods and
    # properties the export list does not name; read by name, so a method
    # shares its caller with any other attribute of that name
    trees = package_trees()
    unread = [
        f"{cls.name}.{member.name}"
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        if member.name not in attributes_read(trees.values(), member)
    ]
    assert unread == []


# the chi_f certificate, per-vertex numerators over the solution's den:
# returned for callers to re-check optimality, so nothing in the package
# reads it back
UNREAD_FIELDS = {"FractionalChromaticSolution.dual"}


def test_every_carrier_field_is_read_in_the_package():
    # an annotated field that no attribute access reads is carried on every
    # object for nothing; read by name, as methods are above
    trees = package_trees()
    read = attributes_read(trees.values(), None)
    unread = [
        f"{cls.name}.{field.target.id}"
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        if field.target.id not in read
    ]
    assert sorted(unread) == sorted(UNREAD_FIELDS)


# the console entry point takes argv from its tests; the package calls it bare
UNPASSED = {"main(argv)"}


def functions(trees):
    """(name callers use, parameter names a call fills in order, defaulted names).

    Every def in the package, nested ones too; a class's __init__ goes by
    the class name, and a method's first parameter is filled by the call.
    """
    for tree in trees.values():
        scopes = [(tree, None)]
        while scopes:
            scope, cls = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, node))
                    continue
                if isinstance(node, ast.FunctionDef):
                    args = node.args
                    positional = [a.arg for a in args.posonlyargs + args.args]
                    if cls is not None:
                        positional = positional[1:]
                    defaulted = positional[len(positional) - len(args.defaults):]
                    defaulted += [
                        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                    ]
                    name = cls.name if cls is not None and node.name == "__init__" else node.name
                    yield name, positional, defaulted
                scopes.append((node, None))


def calls_by_name(trees):
    """The package's calls, keyed by the name of the function they call."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def test_every_defaulted_parameter_is_passed_in_the_package():
    # a default that no call in the package overrides is a knob for the
    # tests alone; calls are matched by name, as methods are above
    trees = package_trees()
    calls = calls_by_name(trees)
    unpassed = []
    for name, positional, defaulted in functions(trees):
        passed = set()
        for call in calls.get(name, ()):
            n_args = len(call.args)
            if any(isinstance(a, ast.Starred) for a in call.args):
                n_args = len(positional)
            passed.update(positional[:n_args])
            for kw in call.keywords:
                passed.update(positional if kw.arg is None else [kw.arg])
        unpassed += [f"{name}({p})" for p in defaulted if p not in passed]
    assert sorted(unpassed) == sorted(UNPASSED)


def test_readme_library_block_runs():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
