"""Rules on the package source itself."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qwire"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may live in one.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE.rglob("*.py"))) > 5
    assert found == []


def _private_top_level_names(tree):
    """Private (one leading underscore) functions, classes and constants defined at module level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_top_level_name_is_referenced():
    # A consolidation that leaves a forwarder behind leaves a name that no code
    # reads: every private module-level name under src/qwire must be loaded
    # (a Name or an Attribute) somewhere in src/qwire or tests.
    defined = set()
    used = set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(PACKAGE.parents[1].glob("tests/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.is_relative_to(PACKAGE):
            defined.update(_private_top_level_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 30
    assert sorted(defined - used) == []
