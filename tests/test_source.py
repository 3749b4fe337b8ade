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


def test_package_reads_no_private_argparse_attribute():
    # argparse's underscore names (such as _SubParsersAction) may change
    # between Python versions; the CLI works through its public API.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}:{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id == "argparse"]
    assert found == []


def _top_level_statements(body):
    """Module-level statements, with the bodies of top-level ``if`` and ``try`` blocks."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _top_level_statements(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for handler in node.handlers for stmt in handler.body]
            yield from _top_level_statements(
                node.body + handlers + node.orelse + node.finalbody)


def _numpy_or_scipy_imports(name, nodes):
    """``name:line`` of each import of numpy or scipy among the statements ``nodes``."""
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] in ("numpy", "scipy") for m in modules):
            found.append(f"{name}:{node.lineno}")
    return found


def test_light_modules_import_no_numpy_or_scipy_at_module_level():
    # ``import qwire`` and the identity command load only these modules; the
    # numeric ones (and numpy) load on first use of their names.
    found = []
    for name in ("__init__.py", "errors.py", "tridiag_core.py", "cli.py"):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        found += _numpy_or_scipy_imports(name, _top_level_statements(tree.body))
    assert found == []


def test_numpy_free_modules_import_no_numpy_or_scipy_anywhere():
    # ``qwire identity`` runs on these modules alone, without numpy: no import
    # of numpy or scipy may sit in them, not even inside a function body.
    found = []
    for name in ("__init__.py", "errors.py", "tridiag_core.py"):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        found += _numpy_or_scipy_imports(name, ast.walk(tree))
    assert found == []


def _continuant_kernel_factory():
    tree = ast.parse((PACKAGE / "tridiag_core.py").read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_continuant_kernel")


def test_continuant_kernels_take_alpha_alone():
    # A_0 = 1 and A_{-1} = 0 belong to the recurrence, so the closures the
    # factory returns start from them themselves: each takes one parameter.
    factory = _continuant_kernel_factory()
    closures = [node for node in ast.walk(factory)
                if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not factory]
    assert sorted(node.name for node in closures) == ["kernel", "unit"]
    for node in closures:
        args = node.args
        assert [a.arg for a in args.posonlyargs + args.args] == ["alpha"], node.name
        assert not (args.vararg or args.kwarg or args.kwonlyargs or args.defaults), node.name


def test_plain_continuant_kernel_writes_into_no_argument():
    # The unit body (b2 = 1, the float body of the transmittance routes)
    # updates its own fresh products in place.  A write into alpha or the
    # pair (c, d) it carries would change the caller's arrays: at k = 1, c
    # is the caller's alpha.
    factory = _continuant_kernel_factory()
    plain = next(node for node in ast.walk(factory)
                 if isinstance(node, ast.FunctionDef) and node.name == "unit")
    protected = {"alpha", "c", "d"}

    def root(target):
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        return target.id if isinstance(target, ast.Name) else None

    updates = [node for node in ast.walk(plain) if isinstance(node, ast.AugAssign)]
    element_writes = [target for node in ast.walk(plain) if isinstance(node, ast.Assign)
                      for target in node.targets if isinstance(target, (ast.Subscript, ast.Attribute))]
    found = [f"line {node.lineno}" for node in updates if root(node.target) in protected]
    found += [f"line {target.lineno}" for target in element_writes if root(target) in protected]
    assert len(updates) >= 4  # the rule reads the body that updates in place
    assert found == []


def test_pole_angles_take_one_log_per_newton_step():
    # The loop's two logs are one, log(A/B): a log costs several times an
    # exp, and on the solved half the quotient has the same principal branch.
    tree = ast.parse((PACKAGE / "transport.py").read_text())
    solver = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_pole_angles")
    logs = [node.lineno for node in ast.walk(solver)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "log" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"]
    assert len(logs) == 1, logs


def test_routes_build_their_unit_kernel_in_one_place():
    # transport._chebyshev is the one evaluator of the routes' Chebyshev
    # continuants and |det C~|**2: one unit-kernel construction under
    # src/qwire, and the current's quadrature integrand reads |det C~|**2
    # from it instead of forming its own.
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "_continuant_kernel" and node.args
                  and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1]
    assert len(sites) == 1 and sites[0].startswith("transport.py:"), sites
    tree = ast.parse((PACKAGE / "transport.py").read_text())
    current = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "landauer_current")
    names = {node.id for node in ast.walk(current) if isinstance(node, ast.Name)}
    assert "_chebyshev" in names and "_continuant_kernel" not in names
    integrand = next(node for node in ast.walk(current)
                     if isinstance(node, ast.FunctionDef) and node is not current)
    squares = [node.lineno for node in ast.walk(integrand)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
               and ast.dump(node.left) == ast.dump(node.right)]
    squares += [node.lineno for node in ast.walk(integrand)
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
                and ast.dump(node.target).replace("Store", "Load") == ast.dump(node.value)]
    assert squares == []
