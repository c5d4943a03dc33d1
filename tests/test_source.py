"""Source-level gates on the package."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tripaths"


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_no_assert_statements_in_the_package():
    # gates that guard certificates must hold under python -O, which strips asserts
    found = [f"{path.name}:{node.lineno}" for path, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], found


def _reraises(handler: ast.ExceptHandler) -> bool:
    """A bare ``raise``, or a raise of the caught exception, in the handler."""
    return any(isinstance(node, ast.Raise) and (
        node.exc is None or (isinstance(node.exc, ast.Name) and node.exc.id == handler.name))
        for stmt in handler.body for node in ast.walk(stmt))


def test_no_bare_except_and_base_exception_handlers_reraise():
    # a bare except or except BaseException also catches KeyboardInterrupt
    # and SystemExit, so it must hand them on
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            catches_base = any(isinstance(k, ast.Name) and k.id == "BaseException"
                               for k in kinds)
            if node.type is None or (catches_base and not _reraises(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], found


_HEAVY = frozenset({"concurrent", "multiprocessing", "numpy", "scipy"})


def _import_time_imports(tree):
    """Import statements that run when the module is imported: all of
    them outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_heavy_imports_stay_out_of_module_level():
    # gen, structure, verify, lemmas and serial pi3 start no process pool
    # and solve no MILP, so only the oracle may load these on import
    found = []
    for path, tree in _trees():
        if path.name == "oracle.py":
            continue
        for node in _import_time_imports(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module] if node.level == 0 and node.module else []
            if any(name.split(".")[0] in _HEAVY for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], found


def test_only_flows_uses_private_flow_names():
    # every flow goes through the public flow functions, so the flow
    # engine (``_FlowQuery`` and its kernels) stays private to flows.py
    found = []
    for path, tree in _trees():
        if path.name == "flows.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 1 and node.module == "flows")
                    or (node.level == 0 and node.module == "tripaths.flows")):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == [], found


def _project():
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _requirement_names(requirements) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def _undeclared_imports(trees, declared) -> list:
    """Top-level modules the trees import that neither come with Python
    nor are tripaths or ``declared``."""
    imported = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return sorted(name for name in imported - declared
                  if name != "tripaths" and name not in sys.stdlib_module_names)


def test_test_extra_names_every_module_the_tests_import():
    # ``pip install -e '.[test]'`` must be enough to collect the suite
    listed = _requirement_names(_project()["optional-dependencies"]["test"])
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "tests").glob("**/*.py"))]
    missing = _undeclared_imports(trees, listed)
    assert missing == [], missing


def test_project_names_every_module_the_package_imports():
    # each import of the package comes with Python or with an install of
    # the project: its dependencies or one of its extras
    project = _project()
    declared = _requirement_names(project["dependencies"])
    for requirements in project["optional-dependencies"].values():
        declared |= _requirement_names(requirements)
    missing = _undeclared_imports([tree for _, tree in _trees()], declared)
    assert missing == [], missing
