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


def _caught(handler: ast.ExceptHandler) -> set[str]:
    """Names of the exception classes the handler catches."""
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {k.id for k in kinds if isinstance(k, ast.Name)}


def test_no_bare_except_and_base_exception_handlers_reraise():
    # a bare except or except BaseException also catches KeyboardInterrupt
    # and SystemExit, so it must hand them on
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            catches_base = "BaseException" in _caught(node)
            if node.type is None or (catches_base and not _reraises(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], found


def test_construct_gives_up_on_a_flow_miss():
    # a route's flows run where the lemmas promise them, so a miss is
    # final: every handler returns None, and no loop retries a candidate
    tree = ast.parse((SRC / "construct.py").read_text())
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                and "InsufficientConnectivity" in _caught(node)]
    assert handlers
    found = [f"construct.py:{h.lineno}" for h in handlers
             if ast.dump(ast.Module(h.body, [])) != ast.dump(ast.parse("return None"))]
    assert found == [], found


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _solve_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "solve_tripod"]


def test_only_the_solver_retries():
    # solve_tripod's seeded restarts are the one retry layer: a route
    # solves each structure once, so no solve sits inside a loop
    tree = ast.parse((SRC / "construct.py").read_text())
    assert _solve_calls(tree)
    found = sorted({f"construct.py:{call.lineno}" for loop in ast.walk(tree)
                    if isinstance(loop, _LOOPS) for call in _solve_calls(loop)})
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


def test_only_the_graph_layer_reads_generator_rows():
    # the generator layout of a row stays behind the graph layer: every
    # other module, the flow layer included, reads neighbours through
    # View.neighbors or g.nbrs
    found = [f"{path.name}:{node.lineno}" for path, tree in _trees()
             if path.name != "graphs.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "nbr_gens"]
    assert found == [], found


# (function, parameter) pairs a caller's signature imposes: the CLI
# handler table calls every handler with (args, argv), and the context
# protocol passes __exit__ the exception triple
_UNREAD_BY_SIGNATURE = frozenset({("_cmd_gen", "argv"), ("__exit__", "exc")})


def test_every_parameter_is_read():
    # a parameter nothing reads is dead API that every caller still has to pass
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          a.vararg, a.kwarg) if arg is not None]
            read = {name.id for stmt in node.body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            found += [f"{path.name}:{node.lineno} {node.name}({param})" for param in params
                      if param not in read and param not in ("self", "cls")
                      and (node.name, param) not in _UNREAD_BY_SIGNATURE]
    assert found == [], found


def test_the_checkers_read_adjacency_through_views_only():
    # the checkers re-derive validity from a View alone, so they read no
    # graph, adjacency row, generator row or vertex set of their own
    tree = ast.parse((SRC / "verification.py").read_text())
    found = [f"verification.py:{node.lineno} .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("graph", "nbrs", "nbr_gens", "allowed")]
    assert found == [], found


def test_views_name_their_vertex_set():
    # a view always holds its vertex set (a frozenset, or a range for the
    # whole graph), so nothing tests it for None and every View is built
    # with its graph and that set
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(isinstance(x, ast.Attribute) and x.attr == "allowed" for x in sides)
                        and any(isinstance(x, ast.Constant) and x.value is None for x in sides)):
                    found.append(f"{path.name}:{node.lineno} .allowed against None")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "View" and len(node.args) + len(node.keywords) != 2):
                found.append(f"{path.name}:{node.lineno} View() without two arguments")
    assert found == [], found


def _package_imports(tree) -> set:
    """The package modules a module imports, at module level or inside
    a function.  ``from .x import ...`` and ``import tripaths.x`` name x,
    ``from . import x`` names x, and the bare package (``import
    tripaths``, ``from tripaths import ...``) names ``__init__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "tripaths":
                found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


_CHECKERS = ("certify", "verification", "oracle")
_SOLVER = frozenset({"flows", "tripod", "construct", "pairing", "lemmas", "cli"})


def test_the_checker_side_imports_no_solver_module():
    # a certificate is re-checked by code the solver does not share, so
    # a bug in the solver cannot bend the verifier the same way
    imports = {path.stem: _package_imports(tree) for path, tree in _trees()}
    closure, stack = set(), list(_CHECKERS)
    while stack:
        module = stack.pop()
        if module not in closure:
            closure.add(module)
            stack.extend(imports.get(module, ()))
    assert sorted(closure & _SOLVER) == []
    assert closure <= set(imports), sorted(closure - set(imports))


def _top_level_names(tree):
    """Names a module defines at its top level: functions, classes and
    assigned names, imports excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_no_top_level_name_is_defined_in_two_modules():
    # each record, bound and helper has one home; the others import it
    homes: dict[str, list[str]] = {}
    for path, tree in _trees():
        for name in set(_top_level_names(tree)):
            homes.setdefault(name, []).append(path.stem)
    twice = {name: where for name, where in homes.items() if len(where) > 1}
    assert twice == {}, twice


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
