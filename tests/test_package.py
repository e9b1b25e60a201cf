"""Shape of the package itself: its module import graph and its exports."""

import ast
import types
from graphlib import TopologicalSorter
from pathlib import Path

import nftdev

PACKAGE = Path(nftdev.__file__).resolve().parent


def _imported_modules(node: ast.AST) -> list[str]:
    """The nftdev modules an import statement loads; "__init__" is the
    package itself."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    elif isinstance(node, ast.ImportFrom) and node.module is None:  # from . import x
        names = [f"nftdev.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [f"nftdev.{node.module}"]
    else:
        return []
    parts = [name.split(".") for name in names]
    return [p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "nftdev"]


def _imports(node: ast.AST, why: str | None = None):
    """(import node, None or where it hides) for every import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, why
        inner = why
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = why or "inside a function"
        elif isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(child.test):
            inner = why or "under TYPE_CHECKING"
        yield from _imports(child, inner)


def _module_graph():
    """{module: modules it imports} over the package, and the package
    imports hidden inside a function or under TYPE_CHECKING."""
    graph, hidden = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        edges = graph.setdefault(path.stem, set())
        for node, why in _imports(tree):
            for target in _imported_modules(node):
                edges.add(target)
                if why is not None:
                    hidden.append(f"{path.name}:{node.lineno} imports {target} {why}")
    return graph, hidden


def test_import_graph_is_acyclic_and_top_level():
    graph, hidden = _module_graph()
    assert {"core", "engine", "textio", "__init__"} <= set(graph)
    assert hidden == []
    TopologicalSorter(graph).prepare()  # raises CycleError naming a cycle


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(nftdev).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(nftdev.__all__) == public
    assert len(nftdev.__all__) == len(set(nftdev.__all__))
    assert all(hasattr(nftdev, name) for name in nftdev.__all__)


# Public functions that no other package module calls, kept as library entry points.
ENTRY_POINTS = {
    "deviation_to_comparison",  # the reduction the benchmark's compare workload is built with
    "shift_assignment",  # the documented shift potential, as shift_assignment(trim(t))
    "comparison_to_deviation",  # the product the benchmark, the README and the tests use
    "reachable",  # in __all__: the acceptance suite's ground truth for the reach gadgets
    "main",  # the CLI entry that the tests drive; entry() and __main__ call it
}


def _uncalled_public_functions() -> set[str]:
    """Public top-level functions of the package that no other package
    module calls, by name or attribute (the CLI included)."""
    defined, callers = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not top.name.startswith("_"):
                    defined[top.name] = path.stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                callers.setdefault(name, set()).add(path.stem)
    return {name for name, module in defined.items() if not callers.get(name, set()) - {module}}


def test_every_public_function_has_a_caller_or_is_an_entry_point():
    # algorithms that only tests call belong in tests/helpers.py, and a
    # function that only its own module calls is private to it
    assert _uncalled_public_functions() == ENTRY_POINTS


def test_engine_does_not_reach_textio():
    # the engine reads its bounds from the shift potential, so no analysis
    # serializes the transducer it analyzes
    graph, _ = _module_graph()
    reached, todo = set(), ["engine"]
    while todo:
        for target in graph[todo.pop()] - reached:
            reached.add(target)
            todo.append(target)
    assert "textio" not in reached


def _orphaned_private_names() -> list[str]:
    """Private top-level names of the package (functions, classes and
    assignments) that no package code refers to outside their own
    definition, by name, attribute or import."""
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    referred: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referred.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                referred.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.alias):
                referred.setdefault(node.name, []).append(node)
    orphans = []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [
                    n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)
                ]
            else:
                continue
            inside = {id(node) for node in ast.walk(top)}
            for name in names:
                if not name.startswith("_") or name.startswith("__") and name.endswith("__"):
                    continue
                if all(id(node) in inside for node in referred.get(name, ())):
                    orphans.append(f"{module}.{name}")
    return orphans


def test_every_private_name_is_used_in_the_package():
    # a private helper that only its own body or the tests refer to is dead
    # code, or an algorithm of the tests, which belongs in tests/
    assert _orphaned_private_names() == []
