"""The package's modules import only downward: graph -> cotree -> spectra ->
recognition -> families -> oracle -> verify/sweep -> cli."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import qcograph

TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(qcograph.__file__).parent.glob("*.py"))}


def _relative_imports(nodes) -> list[tuple[int, set[str]]]:
    """(line, sibling modules named) of each relative import among nodes."""
    return [
        (node.lineno, {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names})
        for node in nodes
        if isinstance(node, ast.ImportFrom) and node.level
    ]


def test_no_relative_import_inside_a_function():
    found = [
        f"{module}.py:{line} in {fn.name}()"
        for module, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for line, _ in _relative_imports(ast.walk(fn))
    ]
    assert found == []


def test_module_level_imports_are_acyclic():
    graph = {
        module: set().union(*(targets for _, targets in _relative_imports(tree.body)))
        for module, tree in TREES.items()
    }
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
