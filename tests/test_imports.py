"""The package's import graph: every import at module level, and no cycle.

An import inside a function hides a dependency from the module's header
and lets two modules import each other; both are read off the source's
syntax trees, so no module is imported here.
"""

import ast
from pathlib import Path

import sdskit

PACKAGE = Path(sdskit.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree: ast.Module) -> set[str]:
    """The sdskit modules a module imports, by relative import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:     # from . import a, b
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out & set(MODULES)


def test_no_import_sits_inside_a_function():
    nested = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_no_module_imports_one_that_imports_it_back():
    graph = {name: _imports(tree) for name, tree in MODULES.items()}
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]):
        assert name not in path, " -> ".join(path + (name,))
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + (name,))
            done.add(name)

    for name in sorted(graph):
        visit(name, ())


def test_the_rewriting_engine_imports_no_other_module():
    assert _imports(MODULES["rewriting"]) == set()


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module's imports bind that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    unused = {name: found for name, tree in MODULES.items() if (found := _unused_imports(tree))}
    assert unused == {}
