"""The runtime imports nothing outside the standard library, and carries
no dead imports or private functions: a stdlib dead-code guard on ast."""

import ast
import sys
from pathlib import Path

import bracelab


def _src_trees():
    modules = sorted(Path(bracelab.__file__).parent.rglob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in modules]


def test_every_absolute_import_is_stdlib():
    outside = []
    for module, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (module, name)
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def _read_names(tree) -> set[str]:
    """Names a module reads: loaded names, attributes, and the names its
    __all__ exports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return read


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for name, tree in _src_trees():
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [(name, b) for b in bound if b not in read]
    assert unread == []


def test_every_private_function_has_a_reader():
    trees = _src_trees()
    read = set().union(*(_read_names(tree) for _, tree in trees))
    private = [
        (name, node.name)
        for name, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    ]
    assert private
    assert [(name, f) for name, f in private if f not in read] == []
