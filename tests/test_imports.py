"""Every name a module imports is used or re-exported, every ``__all__``
entry names something the module defines or imports, every private
function, class and method in ``src/ascl`` is referenced there, and every
engine export and public ``Tensor`` method has a caller there."""

import ast
from collections import Counter
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "ascl").glob("*.py"))


def _imported(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _defined(tree):
    names = {name for _, name in _imported(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_used_and_all_resolves(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _exported(tree)
    unused = [f"{path.name}:{line} {name}" for line, name in _imported(tree)
              if name not in used and name not in exported]
    assert unused == []
    assert exported - _defined(tree) == set()


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_private(node.name):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _is_private(item.name):
                    yield item.lineno, item.name


def test_private_definitions_are_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unreferenced = [f"{name}:{line} {fn}" for name, tree in trees.items()
                    for line, fn in _private_definitions(tree) if fn not in referenced]
    assert unreferenced == []


def test_engine_exports_are_imported_in_src():
    """An op that no other module imports leaves ``tensor.__all__``, and the
    engine, with its last caller."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    imported = {alias.name for name, tree in trees.items() if name != "tensor.py"
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module == "tensor"
                for alias in node.names}
    assert _exported(trees["tensor.py"]) - imported == set()


def test_tensor_methods_are_referenced_in_src():
    """A public ``Tensor`` method needs a reference in ``src/ascl`` outside its
    own body, by attribute or by name, as in ``__matmul__ = matmul``; an op
    whose last caller went leaves the engine with it."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    (tensor,) = [node for node in trees["tensor.py"].body
                 if isinstance(node, ast.ClassDef) and node.name == "Tensor"]
    methods = [node for node in tensor.body if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")]

    def references(nodes):
        # numpy's functions share names with the methods: np.sqrt is no caller
        return Counter(node.attr if isinstance(node, ast.Attribute) else node.id
                       for node in nodes if isinstance(node, ast.Name) or (
                           isinstance(node, ast.Attribute)
                           and not (isinstance(node.value, ast.Name) and node.value.id == "np")))

    everywhere = references(node for tree in trees.values() for node in ast.walk(tree))
    unreferenced = [m.name for m in methods
                    if everywhere[m.name] == references(ast.walk(m))[m.name]]
    assert unreferenced == []
