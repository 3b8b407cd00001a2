"""Every name a module imports is used or re-exported, every ``__all__``
entry names something the module defines or imports, every private
function, class and method in ``src/ascl`` is referenced there, every
engine export has an importer there, ``Tensor`` defines no op and
holds one VJP per node, ``tensor.py`` holds only the engine, and
``errors.py`` imports no other ``ascl`` module."""

import ast
from pathlib import Path

import pytest

from ascl.tensor import Tensor

SRC = Path(__file__).resolve().parent.parent / "src" / "ascl"
MODULES = sorted(SRC.glob("*.py"))


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


def test_tensor_methods_are_item_and_backward():
    """``Tensor`` is storage, ``shape``, ``_make`` and the walk: its public
    methods are ``item`` and ``backward``, and it defines no operator, so an
    op can come back to the engine only with an edit to this list."""
    tree = ast.parse((SRC / "tensor.py").read_text())
    (tensor,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Tensor"]
    defined = {node.name for node in tensor.body if isinstance(node, ast.FunctionDef)}
    defined |= {t.id for node in tensor.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(t, ast.Name)}
    assert defined == {"__slots__", "__init__", "shape", "item", "__repr__", "_make", "backward"}


def test_tensor_module_holds_only_the_engine():
    """``tensor.py`` defines ``Tensor`` and ``_lse_softmax`` and nothing else at
    module level; input checks live in ``errors.py``."""
    tree = ast.parse((SRC / "tensor.py").read_text())
    imported = {name for _, name in _imported(tree)}
    assert _defined(tree) - imported == {"Tensor", "_lse_softmax", "__all__"}


def test_errors_imports_no_other_ascl_module():
    """Every module imports its exceptions and checks from ``errors.py``, so it
    must import none of them back."""
    tree = ast.parse((SRC / "errors.py").read_text())
    modules = ["." * node.level + (node.module or "") for node in tree.body
               if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in tree.body if isinstance(node, ast.Import)
                for alias in node.names]
    assert [m for m in modules if m.startswith(".") or m.split(".")[0] == "ascl"] == []


def test_a_node_holds_one_vjp():
    """A node's adjoint is one map from its gradient to every parent's share."""
    assert Tensor.__slots__ == ("data", "_parents", "_vjp")
