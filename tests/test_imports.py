"""Every name that a femtonet module or a test module imports is used in
that module, every private name that a femtonet module defines at module
level is used in that module, and a femtonet module imports only at its
top level."""

import ast
import pathlib

import pytest

import femtonet

SRC_MODULES = sorted(pathlib.Path(femtonet.__file__).parent.glob("*.py"))
MODULES = SRC_MODULES + sorted(pathlib.Path(__file__).parent.glob("*.py"))


def _unused_imports(path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _unused_private_names(path) -> list[str]:
    """Module-level `_name` functions, classes and constants that nothing in
    the module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(defined.items())
            if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert _unused_private_names(path) == []


def test_an_unused_private_name_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("_LIMIT = 3\n_USED = 4\n\n\ndef _helper():\n    return _USED\n\n\n"
                    "class _Record:\n    pass\n\n\ndef public(_arg):\n    return _arg\n")
    assert _unused_private_names(path) == ["mod.py:1: _LIMIT", "mod.py:9: _Record",
                                           "mod.py:5: _helper"]


def _nested_imports(path) -> list[str]:
    """`import` statements inside a function or class body."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = {node.lineno for scope in ast.walk(tree)
             if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             for node in ast.walk(scope) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [f"{path.name}:{line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    assert _nested_imports(path) == []


def test_a_nested_import_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\ntry:\n    import json\nexcept ImportError:\n    json = None\n\n\n"
                    "def f():\n    import math\n\n    def g():\n        from os import path\n"
                    "    return g\n\n\nclass C:\n    import sys\n")
    assert _nested_imports(path) == ["mod.py:9", "mod.py:12", "mod.py:17"]
