"""Every name that a femtonet module or a test module imports is used in
that module, every private name that a femtonet module defines at module
level is used in that module, a femtonet module imports only at its top
level, every public function and class of femtonet, and every public
method and property of such a class, has a caller outside the tests, and
every public field of such a class has a reader outside the tests."""

import ast
import pathlib

import pytest

import femtonet

SRC_MODULES = sorted(pathlib.Path(femtonet.__file__).parent.glob("*.py"))
MODULES = SRC_MODULES + sorted(pathlib.Path(__file__).parent.glob("*.py"))
REPO = pathlib.Path(__file__).resolve().parents[1]


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


def _public_api(path) -> dict[str, int]:
    """Module-level public functions and classes, by name, with their line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _public_methods(path) -> dict[str, int]:
    """Public methods and properties of the module-level public classes, by
    `Class.name`, with their line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {f"{cls.name}.{node.name}": node.lineno for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def _named(source: str) -> set[str]:
    """Every identifier that Python source names: as a variable, an
    attribute, an imported name, or a string (perfbench looks its traced
    functions up by name)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _public_fields(path) -> dict[str, int]:
    """The annotated fields of the module-level public classes, by
    `Class.name`, with their line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {f"{cls.name}.{node.target.id}": node.lineno for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and not node.target.id.startswith("_")}


def _read(source: str) -> set[str]:
    """Every attribute that Python source reads, by `.name` or as a string
    (`getattr(obj, "name")`); setting an attribute, storing or deleting an
    item of it (`obj.name[key] = value`) or passing it by keyword does not
    read it."""
    tree = ast.parse(source)
    written = {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)}
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in written):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _uncalled_api(paths, sources, api=_public_api, names=_named) -> list[tuple[str, int, str]]:
    """(module, line, name) of each name of `paths` that `api` lists (the
    public functions and classes, by default) and no source names (or
    reads, with names=_read); a method or field counts as named when its
    own name is."""
    named = set().union(*map(names, sources))
    return [(path.name, line, name) for path in paths
            for name, line in sorted(api(path).items())
            if name.rpartition(".")[2] not in named]


def _library_example() -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


# the paper's entry points that only the tests call: the Ch. 5 and Ch. 6
# admission policies, the handover call flows and their trace check, the
# macro-side neighbor list, the Monte-Carlo outage, FAP removal under
# dynamic reuse, the birth-death solver and the Erlang chain of the DES
TEST_ONLY_API = {
    "admission.py": ("admit_new_call", "admit_macro_to_femto", "admit_from_femto",
                     "admit_ch6"),
    "handoverflow.py": ("run_flow", "validate_trace"),
    "neighborlist.py": ("build_list_from_macro",),
    "radio.py": ("outage_probability_mc",),
    "queueing.py": ("birth_death_probs",),
    "des.py": ("spec_for_erlang",),
}


def _api_users() -> list[str]:
    """The sources whose names count as callers: femtonet, perfbench,
    benchmarks and the README library example."""
    return [*(path.read_text(encoding="utf-8")
              for path in SRC_MODULES + sorted((REPO / "perfbench").glob("*.py"))
              + sorted((REPO / "benchmarks").glob("*.py"))), _library_example()]


def test_every_public_function_and_class_has_a_caller():
    """Outside the listed test-only entry points, which must stay uncalled
    so that the list does not go stale."""
    uncalled = _uncalled_api(SRC_MODULES, _api_users())
    assert {(module, name) for module, _, name in uncalled} == \
        {(module, name) for module, names in TEST_ONLY_API.items() for name in names}


def test_every_public_method_and_property_has_a_caller():
    assert _uncalled_api(SRC_MODULES, _api_users(), _public_methods) == []


# the public fields that only the tests read, each with its reason: the
# paper's outputs that a caller reads back, and records that name their item
TEST_ONLY_FIELDS = {
    "admission.py": {
        "AdmissionDecision.reason": "the Ch. 5 CAC's reason for its outcome",
        "AdmissionDecision.degradations": "the calls that a Ch. 5 admission degraded",
        "AdmissionDecision.state": "the cell load that a Ch. 5 admission leaves",
    },
    "experiments.py": {
        "ExperimentResult.metadata": "how a run converged, for the run manifest to record",
    },
    "handoverflow.py": {
        "FlowTrace.diagnostic": "why a handover call flow stopped",
    },
    "neighborlist.py": {
        "NeighborList.provenance": "why each FAP is on the Ch. 5 neighbor list",
        "NeighborList.serving": "the FAP or macrocell that a list serves",
        "RssiScan.serving": "the FAP or macrocell that a scan was made in",
    },
    "queueing.py": {
        "Ch6Cell.ell": "the Ch. 6 chain's L, which new_limit holds for the chain",
        "ChainSolution.residual": "the last residual of a Ch. 6 fixed point",
        "TwoTierSolution.residuals": "the residuals of a two-tier fixed point",
    },
    "topology.py": {
        "FemtoSite.id": "the FAP that a site record names",
    },
    "videoalloc.py": {
        "LayerAllocation.total_bw": "the bandwidth that a Ch. 7 layer allocation spends",
        "MbsSession.id": "the Ch. 7 session that a record names",
    },
}


def test_every_public_field_has_a_reader():
    """Outside the listed test-only fields, which must stay unread so that
    the list does not go stale."""
    unread = _uncalled_api(SRC_MODULES, _api_users(), _public_fields, _read)
    assert {(module, name) for module, _, name in unread} == \
        {(module, name) for module, names in TEST_ONLY_FIELDS.items() for name in names}


def test_an_unread_public_field_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from dataclasses import dataclass\n\n\n@dataclass\nclass Cell:\n"
                    "    load: float\n    limit: int\n    label: str = ''\n"
                    "    unread: int = 0\n    _private: int = 0\n    log: dict = None\n"
                    "    rows: tuple = ()\n\n    def grow(self):\n"
                    "        return self.limit + 1\n\n\n@dataclass\nclass _Hidden:\n"
                    "    unread: int\n")
    # the module reads its own fields too, as each femtonet module is a user;
    # an item stored into or deleted from a field does not read it, and an
    # item loaded from one does
    users = [path.read_text(encoding="utf-8"),
             "from mod import Cell\ncell = Cell(load=1.0, limit=2, unread=3)\n"
             "cell.unread = 4\nprint(cell.load, cell.grow(), getattr(cell, 'label'))\n"
             "cell.log['steps'] = 5\ndel cell.log['steps']\n"
             "print(cell.rows[0])\n"]
    assert _uncalled_api([path], users, _public_fields, _read) == [
        ("mod.py", 11, "Cell.log"), ("mod.py", 9, "Cell.unread")]


def test_an_uncalled_public_function_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def by_name():\n    pass\n\n\ndef by_attribute():\n    pass\n\n\n"
                    "class Imported:\n    pass\n\n\ndef uncalled():\n    return by_attribute\n\n\n"
                    "class Uncalled:\n    pass\n\n\ndef _private():\n    pass\n")
    users = ["import mod\nfrom mod import Imported\nmod.by_attribute()\n",
             "TRACED = ('by_name',)\n"]
    assert _uncalled_api([path], users) == [("mod.py", 17, "Uncalled"), ("mod.py", 13, "uncalled")]


def test_an_uncalled_public_method_is_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class Cell:\n    def __init__(self):\n        pass\n\n"
                    "    def solve(self):\n        pass\n\n    @property\n"
                    "    def load(self):\n        pass\n\n    def solve_grid(self):\n"
                    "        pass\n\n    def _helper(self):\n        pass\n\n\n"
                    "class _Private:\n    def uncalled(self):\n        pass\n")
    users = ["from mod import Cell\nCell().solve()\nprint(Cell().load)\n"]
    assert _uncalled_api([path], users, _public_methods) == [("mod.py", 12, "Cell.solve_grid")]
