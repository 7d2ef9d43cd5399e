"""femtonet's invariant checks raise AssertionError through one helper
instead of `assert`, so they still check under python -O."""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import femtonet

MODULES = sorted(pathlib.Path(femtonet.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}; use _checks.require"


OPTIMIZED_SCRIPT = textwrap.dedent("""
    import sys
    from femtonet.neighborlist import NeighborList
    from femtonet.spectrum import build_plan, verify_plan_relations
    from femtonet.topology import place_femtocells

    if not sys.flags.optimize:
        sys.exit("not running under python -O")
    plan = build_plan("dedicated", place_femtocells(seed=5, count=20))
    plan._bands["Bf"] = plan.band("Bm")
    bad_list = NeighborList(entries=[3, 4], provenance={}, n_detected=2, n_strong=2,
                            n_same_freq=0, m_hidden=1, serving=0)
    for check in (lambda: verify_plan_relations(plan), bad_list.check_count_identity):
        try:
            check()
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("passed")
""")


def test_checks_still_raise_under_python_o():
    src = os.path.dirname(os.path.dirname(femtonet.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: dedicated: Bm and Bf overlap",
        "raised: list holds 2 entries, not N1 - N2 + M = 2 - 0 + 1",
    ]
