"""femtonet's invariant checks raise AssertionError through one helper
instead of `assert`, so they still check under python -O, and its shared
input rules (_checks.finite, fraction, integer and whole_count) keep their
messages."""

import ast
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import femtonet
from femtonet._checks import finite, fraction, integer, whole_count
from femtonet.admission import CellLoadState, TrafficClass, admit_ch6
from femtonet.experiments import check_scenario
from femtonet.queueing import Ch7QueueParams, TwoTierParams
from femtonet.radio import PropagationParams, shannon_throughput
from femtonet.scenario import apply_overrides, scenario_from_preset
from femtonet.topology import MacroGeometry
from femtonet.videoalloc import MbsSession, allocate_popularity

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


# -- the shared input rules: finite, fraction, integer and whole_count -------

@pytest.mark.parametrize("minimum, strict, bound", [
    (-math.inf, False, ""), (0, False, " and >= 0"), (0.0, True, " and > 0"),
    (2, False, " and >= 2"), (2.0, True, " and > 2")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                   np.float32(math.inf)])
def test_finite_rejects_nan_and_inf_with_its_message(value, minimum, strict, bound):
    with pytest.raises(ValueError) as got:
        finite("rate", value, minimum, strict)
    assert str(got.value) == f"rate must be finite{bound}, got {value!r}"


@pytest.mark.parametrize("minimum, strict, bound", [
    (0, False, ">= 0"), (0.0, True, "> 0"), (2.0, False, ">= 2"), (2, True, "> 2")])
def test_finite_holds_its_bound_with_and_without_strict(minimum, strict, bound):
    below = math.nextafter(minimum, -math.inf)
    for value in (below, np.float64(below), *([minimum] if strict else [])):
        with pytest.raises(ValueError) as got:
            finite("x", value, minimum, strict)
        assert str(got.value) == f"x must be finite and {bound}, got {value!r}"
    above = math.nextafter(minimum, math.inf)
    for value in (above, np.float64(above), 10**400, *([] if strict else [minimum])):
        assert finite("x", value, minimum, strict) is value


def test_finite_without_a_minimum_is_math_isfinite():
    for value in (-1e308, 0.0, 5, np.float64(-3.5), np.int64(-7)):
        assert finite("x", value) is value
    # math.isfinite takes no int past the float range; no caller passes one
    with pytest.raises(OverflowError):
        finite("x", 10**400)


@pytest.mark.parametrize("value", [0, 0.0, 0.5, 1, 1.0, np.float64(1.0), np.float32(0.25)])
def test_fraction_takes_the_closed_unit_interval(value):
    assert fraction("share", value) is value


@pytest.mark.parametrize("value", [math.nan, -0.0 - 5e-324, 1.0 + 2**-52, math.inf,
                                   -math.inf, np.float64(math.nan), np.float64(1.5)])
def test_fraction_rejects_what_lies_outside_with_its_message(value):
    with pytest.raises(ValueError) as got:
        fraction("share", value)
    assert str(got.value) == f"share must lie in [0, 1], got {value!r}"


@pytest.mark.parametrize("value", [0, -3, 2**70, True, np.int64(-2), np.uint64(2**64 - 1),
                                   np.int8(5)])
def test_integer_takes_python_and_numpy_integers_as_int(value):
    got = integer("seed", value)
    assert type(got) is int and got == int(value)


@pytest.mark.parametrize("value", [1.0, 1.9, math.nan, math.inf, "7", None, np.float64(2.0)])
def test_integer_rejects_the_rest_with_its_message(value):
    with pytest.raises(ValueError) as got:
        integer("seed", value)
    assert str(got.value) == f"seed must be an integer, got {value!r}"


@pytest.mark.parametrize("value, minimum", [(0, 0), (3.0, 1), (np.int64(4), 4),
                                            (np.float64(7.0), 0), (2**70, 0)])
def test_whole_count_takes_whole_numbers_from_its_minimum(value, minimum):
    got = whole_count("n", value, minimum)
    assert type(got) is int and got == value


@pytest.mark.parametrize("value, minimum", [(-1, 0), (0, 1), (2.5, 0), (math.nan, 0),
                                            (math.inf, 0), (-math.inf, 0),
                                            (np.float64(0.5), 0), (np.int64(-1), 0)])
def test_whole_count_rejects_the_rest_with_its_message(value, minimum):
    with pytest.raises(ValueError) as got:
        whole_count("n", value, minimum)
    assert str(got.value) == f"n must be a whole number >= {minimum}, got {value!r}"


@pytest.mark.parametrize("value", [10**400, -10**400, 2**1024])
def test_whole_count_names_an_int_past_the_float_range(value):
    # float(value) raised OverflowError, which the CLI printed as a traceback
    with pytest.raises(ValueError) as got:
        whole_count("n", value, 0)
    assert str(got.value) == f"n must be a whole number within the float range, got {value!r}"
    assert whole_count("n", 2**1023, 0) == 2**1023


# one NaN case per module whose checks go through finite or fraction,
# through a public entry, with the message the module raised before it
# used the helpers
NAN_MESSAGES = [
    ("admission", lambda: TrafficClass(0, "rt", math.nan),
     "requested_bw must be finite and > 0, got nan"),
    ("admission", lambda: admit_ch6(CellLoadState(10.0, (TrafficClass(0, "rt", 1.0),)), 0,
                                    "new", math.nan),
     "guard_bw must be finite and >= 0, got nan"),
    ("experiments", lambda: check_scenario(_scenario("radio.sir_threshold_db = nan")),
     "radio.sir_threshold_db must be finite, got nan"),
    ("queueing", lambda: TwoTierParams(1.0, 1.0, 1.0, 0.1, 0.1, 10, alpha=math.nan),
     "alpha must lie in [0, 1], got nan"),
    ("queueing", lambda: Ch7QueueParams(1, 4, 2, 1, 1.0, 1.0, 1.0, 1.0, math.nan),
     "mu must be finite and > 0, got nan"),
    ("radio", lambda: PropagationParams(path_loss_exp_serving=math.nan),
     "path_loss_exp_serving must be finite and >= 2, got nan"),
    ("radio", lambda: shannon_throughput(math.nan, 1.0),
     "bandwidth_hz must be finite and >= 0, got nan"),
    ("scenario", lambda: _scenario("traffic.arrival_density_ratio = nan").two_tier_params(10),
     "traffic.arrival_density_ratio must be finite and >= 0, got nan"),
    ("scenario", lambda: _scenario("traffic.guard_fraction = nan").ch6_params(0.1),
     "traffic.guard_fraction must lie in [0, 1], got nan"),
    ("topology", lambda: MacroGeometry(min_separation_m=math.nan),
     "min_separation_m must be finite and >= 0, got nan"),
    ("videoalloc", lambda: MbsSession(1, math.nan, 1.0, 2),
     "base_bw must be finite and > 0, got nan"),
    ("videoalloc", lambda: allocate_popularity(math.nan, 2.0, 1.0, [[3, 2, 1]]),
     "capacity must be finite, got nan"),
]


def _scenario(line):
    return apply_overrides(scenario_from_preset(""), [line])


@pytest.mark.parametrize("module, call, message", NAN_MESSAGES,
                         ids=[f"{case[0]}-{k}" for k, case in enumerate(NAN_MESSAGES)])
def test_a_nan_input_keeps_its_message(module, call, message):
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message
