import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scalar_sir

from femtonet.radio import (
    PropagationParams,
    db_to_linear,
    link_power,
    outage_probability_closed_form,
    outage_probability_mc,
    shannon_throughput,
    sir,
    wall_attenuation,
)
from femtonet.spectrum import SCHEMES, build_plan
from femtonet.topology import (
    CellTopology,
    DegenerateGeometryError,
    MacroGeometry,
    UnknownSiteError,
    neighbors_of,
    place_femtocells,
)


def _manual_topo(positions, macro_ue_walls=0):
    return CellTopology(
        macro_radius_m=1000.0,
        femto_radius_m=10.0,
        macro_sites=[(0.0, 0.0)],
        femtocells=list(range(len(positions))),
        positions=positions,
        macro_ue_walls=macro_ue_walls,
    )


# ---------------------------------------------------------------------------
# link power


def test_link_power_unit_constants():
    assert link_power(1.0, 1.0, 10.0, 2.0, wall_attenuation(20.0, 0)) == pytest.approx(0.01)


def test_link_power_power_law():
    near = link_power(1.0, 1.0, 5.0, 4.0, 1.0)
    far = link_power(1.0, 1.0, 10.0, 4.0, 1.0)
    assert near / far == pytest.approx(16.0)


def test_link_power_monotone_in_walls():
    vals = [link_power(1.0, 1.0, 10.0, 3.0, wall_attenuation(20.0, w)) for w in range(4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] / vals[1] == pytest.approx(100.0)  # 20 dB per wall


def test_sir_table43_serving_link_oracle():
    # 10 mW FAP at the 5 m indoor range, xi = Z = 1: hand evaluation of the
    # chosen indoor formula P_T * P0 * d^-2
    topo = _manual_topo([(200.0, 0.0)])
    got = sir(topo, build_plan("shared", topo), (205.0, 0.0), 0).signal_w
    expected = 0.01 * 10 ** (-31.5 / 10.0) * 5.0 ** -2.0
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("ue", [(5.0, 0.0), (20.0, 0.0), (0.0, 0.0)],
                         ids=["serving", "femto-interferer", "macro-interferer"])
def test_sir_rejects_a_zero_length_link(ue):
    # the serving FAP sits 5 m from the macro BS, its neighbor 15 m beyond it
    topo = _manual_topo([(5.0, 0.0), (20.0, 0.0)])
    plan = build_plan("shared", topo)
    with pytest.raises(DegenerateGeometryError, match="^zero-length link$"):
        sir(topo, plan, ue, 0)


@pytest.mark.parametrize("ue", [(5.0, 1e-160), (20.0, 1e-160), (1e-160, 0.0)],
                         ids=["serving", "femto-interferer", "macro-interferer"])
def test_sir_rejects_a_link_of_no_finite_power(ue):
    # d ** -eta overflowed: link_power raised a bare OverflowError
    topo = _manual_topo([(5.0, 0.0), (20.0, 0.0)])
    plan = build_plan("shared", topo)
    with pytest.raises(DegenerateGeometryError, match=r"^a link of 1e-160 m has no finite power$"):
        sir(topo, plan, ue, 0)


@pytest.mark.parametrize("field", ["tx_power_femto_w", "tx_power_macro_w"])
@pytest.mark.parametrize("value", [0.0, -0.01, math.nan, math.inf])
def test_params_reject_a_bad_tx_power(field, value):
    # every link reads the tx powers directly, so no other check stands
    # behind this one; an infinite macro power used to divide by zero
    with pytest.raises(ValueError, match=rf"^{field} must be finite and > 0, got"):
        PropagationParams(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("sir_cap_db", math.nan, "must be finite"),
    ("sir_cap_db", -math.inf, "must be finite"),
    ("path_loss_exp_serving", math.nan, "must be finite and >= 2"),
    ("path_loss_exp_femto_interf", 1.5, "must be finite and >= 2"),
    ("wall_loss_db", math.nan, "must be finite and >= 0"),
])
def test_params_name_a_bad_cap_exponent_or_wall_loss(field, value, message):
    # NaN used to pass each of these checks
    with pytest.raises(ValueError, match=rf"^{field} {message}, got"):
        PropagationParams(**{field: value})


# ---------------------------------------------------------------------------
# SIR


def test_dedicated_band_nulls_macro_interference():
    topo = _manual_topo([(200.0, 0.0), (230.0, 0.0)])
    plan = build_plan("dedicated", topo)
    rep = sir(topo, plan, (205.0, 0.0), 0)
    assert rep.macro_interf_w == 0.0
    assert rep.femto_interf_w > 0.0
    assert all(not s.startswith("macro") for s, _ in rep.per_source)


def test_isolated_femto_dedicated_interference_free():
    topo = _manual_topo([(200.0, 0.0)])
    plan = build_plan("dedicated", topo)
    rep = sir(topo, plan, (205.0, 0.0), 0)
    assert rep.interference_free
    assert rep.sir_linear == math.inf
    assert rep.capped_sir(PropagationParams()) == pytest.approx(db_to_linear(30.0))


def test_shared_band_sums_all_sources_brute_force():
    topo = _manual_topo([(200.0, 0.0), (230.0, 0.0), (180.0, 20.0)])
    plan = build_plan("shared", topo)
    params = PropagationParams()
    ue = (205.0, 0.0)
    rep = sir(topo, plan, ue, 0, params)

    # exhaustive source sum with independent arithmetic
    exp_f = 0.0
    for nid in (1, 2):
        d = math.dist(ue, topo.position(nid))
        exp_f += params.tx_power_femto_w * params.p0_femto * d ** -3.0 * 0.01
    exp_m = 0.0
    for site in topo.macro_sites:
        d = math.dist(ue, site)
        exp_m += params.tx_power_macro_w * params.p0_macro * d ** -5.0
    assert rep.femto_interf_w == pytest.approx(exp_f, rel=1e-12)
    assert rep.macro_interf_w == pytest.approx(exp_m, rel=1e-12)
    assert rep.sir_linear == pytest.approx(rep.signal_w / (exp_f + exp_m), rel=1e-12)


def test_sir_macro_tiers_must_be_all_or_reference():
    topo = place_femtocells(seed=3, count=20)
    plan = build_plan("shared", topo)
    x, y = topo.position(0)
    ue = (x + 2.0, y)
    assert len(sir(topo, plan, ue, 0, macro_tiers="all").per_source) > len(
        sir(topo, plan, ue, 0, macro_tiers="reference").per_source)
    with pytest.raises(ValueError, match="macro_tiers"):
        sir(topo, plan, ue, 0, macro_tiers="bogus")


def test_sir_unknown_serving():
    topo = _manual_topo([(200.0, 0.0)])
    plan = build_plan("shared", topo)
    from femtonet.topology import UnknownSiteError

    with pytest.raises(UnknownSiteError):
        sir(topo, plan, (0.0, 0.0), 7)


@st.composite
def sir_cases(draw, scheme):
    """A placed topology, dense or sparse, with random wall counts and
    random walls between the serving FAP and some of its neighbors, a plan
    of the scheme, and a UE inside or outside the serving FAP's inner
    circle, with either macro_tiers."""
    # FAP 0 sits 200 m from the BS, so no disc is smaller; up to 400 FAPs
    # in a 200 m or 250 m disc is as dense as 60 in a 90 m one or denser
    radius, most = draw(st.sampled_from([(200.0, 400), (250.0, 400), (400.0, 60)]))
    macro = MacroGeometry(macro_radius_m=radius,
                          macro_ue_walls=draw(st.integers(0, 2)),
                          inter_femto_walls=draw(st.integers(0, 2)))
    topo = place_femtocells(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, most)), macro)
    serving = draw(st.sampled_from(topo.femtocells))
    near = sorted(neighbors_of(topo, serving))
    walled = draw(st.lists(st.sampled_from(near), unique=True)) if near else []
    topo = replace(topo, walls={(min(f, serving), max(f, serving)): draw(st.integers(0, 3))
                               for f in walled})
    plan = build_plan(scheme, topo, seed=draw(st.integers(0, 3)))
    # the inner circle has radius edge_fraction * r_f, 6 m by default
    inner = plan.edge_fraction * topo.femto_radius_m
    rho = inner * draw(st.one_of(st.floats(0.05, 1.0), st.floats(1.01, 3.0)))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    x, y = topo.position(serving)
    ue = (x + rho * math.cos(theta), y + rho * math.sin(theta))
    return topo, plan, ue, serving, draw(st.sampled_from(["all", "reference"]))


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sir_equals_the_written_out_link_formula(scheme, data):
    """Every field of the report, each power to the last bit, equals the
    oracle's P_T * P0 * d^-eta * 10^(-w * L / 10) for every link."""
    topo, plan, ue, serving, tiers = data.draw(sir_cases(scheme))
    got = sir(topo, plan, ue, serving, macro_tiers=tiers)
    want = scalar_sir(topo, plan, ue, serving, macro_tiers=tiers)

    def spelt(report):
        return {f.name: getattr(report, f.name) for f in fields(report)} | {
            "signal_w": report.signal_w.hex(),
            "femto_interf_w": report.femto_interf_w.hex(),
            "macro_interf_w": report.macro_interf_w.hex(),
            "per_source": [(name, p.hex()) for name, p in report.per_source]}

    assert spelt(got) == spelt(want)


def test_dynamic_reuse_center_ue_sees_no_femto_interference():
    topo = _manual_topo([(200.0, 0.0), (225.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    rep = sir(topo, plan, (203.0, 0.0), 0)  # 3 m < 0.6 * 10 m inner radius
    assert rep.femto_interf_w == 0.0


# ---------------------------------------------------------------------------
# outage probability


def test_outage_zero_interference():
    assert outage_probability_closed_form(1.0, 1.0, 0.0) == 0.0


def test_outage_half_at_ln2():
    assert outage_probability_closed_form(1.0, 1.0, math.log(2.0)) == pytest.approx(0.5)


def test_outage_monotonicity_and_range():
    base = outage_probability_closed_form(1.0, 2.0, 0.3)
    assert 0.0 <= base < 1.0
    assert outage_probability_closed_form(1.0, 2.5, 0.3) > base
    assert outage_probability_closed_form(1.0, 2.0, 0.4) > base
    assert outage_probability_closed_form(1.5, 2.0, 0.3) < base


def test_gamma_9db_linearization():
    # Table 4.3 threshold: 9 dB -> 7.943 linear
    assert db_to_linear(9.0) == pytest.approx(7.943, abs=5e-4)


def test_outage_mc_against_exponential_draws():
    # S=1, gamma=1, I=ln2: closed form gives exactly 0.5; 1e5 draws agree to 3 sigma
    rng = np.random.default_rng(123)
    z = rng.exponential(1.0, size=100_000)
    mc = float(np.mean(z < math.log(2.0)))
    closed = outage_probability_closed_form(1.0, 1.0, math.log(2.0))
    assert abs(mc - closed) <= 3.0 * math.sqrt(0.25 / 100_000)


def test_outage_mc_matches_closed_form_fixed_interference():
    topo = _manual_topo([(200.0, 0.0), (215.0, 0.0), (195.0, 10.0)])
    plan = build_plan("shared", topo)
    gamma = db_to_linear(9.0)
    est, se = outage_probability_mc(topo, plan, (205.0, 0.0), 0, gamma,
                                    trials=100_000, seed=5)
    rep = sir(topo, plan, (205.0, 0.0), 0)
    closed = outage_probability_closed_form(rep.signal_w, gamma, rep.total_interference_w)
    assert abs(est - closed) <= 3.0 * se


def test_outage_mc_limits():
    topo = _manual_topo([(200.0, 0.0), (215.0, 0.0)])
    plan = build_plan("shared", topo)
    est, _ = outage_probability_mc(topo, plan, (205.0, 0.0), 0, 1e-12, trials=2000, seed=1)
    assert est == 0.0
    est, _ = outage_probability_mc(topo, plan, (205.0, 0.0), 0, 1e12, trials=2000, seed=1)
    assert est == 1.0


@pytest.mark.parametrize("trials", [0, -3, 2.5, math.nan, math.inf])
def test_outage_mc_names_a_trial_count_that_is_not_whole(trials):
    # 2.5 and nan failed in the draw with an unnamed TypeError
    topo = _manual_topo([(200.0, 0.0), (215.0, 0.0)])
    plan = build_plan("shared", topo)
    with pytest.raises(ValueError, match=rf"^trials must be a whole number >= 1, "
                                         rf"got {re.escape(repr(trials))}$"):
        outage_probability_mc(topo, plan, (205.0, 0.0), 0, 1.0, trials=trials, seed=1)


# ---------------------------------------------------------------------------
# throughput


def test_shannon_basics():
    assert shannon_throughput(1.0, 1.0) == pytest.approx(1.0)
    assert shannon_throughput(0.0, 123.0) == 0.0
    expected = 1e7 * math.log2(1.0 + 7.943)
    assert shannon_throughput(1e7, 7.943) == pytest.approx(expected, rel=1e-12)


def test_throughput_band_widths_match_plan():
    topo = _manual_topo([(200.0, 0.0)])
    for scheme, width in [("dedicated", 6e6), ("shared", 18e6)]:
        plan = build_plan(scheme, topo, total_hz=18e6, femto_fraction=1 / 3)
        band = plan.band_for_link(0, (205.0, 0.0), topo)
        assert band.width == pytest.approx(width)


# ---------------------------------------------------------------------------
# argument checks: each value below passed at an earlier version


@pytest.mark.parametrize("args, bad", [((math.nan, 1.0), 0), ((math.inf, 1.0), 0),
                                       ((1.0, math.nan), 1)])
def test_shannon_throughput_names_a_bad_argument(args, bad):
    name = ("bandwidth_hz", "sir_linear")[bad]
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {args[bad]!r}$"):
        shannon_throughput(*args)


def test_shannon_throughput_of_an_interference_free_link_is_infinite():
    assert shannon_throughput(1.0, math.inf) == math.inf


@pytest.mark.parametrize("args, bad", [
    ((math.nan, 1.0, 1.0), 0), ((math.inf, 1.0, 1.0), 0),
    ((1.0, math.nan, 1.0), 1), ((1.0, math.inf, 0.0), 1),
    ((1.0, 1.0, math.nan), 2), ((1.0, 1.0, math.inf), 2),
])
def test_closed_form_outage_names_a_bad_argument(args, bad):
    # each returned nan or an outage of 0 or 1
    name = ("mean_signal", "gamma_linear", "interference")[bad]
    with pytest.raises(ValueError, match=rf"^{name} must be finite and .*, got {args[bad]!r}$"):
        outage_probability_closed_form(*args)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sir_names_a_neighbor_the_plan_lacks(scheme):
    # FAP 1 lies 15 m from the serving FAP 0, but the plan holds only FAP 0;
    # sir used to skip FAP 1 and report no interference from it
    topo = _manual_topo([(200.0, 0.0), (215.0, 0.0)])
    plan = build_plan(scheme, _manual_topo([(200.0, 0.0)]))
    with pytest.raises(UnknownSiteError, match=r"^femtocell 1 not in plan$"):
        sir(topo, plan, (205.0, 0.0), 0)
