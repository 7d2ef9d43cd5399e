import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from fixtures import hidden_fap_fixture
from oracles import femto_list_by_distance_row, full_scan, scalar_scan_levels

from femtonet.neighborlist import (
    RssiScan,
    build_list_from_femto,
    build_list_from_macro,
    detection_reach_m,
    p_target_missing,
    scan_from_geometry,
    shares_frequency,
)
from femtonet.radio import PropagationParams
from femtonet.spectrum import SCHEMES, build_plan
from femtonet.topology import (
    INTERFERENCE_RADIUS_SCALE,
    CellTopology,
    UnknownSiteError,
    distance,
    place_femtocells,
)


def _grid_topo(positions, access=None):
    return CellTopology(macro_radius_m=1000.0, femto_radius_m=10.0,
                        macro_sites=[(0.0, 0.0)],
                        femtocells=list(range(len(positions))), positions=positions,
                        closed_access={i for i, mode in (access or {}).items()
                                       if mode == "closed"})


def test_scan_threshold_order_validated():
    with pytest.raises(ValueError):
        RssiScan({}, 0, s_t0_dbm=-75.0, s_t1_dbm=-90.0)


def test_worked_example_counts():
    # scan {1:-70, 2:-80, 3:-95}, S_T0=-90, S_T1=-75; FAP2 weak but within
    # d_max on another band; FAP3 undetectable -> {1, 2}; counts (2,1,0,1,2)
    topo = _grid_topo([(0.0, 0.0), (15.0, 0.0), (0.0, 20.0), (300.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    scan = RssiScan({1: -70.0, 2: -80.0, 3: -95.0}, serving=0)
    out = build_list_from_femto(scan, plan, topo, 0, d_max_m=40.0,
                                ue_xy=(5.0, 0.0))
    assert out.entries == [1, 2]
    assert out.n_detected == 2
    assert out.n_strong == 1
    assert out.n_same_freq == 0
    assert out.m_hidden == 1
    assert out.n_f == 2
    out.check_count_identity()


def test_empty_scan():
    topo = _grid_topo([(0.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    out = build_list_from_femto(RssiScan({}, 0), plan, topo, 0, ue_xy=(1.0, 0.0))
    assert out.entries == [] and out.n_f == 0


def test_hidden_fap_fixture_exact_list():
    topo, plan, scan, ue = hidden_fap_fixture()
    out = build_list_from_femto(scan, plan, topo, 0, ue_xy=ue)
    assert set(out.entries) == {1, 2, 3, 8}
    assert out.provenance[1] == "hidden-by-location"
    assert out.provenance[8] == "hidden-by-location"
    assert out.provenance[2] == "strong-signal"
    assert out.provenance[3] == "strong-signal"
    out.check_count_identity()


def test_fixture_thresholds_are_table51_values():
    _, _, scan, _ = hidden_fap_fixture()
    assert scan.s_t0_dbm == -90.0
    assert scan.s_t1_dbm == -75.0


def test_same_frequency_pruning_dynamic():
    # two far-apart femtos forced onto the same edge band: the strong one
    # sharing the serving band is pruned, then recovered only via location
    topo = _grid_topo([(0.0, 0.0), (15.0, 0.0), (200.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    plan.femto_band[1] = "B4"
    plan.femto_band[0] = "B4"
    assert shares_frequency(plan, 1, 0)
    scan = RssiScan({1: -60.0}, serving=0)
    out = build_list_from_femto(scan, plan, topo, 0, d_max_m=40.0, ue_xy=(5.0, 0.0))
    # strong + same-frequency -> pruned from the strong set, but close and
    # coordinated -> hidden entry; counts reflect the N1 - N2 + M identity
    assert out.n_strong == 1 and out.n_same_freq == 1 and out.m_hidden == 1
    assert out.entries == [1]
    assert out.provenance[1] == "hidden-by-location"


def test_closed_access_excluded():
    topo = _grid_topo([(0.0, 0.0), (15.0, 0.0), (0.0, 15.0)],
                      access={1: "closed"})
    plan = build_plan("dynamic-reuse", topo)
    scan = RssiScan({1: -60.0, 2: -60.0}, serving=0)
    out = build_list_from_femto(scan, plan, topo, 0, ue_xy=(5.0, 0.0))
    assert out.entries == [2]
    allowed = build_list_from_femto(scan, plan, topo, 0, ue_xy=(5.0, 0.0),
                                    access={1: True})
    assert set(allowed.entries) == {1, 2}


def test_a_scan_naming_an_unknown_fap_is_rejected_by_both_builders():
    topo = _grid_topo([(0.0, 0.0), (15.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    with pytest.raises(UnknownSiteError):
        build_list_from_femto(RssiScan({1: -60.0, 7: -60.0}, serving=0), plan, topo, 0,
                              ue_xy=(5.0, 0.0))
    with pytest.raises(UnknownSiteError):
        build_list_from_macro(RssiScan({1: -60.0, 7: -60.0}, serving="macro"), plan, topo,
                              ue_xy=(5.0, 0.0))


@pytest.mark.parametrize("d_max", [math.nan, 0.0, -5.0])
def test_builders_reject_a_nan_or_non_positive_d_max(d_max):
    topo = _grid_topo([(0.0, 0.0), (15.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    with pytest.raises(ValueError, match="neighborlist.d_max_m must be > 0"):
        build_list_from_femto(RssiScan({}, serving=0), plan, topo, 0, d_max_m=d_max)
    with pytest.raises(ValueError, match="neighborlist.d_max_m must be > 0"):
        build_list_from_macro(RssiScan({}, serving="macro"), plan, topo, d_max_m=d_max,
                              ue_xy=(5.0, 0.0))


@pytest.mark.parametrize("prob", [1.5, -0.1, math.nan])
def test_p_target_missing_rejects_a_probability_outside_0_1(prob):
    with pytest.raises(ValueError, match=r"neighborlist.obstruction_prob must be in \[0, 1\]"):
        p_target_missing(count=20, trials=1, seed=0, obstruction_prob=prob)


def test_macro_flow_single_fap():
    topo = _grid_topo([(0.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    scan = RssiScan({0: -70.0}, serving="macro")
    out = build_list_from_macro(scan, plan, topo, ue_xy=(5.0, 0.0))
    assert out.entries == [0]


def test_macro_flow_all_below_s_t0():
    topo = _grid_topo([(0.0, 0.0), (500.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    scan = RssiScan({0: -95.0, 1: -99.0}, serving="macro")
    out = build_list_from_macro(scan, plan, topo, ue_xy=(200.0, 0.0))
    assert out.entries == []


def test_macro_flow_geometry_oracle():
    """Every FAP within d_max of the UE lands in the list (signal or hidden),
    verified against an exhaustive geometric scan."""
    rng = np.random.default_rng(3)
    for trial in range(20):
        topo = place_femtocells(seed=100 + trial, count=60)
        plan = build_plan("dynamic-reuse", topo)
        idx = int(rng.integers(60))
        ue = topo.position(idx)
        scan = scan_from_geometry(topo, ue, "macro")
        out = build_list_from_macro(scan, plan, topo, d_max_m=40.0, ue_xy=ue)
        expected_close = {f for f in topo.femtocells
                          if distance(topo, f, ue) <= 40.0}
        assert expected_close <= set(out.entries)
        out.check_count_identity()


def test_count_identity_random_scans():
    rng = np.random.default_rng(17)
    topo = place_femtocells(seed=5, count=120)
    plan = build_plan("dynamic-reuse", topo)
    for _ in range(100):
        serving = int(rng.integers(120))
        ue = topo.position(serving)
        levels = {int(f): float(rng.uniform(-110, -40))
                  for f in rng.choice(120, size=rng.integers(1, 40), replace=False)}
        scan = RssiScan(levels, serving)
        out = build_list_from_femto(scan, plan, topo, serving, ue_xy=ue)
        out.check_count_identity()


def test_monotonicity_in_thresholds():
    topo, plan, scan, ue = hidden_fap_fixture()
    higher = RssiScan(scan.levels_dbm, scan.serving, scan.s_t0_dbm, -60.0)
    base = build_list_from_femto(scan, plan, topo, 0, ue_xy=ue)
    raised = build_list_from_femto(higher, plan, topo, 0, ue_xy=ue)
    strong = lambda out: {f for f, p in out.provenance.items()
                          if p == "strong-signal"}
    assert strong(raised) <= strong(base)
    # raising d_max never removes hidden entries
    wide = build_list_from_femto(scan, plan, topo, 0, d_max_m=60.0, ue_xy=ue)
    hidden = lambda out: {f for f, p in out.provenance.items()
                          if p == "hidden-by-location"}
    assert hidden(base) <= hidden(wide)


def test_list_size_below_detection_list():
    """The optimal list prunes: never larger (statistically, much smaller)
    than the plain detection list at the S_T0 threshold."""
    rng = np.random.default_rng(5)
    topo = place_femtocells(seed=77, count=500)
    plan = build_plan("dynamic-reuse", topo)
    sizes_opt, sizes_raw = [], []
    for _ in range(40):
        serving = int(rng.integers(500))
        ue = topo.position(serving)
        scan = scan_from_geometry(topo, ue, serving)
        out = build_list_from_femto(scan, plan, topo, serving, ue_xy=ue)
        sizes_opt.append(out.n_f)
        sizes_raw.append(len([v for f, v in scan.detected().items()
                              if f != serving]))
        # no strong entry shares the serving cell's exact band
        for fap, prov in out.provenance.items():
            if prov == "strong-signal":
                assert not shares_frequency(plan, fap, serving)
    assert np.mean(sizes_opt) <= np.mean(sizes_raw)
    assert np.mean(sizes_opt) < 0.5 * np.mean(sizes_raw)


def test_baseline_misses_exactly_walled_targets():
    """Per-trial oracle: the RSSI-only list misses the best target exactly
    when the obstruction pushes it below the strong threshold."""
    topo = _grid_topo([(0.0, 0.0), (20.0, 0.0), (0.0, 30.0)])
    plan = build_plan("dynamic-reuse", topo)
    ue = (10.0, 0.0)
    clear = scan_from_geometry(topo, ue, 0)
    best = max((f for f in (1, 2)), key=lambda f: clear.levels_dbm[f])
    assert clear.levels_dbm[best] >= clear.s_t1_dbm

    observed = scan_from_geometry(topo, ue, 0, obstructed={best})
    baseline = {f for f, v in observed.levels_dbm.items()
                if f != 0 and v >= observed.s_t1_dbm}
    assert best not in baseline  # the wall hides it from the RSSI-only list
    proposed = build_list_from_femto(observed, plan, topo, 0, ue_xy=ue)
    assert best in proposed.entries  # location coordination recovers it


def test_p_target_missing_no_obstructions():
    res = p_target_missing(count=80, trials=40, seed=2, obstruction_prob=0.0)
    assert res["rssi-only"] == 0.0
    assert res["proposed"] == 0.0


@pytest.mark.parametrize("obstruction_prob", [0.0, 0.3, 1.0])
@given(count=st.integers(1, 400), trials=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_p_target_missing_matches_one_scalar_draw_per_fap(obstruction_prob, count, trials,
                                                          seed):
    """A trial draws its obstructions as one block over the non-serving FAPs,
    in femtocells order, which reads the stream as one scalar draw per FAP
    does; trials past TRIALS_PER_TOPOLOGY redraw the topology."""
    want = oracles.scalar_target_missing(count, trials, seed, obstruction_prob)
    assert p_target_missing(count, trials, seed, obstruction_prob) == want


@pytest.mark.parametrize("trials", [0, -3, 2.5, math.nan, math.inf])
def test_p_target_missing_names_a_trial_count_that_is_not_whole(trials):
    # 2.5 and nan failed in range() with an unnamed TypeError
    with pytest.raises(ValueError, match=rf"^trials must be a whole number >= 1, "
                                         rf"got {re.escape(repr(trials))}$"):
        p_target_missing(count=20, trials=trials, seed=0)


def test_p_target_missing_takes_a_whole_float_trial_count():
    assert p_target_missing(count=20, trials=3.0, seed=0) == \
        p_target_missing(count=20, trials=3, seed=0)


def test_p_target_missing_proposed_below_baseline():
    for count in (50, 150, 400):
        res = p_target_missing(count=count, trials=60, seed=9,
                               obstruction_prob=0.35)
        assert res["proposed"] <= res["rssi-only"] + 1e-12
    dense = p_target_missing(count=400, trials=60, seed=9, obstruction_prob=0.35)
    assert dense["rssi-only"] > 0.0
    assert dense["proposed"] < dense["rssi-only"]


# ---------------------------------------------------------------------------
# the scan against the per-FAP reference loop, to the last bit


def _shuffled_topo(seed, count, side_m=400.0):
    """Random positions under shuffled, non-contiguous ids."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(3 * count)[:count]
    xy = rng.uniform(0.0, side_m, size=(count, 2))
    return CellTopology(
        macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
        femtocells=ids.tolist(), positions=xy)


def _assert_scan_matches_oracle(topo, ue, serving, params=None, obstructed=None):
    """The scan reports only the FAPs within the clear-link S_T0 reach: each
    one it reports equals the oracle to the last bit, in the oracle's order,
    and each one it omits is below S_T0 on the oracle's clear link, so on
    its observed link too."""
    scan = scan_from_geometry(topo, ue, serving, params=params, obstructed=obstructed)
    oracle = scalar_scan_levels(topo, ue, params=params, obstructed=obstructed)
    clear = scalar_scan_levels(topo, ue, params=params)
    reported = [(f, v) for f, v in oracle.items() if f in scan.levels_dbm]
    # list equality of float items compares keys, their order and the float bits
    assert list(scan.levels_dbm.items()) == reported
    omitted = [f for f in oracle if f not in scan.levels_dbm]
    assert all(clear[f] < scan.s_t0_dbm and oracle[f] < scan.s_t0_dbm for f in omitted)
    assert scan.serving == serving


PARAM_CASES = {
    "default": None,
    "steep-walled-weak": PropagationParams(path_loss_exp_femto_interf=3.7,
                                           wall_loss_db=12.5, tx_power_femto_w=0.02),
}


@pytest.mark.parametrize("params", PARAM_CASES.values(), ids=PARAM_CASES.keys())
@pytest.mark.parametrize("seed", range(6))
def test_scan_bitwise_equal_to_scalar_oracle(seed, params):
    rng = np.random.default_rng(1000 + seed)
    topo = _shuffled_topo(seed, count=int(rng.integers(1, 300)))
    ids = topo.femtocells
    for k in range(20):
        if k % 5 == 0:
            ue = topo.position(ids[int(rng.integers(len(ids)))])  # on a FAP
        else:
            ue = tuple(float(v) for v in rng.uniform(-50.0, 450.0, size=2))
        # obstructed sets also name ids that are not in the topology
        pool = ids + (-1, 3 * len(ids) + 7)
        obstructed = {f for f in pool if rng.random() < 0.3}
        serving = "macro" if k % 4 == 0 else ids[int(rng.integers(len(ids)))]
        _assert_scan_matches_oracle(topo, ue, serving, params, obstructed or None)


def test_scan_ue_on_a_fap_uses_the_clamped_distance():
    topo = _shuffled_topo(3, count=40)
    fap = topo.femtocells[7]
    ue = topo.position(fap)
    _assert_scan_matches_oracle(topo, ue, fap)
    _assert_scan_matches_oracle(topo, ue, "macro", obstructed={fap})
    grid = _grid_topo([(0.0, 0.0), (30.0, 0.0)])
    on_fap = scan_from_geometry(grid, (0.0, 0.0), 1).levels_dbm[0]
    assert on_fap == scan_from_geometry(grid, (0.1, 0.0), 1).levels_dbm[0]


def test_scan_empty_topology():
    topo = _grid_topo([])
    _assert_scan_matches_oracle(topo, (3.0, 4.0), "macro")
    assert scan_from_geometry(topo, (3.0, 4.0), "macro").levels_dbm == {}


@pytest.mark.parametrize("ue", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
def test_femto_list_rejects_non_finite_ue(ue):
    topo, plan, scan, _ = hidden_fap_fixture()
    with pytest.raises(ValueError, match="finite"):
        build_list_from_femto(scan, plan, topo, 0, ue_xy=ue)


@pytest.mark.parametrize("ue", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, math.nan)])
@pytest.mark.parametrize("positions", [[], [(0.0, 0.0), (30.0, 0.0)]], ids=["empty", "two"])
def test_scan_rejects_non_finite_ue(positions, ue):
    with pytest.raises(ValueError, match="finite"):
        scan_from_geometry(_grid_topo(positions), ue, "macro")


# ---------------------------------------------------------------------------
# the detection reach: the scan against the full scan of every FAP


def test_detection_reach_at_the_defaults():
    reach = detection_reach_m(PropagationParams(), -90.0)
    assert reach == pytest.approx(192.01, abs=0.005)
    # a clear FAP just inside the reach is heard at S_T0, one just beyond is not
    grid = _grid_topo([(reach / (1 + 1e-9), 0.0), (reach * (1 + 1e-6), 0.0)])
    scan = scan_from_geometry(grid, (0.0, 0.0), "macro")
    assert list(scan.levels_dbm) == [0]
    assert scan.levels_dbm[0] == pytest.approx(-90.0, abs=1e-9)
    assert scalar_scan_levels(grid, (0.0, 0.0))[1] < -90.0


def test_scan_beyond_every_fap_reports_nothing():
    # S_T0 above the level of a FAP 0.1 m away: the reach is the 0.1 m floor
    grid = _grid_topo([(0.0, 0.0), (0.05, 0.0), (0.2, 0.0)])
    assert detection_reach_m(PropagationParams(), 10.0) == pytest.approx(0.1)
    scan = scan_from_geometry(grid, (0.0, 0.0), "macro", s_t0_dbm=10.0, s_t1_dbm=20.0)
    assert list(scan.levels_dbm) == [0, 1]
    assert scan.detected() == {}


@pytest.mark.parametrize("s_t0", [-math.inf, -4000.0, -1e300])
def test_scan_at_an_unreachable_low_s_t0_hears_every_fap(s_t0):
    # 10**(S_T0 / 10) underflows at -4000 dBm, and the reach at -1e300 dBm
    # overflows a float: both, like -inf, must scan every FAP
    topo = _shuffled_topo(4, count=60, side_m=5000.0)
    ue = (2500.0, 2500.0)
    assert detection_reach_m(PropagationParams(), s_t0) > 1e100
    scan = scan_from_geometry(topo, ue, "macro", s_t0_dbm=s_t0)
    assert list(scan.levels_dbm.items()) == list(scalar_scan_levels(topo, ue).items())
    assert scan.detected() == scan.levels_dbm


@pytest.mark.parametrize("positions", [[], [(0.0, 0.0), (30.0, 0.0)]], ids=["empty", "two"])
def test_scan_nan_s_t0_is_rejected_by_rssi_scan(positions):
    with pytest.raises(ValueError, match="need S_T1 > S_T0"):
        scan_from_geometry(_grid_topo(positions), (1.0, 1.0), "macro", s_t0_dbm=math.nan)


@functools.cache
def _reach_case():
    """A 600-FAP deployment with its dynamic-reuse plan, built once."""
    topo = place_femtocells(seed=41, count=600)
    return topo, build_plan("dynamic-reuse", topo)


def _assert_lists_agree(cut, full, scan, d_max, reach):
    assert (cut.n_detected, cut.n_strong, cut.n_same_freq, cut.m_hidden) == \
        (full.n_detected, full.n_strong, full.n_same_freq, full.m_hidden)
    assert set(cut.entries) == set(full.entries)
    assert cut.provenance == full.provenance
    if d_max <= reach:
        assert cut.entries == full.entries
        return
    # a hidden entry beyond the reach is unheard: it ranks after every heard
    # entry, by id, and the heard ones keep the full scan's order
    heard = [f for f in cut.entries if f in scan.levels_dbm]
    assert cut.entries[:len(heard)] == heard
    assert heard == [f for f in full.entries if f in scan.levels_dbm]
    unheard = cut.entries[len(heard):]
    assert unheard == sorted(unheard)


@settings(max_examples=120, deadline=None)
@given(
    s_t0=st.floats(-110.0, -50.0),
    gap=st.floats(0.5, 30.0),
    tx=st.floats(0.001, 0.2),
    eta=st.floats(2.0, 4.5),
    wall=st.floats(0.0, 30.0),
    obstruction=st.floats(0.0, 0.6),
    d_max=st.floats(1.0, 250.0),
    serving=st.integers(0, 599),
    angle=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_lists_match_the_full_scan(s_t0, gap, tx, eta, wall, obstruction,
                                        d_max, serving, angle, seed):
    topo, plan = _reach_case()
    params = PropagationParams(tx_power_femto_w=tx, path_loss_exp_femto_interf=eta,
                               wall_loss_db=wall)
    x, y = topo.position(serving)
    ue = (x + topo.femto_radius_m * math.cos(angle), y + topo.femto_radius_m * math.sin(angle))
    draw = np.random.default_rng(seed).random(len(topo.femtocells))
    obstructed = set(np.flatnonzero(draw < obstruction).tolist()) - {serving}
    s_t1 = s_t0 + gap
    reach = detection_reach_m(params, s_t0)

    cut = scan_from_geometry(topo, ue, serving, params, obstructed, s_t0, s_t1)
    full = full_scan(topo, ue, serving, params, obstructed, s_t0, s_t1)
    assert cut.detected() == full.detected()
    assert all(full.levels_dbm[f] == v for f, v in cut.levels_dbm.items())
    for build, server in ((build_list_from_femto, (serving,)), (build_list_from_macro, ())):
        lists = [build(scan, plan, topo, *server, d_max_m=d_max, ue_xy=ue)
                 for scan in (cut, full)]
        _assert_lists_agree(*lists, cut, d_max, reach)


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(2, 60),
    side=st.floats(5.0, 200.0),
    threshold=st.sampled_from([0.0, 25.0, INTERFERENCE_RADIUS_SCALE * 20.0, 90.0, 150.0]),
    scheme=st.sampled_from(SCHEMES),
    d_max=st.floats(5.0, 120.0),
    at_a_fap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_femto_list_matches_the_distance_row_loop(count, side, threshold, scheme, d_max,
                                                  at_a_fap, seed):
    # shuffled, non-contiguous ids; walls of 0 to 3 on random pairs; some
    # FAPs closed, some of those admitted; neighbor thresholds on both sides
    # of the table's 60 m reach
    rng = np.random.default_rng(seed)
    ids = rng.permutation(3 * count)[:count].tolist()
    xy = rng.uniform(0.0, side, size=(count, 2)).tolist()
    pairs = {tuple(sorted(rng.choice(ids, 2, replace=False).tolist())) for _ in range(count)}
    topo = CellTopology(
        macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
        femtocells=ids, positions=xy,
        neighbor_threshold_m=threshold,
        closed_access={i for i in ids if rng.random() < 0.3},
        walls={pair: int(rng.integers(4)) for pair in pairs})
    access = {i: bool(rng.random() < 0.5) for i in topo.closed_access}
    plan = build_plan(scheme, topo)
    serving = ids[int(rng.integers(count))]
    ue = tuple(rng.uniform(0.0, side, size=2).tolist())
    scan = RssiScan({i: float(rng.uniform(-110.0, -50.0)) for i in ids
                     if rng.random() < 0.6}, serving)
    if at_a_fap:
        # d_max exactly at some FAP's distance: the cut's boundary case
        d_max = float(topo.distances_to(ue)[int(rng.integers(count))]) or d_max
    out = build_list_from_femto(scan, plan, topo, serving, d_max_m=d_max, access=access,
                                ue_xy=ue)
    assert out == femto_list_by_distance_row(scan, plan, topo, serving, d_max, access, ue)
