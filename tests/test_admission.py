import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _scheme_classes, check_invariants, scalar_rebalance, scalar_release_rates

from femtonet.admission import (
    CellLoadState,
    FemtoCellState,
    InvariantViolation,
    SnirThresholds,
    TrafficClass,
    admit_ch6,
    admit_from_femto,
    admit_macro_to_femto,
    admit_new_call,
    rebalance,
    releasable,
    required_bw,
)
from femtonet.presets import table61_classes
from femtonet import queueing
from femtonet.queueing import CH6_SCHEMES, ch6_cells
from femtonet.scenario import scenario_from_preset

VOICE = TrafficClass(1, "rt", 25.0, arrival_share=0.35)
VIDEO = TrafficClass(4, "nrt", 128.0, degrade_new=0.4, degrade_hand=0.6,
                     arrival_share=0.15)
BACKGROUND = TrafficClass(7, "nrt", 56.0, degrade_new=0.5, degrade_hand=0.8,
                          arrival_share=0.1)


def make_state(capacity: float, classes, counts=None) -> CellLoadState:
    state = CellLoadState(capacity, tuple(classes))
    if counts is not None:
        state.counts = list(counts)
        state = rebalance(state)
    return state


def test_traffic_class_validation():
    with pytest.raises(ValueError):
        TrafficClass(1, "rt", 25.0, degrade_hand=0.2)  # RT cannot degrade
    with pytest.raises(ValueError):
        TrafficClass(2, "nrt", 56.0, degrade_new=0.7, degrade_hand=0.5)


# shares of 1.5 and -0.5 sum to 1, and used to reach ch6_cells as (N, S, L) = (33, -1, 0)
@pytest.mark.parametrize("share", [1.5, -0.5, float("nan")])
def test_traffic_class_rejects_a_share_outside_unit_interval_by_name(share):
    with pytest.raises(ValueError, match="arrival_share"):
        TrafficClass(1, "rt", 25.0, arrival_share=share)


# a duration of 0 used to reach solve_ch6 as a ZeroDivisionError, an infinite
# request as "Invalid literal for Fraction: 'inf'"
@pytest.mark.parametrize("field, value", [
    ("requested_bw", float("nan")), ("requested_bw", float("inf")), ("requested_bw", 0.0),
    ("duration_s", 0.0), ("duration_s", -120.0), ("duration_s", float("nan")),
    ("duration_s", float("inf")),
])
def test_traffic_class_names_a_bad_request_or_duration(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and > 0, got "):
        TrafficClass(**{"index": 1, "kind": "rt", "requested_bw": 25.0, field: value})


# ---------------------------------------------------------------------------
# residual fraction / rebalance


def test_rebalance_full_when_x_ge_1():
    cls56 = TrafficClass(2, "nrt", 56.0, degrade_new=0.3, degrade_hand=0.6)
    state = make_state(100.0, [VOICE, cls56], counts=[1, 1])
    out = rebalance(state)
    assert out.allocs[1] == pytest.approx(56.0)


def test_rebalance_boundary_x_exactly_1():
    cls = TrafficClass(2, "nrt", 50.0, degrade_new=0.2, degrade_hand=0.6)
    state = make_state(125.0, [VOICE, cls], counts=[1, 2])  # 25 RT + 100 demand
    out = rebalance(state)
    assert out.allocs[1] == pytest.approx(50.0)


def test_rebalance_proportional_rule_closed_form():
    # single non-RT class, X = 0.5, gamma_h = 0.6:
    # beta = (C - RT) / (N * (1-gh) * br) * (1-gh) * br = (C - RT) / N
    cls = TrafficClass(2, "nrt", 50.0, degrade_new=0.2, degrade_hand=0.6)
    state = make_state(125.0, [VOICE, cls], counts=[1, 4])  # X = 100/200 = 0.5
    out = rebalance(state)
    assert out.allocs[1] == pytest.approx(100.0 / 4.0)
    assert out.occupied == pytest.approx(125.0)
    check_invariants(out)


def test_rebalance_all_rt_unchanged():
    state = make_state(100.0, [VOICE], counts=[3])
    out = rebalance(state)
    assert out.allocs[0] == pytest.approx(25.0)
    assert out.occupied == pytest.approx(75.0)


def test_rebalance_infeasible_floors():
    cls = TrafficClass(2, "nrt", 50.0, degrade_new=0.2, degrade_hand=0.4)
    state = CellLoadState(100.0, (VOICE, cls), counts=[2, 3], allocs=[25.0, 50.0])
    # floors: 2*25 + 3*30 = 140 > 100
    with pytest.raises(InvariantViolation):
        rebalance(state)


def test_rebalance_waterfills_heterogeneous_caps():
    soft = TrafficClass(2, "nrt", 100.0, degrade_new=0.0, degrade_hand=0.1)
    hard = TrafficClass(3, "nrt", 100.0, degrade_new=0.5, degrade_hand=0.9)
    state = make_state(150.0, [soft, hard], counts=[1, 1])
    out = rebalance(state)
    assert out.allocs[0] <= 100.0 + 1e-9
    assert out.allocs[1] >= 10.0 - 1e-9
    assert out.occupied <= 150.0 + 1e-9


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _rebalance_outcome(rebalance_fn, state):
    """The allocations and occupancy of a rebalanced state, as hex, or the
    text of its InvariantViolation."""
    try:
        out = rebalance_fn(state)
    except InvariantViolation as err:
        return "error", str(err)
    return _hex(out.allocs), float(out.occupied).hex()


def _release_rates_outcome(rates_fn, classes, capacity, n, s):
    try:
        rates, occupied = rates_fn(classes, capacity, 1 / 240.0, n, s)
    except InvariantViolation as err:
        return "error", str(err)
    return _hex(rates), _hex(occupied)


SOFT = TrafficClass(2, "nrt", 100.0, degrade_new=0.0, degrade_hand=0.1)
HARD = TrafficClass(3, "nrt", 100.0, degrade_new=0.5, degrade_hand=0.9)
TIGHT = TrafficClass(2, "nrt", 50.0, degrade_new=0.2, degrade_hand=0.4)


# hand-built states, each (capacity, classes, counts, allocs): X >= 1, X
# exactly 1, the proportional rule, a capped class, floors that do not fit,
# a class with no calls keeping its degraded allocation, real-time calls
# over an integer capacity, an empty cell, a fractional count below one
# call outside its range, and the Table 5.1 macrocell
HAND_BUILT_STATES = [
    (100.0, (VOICE, TrafficClass(2, "nrt", 56.0, 0.3, 0.6)), [1, 1], None),
    (125.0, (VOICE, TrafficClass(2, "nrt", 50.0, 0.2, 0.6)), [1, 2], None),
    (125.0, (VOICE, TrafficClass(2, "nrt", 50.0, 0.2, 0.6)), [1, 4], None),
    (150.0, (SOFT, HARD), [1, 1], None),
    (700.0, (VOICE, SOFT, SOFT, HARD, BACKGROUND), [3, 2, 1, 4, 5], None),
    (100.0, (VOICE, TIGHT), [2, 3], [25.0, 50.0]),
    (500.0, (VOICE, TIGHT, VIDEO), [1, 0, 3], [25.0, 31.0, 60.0]),
    (100, (VOICE,), [5], None),
    (300.0, (VOICE, VIDEO, BACKGROUND), [0, 0, 0], None),
    (1000.0, (BACKGROUND,), [0.5], [100.0]),
    (6000.0, (TrafficClass(1, "rt", 64.0), TrafficClass(2, "nrt", 56.0, 0.0, 0.5)),
     [93, 1], None),
    (6000.0, (TrafficClass(1, "rt", 64.0), TrafficClass(2, "nrt", 56.0, 0.0, 0.5)),
     [0, 107], [64.0, 28.0]),
]


@pytest.mark.parametrize("capacity, classes, counts, allocs", HAND_BUILT_STATES)
def test_rebalance_of_one_state_matches_the_scalar_oracle(capacity, classes, counts, allocs):
    state = CellLoadState(capacity, classes, counts=list(counts),
                          allocs=list(allocs) if allocs else [])
    got = _rebalance_outcome(rebalance, state)
    assert got == _rebalance_outcome(scalar_rebalance, state)
    assert state.counts == list(counts)  # the input is not changed


def test_hand_built_states_reach_every_outcome():
    """The hand-built states above cover each rule and each way out."""
    outcomes = [_rebalance_outcome(scalar_rebalance, CellLoadState(
        capacity, classes, counts=list(counts), allocs=list(allocs) if allocs else []))
        for capacity, classes, counts, allocs in HAND_BUILT_STATES]
    errors = [text for kind, text in outcomes if kind == "error"]
    assert errors == ["demand exceeds capacity even at handover floors",
                      "occupied 125.0 exceeds capacity 100",
                      "class 7 allocation 100.0 outside [11.199999999999998, 56.0]"]
    capped = outcomes[3][0]  # the soft class holds its request, the hard one degrades
    assert capped[0] == (100.0).hex() and float.fromhex(capped[1]) < 100.0


@st.composite
def _class_mixes(draw):
    """1 to 10 classes, real-time and not, over a capacity between 0.3 and
    1.6 times the mean request of the first n + 1 states; a class's share
    can be small enough that the low states hold less than one
    non-real-time call."""
    k = draw(st.integers(1, 10))
    weights = draw(st.lists(st.sampled_from((0.001, 0.1, 1.0)) | st.floats(0.001, 1.0),
                            min_size=k, max_size=k))
    classes = []
    for m, weight in enumerate(weights):
        kind = draw(st.sampled_from(("rt", "nrt")))
        hand = 0.0 if kind == "rt" else draw(st.sampled_from((0.0, 0.1, 0.6, 0.8))
                                              | st.floats(0.0, 0.95))
        classes.append(TrafficClass(
            m + 1, kind, draw(st.sampled_from((25.0, 56.0, 128.0)) | st.floats(1.0, 300.0)),
            degrade_new=draw(st.floats(0.0, 1.0)) * hand, degrade_hand=hand,
            arrival_share=weight / sum(weights), duration_s=draw(st.floats(10.0, 600.0))))
    n = draw(st.integers(0, 120))
    mean = sum(c.arrival_share * c.requested_bw for c in classes)
    capacity = mean * (n + 1) * draw(st.floats(0.3, 1.6))
    return tuple(classes), capacity, n, draw(st.integers(1, 60))


@given(_class_mixes())
@settings(max_examples=250, deadline=None)
def test_batched_release_rates_match_the_scalar_oracle(mix):
    """Every state's rate and occupancy hex for hex, or the same
    InvariantViolation text: the batch sums over the classes in class
    order, so a 9- or 10-class mix catches a pairwise numpy sum."""
    assert (_release_rates_outcome(queueing.state_release_rates, *mix)
            == _release_rates_outcome(scalar_release_rates, *mix))


def _share_classes(*specs):
    """Classes from (kind, request, gamma_h, share) tuples."""
    return tuple(TrafficClass(m + 1, kind, req, degrade_new=hand / 2, degrade_hand=hand,
                              arrival_share=share, duration_s=60.0 * (m + 1))
                 for m, (kind, req, hand, share) in enumerate(specs))


# (classes, capacity, n, s): all real-time, fitting and not; under one
# non-real-time call in the low states; X >= 1 throughout; one and three
# capped classes; floors that do not fit; a 10-class mix
RELEASE_RATE_MIXES = [
    (_share_classes(("rt", 25.0, 0.0, 0.6), ("rt", 64.0, 0.0, 0.4)), 2000.0, 20, 10),
    (_share_classes(("rt", 25.0, 0.0, 0.6), ("rt", 64.0, 0.0, 0.4)), 1000.0, 20, 10),
    (_share_classes(("rt", 25.0, 0.0, 0.99), ("nrt", 56.0, 0.5, 0.01)), 10_000.0, 0, 150),
    (_share_classes(("rt", 25.0, 0.0, 0.5), ("nrt", 56.0, 0.5, 0.5)), 1e6, 50, 40),
    (_share_classes(("nrt", 100.0, 0.1, 0.5), ("nrt", 100.0, 0.9, 0.5)), 150.0, 1, 2),
    (_share_classes(("nrt", 100.0, 0.05, 0.2), ("nrt", 80.0, 0.1, 0.2),
                    ("nrt", 60.0, 0.15, 0.2), ("nrt", 100.0, 0.9, 0.2),
                    ("rt", 25.0, 0.0, 0.2)), 4000.0, 40, 30),
    (_share_classes(("rt", 25.0, 0.0, 0.5), ("nrt", 50.0, 0.4, 0.5)), 1000.0, 26, 30),
    (_share_classes(*(("nrt", 20.0 + 13.0 * m, 0.07 * m, 0.1) if m % 3
                      else ("rt", 20.0 + 13.0 * m, 0.0, 0.1) for m in range(10))),
     10_000.0, 80, 60),
]


@pytest.mark.parametrize("classes, capacity, n, s", RELEASE_RATE_MIXES)
def test_batched_release_rates_match_the_oracle_on_listed_mixes(classes, capacity, n, s):
    assert (_release_rates_outcome(queueing.state_release_rates, classes, capacity, n, s)
            == _release_rates_outcome(scalar_release_rates, classes, capacity, n, s))


def test_listed_mixes_reach_both_errors():
    errors = [outcome[1] for outcome in (
        _release_rates_outcome(scalar_release_rates, *mix) for mix in RELEASE_RATE_MIXES)
        if outcome[0] == "error"]
    assert errors == ["occupied 1015.0 exceeds capacity 1000.0",
                      "demand exceeds capacity even at handover floors"]


# ---------------------------------------------------------------------------
# releasable / required


def test_releasable_table61_class7_fixture():
    # one background call (56 kbps, gamma_h 0.8, gamma_n 0.5) at full allocation
    state = make_state(1000.0, [BACKGROUND], counts=[1])
    assert releasable(state, "handover") == pytest.approx(44.8)
    assert releasable(state, "new") == pytest.approx(28.0)


def test_releasable_zero_at_floor():
    state = CellLoadState(1000.0, (BACKGROUND,), counts=[2], allocs=[11.2])
    assert releasable(state, "handover") == pytest.approx(0.0)


def test_required_bw_examples():
    assert required_bw(VOICE, "new") == 25.0
    assert required_bw(VOICE, "handover") == 25.0
    assert required_bw(VIDEO, "handover") == pytest.approx(128.0 * 0.4)
    nodeg = TrafficClass(9, "nrt", 64.0)
    assert required_bw(nodeg, "new") == pytest.approx(64.0)


# ---------------------------------------------------------h------------------
# admit_ch6


def test_admit_empty_cell_full_allocation():
    state = make_state(1000.0, [VOICE, VIDEO])
    d = admit_ch6(state, 1, "new")
    assert d.outcome == "accept" and not d.degradations
    assert d.state.allocs[0] == pytest.approx(25.0)


def test_admit_handover_via_release_fixture():
    # free = 0, releasable(hand) = 44.8: a 25 kbps voice handover fits
    state = make_state(56.0, [VOICE, BACKGROUND], counts=[0, 1])
    assert state.capacity - state.occupied == pytest.approx(0.0)
    assert releasable(state, "handover") == pytest.approx(44.8)
    d = admit_ch6(state, 1, "handover")
    assert d.outcome == "accept"
    assert d.degradations and d.degradations[0][0] == 7
    check_invariants(d.state)


def test_admit_new_vs_handover_asymmetry():
    # same fixture: new voice fits when releasable(new) = 28 >= 25,
    # blocked when releasable(new) = 20 < 25 while the handover still fits
    state = make_state(56.0, [VOICE, BACKGROUND], counts=[0, 1])
    assert releasable(state, "new") == pytest.approx(28.0)
    assert admit_ch6(state, 1, "new").outcome == "accept"

    tight = TrafficClass(7, "nrt", 56.0, degrade_new=20 / 56, degrade_hand=0.8)
    state2 = make_state(56.0, [VOICE, tight], counts=[0, 1])
    assert releasable(state2, "new") == pytest.approx(20.0)
    assert admit_ch6(state2, 1, "new").outcome == "block"
    assert admit_ch6(state2, 1, "handover").outcome == "accept"


def test_admit_new_blocked_at_new_floor():
    cls = TrafficClass(2, "nrt", 50.0, degrade_new=0.2, degrade_hand=0.6)
    state = CellLoadState(500.0, (VOICE, cls), counts=[0, 2], allocs=[25.0, 40.0])
    d = admit_ch6(state, 2, "new")
    assert d.outcome == "block" and d.reason == "new-call-floor-reached"
    assert admit_ch6(state, 2, "handover").outcome == "accept"


def test_guard_bandwidth_is_left_to_handovers():
    # a 25 kbps voice call in an empty 100 kbps cell: a new call must leave
    # guard_bw free, a handover may use it
    state = make_state(100.0, [VOICE, VIDEO])
    assert admit_ch6(state, 1, "new", guard_bw=70.0).outcome == "accept"
    d = admit_ch6(state, 1, "new", guard_bw=80.0)
    assert (d.outcome, d.reason) == ("block", "insufficient-bandwidth")
    assert admit_ch6(state, 1, "handover", guard_bw=80.0).outcome == "accept"


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_admit_ch6_names_a_bad_guard_bandwidth(bad):
    with pytest.raises(ValueError, match="^guard_bw must be finite and >= 0"):
        admit_ch6(make_state(100.0, [VOICE, VIDEO]), 1, "new", guard_bw=bad)


@pytest.mark.parametrize("scheme", ["aqos", "hard-qos", "guard"])
def test_undegraded_call_does_not_block_new_calls_at_zero_gamma_n(scheme):
    # gamma_n = 0 puts the new-call floor at the request: one class-4 call
    # at its full 128 kbps in a 6000 kbps cell is not degraded, so every
    # class's new call is admitted
    classes = _scheme_classes(table61_classes(), scheme)
    state = make_state(6000.0, classes, counts=[0, 0, 0, 1, 0, 0, 0])
    assert state.allocs[3] == classes[3].requested_bw == classes[3].floor_new
    for cls in classes:
        d = admit_ch6(state, cls.index, "new")
        assert (d.outcome, d.reason, d.degradations) == ("accept", "fits-free", ())


def test_handover_dominance_enumerated():
    """Wherever a new call is accepted, the same handover is accepted."""
    classes = (VOICE, VIDEO, BACKGROUND)
    for n1 in range(3):
        for n4 in range(3):
            for n7 in range(3):
                state = make_state(300.0, classes, counts=[n1, n4, n7])
                for cls in classes:
                    new = admit_ch6(state, cls.index, "new")
                    hand = admit_ch6(state, cls.index, "handover")
                    if new.outcome == "accept":
                        assert hand.outcome == "accept"


def test_limiting_cases_equalize_decisions():
    # gamma_n = gamma_h: new and handover decisions coincide
    np_video = TrafficClass(4, "nrt", 128.0, degrade_new=0.6, degrade_hand=0.6)
    np_back = TrafficClass(7, "nrt", 56.0, degrade_new=0.8, degrade_hand=0.8)
    classes = (VOICE, np_video, np_back)
    for counts in ([0, 1, 1], [1, 2, 0], [2, 1, 3], [0, 0, 2]):
        state = make_state(400.0, classes, counts=counts)
        for cls in classes:
            assert (admit_ch6(state, cls.index, "new").outcome == "accept") == (
                admit_ch6(state, cls.index, "handover").outcome == "accept")

    # gamma_n = 0: any degraded state blocks all new calls needing release
    aq_video = TrafficClass(4, "nrt", 128.0, degrade_new=0.0, degrade_hand=0.6)
    state = make_state(100.0, (VOICE, aq_video), counts=[0, 1])
    d = admit_ch6(state, 1, "new")  # voice 25 > free 0, releasable(new) = 0
    assert d.outcome == "block"


def test_conservation_after_accept_sequences():
    classes = (VOICE, VIDEO, BACKGROUND)
    state = make_state(500.0, classes)
    for k in range(40):
        cls = classes[k % 3]
        d = admit_ch6(state, cls.index, "handover" if k % 2 else "new")
        if d.outcome == "accept":
            state = d.state
            assert state.occupied <= state.capacity + 1e-9
            check_invariants(state)


# ---------------------------------------------------------------------------
# Ch. 5 policies


def _macro_51(counts):
    """Table 5.1 macrocell: 64 kbps non-adaptive + 56/28 kbps adaptive."""
    rigid = TrafficClass(1, "rt", 64.0)
    adaptive = TrafficClass(2, "nrt", 56.0, degrade_new=0.0, degrade_hand=0.5)
    return make_state(6000.0, [rigid, adaptive], counts=counts)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        SnirThresholds(t1_db=12.0, t2_db=10.0)


def test_new_call_prefers_femto():
    thr = SnirThresholds()
    femto = FemtoCellState(max_calls=4)
    d = admit_new_call(True, 13.0, thr, femto, _macro_51([0, 0]), 1)
    assert d.outcome == "accept-femto"
    assert femto.active_calls == 1


def test_new_call_macro_fallback():
    thr = SnirThresholds()
    d = admit_new_call(False, None, thr, None, _macro_51([10, 10]), 1)
    assert d.outcome == "accept-macro"


def test_new_call_blocked_without_degradation():
    thr = SnirThresholds()
    # macro full: 93 rigid + 1 adaptive = 6008 > 6000 -> occupied ~ full
    macro = _macro_51([93, 1])
    assert macro.capacity - macro.occupied < 64.0
    d = admit_new_call(True, 11.0, thr, FemtoCellState(), macro, 1)
    assert d.outcome == "block"
    assert not d.degradations


def test_macro_to_femto_rules():
    thr = SnirThresholds()
    assert admit_macro_to_femto(9.0, 12.5, thr, FemtoCellState()).outcome == "accept-femto"
    assert admit_macro_to_femto(9.0, 11.0, thr, FemtoCellState()).outcome == "accept-femto"
    assert admit_macro_to_femto(11.5, 11.0, thr, FemtoCellState()).outcome == "stay-macro"


def test_from_femto_ladder():
    thr = SnirThresholds()

    # top rung: SNIR above T2 goes straight to the FAP
    d = admit_from_femto(12.5, thr, FemtoCellState(), _macro_51([0, 0]), 1)
    assert d.outcome == "accept-femto"

    # middle rung: macro full but adaptive calls release >= 28 kbps
    macro = _macro_51([0, 107])  # 107 * 56 = 5992, free = 8 < 56
    d = admit_from_femto(11.0, thr, FemtoCellState(max_calls=0), macro, 2)
    assert d.outcome == "accept-macro"
    assert d.degradations

    # bottom: below T1 and the macro cannot release the minimum for the call
    rigid_only = make_state(6000.0, [TrafficClass(1, "rt", 64.0)], counts=[93])
    assert rigid_only.capacity - rigid_only.occupied < 64.0
    assert releasable(rigid_only, "handover") == 0.0
    d = admit_from_femto(9.0, thr, FemtoCellState(max_calls=0), rigid_only, 1)
    assert d.outcome == "drop"


def test_from_femto_middle_rung_fap_fallback():
    thr = SnirThresholds()
    rigid_only = make_state(6000.0, [TrafficClass(1, "rt", 64.0)], counts=[93])
    d = admit_from_femto(11.0, thr, FemtoCellState(max_calls=4), rigid_only, 1)
    assert d.outcome == "accept-femto"
    assert d.reason == "macro-full-fap-fallback"


def test_ch5_never_degrades_for_new_calls():
    thr = SnirThresholds()
    macro = _macro_51([0, 107])
    d = admit_new_call(False, None, thr, None, macro, 2)
    assert not d.degradations


def test_unknown_class_index_is_value_error():
    thr = SnirThresholds()
    with pytest.raises(ValueError, match="99"):
        admit_ch6(make_state(1000.0, [VOICE, VIDEO]), 99, "new")
    with pytest.raises(ValueError, match="99"):
        admit_new_call(False, None, thr, None, _macro_51([0, 0]), 99)
    with pytest.raises(ValueError, match="99"):
        admit_from_femto(None, thr, None, _macro_51([0, 0]), 99)
    # a free FAP above T2 (or between the thresholds) would take the call at
    # once, so the class is looked up before the femtocell is tried
    femto = FemtoCellState()
    with pytest.raises(ValueError, match="99"):
        admit_new_call(True, 13.0, thr, femto, _macro_51([0, 0]), 99)
    assert femto.active_calls == 0
    for snir in (13.0, 11.0):
        with pytest.raises(ValueError, match="99"):
            admit_from_femto(snir, thr, femto, _macro_51([0, 0]), 99)
        assert femto.active_calls == 0


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_admit_keeps_invariants(n1, n4, n7):
    state = make_state(420.0, (VOICE, VIDEO, BACKGROUND))
    for count, cls in zip((n1, n4, n7), state.classes):
        for _ in range(count):
            d = admit_ch6(state, cls.index, "handover")
            if d.outcome == "accept":
                state = d.state
    check_invariants(state)


# Per scheme at the Table 6.1 cell: the chain's new_limit and N + S, and
# the first step of the mean-mix walk at which admit_ch6 blocks a new call
# and drops a handover, each with the classes it refuses there.
ALL_CLASSES = (1, 2, 3, 4, 5, 6, 7)
WIDE_CLASSES = (2, 4)  # the two 128 kbps classes
CH6_WALK = {
    "proposed": (128, 155, (106, ALL_CLASSES), (155, ALL_CLASSES)),
    "non-prioritized": (155, 155, (155, ALL_CLASSES), (155, ALL_CLASSES)),
    "aqos": (101, 155, (99, WIDE_CLASSES), (155, ALL_CLASSES)),
    "hard-qos": (101, 101, (99, WIDE_CLASSES), (99, WIDE_CLASSES)),
    "guard": (96, 101, (95, (2, 3, 4, 6, 7)), (99, WIDE_CLASSES)),
}


@pytest.mark.parametrize("scheme", CH6_SCHEMES)
def test_per_call_cac_along_the_chain_mean_mix(scheme):
    """Walk the chain's states i = 0..N+S with class counts round(a_m * i),
    rebalanced, and ask admit_ch6 for a new call and a handover of every
    class; under the guard scheme new calls leave the guard channels' worth
    of the mean request free.  The chain blocks new calls from new_limit
    and drops handovers from N + S; the per-call policy's first refusals
    are pinned next to them (see the Ch6Cell docstring)."""
    params = scenario_from_preset("table-6.1").ch6_params(1.3)
    (cell,) = ch6_cells(params, (scheme,))
    classes = _scheme_classes(params.classes, scheme)
    guard_bw = 0.0
    if scheme == "guard":
        guard_bw = params.guard_channels * sum(c.arrival_share * c.requested_bw
                                               for c in classes)
    first = {}
    for i in range(cell.n + cell.s + 1):
        counts = [round(c.arrival_share * i) for c in classes]
        try:
            state = rebalance(CellLoadState(params.capacity, classes, counts=counts))
        except InvariantViolation:
            break
        for kind, refusal in (("new", "block"), ("handover", "drop")):
            refused = tuple(c.index for c in classes
                            if admit_ch6(state, c.index, kind, guard_bw).outcome == refusal)
            if refused and kind not in first:
                first[kind] = (i, refused)
    assert (cell.new_limit, cell.n + cell.s, first["new"], first["handover"]) == CH6_WALK[scheme]
