import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtonet.admission import (
    AdmissionDecision,
    CellLoadState,
    FemtoCellState,
    InvariantViolation,
    SnirThresholds,
    TrafficClass,
    UndefinedResidualError,
    admit_ch6,
    admit_from_femto,
    admit_macro_to_femto,
    admit_new_call,
    make_state,
    rebalance,
    releasable,
    required_bw,
    residual_fraction,
)

VOICE = TrafficClass(1, "rt", 25.0, arrival_share=0.35)
VIDEO = TrafficClass(4, "nrt", 128.0, degrade_new=0.4, degrade_hand=0.6,
                     arrival_share=0.15)
BACKGROUND = TrafficClass(7, "nrt", 56.0, degrade_new=0.5, degrade_hand=0.8,
                          arrival_share=0.1)


def test_traffic_class_validation():
    with pytest.raises(ValueError):
        TrafficClass(1, "rt", 25.0, degrade_hand=0.2)  # RT cannot degrade
    with pytest.raises(ValueError):
        TrafficClass(2, "nrt", 56.0, degrade_new=0.7, degrade_hand=0.5)


# ---------------------------------------------------------------------------
# residual fraction / rebalance


def test_residual_fraction_requires_nrt():
    state = make_state(100.0, [VOICE], counts=[2])
    with pytest.raises(UndefinedResidualError):
        residual_fraction(state)


def test_residual_fraction_arithmetic():
    cls56 = TrafficClass(2, "nrt", 56.0, degrade_new=0.3, degrade_hand=0.6)
    state = make_state(100.0, [VOICE, cls56], counts=[1, 1])
    assert residual_fraction(state) == pytest.approx(75.0 / 56.0)


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
    assert residual_fraction(state) == pytest.approx(0.5)
    out = rebalance(state)
    assert out.allocs[1] == pytest.approx(100.0 / 4.0)
    assert out.occupied == pytest.approx(125.0)
    out.check_invariants()


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
    d.state.check_invariants()


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
            state.check_invariants()


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
    state.check_invariants()
