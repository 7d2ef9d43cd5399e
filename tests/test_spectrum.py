import collections
import contextlib
import dataclasses
import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from oracles import (
    BAND_LABELS,
    BandPartition,
    band_records,
    brute_interferers,
    cell_radius,
    configure_two_table,
    interfering,
    pairwise_edge_conflicts,
    partition_band,
    record_band_for_link,
    record_interferer_band,
    record_shares_frequency,
    relation_build_plan,
    relation_configure_new_femto,
    relation_remove_femto,
)

from femtonet import spectrum
from femtonet.spectrum import (
    SCHEMES,
    PlanConfigError,
    SpectrumPlan,
    bands_overlap,
    build_plan,
    configure_new_femto,
    remove_femto,
    verify_plan_relations,
)
from femtonet.neighborlist import shares_frequency
from femtonet.radio import sir
from femtonet.topology import (
    CellTopology,
    MacroGeometry,
    UnknownSiteError,
    place_femtocells,
    reach_components,
)


def _manual_topo(positions, r_f=10.0):
    return CellTopology(
        macro_radius_m=1000.0,
        femto_radius_m=r_f,
        macro_sites=[(0.0, 0.0)],
        femtocells=list(range(len(positions))),
        positions=positions,
    )


def _empty_dynamic_plan(topo):
    plan = build_plan("dynamic-reuse", _manual_topo([]))
    plan.femto_band.clear()
    return plan


# ---------------------------------------------------------------------------
# partition / overlap


def _table(total_hz=18e6, femto_fraction=1 / 3):
    """A plan with no cells: only its band table is read."""
    return SpectrumPlan("shared", total_hz, femto_fraction)


def test_partition_tilings_exact():
    plan = _table(18e6)
    m1, m2, m3 = (plan.band(lab) for lab in ("Bm1", "Bm2", "Bm3"))
    assert m1.width == m2.width == m3.width == 6e6
    assert m1.lo == 0.0 and m3.hi == 18e6 and m1.hi == m2.lo and m2.hi == m3.lo
    b1, b2, b3 = (plan.band(lab) for lab in ("B1", "B2", "B3"))
    assert b1.lo == m3.lo and b3.hi == m3.hi and b1.width == b2.width == b3.width
    b4, b5 = plan.band("B4"), plan.band("B5")
    assert b4.lo == m3.lo and b5.hi == m3.hi and b4.width == b5.width == m3.width / 2


def test_bands_overlap_basics():
    plan = _table()
    m1, m2 = plan.band("Bm1"), plan.band("Bm2")
    assert not bands_overlap(m1, m2)
    assert bands_overlap(m1, m1)


def test_bands_overlap_interval_oracle():
    # B4/B5 halves against B1/B2/B3 thirds, checked against raw intervals
    plan = _table()
    pool = [plan.band(lab) for lab in ("B1", "B2", "B3", "B4", "B5", "Bm1", "Bm2", "Bm3", "BT")]
    for a, b in itertools.product(pool, repeat=2):
        expected = max(a.lo, b.lo) < min(a.hi, b.hi)
        assert bands_overlap(a, b) == expected
    b4 = plan.band("B4")
    b1, b3 = plan.band("B1"), plan.band("B3")
    assert bands_overlap(b4, b1)
    assert not bands_overlap(b4, b3)


@pytest.mark.parametrize("total_hz", [18e6, 1.234567e7, 2e7, 5e6, 9.87654321e8, 1.0, 3.0])
def test_band_table_bit_identical_to_partition(total_hz):
    for fraction in (1 / 3, 0.25, 0.5, 0.1, 0.9, 1e-6, 1 - 1e-9, 0.123456789, 2 / 3):
        old = BandPartition(total_hz)
        for scheme in SCHEMES:
            plan = SpectrumPlan(scheme, total_hz, fraction)
            for label in BAND_LABELS:
                band, ref = plan.band(label), partition_band(old, fraction, label)
                assert band.label == label
                assert (band.lo.hex(), band.hi.hex()) == (ref.lo.hex(), ref.hi.hex())


def test_band_is_a_lookup_not_a_construction():
    plan = build_plan("dynamic-reuse", place_femtocells(seed=5, count=20))
    for label in BAND_LABELS:
        assert plan.band(label) is plan.band(label)
    for f in plan.femto_band:
        assert plan.interferer_band(f) is plan.band(plan.femto_band[f])
    with pytest.raises(KeyError, match="unknown band label"):
        plan.band("B6")


# ---------------------------------------------------------------------------
# build_plan per scheme


def test_dedicated_plan_relations():
    topo = place_femtocells(seed=5, count=20)
    plan = build_plan("dedicated", topo, total_hz=18e6, femto_fraction=1 / 3)
    verify_plan_relations(plan)
    assert plan.band("Bf").width == pytest.approx(6e6)
    assert not bands_overlap(plan.band("Bf"), plan.band("Bm"))


def test_shared_plan_full_band_everywhere():
    topo = place_femtocells(seed=5, count=10)
    plan = build_plan("shared", topo)
    verify_plan_relations(plan)
    for j in range(len(topo.macro_sites)):
        assert plan.macro_band(j).label == "BT"
    for f in topo.femtocells:
        assert plan.band_for_link(f, (0.0, 0.0), topo).label == "BT"


def test_sub_plan_subset():
    topo = place_femtocells(seed=5, count=10)
    plan = build_plan("sub", topo)
    verify_plan_relations(plan)
    bf, bt = plan.band("Bf"), plan.band("BT")
    assert bands_overlap(bf, bt) and bf.width < bt.width


def test_static_reuse_uses_other_two_bands():
    topo = place_femtocells(seed=5, count=200)
    plan = build_plan("static-reuse", topo, seed=5)
    verify_plan_relations(plan)
    assert plan.macro_assignment[0] == "Bm1"
    for f in topo.femtocells:
        assert plan.femto_band[f] in ("Bm2", "Bm3")


def test_static_reuse_overlapping_discs_differ():
    topo = _manual_topo([(0.0, 0.0), (15.0, 0.0)])  # discs overlap (< 20 m)
    plan = build_plan("static-reuse", topo, seed=1)
    a, b = (plan.femto_band[i] for i in (0, 1))
    assert a != b


def test_dedicated_fraction_validation():
    topo = place_femtocells(seed=5, count=1)
    with pytest.raises(PlanConfigError):
        build_plan("dedicated", topo, femto_fraction=0.0)
    with pytest.raises(PlanConfigError):
        build_plan("sub", topo, femto_fraction=1.5)
    # every scheme checks the open interval; at 1.0 a dedicated plan's Bm
    # used to be empty, and only radio.sir failed on it
    for scheme in SCHEMES:
        for fraction in (0.0, 1.0, -0.25, math.nan):
            with pytest.raises(PlanConfigError, match="femto fraction"):
                build_plan(scheme, topo, femto_fraction=fraction)
        for total_hz in (0.0, -18e6, math.nan):
            with pytest.raises(PlanConfigError, match="total bandwidth"):
                build_plan(scheme, topo, total_hz=total_hz)


@pytest.mark.parametrize("fraction", [math.nan, -1.0, 1.5])
def test_edge_fraction_outside_the_unit_interval_is_rejected(fraction):
    topo = place_femtocells(seed=5, count=1)
    for scheme in SCHEMES:
        with pytest.raises(PlanConfigError, match=r"^edge_fraction must lie in \[0, 1\], got"):
            build_plan(scheme, topo, edge_fraction=fraction)
        for edge in (0.0, 1.0):
            build_plan(scheme, topo, edge_fraction=edge)


def test_unknown_scheme_is_rejected():
    with pytest.raises(PlanConfigError, match="unknown scheme 'dedicted'"):
        build_plan("dedicted", place_femtocells(seed=5, count=3))


# ---------------------------------------------------------------------------
# dynamic reuse configuration algorithm


def test_configure_no_interferer():
    topo = _manual_topo([(0.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    assert plan.femto_band == {0: "Bm3"}
    assert plan.band_for_link(0, (0.0, 0.0), topo).label == "Bm2"


def test_configure_one_interferer_cyclic_table():
    # incumbent edge -> expected newcomer edge (pseudocode lines 7-20)
    for incumbent, expected in [("B5", "B4"), ("B4", "B5"), ("B1", "B2"),
                                ("B2", "B3"), ("B3", "B1")]:
        topo = _manual_topo([(0.0, 0.0), (30.0, 0.0)])
        plan = build_plan("dynamic-reuse", _manual_topo([]))
        plan.femto_band.clear()
        plan.femto_band[0] = incumbent
        got = configure_new_femto(plan, topo, 1)
        assert plan.band_for_link(1, topo.position(1), topo).label == "Bm2"
        assert got == plan.femto_band[1] == expected


def test_configure_one_interferer_whole_band_split():
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    # femto 0 was alone and held Bm3; the arrival of femto 1 splits the edge
    assert plan.femto_band[0] == "B4"
    assert plan.femto_band[1] == "B5"


def test_configure_two_interferers_b4_b5_reassignment():
    # pseudocode lines 23-26
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0), (15.0, 20.0)])
    plan = build_plan("dynamic-reuse", _manual_topo([]))
    plan.femto_band.clear()
    plan.femto_band[0] = "B4"
    plan.femto_band[1] = "B5"
    got = configure_new_femto(plan, topo, 2)
    assert got == "B3"
    assert plan.femto_band[0] == "B1"
    assert plan.femto_band[1] == "B2"


def test_configure_two_interferers_third_pairs():
    for pair, expected in [(("B1", "B2"), "B3"), (("B2", "B3"), "B1"),
                           (("B3", "B1"), "B2")]:
        topo = _manual_topo([(0.0, 0.0), (30.0, 0.0), (15.0, 20.0)])
        plan = build_plan("dynamic-reuse", _manual_topo([]))
        plan.femto_band.clear()
        plan.femto_band[0] = pair[0]
        plan.femto_band[1] = pair[1]
        got = configure_new_femto(plan, topo, 2)
        assert got == expected
        assert plan.edge_conflicts(topo) == []


def test_three_interferers_lowest_free_third():
    positions = [(0.0, 0.0), (30.0, 0.0), (15.0, 20.0), (15.0, 7.0)]
    topo = _manual_topo(positions)
    plan = build_plan("dynamic-reuse", topo)
    assert plan.edge_conflicts(topo) == []
    edges = {plan.femto_band[i] for i in range(4)}
    assert len(edges) == 4


def test_more_than_three_interferers_shrinks():
    positions = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0), (5.0, 5.0)]
    topo = _manual_topo(positions)
    plan = build_plan("dynamic-reuse", topo)
    assert any(ev[0] == "shrink" for ev in plan.events)
    assert any(r < 10.0 for r in plan.radius_of.values())


# the newcomer at the origin has six interferers: a triangle x, y, z at
# 25 m, each with a pendant 30 m further out that overlaps only its own
# corner, with the pendants' ids first or last
_PENDANTS = [(r * math.cos(math.radians(a)), r * math.sin(math.radians(a)))
             for r in (55.0, 25.0) for a in (0, 120, 240)] + [(0.0, 0.0)]
_PENDANT_IDS = {True: [0, 1, 2, 3, 4, 5, 6], False: [3, 4, 5, 0, 1, 2, 6]}


@pytest.mark.parametrize("pendants_first", [True, False])
def test_the_overlap_test_is_the_greedy_clique_by_id(pendants_first):
    # four cells overlap one another, but the greedy clique of each corner
    # takes the least id it overlaps first; when that is the pendant, the
    # clique stops at two and no shrink follows
    topo = CellTopology(1000.0, 10.0, [(0.0, 0.0)], _PENDANT_IDS[pendants_first], _PENDANTS)
    plan = build_plan("dynamic-reuse", topo)
    if pendants_first:
        assert plan.interferers(topo, 6) == [0, 1, 2, 3, 4, 5]
        assert "shrink" not in plan.branch_counts and plan.events == []
    else:  # its first shrink step records all six, as they were before it
        assert plan.events[0] == ("shrink", 6, (0, 1, 2, 3, 4, 5))
    assert _ordered_state(plan) == _ordered_state(relation_build_plan(topo))


def test_dense_dynamic_plan_branches_and_query_count(monkeypatch):
    # branch counts recorded before the helpers took interferer lists from
    # their callers; that code made 4.69 interferers calls per FAP here
    topo = place_femtocells(7, 1000)
    calls = []
    query = SpectrumPlan.interferers

    def counted(self, topo, fap_id):
        calls.append(fap_id)
        return query(self, topo, fap_id)

    monkeypatch.setattr(SpectrumPlan, "interferers", counted)
    plan = build_plan("dynamic-reuse", topo)
    assert plan.branch_counts == {"0": 283, "1": 272, "2": 160, "2-independent": 96,
                                  "3": 189, "shrink": 107}
    assert calls == []


def test_mutual_pairs_follow_the_pair_table():
    # two mutually interfering incumbents: the many-interferer rule gives
    # what the written-out pair table gives, on dense plans that reach
    # every kind of pair.  The table runs in the id-keyed oracle, which
    # test_dynamic_reuse_equals_the_id_keyed_oracle holds to the live steps
    pairs = set()

    def table(rel, new_id, a, b, mutual):
        if mutual:
            pairs.add(frozenset((rel.plan.femto_band[a], rel.plan.femto_band[b])))
        configure_two_table(rel, new_id, a, b, mutual)

    def state(plan):
        return (plan.femto_band, plan.radius_of, plan.events, plan.branch_counts)

    for count, radius in ((300, 300.0), (200, 200.0)):
        macro = MacroGeometry(macro_radius_m=radius, min_separation_m=1.0)
        for seed in range(20):
            topo = place_femtocells(seed, count, macro=macro)
            plan = build_plan("dynamic-reuse", topo)
            expected = relation_build_plan(topo, configure_two=table)
            assert state(plan) == state(expected), (count, seed)

    thirds = {"B1", "B2", "B3"}
    assert frozenset(("B4", "B5")) in pairs
    assert {frozenset(p) for p in itertools.combinations(sorted(thirds), 2)} <= pairs
    assert any(len(p) == 2 and len(p & thirds) == 1 and "Bm3" not in p for p in pairs)
    assert any("Bm3" in p for p in pairs)


def _plan_state(plan) -> bytes:
    return repr((sorted(plan.femto_band.items()), sorted(plan.radius_of.items()),
                 plan.events, sorted(plan.branch_counts.items()))).encode()


def test_dense_dynamic_plans_are_pinned_through_leaves_and_rejoins():
    # every label, radius, event and branch count of dense builds, each
    # followed by every 7th FAP leaving and joining again; pinned before
    # the configuration steps came to read the call's relation in place
    digest = hashlib.sha256()
    branches, events = collections.Counter(), collections.Counter()
    for radius, separation, count in ((1000.0, 2.0, 300), (200.0, 1.0, 80), (200.0, 1.0, 200)):
        macro = MacroGeometry(macro_radius_m=radius, min_separation_m=separation)
        for seed in range(4):
            topo = place_femtocells(seed, count, macro=macro)
            plan = build_plan("dynamic-reuse", topo)
            digest.update(_plan_state(plan))
            for f in topo.femtocells[::7]:
                remove_femto(plan, topo, f)
                configure_new_femto(plan, topo, f)
            digest.update(_plan_state(plan))
            branches.update(plan.branch_counts)
            events.update(event[0] for event in plan.events)
    assert branches == {"0": 924, "1": 522, "2": 248, "2-independent": 148, "3": 814,
                        "shrink": 673}
    assert events == {"shrink": 4652, "shrink-failed": 248, "repair-exhausted": 3326}
    assert digest.hexdigest() == "bf3a40aac81174e7d782ea20d05a6298d2b580c5c665da5f5d879a125470b7e2"


@pytest.mark.parametrize("last_pair_in_cells", [False, True])
def test_an_exhausted_repair_reports_only_a_conflict_among_its_own_pairs(last_pair_in_cells):
    # isolated interfering pairs (2i, 2i + 1) 30 m apart, all on B4: one
    # more pair than a repair has steps.  Each step moves the higher id of
    # the highest conflicted pair onto B5, so the steps run out with one
    # pair left.  With that pair outside `cells` it stands for a conflict
    # that an earlier exhausted repair left: this repair's own pairs are
    # clear, and it records no event.
    steps = 8 * (spectrum.MAX_SHRINK_STEPS + 1)
    positions = [(100.0 * (i % 6) - 250.0 + dx, 100.0 * (i // 6) - 250.0)
                 for i in range(steps + 1) for dx in (0.0, 30.0)]
    topo = _manual_topo(positions)
    plan = _empty_dynamic_plan(topo)
    plan.femto_band.update(dict.fromkeys(topo.femtocells, "B4"))
    pairs = range(steps + 1) if last_pair_in_cells else range(steps)
    left = pairs[0] if last_pair_in_cells else steps  # the pair no step reaches
    # the ids are the table indices here
    state = spectrum._lazy_state(plan, topo)
    spectrum._repair_conflicts(state, {2 * i for i in pairs})
    state.write_back()
    assert plan.edge_conflicts(topo) == [(2 * left, 2 * left + 1)]
    moved = {2 * i + 1 for i in pairs} - {2 * left + 1}
    assert {f for f, lab in plan.femto_band.items() if lab == "B5"} == moved
    assert plan.events == ([("repair-exhausted", tuple(sorted({2 * i for i in pairs} | moved)))]
                           if last_pair_in_cells else [])
    assert plan.radius_of == {}


def test_interferers_of_an_unassigned_fap_next_to_the_only_assigned_one():
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0), (50.0, 0.0)])
    plan = _empty_dynamic_plan(topo)
    plan.femto_band[0] = "Bm3"
    assert plan.interferers(topo, 1) == [0]
    assert plan.interferers(topo, 0) == []
    plan.femto_band[2] = "B4"
    assert plan.interferers(topo, 1) == [0, 2]


def test_remove_only_femto():
    topo = _manual_topo([(0.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    remove_femto(plan, topo, 0)
    assert plan.femto_band == {}


def test_remove_conflict_free_neighbor_leaves_survivor():
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    survivor_before = plan.femto_band[0]
    remove_femto(plan, topo, 1)
    assert plan.femto_band[0] == survivor_before


def test_remove_middle_of_chain_keeps_pairwise_distinct():
    # 0-1 interfere, 1-2 interfere, 0-2 do not
    topo = _manual_topo([(0.0, 0.0), (45.0, 0.0), (90.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    assert plan.edge_conflicts(topo) == []
    remove_femto(plan, topo, 1)
    # exhaustive pairwise re-check of the survivors
    ids = sorted(plan.femto_band)
    for a, b in itertools.combinations(ids, 2):
        if interfering(plan, topo, a, b):
            assert plan.femto_band[a] != plan.femto_band[b]


def test_random_insert_remove_sequences_conflict_free():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(4, 14))
        pts = [(float(rng.uniform(0, 160)), float(rng.uniform(0, 160))) for _ in range(n)]
        topo = _manual_topo(pts)
        plan = build_plan("dynamic-reuse", _manual_topo([]))
        plan.femto_band.clear()
        alive = []
        for i in range(n):
            configure_new_femto(plan, topo, i)
            alive.append(i)
            if len(alive) > 2 and rng.random() < 0.3:
                victim = alive.pop(int(rng.integers(len(alive))))
                remove_femto(plan, topo, victim)
            assert plan.edge_conflicts(topo) == [], f"trial {trial}"


@contextlib.contextmanager
def _recorded_states(eager=False):
    """Record the working state of each call that changes a plan.  An eager
    one reads every member's list when it is made, so that its join, shrink
    and leave must keep them all exact."""
    made = []

    class Recorded(spectrum._State):
        def __init__(self, plan, topo, read):
            super().__init__(plan, topo, read)
            made.append(self)
            if eager:
                for k, label in enumerate(self.labels):
                    if label is not spectrum._OUT:
                        self[k]

    with mock.patch.object(spectrum, "_State", Recorded):
        yield made


def _assert_relation(state, plan, topo, every_member=False):
    """Each list the call kept is a member's, keyed by table index, equal to
    its brute-force interferer list, with each interferer at its distance
    in the member's table row; and the labels and radii that the call wrote
    back are the plan's."""
    ids = topo.femtocells
    assert state.plan is plan and state.ids is ids
    members = {topo.index_of(f) for f in plan.femto_band}
    assert state.keys() <= members
    if every_member:
        assert state.keys() == members
    for k, row in state.items():
        f = ids[k]
        assert sorted(ids[j] for j in row) == brute_interferers(plan, topo, f), f
        table = dict(zip(*topo.row(f)))
        assert row == {j: table[j] for j in row}, f
    assert state.labels == [plan.femto_band.get(f, spectrum._OUT) for f in ids]
    for k in members:
        assert state.radii[k] == cell_radius(plan, topo, ids[k]), ids[k]


@st.composite
def join_leave_sequences(draw):
    """A topology of 2 to 12 FAPs on a square of side 15 to 260 m (the
    smallest put more than three cells in mutual range, which shrinks
    them), and steps: ("join", k) configures FAP k, a member or not;
    ("leave", k) removes the k-th member, modulo their count.  Half the
    cases read every member's list as each call starts."""
    eager = draw(st.booleans())
    n = draw(st.integers(2, 12))
    side = draw(st.floats(15.0, 260.0))
    coord = st.floats(0.0, side, allow_nan=False)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    steps = [("join", k) for k in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        step = draw(st.tuples(st.sampled_from(("join", "leave")), st.integers(0, 4 * n)))
        steps.insert(draw(st.integers(1, len(steps))), step)
    return pts, steps, eager


@settings(max_examples=300, deadline=None)
@given(case=join_leave_sequences())
def test_kept_relation_matches_brute_force_after_every_step(case):
    pts, steps, eager = case
    topo = _manual_topo(pts)
    plan = _empty_dynamic_plan(topo)
    for kind, k in steps:
        with _recorded_states(eager) as made:
            if kind == "join":
                joined = k % len(pts)
                configure_new_femto(plan, topo, joined)
            elif plan.femto_band:
                remove_femto(plan, topo, sorted(plan.femto_band)[k % len(plan.femto_band)])
        if made:
            (state,) = made
            _assert_relation(state, plan, topo, every_member=eager)
            assert kind == "leave" or topo.index_of(joined) in state
        assert plan.edge_conflicts(topo) == pairwise_edge_conflicts(plan, topo)


@pytest.mark.parametrize("seed", range(3))
def test_kept_relation_through_dense_shrinking_joins_and_leaves(seed):
    # the build's index-keyed lists at its return, then one eager state per
    # call, each checked against brute_interferers after the call
    macro = MacroGeometry(macro_radius_m=200.0, min_separation_m=1.0)
    topo = place_femtocells(seed, 80, macro=macro)
    with _recorded_states() as made:
        built = build_plan("dynamic-reuse", topo)
    assert built.branch_counts["shrink"] > 0 and len(built.radius_of) > 10
    (state,) = made
    _assert_relation(state, built, topo, every_member=True)
    plan = _empty_dynamic_plan(topo)
    for f in topo.femtocells:
        with _recorded_states(eager=True) as made:
            configure_new_femto(plan, topo, f)
        _assert_relation(made[0], plan, topo, every_member=True)
    assert (plan.femto_band, plan.radius_of) == (built.femto_band, built.radius_of)
    for f in topo.femtocells[::3]:
        with _recorded_states(eager=True) as made:
            remove_femto(plan, topo, f)
        _assert_relation(made[0], plan, topo, every_member=True)


def _ordered_state(plan) -> str:
    """Every label, radius, event and branch count, each dict in its own
    order, as repr text, so that two states compare bit for bit."""
    return repr((list(plan.femto_band.items()), list(plan.radius_of.items()),
                 plan.events, list(plan.branch_counts.items())))


@st.composite
def oracle_cases(draw):
    """A topology of 1 to 40 FAPs on a square of side 10 to 300 m (the
    smallest crowd every cell into one another's range, which shrinks
    them), with distinct ids drawn from 0 to 5000, so gapped and in any
    order; whether the plan starts as a whole build or empty; and steps:
    ("join", k) configures the k-th FAP, modulo n, a member or not, and
    ("leave", k) removes the k-th member in id order, modulo their count."""
    n = draw(st.integers(1, 40))
    side = draw(st.floats(10.0, 300.0))
    coord = st.floats(0.0, side, allow_nan=False)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n, unique=True))
    step = st.tuples(st.sampled_from(("join", "leave")), st.integers(0, 200))
    return pts, ids, draw(st.booleans()), draw(st.lists(step, max_size=2 * n))


# no shrink phase: a failing 40-FAP case took minutes to shrink through
# both builds, and the failure names its step as it stands
@settings(max_examples=200, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(case=oracle_cases())
@example(case=([(0.0, 0.0), (15.0, 0.0)], [3, 2], True, [("leave", 0), ("join", 1)]))
@example(case=(_PENDANTS, _PENDANT_IDS[True], True, []))
@example(case=(_PENDANTS, _PENDANT_IDS[False], True, []))
def test_dynamic_reuse_equals_the_id_keyed_oracle(case):
    # the index-keyed build, joins and leaves against the id-keyed relation
    # that they replaced, after the build and after every step; the two
    # greedy-clique topologies above are cases too
    pts, ids, built, steps = case
    topo = CellTopology(1000.0, 10.0, [(0.0, 0.0)], ids, pts)
    if built:
        plan, want = build_plan("dynamic-reuse", topo), relation_build_plan(topo)
    else:
        plan, want = _empty_dynamic_plan(topo), _empty_dynamic_plan(topo)
    assert _ordered_state(plan) == _ordered_state(want)
    for kind, k in steps:
        if kind == "join":
            f = ids[k % len(ids)]
            assert configure_new_femto(plan, topo, f) == \
                relation_configure_new_femto(want, topo, f)
        elif plan.femto_band:
            f = sorted(plan.femto_band)[k % len(plan.femto_band)]
            remove_femto(plan, topo, f)
            relation_remove_femto(want, topo, f)
        assert _ordered_state(plan) == _ordered_state(want), (kind, k)


def test_a_dynamic_build_reads_the_table_once_as_a_whole(monkeypatch):
    topo = place_femtocells(7, 1000)
    reads = []
    row, rows = CellTopology.row, CellTopology.rows

    def counted_row(self, fap_id):  # the read of one FAP's table row
        reads.append(fap_id)
        return row(self, fap_id)

    def counted_rows(self):  # the read of the whole table
        reads.append("whole")
        return rows(self)

    monkeypatch.setattr(CellTopology, "row", counted_row)
    monkeypatch.setattr(CellTopology, "rows", counted_rows)
    plan = build_plan("dynamic-reuse", topo)
    assert plan.branch_counts["shrink"] == 107  # shrinks read no row
    assert reads == ["whole"]


def test_a_plan_read_after_its_build_keeps_no_relation():
    topo = place_femtocells(7, 300)
    plan = build_plan("dynamic-reuse", topo)
    # its fields and its band table, nothing more
    assert vars(plan).keys() == {f.name for f in dataclasses.fields(plan)} | {"_bands"}
    for f in topo.femtocells[::5]:
        remove_femto(plan, topo, f)
    for g in plan.femto_band:
        assert plan.interferers(topo, g) == brute_interferers(plan, topo, g), g


def test_interferers_follow_members_changed_outside_a_join():
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0), (70.0, 0.0)])
    plan = _empty_dynamic_plan(topo)
    configure_new_femto(plan, topo, 0)
    configure_new_femto(plan, topo, 1)
    plan.femto_band[2] = "B1"  # a member written directly
    assert plan.interferers(topo, 1) == [0, 2]
    assert plan.interferers(topo, 0) == [1]
    del plan.femto_band[2]
    assert plan.interferers(topo, 1) == [0]
    other = _manual_topo([(0.0, 0.0), (100.0, 0.0), (50.0, 0.0)])
    assert plan.interferers(other, 1) == []  # another topology
    plan.femto_band = {0: "B4", 2: "B5"}  # another femto_band
    assert plan.interferers(topo, 0) == []
    assert plan.interferers(topo, 2) == []


def test_interferers_follow_a_member_swapped_in_place():
    # same femto_band dict, same member count: nothing read earlier may
    # stand in for a scan
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0), (0.0, 40.0)])
    plan = _empty_dynamic_plan(topo)
    configure_new_femto(plan, topo, 0)
    configure_new_femto(plan, topo, 1)
    assert plan.interferers(topo, 0) == [1]
    del plan.femto_band[1]
    plan.femto_band[2] = plan.femto_band[0]
    for f in plan.femto_band:
        assert plan.interferers(topo, f) == brute_interferers(plan, topo, f), f
    assert plan.edge_conflicts(topo) == pairwise_edge_conflicts(plan, topo) == [(0, 2)]


def test_a_scan_of_a_cell_wider_than_nominal_raises():
    # its pairs could lie beyond the neighbor table's reach
    topo = _manual_topo([(0.0, 0.0), (70.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    plan.radius_of[0] = 20.0
    with pytest.raises(ValueError):
        plan.interferers(topo, 0)


def test_each_plan_copies_the_band_table():
    plan, other = SpectrumPlan("shared", 18e6), SpectrumPlan("shared", 18e6)
    plan._bands["Bf"] = plan.band("Bm")
    assert other.band("Bf") == SpectrumPlan("shared", 18e6).band("Bf") != plan.band("Bf")


def test_idempotent_for_non_neighbors():
    topo = _manual_topo([(0.0, 0.0), (500.0, 0.0), (500.0, 30.0)])
    plan = build_plan("dynamic-reuse", topo)
    far_before = plan.femto_band[0]
    # re-configuring femto 2 must not touch the distant femto 0
    configure_new_femto(plan, topo, 2)
    assert plan.femto_band[0] == far_before


def test_reuse_band_statistics():
    """Static: ~half the neighbor pairs share a band; dynamic: conflict-free
    assignment keeps the sharing fraction at edge bands far below a third."""
    from femtonet.topology import neighbors_of

    topo = place_femtocells(seed=13, count=700)
    pairs = {(a, b) for a in topo.femtocells for b in neighbors_of(topo, a) if a < b}
    assert len(pairs) > 200

    static = build_plan("static-reuse", topo, seed=13)
    share_static = np.mean([
        static.femto_band[a] == static.femto_band[b]
        for a, b in pairs
    ])
    assert 0.35 < share_static < 0.65

    dynamic = build_plan("dynamic-reuse", topo)
    share_dynamic = np.mean([
        dynamic.femto_band[a] == dynamic.femto_band[b]
        for a, b in pairs
    ])
    assert share_dynamic <= 1.0 / 3.0
    assert share_dynamic < share_static


# ---------------------------------------------------------------------------
# one band label per FAP against the per-FAP records it replaced


def _assert_band_rules_match_records(plan, topo):
    """The one-label `shares_frequency`, `interferer_band` and `band_for_link`
    against the record-based versions: every ordered FAP pair, and a user
    inside and outside each FAP's inner circle."""
    records = band_records(plan)
    ids = topo.femtocells
    assert [shares_frequency(plan, a, b) for a in ids for b in ids] == \
        [record_shares_frequency(plan, records, a, b) for a in ids for b in ids]
    inner = plan.edge_fraction * topo.femto_radius_m
    for f in ids:
        assert plan.interferer_band(f) == record_interferer_band(plan, records, f)
        x, y = topo.position(f)
        inside, outside = (plan.band_for_link(f, (x + d, y), topo) for d in (inner / 2, 2 * inner))
        assert inside == record_band_for_link(plan, records, f, (x + inner / 2, y), topo)
        assert outside == record_band_for_link(plan, records, f, (x + 2 * inner, y), topo)
        if plan.scheme == "dynamic-reuse":
            assert (inside.label, outside.label) == (spectrum.CENTER_BAND, plan.femto_band[f])


@pytest.mark.parametrize("count", [300, 1000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_label_band_rules_match_the_record_rules(count, seed):
    topo = place_femtocells(seed, count)
    for scheme in SCHEMES:
        _assert_band_rules_match_records(build_plan(scheme, topo, seed=seed), topo)


def test_one_label_band_rules_match_the_record_rules_on_a_tiny_band():
    # at total_hz = 1e-9 every band lies within the 1e-9 slack of every
    # other, so only the label comparison keeps static-reuse Bm3 apart from Bm2
    topo = place_femtocells(4, 300)
    for scheme in SCHEMES:
        plan = build_plan(scheme, topo, total_hz=1e-9, seed=4)
        _assert_band_rules_match_records(plan, topo)
        if scheme == "static-reuse":
            a, b = (next(f for f, lab in plan.femto_band.items() if lab == band)
                    for band in ("Bm3", "Bm2"))
            assert not shares_frequency(plan, a, b)


def _missing_fap_calls():
    topo = place_femtocells(1, 50)
    missing = 7
    ue = (topo.position(missing)[0] + 3.0, topo.position(missing)[1])
    return topo, missing, {
        "band_for_link": lambda plan: plan.band_for_link(missing, ue, topo),
        "interferer_band": lambda plan: plan.interferer_band(missing),
        "shares_frequency": lambda plan: shares_frequency(plan, missing, 0),
        "sir": lambda plan: sir(topo, plan, ue, missing),
    }


@pytest.mark.parametrize("call", ["band_for_link", "interferer_band", "shares_frequency", "sir"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_fap_the_plan_does_not_hold_is_named(call, scheme):
    # a plan built on the reference FAP's reach component lacks FAP 7 of the
    # topology; each call raised a bare KeyError(7)
    topo, missing, calls = _missing_fap_calls()
    plan = build_plan(scheme, reach_components(topo, {0}))
    assert missing not in plan.femto_band and missing in topo.femtocells
    with pytest.raises(UnknownSiteError, match=r"^femtocell 7 not in plan$"):
        calls[call](plan)
