import itertools
import math

import numpy as np
import pytest
from oracles import BAND_LABELS, BandPartition, interfering, partition_band

from femtonet.spectrum import (
    SCHEMES,
    Band,
    FemtoBandAssignment,
    PlanConfigError,
    SpectrumPlan,
    bands_overlap,
    build_plan,
    configure_new_femto,
    remove_femto,
    verify_plan_relations,
)
from femtonet.topology import CellTopology, FemtoSite, place_femtocells


def _manual_topo(positions, r_f=10.0):
    return CellTopology(
        macro_radius_m=1000.0,
        femto_radius_m=r_f,
        macro_sites=[(0.0, 0.0)],
        femtocells=[FemtoSite(i, p) for i, p in enumerate(positions)],
    )


def _empty_dynamic_plan(topo):
    plan = build_plan("dynamic-reuse", _manual_topo([]))
    plan.femto_assignment.clear()
    return plan


# ---------------------------------------------------------------------------
# partition / overlap


def _table(total_hz=18e6, femto_fraction=1 / 3):
    """A plan with no cells: only its band table is read."""
    return SpectrumPlan("shared", total_hz, {}, {}, femto_fraction)


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
            plan = SpectrumPlan(scheme, total_hz, {}, {}, fraction)
            for label in BAND_LABELS:
                band, ref = plan.band(label), partition_band(old, fraction, label)
                assert band.label == label
                assert (band.lo.hex(), band.hi.hex()) == (ref.lo.hex(), ref.hi.hex())


def test_band_is_a_lookup_not_a_construction():
    plan = build_plan("dynamic-reuse", place_femtocells(seed=5, count=20))
    for label in BAND_LABELS:
        assert plan.band(label) is plan.band(label)
    for f in plan.femto_assignment:
        assert plan.interferer_band(f) is plan.band(plan.femto_assignment[f].edge_label)
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
    for f in topo.femto_ids:
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
    for f in topo.femto_ids:
        assert plan.femto_assignment[f].center_label in ("Bm2", "Bm3")


def test_static_reuse_overlapping_discs_differ():
    topo = _manual_topo([(0.0, 0.0), (15.0, 0.0)])  # discs overlap (< 20 m)
    plan = build_plan("static-reuse", topo, seed=1)
    a, b = (plan.femto_assignment[i].center_label for i in (0, 1))
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


# ---------------------------------------------------------------------------
# dynamic reuse configuration algorithm


def test_configure_no_interferer():
    topo = _manual_topo([(0.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    a = plan.femto_assignment[0]
    assert (a.center_label, a.edge_label) == ("Bm2", "Bm3")


def test_configure_one_interferer_cyclic_table():
    # incumbent edge -> expected newcomer edge (pseudocode lines 7-20)
    for incumbent, expected in [("B5", "B4"), ("B4", "B5"), ("B1", "B2"),
                                ("B2", "B3"), ("B3", "B1")]:
        topo = _manual_topo([(0.0, 0.0), (30.0, 0.0)])
        plan = build_plan("dynamic-reuse", _manual_topo([]))
        plan.femto_assignment.clear()
        plan.femto_assignment[0] = FemtoBandAssignment("Bm2", incumbent)
        got = configure_new_femto(plan, topo, 1)
        assert got.center_label == "Bm2"
        assert got.edge_label == expected


def test_configure_one_interferer_whole_band_split():
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    # femto 0 was alone and held Bm3; the arrival of femto 1 splits the edge
    assert plan.femto_assignment[0].edge_label == "B4"
    assert plan.femto_assignment[1].edge_label == "B5"


def test_configure_two_interferers_b4_b5_reassignment():
    # pseudocode lines 23-26
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0), (15.0, 20.0)])
    plan = build_plan("dynamic-reuse", _manual_topo([]))
    plan.femto_assignment.clear()
    plan.femto_assignment[0] = FemtoBandAssignment("Bm2", "B4")
    plan.femto_assignment[1] = FemtoBandAssignment("Bm2", "B5")
    got = configure_new_femto(plan, topo, 2)
    assert got.edge_label == "B3"
    assert plan.femto_assignment[0].edge_label == "B1"
    assert plan.femto_assignment[1].edge_label == "B2"


def test_configure_two_interferers_third_pairs():
    for pair, expected in [(("B1", "B2"), "B3"), (("B2", "B3"), "B1"),
                           (("B3", "B1"), "B2")]:
        topo = _manual_topo([(0.0, 0.0), (30.0, 0.0), (15.0, 20.0)])
        plan = build_plan("dynamic-reuse", _manual_topo([]))
        plan.femto_assignment.clear()
        plan.femto_assignment[0] = FemtoBandAssignment("Bm2", pair[0])
        plan.femto_assignment[1] = FemtoBandAssignment("Bm2", pair[1])
        got = configure_new_femto(plan, topo, 2)
        assert got.edge_label == expected
        assert plan.edge_conflicts(topo) == []


def test_three_interferers_lowest_free_third():
    positions = [(0.0, 0.0), (30.0, 0.0), (15.0, 20.0), (15.0, 7.0)]
    topo = _manual_topo(positions)
    plan = build_plan("dynamic-reuse", topo)
    assert plan.edge_conflicts(topo) == []
    edges = {plan.femto_assignment[i].edge_label for i in range(4)}
    assert len(edges) == 4


def test_more_than_three_interferers_shrinks():
    positions = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0), (5.0, 5.0)]
    topo = _manual_topo(positions)
    plan = build_plan("dynamic-reuse", topo)
    assert any(ev[0] == "shrink" for ev in plan.events)
    assert any(r < 10.0 for r in plan.radius_of.values())


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
    assert len(calls) <= 3.5 * 1000


def test_interferers_of_an_unassigned_fap_next_to_the_only_assigned_one():
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0), (50.0, 0.0)])
    plan = _empty_dynamic_plan(topo)
    plan.femto_assignment[0] = FemtoBandAssignment("Bm2", "Bm3")
    assert plan.interferers(topo, 1) == [0]
    assert plan.interferers(topo, 0) == []
    plan.femto_assignment[2] = FemtoBandAssignment("Bm2", "B4")
    assert plan.interferers(topo, 1) == [0, 2]


def test_remove_only_femto():
    topo = _manual_topo([(0.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    remove_femto(plan, topo, 0)
    assert plan.femto_assignment == {}


def test_remove_conflict_free_neighbor_leaves_survivor():
    topo = _manual_topo([(0.0, 0.0), (30.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    survivor_before = plan.femto_assignment[0].edge_label
    remove_femto(plan, topo, 1)
    assert plan.femto_assignment[0].edge_label == survivor_before


def test_remove_middle_of_chain_keeps_pairwise_distinct():
    # 0-1 interfere, 1-2 interfere, 0-2 do not
    topo = _manual_topo([(0.0, 0.0), (45.0, 0.0), (90.0, 0.0)])
    plan = build_plan("dynamic-reuse", topo)
    assert plan.edge_conflicts(topo) == []
    remove_femto(plan, topo, 1)
    # exhaustive pairwise re-check of the survivors
    ids = sorted(plan.femto_assignment)
    for a, b in itertools.combinations(ids, 2):
        if interfering(plan, topo, a, b):
            assert plan.femto_assignment[a].edge_label != plan.femto_assignment[b].edge_label


def test_random_insert_remove_sequences_conflict_free():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(4, 14))
        pts = [(float(rng.uniform(0, 160)), float(rng.uniform(0, 160))) for _ in range(n)]
        topo = _manual_topo(pts)
        plan = build_plan("dynamic-reuse", _manual_topo([]))
        plan.femto_assignment.clear()
        alive = []
        for i in range(n):
            configure_new_femto(plan, topo, i)
            alive.append(i)
            if len(alive) > 2 and rng.random() < 0.3:
                victim = alive.pop(int(rng.integers(len(alive))))
                remove_femto(plan, topo, victim)
            assert plan.edge_conflicts(topo) == [], f"trial {trial}"


def test_idempotent_for_non_neighbors():
    topo = _manual_topo([(0.0, 0.0), (500.0, 0.0), (500.0, 30.0)])
    plan = build_plan("dynamic-reuse", topo)
    far_before = plan.femto_assignment[0].edge_label
    # re-configuring femto 2 must not touch the distant femto 0
    configure_new_femto(plan, topo, 2)
    assert plan.femto_assignment[0].edge_label == far_before


def test_plan_snapshot_round_trip():
    from femtonet.spectrum import plan_from_text, plan_to_text

    topo = place_femtocells(seed=9, count=40)
    for scheme in ("dedicated", "shared", "sub", "static-reuse", "dynamic-reuse"):
        plan = build_plan(scheme, topo, seed=9)
        text = plan_to_text(plan)
        back = plan_from_text(text)
        assert back.scheme == plan.scheme
        assert back.macro_assignment == plan.macro_assignment
        assert {f: (a.center_label, a.edge_label)
                for f, a in back.femto_assignment.items()} == \
               {f: (a.center_label, a.edge_label)
                for f, a in plan.femto_assignment.items()}
        assert back.radius_of == plan.radius_of
        assert plan_to_text(back) == text  # snapshot is stable


def test_plan_snapshot_bad_line():
    from femtonet.spectrum import plan_from_text, plan_to_text

    with pytest.raises(ValueError):
        plan_from_text("scheme dedicated\n")
    # a snapshot passes the same constructor checks as build_plan
    text = plan_to_text(build_plan("dedicated", place_femtocells(seed=5, count=3)))
    assert f"femto_fraction = {1 / 3!r}" in text
    for fraction in ("0.0", "1.0"):
        bad = text.replace(f"femto_fraction = {1 / 3!r}", f"femto_fraction = {fraction}")
        with pytest.raises(PlanConfigError, match="femto fraction"):
            plan_from_text(bad)
    with pytest.raises(PlanConfigError, match="unknown scheme 'dedicted'"):
        plan_from_text(text.replace("scheme = dedicated", "scheme = dedicted"))
    with pytest.raises(PlanConfigError, match="total bandwidth"):
        plan_from_text(text.replace("total_hz = 18000000.0", "total_hz = 0.0"))


def test_reuse_band_statistics():
    """Static: ~half the neighbor pairs share a band; dynamic: conflict-free
    assignment keeps the sharing fraction at edge bands far below a third."""
    from femtonet.topology import neighbors_of

    topo = place_femtocells(seed=13, count=700)
    pairs = {(a, b) for a in topo.femto_ids for b in neighbors_of(topo, a) if a < b}
    assert len(pairs) > 200

    static = build_plan("static-reuse", topo, seed=13)
    share_static = np.mean([
        static.femto_assignment[a].center_label == static.femto_assignment[b].center_label
        for a, b in pairs
    ])
    assert 0.35 < share_static < 0.65

    dynamic = build_plan("dynamic-reuse", topo)
    share_dynamic = np.mean([
        dynamic.femto_assignment[a].edge_label == dynamic.femto_assignment[b].edge_label
        for a, b in pairs
    ])
    assert share_dynamic <= 1.0 / 3.0
    assert share_dynamic < share_static
