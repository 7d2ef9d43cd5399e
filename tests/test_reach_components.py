"""Plans restricted to the reference FAP's reach components against the plans
of the whole topology: the fig4 sweep builds the former and must read the
same bands, radii and SIR reports as the latter would give."""

import math

import numpy as np
import pytest

from femtonet import topology
from femtonet.neighborlist import RssiScan, build_list_from_femto
from femtonet.radio import sir
from femtonet.spectrum import build_plan
from femtonet.topology import (
    CellTopology,
    MacroGeometry,
    UnknownSiteError,
    neighbors_of,
    place_femtocells,
    reach_components,
)

REF = 0


def _brute_components(topo):
    """Component label per FAP index, by union-find over every pair."""
    n = len(topo.femtocells)
    parent = list(range(n))

    def root(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    pos = topo.positions
    reach = 3.0 * (topo.femto_radius_m + topo.femto_radius_m)
    for a in range(n):
        d = np.hypot(pos[a, 0] - pos[:, 0], pos[a, 1] - pos[:, 1])
        for b in np.flatnonzero(d <= reach).tolist():
            parent[root(a)] = root(b)
    return [root(k) for k in range(n)]


def _hex(report):
    return ([x.hex() for x in (report.signal_w, report.femto_interf_w, report.macro_interf_w)],
            [(name, p.hex()) for name, p in report.per_source], report.interference_free)


@pytest.mark.parametrize("seed", range(3))
def test_reach_components_are_the_union_find_components(seed):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(600)[:200].tolist()
    xy = rng.uniform(0.0, 900.0, size=(200, 2))
    topo = CellTopology(1000.0, 10.0, [(0.0, 0.0)], ids, xy,
                        neighbor_threshold_m=45.0, macro_ue_walls=2, inter_femto_walls=3)
    label = _brute_components(topo)
    seeds = {ids[0], ids[7], ids[50]}
    held = {label[ids.index(f)] for f in seeds}
    sub = reach_components(topo, seeds)
    assert sub.femtocells == tuple(f for k, f in enumerate(ids) if label[k] in held)
    assert all(type(f) is int for f in sub.femtocells)
    rows = [topo.index_of(f) for f in sub.femtocells]
    assert sub.positions.tolist() == topo.positions[rows].tolist()
    for name in ("macro_radius_m", "femto_radius_m", "macro_sites", "neighbor_threshold_m",
                 "macro_ue_walls", "inter_femto_walls"):
        assert getattr(sub, name) == getattr(topo, name), name
    for f in sub.femtocells:  # the reach is 60 m
        got, want = sub.row(f), topo.row(f)
        assert [sub.femtocells[k] for k in got[0]] == [topo.femtocells[k] for k in want[0]]
        assert got[1] == want[1]
        assert neighbors_of(sub, f) == neighbors_of(topo, f)
    # the rows sliced from the parent's table are those of a fresh build
    fresh = topology._neighbor_table(sub.positions, sub._reach)
    for a, b in zip(sub._neighbors(), fresh, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable


def test_a_component_and_its_parent_cannot_grow_each_others_macro_ring():
    # the child used to hold the parent's macro_sites list itself, so an
    # appended site showed in both and in every sir(..., macro_tiers="all")
    topo = place_femtocells(seed=1, count=20)
    child = reach_components(topo, {REF})
    plan = build_plan("shared", child)
    ue = (topo.position(REF)[0] + 2.0, topo.position(REF)[1])
    before = _hex(sir(child, plan, ue, REF, macro_tiers="all"))
    for t in (topo, child):
        with pytest.raises(AttributeError):
            t.macro_sites.append((5.0, 5.0))
        assert len(t.macro_sites) == 7
    assert _hex(sir(child, plan, ue, REF, macro_tiers="all")) == before


def test_reach_components_of_nothing_and_of_an_unknown_id():
    topo = place_femtocells(seed=1, count=20)
    assert reach_components(topo, ()).femtocells == ()
    with pytest.raises(UnknownSiteError):
        reach_components(topo, {0, 99})


def test_a_closed_fap_stays_out_of_a_list_built_on_a_reach_component():
    # FAPs 0-2 form one component and FAP 3 another; FAP 1 is closed
    topo = CellTopology(1000.0, 10.0, [(0.0, 0.0)],
                        [0, 1, 2, 3], [(0.0, 0.0), (15.0, 0.0), (0.0, 15.0), (500.0, 0.0)],
                        closed_access={1, 3})
    child = reach_components(topo, {0})
    assert child.femtocells == (0, 1, 2)
    assert 1 in child.closed_access
    plan = build_plan("dynamic-reuse", child)
    scan = RssiScan({1: -60.0, 2: -60.0}, serving=0)
    assert build_list_from_femto(scan, plan, child, 0, ue_xy=(5.0, 0.0)).entries == [2]
    assert build_list_from_femto(scan, plan, child, 0, ue_xy=(5.0, 0.0),
                                 access={1: True}).entries != [2]


def _assert_restricted_plans_match(topo, rng):
    """Every restricted plan and SIR report against the whole topology's,
    for the reference FAP and a user at the fig4 measurement range."""
    union = {REF} | neighbors_of(topo, REF)
    local = reach_components(topo, union)
    assert union <= set(local.femtocells)
    assert neighbors_of(local, REF) == neighbors_of(topo, REF)
    fx, fy = topo.position(REF)
    ang = 2.0 * math.pi * rng.random()
    ue = (fx + 5.0 * math.cos(ang), fy + 5.0 * math.sin(ang))
    for scheme in ("dedicated", "shared", "static-reuse", "dynamic-reuse"):
        full = build_plan(scheme, topo, seed=3)
        # static reuse is built on the whole topology; sir still reads `local`
        part = full if scheme == "static-reuse" else build_plan(scheme, local, seed=3)
        if part is not full:
            assert tuple(part.femto_band) == local.femtocells
        for f in local.femtocells:
            assert part.femto_band[f] == full.femto_band[f], (scheme, f)
            assert part.radius_of.get(f) == full.radius_of.get(f), (scheme, f)
        assert part.band_for_link(REF, ue, local) == full.band_for_link(REF, ue, topo)
        for tiers in ("reference", "all"):
            assert _hex(sir(local, part, ue, REF, macro_tiers=tiers)) == \
                _hex(sir(topo, full, ue, REF, macro_tiers=tiers)), (scheme, tiers)
    return local, part


@pytest.mark.parametrize("count", [60, 100, 300, 600, 1000])
@pytest.mark.parametrize("seed", [1, 7, 12])
def test_restricted_plans_match_at_the_default_geometry(count, seed):
    topo = place_femtocells(seed, count)
    local, dynamic = _assert_restricted_plans_match(topo, np.random.default_rng(seed))
    if count == 1000:
        # the dense case: a strict subset whose dynamic plan shrinks cells,
        # so shrunk radii are compared too
        assert len(local.femtocells) < count and dynamic.radius_of


def test_restricted_plans_match_with_a_threshold_above_the_reach():
    macro = MacroGeometry(neighbor_threshold_m=90.0)
    outside = 0
    for seed in range(1, 6):
        topo = place_femtocells(seed, 1000, macro=macro)
        own = set(reach_components(topo, {REF}).femtocells)
        # the table's reach covers the threshold, so the reference FAP's own
        # component holds every neighbor that sir reads
        outside += len(neighbors_of(topo, REF) - own)
        _assert_restricted_plans_match(topo, np.random.default_rng(seed))
    assert outside == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_restricted_plans_match_with_a_wider_femto_radius(seed):
    macro = MacroGeometry(femto_radius_m=15.0)
    for count in (300, 1000):
        topo = place_femtocells(seed, count, macro=macro)
        _, dynamic = _assert_restricted_plans_match(topo, np.random.default_rng(seed))
    assert dynamic.radius_of  # at 1000 wide cells, so shrunk radii are compared
