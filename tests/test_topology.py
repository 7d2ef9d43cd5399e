import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtonet.topology import (
    CellTopology,
    FemtoSite,
    MacroGeometry,
    PlacementInfeasibleError,
    UnknownSiteError,
    distance,
    neighbors_of,
    place_femtocells,
)


def test_empty_placement():
    topo = place_femtocells(seed=7, count=0)
    assert topo.femtocells == []
    assert neighbors_of(topo, 0) if False else True
    with pytest.raises(UnknownSiteError):
        topo.site(0)


def test_dense_placement_within_macro_radius():
    # Table 4.3 geometry: 1 km macrocell, dense threshold 1000 femtocells
    topo = place_femtocells(seed=7, count=1000)
    assert len(topo.femtocells) == 1000
    for f in topo.femtocells:
        assert distance(topo, (0.0, 0.0), f.position) <= 1000.0 + 1e-9


def test_placement_deterministic():
    a = place_femtocells(seed=7, count=200)
    b = place_femtocells(seed=7, count=200)
    assert [f.position for f in a.femtocells] == [f.position for f in b.femtocells]
    c = place_femtocells(seed=8, count=200)
    assert [f.position for f in a.femtocells] != [f.position for f in c.femtocells]


def test_reference_fap_pinned():
    topo = place_femtocells(seed=3, count=5)
    assert distance(topo, 0, (0.0, 0.0)) == pytest.approx(200.0)


def test_min_separation_respected():
    topo = place_femtocells(seed=11, count=500)
    pos = topo.positions
    d = np.hypot(pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1])
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 2.0


def test_placement_infeasible():
    with pytest.raises(PlacementInfeasibleError):
        place_femtocells(seed=0, count=50, macro=MacroGeometry(
            macro_radius_m=20.0, femto_radius_m=1.0, min_separation_m=10.0))


def _two_fap_topo(gap_m):
    return CellTopology(
        macro_radius_m=1000.0,
        femto_radius_m=10.0,
        macro_sites=[(0.0, 0.0)],
        femtocells=[
            FemtoSite(0, (0.0, 0.0)),
            FemtoSite(1, (gap_m, 0.0)),
        ],
    )


def test_neighbor_boundary():
    inside = _two_fap_topo(59.0)
    assert neighbors_of(inside, 0) == {1}
    assert neighbors_of(inside, 1) == {0}
    outside = _two_fap_topo(61.0)
    assert neighbors_of(outside, 0) == frozenset()
    assert neighbors_of(outside, 1) == frozenset()


def test_neighbors_unknown_id():
    topo = _two_fap_topo(10.0)
    with pytest.raises(UnknownSiteError):
        neighbors_of(topo, 99)


def test_neighbor_counts_match_brute_force():
    topo = place_femtocells(seed=7, count=1000)
    pos = topo.positions
    d = np.hypot(pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1])
    np.fill_diagonal(d, np.inf)
    brute = (d <= 60.0).sum(axis=1)
    counts = np.array([len(neighbors_of(topo, f.id)) for f in topo.femtocells])
    assert np.array_equal(counts, brute)
    assert counts.mean() == pytest.approx(brute.mean())


def test_neighbor_symmetry_and_irreflexive():
    topo = place_femtocells(seed=21, count=300)
    for f in topo.femtocells:
        ns = neighbors_of(topo, f.id)
        assert f.id not in ns
        for other in ns:
            assert f.id in neighbors_of(topo, other)


def test_distance_pythagorean():
    topo = place_femtocells(seed=1, count=0)
    assert distance(topo, (0.0, 0.0), (3.0, 4.0)) == 5.0
    assert distance(topo, (2.0, -1.0), (2.0, -1.0)) == 0.0


@given(
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
)
@settings(max_examples=200)
def test_distance_matches_independent_arithmetic(a, b):
    topo = place_femtocells(seed=1, count=0)
    got = distance(topo, a, b)
    expected = math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert got == distance(topo, b, a)


def test_walls_default_one_between_femtos():
    topo = _two_fap_topo(10.0)
    assert topo.walls_between(0, 1) == 1
    assert topo.walls_between(0, 0) == 0


def test_first_tier_ring_distance():
    topo = place_femtocells(seed=7, count=1)
    assert len(topo.macro_sites) == 7
    for site in topo.macro_sites[1:]:
        d = math.hypot(*site)
        assert d == pytest.approx(2 * 1000.0 * math.cos(math.pi / 6))


@pytest.mark.parametrize("radius, xy", [
    (0.0, (0.0, 0.0)), (math.nan, (0.0, 0.0)), (10.0, (math.inf, 0.0)), (10.0, (0.0, math.nan)),
])
def test_topology_rejects_a_bad_radius_or_position(radius, xy):
    # the neighbor table bins positions on a grid of side 6 * radius
    with pytest.raises(ValueError):
        CellTopology(macro_radius_m=1000.0, femto_radius_m=radius, macro_sites=[(0.0, 0.0)],
                     femtocells=[FemtoSite(0, xy), FemtoSite(1, (5.0, 5.0))])
