"""The vectorized distance queries against scalar brute-force references.

Topologies use shuffled, non-contiguous ids, so a query that confused a
row of `CellTopology.distances_to` with a femtocell id would fail here."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_interferers,
    brute_neighbors,
    pairwise_edge_conflicts,
    plan_to_text,
    scalar_assign_static,
    static_reuse_labels,
)

from femtonet import topology
from femtonet.neighborlist import build_list_from_femto, scan_from_geometry
from femtonet.spectrum import build_plan
from femtonet.topology import (
    INTERFERENCE_RADIUS_SCALE,
    CellTopology,
    MacroGeometry,
    UnknownSiteError,
    neighbors_of,
    place_femtocells,
)

EDGE_LABELS = ("Bm3", "B4", "B5", "B1", "B2", "B3")


def _random_topo(seed, count, side_m, low_m=0.0, **kw):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(3 * count)[:count]
    xy = rng.uniform(low_m, side_m, size=(count, 2))
    return _topo_at(xy, ids, **kw)


def _topo_at(xy, ids=None, **kw):
    ids = range(len(xy)) if ids is None else ids
    return CellTopology(
        macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
        femtocells=list(ids), positions=xy, **kw)


REACH = INTERFERENCE_RADIUS_SCALE * (10.0 + 10.0)


def _assert_rows_match_distances(topo, reach=REACH):
    """`row` against a distance row, for every FAP: the indices in
    femtocells order of every other FAP within the reach, and the same
    distances to the last bit."""
    for k, f in enumerate(topo.femtocells):
        row = topo.distances_to(topo.positions[k])
        expected = np.flatnonzero(row <= reach)
        expected = expected[expected != k]
        idx, dist = topo.row(f)
        assert idx == expected.tolist(), f
        assert [d.hex() for d in dist] == [d.hex() for d in row[expected].tolist()]


def _scramble_edges(plan, seed):
    """Random edge labels, so that edge_conflicts has conflicts to find."""
    rng = np.random.default_rng(seed)
    for f in plan.femto_band:
        plan.femto_band[f] = EDGE_LABELS[int(rng.integers(len(EDGE_LABELS)))]


def _assert_matches_oracles(plan, topo):
    for f in topo.femtocells:
        assert plan.interferers(topo, f) == brute_interferers(plan, topo, f), f
    assert plan.edge_conflicts(topo) == pairwise_edge_conflicts(plan, topo)


@pytest.mark.parametrize("seed", range(4))
def test_neighbors_of_matches_scalar_scan(seed):
    topo = _random_topo(seed, 150, 300.0)
    for f in topo.femtocells:
        assert neighbors_of(topo, f) == brute_neighbors(topo, f)


@pytest.mark.parametrize("threshold", [0.0, 25.0, 60.0, 90.0, 150.0])
def test_neighbors_of_matches_all_pairs_at_each_threshold(threshold):
    # on hand-made and placed topologies, with FAPs 2 m apart at the least
    placed = place_femtocells(int(threshold), 600, MacroGeometry(
        macro_radius_m=400.0, neighbor_threshold_m=threshold))
    for topo in (_random_topo(6, 200, 300.0, neighbor_threshold_m=threshold), placed):
        xy = topo.positions
        for k, f in enumerate(topo.femtocells):
            row = np.hypot(xy[k, 0] - xy[:, 0], xy[k, 1] - xy[:, 1])
            row[k] = np.inf
            want = {topo.femtocells[j] for j in np.flatnonzero(row <= threshold).tolist()}
            assert neighbors_of(topo, f) == want, (threshold, f)


@pytest.mark.parametrize("seed", range(4))
def test_static_reuse_matches_scalar_loop(seed):
    topo = _random_topo(seed, 200, 250.0)
    plan = build_plan("static-reuse", topo, seed=seed)
    expected = static_reuse_labels(topo, seed)
    assert plan.femto_band == expected
    assert tuple(plan.femto_band) == topo.femtocells
    _scramble_edges(plan, seed)
    plan.scheme = "dynamic-reuse"  # edge_conflicts reads dynamic plans only
    _assert_matches_oracles(plan, topo)


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 300),
       side=st.floats(20.0, 600.0), plan_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_static_reuse_matches_scalar_draws(seed, count, side, plan_seed):
    topo = _random_topo(seed, count, side)
    plan = build_plan("static-reuse", topo, seed=plan_seed)
    expected = build_plan("dedicated", topo)  # a fresh plan to fill
    expected.femto_band = {}
    scalar_assign_static(expected, topo, plan_seed)
    assert list(plan.femto_band.items()) == list(expected.femto_band.items())


def _line(step_m, moved=None, count=12):
    """FAPs on a line, `step_m` apart, with descending ids; `moved` maps an
    index to the index of the FAP that it is put 5 m beside."""
    xy = [(step_m * k, 0.0) for k in range(count)]
    for k, beside in (moved or {}).items():
        xy[k] = (xy[beside][0] + 5.0, 0.0)
    return _topo_at(xy, ids=range(100, 100 - count, -1))


@pytest.mark.parametrize("topo, overlapping", [
    (_line(100.0), 0),  # no two coverage discs overlap
    (_line(1.5), 11),  # every disc overlaps every other
    (_line(15.0), 11),  # each disc overlaps the next, a chain
    (_line(100.0, {1: 0}), 1),  # only the second FAP has an earlier overlap
    (_line(100.0, {11: 0}), 1),  # the last FAP overlaps the first
    (_line(100.0, {11: 10}), 1),  # the last FAP overlaps the one before it
])
def test_static_reuse_runs_match_scalar_draws(topo, overlapping):
    reach = 2 * topo.femto_radius_m
    has_earlier = [k for k in range(len(topo.femtocells))
                   if (topo.distances_to(topo.positions[k])[:k] <= reach).any()]
    assert len(has_earlier) == overlapping
    for plan_seed in range(6):
        plan = build_plan("static-reuse", topo, seed=plan_seed)
        expected = build_plan("dedicated", topo)  # a fresh plan to fill
        expected.femto_band = {}
        scalar_assign_static(expected, topo, plan_seed)
        assert list(plan.femto_band.items()) == list(expected.femto_band.items())


@pytest.mark.parametrize("seed", range(4))
def test_dynamic_plan_with_shrunk_radii_matches_oracles(seed):
    topo = _random_topo(seed, 100, 500.0)
    plan = build_plan("dynamic-reuse", topo)
    # some cells shrank, the others keep the nominal radius
    assert 0 < len(plan.radius_of) < 100
    assert max(plan.radius_of.values()) < topo.femto_radius_m
    _assert_matches_oracles(plan, topo)
    _scramble_edges(plan, seed)
    assert plan.edge_conflicts(topo)
    _assert_matches_oracles(plan, topo)


@pytest.mark.parametrize("seed", range(3))
def test_neighbor_table_matches_distance_rows(seed):
    _assert_rows_match_distances(_random_topo(seed, 120, 300.0))


@pytest.mark.parametrize("threshold", [0.0, 60.0, 90.0])
def test_rows_match_distance_rows_however_the_table_was_made(threshold):
    _assert_rows_match_distances(_random_topo(3, 150, 250.0, low_m=-50.0,
                                              neighbor_threshold_m=threshold),
                                 reach=max(REACH, threshold))
    placed = place_femtocells(5, 300)  # its table handed over by placement
    _assert_rows_match_distances(placed)
    _assert_rows_match_distances(topology.reach_components(placed, {0}))
    assert _topo_at(np.zeros((1, 2)), [7]).row(7) == ([], [])
    with pytest.raises(UnknownSiteError):
        placed.row(300)


def test_neighbor_table_with_negative_coordinates():
    _assert_rows_match_distances(_random_topo(5, 150, 250.0, low_m=-250.0))


def test_neighbor_table_on_cell_boundaries():
    # a lattice at the reach: every pair of grid neighbors exactly R_t apart
    grid = [(REACH * i, REACH * j) for i in range(-2, 3) for j in range(-2, 3)]
    topo = _topo_at(grid)
    _assert_rows_match_distances(topo)
    assert topo.row(12) == ([7, 11, 13, 17], [REACH] * 4)  # the centre (0, 0)


def _brute_table(xy, reach):
    """Every pair within `reach`, by measuring all pairs: each point's
    partners ascending, with their distances, in _neighbor_table's CSR
    form."""
    ptr, nbr, dist = [0], [], []
    for k in range(len(xy)):
        row = np.hypot(xy[k, 0] - xy[:, 0], xy[k, 1] - xy[:, 1])
        row[k] = np.inf
        within = np.flatnonzero(row <= reach)
        nbr += within.tolist()
        dist += row[within].tolist()
        ptr.append(len(nbr))
    return ptr, nbr, dist


@st.composite
def clumped_points(draw):
    """Points that stress the cell lists: coincident points, points on a
    shared line, negative coordinates, points on the cell boundaries of a
    grid of the reach, and at times one point 1e7 m out."""
    reach = draw(st.sampled_from([2.0, 60.0]))
    coord = (st.floats(-300.0, 300.0)
             | st.integers(-6, 6).map(lambda i: i * reach)
             | st.integers(-40, 40).map(lambda i: i * 0.25 * reach))
    xy = draw(st.lists(st.tuples(coord, coord), max_size=40))
    if xy:
        # repeat some points and add some on the line through the first two
        xy += draw(st.lists(st.sampled_from(xy), max_size=6))
        (x0, y0), (x1, y1) = xy[0], xy[-1]
        xy += [(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
               for t in draw(st.lists(st.floats(-2.0, 2.0), max_size=6))]
    if draw(st.booleans()):
        xy.insert(draw(st.integers(0, len(xy))),
                  draw(st.sampled_from([(1e7, 0.0), (-1e7, 3.0), (5.0, -1e7)])))
    return np.array(xy, dtype=float).reshape(-1, 2), reach


@settings(max_examples=200, deadline=None)
@given(points=clumped_points())
def test_neighbor_table_matches_all_pairs(points):
    xy, reach = points
    table = topology._neighbor_table(xy, reach)
    ptr, nbr, dist = _brute_table(xy, reach)
    assert table[0].tolist() == ptr
    assert table[1].tolist() == nbr
    assert [d.hex() for d in table[2].tolist()] == [d.hex() for d in dist]
    assert not any(arr.flags.writeable for arr in table)


def _cluster(count, side_m, seed=0):
    return np.random.default_rng(seed).uniform(-side_m / 2, side_m / 2, size=(count, 2))


# (points, reach, whether the grid takes the table of cell starts: at most
# 4n cells), or None where fewer than two points build no grid
OUTLIER = [(1e7, 0.0)]
ACROSS_EDGE = [(-0.3 * REACH, 5.0), (0.7 * REACH, 5.0)]  # exactly REACH apart
GRID_CASES = {
    "dense-cluster": (_cluster(400, 300.0), REACH, True),
    "sparse-spread": (_cluster(12, 2000.0), REACH, False),
    "cluster-and-1e7-m-outlier": (np.concatenate([_cluster(200, 300.0), OUTLIER]), REACH, False),
    "reach-apart-across-a-cell-edge": (ACROSS_EDGE, REACH, True),
    "reach-apart-across-a-cell-edge-and-outlier": (ACROSS_EDGE + OUTLIER, REACH, False),
    "coincident-points": ([(3.0, -4.0)] * 30 + [(3.0, 56.0)] * 3, REACH, True),
    "coincident-points-and-outlier": ([(3.0, -4.0)] * 30 + OUTLIER, REACH, False),
    "coincident-pair": ([(3.0, -4.0)] * 2, REACH, True),
    "n0": (np.zeros((0, 2)), REACH, None),
    "n1": ([(3.0, -4.0)], REACH, None),
    "n2-within-reach": ([(0.0, 0.0), (50.0, 20.0)], REACH, True),
    "n2-beyond-reach": ([(0.0, 0.0), (1000.0, 0.0)], REACH, False),
}


@pytest.mark.parametrize("case", GRID_CASES)
def test_neighbor_table_on_each_grid_path(case):
    """Both ways of finding a cell's points, the table of cell starts and
    the binary search, against all pairs, distances to the last bit."""
    xy, reach, start_table = GRID_CASES[case]
    xy = np.array(xy, dtype=float).reshape(-1, 2)
    if start_table is not None:
        cells = topology._cells(xy, reach)[2]
        assert (cells <= 4 * len(xy)) == start_table, cells
    table = topology._neighbor_table(xy, reach)
    ptr, nbr, dist = _brute_table(xy, reach)
    assert table[0].tolist() == ptr
    assert table[1].tolist() == nbr
    assert [d.hex() for d in table[2].tolist()] == [d.hex() for d in dist]
    if case.startswith("reach-apart"):
        key = topology._cells(xy, reach)[0]
        assert key[0] != key[1] and table[2][:2].tolist() == [REACH, REACH]


def _assert_earlier_matches_rows(topo, radii=(0.0, 20.0, 45.5, REACH)):
    """`earlier_within` against distance rows, at each radius and at about
    ten pair distances up to the largest radius: each FAP that has an
    earlier FAP within the radius, in order, with the indices of those
    FAPs."""
    rows = [topo.distances_to(xy)[:k] for k, xy in enumerate(topo.positions)]
    pairs = sorted(d for row in rows for d in row[row <= max(radii)].tolist())
    for radius in sorted({*radii, *pairs[::len(pairs) // 10 + 1]}):
        expected = [(k, earlier.tolist()) for k, row in enumerate(rows)
                    if (earlier := np.flatnonzero(row <= radius)).size]
        assert topo.earlier_within(radius) == expected, radius


@pytest.mark.parametrize("seed", range(3))
def test_earlier_within_matches_distance_rows(seed):
    _assert_earlier_matches_rows(_random_topo(seed, 150, 250.0, low_m=-50.0))


def test_earlier_within_on_cell_boundaries():
    # the lattice at the reach: the boundary is inclusive
    topo = _topo_at([(REACH * i, REACH * j) for i in range(-2, 3) for j in range(-2, 3)])
    _assert_earlier_matches_rows(topo)
    assert topo.earlier_within(np.nextafter(REACH, 0.0)) == []
    assert dict(topo.earlier_within(REACH))[12] == [7, 11]


def test_earlier_within_in_empty_and_single_fap_topologies():
    for topo in (_topo_at([]), _topo_at([(3.0, -4.0)], ids=[7])):
        _assert_earlier_matches_rows(topo)
        assert topo.earlier_within(REACH) == []


def test_earlier_within_stops_at_the_reach():
    topo = _random_topo(1, 20, 100.0)
    with pytest.raises(ValueError, match="reach"):
        topo.earlier_within(np.nextafter(REACH, np.inf))


def test_pair_exactly_the_reach_apart():
    # a 3-4-5 triangle scaled to the reach, so the distance is exact
    xy = [(-0.6 * REACH / 2, 0.0), (0.6 * REACH / 2, 0.8 * REACH)]
    topo = _topo_at(xy, ids=[9, 4], neighbor_threshold_m=REACH)
    assert topo.distances_to(topo.position(9))[1] == REACH
    for f, other in ((9, 1), (4, 0)):
        assert topo.row(f) == ([other], [REACH])
        assert neighbors_of(topo, f) == {topo.femtocells[other]}
    assert topo.earlier_within(REACH) == [(1, [0])]
    assert topo.earlier_within(np.nextafter(REACH, 0.0)) == []
    closer = _topo_at(xy, ids=[9, 4], neighbor_threshold_m=np.nextafter(REACH, 0.0))
    assert neighbors_of(closer, 9) == neighbors_of(closer, 4) == frozenset()


def test_row_and_neighbors_of_in_empty_and_single_fap_topologies():
    empty = _topo_at([])
    for query in (empty.row, lambda f: neighbors_of(empty, f)):
        with pytest.raises(UnknownSiteError):
            query(0)
    for threshold in (0.0, REACH):
        single = _topo_at([(3.0, -4.0)], ids=[7], neighbor_threshold_m=threshold)
        assert single.row(7) == ([], []) and neighbors_of(single, 7) == frozenset()
        with pytest.raises(ValueError, match="reach"):
            single.earlier_within(2 * REACH)
        for query in (single.row, lambda f: neighbors_of(single, f)):
            with pytest.raises(UnknownSiteError):
                query(8)


@pytest.fixture
def rows(monkeypatch):
    """The points of every `distances_to` call made during the test."""
    seen = []
    query = CellTopology.distances_to

    def counted(self, xy):
        seen.append(xy)
        return query(self, xy)

    monkeypatch.setattr(CellTopology, "distances_to", counted)
    return seen


def test_a_radius_above_the_reach_raises(rows):
    topo = _random_topo(2, 150, 300.0)
    topo.earlier_within(REACH)
    for radius in (np.nextafter(REACH, np.inf), REACH + 1e-9, 75.0, 140.0):
        with pytest.raises(ValueError, match="exceeds the neighbor table's reach of 60.0 m"):
            topo.earlier_within(radius)
    assert rows == []


@pytest.mark.parametrize("threshold", [90.0, 150.0])
def test_a_neighbor_threshold_above_the_interference_range_widens_the_table(rows, threshold):
    topo = _random_topo(2, 150, 300.0, neighbor_threshold_m=threshold)
    for f in topo.femtocells:
        topo.row(f)
        neighbors_of(topo, f)
    topo.earlier_within(threshold)
    assert rows == []
    _assert_rows_match_distances(topo, reach=threshold)
    _assert_earlier_matches_rows(topo, radii=(0.0, REACH, REACH + 1e-9, 75.0, threshold))
    for f in topo.femtocells:
        assert neighbors_of(topo, f) == brute_neighbors(topo, f)
    with pytest.raises(ValueError, match=f"reach of {threshold!r} m"):
        topo.earlier_within(np.nextafter(threshold, np.inf))


def test_building_reuse_plans_makes_no_distance_row(rows):
    topo = place_femtocells(7, 1000)
    static = build_plan("static-reuse", topo)
    dynamic = build_plan("dynamic-reuse", topo)
    assert rows == []
    # branch counts and plan texts as recorded when every query read a row
    assert dynamic.branch_counts == {"0": 283, "1": 272, "2": 160, "2-independent": 96,
                                     "3": 189, "shrink": 107}
    sha = {scheme: hashlib.sha256(plan_to_text(plan).encode()).hexdigest()
           for scheme, plan in (("static", static), ("dynamic", dynamic))}
    assert sha == {
        "static": "d9187bb899a5e6a3c8c0dbe665c8c1a295a55cc01e9f940d475811e6a579b33d",
        "dynamic": "ee6ad9ef2bf91ec53195cf97f45be3e8107164d83dfb5678246613e03a28a3a0",
    }


def test_a_scan_and_a_femto_list_read_one_distance_row(rows):
    # the scan reads the UE's row; the list's hidden candidates are the
    # serving FAP's and the strong entries' coordination hops, from the table
    topo = place_femtocells(7, 1000)
    plan = build_plan("dynamic-reuse", topo)
    rows.clear()
    x, y = topo.position(0)
    ue = (x + 10.0, y)
    scan = scan_from_geometry(topo, ue, 0, obstructed=set(topo.femtocells[1:]))
    out = build_list_from_femto(scan, plan, topo, 0, ue_xy=ue)
    assert rows == [ue]
    assert out.m_hidden > 0
