"""The vectorized distance queries against scalar brute-force references.

Topologies use shuffled, non-contiguous ids, so a query that confused a
row of `CellTopology.distances_to` with a femtocell id would fail here."""

import hashlib

import numpy as np
import pytest

from oracles import brute_interferers, brute_neighbors, pairwise_edge_conflicts, static_reuse_labels

from femtonet.spectrum import build_plan, plan_from_text, plan_to_text
from femtonet.topology import (
    INTERFERENCE_RADIUS_SCALE,
    CellTopology,
    FemtoSite,
    UnknownSiteError,
    neighbors_of,
    place_femtocells,
)

EDGE_LABELS = ("Bm3", "B4", "B5", "B1", "B2", "B3")


def _random_topo(seed, count, side_m, low_m=0.0):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(3 * count)[:count]
    xy = rng.uniform(low_m, side_m, size=(count, 2))
    return _topo_at(xy, ids)


def _topo_at(xy, ids=None):
    ids = range(len(xy)) if ids is None else ids
    return CellTopology(
        macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
        femtocells=[FemtoSite(int(i), (float(x), float(y))) for i, (x, y) in zip(ids, xy)])


REACH = INTERFERENCE_RADIUS_SCALE * (10.0 + 10.0)


def _assert_near_matches_rows(topo, radii=(0.0, 20.0, 45.5, REACH)):
    """`near` against a distance row, for every FAP at each radius and at
    each of its neighbor distances up to the reach: the same indices in
    femtocells order, and the same distances to the last bit."""
    for k, f in enumerate(topo.femtocells):
        row = topo.distances_to(f.position)
        for radius in {*radii, *row[row <= REACH].tolist()}:
            expected = np.flatnonzero(row <= radius)
            expected = expected[expected != k]
            idx, dist = topo.near(f.id, radius)
            assert idx.tolist() == expected.tolist(), (f.id, radius)
            assert [d.hex() for d in dist.tolist()] == [d.hex() for d in row[expected].tolist()]


def _scramble_edges(plan, seed):
    """Random edge labels, so that edge_conflicts has conflicts to find."""
    rng = np.random.default_rng(seed)
    for a in plan.femto_assignment.values():
        a.edge_label = EDGE_LABELS[int(rng.integers(len(EDGE_LABELS)))]


def _assert_matches_oracles(plan, topo):
    for f in topo.femto_ids:
        assert plan.interferers(topo, f) == brute_interferers(plan, topo, f), f
    assert plan.edge_conflicts(topo) == pairwise_edge_conflicts(plan, topo)


@pytest.mark.parametrize("seed", range(4))
def test_neighbors_of_matches_scalar_scan(seed):
    topo = _random_topo(seed, 150, 300.0)
    for f in topo.femto_ids:
        assert neighbors_of(topo, f) == brute_neighbors(topo, f)


@pytest.mark.parametrize("seed", range(4))
def test_static_reuse_matches_scalar_loop(seed):
    topo = _random_topo(seed, 200, 250.0)
    plan = build_plan("static-reuse", topo, seed=seed)
    expected = static_reuse_labels(topo, seed)
    assert {f: a.center_label for f, a in plan.femto_assignment.items()} == expected
    assert list(plan.femto_assignment) == topo.femto_ids
    _scramble_edges(plan, seed)
    plan.scheme = "dynamic-reuse"  # edge_conflicts reads dynamic plans only
    _assert_matches_oracles(plan, topo)


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


@pytest.mark.parametrize("seed", range(4))
def test_loaded_plan_with_radius_above_nominal_matches_oracles(seed):
    topo = _random_topo(seed, 150, 300.0)
    text = plan_to_text(build_plan("dynamic-reuse", topo))
    big = topo.femto_ids[:5]
    text += "".join(f"radius.{f} = 25.0\n" for f in big)
    plan = plan_from_text(text)
    assert max(plan.radius_of.values()) == 25.0
    # a 25 m cell reaches beyond the nominal 60 m interference range
    assert any(len(brute_interferers(plan, topo, f)) > len(neighbors_of(topo, f))
               for f in big)
    _assert_matches_oracles(plan, topo)
    _scramble_edges(plan, seed)
    _assert_matches_oracles(plan, topo)


@pytest.mark.parametrize("seed", range(3))
def test_neighbor_table_matches_distance_rows(seed):
    _assert_near_matches_rows(_random_topo(seed, 120, 300.0))


def test_neighbor_table_with_negative_coordinates():
    _assert_near_matches_rows(_random_topo(5, 150, 250.0, low_m=-250.0))


def test_neighbor_table_on_cell_boundaries():
    # a lattice at the reach: every pair of grid neighbors exactly R_t apart
    grid = [(REACH * i, REACH * j) for i in range(-2, 3) for j in range(-2, 3)]
    topo = _topo_at(grid)
    _assert_near_matches_rows(topo)
    idx, dist = topo.near(12, REACH)  # the centre (0, 0)
    assert idx.tolist() == [7, 11, 13, 17] and dist.tolist() == [REACH] * 4


def test_pair_exactly_the_reach_apart():
    # a 3-4-5 triangle scaled to the reach, so the distance is exact
    topo = _topo_at([(-0.6 * REACH / 2, 0.0), (0.6 * REACH / 2, 0.8 * REACH)], ids=[9, 4])
    assert topo.distances_to(topo.site(9).position)[1] == REACH
    for f, other in ((9, 1), (4, 0)):
        idx, dist = topo.near(f, REACH)
        assert idx.tolist() == [other] and dist.tolist() == [REACH]
        assert topo.near(f, np.nextafter(REACH, 0.0))[0].size == 0


def test_near_in_empty_and_single_fap_topologies():
    empty = _topo_at([])
    with pytest.raises(UnknownSiteError):
        empty.near(0, REACH)
    single = _topo_at([(3.0, -4.0)], ids=[7])
    for radius in (0.0, REACH, 2 * REACH):
        idx, dist = single.near(7, radius)
        assert idx.size == 0 and dist.size == 0
    with pytest.raises(UnknownSiteError):
        single.near(8, REACH)


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


def test_radius_above_the_reach_reads_the_distance_row(rows):
    topo = _random_topo(2, 150, 300.0)
    for f in topo.femto_ids[:10]:
        topo.near(f, REACH)
    assert rows == []
    _assert_near_matches_rows(topo, radii=(REACH + 1e-9, 75.0, 140.0))
    assert len(rows) > 0


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
