"""The vectorized distance queries against scalar brute-force references.

Topologies use shuffled, non-contiguous ids, so a query that confused a
row of `CellTopology.distances_to` with a femtocell id would fail here."""

import numpy as np
import pytest

from oracles import brute_interferers, brute_neighbors, pairwise_edge_conflicts, static_reuse_labels

from femtonet.spectrum import build_plan, plan_from_text, plan_to_text
from femtonet.topology import CellTopology, FemtoSite, neighbors_of

EDGE_LABELS = ("Bm3", "B4", "B5", "B1", "B2", "B3")


def _random_topo(seed, count, side_m):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(3 * count)[:count]
    xy = rng.uniform(0.0, side_m, size=(count, 2))
    return CellTopology(
        macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
        femtocells=[FemtoSite(int(i), (float(x), float(y))) for i, (x, y) in zip(ids, xy)])


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
