import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fixtures import hidden_fap_fixture
from oracles import scalar_placement

from femtonet import experiments, topology
from femtonet.scenario import apply_overrides, scenario_from_preset
from femtonet.topology import (
    CellTopology,
    FemtoSite,
    MacroGeometry,
    REFERENCE_FAP_DISTANCE,
    PlacementInfeasibleError,
    UnknownSiteError,
    distance,
    neighbors_of,
    place_femtocells,
    reach_components,
)


def test_empty_placement():
    topo = place_femtocells(seed=7, count=0)
    assert topo.femtocells == ()
    with pytest.raises(UnknownSiteError):
        neighbors_of(topo, 0)
    with pytest.raises(UnknownSiteError):
        topo.position(0)
    with pytest.raises(UnknownSiteError):
        topo.site(0)
    assert topo.earlier_within(20.0) == []


def test_dense_placement_within_macro_radius():
    # Table 4.3 geometry: 1 km macrocell, dense threshold 1000 femtocells
    topo = place_femtocells(seed=7, count=1000)
    assert len(topo.femtocells) == 1000
    for xy in topo.positions.tolist():
        assert distance(topo, (0.0, 0.0), tuple(xy)) <= 1000.0 + 1e-9


def test_placement_deterministic():
    a = place_femtocells(seed=7, count=200)
    b = place_femtocells(seed=7, count=200)
    assert a.positions.tolist() == b.positions.tolist()
    c = place_femtocells(seed=8, count=200)
    assert a.positions.tolist() != c.positions.tolist()


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
    with pytest.raises(PlacementInfeasibleError, match="^cannot place 50 FAPs"):
        place_femtocells(seed=0, count=50, macro=MacroGeometry(
            macro_radius_m=200.0, femto_radius_m=1.0, min_separation_m=100.0))


@pytest.mark.parametrize("radius", [20.0, 199.9])
def test_placement_names_a_disc_too_small_for_the_reference_fap(radius):
    macro = MacroGeometry(macro_radius_m=radius, femto_radius_m=1.0)
    with pytest.raises(PlacementInfeasibleError,
                       match=f"^femtocell 0 sits 200.0 m from the BS, outside the {radius} m "
                             "macro disc$"):
        place_femtocells(seed=0, count=1, macro=macro)
    assert place_femtocells(seed=0, count=0, macro=macro).femtocells == ()
    edge = place_femtocells(seed=0, count=5, macro=replace(macro, macro_radius_m=200.0))
    assert edge.positions[0].tolist() == [REFERENCE_FAP_DISTANCE, 0.0]


def _two_fap_topo(gap_m):
    return CellTopology(
        macro_radius_m=1000.0,
        femto_radius_m=10.0,
        macro_sites=[(0.0, 0.0)],
        femtocells=[0, 1],
        positions=[(0.0, 0.0), (gap_m, 0.0)],
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
    counts = np.array([len(neighbors_of(topo, f)) for f in topo.femtocells])
    assert np.array_equal(counts, brute)
    assert counts.mean() == pytest.approx(brute.mean())


def test_neighbor_symmetry_and_irreflexive():
    topo = place_femtocells(seed=21, count=300)
    for f in topo.femtocells:
        ns = neighbors_of(topo, f)
        assert f not in ns
        for other in ns:
            assert f in neighbors_of(topo, other)


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


def test_walls_are_symmetric_for_every_pair_of_the_fixture():
    topo = hidden_fap_fixture()[0]
    ids = topo.femtocells
    for a in ids:
        for b in ids:
            assert topo.walls_between(a, b) == topo.walls_between(b, a)
    assert topo.walls_between(1, 0) == 2 and topo.walls_between(2, 1) == 0
    assert topo.walls_between(3, 0) == topo.inter_femto_walls


@pytest.mark.parametrize("walls", [{(1, 0): 2}, {(1, 1): 0}, {(0, 1): -1}, {(0, 1): 1.5},
                                   # keys that are not pairs
                                   {5: 1}, {(0,): 1}, {(0, 1, 2): 1}, {"01": 1}])
def test_walls_reject_a_descending_or_self_pair_and_a_bad_count(walls):
    with pytest.raises(ValueError, match="walls"):
        CellTopology(macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
                     femtocells=[0, 1], positions=[(0.0, 0.0), (5.0, 5.0)], walls=walls)


def test_walls_closed_access_and_positions_are_read_only():
    xy = np.array([(0.0, 0.0), (5.0, 5.0)])
    topo = CellTopology(macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
                        femtocells=[0, 1], positions=xy, closed_access={1}, walls={(0, 1): 3})
    with pytest.raises(TypeError):
        topo.walls[(0, 1)] = 0
    assert topo.walls_between(1, 0) == 3
    assert topo.closed_access == frozenset({1})
    with pytest.raises(ValueError, match="read-only"):
        topo.positions[0] = (1.0, 1.0)
    # the topology holds its own copy: the caller's array stays writable
    xy[0] = (1.0, 1.0)
    assert topo.positions.tolist() == [[0.0, 0.0], [5.0, 5.0]]
    with pytest.raises(UnknownSiteError):
        topo.walls_between(0, 2)


@pytest.mark.parametrize("as_id", [np.int64, np.intp])
def test_distance_and_lookups_take_numpy_integer_ids(as_id):
    topo = _two_fap_topo(30.0)
    assert distance(topo, as_id(0), (0.0, 40.0)) == 40.0
    assert distance(topo, as_id(0), as_id(1)) == distance(topo, 0, 1) == 30.0
    assert topo.position(as_id(1)) == topo.position(1) == (30.0, 0.0)
    assert topo.site(as_id(1)) == topo.site(1)
    assert topo.walls_between(as_id(0), as_id(1)) == topo.walls_between(0, 1)
    with pytest.raises(UnknownSiteError):
        distance(topo, as_id(5), (0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        distance(topo, as_id(0), (math.nan, 0.0))


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
                     femtocells=[0, 1], positions=[xy, (5.0, 5.0)])


@pytest.mark.parametrize("field", ["min_separation_m", "neighbor_threshold_m"])
@pytest.mark.parametrize("value", [-1.0, -5.0, math.nan, math.inf, -math.inf])
def test_macro_geometry_rejects_a_bad_separation_or_threshold(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0, got"):
        MacroGeometry(**{field: value})


@pytest.mark.parametrize("field", ["macro_ue_walls", "inter_femto_walls"])
@pytest.mark.parametrize("value", [-1, -3, 1.5, math.nan])
def test_macro_geometry_rejects_a_bad_wall_count(field, value):
    # -3 walls would be a 60 dB gain on every path through them
    with pytest.raises(ValueError, match=f"^{field} must be a whole number >= 0, got"):
        MacroGeometry(**{field: value})
    MacroGeometry(**{field: 0})


@pytest.mark.parametrize("field", ["macro_ue_walls", "inter_femto_walls"])
@pytest.mark.parametrize("value", [-1, 1.5, math.nan])
def test_topology_names_a_bad_wall_count(field, value):
    # only a later sir call used to refuse these, and walls_between handed a
    # bad inter_femto_walls to the neighbor list unchecked
    kw = dict(macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
              femtocells=[0, 1], positions=[(0.0, 0.0), (5.0, 5.0)])
    with pytest.raises(ValueError, match=rf"^{field} must be a whole number >= 0, got {value!r}$"):
        CellTopology(**kw, **{field: value})
    whole = getattr(CellTopology(**kw, **{field: 2.0}), field)
    assert whole == 2 and type(whole) is int


@pytest.mark.parametrize("kw", [dict(macro_radius_m=math.inf), dict(macro_radius_m=0.0),
                                dict(femto_radius_m=math.nan), dict(femto_radius_m=2000.0)])
def test_macro_geometry_rejects_bad_radii(kw):
    # an infinite macro radius used to pass here and fail in placement
    message = r"^require a finite macro_radius_m > femto_radius_m > 0$"
    with pytest.raises(ValueError, match=message):
        MacroGeometry(**kw)


def test_macro_geometry_accepts_zero_separation_and_threshold():
    macro = MacroGeometry(min_separation_m=0.0, neighbor_threshold_m=0.0)
    assert len(place_femtocells(seed=3, count=50, macro=macro).femtocells) == 50


def _assert_places_as_scalar_loop(seed, count, macro):
    """Either the same positions, bit for bit, or the same error."""
    try:
        expected = scalar_placement(seed, count, macro)
    except PlacementInfeasibleError as exc:
        with pytest.raises(PlacementInfeasibleError) as got:
            place_femtocells(seed, count, macro)
        assert str(got.value) == str(exc)
        return str(exc)
    assert place_femtocells(seed, count, macro).positions.tolist() == expected.tolist()
    return None


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 300),
       radius=st.floats(REFERENCE_FAP_DISTANCE, 3000.0))
@settings(max_examples=60, deadline=None)
def test_placement_without_separation_matches_scalar_loop(seed, count, radius):
    macro = MacroGeometry(macro_radius_m=radius, min_separation_m=0.0)
    assert _assert_places_as_scalar_loop(seed, count, macro) is None


@given(seed=st.integers(0, 2**32 - 1), fill=st.floats(0.05, 1.0),
       radius=st.floats(200.0, 800.0), sep=st.floats(20.0, 107.0))
@settings(max_examples=60, deadline=None)
def test_placement_in_a_tight_disc_matches_scalar_loop(seed, fill, radius, sep):
    # up to the packing bound, so most candidates late in a run are rejected
    capacity = 0.25 * (2.0 * radius / sep + 1.0) ** 2
    macro = MacroGeometry(macro_radius_m=radius, femto_radius_m=1.0, min_separation_m=sep)
    _assert_places_as_scalar_loop(seed, max(1, int(fill * capacity)), macro)


class _PeriodicRng:
    """A generator whose uniform stream repeats `values` forever."""

    def __init__(self, values):
        self._values = values
        self._at = 0

    def random(self, size=None):
        out = []
        for _ in range(1 if size is None else size):
            out.append(self._values[self._at % len(self._values)])
            self._at += 1
        return out[0] if size is None else np.array(out)


@given(seed=st.integers(0, 2**32 - 1), period=st.sampled_from([2, 6, 10, 22]),
       count=st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_placement_gives_up_after_max_attempts_as_scalar_loop(seed, period, count):
    # The packing bound keeps every accepted count well below the jamming
    # limit of random sequential placement, so real draws never run out of
    # attempts.  A stream that repeats its candidates does: once every
    # distinct candidate was tried, each further one is rejected.
    macro = MacroGeometry(min_separation_m=2.0)
    values = np.random.default_rng(seed).random(period).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda _: _PeriodicRng(values))
        message = _assert_places_as_scalar_loop(seed, count, macro)
    if count > period // 2 + 1:
        assert message.endswith(f"/{count} FAPs after {200 * count} attempts")


def _at(x):
    """The (u, v) draw pair of a candidate at (x, 0) in the default 1000 m
    disc; v = 0.5 puts it at (-x, ~0)."""
    return ((abs(x) / 1000.0) ** 2, 0.0 if x >= 0 else 0.5)


def _place_from(candidates, count):
    """Place `count` FAPs at the default geometry (2 m separation) from a
    stream of the given candidates, checked against the scalar loop; the
    positions, or the error message, and the number of uniforms drawn."""
    values = [u for pair in candidates for u in pair]
    made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng",
                   lambda _: made.append(_PeriodicRng(values)) or made[-1])
        message = _assert_places_as_scalar_loop(0, count, MacroGeometry())
        if message is None:
            return place_femtocells(0, count).positions, made[-1]._at
    return message, made[-1]._at


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("count", [0, 1, 2])
def test_smallest_placements_match_scalar_loop(seed, count):
    assert _assert_places_as_scalar_loop(seed, count, MacroGeometry()) is None


@pytest.mark.parametrize("block, kept", [
    # A-B-C in one block: B is close to A, C only to B, so C stays
    ((500.0, 501.5, 503.0), (500.0, 503.0)),
    # B is close to the placed reference FAP, so it rejects nothing
    ((500.0, 201.5, 203.0), (500.0, 203.0)),
    # C is close to both A and B: the accepted A rejects it
    ((500.0, 501.5, 500.75), (500.0,)),
    # nothing is close: the whole block stays
    ((500.0, 600.0, -700.0), (500.0, 600.0, -700.0)),
])
def test_placement_settles_a_block_in_draw_order(block, kept):
    # the first block holds count - 1 = 3 candidates; the far ones after it
    # fill the FAPs that the block left
    fill = (-600.0, -800.0, 900.0)[:3 - len(kept)]
    positions, _ = _place_from([_at(x) for x in (*block, *fill)], 4)
    assert positions[:, 0].round(6).tolist() == [200.0, *kept, *fill]


@pytest.mark.parametrize("f2, message", [
    # the budget of 800 ends with candidate 800, which is tried and
    # accepted ...
    (800, "placed only 3/4 FAPs after 800 attempts"),
    # ... while candidate 801 is never tried
    (801, "placed only 2/4 FAPs after 800 attempts"),
])
def test_placement_budget_ends_inside_a_block(f2, message):
    # Attempts 1-11 are the first draw round, whose far F1 is the only FAP
    # it places; every later round holds two candidates plus the slack.
    # Every candidate but F1 and F2 repeats the reference FAP and is rejected.
    far = {1: _at(500.0), f2: _at(-600.0)}
    got, drawn = _place_from([far.get(k, _at(200.0)) for k in range(1, 802)], 4)
    assert got == message
    assert drawn == 2 * 800  # the last round was cut to the budget before drawing


def test_placement_fills_on_the_last_attempt():
    # F2 at attempt 798 leaves one FAP to place, so the last blocks hold one
    # candidate each and the far F3 is tried as attempt 800 of 800
    far = {1: _at(500.0), 798: _at(-600.0), 800: _at(900.0)}
    positions, _ = _place_from([far.get(k, _at(200.0)) for k in range(1, 801)], 4)
    assert positions[:, 0].round(6).tolist() == [200.0, 500.0, -600.0, 900.0]


def _assert_table_is_a_fresh_build(topo):
    """The table that a placement handed over, bit for bit the one that
    the topology would build from its positions, and read-only."""
    got = topo._neighbors()
    want = topology._neighbor_table(topo.positions, topo._reach)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable


@pytest.mark.parametrize("macro", [
    MacroGeometry(min_separation_m=0.0),
    MacroGeometry(),
    # rounds at the separation, cut to the 60 m reach: no pair is left
    MacroGeometry(min_separation_m=70.0),
    # rounds at the 90 m reach, with every pair at least 70 m apart
    MacroGeometry(min_separation_m=70.0, neighbor_threshold_m=90.0),
], ids=["sep0", "sep2", "sep70", "sep70-reach90"])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 60, 100, 200, 300, 600, 1000])
def test_a_placement_hands_over_its_own_neighbor_table(macro, count):
    for seed in (1, 2):
        try:
            topo = place_femtocells(seed, count, macro)
        except PlacementInfeasibleError:
            assert count > 0.25 * (2000.0 / macro.min_separation_m + 1.0) ** 2
            return
        _assert_table_is_a_fresh_build(topo)


def test_a_placement_that_fills_on_its_last_attempt_hands_over_its_table():
    # the last round is cut to the budget, and its last candidate places
    # the last FAP
    far = {1: _at(500.0), 798: _at(-600.0), 800: _at(900.0)}
    values = [u for k in range(1, 801) for u in far.get(k, _at(200.0))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda _: _PeriodicRng(values))
        topo = place_femtocells(0, 4)
    assert topo.positions[:, 0].round(6).tolist() == [200.0, 500.0, -600.0, 900.0]
    _assert_table_is_a_fresh_build(topo)


def test_a_pair_the_separation_apart_leaves_a_table_cut_to_the_reach():
    # the candidate 70 m from the reference FAP is accepted (it is not
    # closer than the separation), and the round's 70 m table holds the
    # pair, but the topology's 60 m table does not
    values = list(_at(270.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda _: _PeriodicRng(values))
        topo = place_femtocells(0, 2, MacroGeometry(min_separation_m=70.0))
    assert topo.positions.tolist() == [[200.0, 0.0], [270.0, 0.0]]
    _assert_table_is_a_fresh_build(topo)
    assert topo._neighbors()[1].size == 0


class _CountingRng:
    """A generator that records the size of each `random` draw."""

    def __init__(self, gen, sizes):
        self._gen, self._sizes = gen, sizes

    def random(self, size=None):
        self._sizes.append(size)
        return self._gen.random(size)


def test_a_fig4_trial_builds_one_table_per_placement_round(monkeypatch):
    # every table is built by a placement, one per draw round: none by the
    # topology itself, by reach_components or by the plans and sir
    builds, rounds, placing = [], [], []
    real_table, real_rng = topology._neighbor_table, np.random.default_rng
    real_place = experiments.place_femtocells

    def counting_table(pos, reach):
        builds.append(bool(placing))
        return real_table(pos, reach)

    def counting_place(*args, **kwargs):
        placing.append(True)
        try:
            return real_place(*args, **kwargs)
        finally:
            placing.pop()

    monkeypatch.setattr(topology, "_neighbor_table", counting_table)
    monkeypatch.setattr(experiments, "place_femtocells", counting_place)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _CountingRng(real_rng(seed), rounds) if placing
                        else real_rng(seed))
    sc = apply_overrides(scenario_from_preset("table-4.3"),
                         ["trials = 3", "sweep.femto_counts = 60, 300, 1000"])
    for name in ("fig4-outage", "fig4-throughput"):
        experiments._radio_sweep.cache_clear()  # so each run sweeps
        experiments.run_experiment(name, sc)
    assert len(rounds) >= 2 * 3 * 3
    assert builds == [True] * len(rounds)


@pytest.mark.parametrize("seed", [7, 11])
def test_default_placement_matches_scalar_loop(seed):
    assert _assert_places_as_scalar_loop(seed, 1000, MacroGeometry()) is None


@pytest.mark.parametrize("ids, xy", [
    ([0, 1], [(0.0, 0.0)]),  # fewer rows than ids
    ([0, 1], [(0.0, 0.0), (5.0, 5.0), (9.0, 9.0)]),  # more rows than ids
    ([0, 1, 2], [(0.0, 5.0, 9.0), (0.0, 5.0, 9.0)]),  # 2 x n, not n x 2
    ([], [(0.0, 0.0)]),
])
def test_topology_rejects_positions_of_the_wrong_shape(ids, xy):
    with pytest.raises(ValueError, match="positions must be a"):
        CellTopology(macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
                     femtocells=ids, positions=xy)


def test_ids_are_python_ints_and_site_reads_the_columns():
    topo = CellTopology(macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
                        femtocells=np.array([7, 3]), positions=[(1.0, 2.0), (3.0, 4.0)])
    assert topo.femtocells == (7, 3) and all(type(f) is int for f in topo.femtocells)
    assert topo.position(7) == (1.0, 2.0) and topo.position(3) == (3.0, 4.0)
    assert all(type(c) is float for c in topo.position(3))
    assert topo.site(3) == FemtoSite(3, (3.0, 4.0))
    assert type(topo.site(3).id) is int


@pytest.mark.parametrize("count", [2.5, math.nan, math.inf, -1, -1.0])
def test_placement_names_a_count_that_is_not_whole(count):
    # a fractional or NaN count failed with an unnamed TypeError from np.empty
    with pytest.raises(ValueError, match=rf"^count must be a whole number >= 0, got {count!r}$"):
        place_femtocells(1, count)


def test_placement_takes_a_whole_float_count_as_an_int():
    topo = place_femtocells(1, 4.0)
    assert topo.femtocells == (0, 1, 2, 3) and all(type(f) is int for f in topo.femtocells)
    assert topo.positions.tolist() == place_femtocells(1, 4).positions.tolist()


def test_femtocells_cannot_grow_apart_from_the_positions():
    topo = place_femtocells(1, 5)
    with pytest.raises(AttributeError):
        topo.femtocells.append(99)
    assert len(topo.femtocells) == len(topo.positions) == 5


@pytest.mark.parametrize("threshold", [-1.0, math.nan, math.inf])
def test_topology_rejects_a_bad_neighbor_threshold(threshold):
    # the threshold sets the neighbor table's reach when it exceeds 6 r_f
    with pytest.raises(ValueError, match="^neighbor_threshold_m must be finite and >= 0, got"):
        CellTopology(macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
                     femtocells=[0, 1], positions=[(0.0, 0.0), (5.0, 5.0)],
                     neighbor_threshold_m=threshold)


def _replaced_child(topo, fap_ids):
    """The component topology as `dataclasses.replace` and `_restrict`
    give it: a new, checked topology of the components' FAPs, whose table
    is the parent's cut to them."""
    ptr, nbr, _ = topo._neighbors()
    found = {topo.index_of(f) for f in fap_ids}
    todo = list(found)
    while todo:
        k = todo.pop()
        for j in nbr[ptr[k]:ptr[k + 1]].tolist():
            if j not in found:
                found.add(j)
                todo.append(j)
    keep = np.array(sorted(found), dtype=np.intp)
    child = replace(topo, femtocells=[topo.femtocells[k] for k in keep],
                    positions=topo.positions[keep])
    child._table = topology._restrict(topo._neighbors(), keep, topo._reach)
    return child


def _hand_made(seed):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(900)[:300].tolist()  # gapped and out of order
    return CellTopology(1000.0, 12.0, [(0.0, 0.0), (5.0, 5.0)], ids,
                        rng.uniform(-400.0, 400.0, size=(300, 2)),
                        neighbor_threshold_m=80.0, macro_ue_walls=2, inter_femto_walls=0,
                        closed_access=set(ids[::7]) | {5000},
                        walls={(min(ids[0], ids[1]), max(ids[0], ids[1])): 4})


@pytest.mark.parametrize("make, seeds", [
    (lambda: place_femtocells(3, 1000), lambda t: {0}),
    (lambda: place_femtocells(1, 600), lambda t: {0, 17, 400}),
    (lambda: place_femtocells(2, 60), lambda t: {0}),
    (lambda: place_femtocells(2, 1), lambda t: {0}),
    (lambda: place_femtocells(5, 300), lambda t: ()),
    (lambda: _hand_made(0), lambda t: set(t.femtocells[:3])),
    (lambda: _hand_made(1), lambda t: set(t.femtocells[::40])),
], ids=["1000", "600-three", "60", "1", "300-none", "hand-made", "hand-made-many"])
def test_a_component_equals_the_replaced_and_restricted_topology(make, seeds):
    # reach_components derives the child from its parent's visited rows,
    # with no second check; every field, the index, the reach and the table
    # must be those of a child made by replace and _restrict
    topo = make()
    got, want = reach_components(topo, seeds(topo)), _replaced_child(topo, seeds(topo))
    assert type(got) is CellTopology
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        if name == "positions":
            assert got.positions.dtype == value.dtype and got.positions.shape == value.shape
            assert got.positions.tobytes() == value.tobytes()
        elif name == "_table":
            for a, b in zip(got._neighbors(), value, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
        else:
            assert getattr(got, name) == value, name
    assert all(type(f) is int for f in got.femtocells)
    assert not got.positions.flags.writeable
    with pytest.raises(ValueError):
        got.positions[:1] = 0.0
    # the parent is untouched and its positions stay read-only
    assert not topo.positions.flags.writeable
