from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import greedy_layer_packing, popularity_allocation

from femtonet.videoalloc import (
    BW_TOL,
    InfeasibleAllocationError,
    MbsSession,
    allocate_mbs_budget,
    allocate_popularity,
    technique_multi_level,
    technique_two_level,
    total_max_bw,
    total_min_bw,
)


def rank_sessions(sessions) -> list[MbsSession]:
    """Priority order: descending popularity, ties broken by ascending id."""
    return sorted(sessions, key=lambda s: (-s.popularity, s.id))


def counts_hq_lq(capacity: float, beta_max: float, beta_min: float) -> tuple[int, int]:
    """(sessions servable at full quality, sessions servable at minimum)."""
    if not beta_max >= beta_min > 0:
        raise ValueError("need beta_max >= beta_min > 0")
    return int(capacity / beta_max), int(capacity / beta_min)


def table71_sessions(m=12):
    # base 0.5 Mbps + 10 layers x 50 kbps = 1 Mbps max per session
    return [MbsSession(id=i, base_bw=0.5e6, layer_bw=50e3, max_layers=10,
                       min_layers=0, popularity=100 - i) for i in range(m)]


# ---------------------------------------------------------------------------
# budget split


def test_table71_floor_and_ceiling():
    sessions = table71_sessions()
    assert total_min_bw(sessions) == pytest.approx(6e6)
    assert total_max_bw(sessions) == pytest.approx(12e6)


def test_budget_lower_traffic_regime():
    sessions = table71_sessions()
    regime, budget = allocate_mbs_budget(20e6, 0.0, sessions)
    assert regime == "lower-traffic"
    assert budget == pytest.approx(12e6)


def test_budget_exact_boundary_full_allocation():
    sessions = table71_sessions()
    regime, budget = allocate_mbs_budget(20e6, 8e6, sessions)
    assert regime == "lower-traffic"
    assert budget == pytest.approx(12e6)


@pytest.mark.parametrize("capacity, non_mbs_bw, name", [
    (float("nan"), 1e6, "capacity"), (float("inf"), 1e6, "capacity"),
    (20e6, float("nan"), "non_mbs_bw"), (20e6, -float("inf"), "non_mbs_bw"),
])
def test_budget_names_a_non_finite_input(capacity, non_mbs_bw, name):
    # a NaN capacity used to come back as ("congested", nan)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        allocate_mbs_budget(capacity, non_mbs_bw, table71_sessions())


@pytest.mark.parametrize("capacity, non_mbs_bw, message", [
    (5e6, -8e6, "non_mbs_bw must be >= 0, got -8000000.0"),
    (20e6, -0.5, "non_mbs_bw must be >= 0, got -0.5"),
    (-1e6, -9e6, "capacity must be > 0, got -1000000.0"),
    (0.0, 0.0, "capacity must be > 0, got 0.0"),
    (-1e6, 0.0, "capacity must be > 0, got -1000000.0"),
])
def test_budget_names_a_negative_load_or_a_capacity_of_at_most_zero(capacity, non_mbs_bw,
                                                                    message):
    # (5e6, -8e6) and (-1e6, -9e6) used to return ("lower-traffic", 6e6): a
    # 6 Mbps budget in a 5 Mbps cell, and in a cell of -1 Mbps
    sessions = [MbsSession(id=i, base_bw=0.5e6, layer_bw=50e3, max_layers=10)
                for i in range(6)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        allocate_mbs_budget(capacity, non_mbs_bw, sessions)


@pytest.mark.parametrize("field, value", [
    ("base_bw", float("nan")), ("base_bw", float("inf")), ("base_bw", 0.0),
    ("layer_bw", float("nan")), ("layer_bw", float("inf")), ("layer_bw", -1.0),
])
def test_mbs_session_names_a_bad_bandwidth(field, value):
    # a NaN base_bw was accepted, and technique_two_level then raised StopIteration
    kwargs = {"id": 0, "base_bw": 0.5e6, "layer_bw": 50e3, "max_layers": 10, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite and >=? 0, got "):
        MbsSession(**kwargs)


def test_budget_congested_and_floor():
    sessions = table71_sessions()
    regime, budget = allocate_mbs_budget(20e6, 12e6, sessions)
    assert regime == "congested"
    assert budget == pytest.approx(8e6)
    with pytest.raises(InfeasibleAllocationError):
        allocate_mbs_budget(20e6, 14.5e6, sessions)


# ---------------------------------------------------------------------------
# two-level technique


def test_two_level_worked_example():
    # 3 sessions, base 0.5 Mbps, 10 layers x 50 kbps, budget 2.4 Mbps:
    # P = 4, M_I = 3, every session keeps 6 layers at 0.8 Mbps
    sessions = [MbsSession(id=i, base_bw=0.5e6, layer_bw=50e3, max_layers=10)
                for i in range(3)]
    out = technique_two_level(2.4e6, sessions)
    assert out.split_index == 3
    assert out.layers == [6, 6, 6]
    assert [s.bw_at(l) for s, l in zip(sessions, out.layers)] == pytest.approx([0.8e6] * 3)
    assert out.total_bw == pytest.approx(2.4e6)


def test_two_level_near_full_boundary():
    sessions = [MbsSession(id=i, base_bw=0.5e6, layer_bw=50e3, max_layers=10)
                for i in range(3)]
    out = technique_two_level(3e6 - 10e3, sessions)
    assert out.layers == [10, 10, 9]
    assert out.split_index == 2


def test_layer_techniques_reject_a_nan_budget():
    # technique_two_level used to stop with an uncaught StopIteration
    sessions = table71_sessions()
    for technique in (technique_two_level, technique_multi_level):
        with pytest.raises(ValueError, match="^budget must not be NaN$"):
            technique(float("nan"), sessions)


def test_layer_techniques_reject_sessions_out_of_popularity_order():
    """Both techniques rank sessions by their place in the list, so a list
    out of popularity order is rejected, naming the first session out of
    order, where it was allocated in the wrong rank; equal popularities may
    come in any order."""
    sessions = table71_sessions(4)
    swapped = [sessions[0], sessions[2], sessions[1], sessions[3]]
    for technique in (technique_two_level, technique_multi_level):
        with pytest.raises(ValueError, match=r"^sessions must come in non-increasing popularity, "
                                             r"but session 2 \(popularity 99\) follows one of 98$"):
            technique(3e6, swapped)
        tied = [replace(s, popularity=7) for s in swapped]
        assert technique(3e6, tied).layers == technique(3e6, sessions).layers


def test_two_level_minimum_budget():
    sessions = [MbsSession(id=i, base_bw=0.5e6, layer_bw=50e3, max_layers=10,
                           min_layers=2) for i in range(4)]
    out = technique_two_level(total_min_bw(sessions), sessions)
    assert out.layers == [2, 2, 2, 2]


def test_two_level_spread_at_most_one():
    rng = np.random.default_rng(3)
    sessions = table71_sessions()
    for _ in range(50):
        budget = float(rng.uniform(6e6, 12e6))
        out = technique_two_level(budget, sessions)
        assert max(out.layers) - min(out.layers) <= 1
        assert out.total_bw <= budget + 1e-6
        # maximality: adding one more layer to any session would overflow
        assert out.total_bw + 50e3 > budget


def test_two_level_matches_greedy_packing_oracle():
    rng = np.random.default_rng(17)
    sessions = table71_sessions()
    for _ in range(60):
        budget = float(rng.uniform(6e6, 12e6))
        out = technique_two_level(budget, sessions)
        oracle = greedy_layer_packing(budget, sessions)
        assert out.layers == oracle


def test_two_level_infeasible():
    with pytest.raises(InfeasibleAllocationError):
        technique_two_level(5e6, table71_sessions())


# ---------------------------------------------------------------------------
# multi-level technique


def test_multi_level_single_full_session():
    sessions = table71_sessions(3)
    # minimum demand + exactly one full enhancement span
    budget = total_min_bw(sessions) + 0.5e6
    out = technique_multi_level(budget, sessions)
    assert out.split_index == 1
    assert out.layers == [10, 0, 0]


def test_multi_level_full_budget():
    sessions = table71_sessions(3)
    out = technique_multi_level(total_max_bw(sessions), sessions)
    assert out.split_index == 3
    assert out.layers == [10, 10, 10]


def test_multi_level_prefix_structure():
    rng = np.random.default_rng(5)
    sessions = table71_sessions()
    for _ in range(50):
        budget = float(rng.uniform(6e6, 12e6))
        out = technique_multi_level(budget, sessions)
        m2 = out.split_index
        assert all(l == 10 for l in out.layers[:m2])
        assert all(l == 0 for l in out.layers[m2 + 1:])
        assert out.total_bw <= budget + 1e-6


def test_techniques_equal_totals():
    rng = np.random.default_rng(11)
    sessions = table71_sessions()
    for _ in range(50):
        budget = float(rng.uniform(6e6, 12e6))
        two = technique_two_level(budget, sessions)
        multi = technique_multi_level(budget, sessions)
        assert two.total_bw == pytest.approx(multi.total_bw, abs=1.0)


def test_budget_monotonicity():
    sessions = table71_sessions()
    prev_two = prev_multi = None
    for budget in np.linspace(6e6, 12e6, 25):
        two = technique_two_level(float(budget), sessions)
        multi = technique_multi_level(float(budget), sessions)
        if prev_two is not None:
            assert all(a >= b for a, b in zip(two.layers, prev_two))
            assert all(a >= b for a, b in zip(multi.layers, prev_multi))
        prev_two, prev_multi = two.layers, multi.layers


# ---------------------------------------------------------------------------
# popularity allocation (Ch. 8)


def test_table81_uncongested():
    # C=30 Mbps, beta_max=2: N_HQ = 15, so 15 sessions all run at 2 Mbps
    alloc = allocate_popularity(30e6, 2e6, 0.6e6, [[10] * 15])
    assert not alloc.congested
    assert alloc.bandwidths.tolist() == [[2e6] * 15]


def test_counts_hq_lq_table81():
    assert counts_hq_lq(30e6, 2e6, 0.6e6) == (15, 50)
    assert counts_hq_lq(1e6, 2e6, 0.5e6) == (0, 2)
    assert counts_hq_lq(4e6, 2e6, 2e6) == (2, 2)


def test_popularity_worked_fixture():
    # M=2, K=(150,50), C=2 Mbps, beta in [0.6, 2]: a = 0.004 -> (1.2, 0.8)
    alloc = allocate_popularity(2.0, 2.0, 0.6, [[150, 50]])
    assert alloc.congested
    assert alloc.bandwidths[0] == pytest.approx([1.2, 0.8])
    assert alloc.bandwidths.sum() == pytest.approx(2.0)


def test_popularity_uniform_equals_equal_share():
    alloc = allocate_popularity(10.0, 2.0, 0.5, [[25] * 8])
    assert alloc.bandwidths[0] == pytest.approx([10.0 / 8] * 8)


def test_popularity_conservation_bounds_ordering():
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(2, 40))
        viewers = sorted((int(v) for v in rng.integers(1, 500, size=m)),
                         reverse=True)
        c = float(rng.uniform(m * 0.6, m * 2.0))
        alloc = allocate_popularity(c, 2.0, 0.6, [viewers])
        bws = alloc.bandwidths[0].tolist()
        if alloc.congested:
            assert sum(bws) == pytest.approx(c, abs=1e-9)
        for b in bws:
            assert 0.6 - 1e-9 <= b <= 2.0 + 1e-9
        assert all(a >= b - 1e-9 for a, b in zip(bws, bws[1:]))


def test_popularity_infeasible():
    with pytest.raises(InfeasibleAllocationError):
        allocate_popularity(1.0, 2.0, 0.6, [[5, 5]])


def test_popularity_validates_order():
    with pytest.raises(ValueError):
        allocate_popularity(10.0, 2.0, 0.6, [[5, 10]])


def test_rank_sessions_deterministic_ties():
    sessions = [MbsSession(id=i, base_bw=1.0, layer_bw=0.1, max_layers=3,
                           popularity=7) for i in (4, 1, 3)]
    assert [s.id for s in rank_sessions(sessions)] == [1, 3, 4]


# ---------------------------------------------------------------------------
# satisfaction


def test_satisfaction_uncongested():
    per_rank, average, baseline = allocate_popularity(30e6, 2e6, 0.6e6,
                                                      [[10] * 5]).satisfaction()
    assert per_rank.tolist() == [[1.0] * 5]
    assert average.tolist() == [1.0] and baseline == 1.0


def test_satisfaction_worked_fixture():
    per_rank, average, baseline = allocate_popularity(2.0, 2.0, 0.6,
                                                      [[150, 50]]).satisfaction()
    assert per_rank[0] == pytest.approx([0.6, 0.4])
    assert average[0] == pytest.approx(0.55)
    assert baseline == pytest.approx(0.5)
    assert average[0] > baseline


def test_satisfaction_uniform_popularity_equals_baseline():
    _, average, baseline = allocate_popularity(10.0, 2.0, 0.6, [[40] * 8]).satisfaction()
    assert average[0] == pytest.approx(baseline)


@given(st.lists(st.integers(1, 400), min_size=2, max_size=30))
@settings(max_examples=300, deadline=None)
def test_satisfaction_dominance_property(viewers):
    viewers = sorted(viewers, reverse=True)
    m = len(viewers)
    capacity = m * 1.1  # congested whenever beta_max = 2 > 1.1
    per_rank, average, baseline = allocate_popularity(capacity, 2.0, 0.6,
                                                      [viewers]).satisfaction()
    assert average[0] >= baseline - 1e-12
    chain = [1.0] + per_rank[0].tolist() + [0.3]
    assert all(a >= b - 1e-12 for a, b in zip(chain, chain[1:]))
    if viewers[0] == viewers[-1]:
        assert average[0] == pytest.approx(baseline)


# ---------------------------------------------------------------------------
# batch allocation: rows of viewer draws at once


@st.composite
def popularity_batches(draw):
    """(capacity, beta_max, beta_min, viewer rows): one to 12 sessions, rows
    that may be all zero or concentrated on the top ranks, beta_max possibly
    equal to beta_min, and capacities at, just below or just above the
    M*beta_min floor as well as across the congested range."""
    m = draw(st.integers(1, 12))
    beta_min = draw(st.sampled_from([0.6, 0.25, 1.0]))
    beta_max = draw(st.sampled_from([beta_min, 2.0, 3.7]))
    floor = m * beta_min
    capacity = draw(st.sampled_from([floor, floor - BW_TOL / 2, floor + BW_TOL / 2,
                                     m * beta_max])
                    | st.floats(floor, 1.2 * m * beta_max))
    row = st.lists(st.integers(0, 300), min_size=m, max_size=m) \
        | st.lists(st.sampled_from([0, 1, 2, 5000]), min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return capacity, beta_max, beta_min, [sorted(r, reverse=True) for r in rows]


def _bits(values) -> list[str]:
    return [repr(float(v)) for v in values]


@settings(max_examples=400, deadline=None)
@given(case=popularity_batches())
# two sessions of 5000 viewers overflow at ranks 1 and 2; an all-zero row
@example(case=(8.0, 2.0, 0.6, [[5000, 5000, 3, 2, 1, 0], [0] * 6, [9, 9, 9, 9, 9, 9]]))
@example(case=(0.6, 0.6, 0.6, [[7]]))
def test_popularity_rows_equal_the_scalar_allocator_bit_for_bit(case):
    capacity, beta_max, beta_min, viewers = case
    batch = allocate_popularity(capacity, beta_max, beta_min, np.array(viewers))
    per_rank, average, baseline = batch.satisfaction()
    for t, row in enumerate(viewers):
        alloc = allocate_popularity(capacity, beta_max, beta_min, [row])
        row_ranks, row_average, row_baseline = alloc.satisfaction()
        assert batch.congested == alloc.congested
        assert _bits(batch.bandwidths[t]) == _bits(alloc.bandwidths[0])
        assert _bits(per_rank[t]) == _bits(row_ranks[0])
        assert _bits([average[t], baseline]) == _bits([row_average[0], row_baseline])
        congested, bws, ranks, avg, base = popularity_allocation(
            capacity, beta_max, beta_min, row)
        assert congested == alloc.congested
        assert _bits(alloc.bandwidths[0]) == _bits(bws)
        assert _bits(row_ranks[0]) == _bits(ranks)
        assert _bits([row_average[0], row_baseline]) == _bits([avg, base])


def test_popularity_rows_overflow_at_several_top_ranks():
    viewers = [5000, 5000, 3, 2, 1, 0]
    bws = allocate_popularity(8.0, 2.0, 0.6, [viewers]).bandwidths[0].tolist()
    assert bws[:2] == [2.0, 2.0] and bws[2] < 2.0
    assert sum(bws) == pytest.approx(8.0)
    assert _bits(bws) == _bits(popularity_allocation(8.0, 2.0, 0.6, viewers)[1])


def test_popularity_rows_keep_the_scalar_errors():
    with pytest.raises(ValueError, match="sorted"):
        allocate_popularity(10.0, 2.0, 0.6, np.array([[5, 4], [4, 5]]))
    with pytest.raises(ValueError, match=">= 0"):
        allocate_popularity(10.0, 2.0, 0.6, np.array([[5, 4], [4, -1]]))
    with pytest.raises(InfeasibleAllocationError):
        allocate_popularity(1.0, 2.0, 0.6, np.array([[5, 5], [3, 1]]))
    with pytest.raises(ValueError, match="non-empty 2-D"):
        allocate_popularity(10.0, 2.0, 0.6, [[]])


@pytest.mark.parametrize("capacity, beta_max, viewers, name", [
    (float("nan"), 2.0, [[150, 50]], "capacity"),
    (float("inf"), 2.0, [[150, 50]], "capacity"),
    (2.0, 2.0, [[float("inf"), 50]], "viewers"),
    (2.0, 2.0, [[150, float("nan")]], "viewers"),
    (2.0, float("inf"), [[150, 50]], "beta_max"),
    (2.0, 2.0, [150, 50], "viewers"),  # one row must still be a 2-D array
])
def test_popularity_names_a_bad_input(capacity, beta_max, viewers, name):
    # a NaN capacity used to fail the internal "top-rank overflow" check,
    # and an infinite viewer count to give a NaN bandwidth
    with pytest.raises(ValueError, match=name):
        allocate_popularity(capacity, beta_max, 0.6, viewers)
