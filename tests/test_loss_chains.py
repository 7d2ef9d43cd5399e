"""Each model's chain is one LossChainSpec, solved by loss_chain_probs and
simulated by the DES.  These tests hold that one description to the two
it replaced, the des.spec_for_* builders and queueing's own birth/death
lists (kept verbatim in oracles.py): specs and probabilities must be equal
to the last bit, not merely close."""

import hashlib
import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from femtonet import des, queueing
from femtonet.admission import TrafficClass
from femtonet.queueing import (
    CH6_SCHEMES,
    ChainBatch,
    Ch6Cell,
    Ch7QueueParams,
    LossChainSpec,
    TwoTierParams,
    _with_stream_rates,
    birth_death_probs,
    ch6_cells,
    chain_dimensions,
    loss_chain_probs,
    solve_ch6,
    solve_ch6_sweep,
    solve_ch7,
    solve_two_tier,
    solve_two_tier_sweep,
)
from femtonet.scenario import Scenario, scenario_from_preset


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lam", [0.05, 0.7, 1.3, 2.5])
@pytest.mark.parametrize("scheme", CH6_SCHEMES)
def test_ch6_chain_equals_old_spec_and_birth_lists(scheme, lam):
    params = Scenario({}).ch6_params(lam_new=lam)
    sol = solve_ch6(params, scheme)
    lam_h = sol.handover_rate
    assert sol.spec == des.spec_for_ch6(params, lam_h, scheme) \
        == oracles.spec_for_ch6(params, lam_h, scheme)
    probs, p_b, p_d = oracles.ch6_probs(params, lam_h, scheme)
    assert _same_bits(sol.probs, probs)
    assert (sol.p_block, sol.p_drop) == (p_b, p_d)


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from(CH6_SCHEMES),
       lam=st.floats(min_value=0.05, max_value=3.0))
def test_ch6_cell_equals_the_chain_it_split(scheme, lam):
    params = Scenario({}).ch6_params(lam_new=lam)
    (cell,) = ch6_cells(replace(params, lam_new=1.0), (scheme,))  # built at another rate
    ((sol,),) = solve_ch6_sweep((cell,), [lam])
    old = oracles.solve_ch6(params, scheme)
    for name in ("p_block", "p_drop", "utilization", "handover_rate", "residual"):
        assert getattr(sol, name).hex() == getattr(old, name).hex(), name
    assert sol.iterations == old.iterations
    assert _same_bits(sol.probs, old.probs)
    assert sol.extra == {"scheme": old.extra["scheme"]}
    # the facts that the reference solution reports are the cell's
    assert (cell.n, cell.s, cell.ell, cell.p_h) == \
        tuple(old.extra[key] for key in ("N", "S", "L", "P_h"))
    assert [d.hex() for d in cell.srv[1:]] == \
        [((i + 1) * mu).hex() for i, mu in enumerate(old.extra["mu_rates"])]
    lam_h = sol.handover_rate
    old_chain, _ = oracles.ch6_chain(params, lam_h, scheme)
    assert sol.spec == cell.chain(lam, lam_h) == old_chain
    assert des.spec_for_ch6(params, lam_h, scheme) == old_chain


@pytest.mark.parametrize("lam_total", [2.0, 8.0, 20.0])
@pytest.mark.parametrize("n", [0, 1, 100, 400, 1000])
def test_two_tier_chains_equal_old_specs_and_birth_lists(n, lam_total):
    params = scenario_from_preset("table-5.1").two_tier_params(n=n, lam_total=lam_total)
    sol = solve_two_tier(params)
    assert (sol.macro.spec == des.spec_for_two_tier_macro(params, sol)
            == oracles.spec_for_two_tier_macro(params, sol))
    assert (sol.femto.spec == des.spec_for_two_tier_femto(params, sol)
            == oracles.spec_for_two_tier_femto(params, sol))
    femto, macro = oracles.two_tier_probs(params, sol)
    assert _same_bits(sol.femto.probs, femto)
    assert _same_bits(sol.macro.probs, macro)


def _hex_fields(sol) -> dict:
    return {name: getattr(sol, name).hex() for name in
            ("p_block", "p_drop", "utilization", "handover_rate", "residual")}


def _two_tier_point(n, lam_total, alpha, beta, adaptive):
    return replace(scenario_from_preset("table-5.1").two_tier_params(n=n, lam_total=lam_total),
                   alpha=alpha, beta_prob=beta, macro_adaptive_states=adaptive)


def _assert_two_tier_equal(sol, old):
    assert {k: v.hex() for k, v in sol.rates.items()} == {k: v.hex() for k, v in old.rates.items()}
    assert sol.probabilities == old.probabilities
    assert sol.iterations == old.iterations
    assert [r.hex() for r in sol.residuals] == [r.hex() for r in old.residuals]
    for layer in ("femto", "macro"):
        new_layer, old_layer = getattr(sol, layer), getattr(old, layer)
        assert _hex_fields(new_layer) == _hex_fields(old_layer), layer
        assert new_layer.iterations == old_layer.iterations
        assert _same_bits(new_layer.probs, old_layer.probs), layer


@pytest.mark.parametrize("alpha, beta, adaptive", [
    (0.8, 0.2, 30), (0.5, 0.4, 30), (0.2, 0.0, 30), (1.0, 0.0, 30), (0.6, 0.3, 0)])
@pytest.mark.parametrize("lam_total", [0.5, 4.0, 20.0])
@pytest.mark.parametrize("n", [0, 1, 100, 400, 1000])
def test_two_tier_solution_equals_its_written_out_loop(n, lam_total, alpha, beta, adaptive):
    params = _two_tier_point(n, lam_total, alpha, beta, adaptive)
    _assert_two_tier_equal(solve_two_tier(params), oracles.solve_two_tier(params))


_TWO_TIER_POINTS = st.tuples(
    st.sampled_from([0, 1, 100, 400, 1000]), st.sampled_from([0.0, 0.5, 4.0, 20.0]),
    st.sampled_from([(0.8, 0.2), (0.5, 0.4), (0.2, 0.0), (1.0, 0.0), (0.6, 0.3)]),
    st.sampled_from([30, 0, 7]))


@settings(max_examples=40, deadline=None)
@given(sweep=st.lists(_TWO_TIER_POINTS, min_size=1, max_size=6))
# lam_total 0 converges at iteration 1, beside points that take tens; the
# macro chains come in two shapes, and one point repeats
@example(sweep=[(400, 4.0, (0.8, 0.2), 30), (0, 0.0, (0.8, 0.2), 30),
                (1000, 20.0, (0.6, 0.3), 0), (400, 4.0, (0.8, 0.2), 30)])
def test_two_tier_sweep_equals_each_point_solved_alone(sweep):
    """Every point of a sweep equals the written-out loop solved at that
    point alone, residual lists and probabilities to the last bit, and its
    chains equal the specs the DES builds for it."""
    params = [_two_tier_point(n, lam, alpha, beta, adaptive)
              for n, lam, (alpha, beta), adaptive in sweep]
    solved = solve_two_tier_sweep(params)
    assert len(solved) == len(params)
    for p, sol in zip(params, solved, strict=True):
        _assert_two_tier_equal(sol, oracles.solve_two_tier(p))
        assert sol.macro.spec == oracles.spec_for_two_tier_macro(p, sol)
        assert sol.femto.spec == oracles.spec_for_two_tier_femto(p, sol)
    arrays = [layer.probs for sol in solved for layer in (sol.femto, sol.macro)]
    assert all(a.base is None for a in arrays)


def _two_tier_grid(count: int, seed: int):
    """count seeded sweeps of 1 to 6 TwoTierParams each: femtocell counts
    0 to 1000, K in {0, 1, 4, 8}, N in {0, 30, 100}, S in {0, 12, 30},
    zero dwell rates and zero macro arrivals among them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sweep = []
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.choice([0, 1, 3, 50, 200, 600, 1000]))
            eta_f, eta_m = rng.choice([0.0, 1 / 360.0, 1 / 120.0], size=2, p=[0.2, 0.5, 0.3])
            alpha = float(rng.choice([1.0, 0.8, 0.5, 0.0]))
            sweep.append(TwoTierParams(
                lambda_o_f=n * float(rng.uniform(0.0, 0.05)),
                lambda_o_m=float(rng.choice([0.0, rng.uniform(0.0, 20.0)])),
                mu=1.0 / float(rng.choice([60.0, 120.0, 300.0])),
                eta_f=float(eta_f), eta_m=float(eta_m), n=n,
                femto_capacity=int(rng.choice([0, 1, 4, 8])),
                macro_base_states=int(rng.choice([0, 30, 100])),
                macro_adaptive_states=int(rng.choice([0, 12, 30])),
                alpha=alpha, beta_prob=float(rng.uniform(0.0, 1.0 - alpha))))
        yield sweep


def _pin_text(value) -> str:
    """value as text that changes with any bit of it: floats in hex,
    arrays by dtype, shape and bytes, dataclasses field by field."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}{value.tobytes().hex()}"
    if hasattr(value, "__dataclass_fields__"):
        return f"{type(value).__name__}(" + ", ".join(
            f"{f.name}={_pin_text(getattr(value, f.name))}" for f in fields(value)) + ")"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k!r}: {_pin_text(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_pin_text(v) for v in value) + "]"
    return repr(value)


def test_two_tier_sweeps_are_pinned():
    """30 seeded sweeps, 103 points, hashed: every field of every
    TwoTierSolution but the femto probabilities of a layer of no
    femtocells (n = 0).  Two sweeps (the 13th and 27th) hold a point that
    cycles at damping 0.5 and converges once it restarts."""
    digest = hashlib.sha256()
    for sweep in _two_tier_grid(30, seed=1):
        for params, sol in zip(sweep, solve_two_tier_sweep(sweep), strict=True):
            if params.n == 0:
                sol = replace(sol, femto=replace(sol.femto, probs=None))
            digest.update(f"{_pin_text(sol)}\n".encode())
    assert digest.hexdigest() == "cfbf26b6865689351d825b23f2ca534928df3040c7ec4408bcd4083e461f9397"


def _solution(model: str):
    if model in CH6_SCHEMES:
        return solve_ch6(Scenario({}).ch6_params(lam_new=1.3), model)
    if model == "ch7":
        return solve_ch7(Ch7QueueParams(12, 40, 8, 4, 0.05, 0.01, 0.04, 0.03, 1 / 120.0))
    layer, n = model.split()
    sol = solve_two_tier(scenario_from_preset("table-5.1").two_tier_params(n=int(n), lam_total=8.0))
    return getattr(sol, layer)


@pytest.mark.parametrize("model", [*CH6_SCHEMES, "ch7", "femto 0", "femto 400",
                                   "macro 0", "macro 400"])
def test_each_solution_has_one_probability_per_state_of_its_chain(model):
    """A two-tier layer of no femtocells too: its chain has K + 1 states,
    all but state 0 unreachable at stream rate 0."""
    sol = _solution(model)
    assert len(sol.probs) == len(sol.spec.srv_rates) - sol.spec.min_state
    sol.check_normalized()


def _assert_ch6_equal(sol, params, scheme, lam):
    old = oracles.solve_ch6(params, scheme)
    for name in ("p_block", "p_drop", "utilization", "handover_rate", "residual"):
        assert getattr(sol, name).hex() == getattr(old, name).hex(), (name, lam)
    assert sol.iterations == old.iterations
    assert _same_bits(sol.probs, old.probs)
    assert sol.spec == oracles.ch6_chain(params, sol.handover_rate, scheme)[0]
    return old.iterations


@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(CH6_SCHEMES),
       grid=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
                     min_size=1, max_size=8))
@example(scheme="proposed", grid=[1.3, 0.0, 2.5, 1.3, 0.0])
def test_ch6_grid_equals_each_rate_solved_alone(scheme, grid):
    """Every rate of a grid solve equals the reference solver at that rate
    alone, to the last bit, and owns its probabilities."""
    cells = ch6_cells(Scenario({}).ch6_params(lam_new=1.0), (scheme,))
    (solved,) = solve_ch6_sweep(cells, grid)
    assert len(solved) == len(grid)
    for lam, sol in zip(grid, solved, strict=True):
        _assert_ch6_equal(sol, Scenario({}).ch6_params(lam_new=lam), scheme, lam)
    assert all(sol.probs.base is None for sol in solved)


@pytest.mark.parametrize("scheme", CH6_SCHEMES)
def test_a_grid_whose_rates_converge_at_different_iterations(scheme):
    """lam_new = 0 converges at the first iteration and stops there, while
    the other rates iterate on; each still equals its lone solve."""
    grid = [0.0, 0.4, 2.0, 0.0]
    cells = ch6_cells(Scenario({}).ch6_params(lam_new=1.0), (scheme,))
    iterations = [_assert_ch6_equal(sol, Scenario({}).ch6_params(lam_new=lam), scheme, lam)
                  for lam, sol in zip(grid, solve_ch6_sweep(cells, grid)[0], strict=True)]
    assert iterations[0] == iterations[3] == 1
    assert min(iterations[1:3]) > 1 and iterations[1] != iterations[2]


# the cells of the sweep test: the five schemes of the default cell (156 and
# 102 states), and a guard cell of less capacity and more guard channels
# (76 states), so the sweep's chains come in three state counts
_SWEEP_CELLS = [(Scenario({}).ch6_params(lam_new=1.0), scheme) for scheme in CH6_SCHEMES] + [
    (replace(Scenario({}).ch6_params(lam_new=1.0), capacity=4500.0, guard_channels=12),
     "guard")]


@settings(max_examples=25, deadline=None)
@given(chosen=st.permutations(range(len(_SWEEP_CELLS))).flatmap(
           lambda order: st.integers(1, len(order)).map(lambda k: order[:k])),
       grid=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
                     min_size=1, max_size=8))
@example(chosen=[5, 0, 3, 1, 4, 2], grid=[1.3, 0.0, 2.5, 1.3, 0.0])
def test_a_multi_cell_sweep_equals_each_point_solved_alone(chosen, grid):
    """Every (cell, rate) point of one sweep over several schemes' cells
    equals the reference solver at that point alone, to the last bit,
    whatever the other cells and their state counts are."""
    cells = [ch6_cells(params, (scheme,))[0]
             for params, scheme in (_SWEEP_CELLS[k] for k in chosen)]
    solved = solve_ch6_sweep(cells, grid)
    assert len(solved) == len(cells)
    for k, cell, sols in zip(chosen, cells, solved, strict=True):
        params, scheme = _SWEEP_CELLS[k]
        assert len(sols) == len(grid)
        for lam, sol in zip(grid, sols, strict=True):
            _assert_ch6_equal(sol, replace(params, lam_new=lam), scheme, lam)
            assert sol.extra == {"scheme": scheme} and sol.spec.srv_rates == cell.srv
        assert all(sol.probs.base is None for sol in sols)


@st.composite
def _loss_chains(draw):
    """A chain of one of six shapes (min_state 0 or 2, and 1, 3 or 4 states
    above it), with 1 to 3 streams whose limits may lie below the floor."""
    lo = draw(st.sampled_from([0, 2]))
    above = draw(st.sampled_from([1, 3, 4]))
    deaths = draw(st.lists(st.floats(0.1, 5.0), min_size=above - 1, max_size=above - 1))
    streams = draw(st.integers(1, 3))
    limits = draw(st.lists(st.integers(-1, lo + above - 1), min_size=streams, max_size=streams))
    return LossChainSpec((0.0,) * streams, tuple(limits),
                         (*map(float, range(lo + 1)), *deaths), hand_stream=streams - 1,
                         min_state=lo)


_RATES = st.one_of(st.just(0.0), st.floats(0.0, 4.0))


@settings(max_examples=150, deadline=None)
@given(specs=st.lists(_loss_chains(), min_size=1, max_size=8), data=st.data())
def test_a_chain_batch_row_equals_each_chain_solved_alone(specs, data):
    """A batch built once and solved twice, at new rates and for any of its
    chains, in any order and with repeats: each row equals loss_chain_probs
    and the reference for its own chain, to the last bit, whatever the
    other chains' limits, floors and state counts are."""
    batch = ChainBatch(specs)
    for _ in range(2):
        points = data.draw(st.lists(st.integers(0, len(specs) - 1), min_size=1))
        rates = [tuple(data.draw(st.lists(_RATES, min_size=len(specs[i].stream_rates),
                                          max_size=len(specs[i].stream_rates))))
                 for i in points]
        rows = batch.solve(points, rates)
        assert len(rows) == len(points)
        for i, r, (probs, rejects) in zip(points, rates, rows, strict=True):
            for want_probs, want_rejects in (
                    loss_chain_probs(replace(specs[i], stream_rates=r)),
                    oracles.loss_chain_probs(replace(specs[i], stream_rates=r))):
                assert _same_bits(probs, want_probs)
                assert [p.hex() for p in rejects] == [p.hex() for p in want_rejects]


def test_a_chain_batch_names_a_bad_rate():
    spec = LossChainSpec((0.5, 0.7), (2, 4), (0.0, 1.0, 2.0, 3.0, 4.0), hand_stream=1)
    batch = ChainBatch([spec, spec])
    for points in ([0], [0, 1]):
        with pytest.raises(ValueError, match="finite and >= 0"):
            batch.solve(points, [(0.5, math.nan)] * len(points))
    with pytest.raises(ValueError, match="^death rates must be positive$"):
        ChainBatch([spec, LossChainSpec((1.0,), (2,), (0.0, 0.0, 2.0), hand_stream=0)])


def test_a_chain_batch_names_a_rate_row_of_the_wrong_length_or_count():
    # a short row once dropped a stream on the one-point path, which then
    # rejected none of its calls, and raised a bare IndexError on the batch
    # path; a long row was cut short on both
    spec = LossChainSpec((0.5, 0.7), (2, 4), (0.0, 1.0, 2.0, 3.0, 4.0), hand_stream=1)
    single = LossChainSpec((0.5,), (3,), (0.0, 1.0, 2.0, 3.0), hand_stream=0)
    batch = ChainBatch([spec, spec, single])
    for points, rows in (([0], [(0.5,)]), ([0], [(0.5, 0.7, 0.1)]), ([2], [(0.5, 0.7)]),
                         ([0, 1], [(0.5, 0.7), (0.5,)]), ([2, 0], [(0.5, 0.7), (0.5, 0.7)]),
                         ([1, 2], [(0.5, 0.7, 0.1), (0.5,)])):
        with pytest.raises(ValueError, match=r"^chain \d has \d streams, got a row of \d "
                                             r"stream rates$"):
            batch.solve(points, rows)
    for points, rows in (([0], []), ([0], [(0.5, 0.7)] * 2), ([0, 1], [(0.5, 0.7)]),
                         ([0, 2], [(0.5, 0.7), (0.5,), (0.5,)])):
        with pytest.raises(ValueError, match=r"^\d points but \d rows of stream rates$"):
            batch.solve(points, rows)


def test_a_chain_batch_builds_one_group_per_key_when_it_is_made(monkeypatch):
    """A batch builds one group per (floor, state count, stream count) of
    its chains when it is made, each from its chains in their order, and
    its solves build none."""
    built = []
    real = queueing._ChainGroup.__init__

    def counted(group, specs):
        built.append(specs)
        real(group, specs)

    monkeypatch.setattr(queueing._ChainGroup, "__init__", counted)
    two = LossChainSpec((0.5, 0.7), (2, 4), (0.0, 1.0, 2.0, 3.0, 4.0), hand_stream=1)
    other_limits = replace(two, stream_limits=(3, 3))
    floor_1 = replace(two, min_state=1)
    one = LossChainSpec((0.5,), (3,), (0.0, 1.0, 2.0, 3.0, 4.0), hand_stream=0)
    shorter = replace(two, stream_limits=(2, 3), srv_rates=(0.0, 1.0, 2.0, 3.0))
    specs = [two, floor_1, other_limits, one, two, shorter, floor_1]
    batch = ChainBatch(specs)
    assert built == [[two, other_limits, two], [floor_1, floor_1], [one], [shorter]]
    for points in ([0], [3], [1, 6], range(len(specs))):
        batch.solve(points, [specs[i].stream_rates for i in points])
    assert len(built) == 4


def _ch7_grid():
    rng = np.random.default_rng(20)
    for _ in range(120):
        m = int(rng.integers(0, 5))
        n = m + int(rng.integers(0, 7))
        s = int(rng.integers(0, 5))
        if n + s == 0:
            continue
        yield Ch7QueueParams(
            sessions=m, n_states=n, s_states=s, l_states=int(rng.integers(0, s + 1)),
            lam_new_voice=float(rng.uniform(0.01, 2.0)),
            lam_new_unicast=float(rng.uniform(0.01, 2.0)),
            lam_new_background=float(rng.uniform(0.01, 2.0)),
            lam_hand=float(rng.uniform(0.01, 2.0)),
            mu=float(rng.uniform(0.05, 1.0)))
    # sessions only (no arrivals), and a one-state chain (M = N, S = 0)
    yield Ch7QueueParams(12, 40, 8, 4, 0.0, 0.0, 0.0, 0.0, 1 / 120.0)
    yield Ch7QueueParams(3, 3, 0, 0, 0.5, 0.1, 0.4, 0.3, 1 / 120.0)


def test_ch7_chain_equals_old_spec_and_birth_lists():
    for params in _ch7_grid():
        sol = solve_ch7(params)
        assert sol.spec == des.spec_for_ch7(params) == oracles.spec_for_ch7(params), params
        probs, p_b_v, p_b_back, p_d = oracles.ch7_probs(params)
        assert _same_bits(sol.probs, probs), params
        assert (sol.extra["P_B_voice"], sol.extra["P_B_background"], sol.p_drop) \
            == (p_b_v, p_b_back, p_d), params


def test_stream_limited_at_or_below_the_floor_is_always_rejected():
    # stream 0 may enter only below state 1, but the chain never leaves 2..3
    spec = LossChainSpec((0.5, 1.0), (1, 3), (0.0, 1.0, 2.0, 3.0),
                         hand_stream=1, min_state=2)
    probs, (reject_0, reject_1) = loss_chain_probs(spec)
    assert len(probs) == 2 and reject_0 == 1.0
    assert reject_1 == pytest.approx(probs[-1])
    sim = des.simulate_des(spec, total_calls=2_000, seed=1)
    assert sim.per_stream[0]["p_reject"] == 1.0


@pytest.mark.parametrize("lam_h", [0.0, 0.4, 7.5])
def test_new_hand_rate_gives_the_spec_a_full_build_gives(lam_h):
    spec = LossChainSpec((0.5, 0.2), (3, 5), (0.0, 1.0, 2.0, 3.0, 3.5, 4.0), hand_stream=1)
    assert _with_stream_rates(spec, (0.5, lam_h)) == replace(spec, stream_rates=(0.5, lam_h))


@pytest.mark.parametrize("lam_h", [-0.01, math.nan, math.inf])
def test_bad_new_hand_rate_is_rejected(lam_h):
    spec = LossChainSpec((0.5, 0.2), (3, 5), (0.0, 1.0, 2.0, 3.0, 3.5, 4.0), hand_stream=1)
    with pytest.raises(ValueError, match="finite and >= 0"):
        _with_stream_rates(spec, (0.5, lam_h))


def _outcome(fn, *args):
    """fn's result, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def chain_specs(draw):
    """A loss chain whose death rates may include a zero, whose streams may
    have rate 0, and whose limits may sit at or below min_state or leave
    the upper states without births."""
    n_states, n_streams = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    min_state = draw(st.integers(0, n_states - 1))
    rates = draw(st.lists(st.sampled_from([0.0, 0.4, 2.5]) | st.floats(0.05, 3.0),
                          min_size=n_streams, max_size=n_streams))
    limits = draw(st.lists(st.integers(0, n_states - 1),
                           min_size=n_streams, max_size=n_streams))
    srv = draw(st.lists(st.floats(0.01, 5.0), min_size=n_states, max_size=n_states))
    zero_at = draw(st.none() | st.integers(0, n_states - 1))
    if zero_at is not None:
        srv[zero_at] = 0.0
    return LossChainSpec(tuple(rates), tuple(limits), tuple(srv),
                         hand_stream=n_streams - 1, min_state=min_state)


@settings(max_examples=300, deadline=None)
@given(spec=chain_specs())
# min_state 2, a limit at min_state, a zero-rate stream, and no birth out of
# state 4, so state 5 is unreachable
@example(spec=LossChainSpec((0.5, 0.0, 0.7), (2, 5, 4), (0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                            hand_stream=2, min_state=2))
def test_chain_probabilities_equal_the_reference_bit_for_bit(spec):
    got, want = _outcome(loss_chain_probs, spec), _outcome(oracles.loss_chain_probs, spec)
    if isinstance(want, str):
        assert got == want
    else:
        assert _same_bits(got[0], want[0])
        assert [p.hex() for p in got[1]] == [p.hex() for p in want[1]]
    lo = spec.min_state
    births = np.zeros(len(spec.srv_rates) - 1 - lo)
    for rate, limit in zip(spec.stream_rates, spec.stream_limits):
        births[:max(limit - lo, 0)] += rate
    deaths = spec.srv_rates[lo + 1:]
    got = _outcome(birth_death_probs, births, deaths)
    want = _outcome(oracles.birth_death_probs, births, deaths)
    if isinstance(want, str):
        assert got == want
    else:
        assert _same_bits(got, want)


_cents = st.integers(0, 100).map(lambda k: k / 100)


@st.composite
def class_tables(draw):
    """(classes, capacity) with decimal shares in [0, 1] (the range
    TrafficClass admits), requests, degradation factors and capacity."""
    classes = []
    for index in range(1, draw(st.integers(1, 7)) + 1):
        request = draw(st.integers(1, 20_000)) / 100
        if draw(st.booleans()):
            classes.append(TrafficClass(index, "rt", request, arrival_share=draw(_cents)))
            continue
        hand = draw(st.integers(0, 99))
        classes.append(TrafficClass(index, "nrt", request, draw(st.integers(0, hand)) / 100,
                                    hand / 100, draw(_cents)))
    return tuple(classes), draw(st.integers(1, 1_000_000)) / 10


@settings(max_examples=300, deadline=None)
@given(table=class_tables())
# gamma_h = 0.9 on the only positive share, beside a class of share 0
@example(table=((TrafficClass(1, "nrt", 1.0, 0.1, 0.9, 1.0),
                 TrafficClass(2, "rt", 1.0, arrival_share=0.0)), 6000.0))
@example(table=((TrafficClass(1, "rt", 25.0, arrival_share=0.0),), 6000.0))
def test_chain_dimensions_equal_the_reference(table):
    classes, capacity = table
    want = _outcome(oracles.chain_dimensions, classes, capacity)
    assert _outcome(chain_dimensions, classes, capacity) == want


# the Table 6.1 mean request, sum a_m beta_m = 58.85 kbps
TABLE61_MEAN_REQUEST = Fraction(5885, 100)


@pytest.mark.parametrize("k", [1, 3, 13, 21, 100, 101, 102, 119, 250])
def test_n_at_exact_multiples_of_the_mean_request(k):
    """A capacity of exactly k mean requests holds N = k calls, and the
    next double below it k - 1.  Float division floors 13, 21 and 119
    mean requests to one call fewer, so N must come from exact rationals;
    ch6_params, chain_dimensions and the cells read the same N."""
    capacity = float(TABLE61_MEAN_REQUEST * k)
    assert Fraction(repr(capacity)) == TABLE61_MEAN_REQUEST * k
    params = Scenario({"traffic.capacity_kbps": capacity}).ch6_params(lam_new=1.0)
    assert chain_dimensions(params.classes, capacity)[0] == k
    assert oracles.chain_dimensions(params.classes, capacity)[0] == k
    assert {cell.n for cell in ch6_cells(params, CH6_SCHEMES)} == {k}
    below = math.nextafter(capacity, 0.0)
    assert chain_dimensions(params.classes, below)[0] == k - 1
    if k in (13, 21, 119):
        assert int(capacity / float(TABLE61_MEAN_REQUEST)) == k - 1


@settings(max_examples=30, deadline=None)
@given(capacity=st.integers(5_000, 90_000).map(lambda k: k / 10),
       eta=st.integers(0, 500).map(lambda k: k / 10_000),
       guard=st.integers(0, 120),
       durations=st.lists(st.sampled_from([60.0, 120.0, 300.0]), min_size=7, max_size=7),
       shift=st.integers(0, 2),
       schemes=st.permutations(CH6_SCHEMES).flatmap(
           lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k]))))
# hard-qos alone (the widest S is 0), and guard before proposed
@example(capacity=6000.0, eta=0.0042, guard=5, durations=[120.0] * 7, shift=0,
         schemes=("hard-qos",))
@example(capacity=6000.0, eta=0.0042, guard=5, durations=[60.0, 300.0] * 3 + [120.0],
         shift=1, schemes=("guard", "aqos", "proposed"))
def test_shared_cells_equal_the_reference_cells(capacity, eta, guard, durations, shift,
                                                schemes):
    """Every cell from one ch6_cells call, for any schemes in any order,
    equals the cell the reference builds alone, field by field, though one
    release-rate pass serves them all; the classes' durations and new-call
    degradation vary."""
    base = Scenario({}).ch6_params(lam_new=1.0)
    classes = tuple(replace(c, duration_s=t, degrade_new=max(c.degrade_new - shift / 10, 0.0))
                    for c, t in zip(base.classes, durations))
    params = replace(base, capacity=capacity, eta=eta, guard_channels=guard, classes=classes)
    want = [_outcome(oracles.ch6_cell, params, scheme) for scheme in schemes]
    errors = [w for w in want if isinstance(w, str)]
    if errors:
        assert _outcome(ch6_cells, params, schemes) == errors[0]
        return
    for got, ref in zip(ch6_cells(params, schemes), want, strict=True):
        for f in fields(Ch6Cell):
            a, b = getattr(got, f.name), getattr(ref, f.name)
            if isinstance(b, np.ndarray):
                assert _same_bits(a, b) and not a.flags.writeable, f.name
            else:
                assert a == b, f.name


def test_a_zero_death_rate_constructs_but_has_no_stationary_distribution():
    spec = LossChainSpec((1.0,), (2,), (0.0, 0.0, 2.0), hand_stream=0)
    assert des.simulate_des(spec, 100, seed=1).per_stream[0]["seen"] == 100
    with pytest.raises(ValueError, match="^death rates must be positive$"):
        loss_chain_probs(spec)
    with pytest.raises(ValueError, match="^death rates must be positive$"):
        loss_chain_probs(_with_stream_rates(spec, (0.5,)))


@pytest.mark.parametrize("solve", [
    lambda: solve_ch6_sweep(ch6_cells(Scenario({}).ch6_params(lam_new=1.3), ("proposed",)),
                            [1.3]),
    lambda: solve_two_tier(scenario_from_preset("table-5.1").two_tier_params(n=400, lam_total=8.0)),
], ids=["ch6", "two-tier"])
def test_a_nan_handover_rate_raises_at_a_later_iteration(solve, monkeypatch):
    """The handover rate is checked on every iteration, not only on the
    spec the iterations start from."""
    solved = []

    def nan_on_the_third(batch, points, rates):
        rows = real(batch, points, rates)
        solved.append(points)
        if len(solved) == 3:
            rows = [(probs, [math.nan] * len(rejects)) for probs, rejects in rows]
        return rows

    real = queueing.ChainBatch.solve
    monkeypatch.setattr(queueing.ChainBatch, "solve", nan_on_the_third)
    with pytest.raises(ValueError, match="finite and >= 0"):
        solve()
    assert len(solved) == 3
