import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import balance_equation_solve, scalar_loss_chain

from femtonet import des
from femtonet.admission import TrafficClass
from femtonet.des import (
    LossChainSpec,
    simulate_des,
    spec_for_ch6,
    spec_for_ch7,
    spec_for_erlang,
    spec_for_two_tier_femto,
    spec_for_two_tier_macro,
)
from femtonet.queueing import (
    CH6_SCHEMES,
    Ch6QueueParams,
    Ch7QueueParams,
    TwoTierParams,
    ch6_cells,
    solve_ch6,
    solve_ch6_sweep,
    solve_ch7,
    solve_two_tier,
)


def test_backend_reported():
    """perfbench names the backend in its run context and times each
    kernel_backends() entry's run_loss_chain: one entry, the module's own."""
    assert des.BACKEND == "pure-python"
    backends = des.kernel_backends()
    assert list(backends) == ["pure-python"]
    args = (77, 5_000, [0.8, 0.3, 0.1], [4, 6, 8], [i * 0.2 for i in range(9)], 2, 1)
    assert backends["pure-python"].run_loss_chain(*args) == des.run_loss_chain(*args)


def _outcome(args):
    try:
        return des.run_loss_chain(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def loss_chains(draw):
    """run_loss_chain arguments: a valid chain, or one that breaks one rule."""
    n_states, n_streams = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    rates = draw(st.lists(st.sampled_from([0.0, 0.4, 2.5]) | st.floats(0.05, 3.0),
                          min_size=n_streams, max_size=n_streams))
    limits = draw(st.lists(st.integers(-1, n_states - 1),
                           min_size=n_streams, max_size=n_streams))
    srv = draw(st.lists(st.floats(0.0, 3.0), min_size=n_states, max_size=n_states))
    min_state = draw(st.integers(0, n_states - 1))
    start = draw(st.integers(min_state, n_states - 1))
    fault = draw(st.sampled_from([None] * 4 + ["limit", "start", "min", "rate",
                                              "length", "empty"]))
    if fault == "limit":
        limits[draw(st.integers(0, n_streams - 1))] = n_states
    elif fault == "start":
        start = draw(st.sampled_from([min_state - 1, n_states]))
    elif fault == "min":
        min_state = -1
    elif fault == "rate":
        values = draw(st.sampled_from([rates, srv]))
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.sampled_from([-1.0, math.inf, math.nan]))
    elif fault == "length":
        limits.append(0)
    elif fault == "empty":
        srv = []
    return (draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 300)),
            rates, limits, srv, start, min_state)


def _replication_plan(args):
    """Three replications of the chain of loss_chains args, from its seed:
    (seeds, warm-up counts, counted calls)."""
    seed, count = args[:2]
    return [seed, seed ^ 1, 2**64 - 1 - seed], [0, 3, 40], [count, count + 1, 2]


def _replications_outcome(args, plan=None):
    """run_replications of the chain of args on plan (by default
    _replication_plan): the ValueError it raised, or its result with every
    float spelt out bit for bit."""
    rates, limits, srv, _, min_state = args[2:]
    try:
        seen, rejected, tis, elapsed = des.run_replications(
            *(plan or _replication_plan(args)), rates, limits, srv, min_state)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return seen.tolist(), rejected.tolist(), [t.hex() for t in tis.tolist()], elapsed.hex()


def _chained_replications(args, plan=None):
    """_replications_outcome's result from run_loss_chain calls: each
    replication's warm-up from min_state, then its counted run resumed from
    the warm-up's chain and RNG state."""
    rates, limits, srv, _, min_state = args[2:]
    seen, rejected, tis_tot, elapsed_tot = [], [], np.zeros(len(srv)), 0.0
    for seed, warm, calls in zip(*(plan or _replication_plan(args))):
        *_, chain, rng = des.run_loss_chain(seed, warm, rates, limits, srv,
                                            min_state, min_state)
        rep_seen, rep_rejected, tis, elapsed, *_ = des.run_loss_chain(
            rng, calls, rates, limits, srv, chain, min_state)
        seen.append(rep_seen)
        rejected.append(rep_rejected)
        tis_tot += np.asarray(tis)
        elapsed_tot += elapsed
    return seen, rejected, [t.hex() for t in tis_tot.tolist()], elapsed_tot.hex()


@settings(max_examples=150, deadline=None)
@given(args=loss_chains())
@example(args=(1, 2000, [5.0], [6], [0.0, 1.0, 2.0], 0, 0))
def test_replications_match_chained_runs_or_reject_alike(args):
    """run_replications and LossChainSpec reject exactly the chains that
    run_loss_chain rejects when started at min_state, where simulate_des
    starts them, with the same ValueError, and run_replications otherwise
    returns what chained run_loss_chain calls return."""
    min_state = args[6]
    from_floor = _outcome((*args[:5], min_state, min_state))
    replications = _replications_outcome(args)
    if from_floor[0] == "ValueError":
        assert replications == from_floor
    else:
        # each warm-up, walked without clocks, ends where a counted run would
        assert replications == _chained_replications(args)
    try:
        LossChainSpec(*map(tuple, args[2:5]), hand_stream=len(args[2]) - 1, min_state=min_state)
    except ValueError as exc:
        assert from_floor == ("ValueError", str(exc))
    else:
        assert from_floor[0] != "ValueError"


def _bits(out):
    """A kernel result with every float spelt out bit for bit."""
    seen, rejected, tis, elapsed, chain, rng = out
    return seen, rejected, [t.hex() for t in tis], elapsed.hex(), chain, rng


_TINY, _HUGE = math.ulp(0.0), sys.float_info.max  # the least and largest doubles > 0


@settings(max_examples=400, deadline=None)
@given(lam=st.sampled_from([_TINY, 1e-310, 2.2250738585072014e-308, 1e-300, 0.3, 1.0,
                            1.75, 1e300, _HUGE])
       | st.floats(_TINY, _HUGE),
       srv=st.sampled_from([0.0, _TINY, 1e-310, 1e-300, 1e-17, 0.0125, 1e300, _HUGE])
       | st.floats(0.0, _HUGE),
       draws=st.lists(st.integers(0, 2**53 - 1), max_size=30))
@example(lam=1.75, srv=0.0, draws=[2**53 - 1])
@example(lam=_HUGE, srv=_HUGE, draws=[0, 1])  # the event rate overflows to inf
def test_arrival_threshold_decides_as_the_product(lam, srv, draws):
    """For the event rate r = lam + srv of a state, v < t holds exactly
    when v * r < lam: at t, at its two neighbours, at the 53-bit grid draws
    beside t and at random grid draws."""
    rate = lam + srv
    t = des.arrival_threshold(lam, rate)
    assert not t * rate < lam
    grid = math.floor(min(t, 1.0) * 2**53)
    near = [k / 2**53 for k in range(grid - 2, grid + 3) if 0 <= k < 2**53]
    for v in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf), *near,
              *(k / 2**53 for k in draws)):
        assert (v < t) == (v * rate < lam), v


ONE_BLOCK = des._BLOCK_EVENTS


def test_the_block_log_is_libm_log_bit_for_bit():
    """Pass 2 takes a block's logs in one numpy call, which must equal
    math.log (libm's log) on every draw: over 2**20 kernel draws, taken in
    block-sized calls and in one, and at the extremes 1 - k/2**53 for
    k < 10**4 and k > 2**53 - 10**4."""
    x = 1.0 - des._uniforms(0x5EED, 2**19)
    k = np.concatenate([np.arange(10**4), 2**53 - np.arange(1, 10**4 + 1)])
    extremes = 1.0 - k.astype(np.float64) / 2**53
    for draws in (*np.array_split(x, len(x) // ONE_BLOCK), x, extremes):
        got = des._libm_log(draws)
        want = np.fromiter(map(math.log, draws.tolist()), np.float64, len(draws))
        miss = np.flatnonzero(got != want)
        assert miss.size == 0, (f"{miss.size} of {len(draws)} logs differ from "
                                f"math.log, first at {draws[miss[0]]!r}")


@st.composite
def resumed_chains(draw):
    """A valid chain and the arrival counts of consecutive resumed runs: a
    warm-up, a run, then single-arrival steps.  Departure-dominated chains
    (total arrival rate far below the service rates, which are positive
    from min_state up) cross many draw blocks per arrival."""
    n_states, n_streams = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    sparse = draw(st.booleans())
    rate = st.floats(0.01, 0.05) if sparse else st.floats(0.05, 3.0)
    rates = draw(st.lists(st.just(0.0) | rate, min_size=n_streams, max_size=n_streams))
    limits = draw(st.lists(st.integers(-1, n_states - 1),
                           min_size=n_streams, max_size=n_streams))
    srv = draw(st.lists(st.floats(1.0, 10.0) if sparse else st.floats(0.0, 3.0),
                        min_size=n_states, max_size=n_states))
    min_state = draw(st.integers(0, n_states - 1))
    start = draw(st.sampled_from([min_state, max(limits[0], min_state)])
                 | st.integers(min_state, n_states - 1))
    count = st.integers(0, 3) if sparse else (
        st.sampled_from([0, 1, ONE_BLOCK // 2 - 32, ONE_BLOCK]) | st.integers(0, 3000))
    steps = draw(st.integers(0, 2) if sparse else st.integers(0, 60))
    return (draw(st.integers(0, 2**64 - 1)), [draw(count), draw(count)] + [1] * steps,
            rates, limits, srv, start, min_state)


@settings(max_examples=60, deadline=None)
@given(args=resumed_chains())
@example(args=(3, [0, ONE_BLOCK], [0.7], [0], [0.0], 0, 0))  # one full block
@example(args=(3, [1, ONE_BLOCK + 1], [0.7, 0.0], [0, 0], [0.0], 0, 0))
@example(args=(5, [2, 2], [0.0, 0.0], [1, 1], [0.0, 1.0], 1, 1))  # no arrival rate
@example(args=(9, [5, 3], [0.01, 0.0], [3, 2], [2.0, 9.0, 7.5, 10.0], 3, 1))
# non-monotone limits: at states 1 and 2 the picked stream decides the move
@example(args=(11, [200, 500], [0.5, 1.0, 0.7], [3, 1, 3], [0.0, 1.0, 2.0, 3.0], 0, 0))
# a zero-rate stream whose limit lies between the other two
@example(args=(12, [300, 300], [0.6, 0.0, 0.9], [1, 2, 4],
               [0.0, 0.5, 1.0, 1.5, 2.0], 2, 0))
# the chain starts and stays above every limit, so every arrival is rejected
@example(args=(13, [50, 100], [0.8, 0.4], [1, 0], [0.0, 1.0, 2.0, 3.0], 3, 2))
# a departure at min_state = 2 leaves the chain where it is
@example(args=(14, [100, 400], [0.3], [3], [0.0, 0.0, 2.0, 4.0], 2, 2))
# the 12494th arrival is the last event of a full first block
@example(args=(1, [12_494, 3], [1.5, 0.4], [2, 3], [0.0, 0.3, 0.6, 0.9], 0, 0))
def test_block_draws_match_scalar_loop(args):
    """The block-drawn kernel returns the scalar loop's tuple bit for bit on
    each of several runs, each resumed from the previous one's chain and
    RNG state.  A single-arrival step's clocks sum only a few time steps,
    so they show a last-bit change of a single draw's time step."""
    rng, counts, rates, limits, srv, chain, min_state = args
    for count in counts:
        out = des.run_loss_chain(rng, count, rates, limits, srv, chain, min_state)
        ref = scalar_loss_chain(rng, count, rates, limits, srv, chain, min_state)
        assert out == ref
        assert _bits(out) == _bits(ref)
        *_, chain, rng = out


# run_replications plans, (seeds, warm-ups, counted calls), on chains
# (rates, limits, srv), whose warm-ups end at or cross a draw block's end.
# A block holds ONE_BLOCK events, so in the one-state chain, where every
# event is an arrival, a warm-up of ONE_BLOCK arrivals ends on the last
# event of the first block, and half a block of warm-up and half of counted
# calls share it; from seed 1 the 12494th arrival of the four-state chain
# is the last event of its first block.  ONE_BLOCK arrivals of the
# three-state chain take two blocks, and ONE_BLOCK // 2 arrivals of its
# departure-heavy twin four.
WARM_UP_PLANS = [
    (([5, 6], [ONE_BLOCK, 3], [40, 7]), ([1.0], [0], [0.0])),
    (([5], [ONE_BLOCK // 2], [ONE_BLOCK // 2]), ([1.0], [0], [0.0])),
    (([1, 2], [12_494, 40], [300, 2]), ([1.5, 0.4], [2, 3], [0.0, 0.3, 0.6, 0.9])),
    (([7], [ONE_BLOCK], [300]), ([1.0], [2], [0.0, 1.0, 2.0])),
    (([7, 8], [ONE_BLOCK // 2, 0], [300, 50]), ([1.0], [2], [2.0, 3.0, 6.0])),
]


@pytest.mark.parametrize("plan, chain", WARM_UP_PLANS)
def test_warm_ups_across_block_ends_match_chained_runs(plan, chain):
    """Each replication's warm-up counts the events it walks, which set
    where its counted run starts and how far the RNG state advances: hex
    for hex, the walk equals a warm-up run_loss_chain resumed by a counted
    one."""
    args = (None, None, *chain, 0, 0)
    assert _replications_outcome(args, plan) == _chained_replications(args, plan)


def test_block_buffer_is_bounded():
    """A long run holds one capped block of draws, not one per event.  In
    this one-state chain every event is a (rejected) arrival, so the call
    spans 50k events in four blocks (traced peak 2.6 MB); drawn in one
    block they would take 9.6 MB."""
    tracemalloc.start()
    try:
        des.run_loss_chain(1, 50_000, [1.0], [0], [0.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_block_buffer_is_bounded_above_small_ints():
    """The same bound on a chain that walks states 300 to 399, whose
    numbers are not CPython's cached small ints: each move makes a new int
    object.  Half the events are arrivals, so the call spans about 100k
    events in seven blocks."""
    srv = [0.0] * 300 + [1.0] * 100
    tracemalloc.start()
    try:
        out = des.run_loss_chain(1, 50_000, [1.0], [399], srv, 300, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out[4] > 300
    assert peak < 4_000_000


@pytest.mark.parametrize("arrivals", [1000.0, 2.5, math.nan, 1e5, 2**64 + 5])
def test_arrival_count_must_be_an_int64(arrivals):
    # the walker counts in int64 arrays, which 2**64 + 5 does not fit
    with pytest.raises(ValueError, match="arrival count"):
        des.run_loss_chain(7, arrivals, [1.0], [2], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="arrival count"):
        simulate_des(spec_for_erlang(1.0, 1.0, 2), arrivals)


@pytest.mark.parametrize("name, limits, start, min_state", [
    ("a stream limit", [2.5], 0, 0),
    ("a stream limit", [2.0], 0, 0),
    ("start_state", [2], 1.0, 0),
    ("min_state", [2], 0, 0.0),
])
def test_chain_states_and_limits_must_be_integers(name, limits, start, min_state):
    # a float limit was simulated as int(limit), and a float state failed
    # with an unnamed TypeError
    chain = ([1.0], limits, [0.0, 1.0, 2.0])
    message = f"^{name} must be an integer, got"
    with pytest.raises(ValueError, match=message):
        des.run_loss_chain(7, 100, *chain, start, min_state)
    if start == 0:
        with pytest.raises(ValueError, match=message):
            des.run_replications([7], [0], [100], *chain, min_state)
        with pytest.raises(ValueError, match=message):
            LossChainSpec(*map(tuple, chain), hand_stream=0, min_state=min_state)


def test_a_stream_limit_must_fit_in_64_bits():
    # the walker keeps the limits in an int64 array, which -2**63 - 1 does
    # not fit
    chain = ([1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="^stream limits must fit in 64 bits$"):
        des.run_loss_chain(7, 50, chain[0], [-2**63 - 1], chain[1])
    assert (des.run_loss_chain(7, 50, chain[0], [-2**63], chain[1])
            == des.run_loss_chain(7, 50, chain[0], [-1], chain[1]))


def test_numpy_integer_states_and_limits_accepted():
    chain = ([1.0, 0.5], [2, 3], [0.0, 1.0, 2.0, 3.0])
    numpy_limits = [np.int64(2), np.int32(3)]
    assert (des.run_loss_chain(7, 500, chain[0], numpy_limits, chain[2],
                               np.int64(2), np.int64(1))
            == des.run_loss_chain(7, 500, *chain, 2, 1))


def test_arrival_count_bounds_are_int64():
    # the walker's counts are int64, which holds neither -2**63 - 1 nor 2**63
    assert des.check_arrivals(-2**63) == -2**63
    assert des.check_arrivals(2**63 - 1) == 2**63 - 1
    with pytest.raises(ValueError, match="does not fit in 64 bits"):
        des.check_arrivals(-2**63 - 1)


def test_numpy_integer_arrival_count_accepted():
    args = ([1.0], [2], [0.0, 1.0, 2.0])
    assert des.run_loss_chain(7, np.int64(500), *args) == des.run_loss_chain(7, 500, *args)
    spec = spec_for_erlang(1.0, 1.0, 2)
    assert simulate_des(spec, np.int32(2000)).elapsed == simulate_des(spec, 2000).elapsed


@pytest.mark.parametrize("seed", [1.9, 7.0, "7", math.nan, None])
def test_a_seed_must_be_an_integer(seed):
    # run_loss_chain failed on 1.9 with an unnamed TypeError from the seed
    # mask, and run_replications walked [1.9] as seed 1 and accepted '7'
    chain = ([1.0], [2], [0.0, 1.0, 2.0])
    message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        des.run_loss_chain(seed, 100, *chain)
    with pytest.raises(ValueError, match=message):
        des.run_replications([7, seed], [0, 0], [100, 100], *chain)


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.uint64(2**63), np.int64(-5),
                                  np.int32(7), np.uint8(0)])
def test_a_numpy_integer_seed_walks_as_the_equal_int(seed):
    # np.uint64(2**64 - 1) passed the mask and then overflowed a C long in
    # the walker
    chain = ([1.0, 0.5], [2, 3], [0.0, 1.0, 2.0, 3.0])
    assert des.run_loss_chain(seed, 500, *chain) == des.run_loss_chain(int(seed), 500, *chain)
    got = des.run_replications([seed, 3], [10, 10], [500, 500], *chain)
    want = des.run_replications([int(seed), 3], [10, 10], [500, 500], *chain)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_simulate_des_hands_run_replications_python_int_seeds(monkeypatch):
    """simulate_des passes its SeedSequence states as Python ints, so the
    seed check leaves every DesResult as it was: the same states as numpy
    integers walk alike."""
    plans = []
    run_replications = des.run_replications

    def recording(seeds, *rest):
        plans.append((seeds, rest))
        return run_replications(seeds, *rest)

    monkeypatch.setattr(des, "run_replications", recording)
    simulate_des(spec_for_erlang(1.0, 1.0, 2), 2000, seed=5)
    ((seeds, rest),) = plans
    assert all(type(s) is int for s in seeds)
    got = run_replications(np.array(seeds, dtype=np.uint64), *rest)
    want = run_replications(seeds, *rest)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("streams",[{"hand_stream": 3},
                                     {"new_streams": (-1,), "hand_stream": -1},
                                     {"new_streams": (0, 1), "hand_stream": 0}])
def test_spec_rejects_stream_index_out_of_range(streams):
    with pytest.raises(ValueError, match="new_streams and hand_stream"):
        LossChainSpec((1.0,), (2,), (0.0, 1.0, 2.0), **streams)


_BIG_RATE = (st.sampled_from([0.0, _TINY, 1.0, 1e300, 1e308, _HUGE / 2, _HUGE])
             | st.floats(0.0, _HUGE))


@settings(max_examples=200, deadline=None)
@given(rates=st.lists(_BIG_RATE, min_size=1, max_size=3),
       srv=st.lists(_BIG_RATE, min_size=1, max_size=4))
@example(rates=[1e308, 1e308], srv=[0.0, 1.0])  # the total arrival rate overflows
@example(rates=[1e308, 0.5], srv=[0.0, 1e308])  # a state's event rate overflows
@example(rates=[_HUGE], srv=[0.0])  # the largest finite total, with no service
@example(rates=[_TINY], srv=[0.0, _TINY])  # every time step overflows to inf
@example(rates=[1e-308], srv=[0.0, 0.0])  # finite time steps whose clocks overflow
def test_a_chain_whose_total_rate_overflows_is_rejected(rates, srv):
    """A chain whose total arrival rate, or that total plus a service rate,
    overflows to inf would never see an arrival there, so the spec and both
    kernel entries reject it alike, before anything runs.  Every other chain
    is accepted, and runs a few calls where an arrival takes at most about
    1000 events."""
    lam = 0.0
    for r in rates:
        lam += r
    limits = [len(srv) - 1] * len(rates)
    args = (rates, limits, srv)
    overflows = math.isinf(lam) or any(math.isinf(lam + s) for s in srv)
    if overflows:
        with pytest.raises(ValueError, match="total arrival rate") as spec_error:
            LossChainSpec(tuple(rates), tuple(limits), tuple(srv), hand_stream=0)
    else:
        LossChainSpec(tuple(rates), tuple(limits), tuple(srv), hand_stream=0)
    calls = 5 if lam > 0.0 and (lam + max(srv)) / lam <= 1e3 else 0
    plan = [3, 4], [min(calls, 2), 0], [calls, calls]
    if overflows:
        for run in (lambda: des.run_loss_chain(3, calls, *args),
                    lambda: des.run_replications(*plan, *args)):
            with pytest.raises(ValueError) as got:
                run()
            assert str(got.value) == str(spec_error.value)
    else:
        assert sum(des.run_loss_chain(3, calls, *args)[0]) == calls
        seen, *_ = des.run_replications(*plan, *args)
        assert [sum(row) for row in seen.tolist()] == [calls, calls]


def test_a_replication_with_no_counted_call_walks_no_warm_up():
    """A replication with no counted call walks nothing, so its warm-up is
    not walked either.  Here a warm-up of 2 arrivals would take about 2**54
    events: a draw is an arrival only at 0.0, the arrival rate 5e-324
    against service rates of at least 1.  run_replications returns zero
    rows at once."""
    args = ([3, 4], [2, 0], [0, 0], [_TINY], [3], [1.0, 1.0, 1e300, _HUGE])
    seen, rejected, tis, elapsed = des.run_replications(*args)
    assert ((seen.tolist(), rejected.tolist(), tis.tolist(), elapsed)
            == ([[0], [0]], [[0], [0]], [0.0] * 4, 0.0))


@pytest.mark.parametrize("short", ["seeds", "warmups", "counts"])
def test_run_replications_needs_one_plan_entry_per_replication(short):
    plan = {"seeds": [7, 8], "warmups": [0, 3], "counts": [100, 100]}
    plan[short] = plan[short][:1]
    with pytest.raises(ValueError, match="^need one seed, warm-up and call count "
                                         "per replication$"):
        des.run_replications(plan["seeds"], plan["warmups"], plan["counts"],
                             [1.0], [2], [0.0, 1.0, 2.0])


# at an event rate of 5e-324 the time steps overflow; at 5e-307 a
# replication's clocks stay finite, but not their sum over 20 replications
OVERFLOWED_CLOCKS = [((_TINY,), (0.0, 1.0), 20), ((5e-307,), (0.0, 0.0), 200)]


@pytest.mark.parametrize("rates, srv, calls", OVERFLOWED_CLOCKS)
def test_an_overflowed_simulated_time_is_an_error(rates, srv, calls):
    """simulate_des names a simulated time that overflowed to inf instead
    of dividing inf by inf into NaN state times."""
    spec = LossChainSpec(rates, (1,), srv, hand_stream=0)
    with pytest.raises(ValueError, match="simulated time overflowed to inf"):
        simulate_des(spec, calls)


@pytest.mark.parametrize("rates, srv, calls", OVERFLOWED_CLOCKS)
def test_run_replications_sums_overflowed_clocks_to_inf_silently(rates, srv, calls):
    """On the replications simulate_des walks for those chains,
    run_replications adds the clocks up to inf without a numpy overflow
    warning, so that simulate_des names the overflow itself."""
    reps = des.REPLICATIONS
    seeds = np.random.SeedSequence(0).generate_state(reps, dtype=np.uint64).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seen, _, tis, elapsed = des.run_replications(
            seeds, [0] * reps, [calls // reps] * reps, rates, [1], srv)
    assert math.isinf(elapsed)
    assert seen.sum() == calls
    assert not np.isnan(tis).any()


@pytest.mark.parametrize("df, true_quantile", [(19, 2.093), (21, 2.080),
                                               (60, 2.000), (1000, 1.962)])
def test_t95_never_below_true_quantile(df, true_quantile):
    assert des._t95(df) >= true_quantile
    if df in des._T95:
        assert des._t95(df) == true_quantile


@pytest.mark.parametrize("total_calls", [1, 2, 19, 39, 20_019, 20_000])
def test_simulate_des_counts_exactly_total_calls(total_calls):
    spec = LossChainSpec((0.7, 0.3), (2, 3), (0.0, 1.0, 2.0, 3.0),
                         new_streams=(0,), hand_stream=1)
    res = simulate_des(spec, total_calls, seed=1)
    assert sum(s["seen"] for s in res.per_stream) == total_calls
    assert res.replications == min(des.REPLICATIONS, total_calls)


@pytest.mark.parametrize("total_calls", [1, 2, 19, 39, 20_019, 20_000])
def test_simulate_des_splits_calls_over_replications(total_calls, monkeypatch):
    """simulate_des hands run_replications one SeedSequence state per
    replication, counts that differ by at most one with the longer first,
    each count's WARMUP share as its warm-up, and the spec's chain."""
    plans = []
    run_replications = des.run_replications

    def recording(seeds, warmups, counts, *chain):
        plans.append((seeds, warmups, counts, chain))
        return run_replications(seeds, warmups, counts, *chain)

    monkeypatch.setattr(des, "run_replications", recording)
    spec = LossChainSpec((0.7, 0.3), (2, 3), (0.0, 1.0, 2.0, 3.0),
                         new_streams=(0,), hand_stream=1, min_state=1)
    simulate_des(spec, total_calls, seed=1)
    ((seeds, warmups, counts, chain),) = plans
    reps = min(des.REPLICATIONS, total_calls)
    assert seeds == np.random.SeedSequence(1).generate_state(reps, dtype=np.uint64).tolist()
    assert len(counts) == reps and sum(counts) == total_calls
    assert counts == sorted(counts, reverse=True) and counts[0] - counts[-1] <= 1
    assert warmups == [int(des.WARMUP * calls) for calls in counts]
    assert chain == (spec.stream_rates, spec.stream_limits, spec.srv_rates, spec.min_state)


def test_zero_arrivals():
    spec = LossChainSpec((0.0,), (3,), (0.0, 1.0, 2.0, 3.0), hand_stream=0)
    res = simulate_des(spec, total_calls=1000, seed=1)
    assert res.p_block == 0.0 and res.p_drop == 0.0
    assert res.elapsed == 0.0


def test_erlang_case_within_ci():
    # N=2 servers, 1 erlang offered: P_B = 0.2 exactly
    res = simulate_des(spec_for_erlang(1.0, 1.0, 2), total_calls=1_000_000, seed=42)
    assert res.block_ci[0] <= 0.2 <= res.block_ci[1]
    assert abs(res.p_block - 0.2) < 0.005


def test_des_matches_balance_solve_occupancy():
    lam, mu, k = 2.0, 1.0, 5
    res = simulate_des(spec_for_erlang(lam, mu, k), total_calls=400_000, seed=9)
    pi = balance_equation_solve([lam] * k, [(i + 1) * mu for i in range(k)])
    assert np.max(np.abs(res.state_time - pi)) < 0.01


TABLE61 = (
    TrafficClass(1, "rt", 25.0, arrival_share=0.35),
    TrafficClass(2, "rt", 128.0, arrival_share=0.10),
    TrafficClass(3, "rt", 56.0, arrival_share=0.05),
    TrafficClass(4, "nrt", 128.0, 0.4, 0.6, 0.15),
    TrafficClass(5, "nrt", 13.0, 0.2, 0.3, 0.10),
    TrafficClass(6, "nrt", 56.0, 0.2, 0.5, 0.15),
    TrafficClass(7, "nrt", 56.0, 0.5, 0.8, 0.10),
)


def test_ch6_analytic_inside_des_ci():
    params = Ch6QueueParams(lam_new=1.3, capacity=6000.0, classes=TABLE61,
                            eta=1 / 240.0)
    sol = solve_ch6(params, "proposed")
    spec = spec_for_ch6(params, sol.handover_rate, "proposed")
    res = simulate_des(spec, total_calls=600_000, seed=11)
    assert res.block_ci[0] <= sol.p_block <= res.block_ci[1]
    assert res.drop_ci[0] <= sol.p_drop <= res.drop_ci[1]


def test_two_tier_analytic_inside_des_ci():
    params = TwoTierParams(
        lambda_o_f=2.0, lambda_o_m=1.0, mu=1 / 120.0, eta_f=1 / 360.0,
        eta_m=1 / 240.0, n=1000, femto_capacity=4,
        macro_base_states=100, macro_adaptive_states=30,
        alpha=0.8, beta_prob=0.2)
    sol = solve_two_tier(params)

    macro = simulate_des(spec_for_two_tier_macro(params, sol), 400_000, seed=4)
    assert macro.block_ci[0] <= sol.macro.p_block <= macro.block_ci[1]
    assert macro.drop_ci[0] <= sol.macro.p_drop <= macro.drop_ci[1]

    femto = simulate_des(spec_for_two_tier_femto(params, sol), 400_000, seed=5)
    assert femto.block_ci[0] <= sol.femto.p_block <= femto.block_ci[1]


def test_ch7_analytic_inside_des_ci():
    params = Ch7QueueParams(sessions=12, n_states=40, s_states=8, l_states=4,
                            lam_new_voice=1.5, lam_new_unicast=0.3,
                            lam_new_background=1.2, lam_hand=0.9, mu=1 / 120.0)
    sol = solve_ch7(params)
    res = simulate_des(spec_for_ch7(params), total_calls=400_000, seed=21)
    assert res.drop_ci[0] <= sol.p_drop <= res.drop_ci[1]
    # per-stream: background (stream 0) blocks from N, voice/uni from N+L
    back = res.per_stream[0]
    vu = res.per_stream[1]
    assert back["ci"][0] <= sol.extra["P_B_background"] <= back["ci"][1]
    assert vu["ci"][0] <= sol.extra["P_B_voice"] <= vu["ci"][1]


def test_des_deterministic_per_seed():
    spec = spec_for_erlang(1.0, 1.0, 3)
    a = simulate_des(spec, 50_000, seed=123)
    b = simulate_des(spec, 50_000, seed=123)
    assert a.p_block == b.p_block and a.elapsed == b.elapsed
    c = simulate_des(spec, 50_000, seed=124)
    assert a.elapsed != c.elapsed


def _reference_chains():
    """name -> chain: Erlang cells that never and almost always reject, the
    five ch6 schemes at their fixed points, a ch7 cell and both two-tier
    chains."""
    chains = {"erlang-never": spec_for_erlang(0.01, 1.0, 8),
              "erlang-always": spec_for_erlang(1000.0, 1.0, 1)}
    ch6 = Ch6QueueParams(lam_new=1.3, capacity=6000.0, classes=TABLE61,
                         eta=1 / 240.0, guard_channels=5)
    for scheme in CH6_SCHEMES:
        (cell,) = ch6_cells(ch6, (scheme,))
        ((sol,),) = solve_ch6_sweep((cell,), [1.3])
        chains[f"ch6-{scheme}"] = cell.chain(1.3, sol.handover_rate)
    chains["ch7"] = spec_for_ch7(Ch7QueueParams(
        sessions=12, n_states=40, s_states=8, l_states=4, lam_new_voice=1.5,
        lam_new_unicast=0.3, lam_new_background=1.2, lam_hand=0.9, mu=1 / 120.0))
    two_tier = TwoTierParams(lambda_o_f=2.0, lambda_o_m=1.0, mu=1 / 120.0,
                             eta_f=1 / 360.0, eta_m=1 / 240.0, n=1000,
                             alpha=0.8, beta_prob=0.2)
    sol = solve_two_tier(two_tier)
    chains["two-tier-macro"] = spec_for_two_tier_macro(two_tier, sol)
    chains["two-tier-femto"] = spec_for_two_tier_femto(two_tier, sol)
    chains["zero-rate"] = LossChainSpec((0.0, 0.0), (2, 3), (0.0, 1.0, 2.0, 3.0),
                                        hand_stream=1)
    # the chain lives on states 2..6; the third stream's limit lies below
    # that floor, so the chain always rejects it
    chains["min-state-2"] = LossChainSpec(
        (0.9, 0.4, 0.2), (5, 6, 1), (0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5),
        new_streams=(0, 2), hand_stream=1, min_state=2)
    return chains


REFERENCE_CHAINS = _reference_chains()


# fewer calls than REPLICATIONS, an even split and uneven ones
REFERENCE_RUNS = [
    *((chain, n) for chain in sorted(REFERENCE_CHAINS) for n in (1, 7, 19, 20, 21, 20_000)),
    # 20k calls a replication: each spans several draw blocks
    ("ch7", 400_000)]


@pytest.mark.parametrize("chain, total_calls", REFERENCE_RUNS)
def test_simulate_des_matches_per_replication_list_bookkeeping(chain, total_calls):
    spec = REFERENCE_CHAINS[chain]
    got = simulate_des(spec, total_calls, seed=3)
    want = oracles.simulate_des(spec, total_calls, seed=3)
    for name in ("p_block", "p_drop", "block_ci", "drop_ci", "per_stream",
                 "elapsed", "replications"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert repr(got.state_time.tolist()) == repr(want.state_time.tolist())


@pytest.mark.parametrize("chain, total_calls", REFERENCE_RUNS)
def test_simulate_des_result_agrees_with_itself_and_its_chain(chain, total_calls):
    """Checks that need no second simulator: the counted calls add up to
    total_calls on a chain with arrivals, each probability is its pooled
    counts' ratio with a CI inside [0, 1], the state times are shares of
    the clock, and no time is spent below min_state or above the highest
    state an arriving call can reach."""
    spec = REFERENCE_CHAINS[chain]
    res = simulate_des(spec, total_calls, seed=3)
    assert res.replications == min(des.REPLICATIONS, total_calls)
    streams = res.per_stream
    assert len(streams) == len(spec.stream_rates)
    # a chain with no arrival rate walks nothing, so it counts no call
    arrives = sum(spec.stream_rates) > 0.0
    assert sum(s["seen"] for s in streams) == (total_calls if arrives else 0)
    for s, rate, limit in zip(streams, spec.stream_rates, spec.stream_limits):
        assert 0 <= s["rejected"] <= s["seen"]
        assert s["seen"] == 0 or rate > 0.0
        assert s["p_reject"] == (s["rejected"] / s["seen"] if s["seen"] else 0.0)
        assert 0.0 <= s["ci"][0] <= s["ci"][1] <= 1.0
        if limit < spec.min_state:  # the chain never lies below its limit
            assert s["rejected"] == s["seen"]
    new_seen = sum(streams[k]["seen"] for k in spec.new_streams)
    new_rejected = sum(streams[k]["rejected"] for k in spec.new_streams)
    assert res.p_block == (new_rejected / new_seen if new_seen else 0.0)
    assert 0.0 <= res.block_ci[0] <= res.block_ci[1] <= 1.0
    if len(spec.new_streams) == 1:
        assert res.block_ci == streams[spec.new_streams[0]]["ci"]
    hand = streams[spec.hand_stream]
    assert (res.p_drop, res.drop_ci) == (hand["p_reject"], hand["ci"])

    assert 0.0 <= res.elapsed < math.inf
    assert (res.state_time >= 0.0).all()
    if res.elapsed > 0.0:
        assert res.state_time.sum() == pytest.approx(1.0, rel=1e-9)
    else:
        assert not res.state_time.any()
    top = max([spec.min_state, *(limit for rate, limit in
                                 zip(spec.stream_rates, spec.stream_limits) if rate > 0.0)])
    assert not res.state_time[:spec.min_state].any()
    assert not res.state_time[top + 1:].any()


def test_simulate_des_makes_one_kernel_call(monkeypatch):
    calls = []

    def counting(name):
        entry = getattr(des, name)

        def call(*args):
            calls.append(name)
            return entry(*args)
        return call

    for name in ("run_loss_chain", "run_replications"):
        monkeypatch.setattr(des, name, counting(name))
    for spec in (REFERENCE_CHAINS["ch7"], REFERENCE_CHAINS["zero-rate"]):
        calls.clear()
        simulate_des(spec, 20_000, seed=3)
        assert calls == ["run_replications"]
