"""Discrete-event simulation oracle for the analytic chains.

The kernel draws the splitmix64 stream (Steele, Lea & Flood, OOPSLA 2014)
ahead in numpy blocks.  Every event consumes exactly two outputs, whatever
the chain state, so the k-th output after `state` is a pure function of k:
the splitmix64 mix of (state + k * GAMMA) mod 2**64.  The stream, the float
operations and their order pin every DesResult and every des-oracle digest
of the benchmark bit for bit, so none of them may change.

Each block then takes two passes.  The first, in Python, follows only the
chain state: it records the state at each event, tests whether the event
is an arrival, and picks the stream only at states where the stream limits
disagree on the move.  It iterates the block's move draws from an
array("d") copy of their bytes, which is cheaper to build than a list of
them; its path's length counts the events it walks (an array iterator
has no length hint), which places the counted events' draws in the block
and sets how far the RNG state advances.  Its arrival test is
`v < thr[i]`, where thr[i] is the least double t with t * rate_i not below
the total arrival rate (arrival_threshold): float rounding is monotone, so
it holds exactly when `v * rate_i < lam_total` does, the product that
picks the stream.  The second pass, in numpy, computes the time steps, the
clocks and the per-stream counts from the recorded path; it takes the
block's logs in one call that runs libm's log (_checks.libm), not one
Python call per event.

The walker, _walks, builds the chain's tables once and runs every walk it
is given, each its uncounted warm-up and its counted run in one pass over
its stream, both through pass 1, _moves; the warm-up takes no pass 2.
It owns the walk rules and checks nothing.  The two entries check the
arguments (the chain rules live beside LossChainSpec, in queueing) and call
it: run_loss_chain (one walk) and run_replications (one walk per
replication, its clocks added up in replication order).  simulate_des makes
one run_replications call per estimate.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._checks import integer, libm
from .queueing import (
    Ch6QueueParams,
    LossChainSpec,
    TwoTierParams,
    TwoTierSolution,
    ch6_cells,
    ch7_chain,
    check_loss_chain,
)

_MASK = 0xFFFFFFFFFFFFFFFF
_TWO53 = 9007199254740992.0  # 2**53
_GAMMA = 0x9E3779B97F4A7C15  # the splitmix64 state increment
# a block holds at most this many events' draws, so a long run keeps about
# 2.5 MB of draws and path at a time (traced peak), not two floats per event
_BLOCK_EVENTS = 16_384


def check_arrivals(target_arrivals) -> int:
    """The arrival count as an int.  ValueError unless it is an integer
    (numpy integers included) that fits in an int64, the type of the
    walker's seen and rejected counts, so 2.5, 1e5 and 2**64 are rejected
    by name."""
    count = integer("the arrival count", target_arrivals)
    if not -2**63 <= count < 2**63:
        raise ValueError(f"the arrival count {count} does not fit in 64 bits")
    return count


def _uniforms(state: int, n_events: int) -> np.ndarray:
    """The 2 * n_events splitmix64 outputs after `state`, as uniforms in
    [0, 1): an event's first output sets its time step, its second picks
    its move.

    numpy uint64 arithmetic wraps mod 2**64, as splitmix64 is defined, and
    (z >> 11) / 2**53 is exact in float64, so every draw, and with it every
    DesResult and des-oracle digest, is fixed by the seed."""
    z = np.arange(1, 2 * n_events + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64)
    u /= _TWO53
    return u


def arrival_threshold(lam_total: float, rate: float) -> float:
    """The least double t for which t * rate < lam_total fails, given
    0 < lam_total <= rate.

    For any v, v < t then holds exactly when v * rate < lam_total: float
    multiplication by rate is monotone in v.  lam_total / rate lies within
    a few ulps of t, so a few nextafter steps find it, except when
    lam_total is subnormal: its products round so coarsely that t can lie
    up to 2**51 ulps away, and a bisection over the bit patterns of the
    doubles >= 0 (which order as their values do) finds it instead.  An
    infinite rate (lam_total + srv overflowing) gives 0.0: 0.0 * inf is
    NaN, and no draw is an arrival, so queueing.check_loss_chain rejects
    such a chain."""
    t = lam_total / rate
    up = t * rate < lam_total  # the threshold lies above t
    toward = math.inf if up else -math.inf
    for _ in range(4):
        step = math.nextafter(t, toward)
        if (step * rate < lam_total) != up:
            return step if up else t
        t = step
    # bisect between a draw that is an arrival (lo) and one that is not
    # (hi); a draw of 0.0 is one, as rate is finite here
    if up:
        above = 2.0 * t + math.ulp(0.0)
        while above * rate < lam_total:
            above *= 2.0
        lo, hi = _bits(t), _bits(above)
    else:
        lo, hi = 0, _bits(t)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _double(mid) * rate < lam_total:
            lo = mid
        else:
            hi = mid
    return _double(hi)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


class _Tables:
    """A chain's per-state and per-stream tables, built once per _walks call.

    cum_rates are the running sums by which an arrival picks its stream;
    the last is the total arrival rate lam_total.  Below every limit an
    arrival is admitted and at or above all it is rejected, so only in
    between does the picked stream decide the move.  The Python pass
    indexes the lists, the numpy pass the arrays."""

    def __init__(self, stream_rates, stream_limits, srv_rates, min_state: int):
        self.cum_rates = []
        lam_total = 0.0
        for r in stream_rates:
            lam_total += float(r)
            self.cum_rates.append(lam_total)
        self.lam_total = lam_total
        self.min_state = min_state
        self.n_streams, self.n_states = len(stream_rates), len(srv_rates)
        if lam_total <= 0.0:
            return  # no event is ever drawn
        self.limits = [int(x) for x in stream_limits]
        self.admit_all, self.reject_all = min(self.limits), max(self.limits)
        self.event_rates = [lam_total + float(s) for s in srv_rates]
        self.thr = [arrival_threshold(lam_total, rate) for rate in self.event_rates]
        self.rate_of = np.array(self.event_rates)
        self.cum_of = np.array(self.cum_rates)
        self.limit_of = np.array(self.limits)


def _moves(c: _Tables, picks, i: int, arrivals: int) -> tuple[int, int, list[int]]:
    """Pass 1: walk chain state i over the event picks, in Python, until
    `arrivals` arrivals have been walked or the picks run out.  Returns
    (final chain state, arrivals left, path), the path holding the chain
    state at each event walked."""
    thr, event_rates = c.thr, c.event_rates
    cum_rates, limits, min_state = c.cum_rates, c.limits, c.min_state
    admit_all, reject_all = c.admit_all, c.reject_all
    path = []
    append = path.append
    for v in picks:
        append(i)
        if v < thr[i]:
            if i < admit_all:
                i += 1
            elif i < reject_all and i < limits[bisect_right(cum_rates, v * event_rates[i])]:
                i += 1
            arrivals -= 1
            if not arrivals:
                break
        elif i > min_state:
            i -= 1
    return i, arrivals, path


def _walk(c: _Tables, state: int, i: int, warm: int, remaining: int,
          time_in_state, seen, rejected) -> tuple[float, int, int]:
    """Run `warm` uncounted arrivals and then `remaining` counted ones from
    RNG state `state` and chain state i; c.lam_total > 0 unless both counts
    are 0, as the tables are read only once there is an event.  The counted
    events add their time steps to time_in_state and their arrivals and
    rejections per stream to seen and rejected, in place.  Returns (elapsed
    time of the counted events, final chain state, final RNG state)."""
    elapsed = 0.0
    while warm or remaining:
        # a chain in balance takes about two events per arrival
        n_events = min(2 * (warm + remaining) + 64, _BLOCK_EVENTS)
        u = _uniforms(state, n_events)
        # one iterator of the picks serves the warm-up and then the counted run
        picks = iter(array("d", u[1::2].tobytes()))
        walked = 0
        if warm:
            i, warm, path = _moves(c, picks, i, warm)
            walked = len(path)
        if not warm and remaining:
            i, remaining, path = _moves(c, picks, i, remaining)
            if path:
                elapsed = _clocks(c, u[2 * walked:2 * (walked + len(path))], path, elapsed,
                                  time_in_state, seen, rejected)
            walked += len(path)
        state = (state + 2 * walked * _GAMMA) & _MASK
    return elapsed, i, state


def _clocks(c: _Tables, u, path, elapsed: float, time_in_state, seen, rejected) -> float:
    """Pass 2: the time steps, clocks and counts of the events of `path`,
    whose draws are u, in numpy, with one event's float operations after
    another's, as scalar code would order them.  Returns the clock after
    them.  The logs come from `libm(np.log, ...)`, in one call per block,
    and equal libm's log bit for bit.  np.add.at and np.add.accumulate add
    in event order, so every DesResult and des-oracle digest stays fixed."""
    used = len(path)
    at = np.fromiter(path, np.intp, used)
    rates = c.rate_of[at]
    steps = np.empty(used + 1)  # the clock so far, then each time step
    steps[0] = elapsed
    logs = libm(np.log, 1.0 - u[0::2])
    with np.errstate(over="ignore"):  # a clock past the largest double is inf
        np.divide(np.negative(logs, out=logs), rates, out=steps[1:])
        np.add.at(time_in_state, at, steps[1:])
        clock = float(np.add.accumulate(steps)[-1])
    picks = u[1::2] * rates
    arrived = picks < c.lam_total
    # each arrival's stream, as bisect_right finds it, and whether the
    # chain stood at or above that stream's limit
    k = c.cum_of.searchsorted(picks[arrived], side="right")
    seen += np.bincount(k, minlength=c.n_streams)
    rejected += np.bincount(k[at[arrived] >= c.limit_of[k]], minlength=c.n_streams)
    return clock


def _walks(seeds, starts, warmups, counts, stream_rates, stream_limits, srv_rates,
           min_state: int):
    """Walk r starts at chain state starts[r] from RNG state seeds[r] mod
    2**64, runs warmups[r] uncounted arrivals (none below 1) and then
    counts[r] counted ones.  A walk with no counted call, and every walk of
    a chain with no arrivals, where no draw is one, walks nothing, not even
    its warm-up.  Returns (seen, rejected, time_in_state, ends): the counted
    arrivals and rejections, (walks x streams) int64 arrays; the counted
    events' clocks, a (walks x states) array; and per walk, (elapsed time of
    the counted events, final chain state, final RNG state)."""
    c = _Tables(stream_rates, stream_limits, srv_rates, min_state)
    seen = np.zeros((len(seeds), c.n_streams), dtype=np.int64)
    rejected = np.zeros((len(seeds), c.n_streams), dtype=np.int64)
    time_in_state = np.zeros((len(seeds), c.n_states))
    ends = []
    for r, (seed, start, warm, count) in enumerate(zip(seeds, starts, warmups, counts)):
        if count > 0 and c.lam_total > 0.0:
            ends.append(_walk(c, seed & _MASK, start, max(warm, 0), count,
                              time_in_state[r], seen[r], rejected[r]))
        else:
            ends.append((0.0, start, seed & _MASK))
    return seen, rejected, time_in_state, ends


def run_loss_chain(seed, target_arrivals, stream_rates, stream_limits, srv_rates,
                   start_state=0, min_state=0):
    """Simulate a loss chain until `target_arrivals` calls have arrived.

    State i holds i calls and departs at total rate srv_rates[i].  Each
    arrival stream k is Poisson at stream_rates[k] and admitted only while
    the state is below stream_limits[k].  Returns (seen per stream, rejected
    per stream, time_in_state list, elapsed time, final chain state, final
    RNG state) so a run can be resumed, e.g. after a warmup."""
    check_loss_chain(stream_rates, stream_limits, srv_rates, start_state, min_state)
    count = check_arrivals(target_arrivals)
    seen, rejected, tis, ((elapsed, chain, state),) = _walks(
        [integer("seed", seed)], [start_state], [0], [count], stream_rates,
        stream_limits, srv_rates, min_state)
    return seen[0].tolist(), rejected[0].tolist(), tis[0].tolist(), elapsed, chain, state


def run_replications(seeds, warmups, counts, stream_rates, stream_limits, srv_rates,
                     min_state=0):
    """Every replication of one estimate in one walker call.

    Replication r starts at min_state from RNG state seeds[r], runs
    warmups[r] uncounted arrivals and then counts[r] counted ones: the same
    stream and result as a run_loss_chain warm-up resumed by a counted
    run_loss_chain.  A replication with no counted call is not walked, so it
    walks no warm-up either.  Returns (seen, rejected), (replications x
    streams) int64 arrays of the counted arrivals and rejections, and the
    time_in_state array and elapsed time of the counted events, each
    replication's own sums added up in replication order."""
    check_loss_chain(stream_rates, stream_limits, srv_rates, min_state, min_state)
    if not len(seeds) == len(warmups) == len(counts):
        raise ValueError("need one seed, warm-up and call count per replication")
    seeds = [integer("seed", s) for s in seeds]
    warmups = [check_arrivals(n) for n in warmups]
    counts = [check_arrivals(n) for n in counts]
    seen, rejected, tis, ends = _walks(seeds, [min_state] * len(seeds), warmups, counts,
                                       stream_rates, stream_limits, srv_rates, min_state)
    tis_tot, elapsed_tot = np.zeros(len(srv_rates)), 0.0
    with np.errstate(over="ignore"):  # a clock past the largest double is inf
        for row, (elapsed, _, _) in zip(tis, ends):
            tis_tot += row
            elapsed_tot += elapsed
    return seen, rejected, tis_tot, elapsed_tot


# the kernel's name, which perfbench's run context records; it waits for
# ROADMAP item 1A to drop that read
BACKEND = "pure-python"


def kernel_backends() -> dict[str, SimpleNamespace]:
    """The one kernel by name, its entry's run_loss_chain this module's.
    perfbench times that entry; this waits for ROADMAP item 1A to drop the
    read."""
    return {BACKEND: SimpleNamespace(run_loss_chain=run_loss_chain)}


@dataclass
class DesResult:
    p_block: float
    p_drop: float
    block_ci: tuple[float, float]
    drop_ci: tuple[float, float]
    state_time: np.ndarray
    per_stream: list[dict]
    elapsed: float
    replications: int


# two-sided 95% Student-t quantiles by degrees of freedom; _t95 reads the
# row at or below df, which is never narrower than the true quantile
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
        13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
        19: 2.093, 20: 2.086, 24: 2.064, 29: 2.045, 39: 2.023, 59: 2.001}


def _t95(df: int) -> float:
    if df <= 0:
        return float("inf")
    return _T95[max(key for key in _T95 if key <= df)]


def _mean_ci(samples: np.ndarray, successes: int,
             trials: int) -> tuple[float, float]:
    """95% CI of the mean from independent replications (Student t).

    Degenerate replication sets (every replication saw no event, or only
    events) fall back to exact binomial bounds on the pooled counts, so a
    tiny true probability is still covered."""
    b = len(samples)
    if b < 2:
        return (0.0, 1.0)
    std = float(samples.std(ddof=1))
    if std == 0.0:
        if successes == 0:
            return (0.0, 1.0 - 0.025 ** (1.0 / trials))
        if successes == trials:
            return (0.025 ** (1.0 / trials), 1.0)
        p = successes / trials
        slop = 3.7 / trials
        return (max(0.0, p - slop), min(1.0, p + slop))
    mean = float(samples.mean())
    half = _t95(b - 1) * std / math.sqrt(b)
    return (max(0.0, mean - half), min(1.0, mean + half))


# simulate_des splits its calls over at most this many replications; each
# first simulates this fraction of its own call count as an uncounted warm-up
REPLICATIONS = 20
WARMUP = 0.05


def simulate_des(spec: LossChainSpec, total_calls: int = 1_000_000,
                 seed: int = 0) -> DesResult:
    """Simulate the chain until exactly `total_calls` arrivals are counted,
    split over min(REPLICATIONS, total_calls) independent replications; the
    first total_calls % replications of them count one call more than the
    rest.

    Blocking/dropping fractions of consecutive arrivals are autocorrelated,
    so confidence intervals come from the replication means (Student t),
    not from a binomial fit.  Each replication first simulates a warm-up of
    a WARMUP fraction of its own call count, which it does not count.  One
    kernel call runs every replication.
    """
    total_calls = check_arrivals(total_calls)
    if total_calls < 1:
        raise ValueError("total_calls must be >= 1")
    replications = min(REPLICATIONS, total_calls)
    per_rep, longer = divmod(total_calls, replications)
    rep_seeds = np.random.SeedSequence(seed).generate_state(replications, dtype=np.uint64)

    counts = [per_rep + (r < longer) for r in range(replications)]
    # row r of seen and rejected holds replication r's counted arrivals and
    # rejections per stream
    seen, rejected, tis_tot, elapsed_tot = run_replications(
        rep_seeds.tolist(), [int(WARMUP * calls) for calls in counts], counts,
        spec.stream_rates, spec.stream_limits, spec.srv_rates, spec.min_state)
    if math.isinf(elapsed_tot):
        raise ValueError("the simulated time overflowed to inf: the chain's event "
                         "rates are too small for a finite clock")
    n_streams = len(spec.stream_rates)

    def pooled(streams):
        """(seen, rejected, rejected fraction, CI) of the calls of `streams`,
        pooled over the replications; the CI is over the replications that
        saw at least one of those calls."""
        rep_seen = seen[:, streams].sum(axis=1)
        rep_rej = rejected[:, streams].sum(axis=1)
        n_seen, n_rej = int(rep_seen.sum()), int(rep_rej.sum())
        saw = rep_seen > 0
        return (n_seen, n_rej, n_rej / n_seen if n_seen else 0.0,
                _mean_ci(rep_rej[saw] / rep_seen[saw], n_rej, n_seen))

    *_, p_block, block_ci = pooled(list(spec.new_streams))
    *_, p_drop, drop_ci = pooled([spec.hand_stream])
    per_stream = [dict(zip(("seen", "rejected", "p_reject", "ci"), pooled([k])))
                  for k in range(n_streams)]
    return DesResult(
        p_block=p_block, p_drop=p_drop, block_ci=block_ci, drop_ci=drop_ci,
        state_time=tis_tot / elapsed_tot if elapsed_tot > 0 else tis_tot,
        per_stream=per_stream, elapsed=elapsed_tot, replications=replications)


# -- model-specific chain specs ----------------------------------------------


def spec_for_erlang(lam: float, mu: float, servers: int) -> LossChainSpec:
    return LossChainSpec(
        stream_rates=(lam,), stream_limits=(servers,),
        srv_rates=tuple(i * mu for i in range(servers + 1)),
        new_streams=(0,), hand_stream=0)


def spec_for_ch6(params: Ch6QueueParams, lam_hand: float,
                 scheme: str = "proposed") -> LossChainSpec:
    """Chain matching solve_ch6's converged model; the handover stream is
    exogenous Poisson at the converged rate.  A solution's own spec is the
    same chain, without building the cell a second time."""
    return ch6_cells(params, (scheme,))[0].chain(params.lam_new, lam_hand)


spec_for_ch7 = ch7_chain  # the MBS cell chain has no fixed point


def spec_for_two_tier_macro(params: TwoTierParams,
                            solution: TwoTierSolution) -> LossChainSpec:
    """The macrocell chain that solve_two_tier(params) evaluated last."""
    return solution.macro.spec


def spec_for_two_tier_femto(params: TwoTierParams,
                            solution: TwoTierSolution) -> LossChainSpec:
    """One femtocell of the layer (K servers, no handover priority), as
    solve_two_tier(params) built it last."""
    return solution.femto.spec
