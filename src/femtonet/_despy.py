"""Pure-Python discrete-event kernel for birth-death loss chains.

The twin of the compiled loop in _lossloop.c: both draw the same splitmix64
stream (Steele, Lea & Flood, OOPSLA 2014) and take the same decisions from
the same float operations in the same order, so both backends return
bit-identical results and the compiled kernel is a drop-in speedup.  This
twin draws the stream ahead in numpy blocks.  Every event consumes exactly
two outputs, whatever the chain state, so the k-th output after `state` is
a pure function of k: the splitmix64 mix of (state + k * GAMMA) mod 2**64.

Each block then takes two passes.  The first, in Python, follows only the
chain state: it records the state at each event, tests whether the event
is an arrival, and picks the stream only at states where the stream limits
disagree on the move.  It iterates the block's move draws from an
array("d") copy of their bytes, which is cheaper to build than a list of
them, and counts the events it walks (an array iterator has no length
hint): that count places the counted events' draws in the block and sets
how far the RNG state advances.  Its arrival test is `v < thr[i]`, where thr[i] is
the least double t with t * rate_i not below the total arrival rate
(arrival_threshold): float rounding is monotone, so it holds exactly when
the C loop's `v * rate_i < lam_total` does.  The second pass, in numpy,
computes the time steps, the clocks and the per-stream counts from the
recorded path; it takes the block's logs in one call that runs libm's log,
as the C loop does (_libm_log), not one Python call per event.

The one entry, run_walks, is this kernel's walker, as run_walks in
_lossloop.c is the compiled one's.  It builds the chain's tables once and
runs every walk it is given, each its uncounted warm-up and its counted run
in one pass over its stream; warm-up events take pass 1 only, with no path
and no clocks.  It checks nothing: des.Kernel, the one front over both
walkers, checks the arguments with check_loss_chain and check_arrivals and
adds the walks up.
"""

from __future__ import annotations

import math
import operator
import struct
from array import array
from bisect import bisect_right

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_TWO53 = 9007199254740992.0  # 2**53
_GAMMA = 0x9E3779B97F4A7C15  # the splitmix64 state increment
# a block holds at most this many events' draws, so a long run keeps about
# 2.5 MB of draws and path at a time (traced peak), not two floats per event
_BLOCK_EVENTS = 16_384


def check_loss_chain(stream_rates, stream_limits, srv_rates,
                     start_state: int = 0, min_state: int = 0) -> None:
    """Reject a chain whose states or stream limits are not integers (numpy
    integers included), whose stream limits do not fit the compiled kernel's
    int64, that would index outside srv_rates, whose rates are
    negative or not finite, or whose total arrival rate, or that total plus
    a service rate (a state's event rate), is not finite: no draw would be
    an arrival there.  The sum grows with the service rate, so the largest
    one covers every state.  Returns the total arrival rate, summed in
    stream order as both walkers sum it."""
    if len(stream_limits) != len(stream_rates):
        raise ValueError("stream rate/limit length mismatch")
    _integer("min_state", min_state)
    _integer("start_state", start_state)
    for limit in stream_limits:
        _integer("a stream limit", limit)
    n_states = len(srv_rates)
    if not 0 <= min_state < n_states:
        raise ValueError(f"min_state must lie in [0, {n_states})")
    if not min_state <= start_state < n_states:
        raise ValueError(f"start_state must lie in [min_state, {n_states})")
    if stream_limits and max(stream_limits) >= n_states:
        raise ValueError(f"stream limits must be < {n_states} (len(srv_rates))")
    if stream_limits and min(stream_limits) < -2**63:  # ctypes would wrap it
        raise ValueError("stream limits must fit in 64 bits")
    check_rates((*stream_rates, *srv_rates))
    lam_total = 0.0
    for r in stream_rates:  # summed as _Tables and the C loop sum them
        lam_total += float(r)
    if lam_total == math.inf:
        raise ValueError("the total arrival rate of the streams is not finite")
    srv_max = float(max(srv_rates))
    if lam_total + srv_max == math.inf:
        raise ValueError(f"the total arrival rate {lam_total!r} plus the largest "
                         f"service rate {srv_max!r} is not finite")
    return lam_total


def check_arrivals(target_arrivals) -> int:
    """The arrival count as an int.  ValueError unless it is an integer
    (numpy integers included) that fits the compiled kernel's int64, so
    both backends reject 2.5, 1e5 and 2**64 alike."""
    count = _integer("the arrival count", target_arrivals)
    if not -2**63 <= count < 2**63:
        raise ValueError(f"the arrival count {count} does not fit in 64 bits")
    return count


def _integer(name: str, value) -> int:
    """value as an int; ValueError naming it unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_rates(rates) -> None:
    """Reject a rate that is negative or not finite."""
    for r in rates:  # a plain loop: every fixed-point iteration checks one rate
        if not 0.0 <= r < math.inf:
            raise ValueError("stream and service rates must be finite and >= 0")


def _uniforms(state: int, n_events: int) -> np.ndarray:
    """The 2 * n_events splitmix64 outputs after `state`, as uniforms in
    [0, 1): an event's first output sets its time step, its second picks
    its move.

    numpy uint64 arithmetic wraps mod 2**64 like the C kernel's, and
    (z >> 11) / 2**53 is exact in float64."""
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
    NaN, and no draw is an arrival, so check_loss_chain rejects such a
    chain."""
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
    """A chain's per-state and per-stream tables, built once per run_walks call.

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
        thr, event_rates = c.thr, c.event_rates
        cum_rates, limits, min_state = c.cum_rates, c.limits, c.min_state
        admit_all, reject_all = c.admit_all, c.reject_all
        # a chain in balance takes about two events per arrival
        n_events = min(2 * (warm + remaining) + 64, _BLOCK_EVENTS)
        u = _uniforms(state, n_events)
        # the picks' iterator has no length hint, so the loops count the
        # events they walk
        picks = iter(array("d", u[1::2].tobytes()))
        walked = 0
        # warm-up: pass 1 only, until the last uncounted arrival
        if warm:
            for walked, v in enumerate(picks, 1):
                if v < thr[i]:
                    if i < admit_all:
                        i += 1
                    elif i < reject_all and i < limits[bisect_right(cum_rates, v * event_rates[i])]:
                        i += 1
                    warm -= 1
                    if not warm:
                        break
                elif i > min_state:
                    i -= 1
        if not warm and remaining:
            # pass 1: the chain state at each counted event, in Python
            first = walked
            path = []
            append = path.append
            for v in picks:
                append(i)
                if v < thr[i]:
                    if i < admit_all:
                        i += 1
                    elif i < reject_all and i < limits[bisect_right(cum_rates, v * event_rates[i])]:
                        i += 1
                    remaining -= 1
                    if not remaining:
                        break
                elif i > min_state:
                    i -= 1
            walked += len(path)
            if path:
                elapsed = _clocks(c, u[2 * first:2 * walked], path, elapsed,
                                  time_in_state, seen, rejected)
        state = (state + 2 * walked * _GAMMA) & _MASK
    return elapsed, i, state


def _libm_log(x: np.ndarray) -> np.ndarray:
    """log(x) elementwise, bit for bit as libm's log (math.log, and the C
    loop's log) gives it, in one numpy call.

    On float64 arrays np.log runs its own SIMD routine (AVX-512 on x86-64
    with numpy 2.4), which differs from libm's log in the last bit on about
    0.4% of the kernel's draws.  It takes that routine whenever input and
    output run through memory in one direction (numpy turns two reversed
    operands into forward ones).  The reversed view of x is read backwards
    while np.log writes its new output forwards, so no such turn exists and
    np.log runs its scalar loop, which calls libm's log.  The second
    reversal puts the result back in x's order.  A Tier-1 test holds this
    to math.log over a million draws, so a numpy whose dispatch differs
    fails it."""
    return np.log(x[::-1])[::-1]


def _clocks(c: _Tables, u, path, elapsed: float, time_in_state, seen, rejected) -> float:
    """Pass 2: the time steps, clocks and counts of the events of `path`,
    whose draws are u, in numpy, with the C loop's float operations in its
    order.  Returns the clock after them.  The logs come from _libm_log, in
    one call per block, and equal libm's log bit for bit, as the C loop's
    do.  np.add.at and np.add.accumulate add in event order."""
    used = len(path)
    at = np.fromiter(path, np.intp, used)
    rates = c.rate_of[at]
    steps = np.empty(used + 1)  # the clock so far, then each time step
    steps[0] = elapsed
    logs = _libm_log(1.0 - u[0::2])
    with np.errstate(over="ignore"):  # a clock past the largest double is inf, as in C
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


def run_walks(seeds, starts, warmups, counts, stream_rates, stream_limits, srv_rates,
              min_state: int):
    """Walk r starts at chain state starts[r] from RNG state seeds[r], runs
    warmups[r] uncounted arrivals and then counts[r] counted ones.  Returns
    (seen, rejected, time_in_state, ends): the counted arrivals and
    rejections, (walks x streams) int64 arrays; the counted events' clocks,
    a (walks x states) array; and per walk, (elapsed time of the counted
    events, final chain state, final RNG state).  Checks nothing: every
    count is >= 0, and 0 unless the stream rates sum above 0."""
    c = _Tables(stream_rates, stream_limits, srv_rates, min_state)
    seen = np.zeros((len(seeds), c.n_streams), dtype=np.int64)
    rejected = np.zeros((len(seeds), c.n_streams), dtype=np.int64)
    time_in_state = np.zeros((len(seeds), c.n_states))
    ends = [_walk(c, *walk, time_in_state[r], seen[r], rejected[r])
            for r, walk in enumerate(zip(seeds, starts, warmups, counts))]
    return seen, rejected, time_in_state, ends
