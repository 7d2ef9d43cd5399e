"""Pure-Python discrete-event kernel for birth-death loss chains.

The twin of the compiled loop in _lossloop.c: both draw the same splitmix64
stream (Steele, Lea & Flood, OOPSLA 2014) and do the same float operations
on the same operands in the same order, so both backends return
bit-identical results and the compiled kernel is a drop-in speedup.  This
twin draws the stream ahead in numpy blocks.  Every event consumes exactly
two outputs, whatever the chain state, so the k-th output after `state` is
a pure function of k: the splitmix64 mix of (state + k * GAMMA) mod 2**64.

Each block then takes two passes.  The first, in Python, follows only the
chain state: it records the state at each event, tests whether the event
is an arrival, and picks the stream only at states where the stream limits
disagree on the move.  The second, in numpy, computes the time steps, the
clocks and the per-stream counts from the recorded path.
"""

from __future__ import annotations

import math
import operator
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
    """Reject a chain that would index outside srv_rates, or whose rates are
    negative or not finite.  Both backends call this before simulating."""
    if len(stream_limits) != len(stream_rates):
        raise ValueError("stream rate/limit length mismatch")
    n_states = len(srv_rates)
    if not 0 <= min_state < n_states:
        raise ValueError(f"min_state must lie in [0, {n_states})")
    if not min_state <= start_state < n_states:
        raise ValueError(f"start_state must lie in [min_state, {n_states})")
    if stream_limits and max(stream_limits) >= n_states:
        raise ValueError(f"stream limits must be < {n_states} (len(srv_rates))")
    check_rates((*stream_rates, *srv_rates))


def check_arrivals(target_arrivals) -> int:
    """The arrival count as an int.  ValueError unless it is an integer
    (numpy integers included) that fits the compiled kernel's int64, so
    both backends reject 2.5, 1e5 and 2**64 alike."""
    try:
        count = operator.index(target_arrivals)
    except TypeError:
        raise ValueError(f"the arrival count must be an integer, "
                         f"got {target_arrivals!r}") from None
    if not -2**63 <= count < 2**63:
        raise ValueError(f"the arrival count {count} does not fit in 64 bits")
    return count


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


def run_loss_chain(
    seed: int,
    target_arrivals: int,
    stream_rates,
    stream_limits,
    srv_rates,
    start_state: int = 0,
    min_state: int = 0,
):
    """Simulate a loss chain until `target_arrivals` calls have arrived.

    State i holds i calls and departs at total rate srv_rates[i].  Each
    arrival stream k is Poisson at stream_rates[k] and admitted only while
    the state is below stream_limits[k].  Returns (seen per stream,
    rejected per stream, time_in_state list, elapsed time, final chain
    state, final RNG state) so a run can be resumed, e.g. after a warmup.
    """
    check_loss_chain(stream_rates, stream_limits, srv_rates, start_state, min_state)
    remaining = check_arrivals(target_arrivals)
    n_streams = len(stream_rates)
    # the running sums by which an arrival picks its stream; the last is
    # the total arrival rate
    cum_rates = []
    lam_total = 0.0
    for r in stream_rates:
        lam_total += float(r)
        cum_rates.append(lam_total)
    if lam_total <= 0.0 or remaining <= 0:
        return ([0] * n_streams, [0] * n_streams, [0.0] * len(srv_rates), 0.0,
                start_state, seed & _MASK)

    limits = [int(x) for x in stream_limits]
    # below every limit an arrival is admitted, at or above all it is
    # rejected; only in between does the picked stream decide
    admit_all, reject_all = min(limits), max(limits)
    event_rates = [lam_total + float(s) for s in srv_rates]
    # the Python pass indexes the lists, the numpy pass these arrays
    rate_of = np.array(event_rates)
    cum_of = np.array(cum_rates)
    limit_of = np.array(limits)
    time_in_state = np.zeros(len(event_rates))
    seen = np.zeros(n_streams, dtype=np.int64)
    rejected = np.zeros(n_streams, dtype=np.int64)
    state = seed & _MASK
    i = start_state
    elapsed = 0.0

    while remaining:
        # a chain in balance takes about two events per arrival
        n_events = min(2 * remaining + 64, _BLOCK_EVENTS)
        u = _uniforms(state, n_events)
        # pass 1: the chain state at each event, in Python
        path = []
        append = path.append
        for v in u[1::2].tolist():
            append(i)
            rate = event_rates[i]
            if v * rate < lam_total:
                if i < admit_all:
                    i += 1
                elif i < reject_all and i < limits[bisect_right(cum_rates, v * rate)]:
                    i += 1
                remaining -= 1
                if not remaining:
                    break
            elif i > min_state:
                i -= 1
        used = len(path)
        state = (state + 2 * used * _GAMMA) & _MASK

        # pass 2: clocks and counts from the path, in numpy, with the same
        # float operations in the same order.  The log is math.log, element
        # by element: np.log differs from libm's in the last bit on some
        # inputs.  np.add.at and np.add.accumulate add in event order.
        at = np.fromiter(path, np.intp, used)
        rates = rate_of[at]
        steps = np.empty(used + 1)  # the clock so far, then each time step
        steps[0] = elapsed
        logs = np.fromiter(map(math.log, (1.0 - u[0:2 * used:2]).tolist()),
                           np.float64, used)
        np.divide(np.negative(logs, out=logs), rates, out=steps[1:])
        np.add.at(time_in_state, at, steps[1:])
        elapsed = float(np.add.accumulate(steps)[-1])
        picks = u[1:2 * used:2] * rates
        arrived = picks < lam_total
        # each arrival's stream, as bisect_right finds it, and whether the
        # chain stood at or above that stream's limit
        k = cum_of.searchsorted(picks[arrived], side="right")
        seen += np.bincount(k, minlength=n_streams)
        rejected += np.bincount(k[at[arrived] >= limit_of[k]], minlength=n_streams)

    return (seen.tolist(), rejected.tolist(), time_in_state.tolist(), elapsed, i,
            state)
