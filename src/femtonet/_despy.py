"""Pure-Python discrete-event kernel for birth-death loss chains.

The reference for the compiled loop in _lossloop.c, which mirrors it
operation for operation (same splitmix64 stream, same arithmetic order), so
both backends produce bit-identical results and the compiled kernel is a
drop-in speedup.
"""

from __future__ import annotations

import math

_MASK = 0xFFFFFFFFFFFFFFFF
_TWO53 = 9007199254740992.0  # 2**53


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = z ^ (z >> 31)
    return state, z


def check_loss_chain(stream_rates, stream_limits, srv_rates,
                     start_state: int = 0, min_state: int = 0) -> None:
    """Reject a chain that would index outside srv_rates, or whose rates are
    negative or not finite.  Both backends call this before simulating."""
    if len(stream_limits) != len(stream_rates):
        raise ValueError("stream rate/limit length mismatch")
    n_states = len(srv_rates)
    if min_state < 0:
        raise ValueError("min_state must be >= 0")
    if not min_state <= start_state < n_states:
        raise ValueError(f"start_state must lie in [min_state, {n_states})")
    if stream_limits and max(stream_limits) >= n_states:
        raise ValueError(f"stream limits must be < {n_states} (len(srv_rates))")
    check_rates((*stream_rates, *srv_rates))


def check_rates(rates) -> None:
    """Reject a rate that is negative or not finite."""
    if not all(0.0 <= r < math.inf for r in rates):
        raise ValueError("stream and service rates must be finite and >= 0")


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
    n_streams = len(stream_rates)
    n_states = len(srv_rates)
    time_in_state = [0.0] * n_states
    seen = [0] * n_streams
    rejected = [0] * n_streams
    lam_total = 0.0
    for r in stream_rates:
        lam_total += float(r)
    if lam_total <= 0.0 or target_arrivals <= 0:
        return seen, rejected, time_in_state, 0.0, start_state, seed & _MASK

    rates = [float(r) for r in stream_rates]
    limits = [int(x) for x in stream_limits]
    srv = [float(s) for s in srv_rates]
    state = seed & _MASK
    i = start_state
    elapsed = 0.0
    arrivals = 0
    log = math.log

    while arrivals < target_arrivals:
        rate = lam_total + srv[i]
        state, z = _splitmix64(state)
        u = (z >> 11) / _TWO53
        dt = -log(1.0 - u) / rate
        time_in_state[i] += dt
        elapsed += dt

        state, z = _splitmix64(state)
        pick = ((z >> 11) / _TWO53) * rate
        if pick < lam_total:
            arrivals += 1
            acc = 0.0
            for k in range(n_streams):
                acc += rates[k]
                if pick < acc:
                    seen[k] += 1
                    if i < limits[k]:
                        i += 1
                    else:
                        rejected[k] += 1
                    break
        else:
            if i > min_state:
                i -= 1

    return seen, rejected, time_in_state, elapsed, i, state
