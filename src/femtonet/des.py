"""Discrete-event simulation oracle for the analytic chains.

The kernel's walker, _despy.run_walks, runs a list of walks, each from its
own chain and RNG state, and checks nothing.  The two entries here check
the arguments and call it: run_loss_chain (one walk) and run_replications
(one walk per replication, its clocks added up in replication order).
simulate_des makes one run_replications call per estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import _despy
from .queueing import (
    Ch6QueueParams,
    LossChainSpec,
    TwoTierParams,
    TwoTierSolution,
    ch6_cells,
    ch7_chain,
)


def _walked(count: int, lam_total: float) -> int:
    """The counted arrivals a walk asks for: none below 1, and none on a
    chain with no arrivals, where no draw is one."""
    return count if count > 0 and lam_total > 0.0 else 0


def run_loss_chain(seed, target_arrivals, stream_rates, stream_limits, srv_rates,
                   start_state=0, min_state=0):
    """Simulate a loss chain until `target_arrivals` calls have arrived.

    State i holds i calls and departs at total rate srv_rates[i].  Each
    arrival stream k is Poisson at stream_rates[k] and admitted only while
    the state is below stream_limits[k].  Returns (seen per stream, rejected
    per stream, time_in_state list, elapsed time, final chain state, final
    RNG state) so a run can be resumed, e.g. after a warmup."""
    lam_total = _despy.check_loss_chain(stream_rates, stream_limits, srv_rates,
                                        start_state, min_state)
    count = _walked(_despy.check_arrivals(target_arrivals), lam_total)
    seen, rejected, tis, ((elapsed, chain, state),) = _despy.run_walks(
        [seed & _despy._MASK], [start_state], [0], [count], stream_rates,
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
    lam_total = _despy.check_loss_chain(stream_rates, stream_limits, srv_rates,
                                        min_state, min_state)
    if not len(seeds) == len(warmups) == len(counts):
        raise ValueError("need one seed, warm-up and call count per replication")
    seeds = [int(s) & _despy._MASK for s in seeds]
    warmups = [_despy.check_arrivals(n) for n in warmups]
    counts = [_walked(_despy.check_arrivals(n), lam_total) for n in counts]
    warmups = [max(warm, 0) if calls else 0 for warm, calls in zip(warmups, counts)]
    seen, rejected, tis, ends = _despy.run_walks(seeds, [min_state] * len(seeds), warmups,
                                                 counts, stream_rates, stream_limits,
                                                 srv_rates, min_state)
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
    total_calls = _despy.check_arrivals(total_calls)
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
