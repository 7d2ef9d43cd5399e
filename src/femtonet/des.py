"""Discrete-event simulation oracle for the analytic chains.

The hot event loop is the C function in _lossloop.c, called through ctypes
when `python setup.py build_ext --inplace` (or an install) has built it; the
pure-Python twin in _despy, which draws the identical random stream in numpy
blocks, runs otherwise.  simulate_des makes one kernel call per estimate:
run_replications runs every replication, its warm-up included.
"""

from __future__ import annotations

import ctypes
import importlib.util
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


def load_compiled(path: str) -> SimpleNamespace:
    """Bind the event loops of the shared library built from _lossloop.c.

    The result's run_loss_chain and run_replications have the signatures,
    validation and return values of _despy's.  The arguments go to C as
    ctypes arrays filled from the Python values, with no numpy conversion
    or per-argument array check."""
    f64, i64, u64 = ctypes.c_double, ctypes.c_int64, ctypes.c_uint64
    f64p, i64p = ctypes.POINTER(f64), ctypes.POINTER(i64)
    lib = ctypes.CDLL(path)
    one = lib.run_loss_chain
    one.restype = u64
    one.argtypes = [u64, i64, i64, f64p, i64p, f64p, i64, i64p, i64p, i64p, f64p, f64p]
    many = lib.run_replications
    many.restype = None
    many.argtypes = [i64, ctypes.POINTER(u64), i64p, i64p, i64, f64p, i64p, i64, f64p,
                     i64, i64p, f64p, f64p]

    def chain_arrays(stream_rates, stream_limits, srv_rates):
        n_streams = len(stream_rates)
        return ((f64 * n_streams)(*stream_rates),
                (i64 * n_streams)(*[int(x) for x in stream_limits]),
                (f64 * len(srv_rates))(*srv_rates))

    def run_loss_chain(seed, target_arrivals, stream_rates, stream_limits,
                       srv_rates, start_state=0, min_state=0):
        _despy.check_loss_chain(stream_rates, stream_limits, srv_rates,
                                start_state, min_state)
        target_arrivals = _despy.check_arrivals(target_arrivals)
        n_streams = len(stream_rates)
        seen, rejected = (i64 * n_streams)(), (i64 * n_streams)()
        tis, elapsed, chain = (f64 * len(srv_rates))(), f64(), i64(start_state)
        state = one(seed & _despy._MASK, target_arrivals, n_streams,
                    *chain_arrays(stream_rates, stream_limits, srv_rates), min_state,
                    ctypes.byref(chain), seen, rejected, tis, ctypes.byref(elapsed))
        return seen[:], rejected[:], tis[:], elapsed.value, chain.value, state

    def run_replications(seeds, warmups, counts, stream_rates, stream_limits,
                         srv_rates, min_state=0):
        _despy.check_loss_chain(stream_rates, stream_limits, srv_rates,
                                min_state, min_state)
        seeds, warmups, counts = _despy.check_replications(seeds, warmups, counts)
        n_reps, n_streams, n_states = len(seeds), len(stream_rates), len(srv_rates)
        rows = (i64 * (2 * n_reps * n_streams))()
        tis, elapsed = (f64 * (2 * n_states))(), f64()
        rates, limits, srv = chain_arrays(stream_rates, stream_limits, srv_rates)
        many(n_reps, (u64 * n_reps)(*seeds), (i64 * n_reps)(*warmups),
             (i64 * n_reps)(*counts), n_streams, rates, limits, n_states, srv,
             min_state, rows, tis, ctypes.byref(elapsed))
        seen, rejected = np.frombuffer(rows, np.int64).reshape(2, n_reps, n_streams)
        return seen, rejected, np.frombuffer(tis, np.float64, n_states), elapsed.value

    return SimpleNamespace(run_loss_chain=run_loss_chain,
                           run_replications=run_replications)


_compiled_spec = importlib.util.find_spec(f"{__package__}._lossloop")
_KERNELS = {"pure-python": _despy}
if _compiled_spec is not None:
    _KERNELS["compiled"] = load_compiled(_compiled_spec.origin)
BACKEND = "compiled" if "compiled" in _KERNELS else "pure-python"
_kernel = _KERNELS[BACKEND]


def kernel_backends() -> dict[str, object]:
    """Available kernels by name (for benchmarks and equivalence tests)."""
    return dict(_KERNELS)


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
    seen, rejected, tis_tot, elapsed_tot = _kernel.run_replications(
        rep_seeds.tolist(), [int(WARMUP * calls) for calls in counts], counts,
        spec.stream_rates, spec.stream_limits, spec.srv_rates, spec.min_state)
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
