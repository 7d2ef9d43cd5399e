"""Markov-chain traffic models: the coupled two-tier femto/macro system, the
single-cell bandwidth-adaptive chain, and the MBS cell chain.

Each chain is described once, as a LossChainSpec built by its model's
*_chain function (Ch6Cell.chain for the adaptive cell); the solvers here
evaluate that spec analytically and femtonet.des simulates the same spec.
The stationary distribution is computed in log space, so state counts in
the hundreds stay numerically exact.  Handover arrival rates and blocking
and dropping probabilities depend on each other; both fixed points run one
damped successive substitution, _fixed_point, to the requested residual.
ChainBatch is the one product-form solver, loss_chain_probs its one-chain
case; a sweep iterates all its points together, each iteration solving
their chains through one ChainBatch in one pass per state count.  The
two-tier step is written as plain functions of a point's parameters, its
four handover rates and its last blocking and dropping probabilities,
which the sweep keeps in two lists; every solution's probabilities cover
its chain's states, a layer of no femtocells included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._checks import finite, fraction, integer, whole_counts
from .admission import TrafficClass, rebalance_states

FIXED_POINT_TOL = 1e-8
FIXED_POINT_DAMPING = 0.5
MAX_ITERATIONS = 10_000

CH6_SCHEMES = ("proposed", "non-prioritized", "aqos", "hard-qos", "guard")


class NonConvergenceError(RuntimeError):
    def __init__(self, message, residuals):
        super().__init__(f"{message} (last residuals {residuals[-3:]})")
        self.residuals = residuals


class CoverageError(ValueError):
    """Femtocell coverage fraction n*(r_f/r_m)^2 exceeds one."""


@dataclass
class ChainSolution:
    probs: np.ndarray
    p_block: float
    p_drop: float
    utilization: float = 0.0
    handover_rate: float = 0.0
    iterations: int = 0
    residual: float = 0.0
    extra: dict = field(default_factory=dict)  # ch6: scheme; ch7: P_B_voice, P_B_background
    spec: LossChainSpec | None = None  # the chain the solver evaluated last

    def check_normalized(self) -> None:
        """Raise AssertionError unless the probabilities sum to one."""
        total = self.probs.sum()
        if not abs(total - 1.0) < 1e-9:
            raise AssertionError(f"state probabilities sum to {total}, not 1")


def _fixed_point(step, rates: list[list[float]], what: str, names):
    """Damped successive substitution on one list of rates per point.

    Each iteration calls step(points, rates) once, with the indices of the
    points still iterating and their rates, for their new rates.  Per point
    it records the residual max |new - old| and moves every rate by
    FIXED_POINT_DAMPING of its change; once a residual falls below
    FIXED_POINT_TOL the point stops, and neither its rates nor step's state
    for it change again.  Returns per point the damped rates, the iteration
    count and the residuals; when a point reaches MAX_ITERATIONS it raises
    NonConvergenceError naming `what` and the point, names(i), with that
    point's residuals.
    """
    rates = list(rates)
    iterations = [0] * len(rates)
    residuals = [[] for _ in rates]
    active = list(range(len(rates)))
    iteration = 0
    while active:
        iteration += 1
        if iteration > MAX_ITERATIONS:
            raise NonConvergenceError(f"{what} fixed point did not converge at "
                                      f"{names(active[0])}", residuals[active[0]])
        running = []
        for i, new in zip(active, step(active, [rates[i] for i in active])):
            old = rates[i]
            residual = max([abs(b - a) for a, b in zip(old, new)])
            residuals[i].append(residual)
            rates[i] = [a + FIXED_POINT_DAMPING * (b - a) for a, b in zip(old, new)]
            if residual < FIXED_POINT_TOL:
                iterations[i] = iteration
            else:
                running.append(i)
        active = running
    return rates, iterations, residuals


def erlang_b(servers: int, offered: float) -> float:
    """Blocking probability of M/M/c/c via the stable recursion."""
    if not (float(servers).is_integer() and servers >= 0):
        raise ValueError(f"servers must be a whole number >= 0, got {servers!r}")
    if not 0.0 <= offered < math.inf:
        raise ValueError(f"offered must be finite and >= 0, got {offered!r}")
    if offered == 0.0:
        return 0.0
    b = 1.0
    for k in range(1, int(servers) + 1):
        b = offered * b / (k + offered * b)
    return b


def birth_death_probs(birth_rates, death_rates) -> np.ndarray:
    """Stationary distribution of a finite birth-death chain.

    birth_rates[i] is the rate out of state i upward (len n-1); death_rates[i]
    the rate from state i+1 downward (len n-1).  Computed in log space.
    """
    births = np.asarray(birth_rates, dtype=float)
    deaths = np.asarray(death_rates, dtype=float)
    if births.shape != deaths.shape:
        raise ValueError("birth/death rate shape mismatch")
    if np.any(deaths <= 0):
        raise ValueError("death rates must be positive")
    return _stationary(births, np.log(deaths))


def _stationary(births: np.ndarray, log_deaths: np.ndarray) -> np.ndarray:
    """The product-form distribution of birth_death_probs, from the births
    and the logs of the (positive) death rates, along the last axis: a
    (chains x states-1) array of births gives one distribution per row."""
    logp = np.empty((*births.shape[:-1], births.shape[-1] + 1))
    logp[..., 0] = 0.0
    steps = logp[..., 1:]
    with np.errstate(divide="ignore"):
        # zero birth rates mark unreachable upper states (log 0 -> -inf -> p 0)
        np.log(births, out=steps)
    steps -= log_deaths
    np.add.accumulate(steps, axis=-1, out=steps)
    logp -= logp.max(axis=-1, keepdims=True)
    np.exp(logp, out=logp)
    logp /= logp.sum(axis=-1, keepdims=True)
    return logp


def check_loss_chain(stream_rates, stream_limits, srv_rates,
                     start_state: int = 0, min_state: int = 0) -> None:
    """Reject a chain whose states or stream limits are not integers (numpy
    integers included), whose stream limits do not fit in an int64 (the DES
    walker compares states with them in des._Tables.limit_of, an int64
    array), that would index outside srv_rates, whose rates are negative or
    not finite, or whose total arrival rate, or that total plus a service
    rate (a state's event rate), is not finite: no draw would be an arrival
    there.  The sum grows with the service rate, so the largest one covers
    every state."""
    if len(stream_limits) != len(stream_rates):
        raise ValueError("stream rate/limit length mismatch")
    integer("min_state", min_state)
    integer("start_state", start_state)
    for limit in stream_limits:
        integer("a stream limit", limit)
    n_states = len(srv_rates)
    if not 0 <= min_state < n_states:
        raise ValueError(f"min_state must lie in [0, {n_states})")
    if not min_state <= start_state < n_states:
        raise ValueError(f"start_state must lie in [min_state, {n_states})")
    if stream_limits and max(stream_limits) >= n_states:
        raise ValueError(f"stream limits must be < {n_states} (len(srv_rates))")
    if stream_limits and min(stream_limits) < -2**63:  # below des._Tables.limit_of's int64
        raise ValueError("stream limits must fit in 64 bits")
    check_rates((*stream_rates, *srv_rates))
    lam_total = 0.0
    for r in stream_rates:  # summed as des._Tables sums it
        lam_total += float(r)
    if lam_total == math.inf:
        raise ValueError("the total arrival rate of the streams is not finite")
    srv_max = float(max(srv_rates))
    if lam_total + srv_max == math.inf:
        raise ValueError(f"the total arrival rate {lam_total!r} plus the largest "
                         f"service rate {srv_max!r} is not finite")


def check_rates(rates) -> None:
    """Reject a rate that is negative or not finite."""
    for r in rates:  # a plain loop: every fixed-point iteration checks one rate
        if not 0.0 <= r < math.inf:
            raise ValueError("stream and service rates must be finite and >= 0")


@dataclass(frozen=True)
class LossChainSpec:
    """A loss cell fed by independent Poisson arrival streams.

    srv_rates[i] is the total departure rate in state i; stream k is
    admitted while the state is below stream_limits[k].  The chain lives on
    states min_state..len(srv_rates)-1 and a simulation starts at min_state.
    The calls of new_streams are new calls and those of hand_stream
    handovers.  A death rate may be 0: the DES simulates such a chain, and
    loss_chain_probs and ChainBatch reject it.
    """

    stream_rates: tuple[float, ...]
    stream_limits: tuple[int, ...]
    srv_rates: tuple[float, ...]
    hand_stream: int
    min_state: int = 0
    new_streams: tuple[int, ...] = (0,)

    def __post_init__(self):
        check_loss_chain(self.stream_rates, self.stream_limits, self.srv_rates,
                         self.min_state, self.min_state)
        n_streams = len(self.stream_rates)
        if not all(0 <= k < n_streams for k in (*self.new_streams, self.hand_stream)):
            raise ValueError(f"new_streams and hand_stream must lie in [0, {n_streams})")


def loss_chain_probs(spec: LossChainSpec) -> tuple[np.ndarray, list[float]]:
    """Stationary probabilities of states min_state..len(srv_rates)-1, and
    for each stream the probability that it finds the cell at or above its
    limit, i.e. that it rejects a call: the one-chain case of ChainBatch.

    The birth rate out of state i sums, in stream order from 0.0, the rates
    of the streams whose limit exceeds i; the death rate down into state i
    is srv_rates[i+1], and a death rate that is not positive raises
    ValueError."""
    return ChainBatch((spec,)).solve((0,), (spec.stream_rates,))[0]


class ChainBatch:
    """The chains of a sweep, one per point, prepared once for solving them
    again and again at new stream rates.

    Chains that share min_state, state count and stream count form a
    group, which solve evaluates in one product-form pass over the
    (chains x states) array of its births.  The groups are built when the
    batch is made: each takes the logs of its stacked death rates once,
    raising ValueError if one is not positive, and turns each stream limit
    into a 0/1 row mask of the states below it.  The births of a row are
    0.0 plus each masked rate, in stream order; adding the 0.0 of an
    unmasked rate changes no bit of a sum of rates >= 0, so a row does not
    depend on the other rows of its group.  Each distinct limit of a group
    costs one sum over its rows.
    """

    def __init__(self, specs):
        self.specs = list(specs)
        members = {}  # (min_state, state count, stream count) -> its chains' indices
        for i, spec in enumerate(self.specs):
            members.setdefault((spec.min_state, len(spec.srv_rates), len(spec.stream_rates)),
                               []).append(i)
        # per group: the row of each of its chains there, and the group
        self._groups = [({i: row for row, i in enumerate(chains)},
                         _ChainGroup([self.specs[i] for i in chains]))
                        for chains in members.values()]

    def solve(self, points, rates) -> list[tuple[np.ndarray, list[float]]]:
        """loss_chain_probs of chain i at stream rates r, for each i, r of
        points (indices into specs) and rates.  The probability rows of one
        group are views of one array.  A count of rate rows other than of
        points, or a row whose length is not its chain's stream count,
        raises ValueError."""
        if len(points) != len(rates):
            raise ValueError(f"{len(points)} points but {len(rates)} rows of stream rates")
        for i, row in zip(points, rates):
            if len(row) != len(self.specs[i].stream_rates):
                raise ValueError(f"chain {i} has {len(self.specs[i].stream_rates)} streams, "
                                 f"got a row of {len(row)} stream rates")
        check_rates(itertools.chain.from_iterable(rates))
        out = [None] * len(points)
        for row_of, group in self._groups:
            asked = [j for j, i in enumerate(points) if i in row_of]
            if asked:
                rows = group.solve([row_of[points[j]] for j in asked], [rates[j] for j in asked])
                for j, row in zip(asked, rows):
                    out[j] = row
        return out


class _ChainGroup:
    """The chains of a ChainBatch that share min_state, state count and
    stream count."""

    def __init__(self, specs):
        lo = specs[0].min_state
        self.n_streams = len(specs[0].stream_rates)
        deaths = np.array([spec.srv_rates[lo + 1:] for spec in specs], dtype=float)
        if not np.all(deaths > 0):
            raise ValueError("death rates must be positive")
        self.log_deaths = np.log(deaths)
        self.all_rows = list(range(len(specs)))
        self.cuts = [[max(limit - lo, 0) for limit in spec.stream_limits] for spec in specs]
        # masks[k, row, i] is 1.0 where state i lies below stream k's cut
        states = np.arange(self.log_deaths.shape[1])
        self.masks = (states < np.array(self.cuts).T[:, :, None]).astype(float)
        self.distinct_cuts = sorted({cut for cuts in self.cuts for cut in cuts})

    def solve(self, rows, rates) -> list[tuple[np.ndarray, list[float]]]:
        """The rows' distributions and rejection probabilities at rates."""
        masks, log_deaths = self.masks, self.log_deaths
        if rows != self.all_rows:
            masks, log_deaths = masks[:, rows], log_deaths[rows]
        rates = np.array(rates, dtype=float)
        births = np.zeros(log_deaths.shape)
        for k in range(self.n_streams):
            births += rates[:, k, None] * masks[k]
        probs = _stationary(births, log_deaths)
        sums = {cut: probs[:, cut:].sum(axis=1).tolist() for cut in self.distinct_cuts}
        return [(probs[r], [sums[cut][r] for cut in self.cuts[row]])
                for r, row in enumerate(rows)]


def _with_stream_rates(spec: LossChainSpec, rates: tuple[float, ...]) -> LossChainSpec:
    """The same chain with its streams at `rates`.  The rest of the spec
    was checked when it was made, so only the rates are checked here and
    the copy skips __post_init__."""
    check_rates(rates)
    out = object.__new__(LossChainSpec)
    out.__dict__.update(spec.__dict__, stream_rates=rates)
    return out


# ---------------------------------------------------------------------------
# Ch. 5: two-tier femto/macro model


@dataclass(frozen=True)
class TwoTierParams:
    lambda_o_f: float  # total originating rate over all femtocell coverage
    lambda_o_m: float  # originating rate in macro-only coverage
    mu: float  # 1 / mean call duration
    eta_f: float  # 1 / mean femtocell dwell time
    eta_m: float  # 1 / mean macrocell dwell time
    n: int  # deployed femtocells
    r_f: float = 10.0
    r_m: float = 1000.0
    femto_capacity: int = 4  # K concurrent calls per femtocell
    macro_base_states: int = 100  # N
    macro_adaptive_states: int = 30  # S
    alpha: float = 1.0  # P[SNIR_Tf >= T2] for femto-femto handover
    beta_prob: float = 0.0  # P[T1 <= SNIR_Tf < T2]

    def __post_init__(self):
        for name in ("alpha", "beta_prob"):
            fraction(name, getattr(self, name))
        if self.alpha + self.beta_prob > 1.0 + 1e-12:
            raise ValueError("alpha + beta must be <= 1")
        if not self.mu > 0:
            raise ValueError(f"mu must be > 0, got {self.mu!r}")
        for name in ("eta_f", "eta_m"):  # 0: infinite dwell time, no mobility
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("mu", "eta_f", "eta_m"):
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} must be finite, got inf")
        whole_counts(self, ("n", "femto_capacity", "macro_base_states", "macro_adaptive_states"))
        for name in ("lambda_o_f", "lambda_o_m"):
            finite(name, getattr(self, name), 0)
        if self.n == 0 and self.lambda_o_f > 0:
            # no femtocell would take these calls, and the femto layer
            # would report them unblocked
            raise ValueError(f"lambda_o_f must be 0 with no femtocells (n = 0), "
                             f"got {self.lambda_o_f!r}")
        if not 0.0 < self.r_f < self.r_m < math.inf:
            raise ValueError(f"require a finite r_m > r_f > 0, got r_f={self.r_f!r}, "
                             f"r_m={self.r_m!r}")
        if self.coverage > 1.0:
            raise CoverageError(f"n = {self.n} femtocells cover a fraction "
                                f"{self.coverage:.3f} > 1 of the macrocell")

    @property
    def coverage(self) -> float:
        """The fraction n*(r_f/r_m)^2 of the macrocell that femtocells cover."""
        return self.n * (self.r_f / self.r_m) ** 2


@dataclass(frozen=True)
class HandoverProbabilities:
    mm: float
    fm: float
    ff: float
    mf: float


def handover_probabilities(params: TwoTierParams) -> HandoverProbabilities:
    """Closed-form handover probabilities of the four movement types."""
    n = params.n
    cov = params.coverage
    f_dwell = params.eta_f / (params.eta_f + params.mu)
    p_mm = params.eta_m / (params.eta_m + params.mu)
    if p_mm == 1.0:  # the macro fixed point would divide by P_D,m = 0
        raise ValueError(f"the macrocell dwell rate eta_m = {params.eta_m!r} makes P_mm round to 1")
    p_fm = (1.0 - cov) * f_dwell
    p_ff = max(n - 1, 0) * (params.r_f / params.r_m) ** 2 * f_dwell
    if n > 0:
        sq = math.sqrt(n)
        p_mf = cov * (params.eta_m * sq) / (params.eta_m * sq + params.mu)
    else:
        p_mf = 0.0
    return HandoverProbabilities(mm=p_mm, fm=p_fm, ff=p_ff, mf=p_mf)


def channel_release_rates(params: TwoTierParams) -> tuple[float, float]:
    """(macro, femto) average channel release rates."""
    mu_m = params.eta_m * (math.sqrt(params.n) + 1.0) + params.mu
    mu_f = params.eta_f + params.mu
    return mu_m, mu_f


def two_tier_macro_chain(params: TwoTierParams, lam_hand: float) -> LossChainSpec:
    """The macrocell: new calls admitted below N, handovers (arriving at
    lam_hand) below N+S."""
    mu_m, _ = channel_release_rates(params)
    n, s = params.macro_base_states, params.macro_adaptive_states
    srv = tuple(i * mu_m for i in range(n + s + 1))
    return LossChainSpec((params.lambda_o_m, lam_hand), (n, n + s), srv,
                         new_streams=(0,), hand_stream=1)


def two_tier_femto_chain(params: TwoTierParams, lam_tf: float) -> LossChainSpec:
    """One femtocell of the layer, offered lam_tf / n: K servers, no
    handover priority."""
    _, mu_f = channel_release_rates(params)
    k = params.femto_capacity
    srv = tuple(i * mu_f for i in range(k + 1))
    return LossChainSpec((lam_tf / max(params.n, 1),), (k,), srv,
                         new_streams=(0,), hand_stream=0)


@dataclass
class TwoTierSolution:
    femto: ChainSolution
    macro: ChainSolution
    rates: dict
    probabilities: HandoverProbabilities
    iterations: int
    residuals: list[float]


def _femto_arrival_rate(params: TwoTierParams, rates, p_dm: float) -> float:
    """lambda_T,f: the calls offered to the femto layer at the four
    handover rates, where P_D,m is the macro chain's of the step before."""
    _, l_mf, l_ff, _ = rates
    return (params.lambda_o_f + l_mf + params.alpha * l_ff
            + p_dm * params.beta_prob * l_ff)


def _macro_handover_rate(params: TwoTierParams, rates, p_df: float) -> float:
    """lambda_h,m: the handovers into the macro chain at the four handover
    rates and the femto layer's P_D,f."""
    l_mm, _, l_ff, l_fm = rates
    alpha = params.alpha
    return l_mm + l_fm + alpha * p_df * l_ff + (1.0 - alpha) * l_ff


def _next_handover_rates(params: TwoTierParams, probs: HandoverProbabilities, rates,
                         p_f: float, p_bm: float, p_dm: float) -> list[float]:
    """The four handover rates (mm, mf, ff, fm) that the blocking and
    dropping probabilities give: P_B,f = P_D,f = p_f, and the macro chain's
    P_B,m and P_D,m."""
    l_mm, l_mf, l_ff, l_fm = rates
    alpha, lam_of = params.alpha, params.lambda_o_f
    num_m = (1.0 - p_bm) * (params.lambda_o_m + lam_of * p_f) + (1.0 - p_dm) * (
        l_fm + l_ff * (1.0 - alpha + alpha * p_f))
    den_m = 1.0 - probs.mm * (1.0 - p_dm)
    num_f = lam_of * (1.0 - p_f) + l_mf * (1.0 - p_f)
    den_f = 1.0 - probs.ff * (1.0 - p_f) * (alpha + (1.0 - alpha) * p_dm)
    return [probs.mm * num_m / den_m, probs.mf * num_m / den_m,
            probs.ff * num_f / den_f, probs.fm * num_f / den_f]


def solve_two_tier_sweep(sweep) -> list[TwoTierSolution]:
    """The fixed point of the coupled femto/macro chains at every point of
    sweep, a sequence of TwoTierParams.

    Handover arrival rates feed the two layers, whose blocking and dropping
    probabilities feed back into the rates.  _fixed_point iterates the four
    rates of every point together, each to a residual below
    FIXED_POINT_TOL.  A step takes the femto layer's Erlang-B blocking
    P_B,f (= P_D,f; 0 with no femtocells) at lambda_T,f, which reads the
    P_D,m of the step before (0 at the first), then the macro chain's P_B,m
    and P_D,m at lambda_h,m, which reads this step's P_D,f, then the new
    rates from both; the sweep keeps each point's last P_B,f and last
    (P_B,m, P_D,m).  Each step solves the macro chains of the points still
    iterating through one ChainBatch, built once, which then solves the
    converged macro chains too; a second ChainBatch solves every point's
    femto chain at the converged lambda_T,f, n = 0 included, where the
    chain's rate is 0 and its probabilities are 1 at state 0.  A point's
    result does not depend on the other points, and the converged point is
    independent of FIXED_POINT_DAMPING (to the residual tolerance).
    """
    sweep = list(sweep)
    probs = [handover_probabilities(params) for params in sweep]
    release = [channel_release_rates(params) for params in sweep]
    p_f = [0.0] * len(sweep)  # each point's last P_B,f, which is its P_D,f too
    p_m = [[0.0, 0.0] for _ in sweep]  # and its last (P_B,m, P_D,m)
    macro = ChainBatch(two_tier_macro_chain(params, 0.0) for params in sweep)

    def step(active, rates):
        for i, r in zip(active, rates):
            params = sweep[i]
            if params.n > 0:
                offered = _femto_arrival_rate(params, r, p_m[i][1]) / params.n / release[i][1]
                p_f[i] = erlang_b(params.femto_capacity, offered)
        rows = macro.solve(active, [(sweep[i].lambda_o_m,
                                     _macro_handover_rate(sweep[i], r, p_f[i]))
                                    for i, r in zip(active, rates)])
        for i, (_, p_bd) in zip(active, rows):
            p_m[i] = p_bd
        return [_next_handover_rates(sweep[i], probs[i], r, p_f[i], *p_m[i])
                for i, r in zip(active, rates)]

    rates, iterations, residuals = _fixed_point(
        step, [[0.0, 0.0, 0.0, 0.0] for _ in sweep], "two-tier", lambda i: f"n = {sweep[i].n}")

    lam_tf = [_femto_arrival_rate(params, r, p_dm)
              for params, r, (_, p_dm) in zip(sweep, rates, p_m)]
    lam_hm = [_macro_handover_rate(params, r, p) for params, r, p in zip(sweep, rates, p_f)]
    macro_rates = [(params.lambda_o_m, lam) for params, lam in zip(sweep, lam_hm)]
    macro_rows = macro.solve(range(len(sweep)), macro_rates)
    femto_chains = [two_tier_femto_chain(params, lam) for params, lam in zip(sweep, lam_tf)]
    femto_rows = ChainBatch(femto_chains).solve(range(len(sweep)),
                                                [c.stream_rates for c in femto_chains])
    solutions = []
    for j, params in enumerate(sweep):
        (_, l_mf, l_ff, _), n_iter, residual = rates[j], iterations[j], residuals[j][-1]
        femto_probs, macro_probs = femto_rows[j][0].copy(), macro_rows[j][0].copy()
        k_f, base = params.femto_capacity, params.macro_base_states
        femto_util = float(np.dot(np.arange(len(femto_probs)), femto_probs)) / max(k_f, 1)
        macro_occ = np.minimum(np.arange(len(macro_probs)), base)
        macro_util = float(np.dot(macro_occ, macro_probs)) / max(base, 1)
        femto = ChainSolution(femto_probs, p_f[j], p_f[j], femto_util,
                              handover_rate=params.alpha * l_ff + l_mf, iterations=n_iter,
                              residual=residual, spec=femto_chains[j])
        macro_sol = ChainSolution(macro_probs, *p_m[j], macro_util, handover_rate=lam_hm[j],
                                  iterations=n_iter, residual=residual,
                                  spec=_with_stream_rates(macro.specs[j], macro_rates[j]))
        named = dict(zip(("lambda_h_mm", "lambda_h_mf", "lambda_h_ff", "lambda_h_fm"), rates[j]),
                     lambda_T_f=lam_tf[j], lambda_h_m=lam_hm[j],
                     mu_m=release[j][0], mu_f=release[j][1])
        solutions.append(TwoTierSolution(femto, macro_sol, named, probs[j], n_iter, residuals[j]))
    return solutions


def solve_two_tier(params: TwoTierParams) -> TwoTierSolution:
    """The fixed point of the coupled femto/macro chains at params: the
    one-point case of solve_two_tier_sweep."""
    return solve_two_tier_sweep((params,))[0]


def forced_termination_probability(p_h: float, p_drop: float) -> float:
    """Probability an admitted call is eventually dropped at some handover."""
    return p_h * p_drop / (1.0 - p_h * (1.0 - p_drop))


# ---------------------------------------------------------------------------
# Ch. 6: single-cell bandwidth-adaptive chain


@dataclass(frozen=True)
class Ch6QueueParams:
    lam_new: float
    capacity: float
    classes: tuple[TrafficClass, ...]
    eta: float  # 1 / mean dwell time
    guard_channels: int = 0  # used by the guard scheme only

    def __post_init__(self):
        finite("capacity", self.capacity, 0, strict=True)
        for name in ("eta", "lam_new"):
            finite(name, getattr(self, name), 0)
        whole_counts(self, ("guard_channels",))
        share = sum(c.arrival_share for c in self.classes)
        if abs(share - 1.0) > 1e-9:
            raise ValueError(f"arrival shares must sum to 1, got {share}")


def _frac(x: float) -> Fraction:
    return Fraction(str(x))


def _class_sums(classes) -> tuple[Fraction, Fraction, Fraction]:
    """sum_m a_m beta_m, the mean requested bandwidth, and the same sum
    weighted by gamma_h and by gamma_n, as exact rationals."""
    terms = [_frac(c.arrival_share) * _frac(c.requested_bw) for c in classes]
    return (sum(terms), sum(w * _frac(c.degrade_hand) for w, c in zip(terms, classes)),
            sum(w * _frac(c.degrade_new) for w, c in zip(terms, classes)))


def _dimensions(cap: Fraction, mean_req: Fraction, g_hand: Fraction,
                g_new: Fraction) -> tuple[int, int, int]:
    """(N, S, L) from the capacity and the sums of _class_sums, where
    N = floor(capacity / mean requested bandwidth)."""
    if mean_req <= 0:
        raise ValueError("mean requested bandwidth must be positive")

    def extra(g: Fraction) -> int:
        kept = mean_req - g
        if kept <= 0:
            raise ValueError("degradation factors leave no guaranteed bandwidth")
        return int(cap * g / (kept * mean_req))

    return int(cap / mean_req), extra(g_hand), extra(g_new)


def chain_dimensions(classes, capacity: float) -> tuple[int, int, int]:
    """(N, S, L) state counts, computed on exact rationals before flooring."""
    return _dimensions(_frac(capacity), *_class_sums(classes))


def _scheme_degradation(scheme: str, hand, new, zero):
    """A class's (gamma_h, gamma_n) under scheme, from its own pair; zero
    is the no-degradation value of the pair's type."""
    if scheme == "proposed":
        return hand, new
    if scheme == "non-prioritized":
        return hand, hand
    if scheme == "aqos":
        return hand, zero
    if scheme in ("hard-qos", "guard"):
        return zero, zero
    raise ValueError(f"unknown scheme {scheme!r}")


def mean_duration_at_full(classes) -> float:
    return sum(c.arrival_share * c.duration_s for c in classes)


def state_release_rates(classes, capacity: float, eta: float,
                        n: int, s: int) -> tuple[np.ndarray, list[float]]:
    """Per-call channel release rate mu_i for states 1..N+S, and the
    bandwidth occupied in each state N+1..N+S.

    Up to N every class holds its request, so mu_i = eta + 1/T(full).  Above
    N the expected class mix a_m * i is rebalanced; degraded non-real-time
    calls stretch in proportion to the bandwidth they lost, which lowers the
    release rate with the state.  One rebalance_states pass covers the S
    states, and the mean duration sums over the classes in class order, so
    each state gets the float operations of rebalancing it alone.
    """
    t_full = mean_duration_at_full(classes)
    mu1 = eta + 1.0 / t_full
    rates = np.full(n + s, mu1)
    states = np.arange(n + 1, n + s + 1, dtype=float)
    allocs, occupied = rebalance_states(
        capacity, classes, [c.arrival_share * states for c in classes],
        [np.full(s, c.requested_bw) for c in classes])
    t = np.zeros(s)
    for c, b in zip(classes, allocs):
        stretch = 1.0 if c.kind == "rt" else c.requested_bw / b
        t += c.arrival_share * c.duration_s * stretch
    rates[n:] = eta + 1.0 / t
    return rates, occupied.tolist()


@dataclass(frozen=True)
class Ch6Cell:
    """The adaptive-CAC cell under one scheme: everything of the chain that
    does not depend on the arrival rates, so a sweep over the new-call rate
    builds it once.

    New calls are admitted below new_limit = N + L - guard (guard is
    guard_channels for the guard scheme, else 0); handovers below N + S.
    hard-qos and guard degrade no call, so for them S = L = 0.  srv holds
    the total departure rate of states 0..N+S, i times the per-call release
    rate in state i, and occupancy the bandwidth occupied in each state; the
    array is read-only, so cells may share it.

    The per-call policy, `admission.admit_ch6`, refuses calls at other
    states.  Walked along the chain's mean mix (class counts round(a_m * i),
    rebalanced) in the Table 6.1 cell, it first blocks a new call at
    i = 106 under the proposed scheme, against new_limit = 128: the chain
    lets new calls degrade the cell by the aggregate L, but the per-call
    rule blocks once any one class (here class 7, whose gamma_h is largest)
    is squeezed to its own new-call floor.  Under aqos and hard-qos it first
    blocks the two 128 kbps classes at i = 99 for lack of bandwidth, against
    new_limit = 101.  Under guard, whose 5 guard channels the per-call rule
    reserves as 5 mean requests (294.25 kbps), it first blocks every class
    but the two smallest at i = 95, against new_limit = 96: the mean mix
    rounds to more than i mean requests there.  Under non-prioritized it
    blocks at new_limit = 155.
    Handovers drop at N + S = 155 under the three adaptive schemes, and from
    i = 99 (the 128 kbps classes) of N + S = 101 under hard-qos and guard.
    tests/test_admission.py pins these steps.

    Under hard-qos the per-call policy is a multi-rate loss system with
    complete sharing, each call holding its class's bandwidth, and its exact
    blocking (Kaufman-Roberts) differs from the chain's, which counts calls
    of the mean request.  Along fig6-cac's default grid, at the chain's
    fixed-point handover rate, the share-weighted per-call P_B reads 0.0110,
    0.1017, 0.1935, 0.2671 and 0.3430 at lam_new = 0.7, 1.0, 1.3, 1.6 and
    2.0, against the chain's 0.0076, 0.1417, 0.2795, 0.3829 and 0.4830:
    above the chain at light load, below it from 1.0 up.
    tests/test_kaufman_roberts.py pins these values.
    """

    scheme: str
    n: int
    s: int
    ell: int
    new_limit: int
    p_h: float
    srv: tuple[float, ...]
    occupancy: np.ndarray
    capacity: float

    def chain(self, lam_new: float, lam_hand: float) -> LossChainSpec:
        """The cell fed by new calls at lam_new and handovers at lam_hand,
        both exogenous Poisson."""
        return LossChainSpec((lam_new, lam_hand), (self.new_limit, self.n + self.s),
                             self.srv, new_streams=(0,), hand_stream=1)


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def ch6_cells(params: Ch6QueueParams, schemes) -> list[Ch6Cell]:
    """The cells of params under each of schemes; params.lam_new is not read.

    A scheme only swaps which of the class sums weighted by gamma_h, by
    gamma_n or by 0 sets S and L, so the class fields become exact
    rationals once for all schemes.  The release rates above N read gamma_h
    but never gamma_n, and a scheme's S is either the one of the classes'
    own gamma_h or 0, so one state_release_rates pass on the classes
    themselves, at the widest S, serves every scheme: each cell keeps its
    first N+S+1 states of the departure rates and of the occupancy, the
    latter a read-only view.
    """
    p_h = params.eta / (params.eta + 1.0 / mean_duration_at_full(params.classes))
    if p_h == 1.0:  # the fixed point would divide by P_D = 0
        raise ValueError(f"the dwell rate eta = {params.eta!r} makes p_h round to 1")
    cap = _frac(params.capacity)
    mean_req, g_hand, g_new = _class_sums(params.classes)
    dims = []
    for scheme in schemes:
        n, s, ell = _dimensions(cap, mean_req,
                                *_scheme_degradation(scheme, g_hand, g_new, Fraction(0)))
        guard = params.guard_channels if scheme == "guard" else 0
        if not 0 <= guard <= n:
            raise ValueError("guard channels outside [0, N]")
        dims.append((scheme, s, ell, n + ell - guard))
    if not dims:
        return []
    # N = floor(C / mean request), the same under every scheme
    mu_rates, occupied = state_release_rates(params.classes, params.capacity, params.eta,
                                             n, max(s for _, s, _, _ in dims))
    srv = tuple(i * mu_rates[i - 1] if i else 0.0 for i in range(len(mu_rates) + 1))
    mean_bw = sum(c.arrival_share * c.requested_bw for c in params.classes)
    occupancy = _read_only([min(i * mean_bw, params.capacity) for i in range(n + 1)]
                           + occupied)
    return [Ch6Cell(scheme, n, s, ell, new_limit, p_h, srv[:n + s + 1],
                    occupancy[:n + s + 1], params.capacity)
            for scheme, s, ell, new_limit in dims]


def solve_ch6_sweep(cells, lam_news) -> list[list[ChainSolution]]:
    """Every cell of cells at each new-call rate of lam_news, with the
    handover rate at its fixed point: one list of solutions per cell.

    The handover arrival rate and the chain couple through
    lam_h = P_h (1 - P_B) lam_n / (1 - P_h (1 - P_D)); _fixed_point
    iterates lam_h from P_h lam_n to FIXED_POINT_TOL at every (cell, rate)
    point together, and each iteration solves the chains of the points
    still iterating through one ChainBatch, built once, so the chains of
    one state count share a product-form pass whatever their scheme.  Each
    point equals its lone solve to the last bit.  Every rate must be finite
    and >= 0; a bad one is named before any iteration.
    """
    cells, lam_news = list(cells), list(lam_news)
    for lam_new in lam_news:
        finite("lam_new", lam_new, 0)
    templates = [cell.chain(0.0, 0.0) for cell in cells]
    points = [(c, lam_new) for c in range(len(cells)) for lam_new in lam_news]
    batch = ChainBatch(templates[c] for c, _ in points)
    p_h = [cells[c].p_h for c, _ in points]

    def step(active, rates):
        rows = batch.solve(active, [(points[i][1], lam_h) for i, (lam_h,) in zip(active, rates)])
        return [[p_h[i] * (1.0 - p_b) * points[i][1] / (1.0 - p_h[i] * (1.0 - p_d))]
                for i, (_, (p_b, p_d)) in zip(active, rows)]

    rates, iterations, residuals = _fixed_point(
        step, [[p_h[i] * lam_new] for i, (_, lam_new) in enumerate(points)], "ch6",
        lambda i: f"scheme {cells[points[i][0]].scheme}, lam_new {points[i][1]!r}")
    rows = batch.solve(range(len(points)), [(lam_new, lam_h) for (_, lam_new), (lam_h,)
                                            in zip(points, rates)])
    solutions = [[] for _ in cells]
    for (c, lam_new), (lam_h,), (probs, (p_b, p_d)), n_iter, res in zip(
            points, rates, rows, iterations, residuals):
        cell = cells[c]
        probs = probs.copy()
        utilization = float(np.dot(probs, cell.occupancy)) / cell.capacity
        solutions[c].append(ChainSolution(
            probs, p_b, p_d, utilization, handover_rate=lam_h, iterations=n_iter,
            residual=res[-1], extra={"scheme": cell.scheme},
            spec=_with_stream_rates(templates[c], (lam_new, lam_h))))
    return solutions


def solve_ch6(params: Ch6QueueParams, scheme: str = "proposed") -> ChainSolution:
    """Solve the adaptive-CAC cell for one scheme at params.lam_new: the
    one-point case of solve_ch6_sweep.

    To sweep the new-call rate or the scheme, build the cells once with
    ch6_cells and solve them together with solve_ch6_sweep; this builds a
    new cell on every call.
    """
    return solve_ch6_sweep(ch6_cells(params, (scheme,)), (params.lam_new,))[0][0]


# ---------------------------------------------------------------------------
# Ch. 7: MBS cell chain


@dataclass(frozen=True)
class Ch7QueueParams:
    sessions: int  # M always-on MBS sessions (chain floor)
    n_states: int  # N
    s_states: int  # S
    l_states: int  # L
    lam_new_voice: float
    lam_new_unicast: float
    lam_new_background: float
    lam_hand: float
    mu: float

    def __post_init__(self):
        whole_counts(self, ("sessions", "n_states", "s_states", "l_states"))
        if self.sessions > self.n_states:
            raise ValueError("require M <= N")
        if not 0 <= self.l_states <= self.s_states:
            raise ValueError("require 0 <= L <= S")
        if self.n_states + self.s_states < 1:
            raise ValueError("require N + S >= 1")
        for name in ("lam_new_voice", "lam_new_unicast", "lam_new_background", "lam_hand"):
            finite(name, getattr(self, name), 0)
        finite("mu", self.mu, 0, strict=True)


def ch7_chain(params: Ch7QueueParams) -> LossChainSpec:
    """MBS cell: background blocked from N, voice/unicast from N+L, handover
    dropped only at N+S; service starts above the M always-on sessions."""
    m, n, s, ell = (params.sessions, params.n_states, params.s_states,
                    params.l_states)
    srv = tuple(max(i - m, 0) * params.mu for i in range(n + s + 1))
    return LossChainSpec(
        stream_rates=(params.lam_new_background,
                      params.lam_new_voice + params.lam_new_unicast,
                      params.lam_hand),
        stream_limits=(n, n + ell, n + s),
        srv_rates=srv,
        min_state=m, new_streams=(0, 1), hand_stream=2)


def solve_ch7(params: Ch7QueueParams) -> ChainSolution:
    """MBS cell: the chain of ch7_chain over states M..N+S."""
    m, n, s = params.sessions, params.n_states, params.s_states
    chain = ch7_chain(params)
    probs, (p_b_back, p_b_v, p_d) = loss_chain_probs(chain)
    occupancy = np.arange(m, n + s + 1)
    utilization = float(np.dot(probs, occupancy)) / (n + s)
    return ChainSolution(
        probs, p_b_v, p_d, utilization, handover_rate=params.lam_hand,
        extra={"P_B_voice": p_b_v, "P_B_background": p_b_back},
        spec=chain,
    )
