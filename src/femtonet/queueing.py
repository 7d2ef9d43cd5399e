"""Markov-chain traffic models: the coupled two-tier femto/macro system, the
single-cell bandwidth-adaptive chain, and the MBS cell chain.

Each chain is described once, as a LossChainSpec built by its model's
*_chain function (Ch6Cell.chain for the adaptive cell); the solvers here
evaluate that spec analytically and femtonet.des simulates the same spec.
The stationary distribution is computed in log space, so state counts in
the hundreds stay numerically exact.  Handover arrival rates and blocking
and dropping probabilities depend on each other; both fixed points run one
damped successive substitution, _fixed_point, to the requested residual.
A sweep iterates all its points together, and each iteration solves the
chains of its points through one ChainBatch: one product-form pass per
state count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _despy
from ._checks import whole_counts
from .admission import CellLoadState, TrafficClass, rebalance

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
    extra: dict = field(default_factory=dict)
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


@dataclass(frozen=True)
class LossChainSpec:
    """A loss cell fed by independent Poisson arrival streams.

    srv_rates[i] is the total departure rate in state i; stream k is
    admitted while the state is below stream_limits[k].  The chain lives on
    states min_state..len(srv_rates)-1 and a simulation starts at min_state.
    The calls of new_streams are new calls and those of hand_stream
    handovers.
    """

    stream_rates: tuple[float, ...]
    stream_limits: tuple[int, ...]
    srv_rates: tuple[float, ...]
    hand_stream: int
    min_state: int = 0
    new_streams: tuple[int, ...] = (0,)

    # the logs of the death rates srv_rates[min_state+1:], or None when one
    # of them is not positive: loss_chain_probs then raises, while the DES
    # still simulates the chain
    log_deaths: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _despy.check_loss_chain(self.stream_rates, self.stream_limits,
                                self.srv_rates, self.min_state, self.min_state)
        n_streams = len(self.stream_rates)
        if not all(0 <= k < n_streams for k in (*self.new_streams, self.hand_stream)):
            raise ValueError(f"new_streams and hand_stream must lie in [0, {n_streams})")
        deaths = np.asarray(self.srv_rates[self.min_state + 1:], dtype=float)
        object.__setattr__(self, "log_deaths",
                           np.log(deaths) if np.all(deaths > 0) else None)


def loss_chain_probs(spec: LossChainSpec) -> tuple[np.ndarray, list[float]]:
    """Stationary probabilities of states min_state..len(srv_rates)-1, and
    for each stream the probability that it finds the cell at or above its
    limit, i.e. that it rejects a call.

    The birth rate out of state i sums, in stream order from 0.0, the rates
    of the streams whose limit exceeds i; the death rate down into state i
    is srv_rates[i+1]."""
    if spec.log_deaths is None:
        raise ValueError("death rates must be positive")
    lo = spec.min_state
    births = np.zeros(len(spec.srv_rates) - 1 - lo)
    for rate, limit in zip(spec.stream_rates, spec.stream_limits):
        births[:max(limit - lo, 0)] += rate
    probs = _stationary(births, spec.log_deaths)
    return probs, [float(probs[max(limit - lo, 0):].sum())
                   for limit in spec.stream_limits]


class ChainBatch:
    """The chains of a sweep, one per point, prepared once for solving them
    again and again at new stream rates.

    Chains that share min_state, state count and stream count form a
    group, which solve evaluates in one product-form pass over the
    (chains x states) array of its births.  The group stacks the logs of
    its death rates once, and turns each stream limit into a 0/1 row mask
    of the states below it.  The births of a row are 0.0 plus each masked
    rate, in stream order; adding the 0.0 of an unmasked rate changes no
    bit of a sum of rates >= 0, so every row equals loss_chain_probs of its
    chain to the last bit.  Each distinct limit of a group costs one sum
    over its rows.  The groups are built when a solve of several points
    first needs them, so a batch solved one point at a time builds none.
    """

    def __init__(self, specs):
        self.specs = list(specs)
        index = {}  # (min_state, state count, stream count) -> group
        members = []
        self._group_of, self._row_of = [], []  # per chain: its group and its row there
        for spec in self.specs:
            if spec.log_deaths is None:
                raise ValueError("death rates must be positive")
            group = index.setdefault((spec.min_state, len(spec.srv_rates),
                                      len(spec.stream_rates)), len(members))
            if group == len(members):
                members.append([])
            self._group_of.append(group)
            self._row_of.append(len(members[group]))
            members[group].append(spec)
        self._members = members
        self._groups = None  # built when a multi-point solve first needs them

    def solve(self, points, rates) -> list[tuple[np.ndarray, list[float]]]:
        """loss_chain_probs of chain i at stream rates r, for each i, r of
        points (indices into specs) and rates.  The probability
        rows of one group are views of one array.  A lone chain goes
        through loss_chain_probs, whose 1-D arrays cost less per call than
        a one-row batch: a one-point fixed point, or the last point of a
        sweep still iterating, makes one such call per iteration."""
        if len(points) == 1:
            return [loss_chain_probs(_with_stream_rates(self.specs[points[0]],
                                                        tuple(rates[0])))]
        _despy.check_rates(itertools.chain.from_iterable(rates))
        if self._groups is None:
            self._groups = [_ChainGroup(group) for group in self._members]
        group_of, row_of = self._group_of, self._row_of
        out = [None] * len(points)
        for g, group in enumerate(self._groups):
            asked = [j for j, i in enumerate(points) if group_of[i] == g]
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
        self.log_deaths = np.array([spec.log_deaths for spec in specs])
        self.all_rows = list(range(len(specs)))
        self.cuts = [[max(limit - lo, 0) for limit in spec.stream_limits] for spec in specs]
        states = np.arange(self.log_deaths.shape[1])
        self.masks = np.zeros((self.n_streams, *self.log_deaths.shape))
        for row, cuts in enumerate(self.cuts):
            for k, cut in enumerate(cuts):
                self.masks[k, row] = states < cut
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
    the copy skips __post_init__, sharing the spec's log_deaths."""
    _despy.check_rates(rates)
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
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
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
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {getattr(self, name)!r}")
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


class _TwoTierPoint:
    """One point of a two-tier sweep: the constants its step reads, and the
    chain probabilities of its last step.  The next step's lambda_T,f, and
    the converged one, read the P_D,m of the step before."""

    def __init__(self, params: TwoTierParams):
        self.params = params
        self.probs = handover_probabilities(params)
        self.mu_m, self.mu_f = channel_release_rates(params)
        self.macro_chain = two_tier_macro_chain(params, 0.0)  # the sweep sets lam_hand
        self.p_bf = self.p_df = self.p_bm = self.p_dm = 0.0

    def lam_tf(self, l_mf: float, l_ff: float) -> float:
        params = self.params
        return (params.lambda_o_f + l_mf + params.alpha * l_ff
                + self.p_dm * params.beta_prob * l_ff)

    def lam_hm(self, l_mm: float, l_ff: float, l_fm: float) -> float:
        alpha = self.params.alpha
        return l_mm + l_fm + alpha * self.p_df * l_ff + (1.0 - alpha) * l_ff

    def macro_step_rates(self, rates) -> tuple[float, float]:
        """The first half of a step: the femto layer's Erlang-B blocking at
        these rates, and the macro chain's stream rates at the handover rate
        it gives."""
        l_mm, l_mf, l_ff, l_fm = rates
        n = self.params.n
        if n > 0:
            offered = self.lam_tf(l_mf, l_ff) / n / self.mu_f
            self.p_bf = self.p_df = erlang_b(self.params.femto_capacity, offered)
        else:
            self.p_bf = self.p_df = 0.0
        return self.params.lambda_o_m, self.lam_hm(l_mm, l_ff, l_fm)

    def new_rates(self, rates, p_bm: float, p_dm: float) -> list[float]:
        """The second half: the handover rates from that chain's P_B,m and
        P_D,m."""
        self.p_bm, self.p_dm = p_bm, p_dm
        l_mm, l_mf, l_ff, l_fm = rates
        params, probs, p_bf, p_df = self.params, self.probs, self.p_bf, self.p_df
        alpha, lam_of = params.alpha, params.lambda_o_f
        num_m = (1.0 - p_bm) * (params.lambda_o_m + lam_of * p_bf) + (1.0 - p_dm) * (
            l_fm + l_ff * (1.0 - alpha + alpha * p_df))
        den_m = 1.0 - probs.mm * (1.0 - p_dm)
        num_f = lam_of * (1.0 - p_bf) + l_mf * (1.0 - p_df)
        den_f = 1.0 - probs.ff * (1.0 - p_df) * (alpha + (1.0 - alpha) * p_dm)
        return [probs.mm * num_m / den_m, probs.mf * num_m / den_m,
                probs.ff * num_f / den_f, probs.fm * num_f / den_f]

    def solution(self, rates, iterations: int, residuals: list[float],
                 femto_chain: LossChainSpec, femto_probs: np.ndarray,
                 macro_chain: LossChainSpec, macro_probs: np.ndarray) -> TwoTierSolution:
        """The point's solution at its converged rates, from its last
        step's chain probabilities and its chains solved at those rates."""
        l_mm, l_mf, l_ff, l_fm = rates
        params = self.params
        k_f, base = params.femto_capacity, params.macro_base_states
        femto_util = float(np.dot(np.arange(len(femto_probs)), femto_probs)) / max(k_f, 1)
        macro_occ = np.minimum(np.arange(len(macro_probs)), base)
        macro_util = float(np.dot(macro_occ, macro_probs)) / max(base, 1)
        lam_tf, lam_hm = self.lam_tf(l_mf, l_ff), self.lam_hm(l_mm, l_ff, l_fm)
        femto = ChainSolution(femto_probs, self.p_bf, self.p_df, femto_util,
                              handover_rate=params.alpha * l_ff + l_mf,
                              iterations=iterations, residual=residuals[-1],
                              spec=femto_chain)
        macro = ChainSolution(macro_probs, self.p_bm, self.p_dm, macro_util,
                              handover_rate=lam_hm, iterations=iterations,
                              residual=residuals[-1], spec=macro_chain)
        rates = {
            "lambda_h_mm": l_mm, "lambda_h_mf": l_mf,
            "lambda_h_ff": l_ff, "lambda_h_fm": l_fm,
            "lambda_T_f": lam_tf, "lambda_h_m": lam_hm,
            "mu_m": self.mu_m, "mu_f": self.mu_f,
        }
        return TwoTierSolution(femto, macro, rates, self.probs, iterations, residuals)


def solve_two_tier_sweep(sweep) -> list[TwoTierSolution]:
    """The fixed point of the coupled femto/macro chains at every point of
    sweep, a sequence of TwoTierParams.

    Handover arrival rates feed the two chains, whose blocking and dropping
    probabilities feed back into the rates.  _fixed_point iterates the four
    rates of every point together, each to a residual below
    FIXED_POINT_TOL, and each iteration solves the macro chains of the
    points still iterating through one ChainBatch, built once, which then
    solves the converged macro chains too.  A point's result does not
    depend on the other points, and the converged point is independent of
    FIXED_POINT_DAMPING (to the residual tolerance).
    """
    points = [_TwoTierPoint(params) for params in sweep]
    batch = ChainBatch(point.macro_chain for point in points)

    def step(active, rates):
        macro_rates = [points[i].macro_step_rates(r) for i, r in zip(active, rates)]
        return [points[i].new_rates(r, p_bm, p_dm) for i, r, (_, (p_bm, p_dm))
                in zip(active, rates, batch.solve(active, macro_rates))]

    rates, iterations, residuals = _fixed_point(
        step, [[0.0, 0.0, 0.0, 0.0] for _ in points], "two-tier",
        lambda i: f"n = {points[i].params.n}")

    macro_rates = [(point.params.lambda_o_m, point.lam_hm(l_mm, l_ff, l_fm))
                   for point, (l_mm, _, l_ff, l_fm) in zip(points, rates)]
    macro_rows = batch.solve(range(len(points)), macro_rates)
    femto_chains = [two_tier_femto_chain(point.params, point.lam_tf(l_mf, l_ff))
                    for point, (_, l_mf, l_ff, _) in zip(points, rates)]
    # a layer of no femtocells has no femto chain to solve
    has_femto = [point.params.n > 0 for point in points]
    chains = [c for c, f in zip(femto_chains, has_femto) if f]
    femto_rows = iter(ChainBatch(chains).solve(range(len(chains)),
                                               [c.stream_rates for c in chains]))
    solutions = []
    for j, point in enumerate(points):
        femto_probs = next(femto_rows)[0].copy() if has_femto[j] else np.array([1.0])
        solutions.append(point.solution(
            rates[j], iterations[j], residuals[j], femto_chains[j], femto_probs,
            _with_stream_rates(point.macro_chain, macro_rates[j]), macro_rows[j][0].copy()))
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
        if not 0.0 < self.capacity < math.inf:
            raise ValueError(f"capacity must be finite and > 0, got {self.capacity!r}")
        for name in ("eta", "lam_new"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        whole_counts(self, ("guard_channels",))
        share = sum(c.arrival_share for c in self.classes)
        if abs(share - 1.0) > 1e-9:
            raise ValueError(f"arrival shares must sum to 1, got {share}")


def _frac(x: float) -> Fraction:
    return Fraction(str(x))


def _request_terms(classes) -> list[Fraction]:
    """a_m beta_m of each class as an exact rational; they sum to the mean
    requested bandwidth."""
    return [_frac(c.arrival_share) * _frac(c.requested_bw) for c in classes]


def _class_sums(classes) -> tuple[Fraction, Fraction, Fraction]:
    """sum_m a_m beta_m, and the same sum weighted by gamma_h and by
    gamma_n, as exact rationals."""
    terms = _request_terms(classes)
    return (sum(terms), sum(w * _frac(c.degrade_hand) for w, c in zip(terms, classes)),
            sum(w * _frac(c.degrade_new) for w, c in zip(terms, classes)))


def _base_states(cap: Fraction, mean_req: Fraction) -> int:
    """N = floor(capacity / mean requested bandwidth)."""
    if mean_req <= 0:
        raise ValueError("mean requested bandwidth must be positive")
    return int(cap / mean_req)


def _dimensions(cap: Fraction, mean_req: Fraction, g_hand: Fraction,
                g_new: Fraction) -> tuple[int, int, int]:
    """(N, S, L) from the capacity and the sums of _class_sums."""
    n = _base_states(cap, mean_req)

    def extra(g: Fraction) -> int:
        kept = mean_req - g
        if kept <= 0:
            raise ValueError("degradation factors leave no guaranteed bandwidth")
        return int(cap * g / (kept * mean_req))

    return n, extra(g_hand), extra(g_new)


def chain_dimensions(classes, capacity: float) -> tuple[int, int, int]:
    """(N, S, L) state counts, computed on exact rationals before flooring."""
    return _dimensions(_frac(capacity), *_class_sums(classes))


def base_states(classes, capacity: float) -> int:
    """N of chain_dimensions(classes, capacity) alone, without reading the
    degradation factors."""
    return _base_states(_frac(capacity), sum(_request_terms(classes)))


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
    release rate with the state.
    """
    t_full = mean_duration_at_full(classes)
    mu1 = eta + 1.0 / t_full
    rates = np.full(n + s, mu1)
    occupied = []
    for i in range(n + 1, n + s + 1):
        mix = CellLoadState(capacity, tuple(classes),
                            counts=[c.arrival_share * i for c in classes])
        balanced = rebalance(mix)
        occupied.append(balanced.occupied)
        t = 0.0
        for c, b in zip(classes, balanced.allocs):
            stretch = 1.0 if c.kind == "rt" else c.requested_bw / b
            t += c.arrival_share * c.duration_s * stretch
        rates[i - 1] = eta + 1.0 / t
    return rates, occupied


@dataclass(frozen=True)
class Ch6Cell:
    """The adaptive-CAC cell under one scheme: everything of the chain that
    does not depend on the arrival rates, so a sweep over the new-call rate
    builds it once.

    New calls are admitted below new_limit = N + L - guard (guard is
    guard_channels for the guard scheme, else 0); handovers below N + S.
    hard-qos and guard degrade no call, so for them S = L = 0.  mu_rates
    holds the per-call release rates of states 1..N+S, srv the total
    departure rate of states 0..N+S, occupancy the bandwidth occupied in
    each state.  Both arrays are read-only, so cells and solutions may
    share them.

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
    mu_rates: np.ndarray
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
    themselves, at the widest S, serves every scheme: each cell's arrays
    are read-only views of its first N+S rates and N+S+1 states.
    """
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
    mu_rates = _read_only(mu_rates)
    p_h = params.eta / (params.eta + 1.0 / mean_duration_at_full(params.classes))
    return [Ch6Cell(scheme, n, s, ell, new_limit, p_h, mu_rates[:n + s], srv[:n + s + 1],
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
        if not 0.0 <= lam_new < math.inf:
            raise ValueError(f"lam_new must be finite and >= 0, got {lam_new!r}")
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
        extra = {"N": cell.n, "S": cell.s, "L": cell.ell, "P_h": cell.p_h,
                 "mu_rates": cell.mu_rates, "scheme": cell.scheme}
        solutions[c].append(ChainSolution(
            probs, p_b, p_d, utilization, handover_rate=lam_h, iterations=n_iter,
            residual=res[-1], extra=extra,
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
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu!r}")


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
        extra={"P_B_voice": p_b_v, "P_B_background": p_b_back,
               "M": m, "N": n, "S": s, "L": params.l_states},
        spec=chain,
    )
