"""Markov-chain traffic models: the coupled two-tier femto/macro system, the
single-cell bandwidth-adaptive chain, and the MBS cell chain.

Each chain is described once, as a LossChainSpec built by its model's
*_chain function (Ch6Cell.chain for the adaptive cell); the solvers here
evaluate that spec analytically and femtonet.des simulates the same spec.
The stationary distribution is computed in log space, so state counts in
the hundreds stay numerically exact.  Handover arrival rates and blocking
and dropping probabilities depend on each other; both fixed points run one
damped successive substitution, _fixed_point, to the requested residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import _despy
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


def _fixed_point(step, rates: list[float], what: str):
    """Damped successive substitution on a list of rates.

    Each iteration calls step(rates) once for the new rates, records the
    residual max |new - old| and moves every rate by FIXED_POINT_DAMPING of
    its change, until a residual falls below FIXED_POINT_TOL.  Returns the
    damped rates, the iteration count and the residuals; after
    MAX_ITERATIONS it raises NonConvergenceError naming `what`.
    """
    residuals = []
    for iteration in range(1, MAX_ITERATIONS + 1):
        new = step(rates)
        residual = max([abs(b - a) for a, b in zip(rates, new)])
        residuals.append(residual)
        rates = [a + FIXED_POINT_DAMPING * (b - a) for a, b in zip(rates, new)]
        if residual < FIXED_POINT_TOL:
            return rates, iteration, residuals
    raise NonConvergenceError(f"{what} fixed point did not converge", residuals)


def erlang_b(servers: int, offered: float) -> float:
    """Blocking probability of M/M/c/c via the stable recursion."""
    if servers < 0 or offered < 0:
        raise ValueError("servers and offered load must be >= 0")
    if offered == 0.0:
        return 0.0
    b = 1.0
    for k in range(1, servers + 1):
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
    and the logs of the (positive) death rates."""
    logp = np.empty(len(births) + 1)
    logp[0] = 0.0
    steps = logp[1:]
    with np.errstate(divide="ignore"):
        # zero birth rates mark unreachable upper states (log 0 -> -inf -> p 0)
        np.log(births, out=steps)
    steps -= log_deaths
    np.add.accumulate(steps, out=steps)
    logp -= logp.max()
    np.exp(logp, out=logp)
    logp /= logp.sum()
    return logp


@dataclass(frozen=True)
class LossChainSpec:
    """A loss cell fed by independent Poisson arrival streams.

    srv_rates[i] is the total departure rate in state i; stream k is
    admitted while the state is below stream_limits[k].  By convention the
    last stream is the handover stream when hand_stream is unset.
    """

    stream_rates: tuple[float, ...]
    stream_limits: tuple[int, ...]
    srv_rates: tuple[float, ...]
    start_state: int = 0
    min_state: int = 0
    new_streams: tuple[int, ...] = (0,)
    hand_stream: int | None = None

    # the logs of the death rates srv_rates[min_state+1:], or None when one
    # of them is not positive: loss_chain_probs then raises, while the DES
    # still simulates the chain
    log_deaths: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _despy.check_loss_chain(self.stream_rates, self.stream_limits,
                                self.srv_rates, self.start_state, self.min_state)
        n_streams = len(self.stream_rates)
        hand = () if self.hand_stream is None else (self.hand_stream,)
        if not all(0 <= k < n_streams for k in (*self.new_streams, *hand)):
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


def _with_hand_rate(spec: LossChainSpec, lam_hand: float) -> LossChainSpec:
    """The same chain with its handover stream at lam_hand.  The rest of
    the spec was checked when it was made, so only the new rate is checked
    here and the copy skips __post_init__, sharing the spec's log_deaths."""
    _despy.check_rates((lam_hand,))
    rates = list(spec.stream_rates)
    rates[spec.hand_stream] = lam_hand
    out = object.__new__(LossChainSpec)
    out.__dict__.update(spec.__dict__, stream_rates=tuple(rates))
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
        for name in ("n", "femto_capacity", "macro_base_states", "macro_adaptive_states"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
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


def solve_two_tier(params: TwoTierParams) -> TwoTierSolution:
    """Fixed point of the coupled femto/macro chains.

    Handover arrival rates feed the two chains, whose blocking and dropping
    probabilities feed back into the rates; _fixed_point iterates the four
    rates to a residual below FIXED_POINT_TOL.  The converged point is
    independent of FIXED_POINT_DAMPING (to the residual tolerance).
    """
    probs = handover_probabilities(params)
    mu_m, mu_f = channel_release_rates(params)
    n, k_f = params.n, params.femto_capacity
    alpha, beta = params.alpha, params.beta_prob
    lam_of, lam_om = params.lambda_o_f, params.lambda_o_m

    # the last step's chain probabilities; lambda_T,f reads the P_D,m of the
    # step before
    p_bf = p_df = p_bm = p_dm = 0.0
    macro_chain = two_tier_macro_chain(params, 0.0)

    def step(rates):
        nonlocal p_bf, p_df, p_bm, p_dm, macro_chain
        l_mm, l_mf, l_ff, l_fm = rates
        lam_tf = lam_of + l_mf + alpha * l_ff + p_dm * beta * l_ff
        if n > 0:
            offered = lam_tf / n / mu_f
            p_bf = p_df = erlang_b(k_f, offered)
        else:
            p_bf = p_df = 0.0

        lam_hm = l_mm + l_fm + alpha * p_df * l_ff + (1.0 - alpha) * l_ff
        macro_chain = _with_hand_rate(macro_chain, lam_hm)
        _, (p_bm, p_dm) = loss_chain_probs(macro_chain)

        num_m = (1.0 - p_bm) * (lam_om + lam_of * p_bf) + (1.0 - p_dm) * (
            l_fm + l_ff * (1.0 - alpha + alpha * p_df))
        den_m = 1.0 - probs.mm * (1.0 - p_dm)
        num_f = lam_of * (1.0 - p_bf) + l_mf * (1.0 - p_df)
        den_f = 1.0 - probs.ff * (1.0 - p_df) * (alpha + (1.0 - alpha) * p_dm)
        return (probs.mm * num_m / den_m, probs.mf * num_m / den_m,
                probs.ff * num_f / den_f, probs.fm * num_f / den_f)

    (l_mm, l_mf, l_ff, l_fm), iterations, residuals = _fixed_point(
        step, [0.0, 0.0, 0.0, 0.0], "two-tier")

    lam_tf = lam_of + l_mf + alpha * l_ff + p_dm * beta * l_ff
    lam_hm = l_mm + l_fm + alpha * p_df * l_ff + (1.0 - alpha) * l_ff
    femto_chain = two_tier_femto_chain(params, lam_tf)
    femto_probs = loss_chain_probs(femto_chain)[0] if n > 0 else np.array([1.0])
    macro_chain = _with_hand_rate(macro_chain, lam_hm)
    macro_probs, _ = loss_chain_probs(macro_chain)

    femto_util = float(np.dot(np.arange(len(femto_probs)), femto_probs)) / max(k_f, 1)
    macro_occ = np.minimum(np.arange(len(macro_probs)), params.macro_base_states)
    macro_util = float(np.dot(macro_occ, macro_probs)) / max(params.macro_base_states, 1)

    femto = ChainSolution(femto_probs, p_bf, p_df, femto_util,
                          handover_rate=alpha * l_ff + l_mf, iterations=iterations,
                          residual=residuals[-1], spec=femto_chain)
    macro = ChainSolution(macro_probs, p_bm, p_dm, macro_util,
                          handover_rate=lam_hm, iterations=iterations,
                          residual=residuals[-1], spec=macro_chain)
    rates = {
        "lambda_h_mm": l_mm, "lambda_h_mf": l_mf,
        "lambda_h_ff": l_ff, "lambda_h_fm": l_fm,
        "lambda_T_f": lam_tf, "lambda_h_m": lam_hm,
        "mu_m": mu_m, "mu_f": mu_f,
    }
    return TwoTierSolution(femto, macro, rates, probs, iterations, residuals)


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
        if self.guard_channels < 0:
            raise ValueError(f"guard_channels must be >= 0, got {self.guard_channels!r}")
        share = sum(c.arrival_share for c in self.classes)
        if abs(share - 1.0) > 1e-9:
            raise ValueError(f"arrival shares must sum to 1, got {share}")


def _frac(x: float) -> Fraction:
    return Fraction(str(x))


def chain_dimensions(classes, capacity: float) -> tuple[int, int, int]:
    """(N, S, L) state counts, computed on exact rationals before flooring."""
    cap = _frac(capacity)
    # per class: a_m * beta_m, gamma_h and gamma_n
    rows = [(_frac(c.arrival_share) * _frac(c.requested_bw),
             _frac(c.degrade_hand), _frac(c.degrade_new)) for c in classes]
    mean_req = sum(w for w, _, _ in rows)
    if mean_req <= 0:
        raise ValueError("mean requested bandwidth must be positive")
    n = int(cap / mean_req)

    def extra(k: int) -> int:
        g = sum(row[0] * row[k] for row in rows)
        kept = mean_req - g
        if kept <= 0:
            raise ValueError("degradation factors leave no guaranteed bandwidth")
        return int(cap * g / (kept * mean_req))

    return n, extra(1), extra(2)


def _scheme_classes(classes, scheme: str):
    if scheme in ("proposed",):
        return classes
    out = []
    for c in classes:
        if scheme == "non-prioritized":
            out.append(replace(c, degrade_new=c.degrade_hand))
        elif scheme == "aqos":
            out.append(replace(c, degrade_new=0.0))
        elif scheme in ("hard-qos", "guard"):
            out.append(replace(c, degrade_new=0.0, degrade_hand=0.0))
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    return tuple(out)


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
    each state.  Both arrays are read-only, so solutions may share them.
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

    def solve(self, lam_new: float) -> ChainSolution:
        """The cell at new-call rate lam_new, with the handover rate at its
        fixed point.

        The handover arrival rate and the chain couple through
        lam_h = P_h (1 - P_B) lam_n / (1 - P_h (1 - P_D)); _fixed_point
        iterates lam_h from P_h lam_n to FIXED_POINT_TOL.  lam_new must be
        finite and >= 0.
        """
        if not 0.0 <= lam_new < math.inf:
            raise ValueError(f"lam_new must be finite and >= 0, got {lam_new!r}")
        chain = self.chain(lam_new, 0.0)
        p_h = self.p_h

        def step(rates):
            _, (p_b, p_d) = loss_chain_probs(_with_hand_rate(chain, rates[0]))
            return [p_h * (1.0 - p_b) * lam_new / (1.0 - p_h * (1.0 - p_d))]

        (lam_h,), iterations, residuals = _fixed_point(step, [p_h * lam_new], "ch6")
        chain = _with_hand_rate(chain, lam_h)
        probs, (p_b, p_d) = loss_chain_probs(chain)
        utilization = float(np.dot(probs, self.occupancy)) / self.capacity

        return ChainSolution(
            probs, p_b, p_d, utilization, handover_rate=lam_h,
            iterations=iterations, residual=residuals[-1],
            extra={"N": self.n, "S": self.s, "L": self.ell, "P_h": p_h,
                   "mu_rates": self.mu_rates, "scheme": self.scheme},
            spec=chain,
        )


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def ch6_cells(params: Ch6QueueParams, schemes) -> list[Ch6Cell]:
    """The cells of params under each of schemes; params.lam_new is not read.

    state_release_rates reads of each class only its kind, request, gamma_h,
    share and duration, never gamma_n, so schemes whose classes agree on
    those share one release-rate pass (N and S follow from the same fields).
    """
    cells = []
    passes = {}
    for scheme in schemes:
        classes = _scheme_classes(params.classes, scheme)
        n, s, ell = chain_dimensions(classes, params.capacity)
        guard = params.guard_channels if scheme == "guard" else 0
        if not 0 <= guard <= n:
            raise ValueError("guard channels outside [0, N]")
        key = tuple((c.kind, c.requested_bw, c.degrade_hand, c.arrival_share,
                     c.duration_s) for c in classes)
        if key not in passes:
            passes[key] = state_release_rates(classes, params.capacity, params.eta, n, s)
        mu_rates, occupied = passes[key]
        srv = tuple(i * mu_rates[i - 1] if i else 0.0 for i in range(n + s + 1))
        mean_req = sum(c.arrival_share * c.requested_bw for c in classes)
        occupancy = [min(i * mean_req, params.capacity) for i in range(n + 1)] + occupied
        p_h = params.eta / (params.eta + 1.0 / mean_duration_at_full(classes))
        cells.append(Ch6Cell(scheme, n, s, ell, n + ell - guard, p_h,
                             _read_only(mu_rates), srv, _read_only(occupancy),
                             params.capacity))
    return cells


def ch6_cell(params: Ch6QueueParams, scheme: str = "proposed") -> Ch6Cell:
    """The cell of params under one scheme; params.lam_new is not read."""
    return ch6_cells(params, (scheme,))[0]


def solve_ch6(params: Ch6QueueParams, scheme: str = "proposed") -> ChainSolution:
    """Solve the adaptive-CAC cell for one scheme at params.lam_new: the
    fixed point of Ch6Cell.solve.

    To sweep the new-call rate, build the cell once with ch6_cell and call
    its solve for each rate; this builds a new cell on every call.
    """
    return ch6_cell(params, scheme).solve(params.lam_new)


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
        start_state=m, min_state=m,
        new_streams=(0, 1), hand_stream=2)


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
