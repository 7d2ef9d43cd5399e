"""Markov-chain traffic models: the coupled two-tier femto/macro system, the
single-cell bandwidth-adaptive chain, and the MBS cell chain.

All chains are birth-death processes evaluated in log space, so state counts
in the hundreds stay numerically exact.  Handover arrival rates and blocking
and dropping probabilities depend on each other; the solvers run damped
successive substitution to the requested residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

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

    def check_normalized(self, tol: float = 1e-9) -> None:
        assert abs(self.probs.sum() - 1.0) < tol


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
    with np.errstate(divide="ignore"):
        # zero birth rates mark unreachable upper states (log 0 -> -inf -> p 0)
        logp = np.concatenate([[0.0], np.cumsum(np.log(births) - np.log(deaths))])
    logp -= logp.max()
    p = np.exp(logp)
    return p / p.sum()


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
        if self.alpha + self.beta_prob > 1.0 + 1e-12:
            raise ValueError("alpha + beta must be <= 1")
        if min(self.mu, self.eta_f, self.eta_m) <= 0:
            raise ValueError("rates must be positive")
        if self.n < 0:
            raise ValueError("deployed femtocell count n must be >= 0")
        if self.lambda_o_f < 0 or self.lambda_o_m < 0:
            raise ValueError("arrival rates must be >= 0")


@dataclass(frozen=True)
class HandoverProbabilities:
    mm: float
    fm: float
    ff: float
    mf: float


def handover_probabilities(params: TwoTierParams) -> HandoverProbabilities:
    """Closed-form handover probabilities of the four movement types."""
    n = params.n
    cov = n * (params.r_f / params.r_m) ** 2
    if cov > 1.0:
        raise CoverageError(f"femtocell coverage fraction {cov:.3f} exceeds 1")
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


def _macro_adaptive_chain(lam_total: float, lam_hand: float, mu_m: float,
                          n_states: int, s_states: int) -> np.ndarray:
    births = [lam_total] * n_states + [lam_hand] * s_states
    deaths = [(i + 1) * mu_m for i in range(n_states + s_states)]
    return birth_death_probs(births, deaths)


@dataclass
class TwoTierSolution:
    femto: ChainSolution
    macro: ChainSolution
    rates: dict
    probabilities: HandoverProbabilities
    iterations: int
    residuals: list[float]


def solve_two_tier(params: TwoTierParams,
                   damping: float = FIXED_POINT_DAMPING) -> TwoTierSolution:
    """Fixed point of the coupled femto/macro chains.

    Handover arrival rates feed the two chains, whose blocking and dropping
    probabilities feed back into the rates; damped substitution iterates to
    a residual below FIXED_POINT_TOL on all four rates.  The converged
    point is damping-independent (to the residual tolerance).
    """
    probs = handover_probabilities(params)
    mu_m, mu_f = channel_release_rates(params)
    n, k_f = params.n, params.femto_capacity
    alpha, beta = params.alpha, params.beta_prob
    lam_of, lam_om = params.lambda_o_f, params.lambda_o_m

    l_mm = l_mf = l_ff = l_fm = 0.0
    p_bf = p_df = p_bm = p_dm = 0.0
    residuals: list[float] = []

    for iteration in range(1, MAX_ITERATIONS + 1):
        lam_tf = lam_of + l_mf + alpha * l_ff + p_dm * beta * l_ff
        if n > 0:
            offered = lam_tf / n / mu_f
            p_bf = p_df = erlang_b(k_f, offered)
        else:
            p_bf = p_df = 0.0

        lam_hm = l_mm + l_fm + alpha * p_df * l_ff + (1.0 - alpha) * l_ff
        macro_probs = _macro_adaptive_chain(
            lam_om + lam_hm, lam_hm, mu_m,
            params.macro_base_states, params.macro_adaptive_states)
        p_bm = float(macro_probs[params.macro_base_states:].sum())
        p_dm = float(macro_probs[-1])

        num_m = (1.0 - p_bm) * (lam_om + lam_of * p_bf) + (1.0 - p_dm) * (
            l_fm + l_ff * (1.0 - alpha + alpha * p_df))
        den_m = 1.0 - probs.mm * (1.0 - p_dm)
        new_mm = probs.mm * num_m / den_m
        new_mf = probs.mf * num_m / den_m

        num_f = lam_of * (1.0 - p_bf) + l_mf * (1.0 - p_df)
        den_f = 1.0 - probs.ff * (1.0 - p_df) * (alpha + (1.0 - alpha) * p_dm)
        new_ff = probs.ff * num_f / den_f
        new_fm = probs.fm * num_f / den_f

        residual = max(abs(new_mm - l_mm), abs(new_mf - l_mf),
                       abs(new_ff - l_ff), abs(new_fm - l_fm))
        residuals.append(residual)
        d = damping
        l_mm += d * (new_mm - l_mm)
        l_mf += d * (new_mf - l_mf)
        l_ff += d * (new_ff - l_ff)
        l_fm += d * (new_fm - l_fm)
        if residual < FIXED_POINT_TOL:
            break
    else:
        raise NonConvergenceError("two-tier fixed point did not converge", residuals)

    lam_tf = lam_of + l_mf + alpha * l_ff + p_dm * beta * l_ff
    lam_hm = l_mm + l_fm + alpha * p_df * l_ff + (1.0 - alpha) * l_ff
    if n > 0:
        offered = lam_tf / n / mu_f
        femto_probs = birth_death_probs(
            [lam_tf / n] * k_f, [(i + 1) * mu_f for i in range(k_f)])
    else:
        femto_probs = np.array([1.0])
    macro_probs = _macro_adaptive_chain(
        lam_om + lam_hm, lam_hm, mu_m,
        params.macro_base_states, params.macro_adaptive_states)

    femto_util = float(np.dot(np.arange(len(femto_probs)), femto_probs)) / max(k_f, 1)
    macro_occ = np.minimum(np.arange(len(macro_probs)), params.macro_base_states)
    macro_util = float(np.dot(macro_occ, macro_probs)) / max(params.macro_base_states, 1)

    femto = ChainSolution(femto_probs, p_bf, p_df, femto_util,
                          handover_rate=alpha * l_ff + l_mf,
                          iterations=iteration, residual=residuals[-1])
    macro = ChainSolution(macro_probs, p_bm, p_dm, macro_util,
                          handover_rate=lam_hm,
                          iterations=iteration, residual=residuals[-1])
    rates = {
        "lambda_h_mm": l_mm, "lambda_h_mf": l_mf,
        "lambda_h_ff": l_ff, "lambda_h_fm": l_fm,
        "lambda_T_f": lam_tf, "lambda_h_m": lam_hm,
        "mu_m": mu_m, "mu_f": mu_f,
    }
    return TwoTierSolution(femto, macro, rates, probs, iteration, residuals)


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
        share = sum(c.arrival_share for c in self.classes)
        if abs(share - 1.0) > 1e-9:
            raise ValueError(f"arrival shares must sum to 1, got {share}")


def _frac(x: float) -> Fraction:
    return Fraction(str(x))


def chain_dimensions(classes, capacity: float) -> tuple[int, int, int]:
    """(N, S, L) state counts, computed on exact rationals before flooring."""
    cap = _frac(capacity)
    mean_req = sum(_frac(c.arrival_share) * _frac(c.requested_bw) for c in classes)
    if mean_req <= 0:
        raise ValueError("mean requested bandwidth must be positive")
    n = int(cap / mean_req)

    def extra(select_gamma) -> int:
        g = sum(_frac(c.arrival_share) * select_gamma(c) * _frac(c.requested_bw)
                for c in classes)
        kept = sum(_frac(c.arrival_share) * (1 - select_gamma(c))
                   * _frac(c.requested_bw) for c in classes)
        if kept <= 0:
            raise ValueError("degradation factors leave no guaranteed bandwidth")
        return int(cap * g / (kept * mean_req))

    s = extra(lambda c: _frac(c.degrade_hand))
    ell = extra(lambda c: _frac(c.degrade_new))
    return n, s, ell


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
                        n: int, s: int) -> np.ndarray:
    """Per-call channel release rate mu_i for states 1..N+S.

    Up to N every class holds its request, so mu_i = eta + 1/T(full).  Above
    N the expected class mix a_m * i is rebalanced; degraded non-real-time
    calls stretch in proportion to the bandwidth they lost, which lowers the
    release rate with the state.
    """
    t_full = mean_duration_at_full(classes)
    mu1 = eta + 1.0 / t_full
    rates = np.full(n + s, mu1)
    for i in range(n + 1, n + s + 1):
        mix = CellLoadState(capacity, tuple(classes),
                            counts=[c.arrival_share * i for c in classes])
        balanced = rebalance(mix)
        t = 0.0
        for c, b in zip(classes, balanced.allocs):
            stretch = 1.0 if c.kind == "rt" else c.requested_bw / b
            t += c.arrival_share * c.duration_s * stretch
        rates[i - 1] = eta + 1.0 / t
    return rates


def ch6_chain_probs(lam_new: float, lam_hand: float, mu_rates: np.ndarray,
                    n: int, s: int, ell: int) -> np.ndarray:
    """Stationary probabilities for states 0..N+S: new+handover arrivals up
    to N+L, handover-only beyond, total departure rate i * mu_i."""
    births = [lam_new + lam_hand] * (n + ell) + [lam_hand] * (s - ell)
    deaths = [(i + 1) * mu_rates[i] for i in range(n + s)]
    return birth_death_probs(births, deaths)


def _hard_qos_probs(lam_new, lam_hand, mu1, n, guard):
    births = [lam_new + lam_hand] * (n - guard) + [lam_hand] * guard
    deaths = [(i + 1) * mu1 for i in range(n)]
    return birth_death_probs(births, deaths)


def solve_ch6(params: Ch6QueueParams, scheme: str = "proposed",
              damping: float = FIXED_POINT_DAMPING) -> ChainSolution:
    """Solve the adaptive-CAC cell for one scheme.

    The handover arrival rate and the chain couple through
    lam_h = P_h (1 - P_B) lam_n / (1 - P_h (1 - P_D)); damped substitution
    iterates the pair to FIXED_POINT_TOL.
    """
    classes = _scheme_classes(params.classes, scheme)
    n, s, ell = chain_dimensions(classes, params.capacity)
    if scheme == "guard":
        guard = params.guard_channels
        if not 0 <= guard <= n:
            raise ValueError("guard channels outside [0, N]")
    t_full = mean_duration_at_full(classes)
    mu = 1.0 / t_full
    p_h = params.eta / (params.eta + mu)
    mu_rates = state_release_rates(classes, params.capacity, params.eta, n, s)

    lam_n = params.lam_new

    def chain_at(lam_h):
        if scheme == "guard":
            probs = _hard_qos_probs(lam_n, lam_h, mu_rates[0], n, params.guard_channels)
            return probs, float(probs[n - params.guard_channels:].sum()), float(probs[-1])
        if scheme == "hard-qos":
            probs = _hard_qos_probs(lam_n, lam_h, mu_rates[0], n, 0)
            return probs, float(probs[-1]), float(probs[-1])
        probs = ch6_chain_probs(lam_n, lam_h, mu_rates, n, s, ell)
        return probs, float(probs[n + ell:].sum()), float(probs[-1])

    lam_h = p_h * lam_n  # starting guess
    residuals = []
    for iteration in range(1, MAX_ITERATIONS + 1):
        probs, p_b, p_d = chain_at(lam_h)
        new_h = p_h * (1.0 - p_b) * lam_n / (1.0 - p_h * (1.0 - p_d))
        residual = abs(new_h - lam_h)
        residuals.append(residual)
        lam_h += damping * (new_h - lam_h)
        if residual < FIXED_POINT_TOL:
            break
    else:
        raise NonConvergenceError("ch6 fixed point did not converge", residuals)
    probs, p_b, p_d = chain_at(lam_h)

    mean_req = sum(c.arrival_share * c.requested_bw for c in classes)
    occupancies = []
    for i in range(len(probs)):
        if i <= n or scheme in ("hard-qos", "guard"):
            occupancies.append(min(i * mean_req, params.capacity))
        else:
            mix = CellLoadState(params.capacity, tuple(classes),
                                counts=[c.arrival_share * i for c in classes])
            occupancies.append(rebalance(mix).occupied)
    utilization = float(np.dot(probs, occupancies)) / params.capacity

    return ChainSolution(
        probs, p_b, p_d, utilization, handover_rate=lam_h,
        iterations=iteration, residual=residuals[-1],
        extra={"N": n, "S": s, "L": ell, "P_h": p_h,
               "mu_rates": mu_rates, "scheme": scheme},
    )


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
        if self.mu <= 0:
            raise ValueError("service rate must be positive")


def solve_ch7(params: Ch7QueueParams) -> ChainSolution:
    """MBS cell: chain starts at M (sessions always on); background new calls
    blocked from N, voice/unicast new calls from N+L, handovers dropped only
    at N+S."""
    m, n, s, ell = params.sessions, params.n_states, params.s_states, params.l_states
    lam_t = (params.lam_new_voice + params.lam_new_unicast
             + params.lam_new_background + params.lam_hand)
    lam_mid = params.lam_new_voice + params.lam_new_unicast + params.lam_hand

    births = [lam_t] * (n - m) + [lam_mid] * ell + [params.lam_hand] * (s - ell)
    deaths = [(i + 1) * params.mu for i in range(n + s - m)]
    if not births:
        probs = np.array([1.0])
    else:
        if lam_t == 0.0:
            probs = np.zeros(n + s - m + 1)
            probs[0] = 1.0
        else:
            probs = birth_death_probs(births, deaths)

    def prob_from(state: int) -> float:
        return float(probs[state - m:].sum())

    p_d = float(probs[-1])
    p_b_v = prob_from(n + ell)
    p_b_back = prob_from(n)
    occupancy = np.arange(m, n + s + 1)
    utilization = float(np.dot(probs, occupancy)) / (n + s)
    return ChainSolution(
        probs, p_b_v, p_d, utilization, handover_rate=params.lam_hand,
        extra={"P_B_voice": p_b_v, "P_B_unicast": p_b_v, "P_B_background": p_b_back,
               "M": m, "N": n, "S": s, "L": ell},
    )
