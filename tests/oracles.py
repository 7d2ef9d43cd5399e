"""Independent brute-force oracles used only by the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from femtonet.queueing import check_loss_chain
from femtonet.spectrum import (
    DEFAULT_TOTAL_HZ,
    INTERFERENCE_RADIUS_SCALE,
    MAX_SHRINK_STEPS,
    SHRINK_FACTOR,
    Band,
    PlanConfigError,
    SpectrumPlan,
)


def balance_equation_solve(birth_rates, death_rates) -> np.ndarray:
    """Stationary distribution from the full rate matrix via dense GTH
    elimination (state-reduction); subtraction-free, so it stays accurate on
    chains whose probabilities span many orders of magnitude.  Independent of
    the product-form path it checks."""
    births = np.asarray(birth_rates, dtype=float)
    deaths = np.asarray(death_rates, dtype=float)
    n = len(births) + 1
    q = np.zeros((n, n))
    for i in range(n - 1):
        q[i, i + 1] = births[i]
        q[i + 1, i] = deaths[i]

    for k in range(n - 1, 0, -1):
        s = q[k, :k].sum()
        q[:k, k] /= s
        for i in range(k):
            if q[i, k]:
                q[i, :k] += q[i, k] * q[k, :k]
                q[i, i] = 0.0
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ q[:k, k]
    return pi / pi.sum()


def erlang_b_direct(servers: int, offered: float) -> float:
    """Erlang-B from the definition, via exact term accumulation."""
    from math import factorial

    terms = [offered**k / factorial(k) for k in range(servers + 1)]
    return terms[-1] / sum(terms)


def kaufman_roberts(classes, capacity: int, rates) -> list[float]:
    """Per-class call blocking of a multi-rate loss system with complete
    sharing (Kaufman, IEEE Trans. Commun. 1981; Roberts 1981): a call of
    class m holds classes[m] of the `capacity` units, in integers, and
    class m offers rates[m] erlangs.  The occupancy q(j) of j units has a
    product form, j q(j) = sum_m a_m b_m q(j - b_m), and class m blocks in
    the states j > capacity - b_m.  q is kept in floats, rescaled whenever
    it grows past 1e200."""
    q = [1.0] + [0.0] * capacity
    for j in range(1, capacity + 1):
        q[j] = sum(a * b * q[j - b] for b, a in zip(classes, rates) if b <= j) / j
        if q[j] > 1e200:
            q = [x / q[j] for x in q]
    total = sum(q)
    return [sum(q[max(capacity - b + 1, 0):]) / total for b in classes]


def greedy_layer_packing(budget, sessions):
    """Round-robin layer distribution by priority rank.

    Start every session at its minimum; hand out one enhanced layer at a
    time, highest-priority session first, while the budget allows.
    Returns the per-session layer counts.
    """
    layers = [s.min_layers for s in sessions]
    spent = sum(s.base_bw + s.layer_bw * s.min_layers for s in sessions)
    while True:
        progressed = False
        for idx, s in enumerate(sessions):
            if layers[idx] < s.max_layers and spent + s.layer_bw <= budget + 1e-12:
                layers[idx] += 1
                spent += s.layer_bw
                progressed = True
        if not progressed:
            break
    return layers


def popularity_allocation(capacity, beta_max, beta_min, viewers):
    """The Ch. 8 popularity allocation rank by rank in plain Python, with
    its satisfaction: (congested, bandwidths, per-rank satisfaction,
    viewer-weighted average, equal-share baseline).  viewers is one sorted
    row on a feasible capacity."""
    m_total = len(viewers)
    if m_total * beta_max <= capacity + 1e-9:
        return False, [beta_max] * m_total, [1.0] * m_total, 1.0, 1.0
    k_total = sum(viewers)
    scale = (m_total / k_total) * (capacity / m_total - beta_min) if k_total else 0.0
    beta_diff = beta_max - beta_min
    bws, carry = [], 0.0
    for rank, k_m in enumerate(viewers):
        provisional = scale * k_m + carry
        if provisional > beta_diff + 1e-9:
            carry += (provisional - beta_diff) / (m_total - (rank + 1))
            bws.append(beta_max)
        else:
            bws.append(beta_min + provisional)
    per_rank = [b / beta_max for b in bws]
    average = (sum(s * k for s, k in zip(per_rank, viewers)) / k_total
               if k_total else per_rank[0])
    return True, bws, per_rank, average, capacity / (beta_max * m_total)


# The band layout as it was computed before plans held a band table: a
# partition whose properties rebuild every Band on each read, and a plan-level
# branch for the dedicated/sub-band split.  Kept verbatim, so the table can be
# checked against it bit for bit.

BAND_LABELS = ("BT", "Bm1", "Bm2", "Bm3", "B1", "B2", "B3", "B4", "B5", "Bf", "Bm")


@dataclass(frozen=True)
class BandPartition:
    """System band split per the dynamic-reuse spectrum layout.

    macro_bands: the three equal cluster bands (Bm1, Bm2, Bm3).
    edge_thirds/edge_halves: the two subdivisions of Bm3, the edge spectrum
    of femtocells under the reference macrocell.
    """

    total_hz: float = DEFAULT_TOTAL_HZ

    def __post_init__(self):
        if self.total_hz <= 0:
            raise PlanConfigError("total bandwidth must be positive")

    @property
    def full(self) -> Band:
        return Band(0.0, self.total_hz, "BT")

    @property
    def macro_bands(self) -> tuple[Band, Band, Band]:
        w = self.total_hz / 3.0
        return tuple(Band(i * w, (i + 1) * w, f"Bm{i + 1}") for i in range(3))

    @property
    def edge_parent(self) -> Band:
        return self.macro_bands[2]

    @property
    def edge_thirds(self) -> tuple[Band, Band, Band]:
        p = self.edge_parent
        w = p.width / 3.0
        return tuple(Band(p.lo + i * w, p.lo + (i + 1) * w, f"B{i + 1}") for i in range(3))

    @property
    def edge_halves(self) -> tuple[Band, Band]:
        p = self.edge_parent
        w = p.width / 2.0
        return (Band(p.lo, p.lo + w, "B4"), Band(p.lo + w, p.hi, "B5"))

    def band(self, label: str) -> Band:
        for b in (self.full, *self.macro_bands, *self.edge_thirds, *self.edge_halves):
            if b.label == label:
                return b
        raise KeyError(f"unknown band label {label!r}")


def partition_band(partition: BandPartition, femto_fraction: float, label: str) -> Band:
    """The former `SpectrumPlan.band`: Bf/Bm from the femto fraction, every
    other label from the partition."""
    if label == "Bf":
        w = partition.total_hz * femto_fraction
        return Band(0.0, w, "Bf")
    if label == "Bm":
        w = partition.total_hz * femto_fraction
        return Band(w, partition.total_hz, "Bm")
    return partition.band(label)


def interfering(plan, topo, a, b):
    """The interference relation for one pair by a scalar distance: the
    two cells reach each other within INTERFERENCE_RADIUS_SCALE times the
    sum of their radii."""
    from femtonet.spectrum import INTERFERENCE_RADIUS_SCALE
    from femtonet.topology import distance

    reach = INTERFERENCE_RADIUS_SCALE * (cell_radius(plan, topo, a) + cell_radius(plan, topo, b))
    return distance(topo, a, b) <= reach


def cell_radius(plan, topo, fap_id):
    """A cell's radius: its shrunk radius, else the nominal one."""
    return plan.radius_of.get(fap_id, topo.femto_radius_m)


def pairwise_edge_conflicts(plan, topo):
    """Exhaustive O(n^2) scan for interfering pairs sharing an edge band."""
    ids = sorted(plan.femto_band)
    bad = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if interfering(plan, topo, a, b):
                ea = plan.femto_band[a]
                eb = plan.femto_band[b]
                if ea == eb:
                    bad.append((a, b))
    return bad


def static_reuse_labels(topo, seed):
    """Static-reuse center bands by the scalar O(n^2) loop: each FAP takes a
    band unused by every earlier FAP whose coverage disc overlaps its own."""
    from femtonet.topology import distance

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57A7)))
    reach = topo.femto_radius_m + topo.femto_radius_m
    labels = {}
    for f in topo.femtocells:
        used = {lab for other, lab in labels.items()
                if distance(topo, f, other) <= reach}
        free = [b for b in ("Bm2", "Bm3") if b not in used]
        if free:
            labels[f] = free[0] if len(free) == 1 else free[int(rng.integers(2))]
        else:
            labels[f] = ("Bm2", "Bm3")[int(rng.integers(2))]
    return labels


def brute_interferers(plan, topo, fap_id):
    """Assigned FAPs in interference range of fap_id, one scalar test each."""
    return [f for f in sorted(plan.femto_band)
            if f != fap_id and interfering(plan, topo, fap_id, f)]


def brute_neighbors(topo, fap_id):
    """FAPs within the neighbor threshold of fap_id, one scalar test each."""
    from femtonet.topology import distance

    return frozenset(f for f in topo.femtocells if f != fap_id
                     and distance(topo, fap_id, f) <= topo.neighbor_threshold_m)


def scalar_scan_levels(topo, ue_xy, params=None, obstructed=None):
    """Scan levels by the original per-FAP loop: one `distance` per FAP,
    clamped to 0.1 m, and P_T * P0 * d^-eta * 10^(-w * L / 10) written out."""
    from femtonet import topology as topo_mod
    from femtonet.neighborlist import OBSTRUCTION_WALLS
    from femtonet.radio import PropagationParams, linear_to_db

    params = params or PropagationParams()
    obstructed = obstructed or set()
    levels = {}
    for fap in topo.femtocells:
        d = max(topo_mod.distance(topo, fap, tuple(ue_xy)), 0.1)
        walls = OBSTRUCTION_WALLS if fap in obstructed else 0
        p = (params.tx_power_femto_w * params.p0_femto * d ** -params.path_loss_exp_femto_interf
             * 10.0 ** (-(walls * params.wall_loss_db) / 10.0))
        levels[fap] = linear_to_db(p) + 30.0  # W -> dBm
    return levels


def scalar_sir(topo, plan, ue_xy, serving, params=None, macro_tiers="all"):
    """`radio.sir` with P_T * P0 * d^-eta * 10^(-w * L / 10) written out for
    every link: the serving link through no wall, each in-band neighbor FAP
    (found by `brute_neighbors`) through its pair's walls, and each in-band
    macro BS through macro_ue_walls."""
    from femtonet.radio import PropagationParams, SirReport
    from femtonet.spectrum import bands_overlap

    params = params or PropagationParams()
    ue = tuple(ue_xy)
    band = plan.band_for_link(serving, ue, topo)

    def power(tx, p0, xy, eta, walls):
        return tx * p0 * math.dist(xy, ue) ** -eta * 10.0 ** (-(walls * params.wall_loss_db) / 10.0)

    signal = power(params.tx_power_femto_w, params.p0_femto, topo.position(serving),
                   params.path_loss_exp_serving, 0)
    sources, i_f, i_m = [], 0.0, 0.0
    for f in sorted(brute_neighbors(topo, serving)):
        if bands_overlap(band, plan.interferer_band(f)):
            walls = topo.walls.get((min(f, serving), max(f, serving)), topo.inter_femto_walls)
            p = power(params.tx_power_femto_w, params.p0_femto, topo.position(f),
                      params.path_loss_exp_femto_interf, walls)
            i_f += p
            sources.append((f"femto:{f}", p))
    sites = topo.macro_sites if macro_tiers == "all" else topo.macro_sites[:1]
    for j, xy in enumerate(sites):
        if bands_overlap(band, plan.macro_band(j)):
            p = power(params.tx_power_macro_w, params.p0_macro, xy,
                      params.path_loss_exp_macro_interf, topo.macro_ue_walls)
            i_m += p
            sources.append((f"macro:{j}", p))
    return SirReport(signal, i_f, i_m, tuple(sources), i_f + i_m == 0.0)


def full_scan(topo, ue_xy, serving, params=None, obstructed=None,
              s_t0_dbm=-90.0, s_t1_dbm=-75.0):
    """The scan as it was before it was cut to the detection reach: a level
    for every FAP, however far below S_T0."""
    from femtonet.neighborlist import RssiScan

    levels = scalar_scan_levels(topo, ue_xy, params=params, obstructed=obstructed)
    return RssiScan(levels, serving, s_t0_dbm, s_t1_dbm)


def femto_list_by_distance_row(scan, plan, topo, serving, d_max_m=40.0, access=None,
                               ue_xy=None):
    """build_list_from_femto as it was before its hidden candidates came
    from the neighbor table: every FAP within d_max of the user, from one
    full distance row, tested for a coordination hop from the serving FAP
    or a kept strong entry against a fresh `neighbors_of` set each."""
    from femtonet.neighborlist import (
        COORDINATION_WALL_LIMIT,
        _accessible,
        _neighbor_list,
        shares_frequency,
    )
    from femtonet.topology import neighbors_of

    ue = tuple(ue_xy) if ue_xy is not None else topo.position(serving)
    access = access or {}
    detected = {i: v for i, v in scan.detected().items()
                if i != serving and _accessible(topo, access, i)}
    strong = {i for i, v in detected.items() if v >= scan.s_t1_dbm}
    same_freq = {i for i in strong if shares_frequency(plan, i, serving)}
    kept_strong = strong - same_freq

    def coordinated(via, fap):
        return (fap in neighbors_of(topo, via)
                and topo.walls_between(via, fap) <= COORDINATION_WALL_LIMIT)

    coordinators = {serving, *kept_strong}
    hidden = set()
    for k in np.flatnonzero(topo.distances_to(ue) <= d_max_m).tolist():
        fap = topo.femtocells[k]
        if fap == serving or fap in kept_strong or not _accessible(topo, access, fap):
            continue
        weak = scan.levels_dbm.get(fap, -math.inf) < scan.s_t1_dbm
        if not (weak or shares_frequency(plan, fap, serving)):
            continue
        if any(coordinated(via, fap) for via in coordinators):
            hidden.add(fap)
    return _neighbor_list(scan, serving, detected, strong, same_freq, hidden)


# -- the stationary distribution, the chain dimensions and the ch6 cell as
# they were before LossChainSpec kept its death-rate logs, chain_dimensions
# built each class's rationals once and the schemes' cells shared their
# release-rate passes.  Kept verbatim as the bitwise reference for queueing.


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


def loss_chain_probs(spec) -> tuple[np.ndarray, list[float]]:
    """Stationary probabilities of states min_state..len(srv_rates)-1, and
    for each stream the probability that it finds the cell at or above its
    limit, i.e. that it rejects a call.

    The birth rate out of state i sums, in stream order from 0.0, the rates
    of the streams whose limit exceeds i; the death rate down into state i
    is srv_rates[i+1]."""
    lo = spec.min_state
    births = np.zeros(len(spec.srv_rates) - 1 - lo)
    for rate, limit in zip(spec.stream_rates, spec.stream_limits):
        births[:max(limit - lo, 0)] += rate
    probs = birth_death_probs(births, spec.srv_rates[lo + 1:])
    return probs, [float(probs[max(limit - lo, 0):].sum())
                   for limit in spec.stream_limits]


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


class UndefinedResidualError(ArithmeticError):
    """Residual fraction is undefined when no non-real-time call is present."""


def _n_nrt(state) -> float:
    return sum(n for n, c in zip(state.counts, state.classes) if c.kind == "nrt")


def check_invariants(state) -> None:
    """The one-state invariant checks, one state and one rule at a time."""
    from femtonet.admission import CONSERVATION_TOL, InvariantViolation

    if state.occupied > state.capacity + CONSERVATION_TOL:
        raise InvariantViolation(
            f"occupied {state.occupied} exceeds capacity {state.capacity}")
    for n, b, c in zip(state.counts, state.allocs, state.classes):
        if n == 0:
            continue
        if c.kind == "rt" and not math.isclose(b, c.requested_bw):
            raise InvariantViolation("real-time call not at full allocation")
        if b > c.requested_bw + CONSERVATION_TOL or b < c.floor_hand - CONSERVATION_TOL:
            raise InvariantViolation(
                f"class {c.index} allocation {b} outside "
                f"[{c.floor_hand}, {c.requested_bw}]")


def residual_fraction(state) -> float:
    """X = (C - real-time load) / (non-real-time requested load)."""
    demand = sum(
        n * c.requested_bw
        for n, c in zip(state.counts, state.classes) if c.kind == "nrt"
    )
    if _n_nrt(state) < 1 or demand == 0:
        raise UndefinedResidualError("no non-real-time calls in the system")
    rt_load = sum(
        n * b for n, b, c in zip(state.counts, state.allocs, state.classes)
        if c.kind == "rt"
    )
    return (state.capacity - rt_load) / demand


def scalar_rebalance(state):
    """One state's canonical allocation, water-filled in plain Python, one
    class at a time: the per-state routine that admission.rebalance_states
    batches."""
    from femtonet.admission import CONSERVATION_TOL, InvariantViolation

    out = state.copy()
    for m, c in enumerate(out.classes):
        if c.kind == "rt":
            out.allocs[m] = c.requested_bw

    try:
        x = residual_fraction(out)
    except UndefinedResidualError:
        check_invariants(out)
        return out

    nrt = [m for m, c in enumerate(out.classes)
           if c.kind == "nrt" and out.counts[m] > 0]
    if x >= 1.0:
        for m in nrt:
            out.allocs[m] = out.classes[m].requested_bw
        check_invariants(out)
        return out

    rt_load = sum(out.counts[m] * out.allocs[m]
                  for m, c in enumerate(out.classes) if c.kind == "rt")
    budget = out.capacity - rt_load
    active = list(nrt)
    capped: dict[int, float] = {}
    for _ in range(len(nrt) + 1):
        weight = sum(out.counts[m] * out.classes[m].floor_hand for m in active)
        if weight <= 0:
            break
        factor = budget / weight
        over = [m for m in active
                if factor * out.classes[m].floor_hand > out.classes[m].requested_bw]
        if not over:
            for m in active:
                out.allocs[m] = factor * out.classes[m].floor_hand
            break
        for m in over:
            capped[m] = out.classes[m].requested_bw
            budget -= out.counts[m] * out.classes[m].requested_bw
            active.remove(m)
    for m, b in capped.items():
        out.allocs[m] = b

    if any(out.allocs[m] < out.classes[m].floor_hand - CONSERVATION_TOL for m in nrt):
        raise InvariantViolation(
            "demand exceeds capacity even at handover floors")
    check_invariants(out)
    return out


def scalar_release_rates(classes, capacity: float, eta: float,
                         n: int, s: int) -> tuple[np.ndarray, list[float]]:
    """Per-call channel release rate mu_i for states 1..N+S, and the
    bandwidth occupied in each state N+1..N+S, one state at a time.

    Up to N every class holds its request, so mu_i = eta + 1/T(full).  Above
    N the expected class mix a_m * i is rebalanced with scalar_rebalance;
    degraded non-real-time calls stretch in proportion to the bandwidth they
    lost, which lowers the release rate with the state.
    """
    from femtonet.admission import CellLoadState
    from femtonet.queueing import mean_duration_at_full

    t_full = mean_duration_at_full(classes)
    mu1 = eta + 1.0 / t_full
    rates = np.full(n + s, mu1)
    occupied = []
    for i in range(n + 1, n + s + 1):
        mix = CellLoadState(capacity, tuple(classes),
                            counts=[c.arrival_share * i for c in classes])
        balanced = scalar_rebalance(mix)
        occupied.append(balanced.occupied)
        t = 0.0
        for c, b in zip(classes, balanced.allocs):
            stretch = 1.0 if c.kind == "rt" else c.requested_bw / b
            t += c.arrival_share * c.duration_s * stretch
        rates[i - 1] = eta + 1.0 / t
    return rates, occupied


def _scheme_classes(classes, scheme: str):
    """The classes with each (gamma_h, gamma_n) as scheme sets it:
    non-prioritized degrades new calls as far as handovers, aqos degrades
    no new call, and hard-qos and guard degrade no call."""
    if scheme == "proposed":
        return classes
    gammas = {"non-prioritized": lambda c: (c.degrade_hand, c.degrade_hand),
              "aqos": lambda c: (c.degrade_hand, 0.0),
              "hard-qos": lambda c: (0.0, 0.0), "guard": lambda c: (0.0, 0.0)}
    if scheme not in gammas:
        raise ValueError(f"unknown scheme {scheme!r}")
    return tuple(replace(c, degrade_hand=hand, degrade_new=new)
                 for c, (hand, new) in ((c, gammas[scheme](c)) for c in classes))


def ch6_cell(params, scheme: str = "proposed"):
    """The cell of params under one scheme, each scheme with its own class
    table and release-rate pass; params.lam_new is not read."""
    from femtonet.queueing import Ch6Cell, _read_only, mean_duration_at_full

    classes = _scheme_classes(params.classes, scheme)
    n, s, ell = chain_dimensions(classes, params.capacity)
    guard = params.guard_channels if scheme == "guard" else 0
    if not 0 <= guard <= n:
        raise ValueError("guard channels outside [0, N]")
    mu_rates, occupied = scalar_release_rates(classes, params.capacity, params.eta, n, s)
    srv = tuple(i * mu_rates[i - 1] if i else 0.0 for i in range(n + s + 1))
    mean_req = sum(c.arrival_share * c.requested_bw for c in classes)
    occupancy = [min(i * mean_req, params.capacity) for i in range(n + 1)] + occupied
    p_h = params.eta / (params.eta + 1.0 / mean_duration_at_full(classes))
    return Ch6Cell(scheme, n, s, ell, n + ell - guard, p_h, srv, _read_only(occupancy),
                   params.capacity)


# -- the loss chains as written twice before each model became one spec
# builder: des.spec_for_* built the simulated chain and queueing built its
# own birth/death lists.  Kept as the bitwise reference for the one spec.


def spec_for_ch6(params, lam_hand, scheme="proposed"):
    from femtonet.queueing import LossChainSpec

    classes = _scheme_classes(params.classes, scheme)
    n, s, ell = chain_dimensions(classes, params.capacity)
    mu_rates, _ = scalar_release_rates(classes, params.capacity, params.eta, n, s)
    if scheme in ("hard-qos", "guard"):
        guard = params.guard_channels if scheme == "guard" else 0
        srv = tuple(i * mu_rates[0] for i in range(n + 1))
        return LossChainSpec((params.lam_new, lam_hand), (n - guard, n), srv,
                             new_streams=(0,), hand_stream=1)
    srv = tuple(i * mu_rates[i - 1] if i else 0.0 for i in range(n + s + 1))
    return LossChainSpec((params.lam_new, lam_hand), (n + ell, n + s), srv,
                         new_streams=(0,), hand_stream=1)


def spec_for_ch7(params):
    from femtonet.queueing import LossChainSpec

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


def spec_for_two_tier_macro(params, solution):
    from femtonet.queueing import LossChainSpec, channel_release_rates

    mu_m, _ = channel_release_rates(params)
    n, s = params.macro_base_states, params.macro_adaptive_states
    srv = tuple(i * mu_m for i in range(n + s + 1))
    return LossChainSpec((params.lambda_o_m, solution.rates["lambda_h_m"]),
                         (n, n + s), srv, new_streams=(0,), hand_stream=1)


def spec_for_two_tier_femto(params, solution):
    from femtonet.queueing import LossChainSpec, channel_release_rates

    _, mu_f = channel_release_rates(params)
    k = params.femto_capacity
    lam = solution.rates["lambda_T_f"] / max(params.n, 1)
    srv = tuple(i * mu_f for i in range(k + 1))
    return LossChainSpec((lam,), (k,), srv, new_streams=(0,), hand_stream=0)


# -- the ch6 chain and solver as they were before the cell split: every
# ch6 solve rebuilt the arrival-rate-free cell.  Kept verbatim as the
# bitwise reference for queueing.Ch6Cell.


def ch6_chain(params, lam_hand: float,
              scheme: str = "proposed"):
    """The cell under one scheme, with the handover stream exogenous Poisson
    at lam_hand, and the facts of the cell that solve_ch6 reports: N, S, L,
    P_h, the per-call release rates mu_rates and the bandwidth occupied in
    each state.

    New calls are admitted below N+L, or below N - guard_channels for the
    guard scheme; handovers below N+S.  hard-qos and guard degrade no call,
    so for them S = L = 0.
    """
    from femtonet.queueing import LossChainSpec, mean_duration_at_full

    classes = _scheme_classes(params.classes, scheme)
    n, s, ell = chain_dimensions(classes, params.capacity)
    guard = params.guard_channels if scheme == "guard" else 0
    if not 0 <= guard <= n:
        raise ValueError("guard channels outside [0, N]")
    mu_rates, occupied = scalar_release_rates(classes, params.capacity, params.eta, n, s)
    srv = tuple(i * mu_rates[i - 1] if i else 0.0 for i in range(n + s + 1))
    chain = LossChainSpec((params.lam_new, lam_hand), (n + ell - guard, n + s), srv,
                          new_streams=(0,), hand_stream=1)
    mean_req = sum(c.arrival_share * c.requested_bw for c in classes)
    occupancy = [min(i * mean_req, params.capacity) for i in range(n + 1)] + occupied
    p_h = params.eta / (params.eta + 1.0 / mean_duration_at_full(classes))
    return chain, {"N": n, "S": s, "L": ell, "P_h": p_h, "mu_rates": mu_rates,
                   "occupancy": occupancy}


def solve_ch6(params, scheme: str = "proposed", damping: float = 0.5):
    """Solve the adaptive-CAC cell for one scheme.

    The handover arrival rate and the chain couple through
    lam_h = P_h (1 - P_B) lam_n / (1 - P_h (1 - P_D)); damped substitution
    iterates the pair to FIXED_POINT_TOL.
    """
    from femtonet.queueing import (
        FIXED_POINT_TOL,
        MAX_ITERATIONS,
        ChainSolution,
        NonConvergenceError,
    )

    chain, cell = ch6_chain(params, 0.0, scheme)
    occupancy = cell.pop("occupancy")
    p_h, lam_n = cell["P_h"], params.lam_new

    lam_h = p_h * lam_n  # starting guess
    residuals = []
    for iteration in range(1, MAX_ITERATIONS + 1):
        _, (p_b, p_d) = loss_chain_probs(replace(chain, stream_rates=(lam_n, lam_h)))
        new_h = p_h * (1.0 - p_b) * lam_n / (1.0 - p_h * (1.0 - p_d))
        residual = abs(new_h - lam_h)
        residuals.append(residual)
        lam_h += damping * (new_h - lam_h)
        if residual < FIXED_POINT_TOL:
            break
    else:
        raise NonConvergenceError("ch6 fixed point did not converge", residuals)
    probs, (p_b, p_d) = loss_chain_probs(replace(chain, stream_rates=(lam_n, lam_h)))
    utilization = float(np.dot(probs, occupancy)) / params.capacity

    return ChainSolution(
        probs, p_b, p_d, utilization, handover_rate=lam_h,
        iterations=iteration, residual=residuals[-1],
        extra={**cell, "scheme": scheme},
    )


def ch6_probs(params, lam_h, scheme="proposed"):
    """(probs, P_B, P_D) of the ch6 chain at handover rate lam_h, from the
    birth/death lists of each scheme."""
    def ch6_chain_probs(lam_new, lam_hand, mu_rates, n, s, ell):
        births = [lam_new + lam_hand] * (n + ell) + [lam_hand] * (s - ell)
        deaths = [(i + 1) * mu_rates[i] for i in range(n + s)]
        return birth_death_probs(births, deaths)

    def hard_qos_probs(lam_new, lam_hand, mu1, n, guard):
        births = [lam_new + lam_hand] * (n - guard) + [lam_hand] * guard
        deaths = [(i + 1) * mu1 for i in range(n)]
        return birth_death_probs(births, deaths)

    classes = _scheme_classes(params.classes, scheme)
    n, s, ell = chain_dimensions(classes, params.capacity)
    mu_rates, _ = scalar_release_rates(classes, params.capacity, params.eta, n, s)
    lam_n = params.lam_new
    if scheme == "guard":
        probs = hard_qos_probs(lam_n, lam_h, mu_rates[0], n, params.guard_channels)
        return probs, float(probs[n - params.guard_channels:].sum()), float(probs[-1])
    if scheme == "hard-qos":
        probs = hard_qos_probs(lam_n, lam_h, mu_rates[0], n, 0)
        return probs, float(probs[-1]), float(probs[-1])
    probs = ch6_chain_probs(lam_n, lam_h, mu_rates, n, s, ell)
    return probs, float(probs[n + ell:].sum()), float(probs[-1])


def ch7_probs(params):
    """(probs, P_B voice/unicast, P_B background, P_D) of the MBS cell."""
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

    return probs, prob_from(n + ell), prob_from(n), float(probs[-1])


def two_tier_probs(params, solution):
    """(femto probs, macro probs) at the solution's converged rates."""

    def macro_adaptive_chain(lam_total, lam_hand, mu_m, n_states, s_states):
        births = [lam_total] * n_states + [lam_hand] * s_states
        deaths = [(i + 1) * mu_m for i in range(n_states + s_states)]
        return birth_death_probs(births, deaths)

    n, k_f = params.n, params.femto_capacity
    lam_tf, lam_hm = solution.rates["lambda_T_f"], solution.rates["lambda_h_m"]
    mu_m, mu_f = solution.rates["mu_m"], solution.rates["mu_f"]
    femto_probs = birth_death_probs(
        [lam_tf / max(n, 1)] * k_f, [(i + 1) * mu_f for i in range(k_f)])
    macro_probs = macro_adaptive_chain(
        params.lambda_o_m + lam_hm, lam_hm, mu_m,
        params.macro_base_states, params.macro_adaptive_states)
    return femto_probs, macro_probs


# -- solve_two_tier as it was when it wrote out its own damped loop, before
# the analytic solvers shared one fixed-point driver.  Kept verbatim as the
# bitwise reference; it reads the damping, tolerance and iteration bound of
# femtonet.queueing at call time, as the live solver does.


def solve_two_tier(params):
    from femtonet import queueing
    from femtonet.queueing import (
        ChainSolution,
        NonConvergenceError,
        TwoTierSolution,
        channel_release_rates,
        erlang_b,
        handover_probabilities,
        two_tier_femto_chain,
        two_tier_macro_chain,
    )

    FIXED_POINT_TOL = queueing.FIXED_POINT_TOL
    FIXED_POINT_DAMPING = queueing.FIXED_POINT_DAMPING
    MAX_ITERATIONS = queueing.MAX_ITERATIONS

    probs = handover_probabilities(params)
    mu_m, mu_f = channel_release_rates(params)
    n, k_f = params.n, params.femto_capacity
    alpha, beta = params.alpha, params.beta_prob
    lam_of, lam_om = params.lambda_o_f, params.lambda_o_m

    l_mm = l_mf = l_ff = l_fm = 0.0
    p_bf = p_df = p_bm = p_dm = 0.0
    residuals: list[float] = []
    macro_chain = two_tier_macro_chain(params, 0.0)

    for iteration in range(1, MAX_ITERATIONS + 1):
        lam_tf = lam_of + l_mf + alpha * l_ff + p_dm * beta * l_ff
        if n > 0:
            offered = lam_tf / n / mu_f
            p_bf = p_df = erlang_b(k_f, offered)
        else:
            p_bf = p_df = 0.0

        lam_hm = l_mm + l_fm + alpha * p_df * l_ff + (1.0 - alpha) * l_ff
        macro_chain = replace(macro_chain, stream_rates=(lam_om, lam_hm))
        _, (p_bm, p_dm) = loss_chain_probs(macro_chain)

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
        l_mm += FIXED_POINT_DAMPING * (new_mm - l_mm)
        l_mf += FIXED_POINT_DAMPING * (new_mf - l_mf)
        l_ff += FIXED_POINT_DAMPING * (new_ff - l_ff)
        l_fm += FIXED_POINT_DAMPING * (new_fm - l_fm)
        if residual < FIXED_POINT_TOL:
            break
    else:
        raise NonConvergenceError("two-tier fixed point did not converge", residuals)

    lam_tf = lam_of + l_mf + alpha * l_ff + p_dm * beta * l_ff
    lam_hm = l_mm + l_fm + alpha * p_df * l_ff + (1.0 - alpha) * l_ff
    femto_probs, _ = loss_chain_probs(two_tier_femto_chain(params, lam_tf))
    macro_probs, _ = loss_chain_probs(replace(macro_chain, stream_rates=(lam_om, lam_hm)))

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


def two_tier_own_residual(params, solution):
    """max |F(x) - x| over a two-tier solution's four handover rates x, F
    being one undamped step of the written-out loop above from x and the
    P_D,m that the solution carries: how far the solution is from its own
    fixed point, whatever damping reached it."""
    from femtonet.queueing import erlang_b, two_tier_macro_chain

    probs, rates = solution.probabilities, solution.rates
    l_mm, l_mf, l_ff, l_fm = (rates[k] for k in ("lambda_h_mm", "lambda_h_mf",
                                                 "lambda_h_ff", "lambda_h_fm"))
    alpha, lam_of, lam_om = params.alpha, params.lambda_o_f, params.lambda_o_m
    lam_tf = lam_of + l_mf + alpha * l_ff + solution.macro.p_drop * params.beta_prob * l_ff
    p_f = erlang_b(params.femto_capacity, lam_tf / params.n / rates["mu_f"]) if params.n else 0.0
    lam_hm = l_mm + l_fm + alpha * p_f * l_ff + (1.0 - alpha) * l_ff
    _, (p_bm, p_dm) = loss_chain_probs(two_tier_macro_chain(params, lam_hm))
    num_m = (1.0 - p_bm) * (lam_om + lam_of * p_f) + (1.0 - p_dm) * (
        l_fm + l_ff * (1.0 - alpha + alpha * p_f))
    den_m = 1.0 - probs.mm * (1.0 - p_dm)
    num_f = lam_of * (1.0 - p_f) + l_mf * (1.0 - p_f)
    den_f = 1.0 - probs.ff * (1.0 - p_f) * (alpha + (1.0 - alpha) * p_dm)
    new = (probs.mm * num_m / den_m, probs.mf * num_m / den_m,
           probs.ff * num_f / den_f, probs.fm * num_f / den_f)
    return max(abs(b - a) for a, b in zip((l_mm, l_mf, l_ff, l_fm), new))


# -- the pure-Python DES kernel as it was before it drew its random stream in
# blocks: one scalar splitmix64 call per draw.  Kept verbatim (with its
# constants) as the bitwise reference for the pure-Python kernel's
# run_loss_chain.

_MASK = 0xFFFFFFFFFFFFFFFF
_TWO53 = 9007199254740992.0  # 2**53


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = z ^ (z >> 31)
    return state, z


def scalar_loss_chain(
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


# -- placement and static reuse as they were before the grid rejection and
# the block draws: one scalar draw each, every candidate measured against
# every placed FAP, and one `near` call per FAP.  Kept verbatim as the
# bitwise reference for topology.place_femtocells and spectrum._assign_static.


def scalar_placement(seed: int, count: int, macro=None) -> np.ndarray:
    """The FAP positions of place_femtocells, by the scalar loop."""
    from femtonet.topology import (
        REFERENCE_FAP_DISTANCE,
        MacroGeometry,
        PlacementInfeasibleError,
    )

    if count < 0:
        raise ValueError("count must be >= 0")
    macro = macro or MacroGeometry()
    if count > 0 and macro.macro_radius_m < REFERENCE_FAP_DISTANCE:
        raise PlacementInfeasibleError(
            f"femtocell 0 sits {REFERENCE_FAP_DISTANCE} m from the BS, outside "
            f"the {macro.macro_radius_m} m macro disc")

    # packing bound: disc area over exclusion-disc area, with slack
    r, sep = macro.macro_radius_m, macro.min_separation_m
    if count > 0 and sep > 0:
        capacity = 0.25 * (2.0 * r / sep + 1.0) ** 2
        if count > capacity:
            raise PlacementInfeasibleError(
                f"cannot place {count} FAPs at {sep} m separation "
                f"inside a {r} m disc"
            )

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    buf = np.empty((count, 2)) if count else np.zeros((0, 2))
    placed = 0
    if count > 0:
        buf[0] = (REFERENCE_FAP_DISTANCE, 0.0)
        placed = 1

    max_attempts = 200 * max(count, 1)
    attempts = 0
    while placed < count:
        attempts += 1
        if attempts > max_attempts:
            raise PlacementInfeasibleError(
                f"placed only {placed}/{count} FAPs "
                f"after {max_attempts} attempts"
            )
        # uniform over the disc via sqrt radius
        rad = r * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        x, y = rad * math.cos(ang), rad * math.sin(ang)
        if placed and np.min(np.hypot(buf[:placed, 0] - x, buf[:placed, 1] - y)) < sep:
            continue
        buf[placed] = (x, y)
        placed += 1
    return buf


def scalar_assign_static(plan, topo, seed: int) -> None:
    """Static reuse: each femto takes Bm2 or Bm3, differing from femtocells
    whose coverage discs overlap where possible, random otherwise.  The
    plan is fresh, so every cell has the nominal radius."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57A7)))
    reach = topo.femto_radius_m + topo.femto_radius_m
    picks = []
    for k, fid in enumerate(topo.femtocells):
        used = {picks[j] for j, d in zip(*topo.row(fid)) if j < k and d <= reach}
        free = [b for b in ("Bm2", "Bm3") if b not in used]
        if free:
            pick = free[0] if len(free) == 1 else free[int(rng.integers(2))]
        else:
            pick = ("Bm2", "Bm3")[int(rng.integers(2))]
        picks.append(pick)
        plan.femto_band[fid] = pick


# ---------------------------------------------------------------------------
# plan entries as per-FAP records, the format before one band label per FAP


@dataclass
class FemtoBandAssignment:
    center_label: str
    edge_label: str | None


def band_records(plan: SpectrumPlan) -> dict[int, FemtoBandAssignment]:
    """The plan's labels as records: center Bm2 and the label as the edge
    band under dynamic reuse, the label as the only (center) band under
    every other scheme."""
    if plan.scheme == "dynamic-reuse":
        return {f: FemtoBandAssignment("Bm2", lab) for f, lab in plan.femto_band.items()}
    return {f: FemtoBandAssignment(lab, None) for f, lab in plan.femto_band.items()}


def record_shares_frequency(plan, records, fap: int, serving: int) -> bool:
    """`neighborlist.shares_frequency` as it was on records, verbatim but
    for reading `records` where it read `plan.femto_assignment`."""
    a = records[fap]
    s = records[serving]
    if plan.scheme == "dynamic-reuse":
        ba, bs = plan.band(a.edge_label), plan.band(s.edge_label)
        return ba.lo >= bs.lo - 1e-9 and ba.hi <= bs.hi + 1e-9
    if plan.scheme == "static-reuse":
        return a.center_label == s.center_label
    return True


def record_band_for_link(plan, records, fap_id: int, xy, topo) -> Band:
    """`SpectrumPlan.band_for_link` as it was on records."""
    from femtonet import topology as topo_mod

    a = records[fap_id]
    if plan.scheme != "dynamic-reuse":
        return plan.band(a.center_label)
    d = topo_mod.distance(topo, fap_id, tuple(xy))
    inner = plan.edge_fraction * topo.femto_radius_m
    return plan.band(a.center_label if d <= inner else a.edge_label)


def record_interferer_band(plan, records, fap_id: int) -> Band:
    """`SpectrumPlan.interferer_band` as it was on records."""
    a = records[fap_id]
    if plan.scheme == "dynamic-reuse":
        return plan.band(a.edge_label)
    return plan.band(a.center_label)


def plan_to_text(plan: SpectrumPlan) -> str:
    """Serialize a plan as line-oriented key = value text."""
    lines = [
        f"scheme = {plan.scheme}",
        f"total_hz = {plan.total_hz!r}",
        f"femto_fraction = {plan.femto_fraction!r}",
        f"edge_fraction = {plan.edge_fraction!r}",
    ]
    for j in sorted(plan.macro_assignment):
        lines.append(f"macro.{j} = {plan.macro_assignment[j]}")
    records = band_records(plan)
    for f in sorted(records):
        a = records[f]
        lines.append(f"femto.{f} = {a.center_label},{a.edge_label or '-'}")
    for f in sorted(plan.radius_of):
        lines.append(f"radius.{f} = {plan.radius_of[f]!r}")
    return "\n".join(lines) + "\n"


# -- simulate_des as it was before its counts went into one per-replication
# matrix: three parallel per-replication lists and repeated pooled-count
# code.  Kept verbatim, with _mean_ci as it was then, as the bitwise
# reference for des.simulate_des; it walks through des.run_loss_chain.


def _mean_ci(samples: np.ndarray, successes: int = 0,
             trials: int = 0) -> tuple[float, float]:
    from femtonet.des import _t95

    b = len(samples)
    if b < 2:
        return (0.0, 1.0)
    std = float(samples.std(ddof=1))
    if std == 0.0 and trials > 0:
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


def simulate_des(spec, total_calls: int = 1_000_000, seed: int = 0):
    from femtonet import des
    from femtonet.des import REPLICATIONS, WARMUP, DesResult

    total_calls = des.check_arrivals(total_calls)
    if total_calls < 1:
        raise ValueError("total_calls must be >= 1")
    replications = min(REPLICATIONS, total_calls)
    per_rep, longer = divmod(total_calls, replications)
    rep_seeds = np.random.SeedSequence(seed).generate_state(replications, dtype=np.uint64)

    n_streams = len(spec.stream_rates)
    hand = spec.hand_stream
    rates, limits = list(spec.stream_rates), list(spec.stream_limits)
    srv = list(spec.srv_rates)

    seen_tot = np.zeros(n_streams, dtype=np.int64)
    rej_tot = np.zeros(n_streams, dtype=np.int64)
    tis_tot = np.zeros(len(srv))
    elapsed_tot = 0.0
    p_block_reps, p_drop_reps = [], []
    stream_reps = [[] for _ in range(n_streams)]

    for r in range(replications):
        calls = per_rep + (r < longer)
        warm_calls = int(WARMUP * calls)
        rng_state = int(rep_seeds[r])
        chain_state = spec.min_state
        if warm_calls > 0:
            *_, chain_state, rng_state = des.run_loss_chain(
                rng_state, warm_calls, rates, limits, srv,
                chain_state, spec.min_state)
        seen, rejected, tis, elapsed, *_ = des.run_loss_chain(
            rng_state, calls, rates, limits, srv, chain_state, spec.min_state)

        seen = np.asarray(seen, dtype=np.int64)
        rejected = np.asarray(rejected, dtype=np.int64)
        seen_tot += seen
        rej_tot += rejected
        tis_tot += np.asarray(tis)
        elapsed_tot += elapsed

        new_seen = int(seen[list(spec.new_streams)].sum())
        new_rej = int(rejected[list(spec.new_streams)].sum())
        if new_seen:
            p_block_reps.append(new_rej / new_seen)
        if seen[hand]:
            p_drop_reps.append(rejected[hand] / seen[hand])
        for k in range(n_streams):
            if seen[k]:
                stream_reps[k].append(rejected[k] / seen[k])

    new_seen_all = int(seen_tot[list(spec.new_streams)].sum())
    new_rej_all = int(rej_tot[list(spec.new_streams)].sum())
    per_stream = [
        {"seen": int(seen_tot[k]), "rejected": int(rej_tot[k]),
         "p_reject": float(rej_tot[k] / seen_tot[k]) if seen_tot[k] else 0.0,
         "ci": _mean_ci(np.asarray(stream_reps[k]), int(rej_tot[k]), int(seen_tot[k]))
               if stream_reps[k] else (0.0, 1.0)}
        for k in range(n_streams)
    ]
    return DesResult(
        p_block=new_rej_all / new_seen_all if new_seen_all else 0.0,
        p_drop=float(rej_tot[hand] / seen_tot[hand]) if seen_tot[hand] else 0.0,
        block_ci=_mean_ci(np.asarray(p_block_reps), new_rej_all, new_seen_all)
                 if p_block_reps else (0.0, 1.0),
        drop_ci=_mean_ci(np.asarray(p_drop_reps), int(rej_tot[hand]), int(seen_tot[hand]))
                if p_drop_reps else (0.0, 1.0),
        state_time=tis_tot / elapsed_tot if elapsed_tot > 0 else tis_tot,
        per_stream=per_stream,
        elapsed=elapsed_tot,
        replications=replications,
    )


# -- dynamic reuse as it was before its working state was keyed by table
# index: an id-keyed relation {member: {interferer: table distance}} that
# scans a member's neighbor-table row when first read and writes every label
# and radius into the plan as it goes, and the greedy clique counted out in
# full.  Kept written out as the bitwise reference for spectrum's
# dynamic-reuse build, configure_new_femto and remove_femto.  The
# `configure_two` argument swaps the two-interferer rule for another one.

_CYCLIC_EDGE = {"B5": "B4", "B4": "B5", "B1": "B2", "B2": "B3", "B3": "B1"}
_THIRDS = ("B1", "B2", "B3")
_EDGE_LABELS = ("B4", "B5", "B1", "B2", "B3")


class Relation(dict):
    """The id-keyed interference relation of one call that changes a plan."""

    def __init__(self, plan, topo, configure_two=None):
        super().__init__()
        self.plan, self.topo = plan, topo
        self.configure_two = configure_two or _relation_configure_two

    def __missing__(self, fap_id):
        plan, topo = self.plan, self.topo
        r = plan.radius_of.get(fap_id, topo.femto_radius_m)
        if r > topo.femto_radius_m:
            raise ValueError(f"femtocell {fap_id} is wider than the nominal radius")
        hits = {}
        for k, d in zip(*topo.row(fap_id)):
            other = topo.femtocells[k]
            if other in plan.femto_band and d <= INTERFERENCE_RADIUS_SCALE * (
                    r + plan.radius_of.get(other, topo.femto_radius_m)):
                hits[other] = d
        self[fap_id] = hits
        return hits

    def join(self, fap_id):
        band = self.plan.femto_band
        newcomer = fap_id not in band
        band[fap_id] = None
        if newcomer:
            for other, d in self[fap_id].items():
                if other in self:
                    self[other][fap_id] = d

    def shrink(self, fap_id, radius):
        row, radius_of, nominal = self[fap_id], self.plan.radius_of, self.topo.femto_radius_m
        radius_of[fap_id] = radius
        for other, d in list(row.items()):
            if d > INTERFERENCE_RADIUS_SCALE * (radius + radius_of.get(other, nominal)):
                del row[other]
                if other in self:
                    del self[other][fap_id]

    def leave(self, fap_id):
        row = self[fap_id]
        del self[fap_id]
        for other in row:
            if other in self:
                del self[other][fap_id]
        del self.plan.femto_band[fap_id]
        self.plan.radius_of.pop(fap_id, None)


def relation_build_plan(topo, total_hz=DEFAULT_TOTAL_HZ, femto_fraction=1.0 / 3.0,
                        edge_fraction=0.6, configure_two=None) -> SpectrumPlan:
    """A dynamic-reuse plan: the macro bands, then every FAP configured in
    femtocells order on one relation."""
    plan = SpectrumPlan("dynamic-reuse", total_hz, femto_fraction, edge_fraction)
    plan.macro_assignment = {0: "Bm1"}
    for j in range(1, len(topo.macro_sites)):
        plan.macro_assignment[j] = "Bm2" if j % 2 == 1 else "Bm3"
    rel = Relation(plan, topo, configure_two)
    for f in topo.femtocells:
        _relation_configure(rel, f)
    return plan


def relation_configure_new_femto(plan, topo, new_id, configure_two=None) -> str:
    topo.index_of(new_id)
    return _relation_configure(Relation(plan, topo, configure_two), new_id)


def relation_remove_femto(plan, topo, fap_id):
    plan.femto_label(fap_id)
    rel = Relation(plan, topo)
    former = set(rel[fap_id])
    rel.leave(fap_id)
    _relation_repair(rel, former)
    return plan


def _used_edges(plan, others):
    return [plan.femto_band[i] for i in others if plan.femto_band[i] is not None]


def _labels_exhausted(plan, others):
    return set(_EDGE_LABELS) <= set(_used_edges(plan, others))


def _free_third(used):
    for lab in _THIRDS:
        if lab not in used:
            return lab
    return None


def _free_label(plan, others):
    used = _used_edges(plan, others)
    for lab in _EDGE_LABELS:
        if lab not in used:
            return lab
    return min(_EDGE_LABELS, key=lambda lab: (used.count(lab), _EDGE_LABELS.index(lab)))


def _count_branch(plan, label):
    plan.branch_counts[label] = plan.branch_counts.get(label, 0) + 1


def _mutual_overlap_count(rel, new_id):
    """The newcomer plus the largest greedy clique among its interferers,
    each anchor's clique taking the interferers in ascending order."""
    interf = sorted(rel[new_id])
    if len(interf) < 3:
        return len(interf) + 1
    best = 1
    for anchor in interf:
        clique = {anchor}
        for cand in interf:
            if cand != anchor and clique <= rel[cand].keys():
                clique.add(cand)
        best = max(best, len(clique))
    return best + 1


def _relation_configure(rel, new_id):
    plan = rel.plan
    rel.join(new_id)
    if _mutual_overlap_count(rel, new_id) > 3 or _labels_exhausted(plan, rel[new_id]):
        _count_branch(plan, "shrink")
        _relation_shrink_until_manageable(rel, new_id)
    interf = rel[new_id]
    if len(interf) == 0:
        _count_branch(plan, "0")
        plan.femto_band[new_id] = "Bm3"
    elif len(interf) == 1:
        _count_branch(plan, "1")
        _relation_configure_one(rel, new_id, *interf)
    elif len(interf) == 2:
        a, b = sorted(interf)
        mutual = b in rel[a]
        _count_branch(plan, "2" if mutual else "2-independent")
        rel.configure_two(rel, new_id, a, b, mutual)
    else:
        _count_branch(plan, "3")
        _relation_configure_many(rel, new_id)
    _relation_repair(rel, {new_id, *interf})
    return plan.femto_band[new_id]


def _relation_configure_one(rel, new_id, other):
    plan = rel.plan
    e = plan.femto_band[other]
    if e == "Bm3":
        plan.femto_band[other] = "B4"
        plan.femto_band[new_id] = "B5"
    else:
        plan.femto_band[new_id] = _CYCLIC_EDGE.get(e) or _free_label(plan, rel[new_id])


def _relation_configure_two(rel, new_id, a, b, mutual):
    plan = rel.plan
    ea, eb = plan.femto_band[a], plan.femto_band[b]
    if mutual and {ea, eb} == {"B4", "B5"}:
        plan.femto_band[a if ea == "B4" else b] = "B1"
        plan.femto_band[a if ea == "B5" else b] = "B2"
        plan.femto_band[new_id] = "B3"
    elif mutual:
        _relation_configure_many(rel, new_id)
    else:
        _relation_configure_one(rel, new_id, a)
        if plan.femto_band[new_id] in (plan.femto_band[a], plan.femto_band[b]):
            plan.femto_band[new_id] = _free_label(plan, rel[new_id])


def _relation_configure_many(rel, new_id):
    plan = rel.plan
    interf = sorted(rel[new_id])
    for fid in interf:
        if plan.femto_band[fid] == "Bm3":
            plan.femto_band[fid] = _free_label(plan, rel[fid])
    used = {plan.femto_band[i] for i in interf}
    plan.femto_band[new_id] = _free_third(used) or _free_label(plan, rel[new_id])


def _relation_shrink_one(rel, fid):
    floor = rel.topo.femto_radius_m * SHRINK_FACTOR ** MAX_SHRINK_STEPS
    current = cell_radius(rel.plan, rel.topo, fid)
    if current <= floor + 1e-12:
        return False
    rel.shrink(fid, SHRINK_FACTOR * current)
    return True


def _relation_shrink_until_manageable(rel, new_id):
    plan = rel.plan
    for _ in range(MAX_SHRINK_STEPS):
        before = tuple(sorted(rel[new_id]))
        progressed = any([_relation_shrink_one(rel, fid) for fid in (new_id, *before)])
        plan.events.append(("shrink", new_id, before))
        if (_mutual_overlap_count(rel, new_id) <= 3
                and not _labels_exhausted(plan, rel[new_id])):
            return
        if not progressed:
            break
    plan.events.append(("shrink-failed", new_id, tuple(sorted(rel[new_id]))))


def _relation_repair(rel, cells):
    plan = rel.plan
    band = plan.femto_band
    steps = 8 * (MAX_SHRINK_STEPS + 1)
    for step in range(steps + 1):
        loser = max((max(fid, other) for fid in cells for other in rel[fid]
                     if band[other] == band[fid]), default=None)
        if loser is None:
            return
        if step == steps:
            plan.events.append(("repair-exhausted", tuple(sorted(cells))))
            return
        cells.add(loser)
        if _labels_exhausted(plan, rel[loser]):
            shrunk = _relation_shrink_one(rel, loser)
            for nid in list(rel[loser]):
                shrunk |= _relation_shrink_one(rel, nid)
            plan.events.append(("shrink", loser, ()))
            if not shrunk:
                plan.events.append(("repair-exhausted", (loser,)))
        band[loser] = _free_label(plan, rel[loser])


def configure_two_table(rel, new_id, a, b, mutual: bool) -> None:
    """The oracle's two-interferer rule with its pair table written out:
    each of {B4,B5}, {B1,B2}, {B2,B3}, {B3,B1} has its own branch, and the
    other mutual pairs move any whole-band incumbent before taking a free
    third.  A `configure_two` for `relation_build_plan`."""
    plan = rel.plan
    edge = plan.femto_band
    ea, eb = edge[a], edge[b]
    if mutual:
        pair = {ea, eb}
        if pair == {"B4", "B5"}:
            # pseudocode lines 23-26: move the incumbents onto thirds
            edge[a if ea == "B4" else b] = "B1"
            edge[a if ea == "B5" else b] = "B2"
            edge[new_id] = "B3"
        elif pair == {"B1", "B2"}:
            edge[new_id] = "B3"
        elif pair == {"B2", "B3"}:
            edge[new_id] = "B1"
        elif pair == {"B3", "B1"}:
            edge[new_id] = "B2"
        else:
            # mixed/whole-band pairs are not in the published table: move any
            # whole-band incumbent onto a free third, then take one ourselves
            for fid in (a, b):
                if edge[fid] == "Bm3":
                    edge[fid] = _free_label(plan, rel[fid])
            used = {edge[a], edge[b]}
            edge[new_id] = _free_third(used) or _free_label(plan, rel[new_id])
    else:
        # interferers not in range of each other: single-interferer rule
        # against the first, then verify against the second
        _relation_configure_one(rel, new_id, a)
        if edge[new_id] in (edge[a], edge[b]):
            edge[new_id] = _free_label(plan, rel[new_id])


def scalar_target_missing(count: int, trials: int, seed: int, obstruction_prob: float):
    """neighborlist.p_target_missing at its default thresholds and range,
    written out with one scalar rng.random() per non-serving FAP, in
    femtocells order, for the obstructions of each trial."""
    from femtonet import neighborlist as nl
    from femtonet.spectrum import build_plan
    from femtonet.topology import distance, place_femtocells

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CA)))
    miss_base = miss_prop = valid = 0
    topo = plan = None
    for trial in range(trials):
        if count < 2:
            continue
        if topo is None or trial % nl.TRIALS_PER_TOPOLOGY == 0:
            topo = place_femtocells(seed + 7919 * trial, count)
            plan = build_plan("dynamic-reuse", topo)
        serving = int(rng.integers(count))
        sx, sy = topo.position(serving)
        ang = 2 * math.pi * rng.random()
        ue = (sx + topo.femto_radius_m * math.cos(ang), sy + topo.femto_radius_m * math.sin(ang))
        clear = nl.scan_from_geometry(topo, ue, serving)
        best, best_level = None, -math.inf
        for f, level in clear.levels_dbm.items():
            if f != serving and (level > best_level or (level == best_level and f < best)):
                best, best_level = f, level
        if best_level < clear.s_t1_dbm:
            continue
        if nl.shares_frequency(plan, best, serving) and distance(topo, best, ue) > nl.DEFAULT_D_MAX_M:
            continue
        valid += 1
        obstructed = set()
        for f in topo.femtocells:
            if f != serving and rng.random() < obstruction_prob:
                obstructed.add(f)
        observed = nl.scan_from_geometry(topo, ue, serving, obstructed=obstructed)
        proposed = nl.build_list_from_femto(observed, plan, topo, serving, ue_xy=ue)
        miss_base += observed.levels_dbm[best] < observed.s_t1_dbm
        miss_prop += best not in proposed.entries
    if valid == 0:
        return {"rssi-only": 0.0, "proposed": 0.0, "trials": 0}
    return {"rssi-only": miss_base / valid, "proposed": miss_prop / valid, "trials": valid}
