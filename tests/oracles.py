"""Independent brute-force oracles used only by the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from femtonet.spectrum import DEFAULT_TOTAL_HZ, Band, PlanConfigError


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

    reach = INTERFERENCE_RADIUS_SCALE * (
        plan.femto_radius(a, topo) + plan.femto_radius(b, topo))
    return distance(topo, a, b) <= reach


def pairwise_edge_conflicts(plan, topo):
    """Exhaustive O(n^2) scan for interfering pairs sharing an edge band."""
    ids = sorted(plan.femto_assignment)
    bad = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if interfering(plan, topo, a, b):
                ea = plan.femto_assignment[a].edge_label
                eb = plan.femto_assignment[b].edge_label
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
    for f in topo.femto_ids:
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
    return [f for f in sorted(plan.femto_assignment)
            if f != fap_id and interfering(plan, topo, fap_id, f)]


def brute_neighbors(topo, fap_id):
    """FAPs within the neighbor threshold of fap_id, one scalar test each."""
    from femtonet.topology import distance

    return frozenset(f for f in topo.femto_ids if f != fap_id
                     and distance(topo, fap_id, f) <= topo.neighbor_threshold_m)


def scalar_scan_levels(topo, ue_xy, params=None, obstructed=None):
    """Scan levels by the original per-FAP loop: one `distance`, one
    `LinkBudget` and one `received_power` call per FAP."""
    from femtonet import topology as topo_mod
    from femtonet.neighborlist import OBSTRUCTION_WALLS
    from femtonet.radio import LinkBudget, PropagationParams, linear_to_db, received_power

    params = params or PropagationParams()
    obstructed = obstructed or set()
    levels = {}
    for fap in topo.femto_ids:
        d = max(topo_mod.distance(topo, fap, tuple(ue_xy)), 0.1)
        walls = OBSTRUCTION_WALLS if fap in obstructed else 0
        p = received_power(params, LinkBudget(params.tx_power_femto_w, d, walls=walls),
                           "femto", serving=False)
        levels[fap] = linear_to_db(p) + 30.0  # W -> dBm
    return levels


# -- the loss chains as written twice before each model became one spec
# builder: des.spec_for_* built the simulated chain and queueing built its
# own birth/death lists.  Kept as the bitwise reference for the one spec.


def spec_for_ch6(params, lam_hand, scheme="proposed"):
    from femtonet.queueing import (
        LossChainSpec,
        _scheme_classes,
        chain_dimensions,
        state_release_rates,
    )

    classes = _scheme_classes(params.classes, scheme)
    n, s, ell = chain_dimensions(classes, params.capacity)
    mu_rates, _ = state_release_rates(classes, params.capacity, params.eta, n, s)
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
        start_state=m, min_state=m,
        new_streams=(0, 1), hand_stream=2)


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


def ch6_probs(params, lam_h, scheme="proposed"):
    """(probs, P_B, P_D) of the ch6 chain at handover rate lam_h, from the
    birth/death lists of each scheme."""
    from femtonet.queueing import (
        _scheme_classes,
        birth_death_probs,
        chain_dimensions,
        state_release_rates,
    )

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
    mu_rates, _ = state_release_rates(classes, params.capacity, params.eta, n, s)
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
    from femtonet.queueing import birth_death_probs

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
    from femtonet.queueing import birth_death_probs

    def macro_adaptive_chain(lam_total, lam_hand, mu_m, n_states, s_states):
        births = [lam_total] * n_states + [lam_hand] * s_states
        deaths = [(i + 1) * mu_m for i in range(n_states + s_states)]
        return birth_death_probs(births, deaths)

    n, k_f = params.n, params.femto_capacity
    lam_tf, lam_hm = solution.rates["lambda_T_f"], solution.rates["lambda_h_m"]
    mu_m, mu_f = solution.rates["mu_m"], solution.rates["mu_f"]
    if n > 0:
        femto_probs = birth_death_probs(
            [lam_tf / n] * k_f, [(i + 1) * mu_f for i in range(k_f)])
    else:
        femto_probs = np.array([1.0])
    macro_probs = macro_adaptive_chain(
        params.lambda_o_m + lam_hm, lam_hm, mu_m,
        params.macro_base_states, params.macro_adaptive_states)
    return femto_probs, macro_probs
