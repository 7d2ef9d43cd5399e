"""Independent brute-force oracles used only by the test suite."""

from __future__ import annotations

import numpy as np


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


def pairwise_edge_conflicts(plan, topo):
    """Exhaustive O(n^2) scan for interfering pairs sharing an edge band."""
    ids = sorted(plan.femto_assignment)
    bad = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if plan._interfering(topo, a, b):
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
            if f != fap_id and plan._interfering(topo, fap_id, f)]


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
