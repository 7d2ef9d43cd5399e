"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget.  Run with `pytest -s` to see the
lines as they complete."""

import hashlib
import itertools
import math
import sys
import time

import numpy as np
import pytest

from fixtures import hidden_fap_fixture, result_values
from oracles import balance_equation_solve, erlang_b_direct, greedy_layer_packing

from femtonet import handoverflow as hf
from femtonet import neighborlist as nl
from femtonet import queueing as q
from femtonet.admission import TrafficClass
from femtonet.des import simulate_des, spec_for_ch6, spec_for_erlang, spec_for_two_tier_femto, spec_for_two_tier_macro
from femtonet.experiments import _radio_sweep, _read_fig4, run_experiment, result_to_csv
from femtonet.presets import table61_classes
from femtonet.radio import db_to_linear, outage_probability_closed_form, outage_probability_mc, sir
from femtonet.scenario import Scenario, scenario_from_preset
from femtonet.spectrum import build_plan, configure_new_femto, remove_femto
from femtonet.topology import CellTopology, place_femtocells
from femtonet.videoalloc import (
    MbsSession,
    allocate_mbs_budget,
    allocate_popularity,
    technique_multi_level,
    technique_two_level,
    total_max_bw,
    total_min_bw,
)

SEED = 20260808


class Budget:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit_s = limit_s
        self.t0 = time.perf_counter()

    def done(self, ok=True):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if ok and elapsed < self.limit_s else "FAIL"
        print(f"[{verdict}] criterion {self.number}: {self.description} "
              f"({elapsed:.1f}s / budget {self.limit_s}s)",
              file=sys.stderr)
        assert elapsed < self.limit_s, f"criterion {self.number} over budget"


def _manual_topo(positions, macro_ue_walls=0):
    return CellTopology(
        macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
        femtocells=list(range(len(positions))), positions=positions,
        macro_ue_walls=macro_ue_walls)


# -- 1 ------------------------------------------------------------------


def test_criterion_01_outage_closed_form_vs_monte_carlo():
    budget = Budget(1, "outage closed form vs Monte Carlo, 48/50 within 3 SE", 10)
    rng = np.random.default_rng(SEED)
    gamma = db_to_linear(9.0)
    hits = 0
    for k in range(50):
        # random fixed-interference configuration around a two-FAP cell
        d_i = float(rng.uniform(6.0, 45.0))
        ang = float(rng.uniform(0, 2 * math.pi))
        topo = _manual_topo([(200.0, 0.0),
                             (200.0 + d_i * math.cos(ang), d_i * math.sin(ang))])
        plan = build_plan("shared", topo)
        ue = (205.0, 0.0)
        est, se = outage_probability_mc(topo, plan, ue, 0, gamma,
                                        trials=100_000, seed=SEED + k)
        rep = sir(topo, plan, ue, 0)
        closed = outage_probability_closed_form(rep.signal_w, gamma,
                                                rep.total_interference_w)
        if abs(est - closed) <= 3.0 * max(se, 1e-12):
            hits += 1
    assert hits >= 48, f"only {hits}/50 within 3 standard errors"
    budget.done()


# -- 2 ------------------------------------------------------------------


def test_criterion_02_dense_scheme_orderings():
    budget = Budget(2, "dense Table 4.3: throughput and outage orderings", 60)
    scenario = scenario_from_preset("table-4.3")
    scenario = Scenario({**scenario.values, "seed": SEED})
    sweep = _radio_sweep(_read_fig4(scenario), scenario.seed, (1000,), trials=20)[1000]
    thr = {s: v[0] for s, v in sweep.items()}
    out = {s: v[1] for s, v in sweep.items()}
    assert thr["dynamic-reuse"] >= thr["static-reuse"]
    assert thr["static-reuse"] >= max(thr["shared"], thr["dedicated"])
    for other in ("static-reuse", "shared", "dedicated"):
        assert out["dynamic-reuse"] < out[other], \
            f"outage(dynamic) !< outage({other})"
    budget.done()


# -- 3 ------------------------------------------------------------------


def test_criterion_03_non_dense_throughput_agreement():
    budget = Budget(3, "non-dense static~dynamic within 5%, both above others", 30)
    scenario = scenario_from_preset("table-4.3")
    scenario = Scenario({**scenario.values, "seed": SEED})
    sweep = _radio_sweep(_read_fig4(scenario), scenario.seed, (60, 80, 100), trials=25)
    for count, per in sweep.items():
        st, dy = per["static-reuse"][0], per["dynamic-reuse"][0]
        assert abs(st - dy) / st <= 0.05, f"count {count}: {abs(st - dy) / st}"
        for scheme in ("dedicated", "shared"):
            assert st > per[scheme][0], f"static !> {scheme} at {count}"
            assert dy > per[scheme][0], f"dynamic !> {scheme} at {count}"
    budget.done()


# -- 4 ------------------------------------------------------------------


def test_criterion_04_dynamic_reuse_conflict_freedom():
    budget = Budget(4, "10^4 insert/remove sequences conflict-free, "
                       "all branches exercised", 20)
    rng = np.random.default_rng(SEED)
    branch_totals: dict[str, int] = {}
    conflicts = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        # densities within the scheme's envelope: beyond three mutually
        # overlapping cells the pseudocode hands over to cell-size shrinking,
        # which resolves up to its three 20% steps
        side = float(rng.uniform(95.0, 260.0))
        pts = [(float(rng.uniform(0, side)), float(rng.uniform(0, side)))
               for _ in range(n)]
        topo = _manual_topo(pts)
        plan = build_plan("dynamic-reuse", _manual_topo([]))
        plan.femto_band.clear()
        alive = []
        for i in range(n):
            configure_new_femto(plan, topo, i)
            alive.append(i)
            if len(alive) > 2 and rng.random() < 0.25:
                victim = alive.pop(int(rng.integers(len(alive))))
                remove_femto(plan, topo, victim)
            conflicts += len(plan.edge_conflicts(topo))
        for label, c in plan.branch_counts.items():
            branch_totals[label] = branch_totals.get(label, 0) + c
    assert conflicts == 0, f"{conflicts} conflicting pairs observed"
    for label in ("0", "1", "2", "3"):
        assert branch_totals.get(label, 0) >= 100, \
            f"branch {label} exercised only {branch_totals.get(label, 0)} times"
    budget.done()


# -- 5 ------------------------------------------------------------------


def _assert_chain_matches_oracle(probs, births, deaths, p_block, block_set,
                                 p_drop=None):
    pi = balance_equation_solve(births, deaths)
    assert abs(probs.sum() - 1.0) < 1e-9
    assert np.max(np.abs(probs - pi)) < 1e-9
    assert abs(p_block - pi[block_set:].sum()) < 1e-9
    if p_drop is not None:
        assert abs(p_drop - pi[-1]) < 1e-9


def test_criterion_05_queueing_exactness():
    budget = Budget(5, "chain probabilities match dense balance solve to 1e-9", 10)
    rng = np.random.default_rng(SEED)

    # shipped presets: Table 6.1 single cell and Table 5.1 two-tier
    params61 = Scenario({}).ch6_params(lam_new=1.2)
    sol = q.solve_ch6(params61, "proposed")
    (cell,) = q.ch6_cells(params61, ("proposed",))
    n, s, ell = cell.n, cell.s, cell.ell
    lam = params61.lam_new + sol.handover_rate
    births = [lam] * (n + ell) + [sol.handover_rate] * (s - ell)
    deaths = cell.srv[1:]
    _assert_chain_matches_oracle(sol.probs, births, deaths, sol.p_block,
                                 n + ell, sol.p_drop)

    two = q.solve_two_tier(q.TwoTierParams(
        lambda_o_f=2.0, lambda_o_m=1.0, mu=1 / 120.0, eta_f=1 / 360.0,
        eta_m=1 / 240.0, n=1000, alpha=0.8, beta_prob=0.2))
    mu_m = two.rates["mu_m"]
    lam_m = 1.0 + two.rates["lambda_h_m"]
    births = [lam_m] * 100 + [two.rates["lambda_h_m"]] * 30
    deaths = [(i + 1) * mu_m for i in range(130)]
    _assert_chain_matches_oracle(two.macro.probs, births, deaths,
                                 two.macro.p_block, 100, two.macro.p_drop)

    # 200 random small instances (state count <= 50)
    for _ in range(200):
        n_states = int(rng.integers(2, 49))
        births = rng.uniform(0.05, 4.0, size=n_states)
        deaths = rng.uniform(0.05, 4.0, size=n_states)
        probs = q.birth_death_probs(births, deaths)
        pi = balance_equation_solve(births, deaths)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.max(np.abs(probs - pi)) < 1e-9
    budget.done()


# -- 6 ------------------------------------------------------------------


def test_criterion_06_des_agreement():
    budget = Budget(6, "analytic P_B/P_D inside DES 95% CI at 1e6 calls", 120)

    # Erlang reduction: N=2 servers, 1 erlang -> exactly 0.2
    res = simulate_des(spec_for_erlang(1.0, 1.0, 2), 1_000_000, seed=SEED)
    assert res.block_ci[0] <= 0.2 <= res.block_ci[1]

    # Table 6.1 preset
    params = Scenario({}).ch6_params(lam_new=1.3)
    sol = q.solve_ch6(params, "proposed")
    res = simulate_des(spec_for_ch6(params, sol.handover_rate), 1_000_000,
                       seed=SEED + 1)
    assert res.block_ci[0] <= sol.p_block <= res.block_ci[1]
    assert res.drop_ci[0] <= sol.p_drop <= res.drop_ci[1]

    # Table 5.1 two-tier preset: both layers
    scenario = scenario_from_preset("table-5.1")
    tt = scenario.two_tier_params(n=1000, lam_total=8.0)
    sol2 = q.solve_two_tier(tt)
    macro = simulate_des(spec_for_two_tier_macro(tt, sol2), 1_000_000,
                         seed=SEED + 2)
    assert macro.block_ci[0] <= sol2.macro.p_block <= macro.block_ci[1]
    assert macro.drop_ci[0] <= sol2.macro.p_drop <= macro.drop_ci[1]
    femto = simulate_des(spec_for_two_tier_femto(tt, sol2), 1_000_000,
                         seed=SEED + 3)
    assert femto.block_ci[0] <= sol2.femto.p_block <= femto.block_ci[1]
    budget.done()


# -- 7 ------------------------------------------------------------------


def test_criterion_07_ch6_scheme_properties():
    budget = Budget(7, "Ch.6 scheme relations across the load sweep", 30)
    grid = [0.4, 0.8, 1.2, 1.6, 2.0]
    classes = table61_classes()
    heaviest = None
    for lam in grid:
        params = Scenario({}).ch6_params(lam_new=lam)
        prop = q.solve_ch6(params, "proposed")
        guard = q.solve_ch6(params, "guard")
        (cell,) = q.ch6_cells(params, ("proposed",))
        assert prop.p_drop <= prop.p_block
        if cell.ell < cell.s:
            assert prop.p_drop < prop.p_block
        assert prop.p_drop < guard.p_drop, f"lam={lam}"
        assert prop.utilization >= guard.utilization - 1e-12
        heaviest = prop

        # non-prioritized == proposed with gamma_n := gamma_h, exactly
        np_manual = tuple(
            TrafficClass(c.index, c.kind, c.requested_bw, c.degrade_hand,
                         c.degrade_hand, c.arrival_share, c.duration_s)
            for c in classes)
        manual = q.solve_ch6(q.Ch6QueueParams(lam, params.capacity, np_manual,
                                              params.eta), "proposed")
        auto = q.solve_ch6(params, "non-prioritized")
        assert manual.probs.shape == auto.probs.shape
        assert np.max(np.abs(manual.probs - auto.probs)) < 1e-12

        # aqos == proposed with gamma_n := 0, exactly
        aq_manual = tuple(
            TrafficClass(c.index, c.kind, c.requested_bw, 0.0, c.degrade_hand,
                         c.arrival_share, c.duration_s)
            for c in classes)
        manual = q.solve_ch6(q.Ch6QueueParams(lam, params.capacity, aq_manual,
                                              params.eta), "proposed")
        auto = q.solve_ch6(params, "aqos")
        assert np.max(np.abs(manual.probs - auto.probs)) < 1e-12

    assert heaviest.p_drop < 5e-4, f"P_D={heaviest.p_drop} at the heaviest point"
    budget.done()


# -- 8 ------------------------------------------------------------------


def test_criterion_08_two_tier_fixed_point():
    budget = Budget(8, "two-tier fixed point: convergence, Erlang reduction, "
                       "density trends", 60)
    scenario = scenario_from_preset("table-5.1")
    sol = q.solve_two_tier(scenario.two_tier_params(n=1000, lam_total=8.0))
    assert sol.residuals[-1] < 1e-8
    assert sol.iterations <= 10_000

    # n = 0 reduces to the macro-only Erlang chain (S = 0)
    params0 = q.TwoTierParams(
        lambda_o_f=0.0, lambda_o_m=8.0, mu=1 / 120.0, eta_f=1 / 360.0,
        eta_m=1 / 240.0, n=0, macro_adaptive_states=0)
    sol0 = q.solve_two_tier(params0)
    mu_m, _ = q.channel_release_rates(params0)
    lam = 8.0 + sol0.rates["lambda_h_m"]
    assert sol0.macro.p_block == pytest.approx(
        erlang_b_direct(100, lam / mu_m), abs=1e-9)

    # density trends
    lam_total = 8.0
    sols = []
    for n in (0, 250, 500, 750, 1000):
        sols.append(q.solve_two_tier(scenario.two_tier_params(
            n=n, lam_total=lam_total)))
    blocking = [s.macro.p_block for s in sols]
    assert all(a >= b - 1e-12 for a, b in zip(blocking, blocking[1:]))
    ft = [q.forced_termination_probability(s.probabilities.mm, s.macro.p_drop)
          for s in sols]
    assert all(a >= b - 1e-12 for a, b in zip(ft, ft[1:]))
    release = [s.rates["mu_m"] for s in sols]
    assert all(a < b for a, b in zip(release, release[1:]))
    femto_ho = [s.rates["lambda_h_mf"] + s.rates["lambda_h_ff"]
                + s.rates["lambda_h_fm"] for s in sols]
    assert all(a < b for a, b in zip(femto_ho, femto_ho[1:]))
    budget.done()


# -- 9 ------------------------------------------------------------------


def test_criterion_09_neighbor_list():
    budget = Budget(9, "hidden-FAP fixture, count identity, missing-target "
                       "trends", 30)
    topo, plan, scan, ue = hidden_fap_fixture()
    out = nl.build_list_from_femto(scan, plan, topo, 0, ue_xy=ue)
    assert set(out.entries) == {1, 2, 3, 8}

    rng = np.random.default_rng(SEED)
    big = place_femtocells(seed=SEED, count=150)
    big_plan = build_plan("dynamic-reuse", big)
    for _ in range(1000):
        serving = int(rng.integers(150))
        pos = big.position(serving)
        sample = rng.choice(150, size=int(rng.integers(1, 60)), replace=False)
        levels = {int(f): float(rng.uniform(-110, -40)) for f in sample}
        lst = nl.build_list_from_femto(
            nl.RssiScan(levels, serving), big_plan, big, serving, ue_xy=pos)
        lst.check_count_identity()

    missing = {}
    for count in (100, 400, 1000):
        missing[count] = nl.p_target_missing(count=count, trials=200,
                                             seed=SEED, obstruction_prob=0.35)
    props = []
    for count, res in missing.items():
        assert res["proposed"] <= res["rssi-only"] + 1e-12, f"count {count}"
        props.append(res["proposed"])
    assert all(a >= b - 1e-12 for a, b in zip(props, props[1:])), props
    budget.done()


# -- 10 -----------------------------------------------------------------


def test_criterion_10_ch7_allocator():
    budget = Budget(10, "Table 7.1 budget floors, technique structure, "
                        "load trends", 10)
    sessions = [MbsSession(id=i, base_bw=0.5e6, layer_bw=50e3, max_layers=10,
                           min_layers=0, popularity=12 - i) for i in range(12)]
    assert total_min_bw(sessions) == pytest.approx(6e6)
    assert total_max_bw(sessions) == pytest.approx(12e6)
    regime, b = allocate_mbs_budget(20e6, 0.0, sessions)
    assert regime == "lower-traffic" and b == pytest.approx(12e6)

    rng = np.random.default_rng(SEED)
    for _ in range(300):
        budget_bw = float(rng.uniform(6e6, 12e6))
        two = technique_two_level(budget_bw, sessions)
        multi = technique_multi_level(budget_bw, sessions)
        assert two.total_bw <= budget_bw + 1e-6
        assert multi.total_bw <= budget_bw + 1e-6
        assert abs(two.total_bw - multi.total_bw) < 1.0
        assert two.total_bw + 50e3 > budget_bw  # maximal
        assert max(two.layers) - min(two.layers) <= 1
        assert two.layers == greedy_layer_packing(budget_bw, sessions)
        m2 = multi.split_index
        assert all(l == 10 for l in multi.layers[:m2])
        assert all(l == 0 for l in multi.layers[m2 + 1:])

    scenario = scenario_from_preset("table-7.1")
    scenario = Scenario({**scenario.values, "trials": 1})
    scenario.values["traffic.arrival_grid"] = (0.2, 0.6, 1.0, 1.4, 1.8)
    res = run_experiment("fig7-mbs", scenario)
    mbs = [v for _, v in sorted(result_values(res, "proposed", "mbs_bandwidth_bps"))]
    assert all(a >= b - 1e-9 for a, b in zip(mbs, mbs[1:]))
    assert all(6e6 - 1e-6 <= v <= 12e6 + 1e-6 for v in mbs)
    two_levels = dict(result_values(res, "proposed", "two_level_min_layers"))
    uni_layers = dict(result_values(res, "proposed", "unicast_layers"))
    for lam in (0.2, 0.6, 1.0, 1.4, 1.8):
        if uni_layers[lam] < 10.0:  # unicast degraded => MBS already degraded
            assert two_levels[lam] < 10
    degraded_mbs = [lam for lam in uni_layers if two_levels[lam] < 10]
    degraded_uni = [lam for lam in uni_layers if uni_layers[lam] < 10.0]
    if degraded_uni:
        assert min(degraded_mbs) <= min(degraded_uni)
    budget.done()


# -- 11 -----------------------------------------------------------------


def test_criterion_11_ch8_allocator():
    budget = Budget(11, "popularity allocation conservation, bounds, "
                        "satisfaction dominance", 5)
    alloc = allocate_popularity(2.0, 2.0, 0.6, [[150, 50]])
    assert alloc.bandwidths[0] == pytest.approx([1.2, 0.8])

    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        m = int(rng.integers(2, 50))
        viewers = sorted((int(v) for v in rng.integers(1, 300, size=m)),
                         reverse=True)
        c = float(rng.uniform(m * 0.6, m * 2.5))
        alloc = allocate_popularity(c, 2.0, 0.6, [viewers])
        bws = alloc.bandwidths[0].tolist()
        if alloc.congested:
            assert abs(sum(bws) - c) < 1e-9
        for b in bws:
            assert 0.6 - 1e-9 <= b <= 2.0 + 1e-9
        assert all(x >= y - 1e-9 for x, y in zip(bws, bws[1:]))
        _, (average,), baseline = alloc.satisfaction()
        assert average >= baseline - 1e-12
        if alloc.congested and viewers[0] == viewers[-1]:
            assert average == pytest.approx(baseline)
        if alloc.congested and viewers[0] != viewers[-1]:
            assert average > baseline
    budget.done()


# -- 12 -----------------------------------------------------------------


def test_criterion_12_handover_flows():
    budget = Budget(12, "call-flow ordering invariants over all branches", 5)
    violations = 0
    for flow in hf.TEMPLATES:
        for cac, auth in itertools.product([True, False], repeat=2):
            trace = hf.run_flow(flow, {"cac": lambda c=cac: c,
                                       "authorize": lambda a=auth: a})
            try:
                hf.validate_trace(trace)
            except AssertionError:
                violations += 1
            if trace.outcome == hf.OUTCOME_COMPLETED:
                assert trace.first("data-forwarding") < trace.first("detach")
                complete = max(s.number for s in trace.steps
                               if s.kind == "handover-complete")
                delete = min(s.number for s in trace.steps
                             if s.kind.startswith("delete-old-link"))
                assert complete < delete
    assert violations == 0
    budget.done()


# -- 13 -----------------------------------------------------------------


def test_criterion_13_experiment_determinism():
    budget = Budget(13, "byte-identical CSV on rerun for every experiment", 60)
    tweaks = {
        "fig4-throughput": {"trials": 2, "sweep.femto_counts": (100.0,)},
        "fig4-outage": {"trials": 2, "sweep.femto_counts": (100.0,)},
        "fig5-mobility": {"sweep.femto_counts": (0.0, 500.0)},
        "fig5-neighborlist": {"trials": 30, "sweep.femto_counts": (150.0,)},
        "fig6-cac": {"traffic.arrival_grid": (0.8, 1.4)},
        "fig7-mbs": {"traffic.arrival_grid": (0.4, 1.2)},
        "fig8-popularity": {"trials": 4, "sweep.session_counts": (15.0, 30.0)},
    }
    # sha256 of each CSV above; a change here is a change of results
    csv_sha256 = {
        "fig4-throughput":
            "1b5674aba07b3802468d95f5487f69ae49bb9d0fa6997cba2218c01b030baed1",
        "fig4-outage":
            "fef9f87607ce9c3c248300b970c11ae49efb39d29944440ab2e79fb0f986fb30",
        "fig5-mobility":
            "624d1141b53333b3a7bce10c66cb34519c919f24fdffeb145864f35861be1905",
        "fig5-neighborlist":
            "031beb9057c303e1e8e2fca949623294a0e0d06121211f5283b6855da914138d",
        "fig6-cac":
            "09b115b79173f18e64811f77dd55705f79d4eee8c7c2d5f699bb28e404463b5f",
        "fig7-mbs":
            "75dc3eabf78c96a3659e0a0b2334ff59f86e36e550456d0e6c2957bf28c4e78d",
        "fig8-popularity":
            "7264c5155f214146e0f1123aeb33fba411b59ad887a23fe0f28d01d1255aec16",
    }
    from femtonet.experiments import DEFAULT_PRESET

    for name, extra in tweaks.items():
        scenario = scenario_from_preset(DEFAULT_PRESET[name])
        values = {**scenario.values, "seed": SEED}
        values.update(extra)
        scenario = Scenario(values)
        # an empty sweep cache before each run, so a fig4 rerun sweeps again
        _radio_sweep.cache_clear()
        first = result_to_csv(run_experiment(name, scenario))
        _radio_sweep.cache_clear()
        second = result_to_csv(run_experiment(name, Scenario(dict(values))))
        assert first == second, f"{name} not deterministic"
        assert hashlib.sha256(first.encode()).hexdigest() == csv_sha256[name], \
            f"{name} CSV bytes changed"
        assert len(first.splitlines()) > 1
    budget.done()
