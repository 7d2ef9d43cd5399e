"""Experiment drivers reproducing the dissertation-style figure families.

Each driver sweeps one axis, compares the schemes its chapter compares, and
returns long-form rows (scenario, scheme, x, metric, value, stderr, seed).
Everything is deterministic for a fixed (scenario, seed): per-sweep-point
RNG streams are split off the master seed by counter, so results do not
depend on execution order.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import neighborlist as nl_mod
from . import queueing as q_mod
from ._checks import finite
from .admission import TrafficClass
from .presets import TABLE_7_1, TABLE_8_1, table71_mbs_sessions
from .radio import db_to_linear, outage_probability_closed_form, shannon_throughput, sir
from .scenario import Scenario, scenario_from_preset
from .spectrum import SpectrumPlan, build_plan
from .topology import check_reference_fap, place_femtocells, reach_components
from .videoalloc import (
    allocate_mbs_budget,
    allocate_popularity,
    technique_multi_level,
    technique_two_level,
    total_max_bw,
    total_min_bw,
)

RADIO_SCHEMES = ("dedicated", "shared", "static-reuse", "dynamic-reuse")
CAC_SCHEMES = q_mod.CH6_SCHEMES
# the arrival grids when the scenario sets none
FIG6_ARRIVAL_GRID = (0.4, 0.7, 1.0, 1.3, 1.6, 2.0)
FIG7_ARRIVAL_GRID = (0.2, 0.5, 0.8, 1.1, 1.4, 1.7)

CSV_COLUMNS = ("scenario", "scheme", "x", "metric", "value", "stderr", "seed")


@dataclass
class ExperimentResult:
    experiment: str
    scenario: str
    seed: int
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, scheme: str, x: float, metric: str, value: float,
            stderr: float = 0.0) -> None:
        self.rows.append((self.scenario, scheme, float(x), metric,
                          float(value), float(stderr), self.seed))


def _spawn_rng(seed: int, *key) -> np.random.Generator:
    parts = [seed]
    for k in key:
        if isinstance(k, str):
            digest = hashlib.blake2s(k.encode()).digest()[:8]
            parts.append(int.from_bytes(digest, "little"))
        else:
            parts.append(int(k))
    return np.random.default_rng(np.random.SeedSequence(parts))


# ---------------------------------------------------------------------------
# Ch. 4: throughput / outage across frequency schemes


def _read_fig4(scenario: Scenario):
    """The fig4 sweep's checked inputs: propagation parameters, linear SIR
    threshold, UE range, macro geometry and `build_plan` band arguments."""
    threshold = finite("radio.sir_threshold_db", scenario["radio.sir_threshold_db"])
    ue_range = finite("radio.ue_fap_distance_m", scenario["radio.ue_fap_distance_m"], 0,
                      strict=True)
    macro = scenario.macro_geometry()
    check_reference_fap(macro)
    params = scenario.propagation()
    bands = {k: scenario[f"spectrum.{k}"] for k in ("total_hz", "femto_fraction", "edge_fraction")}
    SpectrumPlan("shared", **bands)  # the plan's constructor checks them
    return params, db_to_linear(threshold), ue_range, macro, bands


def _radio_sweep(scenario: Scenario, counts, trials: int):
    """Per (count, scheme): mean throughput and outage of the measurement
    user held at the fixed range from the reference FAP, averaged over
    random surrounding deployments (the femtocell count is the x axis).

    The measurement reads only the bands of the reference FAP and of its
    `neighbors_of` set, so every plan but static reuse is built on the
    reference FAP's reach-graph component (`reach_components`), which holds
    that set, and `sir` runs there too.  This is exact: dynamic reuse never
    couples FAPs in different components, and the single-band schemes give
    every FAP the same band.  Static reuse stays on the whole topology,
    because its coin flips depend on every earlier FAP.  The `events` and
    `branch_counts` of a dynamic-reuse plan so describe only the reference
    component."""
    params, gamma, ue_range, macro, bands = _read_fig4(scenario)
    out = {}
    for count in counts:
        sums = {s: [0.0, 0.0] for s in RADIO_SCHEMES}  # thr, outage
        for trial in range(trials):
            topo = place_femtocells(scenario.seed + 1009 * trial, count, macro=macro)
            rng = _spawn_rng(scenario.seed, count, trial)
            ref = 0  # reference FAP, pinned at the Table 4.3 range from the BS
            fx, fy = topo.position(ref)
            ang = 2.0 * math.pi * rng.random()
            ue = (fx + ue_range * math.cos(ang), fy + ue_range * math.sin(ang))
            local = reach_components(topo, {ref})
            for scheme in RADIO_SCHEMES:
                plan = build_plan(scheme, topo if scheme == "static-reuse" else local,
                                  seed=scenario.seed, **bands)
                rep = sir(local, plan, ue, ref, params, macro_tiers="reference")
                band = plan.band_for_link(ref, ue, local)
                acc = sums[scheme]
                acc[0] += shannon_throughput(band.width, rep.capped_sir(params))
                # zero interference gives an outage of exactly 0.0
                acc[1] += outage_probability_closed_form(
                    rep.signal_w, gamma, rep.total_interference_w)
        out[count] = {s: (thr / trials, outage / trials) for s, (thr, outage) in sums.items()}
    return out


def _sweep_counts(scenario: Scenario, key: str, default, minimum: int = 1) -> list[int]:
    """The counts listed under `key`, or `default` when it is empty; each
    must be a whole number no smaller than `minimum`."""
    for c in scenario[key]:
        if not float(c).is_integer() or c < minimum:
            raise ValueError(f"{key}: count {c!r} is not a whole number >= {minimum}")
    return [int(c) for c in scenario[key]] or list(default)


def _arrival_grid(scenario: Scenario, default) -> list[float]:
    """The rates listed under traffic.arrival_grid, or `default` when it is
    empty; each must be finite and >= 0."""
    for lam in scenario["traffic.arrival_grid"]:
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"traffic.arrival_grid: rate {lam!r} is not finite and >= 0")
    return list(scenario["traffic.arrival_grid"] or default)


def _no_trials(name: str, scenario: Scenario) -> ExperimentResult:
    """The empty result of a Monte-Carlo driver asked for zero trials."""
    return ExperimentResult(name, scenario.name, scenario.seed,
                            metadata={"note": "zero trials"})


DEFAULT_FIG4_COUNTS = (60, 100, 300, 600, 1000)


# the fig4 experiments: the metric each reports, and its index in a sweep value
FIG4_METRICS = {"fig4-throughput": ("mean_throughput_bps", 0),
                "fig4-outage": ("mean_outage", 1)}


def _run_fig4(scenario: Scenario, names) -> list[ExperimentResult]:
    """The named fig4 results, in order, all read from one radio sweep."""
    counts = _sweep_counts(scenario, "sweep.femto_counts", DEFAULT_FIG4_COUNTS)
    if scenario["trials"] == 0:
        _read_fig4(scenario)  # zero trials reject what the trials reject
        return [_no_trials(name, scenario) for name in names]
    sweep = _radio_sweep(scenario, counts, scenario["trials"])
    results = []
    for name in names:
        metric, index = FIG4_METRICS[name]
        res = ExperimentResult(name, scenario.name, scenario.seed)
        for count, per_scheme in sweep.items():
            for scheme, values in per_scheme.items():
                res.add(scheme, count, metric, values[index])
        results.append(res)
    return results


def run_fig4_throughput(scenario: Scenario) -> ExperimentResult:
    return _run_fig4(scenario, ["fig4-throughput"])[0]


def run_fig4_outage(scenario: Scenario) -> ExperimentResult:
    return _run_fig4(scenario, ["fig4-outage"])[0]


# ---------------------------------------------------------------------------
# Ch. 5: two-tier mobility and the neighbor list


def _read_fig5_mobility(scenario: Scenario):
    """The two-tier parameters of the macro-only baseline, and a (count,
    parameters) pair per swept femtocell count."""
    counts = _sweep_counts(scenario, "sweep.femto_counts", (0, 200, 400, 600, 800, 1000),
                           minimum=0)
    return scenario.two_tier_params(n=0), [(n, scenario.two_tier_params(n=n)) for n in counts]


def run_fig5_mobility(scenario: Scenario) -> ExperimentResult:
    """Macro-layer blocking/forced termination and handover rates as the
    femtocell count grows, against the macro-only baseline."""
    res = ExperimentResult("fig5-mobility", scenario.name, scenario.seed)
    baseline_params, swept = _read_fig5_mobility(scenario)
    baseline, *solved = q_mod.solve_two_tier_sweep(
        [baseline_params, *(params for _, params in swept)])
    for (n, _), sol in zip(swept, solved):
        probs = sol.probabilities
        p_ft = q_mod.forced_termination_probability(probs.mm, sol.macro.p_drop)
        res.add("integrated", n, "macro_new_call_blocking", sol.macro.p_block)
        res.add("integrated", n, "macro_forced_termination", p_ft)
        res.add("integrated", n, "macro_channel_release_rate", sol.rates["mu_m"])
        res.add("integrated", n, "handover_rate_femto_involved",
                sol.rates["lambda_h_mf"] + sol.rates["lambda_h_ff"]
                + sol.rates["lambda_h_fm"])
        res.add("integrated", n, "p_h_mf", probs.mf)
        res.add("integrated", n, "p_h_ff", probs.ff)
        res.add("integrated", n, "p_h_fm", probs.fm)
        res.add("macro-only", n, "macro_new_call_blocking", baseline.macro.p_block)
        res.add("macro-only", n, "macro_forced_termination",
                q_mod.forced_termination_probability(
                    baseline.probabilities.mm, baseline.macro.p_drop))
    res.metadata["iterations"] = baseline.iterations
    return res


def _read_fig5_neighborlist(scenario: Scenario):
    """The fig5-neighborlist trials' checked inputs: macro geometry,
    propagation parameters, S_T0, S_T1, d_max and obstruction probability."""
    macro = scenario.macro_geometry()
    check_reference_fap(macro)
    radio = scenario.propagation()
    s_t0, s_t1 = scenario["neighborlist.s_t0_dbm"], scenario["neighborlist.s_t1_dbm"]
    nl_mod.RssiScan({}, "macro", s_t0, s_t1)  # checks S_T1 > S_T0
    d_max = scenario["neighborlist.d_max_m"]
    obstruction = scenario["neighborlist.obstruction_prob"]
    nl_mod.check_params(d_max, obstruction)
    return macro, radio, s_t0, s_t1, d_max, obstruction


def run_fig5_neighborlist(scenario: Scenario) -> ExperimentResult:
    counts = _sweep_counts(scenario, "sweep.femto_counts", (100, 200, 400, 700, 1000))
    macro, radio, s_t0, s_t1, d_max, obstruction = _read_fig5_neighborlist(scenario)
    trials = scenario["trials"]
    if trials == 0:
        return _no_trials("fig5-neighborlist", scenario)
    res = ExperimentResult("fig5-neighborlist", scenario.name, scenario.seed)
    for count in counts:
        miss = nl_mod.p_target_missing(
            count=count, trials=trials, seed=scenario.seed, obstruction_prob=obstruction,
            d_max_m=d_max, macro=macro, params=radio, s_t0_dbm=s_t0, s_t1_dbm=s_t1)
        res.add("proposed", count, "p_target_missing", miss["proposed"])
        res.add("rssi-only", count, "p_target_missing", miss["rssi-only"])

        # list-size comparison at this density
        rng = _spawn_rng(scenario.seed, "listsize", count)
        topo = place_femtocells(scenario.seed + 31 * count, count, macro=macro)
        plan = build_plan("dynamic-reuse", topo)
        sizes_prop, sizes_rssi = [], []
        for _ in range(min(trials, 20)):
            serving = int(rng.integers(count))
            ue = topo.position(serving)
            scan = nl_mod.scan_from_geometry(
                topo, ue, serving, radio, s_t0_dbm=s_t0, s_t1_dbm=s_t1)
            built = nl_mod.build_list_from_femto(scan, plan, topo, serving,
                                                 d_max_m=d_max, ue_xy=ue)
            sizes_prop.append(built.n_f)
            sizes_rssi.append(built.n_detected)
        res.add("proposed", count, "mean_list_size", float(np.mean(sizes_prop)))
        res.add("rssi-only", count, "mean_list_size", float(np.mean(sizes_rssi)))
    return res


# ---------------------------------------------------------------------------
# Ch. 6: adaptive CAC comparison


def _read_fig6(scenario: Scenario):
    """The arrival grid, the ch6 parameters at its first rate, and their
    cell per CAC scheme: the cell does not depend on the new-call rate."""
    grid = _arrival_grid(scenario, FIG6_ARRIVAL_GRID)
    base = scenario.ch6_params(lam_new=grid[0])
    return grid, base, q_mod.ch6_cells(base, CAC_SCHEMES)


def run_fig6_cac(scenario: Scenario) -> ExperimentResult:
    res = ExperimentResult("fig6-cac", scenario.name, scenario.seed)
    grid, base, cells = _read_fig6(scenario)
    solved = q_mod.solve_ch6_sweep(cells, grid)
    for j, lam in enumerate(grid):
        for cell, sols in zip(cells, solved):
            sol = sols[j]
            label = "guard5" if cell.scheme == "guard" else cell.scheme
            res.add(label, lam, "p_block", sol.p_block)
            res.add(label, lam, "p_drop", sol.p_drop)
            res.add(label, lam, "utilization", sol.utilization)
            res.add(label, lam, "handover_rate", sol.handover_rate)
            res.add(label, lam, "forced_termination",
                    q_mod.forced_termination_probability(cell.p_h, sol.p_drop))
    res.metadata["guard_channels"] = base.guard_channels
    return res


# ---------------------------------------------------------------------------
# Ch. 7: MBS bandwidth adaptation


def _ch7_dimensions(duration_s: float):
    """Non-MBS admission region of the Table 7.1 cell, every class holding
    calls of the scenario's mean duration: the classes, their arrival
    shares, the unicast floor in kbps, the MBS sessions, C_nb,max and
    (N, S, L) of the non-MBS chain.

    The non-MBS traffic can claim at most C_nb,max = C - C_min_B; class mix
    voice, unicast (degradable to the base layer for handovers only),
    background (two-level degradable)."""
    t = TABLE_7_1
    ratios = np.array([t["arrival_ratio_voice"], t["arrival_ratio_unicast"],
                       t["arrival_ratio_background"]])
    shares = ratios / ratios.sum()
    uni_max = t["unicast_max_mbps"] * 1e3
    uni_min = uni_max - t["unicast_max_layers"] * t["unicast_layer_kbps"]
    classes = (
        TrafficClass(1, "rt", t["voice_bw_kbps"], arrival_share=float(shares[0]),
                     duration_s=duration_s),
        TrafficClass(2, "nrt", uni_max, degrade_new=0.0,
                     degrade_hand=1.0 - uni_min / uni_max,
                     arrival_share=float(shares[1]),
                     duration_s=duration_s),
        TrafficClass(3, "nrt", t["background_max_kbps"],
                     degrade_new=t["background_degrade_new"],
                     degrade_hand=t["background_degrade_hand"],
                     arrival_share=float(shares[2]),
                     duration_s=duration_s),
    )
    sessions = table71_mbs_sessions()
    c_nb_max = t["capacity_mbps"] * 1e3 - total_min_bw(sessions) / 1e3
    n_extra, s, ell = q_mod.chain_dimensions(classes, c_nb_max)
    return classes, shares, uni_min, sessions, c_nb_max, n_extra, s, ell


def _read_fig7(scenario: Scenario):
    """The arrival grid, the mean call duration and its `_ch7_dimensions`."""
    grid = _arrival_grid(scenario, FIG7_ARRIVAL_GRID)
    duration = scenario._call_duration()
    return grid, duration, _ch7_dimensions(duration)


def run_fig7_mbs(scenario: Scenario) -> ExperimentResult:
    res = ExperimentResult("fig7-mbs", scenario.name, scenario.seed)
    t = TABLE_7_1
    grid, duration, dims = _read_fig7(scenario)
    classes, shares, uni_min, sessions, c_nb_max, n_extra, s, ell = dims
    # the fixed-max (#2) and fixed-min (#5) reservation baselines
    reserves = (("fixed-max", total_max_bw(sessions)), ("fixed-min", total_min_bw(sessions)))
    capacity = t["capacity_mbps"] * 1e6
    mu = 1.0 / duration
    eta = 1.0 / t["cell_dwell_s"]
    p_h = eta / (eta + mu)
    m = t["mbs_sessions"]

    for lam in grid:
        # offered non-MBS bandwidth demand at this arrival rate
        per_class = [lam * float(sh) for sh in shares]
        offered_bw = sum(rate / mu * c.requested_bw * 1e3
                         for rate, c in zip(per_class, classes))
        non_mbs = min(offered_bw, c_nb_max * 1e3)
        regime, mbs_budget = allocate_mbs_budget(capacity, non_mbs, sessions)

        two = technique_two_level(mbs_budget, sessions)
        multi = technique_multi_level(mbs_budget, sessions)
        res.add("proposed", lam, "mbs_bandwidth_bps", mbs_budget)
        res.add("proposed", lam, "non_mbs_bandwidth_bps", non_mbs)
        res.add("proposed", lam, "two_level_min_layers", min(two.layers))
        res.add("proposed", lam, "two_level_max_layers", max(two.layers))
        res.add("proposed", lam, "multi_level_full_sessions", multi.split_index)

        # unicast quality degrades only after voice + background floors fill
        uni_rate = per_class[1]
        uni_budget = non_mbs - per_class[0] / mu * classes[0].requested_bw * 1e3 \
            - per_class[2] / mu * classes[2].floor_hand * 1e3
        if uni_rate > 0:
            per_uni = uni_budget / (uni_rate / mu) / 1e3
            uni_layers = (per_uni - uni_min) / t["unicast_layer_kbps"]
            uni_layers = float(np.clip(uni_layers, 0, t["unicast_max_layers"]))
        else:
            uni_layers = t["unicast_max_layers"]
        res.add("proposed", lam, "unicast_layers", uni_layers)

        lam_h = p_h * lam
        chain = q_mod.solve_ch7(q_mod.Ch7QueueParams(
            sessions=m, n_states=m + n_extra, s_states=s, l_states=ell,
            lam_new_voice=per_class[0], lam_new_unicast=per_class[1],
            lam_new_background=per_class[2], lam_hand=lam_h, mu=mu))
        res.add("proposed", lam, "p_drop", chain.p_drop)
        res.add("proposed", lam, "p_block_voice", chain.extra["P_B_voice"])
        res.add("proposed", lam, "p_block_background", chain.extra["P_B_background"])

        for label, reserve in reserves:
            fixed_non_mbs = min(offered_bw, capacity - reserve)
            res.add(label, lam, "mbs_bandwidth_bps", reserve)
            res.add(label, lam, "non_mbs_bandwidth_bps", fixed_non_mbs)
    return res


# ---------------------------------------------------------------------------
# Ch. 8: popularity-based allocation


def _read_fig8(scenario: Scenario) -> list[int]:
    """The swept session counts.  `allocate_popularity` checks the largest
    against the Table 8.1 capacity on a row of zero viewers: the floor of
    M sessions at beta_min grows with M, so every count fits if it does."""
    counts = _sweep_counts(scenario, "sweep.session_counts",
                           (5, 10, 15, 20, 25, 30, 35, 40, 45, 50))
    t = TABLE_8_1
    allocate_popularity(t["capacity_mbps"], t["beta_max_mbps"], t["beta_min_mbps"],
                        np.zeros((1, max(counts))))
    return counts


def run_fig8_popularity(scenario: Scenario) -> ExperimentResult:
    counts = _read_fig8(scenario)
    if scenario["trials"] == 0:
        return _no_trials("fig8-popularity", scenario)
    res = ExperimentResult("fig8-popularity", scenario.name, scenario.seed)
    t = TABLE_8_1
    capacity = t["capacity_mbps"]
    viewers_total = t["total_viewers"]

    trials = scenario["trials"]
    for label, concentrated in (("scenario-1", False), ("scenario-2", True)):
        for m in counts:
            # all trials of a point in one draw, each row sorted into rank order
            rng = _spawn_rng(scenario.seed, label, m)
            head = viewers_total // 2 if concentrated else 0
            draws = rng.multinomial(viewers_total - head, [1.0 / m] * m, size=trials)
            viewers = np.sort(draws, axis=1)[:, ::-1]
            viewers[:, 0] += head  # the head session stays rank 1
            alloc = allocate_popularity(capacity, t["beta_max_mbps"],
                                        t["beta_min_mbps"], viewers)
            _, reps_prop, baseline = alloc.satisfaction()
            res.add("proposed", m, "satisfaction_avg", float(np.mean(reps_prop)),
                    float(np.std(reps_prop) / trials ** 0.5))
            # the mean of one float per trial, as the equal-share scheme scores
            # each trial alike; it need not round back to that float
            res.add("equal-share", m, "satisfaction_avg",
                    float(np.mean(np.full(trials, baseline))))

    # per-session allocation profile at the largest session count (one draw)
    m = max(counts)
    rng = _spawn_rng(scenario.seed, "profile", m)
    viewers = sorted((int(v) for v in rng.multinomial(viewers_total, [1.0 / m] * m)),
                     reverse=True)
    alloc = allocate_popularity(capacity, t["beta_max_mbps"],
                                t["beta_min_mbps"], [viewers])
    per_rank = alloc.satisfaction()[0][0]
    for rank, (k_m, bw, s_l) in enumerate(zip(viewers, alloc.bandwidths[0], per_rank),
                                          start=1):
        res.add("proposed", rank, "session_bandwidth_mbps", bw)
        res.add("proposed", rank, "session_viewers", k_m)
        res.add("proposed", rank, "session_satisfaction", s_l)
        res.add("equal-share", rank, "session_bandwidth_mbps",
                min(t["beta_max_mbps"], capacity / m))
    return res


EXPERIMENTS = {
    "fig4-throughput": run_fig4_throughput,
    "fig4-outage": run_fig4_outage,
    "fig5-mobility": run_fig5_mobility,
    "fig5-neighborlist": run_fig5_neighborlist,
    "fig6-cac": run_fig6_cac,
    "fig7-mbs": run_fig7_mbs,
    "fig8-popularity": run_fig8_popularity,
}

DEFAULT_PRESET = {
    "fig4-throughput": "table-4.3",
    "fig4-outage": "table-4.3",
    "fig5-mobility": "table-5.1",
    "fig5-neighborlist": "table-5.1",
    "fig6-cac": "table-6.1",
    "fig7-mbs": "table-7.1",
    "fig8-popularity": "table-8.1",
}


def _checked(name: str, scenario: Scenario | None, seed: int | None) -> Scenario:
    """The scenario `name` runs on; KeyError for an unknown name,
    ValueError for a negative trial count or seed."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r} "
                       f"(known: {', '.join(sorted(EXPERIMENTS))})")
    if scenario is None:
        scenario = scenario_from_preset(DEFAULT_PRESET[name])
    if seed is not None:
        scenario = Scenario({**scenario.values, "seed": seed})
    _check_trials(scenario)
    return scenario


def _check_trials(scenario: Scenario) -> None:
    """Reject a negative trial count or seed; numpy seeds only from n >= 0."""
    for key in ("trials", "seed"):
        if scenario[key] < 0:
            raise ValueError(f"{key} must be >= 0, got {scenario[key]}")


def check_scenario(scenario: Scenario) -> None:
    """Check `scenario` as every experiment reads it, running none: the trial
    count and seed, and each family's reader.  A value that any experiment
    rejects raises its `run_experiment` ValueError, except a femtocell count
    that fig4 and fig5-neighborlist reject and fig5-mobility, which places no
    FAPs, accepts: a count of 0, which their runs reject, and a count too
    large to place at the minimum separation, which only their trials
    reject."""
    _check_trials(scenario)
    for read in (_read_fig4, _read_fig5_mobility, _read_fig5_neighborlist, _read_fig6,
                 _read_fig7, _read_fig8):
        read(scenario)


def run_experiment(name: str, scenario: Scenario | None = None,
                   seed: int | None = None) -> ExperimentResult:
    """Run a named experiment; unknown names raise KeyError, a negative
    trial count or seed or a bad sweep count ValueError.  Zero trials give
    the Monte-Carlo drivers (fig4, fig5-neighborlist, fig8) an empty result;
    the analytic ones never read the trial count."""
    return EXPERIMENTS[name](_checked(name, scenario, seed))


def run_experiments(scenarios: dict) -> list[ExperimentResult]:
    """Run each named experiment on its scenario (a name -> Scenario dict),
    in order.  Each result equals its run_experiment result, but when both
    fig4 experiments run on equal scenarios one radio sweep serves both."""
    scenarios = {name: _checked(name, sc, None) for name, sc in scenarios.items()}
    fig4 = [name for name in scenarios if name in FIG4_METRICS]
    shared = {}
    if len(fig4) == 2 and scenarios[fig4[0]] == scenarios[fig4[1]]:
        shared = dict(zip(fig4, _run_fig4(scenarios[fig4[0]], fig4)))
    return [shared[name] if name in shared else EXPERIMENTS[name](sc)
            for name, sc in scenarios.items()]


# ---------------------------------------------------------------------------
# emission


def result_to_csv(result: ExperimentResult) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        scenario, scheme, x, metric, value, stderr, seed = row
        lines.append(f"{scenario},{scheme},{x!r},{metric},{value!r},{stderr!r},{seed}")
    return "\n".join(lines) + "\n"


def csv_to_rows(text: str) -> list[tuple]:
    """The rows of a result CSV; a ValueError names a malformed line."""
    lines = text.rstrip().splitlines()
    header = lines[0].split(",") if lines else []
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            scenario, scheme, x, metric, value, stderr, seed = line.split(",")
            rows.append((scenario, scheme, float(x), metric, float(value),
                         float(stderr), int(seed)))
        except ValueError as exc:
            fields = line.count(",") + 1
            if fields != len(CSV_COLUMNS):
                exc = f"{fields} fields, expected {len(CSV_COLUMNS)}"
            raise ValueError(f"CSV line {no}: {exc}") from None
    return rows


def result_to_plot_script(result: ExperimentResult) -> str:
    """One gnuplot block per metric, reading the result CSV."""
    metrics = sorted({r[3] for r in result.rows})
    schemes = sorted({r[1] for r in result.rows})
    lines = [
        "# gnuplot script generated by femtonet",
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'x'",
    ]
    for metric in metrics:
        lines.append(f"\nset title '{result.experiment}: {metric}'")
        lines.append(f"set output '{result.experiment}_{metric}.png'")
        lines.append("set terminal pngcairo size 800,500")
        plots = []
        for scheme in schemes:
            cond = f"(stringcolumn(2) eq '{scheme}' && stringcolumn(4) eq '{metric}')"
            plots.append(f"'{result.experiment}.csv' using 3:({cond} ? $5 : 1/0) "
                         f"with linespoints title '{scheme}'")
        lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    return "\n".join(lines) + "\n"


def emit(result: ExperimentResult, fmt: str, out_dir) -> list[str]:
    """Write the result as CSV or a plot script; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt == "csv":
        path = os.path.join(out_dir, f"{result.experiment}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(result_to_csv(result))
        written.append(path)
    elif fmt == "plot-script":
        path = os.path.join(out_dir, f"{result.experiment}.gnuplot")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(result_to_plot_script(result))
        written.append(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return written
