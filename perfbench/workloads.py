"""The four benchmark workloads.

Each workload turns (seed, batches) into a list of op inputs in `setup`,
runs one op in `run`, hashes an op's output in `digest`, and checks the
invariants the femtonet API exposes in `check`.  Ops reach the package only
through module attributes (`experiments.run_experiment`, ...), so the span
recorder in spans.py sees every call once it has patched those attributes.

A batch is the workload's stated input size: `result_s` is the median
(reference-speed) time of one batch.  Everything drawn here comes from
`random.Random` or a numpy generator seeded by (workload, seed), so the
same seed always gives the same ops.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import numpy as np

from femtonet import des, experiments, neighborlist, queueing, scenario, spectrum, topology

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "scenarios")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi), ascending: every
    pass spans the preset's whole range, so passes cost about the same."""
    width = (hi - lo) / n
    return [lo + (k + rng.random()) * width for k in range(n)]


def _load(file_name: str):
    return scenario.load_scenario(os.path.join(SCENARIOS, file_name))


def _check_csv(text: str, seed: int) -> list[tuple]:
    rows = experiments.csv_to_rows(text)
    if not rows:
        raise AssertionError("experiment produced no rows")
    for row in rows:
        if not all(math.isfinite(row[k]) for k in (2, 4, 5)) or row[6] != seed:
            raise AssertionError(f"bad row {row}")
    return rows


class Fig4Dense:
    """Both fig4 experiments, narrowed to one femto count and one trial,
    at every count of the dense-deployment scenario file."""

    name = "fig4-dense"
    why = ("plan building: every op places a new topology and builds four "
           "spectrum plans at 60 to 1000 FAPs, then reads each plan once")
    batch_nominal_s = 2.5
    min_batches = 10  # 100 ops, so p90 has ten samples beyond it

    def setup(self, seed: int, batches: int):
        base = _load("dense-frequency-reuse.scenario")
        counts = [int(c) for c in base["sweep.femto_counts"]]
        scenarios = {c: scenario.apply_overrides(
            base, [f"sweep.femto_counts = {c}", "trials = 1"]) for c in counts}
        rng = _rng(self.name, seed)
        ops = []
        for _ in range(batches):
            for count in counts:
                point_seed = rng.randrange(1, 2**31)
                # a user regenerating both figures runs them back to back
                ops.append(("fig4-throughput", count, point_seed))
                ops.append(("fig4-outage", count, point_seed))
        return {"scenarios": scenarios, "batch_ops": 2 * len(counts)}, ops

    def run(self, prep, op):
        name, count, seed = op
        result = experiments.run_experiment(name, prep["scenarios"][count], seed=seed)
        return experiments.result_to_csv(result)

    def digest(self, out) -> str:
        return sha(out)

    def check(self, prep, op, out) -> None:
        name, count, seed = op
        rows = _check_csv(out, seed)
        metric = "mean_throughput_bps" if name == "fig4-throughput" else "mean_outage"
        if sorted(r[1] for r in rows) != sorted(experiments.RADIO_SCHEMES):
            raise AssertionError("fig4 rows do not cover the four radio schemes")
        for r in rows:
            if r[2] != count or r[3] != metric:
                raise AssertionError(f"bad fig4 row {r}")
            if metric == "mean_outage" and not 0.0 <= r[4] <= 1.0:
                raise AssertionError(f"outage outside [0, 1]: {r}")
            if metric == "mean_throughput_bps" and not r[4] > 0.0:
                raise AssertionError(f"non-positive throughput: {r}")


class NeighborQuery:
    """Handover queries against the prebuilt 1000-FAP Table 5.1 deployment."""

    name = "neighbor-query"
    why = ("read-only lookups: a plan built once in set-up, then many RSSI "
           "scans and neighbor lists, the mirror image of fig4-dense")
    batch_nominal_s = 0.5
    min_batches = 1
    batch_ops = 100
    fap_count = 1000

    def setup(self, seed: int, batches: int):
        sc = scenario.scenario_from_preset("table-5.1")
        # the deployment is the preset's own (its seed); the queries come from
        # the workload seed, so set-up does the same work on every seed
        topo = topology.place_femtocells(sc.seed, self.fap_count, macro=sc.macro_geometry())
        rng = _rng(self.name, seed)
        plan = spectrum.build_plan("dynamic-reuse", topo)
        spectrum.verify_plan_relations(plan)
        ops = []
        for _ in range(batches * self.batch_ops):
            serving = rng.randrange(self.fap_count)
            x, y = topo.site(serving).position
            ang = 2.0 * math.pi * rng.random()
            ue = (x + topo.femto_radius_m * math.cos(ang),
                  y + topo.femto_radius_m * math.sin(ang))
            ops.append((serving, ue, rng.randrange(2**63)))
        prep = {"topo": topo, "plan": plan, "batch_ops": self.batch_ops,
                "obstruction": sc["neighborlist.obstruction_prob"],
                "s_t0": sc["neighborlist.s_t0_dbm"], "s_t1": sc["neighborlist.s_t1_dbm"],
                "d_max": sc["neighborlist.d_max_m"]}
        return prep, ops

    def run(self, prep, op):
        serving, ue, obstruction_seed = op
        # each scan link is obstructed with the scenario's probability; the
        # draw is kept as a seed so that 2000 ops do not hold 2000 sets
        draw = np.random.default_rng(obstruction_seed).random(self.fap_count)
        obstructed = set(np.flatnonzero(draw < prep["obstruction"]).tolist())
        obstructed.discard(serving)
        scan = neighborlist.scan_from_geometry(
            prep["topo"], ue, serving, obstructed=obstructed,
            s_t0_dbm=prep["s_t0"], s_t1_dbm=prep["s_t1"])
        return neighborlist.build_list_from_femto(
            scan, prep["plan"], prep["topo"], serving, d_max_m=prep["d_max"], ue_xy=ue)

    def digest(self, out) -> str:
        return sha(json.dumps([out.entries, out.n_detected, out.n_strong,
                               out.n_same_freq, out.m_hidden]))

    def check(self, prep, op, out) -> None:
        out.check_count_identity()
        if op[0] in out.entries or len(set(out.entries)) != len(out.entries):
            raise AssertionError("neighbor list repeats an entry or lists the server")


class AnalyticFigures:
    """fig5-mobility, fig6-cac, fig7-mbs and fig8-popularity at their
    default presets, with sweep axes drawn from the seed."""

    name = "analytic-figures"
    why = ("queueing, admission and video allocation with no DES: every pass "
           "solves new chains, so a memo would show no gain here")
    batch_nominal_s = 2.0
    min_batches = 10
    batch_ops = 10

    def _draw(self, rng):
        def grid(lo, hi, n):
            return ", ".join(f"{v:.4f}" for v in _stratified(rng, lo, hi, n))

        def counts(lo, hi, n):  # integer slices, so no count repeats
            edges = [lo + round(k * (hi - lo) / n) for k in range(n + 1)]
            return ", ".join(str(rng.randrange(a, b)) for a, b in zip(edges, edges[1:]))

        return (
            ("fig5-mobility", [f"sweep.femto_counts = {counts(0, 1001, 6)}"]),
            ("fig6-cac", [f"traffic.arrival_grid = {grid(0.4, 2.0, 6)}"]),
            ("fig7-mbs", [f"traffic.arrival_grid = {grid(0.2, 1.7, 6)}"]),
            ("fig8-popularity", [f"sweep.session_counts = {counts(5, 51, 10)}"]),
        ), rng.randrange(1, 2**31)

    def setup(self, seed: int, batches: int):
        rng = _rng(self.name, seed)
        ops = []
        for _ in range(batches * self.batch_ops):
            figures, pass_seed = self._draw(rng)
            ops.append(tuple(
                (name, pass_seed, scenario.apply_overrides(
                    scenario.scenario_from_preset(experiments.DEFAULT_PRESET[name]),
                    [*overrides, f"seed = {pass_seed}"]))
                for name, overrides in figures))
        return {"batch_ops": self.batch_ops}, ops

    def run(self, prep, op):
        return tuple(experiments.result_to_csv(experiments.run_experiment(name, sc))
                     for name, _, sc in op)

    def digest(self, out) -> str:
        return sha("".join(out))

    def check(self, prep, op, out) -> None:
        for (name, seed, _), text in zip(op, out):
            for r in _check_csv(text, seed):
                if r[3].startswith(("p_", "macro_new_call_blocking",
                                    "macro_forced_termination")) \
                        and not 0.0 <= r[4] <= 1.0:
                    raise AssertionError(f"{name}: probability outside [0, 1]: {r}")


# Table 7.1 MBS cell as fig7-mbs derives it: M = 12 always-on sessions and a
# non-MBS admission region of N - M = 107, S = 55, L = 13 states; the class
# mix voice/unicast/background is 5:1:4; 120 s calls; 540 s cell dwell.
CH7_SESSIONS, CH7_N_EXTRA, CH7_S, CH7_L = 12, 107, 55, 13
CH7_SHARES = (0.5, 0.1, 0.4)
CH7_MU, CH7_ETA = 1.0 / 120.0, 1.0 / 540.0
FIG7_GRID = (0.2, 0.5, 0.8, 1.1, 1.4, 1.7)


class DesOracle:
    """One analytic sweep point solved and then simulated by the DES."""

    name = "des-oracle"
    why = ("the DES kernel path: each op solves one chain and simulates it "
           "with a fixed call count, so the pure-Python event loop dominates")
    batch_nominal_s = 1.0
    min_batches = 10
    calls = 20_000
    # one batch: each CAC scheme once, two macro and one femto two-tier
    # points, two MBS points
    batch_kinds = (*(("ch6", s) for s in experiments.CAC_SCHEMES),
                   ("two-tier", "macro"), ("two-tier", "macro"),
                   ("two-tier", "femto"), ("ch7", ""), ("ch7", ""))

    def setup(self, seed: int, batches: int):
        cac = _load("adaptive-cac.scenario")
        mobility = _load("two-tier-mobility.scenario")
        rng = _rng(self.name, seed)
        lams = list(cac["traffic.arrival_grid"])
        counts = [int(c) for c in mobility["sweep.femto_counts"]]
        ops = []
        for _ in range(batches):
            for kind, variant in self.batch_kinds:
                if kind == "ch6":
                    x = rng.choice(lams)
                elif kind == "two-tier":
                    # a femto layer needs at least one femtocell
                    x = rng.choice([c for c in counts if c > 0 or variant == "macro"])
                else:
                    x = rng.choice(FIG7_GRID)
                ops.append((kind, variant, x, rng.randrange(1, 2**31)))
        return {"cac": cac, "mobility": mobility,
                "batch_ops": len(self.batch_kinds)}, ops

    def run(self, prep, op):
        """Returns (DES result, analytic solutions, [(analytic, ci), ...])."""
        kind, variant, x, seed = op
        if kind == "ch6":
            params = prep["cac"].ch6_params(lam_new=x)
            sol = queueing.solve_ch6(params, variant)
            res = des.simulate_des(des.spec_for_ch6(params, sol.handover_rate, variant),
                                   self.calls, seed=seed)
            return res, (sol,), [(sol.p_block, res.block_ci), (sol.p_drop, res.drop_ci)]
        if kind == "two-tier":
            mob = prep["mobility"]
            params = mob.two_tier_params(n=x, lam_total=mob["traffic.total_arrival_per_s"])
            sol = queueing.solve_two_tier(params)
            if variant == "macro":
                res = des.simulate_des(des.spec_for_two_tier_macro(params, sol),
                                       self.calls, seed=seed)
                return res, (sol.macro, sol.femto), [
                    (sol.macro.p_block, res.block_ci), (sol.macro.p_drop, res.drop_ci)]
            res = des.simulate_des(des.spec_for_two_tier_femto(params, sol),
                                   self.calls, seed=seed)
            return res, (sol.macro, sol.femto), [(sol.femto.p_block, res.block_ci)]
        p_h = CH7_ETA / (CH7_ETA + CH7_MU)
        params = queueing.Ch7QueueParams(
            sessions=CH7_SESSIONS, n_states=CH7_SESSIONS + CH7_N_EXTRA,
            s_states=CH7_S, l_states=CH7_L,
            lam_new_voice=x * CH7_SHARES[0], lam_new_unicast=x * CH7_SHARES[1],
            lam_new_background=x * CH7_SHARES[2], lam_hand=p_h * x, mu=CH7_MU)
        sol = queueing.solve_ch7(params)
        res = des.simulate_des(des.spec_for_ch7(params), self.calls, seed=seed)
        return res, (sol,), [
            (sol.p_drop, res.drop_ci),
            (sol.extra["P_B_background"], res.per_stream[0]["ci"]),
            (sol.extra["P_B_voice"], res.per_stream[1]["ci"])]

    def digest(self, out) -> str:
        res = out[0]
        return sha(json.dumps([[s["seen"], s["rejected"]] for s in res.per_stream]
                              + [repr(res.elapsed)]))

    def check(self, prep, op, out) -> None:
        res, solutions, _ = out
        for sol in solutions:
            sol.check_normalized()
        counted = (self.calls // res.replications) * res.replications
        if sum(s["seen"] for s in res.per_stream) != counted:
            raise AssertionError("DES counted a different number of arrivals")
        if any(not 0 <= s["rejected"] <= s["seen"] for s in res.per_stream):
            raise AssertionError("DES rejected more calls than it saw")
        if not res.elapsed > 0.0:
            raise AssertionError("DES clock did not advance")

    @staticmethod
    def ci_misses(out) -> tuple[int, int]:
        pairs = out[2]
        return sum(not lo <= v <= hi for v, (lo, hi) in pairs), len(pairs)


WORKLOADS = {w.name: w for w in (Fig4Dense(), NeighborQuery(), AnalyticFigures(), DesOracle())}


def batches_for(workload, seconds: float) -> int:
    """Batches in one run: enough to fill `seconds` at this commit's cost,
    and never fewer than the workload's minimum."""
    return max(workload.min_batches, round(seconds / workload.batch_nominal_s))
