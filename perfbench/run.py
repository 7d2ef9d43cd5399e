#!/usr/bin/env python3
"""The femtonet benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

A single-threaded closed loop with one client: each op starts when the
previous one has finished.  Every workload runs in fresh worker processes
(perfbench/worker.py), so `setup_s` covers interpreter start, the femtonet
import, scenario resolution and input generation; it is the median over
SETUP_SAMPLES set-up-only process starts.  `result_s` is the median time of
a batch of ops, and `op_p50_ms`/`op_p90_ms` are percentiles over every op.
All of these are reference-speed times: the host's speed changes by up to
2x while the benchmark runs, so the worker samples it and scales each
wall interval to one reference speed (perfbench/hostspeed.py).  The wall
times are printed beside them.  `--trace 0` prints the end-to-end metrics
of BENCHMARK.json; `--trace 1` repeats the ops with the span recorder on
and prints the per-layer metrics, plus which interaction predictions held.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5  # set-up-only process starts
DEFAULT_SEED, HELDOUT_SEED = 1, 2  # the seeds with recorded digests
RUN_BUDGET_S = 170  # all workers of one workload end within this


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, seconds: float, mode: str, batches: int | None = None,
          record: bool = False, deadline: float | None = None) -> tuple[float, dict]:
    """Run one worker to completion; returns (monotonic start, its report)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if batches:
        cmd += ["--batches", str(batches)]
    if record:
        cmd.append("--record")
    t_start = time.monotonic()
    timeout = max(1.0, (deadline or t_start + RUN_BUDGET_S) - t_start)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return t_start, json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    setup, wall_setup = [], []
    for _ in range(SETUP_SAMPLES):
        t_start, probe = spawn(workload, seed, seconds, "setup", deadline=deadline)
        wall_setup.append(probe["ready"] - t_start)
        setup.append(wall_setup[-1] * probe["setup_speed"])
    _, rep = spawn(workload, seed, seconds, "run", deadline=deadline)
    lat = rep["latencies_s"]
    rep["metrics"] = {
        "setup_s": statistics.median(setup),
        "result_s": statistics.median(rep["batch_s"]),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * percentile(lat, 90),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    wall = rep["wall_latencies_s"]
    rep["wall"] = {
        "setup_s": statistics.median(wall_setup),
        "result_s": statistics.median(rep["wall_batch_s"]),
        "op_p50_ms": 1e3 * statistics.median(wall),
        "op_p90_ms": 1e3 * percentile(wall, 90),
    }
    n = len(lat)
    rep["notes"] = {
        "setup_s": f"median of {len(setup)} process starts",
        "result_s": (f"median of {len(rep['batch_s'])} batches of "
                     f"{rep['batch_ops']} ops"),
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {n - int(0.9 * n)} samples above",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    return rep


# Which module should carry the op time on each workload, and what should
# stay out of it.  Shares are self time over the ops' total time.
def _largest(shares, *modules):
    return max(shares, key=shares.get) in modules if shares else False


PREDICTIONS = {
    "fig4-dense": [
        ("spectrum.build_plan self time is the largest share of the ops",
         lambda ops, setup: _largest(ops, "spectrum")),
        ("radio.sir is under 1% of the ops, so a radio-only change moves no "
         "end-to-end metric", lambda ops, setup: ops.get("radio", 0.0) < 0.01),
        ("topology.place_femtocells is under 10% of the ops",
         lambda ops, setup: ops.get("topology", 0.0) < 0.10),
    ],
    "neighbor-query": [
        ("neighborlist carries the largest share of the ops",
         lambda ops, setup: _largest(ops, "neighborlist")),
        ("spectrum.build_plan is the largest share of set-up, so plan building "
         "moves setup_s here", lambda ops, setup: _largest(setup, "spectrum")),
        ("no plan is built during the ops", lambda ops, setup: "spectrum" not in ops),
    ],
    "analytic-figures": [
        ("queueing plus admission carry the largest share of the ops",
         lambda ops, setup: ops.get("queueing", 0) + ops.get("admission", 0)
         >= max(ops.values())),
        ("no DES, spectrum or neighbor-list call runs",
         lambda ops, setup: not {"des", "spectrum", "neighborlist"} & set(ops)),
        ("videoalloc runs and stays under 25% of the ops",
         lambda ops, setup: 0.0 < ops.get("videoalloc", 0.0) < 0.25),
    ],
    "des-oracle": [
        ("des.simulate_des self time is the largest share of the ops",
         lambda ops, setup: _largest(ops, "des")),
        ("queueing plus admission are under 10% of the ops",
         lambda ops, setup: ops.get("queueing", 0) + ops.get("admission", 0) < 0.10),
    ],
}


def traced(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    _, plain = spawn(workload, seed, seconds, "run", deadline=deadline)
    _, rep = spawn(workload, seed, seconds, "traced", deadline=deadline)
    rep["per_layer"]["trace.overhead_frac"] = (
        statistics.median(rep["batch_s"]) / statistics.median(plain["batch_s"]) - 1.0)
    rep["attempted"] += plain["attempted"]
    rep["failed"] += plain["failed"]
    rep["errors"] += plain["errors"]
    for phase in ("ops", "setup"):
        total = sum(rep[f"shares_{phase}"].values())
        rep[f"shares_{phase}"] = {m: s / total for m, s in rep[f"shares_{phase}"].items()}
    rep["predictions"] = [
        (text, check(rep["shares_ops"], rep["shares_setup"]))
        for text, check in PREDICTIONS[workload]]
    rep["metrics"] = rep["per_layer"]
    return rep


def report(workload: str, seed: int, trace: int, rep: dict, spec: dict) -> None:
    print(f"== {workload}  seed {seed}  trace {trace}: {rep['attempted']} ops attempted, "
          f"{rep['failed']} failed; digest check: {rep['digest_check']}")
    print("   run context: " + json.dumps(rep["context"]))
    for err in rep["errors"]:
        print(f"   FAILED {err}")
    if not trace:
        print(f"   host speed while timing: {rep['run_speed']:.3f} of the reference "
              f"(set-up {rep['setup_speed']:.3f}); times are at the reference speed, "
              "wall times beside them")
        for m in spec["end_to_end"]:
            name = m["name"]
            wall = f"wall {rep['wall'][name]:10.4f}  " if name in rep["wall"] else ""
            print(f"   {name:12s} {rep['metrics'][name]:12.4f} {m['unit']:3s}  {wall}"
                  f"({rep['notes'][name]})")
        return
    for phase in ("ops", "setup"):
        shares = sorted(rep[f"shares_{phase}"].items(), key=lambda kv: -kv[1])
        print(f"   self-time share of the {phase}: "
              + ", ".join(f"{m} {100 * s:.1f}%" for m, s in shares))
    for text, held in rep["predictions"]:
        print(f"   prediction {'HELD' if held else 'NOT HELD'}: {text}")
    for m in spec["per_layer"]:
        value = rep["metrics"][m["name"]]
        if value:
            print(f"   {m['name']:58s} {value:.6g} {m['unit']}")
    print("   (per-layer metrics not printed read 0: this workload does not call them)")


def run_one(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    rep = (traced if trace else end_to_end)(workload, seed, seconds)
    report(workload, seed, trace, rep, spec)
    os.makedirs(OUT_DIR, exist_ok=True)
    keep = {k: v for k, v in rep.items() if k != "digests"}
    with open(os.path.join(OUT_DIR, f"result-{workload}-{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(keep, fh, indent=1)
    return rep


def record_digests(seconds: float, spec: dict) -> None:
    digests = {}
    for w in spec["workloads"]:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            _, rep = spawn(w["name"], seed, seconds, "run", record=True)
            if rep["failed"]:
                raise BenchError(f"{w['name']} seed {seed}: {rep['errors']}")
            digests.setdefault(w["name"], {})[str(seed)] = "".join(rep["digests"])
            print(f"recorded {rep['attempted']} digests for {w['name']} seed {seed}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "femtonet", "__init__.py")):
        print(f"error: no femtonet source tree under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    try:
        if args.record_digests:
            record_digests(seconds, spec)
            return 0
        if args.workload != "all" and args.workload not in names:
            print(f"error: unknown workload {args.workload!r} (known: {', '.join(names)})",
                  file=sys.stderr)
            return 2
        selected = names if args.workload == "all" else [args.workload]
        results = {w: run_one(w, args.seed, seconds, args.trace, spec) for w in selected}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    metrics = {}
    for w, rep in results.items():
        missing = set(wanted) - set(rep["metrics"])
        if missing:
            print(f"error: {w} did not produce {sorted(missing)}", file=sys.stderr)
            return 1
        prefix = "" if len(results) == 1 else f"{w}."
        for name in wanted:
            metrics[prefix + name] = {"value": rep["metrics"][name], "unit": units[name]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
