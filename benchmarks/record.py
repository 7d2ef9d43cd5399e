#!/usr/bin/env python3
"""Record the performance of this checkout's src/ in BENCH_<tree>.json.

    python3 benchmarks/record.py

It runs `perfbench/run.py --workload all --seconds 15` at seeds 1, 2 and 3
as a subprocess and reads the result file that perfbench writes per
workload and seed (.perfbench_out/result-<workload>-<seed>-trace0.json):
the reference-speed and wall metrics of BENCHMARK.json and perfbench's run
context.  It adds, as context:

- the median of 3 wall times of each of the seven default `femtonet run`
  calls;
- the Tier-1 wall time and summary line, under the key "pure-python", the
  DES kernel's name, so that records from before and after the compiled
  kernel was dropped compare;
- the median of 3 wall times of a bare interpreter start and of
  `import numpy`;
- whether femtonet's bytecode was cached.  With bytecode writing off
  (PYTHONDONTWRITEBYTECODE=1), every process compiles femtonet from source,
  and perfbench's `setup_s` and `peak_rss_mb` include that compile.

The file is written at the repo root and named after the first 7 digits
of `src_tree`, the git tree id of the measured src/ as it is on disk,
untracked files included.  A commit's record is therefore
BENCH_<first 7 digits of `git rev-parse <commit>:src`>.json, whether it
was recorded before or after that commit was made.  `commit` is HEAD at
recording time and `dirty` says whether src/ differed from HEAD's.  The
seeds and the run length are fixed, so that records compare from one
change to the next.  A full record takes about 15 minutes on a 2-vCPU
host.
"""

from __future__ import annotations

import datetime
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REPEATS = 3
SEEDS = (1, 2, 3)
SECONDS = 15.0


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def src_tree() -> str:
    """The git tree id of src/ as it is on disk, tracked or not, through a
    throwaway index, so that the repo's own index is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("add", "--", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env)


def wall(cmd: list[str], env: dict | None = None, cwd: str = ROOT,
         check: bool = True) -> tuple[float, str]:
    """Wall time of one command, which must succeed if `check`, and its
    stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if check and proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return seconds, proc.stdout


def median_of(cmd: list[str], env: dict | None = None, cwd: str = ROOT) -> dict:
    runs = [wall(cmd, env, cwd)[0] for _ in range(REPEATS)]
    return {"median": statistics.median(runs), "runs": runs}


def src_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def perfbench() -> dict:
    """perfbench's end-to-end metrics per workload: the median over the
    seeds and each seed's value, for the reference-speed metrics and for
    the wall times printed beside them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    by_seed, summary, context = {}, {"correct": True, "attempted": 0, "failed": 0}, None
    for seed in SEEDS:
        _, out = wall([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                       "--workload", "all", "--seed", str(seed), "--seconds", str(SECONDS)])
        last = json.loads(out.strip().splitlines()[-1])
        summary["correct"] &= last["correct"] is True
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name in workloads:
            path = os.path.join(OUT_DIR, f"result-{name}-{seed}-trace0.json")
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
            context = rep["context"]
            by_seed.setdefault(name, {})[seed] = rep
    results = {}
    for name, reps in by_seed.items():
        entry = {}
        for kind in ("metrics", "wall"):
            entry[kind] = {
                metric: {"median": statistics.median(rep[kind][metric] for rep in reps.values()),
                         "by_seed": {str(s): rep[kind][metric] for s, rep in reps.items()}}
                for metric in next(iter(reps.values()))[kind]}
        results[name] = entry
    return {"seeds": list(SEEDS), "seconds": SECONDS, **summary, "context": context,
            "workloads": results}


def femtonet_runs() -> dict:
    """Median of 3 wall times of each default `femtonet run <experiment>`,
    for each experiment that `femtonet list` names."""
    cli = [sys.executable, "-m", "femtonet.cli"]
    listing = wall([*cli, "list"], src_env())[1].split("presets:")[0].splitlines()[1:]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in (line.split()[0] for line in listing):
            out[name] = median_of([*cli, "run", name, "--out", tmp], src_env())
    return out


def tier1() -> dict:
    """The Tier-1 wall time and summary line."""
    # a failing test still gives a wall time; the summary line says
    seconds, text = wall([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"], src_env(), check=False)
    return {"pure-python": {"wall_s": seconds, "summary": text.strip().splitlines()[-1]}}


def bytecode() -> dict:
    """Whether femtonet's modules had an up-to-date cached .pyc."""
    sources = sorted(f for f in os.listdir(os.path.join(SRC, "femtonet")) if f.endswith(".py"))
    cached = []
    for name in sources:
        path = os.path.join(SRC, "femtonet", name)
        pyc = importlib.util.cache_from_source(path)
        if os.path.exists(pyc) and os.path.getmtime(pyc) >= os.path.getmtime(path):
            cached.append(name)
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "cached_modules": len(cached), "modules": len(sources)}


def main() -> int:
    commit, tree = git("rev-parse", "HEAD"), src_tree()
    record = {
        "commit": commit,
        "dirty": tree != git("rev-parse", "HEAD:src"),
        "src_tree": tree,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "bytecode": bytecode(),
        "python_start_s": median_of([sys.executable, "-c", "pass"]),
        "import_numpy_s": median_of([sys.executable, "-c", "import numpy"]),
        "femtonet_run_s": femtonet_runs(),
        "tier1": tier1(),
        "perfbench": perfbench(),
    }
    name = f"BENCH_{tree[:7]}.json"
    with open(os.path.join(ROOT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
