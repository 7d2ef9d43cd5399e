#!/usr/bin/env python3
"""Self-tests of the benchmark, not of femtonet.

    python3 perfbench/selftest.py

- Op inputs are a pure function of (workload, seed): the same seed gives the
  same inputs, another seed gives other inputs.
- Two traced runs of one seed give the same digests, the same number of ops
  and the same counts (every per-layer metric with unit `count`), and their
  digests match the ones recorded in digests.json.
- Another seed gives other digests.
Each check uses one batch per workload, so the whole file runs in about a
minute.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def check_inputs_are_pure() -> None:
    for name, wl in workloads.WORKLOADS.items():
        _, first = wl.setup(run.DEFAULT_SEED, 1)
        _, again = wl.setup(run.DEFAULT_SEED, 1)
        _, other = wl.setup(run.HELDOUT_SEED, 1)
        assert first == again, f"{name}: one seed gave two different op lists"
        assert first != other, f"{name}: two seeds gave the same op list"
        print(f"ok  {name}: {len(first)} op inputs depend on the seed alone")


def check_runs_repeat(seconds: float) -> None:
    spec = run.load_spec()
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for name in workloads.WORKLOADS:
        reps = [run.spawn(name, run.DEFAULT_SEED, seconds, "traced", batches=1)[1]
                for _ in range(2)]
        for rep in reps:
            assert rep["failed"] == 0, f"{name}: {rep['errors']}"
            assert not rep["digest_check"].startswith("skipped"), f"{name}: no recorded digests"
        a, b = reps
        assert a["attempted"] == b["attempted"], f"{name}: op counts differ"
        assert a["digests"] == b["digests"], f"{name}: digests differ between runs"
        differing = [c for c in counts if a["per_layer"][c] != b["per_layer"][c]]
        assert not differing, f"{name}: counts differ between runs: {differing}"
        other = run.spawn(name, run.HELDOUT_SEED, seconds, "run", batches=1)[1]
        assert other["failed"] == 0, f"{name}: {other['errors']}"
        assert other["digests"] != a["digests"], f"{name}: two seeds gave the same digests"
        print(f"ok  {name}: {a['attempted']} ops, digests and "
              f"{sum(1 for c in counts if a['per_layer'][c])} nonzero counts repeat")


def main() -> int:
    check_inputs_are_pure()
    check_runs_repeat(run.load_spec()["run_seconds"])
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
