#!/usr/bin/env python3
"""Time the discrete-event kernel on three chain shapes.

Each chain is timed on two runs: one run_loss_chain call of `calls`
arrivals, and one simulate_des estimate of `calls` arrivals, whose
replications and warm-ups take one kernel call.  Each row gives the median
and the min-max of REPEATS timed calls, so that a short run (1000 calls
take about a millisecond) is not read from one sample.

    python3 benchmarks/bench_des.py [calls]
"""

import statistics
import sys
import time

from femtonet.des import LossChainSpec, run_loss_chain, simulate_des

CHAINS = {
    "erlang-2": dict(rates=[1.0], limits=[2], srv=[0.0, 1.0, 2.0]),
    "adaptive-156-state": dict(
        rates=[1.3, 0.45], limits=[128, 155],
        srv=[i * 0.0125 for i in range(156)]),
    "mbs-3-stream": dict(
        rates=[0.5, 0.7, 0.3], limits=[40, 44, 48],
        srv=[max(i - 12, 0) / 120.0 for i in range(49)]),
}
REPEATS = 5


def runs(chain, calls):
    """(label, call) of each timed run on `chain`."""
    spec = LossChainSpec(tuple(chain["rates"]), tuple(chain["limits"]), tuple(chain["srv"]),
                         hand_stream=len(chain["rates"]) - 1)
    return (("run_loss_chain", lambda: run_loss_chain(
                42, calls, chain["rates"], chain["limits"], chain["srv"], 0, 0)),
            ("simulate_des", lambda: simulate_des(spec, calls, seed=42)))


def main() -> int:
    calls = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    print(f"{calls:,} calls per chain and run; median and min-max of {REPEATS} calls\n")
    print(f"{'chain':24s} {'run':14s} {'ms':>9s} {'Mcalls/s':>9s} {'min-max Mcalls/s':>17s}")
    # numpy.random's first SeedSequence costs about 10 ms; keep it untimed
    simulate_des(LossChainSpec((1.0,), (2,), (0.0, 1.0, 2.0), hand_stream=0), 1)

    for name, chain in CHAINS.items():
        for label, run in runs(chain, calls):
            seconds = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                run()
                seconds.append(time.perf_counter() - t0)
            mid = statistics.median(seconds)
            spread = f"{calls / max(seconds) / 1e6:.2f}-{calls / min(seconds) / 1e6:.2f}"
            print(f"{name:24s} {label:14s} {mid * 1e3:9.3f} {calls / mid / 1e6:9.2f} "
                  f"{spread:>17s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
