#!/usr/bin/env python3
"""Benchmark the compiled discrete-event kernel against the pure-Python twin.

Both backends share the same splitmix64 stream, so besides throughput this
also re-checks that their whole return tuples (counts, clocks, final chain
and RNG state) are bit-identical.  Each chain is timed twice per backend:
one run_loss_chain call of `calls` arrivals, and one simulate_des estimate
of `calls` arrivals, whose replications and warm-ups take one kernel call;
the script exits 1 unless every DesResult is bit-identical too.

    python3 benchmarks/bench_des.py [calls]
"""

import sys
import time

from femtonet import des
from femtonet.des import LossChainSpec, kernel_backends

CHAINS = {
    "erlang-2": dict(rates=[1.0], limits=[2], srv=[0.0, 1.0, 2.0]),
    "adaptive-156-state": dict(
        rates=[1.3, 0.45], limits=[128, 155],
        srv=[i * 0.0125 for i in range(156)]),
    "mbs-3-stream": dict(
        rates=[0.5, 0.7, 0.3], limits=[40, 44, 48],
        srv=[max(i - 12, 0) / 120.0 for i in range(49)]),
}


def run_kernel(kernel, chain, calls):
    return kernel.run_loss_chain(
        42, calls, chain["rates"], chain["limits"], chain["srv"], 0, 0)


def run_estimate(kernel, chain, calls):
    """simulate_des on `kernel`, as a string that spells out every field of
    the DesResult bit for bit (a float's repr round-trips exactly)."""
    spec = LossChainSpec(tuple(chain["rates"]), tuple(chain["limits"]), tuple(chain["srv"]),
                         hand_stream=len(chain["rates"]) - 1)
    saved, des._kernel = des._kernel, kernel
    try:
        res = des.simulate_des(spec, calls, seed=42)
    finally:
        des._kernel = saved
    return repr((res.p_block, res.p_drop, res.block_ci, res.drop_ci, res.per_stream,
                 res.elapsed, res.replications, res.state_time.tolist()))


def main() -> int:
    calls = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    backends = kernel_backends()
    print(f"backends: {', '.join(backends)}; {calls:,} calls per chain and run\n")
    print(f"{'chain':24s} {'run':14s} {'backend':12s} {'seconds':>9s} {'Mcalls/s':>9s}")
    # numpy.random's first SeedSequence costs about 10 ms; keep it untimed
    run_estimate(backends["pure-python"], CHAINS["erlang-2"], 1)

    for name, chain in CHAINS.items():
        for run, label in ((run_kernel, "run_loss_chain"), (run_estimate, "simulate_des")):
            reference = None
            for backend, kernel in backends.items():
                t0 = time.perf_counter()
                out = run(kernel, chain, calls)
                dt = time.perf_counter() - t0
                print(f"{name:24s} {label:14s} {backend:12s} {dt:9.3f} {calls / dt / 1e6:9.2f}")
                if reference is None:
                    reference = out
                elif out != reference:
                    print(f"{name}: {label} differs between backends", file=sys.stderr)
                    return 1
                else:
                    print(f"{name:24s} {label:14s} bit-identical on both backends")
    return 0


if __name__ == "__main__":
    sys.exit(main())
