#!/usr/bin/env python3
"""Benchmark the compiled discrete-event kernel against the pure-Python twin.

Both backends share the same splitmix64 stream, so besides throughput this
also re-checks that their whole return tuples (counts, clocks, final chain
and RNG state) are bit-identical.

    python3 benchmarks/bench_des.py [calls]
"""

import sys
import time

from femtonet.des import kernel_backends

CHAINS = {
    "erlang-2": dict(rates=[1.0], limits=[2], srv=[0.0, 1.0, 2.0]),
    "adaptive-156-state": dict(
        rates=[1.3, 0.45], limits=[128, 155],
        srv=[i * 0.0125 for i in range(156)]),
    "mbs-3-stream": dict(
        rates=[0.5, 0.7, 0.3], limits=[40, 44, 48],
        srv=[max(i - 12, 0) / 120.0 for i in range(49)]),
}


def main() -> int:
    calls = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    backends = kernel_backends()
    print(f"backends: {', '.join(backends)}; {calls:,} calls per chain\n")
    print(f"{'chain':24s} {'backend':12s} {'seconds':>9s} {'Mcalls/s':>9s}")

    for name, chain in CHAINS.items():
        reference = None
        for label, kernel in backends.items():
            t0 = time.perf_counter()
            out = kernel.run_loss_chain(
                42, calls, chain["rates"], chain["limits"], chain["srv"], 0, 0)
            dt = time.perf_counter() - t0
            print(f"{name:24s} {label:12s} {dt:9.3f} {calls / dt / 1e6:9.2f}")
            if reference is None:
                reference = out
            elif out != reference:
                print(f"{name}: backends disagree", file=sys.stderr)
                return 1
            else:
                print(f"{name:24s} bit-identical return tuples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
