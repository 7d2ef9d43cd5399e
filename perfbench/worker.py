"""Runs one workload in a fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode setup|run|traced [--batches B] [--record]

`setup` exits right after set-up; `run` times every op with tracing off;
`traced` installs the span recorder before set-up and reports the
per-layer metrics.  In every mode a hostspeed.Sampler probes the host's
speed from process start to the last op, and the report gives set-up, op
and batch times at the reference speed next to their wall times.  The
last line of standard output is a JSON report.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
KERNEL_CALLS = 100_000


def import_femtonet():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "femtonet", "__init__.py")):
        sys.exit(f"worker: no femtonet package under {SRC}")
    sys.path.insert(0, SRC)
    import femtonet

    if os.path.dirname(os.path.dirname(os.path.abspath(femtonet.__file__))) != SRC:
        sys.exit(f"worker: femtonet imported from {femtonet.__file__}, not {SRC}")


def kernel_rates() -> dict:
    """Simulated Mcalls/s of every available DES kernel on bench_des's chains."""
    from femtonet import des

    path = os.path.join(ROOT, "benchmarks", "bench_des.py")
    spec = importlib.util.spec_from_file_location("bench_des", path)
    bench_des = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_des)
    rates: dict = {}
    for backend, kernel in des.kernel_backends().items():
        for name, chain in bench_des.CHAINS.items():
            t0 = time.perf_counter()
            kernel.run_loss_chain(42, KERNEL_CALLS, chain["rates"], chain["limits"],
                                  chain["srv"], 0, 0)
            rates.setdefault(backend, {})[name] = KERNEL_CALLS / (time.perf_counter() - t0) / 1e6
    return rates


def run_context() -> dict:
    """Where the numbers came from: commit, kernel, interpreter and host."""
    import numpy
    from femtonet import des

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "des_backend": des.BACKEND,
        "kernel_backends": sorted(des.kernel_backends()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def git_commit() -> str:
    """HEAD of a git checkout, read from .git; a plain source tree has none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((line.split()[0] for line in fh
                         if line.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "none (not a git checkout)"


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    with open(DIGESTS, encoding="utf-8") as fh:
        joined = json.load(fh).get(workload, {}).get(str(seed))
    if joined is None:
        return None
    return [joined[i:i + 16] for i in range(0, len(joined), 16)]


def main() -> int:
    sampler = hostspeed.Sampler()
    sampler.start()
    t_main = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--batches", type=int, default=None)
    parser.add_argument("--record", action="store_true",
                        help="skip the digest comparison (used to record digests)")
    args = parser.parse_args()

    import_femtonet()
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.mode == "traced":
        recorder = spans.SpanRecorder()
        recorder.install()
    batches = args.batches or workloads.batches_for(wl, args.seconds)
    prep, ops = wl.setup(args.seed, batches)
    t_ready = time.monotonic()
    setup_speed = sampler.speed(t_main, time.perf_counter())
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps({"ready": t_ready, "setup_speed": setup_speed}))
        return 0

    recorded = None if args.record else recorded_digests(args.workload, args.seed)
    # per op: (start, end of run, end of digest and checks)
    stamps, digests, errors = [], [], []
    ci_misses = ci_checks = 0
    for i, op in enumerate(ops):
        if recorder:
            recorder.op_id = i
        t0 = time.perf_counter()
        try:
            if recorder:
                with recorder.span("op"):
                    out = wl.run(prep, op)
            else:
                out = wl.run(prep, op)
            t1 = time.perf_counter()
            digest = wl.digest(out)
            wl.check(prep, op, out)
            if recorded is not None and i < len(recorded) and digest != recorded[i]:
                raise AssertionError(f"digest {digest} != recorded {recorded[i]}")
            if hasattr(wl, "ci_misses"):
                misses, checks = wl.ci_misses(out)
                ci_misses += misses
                ci_checks += checks
        except Exception as exc:  # a failed op is counted, and the run goes on
            t1 = time.perf_counter()
            digest = None
            errors.append(f"op {i} {op!r:.120}: {exc!r}")
        stamps.append((t0, t1, time.perf_counter()))
        digests.append(digest)
    sampler.stop()
    if recorder:
        recorder.op_id = None

    def batches(times):
        n = prep["batch_ops"]
        return [sum(times[b:b + n]) for b in range(0, len(times) - n + 1, n)]

    # an op's latency is its run; a batch also counts digests and checks
    latencies = [sampler.ref_seconds(t0, t1) for t0, t1, _ in stamps]
    batch_s = batches([sampler.ref_seconds(t0, t2) for t0, _, t2 in stamps])
    wall_latencies = [t1 - t0 for t0, t1, _ in stamps]
    wall_batch_s = batches([t2 - t0 for t0, _, t2 in stamps])

    report = {
        "ready": t_ready,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors[:5],
        "latencies_s": latencies,
        "batch_s": batch_s,
        "wall_latencies_s": wall_latencies,
        "wall_batch_s": wall_batch_s,
        "setup_speed": setup_speed,
        "run_speed": sampler.speed(stamps[0][0], stamps[-1][2]) if stamps else 1.0,
        "batch_ops": prep["batch_ops"],
        "digests": digests,
        "digest_check": ("skipped, no digests recorded for this seed; invariants checked"
                         if recorded is None
                         else f"{min(len(recorded), len(ops))} ops against recorded digests"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": run_context(),
    }
    if recorder:
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        kernel = kernel_rates() if args.workload == "des-oracle" else {}
        report["per_layer"] = spans.per_layer(recorder.spans, ci_misses, ci_checks, kernel)
        report["shares_ops"] = spans.module_shares(recorder.spans, "ops")
        report["shares_setup"] = spans.module_shares(recorder.spans, "setup")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
