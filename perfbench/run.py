#!/usr/bin/env python3
"""Benchmark of superpos: one closed-loop client, one process, seeded inputs.

    python3 perfbench/run.py --workload measure-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; superpos is imported from its
``src`` directory. One client sends the next item only after the previous
one completes. The timed phase runs the whole cycles of the workload that
take ``--seconds`` at the reference speed on the seed commit, so a seed and
``--seconds`` fix every input of a run; times are scaled to a reference
machine speed measured between items; all outputs are then checked against
their references. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs the same items untraced and then traced, prints the per-layer metrics
and the tracing overhead, and writes the spans to ``.perfbench-out/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 4          # extra fresh-process set-ups; setup_s is the median of 1 + this
PROBE_TIMEOUT_S = 120
MIN_ITEMS = 100           # so that at least ten latencies lie beyond the p90
MAX_DETAILS = 20          # failures printed with their detail
SETUP_REFERENCE_REPEATS = 5
# reference_s() on the 2-core shared machine the benchmark was defined on
# (Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31, one thread, typical load);
# timings are scaled to this speed
REFERENCE_S = 0.002

WORKLOADS = ("measure-mix", "conversion-ladder", "qubit-landscape", "game-sim")

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_superpos():
    """Import superpos from this checkout's src directory, and nowhere else."""
    package = SRC / "superpos"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no superpos source at {package}")
    sys.path.insert(0, str(SRC))
    import superpos
    if Path(superpos.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported superpos from {superpos.__file__}, not {package}")
    return superpos


def reference_s(repeats: int = 1) -> float:
    """Machine speed right now: time of a fixed ~2 ms kernel of small dense linear
    algebra and Python loops, the kind of work superpos does (median of repeats).
    The kernel is the benchmark's own code, so no change to superpos moves it."""
    import numpy as np
    a = np.arange(16).reshape(4, 4) / 7.0 + 1j * np.eye(4)
    m = a @ a.conj().T + 4 * np.eye(4)
    x = np.ones(4)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(12):
            np.linalg.eigvalsh(m)
            np.linalg.cholesky(m)
            inv = np.linalg.inv(m)
            prods = [inv @ m for _ in range(4)]
            hess = [[np.sum(prods[i] * prods[j].T).real for j in range(4)] for i in range(4)]
            np.linalg.solve(np.array(hess) + np.eye(4), x)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def set_up(name: str, seed: int):
    """Import, seeded input generation and one warm-up item.

    Returns the workload and the set-up time scaled to the reference speed.
    """
    start = time.perf_counter()
    load_superpos()
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    wl.run(wl.cycle(0)[0])
    elapsed = time.perf_counter() - start
    return wl, elapsed * REFERENCE_S / reference_s(SETUP_REFERENCE_REPEATS)


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter at reference speed, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_slots(wl, slots, tracer=None, first_id: int = 0):
    """Run items one after the other; returns [(item id, slot, outcome)] and latencies."""
    items, latencies = [], []
    for i, slot in enumerate(slots, start=first_id):
        if tracer is None:
            start = time.perf_counter()
            outcome = wl.run(slot)
            latencies.append(time.perf_counter() - start)
        else:
            with tracer.item(i):
                start = time.perf_counter()
                outcome = wl.run(slot)
                latencies.append(time.perf_counter() - start)
        items.append((i, slot, outcome))
    return items, latencies


def cycle_count(wl, seconds: float) -> int:
    """Whole cycles of a timed run: those that take seconds at the workload's
    nominal cycle time, and at least MIN_ITEMS items.

    The count depends on the workload and seconds alone, never on the speed of
    the machine or of the code, so the same seed runs the same items, and the
    attempted and failed operations of a run repeat exactly.
    """
    return max(math.ceil(MIN_ITEMS / wl.slots_per_cycle), round(seconds / wl.nominal_cycle_s))


def timed_phase(wl, seconds: float):
    """The cycle_count() cycles of the workload, one item after the other.

    The reference kernel runs before the first item and after every item,
    outside the timed region; each latency is scaled by REFERENCE_S over the
    mean of the reference times just before and just after it. Returns the
    items, the scaled latencies of each cycle and the unscaled item time.
    """
    items, cycles, spent = [], [], 0.0
    before = reference_s()
    for k in range(cycle_count(wl, seconds)):
        scaled = []
        for slot in wl.cycle(k):
            start = time.perf_counter()
            outcome = wl.run(slot)
            elapsed = time.perf_counter() - start
            after = reference_s()
            scaled.append(elapsed * 2 * REFERENCE_S / (before + after))
            before = after
            spent += elapsed
            items.append((len(items), slot, outcome))
        cycles.append(scaled)
    return items, cycles, spent


def check(wl, items):
    import workloads
    log = workloads.CheckLog()
    for _, slot, outcome in items:
        wl.classify(slot, outcome)
    wl.check(items, log)
    return log


def end_to_end(cycles, setup_s: float) -> dict:
    """Timing metrics at the reference speed, from the scaled latencies.

    Every cycle holds the same mix of inputs, so each gives one sample of the
    throughput, and the run reports their median; the latency percentiles
    pool all cycles, so that at least ten latencies lie beyond the p90.
    """
    pooled = [t for lat in cycles for t in lat]
    return {
        "setup_s": setup_s,
        "items_per_s": statistics.median(len(lat) / sum(lat) for lat in cycles),
        "item_p50_ms": 1e3 * statistics.median(pooled),
        "item_p90_ms": 1e3 * statistics.quantiles(pooled, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_run(wl, seconds: float):
    """Each cycle untraced and traced, in alternating order; the ladder then adds
    its traced probe item.

    Both runs of a cycle meet the same machine conditions, and alternating
    which runs first cancels order effects, so the ratio of their throughputs
    is the tracing overhead. Returns the untraced items plus the probe, the
    tracer, both sets of latencies and whether both runs gave identical outputs.
    """
    import spans
    tracer = spans.Tracer()
    items, traced, plain, timed = [], [], [], []
    for k in range(max(1, round(seconds / 2 / wl.nominal_cycle_s))):
        for with_tracer in ((False, True) if k % 2 == 0 else (True, False)):
            slots = wl.cycle(k)
            if not with_tracer:
                more, lat = run_slots(wl, slots, first_id=len(items))
                items += more
                plain += lat
                continue
            tracer.install()
            try:
                more, lat = run_slots(wl, slots, tracer, first_id=len(traced))
            finally:
                tracer.uninstall()
            traced += more
            timed += lat
    identical = all(a[2].fingerprint() == b[2].fingerprint() for a, b in zip(items, traced))
    probe = getattr(wl, "probe", None)
    if probe is not None:
        slot = probe()
        tracer.install()
        try:
            items += run_slots(wl, [slot], tracer, first_id=len(items))[0]
        finally:
            tracer.uninstall()
    return items, tracer, plain, timed, identical


def layer_metrics(wl, items, tracer, plain, timed, seed: int) -> dict:
    import spans
    labels = {i: outcome.labels for i, _, outcome in items}
    phase = set(range(len(plain)))
    metrics = spans.layer_metrics(tracer.spans, labels, phase)
    metrics["trace.items_per_s"] = len(timed) / sum(timed)
    metrics["trace.untraced_items_per_s"] = len(plain) / sum(plain)
    metrics["trace.overhead"] = metrics["trace.untraced_items_per_s"] / metrics["trace.items_per_s"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl"
    tracer.write(path)
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def settings(args) -> dict:
    import hashlib
    import platform
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "superpos").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "client": "closed loop, 1 client, 1 process",
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": commit(), "superpos_sha256": digest.hexdigest()[:16],
    }


def report(args, items, log, metrics: dict, units: dict, shares: dict) -> dict:
    print("# settings " + json.dumps(settings(args)))
    print("# input shares " + json.dumps(shares))
    print(f"# {len(items)} items, {log.attempted} operations, {len(log.failures)} failed")
    causes: dict = {}
    for cause, _ in log.failures:
        causes[cause] = causes.get(cause, 0) + 1
    for cause, count in sorted(causes.items(), key=lambda kv: -kv[1]):
        print(f"#   failed x{count}: {cause}")
    for cause, detail in log.failures[:MAX_DETAILS]:
        print(f"#     {cause}: {detail}")
    for problem in log.broken:
        print(f"# BROKEN RUN: {problem}")
    for name, value in metrics.items():
        print(f"{name:56s} {value:14.6g} {units[name]}")
    return {"correct": not log.broken, "attempted": max(log.attempted, 1), "failed": len(log.failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}


def run_one(args) -> dict:
    wl, own_setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        return {"setup_s": own_setup}
    if args.trace:
        items, tracer, plain, timed, identical = trace_run(wl, args.seconds)
    else:
        setup_s = statistics.median([own_setup] + [setup_probe(args.workload, args.seed)
                                                   for _ in range(SETUP_PROBES)])
        items, cycles, spent = timed_phase(wl, args.seconds)
        print(f"# {len(cycles)} cycles, {spent:.2f} s of item time, {len(items) / spent:.6g} items/s unscaled, "
              f"{len(items) / sum(map(sum, cycles)):.6g} at reference speed ({1e3 * REFERENCE_S:g} ms)")
        identical = True
    log = check(wl, items)
    if not identical:
        log.broken.append("the traced run gave other outputs than the untraced run")
    if args.trace:
        import spans
        metrics = layer_metrics(wl, items, tracer, plain, timed, args.seed)
        units = {name: spans.unit(name) for name in metrics}
    else:
        metrics, units = end_to_end(cycles, setup_s), END_TO_END_UNITS
    return report(args, items, log, metrics, units, wl.shares(items))


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(f"## {name}\n{proc.stdout}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: workload {name} failed")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # single-threaded BLAS: the matrices are at most 8x8 and the client is one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
