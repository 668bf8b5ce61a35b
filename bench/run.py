"""Benchmark for the thompsonf toolkit.

    python3 bench/run.py --workload {ball,pipeline,queries} --seed N \
        --seconds S --trace {0,1} [--smoke]

Runs from the root of a source checkout and benchmarks the library in
its ``src`` directory.  One workload runs in this fresh process as a
closed loop with a single client: operation i+1 starts when operation i
has returned.  Operations repeat until ``--seconds`` of wall time have
passed and the last measurement window is whole.  Each output is
checked right after its call, outside the timed region.  Times are taken
from the faster half of the windows (see calm_latencies) after scaling
each window to a reference machine speed (see reference_seconds and
scaled).  setup_s is the median of 11 fresh-interpreter imports of
thompsonf and thompsonf.cli, taken between windows across the run and
scaled the same way.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, and
reports the per-layer metrics plus the tracing overhead; the spans are
written to .bench_out/spans-<workload>.{bin,json}.  ``--smoke`` shrinks
the ball and pipeline sizes for a quick shape check.

Text lines go to stdout first (run context, metrics with units, error
rate); the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status 0 on a completed run, also
when some answers were wrong; 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from reference import REFERENCE_S, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 11
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import reference; "
    "r = reference.reference_seconds(); t = time.perf_counter(); "
    "import thompsonf, thompsonf.cli; "
    "print((time.perf_counter() - t) * reference.REFERENCE_S / r)"
)


def scaled_import_seconds() -> float:
    """Time to import thompsonf and thompsonf.cli in a fresh interpreter,
    scaled by the reference loop timed just before in that interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout)


def git_sha() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload, seconds: float, setup_samples=None, tracer=None):
    """Closed loop for `seconds` of wall time and a whole last window.

    Each operation is checked right after its timed call, with the tracer,
    if any, paused.  The reference loop is timed before each window and
    after the last one.  When setup_samples is a list, import times,
    scaled like the windows, are measured between windows, spread over the
    run, and appended to it.  Returns (windows, references, attempted,
    failures): the latencies grouped by measurement window, the reference
    times around them, one attempt per CLI call, and the problems found.
    """
    clock = time.perf_counter
    windows, references, failures = [], [], []
    attempted, i = 0, 0
    start = clock()
    next_probe = 0.0
    paused = tracer.paused if tracer else contextlib.nullcontext
    while clock() - start < seconds or i % workload.window:
        if i % workload.window == 0:
            if setup_samples is not None and clock() - start >= next_probe:
                setup_samples.append(scaled_import_seconds())
                next_probe += seconds / SETUP_SAMPLES
            with paused():
                references.append(reference_seconds())
            windows.append([])
        job = workload.job(i)
        t0 = clock()
        outcome = workload.run(job)
        windows[-1].append(clock() - t0)
        with paused():
            problems = workload.check(i, job, outcome)
        for problem in problems:
            attempted += 1
            if problem:
                failures.append(problem)
        i += 1
    with paused():
        references.append(reference_seconds())
    return windows, references, attempted, failures


def scaled(windows, references):
    """Each window's latencies times REFERENCE_S over the mean of the two
    reference times around the window."""
    return [
        [latency * 2 * REFERENCE_S / (before + after) for latency in window]
        for window, before, after in zip(windows, references, references[1:])
    ]


def calm_latencies(windows):
    """Latencies of the faster half of the windows, rounded up.

    Every window does the same work, so the slower half is taken to be
    slowed by load on the machine that the reference times did not catch.
    """
    kept = sorted(windows, key=sum)[: (len(windows) + 1) // 2]
    return [latency for window in kept for latency in window]


def throughput(workload, latencies) -> float:
    return workload.work_per_op * len(latencies) / sum(latencies)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ball", "pipeline", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "thompsonf" / "__init__.py").is_file():
        print(f"error: no thompsonf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thompsonf

    if Path(thompsonf.__file__).resolve().parent != SRC / "thompsonf":
        print(f"error: imported thompsonf from {thompsonf.__file__}", file=sys.stderr)
        return 2
    import workloads

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }
    print("# run " + json.dumps(context))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, Path(workdir))
        if args.trace:
            result = traced_run(workload, args, context)
        else:
            result = untraced_run(workload, args.seconds)
    print(json.dumps(result))
    return 0


def untraced_run(workload, seconds: float) -> dict:
    setup_samples = []
    windows, references, attempted, failures = run_pass(workload, seconds, setup_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(scaled_import_seconds())
    calm = calm_latencies(scaled(windows, references))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_per_s": (throughput(workload, calm), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(calm), "ms"),
        "latency_p99_ms": (1e3 * percentile(calm, 99), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = calm_latencies(windows)
    print(f"# {sum(map(len, windows))} operations in {len(windows)} windows; "
          f"metrics from the faster {len(calm)} operations")
    print(f"# unscaled throughput_per_s {throughput(workload, raw):.6g} 1/s, "
          f"latency_p50_ms {1e3 * statistics.median(raw):.6g} ms; reference loop "
          f"{min(references):.4g}-{max(references):.4g} s, median "
          f"{statistics.median(references):.4g} s, scaled to {REFERENCE_S} s")
    return report(metrics, attempted, failures)


def traced_run(workload, args, context: dict) -> dict:
    half = args.seconds / 2
    windows, references, attempted, failures = run_pass(workload, half)
    untraced = throughput(workload, calm_latencies(scaled(windows, references)))
    bytes_per_element = workload.bytes_per_element() if workload.name == "ball" else 0.0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        windows, references, more_attempted, more_failures = run_pass(
            workload, half, tracer=tracer
        )
    finally:
        tracer.uninstall()
    traced = throughput(workload, calm_latencies(scaled(windows, references)))
    attempted += more_attempted
    failures += more_failures

    layer = tracing.layer_metrics(tracer.totals(), sum(map(len, windows)))
    layer["cayley.bytes_per_element"] = bytes_per_element
    layer["trace.overhead_per_s"] = traced - untraced
    tracer.write(OUT / f"spans-{args.workload}", context)
    print(f"# traced {sum(map(len, windows))} operations, {len(tracer.start)} spans; "
          f"throughput untraced {untraced:.4g}/s, traced {traced:.4g}/s (scaled)")
    return report({name: (value, tracing.unit_of(name)) for name, value in layer.items()},
                  attempted, failures)


def report(metrics: dict, attempted: int, failures: list) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# error_rate = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of {attempted} attempted)")
    for problem in failures[:5]:
        print(f"# FAILED {problem}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
