"""Run one workload of the symsearch benchmark and print its metrics.

    python3 bench/run.py --workload typed-space --seed 0 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/``.  Each
run is one process and one closed loop: a single caller, each operation
starting when the previous one returned.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced rounds with traced rounds (every round repeats the same
work) and reports the per-layer metrics; its spans go to
``bench/out/<workload>-seed<seed>.spans.jsonl.gz``.  Either way every output is
checked, the full result with an environment record goes to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 9

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_us_p50", "us", "lower"),
    ("op_us_p90", "us", "lower"),
    ("call_ms_p50", "ms", "lower"),
    ("call_ms_p90", "ms", "lower"),
]


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of the values."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_commit": commit,
        "loadavg_start": loadavg(),
    }


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return None


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """(raw, normalized) set-up seconds of one fresh interpreter, timed from
    its first line to ready inputs (see setup_probe.py)."""
    from workloads import Run

    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    seconds, reference_ns = (float(x) for x in done.stdout.split())
    return seconds, seconds * Run.REFERENCE_NS / reference_ns


def latency_metrics(op_ns, call_ns, ops: int, job_ns: float) -> dict:
    return {
        "ops_per_s": ops / (job_ns / 1e9),
        "op_us_p50": percentile(op_ns, 0.5) / 1e3,
        "op_us_p90": percentile(op_ns, 0.9) / 1e3,
        "call_ms_p50": percentile(call_ns, 0.5) / 1e6,
        "call_ms_p90": percentile(call_ns, 0.9) / 1e6,
    }


def warm_up(workload, pins, seed: int, tmp: Path):
    """One checked, untimed round on a single variant, so first-call costs
    stay out of the timed rounds."""
    from workloads import Run, pool_indices

    warm = Run(pins)
    workload.run_round(workload.prepare(pool_indices(seed, 1), tmp), warm)
    return warm


def measure(workload, inputs, pins, seconds: float, seed: int, tmp: Path):
    """The untraced run: end-to-end metrics (normalized to the reference
    host speed), the raw ones, and sample counts."""
    from workloads import Run

    probes = [probe_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    warm = warm_up(workload, pins, seed, tmp)
    # Before the timed loop, whose sample lists grow with throughput.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run = Run(pins, normalize=True)
    deadline = time.perf_counter() + seconds
    while True:
        workload.run_round(inputs, run)
        if time.perf_counter() >= deadline:
            break
    run.close_block()
    values = {"setup_s": statistics.median(p[1] for p in probes), "peak_rss_mb": peak_rss_mb,
              **latency_metrics(run.norm_op_ns, run.norm_call_ns, run.ops, run.norm_job_ns)}
    raw = {"setup_s": statistics.median(p[0] for p in probes), "peak_rss_mb": peak_rss_mb,
           **latency_metrics(run.op_ns, run.call_ns, run.ops, run.job_ns),
           "reference_ms": statistics.median(run.reference_ns) / 1e6}
    samples = {"setup_s": SETUP_PROBES, "peak_rss_mb": 1,
               "ops_per_s": len(run.reference_ns) - 1,
               "op_us_p50": len(run.op_ns), "op_us_p90": len(run.op_ns),
               "call_ms_p50": len(run.call_ns), "call_ms_p90": len(run.call_ns)}
    return values, raw, samples, [warm, run]


def measure_traced(workload, inputs, pins, seconds: float, seed: int, tmp: Path):
    """The traced run: per-layer metrics from rounds that repeat the same
    work, each traced round preceded by an untraced one."""
    from tracer import Tracer
    from workloads import Run

    tracer = Tracer()
    warm = warm_up(workload, pins, seed, tmp)
    plain, traced = Run(pins), Run(pins, tracer)
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        workload.run_round(inputs, plain)
        tracer.install()
        try:
            if first:
                with tracer.traced("setup"):
                    traced_inputs = workload.setup(seed, tmp)
            with tracer.traced("run"):
                workload.run_round(traced_inputs, traced)
        finally:
            tracer.uninstall()
        tracer.keep_spans = first = False
        if time.perf_counter() >= deadline:
            break
    tracer.write_spans(OUT / f"{workload.name}-seed{seed}.spans.jsonl.gz")
    values = tracer.metrics(traced.job_ns / plain.job_ns)
    samples = {"trials": tracer.trial, "spans_written": len(tracer.spans),
               "patched": len(tracer.patched), "missing": tracer.missing}
    return values, {}, samples, [warm, plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    try:
        import tracer
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    pins = workloads.load_pins()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs = workload.setup(args.seed, Path(tmp))
        if args.trace:
            values, raw, samples, runs = measure_traced(workload, inputs, pins, args.seconds,
                                                   args.seed, Path(tmp))
            specs = tracer.metric_specs()
        else:
            values, raw, samples, runs = measure(workload, inputs, pins, args.seconds,
                                                 args.seed, Path(tmp))
            specs = END_TO_END
    env["loadavg_end"] = loadavg()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result, "raw": raw, "samples": samples,
              "failures": [note for r in runs for note in r.failures],
              "environment": env}
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    for name, unit, _ in specs:
        count = samples.get(name)
        suffix = f"  (n={count})" if isinstance(count, int) else ""
        print(f"{workload.name:14s} {name:34s} {values[name]:14.4f} {unit}{suffix}")
    for name, value in raw.items():
        print(f"{workload.name:14s} {'raw wall-clock ' + name:34s} {value:14.4f}")
    for note in detail["failures"]:
        print(f"FAILED {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
