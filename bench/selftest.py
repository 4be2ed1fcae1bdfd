"""Self-test of the benchmark: smoke runs, tampered pins, repeatable counts.

    python3 bench/selftest.py [--seed N]

1. Smoke: every workload runs untraced and traced with a tiny budget.  Each
   run must report zero failed operations and exactly the metrics, with the
   units, that BENCHMARK.json lists.
2. Tampered pins: one pinned output of each workload is flipped, and the
   round that checks it must report a failure.
3. Repeatable counts: a second traced run of each workload, with a longer
   budget, must repeat every count and ratio of the first one exactly.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCHMARK = workloads.ROOT / "BENCHMARK.json"


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(workloads.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def is_count(name: str, unit: str) -> bool:
    """Counts and ratios of counts; these must repeat exactly."""
    return unit == "count" or (unit == "ratio" and not name.endswith("_share")
                               and name != "trace.overhead_ratio")


def flip(value):
    if isinstance(value, list):
        return [flip(value[0]), *value[1:]]
    return ("1" if value[0] == "0" else "0") + value[1:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
                1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []

    for name in declared["workloads"]:
        name = name["name"]
        traced = {}
        for trace, seconds in ((0, 0.2), (1, 0.2), (1, 1.0)):
            result = bench_run(name, args.seed, seconds, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            if units != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if trace:
                traced[seconds] = {k: v["value"] for k, v in result["metrics"].items()
                                   if is_count(k, v["unit"])}
        first, second = traced.values()
        for metric in first:
            if first[metric] != second[metric]:
                problems.append(f"{name}: {metric} did not repeat "
                                f"({first[metric]!r} then {second[metric]!r})")
        print(f"{name}: smoke and repeatable counts checked")

    pins = workloads.load_pins()
    workloads.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT) as tmp:
        for workload in workloads.WORKLOADS.values():
            inputs = workload.setup(args.seed, Path(tmp))
            observed = {}
            workload.run_round(inputs, workloads.Run(observed, record=True))
            key = next(iter(observed[workload.name]))
            tampered = json.loads(json.dumps(pins))
            tampered[workload.name][key] = flip(tampered[workload.name][key])
            run = workloads.Run(tampered)
            workload.run_round(inputs, run)
            if run.failed < 1:
                problems.append(f"{workload.name}: tampered pin {key!r} went unnoticed")
            print(f"{workload.name}: tampered pin {key!r} -> {run.failed} of "
                  f"{run.attempted} operations failed")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
