"""Fold the result files in bench/out into one BENCH_<n>.json.

    python3 bench/summarize.py bench/BENCH_1.json

For each workload: the median, first and third quartile of every end-to-end
metric over its untraced runs (one per seed), normalized and raw wall-clock,
and the per-layer metrics of its traced runs (median over seeds).  Each run's
environment record is kept.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "runs": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(OUT.glob("*-trace[01].json"))]
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        entry = summary[workload] = {"failed": sum(r["failed"] for r in mine),
                                     "attempted": sum(r["attempted"] for r in mine)}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            group = [r for r in mine if r["trace"] == trace]
            if not group:
                continue
            entry[key] = {name: {"unit": m["unit"],
                                 **spread([r["metrics"][name]["value"] for r in group])}
                          for name, m in group[0]["metrics"].items()}
            if trace == 0:
                entry["raw_wall_clock"] = {name: spread([r["raw"][name] for r in group])
                                           for name in group[0]["raw"]}
            entry[f"seeds_trace{trace}"] = [r["seed"] for r in group]
        entry["environments"] = [r["environment"] for r in mine]
    Path(sys.argv[1]).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
