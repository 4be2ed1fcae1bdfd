"""Record the outputs every workload checks against into bench/pins.json.

    python3 bench/pin.py

This runs every pool variant of every workload once and stores what the
library produced.  The pins define correct behaviour, so regenerate them
only for a change that is meant to alter outputs, and say so in its review.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    pins = {"pool": workloads.POOL}
    workloads.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT) as tmp:
        for workload in workloads.WORKLOADS.values():
            run = workloads.Run(pins, record=True)
            workload.run_round(workload.prepare(range(workloads.POOL), Path(tmp)), run)
            if run.failed:
                print("\n".join(run.failures), file=sys.stderr)
                return 1
            print(f"{workload.name}: {len(pins[workload.name])} pins")
    workloads.PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
