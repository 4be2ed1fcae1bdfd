"""Time one workload's set-up in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed>

The clock starts before ``symsearch`` or any benchmark module is imported
and stops when the workload's inputs are built: importing the library,
building the registry, spaces and specs, and whatever else the workload's
``setup`` does.  Prints the seconds and then the nanoseconds the host
takes for ``workloads.reference`` right afterwards (median of five).
"""

import sys
import time

START = time.perf_counter()


def main() -> int:
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), workloads.OUT / "probe")
    seconds = time.perf_counter() - START
    reference_ns = sorted(workloads.reference_ns() for _ in range(5))[2]
    print(seconds, reference_ns)
    return 0


if __name__ == "__main__":
    sys.exit(main())
