"""Time one fresh process's set-up: import spherecodes and make a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken.  ``run.py`` starts it several times per run and
reports the median together with its own set-up.
"""

from __future__ import annotations

import sys
import time

import workloads


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    workloads.load_package(workloads.HERE.parent)
    workloads.make_inputs(workload, seed)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
