#!/usr/bin/env python3
"""The spherecodes benchmark: end-to-end timings and a traced per-layer table.

    python3 perfbench/run.py --workload {verify_suite,lee_sweep,cli_readme}
        --seed N --seconds S --trace {0,1} [--out record.json]

Run from the repository root; the package is imported from ``src/``.  The
workloads are described in ``workloads.py``.  Every pass is checked against
the expected results and every failed operation is counted.

``--trace 0`` times the workload untraced, in this fresh process:

- ``setup_s``: importing the package and making the inputs, the median of
  this process and of SETUP_PROBES fresh ``setup_probe.py`` processes;
- ``cold_pass_s``: the first pass, which a CLI user pays on every invocation;
- ``wall_s``: the median warm pass; at least MIN_WARM warm passes run, and
  more while the run, cold pass included, is predicted to end within
  ``--seconds``;
- ``words_per_s``: codewords covered per pass (``workloads.covered_words``)
  over ``wall_s``;
- ``peak_rss_mb``: peak resident set size of this process.

``--trace 1`` wraps the package's layer entry points (``tracing.TARGETS``)
and prints the per-layer table of one traced pass of every workload, whatever
``--workload`` names, with each workload's traced pass time and tracing
overhead.  The full ``lee_floors`` criterion runs once, untraced so that its
sweep stays out of the kernel totals, and its time is reported next to its
60 s limit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also writes
the full record (machine facts, sample counts, failures) for ``compare.py``.
BLAS threads are capped at the number of usable cores; the harness starts no
threads of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = workloads.HERE.parent
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh set-up processes started per untraced run, besides this one
SETUP_PROBES = 4
#: warm passes per untraced run, at the least
MIN_WARM = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "wall_s": "s",
    "words_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = tracing.layer_units()
    for key in workloads.VERIFY_CRITERIA + ("lee_floors",):
        units[f"verify.{key}.busy_s"] = "s"
    for label in workloads.CLI_COMMANDS:
        units[f"cli.{label}.busy_s"] = "s"
    for name in workloads.WORKLOADS:
        units[f"trace.{name}.wall_s"] = "s"
        units[f"trace.{name}.overhead_s"] = "s"
    return units


class Tally:
    """Operations attempted and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, bad: list[str]) -> None:
        self.attempted += attempted
        self.failures += bad
        for msg in bad:
            print(f"FAILED: {msg}", file=sys.stderr)


def timed_pass(workload, pkg, inputs, reference, tally, span=None) -> float:
    t0 = time.perf_counter()
    outcome = workloads.run_pass(workload, pkg, inputs, span)
    dt = time.perf_counter() - t0
    tally.add(*workloads.check_pass(workload, inputs, outcome, reference))
    return dt


def probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def untraced(args, pkg, inputs, setup_s, reference, tally) -> dict:
    setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    cold = timed_pass(args.workload, pkg, inputs, reference, tally)
    warm: list[float] = []
    while len(warm) < MIN_WARM or cold + sum(warm) + statistics.median(warm) <= args.seconds:
        warm.append(timed_pass(args.workload, pkg, inputs, reference, tally))
    wall = statistics.median(warm)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "cold_pass_s": (cold, 1),
        "wall_s": (wall, len(warm)),
        "words_per_s": (workloads.covered_words(args.workload) / wall, len(warm)),
        "peak_rss_mb": (peak_kib / 1024.0, 1),
    }


def traced(args, pkg, reference, tally) -> tuple[dict, list[str]]:
    """The per-layer table of one traced pass of every workload, the tracing
    overhead on each, and the full lee_floors run against its time limit.

    The overhead is the time the tracer's wrappers spend outside the calls
    they wrap.  A traced pass minus an untraced one measures the same cost,
    but on a shared machine one pass differs from the next by more than this
    cost, so that difference would be mostly noise.
    """
    # untraced, so that its sweep stays out of the kernel totals
    t0 = time.perf_counter()
    floors = workloads.run_op(None, lambda: pkg["verify"].run_criteria(
        only=["lee_floors"], seed=args.seed))
    extra = {"verify.lee_floors.busy_s": (time.perf_counter() - t0, 1)}
    tally.add(1, workloads.check_lee_floors(floors))
    notes = []
    if not isinstance(floors, Exception):
        notes.append(f"lee_floors: {floors[0].status} in {floors[0].seconds:.2f} s "
                     f"against its {floors[0].time_limit:.0f} s limit")

    tracer = tracing.Tracer()
    for w in workloads.WORKLOADS:
        ref = reference if w == "cli_readme" else None
        own_before = tracer.own_s
        tracer.install(pkg)
        wall = timed_pass(w, pkg, workloads.make_inputs(w, args.seed), ref, tally, tracer.span)
        tracer.uninstall()
        overhead = tracer.own_s - own_before
        extra[f"trace.{w}.wall_s"] = (wall, 1)
        extra[f"trace.{w}.overhead_s"] = (overhead, 1)
        notes.append(f"tracing overhead on {w}: {overhead:.6f} s of a {wall:.3f} s traced pass")

    table = tracer.table()
    units = per_layer_units()
    missing = [name for name in units if name not in table and name not in extra]
    tally.add(0, [f"traced run recorded no {name}" for name in missing])
    measured = {name: (int(table.get(name, 0)) if unit == "count" else table.get(name, 0.0), 1)
                for name, unit in units.items()}
    measured.update(extra)
    return measured, notes


def cap_blas_threads() -> None:
    """Cap BLAS threads at the usable cores, for this process and the probes;
    must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        keep = cur.isdigit() and 0 < int(cur) < NPROC
        os.environ[var] = cur if keep else str(NPROC)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(args, pkg) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spherecodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": pkg["kernels"].backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record here")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    cap_blas_threads()
    t0 = time.perf_counter()
    try:
        pkg = workloads.load_package(ROOT)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: cannot load the package: {exc}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    needs_reference = args.trace or args.workload == "cli_readme"
    reference = workloads.load_reference() if needs_reference else None

    tally = Tally()
    if args.trace:
        measured, notes = traced(args, pkg, reference, tally)
        units = per_layer_units()
    else:
        measured, notes = untraced(args, pkg, inputs, setup_s, reference, tally), []
        units = END_TO_END_UNITS
    facts = machine_facts(args, pkg)
    failed = len(tally.failures)

    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, samples) in measured.items():
        print(f"{name:<48} {value:>18.6f} {units[name]:<6} n={samples}")
    for note in notes:
        print(f"# {note}")
    print(f"# error_rate {failed / tally.attempted:.6f} ({failed} of {tally.attempted} "
          "operations failed)")

    metrics = {name: {"value": value, "unit": units[name]}
               for name, (value, _) in measured.items()}
    if args.out:
        record = {"facts": facts, "correct": failed == 0, "attempted": tally.attempted,
                  "failed": failed, "failures": tally.failures, "notes": notes,
                  "metrics": {name: {"value": value, "unit": units[name], "samples": n}
                              for name, (value, n) in measured.items()}}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
