#!/usr/bin/env python3
"""Compare two benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records and NEW/BASE.  Refuses (exit 2) to compare
records of different trace modes, untraced records of different workloads,
or records whose kernel backends differ.  When both records are traced runs of the same source at the same
seed, every computed count (``tracing.EXACT_COUNTS``) must be identical, and
any difference fails the comparison (exit 1).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    # a traced run covers every workload, whatever --workload named
    keys = ("trace", "backend") if base["facts"]["trace"] else ("workload", "trace", "backend")
    for key in keys:
        if base["facts"][key] != new["facts"][key]:
            print(f"refusing to compare: {key} {base['facts'][key]!r} != "
                  f"{new['facts'][key]!r}", file=sys.stderr)
            return 2
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:<48} {b['value']:>16.6g} {'missing':>16}")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:<48} {b['value']:>16.6g} {n['value']:>16.6g} {ratio:>8.3f}x {b['unit']}")

    same_run = all(base["facts"][k] == new["facts"][k] for k in ("source_sha256", "seed"))
    if not (base["facts"]["trace"] and same_run):
        return 0
    drift = [name for name, b in base["metrics"].items()
             if name.rsplit(".", 1)[-1] in tracing.EXACT_COUNTS
             and new["metrics"].get(name, {}).get("value") != b["value"]]
    for name in drift:
        print(f"COUNT DRIFT: {name} differs between two runs of one source and seed",
              file=sys.stderr)
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main())
