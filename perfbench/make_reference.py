#!/usr/bin/env python3
"""Record the reference stdout of the cli_readme commands.

    python3 perfbench/make_reference.py

Runs every command once (the seeded ones once per CLI seed 0 .. CLI_SEEDS-1)
and writes ``perfbench/reference/cli_readme.json.gz``.  The file in the
repository was recorded at the commit that added the benchmark; rerun this
only when a change to the CLI output is intended.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json

import workloads


def main() -> int:
    pkg = workloads.load_package(workloads.HERE.parent)
    reference = {}
    for label, command in workloads.CLI_COMMANDS.items():
        seeds = range(workloads.CLI_SEEDS) if label in workloads.CLI_SEEDED else [0]
        for seed in seeds:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = pkg["cli"].main(command.split() + ["--seed", str(seed)])
            if code != 0:
                raise SystemExit(f"{label} --seed {seed} exited {code}")
            key = f"{label}@{seed}" if label in workloads.CLI_SEEDED else label
            reference[key] = out.getvalue()
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(workloads.REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps(reference, sort_keys=True).encode())
    print(f"wrote {len(reference)} outputs to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
