"""The three benchmark workloads: inputs from a seed, one pass, and its gate.

Every workload is a closed loop with one client: a pass is a fixed list of
operations on the package's public functions, run one after the other, and
the next pass starts only when the previous one has returned.

- ``verify_suite``: ``verify.run_criteria(seed=...)``, one call per
  criterion, over every criterion but ``lee_floors`` (13 results).  What
  users run to trust the package; the greedy Gilbert scans and the
  ball-count DP do most of the work.
- ``lee_sweep``: ``codes.lee_bch(p, t).min_weights()`` for every Lee-BCH code
  with p in {5, 7, 11, 13} and at most 2e7 codewords (13 codes, 26,652,281
  codewords).  Nearly all time is the exhaustive codeword sweep, so a sweep
  change shows here and a greedy change does not.
- ``cli_readme``: ``cli.main(argv)`` in-process for the six README commands
  other than ``verify`` plus two heavier ones.  The only workload where the
  float pairwise scan, ``GF(p^k)`` tables, bounds curves and the saddle
  solver carry a visible share.  Every traced run includes it, so those
  layers are in every per-layer table, but ``BENCHMARK.json`` does not time
  it end to end: the two other workloads need at least four 8-15 s passes
  per run, which leaves no room in the benchmark's time budget for a third.

This module imports nothing outside the standard library at import time, so
the package import can be timed as part of set-up.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import json
import random
import re
import sys
import traceback
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify_suite", "lee_sweep", "cli_readme")

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "cli_readme.json.gz"

#: verify results expected at every seed; region_demo_window is the documented
#: discrepancy the suite reports as KNOWN-FAIL
VERIFY_EXPECTED = {
    "ball_oracle": "PASS",
    "saddle": "PASS",
    "dominance": "PASS",
    "corollary": "PASS",
    "region_demo_residual": "PASS",
    "region_demo_window": "KNOWN-FAIL",
    "region_demo_dominance": "PASS",
    "primality": "PASS",
    "gilbert": "PASS",
    "concat_pipeline": "PASS",
    "yaglom_expansion": "PASS",
    "envelope_figure": "PASS",
    "theta_defect": "PASS",
}
VERIFY_CRITERIA = (
    "ball_oracle", "saddle", "dominance", "corollary", "region_demo", "primality",
    "gilbert", "concat_pipeline", "yaglom_expansion", "envelope_figure", "theta_defect",
)

#: exact (min Lee, min Euclid) weights of every swept Lee-BCH code, keyed (p, t)
LEE_EXPECTED = {
    (5, 1): (2, 2), (5, 2): (4, 4), (5, 3): (6, 10),
    (7, 1): (2, 2), (7, 2): (4, 4), (7, 3): (6, 6), (7, 4): (8, 14),
    (11, 3): (6, 6), (11, 4): (8, 10), (11, 5): (10, 10), (11, 6): (12, 22),
    (13, 6): (12, 12), (13, 7): (14, 26),
}
#: minima of the full lee_floors criterion (run once, in traced runs only)
LEE_FLOORS_EXPECTED = {(5, 2): (4, 4), (7, 2): (4, 4), (11, 2): (4, 4)}

#: label -> argv; ``--seed`` is appended from the workload seed
CLI_COMMANDS = {
    "bounds_shannon": "bounds --kind shannon --x-min -5 --x-max 0 --samples 6",
    "bounds_tvz_line": "bounds --kind tvz_line --p 7 --t 2 --x-min -10 --x-max -1",
    "bounds_envelope": "bounds --kind envelope --c -10 --x-min -3000 --x-max -600",
    "region": "region --lambda 0.98 --x-min -1000 --x-max -1 --y-min 1 --y-max 500",
    "build_gilbert": "build --gilbert --q 3 --n 4 --d 3",
    "build_concat": "build --inner bch --p 7 --t 2 --outer rs --n-out 8 --k-out 4",
    "bounds_gilbert_yaglom":
        "bounds --kind gilbert_yaglom --q 7 --x-min -5 --x-max -0.1 --samples 200",
    "build_bch_11_4": "build --inner bch --p 11 --t 4",
}
#: commands whose output depends on --seed; the reference holds CLI_SEEDS of them
CLI_SEEDED = ("build_concat",)
CLI_SEEDS = 32

#: relative tolerance for floats in CLI output (summation order may move 1 ulp)
FLOAT_RTOL = 1e-12
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def load_package(root: Path) -> dict:
    """Import spherecodes from ``root/src`` and return its modules by short name."""
    src = root / "src"
    if not (src / "spherecodes" / "__init__.py").is_file():
        raise FileNotFoundError(f"no spherecodes package under {src}")
    sys.path.insert(0, str(src))
    import spherecodes
    from spherecodes import bounds, cli, codes, counting, euclid, gf, kernels, verify

    if Path(spherecodes.__file__).resolve().parent != (src / "spherecodes").resolve():
        raise ImportError(f"spherecodes imported from {spherecodes.__file__}, not {src}")
    return {"bounds": bounds, "cli": cli, "codes": codes, "counting": counting,
            "euclid": euclid, "gf": gf, "kernels": kernels, "verify": verify}


def make_inputs(workload: str, seed: int) -> dict:
    """The operations of one pass; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "verify_suite":
        return {"seed": seed, "only": list(VERIFY_CRITERIA)}
    if workload == "lee_sweep":
        codes = sorted(LEE_EXPECTED)
        rng.shuffle(codes)
        return {"codes": codes}
    if workload == "cli_readme":
        cli_seed = seed % CLI_SEEDS
        labels = list(CLI_COMMANDS)
        rng.shuffle(labels)
        return {"cli_seed": cli_seed,
                "argv": {lab: CLI_COMMANDS[lab].split() + ["--seed", str(cli_seed)]
                         for lab in labels}}
    raise ValueError(f"unknown workload {workload!r}")


def covered_words(workload: str) -> int:
    """Codewords a pass covers: word spaces scanned by greedy selection plus
    codes swept, counted from the input sizes (not from what is visited)."""
    if workload == "verify_suite":
        # gilbert criterion: q <= 5, n <= 6, d = 1 .. n * floor(q/2)^2
        return sum(q**n * n * (q // 2) ** 2 for q in range(2, 6) for n in range(1, 7))
    if workload == "lee_sweep":
        return sum(p ** (p - 1 - t) for p, t in LEE_EXPECTED)
    # build --gilbert --q 3 --n 4 scans 3^4 words; build --p 11 --t 4 sweeps 11^6
    return 3**4 + 11**6


def operations(workload: str, pkg: dict, inputs: dict) -> list[tuple[str | None, object, Callable]]:
    """The operations of one pass, in order, as (span name or None, key, call).

    A verify pass calls ``run_criteria`` once per criterion, a lee_sweep pass
    once per code, a cli_readme pass ``cli.main`` once per command with its
    output captured in memory.
    """
    if workload == "verify_suite":
        run = pkg["verify"].run_criteria
        return [(f"verify.{key}", key, functools.partial(run, only=[key], seed=inputs["seed"]))
                for key in inputs["only"]]
    if workload == "lee_sweep":
        lee_bch = pkg["codes"].lee_bch
        return [(None, (p, t), lambda p=p, t=t: lee_bch(p, t).min_weights())
                for p, t in inputs["codes"]]
    return [(f"cli.{label}", label, functools.partial(_run_cli, pkg["cli"], argv))
            for label, argv in inputs["argv"].items()]


def _run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def run_op(span_name: str | None, call: Callable, span=None):
    """Run one operation; returns its outcome or the exception it raised.

    ``span(name)`` is a context manager recording a span around the call.
    """
    try:
        if span and span_name:
            with span(span_name):
                return call()
        return call()
    except Exception as exc:  # a failed operation, counted by the gate
        return exc


def run_pass(workload: str, pkg: dict, inputs: dict, span=None) -> dict:
    """One pass; returns each operation's outcome, keyed as in ``operations``."""
    return {key: run_op(name, call, span)
            for name, key, call in operations(workload, pkg, inputs)}


def load_reference() -> dict:
    with gzip.open(REFERENCE, "rt") as fh:
        return json.load(fh)


def check_pass(workload: str, inputs: dict, outcome: dict, reference: dict | None):
    """Gate one pass: returns (operations attempted, list of failure messages)."""
    if workload == "verify_suite":
        raised = {key: res for key, res in outcome.items() if isinstance(res, Exception)}
        got = {r.key: r.status for res in outcome.values() if not isinstance(res, Exception)
               for r in res}
        bad = []
        for key, want in VERIFY_EXPECTED.items():
            if got.get(key) == want:
                continue
            crit = next((c for c in raised if key.startswith(c)), None)
            bad.append(_describe(f"verify {key}", raised[crit]) if crit
                       else f"verify {key}: {got.get(key, 'missing')} != {want}")
        bad += [f"verify {key}: unexpected result" for key in got
                if key not in VERIFY_EXPECTED]
        return len(VERIFY_EXPECTED), bad
    if workload == "lee_sweep":
        bad = []
        for (p, t), got in outcome.items():
            if isinstance(got, Exception):
                bad.append(_describe(f"lee_bch({p}, {t})", got))
            elif tuple(got) != LEE_EXPECTED[(p, t)] or min(got) < 2 * t:
                bad.append(f"lee_bch({p}, {t}): {tuple(got)} != {LEE_EXPECTED[(p, t)]}")
        return len(outcome), bad
    bad = []
    for label, got in outcome.items():
        if isinstance(got, Exception):
            bad.append(_describe(f"cli {label}", got))
            continue
        code, stdout, stderr = got
        key = f"{label}@{inputs['cli_seed']}" if label in CLI_SEEDED else label
        if code != 0:
            bad.append(f"cli {label}: exit {code}: {stderr.strip()[:200]}")
        elif not same_output(stdout, reference[key]):
            bad.append(f"cli {label}: stdout differs from the reference")
    return len(outcome), bad


def check_lee_floors(results) -> list[str]:
    """Gate the lee_floors criterion on its minima; its time limit is reported
    as a measurement, not gated."""
    if isinstance(results, Exception):
        return [_describe("lee_floors", results)]
    found = {}
    for line in results[0].details:
        m = re.search(r"p=(\d+) t=(\d+) .*min lee (\d+), min euclid (\d+)", line)
        if m:
            p, t, lee, we = map(int, m.groups())
            found[(p, t)] = (lee, we)
    if found != LEE_FLOORS_EXPECTED:
        return [f"lee_floors: minima {found} != {LEE_FLOORS_EXPECTED}"]
    return []


def same_output(got: str, want: str) -> bool:
    """Equal text, except that floats may differ by FLOAT_RTOL relative;
    integers and all other characters must match exactly."""
    if got == want:
        return True
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return False
    for a, b in zip(got_lines, want_lines):
        if a == b:
            continue
        if _NUMBER.split(a) != _NUMBER.split(b):
            return False
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            if x == y:
                continue
            if not any(ch in x + y for ch in ".eE"):
                return False  # integers are exact
            fx, fy = float(x), float(y)
            if abs(fx - fy) > FLOAT_RTOL * max(abs(fx), abs(fy)):
                return False
    return True


def _describe(what: str, exc: Exception) -> str:
    tb = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return f"{what} raised {tb}"
