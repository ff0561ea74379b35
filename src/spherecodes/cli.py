"""Command-line frontend: curve/region data emission, code builds, verification.

Output is deterministic for a fixed configuration and seed: floats are
serialized with ``repr`` (shortest round-trip), rows keep input order.  Exit
codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds, codes, gf, kernels, verify

OUTDIR_ENV = "SPHERECODES_OUTDIR"


def _fmt(value) -> str:
    if type(value) is float:  # the common cell, tested first
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _resolve_output(path: str | None):
    if path is None or path == "-":
        return None
    p = Path(path)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    return p


def _write_rows(path, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    else:  # json-lines
        import json

        def jsonable(v):
            if v is None or isinstance(v, str):
                return v
            if isinstance(v, (bool, np.bool_)):
                return bool(v)
            if isinstance(v, (int, np.integer)):
                return int(v)
            return float(v)

        lines = [
            json.dumps(dict(zip(header, (jsonable(v) for v in row))), sort_keys=True)
            for row in rows
        ]
    text = "\n".join(lines) + "\n"
    target = _resolve_output(path)
    if target is None:
        sys.stdout.write(text)
    else:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


def _cmd_bounds(args) -> int:
    # every curve parameter is the option of the same name (lam is --lambda)
    params = {name: getattr(args, name) for name in bounds.CURVES[args.kind].params}
    pts = bounds.emit_curve(args.kind, params, args.x_min, args.x_max, args.samples)
    rows = [[p.x, p.rho, p.rate, args.kind] for p in pts]
    _write_rows(args.output, ["x", "rho", "rate", "curve"], rows, args.format)
    return 0


def _cmd_region(args) -> int:
    if args.x_min >= 1.0 or args.x_max >= 1.0:
        raise ValueError("region grid needs x < 1")
    if args.y_min <= 0.0:
        raise ValueError("region grid needs y > 0")
    xs = np.linspace(args.x_min, args.x_max, args.x_steps)
    ys = np.linspace(args.y_min, args.y_max, args.y_steps)
    rows = []
    for x in xs:
        for y in ys:
            f = bounds.region_residual(float(x), float(y), args.lam)
            rows.append([float(x), float(y), f, f <= 0.0])
    _write_rows(args.output, ["x", "y", "residual", "feasible"], rows, args.format)
    return 0


def _cmd_build(args) -> int:
    print_lines: list[str] = []
    if args.gilbert:
        if None in (args.q, args.n, args.d):
            raise ValueError("--gilbert needs --q, --n and --d")
        words = codes.greedy_gilbert(args.q, args.n, args.d)
        sph = codes.to_spherical(args.q, words, d_floor=args.d)
        from . import counting, euclid

        measured = (
            f"{euclid.min_sq_distance(words, euclid.constellation(args.q))} (exhaustive)"
            if words.shape[0] >= 2
            else "undefined (one word)"
        )
        bound = -(-args.q**args.n // counting.ball_size(args.q, args.n, args.d - 1))
        print_lines += [
            f"greedy code over Z_{args.q}: n={args.n} |C|={words.shape[0]} "
            f"(size bound {bound})",
            f"guaranteed floor {args.d}; measured min distance {measured}",
            f"spherical: dimension {args.n + 1}, rho={sph.rho!r} "
            f"(floor {sph.floor_rho!r}), binary rate {sph.binary_rate!r}",
        ]
        points = sph.points
    else:
        if args.p is None or args.t is None:
            raise ValueError("--inner bch needs --p and --t")
        inner = codes.lee_bch(args.p, args.t)
        if args.outer == "rs":
            if None in (args.n_out, args.k_out):
                raise ValueError("--outer rs needs --n-out and --k-out")
            fld = gf.ExtField(inner.p, inner.k)
            outer = gf.RSCode(fld, args.n_out, args.k_out)
            code = codes.concatenate(outer, inner)
            label = (
                f"RS[{args.n_out},{args.k_out}] over GF({inner.p}^{inner.k}) "
                f". BCH[{inner.n},{inner.k}]"
            )
        else:
            code = inner
            label = f"BCH[{inner.n},{inner.k}] over GF({inner.p})"
        size = code.size
        if isinstance(code, codes.ConcatenatedCode):
            n_total, k_total, floor = code.n, code.k_total, code.metric_floor
            if size <= codes.EXHAUSTIVE_GUARD:
                words = code.encode_p_message(kernels.digits(np.arange(size), code.p, k_total))
                measured = codes.linear_min_distance(words, code.p)
                mode = "exhaustive"
            else:
                measured = code.sampled_min_distance(args.sample_pairs, seed=args.seed)
                words = code.sample_words(min(1000, size), seed=args.seed)
                mode = f"sampled ({args.sample_pairs} pairs)"
        else:
            n_total, k_total, floor = code.n, code.k, code.metric_floor
            lee, we = code.min_weights()
            measured = we
            mode = f"exhaustive (min lee weight {lee})"
            words = code.encode(kernels.digits(np.arange(min(size, 4096)), code.p, code.k))
        sph = codes.to_spherical(code.p, words, d_floor=floor)
        print_lines += [
            f"{label}: n={n_total} |C|={code.p}^{k_total}",
            f"guaranteed floor {floor}; measured min distance {measured} ({mode})",
            f"spherical: dimension {n_total + 1}, sample rho={sph.rho!r} "
            f"(floor {sph.floor_rho!r}), binary rate log2|C|/(n+1) = "
            f"{k_total * math.log2(code.p) / (n_total + 1)!r}",
        ]
        points = sph.points
    for line in print_lines:
        print(line)
    if args.output:
        rows = [[float(v) for v in row] for row in points]
        header = [f"c{i}" for i in range(points.shape[1])]
        _write_rows(args.output, header, rows, args.format)
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_criteria(only=args.only or None, seed=args.seed)
    for r in results:
        print(r.line())
        for d in r.details:
            print("       " + d)
    failures = [r for r in results if not r.ok]
    n_known = sum(1 for r in results if r.expected_fail and not r.passed)
    print(
        f"\n{len(results)} checks: "
        f"{sum(1 for r in results if r.passed)} passed, "
        f"{n_known} known documented discrepancies, "
        f"{len(failures)} failures, total {sum(r.seconds for r in results):.1f}s"
    )
    return 1 if failures else 0


def finite_float(text: str) -> float:
    """argparse type: a finite float (NaN and infinities exit with code 2)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (0 and negative values exit with code 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _is_negative_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return word.startswith("-")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--opt -1e3`` into ``--opt=-1e3``.

    argparse takes a word such as ``-1e3`` or ``-inf`` for an unknown option
    (it reads only ``-3000`` and ``-0.5`` forms as negative numbers), so such
    a value could be given only after ``=``.  No option of this program looks
    like a number, so a number after a long option is that option's value.
    """
    out: list[str] = []
    for word in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _is_negative_number(word):
            out[-1] = f"{prev}={word}"
        else:
            out.append(word)
    return out


def _add_common(p: argparse.ArgumentParser, rows: bool = True) -> None:
    """--seed and --config, after --output and --format for a command that writes rows."""
    if rows:
        p.add_argument("--output", "-o", default=None, help="output file (default stdout)")
        p.add_argument(
            "--format", choices=("csv", "json-lines"), default="csv", help="row format"
        )
    p.add_argument("--seed", type=int, default=0, help="seed for any sampling")
    p.add_argument("--config", default=None, help="key = value defaults file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherecodes",
        description="Spherical-code constructions and rate-bound data emission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="emit samples of a rate curve")
    pb.add_argument("--kind", required=True, choices=bounds.CURVE_KINDS)
    pb.add_argument("--x-min", type=finite_float, required=True, help="lower ln(rho)")
    pb.add_argument("--x-max", type=finite_float, required=True, help="upper ln(rho)")
    pb.add_argument("--samples", type=positive_int, default=100)
    pb.add_argument("--q", type=int, default=None, help="alphabet for gilbert_yaglom")
    pb.add_argument("--p", type=int, default=None, help="prime for tvz_line")
    pb.add_argument("--t", type=int, default=None, help="inner budget for tvz_line")
    pb.add_argument("--tau", type=finite_float, default=None, help="t/(p-1) for huge p")
    pb.add_argument("--c", type=finite_float, default=None, help="envelope constant x + 2y")
    pb.add_argument(
        "--lambda", dest="lam", type=finite_float, default=0.98, help="curve scaling"
    )
    _add_common(pb)
    pb.set_defaults(fn=_cmd_bounds)

    pr = sub.add_parser("region", help="emit the feasibility-region grid")
    pr.add_argument("--lambda", dest="lam", type=finite_float, default=0.98)
    pr.add_argument("--x-min", type=finite_float, default=-1000.0)
    pr.add_argument("--x-max", type=finite_float, default=-1.0)
    pr.add_argument("--x-steps", type=positive_int, default=200)
    pr.add_argument("--y-min", type=finite_float, default=1.0)
    pr.add_argument("--y-max", type=finite_float, default=500.0)
    pr.add_argument("--y-steps", type=positive_int, default=200)
    _add_common(pr)
    pr.set_defaults(fn=_cmd_region)

    pc = sub.add_parser("build", help="build a code and lift it to the sphere")
    pc.add_argument("--gilbert", action="store_true", help="greedy word-set build")
    pc.add_argument("--q", type=int, default=None)
    pc.add_argument("--n", type=int, default=None)
    pc.add_argument("--d", type=int, default=None)
    pc.add_argument("--inner", choices=("bch",), default="bch")
    pc.add_argument("--p", type=int, default=None)
    pc.add_argument("--t", type=int, default=None)
    pc.add_argument("--outer", choices=("rs", "none"), default="none")
    pc.add_argument("--n-out", type=int, default=None)
    pc.add_argument("--k-out", type=int, default=None)
    pc.add_argument("--sample-pairs", type=positive_int, default=100_000)
    _add_common(pc)
    pc.set_defaults(fn=_cmd_build)

    pv = sub.add_parser("verify", help="run the acceptance criteria suite")
    pv.add_argument(
        "--only",
        action="append",
        default=None,
        help="run only criteria whose key starts with this string (repeatable)",
    )
    _add_common(pv, rows=False)
    pv.set_defaults(fn=_cmd_verify)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Fold ``key = value`` lines of a ``--config file`` (or ``--config=file``)
    in as leading defaults."""
    for idx, word in enumerate(argv):
        if word == "--config" and idx + 1 < len(argv):
            path = Path(argv[idx + 1])
            break
        if word.startswith("--config="):
            path = Path(word.partition("=")[2])
            break
    else:
        return argv
    if not path.exists():
        raise ValueError(f"config file not found: {path}")
    extra: list[str] = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            extra.append(flag)
        else:
            extra.extend([flag, value])
    # insert after the subcommand so explicit flags still win
    return argv[:1] + extra + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _attach_negative_values(_apply_config(argv))
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
