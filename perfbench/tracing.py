"""Span tracer for the per-layer table.

The package is traced from outside: :meth:`Tracer.install` replaces each
layer entry point named in :data:`TARGETS` by a wrapper, in every
``spherecodes`` module that holds a reference to it (callers reach each layer
through a module attribute, so this catches every call), and
:meth:`Tracer.uninstall` puts the originals back.  A wrapper records a span
(name, parent, start, end, whether it raised) and the work counts computed
from the sizes of its arguments and result; spans stay in memory until
:meth:`Tracer.table` folds them into per-function fields.  The harness opens
spans of its own (one per criterion or CLI command) with :meth:`Tracer.span`.
Each count field is declared once, with its unit, in its :class:`Target`.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


def _count_greedy(a, result):
    return {"candidates": a["q"] ** a["n"], "kept": len(result)}


def _count_pair_scan(array):
    m, n = array.shape
    return {"pairs": _pairs(m), "ops_computed": _pairs(m) * n}


def _count_sweep(a, result):
    words = a["p"] ** a["k"]
    # each codeword is n int64 residues, whatever the algorithm visits
    return {"words": words, "bytes_computed": words * a["n"] * 8}


class Target(NamedTuple):
    """A layer entry point: where it lives, its span name, and the work counts
    computed from its bound arguments and result, declared with their units."""

    module: str
    path: str
    name: str
    fields: dict[str, str] = {}
    counter: Callable[[dict, object], dict[str, int]] | None = None


PAIR_FIELDS = {"pairs": "count", "ops_computed": "count"}

TARGETS = (
    Target("kernels", "greedy_lex", "kernels.greedy_lex",
           {"candidates": "count", "kept": "count"}, _count_greedy),
    Target("kernels", "min_dist_words", "kernels.min_dist_words",
           PAIR_FIELDS, lambda a, r: _count_pair_scan(a["words"])),
    Target("kernels", "min_sq_dist_real", "kernels.min_sq_dist_real",
           PAIR_FIELDS, lambda a, r: _count_pair_scan(a["points"])),
    Target("kernels", "cyclic_min_weights", "kernels.cyclic_min_weights",
           {"words": "count", "bytes_computed": "B"}, _count_sweep),
    Target("counting", "ball_size", "counting.ball_size"),
    Target("counting", "saddle_solve", "counting.saddle_solve"),
    Target("counting", "theta_saddle", "counting.theta_saddle"),
    Target("gf", "ExtField.__post_init__", "gf.ExtField"),
    Target("gf", "RSCode.encode", "gf.RSCode.encode",
           {"symbols": "count"}, lambda a, r: {"symbols": r.size}),
    Target("codes", "greedy_gilbert", "codes.greedy_gilbert"),
    Target("codes", "ConcatenatedCode.sampled_min_distance", "codes.sampled_min_distance",
           {"pairs": "count"}, lambda a, r: {"pairs": a["pairs"]}),
    Target("codes", "to_spherical", "codes.to_spherical",
           {"points": "count"}, lambda a, r: {"points": r.n_words}),
    Target("euclid", "min_sq_distance", "euclid.min_sq_distance"),
    Target("bounds", "emit_curve", "bounds.emit_curve",
           {"samples": "count"}, lambda a, r: {"samples": len(r)}),
    Target("bounds", "region_residual", "bounds.region_residual"),
)

#: span fields every span name gets in the table
SPAN_FIELDS = {"calls": "count", "busy_s": "s", "self_s": "s", "errors": "count"}

#: table entries computed as one table entry over another: name -> (unit, numerator, denominator)
DERIVED = {
    "kernels.greedy_lex.keep_ratio":
        ("ratio", "kernels.greedy_lex.kept", "kernels.greedy_lex.candidates"),
    "kernels.cyclic_min_weights.words_per_s":
        ("1/s", "kernels.cyclic_min_weights.words", "kernels.cyclic_min_weights.busy_s"),
}

#: counts that must repeat exactly between two runs of one program at one seed
EXACT_COUNTS = frozenset({"calls", "errors"}.union(*(t.fields for t in TARGETS)))


def layer_units() -> dict[str, str]:
    """Every table entry of the wrapped entry points, with its unit."""
    units = {f"{t.name}.{field}": unit for t in TARGETS
             for field, unit in (SPAN_FIELDS | t.fields).items()}
    units.update({name: unit for name, (unit, _, _) in DERIVED.items()})
    return units


class Tracer:
    """Records spans and counts; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, bool]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        #: seconds the wrappers spend outside the calls they wrap: the tracing overhead
        self.own_s = 0.0

    @contextmanager
    def span(self, name: str):
        """Record one span around the body and yield its index; nested spans
        become its children."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, parent, 0.0, 0.0, False))
        self._stack.append(idx)
        failed = True
        start = time.perf_counter()
        try:
            yield idx
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, parent, start, end, failed)

    def _wrap(self, fn, name: str, counter):
        sig = inspect.signature(fn) if counter else None
        tracer = self

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            try:
                with tracer.span(name) as idx:
                    result = fn(*args, **kwargs)
                if counter:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(bound.arguments, result).items():
                        tracer.counts[name][key] += int(value)
                return result
            finally:
                _, _, start, end, _ = tracer.spans[idx]
                tracer.own_s += time.perf_counter() - entered - (end - start)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every target; ``modules`` maps short names to package modules."""
        for target in TARGETS:
            owner = modules[target.module]
            *cls_path, attr = target.path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, target.name, target.counter)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").split(".")[0] == "spherecodes"
                        and mod.__dict__.get(attr) is original):
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def table(self) -> dict[str, float]:
        """Per span name: calls, busy_s, self_s and errors, plus the counts
        and the DERIVED ratios.

        Self time is each span minus the time its child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, parent, start, end, failed) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.errors"] += int(failed)
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += (end - start) - child_time[idx]
        for name, fields in self.counts.items():
            for key, value in fields.items():
                out[f"{name}.{key}"] += value
        for name, (_, num, den) in DERIVED.items():
            if out.get(den):
                out[name] = out[num] / out[den]
        return dict(out)

