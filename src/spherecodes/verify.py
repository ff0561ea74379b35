"""Self-contained verification suite: every shipped guarantee as a criterion.

A criterion is a check registered with :func:`_criterion` under a key, a
description and an optional time limit.  The check takes the seed and returns
``(passed, details)``, or ``(passed, details, expected_fail)``; the harness
times it and builds its one :class:`CriterionResult`.  The harness is the only
place that times a criterion or applies a time limit: a check that runs for
its limit or longer is a FAIL, whatever it returned, and carries a detail
line with its runtime.  The CLI ``verify`` command and the acceptance tests
both run through :func:`run_criteria`, so there is a single source of truth.
``expected_fail`` marks a check that is evaluated faithfully, known to fail
for documented reasons, and reported without tripping the suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds, codes, counting, euclid, gf, kernels

LN2 = math.log(2.0)

#: the documented discrepancy of region_demo_window, pinned to its numbers: the
#: residual F at bounds.REGION_DEMO_X (positive, so the tau window there is
#: empty), to half a unit of its last digit, and the abscissa nearby whose
#: window does contain bounds.REGION_DEMO_TAU
DEMO_WINDOW_RESIDUAL = 8.542303e-06
DEMO_WINDOW_RESIDUAL_ATOL = 5e-13
DEMO_WINDOW_X_FIX = -640.5404


@dataclass
class CriterionResult:
    key: str
    description: str
    passed: bool
    expected_fail: bool = False
    seconds: float = 0.0
    time_limit: float | None = None
    details: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the suite should not fail because of this criterion."""
        return self.passed or self.expected_fail

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "KNOWN-FAIL" if self.expected_fail else "FAIL"

    def line(self) -> str:
        limit = ""
        if self.time_limit is not None:
            limit = f" [limit {self.time_limit:.0f}s]"
        return f"[{self.status}] {self.key} ({self.seconds:.2f}s{limit}): {self.description}"


#: (key, run) in suite order; run(seed) returns the criterion's results
ALL_CRITERIA: list[tuple[str, Callable[[int], list[CriterionResult]]]] = []


def _criterion(key: str, description: str, time_limit: float | None = None):
    """Register a check as the criterion ``key``, timed and limited here."""

    def register(check):
        def run(seed: int) -> list[CriterionResult]:
            t0 = time.perf_counter()
            passed, details, *known = check(seed)
            dt = time.perf_counter() - t0
            expected_fail = bool(known and known[0])
            if time_limit is not None and dt >= time_limit:
                passed = expected_fail = False
                details = [*details, f"runtime {dt:.1f}s exceeded {time_limit:.0f}s"]
            return [
                CriterionResult(
                    key, description, bool(passed), expected_fail, dt, time_limit, details
                )
            ]

        ALL_CRITERIA.append((key, run))
        return check

    return register


@_criterion(
    "ball_oracle",
    "ball_size equals exhaustive enumeration, q in 2..8, n in 1..4, all r",
    time_limit=10.0,
)
def _ball_oracle(seed: int):
    checked = 0
    bad: list[str] = []
    for q in range(2, 9):
        c = euclid.constellation(q)
        table = c.euclid_table
        for n in range(1, 5):
            words = kernels.digits(np.arange(q**n), q, n)
            weights = table[words].sum(axis=1)
            top = n * c.a_int
            cum = np.cumsum(np.bincount(weights, minlength=top + 3))
            for r in range(top + 3):
                expect = int(cum[min(r, top)])
                got = counting.ball_size(q, n, r)
                checked += 1
                if got != expect:
                    bad.append(f"q={q} n={n} r={r}: ball_size {got} != enumeration {expect}")
    if bad:
        return False, ["; ".join(bad[:5])]
    return True, [f"{checked} (q, n, r) triples, exact match"]


@_criterion(
    "saddle",
    "saddle exponent 1.5 at q=3, lambda=0.5; exact n=2000 ball count within 0.02",
    time_limit=30.0,
)
def _saddle(seed: int):
    sol = counting.saddle_solve(counting.enumerator(3), 0.5)
    err_exp = abs(sol.exponent - 1.5)
    err_mu = abs(sol.mu - 0.5)
    v = counting.ball_size(3, 2000, 1000)
    count_exp = math.log2(v) / 2000.0
    err_count = abs(count_exp - 1.5)
    return err_exp <= 1e-12 and err_count <= 0.02, [
        f"exponent {sol.exponent!r} (|err| {err_exp:.2e}), mu err {err_mu:.2e}",
        f"(1/n) log2 ball_size(3, 2000, 1000) = {count_exp:.6f} "
        f"(|err| {err_count:.4f} <= 0.02)",
    ]


@_criterion("dominance", "shannon >= lattice on (0, 4) with the exact gap identity")
def _dominance(seed: int):
    rhos = np.linspace(1e-9, 4.0 - 1e-9, 10_000)
    worst_dom = math.inf
    worst_gap = 0.0
    for rho in rhos:
        rs = bounds.shannon_rate(float(rho))
        rl = bounds.lattice_rate(float(rho))
        worst_dom = min(worst_dom, rs - rl)
        gap_err = abs((rs - rl) - bounds.shannon_lattice_gap(float(rho)))
        worst_gap = max(worst_gap, gap_err)
    return worst_dom >= 0.0 and worst_gap <= 1e-12, [
        f"min(shannon - lattice) over 1e4 grid points = {worst_dom:.3e} (>= 0)",
        f"max |gap - (-(1/2) log2(1 - rho/4))| = {worst_gap:.3e} (<= 1e-12 absolute)",
    ]


@_criterion(
    "corollary",
    "lattice - 1.30 >= 0.98 * shannon at rho = 2^-130 and below; violated at 2^-129",
)
def _corollary(seed: int):
    x130 = -130.0 * LN2

    def holds(x: float) -> bool:
        return bounds.lattice_rate_shifted(x=x) >= 0.98 * bounds.shannon_rate(x=x)

    def margin(x: float) -> float:
        # compensated: 0.02 R_L - 1.30 - 0.98 (R_S - R_L)
        return (
            0.02 * bounds.lattice_rate(x=x)
            - 1.30
            - 0.98 * bounds.shannon_lattice_gap(x=x)
        )

    at_threshold = holds(x130)
    below = [x130 - 70.0 * i / 99.0 for i in range(1, 101)]
    all_below = all(margin(x) > 0.0 for x in below)
    sharp = not holds(-129.0 * LN2) and margin(-129.0 * LN2) < -1e-3
    m130 = margin(x130)
    return at_threshold and all_below and sharp, [
        f"threshold 2^-130: direct inequality holds = {at_threshold}; "
        f"compensated margin {m130:.3e} (boundary case: the true gap is -1.3e-40)",
        f"100 log-spaced rho below 2^-130: all strict, min margin "
        f"{min(margin(x) for x in below):.3e}",
        f"sharpness at 2^-129: violated by {margin(-129.0 * LN2):.4f}",
    ]


def _region_demo_point():
    """(x0, ln p, lambda) of the demonstration point, read at call time."""
    return bounds.REGION_DEMO_X, math.log(bounds.REGION_DEMO_P), bounds.REGION_DEMO_LAMBDA


@_criterion(
    "region_demo_residual",
    "demonstration point sits on the feasible-region boundary (|F| <= 0.2)",
    time_limit=1.0,
)
def _region_demo_residual(seed: int):
    x0, y, lam = _region_demo_point()
    resid = bounds.region_residual(x0, y, lam)
    return abs(resid) <= 0.2, [f"F({x0}, ln p, {lam}) = {resid:.6e}"]


@_criterion(
    "region_demo_window",
    f"tau window at the demonstration point contains {bounds.REGION_DEMO_TAU}",
    time_limit=1.0,
)
def _region_demo_window(seed: int):
    x0, y, lam = _region_demo_point()
    tau = bounds.REGION_DEMO_TAU
    resid = bounds.region_residual(x0, y, lam)
    lo, hi = bounds.tau_window(x0, y, lam)
    contains = lo <= tau <= hi
    x_fix = DEMO_WINDOW_X_FIX
    lo_f, hi_f = bounds.tau_window(x_fix, y, lam)
    contains_fix = lo_f <= tau <= hi_f
    # a known failure only while both numbers of the discrepancy are the pinned ones
    documented = (
        abs(resid - DEMO_WINDOW_RESIDUAL) <= DEMO_WINDOW_RESIDUAL_ATOL and contains_fix
    )
    details = [
        f"window at x={x0}: [{lo:.9f}, {hi:.9f}] contains {tau} = {contains} "
        f"(residual {resid:.6e}; documented {DEMO_WINDOW_RESIDUAL:.6e} "
        f"+- {DEMO_WINDOW_RESIDUAL_ATOL:.0e})",
        f"documented discrepancy: at x={x_fix} the window "
        f"[{lo_f:.9f}, {hi_f:.9f}] contains {tau} = {contains_fix}; the "
        "published abscissa is off by ~0.06",
    ]
    return contains, details, documented


@_criterion(
    "region_demo_dominance",
    "family line strictly above the tangent at 50 sampled x <= -640.48",
    time_limit=1.0,
)
def _region_demo_dominance(seed: int):
    x0, _, lam = _region_demo_point()
    params = bounds.TVZParams(p=bounds.REGION_DEMO_P, tau=bounds.REGION_DEMO_TAU)
    tan = bounds.tangent_line(x0=x0, lam=lam)
    xs = [x0 - 100.0 + 99.0 * i / 49.0 for i in range(50)]  # x0-100 .. x0-1
    margins = [bounds.tvz_line(params, x=x) - tan.rate_at(x=x) for x in xs]
    at_x0 = bounds.tvz_line(params, x=x0) - tan.rate_at(x=x0)
    return all(m > 0.0 for m in margins), [
        f"samples in [{xs[0]:.2f}, {xs[-1]:.2f}]: min margin {min(margins):.4e}",
        f"margin at x0 itself: {at_x0:.4e} (crosses zero near x0 - 0.0147, "
        "inside the last 0.015 of the stated range)",
    ]


@_criterion(
    "primality",
    "137-digit demonstration modulus passes Miller-Rabin (verdict reported)",
)
def _primality(seed: int):
    sane = codes.primality_check(7) and not codes.primality_check(9)
    verdict = codes.primality_check(bounds.REGION_DEMO_P, rounds=64, seed=seed)
    details = [
        f"Miller-Rabin, 64 rounds: demonstration prime is "
        f"{'probably prime' if verdict else 'COMPOSITE (transcription suspect)'}",
    ]
    if not verdict:
        details.append("composite verdict is reported, not failed, per contract")
    return sane, details


@_criterion(
    "lee_floors",
    "exhaustive min Lee and Euclid weights >= 2t for the BCH test set",
    time_limit=60.0,
)
def _lee_floors(seed: int):
    details = []
    ok = True
    for p, t in [(5, 2), (7, 2), (11, 2)]:
        code = codes.lee_bch(p, t)
        lee, we = code.min_weights()
        good = lee >= 2 * t and we >= 2 * t
        ok = ok and good
        details.append(
            f"p={p} t={t} ({code.size} codewords): min lee {lee}, min euclid {we}, "
            f"floor {2 * t} {'ok' if good else 'VIOLATED'}"
        )
    return ok, details


@_criterion(
    "gilbert", "greedy size >= ceil(q^n / V(n, q, d-1)), distance >= d, for q <= 5, n <= 6"
)
def _gilbert(seed: int):
    runs = 0
    checked = 0
    translates = 0
    bad: list[str] = []
    for q in range(2, 6):
        c = euclid.constellation(q)
        for n in range(1, 7):
            if q**n > codes.GREEDY_GUARD:
                continue
            total = q**n
            for d in range(1, n * c.a_int + 1):
                words = codes.greedy_gilbert(q, n, d)
                need = -(-total // counting.ball_size(q, n, d - 1))  # ceil
                runs += 1
                if words.shape[0] < need:
                    bad.append(f"q={q} n={n} d={d}: {words.shape[0]} < {need}")
                elif words.shape[0] >= 2:
                    checked += 1
                    far, looked = kernels.far_apart(words, q, c.euclid_table, d)
                    translates += looked
                    if not far:
                        bad.append(f"q={q} n={n} d={d}: min distance below d")
    if bad:
        return False, ["; ".join(bad[:5])]
    return True, [
        f"{runs} (q, n, d) greedy runs, size bound checked on all, "
        f"min distance on the {checked} sets of at least 2 words "
        f"by translate tables ({translates} translates)"
    ]


@_criterion(
    "concat_pipeline", "Lee BCH [6,4] + RS [8,4] over GF(7^4): floor 20, lift checks"
)
def _concat_pipeline(seed: int):
    inner = codes.lee_bch(7, 2)
    fld = gf.ExtField(7, 4)
    outer = gf.RSCode(fld, 8, 4)
    cc = codes.concatenate(outer, inner)
    floor_ok = cc.metric_floor == 20 and cc.n == 48
    smin = cc.sampled_min_distance(100_000, seed=seed)
    sph = codes.to_spherical(7, cc.sample_words(1000, seed=seed + 1), d_floor=cc.metric_floor)
    norms = np.linalg.norm(sph.points, axis=1)
    norm_ok = bool(np.all(np.abs(norms - 1.0) <= 1e-9))
    rho_ok = sph.rho >= 5.0 / 108.0 - 1e-9
    return floor_ok and smin >= 20 and norm_ok and rho_ok, [
        f"floor {cc.metric_floor} over length {cc.n} (outer distance "
        f"{outer.distance} x inner floor {inner.metric_floor})",
        f"sampled min distance over 1e5 pairs: {smin} (>= 20)",
        f"spherical sample: rho {sph.rho:.6f} >= 5/108 = {5 / 108:.6f}; "
        f"max |norm - 1| = {np.abs(norms - 1.0).max():.2e}",
    ]


@_criterion("yaglom_expansion", "ball-to-sphere lift never decreases pairwise distances")
def _yaglom_expansion(seed: int):
    rng = np.random.default_rng(seed)
    n, radius, pairs = 6, 2.0, 10_000
    g = rng.normal(size=(2 * pairs, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(2 * pairs) ** (1.0 / n)
    pts = g * r[:, None]
    lifted = euclid.yaglom_lift(pts, radius)
    a, b = pts[:pairs], pts[pairs:]
    la, lb = lifted[:pairs], lifted[pairs:]
    d_orig = np.einsum("ij,ij->i", a - b, a - b)
    d_lift = np.einsum("ij,ij->i", la - lb, la - lb)
    worst = float((d_lift - d_orig).min())
    norm_err = float(np.abs(np.linalg.norm(lifted, axis=1) - radius).max()) / radius
    return worst >= -1e-12 and norm_err <= 1e-9, [
        f"{pairs} random pairs in the radius-{radius} ball of R^{n}: "
        f"min(lifted - original) = {worst:.3e} (>= -1e-12)",
        f"max relative norm error of lifted points: {norm_err:.3e} (<= 1e-9)",
    ]


@_criterion(
    "envelope_figure",
    f"envelope beats {bounds.ENVELOPE_DEMO_LAMBDA} * shannon on a reported interval; "
    "emitted curve monotone",
)
def _envelope_figure(seed: int):
    lam = bounds.ENVELOPE_DEMO_LAMBDA
    best = None
    for c in (-6.0, -8.0, -10.0, -12.0, -14.0):
        # domain: x < c and tau = (1-x) e^c / 8 < 1
        x_left = 1.0 - 8.0 * math.exp(-c) * 0.9
        xs = np.linspace(max(x_left, -60_000.0), c - 1.0, 600)
        good = []  # (x, margin) wherever the envelope wins
        for x in map(float, xs):
            env, scaled = bounds.envelope_point(x, c).rate, lam * bounds.shannon_rate(x=x)
            if env > scaled:
                good.append((x, env - scaled))
        if good:
            margin = max(m for _, m in good)
            if best is None or margin > best[3]:
                best = (c, min(x for x, _ in good), max(x for x, _ in good), margin)
    if best is None:
        return False, []
    c, x_lo, x_hi, margin = best
    pts = bounds.emit_curve("envelope", {"c": c}, x_lo, x_hi, 200)
    rates = [p.rate for p in pts]
    # the dominance interval lies right of the curve's peak, so the rate
    # must fall strictly as x grows
    x_peak = 0.5 * (1.0 + c - 8.0 * math.exp(-c))
    mono_ok = x_lo > x_peak and all(r1 > r2 for r1, r2 in zip(rates, rates[1:]))
    return mono_ok, [
        f"c = {c}: envelope > {lam} * shannon on x in [{x_lo:.0f}, {x_hi:.0f}] "
        f"(max margin {margin:.3f} bits)",
        f"emitted 200-sample curve strictly decreasing (peak at x ~ {x_peak:.0f}, "
        f"left of the interval): {mono_ok}",
    ]


@_criterion(
    "theta_defect",
    "large-alphabet integer-ball defect <= 1e-7, optimized over the radius parameter",
)
def _theta_defect(seed: int):
    lams = [0.25 + 0.05 * i for i in range(21)]  # 0.25 .. 1.25
    defects = {lam: counting.theta_defect(lam) for lam in lams}
    nonneg = all(d >= -1e-12 for d in defects.values())
    d_min = min(defects.values())
    lam_min = min(defects, key=defects.get)
    d1 = defects[1.0]
    lead = counting.theta_defect_leading(1.0)
    match = abs(d1 - lead) <= 1e-11
    return nonneg and d_min <= 1e-7 and match, [
        f"defect positive on the grid; minimum {d_min:.3e} at lambda = {lam_min} "
        "(<= 1e-7)",
        f"defect at lambda = 1: {d1:.6e} bits; leading modular term "
        f"2 exp(-2 pi^2)/ln 2 = {lead:.6e}",
        "reference constant for comparison (published, not asserted): 0.77e-8",
    ]


def run_criteria(only: list[str] | None = None, seed: int = 0) -> list[CriterionResult]:
    """Run all the acceptance criteria, or those whose key starts with one of
    the strings in ``only``, in suite order."""
    results: list[CriterionResult] = []
    for key, fn in ALL_CRITERIA:
        if only and not key.startswith(tuple(only)):
            continue
        results.extend(fn(seed))
    if only and not results:
        raise ValueError(f"no criterion matches {only!r}")
    return results
