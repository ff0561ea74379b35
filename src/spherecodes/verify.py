"""Self-contained verification suite: every shipped guarantee as a criterion.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``verify`` command and the acceptance tests both run through this module so
there is a single source of truth.  A criterion may carry ``expected_fail``:
the check is evaluated faithfully, known to fail for documented reasons, and
reported without tripping the suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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


def _ball_oracle(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
    checked = 0
    bad: list[str] = []
    for q in range(2, 9):
        c = euclid.constellation(q)
        table = c.euclid_table
        for n in range(1, 5):
            words = kernels._digits_chunk(0, q**n, q, n)
            weights = table[words].sum(axis=1)
            top = n * c.a_int
            cum = np.cumsum(np.bincount(weights, minlength=top + 3))
            for r in range(top + 3):
                expect = int(cum[min(r, top)])
                got = counting.ball_size(q, n, r)
                checked += 1
                if got != expect:
                    bad.append(f"q={q} n={n} r={r}: ball_size {got} != enumeration {expect}")
    dt = time.perf_counter() - t0
    ok = not bad and dt < 10.0
    details = [f"{checked} (q, n, r) triples, exact match" if not bad else "; ".join(bad[:5])]
    if dt >= 10.0:
        details.append(f"runtime {dt:.1f}s exceeded 10s")
    return [
        CriterionResult(
            key="ball_oracle",
            description="ball_size equals exhaustive enumeration, q in 2..8, n in 1..4, all r",
            passed=ok,
            seconds=dt,
            time_limit=10.0,
            details=details,
        )
    ]


def _saddle(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
    sol = counting.saddle_solve(counting.enumerator(3), 0.5)
    err_exp = abs(sol.exponent - 1.5)
    err_mu = abs(sol.mu - 0.5)
    v = counting.ball_size(3, 2000, 1000)
    count_exp = math.log2(v) / 2000.0
    err_count = abs(count_exp - 1.5)
    dt = time.perf_counter() - t0
    ok = err_exp <= 1e-12 and err_count <= 0.02 and dt < 30.0
    details = [
        f"exponent {sol.exponent!r} (|err| {err_exp:.2e}), mu err {err_mu:.2e}",
        f"(1/n) log2 ball_size(3, 2000, 1000) = {count_exp:.6f} "
        f"(|err| {err_count:.4f} <= 0.02)",
    ]
    return [
        CriterionResult(
            key="saddle",
            description="saddle exponent 1.5 at q=3, lambda=0.5; exact n=2000 ball count "
            "within 0.02",
            passed=ok,
            seconds=dt,
            time_limit=30.0,
            details=details,
        )
    ]


def _dominance(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
    rhos = np.linspace(1e-9, 4.0 - 1e-9, 10_000)
    worst_dom = math.inf
    worst_gap = 0.0
    for rho in rhos:
        rs = bounds.shannon_rate(float(rho))
        rl = bounds.lattice_rate(float(rho))
        worst_dom = min(worst_dom, rs - rl)
        gap_err = abs((rs - rl) - bounds.shannon_lattice_gap(float(rho)))
        worst_gap = max(worst_gap, gap_err)
    dt = time.perf_counter() - t0
    ok = worst_dom >= 0.0 and worst_gap <= 1e-12
    details = [
        f"min(shannon - lattice) over 1e4 grid points = {worst_dom:.3e} (>= 0)",
        f"max |gap - (-(1/2) log2(1 - rho/4))| = {worst_gap:.3e} (<= 1e-12 absolute)",
    ]
    return [
        CriterionResult(
            key="dominance",
            description="shannon >= lattice on (0, 4) with the exact gap identity",
            passed=ok,
            seconds=dt,
            details=details,
        )
    ]


def _corollary(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
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
    dt = time.perf_counter() - t0
    ok = at_threshold and all_below and sharp
    details = [
        f"threshold 2^-130: direct inequality holds = {at_threshold}; "
        f"compensated margin {m130:.3e} (boundary case: the true gap is -1.3e-40)",
        f"100 log-spaced rho below 2^-130: all strict, min margin "
        f"{min(margin(x) for x in below):.3e}",
        f"sharpness at 2^-129: violated by {margin(-129.0 * LN2):.4f}",
    ]
    return [
        CriterionResult(
            key="corollary",
            description="lattice - 1.30 >= 0.98 * shannon at rho = 2^-130 and below; "
            "violated at 2^-129",
            passed=ok,
            seconds=dt,
            details=details,
        )
    ]


def _region_demo(seed: int) -> list[CriterionResult]:
    p = bounds.REGION_DEMO_P
    tau = bounds.REGION_DEMO_TAU
    lam = bounds.REGION_DEMO_LAMBDA
    x0 = bounds.REGION_DEMO_X
    y = math.log(p)
    out: list[CriterionResult] = []

    t0 = time.perf_counter()
    resid = bounds.region_residual(x0, y, lam)
    dt = time.perf_counter() - t0
    out.append(
        CriterionResult(
            key="region_demo_residual",
            description="demonstration point sits on the feasible-region boundary "
            "(|F| <= 0.2)",
            passed=abs(resid) <= 0.2,
            seconds=dt,
            time_limit=1.0,
            details=[f"F({x0}, ln p, {lam}) = {resid:.6e}"],
        )
    )

    t0 = time.perf_counter()
    lo, hi = bounds.tau_window(x0, y, lam)
    contains = lo <= tau <= hi
    x_fix = DEMO_WINDOW_X_FIX
    lo_f, hi_f = bounds.tau_window(x_fix, y, lam)
    contains_fix = lo_f <= tau <= hi_f
    # a known failure only while both numbers of the discrepancy are the pinned ones
    documented = (
        abs(resid - DEMO_WINDOW_RESIDUAL) <= DEMO_WINDOW_RESIDUAL_ATOL and contains_fix
    )
    dt = time.perf_counter() - t0
    out.append(
        CriterionResult(
            key="region_demo_window",
            description=f"tau window at the demonstration point contains {tau}",
            passed=contains,
            expected_fail=documented,
            seconds=dt,
            time_limit=1.0,
            details=[
                f"window at x={x0}: [{lo:.9f}, {hi:.9f}] contains {tau} = {contains} "
                f"(residual {resid:.6e}; documented {DEMO_WINDOW_RESIDUAL:.6e} "
                f"+- {DEMO_WINDOW_RESIDUAL_ATOL:.0e})",
                f"documented discrepancy: at x={x_fix} the window "
                f"[{lo_f:.9f}, {hi_f:.9f}] contains {tau} = {contains_fix}; the "
                "published abscissa is off by ~0.06",
            ],
        )
    )

    t0 = time.perf_counter()
    params = bounds.TVZParams(p=p, tau=tau)
    tan = bounds.tangent_line(x0=x0, lam=lam)
    xs = [x0 - 100.0 + 99.0 * i / 49.0 for i in range(50)]  # x0-100 .. x0-1
    margins = [bounds.tvz_line(params, x=x) - tan.rate_at(x=x) for x in xs]
    dom = all(m > 0.0 for m in margins)
    at_x0 = bounds.tvz_line(params, x=x0) - tan.rate_at(x=x0)
    dt = time.perf_counter() - t0
    out.append(
        CriterionResult(
            key="region_demo_dominance",
            description="family line strictly above the tangent at 50 sampled "
            "x <= -640.48",
            passed=dom,
            seconds=dt,
            time_limit=1.0,
            details=[
                f"samples in [{xs[0]:.2f}, {xs[-1]:.2f}]: min margin {min(margins):.4e}",
                f"margin at x0 itself: {at_x0:.4e} (crosses zero near x0 - 0.0147, "
                "inside the last 0.015 of the stated range)",
            ],
        )
    )
    return out


def _primality(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
    sane = codes.primality_check(7) and not codes.primality_check(9)
    verdict = codes.primality_check(bounds.REGION_DEMO_P, rounds=64, seed=seed)
    dt = time.perf_counter() - t0
    details = [
        f"Miller-Rabin, 64 rounds: demonstration prime is "
        f"{'probably prime' if verdict else 'COMPOSITE (transcription suspect)'}",
    ]
    if not verdict:
        details.append("composite verdict is reported, not failed, per contract")
    return [
        CriterionResult(
            key="primality",
            description="137-digit demonstration modulus passes Miller-Rabin "
            "(verdict reported)",
            passed=sane,
            seconds=dt,
            details=details,
        )
    ]


def _lee_floors(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
    pairs = [(5, 2), (7, 2), (11, 2)]
    details = []
    ok = True
    for p, t in pairs:
        code = codes.lee_bch(p, t)
        lee, we = code.min_weights()
        good = lee >= 2 * t and we >= 2 * t
        ok = ok and good
        details.append(
            f"p={p} t={t} ({code.size} codewords): min lee {lee}, min euclid {we}, "
            f"floor {2 * t} {'ok' if good else 'VIOLATED'}"
        )
    dt = time.perf_counter() - t0
    if dt >= 60.0:
        ok = False
        details.append(f"runtime {dt:.1f}s exceeded 60s")
    return [
        CriterionResult(
            key="lee_floors",
            description="exhaustive min Lee and Euclid weights >= 2t for the "
            "BCH test set",
            passed=ok,
            seconds=dt,
            time_limit=60.0,
            details=details,
        )
    ]


def _gilbert(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
    runs = 0
    checked = 0
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
                    if d == 1:
                        # weight 0 only between equal words: distinct word indices suffice
                        index = words @ q ** np.arange(n)
                        far = np.unique(index).size == index.size
                    else:
                        far = euclid.min_sq_distance(words, c) >= d
                    if not far:
                        bad.append(f"q={q} n={n} d={d}: min distance below d")
    dt = time.perf_counter() - t0
    details = [
        f"{runs} (q, n, d) greedy runs, size bound checked on all, "
        f"min distance on the {checked} sets of at least 2 words"
    ]
    if bad:
        details = ["; ".join(bad[:5])]
    return [
        CriterionResult(
            key="gilbert",
            description="greedy size >= ceil(q^n / V(n, q, d-1)) for q <= 5, n <= 6",
            passed=not bad,
            seconds=dt,
            details=details,
        )
    ]


def _concat_pipeline(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
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
    dt = time.perf_counter() - t0
    ok = floor_ok and smin >= 20 and norm_ok and rho_ok
    details = [
        f"floor {cc.metric_floor} over length {cc.n} (outer distance "
        f"{outer.distance} x inner floor {inner.metric_floor})",
        f"sampled min distance over 1e5 pairs: {smin} (>= 20)",
        f"spherical sample: rho {sph.rho:.6f} >= 5/108 = {5 / 108:.6f}; "
        f"max |norm - 1| = {np.abs(norms - 1.0).max():.2e}",
    ]
    return [
        CriterionResult(
            key="concat_pipeline",
            description="Lee BCH [6,4] + RS [8,4] over GF(7^4): floor 20, lift checks",
            passed=ok,
            seconds=dt,
            details=details,
        )
    ]


def _yaglom_expansion(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n, radius, pairs = 6, 2.0, 10_000
    g = rng.normal(size=(2 * pairs, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(2 * pairs) ** (1.0 / n)
    pts = g * r[:, None]
    last = np.sqrt(np.maximum(radius**2 - np.einsum("ij,ij->i", pts, pts), 0.0))
    lifted = np.column_stack([pts, last])
    a, b = pts[:pairs], pts[pairs:]
    la, lb = lifted[:pairs], lifted[pairs:]
    d_orig = np.einsum("ij,ij->i", a - b, a - b)
    d_lift = np.einsum("ij,ij->i", la - lb, la - lb)
    worst = float((d_lift - d_orig).min())
    norm_err = float(np.abs(np.linalg.norm(lifted, axis=1) - radius).max()) / radius
    dt = time.perf_counter() - t0
    ok = worst >= -1e-12 and norm_err <= 1e-9
    details = [
        f"{pairs} random pairs in the radius-{radius} ball of R^{n}: "
        f"min(lifted - original) = {worst:.3e} (>= -1e-12)",
        f"max relative norm error of lifted points: {norm_err:.3e} (<= 1e-9)",
    ]
    return [
        CriterionResult(
            key="yaglom_expansion",
            description="ball-to-sphere lift never decreases pairwise distances",
            passed=ok,
            seconds=dt,
            details=details,
        )
    ]


def _envelope_figure(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
    lam = bounds.ENVELOPE_DEMO_LAMBDA
    best = None
    for c in (-6.0, -8.0, -10.0, -12.0, -14.0):
        # domain: x < c and tau = (1-x) e^c / 8 < 1
        x_left = 1.0 - 8.0 * math.exp(-c) * 0.9
        xs = np.linspace(max(x_left, -60_000.0), c - 1.0, 600)
        good = [
            float(x)
            for x in xs
            if bounds.envelope_point(float(x), c).rate > lam * bounds.shannon_rate(x=float(x))
        ]
        if good:
            margin = max(
                bounds.envelope_point(x, c).rate - lam * bounds.shannon_rate(x=x)
                for x in good
            )
            if best is None or margin > best[3]:
                best = (c, min(good), max(good), margin)
    ok = best is not None
    details = []
    mono_ok = False
    if ok:
        c, x_lo, x_hi, margin = best
        pts = bounds.emit_curve("envelope", {"c": c}, x_lo, x_hi, 200)
        rates = [p.rate for p in pts]
        # the dominance interval lies right of the curve's peak, so the rate
        # must fall strictly as x grows
        x_peak = 0.5 * (1.0 + c - 8.0 * math.exp(-c))
        mono_ok = x_lo > x_peak and all(r1 > r2 for r1, r2 in zip(rates, rates[1:]))
        details = [
            f"c = {c}: envelope > {lam} * shannon on x in [{x_lo:.0f}, {x_hi:.0f}] "
            f"(max margin {margin:.3f} bits)",
            f"emitted 200-sample curve strictly decreasing (peak at x ~ {x_peak:.0f}, "
            f"left of the interval): {mono_ok}",
        ]
    dt = time.perf_counter() - t0
    return [
        CriterionResult(
            key="envelope_figure",
            description=f"envelope beats {bounds.ENVELOPE_DEMO_LAMBDA} * shannon on a "
            "reported interval; emitted curve monotone",
            passed=bool(ok and mono_ok),
            seconds=dt,
            details=details,
        )
    ]


def _theta_defect(seed: int) -> list[CriterionResult]:
    t0 = time.perf_counter()
    lams = [0.25 + 0.05 * i for i in range(21)]  # 0.25 .. 1.25
    defects = {lam: counting.theta_defect(lam) for lam in lams}
    nonneg = all(d >= -1e-12 for d in defects.values())
    d_min = min(defects.values())
    lam_min = min(defects, key=defects.get)
    d1 = defects[1.0]
    lead = counting.theta_defect_leading(1.0)
    match = abs(d1 - lead) <= 1e-11
    dt = time.perf_counter() - t0
    ok = nonneg and d_min <= 1e-7 and match
    details = [
        f"defect positive on the grid; minimum {d_min:.3e} at lambda = {lam_min} "
        "(<= 1e-7)",
        f"defect at lambda = 1: {d1:.6e} bits; leading modular term "
        f"2 exp(-2 pi^2)/ln 2 = {lead:.6e}",
        "reference constant for comparison (published, not asserted): 0.77e-8",
    ]
    return [
        CriterionResult(
            key="theta_defect",
            description="large-alphabet integer-ball defect <= 1e-7, optimized over "
            "the radius parameter",
            passed=ok,
            seconds=dt,
            details=details,
        )
    ]


ALL_CRITERIA = (
    ("ball_oracle", _ball_oracle),
    ("saddle", _saddle),
    ("dominance", _dominance),
    ("corollary", _corollary),
    ("region_demo", _region_demo),
    ("primality", _primality),
    ("lee_floors", _lee_floors),
    ("gilbert", _gilbert),
    ("concat_pipeline", _concat_pipeline),
    ("yaglom_expansion", _yaglom_expansion),
    ("envelope_figure", _envelope_figure),
    ("theta_defect", _theta_defect),
)


def run_criteria(only: list[str] | None = None, seed: int = 0) -> list[CriterionResult]:
    """Run all (or a key-filtered subset of) the acceptance criteria."""
    results: list[CriterionResult] = []
    for key, fn in ALL_CRITERIA:
        if only and not any(sel in key for sel in only):
            continue
        results.extend(fn(seed))
    if only and not results:
        raise ValueError(f"no criterion matches {only!r}")
    return results
