"""Rate curves, feasibility regions, and tangents, all stable in x = ln rho.

Everything is evaluated in log-abscissa so that squared distances as small as
e^-1000 stay representable; rho itself is only materialized above e^-700.
Each rate function, :func:`tangent_line` and :meth:`TangentLine.rate_at`
take the abscissa x = ln rho as their one argument form (a caller holding rho
passes math.log(rho)), and reject a non-finite one with a ValueError.
Curves (rates in bits per dimension, rho the squared minimum distance on the
unit sphere), with the parameters each one takes:

    shannon          1 - (1/2) log2(rho (4 - rho)),      0 < rho < 4
    lattice          -(1/2) log2(rho)
    lattice_shifted  lattice - 1.30
    lachaud_stern    0.5 * shannon
    gilbert_yaglom   log2(q) - ball exponent at lambda = a*rho       q
    tvz_line         rate/distance trade-off line of concatenated    p, and t
                     codes built from an outer code meeting          or tau
                     R + Delta >= 1 - 1/(sqrt(Q)-1) and a Lee-metric
                     inner code over GF(p)
    envelope         the envelope of the tvz_line family as p        c
                     varies, at constant c = x + 2y
    scaled_shannon   lam * shannon                                   lam

:data:`CURVES` is the one table of these kinds and their parameters: both
:func:`emit_curve` and the ``bounds`` command read it, so a new kind is one
entry there.

The module also carries the demonstration operating point: a 137-digit prime
whose (x = -640.48, y = ln p) pair, at scaling 0.98, sits essentially on the
boundary of the feasible region exp(x+2y)(1-x) + 4*lambda*(1-x)/y <= 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import counting
from .euclid import constellation

LN2 = math.log(2.0)
LN4 = math.log(4.0)

#: rho is never materialized below this log-abscissa
RHO_UNDERFLOW_X = -700.0
#: exp() guard for the region residual
EXP_OVERFLOW = 700.0
#: the outer-code quality factor is treated as exactly 1 beyond this many
#: decimal digits in p^((p-t-1)/2)
F_Q_CLAMP_DIGITS = 60

# Demonstration operating point for the attainable region: a 137-digit prime
# together with tau = t/(p-1), scaling lambda, and log-abscissa x.
REGION_DEMO_P = int(
    "54324557194526233431402996499932247126422684050879721482365330417236"
    "75544652674874508958455203602044198462638584629866410666865973009475"
    "1"
)
REGION_DEMO_TAU = 0.00155359
REGION_DEMO_LAMBDA = 0.98
REGION_DEMO_X = -640.48

#: scaling used for the envelope-versus-Shannon comparison figure
ENVELOPE_DEMO_LAMBDA = 0.976


def _require_finite(value: float, name: str = "x") -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def shannon_rate(x: float) -> float:
    """1 - (1/2) log2(rho (4 - rho)) at x = ln rho, rho in (0, 4)."""
    _require_finite(x)
    if x >= LN4:
        raise ValueError(f"rho must lie in (0, 4), got ln rho = {x!r}")
    # ln(4 - e^x) = ln 4 + log1p(-e^x / 4), exact for all x < ln 4
    ln_term = x + LN4 + math.log1p(-math.exp(x) / 4.0)
    return 1.0 - 0.5 * ln_term / LN2


def lattice_rate(x: float) -> float:
    """-(1/2) log2(rho) = -x / (2 ln 2)."""
    _require_finite(x)
    return -0.5 * x / LN2


def lattice_rate_shifted(x: float) -> float:
    """lattice_rate - 1.30 (polynomially constructible lattice families)."""
    return lattice_rate(x) - 1.30


def lachaud_stern_rate(x: float) -> float:
    """0.5 * shannon_rate."""
    return 0.5 * shannon_rate(x)


def shannon_lattice_gap(x: float) -> float:
    """Exact gap shannon - lattice = -(1/2) log2(1 - rho/4), computed stably."""
    _require_finite(x)
    if x >= LN4:
        raise ValueError("rho must lie in (0, 4)")
    return -0.5 * math.log1p(-math.exp(x) / 4.0) / LN2


def gilbert_yaglom_rate(q: int, x: float) -> float:
    """log2(q) minus the ball exponent at normalized radius lambda = a e^x,
    for x = ln rho <= 0.

    Valid while lambda stays below the mean coordinate weight (above it the
    rate floor is 0 and the saddle solution is clamped).  At lambda >= w_max,
    which odd q reach at x = 0, the ball is all of Z_q^n and the rate is 0.

    For small rho the rate is log2(q) by a proven bound, in log form, so no
    x is too small.  Every nonzero residue weighs at least 1, so
    f(mu) <= 1 + (q-1) mu for mu <= 1, and the Chernoff bound gives, at
    lambda = a rho and mu = lambda / (q-1),

        exponent <= log2 f(mu) - lambda log2 mu
                 <= lambda (1 + ln(q-1) - ln lambda) / ln 2.

    Where that bound is below a quarter of the gap from log2(q) down to the
    next double (half an ulp, with a factor 2 to spare for the rounding of
    the bound itself), log2(q) - exponent rounds to log2(q).  This holds for
    x below about -41 (q = 2) to -52 (q = 1000), where the saddle solution
    gives log2(q) too; below x = -708, lambda is subnormal and the solver
    cannot be used.
    """
    _require_finite(x)
    if x > 0.0:
        raise ValueError(f"rho must lie in (0, 1], got ln rho = {x!r}")
    c = constellation(q)
    top = math.log2(q)
    ln_lam = math.log(c.a) + x
    if ln_lam < 0.0:  # lambda < 1 <= q - 1, so mu <= 1
        ln_bound = ln_lam + math.log(1.0 + math.log(q - 1) - ln_lam) - math.log(LN2)
        if ln_bound < math.log((top - math.nextafter(top, 0.0)) / 4.0):
            return top
    lam, f = c.a * math.exp(x), counting.enumerator(q)
    if lam >= f.w_max:  # the ball is all of Z_q^n (odd q at x = 0)
        return 0.0
    sol = counting.saddle_solve(f, lam)
    return top - sol.exponent


@dataclass(frozen=True)
class TangentLine:
    """Tangent of the curve (rho, lam * lattice_rate) at rho0 = e^x0, in
    intercept form rho/A + rate/B = 1.

    A = rho0 (1 - x0) underflows for very negative x0, so only its log
    ln_a = x0 + ln(1 - x0) is kept, and the line is evaluated in x.
    """

    x0: float
    lam: float
    B: float
    ln_a: float

    def rate_at(self, x: float) -> float:
        """Rate of the tangent at x = ln rho."""
        _require_finite(x)
        return self.B * -math.expm1(x - self.ln_a)


def tangent_line(x0: float, lam: float = 1.0) -> TangentLine:
    """Tangent of (rho, lam * lattice_rate) at x0 = ln rho0; degenerate for
    rho0 >= e."""
    _require_finite(x0, "x0")
    _require_finite(lam, "lam")
    if x0 >= 1.0:
        raise ValueError(f"tangent degenerates for rho0 >= e (got ln rho0 = {x0!r})")
    one_minus = 1.0 - x0
    return TangentLine(
        x0=x0,
        lam=lam,
        B=lam * one_minus / (2.0 * LN2),
        ln_a=x0 + math.log(one_minus),
    )


@dataclass(frozen=True)
class TVZParams:
    """Parameters of the concatenated-family trade-off line.

    Either the exact inner correction budget ``t`` (desk scale, with the
    parity rule p = t+1 mod 2) or the ratio ``tau = t/(p-1)`` (huge p) must be
    supplied.
    """

    p: int
    t: int | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.p < 7:
            raise ValueError(f"p must be >= 7, got {self.p}")
        if (self.t is None) == (self.tau is None):
            raise ValueError("pass exactly one of t or tau")
        if self.t is not None:
            if not 1 <= self.t <= (self.p + 1) // 2:
                raise ValueError(f"t must lie in [1, {(self.p + 1) // 2}]")
            if (self.p - (self.t + 1)) % 2 != 0:
                raise ValueError(
                    f"parity violated: p = {self.p}, t + 1 = {self.t + 1} differ mod 2"
                )
        else:
            if not 0.0 < self.tau < 1.0:
                raise ValueError(f"tau must lie in (0, 1), got {self.tau!r}")

    @property
    def y(self) -> float:
        return math.log(self.p)

    @property
    def tau_value(self) -> float:
        return self.tau if self.tau is not None else self.t / (self.p - 1)

    def quality_factor(self) -> float:
        """f_Q = 1 - 1/(p^((p-t-1)/2) - 1), clamped to 1 when the defect is
        far below machine precision."""
        if self.t is None:
            return 1.0  # p is astronomically large in tau mode
        e_half = (self.p - self.t - 1) // 2
        if e_half * math.log10(self.p) > F_Q_CLAMP_DIGITS:
            return 1.0
        return 1.0 - 1.0 / (self.p**e_half - 1)


def tvz_line(params: TVZParams, x: float) -> float:
    """Rate of the concatenated family line at squared distance rho = e^x:

    R = [(p-t-1) log2(p) / (p-1)] * (f_Q - rho (p-1)^3 / (8t)).
    """
    _require_finite(x)
    ln_p1 = math.log(params.p - 1)
    if params.t is not None:
        prefactor = (params.p - params.t - 1) * math.log2(params.p) / (params.p - 1)
        ln_pen = x + 3.0 * ln_p1 - math.log(8.0 * params.t)
    else:
        prefactor = (1.0 - params.tau) * math.log(params.p) / LN2
        ln_pen = x + 2.0 * ln_p1 - math.log(8.0 * params.tau)
    penalty = math.inf if ln_pen > EXP_OVERFLOW else math.exp(ln_pen)
    return prefactor * (params.quality_factor() - penalty)


def region_residual(x: float, y: float, lam: float) -> float:
    """F = exp(x + 2y)(1 - x) + 4 lam (1 - x)/y - 8; feasible iff F <= 0.

    Returns +inf when the exponential alone overflows the double range.
    """
    _require_finite(x)
    _require_finite(y, "y")
    _require_finite(lam, "lam")
    if y <= 0.0:
        raise ValueError(f"y must be positive, got {y!r}")
    if x >= 1.0:
        raise ValueError(f"x must be < 1, got {x!r}")
    z = x + 2.0 * y
    if z > EXP_OVERFLOW:
        return math.inf
    return math.exp(z) * (1.0 - x) + 4.0 * lam * (1.0 - x) / y - 8.0


def tau_window(x: float, y: float, lam: float) -> tuple[float, float]:
    """Admissible range of tau = t/(p-1) at the point (x, y):

    (1 - x) e^(x + 2y) / 8  <=  tau  <=  1 - lam (1 - x) / (2y).

    Nonempty exactly when region_residual(x, y, lam) <= 0.
    """
    _require_finite(x)
    _require_finite(y, "y")
    _require_finite(lam, "lam")
    if y <= 0.0:
        raise ValueError(f"y must be positive, got {y!r}")
    if x >= 1.0:
        raise ValueError(f"x must be < 1, got {x!r}")
    z = x + 2.0 * y
    lo = math.inf if z > EXP_OVERFLOW else (1.0 - x) * math.exp(z) / 8.0
    hi = 1.0 - lam * (1.0 - x) / (2.0 * y)
    return lo, hi


@dataclass(frozen=True)
class BoundPoint:
    """One sample of a rate curve; rho is None below the underflow abscissa."""

    x: float
    rho: float | None
    rate: float


def _point(x: float, rate: float) -> BoundPoint:
    rho = math.exp(x) if x >= RHO_UNDERFLOW_X else None
    return BoundPoint(x=x, rho=rho, rate=rate)


def envelope_point(x: float, c: float) -> BoundPoint:
    """Point of the envelope of the line family as p varies, at constant
    c = x + 2y:

        y = (c - x)/2,  8 tau = (1 - x) e^c,
        R = (1 - 1/(1-x)) (1 - tau) y / ln 2.
    """
    y = 0.5 * (c - x)
    if y <= 0.0:
        raise ValueError(f"need x < c for a positive y, got x={x!r}, c={c!r}")
    if x >= 0.0:
        raise ValueError(f"x must be negative, got {x!r}")
    tau = (1.0 - x) * math.exp(c) / 8.0
    if not 0.0 < tau < 1.0:
        raise ValueError(
            f"tau = (1-x) e^c / 8 = {tau!r} outside (0, 1) at x={x!r}, c={c!r}"
        )
    rate = (1.0 - 1.0 / (1.0 - x)) * (1.0 - tau) * y / LN2
    return _point(x, rate)


class Curve(NamedTuple):
    """A curve kind: ``rate(x, **params)`` at x = ln rho, and the type of each
    parameter.  Those named in ``optional`` may be left out, the rest not."""

    rate: Callable[..., float]
    params: dict[str, type] = {}
    optional: tuple[str, ...] = ()


#: every curve kind, the one place its parameters are named
CURVES: dict[str, Curve] = {
    "shannon": Curve(shannon_rate),
    "lattice": Curve(lattice_rate),
    "lattice_shifted": Curve(lattice_rate_shifted),
    "lachaud_stern": Curve(lachaud_stern_rate),
    "gilbert_yaglom": Curve(lambda x, q: gilbert_yaglom_rate(q, x), {"q": int}),
    "tvz_line": Curve(
        lambda x, p, t, tau: tvz_line(TVZParams(p=p, t=t, tau=tau), x),
        {"p": int, "t": int, "tau": float},
        optional=("t", "tau"),
    ),
    "envelope": Curve(lambda x, c: envelope_point(x, c).rate, {"c": float}),
    "scaled_shannon": Curve(lambda x, lam: lam * shannon_rate(x), {"lam": float}),
}
CURVE_KINDS = tuple(CURVES)


def emit_curve(
    kind: str,
    params: dict | None,
    x_min: float,
    x_max: float,
    samples: int,
) -> list[BoundPoint]:
    """Uniform samples of a named curve in x = ln rho, endpoints included.
    ``params`` holds those :data:`CURVES` names for ``kind``; None is left out."""
    curve = CURVES.get(kind)
    if curve is None:
        raise ValueError(f"unknown curve kind {kind!r}; choose from {CURVE_KINDS}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    given = params or {}
    args = {}
    for name, convert in curve.params.items():
        value = given.get(name)
        if value is None and name not in curve.optional:
            raise ValueError(f"the {kind} curve needs the parameter {name!r}")
        args[name] = None if value is None else convert(value)
    _require_finite(x_min, "x_min")
    _require_finite(x_max, "x_max")
    for name, value in args.items():
        if isinstance(value, float):
            _require_finite(value, name)
    if x_max < x_min:
        raise ValueError("x_max must be >= x_min")
    if samples == 1:
        xs = [x_min]
    else:
        step = (x_max - x_min) / (samples - 1)
        xs = [x_min + i * step for i in range(samples)]
        xs[-1] = x_max
    return [_point(x, curve.rate(x, **args)) for x in xs]
