"""Exact Euclidean-ball counting in Z_q^n and saddle-point growth exponents.

The per-coordinate difference-weight enumerator of Z_q is

    f(z) = sum_r z^{min(r^2, (q-r)^2)}
         = 1 + 2(z + z^4 + ... + z^{s^2})              for q = 2s + 1,
         = 1 + 2(z + ... + z^{s^2}) + z^{(s+1)^2}      for q = 2s + 2,

so f(1) = q.  (For even q the literature sometimes drops the lone weight
(s+1)^2 term, which would make f(1) = q - 1; the corrected form above is the
one whose powers count words.)  The number of words of weight <= r in Z_q^n is
the partial coefficient sum of f(z)^n, computed here exactly by the power
recurrence of :func:`ball_size`.  Its exponential growth rate at radius
r = lambda*n is

    (1/n) log2 V -> log2 f(mu) - lambda*log2(mu),

with mu the unique positive root of z f'(z) = lambda f(z); the map
z -> z f'(z)/f(z) is strictly increasing, so the root is found by bisection in
log z followed by a Newton polish.  The same machinery applied to the theta
series 1 + 2*sum_i z^{i^2} gives the large-alphabet growth exponent and its
defect against the continuum value (1/2) log2(2*pi*e*lambda).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

#: continuum exponent defect target used by the a-posteriori tail check
THETA_TAIL_RTOL = 1e-18


class ConvergenceError(ArithmeticError):
    """Root finding failed to reach the required residual."""


@dataclass(frozen=True)
class WeightEnumerator:
    """Sparse one-coordinate weight enumerator; ``q = 0`` marks a truncated
    theta series."""

    weights: tuple[int, ...]
    counts: tuple[int, ...]
    q: int

    @property
    def w_max(self) -> int:
        return self.weights[-1]

    @property
    def mass(self) -> int:
        return sum(self.counts)

    @property
    def mean_weight(self) -> float:
        return sum(w * c for w, c in zip(self.weights, self.counts)) / self.mass

    def coeffs(self) -> dict[int, int]:
        return dict(zip(self.weights, self.counts))

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The weights and counts as float64 arrays, built once."""
        return np.asarray(self.weights, dtype=np.float64), np.asarray(self.counts, dtype=np.float64)

    # All evaluations work in t = ln z with a max-shift so that z far above or
    # below 1 cannot overflow.
    def _shifted_terms(self, t: float) -> tuple[np.ndarray, float]:
        w, c = self._arrays
        expo = w * t
        shift = float(expo.max())
        return c * np.exp(expo - shift), shift

    def log_f(self, t: float) -> float:
        """ln f(e^t)."""
        terms, shift = self._shifted_terms(t)
        return shift + math.log(float(terms.sum()))

    def tilt_mean(self, t: float) -> float:
        """z f'(z)/f(z) at z = e^t: the mean weight under the z-tilt."""
        terms, _ = self._shifted_terms(t)
        w = self._arrays[0]
        tot = float(terms.sum())
        return float((w * terms).sum()) / tot

    def tilt_var(self, t: float) -> float:
        terms, _ = self._shifted_terms(t)
        w = self._arrays[0]
        tot = float(terms.sum())
        mean = float((w * terms).sum()) / tot
        return float((w * w * terms).sum()) / tot - mean * mean


@functools.lru_cache(maxsize=64)
def enumerator(q: int) -> WeightEnumerator:
    """Difference-weight enumerator of Z_q, built once per q."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    counts: dict[int, int] = {0: 1}
    for r in range(1, q):
        w = min(r * r, (q - r) * (q - r))
        counts[w] = counts.get(w, 0) + 1
    weights = tuple(sorted(counts))
    return WeightEnumerator(weights=weights, counts=tuple(counts[w] for w in weights), q=q)


def theta_enumerator(truncation: int) -> WeightEnumerator:
    """1 + 2*sum_{i=1..truncation} z^{i^2}, the integer theta series cut after
    ``truncation`` square terms."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    weights = (0,) + tuple(i * i for i in range(1, truncation + 1))
    counts = (1,) + (2,) * truncation
    return WeightEnumerator(weights=weights, counts=counts, q=0)


def ball_sizes(q: int, n: int, r: int) -> list[int]:
    """Exact numbers of words of Z_q^n with difference weight <= s, for
    s = 0 .. r (empty for r < 0).

    The coefficients g_k of g = f^n obey f g' = n f' g (J.C.P. Miller's
    power recurrence, Knuth TAOCP vol. 2, 4.7); with f_0 = 1 this reads

        k g_k = sum_{0 < w <= k} ((n+1) w - k) c_w g_{k-w},

    an exact integer division, so the counts cost O(r |W|) big-integer
    operations instead of O(n r |W|) for a coordinate-by-coordinate
    convolution, and one pass gives every radius.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        return []
    f = enumerator(q)
    cap = min(r, n * f.w_max)
    # (w, (n+1) w c_w, c_w) for the nonzero weights, in increasing w
    terms = [(w, (n + 1) * w * c, c) for w, c in zip(f.weights[1:], f.counts[1:])]
    g = [0] * (cap + 1)
    g[0] = 1
    for k in range(1, cap + 1):
        acc = 0
        for w, a, c in terms:
            if w > k:
                break
            acc += (a - k * c) * g[k - w]
        g[k] = acc // k
    sizes = list(itertools.accumulate(g))
    return sizes + sizes[-1:] * (r - cap)


def ball_size(q: int, n: int, r: int) -> int:
    """Exact number of words of Z_q^n with difference weight <= r: the last
    of :func:`ball_sizes`."""
    sizes = ball_sizes(q, n, r)
    return sizes[-1] if sizes else 0


@dataclass(frozen=True)
class SaddleSolution:
    """Root and growth exponent of the tilted-mean equation at a given
    normalized radius."""

    lam: float
    mu: float
    exponent: float
    clamped: bool
    residual: float


_BISECT_STEPS = 120
_NEWTON_STEPS = 10
_RESIDUAL_RTOL = 1e-14


def _solve_root(f: WeightEnumerator, lam: float) -> tuple[float, float]:
    """Positive root of z f'(z) = lam f(z), returned as (mu, relative residual).

    Bisection in t = ln z takes at most _BISECT_STEPS steps and stops at the
    first one that leaves the bracket unchanged: the next midpoint, and so
    every later step, would be the same, so the root is the one all
    _BISECT_STEPS steps give.  A Newton polish follows.

    The bracket starts at [ln 1e-30, 0], and each end moves out (t_lo
    doubling, t_hi by ln 2) only while the root lies beyond it, so a root
    inside the starting bracket comes out of the same bisection steps.
    """
    t_lo = math.log(1e-30)
    t_hi = 0.0
    guard = 0
    while f.tilt_mean(t_lo) >= lam:
        t_lo *= 2.0
        guard += 1
        if guard > 200:
            raise ConvergenceError(f"no bracket for lambda={lam!r}")
    while f.tilt_mean(t_hi) <= lam:
        t_hi += LN2
        guard += 1
        if guard > 200:
            raise ConvergenceError(f"no bracket for lambda={lam!r}")
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (t_lo + t_hi)
        bracket = (mid, t_hi) if f.tilt_mean(mid) < lam else (t_lo, mid)
        if bracket == (t_lo, t_hi):
            break  # every later step would repeat this one
        t_lo, t_hi = bracket
    t = 0.5 * (t_lo + t_hi)
    for _ in range(_NEWTON_STEPS):
        err = f.tilt_mean(t) - lam
        if abs(err) <= _RESIDUAL_RTOL * lam:
            break
        var = f.tilt_var(t)
        if var <= 0.0:
            break
        t -= err / var
    residual = abs(f.tilt_mean(t) - lam) / lam
    if residual > 1e-12:
        raise ConvergenceError(
            f"saddle root did not converge: lambda={lam!r}, residual={residual!r}"
        )
    return math.exp(t), residual


def saddle_solve(f: WeightEnumerator, lam: float) -> SaddleSolution:
    """Growth exponent log2 f(mu) - lam*log2 mu at normalized radius ``lam``.

    Valid for 0 < lam < w_max.  For a finite alphabet and lam at or above the
    mean weight f'(1)/f(1) the ball swallows almost all of Z_q^n, so the
    exponent is clamped to log2 q and the solution is flagged.
    """
    if not 0.0 < lam < f.w_max:
        raise ValueError(f"lambda must lie in (0, {f.w_max}), got {lam!r}")
    mu, residual = _solve_root(f, lam)
    t = math.log(mu)
    exponent = (f.log_f(t) - lam * t) / LN2
    clamped = False
    if f.q > 0 and lam >= f.mean_weight:
        exponent = math.log2(f.q)
        clamped = True
    return SaddleSolution(lam=lam, mu=mu, exponent=exponent, clamped=clamped, residual=residual)


def _required_truncation(lam: float) -> int:
    # mu < 1 always holds for the theta series; tail ~ 2 mu^{(M+1)^2}
    mu_guess = math.exp(-1.0 / (2.0 * lam)) if lam > 0 else 0.5
    m = 8
    while mu_guess ** ((m + 1) ** 2) > THETA_TAIL_RTOL and m < 4096:
        m *= 2
    return m


def theta_saddle(lam: float) -> SaddleSolution:
    """Saddle solution for the theta series, with an a-posteriori check that
    the dropped tail at mu is below 1e-18 of f(mu).

    The number of square terms kept starts at an estimate and doubles until
    the check holds.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam!r}")
    m = _required_truncation(lam)
    while True:
        f = theta_enumerator(m)
        sol = saddle_solve(f, lam)
        mu = sol.mu
        if mu >= 1.0:
            raise ConvergenceError(f"theta saddle left (0,1): mu={mu!r}")
        # geometric bound on sum_{i>m} 2 mu^{i^2}
        head = mu ** ((m + 1) ** 2)
        tail = 2.0 * head / (1.0 - mu ** (2 * m + 3))
        f_mu = math.exp(f.log_f(math.log(mu)))
        if tail <= THETA_TAIL_RTOL * f_mu:
            return sol
        while mu ** ((m + 1) ** 2) > THETA_TAIL_RTOL * f_mu / 4.0 and m < 65536:
            m *= 2


def continuum_exponent(lam: float) -> float:
    """(1/2) log2(2*pi*e*lambda): growth exponent of the Euclidean-ball volume."""
    return 0.5 * math.log2(2.0 * math.pi * math.e * lam)


def theta_defect(lam: float) -> float:
    """Gap (in bits) between the integer-ball exponent and the continuum
    exponent at normalized squared radius ``lam``; strictly positive and
    vanishing as ``lam`` grows."""
    return theta_saddle(lam).exponent - continuum_exponent(lam)


def theta_defect_leading(lam: float) -> float:
    """Leading Poisson-summation term of the integer-ball defect, in bits:
    2*exp(-2*pi^2*lambda)/ln 2."""
    return 2.0 * math.exp(-2.0 * math.pi * math.pi * lam) / LN2
