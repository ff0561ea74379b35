import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecodes import counting
from spherecodes.counting import (
    ball_size,
    ball_sizes,
    enumerator,
    saddle_solve,
    theta_defect,
    theta_defect_leading,
    theta_enumerator,
    theta_saddle,
)

# frozen by an independent run of the renormalized DP oracle (see
# test_theta_exponent_against_dp_oracle below)
THETA_EXPONENT_AT_1 = 2.0470955928998746


def test_enumerator_examples():
    assert enumerator(5).coeffs() == {0: 1, 1: 2, 4: 2}
    assert enumerator(3).coeffs() == {0: 1, 1: 2}
    # even q: the lone antipodal residue q/2 carries weight (q/2)^2 once
    assert enumerator(4).coeffs() == {0: 1, 1: 2, 4: 1}
    assert enumerator(2).coeffs() == {0: 1, 1: 1}
    with pytest.raises(ValueError):
        enumerator(1)


@pytest.mark.parametrize("q", range(2, 14))
def test_enumerator_mass_and_symmetry(q):
    f = enumerator(q)
    assert f.mass == q
    coeffs = f.coeffs()
    assert coeffs[0] == 1
    for w, cnt in coeffs.items():
        if w == 0:
            continue
        if q % 2 == 0 and w == (q // 2) ** 2:
            assert cnt == 1
        else:
            assert cnt == 2


def test_ball_size_examples():
    assert ball_size(5, 1, 1) == 3
    assert ball_size(7, 3, 0) == 1
    assert ball_size(3, 4, 2) == 33


@pytest.mark.parametrize("q", range(2, 9))
@pytest.mark.parametrize("n", range(1, 4))
def test_ball_size_exhaustive(q, n):
    table = [min(r * r, (q - r) * (q - r)) for r in range(q)]
    weights = sorted(sum(table[r] for r in w) for w in itertools.product(range(q), repeat=n))
    for r in range(0, weights[-1] + 2):
        expected = sum(1 for w in weights if w <= r)
        assert ball_size(q, n, r) == expected


def _convolution_coefficients(q, n):
    """Oracle: the coefficients of f(z)^n by a coordinate-by-coordinate
    convolution DP."""
    f = enumerator(q)
    coeffs = [1]
    for _ in range(n):
        new = [0] * (len(coeffs) + f.w_max)
        for j, v in enumerate(coeffs):
            for w, c in zip(f.weights, f.counts):
                new[j + w] += v * c
        coeffs = new
    return coeffs


# odd and even q up to 12, n up to 30, each with every r through n*w_max + 2
_RECURRENCE_GRID = [(q, n) for q in range(2, 13) for n in (1, 2, 3, 4, 7, 12)] + [
    (q, 30) for q in range(2, 8)
]


@pytest.mark.parametrize("q,n", _RECURRENCE_GRID)
def test_ball_size_matches_convolution_oracle(q, n):
    coeffs = _convolution_coefficients(q, n)
    top = n * enumerator(q).w_max
    assert len(coeffs) == top + 1 and sum(coeffs) == q**n
    assert ball_size(q, n, -1) == 0
    for r in range(top + 3):
        assert ball_size(q, n, r) == sum(coeffs[: r + 1]), r


@pytest.mark.parametrize("q,n", [(2, 1), (3, 4), (5, 3), (6, 2), (8, 7), (11, 12), (4, 30)])
def test_ball_sizes_match_ball_size_radius_by_radius(q, n):
    # through n * w_max + 3, past the radius where the ball is all of Z_q^n
    top = n * enumerator(q).w_max + 3
    assert ball_sizes(q, n, top) == [ball_size(q, n, r) for r in range(top + 1)]
    assert ball_sizes(q, n, -1) == [] and ball_sizes(q, n, 0) == [1]


def test_ball_size_binary_is_partial_binomial_sum():
    n = 3000
    partial = [0]
    for j in range(n + 1):
        partial.append(partial[-1] + math.comb(n, j))
    for r in (0, 1, 2, 17, 1499, 1500, 1501, 2999, 3000, 3001):
        assert ball_size(2, n, r) == partial[min(r, n) + 1], r


def test_ball_size_monotone_and_saturates():
    prev = 0
    for r in range(0, 30):
        v = ball_size(5, 3, r)
        assert v >= prev
        prev = v
    c_max = 3 * 4  # n * a_int for q = 5
    assert ball_size(5, 3, c_max) == 5**3
    for q in range(2, 8):
        assert ball_size(q + 1, 2, 5) >= ball_size(q, 2, 5)


def test_saddle_closed_forms():
    sol = saddle_solve(enumerator(3), 0.5)
    assert sol.mu == pytest.approx(0.5, abs=1e-13)
    assert sol.exponent == pytest.approx(1.5, abs=1e-12)
    assert not sol.clamped
    sol5 = saddle_solve(enumerator(5), 1.0)
    assert sol5.mu == pytest.approx(6.0 ** -0.25, abs=1e-13)
    tiny = saddle_solve(enumerator(5), 1e-9)
    assert tiny.exponent < 1e-6


def test_saddle_clamps_at_mean_weight():
    f = enumerator(3)  # mean weight 2/3
    sol = saddle_solve(f, 0.9)
    assert sol.clamped
    assert sol.exponent == pytest.approx(math.log2(3), abs=0)
    below = saddle_solve(f, 0.6)
    assert not below.clamped
    assert below.exponent < math.log2(3)


def test_saddle_domain_errors():
    f = enumerator(3)
    for lam in (0.0, -1.0, 1.0, 2.0):  # w_max = 1 for q = 3
        with pytest.raises(ValueError):
            saddle_solve(f, lam)


@given(
    q=st.integers(3, 12),
    frac=st.floats(0.01, 0.99),
)
@settings(max_examples=60, deadline=None)
def test_saddle_residual_and_uniqueness(q, frac):
    f = enumerator(q)
    lam = frac * f.w_max
    sol = saddle_solve(f, lam)
    assert sol.residual <= 1e-12
    t = math.log(sol.mu)
    # the tilted mean is strictly increasing: probe both sides
    assert f.tilt_mean(t - math.log(2.0)) < lam < f.tilt_mean(t + math.log(2.0))
    # exponent stays within [0, log2 q]
    assert -1e-12 <= sol.exponent <= math.log2(q) + 1e-12


def test_theta_matches_large_alphabet():
    t = theta_saddle(0.5)
    s = saddle_solve(enumerator(101), 0.5)
    assert t.mu == pytest.approx(s.mu, abs=1e-12)
    assert t.exponent == pytest.approx(s.exponent, abs=1e-12)


def test_theta_small_lambda_limit():
    assert theta_saddle(1e-10).exponent < 1e-7


def test_theta_exponent_regression():
    assert theta_saddle(1.0).exponent == pytest.approx(THETA_EXPONENT_AT_1, abs=1e-11)


def test_theta_exponent_against_dp_oracle():
    # independent oracle: renormalized convolution DP for the ball count of
    # Z_q^n with q = 2n + 3 (no wrap-around at radius n), n = 2000
    n = 2000
    lam = 1.0
    r = int(lam * n)
    q = 2 * r + 3  # large enough that no residue wraps at radius r
    f = enumerator(q)
    coeffs = np.zeros(r + 1)
    coeffs[0] = 1.0
    log_scale = 0.0
    pairs = [(w, c) for w, c in zip(f.weights, f.counts) if w <= r]
    for _ in range(n):
        new = np.zeros(r + 1)
        for w, c in pairs:
            new[w:] += c * coeffs[: r + 1 - w]
        top = new.max()
        log_scale += math.log(top)
        coeffs = new / top
    total = float(coeffs.sum())
    dp_exponent = (log_scale + math.log(total)) / (n * math.log(2.0))
    assert theta_saddle(lam).exponent == pytest.approx(dp_exponent, abs=0.02)


def test_theta_defect_positive_and_tiny():
    lead = theta_defect_leading(1.0)
    d1 = theta_defect(1.0)
    assert abs(d1 - lead) <= 1e-11
    assert theta_defect(0.5) > theta_defect(0.75) > d1 > theta_defect(1.25) > -1e-12


def test_theta_enumerator_shape():
    f = theta_enumerator(5)
    assert f.weights == (0, 1, 4, 9, 16, 25)
    assert f.counts == (1, 2, 2, 2, 2, 2)
    assert f.q == 0
    with pytest.raises(ValueError):
        theta_enumerator(0)


def test_big_n_dp_is_exact():
    v = ball_size(3, 2000, 1000)
    # partial binomial-with-factor sum: independent recomputation
    total = 0
    binom = 1
    for j in range(0, 1001):
        total += binom << j  # C(2000, j) * 2^j
        binom = binom * (2000 - j) // (j + 1)
    assert v == total


def _tilt_oracle(f, t, power):
    # the tilted moment sum_w w^power c_w z^w / f(z), z = e^t, with the weight
    # and count arrays built afresh on every call
    w = np.asarray(f.weights, dtype=np.float64)
    c = np.asarray(f.counts, dtype=np.float64)
    expo = w * t
    terms = c * np.exp(expo - float(expo.max()))
    return float((w**power * terms).sum()) / float(terms.sum())


def _solve_root_oracle(f, lam):
    # the root finder with all 120 bisection steps run
    t_lo, t_hi = math.log(1e-30), 0.0
    while _tilt_oracle(f, t_hi, 1) <= lam:
        t_hi += counting.LN2
    for _ in range(120):
        mid = 0.5 * (t_lo + t_hi)
        if _tilt_oracle(f, mid, 1) < lam:
            t_lo = mid
        else:
            t_hi = mid
    t = 0.5 * (t_lo + t_hi)
    for _ in range(10):
        err = _tilt_oracle(f, t, 1) - lam
        if abs(err) <= 1e-14 * lam:
            break
        mean = _tilt_oracle(f, t, 1)
        var = float(_tilt_oracle(f, t, 2)) - mean * mean
        if var <= 0.0:
            break
        t -= err / var
    return math.exp(t), abs(_tilt_oracle(f, t, 1) - lam) / lam


@pytest.mark.parametrize(
    "f",
    [enumerator(q) for q in (2, 3, 4, 5, 7, 8, 13, 31)]
    + [theta_enumerator(m) for m in (8, 64, 512)],
    ids=lambda f: f"q{f.q}-w{f.w_max}",
)
def test_solve_root_is_bit_identical_to_full_bisection(f):
    for frac in (1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999999):
        lam = frac * f.w_max
        assert counting._solve_root(f, lam) == _solve_root_oracle(f, lam)


def test_solve_root_pinned():
    # roots inside the starting bracket [ln 1e-30, 0] keep their bits
    f = enumerator(7)
    assert counting._solve_root(f, 0.5) == (0.36861949290416257, 0.0)
    assert counting._solve_root(f, 1e-9) == (5.000000005000012e-10, 2.274746684520826e-15)


@pytest.mark.parametrize("lam", [1e-31, 1e-100, 1e-300])
def test_solve_root_below_the_starting_bracket(lam):
    f = enumerator(7)
    assert f.tilt_mean(math.log(1e-30)) >= lam
    mu, residual = counting._solve_root(f, lam)
    assert residual <= 1e-12
    assert 0.0 < mu < 1e-30
