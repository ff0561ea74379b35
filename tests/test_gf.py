import itertools
import random

import numpy as np
import pytest

from spherecodes import gf


def test_primality_basics():
    assert gf.is_probable_prime(7)
    assert not gf.is_probable_prime(9)
    assert not gf.is_probable_prime(1)
    assert gf.is_probable_prime(2)
    # Carmichael numbers must not fool the test
    for n in (561, 1105, 1729, 41041):
        assert not gf.is_probable_prime(n)
    assert gf.is_probable_prime(2**127 - 1)
    assert not gf.is_probable_prime((2**127 - 1) * 3)


def test_primality_huge_uses_seeded_bases():
    p = gf._MR_DETERMINISTIC_LIMIT | 1
    while not gf.is_probable_prime(p, rounds=8, seed=0):
        p += 2
    # verdicts are reproducible for a fixed seed
    assert gf.is_probable_prime(p, rounds=8, seed=0)
    assert gf.is_probable_prime(p, rounds=8, seed=123)


def test_smallest_primitive_root():
    assert gf.smallest_primitive_root(5) == 2
    assert gf.smallest_primitive_root(7) == 3
    assert gf.smallest_primitive_root(11) == 2
    assert gf.smallest_primitive_root(13) == 2
    with pytest.raises(ValueError):
        gf.smallest_primitive_root(8)


def test_factorize():
    assert gf.factorize(2400) == {2: 5, 3: 1, 5: 2}
    assert gf.factorize(97) == {97: 1}


def test_irreducible_search():
    coeffs = gf.find_irreducible(7, 4)
    assert len(coeffs) == 5 and coeffs[-1] == 1
    assert gf.is_irreducible(list(coeffs), 7)
    # z^2 + 1 is irreducible over GF(7) (-1 is not a QR mod 7)
    assert gf.is_irreducible([1, 0, 1], 7)
    # z^2 - 2 is reducible over GF(7) (3^2 = 2)
    assert not gf.is_irreducible([-2 % 7, 0, 1], 7)


def _mobius(n):
    f = gf.factorize(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


# k = 6 stays in the grid: a test that checks only Z^(p^(k/l)) != Z in place
# of the unit test first goes wrong there, over GF(2) and GF(3)
@pytest.mark.parametrize(
    "p,k",
    [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 7)]
    + [(5, k) for k in range(1, 4)] + [(7, 1), (7, 2), (11, 1), (11, 2)],
)
def test_irreducible_count_is_gauss_formula(p, k):
    # monic irreducibles of degree k over GF(p): (1/k) sum_{d | k} mu(d) p^(k/d)
    want = sum(_mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    got = sum(
        gf.is_irreducible([m // p**i % p for i in range(k)] + [1], p) for m in range(p**k)
    )
    assert got == want


def test_zero_leading_coefficient_raises():
    with pytest.raises(ValueError, match="leading coefficient"):
        gf.is_irreducible([1, 1, 0], 7)
    with pytest.raises(ValueError, match="leading coefficient"):
        gf.is_irreducible([1, 0, 7], 7)
    # int64 matrix products would overflow: refused rather than wrong
    with pytest.raises(ValueError, match="overflow"):
        gf.is_irreducible([1, 0, 1], 2**32 + 15)


@pytest.mark.parametrize("p", [4, 6, 9])
def test_irreducible_needs_a_prime_p(p):
    # Z/p is no field: over Z/4, [1, 0, 2] once hit a non-invertible leading
    # coefficient inside the test and [1, 0, 1] got the verdict False
    for coeffs in ([1, 0, 2], [1, 0, 1], [1, 1]):
        with pytest.raises(ValueError, match=f"prime, got {p}"):
            gf.is_irreducible(coeffs, p)


@pytest.mark.parametrize("coeffs,monic,irreducible", [
    ([3, 0, 2], [5, 0, 1], False),  # 2 (z^2 - 2), and 3^2 = 2 mod 7
    ([2, 0, 2], [1, 0, 1], True),  # 2 (z^2 + 1)
    ([3, 6, 0, 3], [1, 2, 0, 1], True),  # 3 (z^3 + 2z + 1), no root mod 7
])
def test_non_monic_modulus_gets_its_monic_verdict(coeffs, monic, irreducible):
    assert gf.is_irreducible(coeffs, 7) == gf.is_irreducible(monic, 7) == irreducible


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_degree_one_modulus_is_irreducible(p):
    # the matrix of multiplication by z modulo z + c is the 1 x 1 matrix [-c]
    assert gf.find_irreducible(p, 1) == (0, 1)
    assert all(gf.is_irreducible([c, 1], p) for c in range(p))


def _product(F, a, b):
    """a b in GF(p^k), through the matrix of a acting on the digits of b."""
    return int(F.from_digits(F.to_digits(b) @ F.matrix(a) % F.p))


def test_prime_field_is_arithmetic_mod_p():
    F = gf.ExtField(5, 1)
    for a in range(5):
        assert F.matrix(a).tolist() == [[a]]
        assert [_product(F, a, b) for b in range(5)] == [a * b % 5 for b in range(5)]


def test_gf2_builds():
    F = gf.ExtField(2, 1)
    assert (F.Q, F.irreducible) == (2, (0, 1))
    assert [F.matrix(a).tolist() for a in (0, 1)] == [[[0]], [[1]]]


@pytest.mark.parametrize("p,k", [(7, 2), (7, 4), (5, 3), (11, 2), (3, 5)])
def test_field_axioms(p, k):
    F = gf.ExtField(p, k)
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, F.Q, size=(2, 200))
    a[:3] = [0, 1, 0]
    for x, y in zip(a.tolist(), b.tolist()):
        mx, my = F.matrix(x), F.matrix(y)
        # products commute and are the matrix of the product element
        assert np.array_equal(mx @ my % p, my @ mx % p)
        assert np.array_equal(mx @ my % p, F.matrix(_product(F, x, y)))
        # the map is additive digit by digit
        digit_sum = int(F.from_digits((F.to_digits(x) + F.to_digits(y)) % p))
        assert np.array_equal((mx + my) % p, F.matrix(digit_sum))
        # every nonzero element is invertible
        assert gf._is_unit(mx, p) == (x != 0)
    assert np.array_equal(F.matrix(1), np.eye(k, dtype=np.int64))


def _mul_mod(a, b, mod, p):
    """Oracle: schoolbook product of two k-digit lists (ascending) with long
    division by the monic ``mod`` of degree k, written apart from the field
    build."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    k = len(mod) - 1
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        for j, mj in enumerate(mod):
            prod[top - k + j] -= c * mj
    return [c % p for c in prod[:k]]


def _py_digits(a, p, k):
    return [a // p**i % p for i in range(k)]


@pytest.mark.parametrize(
    "p,k", [(2, 1), (3, 2), (2, 5), (5, 2), (5, 3), (7, 4), (11, 4), (13, 3)]
)
def test_matrix_matches_schoolbook_product(p, k):
    F = gf.ExtField(p, k)
    mod = list(F.irreducible)
    pairs = np.random.default_rng(1).integers(0, F.Q, size=(300, 2)).tolist()
    for a, b in pairs if F.Q > 17 else np.ndindex(F.Q, F.Q):
        want = _mul_mod(_py_digits(a, p, k), _py_digits(b, p, k), mod, p)
        assert (F.to_digits(b) @ F.matrix(a) % p).tolist() == want


def test_field_guards():
    with pytest.raises(ValueError):
        gf.ExtField(6, 2)
    # no table guard: GF(127^3) builds, and its elements act as matrices
    F = gf.ExtField(127, 3)
    assert F.Q == 127**3 and gf._is_unit(F.matrix(F.Q - 1), 127)
    for bad in (-1, F.Q):
        with pytest.raises(ValueError, match="outside"):
            F.matrix(bad)
    # int64 matrix products would overflow: refused rather than wrong
    with pytest.raises(ValueError, match="overflow int64"):
        gf._companion([1, 0, 1], 2**32 + 15)


def test_digit_roundtrip():
    F = gf.ExtField(7, 4)
    v = np.arange(F.Q)
    assert np.array_equal(F.from_digits(F.to_digits(v)), v)


def test_rs_distance_is_mds():
    F = gf.ExtField(7, 4)
    rs = gf.RSCode(F, 8, 4)
    assert rs.distance == 5
    # a message polynomial vanishing at eval points 0, 1, 2 gives a weight-5
    # codeword, so the MDS distance is attained exactly
    msg = np.array([[0, 2, 4, 1]])  # z(z-1)(z-2) over the GF(7) subfield
    cw = rs.encode(msg)[0]
    assert int((cw != 0).sum()) == 5
    # random sampling never goes below the MDS distance
    rng = np.random.default_rng(3)
    m = rng.integers(0, F.Q, size=(2000, 4))
    w = rs.encode(m)
    ref = rs.encode(rng.integers(0, F.Q, size=(2000, 4)))
    diff_weight = (w != ref).sum(axis=1)
    diff_weight = diff_weight[diff_weight > 0]
    assert diff_weight.min() >= 5


def test_rs_subcode_exhaustive():
    # GF(p)-span of three independent messages: 343 codewords, all pairwise
    # Hamming distances at least the MDS floor
    F = gf.ExtField(7, 4)
    rs = gf.RSCode(F, 8, 4)
    basis = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 7, 0]])
    coefs = np.array(np.meshgrid(range(7), range(7), range(7))).T.reshape(-1, 3)
    # scalars of GF(7) scale every digit
    msgs = F.from_digits(np.tensordot(coefs, F.to_digits(basis), 1) % 7)
    words = rs.encode(msgs)
    m = words.shape[0]
    dmin = min(
        int((words[i] != words[j]).sum()) for i in range(m - 1) for j in range(i + 1, m)
    )
    assert dmin >= 5


def test_rs_degenerate_cases():
    F = gf.ExtField(5, 2)
    assert gf.RSCode(F, 6, 6).distance == 1
    assert gf.RSCode(F, 6, 1).distance == 6
    rep = gf.RSCode(F, 6, 1)
    cw = rep.encode(np.array([[9]]))[0]
    assert np.all(cw == 9)  # constant polynomial: repetition
    with pytest.raises(ValueError):
        gf.RSCode(F, 26, 2)
    with pytest.raises(ValueError):
        gf.RSCode(F, 4, 5)


def test_rs_encode_rejects_symbols_outside_the_field():
    F = gf.ExtField(7, 2)
    rs = gf.RSCode(F, 5, 2)
    for bad in ([[-1, 3]], [[49, 3]], [[0, 3], [3, 49]]):
        with pytest.raises(ValueError, match=r"\[0, 49\)"):
            rs.encode(bad)
    # in-range output is unchanged (pinned from the build before the check),
    # both ends of the range included
    got = rs.encode([[0, 3], [48, 3], [48, 48], [0, 0]])
    assert got.tolist() == [[0, 3, 6, 2, 5], [48, 44, 47, 43, 46],
                            [48, 40, 32, 24, 16], [0, 0, 0, 0, 0]]
    assert rs.encode(np.zeros((0, 2), dtype=np.int64)).shape == (0, 5)


def _horner(F, message, n_out):
    """Oracle: the RS codeword of ``message`` as digit lists, one per point
    x = 0 .. n_out-1, by Horner's rule in schoolbook products mod the
    irreducible, in Python ints throughout."""
    p, k, mod = F.p, F.k, list(F.irreducible)
    word = []
    for x in range(n_out):
        acc = [0] * k
        for coef in reversed(message):
            acc = _mul_mod(acc, _py_digits(x, p, k), mod, p)
            acc = [(u + v) % p for u, v in zip(acc, _py_digits(coef, p, k))]
        word.append(acc)
    return word


@pytest.mark.parametrize(
    "p,k,n_out,k_out", [(7, 4, 8, 4), (7, 4, 24, 3), (3, 5, 40, 7), (5, 1, 4, 2)]
)
def test_rs_generator_matches_horner_oracle(p, k, n_out, k_out):
    F = gf.ExtField(p, k)
    rs = gf.RSCode(F, n_out, k_out)
    # row i k + l: the message whose one nonzero digit is digit l of symbol i
    want = [
        sum(_horner(F, [p**l if s == i else 0 for s in range(k_out)], n_out), [])
        for i in range(k_out)
        for l in range(k)
    ]
    assert rs.generator().tolist() == want
    msgs = np.random.default_rng(2).integers(0, F.Q, size=(50, k_out)).tolist()
    want = [[sum(d * p**i for i, d in enumerate(s)) for s in _horner(F, m, n_out)] for m in msgs]
    assert rs.encode(msgs).tolist() == want


@pytest.mark.parametrize("p,k,n_out,k_out", [(13, 10, 16, 8), (31, 27, 36, 3)])
def test_rs_generator_matches_horner_oracle_on_digits(p, k, n_out, k_out):
    # GF(31^27) has more than 2^63 elements: only digits meet numpy.  Both
    # codes reach points past the prime field, whose matrices are not scalar
    F = gf.ExtField(p, k)
    gen = gf.RSCode(F, n_out, k_out).generator()
    rng = random.Random(3)
    for _ in range(10):
        msg = [rng.randrange(F.Q) for _ in range(k_out)]
        digits = np.array([d for s in msg for d in _py_digits(s, p, k)])
        assert (digits @ gen % p).tolist() == sum(_horner(F, msg, n_out), [])


@pytest.mark.parametrize("p,k,n_out,k_out", [(3, 2, 7, 3), (5, 1, 5, 2), (2, 3, 8, 2)])
def test_rs_is_mds_by_enumeration(p, k, n_out, k_out):
    F = gf.ExtField(p, k)
    rs = gf.RSCode(F, n_out, k_out)
    words = rs.encode(list(itertools.product(range(F.Q), repeat=k_out)))
    assert len(set(map(tuple, words.tolist()))) == F.Q**k_out
    # a linear code: the least nonzero weight is the minimum distance
    weights = (words != 0).sum(axis=1)
    assert weights[0] == 0 and weights[1:].min() == rs.distance == n_out - k_out + 1


def test_rs_encode_refuses_what_int64_cannot_hold():
    # GF(31^27): the generator builds, integer-encoded symbols cannot
    rs = gf.RSCode(gf.ExtField(31, 27), 64, 16)
    assert rs.generator().shape == (16 * 27, 64 * 27)
    with pytest.raises(ValueError, match=r"2\^63"):
        rs.encode(np.zeros((1, 16), dtype=np.int64))
    # GF(2^31 - 1): three products of (p-1)^2 overflow int64, two do not
    F = gf.ExtField(2**31 - 1, 1)
    # -1 - x at x = 0, 1, 2
    assert gf.RSCode(F, 3, 2).encode([[F.Q - 1, F.Q - 1]]).tolist() == [[F.Q - 1, F.Q - 2, F.Q - 3]]
    with pytest.raises(ValueError, match=r"2\^63"):
        gf.RSCode(F, 3, 3).encode([[1, 1, 1]])
