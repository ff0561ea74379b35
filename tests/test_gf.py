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


def test_prime_field_is_arithmetic_mod_p():
    F = gf.ExtField(5, 1)
    a, b = np.meshgrid(np.arange(5), np.arange(5))
    assert np.array_equal(F.add(a, b), (a + b) % 5)
    assert np.array_equal(F.mul(a, b), (a * b) % 5)


def test_gf2_builds():
    # the generator of GF(2)^* is 1, the one field whose primitive element is 1
    F = gf.ExtField(2, 1)
    assert F.generator == 1
    a, b = np.meshgrid(np.arange(2), np.arange(2))
    assert np.array_equal(F.add(a, b), (a + b) % 2)
    assert np.array_equal(F.mul(a, b), a * b)
    assert F.inv(1) == 1


@pytest.mark.parametrize("p,k", [(7, 2), (7, 4), (5, 3), (11, 2), (3, 5)])
def test_field_axioms(p, k):
    F = gf.ExtField(p, k)
    rng = np.random.default_rng(0)
    a, b, c = rng.integers(0, F.Q, size=(3, 500))
    assert np.array_equal(F.add(a, b), F.add(b, a))
    assert np.array_equal(F.mul(a, b), F.mul(b, a))
    assert np.array_equal(F.mul(a, F.mul(b, c)), F.mul(F.mul(a, b), c))
    assert np.array_equal(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)))
    nz = a[a != 0]
    assert np.all(F.mul(nz, F.inv(nz)) == 1)
    assert np.all(F.add(a, F.neg(a)) == 0)
    assert np.all(F.sub(a, a) == 0)
    # generator has full multiplicative order
    seen = set()
    x = 1
    for _ in range(F.Q - 1):
        seen.add(x)
        x = int(F.mul(x, F.generator))
    assert len(seen) == F.Q - 1


def _digit_sum(F, a, b):
    """Oracle: field addition as digit-wise addition mod p."""
    return F.from_digits((F.to_digits(a) + F.to_digits(b)) % F.p)


@pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (3, 5), (2, 8)])
def test_add_matches_digit_sum_on_all_pairs(p, k):
    F = gf.ExtField(p, k)
    a, b = np.meshgrid(np.arange(F.Q), np.arange(F.Q), indexing="ij")
    got = F.add(a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, _digit_sum(F, a, b))


@pytest.mark.parametrize("p,k", [(7, 4), (5, 6)])
def test_add_matches_digit_sum_on_random_pairs(p, k):
    F = gf.ExtField(p, k)
    rng = np.random.default_rng(7)
    a, b = rng.integers(0, F.Q, size=(2, 100_000))
    a[:100] = 0  # the zero cases of the Zech-log path
    b[50:150] = 0
    assert np.array_equal(F.add(a, b), _digit_sum(F, a, b))
    # broadcasting, as RS encoding uses it
    rows, col = a[:512].reshape(64, 8), b[:64, None]
    assert np.array_equal(F.add(rows, col), _digit_sum(F, rows, col))


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


def test_exp_table_is_the_generator_cycle():
    F = gf.ExtField(7, 4)
    mod = list(F.irreducible)
    g = [int(d) for d in F.to_digits(F.generator)]
    exp = F._exp
    for i in range(F.Q - 1):
        want = _mul_mod([int(d) for d in F.to_digits(exp[i])], g, mod, F.p)
        assert exp[i + 1] == F.from_digits(np.array(want)), i
    assert exp[0] == 1 and sorted(exp[: F.Q - 1]) == list(range(1, F.Q))
    assert np.array_equal(exp[F.Q - 1 :], exp[: F.Q - 1])
    assert F._log[0] == -1
    assert np.array_equal(F._log[exp[: F.Q - 1]], np.arange(F.Q - 1))


def _stepped_tables(F):
    """Oracle: exp, log and Zech tables with g^(i+1) = g^i * g, one power at a
    time by schoolbook products mod the irreducible."""
    p, k, mod, q = F.p, F.k, list(F.irreducible), F.Q
    g = [int(d) for d in F.to_digits(F.generator)]
    exp, acc = [], [1] + [0] * (k - 1)
    for _ in range(q - 1):
        exp.append(sum(c * p**i for i, c in enumerate(acc)))
        acc = _mul_mod(acc, g, mod, p)
    log = [-1] * q
    for i, v in enumerate(exp):
        log[v] = i
    # 1 + g^i adds one to the constant digit
    zech = [log[v - v % p + (v % p + 1) % p] for v in exp]
    return exp + exp, log, zech + zech


@pytest.mark.parametrize(
    "p,k", [(2, 1), (3, 2), (2, 5), (5, 2), (5, 3), (7, 4), (11, 4), (13, 3)]
)
def test_tables_match_one_power_at_a_time(p, k):
    F = gf.ExtField(p, k)
    exp, log, zech = _stepped_tables(F)
    for got, want in ((F._exp, exp), (F._log, log), (F._zech, zech)):
        assert got.dtype == np.int64
        assert got.tobytes() == np.array(want, dtype=np.int64).tobytes()


def test_generators_pinned():
    # smallest integer encodings of full order, as every earlier build chose
    pinned = {(7, 2): 9, (7, 4): 12, (5, 2): 6, (5, 3): 9, (11, 2): 15, (3, 5): 3,
              (2, 8): 3, (5, 6): 5}
    assert {pk: gf.ExtField(*pk).generator for pk in pinned} == pinned


def test_field_guards():
    with pytest.raises(ValueError):
        gf.ExtField(6, 2)
    with pytest.raises(ValueError):
        gf.ExtField(127, 3)  # table guard
    with pytest.raises(ZeroDivisionError):
        gf.ExtField(5, 2).inv(0)


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
    msgs = np.zeros((343, 4), dtype=np.int64)
    for i, (a, b, c) in enumerate(coefs):
        acc = np.zeros(4, dtype=np.int64)
        for coef, vec in zip((a, b, c), basis):
            scaled = F.mul(np.full(4, coef), vec)
            acc = F.add(acc, scaled)
        msgs[i] = acc
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
