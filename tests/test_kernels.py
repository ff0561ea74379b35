import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecodes import codes, euclid, kernels


def _min_sq_dist_oracle(points):
    # every pair of rows, summed coordinate by coordinate in plain Python
    best = float("inf")
    for i, u in enumerate(points):
        for v in points[i + 1 :]:
            best = min(best, sum((a - b) ** 2 for a, b in zip(u, v)))
    return best


def test_backend_name():
    assert kernels.backend() == "numpy"


@pytest.mark.parametrize("q,n", [(2, 1), (2, 5), (3, 4), (7, 2)])
def test_digits_lists_the_words_in_lexicographic_order(q, n):
    words = kernels.digits(np.arange(q**n), q, n)
    assert words.tolist() == [list(w) for w in itertools.product(range(q), repeat=n)]
    idx = np.array([q**n - 1, 0, 1])
    assert np.array_equal(kernels.digits(idx, q, n), words[idx])
    assert kernels.digits(np.arange(0), q, n).shape == (0, n)


def test_shifted_generator_rows_are_shifts_of_g():
    gen = kernels.shifted_generator((3, 0, 1), 4, 6)
    assert gen.tolist() == [
        [3, 0, 1, 0, 0, 0],
        [0, 3, 0, 1, 0, 0],
        [0, 0, 3, 0, 1, 0],
        [0, 0, 0, 3, 0, 1],
    ]


# budgets 1 and 9 give tiles of side 1 and 3, so the scan crosses tile
# boundaries on and off the diagonal; 10**6 gives tiles of side 1000
BUDGETS = (1, 9, 10**6)


@pytest.mark.parametrize("m", [2, 3, 60, 300])
@pytest.mark.parametrize("dim", [1, 7, 49])
def test_min_sq_dist_real_matches_double_loop(monkeypatch, m, dim):
    rng = np.random.default_rng(m * dim)
    pts = rng.normal(size=(m, dim))
    ints = rng.integers(-5, 6, size=(m, dim)).astype(np.float64)
    perm = rng.permutation(m)
    expect = _min_sq_dist_oracle(pts.tolist())
    expect_int = _min_sq_dist_oracle(ints.tolist())
    for budget in BUDGETS:
        monkeypatch.setattr(kernels, "_block_rows", lambda m_, n_: budget)
        assert kernels.min_sq_dist_real(pts) == pytest.approx(expect, rel=1e-12)
        assert kernels.min_sq_dist_real(pts[perm]) == pytest.approx(expect, rel=1e-12)
        # integer-valued coordinates make every sum exact
        assert kernels.min_sq_dist_real(ints) == expect_int
        assert kernels.min_sq_dist_real(ints[perm]) == expect_int
        dup = np.vstack([pts, pts[m // 2]])  # a duplicate row: distance 0
        assert kernels.min_sq_dist_real(dup) == 0.0


# Exact cases.  With at most two coordinates every order of summation rounds
# alike, so the kernel must return the oracle's float bit for bit.


@pytest.mark.parametrize("budget", BUDGETS)
def test_min_sq_dist_real_separates_one_ulp(monkeypatch, budget):
    # squared distances 2^52 + 1 and 2^52, one ulp apart and both exact; the
    # Gram estimate of the far pair reads 2^52 + 32768, above the near pair's
    monkeypatch.setattr(kernels, "_block_rows", lambda m_, n_: budget)
    x, y = 5159732053, 8101926413
    pts = np.array([[0, 0], [2**26, 1], [x, y], [x + 2**26, y]], dtype=np.float64)
    assert kernels.min_sq_dist_real(pts[:2]) == 2.0**52 + 1
    for order in ([0, 1, 2, 3], [2, 3, 0, 1], [3, 0, 2, 1]):
        assert kernels.min_sq_dist_real(pts[order]) == 2.0**52


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("dim", [1, 2])
def test_min_sq_dist_real_exact_under_cancellation(monkeypatch, budget, dim):
    # |u|^2 is about 1e12 and |u - v|^2 about 1e-6: the Gram estimate keeps
    # no correct digit, so every pair is re-measured
    monkeypatch.setattr(kernels, "_block_rows", lambda m_, n_: budget)
    rng = np.random.default_rng(dim)
    pts = 1e6 + 1e-3 * rng.normal(size=(80, dim))
    assert kernels.min_sq_dist_real(pts) == _min_sq_dist_oracle(pts.tolist())


def _direct_min(points):
    # the direct formula on every pair at once, summed as the kernel sums
    i, j = np.triu_indices(len(points), 1)
    d = points[i] - points[j]
    return float(np.einsum("ij,ij->i", d, d).min())


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_min_sq_dist_real_exact_for_near_coincident_points(monkeypatch, budget, seed):
    # 30 points within about 1e-7 of a common point of R^1000: the Gram
    # estimates err by more than the distances differ, and a slack of
    # 8 u max|x|^2 in place of the derived bound misses the minimum here
    monkeypatch.setattr(kernels, "_block_rows", lambda m_, n_: budget)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=1000) + 3e-9 * rng.normal(size=(30, 1000))
    got = kernels.min_sq_dist_real(pts)
    assert got == _direct_min(pts)
    assert got == pytest.approx(_min_sq_dist_oracle(pts.tolist()), rel=1e-12)


def test_min_sq_dist_real_candidates_stay_within_a_tile(monkeypatch):
    # 500 equal rows: every pair is a candidate.  Re-measured one tile of
    # side 100 at a time, the scan holds a few arrays of 100^2 x dim floats,
    # where all 125,250 pairs at once would take 64 MB.
    monkeypatch.setattr(kernels, "_block_rows", lambda m_, n_: 100**2)
    dim = 64
    rng = np.random.default_rng(0)
    pts = np.vstack([np.repeat(rng.normal(size=(1, dim)), 500, axis=0), np.full((1, dim), 9.0)])
    tracemalloc.start()
    try:
        assert kernels.min_sq_dist_real(pts) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 100**2 * dim * 8
    assert kernels.min_sq_dist_real(pts[-2:]) == _min_sq_dist_oracle(pts[-2:].tolist())


def test_min_sq_dist_real_rejects_overflowing_norms():
    with pytest.raises(ValueError, match="overflow"):
        kernels.min_sq_dist_real(np.array([[1e160, 0.0], [1e160, 1.0]]))


# -- translate check ------------------------------------------------------------


def _symmetric(q, half):
    # table[r] == table[-r mod q], with table[0] == 0
    return np.array([0] + [half[min(r, q - r) - 1] for r in range(1, q)])


def _min_dist_oracle(words, table, q):
    # every pair of rows, weighed residue by residue in plain Python
    best = math.inf
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            best = min(best, sum(table[(a - b) % q] for a, b in zip(u, v)))
    return best


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_far_apart_matches_the_pairwise_scan_property(data):
    # random word subsets of Z_q^n (repeats included), random d and random
    # symmetric tables, zero entries included; small alphabets and large ones
    q = data.draw(st.sampled_from([2, 3, 4, 5, 6, 20, 33, 300]))
    n = data.draw(st.integers(1, int(math.log(4096) / math.log(q) + 1e-9)))
    half = data.draw(st.lists(st.integers(0, 6), min_size=q // 2, max_size=q // 2))
    table = _symmetric(q, half)
    index = data.draw(st.lists(st.integers(0, q**n - 1), max_size=60))
    if data.draw(st.booleans()) and index:
        index.append(index[0])
    words = kernels.digits(np.array(index, dtype=np.int64), q, n)
    d = data.draw(st.integers(0, n * 6 + 1))
    far, looked = kernels.far_apart(words, q, table, d)
    assert far == (_min_dist_oracle(words.tolist(), table.tolist(), q) >= d)
    assert looked >= 0


# q, n and symmetric tables, with zero entries (offsets of weight 0) in the
# last three
@pytest.mark.parametrize(
    "q,n,table",
    [(5, 3, [0, 1, 4, 4, 1]), (3, 4, [0, 1, 1]), (5, 3, [0, 0, 2, 2, 0]),
     (6, 3, [0, 0, 1, 3, 1, 0]), (4, 4, [0, 1, 0, 1])],
)
def test_far_apart_matches_the_pairwise_scan_on_greedy_prefixes(q, n, table):
    # with K offsets of weight <= d-1, sets of K, 2 K and 2 K + 1 words, each
    # a prefix of a greedy set at distance d (far apart) or d - 1 (most fail
    # at d), with and without a repeated word, or drawn at random
    table = np.array(table)
    weights = kernels._offsets(q, n, tuple(table.tolist()))[0]
    rng = np.random.default_rng(q * n)
    seen = set()
    for d in range(1, n * int(table.max()) + 2):
        size = int(weights.searchsorted(d - 1, side="right"))  # K
        for m in {max(k, 2) for k in (size, 2 * size, 2 * size + 1)}:
            sets = []
            for dd in (d, d - 1):
                greedy = kernels.greedy_lex(q, n, max(dd, 1), table)[:m]
                sets += [greedy, np.vstack([greedy[: m - 1], greedy[:1]])]
            sets.append(kernels.digits(rng.integers(0, q**n, size=m), q, n))
            for words in sets:
                far, looked = kernels.far_apart(words, q, table, d)
                assert far == (_min_dist_oracle(words.tolist(), table.tolist(), q) >= d)
                assert looked == words.shape[0] * size if far else looked <= words.shape[0] * size
                seen.add(far)
    assert seen == {True, False}


@pytest.mark.parametrize("budget", [1, 12, 1 << 20])
def test_far_apart_stops_at_the_block_that_meets_the_set(monkeypatch, budget):
    # d = 2 looks up the 4 unit offsets +e_j of each word, in blocks of one
    # word (budget 1), of three (12) or of all of them
    monkeypatch.setattr(kernels, "SWEEP_BUDGET", budget)
    q, n = 5, 4
    table = _symmetric(q, [1, 4])
    words = kernels.greedy_lex(q, n, 3, table)
    m = words.shape[0]
    assert kernels.far_apart(words, q, table, 3)[0]
    assert kernels.far_apart(words, q, table, 2) == (True, 4 * m)
    close = np.vstack([words, words[-1]])
    close[-1, 0] = (close[-1, 0] + 1) % q  # the last word plus e_0
    assert kernels.min_dist_words(close, table, q) == 1
    far, looked = kernels.far_apart(close, q, table, 2)
    assert not far
    # the block of word m - 1 is the first to meet the set
    assert looked == {1: 4 * m, 1 << 20: 4 * (m + 1)}.get(budget, looked)
    assert 4 * m <= looked <= 4 * (m + 1)
    assert kernels.far_apart(close, q, table, 1) == (True, 0)


def test_far_apart_agrees_on_every_gilbert_set():
    # the 210 sets of the gilbert criterion, at d (all far apart) and at
    # d + 1 (some not)
    closer = 0
    for q in range(2, 6):
        c = euclid.constellation(q)
        for n in range(1, 7):
            for d in range(1, n * c.a_int + 1):
                words = codes.greedy_gilbert(q, n, d)
                if words.shape[0] < 2:
                    continue
                least = kernels.min_dist_words(words, c.euclid_table, q)
                for dd in (d, d + 1):
                    assert kernels.far_apart(words, q, c.euclid_table, dd)[0] == (least >= dd)
                closer += least < d + 1
    assert closer > 0


def test_far_apart_memory_stays_near_the_word_space():
    # 50 words of Z_40^3: a translate table of its high halves would hold
    # 1600^2 indices (20 MB); the translates are summed from digits
    q, n = 40, 3
    table = euclid.constellation(q).euclid_table
    words = np.unique(np.random.default_rng(0).integers(0, q, size=(50, n)), axis=0)
    assert kernels.min_dist_words(words, table, q) == 6
    kernels._offsets.cache_clear()  # the traced calls list the offsets
    tracemalloc.start()
    try:
        verdicts = [kernels.far_apart(words, q, table, d)[0] for d in (3, 6, 7)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdicts == [True, True, False]
    assert peak <= 4 * 2**20


def test_far_apart_rejects_an_asymmetric_table():
    words = np.array([[0, 0], [1, 2]])
    with pytest.raises(ValueError, match="table\\[-r mod q\\]"):
        kernels.far_apart(words, 5, np.array([0, 1, 4, 2, 3]), 2)


def test_far_apart_without_a_pair():
    table = _symmetric(3, [1])
    assert kernels.far_apart(np.zeros((0, 3), dtype=np.int64), 3, table, 5) == (True, 0)
    assert kernels.far_apart(np.array([[1, 2, 0]]), 3, table, 5)[0]
