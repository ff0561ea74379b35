import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecodes import codes, counting, euclid, gf, kernels


def test_primality_check_surface():
    assert codes.primality_check(7)
    assert not codes.primality_check(9)
    with pytest.raises(ValueError):
        codes.primality_check(4)


# -- greedy Gilbert -----------------------------------------------------------


def test_greedy_trivial_distance_keeps_everything():
    words = codes.greedy_gilbert(2, 3, 1)
    assert words.shape == (8, 3)


def test_greedy_gilbert_bound_and_distance():
    words = codes.greedy_gilbert(3, 4, 3)
    bound = math.ceil(81 / counting.ball_size(3, 4, 2))
    assert words.shape[0] >= bound
    c = euclid.constellation(3)
    assert euclid.min_sq_distance(words, c) >= 3


def test_greedy_gilbert_unreachable_distance():
    # q = 5, n = 2: the largest pairwise weight is 8, so d = 9 keeps one word
    words = codes.greedy_gilbert(5, 2, 9)
    assert words.shape[0] == 1
    assert words[0].tolist() == [0, 0]


def _greedy_oracle(q, n, d, table):
    # the pairwise greedy rule: scan Z_q^n in lex order, keep a word iff its
    # difference weight to every kept word is at least d
    kept = []
    for word in itertools.product(range(q), repeat=n):
        if all(sum(table[(a - b) % q] for a, b in zip(word, w)) >= d for w in kept):
            kept.append(list(word))
    return kept


# odd and even q, d = 1, d above n * a_int (one word kept), n = 1 (no low
# half), odd n (unequal halves); n = 2 and the odd-n cases at d = 2 keep
# several words per row of the mask.  Many high offsets of the ball move a
# translate to a row scanned before the kept word's in (3, 7, 5) (all 81 high
# words are in the high ball), (3, 8, 4) (65 of 81) and (2, 10, 3) (16 of
# 32).  A mask row holds q^(n//2) bits: one (n = 1), a width that is not a
# multiple of 8 (3, 5, 7, 9, 25, 27, 49) or whole bytes (8, 16, 64).  The
# balls of (20, 3, 40) (high half) and (13, 4, 50) (both halves) are too wide
# for split translate tables, so their translates are computed from digits.
@pytest.mark.parametrize(
    "q,n,d",
    [(2, 3, 1), (2, 5, 2), (3, 4, 3), (3, 3, 4), (4, 3, 4), (4, 3, 13), (5, 3, 6),
     (5, 4, 2), (6, 2, 5), (7, 1, 5), (3, 5, 5), (5, 2, 2), (7, 2, 2), (3, 5, 2),
     (4, 5, 2), (5, 3, 2), (3, 7, 5), (3, 8, 4), (2, 10, 3), (2, 1, 2), (3, 1, 2),
     (5, 1, 2), (5, 1, 5), (7, 1, 10), (3, 2, 2), (5, 2, 4), (7, 3, 5), (3, 4, 2),
     (5, 4, 5), (3, 6, 3), (7, 4, 9), (2, 6, 2), (2, 8, 3), (4, 6, 5), (20, 3, 40),
     (13, 4, 50)],
)
def test_greedy_matches_pairwise_oracle(q, n, d):
    c = euclid.constellation(q)
    words = codes.greedy_gilbert(q, n, d)
    assert words.dtype == np.int64
    assert words.tolist() == _greedy_oracle(q, n, d, c.euclid_table.tolist())
    assert words.tolist() == sorted(words.tolist())


def test_greedy_kernel_orients_differences_like_the_oracle():
    # with an asymmetric table, d(x, w) uses (x - w) mod q for a later word x
    # and a kept word w
    table = np.array([0, 1, 4, 2, 3])
    words = kernels.greedy_lex(5, 3, 4, table)
    assert words.tolist() == _greedy_oracle(5, 3, 4, table.tolist())


# tables with table[r] == 0 for some r != 0: nonzero offsets of weight 0
# move a translate to another row of the mask, and at d = 1 words at weight 0
# from a kept word are still rejected; with d at most the smallest nonzero
# weight every word is kept
@pytest.mark.parametrize(
    "q,n,d,table",
    [(4, 3, 2, [0, 0, 1, 1]), (4, 4, 2, [0, 0, 1, 1]), (4, 5, 3, [0, 0, 1, 1]),
     (4, 4, 1, [0, 0, 1, 1]), (3, 4, 2, [0, 0, 1]), (5, 3, 4, [0, 2, 0, 3, 1]),
     (4, 3, 3, [0, 3, 5, 3])],
)
def test_greedy_kernel_matches_pairwise_oracle_on_other_tables(q, n, d, table):
    words = kernels.greedy_lex(q, n, d, np.array(table))
    assert words.tolist() == _greedy_oracle(q, n, d, table)


@settings(max_examples=150, deadline=None)
@given(
    q=st.integers(2, 5),
    n=st.integers(1, 4),
    d=st.integers(1, 8),
    data=st.data(),
)
def test_greedy_kernel_matches_pairwise_oracle_property(q, n, d, data):
    # random non-negative tables with table[0] == 0, asymmetric ones included
    rest = data.draw(st.lists(st.integers(0, 6), min_size=q - 1, max_size=q - 1))
    table = [0, *rest]
    words = kernels.greedy_lex(q, n, d, np.array(table))
    assert words.tolist() == _greedy_oracle(q, n, d, table)


# neighbouring high weights whose low widths are equal share one block:
# (5, 4, 9) high weights 1 and 2, (4, 5, 9) 1-3 and 5-6, (3, 5, 7) all three,
# (4, 6, 12) 1-2 and 4-5
@pytest.mark.parametrize("q,n,d", [(5, 4, 9), (4, 5, 9), (3, 5, 7), (4, 6, 12)])
def test_greedy_merged_blocks_match_pairwise_oracle(q, n, d):
    table = euclid.constellation(q).euclid_table
    words = kernels.greedy_lex(q, n, d, table)
    assert words.tolist() == _greedy_oracle(q, n, d, table.tolist())


@pytest.mark.parametrize("q,m", [(2, 5), (3, 3), (5, 2), (6, 2), (7, 1), (4, 0)])
def test_greedy_translate_tables_match_digits(q, m):
    # the split tables and the digit formula give the same translates, and
    # both are the index of (w + o) mod q for the sorted offsets o
    key = tuple(euclid.constellation(q).euclid_table.tolist())
    offs = kernels._half_space(q, m, key)[1]
    size = q**m
    for start, stop in ((0, size), (1, max(1, size // 3))):
        tables = kernels._translates(q, m, key, start, stop, budget=size * (size + 2))
        by_digits = kernels._translates(q, m, key, start, stop, budget=0)
        for w, word in enumerate(itertools.product(range(q), repeat=m)):
            want = [
                sum((a + o) % q * q ** (m - 1 - j) for j, (a, o) in enumerate(zip(word, col)))
                for col in offs.T[start:stop].tolist()
            ]
            assert tables(w).tolist() == by_digits(w).tolist() == want


def test_gilbert_criterion_sets_are_pinned():
    # the 210 greedy sets of the gilbert criterion, in its order, as int64
    # bytes, pinned from the boolean-mask kernel that the bit rows replaced:
    # a change to any set shows here
    digest = hashlib.sha256()
    runs = words = 0
    for q in range(2, 6):
        c = euclid.constellation(q)
        for n in range(1, 7):
            for d in range(1, n * c.a_int + 1):
                found = codes.greedy_gilbert(q, n, d)
                digest.update(found.astype(np.int64).tobytes())
                runs += 1
                words += found.shape[0]
    assert (runs, words) == (210, 38420)
    assert digest.hexdigest() == "79b2ae1d7add86d1098ba038c5121129320860a32f83c5f09fab34747fcccc03"


def test_greedy_half_spaces_are_kept_per_table():
    # one (q, half length) under three tables in one process, each twice:
    # the sorted half spaces are shared by every d, never across tables
    q, n = 5, 4
    c = euclid.constellation(q)
    tables = [c.euclid_table, c.lee_table, np.array([0, 1, 4, 2, 3])]
    for _ in range(2):
        for table in tables:
            for d in (2, 4):
                words = kernels.greedy_lex(q, n, d, table)
                assert words.tolist() == _greedy_oracle(q, n, d, table.tolist())


# (100, 3, 2500) and (60, 3, 900): a large alphabet, and a high ball that
# holds most of Z_q^2, so translate tables over the whole ball would not fit
@pytest.mark.parametrize(
    "q,n,d", [(3, 12, 6), (3, 12, 14), (5, 8, 12), (4, 9, 2), (100, 3, 2500), (60, 3, 900)]
)
def test_greedy_kernel_memory_stays_near_the_mask(q, n, d):
    # the mask takes at most q^n bytes and the result K x n int64 digits; a
    # table of the whole ball or of translates over the word space would not fit
    table = euclid.constellation(q).euclid_table
    kernels.greedy_lex(q, 2, d, table)  # warm up numpy's caches
    tracemalloc.start()
    try:
        words = kernels.greedy_lex(q, n, d, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * q**n + 16 * words.shape[0] * n


def test_greedy_scale_guard():
    with pytest.raises(ValueError, match="guard"):
        codes.greedy_gilbert(11, 8, 3)


# -- Lee BCH ------------------------------------------------------------------


def test_lee_bch_p7_t2():
    code = codes.lee_bch(7, 2)
    assert code.alpha == 3
    assert code.g == (3, 3, 1)  # (z - 1)(z - 3) = z^2 + 3z + 3 over GF(7)
    assert (code.n, code.k) == (6, 4)
    assert code.metric_floor == 4
    lee, we = code.min_weights()
    assert lee >= 4 and we >= 4


def test_lee_bch_p7_t1():
    code = codes.lee_bch(7, 1)
    assert code.g == (6, 1)  # z - 1
    assert code.k == 5
    lee, we = code.min_weights()
    assert lee >= 2 and we >= 2


# every (p, t) with p in {5, 7, 11, 13} whose codebook fits in 10^6 words
_SMALL_FAMILY = [
    (p, t)
    for p in (5, 7, 11, 13)
    for t in range(1, (p + 1) // 2 + 1)
    if p ** (p - 1 - t) <= 10**6
]


@pytest.mark.parametrize("p,t", _SMALL_FAMILY)
def test_lee_bch_floor_small(p, t):
    code = codes.lee_bch(p, t)
    lee, we = code.min_weights()
    assert lee >= 2 * t
    assert we >= lee


@pytest.mark.parametrize("p,t", _SMALL_FAMILY)
def test_lee_bch_min_weights_match_brute_force(p, t):
    # the family covers the sweep's split edge cases: k = 1 (p=5, t=3, empty
    # low half), odd and even k, and the messages whose high half is all zero,
    # among them the zero word, which the sweep must skip
    code = codes.lee_bch(p, t)
    msgs = np.stack(np.unravel_index(np.arange(code.size), (p,) * code.k), axis=1)
    r = code.encode(msgs)[1:]  # message 0 is the zero codeword
    r = np.minimum(r, p - r)
    assert code.min_weights() == (int(r.sum(axis=1).min()), int((r * r).sum(axis=1).min()))


def test_min_weight_sweep_rejects_asymmetric_tables():
    # the sweep visits one message of each (m, -m) pair, which is exact only
    # when table[r] == table[-r mod p]
    code = codes.lee_bch(7, 2)
    g = np.asarray(code.g, dtype=np.int64)
    lee = euclid.constellation(7).lee_table
    with pytest.raises(ValueError, match="table"):
        kernels.cyclic_min_weights(g, code.k, code.n, 7, np.arange(7), lee)
    with pytest.raises(ValueError, match="odd"):
        kernels.cyclic_min_weights(g, code.k, code.n, 8, lee, lee)


# exact minima of the codes past the brute-force family.  (11, 2) to (11, 4)
# and (13, 6) come from the chunked exhaustive sweep that the
# meet-in-the-middle sweeps replaced; (13, 2) and (13, 3), past the guard of
# the ungrouped sweep, from the overlap-class sweep; (13, 4) and (13, 5) from
# the overlap-class sweep both with all class pairs read and with the pairs
# pruned by their bound.  (13, 2) to (13, 4) equal the 2t Lee floor of the
# family, and test_pinned_floor_minima_have_witnesses finds a codeword of 2t
# entries +-1 that attains both weights
_PINNED_MIN_WEIGHTS = {
    (11, 2): (4, 4),
    (11, 3): (6, 6),
    (11, 4): (8, 10),
    (13, 2): (4, 4),
    (13, 3): (6, 6),
    (13, 4): (8, 8),
    (13, 5): (10, 12),
    (13, 6): (12, 12),
}


@pytest.mark.parametrize("p,t", sorted(_PINNED_MIN_WEIGHTS))
def test_lee_bch_min_weights_pinned(p, t):
    assert codes.lee_bch(p, t).min_weights() == _PINNED_MIN_WEIGHTS[(p, t)]


@pytest.mark.parametrize("p,t", [(13, 2), (13, 3), (13, 4)])
def test_pinned_floor_minima_have_witnesses(p, t):
    # Lee weight >= 2t and Euclid >= Lee bound both minima from below, so a
    # codeword with 2t entries +-1 proves them; search the supports and signs
    # for one with c(alpha^j) = 0, j < t, sharing no code with the sweep
    code = codes.lee_bch(p, t)
    roots = [pow(code.alpha, j, p) for j in range(t)]
    powers = np.array([[pow(r, i, p) for r in roots] for i in range(code.n)])
    signs = np.array(list(itertools.product((1, -1), repeat=2 * t)))
    for support in itertools.combinations(range(code.n), 2 * t):
        if not (signs @ powers[list(support)] % p).any(axis=1).all():
            break
    else:
        pytest.fail("no codeword of 2t entries +-1")
    assert _PINNED_MIN_WEIGHTS[(p, t)] == (2 * t, 2 * t)


def test_sweep_guard_counts_work_not_codewords():
    assert kernels.sweep_work(13, 9, 3) <= codes.SWEEP_GUARD < codes.lee_bch(13, 3).size
    # reachable before, and its classes do not collide
    assert kernels.sweep_work(13, 8, 4) <= codes.SWEEP_GUARD
    with pytest.raises(ValueError, match="codewords"):
        codes.lee_bch(17, 2).min_weights()


def _encode_int16(start, count, p, rows):
    msgs = kernels.digits(np.arange(start, start + count), p, rows.shape[0])
    return ((msgs @ rows) % p).astype(np.int16)


def _ungrouped_sweep(g, k, n, p, lee_table, we_table):
    # the sweep the overlap-class sweep replaced: every swept high-half
    # codeword is paired with every low-half codeword
    tables = np.stack([lee_table, we_table]).astype(np.int64)
    acc = np.min_scalar_type(n * int(tables.max()))
    folded = tables[:, np.arange(2 * p - 1) % p].astype(acc)
    tables = tables.astype(acc)
    deg = g.size - 1
    gen = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        gen[i, i : i + deg + 1] = g
    k_hi = k - k // 2
    mid = slice(k_hi, k_hi + deg)
    shift = np.arange(p, dtype=np.int16)[:, None]
    hi_ranges = [(0 if e == 0 else p**e, (p + 1) // 2 * p**e) for e in range(k_hi)]
    total_lo = p ** (k // 2)
    lo_rows = max(1, kernels.SWEEP_BUDGET // max(n, 2 * deg * p))
    big = int(np.iinfo(acc).max)
    best = [big, big]
    for l0 in range(0, total_lo, lo_rows):
        lo = _encode_int16(l0, min(lo_rows, total_lo - l0), p, gen[k_hi:])
        lo_right = tables[:, lo[:, k_hi + deg :]].sum(axis=2, dtype=acc)
        reads = folded[:, shift + lo[:, mid].T[:, None, :]]
        batch = max(1, kernels.SWEEP_BUDGET // max(lo.shape[0], n))
        for a, b in hi_ranges:
            for h0 in range(a, b, batch):
                hi = _encode_int16(h0, min(batch, b - h0), p, gen[:k_hi])
                hi_left = tables[:, hi[:, :k_hi]].sum(axis=2, dtype=acc)
                for w in range(2):
                    s = hi_left[w][:, None] + lo_right[w][None, :]
                    for j in range(deg):
                        s += reads[w, j, hi[:, k_hi + j]]
                    if h0 == 0 and l0 == 0:
                        s[0, 0] = big  # the zero codeword
                    best[w] = min(best[w], int(s.min()))
    return best[0], best[1]


# the 13 codes of the benchmark's lee_sweep workload, and (11, 2)
_ORACLE_CODES = [
    (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3), (7, 4),
    (11, 2), (11, 3), (11, 4), (11, 5), (11, 6), (13, 6), (13, 7),
]


@pytest.mark.parametrize("p,t", _ORACLE_CODES)
def test_class_sweep_matches_ungrouped_sweep(p, t):
    code = codes.lee_bch(p, t)
    c = euclid.constellation(p)
    args = (np.asarray(code.g, dtype=np.int64), code.k, code.n, p, c.lee_table, c.euclid_table)
    assert kernels.cyclic_min_weights(*args) == _ungrouped_sweep(*args)


def _brute_min_weights(gen, p, tables):
    # every nonzero message, encoded and weighed
    k = gen.shape[0]
    msgs = np.stack(np.unravel_index(np.arange(1, p**k), (p,) * k), axis=1)
    words = msgs @ gen % p
    return tuple(int(t[words].sum(axis=1).min()) for t in tables)


def _symmetric_table(data, p):
    # table[0] may be positive, which the sweep accepts; mostly-zero tables
    # leave many class pairs tied with the best weight at the pruning bound
    zero = data.draw(st.one_of(st.just(0), st.integers(1, 9)), label="table[0]")
    sparse = data.draw(st.booleans(), label="sparse")
    entry = st.sampled_from([0, 0, 0, 1, 3]) if sparse else st.integers(0, 9)
    half = data.draw(st.lists(entry, min_size=(p - 1) // 2, max_size=(p - 1) // 2))
    return np.array([zero, *half, *half[::-1]])


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), deg=st.integers(1, 3), data=st.data())
def test_class_sweep_matches_brute_force_property(p, deg, data):
    # random generator polynomials (g[0] == 0 included), message lengths
    # with p^k <= 2e4 and random symmetric tables (table[0] > 0 and mostly
    # zero ones included); k = 1 leaves the low half empty, k_hi > deg makes
    # classes collide, k_hi <= deg keeps them single
    k = data.draw(st.integers(1, int(math.log(2e4, p))), label="k")
    g = np.array([*data.draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg)),
                  data.draw(st.integers(1, p - 1))])
    tables = [_symmetric_table(data, p), _symmetric_table(data, p)]
    n = k + deg
    gen = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        gen[i, i : i + deg + 1] = g
    assert kernels.cyclic_min_weights(g, k, n, p, *tables) == _brute_min_weights(gen, p, tables)


# k = 1 (empty low half); classes colliding in the high half, in both
# halves, or in neither (deg >= k_hi)
@pytest.mark.parametrize("p,k,deg", [(3, 1, 2), (7, 1, 1), (5, 5, 1), (3, 9, 2),
                                     (5, 6, 2), (5, 4, 3), (7, 2, 3), (3, 5, 3)])
def test_class_sweep_matches_brute_force_regimes(p, k, deg):
    rng = np.random.default_rng(100 * p + 10 * k + deg)
    for _ in range(5):
        g = np.append(rng.integers(0, p, deg), rng.integers(1, p))
        half = rng.integers(0, 10, size=(2, (p - 1) // 2))
        tables = np.hstack([np.zeros((2, 1), dtype=np.int64), half, half[:, ::-1]])
        gen = np.zeros((k, k + deg), dtype=np.int64)
        for i in range(k):
            gen[i, i : i + deg + 1] = g
        got = kernels.cyclic_min_weights(g, k, k + deg, p, *tables)
        assert got == _brute_min_weights(gen, p, tables)


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), deg=st.integers(0, 3), data=st.data())
def test_band_sweep_matches_brute_force_property(p, deg, data):
    # random generators of the shape the sweep relies on: high rows zero
    # from column k_hi + deg on, low rows zero before column k_hi, and only
    # the deg digits of each half next to the overlap columns reach them.
    # Unlike shifted rows, these can hold their lightest codewords only among
    # the messages with h = 0 or l = 0
    k = data.draw(st.integers(1, int(math.log(2e4, p))), label="k")
    k_hi, n = k - k // 2, k + deg
    mid = slice(k_hi, k_hi + deg)
    mask = np.zeros((k, n), dtype=bool)
    mask[:k_hi, :k_hi] = True
    mask[max(0, k_hi - deg) : k_hi, mid] = True
    mask[k_hi : k_hi + deg, mid] = True
    mask[k_hi:, k_hi + deg :] = True
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=k * n, max_size=k * n))
    gen = np.where(mask, np.reshape(entries, (k, n)), 0)
    tables = np.stack([_symmetric_table(data, p), _symmetric_table(data, p)])
    acc = np.min_scalar_type(n * int(tables.max()) + 1)
    got = kernels._band_min_weights(gen, k_hi, deg, p, tables.astype(acc), acc)
    assert got == _brute_min_weights(gen, p, tables)


# band generators over GF(5) (k_hi = deg = 2) whose lightest codewords under
# the Euclid table are the high halves alone (l = 0) or the low halves alone
# (h = 0): every message with both halves nonzero is heavier
_LONE_HALF = {
    "high": [[2, 2, 3, 4, 0, 0], [4, 4, 1, 1, 0, 0], [0, 0, 1, 2, 3, 2], [0, 0, 4, 3, 4, 2]],
    "low": [[3, 0, 1, 3, 0, 0], [0, 3, 2, 3, 0, 0], [0, 0, 1, 3, 0, 4], [0, 0, 4, 2, 4, 0]],
}


@pytest.mark.parametrize("light", sorted(_LONE_HALF))
def test_band_sweep_finds_a_lone_half(light):
    gen = np.array(_LONE_HALF[light])
    tables = np.array([[0, 1, 2, 2, 1], [0, 1, 4, 4, 1]])
    msgs = np.stack(np.unravel_index(np.arange(1, 5**4), (5,) * 4), axis=1)
    weights = tables[1][msgs @ gen % 5].sum(axis=1)
    alone = ~msgs[:, :2].any(axis=1) if light == "low" else ~msgs[:, 2:].any(axis=1)
    assert weights[alone].min() < weights[~alone].min()
    acc = np.min_scalar_type(6 * 4 + 1)
    got = kernels._band_min_weights(gen, 2, 2, 5, tables.astype(acc), acc)
    assert got == _brute_min_weights(gen, 5, tables)


def test_lee_bch_rejects_bad_params():
    with pytest.raises(ValueError):
        codes.lee_bch(9, 2)  # not prime
    with pytest.raises(ValueError):
        codes.lee_bch(7, 0)
    with pytest.raises(ValueError):
        codes.lee_bch(7, 5)  # t > (p + 1) / 2


def test_lee_bch_generator_divides_zn_minus_1():
    code = codes.lee_bch(7, 2)
    # every codeword evaluates to zero at the generator roots 1 and alpha
    msgs = np.eye(code.k, dtype=np.int64)
    words = code.encode(msgs)
    for root in (1, code.alpha):
        vals = [
            sum(int(c) * pow(root, i, 7) for i, c in enumerate(w)) % 7 for w in words
        ]
        assert all(v == 0 for v in vals)


def test_lee_bch_linearity():
    code = codes.lee_bch(7, 2)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 7, size=(100, code.k))
    b = rng.integers(0, 7, size=(100, code.k))
    assert np.array_equal(
        code.encode((a + b) % 7), (code.encode(a) + code.encode(b)) % 7
    )


# -- concatenation ------------------------------------------------------------


@pytest.fixture(scope="module")
def concat_74():
    inner = codes.lee_bch(7, 2)
    fld = gf.ExtField(7, 4)
    outer = gf.RSCode(fld, 8, 4)
    return codes.concatenate(outer, inner)


def test_concat_parameters(concat_74):
    cc = concat_74
    assert cc.n == 48
    assert cc.k_total == 16
    assert cc.metric_floor == 20  # distance 5 outer x floor 4 inner


def test_concat_zero_and_linearity(concat_74):
    cc = concat_74
    assert not cc.encode_p_message(np.zeros((1, 16), dtype=np.int64)).any()
    rng = np.random.default_rng(11)
    a = rng.integers(0, 7, size=(100, 16))
    b = rng.integers(0, 7, size=(100, 16))
    assert np.array_equal(
        cc.encode_p_message((a + b) % 7),
        (cc.encode_p_message(a) + cc.encode_p_message(b)) % 7,
    )


def test_concat_generator_has_full_rank(concat_74):
    gen = concat_74.generator_matrix()
    assert gen.shape == (16, 48)
    # Gaussian elimination over GF(7)
    m = gen.copy() % 7
    rank = 0
    for col in range(48):
        piv = None
        for row in range(rank, 16):
            if m[row, col] % 7:
                piv = row
                break
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), 5, 7) % 7
        for row in range(16):
            if row != rank and m[row, col] % 7:
                m[row] = (m[row] - m[row, col] * m[rank]) % 7
        rank += 1
    assert rank == 16


def test_concat_sampled_distance(concat_74):
    assert concat_74.sampled_min_distance(20_000, seed=0) >= 20


def _two_encode_min(cc, pairs, seed):
    # the same draws as sampled_min_distance, each pair encoded twice
    rng = np.random.default_rng(seed)
    q_sym, k_out = cc.outer.fld.Q, cc.outer.k_out
    a = rng.integers(0, q_sym, size=(pairs, k_out))
    b = rng.integers(0, q_sym, size=(pairs, k_out))
    same = np.all(a == b, axis=1)
    while np.any(same):
        b[same] = rng.integers(0, q_sym, size=(int(same.sum()), k_out))
        same = np.all(a == b, axis=1)
    table = euclid.constellation(cc.p).euclid_table
    return int(table[(cc.encode(a) - cc.encode(b)) % cc.p].sum(axis=1).min())


def _small_concat(p, t, n_out, k_out):
    inner = codes.lee_bch(p, t)
    return codes.concatenate(gf.RSCode(gf.ExtField(p, inner.k), n_out, k_out), inner)


# RS[3,2] over GF(5^2) . BCH[4,2] and RS[4,2] over GF(5) . BCH[4,1]
SMALL_CONCATS = [(5, 2, 3, 2), (5, 3, 4, 2)]


@functools.cache
def _exhaustive_min(params):
    cc = _small_concat(*params)
    words = cc.encode_p_message(kernels.digits(np.arange(cc.size), cc.p, cc.k_total))
    return euclid.min_sq_distance(words, euclid.constellation(cc.p))


def test_sampled_distance_matches_two_encode_oracle(concat_74):
    # the README code: 89 is the minimum that verify prints at seed 0
    assert concat_74.sampled_min_distance(100_000, seed=0) == 89
    assert _two_encode_min(concat_74, 100_000, 0) == 89
    for seed in range(6):
        assert concat_74.sampled_min_distance(25_000, seed=seed) == _two_encode_min(
            concat_74, 25_000, seed
        )


@pytest.mark.parametrize("params", SMALL_CONCATS)
@pytest.mark.parametrize("pairs", [1, 7, 3000, 40_000])
def test_sampled_distance_matches_two_encode_oracle_small(params, pairs):
    cc = _small_concat(*params)
    for seed in range(3):
        assert cc.sampled_min_distance(pairs, seed=seed) == _two_encode_min(cc, pairs, seed)


@settings(max_examples=40, deadline=None)
@given(
    params=st.sampled_from(SMALL_CONCATS),
    pairs=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_distance_never_below_exhaustive(params, pairs, seed):
    cc = _small_concat(*params)
    assert cc.sampled_min_distance(pairs, seed=seed) >= _exhaustive_min(params)


@pytest.mark.parametrize("params", [None, (5, 3, 4, 2)])
def test_symbol_weights_are_inner_codeword_weights(concat_74, params):
    # GF(7^4) for the README code, GF(5^1) for RS[4,2] . BCH[4,1]
    cc = concat_74 if params is None else _small_concat(*params)
    fld, table = cc.outer.fld, euclid.constellation(cc.p).euclid_table.tolist()
    weights = cc.symbol_weights()
    assert weights.shape == (fld.Q,)
    for s in range(fld.Q):
        word = cc.inner.encode(fld.to_digits(s)[None, :])[0]
        assert weights[s] == sum(table[c] for c in word.tolist())
    assert weights[0] == 0
    assert weights[1:].min() >= cc.inner.metric_floor


# the two small codes above plus RS[4,2] over GF(7^2) . BCH[6,2] (2401 words)
@pytest.mark.parametrize("params", [*SMALL_CONCATS, (7, 4, 4, 2)])
def test_linear_min_distance_matches_pairwise_scan(params):
    cc = _small_concat(*params)
    words = cc.encode_p_message(kernels.digits(np.arange(cc.size), cc.p, cc.k_total))
    expect = euclid.min_sq_distance(words, euclid.constellation(cc.p))
    assert codes.linear_min_distance(words, cc.p) == expect
    # the zero codeword need not come first
    perm = np.random.default_rng(1).permutation(cc.size)
    assert perm[0] != 0
    assert codes.linear_min_distance(words[perm], cc.p) == expect
    assert codes.linear_min_distance(words[::-1], cc.p) == expect


def test_linear_min_distance_rejects_the_zero_code():
    with pytest.raises(ValueError, match="nonzero"):
        codes.linear_min_distance(np.zeros((3, 4), dtype=np.int64), 5)


def test_sampled_distance_rejects_bad_arguments(concat_74, monkeypatch):
    for pairs in (0, -5):
        with pytest.raises(ValueError, match="pairs"):
            concat_74.sampled_min_distance(pairs)
    # (p-1)^2 = 36: with k_total above 2^53 / 36 a partial sum can leave the
    # range where float64 holds every integer
    big = property(lambda self: 2**53 // 36 + 1)
    monkeypatch.setattr(codes.ConcatenatedCode, "k_total", big)
    with pytest.raises(ValueError, match="2\\^53"):
        concat_74.sampled_min_distance(10)


def test_concat_identity_outer_keeps_inner_floor():
    inner = codes.lee_bch(5, 2)
    fld = gf.ExtField(5, 2)
    outer = gf.RSCode(fld, 3, 3)  # distance 1
    cc = codes.concatenate(outer, inner)
    assert cc.metric_floor == inner.metric_floor


def test_concat_alphabet_mismatch():
    inner = codes.lee_bch(7, 2)
    fld = gf.ExtField(5, 2)
    outer = gf.RSCode(fld, 3, 2)
    with pytest.raises(ValueError, match="match"):
        codes.concatenate(outer, inner)


def test_concat_exhaustive_small():
    # tiny configuration where the whole codebook is enumerable: distances
    # must respect the product floor
    inner = codes.lee_bch(5, 2)  # [4, 2] floor 4
    fld = gf.ExtField(5, 2)
    outer = gf.RSCode(fld, 3, 2)  # [3, 2] distance 2
    cc = codes.concatenate(outer, inner)
    assert cc.metric_floor == 8
    words = cc.encode_p_message(kernels.digits(np.arange(cc.size), 5, cc.k_total))
    assert words.shape == (625, 12)
    c5 = euclid.constellation(5)
    assert euclid.min_sq_distance(words, c5) >= 8


def test_sample_words_are_distinct():
    # RS[2,1] over GF(5^2) . BCH[4,2] has 25 codewords, so 25 draws repeat some
    cc = _small_concat(5, 2, 2, 1)
    words = cc.sample_words(25, seed=0)
    assert np.unique(words, axis=0).shape[0] == 25
    with pytest.raises(ValueError, match="distinct"):
        cc.sample_words(26)


def test_sample_words_keep_a_first_draw_without_repeats(concat_74):
    fld, k_out = concat_74.outer.fld, concat_74.outer.k_out
    msgs = np.random.default_rng(3).integers(0, fld.Q, size=(500, k_out))
    assert np.array_equal(concat_74.sample_words(500, seed=3), concat_74.encode(msgs))


# -- spherical lift -----------------------------------------------------------


def test_to_spherical_single_zero_word():
    res = codes.to_spherical(5, [[0, 0, 0]])
    assert res.points.shape == (1, 4)
    assert res.points[0].tolist() == [0.0, 0.0, 0.0, 1.0]
    assert res.rho == math.inf


def test_to_spherical_triangle():
    res = codes.to_spherical(3, [[0], [1], [2]], d_floor=1)
    assert res.points.shape == (3, 2)
    norms = np.linalg.norm(res.points, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert res.rho >= res.floor_rho - 1e-9
    assert res.rho == pytest.approx(
        euclid.min_sq_distance(res.points), abs=1e-9
    )
    assert res.binary_rate == pytest.approx(math.log2(3) / 2)


def test_to_spherical_floor(concat_74):
    cc = concat_74
    words = cc.sample_words(500, seed=3)
    res = codes.to_spherical(7, words, d_floor=cc.metric_floor)
    assert res.floor_rho == pytest.approx(20 / (48 * 9))
    assert res.rho >= res.floor_rho - 1e-9
    norms = np.linalg.norm(res.points, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9


def test_to_spherical_rejects_bad_words():
    with pytest.raises(ValueError):
        codes.to_spherical(3, [[0, 3]])
    with pytest.raises(ValueError):
        codes.to_spherical(3, np.zeros((0, 2), dtype=int))
