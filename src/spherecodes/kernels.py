"""Hot inner loops: pairwise distance scans, greedy selection, codeword searches.

Each kernel has one implementation: greedy selection by ball marking on a
mask of Python-int bit rows, one row per high half of a word index (the next
word kept is a row's lowest set bit, and a finished row's translates are
cleared by one OR per run of high offsets of equal width and one AND per
later row), whose half balls are prefixes of half spaces sorted once per
alphabet, length and table, and whose low-half translates are read from a
table of bit masks built once per low half space while it fits
MASK_BUDGET; a translate check of a word set's distance, which looks up
each word's translates by the offsets of weight below the distance in a
mask of the set, computing them digit by digit; an exact integer Gram scan
for word sets; a float pair scan that estimates square tiles of pairs by a
BLAS Gram product and re-measures by the direct formula every pair that
could be the minimum; and an information-set search for the least weights
of a cyclic code, which weighs the messages of a systematic encoder in
rounds of rising message weight and stops on a bound that cyclic shifts
give.  All but the greedy masks and the search's walk over value tuples
are numpy.  Both pair scans walk the same tiles.  The translate check
shares no code with the greedy selection it checks, and the Gram scan is
its cross-check.

The package enumerates words by index only through :func:`digits`, and builds
a cyclic generator matrix from its polynomial only through
:func:`shifted_generator`; the search builds its parity rows from the
polynomial by remainders.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math

import numpy as np

#: elements per working array of the codeword search
SWEEP_BUDGET = 1 << 20
#: messages one round of :func:`cyclic_min_weights` may weigh.  A message
#: costs about 10 ns per parity digit (2 shared cores, numpy 2.4.6), so the
#: codes of largest degree set it.  Of the 2,110 Lee-BCH codes with p <= 200,
#: 128 are admitted; the slowest are (23, 12) at 1.4 s, (23, 5) 0.4 s,
#: (61, 3) 0.3 s (6.9e6 messages, the largest round admitted), (19, 8) and
#: (59, 3) 0.3 s.  A refused code pays for its admitted rounds first: up to
#: about 5 s at p = 103-127, t = 40-64, whose third round holds up to 1e7
#: messages of 40-64 parity digits.  (23, 6) is refused in a few ms.
SEARCH_GUARD = 10**7
#: mask bits a greedy mask table may hold to be kept (:func:`_mask_table`)
MASK_BUDGET = 1 << 18


def backend() -> str:
    """The kernel backend, always ``"numpy"``.

    Benchmark records carry it, and records whose backends differ are not
    compared.
    """
    return "numpy"


def _block_rows(m: int, n: int, budget: int = 8_000_000) -> int:
    return max(1, budget // max(1, m * n))


def _tiles(m: int, n: int, tile):
    """The strict upper triangle of the m x m matrix of pair values, tile by tile.

    Rows of length n are cut into square tiles of side isqrt(_block_rows(1, n)),
    so that a tile of pairs, and a block of side rows times n, stays within
    the budget.  Yields ``(rows, cols, vals)`` with ``vals = tile(rows, cols)``
    for the row and column slices of every tile on or above the diagonal.  On
    a diagonal tile the entries (i, j) with j <= i are not pairs and are set
    to inf; diagonal tiles of one row hold no pair and are skipped.
    """
    side = math.isqrt(_block_rows(1, n))
    for i0 in range(0, m - 1, side):
        rows = slice(i0, min(i0 + side, m))
        for j0 in range(i0 if side > 1 else i0 + 1, m, side):
            cols = slice(j0, min(j0 + side, m))
            vals = tile(rows, cols)
            if j0 == i0:
                vals[np.tri(*vals.shape, dtype=bool)] = np.inf
            yield rows, cols, vals


def min_sq_dist_real(points: np.ndarray) -> float:
    """Minimum pairwise squared Euclidean distance over rows (>= 2 rows).

    The result is the minimum, over all pairs, of the direct formula
    sum_k (u_k - v_k)^2, taken by einsum on the rows as given.  To find it,
    each tile of pairs is first estimated on BLAS by the Gram formula
    |u|^2 + |v|^2 - 2 u.v, and then every pair that could be the minimum is
    measured by the direct formula.

    Why the re-check finds the minimum.  With unit roundoff u = 2^-53 and
    gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3: Lemma 3.3 and the inner-product bound (3.5),
    which hold for any summation order, fused multiply-adds included):

    - Direct: each of the dim terms of D = |u - v|^2 carries one rounding
      from the difference, one from the square and at most dim - 1 from the
      sum, so |D^ - D| <= gamma_{dim+1} D =: e_d.
    - Gram: the norms are n^ = |x|^2 (1 + theta_dim), and
      |G^ - u.v| <= gamma_dim sum_k |u_k v_k| <= gamma_dim S / 2 with
      S = |u|^2 + |v|^2.  One rounding adds the norms and one subtracts 2 G^
      (doubling is exact), so
      |E^ - D| <= (1 + u)(gamma_{dim+1} + gamma_dim) S + u D =: e_g.
    - D <= 2 S and S <= 2 M, M the largest squared row norm, so
      e_g + e_d <= (2 gamma_{dim+2} + 2 u + 2 gamma_{dim+1}) 2 M
      <= 8 gamma_{dim+3} M, using gamma_a + gamma_b + gamma_a gamma_b
      <= gamma_{a+b}.
    - The code takes e = 8 gamma_{3 dim + 8} M^ with the computed M^.  The
      extra gamma covers M <= M^ / (1 - gamma_dim), via
      gamma_a (1 + gamma_b) <= gamma_{a+b}, and the few roundings that form
      e and the threshold below: at least 5 u (8 M) of slack per e against
      at most 3 roundings of quantities below 4 M + 2 e.

    So |E^ - D^| <= e for every pair.  Let D* be the smallest direct value in
    a tile and m_t its smallest estimate; then D* <= m_t + e, and the pair
    holding D* has an estimate of at most D* + e.  If D* can lower the
    running minimum ``best`` (D* <= best), that estimate is at most
    min(best, m_t + e) + e, so re-measuring every pair of the tile within
    that threshold, inside the tile loop, returns exactly the minimum of the
    direct formula.  Rows whose squared norms overflow raise ValueError.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    m, dim = pts.shape
    norms = np.einsum("ij,ij->i", pts, pts)
    big = float(norms.max(initial=0.0))
    if not math.isfinite(4.0 * big):
        raise ValueError("squared row norms overflow: 4 max|x|^2 must be finite")
    k = 3 * dim + 8
    e = 8.0 * (k * 2.0**-53 / (1.0 - k * 2.0**-53)) * big

    def gram(rows: slice, cols: slice) -> np.ndarray:
        return norms[rows, None] + norms[None, cols] - 2.0 * (pts[rows] @ pts[cols].T)

    best = np.inf
    for rows, cols, est in _tiles(m, dim, gram):
        low = float(est.min())
        if low <= best + e:  # else no pair of the tile is within the threshold
            i, j = np.nonzero(est <= min(best, low + e) + e)
            d = pts[rows][i] - pts[cols][j]
            best = min(best, float(np.einsum("ij,ij->i", d, d).min()))
    return best


def digits(idx: np.ndarray, q: int, n: int) -> np.ndarray:
    """The words of Z_q^n with indices ``idx``, one row each, leftmost digit
    most significant: ``digits(np.arange(q**n), q, n)`` lists Z_q^n in
    lexicographic order."""
    idx = np.array(idx, dtype=np.int64)
    out = np.empty((idx.size, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        out[:, j] = idx % q
        idx //= q
    return out


def shifted_generator(g, k: int, n: int) -> np.ndarray:
    """The k x n generator of the cyclic code with generator polynomial
    coefficients ``g`` (ascending): row i is g shifted right by i."""
    g = np.asarray(g, dtype=np.int64)
    gen = np.zeros((k, n), dtype=np.int64)
    for i in range(k):
        gen[i, i : i + g.size] = g
    return gen


@functools.lru_cache(maxsize=32)
def _half_space(q: int, m: int, table: tuple[int, ...]):
    """The words of Z_q^m as offsets, stably sorted by weight under ``table``.

    Returns their weights and their digits (m x q^m, one column per offset).
    Built once per (q, m, table): the offsets of weight <= r are a prefix, in
    the order a stable sort of only those offsets gives.  The arrays are
    read-only.
    """
    offs = digits(np.arange(q**m), q, m)
    wt = np.asarray(table, dtype=np.int64)[offs].sum(axis=1)
    order = np.argsort(wt, kind="stable")
    out = wt[order], offs[order].T.copy()
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _split_tables(q: int, m: int, table: tuple[int, ...], cols: int):
    """Split translate tables for the first ``cols`` offsets of the sorted
    half space Z_q^m (:func:`_half_space`).

    Returns ``a`` and ``b`` such that, for the k-th offset o_k and s =
    q^(m//2), the index of (w + o_k) mod q is ``a[w // s, k] + b[w % s, k]``:
    ``a`` holds the first m - m//2 digits of the translate (times s) and
    ``b`` the last m//2.  The arrays are read-only.
    """
    offs = _half_space(q, m, table)[1][:, :cols]
    place = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    dtype = np.int32 if q**m <= np.iinfo(np.int32).max else np.int64
    out = []
    for part in (np.arange(m - m // 2), np.arange(m - m // 2, m)):
        t = np.zeros((q**part.size, cols), dtype=dtype)
        step = np.empty_like(t)
        for col, j in zip(digits(np.arange(q**part.size), q, part.size).T, part):
            np.add(col[:, None], offs[j], out=step)
            step %= q
            step *= place[j]
            t += step
        t.flags.writeable = False
        out.append(t)
    return tuple(out)


def _translates(q: int, m: int, table: tuple[int, ...], start: int, stop: int, budget: int):
    """A map from a word index w of Z_q^m to the indices of its translates by
    the offsets ``start:stop`` of the sorted half space, in that order.

    They are read from split tables (:func:`_split_tables`) that cover the
    first ``stop`` offsets rounded up to a power of two, when those tables
    hold at most ``budget`` entries; else each call computes them from the
    digits of w and of the offsets.  The rounding lets the tables serve
    several d, and keeps the tables cached for one half space within twice
    the largest.
    """
    cols = min(q**m, 1 << (stop - 1).bit_length())
    if (q ** (m - m // 2) + q ** (m // 2)) * cols <= budget:
        a, b = (t[:, start:stop] for t in _split_tables(q, m, table, cols))
        s = b.shape[0]
        return lambda w: a[w // s] + b[w % s]
    offs = _half_space(q, m, table)[1][:, start:stop]
    place = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return lambda w: place @ (((w // place % q)[:, None] + offs) % q)


@functools.lru_cache(maxsize=32)
def _weight_cuts(q: int, m: int, table: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The distinct weights of the sorted half space Z_q^m
    (:func:`_half_space`), ascending, and for each one the number of offsets
    of at most that weight, its cut, as Python lists."""
    wt = _half_space(q, m, table)[0]
    ends = np.append(np.flatnonzero(np.diff(wt)) + 1, wt.size)
    return wt[ends - 1].tolist(), ends.tolist()


@functools.lru_cache(maxsize=32)
def _mask_table(q: int, m: int, table: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The low-half masks of :func:`greedy_lex` for Z_q^m: entry [l][c] is
    the bit set M(l, c) of the low words (l + o) mod q for the offsets o of
    at most the c-th distinct weight of the sorted half space
    (:func:`_weight_cuts`), one Python int per low part l and cut c.

    Bit j of M(l, c) is set when the weight of (j - l) mod q is at most that
    weight, read for every l and j from one array of these weights, summed
    digit by digit, one packbits per cut.  Built once per (q, m, table) and
    shared by every d and every n with n // 2 = m; :func:`greedy_lex` takes
    it only while its q^m x q^m bits per cut stay within MASK_BUDGET.
    """
    size = q**m
    weights = _weight_cuts(q, m, table)[0]
    tab = np.asarray(table)
    dtype = np.min_scalar_type(m * int(tab.max()))
    residues = np.arange(q)
    step = tab[(residues[None, :] - residues[:, None]) % q].astype(dtype)  # [a, b]: b - a
    between = np.zeros((size, size), dtype=dtype)
    for col in digits(np.arange(size), q, m).T:
        between += step[col[:, None], col]
    nbytes = -(-size // 8)
    per_cut = []
    for w in weights:
        buf = np.packbits(between <= w, axis=1, bitorder="little").tobytes()
        per_cut.append(
            [int.from_bytes(buf[i : i + nbytes], "little") for i in range(0, len(buf), nbytes)]
        )
    return tuple(zip(*per_cut))


def greedy_lex(q: int, n: int, d: int, table: np.ndarray) -> np.ndarray:
    """Greedy lexicographic selection of words at pairwise weight >= d.

    ``table`` holds the non-negative weight of each residue, table[0] == 0.
    Computed as a lexicode by ball marking (Conway & Sloane, "Lexicographic
    codes", IEEE Trans. IT 1986).  The difference weight is translation
    invariant, so a word is rejected exactly when it lies in (w + B) mod q for
    some kept word w, B being the offsets of weight <= d-1.  Each kept word
    clears its translate of B in a mask of free word indices, and the next
    word kept is the first free one.

    A word index splits into a high part h (the first n - n//2 digits) and a
    low part l, and the mask is one Python int per h, a row of q^(n//2) bits
    with bit l set while the word is free.  Let M(l, r) be the bits of the
    translates of l by the low offsets of weight <= r.  Then (w + B) mod q,
    for w = (h, l), is M(l, d-1-u) in the row of (h + o) mod q for each high
    offset o of weight u <= d-1.  The zero high offset comes first and keeps
    the translate in the row of w; every other one, weight 0 included, moves
    it to another row.  Kept words come in increasing order, so their rows
    never decrease, and the mask is marked one row at a time:

    - inside row h, the next word kept is the lowest set bit, and keeping l
      clears M(l, d-1) from the row;
    - when row h has no set bit left, the M(l, d-1-u) of its kept words are
      ORed once per run of nonzero high offsets whose radii d-1-u leave the
      same low offsets, and the complement is ANDed into each row of the run
      that comes after h.

    The result is the one per-word marking gives.  When row h is scanned,
    every kept word of an earlier row has cleared its translate from every
    later row, and what a word of row h clears in row h itself is cleared as
    it is kept.  What it would clear in a row already scanned changes
    nothing, because the kept words are recorded as they are chosen, not read
    back from the mask, so those rows are skipped.

    Both half balls are prefixes of the half spaces sorted by weight
    (:func:`_half_space`), which are built once per (q, half length, table)
    and shared by every d; the runs are found by bisection in the distinct
    weights of each half (:func:`_weight_cuts`).  The translates of a row by
    the high ball are read from split tables of the ball's columns
    (:func:`_translates`) while the tables of each half hold at most q^n / 8
    entries (half a byte per word) or 4096; a wider ball has its translates
    computed from digits, once per row.  The masks M(l, r) of every low part
    and radius are read from a table built once per (q, n//2, table)
    (:func:`_mask_table`) while it holds at most MASK_BUDGET bits; else
    each call builds the masks of the low parts it keeps, from their
    translates by the low ball, read or computed in the same way.

    Memory: the mask (q^n bits, and a list slot per row: 8 bytes per word
    when n = 1), the split tables and the mask table within their budgets or,
    over the mask budget, the masks of the kept low parts, a list slot per
    kept word and the K x n digits of the result.  Neither B nor a table of
    translates over the word space is held.

    This is the construction; :func:`far_apart` checks its result and shares
    no code with it.
    """
    total = q**n
    if d <= table[1:].min():  # every two distinct words are at weight >= d
        return digits(np.arange(total), q, n)
    size_lo = q ** (n // 2)
    key = tuple(np.asarray(table).tolist())
    hi_weights, hi_cuts = _weight_cuts(q, n - n // 2, key)
    lo_weights, lo_cuts = _weight_cuts(q, n // 2, key)
    # own is the low cut of radius d-1, for the kept word's own row; run
    # (c, a, b) holds the translates targets[a:b] by nonzero high offsets whose
    # radius falls in low cut c (the radii fall as the high weights rise, so
    # equal cuts are neighbours)
    own = bisect.bisect_right(lo_weights, d - 1) - 1
    runs: list[tuple[int, int, int]] = []
    start = 1
    for u, stop in zip(hi_weights, hi_cuts):
        if u > d - 1:
            break
        c = bisect.bisect_right(lo_weights, d - 1 - u) - 1
        if runs and runs[-1][0] == c:
            runs[-1] = (c, runs[-1][1], stop - 1)
        elif stop > start:
            runs.append((c, start - 1, stop - 1))
        start = stop
    # the tables of each half take at most half a byte per word, or 16 kB
    budget = max(total // 8, 1 << 12)
    hi_translates = _translates(q, n - n // 2, key, 1, start, budget)
    if size_lo * size_lo * len(lo_weights) <= MASK_BUDGET:
        masks = _mask_table(q, n // 2, key)
    else:
        # the masks of the low parts kept, for the cuts this call uses: a low
        # word is in M(l, cut) when the offset that takes l to it comes
        # before the cut in weight order
        used = sorted({own, *(c for c, _, _ in runs)})
        lo_translates = _translates(q, n // 2, key, 0, lo_cuts[own], budget)
        order = np.arange(lo_cuts[own])
        cuts = np.array([lo_cuts[c] for c in used])[:, None]
        nbytes = -(-size_lo // 8)
        masks = [None] * size_lo

        def lo_masks(l: int) -> list[int]:
            rank = np.full(size_lo, lo_cuts[own])
            rank[lo_translates(l)] = order
            buf = np.packbits(rank < cuts, axis=1, bitorder="little").tobytes()
            out = [0] * (own + 1)  # indexed by cut, as the table's entries
            for i, c in enumerate(used):
                out[c] = int.from_bytes(buf[i * nbytes : (i + 1) * nbytes], "little")
            return out

    rows = [(1 << size_lo) - 1] * (total // size_lo)
    kept = []
    for h, row in enumerate(rows):
        if not row:
            continue
        row_kept = []
        base = h * size_lo
        while row:
            l = (row & -row).bit_length() - 1
            row_kept.append(l)
            kept.append(base + l)
            if masks[l] is None:
                masks[l] = lo_masks(l)
            row &= ~masks[l][own]
        targets = hi_translates(h).tolist()
        for c, a, b in runs:
            clear = 0
            for l in row_kept:
                clear |= masks[l][c]
            clear = ~clear
            for t in targets[a:b]:
                if t > h:  # rows up to h are scanned already
                    rows[t] &= clear
    return digits(kept, q, n)


@functools.lru_cache(maxsize=32)
def _offsets(q: int, n: int, table: tuple[int, ...]):
    """The nonzero offsets of Z_q^n for :func:`far_apart`, one of each pair
    (o, -o), stably sorted by weight under ``table``.

    Returns their weights, their digits (n x K, one row per digit), the place
    values of the n digits, and the fold table: fold[j, a + b] is
    ((a + b) mod q) q^(n-1-j) for digits a, b < q.  The arrays are
    read-only.  Raises ValueError for a table that is not symmetric.
    """
    tab = np.asarray(table, dtype=np.int64)
    if not np.array_equal(tab, tab[-np.arange(q) % q]):
        raise ValueError("the translate check needs a table with table[r] == table[-r mod q]")
    place = q ** np.arange(n - 1, -1, -1)
    index = np.arange(q**n)
    # the offsets no greater than their negation; offset 0 is its own
    index = np.flatnonzero(index <= sum(-(index // p) % q * p for p in place.tolist()))[1:]
    wt = sum(tab[index // p % q] for p in place.tolist())
    order = np.argsort(wt, kind="stable")
    fold = np.arange(2 * q - 1) % q * place[:, None]
    out = wt[order], digits(index[order], q, n).T.copy(), place, fold
    for a in out:
        a.flags.writeable = False
    return out


def far_apart(words: np.ndarray, q: int, table: np.ndarray, d: int) -> tuple[bool, int]:
    """Whether every two word rows are at difference weight >= d under the
    symmetric per-residue ``table``, and the number of translates looked up.

    An exact translate check: the verdict is ``min_dist_words(words, table,
    q) >= d``.  The weight of u - v is translation invariant, so the set is
    at weight >= d exactly when no word plus a nonzero offset o of weight
    <= d-1 is a word of the set, and equal words (weight n table[0]) are not
    closer than d.  With table[r] == table[-r mod q], o and -o weigh the same
    and find the same pairs, so one of each pair is looked up.

    The word indices are marked in a q^n boolean mask.  The offsets of Z_q^n
    are listed once per (q, n, table), sorted by weight, with the table's
    symmetry checked and the place values and fold table built
    (:func:`_offsets`), so the offsets of weight <= d-1 are a prefix.  The
    index of w + o is summed digit by digit, each digit read from the fold
    table, of length 2q - 1, which folds the reduction mod q and the place
    value into the unreduced sum of a word digit and an offset digit.  A
    block of words costs n passes and one gather of the mask, within
    SWEEP_BUDGET translates, and the check stops at the first block that
    meets the set.  Memory: the mask, the q^n / 2 offsets and one block; no
    table grows with q^2.

    This is a check of :func:`greedy_lex` and shares no code with it;
    :func:`min_dist_words`, a pairwise scan, is its cross-check, and the
    tests compare it with a pairwise scan in plain Python too.  Raises
    ValueError for a table that is not symmetric.
    """
    tab = np.asarray(table, dtype=np.int64)
    w = np.asarray(words, dtype=np.int64)
    m, n = w.shape
    wt, offs, place, fold = _offsets(q, n, tuple(tab.tolist()))
    mask = np.zeros(q**n, dtype=bool)
    mask[w @ place] = True
    if np.count_nonzero(mask) < m and n * int(tab[0]) <= d - 1:
        return False, 0  # a repeated word
    size = int(wt.searchsorted(d - 1, side="right"))
    offs = offs[:, :size]
    rows = max(1, SWEEP_BUDGET // max(size, 1))
    looked = 0
    for s in range(0, m if size else 0, rows):
        block = w[s : s + rows]
        translates = np.zeros((block.shape[0], size), dtype=np.int64)
        for j in range(n):
            translates += fold[j][block[:, j, None] + offs[j]]
        looked += translates.size
        if mask[translates].any():
            return False, looked
    return True, looked


def min_dist_words(words: np.ndarray, table: np.ndarray, q: int) -> int:
    """Minimum pairwise difference weight over word rows, per-residue ``table``.

    An exact integer Gram scan.  With C[a, b] = table[(a - b) mod q], the
    distance of rows u and v is sum_j C[u_j, v_j], the (u, v) entry of
    U @ (U @ blockdiag(C)).T for the one-hot (m, n*q) matrix U of the words.
    The products run on BLAS in float64 and are exact, because every partial
    sum is an integer of at most n * max|table| < 2^53.  The minimum is taken
    over the strict upper triangle, one square tile of pairs at a time (the
    tiles of :func:`min_sq_dist_real`).  This is a pairwise enumeration that
    shares no code with greedy selection.
    """
    w = np.asarray(words, dtype=np.int64)
    tab = np.asarray(table, dtype=np.int64)
    m, n = w.shape
    if n * int(np.abs(tab).max()) >= 2**53:
        raise ValueError("n * max|table| must stay below 2^53 for an exact float64 scan")
    residues = np.arange(q)
    cost = tab[(residues[:, None] - residues[None, :]) % q].astype(np.float64)
    block = [None, None]  # the first row of the current row of tiles, and its rows

    def dist(rows: slice, cols: slice) -> np.ndarray:
        if block[0] != rows.start:
            # row i of U @ blockdiag(C) holds C[u_ij, b] at column j*q + b
            block[:] = rows.start, cost[w[rows]].reshape(-1, n * q)
        return block[1] @ np.take(np.eye(q), w[cols], axis=0).reshape(-1, n * q).T

    best = min((vals.min() for _, _, vals in _tiles(m, n, dist)), default=np.inf)
    return int(best) if m >= 2 else int(np.iinfo(np.int64).max)


def _value_tuples(k: int, lo: list, hi: list, tables: list, block: int):
    """The messages of k digits whose first nonzero digit is at most (p-1)/2
    and whose weight under ``tables[w]`` (a list) lies in (lo[w], hi[w]], for
    w = 0, 1, as the values of their nonzero digits: lists of at most
    ``block + 1`` entries ``(values, message weight, w)`` of one support size.

    A depth-first walk extends a tuple of values by one value at a time, and
    keeps it while, under either table, its message could still weigh at
    most hi: its weight plus the least weight of a digit for each digit
    left.  Per table, the values that fit are a prefix of the values sorted
    by weight.  The walk is plain Python, about a microsecond per tuple:
    rounds of a few tuples, as most are, cost less so than in numpy calls,
    and weighing a tuple's C(k, r) messages costs more."""
    order = [sorted(range(1, len(t)), key=t.__getitem__) for t in tables]
    (t0, t1), least = tables, [min(t) for t in tables]
    found = collections.defaultdict(list)  # per support size
    stack = [((), 0, 0)]
    while stack:
        tup, w0, w1 = stack.pop()
        s = len(tup) + 1  # the support size of the extended tuples
        room = hi[0] - (k - s) * least[0] - w0, hi[1] - (k - s) * least[1] - w1
        vals = order[0][: bisect.bisect_right(order[0], room[0], key=t0.__getitem__)]
        more = order[1][: bisect.bisect_right(order[1], room[1], key=t1.__getitem__)]
        vals += [v for v in more if t0[v] > room[0]]
        z0, z1 = w0 + (k - s) * t0[0], w1 + (k - s) * t1[0]  # their zero digits' weight
        for v in vals if s > 1 else [v for v in vals if 2 * v < len(t0)]:
            if s < k:
                stack.append((tup + (v,), w0 + t0[v], w1 + t1[v]))
            msg = z0 + t0[v], z1 + t1[v]
            found[s] += [(tup + (v,), x, w) for w, x in enumerate(msg) if lo[w] < x <= hi[w]]
            if len(found[s]) >= block:
                yield found.pop(s)
    yield from filter(None, found.values())


def cyclic_min_weights(
    g: np.ndarray, k: int, n: int, p: int, lee_table: np.ndarray, we_table: np.ndarray
) -> tuple[int, int]:
    """Exact (min Lee, min Euclid) weight over the nonzero codewords of the
    cyclic [n, k] code over GF(p) with generator polynomial coefficients
    ``g`` (ascending, degree deg = n - k), by an information-set search for
    cyclic codes (Grassl, "Searching for linear codes with large minimum
    distance", 2006).

    Systematic form: the information set is the last k positions.  Row i of
    the parity matrix P is -(z^(deg+i) mod g) mod p, k steps of "times z,
    mod g"; one step more gives z^n mod g, which is 1 exactly when g divides
    z^n - 1.  That is checked, since the stop holds only for cyclic codes.
    A message m weighs sum_i T(m_i) + sum_j T((m P mod p)_j) under a table T.

    Enumeration: per table, the messages go by their message weight
    sum_i T(m_i), table[0] counted for a zero digit, and by support size r:
    each r-tuple of nonzero values whose message weight falls in the round's
    range (:func:`_value_tuples`) meets all C(k, r) position sets.  Per block
    of position sets, their rows of P are gathered once for the tuples of
    both tables; the parity digits are a float64 matrix product, exact as
    they stay below k p^2, reduced mod p and weighed by table lookups.
    Negation keeps both weights, so of each pair (m, -m) only the message
    whose first nonzero digit is at most (p-1)/2 is weighed; this needs odd
    p and tables with table[r] == table[-r mod p], which are checked.

    Stop: once every message of weight <= L has been seen and
    best <= ceil(n (L + 1) / k), best is the minimum.

    - Every cyclic shift of a codeword is a codeword of the same weight, and
      any k cyclically consecutive positions are an information set.  So a
      codeword that weighs at most L on some window of k cyclically
      consecutive positions has a shift whose message weighs at most L, and
      that message was enumerated.
    - Any other codeword weighs at least L + 1 on each of the n windows, and
      each position lies in k of them, so it weighs at least n (L + 1) / k.

    As best is at most n max T, the level stays below k max T, where every
    message is seen.

    Rounds: a round enumerates only the message weights above the previous
    level, the first one those up to the lightest message's.  The next level
    is the smaller of the one the current best needs, floor(k (best-1) / n),
    and twice the current one, so no round goes far past the level the code
    needs.  Before each round its messages are counted exactly: per table
    and r, the r-tuples in range, from their weight distribution (one
    convolution per r), times C(k, r).  A round of more than SEARCH_GUARD
    messages raises ValueError, naming the count.

    Memory: tuples go in blocks of about SWEEP_BUDGET / (16 k), and
    position sets in blocks small enough that the parity digits of a block
    of sets times a block of tuples hold at most SWEEP_BUDGET elements, as
    does every other working array.
    """
    if p % 2 == 0:
        raise ValueError(f"the search pairs m with -m and needs an odd p, got {p}")
    tables = np.stack([lee_table, we_table]).astype(np.int64)
    if tables.min() < 0 or not np.array_equal(tables, tables[:, -np.arange(p) % p]):
        raise ValueError("weight tables must be non-negative with table[r] == table[-r mod p]")
    g = [int(c) % p for c in g]
    deg = len(g) - 1
    shift = [-c * pow(g[-1], -1, p) % p for c in g[:-1]]  # z^deg mod g
    rows = [rem := shift]
    for _ in range(k):  # z^(deg+i) mod g for i = 1 .. k: times z, mod g
        rows.append(rem := [(a + rem[-1] * b) % p for a, b in zip([0, *rem[:-1]], shift)])
    if rows.pop() != [1, *[0] * (deg - 1)][:deg]:
        raise ValueError(f"g must divide z^{n} - 1 over GF({p}): the stop holds for cyclic codes")
    par = -np.array(rows, dtype=np.float64).reshape(k, deg) % p
    acc = np.int32 if max(k * p * p, n * int(tables.max())) < 2**31 else np.int64
    tabs = tables.tolist()
    level = [min(t[1:]) + (k - 1) * min(t) for t in tabs]  # the lightest message
    seen, best = [-1, -1], [n * max(map(max, tabs)) + 1] * 2  # above every weight
    while True:
        # per table and support size r, the r-tuples of values in the round's range
        total = 0
        for w, t in enumerate(tabs):
            # weight counts of the nonzero values, and of the first ones
            size = level[w] + 1
            hist = np.bincount(t[1:], minlength=size)[:size].astype(object)
            dist = np.bincount(t[1 : (p + 1) // 2], minlength=size)[:size].astype(object)
            for r in range(1, k + 1):
                if seen[w] == level[w] or not dist.any():
                    break  # no r-tuple is in range, nor any longer one
                # the tuple weights in range, less the k - r zero digits'
                a, b = (max(x - (k - r) * t[0] + 1, 0) for x in (seen[w], level[w]))
                total += math.comb(k, r) * int(dist[a:b].sum())
                dist = np.convolve(dist, hist)[:size]
        if total > SEARCH_GUARD:
            raise ValueError(f"the next round weighs {total} messages, above {SEARCH_GUARD = }")
        hi = [lv if sn < lv else -1 for sn, lv in zip(seen, level)]
        for found in _value_tuples(k, seen, hi, tabs, max(1, SWEEP_BUDGET // (16 * k))):
            tup, wt, tab = map(np.array, zip(*found))
            r = tup.shape[1]
            step = max(1, SWEEP_BUDGET // (max(deg, 1) * (wt.size + r)))
            sets = itertools.combinations(range(k), r)
            while (c := np.fromiter(itertools.islice(sets, step), (np.intp, r))).size:
                # per set, its rows of P times each tuple's values: the parity
                # digits (set, digit, tuple), unreduced below r p^2 and exact
                code = np.matmul(par[c].transpose(0, 2, 1), tup.T).astype(acc) % p + p * tab
                least = np.take(tables.astype(acc), code).sum(axis=1, dtype=acc).min(axis=0) + wt
                best = [int(least.min(initial=b, where=tab == w)) for w, b in enumerate(best)]
        # best needs the level floor(k (best-1) / n): at or below level L,
        # best <= ceil(n (L+1) / k) and the table is done; above, its next
        # level is the lesser of that one and twice L
        seen = level
        level = [max(x, min(k * (b - 1) // n, max(2 * x, 1))) for b, x in zip(best, level)]
        if seen == level:
            return best[0], best[1]
