"""Hot inner loops: pairwise distance scans, greedy selection, codeword sweeps.

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
could be the minimum; and a meet-in-the-middle codeword weight sweep that
pairs the overlap classes of the two message halves instead of their
codewords, and only the pairs whose own-column weights leave room below
the best weight found, with each class's lightest own columns found by one
min-plus pass over its half's message digits, without encoding them.  All
but the greedy masks are numpy.  Both pair scans walk the same tiles.  The
translate check shares no code with the greedy selection it checks, and the
Gram scan is its cross-check.

The package enumerates words by index only through :func:`digits`, and builds
a cyclic generator from its polynomial only through :func:`shifted_generator`.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

#: elements per working array of the codeword sweep
SWEEP_BUDGET = 1 << 20
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


def _class_minima(gen, m, halve, own, p, tables, acc):
    """Per class of one half's codewords and per table, the least weight of
    the columns ``own``.

    ``gen`` holds the half's generator rows, one per message digit, most
    significant digit first, and a codeword's class is the value of its
    message's last m digits.  The messages swept are the nonzero ones, with
    ``halve`` only those whose first nonzero digit is at most (p-1)/2.
    Returns the minima, shape (2, p^m), holding ``iinfo(acc).max`` for a class
    without a swept message, and the codewords of messages 0 .. p^m - 1 (one
    per class), shape (columns, p^m).

    One min-plus pass over the message digits, most significant first (a
    Wolf trellis, IEEE Trans. IT 24(1), 1978, run on the generator side).
    After digit r it holds, per table and per value of the live digits, the
    least weight of the own columns weighed so far over the swept messages
    whose digits up to r take that value.  The live digits are those that an
    own column weighed later still reads, and the class digits.  Appending
    digit r multiplies the values by p; each own column whose last nonzero
    row is r is weighed there, once, from the live digits, through a table
    that folds the reduction mod p into the unreduced sum of its terms; and
    a digit that no later own column reads, bar a class digit, is dropped by
    a minimum over its axis.  The messages whose digits so far are all zero
    are carried apart, as table[0] per own column weighed, and enter at
    their first nonzero digit, with ``halve`` only at 1 .. (p-1)/2, so the
    zero message never enters.  A value above the largest own weight marks
    one that no swept message takes.

    Memory: digit r is appended in slices of its values, so that each
    working array holds at most SWEEP_BUDGET / 4 elements while the values
    held before it (2 p^live) do.  They do for every code below
    ``codes.SWEEP_GUARD``, as do the p x p products mod p and the fold table
    (2 k p).  Other digits are dropped within a slice; digit r itself, when
    no later own column reads it (never in a shifted generator), once its
    slices are joined.  Plus the codewords returned.  A slice that small
    stays in cache: slices of SWEEP_BUDGET elements took (787, 1) from 2.1
    to 7.2 s on 2 cores.
    """
    k = gen.shape[0]
    mul = np.arange(p) * np.arange(p)[:, None] % p  # mul[g, a] = g a mod p
    # per row, the own columns whose last read row it is: a column reads its
    # nonzero rows (row 0 if none, as table[0]), each by its terms g a mod p
    # over the digits a; a digit is dropped after the last row that weighs a
    # column reading it, and a class digit never.  Both lists keep a spare
    # entry for the zero columns of a half without rows
    weighed = [[] for _ in range(k + 1)]
    drop = [i if i < k - m else k for i in range(k + 1)]
    for col in gen.T[own].tolist():
        terms = {i: mul[g] for i, g in enumerate(col) if g} or {0: mul[0]}
        weighed[max(terms)].append(terms)
        for i in terms:
            drop[i] = max(drop[i], max(terms))
    lim = int(own.sum()) * int(tables.max())  # above lim: no message swept
    # folded[s] weighs the residue s mod p, for every sum s of at most k terms
    folded = tables.T[np.arange(k * p) % p].astype(np.min_scalar_type(2 * lim + 1))
    top = (p + 1) // 2 if halve else p  # first nonzero digits swept are 1 .. top-1
    least = np.full(2, lim + 1, dtype=folded.dtype)  # per live digit value, then table
    for r in range(k):
        live = [i for i in range(r + 1) if drop[i] >= r]
        step = max(1, SWEEP_BUDGET // 4 // least.size)  # values of digit r per slice
        parts = []
        for a0 in range(0, p, step):
            x = np.repeat(least[..., None, :], min(step, p - a0), axis=-2)
            # the messages whose first nonzero digit is r, each own column
            # weighed so far at table[0]
            at = (0,) * (len(live) - 1) + (slice(max(1 - a0, 0), max(top - a0, 0)),)
            x[at] = np.minimum(x[at], folded[:1] * sum(map(len, weighed[:r])))
            for terms in weighed[r]:
                # each read digit's terms along its axis, with an axis of
                # length 1 per later live digit, summed by broadcasting
                cut = {**terms, r: terms[r][a0 : a0 + step]}
                v = sum(t.reshape((-1,) + (1,) * live[::-1].index(i)) for i, t in cut.items())
                x += np.take(folded, v, axis=0, mode="clip")
            parts.append(x.min(axis=tuple(a for a, i in enumerate(live[:-1]) if drop[i] == r)))
        least = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2)
        least = least.min(axis=-2) if drop[r] == r else least
    words = gen[k - m :].T @ digits(np.arange(p**m), p, m).T
    words %= p
    return np.where(least > lim, np.iinfo(acc).max, least).reshape(-1, 2).T.astype(acc), words


def _band_min_weights(gen, k_hi, deg, p, tables, acc):
    """Least weight per table (``tables``, of dtype ``acc``) over the nonzero
    messages of ``gen``: the meet-in-the-middle of :func:`cyclic_min_weights`
    for any generator of the shape it needs.  The first k_hi rows vanish from
    column k_hi + deg on, the others before column k_hi, and only the last
    deg of the first k_hi rows and the first deg of the others reach the
    overlap columns k_hi .. k_hi+deg-1."""
    k, n = gen.shape
    big = int(np.iinfo(acc).max)
    hi_least, hi_words = _class_minima(
        gen[:k_hi, : k_hi + deg], min(deg, k_hi), True, np.arange(k_hi + deg) < k_hi,
        p, tables, acc,
    )
    # the low rows reversed, so that the low digits that reach the overlap come last
    lo_least, lo_words = _class_minima(
        gen[k_hi:][::-1, k_hi:], min(deg, k - k_hi), False, np.arange(n - k_hi) >= deg,
        p, tables, acc,
    )
    hi_keep, lo_keep = hi_least[0] < big, lo_least[0] < big
    hi_least, hi_dig = hi_least[:, hi_keep], hi_words[k_hi:, hi_keep].T
    lo_least, lo_dig = lo_least[:, lo_keep], lo_words[:deg, lo_keep].T
    # a half alone: the high halves with l = 0 and the low halves with h = 0,
    # each also weighing table[0] per own column of the other, zero, half
    t0 = tables[:, 0].tolist()
    best = [big, big]
    for least, dig, blank in ((hi_least, hi_dig, n - k_hi - deg), (lo_least, lo_dig, k_hi)):
        if least.shape[1]:
            alone = (least + np.take(tables, dig, axis=1).sum(axis=2, dtype=acc)).min(axis=1)
            best = [min(b, a + blank * z) for b, a, z in zip(best, alone.tolist(), t0)]
    if not lo_dig.shape[0]:  # k = 1: no low half to pair with
        return best[0], best[1]
    # sums[w, a, c] = weight w of the residue a + c mod p
    residues = np.arange(p)
    sums = np.take(tables, residues[:, None] + residues, axis=1, mode="wrap")
    # a low class adds up row 0 of reads (below) and the rows 1 + deg a + j,
    # a its value in overlap column j
    picks = np.zeros((lo_dig.shape[0], deg + 1), dtype=np.intp)
    picks[:, 1:] = 1 + deg * lo_dig + np.arange(deg)
    hi_rows = max(1, SWEEP_BUDGET // (p * deg + 1))
    for w in range(2):
        hi_order = np.argsort(hi_least[w], kind="stable")
        lo_order = np.argsort(lo_least[w], kind="stable")
        hv, lv, lo_picks = hi_least[w, hi_order], lo_least[w, lo_order], picks[lo_order]
        # the low classes in groups of equal own weight b, lightest first
        weights, starts = np.unique(lv, return_index=True)
        groups = list(zip(weights.tolist(), starts.tolist(), [*starts[1:].tolist(), lv.size]))
        u0 = 0
        # the high classes that the lightest group can still pair with
        while u0 < (top := int(hv.searchsorted(best[w] - groups[0][0]))):
            u1 = min(top, u0 + hi_rows)
            # reads[0] holds the own weights of high classes u0 .. u1-1, and
            # reads[1 + deg a + j] the weights of their overlap column j when
            # the low class holds a there
            reads = np.empty((1 + p * deg, u1 - u0), dtype=acc)
            reads[0] = hv[u0:u1]
            reads[1:] = sums[w][:, hi_dig[hi_order[u0:u1]].T].reshape(p * deg, u1 - u0)
            for b, v0, v1 in groups:
                # only the high classes lighter than best - b can lower best
                while (cut := int(reads[0].searchsorted(best[w] - b))) and v0 < v1:
                    vd = lo_picks[v0 : min(v1, v0 + max(1, SWEEP_BUDGET // ((deg + 1) * cut)))]
                    s = reads[vd, :cut].sum(axis=1, dtype=acc)
                    best[w] = min(best[w], b + int(s.min()))
                    v0 += vd.shape[0]
                if not cut:
                    break  # and so do all heavier groups
            u0 = u1
    return best[0], best[1]


def sweep_work(p: int, k: int, deg: int) -> int:
    """The work of :func:`cyclic_min_weights` on k message digits over GF(p)
    and a generator of degree deg: the entries the passes of its two halves
    touch plus every class pair it could read, so at least the work it does;
    the pruned pairing reads only the pairs that can still beat the best
    weight.  Before its digit r, the pass over a half of h digits holds
    min(r, deg) <= min(h - 1, deg) live digits, fewer where g has zero
    coefficients, and appending the digit touches p^(live + 1) entries, so
    the pass touches at most h p^min(h, deg + 1)."""
    k_hi = k - k // 2
    n_hi, n_lo = (p**k_hi - 1) // 2, p ** (k - k_hi) - 1
    passes = sum(h * p ** min(h, deg + 1) for h in (k_hi, k // 2))
    return passes + min(n_hi, p**deg) * min(n_lo, p**deg)


def cyclic_min_weights(
    g: np.ndarray, k: int, n: int, p: int, lee_table: np.ndarray, we_table: np.ndarray
) -> tuple[int, int]:
    """Exhaustive (min Lee, min Euclid) weight over the nonzero codewords of
    the cyclic code with generator polynomial coefficients ``g`` (ascending,
    degree deg = n-k), by a meet-in-the-middle sweep over overlap classes.

    A message splits into a high half h (its first k_hi = k - k//2 digits) and
    a low half l (its last k//2 digits), and its codeword is c(h) + c(l).
    Generator row i is g shifted by i, so c(h) is zero from column k_hi + deg
    on and c(l) is zero before column k_hi.  With u = c(h)[k_hi : k_hi+deg]
    and v = c(l)[k_hi : k_hi+deg] the overlap values, the weight under a
    table T is

        W(c(h)[:k_hi]) + W(c(l)[k_hi+deg:]) + sum_j T(u_j + v_j).

    Why pairing classes is exact: the last term depends on h and l only
    through (u, v).  So among the messages whose halves have overlap values u
    and v, the lightest under T pairs a high half of class u whose own
    columns c(h)[:k_hi] are lightest under T with a low half of class v whose
    own columns c(l)[k_hi+deg:] are lightest under T; the two tables may pick
    different halves.  Only u depends on h, and only through its last
    min(k_hi, deg) digits; only v depends on l, through its first
    min(k//2, deg) digits.  The sweep groups each half by those digits (a
    class; when g[0] and g[deg] are nonzero the map to u or v is
    triangular with an invertible diagonal, so the classes are the occupied
    overlap values), finds per class and table the least weight of the own
    columns by one min-plus pass over the half's message digits, which
    encodes no codeword (:func:`_class_minima`), and pairs classes instead
    of codewords.  When k_hi <= deg and k//2 <= deg every class holds one
    codeword; otherwise the classes collide and there are at most p^deg of
    them.  :func:`sweep_work` counts the entries the passes touch and bounds
    the class pairs.

    Pairing, pruned by a lower bound: the tables are non-negative, so a pair
    of classes weighs at least the sum of their two own-column minima, and a
    pair whose bound reaches the best weight found cannot lower it (the stop
    of Brouwer-Zimmermann; Grassl, "Searching for linear codes with large
    minimum distance", 2006).  The best weight starts from the messages with
    l = 0 or h = 0, the high or the low halves alone: each its class minimum
    plus the weight of its overlap values and of the other half's zero own
    columns; the zero message is in neither half's classes.  Per table, the
    high classes are sorted by own weight and the low classes grouped by it,
    lightest group first.  A group of own weight b meets only the high
    classes lighter than best - b, a prefix of the sorted ones that shrinks
    as best falls, and the sweep stops at the first group that no high class
    can meet.  For each overlap column j and residue a, the weights of
    a + (the high classes' value in column j) mod p are read once over the
    prefix, so a block of low classes costs one gather of deg + 1 rows per
    low class and a sum over them, within SWEEP_BUDGET elements.

    Negation keeps both weights, so only one message of each pair (m, -m)
    with h != 0 is swept: the high halves whose first nonzero digit is at
    most (p-1)/2.  This needs odd p and tables with
    table[r] == table[-r mod p], which are checked.  Sums accumulate in the
    smallest unsigned dtype above n * max(table), whose largest value marks an
    empty class.
    """
    if p % 2 == 0:
        raise ValueError(f"the sweep pairs m with -m and needs an odd p, got {p}")
    tables = np.stack([lee_table, we_table]).astype(np.int64)
    if tables.min() < 0 or not np.array_equal(tables, tables[:, -np.arange(p) % p]):
        raise ValueError("weight tables must be non-negative with table[r] == table[-r mod p]")
    acc = np.min_scalar_type(n * int(tables.max()) + 1)
    return _band_min_weights(
        shifted_generator(g, k, n), k - k // 2, g.size - 1, p, tables.astype(acc), acc
    )
