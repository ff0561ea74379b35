"""Hot inner loops: pairwise distance scans, greedy selection, codeword sweeps.

Each kernel has one numpy implementation: greedy selection by ball marking,
batched by rows of the word mask (one scatter and one argmax per kept word,
one block assignment per row and ball weight), an exact integer Gram scan for
word sets, a float pair scan that estimates square tiles of pairs by a BLAS
Gram product and re-measures by the direct formula every pair that could be
the minimum, and a meet-in-the-middle codeword weight sweep.  Both pair scans
walk the same tiles.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: elements per working array of the codeword sweep
SWEEP_BUDGET = 1 << 20


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


def _digits(idx: np.ndarray, q: int, n: int) -> np.ndarray:
    """Digits of the word indices ``idx``, leftmost digit most significant."""
    idx = np.array(idx, dtype=np.int64)
    out = np.empty((idx.size, n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        out[:, j] = idx % q
        idx //= q
    return out


def _digits_chunk(start: int, count: int, q: int, n: int) -> np.ndarray:
    """Words ``start .. start+count`` in lexicographic order, leftmost digit
    most significant."""
    return _digits(np.arange(start, start + count, dtype=np.int64), q, n)


def _half_ball(q: int, m: int, radius: int, table: np.ndarray):
    """The offsets of weight <= radius in Z_q^m, sorted by weight.

    Returns their weights and a map from a word index w of Z_q^m to the
    indices of the translates (w + offset) mod q, in the same order.  With
    table[0] == 0 the zero offset comes first.
    """
    total = q**m
    rows = max(1, SWEEP_BUDGET // max(m, 1))
    parts = []
    for start in range(0, total, rows):
        chunk = _digits_chunk(start, min(rows, total - start), q, m)
        parts.append(chunk[table[chunk].sum(axis=1) <= radius])
    offs = np.concatenate(parts)
    wt = table[offs].sum(axis=1)
    order = np.argsort(wt, kind="stable")
    offs_t = offs[order].T.copy()
    place = q ** np.arange(m - 1, -1, -1, dtype=np.int64)

    def translate(w: int) -> np.ndarray:
        return place @ (((w // place % q)[:, None] + offs_t) % q)

    return wt[order], translate


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
    low part l, and the mask is a q^(n - n//2) x q^(n//2) matrix with one row
    per h.  The translate (w + B) mod q meets the row of w only through the
    zero high offset; every other high offset, weight 0 included, moves it to
    another row.  Kept words come in increasing order, so their rows never
    decrease, and the mask is marked one row at a time:

    - inside row h, a kept low part l clears its translate by the low offsets
      of weight <= d-1, and the next candidate is the first free index after
      l: one scatter and one argmax per kept word;
    - when row h has no free index left, the translates of all its kept words
      are cleared from every other row at once, one rows x columns block per
      weight u of the nonzero high offsets, with the low offsets of weight
      <= d-1-u as columns.

    The result is the one per-word marking gives.  When row h is scanned,
    every kept word of an earlier row has cleared its whole translate, and
    what a word of row h clears in row h itself is cleared as it is kept;
    what it clears elsewhere lies in rows already scanned, where it changes
    nothing because the kept words are recorded as they are chosen, not read
    back from the mask, or in later rows, which are cleared before they are
    scanned.

    Memory: the mask (q^n bytes), the two half balls, the low translates of
    the distinct kept low parts (8 |B_lo| bytes each, B_lo the low offsets of
    weight <= d-1, computed once each), the stacked translates of one row and
    the K x n digits of the result.  Neither B nor a table of translates over
    the word space is held.
    """
    total = q**n
    if d <= table[1:].min():  # every two distinct words are at weight >= d
        return _digits_chunk(0, total, q, n)
    n_lo = n // 2
    size_lo = q**n_lo
    hi_wt, hi_translate = _half_ball(q, n - n_lo, d - 1, table)
    lo_wt, lo_translate = _half_ball(q, n_lo, d - 1, table)
    # the zero high offset comes first and keeps a translate in its row; every
    # other one, weight 0 included, moves it to another row
    weights, starts = np.unique(hi_wt[1:], return_index=True)
    starts += 1
    ends = np.append(starts[1:], hi_wt.size)
    widths = np.searchsorted(lo_wt, d - 1 - weights, side="right")
    blocks = list(zip(starts.tolist(), ends.tolist(), widths.tolist()))
    lo_cache: dict[int, np.ndarray] = {}
    free = np.ones((total // size_lo, size_lo), dtype=bool)
    kept = []
    for h in range(free.shape[0]):
        row = free[h]
        l = int(row.argmax())
        if not row[l]:
            continue
        row_kept = []
        while True:
            row_kept.append(l)
            tr = lo_cache.get(l)
            if tr is None:
                tr = lo_cache[l] = lo_translate(l)
            row[tr] = False
            l += int(row[l:].argmax())  # l itself was just cleared
            if not row[l]:
                break
        kept.append(h * size_lo + np.array(row_kept))
        rows = hi_translate(h)
        cols = np.concatenate([lo_cache[l] for l in row_kept]).reshape(len(row_kept), -1)
        for a, b, width in blocks:
            free[rows[a:b, None], cols[:, :width].reshape(1, -1)] = False
    return _digits(np.concatenate(kept), q, n)


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
    columns = q * np.arange(n)

    @functools.lru_cache(maxsize=1)  # one row block serves a row of tiles
    def left(start: int, stop: int) -> np.ndarray:
        # row i of U @ blockdiag(C) holds C[u_ij, b] at column j*q + b
        return cost[w[start:stop]].reshape(-1, n * q)

    def dist(rows: slice, cols: slice) -> np.ndarray:
        tail = w[cols]
        onehot = np.zeros((tail.shape[0], n * q))
        onehot[np.arange(tail.shape[0])[:, None], tail + columns] = 1.0
        return left(rows.start, rows.stop) @ onehot.T

    best = min((vals.min() for _, _, vals in _tiles(m, n, dist)), default=np.inf)
    return int(best) if m >= 2 else int(np.iinfo(np.int64).max)


def _encode_int16(start: int, count: int, p: int, rows: np.ndarray) -> np.ndarray:
    """Codewords of messages ``start .. start+count`` (lexicographic order) over
    the generator ``rows``, reduced mod p, as int16."""
    msgs = _digits_chunk(start, count, p, rows.shape[0])
    return ((msgs @ rows) % p).astype(np.int16)


def cyclic_min_weights(
    g: np.ndarray, k: int, n: int, p: int, lee_table: np.ndarray, we_table: np.ndarray
) -> tuple[int, int]:
    """Exhaustive (min Lee, min Euclid) weight over the nonzero codewords of
    the cyclic code with generator polynomial coefficients ``g`` (ascending,
    degree n-k), by a meet-in-the-middle sweep.

    A message splits into a high half h (its first k - k//2 digits) and a low
    half l (its last k//2 digits), and its codeword is c(h) + c(l).  Generator
    row i is g shifted by i, so c(h) is zero from column k - k//2 + deg on and
    c(l) is zero before column k - k//2: only the deg columns in between hold
    a sum a + b of two residues, unreduced, whose weight is read from a table
    of length 2p - 1 that folds in the reduction mod p.  The p^(k//2) low-half
    codewords are encoded once as int16, in chunks of at most SWEEP_BUDGET
    elements per working array.  For each middle column and each value a high
    codeword can hold there, the table reads over the low block are taken
    once; a high codeword then costs deg row gathers and deg + 1 additions
    over the low block, and every codeword's weight is computed exactly.

    Negation keeps both weights, so only one message of each pair (m, -m) is
    swept: the high halves that are zero or whose first nonzero digit is at
    most (p-1)/2.  This needs odd p and tables with table[r] == table[-r mod p],
    which are checked.  Sums accumulate in the smallest unsigned dtype that
    holds n * max(table).
    """
    if p % 2 == 0:
        raise ValueError(f"the sweep pairs m with -m and needs an odd p, got {p}")
    tables = np.stack([lee_table, we_table]).astype(np.int64)
    if tables.min() < 0 or not np.array_equal(tables, tables[:, -np.arange(p) % p]):
        raise ValueError("weight tables must be non-negative with table[r] == table[-r mod p]")
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
    # one index range per position of the first nonzero digit, which is at most (p-1)/2
    hi_ranges = [(0 if e == 0 else p**e, (p + 1) // 2 * p**e) for e in range(k_hi)]
    total_lo = p ** (k // 2)
    lo_rows = max(1, SWEEP_BUDGET // max(n, 2 * deg * p))
    big = int(np.iinfo(acc).max)
    best = [big, big]
    for l0 in range(0, total_lo, lo_rows):
        lo = _encode_int16(l0, min(lo_rows, total_lo - l0), p, gen[k_hi:])
        lo_right = tables[:, lo[:, k_hi + deg :]].sum(axis=2, dtype=acc)
        # reads[w, j, v] = weight w of column k_hi + j over the low block when
        # the high codeword holds v there
        reads = folded[:, shift + lo[:, mid].T[:, None, :]]
        batch = max(1, SWEEP_BUDGET // max(lo.shape[0], n))
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
