"""Desk-scale code builders and the lift to finished spherical codes.

Pipeline: greedy Gilbert word sets or Lee-metric BCH inner codes over GF(p),
optionally concatenated with a Reed-Solomon outer code over GF(p^k), then
embedded through the centered constellation and lifted onto the unit sphere.
Guaranteed squared-distance floors travel with each object; measured minima
are recomputed independently (exhaustively at small scale, sampled above).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import euclid, gf, kernels
from .euclid import constellation
from .gf import RSCode, is_probable_prime

#: scale guard for full word-space scans
GREEDY_GUARD = 10**7
#: codebook size above which distance verification is sampled
EXHAUSTIVE_GUARD = 10**5


def primality_check(n: int, rounds: int = 64, seed: int = 0) -> bool:
    """Miller-Rabin verdict for odd n >= 3 (see :func:`gf.is_probable_prime`)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("expected an odd integer >= 3")
    return is_probable_prime(n, rounds=rounds, seed=seed)


def greedy_gilbert(q: int, n: int, d: int) -> np.ndarray:
    """Greedy lexicographic word selection at pairwise difference weight >= d.

    Scans all of Z_q^n in lex order and keeps a word iff it has squared
    Euclidean (difference-weight) distance >= d to every kept word.  The
    result always satisfies |C| >= q^n / V(n, q, d-1).
    """
    if q < 2 or n < 1 or d < 1:
        raise ValueError("need q >= 2, n >= 1, d >= 1")
    if q**n > GREEDY_GUARD:
        raise ValueError(
            f"q**n = {q**n} exceeds the scan guard {GREEDY_GUARD}; "
            "reduce n or q"
        )
    c = constellation(q)
    return kernels.greedy_lex(q, n, d, c.euclid_table)


@dataclass(frozen=True)
class LeeBCH:
    """Cyclic code of length p-1 over GF(p) with generator polynomial
    (z - 1)(z - a)...(z - a^(t-1)), a the smallest primitive root mod p.

    Dimension k = p - 1 - t; the Lee minimum distance is at least 2t, and the
    per-coordinate bound min(r, q-r) <= min(r^2, (q-r)^2) pushes the same
    floor onto the squared Euclidean distance.  The root window starting at
    a^0 = 1 matters: with roots a^1..a^t instead, weight-3 words such as
    z + z^3 + z^5 (p = 7) slip in and the 2t floor fails.
    """

    p: int
    t: int
    n: int
    k: int
    alpha: int
    g: tuple[int, ...]
    metric_floor: int

    @property
    def generator_matrix(self) -> np.ndarray:
        return kernels.shifted_generator(self.g, self.k, self.n)

    @property
    def size(self) -> int:
        return self.p**self.k

    def encode(self, messages) -> np.ndarray:
        msgs = np.atleast_2d(np.asarray(messages, dtype=np.int64))
        if msgs.shape[1] != self.k:
            raise ValueError(f"messages must have {self.k} symbols")
        return (msgs @ self.generator_matrix) % self.p

    def min_weights(self) -> tuple[int, int]:
        """Exact (min Lee, min Euclid) weight over all nonzero codewords, by
        the cyclic information-set search of :func:`kernels.cyclic_min_weights`.

        Raises ValueError, naming the count, when a round of the search would
        weigh more than ``kernels.SEARCH_GUARD`` messages, before the round
        starts.  The rounds grow with the message weight the minimum needs,
        about k (2t - 1) / n: (127, 2), (61, 3), (29, 3) and (17, 4) are
        searched in under a second, and (23, 6) is refused.
        """
        c = constellation(self.p)
        return kernels.cyclic_min_weights(
            np.asarray(self.g),
            self.k,
            self.n,
            self.p,
            c.lee_table,
            c.euclid_table,
        )


def lee_bch(p: int, t: int) -> LeeBCH:
    """Build the Lee-metric BCH code for prime p >= 5, 1 <= t <= (p+1)/2."""
    if p < 5 or not is_probable_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    if not 1 <= t <= (p + 1) // 2:
        raise ValueError(f"t must lie in [1, {(p + 1) // 2}], got {t}")
    alpha = gf.smallest_primitive_root(p)
    g = [1]
    root = 1
    for _ in range(t):
        # multiply g by (z - root), roots 1, alpha, ..., alpha^(t-1)
        new = [0] * (len(g) + 1)
        for i, gi in enumerate(g):
            new[i + 1] = (new[i + 1] + gi) % p
            new[i] = (new[i] - root * gi) % p
        g = new
        root = root * alpha % p
    n = p - 1
    k = n - t
    return LeeBCH(p=p, t=t, n=n, k=k, alpha=alpha, g=tuple(g), metric_floor=2 * t)


@dataclass(frozen=True)
class ConcatenatedCode:
    """Outer Reed-Solomon over GF(p^k) composed with an inner Lee BCH over GF(p).

    Each outer symbol, read as its coefficient vector of length k over GF(p),
    becomes the inner-code message for one block.  The squared-distance floor
    multiplies: d_outer * inner floor.  The code is GF(p)-linear, with the one
    generator :meth:`generator_matrix`.
    """

    outer: RSCode
    inner: LeeBCH
    metric_floor: int

    @property
    def p(self) -> int:
        return self.inner.p

    @property
    def n(self) -> int:
        return self.outer.n_out * self.inner.n

    @property
    def k_total(self) -> int:
        return self.outer.k_out * self.inner.k

    @property
    def size(self) -> int:
        return self.p**self.k_total

    def encode(self, messages) -> np.ndarray:
        """Encode rows of outer messages (shape (m, k_out), field-int symbols):
        the outer codeword, then each of its symbols through the inner code."""
        symbols = self.outer.encode(messages)  # (m, n_out)
        digits = self.outer.fld.to_digits(symbols)  # (m, n_out, k_in)
        blocks = (digits @ self.inner.generator_matrix) % self.p  # (m, n_out, n_in)
        return blocks.reshape(symbols.shape[0], self.n)

    def encode_p_message(self, messages) -> np.ndarray:
        """Encode rows of GF(p) digit messages (shape (m, k_total)): one
        product with :meth:`generator_matrix`, mod p."""
        msgs = np.atleast_2d(np.asarray(messages, dtype=np.int64))
        if msgs.shape[1] != self.k_total:
            raise ValueError(f"messages must have {self.k_total} digits")
        return msgs @ self.generator_matrix() % self.p

    def generator_matrix(self) -> np.ndarray:
        """GF(p) generator of the concatenated code (k_total x n, read-only),
        built once per code: the outer generator (:meth:`RSCode.generator`)
        with each k-digit block of columns times the inner generator, mod p.
        Row i k + j is the codeword of the message whose only nonzero digit is
        digit j of outer symbol i."""
        return self._generator

    @functools.cached_property
    def _generator(self) -> np.ndarray:
        outer = self.outer.generator().reshape(self.k_total, self.outer.n_out, self.inner.k)
        gen = (outer @ self.inner.generator_matrix % self.p).reshape(self.k_total, self.n)
        gen.flags.writeable = False
        return gen

    def sample_words(self, count: int, seed: int = 0) -> np.ndarray:
        """``count`` distinct codewords of uniformly drawn messages.

        A message that repeats an earlier row is redrawn, so no two sampled
        points coincide (two equal points would put rho at 0).
        """
        Q, k_out = self.outer.fld.Q, self.outer.k_out
        self.outer.fld.check_int64()
        if count > Q**k_out:
            raise ValueError(f"cannot sample {count} distinct codewords of {Q}^{k_out}")
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, Q, size=(count, k_out))
        while True:
            # every row but the first occurrence of its message
            repeat = np.ones(count, dtype=bool)
            repeat[np.unique(msgs, axis=0, return_index=True)[1]] = False
            if not repeat.any():
                return self.encode(msgs)
            msgs[repeat] = rng.integers(0, Q, size=(int(repeat.sum()), k_out))

    def sampled_min_distance(self, pairs: int, seed: int = 0) -> int:
        """Minimum difference weight over ``pairs`` random distinct codeword pairs.

        The code is GF(p)-linear, so d(c(a), c(b)) = wt(c(a - b)).  Each pair
        costs one product: the digit difference of its two messages times
        :meth:`generator_matrix`.  The digit differences lie in [-(p-1), p-1],
        so the product runs on BLAS in float64 and is exact: every partial sum
        is an integer of absolute value at most top = k_total (p-1)^2, which
        must stay below 2^53.  One fold table maps each unreduced value in
        [-top, top] to the Euclid weight of its residue mod p, and the weight
        of the codeword is the fold summed over its n positions.

        Memory: the draws are int64 as the generator returns them, and each
        is narrowed to the field's smallest unsigned dtype at once, so the
        scan holds one int64 draw array at a time, the two narrowed draw
        arrays and one block.  A block has about 2^17 elements per working
        array (2730 pairs for the README code's 48 positions), so its
        products stay in cache and BLAS keeps small buffers.  The draws'
        digits are gathered from a table of every symbol's digits while it
        holds at most ``kernels.SWEEP_BUDGET`` elements (Q k), and computed
        from each block's draws above that: no array grows with Q past the
        budget.
        """
        if pairs < 1:
            raise ValueError(f"pairs must be >= 1, got {pairs}")
        fld, k_out = self.outer.fld, self.outer.k_out
        fld.check_int64()
        top = self.k_total * (self.p - 1) ** 2
        if top >= 2**53:
            raise ValueError(
                "k_total * (p-1)^2 must stay below 2^53 for an exact float64 encode"
            )
        rng = np.random.default_rng(seed)
        narrow = np.min_scalar_type(fld.Q - 1)
        a = rng.integers(0, fld.Q, size=(pairs, k_out)).astype(narrow)
        b = rng.integers(0, fld.Q, size=(pairs, k_out)).astype(narrow)
        same = np.all(a == b, axis=1)
        while np.any(same):
            b[same] = rng.integers(0, fld.Q, size=(int(same.sum()), k_out))
            same = np.all(a == b, axis=1)
        if fld.Q * fld.k <= kernels.SWEEP_BUDGET:
            table = fld.to_digits(np.arange(fld.Q)).astype(np.float64)

            def digits(s):
                return np.take(table, s, axis=0)
        else:

            def digits(s):
                return fld.to_digits(s).astype(np.float64)

        gen = self.generator_matrix().astype(np.float64)
        weights = constellation(self.p).euclid_table
        fold = weights[np.arange(-top, top + 1) % self.p].astype(np.min_scalar_type(weights.max()))
        # the narrowest dtype that holds every codeword weight sums fastest
        acc = np.min_scalar_type(self.n * int(weights.max()))
        best = np.iinfo(np.int64).max
        chunk = kernels._block_rows(1, self.n, 1 << 17)
        for i0 in range(0, pairs, chunk):
            diff = digits(a[i0 : i0 + chunk])
            diff -= digits(b[i0 : i0 + chunk])
            prod = diff.reshape(diff.shape[0], self.k_total) @ gen
            prod += top
            best = min(best, int(fold[prod.astype(np.intp)].sum(axis=1, dtype=acc).min()))
        return best


def concatenate(outer: RSCode, inner: LeeBCH) -> ConcatenatedCode:
    """Compose an outer RS code with an inner Lee BCH code; alphabets must match."""
    if outer.fld.p != inner.p or outer.fld.k != inner.k:
        raise ValueError(
            f"outer field GF({outer.fld.p}^{outer.fld.k}) does not match "
            f"inner code over GF({inner.p}) of dimension {inner.k}"
        )
    return ConcatenatedCode(
        outer=outer, inner=inner, metric_floor=outer.distance * inner.metric_floor
    )


def linear_min_distance(words, p: int) -> int:
    """Minimum difference weight of a GF(p)-linear code given all its codewords.

    Differences of codewords are codewords, so this is the minimum Euclidean
    weight over the nonzero rows: O(|C| n) work instead of the O(|C|^2 n)
    pairwise scan.  The rows may come in any order.
    """
    w = np.atleast_2d(np.asarray(words, dtype=np.int64))
    nonzero = w[w.any(axis=1)]
    if nonzero.shape[0] == 0:
        raise ValueError("a code without nonzero codewords has no minimum distance")
    return int(constellation(p).euclid_table[nonzero].sum(axis=1).min())


@dataclass(frozen=True)
class SphericalCodeResult:
    """Finite unit-sphere code with its measured squared minimum distance."""

    points: np.ndarray  # (m, n+1), unit rows
    rho: float
    binary_rate: float
    n_words: int
    word_length: int
    floor_rho: float | None


def to_spherical(q: int, words, d_floor: int | None = None) -> SphericalCodeResult:
    """Embed words over Z_q, lift onto the sphere of radius sqrt(n*a)
    (:func:`euclid.yaglom_lift`), renormalize to the unit sphere, and measure
    the squared minimum distance.

    rho is the minimum over all pairs of the direct squared differences
    sum_k (x_k - y_k)^2 of the float64 unit points (see
    :func:`kernels.min_sq_dist_real`).  With ``d_floor`` given, it is
    guaranteed up to that float roundoff to be at least d_floor / (n*a).
    """
    c = constellation(q)
    w = np.atleast_2d(np.asarray(words, dtype=np.int64))
    if w.size == 0:
        raise ValueError("empty word set")
    if np.any(w < 0) or np.any(w >= c.q):
        raise ValueError(f"residues out of range for q={c.q}")
    m, n = w.shape
    r2 = n * c.a
    pts = euclid.yaglom_lift(np.asarray(c.reps)[w], radius_sq=r2) / math.sqrt(r2)
    rho = euclid.min_sq_distance(pts) if m >= 2 else math.inf
    return SphericalCodeResult(
        points=pts,
        rho=rho,
        binary_rate=math.log2(m) / (n + 1),
        n_words=m,
        word_length=n,
        floor_rho=None if d_floor is None else d_floor / r2,
    )
