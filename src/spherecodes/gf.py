"""Prime-field helpers, GF(p^k) arithmetic with lookup tables, and primality.

Extension-field elements are identified with integers in [0, p^k): the value
sum_i c_i p^i encodes the polynomial sum_i c_i z^i taken modulo a fixed monic
irreducible.  The field is built from one arithmetic, k x k matrices over
GF(p), starting from the matrix Z of multiplication by z.  Multiplication
goes through discrete log/antilog tables built from a primitive element,
addition through a Zech-logarithm table (1 + g^i = g^zech[i]), so every
table has O(p^k) entries and bulk encoding vectorizes with numpy fancy
indexing.  Table construction is guarded to small fields; that is all the
desk-scale constructions need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

#: largest extension field for which lookup tables are built
MAX_TABLE_FIELD = 1 << 14

# deterministic Miller-Rabin bases valid below 3.317e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def is_probable_prime(n: int, rounds: int = 64, seed: int = 0) -> bool:
    """Miller-Rabin primality test.

    Deterministic via the fixed base set below 3.317e24; above that,
    ``rounds`` pseudorandom bases from a generator seeded with ``seed``.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < _MR_DETERMINISTIC_LIMIT:
        bases = _MR_BASES
    else:
        rng = random.Random(seed)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(rounds))
    return not any(witness(a) for a in bases)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk scale)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def smallest_primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the prime p."""
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    phi = p - 1
    primes = list(factorize(phi))
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in primes):
            return g
    raise ArithmeticError(f"no primitive root found for {p}")  # pragma: no cover


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p by repeated squaring, for a k x k matrix over GF(p) or a
    stack of them (int64 entries in [0, p), exact while k p^2 < 2^63)."""
    out = np.eye(m.shape[-1], dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        m = m @ m % p
        e >>= 1
    return out


def _companion(coeffs, p: int) -> np.ndarray:
    """Matrix Z of multiplication by z on digit row vectors modulo the
    polynomial ``coeffs`` (ascending): row j holds the digits of z^(j+1)."""
    k = len(coeffs) - 1
    if k * (p - 1) ** 2 >= 1 << 63:
        raise ValueError(f"GF({p}) matrices of size {k} overflow int64")
    lead = coeffs[-1] % p
    if lead == 0:
        raise ValueError(f"leading coefficient {coeffs[-1]} is 0 mod {p}")
    z = np.eye(k, k, 1, dtype=np.int64)
    # z^k = -(c_0 + ... + c_(k-1) z^(k-1)) / lead
    z[-1] = np.array(coeffs[:-1], dtype=np.int64) * -pow(lead, -1, p) % p
    return z


def _is_unit(m: np.ndarray, p: int) -> bool:
    """Whether the square matrix m is invertible mod p, by elimination."""
    m = m % p
    for c in range(len(m)):
        rows = np.flatnonzero(m[c:, c])
        if not len(rows):
            return False
        m[[c, c + rows[0]]] = m[[c + rows[0], c]]
        m[c] = m[c] * pow(int(m[c, c]), -1, p) % p
        m[c + 1 :] = (m[c + 1 :] - np.outer(m[c + 1 :, c], m[c])) % p
    return True


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin test over GF(p), ascending coefficients, on the matrix Z of
    multiplication by z: degree k is irreducible iff Z^(p^k) = Z and, for
    each prime l dividing k, Z^(p^(k/l)) - Z is invertible (z^(p^(k/l)) - z
    is a unit, i.e. prime to the modulus).  A non-monic modulus gets the
    verdict of its monic multiple; a leading coefficient 0 mod p raises, and
    so does a p that is not prime, for which Z/p is no field."""
    if not is_probable_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    k = len(coeffs) - 1
    if k < 1:
        return False
    z = _companion(coeffs, p)
    if not np.array_equal(_mat_pow(z, p**k, p), z):
        return False
    return all(_is_unit(_mat_pow(z, p ** (k // ell), p) - z, p) for ell in factorize(k))


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible z^k + ... over GF(p) in counting order of the
    lower coefficients (constant term least significant)."""
    for m in range(p**k):
        coeffs = [m // p**i % p for i in range(k)] + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ArithmeticError(f"no irreducible of degree {k} over GF({p})")  # pragma: no cover


@dataclass
class ExtField:
    """GF(p^k) with integer-encoded elements and vectorized table arithmetic,
    modulo the irreducible :func:`find_irreducible` gives.

    The build is GF(p) matrix arithmetic in the companion matrix Z of that
    modulus.  The generator g is the smallest element whose matrix
    sum_i g_i Z^i has order Q - 1.  Its power table is built by doubling:
    the digit rows of g^0 .. g^(c-1) times the matrix of multiplication by
    g^c give g^c .. g^(2c-1), and squaring that matrix gives the next step,
    so Q = p^k takes about log2 Q numpy products.  The log and Zech tables
    follow from it by gathers.
    """

    p: int
    k: int

    def __post_init__(self):
        if not is_probable_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        self.Q = self.p**self.k
        if self.Q > MAX_TABLE_FIELD:
            raise ValueError(f"field size {self.Q} exceeds table guard {MAX_TABLE_FIELD}")
        self.irreducible = find_irreducible(self.p, self.k)
        self._build_tables()

    # -- integer <-> digit vectors ------------------------------------------
    def to_digits(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=np.int64)
        out = np.empty(v.shape + (self.k,), dtype=np.int64)
        for i in range(self.k):
            out[..., i] = v % self.p
            v = v // self.p
        return out

    def from_digits(self, digits) -> np.ndarray:
        """Elements from integer digit vectors (last axis, least significant
        first), by Horner's rule in place: the digits keep their dtype."""
        d = np.asarray(digits)
        v = d[..., self.k - 1].astype(np.int64)
        for i in range(self.k - 2, -1, -1):
            v *= self.p
            v += d[..., i]
        return v

    def _build_tables(self):
        q, p, k = self.Q, self.p, self.k
        z = _companion(self.irreducible, p)
        z_powers = np.stack([_mat_pow(z, i, p) for i in range(k)])
        # primitive element: smallest integer encoding with multiplicative
        # order q - 1 (the element 1 only for GF(2)), tested 16 candidates at
        # a time.  The GF(p)-linear map "multiply by g" on digit row vectors
        # is sum_i g_i Z^i: its row j holds the digits of z^j * g.
        for first in range(1, q, 16):
            candidates = np.arange(first, min(first + 16, q))
            m = np.tensordot(self.to_digits(candidates), z_powers, 1) % p
            full = np.ones(len(candidates), dtype=bool)
            for f in factorize(q - 1):
                full &= (_mat_pow(m, (q - 1) // f, p) != z_powers[0]).any(axis=(1, 2))
            if full.any():
                break
        self.generator = int(candidates[full.argmax()])
        step = m[full.argmax()]
        # powers by doubling: while the rows hold the digits of g^0 .. g^(c-1)
        # and step multiplies by g^c, the rows times step are g^c .. g^(2c-1)
        # (entries below k p^2 <= p MAX_TABLE_FIELD, exact in int64)
        powers = np.eye(1, k, dtype=np.int64)
        while len(powers) < q - 1:
            powers = np.concatenate([powers, powers @ step % p])
            step = step @ step % p
        exp = self.from_digits(powers[: q - 1])
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        # Zech logarithms: 1 + g^i = g^zech[i], -1 where 1 + g^i = 0; adding
        # one bumps the constant digit mod p.  Both tables are stored twice so
        # that any sum or difference of two logs in [-1, q-2] indexes them
        # without a reduction mod q - 1 (negative indices wrap).
        zech = log[np.where(exp % p == p - 1, exp - (p - 1), exp + 1)]
        self._zech = np.concatenate([zech, zech])
        self._exp = np.concatenate([exp, exp])
        self._log = log

    # -- vectorized field ops -------------------------------------------------
    def add(self, a, b) -> np.ndarray:
        """a + b = a (1 + b/a) = g^(log a + zech[log b - log a]) for nonzero a, b."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        out = np.where(z < 0, 0, self._exp[la + z])
        return np.where(a == 0, b, np.where(b == 0, a, out))

    def neg(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        return self.from_digits((-self.to_digits(a)) % self.p)

    def sub(self, a, b) -> np.ndarray:
        return self.add(a, self.neg(b))

    def mul(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._exp[(self._log[a] + self._log[b]) % (self.Q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero field element")
        return self._exp[(self.Q - 1 - self._log[a]) % (self.Q - 1)]


@dataclass
class RSCode:
    """Reed-Solomon evaluation code over an extension field.

    Messages are ``k_out`` field symbols, interpreted as polynomial
    coefficients (ascending) and evaluated at the first ``n_out`` integer
    encodings 0, 1, ..., n_out-1.  The code is MDS: minimum Hamming distance
    exactly n_out - k_out + 1.
    """

    fld: ExtField
    n_out: int
    k_out: int

    def __post_init__(self):
        if not 1 <= self.k_out <= self.n_out:
            raise ValueError("need 1 <= k_out <= n_out")
        if self.n_out > self.fld.Q:
            raise ValueError(
                f"length {self.n_out} exceeds field size {self.fld.Q}"
            )
        self.points = np.arange(self.n_out, dtype=np.int64)

    @property
    def distance(self) -> int:
        return self.n_out - self.k_out + 1

    def encode(self, messages) -> np.ndarray:
        """Encode rows of ``messages`` (shape (m, k_out), field-int symbols)."""
        msgs = np.atleast_2d(np.asarray(messages, dtype=np.int64))
        if msgs.shape[1] != self.k_out:
            raise ValueError(f"messages must have {self.k_out} symbols")
        if msgs.size and not 0 <= msgs.min() <= msgs.max() < self.fld.Q:
            raise ValueError(f"message symbols must lie in [0, {self.fld.Q})")
        m = msgs.shape[0]
        out = np.zeros((m, self.n_out), dtype=np.int64)
        pts = np.broadcast_to(self.points, (m, self.n_out))
        for j in range(self.k_out - 1, -1, -1):  # Horner
            out = self.fld.add(self.fld.mul(out, pts), msgs[:, j : j + 1])
        return out
