"""Prime-field helpers, GF(p^k) arithmetic with lookup tables, and primality.

Extension-field elements are identified with integers in [0, p^k): the value
sum_i c_i p^i encodes the polynomial sum_i c_i z^i taken modulo a fixed monic
irreducible.  Multiplication goes through discrete log/antilog tables built
from a primitive element, addition through a Zech-logarithm table
(1 + g^i = g^zech[i]), so every table has O(p^k) entries and bulk encoding
vectorizes with numpy fancy indexing.  Table construction is guarded to small
fields; that is all the desk-scale constructions need.
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


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p) (coefficient lists, ascending degree)
# ---------------------------------------------------------------------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, mod, p)


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = [x % p for x in a]
    _poly_trim(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while a and len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        factor = a[-1] * inv_lead % p
        for j, mj in enumerate(mod):
            a[shift + j] = (a[shift + j] - factor * mj) % p
        _poly_trim(a)
    return a


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_rem(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, mod, p)
        base = _poly_mul_mod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while _poly_trim(b):
        a, b = b, _poly_rem(a, b, p)
    return _poly_trim(a)


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin test for a monic polynomial over GF(p), ascending coefficients."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    x = _poly_rem([0, 1], coeffs, p)  # z itself is reduced when k == 1
    xq = _poly_powmod(x, p**k, coeffs, p)
    if _poly_sub(xq, x, p):
        return False
    for ell in factorize(k):
        xql = _poly_powmod(x, p ** (k // ell), coeffs, p)
        diff = _poly_sub(xql, x, p)
        if not diff:
            return False
        if len(_poly_gcd(coeffs, diff, p)) > 1:
            return False
    return True


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible z^k + ... over GF(p) in counting order of the
    lower coefficients (constant term least significant)."""
    for m in range(p**k):
        coeffs = []
        v = m
        for _ in range(k):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ArithmeticError(f"no irreducible of degree {k} over GF({p})")  # pragma: no cover


@dataclass
class ExtField:
    """GF(p^k) with integer-encoded elements and vectorized table arithmetic,
    modulo the irreducible :func:`find_irreducible` gives.

    The power table of the generator g is built by doubling: the digit rows
    of g^0 .. g^(c-1) times the matrix of multiplication by g^c give
    g^c .. g^(2c-1), and squaring that matrix gives the next step, so
    Q = p^k takes about log2 Q numpy products.  The log and Zech tables
    follow from it by gathers.  Most of the build is then the search for
    the irreducible and the generator.
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
        mod = list(self.irreducible)
        places = [p**i for i in range(k)]

        def digits(v: int) -> list[int]:
            return [v // place % p for place in places]

        # primitive element: smallest integer encoding with multiplicative
        # order q - 1 (the element 1 only for GF(2))
        fac = list(factorize(q - 1))

        def full_order(g: int) -> bool:
            return all(_poly_powmod(digits(g), (q - 1) // f, mod, p) != [1] for f in fac)

        gen = next(g for g in range(1, q) if full_order(g))
        self.generator = gen
        # the GF(p)-linear map "multiply by the generator" on digit row
        # vectors: row j holds the digits of z^j * generator
        step = np.zeros((k, k), dtype=np.int64)
        for j in range(k):
            row = _poly_mul_mod([0] * j + [1], digits(gen), mod, p)
            step[j, : len(row)] = row
        # powers by doubling: while the rows hold the digits of g^0 .. g^(c-1)
        # and step multiplies by g^c, the rows times step are g^c .. g^(2c-1)
        # (entries below k p^2 <= p MAX_TABLE_FIELD, exact in int64)
        powers = np.eye(1, k, dtype=np.int64)
        while len(powers) < q - 1:
            powers = np.concatenate([powers, powers @ step % p])
            step = step @ step % p
        exp = powers[: q - 1] @ np.array(places, dtype=np.int64)
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
        m = msgs.shape[0]
        out = np.zeros((m, self.n_out), dtype=np.int64)
        pts = np.broadcast_to(self.points, (m, self.n_out))
        for j in range(self.k_out - 1, -1, -1):  # Horner
            out = self.fld.add(self.fld.mul(out, pts), msgs[:, j : j + 1])
        return out
