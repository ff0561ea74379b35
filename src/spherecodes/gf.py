"""Prime-field helpers, GF(p^k) as GF(p) matrices, Reed-Solomon codes, and primality.

Extension-field elements are identified with integers in [0, p^k): the value
sum_i c_i p^i encodes the polynomial sum_i c_i z^i taken modulo a fixed monic
irreducible.  Everything runs on one arithmetic, k x k matrices over GF(p),
starting from the matrix Z of multiplication by z: Rabin's irreducibility
test, and multiplication by an element a, which is the matrix
sum_i a_i Z^i acting on digit row vectors.  No table grows with p^k, so a
Reed-Solomon code over any field is one GF(p) generator matrix, and its
encode one product mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

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
    """m^e mod p by repeated squaring, for a k x k matrix over GF(p) (int64
    entries in [0, p), exact while k p^2 < 2^63)."""
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
    """GF(p^k) with integer-encoded elements, modulo the irreducible
    :func:`find_irreducible` gives, and no tables.

    Addition is digit-wise mod p.  Multiplication by an element a is
    GF(p)-linear on digit row vectors, with the k x k matrix :meth:`matrix`
    sum_i a_i Z^i, Z the companion matrix of the modulus: the digits of b
    times it, mod p, are the digits of a b.  A build is the irreducible
    search and the k powers Z^0 .. Z^(k-1).
    """

    p: int
    k: int

    def __post_init__(self):
        if not is_probable_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        self.Q = self.p**self.k
        self.irreducible = find_irreducible(self.p, self.k)
        z = _companion(self.irreducible, self.p)
        self._z_powers = np.stack([_mat_pow(z, i, self.p) for i in range(self.k)])

    def check_int64(self) -> None:
        """Raise ValueError unless every integer encoding fits int64 (Q < 2^63),
        as numpy draws, encodes and decodes them."""
        if self.Q >= 1 << 63:
            raise ValueError(
                f"GF({self.p}^{self.k}) has {self.Q} >= 2^63 elements, whose "
                "integer encodings overflow int64"
            )

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

    def matrix(self, a: int) -> np.ndarray:
        """The k x k matrix over GF(p) of multiplication by the element a,
        sum_i a_i Z^i mod p: row j holds the digits of z^j a.  The digits of a
        are taken in Python ints, so any element of any field will do."""
        a = int(a)
        if not 0 <= a < self.Q:
            raise ValueError(f"element {a} outside [0, {self.Q})")
        digits = np.array([a // self.p**i % self.p for i in range(self.k)], dtype=np.int64)
        return np.tensordot(digits, self._z_powers, 1) % self.p


@dataclass
class RSCode:
    """Reed-Solomon evaluation code over an extension field.

    Messages are ``k_out`` field symbols, interpreted as polynomial
    coefficients (ascending) and evaluated at the first ``n_out`` integer
    encodings x_j = j, j = 0, 1, ..., n_out-1.  The code is MDS: minimum
    Hamming distance exactly n_out - k_out + 1.  It is GF(p)-linear on the
    digits of its symbols, with the generator :meth:`generator`.
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

    @property
    def distance(self) -> int:
        return self.n_out - self.k_out + 1

    def generator(self) -> np.ndarray:
        """GF(p) generator, (k_out k) x (n_out k), entries in [0, p): block
        (i, j) is M(x_j)^i, M = :meth:`ExtField.matrix`, so the digits of a
        message (symbol by symbol) times it, mod p, are the digits of its
        codeword.  Costs n_out matrices and k_out - 1 products of a stack of
        them, whatever the field size."""
        p, k = self.fld.p, self.fld.k
        m = np.stack([self.fld.matrix(x) for x in range(self.n_out)])
        blocks = [np.broadcast_to(np.eye(k, dtype=np.int64), m.shape)]
        for _ in range(1, self.k_out):
            blocks.append(blocks[-1] @ m % p)
        # (i, j, row, col) -> row (i, row), column (j, col)
        gen = np.stack(blocks).transpose(0, 2, 1, 3)
        return gen.reshape(self.k_out * k, self.n_out * k)

    def encode(self, messages) -> np.ndarray:
        """Encode rows of ``messages`` (shape (m, k_out), field-int symbols):
        their digits times :meth:`generator`, mod p, read back as symbols.

        Symbols must lie in [0, Q), Q must stay below 2^63 and the unreduced
        product, at most k_out k (p-1)^2, within int64; each is a ValueError.
        """
        fld = self.fld
        fld.check_int64()
        if self.k_out * fld.k * (fld.p - 1) ** 2 >= 1 << 63:
            raise ValueError("k_out k (p-1)^2 must stay below 2^63 for an exact int64 encode")
        msgs = np.atleast_2d(np.asarray(messages, dtype=np.int64))
        if msgs.shape[1] != self.k_out:
            raise ValueError(f"messages must have {self.k_out} symbols")
        if msgs.size and not 0 <= msgs.min() <= msgs.max() < fld.Q:
            raise ValueError(f"message symbols must lie in [0, {fld.Q})")
        m = msgs.shape[0]
        digits = fld.to_digits(msgs).reshape(m, self.k_out * fld.k) @ self.generator() % fld.p
        return fld.from_digits(digits.reshape(m, self.n_out, fld.k))
