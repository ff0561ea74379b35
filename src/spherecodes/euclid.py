"""Centered embeddings of Z_q, Euclidean/Lee weights, and the ball-to-sphere lift.

Words over Z_q are embedded on the real line through the centered constellation
(integers for odd q, half-integers for even q).  The squared Euclidean distance
used throughout is the translation-invariant difference weight

    d(u, v) = sum_i min(r_i^2, (q - r_i)^2),   r = (u - v) mod q,

which is integer valued and lower-bounds the squared straight-line distance of
the embedded points, so every distance floor derived from it stays valid after
embedding.  The Yaglom lift maps the radius-R ball of R^n onto the radius-R
sphere of R^(n+1) without ever decreasing pairwise distances;
:func:`yaglom_lift` is its one implementation, which ``codes.to_spherical``
and the ``yaglom_expansion`` criterion both call on arrays of rows, giving
the ball by its squared radius alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: relative tolerance for "inside the ball" checks performed in floats
BALL_RTOL = 1e-9


@dataclass(frozen=True)
class Constellation:
    """Real-line representation of Z_q.

    ``reps[r]`` is the representative of residue ``r``: the centered integers
    {-s..s} for q = 2s + 1, the half-integers {-s-1/2 .. s+1/2} for q = 2s + 2
    (the natural centered integers shifted by -1/2).  ``a`` is the squared
    radius of the smallest origin-centered interval containing all points,
    ``a_int`` the largest per-coordinate difference weight.
    """

    q: int
    s: int
    even: bool
    reps: tuple[float, ...]
    a: float
    a_int: int

    @property
    def points(self) -> tuple[float, ...]:
        return tuple(sorted(self.reps))

    @functools.cached_property
    def euclid_table(self) -> np.ndarray:
        """min(r^2, (q-r)^2) per residue r, built once and read-only."""
        r = np.arange(self.q, dtype=np.int64)
        return _read_only(np.minimum(r * r, (self.q - r) * (self.q - r)))

    @functools.cached_property
    def lee_table(self) -> np.ndarray:
        """min(r, q-r) per residue r, built once and read-only."""
        r = np.arange(self.q, dtype=np.int64)
        return _read_only(np.minimum(r, self.q - r))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=64)
def constellation(q: int) -> Constellation:
    """The centered constellation for Z_q (q >= 2), built once per q: its
    weight tables are shared by every caller and read-only."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if q % 2:
        s = (q - 1) // 2
        reps = tuple(float(r if r <= s else r - q) for r in range(q))
        a = float(s * s)
        a_int = s * s
        even = False
    else:
        s = (q - 2) // 2
        # natural centered representative in {-s..s+1}, then shift by -1/2
        reps = tuple((r if r <= s + 1 else r - q) - 0.5 for r in range(q))
        a = (2 * s + 1) ** 2 / 4.0
        a_int = (s + 1) ** 2
        even = True
    return Constellation(q=q, s=s, even=even, reps=reps, a=a, a_int=a_int)


def _as_word(c: Constellation, w) -> np.ndarray:
    arr = np.asarray(w, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("word must be a nonempty 1-d sequence of residues")
    if np.any(arr < 0) or np.any(arr >= c.q):
        raise ValueError(f"residues out of range for q={c.q}: {w!r}")
    return arr


def embed(c: Constellation, w) -> np.ndarray:
    """Map a word of Z_q^n to its constellation point in R^n."""
    arr = _as_word(c, w)
    reps = np.asarray(c.reps)
    return reps[arr]


def euclid_weight(c: Constellation, w) -> int:
    """Sum of min(r^2, (q-r)^2) over the coordinates."""
    arr = _as_word(c, w)
    return int(c.euclid_table[arr].sum())


def lee_weight(c: Constellation, w) -> int:
    """Sum of min(r, q-r) over the coordinates; never exceeds euclid_weight."""
    arr = _as_word(c, w)
    return int(c.lee_table[arr].sum())


def sq_euclid_distance(c: Constellation, u, v) -> int:
    """Difference weight euclid_weight((u - v) mod q); zero iff u == v."""
    a = _as_word(c, u)
    b = _as_word(c, v)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return int(c.euclid_table[(a - b) % c.q].sum())


def yaglom_lift(points, radius_sq: float) -> np.ndarray:
    """Lift points of the radius-R ball of R^n onto the radius-R sphere of R^(n+1).

    ``points`` is one point (1-d) or an array of rows (2-d); each gains the
    coordinate sqrt(R^2 - x.x), and a row lifts alike either way.  The ball is
    given by its squared radius R^2 alone: R^2 = n a of a word embedding is
    exact where sqrt(n a)^2 need not round back to it.  Points outside the
    ball (beyond a 1e-9 relative tolerance) are rejected with the measured
    excess.
    """
    if not (math.isfinite(radius_sq) and radius_sq > 0):
        raise ValueError(f"radius_sq must be positive and finite, got {radius_sq!r}")
    x = np.asarray(points, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("points must be one point (1-d) or an array of rows (2-d)")
    rows = np.atleast_2d(x)
    nrm = np.einsum("ij,ij->i", rows, rows)
    worst = float(nrm.max(initial=0.0))
    if worst > radius_sq * (1.0 + BALL_RTOL):
        raise ValueError(
            f"point outside ball: |x|^2 = {worst!r} exceeds R^2 = {radius_sq!r} "
            f"by {worst - radius_sq!r}"
        )
    last = np.sqrt(np.maximum(radius_sq - nrm, 0.0))
    return np.column_stack([rows, last]).reshape(*x.shape[:-1], x.shape[-1] + 1)


def min_sq_distance(points, c: Constellation | None = None):
    """Exact minimum pairwise squared distance.

    With ``c`` given, ``points`` are words over Z_q and the integer difference
    weight is used; otherwise rows are points of R^d and the float squared
    Euclidean distance is returned.  Requires at least two rows.
    """
    from . import kernels

    if c is not None:
        words = np.asarray(points, dtype=np.int64)
        if words.ndim != 2:
            raise ValueError("expected a 2-d array of words")
        if words.shape[0] < 2:
            raise ValueError("need at least two words")
        if np.any(words < 0) or np.any(words >= c.q):
            raise ValueError(f"residues out of range for q={c.q}")
        return int(kernels.min_dist_words(words, c.euclid_table, c.q))
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d array of points")
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return float(kernels.min_sq_dist_real(pts))
