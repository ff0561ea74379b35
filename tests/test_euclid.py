import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecodes import euclid, kernels


def test_constellation_odd():
    c = euclid.constellation(5)
    assert c.s == 2 and not c.even
    assert c.reps == (0.0, 1.0, 2.0, -2.0, -1.0)
    assert c.points == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert c.a == 4.0 and c.a_int == 4


def test_constellation_even():
    c = euclid.constellation(4)
    assert c.s == 1 and c.even
    assert c.points == (-1.5, -0.5, 0.5, 1.5)
    assert c.a == 2.25 and c.a_int == 4
    c2 = euclid.constellation(2)
    assert c2.points == (-0.5, 0.5)
    assert c2.a == 0.25


@pytest.mark.parametrize("q", range(2, 12))
def test_constellation_invariants(q):
    c = euclid.constellation(q)
    pts = c.points
    assert len(set(pts)) == q
    assert pts == tuple(sorted(-p for p in pts))  # symmetric about 0
    assert max(p * p for p in pts) == c.a


@pytest.mark.parametrize("q", [2, 5, 8])
def test_constellation_built_once_with_read_only_tables(q):
    c = euclid.constellation(q)
    assert euclid.constellation(q) is c
    for table in (c.euclid_table, c.lee_table):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
    assert c.euclid_table is c.euclid_table and c.lee_table is c.lee_table


def test_constellation_rejects_small_q():
    with pytest.raises(ValueError):
        euclid.constellation(1)


def test_embed_examples():
    c5 = euclid.constellation(5)
    assert euclid.embed(c5, [0]).tolist() == [0.0]
    assert euclid.embed(c5, [3]).tolist() == [-2.0]
    c4 = euclid.constellation(4)
    assert euclid.embed(c4, [0, 1, 2, 3]).tolist() == [-0.5, 0.5, 1.5, -1.5]


def test_embed_rejects_bad_residue():
    c = euclid.constellation(5)
    with pytest.raises(ValueError):
        euclid.embed(c, [5])
    with pytest.raises(ValueError):
        euclid.embed(c, [-1])


def test_weight_examples():
    c5 = euclid.constellation(5)
    assert euclid.euclid_weight(c5, [2]) == 4
    assert euclid.euclid_weight(c5, [1, 3]) == 5
    c4 = euclid.constellation(4)
    assert euclid.euclid_weight(c4, [2]) == 4
    c7 = euclid.constellation(7)
    assert euclid.lee_weight(c7, [5]) == 2
    assert euclid.lee_weight(c7, [1, 5, 3]) == 6
    assert euclid.lee_weight(c7, [0, 0]) == 0


def test_distance_examples():
    c5 = euclid.constellation(5)
    assert euclid.sq_euclid_distance(c5, [0, 0], [0, 0]) == 0
    assert euclid.sq_euclid_distance(c5, [1, 2], [4, 0]) == 8
    c4 = euclid.constellation(4)
    assert euclid.sq_euclid_distance(c4, [0], [2]) == 4
    with pytest.raises(ValueError):
        euclid.sq_euclid_distance(c5, [0], [0, 1])


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (4, 2), (5, 2), (7, 2), (8, 2)])
def test_translation_invariance_exhaustive(q, n):
    c = euclid.constellation(q)
    words = list(itertools.product(range(q), repeat=n))
    for u in words[:: max(1, len(words) // 40)]:
        for v in words[:: max(1, len(words) // 40)]:
            diff = [(a - b) % q for a, b in zip(u, v)]
            assert euclid.sq_euclid_distance(c, u, v) == euclid.euclid_weight(c, diff)
            assert euclid.sq_euclid_distance(c, u, v) == euclid.sq_euclid_distance(c, v, u)


@given(
    q=st.integers(2, 9),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lee_below_euclid(q, data):
    n = data.draw(st.integers(1, 6))
    w = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    c = euclid.constellation(q)
    lw, ew = euclid.lee_weight(c, w), euclid.euclid_weight(c, w)
    assert lw <= ew
    # equality iff every centered representative lies in {-1, 0, 1}
    small = all(min(r, q - r) <= 1 for r in w)
    assert (lw == ew) == small


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7])
def test_embed_ball_bound(q):
    c = euclid.constellation(q)
    n = 3
    for w in itertools.product(range(q), repeat=n):
        pt = euclid.embed(c, w)
        # coordinates are integers or half-integers: float arithmetic is exact
        assert float(pt @ pt) <= n * c.a


def test_yaglom_examples():
    assert euclid.yaglom_lift([0.0, 0.0], radius_sq=9.0).tolist() == [0.0, 0.0, 3.0]
    assert euclid.yaglom_lift([1.0], radius_sq=1.0).tolist() == [1.0, 0.0]
    a = euclid.yaglom_lift([0.0], radius_sq=1.0)
    b = euclid.yaglom_lift([1.0], radius_sq=1.0)
    d0 = 1.0
    d1 = float((a - b) @ (a - b))
    assert d1 == pytest.approx(2.0, abs=1e-12)
    assert d1 >= d0


def test_yaglom_rejects_outside():
    with pytest.raises(ValueError, match="exceeds"):
        euclid.yaglom_lift([2.0], radius_sq=1.0)
    # within the stated relative tolerance: accepted, clamped to the sphere
    out = euclid.yaglom_lift([1.0 + 1e-12], radius_sq=1.0)
    assert out[-1] == 0.0


def test_yaglom_lift_of_rows_is_the_lift_of_each_row():
    rng = np.random.default_rng(11)
    for n, radius in [(1, 1.0), (5, 1.5), (12, math.sqrt(7.0))]:
        g = rng.normal(size=(300, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = g * (radius * rng.random((300, 1)) ** (1.0 / n))
        r2 = radius * radius
        rows = euclid.yaglom_lift(pts, radius_sq=r2)
        assert rows.shape == (300, n + 1)
        assert np.array_equal(rows, np.array([euclid.yaglom_lift(p, radius_sq=r2) for p in pts]))


def test_yaglom_lift_rejects_a_row_outside_the_ball():
    pts = np.array([[0.0, 0.5], [0.6, 0.8], [1.0, 0.1], [0.0, 0.0]])
    with pytest.raises(ValueError, match="outside ball"):
        euclid.yaglom_lift(pts, radius_sq=1.0)
    assert euclid.yaglom_lift(pts[[0, 1, 3]], radius_sq=1.0)[:, -1].tolist() == [
        math.sqrt(0.75), 0.0, 1.0
    ]


def test_yaglom_lift_takes_one_radius():
    for r2 in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            euclid.yaglom_lift([0.0], radius_sq=r2)
    for r2 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            euclid.yaglom_lift([0.0], radius_sq=r2)
    with pytest.raises(ValueError, match="1-d"):
        euclid.yaglom_lift(np.zeros((2, 2, 2)), radius_sq=1.0)


def test_yaglom_expansion_bulk():
    rng = np.random.default_rng(7)
    n, radius = 5, 1.5
    g = rng.normal(size=(2000, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    pts = g * (radius * rng.random((2000, 1)) ** (1.0 / n))
    lifted = np.array([euclid.yaglom_lift(p, radius_sq=radius * radius) for p in pts])
    norms = np.linalg.norm(lifted, axis=1)
    assert np.all(np.abs(norms - radius) <= 1e-9 * radius)
    a, b = pts[:1000], pts[1000:]
    la, lb = lifted[:1000], lifted[1000:]
    d0 = np.einsum("ij,ij->i", a - b, a - b)
    d1 = np.einsum("ij,ij->i", la - lb, la - lb)
    assert np.all(d1 >= d0 - 1e-12)


def test_min_sq_distance_words():
    c = euclid.constellation(2)
    words = np.array(list(itertools.product(range(2), repeat=4)))
    assert euclid.min_sq_distance(words, c) == 1
    c5 = euclid.constellation(5)
    assert euclid.min_sq_distance(np.array([[0], [1], [3]]), c5) == 1


def _min_dist_oracle(words, table, q):
    return min(
        sum(table[(a - b) % q] for a, b in zip(u, v))
        for i, u in enumerate(words)
        for v in words[i + 1 :]
    )


@pytest.mark.parametrize("budget", [1, 9, 10**6])
@pytest.mark.parametrize("q,m,n", [(2, 2, 5), (5, 3, 1), (7, 60, 4), (8, 90, 3)])
def test_min_dist_words_matches_double_loop(monkeypatch, q, m, n, budget):
    # budgets 1 and 9 give tiles of side 1 and 3, so the scan crosses tile
    # boundaries on and off the diagonal
    monkeypatch.setattr(kernels, "_block_rows", lambda rows, cols: budget)
    rng = np.random.default_rng(q * m * n)
    words = rng.integers(0, q, size=(m, n))
    table = euclid.constellation(q).euclid_table
    assert kernels.min_dist_words(words, table, q) == _min_dist_oracle(
        words.tolist(), table.tolist(), q
    )
    dup = np.vstack([words, words[m // 2]])  # a duplicate row: distance 0
    assert kernels.min_dist_words(dup, table, q) == 0


def test_min_dist_words_rejects_inexact_tables():
    words = np.array([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="2\\^53"):
        kernels.min_dist_words(words, np.array([0, 2**52]), 2)
    assert kernels.min_dist_words(words, np.array([0, 2**51]), 2) == 2**52


def test_min_sq_distance_real():
    pts = np.array([[0.0], [1.0], [3.0]])
    assert euclid.min_sq_distance(pts) == 1.0
    with pytest.raises(ValueError):
        euclid.min_sq_distance(pts[:1])
    with pytest.raises(ValueError):
        euclid.min_sq_distance(np.array([[np.inf], [0.0]]))
