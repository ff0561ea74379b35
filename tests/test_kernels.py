import numpy as np
import pytest

from spherecodes import kernels


def _min_sq_dist_oracle(points):
    # every pair of rows, summed coordinate by coordinate in plain Python
    best = float("inf")
    for i, u in enumerate(points):
        for v in points[i + 1 :]:
            best = min(best, sum((a - b) ** 2 for a, b in zip(u, v)))
    return best


def test_backend_name():
    assert kernels.backend() == "numpy"


# tiles of 1 and 3 rows cross block boundaries; 10**6 scans in one block
@pytest.mark.parametrize("m", [2, 3, 60, 300])
@pytest.mark.parametrize("dim", [1, 7, 49])
def test_min_sq_dist_real_matches_double_loop(monkeypatch, m, dim):
    rng = np.random.default_rng(m * dim)
    pts = rng.normal(size=(m, dim))
    ints = rng.integers(-5, 6, size=(m, dim)).astype(np.float64)
    perm = rng.permutation(m)
    expect = _min_sq_dist_oracle(pts.tolist())
    expect_int = _min_sq_dist_oracle(ints.tolist())
    for rows in (1, 3, 10**6):
        monkeypatch.setattr(kernels, "_block_rows", lambda m_, n_: rows)
        assert kernels.min_sq_dist_real(pts) == pytest.approx(expect, rel=1e-12)
        assert kernels.min_sq_dist_real(pts[perm]) == pytest.approx(expect, rel=1e-12)
        # integer-valued coordinates make every sum exact
        assert kernels.min_sq_dist_real(ints) == expect_int
        assert kernels.min_sq_dist_real(ints[perm]) == expect_int
        dup = np.vstack([pts, pts[m // 2]])  # a duplicate row: distance 0
        assert kernels.min_sq_dist_real(dup) == 0.0
