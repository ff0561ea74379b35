import numpy as np
import pytest

from spherecodes import kernels
from spherecodes.euclid import constellation

pytestmark = pytest.mark.skipif(
    not kernels.HAS_NUMBA, reason="backend comparison needs numba installed"
)


def _both(name):
    return kernels.IMPLEMENTATIONS["numba"][name], kernels.IMPLEMENTATIONS["numpy"][name]


def test_backend_env_flag(monkeypatch):
    monkeypatch.delenv(kernels.ENV_FLAG, raising=False)
    assert kernels.backend() == "numba"
    monkeypatch.setenv(kernels.ENV_FLAG, "1")
    assert kernels.backend() == "numpy"


def test_min_sq_dist_real_paths_agree():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(300, 7))
    jit, plain = _both("min_sq_dist_real")
    assert jit(pts) == pytest.approx(plain(pts), rel=1e-15)
    # order independence of the scan
    perm = rng.permutation(300)
    assert jit(pts[perm]) == pytest.approx(jit(pts), rel=1e-15)


def test_cyclic_min_weights_paths_agree():
    from spherecodes.codes import lee_bch

    for p, t in [(5, 2), (7, 2), (7, 1)]:
        code = lee_bch(p, t)
        c = constellation(p)
        jit, plain = _both("cyclic_min_weights")
        g = np.asarray(code.g, dtype=np.int64)
        assert jit(g, code.k, code.n, p, c.lee_table, c.euclid_table) == plain(
            g, code.k, code.n, p, c.lee_table, c.euclid_table
        )


def test_dispatch_follows_env(monkeypatch):
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 3))
    monkeypatch.setenv(kernels.ENV_FLAG, "1")
    v_plain = kernels.min_sq_dist_real(pts)
    monkeypatch.delenv(kernels.ENV_FLAG)
    v_jit = kernels.min_sq_dist_real(pts)
    assert v_plain == pytest.approx(v_jit, rel=1e-15)
