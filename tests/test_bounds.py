import math

import numpy as np
import pytest

from spherecodes import bounds, counting, euclid

LN2 = math.log(2.0)


# -- basic curves -------------------------------------------------------------


def test_shannon_examples():
    assert bounds.shannon_rate(x=math.log(2.0)) == pytest.approx(0.0, abs=1e-15)
    assert bounds.shannon_rate(x=math.log(1.0)) == pytest.approx(
        1 - math.log2(3) / 2, abs=1e-15
    )
    with pytest.raises(ValueError):
        bounds.shannon_rate(x=math.log(4.0))


def test_shannon_log_space_matches_gap_form():
    x = -640.48
    rs = bounds.shannon_rate(x=x)
    rl = bounds.lattice_rate(x=x)
    assert rs == pytest.approx(rl + bounds.shannon_lattice_gap(x=x), abs=1e-12)
    assert rs == pytest.approx(-x / (2 * LN2), rel=1e-12)


def test_lattice_examples():
    assert bounds.lattice_rate(x=math.log(1.0)) == 0.0
    assert bounds.lattice_rate(x=math.log(0.25)) == pytest.approx(1.0, abs=1e-15)
    x130 = -130 * LN2
    assert bounds.lattice_rate(x=x130) == pytest.approx(65.0, abs=1e-12)
    assert bounds.lattice_rate_shifted(x=x130) == pytest.approx(63.7, abs=1e-12)
    assert bounds.lattice_rate_shifted(x=x130) >= 0.98 * bounds.shannon_rate(x=x130)


def test_lachaud_stern():
    assert bounds.lachaud_stern_rate(x=math.log(2.0)) == pytest.approx(0.0, abs=1e-15)
    assert bounds.lachaud_stern_rate(x=math.log(1.0)) == pytest.approx(
        0.10375937, abs=1e-8
    )
    assert bounds.lachaud_stern_rate(x=-100.0) == pytest.approx(
        0.5 * bounds.shannon_rate(x=-100.0)
    )


def test_dominance_and_gap_identity_grid():
    for rho in np.linspace(1e-9, 4 - 1e-9, 2000):
        x = math.log(rho)
        rs = bounds.shannon_rate(x=x)
        rl = bounds.lattice_rate(x=x)
        assert rs >= rl
        assert abs((rs - rl) - bounds.shannon_lattice_gap(x=x)) <= 1e-12


def test_gilbert_yaglom_examples():
    assert bounds.gilbert_yaglom_rate(3, x=math.log(0.5)) == pytest.approx(
        math.log2(3) - 1.5, abs=1e-12
    )
    from spherecodes import counting

    mu = 6.0 ** -0.25
    f = counting.enumerator(5)
    expected = math.log2(5) - (
        math.log2(1 + 2 * mu + 2 * mu**4) - math.log2(mu)
    )
    assert bounds.gilbert_yaglom_rate(5, x=math.log(0.25)) == pytest.approx(
        expected, abs=1e-12
    )
    assert bounds.gilbert_yaglom_rate(3, x=math.log(1e-12)) == pytest.approx(
        math.log2(3), abs=1e-9
    )
    with pytest.raises(ValueError):
        bounds.gilbert_yaglom_rate(3, x=math.log(1.5))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_gilbert_yaglom_rate_is_zero_at_rho_1_for_odd_q(q):
    # lambda = a = ((q-1)/2)^2 is the largest coordinate weight at x = 0: the
    # ball is all of Z_q^n, outside the saddle solver's domain
    assert bounds.gilbert_yaglom_rate(q, x=0.0) == 0.0
    assert bounds.gilbert_yaglom_rate(q, x=-1e-12) == 0.0


def test_gilbert_yaglom_rate_at_rho_1_for_even_q_is_unchanged():
    assert bounds.gilbert_yaglom_rate(2, x=0.0) == 0.18872187554086717


@pytest.mark.parametrize("q", [3, 7, 13])
def test_gilbert_yaglom_rate_rises_toward_log2_q(q):
    # down to x = -700, where lambda = a rho is near the smallest normal double
    xs = [-1.0, -10.0, -50.0, -69.0, -80.0, -100.0, -200.0, -400.0, -700.0]
    rates = [bounds.gilbert_yaglom_rate(q, x=x) for x in xs]
    assert all(math.isfinite(r) for r in rates)
    assert all(a <= b <= math.log2(q) for a, b in zip(rates, rates[1:]))
    assert rates[-1] == pytest.approx(math.log2(q), abs=1e-12)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 13, 1000])
def test_gilbert_yaglom_rate_reaches_log2_q_in_log_form(q):
    # past x = -708 lambda = a e^x is subnormal, past -745 it is 0.0; the
    # rate stays finite, never falls as x falls, and is log2 q at the far end
    xs = [-1.0, -20.0, -40.0, -45.0, -60.0, -700.0, -708.5, -720.0, -800.0, -1e4, -1e300]
    rates = [bounds.gilbert_yaglom_rate(q, x=x) for x in xs]
    assert all(math.isfinite(r) for r in rates)
    assert all(a <= b <= math.log2(q) for a, b in zip(rates, rates[1:]))
    assert rates[-1] == math.log2(q)
    assert rates[0] < math.log2(q)


def test_gilbert_yaglom_rate_keeps_the_solver_value_near_the_switch():
    # about where the bound takes over (x near -43 for q = 7), the saddle
    # solution already rounds to log2 q; above it the solver is used
    a = euclid.constellation(7).a
    f = counting.enumerator(7)
    for x in [-0.1, -1.0, -5.0, -42.0, -42.5, -43.0, -43.5, -44.0, -60.0]:
        solved = math.log2(7) - counting.saddle_solve(f, a * math.exp(x)).exponent
        assert bounds.gilbert_yaglom_rate(7, x=x) == solved


def test_gilbert_yaglom_rate_domain():
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        bounds.gilbert_yaglom_rate(3, x=0.1)


# -- TVZ line -----------------------------------------------------------------


def test_tvz_small_p():
    params = bounds.TVZParams(p=7, t=2)
    r0 = 4 * math.log2(7) / 6 * (47 / 48)
    assert bounds.tvz_line(params, x=-745.0) == pytest.approx(r0, abs=1e-12)
    rho_intercept = (47 / 48) * 16 / 216
    assert bounds.tvz_line(params, x=math.log(rho_intercept)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_tvz_param_validation():
    with pytest.raises(ValueError):
        bounds.TVZParams(p=5, t=2)
    with pytest.raises(ValueError):
        bounds.TVZParams(p=7, t=3)  # parity
    with pytest.raises(ValueError):
        bounds.TVZParams(p=7, t=2, tau=0.1)
    with pytest.raises(ValueError):
        bounds.TVZParams(p=7)
    with pytest.raises(ValueError):
        bounds.TVZParams(p=11, tau=1.5)
    p = bounds.TVZParams(p=11, t=4)
    assert p.tau_value == pytest.approx(0.4)


def test_tvz_quality_factor_clamp():
    assert bounds.TVZParams(p=7, t=2).quality_factor() == pytest.approx(47 / 48)
    # (p - t - 1)/2 = 49 -> p^49 has well over 60 digits
    assert bounds.TVZParams(p=101, t=2).quality_factor() == 1.0
    assert bounds.TVZParams(p=bounds.REGION_DEMO_P, tau=0.5).quality_factor() == 1.0


# -- tangent ------------------------------------------------------------------


def test_tangent_examples():
    t = bounds.tangent_line(x0=math.log(math.exp(-1.0)), lam=0.98)
    # the intercept A = rho0 (1 - ln rho0) = 2/e, in log form
    assert t.ln_a == pytest.approx(math.log(2 / math.e), abs=1e-15)
    assert t.B == pytest.approx(0.98 / LN2, abs=1e-15)
    t1 = bounds.tangent_line(x0=math.log(1.0), lam=0.5)
    assert t1.ln_a == 0.0
    assert t1.B == pytest.approx(0.5 / (2 * LN2))
    with pytest.raises(ValueError):
        bounds.tangent_line(x0=math.log(math.e * 1.01))


def test_tangent_touches_and_supports():
    rng = np.random.default_rng(4)
    for _ in range(25):
        rho0 = float(rng.uniform(0.01, 0.99))
        lam = float(rng.uniform(0.5, 1.0))
        t = bounds.tangent_line(x0=math.log(rho0), lam=lam)
        touch = t.rate_at(x=math.log(rho0))
        assert touch == pytest.approx(
            lam * bounds.lattice_rate(x=math.log(rho0)), rel=1e-12
        )
        # the scaled curve is convex in rho, so its tangent supports it from below
        for rho in (rho0 / 2, min(2 * rho0, 0.999)):
            x = math.log(rho)
            assert t.rate_at(x=x) <= lam * bounds.lattice_rate(x=x) + 1e-12


def test_tangent_log_space_far_left():
    t = bounds.tangent_line(x0=-640.48, lam=0.98)
    # A = rho0 (1 - ln rho0) would underflow; the log form keeps evaluating
    assert t.ln_a == pytest.approx(-640.48 + math.log(641.48), rel=1e-12)
    assert t.rate_at(x=-740.48) == pytest.approx(t.B, rel=1e-4)


# -- region / tau window ------------------------------------------------------


def test_region_residual_example():
    f = bounds.region_residual(-10.0, 4.0, 0.98)
    assert f == pytest.approx(math.exp(-2) * 11 + 10.78 - 8, abs=1e-12)
    assert f == pytest.approx(4.2687, abs=1e-4)
    assert bounds.region_residual(0.5, 400.0, 0.98) == math.inf
    with pytest.raises(ValueError):
        bounds.region_residual(-1.0, 0.0, 0.98)
    with pytest.raises(ValueError):
        bounds.region_residual(1.5, 1.0, 0.98)


def test_tau_window_consistency_grid():
    xs = np.linspace(-1000.0, -1.0, 200)
    ys = np.linspace(1.0, 500.0, 200)
    for x in xs:
        for y in ys:
            resid = bounds.region_residual(float(x), float(y), 0.98)
            lo, hi = bounds.tau_window(float(x), float(y), 0.98)
            assert (lo <= hi) == (resid <= 0.0)


def test_tau_window_boundary_collapses():
    # on the boundary the window closes to a point: check near the region tip
    lo, hi = bounds.tau_window(-640.5, 314.8344, 0.98)
    assert hi - lo == pytest.approx(0.0, abs=1e-6)


def test_demo_point_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    p = bounds.REGION_DEMO_P
    assert len(str(p)) == 137
    x, lam = bounds.REGION_DEMO_X, bounds.REGION_DEMO_LAMBDA
    y = math.log(p)
    y_mp = mp.log(p)
    assert y == pytest.approx(float(y_mp), rel=1e-15)
    f = bounds.region_residual(x, y, lam)
    f_mp = mp.e ** (x + 2 * y_mp) * (1 - x) + 4 * lam * (1 - x) / y_mp - 8
    assert f == pytest.approx(float(f_mp), rel=1e-9)
    assert abs(f) <= 0.2  # near-boundary
    lo, hi = bounds.tau_window(x, y, lam)
    lo_mp = (1 - x) * mp.e ** (x + 2 * y_mp) / 8
    hi_mp = 1 - lam * (1 - x) / (2 * y_mp)
    assert lo == pytest.approx(float(lo_mp), rel=1e-12)
    assert hi == pytest.approx(float(hi_mp), rel=1e-12)


def test_demo_tvz_dominates_tangent_below_x0():
    params = bounds.TVZParams(p=bounds.REGION_DEMO_P, tau=bounds.REGION_DEMO_TAU)
    tan = bounds.tangent_line(x0=bounds.REGION_DEMO_X, lam=bounds.REGION_DEMO_LAMBDA)
    for x in np.linspace(-740.48, -641.48, 50):
        assert bounds.tvz_line(params, x=float(x)) > tan.rate_at(x=float(x))


# -- envelope -----------------------------------------------------------------


def test_envelope_example():
    pt = bounds.envelope_point(-9.0, -5.0)
    tau = 10 * math.exp(-5) / 8
    expected = (1 - 0.1) * (1 - tau) * 2 / LN2
    assert pt.rate == pytest.approx(expected, abs=1e-12)
    assert pt.rate == pytest.approx(2.575, abs=1e-3)


def test_envelope_vanishing_tau_limit():
    # tau = (1 - x) e^c / 8 -> 0 for c far below; the rate approaches
    # (1 - 1/(1-x)) y / ln 2
    x, c = -100.0, -30.0
    pt = bounds.envelope_point(x, c)
    y = 0.5 * (c - x)
    assert pt.rate == pytest.approx((1 - 1 / (1 - x)) * y / LN2, rel=1e-10)


def test_envelope_domain_errors():
    with pytest.raises(ValueError, match="tau"):
        bounds.envelope_point(-1e9, -5.0)  # tau above 1
    with pytest.raises(ValueError):
        bounds.envelope_point(-2.0, -3.0)  # y <= 0
    with pytest.raises(ValueError):
        bounds.envelope_point(0.5, 2.0)


# -- emit_curve ---------------------------------------------------------------


def test_emit_curve_shannon():
    pts = bounds.emit_curve("shannon", None, -5.0, 0.0, 6)
    assert len(pts) == 6
    assert pts[-1].x == 0.0
    assert pts[-1].rho == 1.0
    assert pts[-1].rate == pytest.approx(0.20751874963942196)


def test_emit_curve_single_sample():
    pts = bounds.emit_curve("lattice", None, -2 * LN2, -2 * LN2, 1)
    assert len(pts) == 1
    assert pts[0].rho == pytest.approx(0.25)
    assert pts[0].rate == pytest.approx(1.0)


def test_emit_curve_underflow_blank():
    pts = bounds.emit_curve("lattice", None, -800.0, -600.0, 3)
    assert pts[0].rho is None
    assert pts[-1].rho is not None


def test_emit_curve_envelope_monotone():
    pts = bounds.emit_curve("envelope", {"c": -10.0}, -3000.0, -600.0, 50)
    rates = [p.rate for p in pts]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_emit_curve_unknown_kind():
    with pytest.raises(ValueError, match="unknown curve"):
        bounds.emit_curve("nope", None, -1.0, 0.0, 2)
    with pytest.raises(ValueError):
        bounds.emit_curve("shannon", None, -1.0, 0.0, 0)
    with pytest.raises(ValueError):
        bounds.emit_curve("shannon", None, 0.0, -1.0, 2)


# every parameter a curve kind cannot do without, with a value it accepts
_REQUIRED = {"q": 3, "p": 7, "c": -10.0, "lam": 0.98}


@pytest.mark.parametrize(
    "kind,name",
    [(kind, name) for kind, curve in bounds.CURVES.items() for name in curve.params
     if name not in curve.optional],
)
def test_emit_curve_names_a_missing_parameter(kind, name):
    params = bounds.CURVES[kind].params
    others = {n: v for n, v in _REQUIRED.items() if n in params and n != name}
    # left out, or given as None (an option the command line did not get)
    for params in (others, {**others, name: None}):
        with pytest.raises(ValueError, match=f"the {kind} curve needs the parameter '{name}'"):
            bounds.emit_curve(kind, params, -2.0, -1.0, 2)


def test_curve_table_covers_every_kind_and_parameter():
    assert bounds.CURVE_KINDS == tuple(bounds.CURVES)
    # the kinds with parameters, and what each one needs
    needs = {
        kind: sorted(name for name in curve.params if name not in curve.optional)
        for kind, curve in bounds.CURVES.items()
    }
    assert needs == {
        "shannon": [], "lattice": [], "lattice_shifted": [], "lachaud_stern": [],
        "gilbert_yaglom": ["q"], "tvz_line": ["p"], "envelope": ["c"],
        "scaled_shannon": ["lam"],
    }
    # each kind samples with its required parameters alone (tvz_line also
    # needs one of t or tau)
    for kind, names in needs.items():
        params = {n: _REQUIRED[n] for n in names}
        if kind == "tvz_line":
            params["t"] = 2
        pts = bounds.emit_curve(kind, params, -30.0, -20.0, 3)
        assert [p.x for p in pts] == [-30.0, -25.0, -20.0]
        assert all(math.isfinite(p.rate) for p in pts)


def test_emit_curve_deterministic():
    a = bounds.emit_curve("scaled_shannon", {"lam": 0.976}, -50.0, -1.0, 100)
    b = bounds.emit_curve("scaled_shannon", {"lam": 0.976}, -50.0, -1.0, 100)
    assert a == b


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_entry_points_reject_non_finite_input(bad):
    # each error names the argument that is not finite
    with pytest.raises(ValueError, match="^x must be finite"):
        bounds.shannon_rate(x=bad)
    with pytest.raises(ValueError, match="^x must be finite"):
        bounds.lattice_rate(x=bad)
    with pytest.raises(ValueError, match="^x must be finite"):
        bounds.shannon_lattice_gap(x=bad)
    with pytest.raises(ValueError, match="^x must be finite"):
        bounds.gilbert_yaglom_rate(3, x=bad)
    with pytest.raises(ValueError, match="^x must be finite"):
        bounds.tvz_line(bounds.TVZParams(p=7, t=2), x=bad)
    with pytest.raises(ValueError, match="^x must be finite"):
        bounds.tangent_line(x0=-1.0).rate_at(x=bad)
    with pytest.raises(ValueError, match="^x must be finite"):
        bounds.region_residual(bad, 1.0, 0.98)
    with pytest.raises(ValueError, match="^y must be finite"):
        bounds.region_residual(-1.0, bad, 0.98)
    with pytest.raises(ValueError, match="^lam must be finite"):
        bounds.region_residual(-1.0, 1.0, bad)
    with pytest.raises(ValueError, match="^x must be finite"):
        bounds.tau_window(bad, 1.0, 0.98)
    with pytest.raises(ValueError, match="^y must be finite"):
        bounds.tau_window(-1.0, bad, 0.98)
    with pytest.raises(ValueError, match="^lam must be finite"):
        bounds.tau_window(-1.0, 1.0, bad)
    with pytest.raises(ValueError, match="^x0 must be finite"):
        bounds.tangent_line(x0=bad)
    with pytest.raises(ValueError, match="^lam must be finite"):
        bounds.tangent_line(x0=-1.0, lam=bad)
    with pytest.raises(ValueError, match="^x_min must be finite"):
        bounds.emit_curve("shannon", None, bad, 0.0, 3)
    with pytest.raises(ValueError, match="^x_max must be finite"):
        bounds.emit_curve("shannon", None, -1.0, bad, 3)
    with pytest.raises(ValueError, match="^lam must be finite"):
        bounds.emit_curve("scaled_shannon", {"lam": bad}, -2.0, -1.0, 3)
