"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines, or use ``spherecodes verify`` for the same checks from the
command line.
"""

import pytest

from spherecodes import verify


@pytest.fixture(scope="module")
def suite():
    """Every criterion's results, computed once for the whole module."""
    return verify.run_criteria()


def _result(suite, key):
    res = next(r for r in suite if r.key == key)
    print()
    print(res.line())
    for d in res.details:
        print("       " + d)
    return res


def _assert_passed(res):
    assert res.passed, "\n".join([res.line()] + res.details)
    if res.time_limit is not None:
        assert res.seconds < res.time_limit


def test_criterion_01_ball_size_oracle_equivalence(suite):
    _assert_passed(_result(suite, "ball_oracle"))


def test_criterion_02_saddle_point_exponent(suite):
    _assert_passed(_result(suite, "saddle"))


def test_criterion_03_dominance_and_gap_identity(suite):
    _assert_passed(_result(suite, "dominance"))


def test_criterion_04_corollary_reproduction(suite):
    _assert_passed(_result(suite, "corollary"))


def test_criterion_05a_region_residual_near_boundary(suite):
    _assert_passed(_result(suite, "region_demo_residual"))


@pytest.mark.xfail(
    strict=True,
    reason="documented discrepancy: the demonstration point (x = -640.48, "
    "y = ln p) is infeasible by 8.5e-06, so its tau window is empty and cannot "
    "contain 0.00155359; the window does contain it at x = -640.5404 "
    "(see notes in the verify output)",
)
def test_criterion_05b_tau_window_contains_demo_tau(suite):
    res = _result(suite, "region_demo_window")
    assert res.passed


def test_criterion_05c_line_dominates_tangent_below_x0(suite):
    _assert_passed(_result(suite, "region_demo_dominance"))


def test_criterion_06_primality_of_demo_modulus(suite):
    res = _result(suite, "primality")
    _assert_passed(res)
    # composite verdicts are reported, never hard-failed; assert the verdict
    # was actually computed and printed
    assert any("Miller-Rabin" in d for d in res.details)


def test_criterion_07_lee_bch_floors(suite):
    _assert_passed(_result(suite, "lee_floors"))


def test_criterion_08_gilbert_bound(suite):
    _assert_passed(_result(suite, "gilbert"))


def test_criterion_09_concatenated_pipeline(suite):
    _assert_passed(_result(suite, "concat_pipeline"))


def test_criterion_10_yaglom_expansion(suite):
    _assert_passed(_result(suite, "yaglom_expansion"))


def test_criterion_11_envelope_beats_scaled_shannon(suite):
    _assert_passed(_result(suite, "envelope_figure"))


def test_criterion_12_theta_defect_constant(suite):
    res = _result(suite, "theta_defect")
    _assert_passed(res)
    assert any("0.77e-8" in d for d in res.details)


def test_suite_exit_contract(suite):
    bad = [line for r in suite if not r.ok for line in [r.line()] + r.details]
    assert all(r.ok for r in suite), "\n".join(bad)
    known = [r for r in suite if r.expected_fail and not r.passed]
    assert [r.key for r in known] == ["region_demo_window"]
