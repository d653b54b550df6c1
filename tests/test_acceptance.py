"""Acceptance gate: one test per numbered selftest criterion.

Each test asserts the corresponding CriterionResult so `pytest -v`
prints a pass/fail line per criterion.  Criterion 7 is expected to fail
on the factor-5 band: both monotonicity properties hold, but the
measured c0_max/(1-s) spread over s in {0.5, 0.7, 0.9} is 6.325 on the
81-point c0 grid, and the assertion is kept at the stated limit rather
than widened to fit.  Its detail explains the band: the exact largest
c0 on the same x grid gives 6.579, the product of -L w1 falling 3.308x
and (1 - s) L w2 rising 1.989x from s = 0.5 to 0.9.
"""

import pytest

from nonlocal_lab import selftest


@pytest.fixture(scope="module")
def results():
    return {res.number: res for res in selftest.run_criteria(seed=0)}


def check(res):
    assert res.passed, f"criterion {res.number} ({res.name}): {res.detail}"


def test_criterion_1_poisson_normalization(results):
    check(results[1])


def test_criterion_2_closed_form_values(results):
    check(results[2])


def test_criterion_3_solver_matches_extension(results):
    check(results[3])


def test_criterion_4_barrier_scaling(results):
    check(results[4])


def test_criterion_5_discrete_principles(results):
    check(results[5])


def test_criterion_6_mass_saturation(results):
    check(results[6])


def test_criterion_7_nonrobustness_sweep(results):
    check(results[7])


def test_criterion_7_detail_explains_the_band(results):
    detail = results[7].detail
    assert "c0/(1-s) band = 6.325 (limit 5)" in detail
    assert "exact band = 6.579: from s = 0.5 to 0.9" in detail
    assert "-L w1 falls 3.308x and (1-s) L w2 rises 1.989x" in detail


def test_criterion_8_localized_mp_stability(results):
    check(results[8])


def test_criterion_9_reproducibility(results):
    rerun = selftest.run_criteria(seed=0)
    first = selftest.render_report(list(results.values()), 0)
    second = selftest.render_report(rerun, 0)
    assert first == second
