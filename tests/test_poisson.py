"""Ball kernel: closed-form values, extension quadrature, two-sided bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc

from nonlocal_lab import poisson
from nonlocal_lab.errors import (
    ConfigParseError,
    DomainViolation,
    UnsupportedDimension,
)
from nonlocal_lab.geometry import mesh_intervals
from nonlocal_lab.operator import PointFunction, constant, indicator, piecewise_constant
from nonlocal_lab.poisson import (
    PoissonKernelBall,
    bound_ratio,
    check_poisson_bounds,
    poisson_constant,
    poisson_eval,
    poisson_extend,
)

UNIT = PoissonKernelBall(n=1, s=0.5, r=1.0)


class TestConstant:
    def test_line_half_order_is_one_over_pi(self):
        assert poisson_constant(1, 0.5) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_plane_half_order_is_one_over_pi_squared(self):
        assert poisson_constant(2, 0.5) == pytest.approx(1.0 / math.pi ** 2, abs=1e-12)

    def test_vanishes_toward_zero_order(self):
        assert 0.0 < poisson_constant(1, 1e-9) < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigParseError):
            poisson_constant(0, 0.5)
        with pytest.raises(ConfigParseError):
            poisson_constant(1, 1.0)
        with pytest.raises(ConfigParseError):
            PoissonKernelBall(n=1, s=0.5, r=-1.0)
        with pytest.raises(ConfigParseError):
            PoissonKernelBall(n=2, s=0.5, r=1.0, center=0.0)


class TestEval:
    def test_spot_value_on_the_line(self):
        # c * (1-0)^s * (2-1)^(-s) * (sqrt2)^(-1) = 1/(pi sqrt2)
        val = poisson_eval(UNIT, 0.0, math.sqrt(2.0))
        assert val == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), abs=1e-12)

    def test_plane_formula(self):
        pk = PoissonKernelBall(n=2, s=0.25, r=1.0, center=(0.0, 0.0))
        x = (0.3, 0.0)
        y = (0.0, 2.0)
        dist = math.hypot(0.3, 2.0)
        want = (poisson_constant(2, 0.25) * (1 - 0.09) ** 0.25
                * (4.0 - 1.0) ** -0.25 / dist ** 2)
        assert poisson_eval(pk, x, y) == pytest.approx(want, rel=1e-14)

    def test_even_in_y_from_the_center(self):
        for y in (1.5, 2.0, 7.0):
            assert poisson_eval(UNIT, 0.0, y) == poisson_eval(UNIT, 0.0, -y)

    def test_translation_of_the_center(self):
        moved = PoissonKernelBall(n=1, s=0.5, r=1.0, center=4.0)
        assert poisson_eval(moved, 4.2, 6.0) == pytest.approx(
            poisson_eval(UNIT, 0.2, 2.0), rel=1e-14)

    def test_far_decay_exponent(self):
        for s in (0.25, 0.5, 0.75):
            pk = PoissonKernelBall(n=1, s=s, r=1.0)
            ratio = poisson_eval(pk, 0.0, 1e3) / poisson_eval(pk, 0.0, 1e4)
            assert ratio == pytest.approx(10.0 ** (1.0 + 2.0 * s), rel=1e-3)

    def test_domain_violations(self):
        with pytest.raises(DomainViolation):
            poisson_eval(UNIT, 1.0, 2.0)  # x on the boundary
        with pytest.raises(DomainViolation):
            poisson_eval(UNIT, 1.5, 2.0)  # x outside
        with pytest.raises(DomainViolation):
            poisson_eval(UNIT, 0.0, 1.0)  # y on the boundary
        with pytest.raises(DomainViolation):
            poisson_eval(UNIT, 0.0, 0.5)  # y inside


class TestExtend:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("x", [0.0, 0.5, -0.5])
    def test_reproduces_constants(self, s, x):
        pk = PoissonKernelBall(n=1, s=s, r=1.0)
        res = poisson_extend(pk, constant(1.0), x)
        assert abs(res.value - 1.0) < 1e-6
        assert res.error_bound < 1e-6

    def test_indicator_against_antiderivative(self):
        # int_1^3 dz/(pi z sqrt(z^2-1)) = arccos(1/3)/pi
        res = poisson_extend(UNIT, indicator(1.0, 3.0), 0.0)
        assert res.value == pytest.approx(math.acos(1.0 / 3.0) / math.pi, abs=1e-6)

    def test_off_center_against_library_quadrature(self):
        pk = PoissonKernelBall(n=1, s=0.6, r=1.0)
        x = 0.3
        res = poisson_extend(pk, indicator(1.0, 3.0), x)

        def f(z):
            return poisson_eval(pk, x, z)

        ref, _ = quad(f, 1.0, 3.0, limit=400)
        assert res.value == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_right_exit_probability_within_error_bound(self, s, r):
        # g = 1 on (r, inf): the extension is the probability that the
        # symmetric 2s-stable process started at x leaves (-r, r) to the
        # right, I_{(1 + x/r)/2}(s, s) (Blumenthal, Getoor & Ray 1961)
        pk = PoissonKernelBall(n=1, s=s, r=r)
        g = piecewise_constant([(r, np.inf, 1.0)])
        for x in np.linspace(-0.9 * r, 0.9 * r, 7):
            res = poisson_extend(pk, g, x)
            want = betainc(s, s, 0.5 * (1.0 + x / r))
            assert abs(res.value - want) <= res.error_bound

    def test_two_sided_data_against_library_quadrature(self):
        pk = PoissonKernelBall(n=1, s=0.4, r=1.0)
        g = piecewise_constant([(-6.0, -2.0, 2.0), (1.5, 2.5, -1.0)])
        x = -0.2
        res = poisson_extend(pk, g, x)
        ref = 2.0 * quad(lambda z: poisson_eval(pk, x, z), -6.0, -2.0, limit=400)[0] \
            - quad(lambda z: poisson_eval(pk, x, z), 1.5, 2.5, limit=400)[0]
        assert res.value == pytest.approx(ref, rel=1e-8)

    def test_nonnegative_data_nonnegative_extension(self):
        for x in (-0.7, 0.0, 0.4):
            res = poisson_extend(UNIT, indicator(-4.0, -2.0), x)
            assert res.value >= 0.0

    def test_monotone_in_the_data(self):
        lo = indicator(1.0, 2.0)
        hi = piecewise_constant([(1.0, 2.0, 1.0), (-3.0, -1.5, 1.0)])
        for x in (-0.5, 0.0, 0.5):
            assert (poisson_extend(UNIT, lo, x).value
                    <= poisson_extend(UNIT, hi, x).value)

    def test_linear_in_the_data(self):
        g1 = indicator(1.0, 2.0)
        g2 = indicator(-5.0, -3.0)
        combo = piecewise_constant([(1.0, 2.0, 2.0), (-5.0, -3.0, -3.0)])
        got = poisson_extend(UNIT, combo, 0.25)
        want = (2.0 * poisson_extend(UNIT, g1, 0.25).value
                - 3.0 * poisson_extend(UNIT, g2, 0.25).value)
        assert got.value == pytest.approx(want, abs=1e-9)

    def test_growth_must_pair_with_the_order(self, monkeypatch):
        # growing or not, a bare callable datum fails before any integral
        def no_integrals(*args):
            raise AssertionError("integrals run for a bare callable")

        monkeypatch.setattr(poisson, "integrate_many", no_integrals)
        for g in (PointFunction(lambda y: y),
                  PointFunction(np.cos, sup_bound=1.0)):
            with pytest.raises(ConfigParseError, match="bare callable"):
                poisson_extend(UNIT, g, 0.0)

    def test_quadrature_only_on_the_line(self):
        pk = PoissonKernelBall(n=2, s=0.5, r=1.0, center=(0.0, 0.0))
        with pytest.raises(UnsupportedDimension):
            poisson_extend(pk, constant(1.0), (0.0, 0.0))

    def test_evaluation_point_must_be_inside(self):
        with pytest.raises(DomainViolation):
            poisson_extend(UNIT, constant(1.0), 1.0)


class TestClosedFormBounds:
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("b", [1.5, 2.0, 3.0, 10.0])
    def test_indicator_at_the_center(self, s, b):
        # from the center the Poisson measure of (r, b) is
        # 1/2 I_{1 - r^2/b^2}(1 - s, s) (Blumenthal, Getoor & Ray 1961)
        pk = PoissonKernelBall(n=1, s=s, r=1.0)
        res = poisson_extend(pk, indicator(1.0, b), 0.0)
        want = 0.5 * betainc(1.0 - s, s, 1.0 - 1.0 / b ** 2)
        assert abs(res.value - want) <= res.error_bound

    @pytest.mark.parametrize("x", [-0.9, -0.5, 0.0, 0.3, 0.8])
    def test_arccos_form_at_one_half(self, x):
        # at s = 1/2, P(x, z) dz on z > 1 integrates to
        # arccos((1 - x z)/(z - x))/pi; pieces on the left by mirror image
        g = piecewise_constant([(-4.0, -1.5, 2.0), (1.0, 3.0, 1.0)])
        res = poisson_extend(UNIT, g, x)

        def mass(y, a, b):
            return (math.acos((1.0 - y * b) / (b - y))
                    - math.acos((1.0 - y * a) / (a - y))) / math.pi

        want = 2.0 * mass(-x, 1.5, 4.0) + mass(x, 1.0, 3.0)
        assert abs(res.value - want) <= res.error_bound


class TestCompactData:
    """A declared support ends the far band at the data's reach."""

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("x", [-0.3, 0.5, 1.2])
    def test_agrees_with_truncated_route(self, s, x):
        pk = PoissonKernelBall(n=1, s=s, r=1.0, center=0.5)
        g = piecewise_constant([(-6.0, -2.0, 2.0), (1.7, 2.5, -1.0)])
        a = poisson_extend(pk, g, x)
        b = poisson_extend(pk, replace(g, support=None), x)
        assert b.remainder_bound > 0.0
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    @pytest.mark.parametrize("support,T", [((-6.0, 2.5), 5.5), ((0.6, 1.2), 2.0)])
    def test_no_evaluation_beyond_the_reach(self, support, T):
        # T = max(reach, 2r): the band itself reaches 2r from the center
        seen = []
        g = piecewise_constant([(*support, 0.7)])

        def fn(y):
            seen.append(np.array(y, dtype=float, copy=True).ravel())
            return g.fn(y)

        pk = PoissonKernelBall(n=1, s=0.4, r=1.0, center=-0.5)
        res = poisson_extend(pk, replace(g, fn=fn), -0.2)
        assert res.truncation_radius == T
        assert res.remainder_bound == 0.0
        assert float(np.max(np.abs(np.concatenate(seen) + 0.5))) <= T


@given(st.floats(0.15, 0.85), st.floats(-0.8, 0.8))
def test_normalization_everywhere(s, x):
    pk = PoissonKernelBall(n=1, s=s, r=1.0)
    res = poisson_extend(pk, constant(1.0), x)
    assert abs(res.value - 1.0) < 1e-5


class TestBounds:
    def test_single_sample_matches_eval(self):
        z = 2.0 * math.sqrt(2.0)
        want = poisson_eval(UNIT, 0.0, z) * z ** 2
        assert bound_ratio(UNIT, 0.0, z) == pytest.approx(want, rel=1e-14)
        rep = check_poisson_bounds(UNIT, [0.0], [z])
        assert rep.min_ratio == rep.max_ratio == pytest.approx(want, rel=1e-14)

    def test_grid_ratios_finite_and_tame(self):
        xs = np.linspace(-0.49, 0.49, 50)
        zs = np.concatenate([np.linspace(-10.0, -2.0, 25),
                             np.linspace(2.0, 10.0, 25)])
        rep = check_poisson_bounds(UNIT, xs, zs)
        assert np.isfinite(rep.min_ratio) and rep.min_ratio > 0.0
        assert np.isfinite(rep.max_ratio)
        assert rep.spread < 100.0
        assert rep.n_samples == 2500

    def test_ratios_invariant_under_rescaling(self):
        big = PoissonKernelBall(n=1, s=0.3, r=2.0)
        small = PoissonKernelBall(n=1, s=0.3, r=1.0)
        xs = np.linspace(-0.4, 0.4, 5)
        zs = np.array([2.5, 4.0, 9.0])
        a = check_poisson_bounds(small, xs, zs)
        b = check_poisson_bounds(big, 2.0 * xs, 2.0 * zs)
        assert a.min_ratio == pytest.approx(b.min_ratio, rel=1e-12)
        assert a.max_ratio == pytest.approx(b.max_ratio, rel=1e-12)

    def test_window_hypotheses_enforced(self):
        with pytest.raises(DomainViolation):
            check_poisson_bounds(UNIT, [0.5], [3.0])  # x on the window edge
        with pytest.raises(DomainViolation):
            check_poisson_bounds(UNIT, [0.0], [1.9])  # z inside the guard
        # the closed exterior window starts exactly at 2r
        rep = check_poisson_bounds(UNIT, [0.0], [2.0])
        assert rep.n_samples == 1


class TestArrayPoints:
    """poisson_extend on an array of points: one lock-step quadrature
    whose numbers are those of one call per point."""

    CENTERS = mesh_intervals([(-1.0, 1.0)], 32).centers

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("data", [
        piecewise_constant([(-3.0, -2.0, 0.4), (-2.0, -1.0, 1.5),
                            (1.0, 2.0, 2.0), (2.0, 3.0, 0.7)]),
        constant(1.0),  # no support: the truncation search per point
    ], ids=["compact", "constant"])
    def test_centers_equal_one_point_calls(self, s, data):
        pk = PoissonKernelBall(n=1, s=s, r=1.0)
        got = poisson_extend(pk, data, self.CENTERS)
        alone = [poisson_extend(pk, data, float(x)) for x in self.CENTERS]
        for field in ("value", "error_bound", "remainder_bound",
                      "truncation_radius"):
            want = np.array([getattr(res, field) for res in alone])
            assert getattr(got, field).shape == self.CENTERS.shape
            assert np.array_equal(getattr(got, field), want), field

    def test_a_point_outside_raises_as_alone(self):
        with pytest.raises(DomainViolation) as want:
            poisson_extend(UNIT, constant(1.0), 1.0)
        with pytest.raises(DomainViolation) as got:
            poisson_extend(UNIT, constant(1.0), np.array([0.0, 1.0, 2.0]))
        assert str(got.value) == str(want.value)

    def test_a_nan_point_raises(self):
        with pytest.raises(DomainViolation, match="nan"):
            poisson_extend(UNIT, constant(1.0), np.array([0.0, np.nan, 0.5]))
