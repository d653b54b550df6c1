from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from nonlocal_lab.errors import (
    DomainViolation,
    NonIntegrableTail,
    UnsupportedKernel,
)
from nonlocal_lab.geometry import make_disconnected_config
from nonlocal_lab.kernel import (
    fractional_kernel,
    general_demo_kernel,
    ti_demo_kernel,
)
from nonlocal_lab.operator import (
    PointFunction,
    barrier_w1,
    barrier_w2,
    constant,
    eval_L,
    indicator,
    piecewise_constant,
    tail,
)

CONFIG = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)

# closed form for L(chi_(1,3))(-2) at s = 1/4:
# -2 * int_1^3 (y+2)^(-3/2) dy = 4 (5^(-1/2) - 3^(-1/2))
W1_SPOT_S025 = 4.0 * (5.0 ** -0.5 - 3.0 ** -0.5)

# u(y) = y: growth power 1, tail-integrable only for 2s > 1
LINEAR = PointFunction(lambda y: y, envelope=(1.0, 1.0))


def ball1_grid(npts=101):
    return np.linspace(-3.0, -1.0, npts)


class TestEvalBasics:
    @pytest.mark.parametrize("kernel", [
        fractional_kernel(1, 0.5),
        ti_demo_kernel(0.25),
        general_demo_kernel(0.75),
    ])
    def test_constants_are_annihilated(self, kernel):
        res = eval_L(kernel, constant(7.0), 0.3)
        assert res.value == 0.0
        assert res.error_bound == 0.0

    def test_w1_spot_value_against_antiderivative(self):
        res = eval_L(fractional_kernel(1, 0.25), barrier_w1(CONFIG), -2.0)
        assert res.value == pytest.approx(W1_SPOT_S025, abs=1e-7)
        assert abs(res.value - W1_SPOT_S025) < 1e-7 + res.error_bound

    def test_w1_spot_value_under_scaled_kernel(self):
        k = replace(fractional_kernel(1, 0.25), scale=0.75)
        res = eval_L(k, barrier_w1(CONFIG), -2.0)
        assert res.value == pytest.approx(0.75 * W1_SPOT_S025, rel=1e-9)

    def test_indicator_far_from_support_decays(self):
        k = fractional_kernel(1, 0.5)
        near = eval_L(k, barrier_w1(CONFIG), -2.0).value
        far = eval_L(k, barrier_w1(CONFIG), -14.0).value
        assert abs(far) < abs(near)

    def test_linearity_of_combinations(self):
        k = fractional_kernel(1, 0.5)
        combo = piecewise_constant([(1.0, 3.0, 2.0), (-6.0, -4.0, -3.0)])
        lhs = eval_L(k, combo, -1.7)
        rhs = (2.0 * eval_L(k, indicator(1.0, 3.0), -1.7).value
               - 3.0 * eval_L(k, indicator(-6.0, -4.0), -1.7).value)
        assert lhs.value == pytest.approx(rhs, abs=1e-8)

    def test_kernel_scaling_is_exact(self):
        u = barrier_w2(CONFIG)
        s = 0.6
        k = ti_demo_kernel(s)
        base = eval_L(k, u, -2.3)
        scaled = eval_L(replace(k, scale=1.0 - s), u, -2.3)
        assert scaled.value == pytest.approx((1.0 - s) * base.value, rel=1e-12)

    def test_smooth_path_matches_library_quadrature(self):
        # independent route: direct D2 integral via scipy on the same kernel
        s = 0.6
        k = fractional_kernel(1, s)
        u = barrier_w2(CONFIG)
        x = -2.3
        res = eval_L(k, u, x)

        def d2(z):
            return (2.0 * u(np.array([x]))[0] - u(np.array([x + z]))[0]
                    - u(np.array([x - z]))[0]) * z ** (-1.0 - 2.0 * s)

        ref = 0.0
        for a, b in [(1e-9, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 50.0), (50.0, 2e4)]:
            val, _ = quad(d2, a, b, limit=400)
            ref += val
        # symmetrized form carries the pair (x+z, x-z), hence the factor 2
        assert res.value == pytest.approx(2.0 * ref, rel=2e-5)


class TestEvalErrors:
    def test_x_on_a_break_rejected(self):
        with pytest.raises(DomainViolation):
            eval_L(fractional_kernel(1, 0.5), barrier_w1(CONFIG), 1.0)

    def test_undeclared_structure_rejected(self):
        u = PointFunction(lambda y: np.abs(y), sup_bound=None, envelope=(1.0, 1.0))
        with pytest.raises(DomainViolation):
            eval_L(fractional_kernel(1, 0.9), u, 0.5)

    def test_general_kernel_needs_locally_constant_u(self):
        with pytest.raises(UnsupportedKernel):
            eval_L(general_demo_kernel(0.75), barrier_w2(CONFIG), -2.0)

    def test_general_kernel_accepts_indicators(self):
        res = eval_L(general_demo_kernel(0.75), barrier_w1(CONFIG), -2.0)
        assert res.value < 0.0

    def test_growth_incompatible_with_order(self):
        with pytest.raises(NonIntegrableTail):
            eval_L(general_demo_kernel(0.25), LINEAR, 0.5)


class TestTail:
    @pytest.mark.parametrize("s,expected", [(0.25, 4.0), (0.5, 2.0)])
    def test_constant_tail_brackets_one_over_s(self, s, expected):
        res = tail(constant(1.0), x0=0.5, r=2.0, s=s)
        # closed form: piecewise path is exact
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert res.remainder_bound == 0.0

    def test_zero_function(self):
        res = tail(constant(0.0), 0.0, 1.0, s=0.5)
        assert res.value == 0.0 and res.remainder_bound == 0.0

    def test_callable_route_brackets_constant_tail(self):
        u = PointFunction(lambda y: np.ones_like(y), sup_bound=1.0)
        res = tail(u, x0=0.0, r=1.0, s=0.25)
        assert res.value <= 4.0 <= res.value + res.remainder_bound + 1e-8
        assert res.value == pytest.approx(4.0, rel=1e-5)

    @given(st.floats(-5.0, 5.0), st.floats(0.15, 0.85))
    def test_piecewise_matches_callable_quadrature(self, x0, s):
        pieces = [(-3.0, -1.0, 2.0), (1.5, 4.0, 0.5)]
        pw = piecewise_constant(pieces)
        cb = PointFunction(pw.fn, sup_bound=2.0, breaks=pw.breaks)
        a = tail(pw, x0=x0, r=1.0, s=s)
        b = tail(cb, x0=x0, r=1.0, s=s)
        assert a.remainder_bound == 0.0
        assert abs(b.value - a.value) <= b.remainder_bound

    @pytest.mark.parametrize("T", [0.06, 0.1])
    def test_growing_data_bracket_below_unit_truncation(self, T):
        # |u| <= (1 + |y|)^(1/2) with the truncation radius T < 1: the
        # envelope remainder must still bound what lies beyond T
        s, r = 0.4, 0.05
        u = PointFunction(lambda y: np.sqrt(1.0 + np.abs(y)), envelope=(1.0, 0.5))
        res = tail(u, 0.0, r, s, truncation=T)
        one_side = sum(quad(lambda y: np.sqrt(1.0 + y) * y ** (-1.0 - 2.0 * s), a, b)[0]
                       for a, b in [(r, 1.0), (1.0, np.inf)])
        exact = r ** (2.0 * s) * 2.0 * one_side
        assert res.value <= exact <= res.value + res.remainder_bound

    def test_value_monotone_remainder_antitone_in_truncation(self):
        u = PointFunction(lambda y: np.ones_like(y), sup_bound=1.0)
        res = [tail(u, 0.0, 1.0, s=0.3, truncation=T) for T in (1e2, 1e4, 1e6)]
        vals = [t.value for t in res]
        rems = [t.remainder_bound for t in res]
        assert vals == sorted(vals)
        assert rems == sorted(rems, reverse=True)

    def test_negative_part_piecewise(self):
        u = piecewise_constant([(-2.0, -1.0, -3.0), (1.0, 2.0, 5.0)],
                               far_value=-1.0, far_radius=8.0)
        um = u.negative_part()
        y = np.array([-1.5, 1.5, 9.0, 0.0])
        assert np.allclose(um(y), [3.0, 0.0, 1.0, 0.0])

    def test_growth_guard(self):
        with pytest.raises(NonIntegrableTail):
            tail(LINEAR, 0.0, 1.0, s=0.25)


class TestBarriers:
    def test_w1_values(self):
        w1 = barrier_w1(CONFIG)
        assert w1(np.array([2.0]))[0] == 1.0
        assert w1(np.array([-2.0]))[0] == 0.0
        assert w1.support == (1.0, 3.0)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_w1_is_a_strict_subsolution_on_the_left_ball(self, s):
        k = fractional_kernel(1, s)
        w1 = barrier_w1(CONFIG)
        vals = [eval_L(k, w1, x).value for x in ball1_grid()]
        assert max(vals) < 0.0

    def test_w2_plateau_and_support(self):
        w2 = barrier_w2(CONFIG)
        assert w2(np.array([-2.0]))[0] == 1.0
        assert w2(np.array([-1.0]))[0] == 0.0
        assert w2(np.array([-2.45]))[0] == 1.0  # plateau B_{r/2}
        rng = np.random.default_rng(0)
        y = rng.uniform(-10, 10, size=10_000)
        vals = w2(y)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        outside = np.abs(y - (-2.0)) >= 1.0
        assert np.all(vals[outside] == 0.0)

    def test_w2_second_derivative_within_documented_bound(self):
        w2 = barrier_w2(CONFIG)
        x = np.linspace(-3.2, -0.8, 4001)
        h = x[1] - x[0]
        vals = w2(x)
        d2 = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h ** 2
        assert np.max(np.abs(d2)) <= w2.hess_bound

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_w2_operator_bounded_on_the_ball(self, s):
        k = ti_demo_kernel(s)
        w2 = barrier_w2(CONFIG)
        vals = np.array([eval_L(k, w2, x).value for x in ball1_grid(21)])
        assert np.all(np.isfinite(vals))
        # a-priori estimate for C^2 bounded u, rho = 1:
        # |Lu| <= 2 m2 Lam/(2-2s) + 8 sup|u| Lam/(2s)
        env = k.upper_envelope()
        bound = 2.0 * w2.hess_bound * env / (2.0 - 2.0 * s) + 8.0 * env / (2.0 * s)
        assert np.max(np.abs(vals)) < bound


@given(st.floats(-2.9, -1.1), st.floats(0.1, 0.9))
def test_tail_of_nonnegative_data_is_nonnegative(x0, s):
    u = piecewise_constant([(1.0, 3.0, 0.7)])
    res = tail(u, x0, 0.5, s)
    assert res.value >= 0.0


@given(st.floats(0.15, 0.85))
def test_w1_eval_matches_closed_form_any_s(s):
    # L(chi_(1,3))(-2) = -2 int_1^3 (y+2)^(-1-2s) dy, closed antiderivative
    k = fractional_kernel(1, s)
    res = eval_L(k, barrier_w1(CONFIG), -2.0)
    exact = -2.0 * (3.0 ** (-2.0 * s) - 5.0 ** (-2.0 * s)) / (2.0 * s)
    assert res.value == pytest.approx(exact, rel=1e-8)
    assert abs(res.value - exact) <= res.error_bound
