from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from nonlocal_lab.errors import (
    ConfigParseError,
    DomainViolation,
    UnsupportedKernel,
)
from nonlocal_lab.geometry import make_disconnected_config
from nonlocal_lab.harnack import BARRIER_TOL
from nonlocal_lab.kernel import (
    fractional_kernel,
    general_demo_kernel,
    make_kernel,
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
    segment_tail,
)
from nonlocal_lab.quadrature import DEFAULT_TOL

CONFIG = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)

# closed form for L(chi_(1,3))(-2) at s = 1/4:
# -2 * int_1^3 (y+2)^(-3/2) dy = 4 (5^(-1/2) - 3^(-1/2))
W1_SPOT_S025 = 4.0 * (5.0 ** -0.5 - 3.0 ** -0.5)

# u(y) = y: a bare callable that grows, so it declares no sup_bound
LINEAR = PointFunction(lambda y: y)


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
        # the (1 - s) normalization scales the kernel by exactly 0.75
        k = fractional_kernel(1, 0.25, one_minus_s=True)
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
        scaled = eval_L(ti_demo_kernel(s, one_minus_s=True), u, -2.3)
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
        u = PointFunction(lambda y: np.abs(y))
        with pytest.raises(DomainViolation):
            eval_L(fractional_kernel(1, 0.9), u, 0.5)

    def test_general_kernel_needs_locally_constant_u(self):
        with pytest.raises(UnsupportedKernel):
            eval_L(general_demo_kernel(0.75), barrier_w2(CONFIG), -2.0)

    def test_general_kernel_accepts_indicators(self):
        res = eval_L(general_demo_kernel(0.75), barrier_w1(CONFIG), -2.0)
        assert res.value < 0.0

    def test_growth_incompatible_with_order(self):
        # C^2 but unbounded: no far-field remainder bounds its tail
        with pytest.raises(DomainViolation, match="sup_bound"):
            eval_L(fractional_kernel(1, 0.75), replace(LINEAR, hess_bound=0.0),
                   0.5)


def quad_tail(value, edges, x0, r, s):
    """Tail(u; x0, r) by scipy quad of |value(y)|, each side in the
    distance t = |y - x0| > r, split at the finite edges."""
    total = 0.0
    for side in (1.0, -1.0):
        d = sorted({r, *(side * (e - x0) for e in edges
                         if np.isfinite(e) and side * (e - x0) > r)})
        for a, b in zip(d, d[1:] + [np.inf]):
            total += quad(lambda t: abs(value(x0 + side * t))
                          * t ** (-1.0 - 2.0 * s), a, b,
                          epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return r ** (2.0 * s) * total


class TestTail:
    @pytest.mark.parametrize("s,expected", [(0.25, 4.0), (0.5, 2.0)])
    def test_constant_tail_brackets_one_over_s(self, s, expected):
        value = segment_tail(constant(1.0).segments(), x0=0.5, r=2.0, s=s)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_zero_function(self):
        assert segment_tail(constant(0.0).segments(), 0.0, 1.0, s=0.5) == 0.0

    @given(st.floats(-5.0, 5.0), st.floats(0.15, 0.85))
    def test_piecewise_matches_callable_quadrature(self, x0, s):
        # the closed form of the segments against quadrature of the
        # function itself
        pw = piecewise_constant([(-3.0, -1.0, 2.0), (1.5, 4.0, 0.5)])
        want = quad_tail(lambda y: pw(np.array([y]))[0], pw.breaks, x0, 1.0, s)
        assert segment_tail(pw.segments(), x0, 1.0, s) == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_tol_outside_zero_inf_rejected(self, tol):
        # the operator's quadrature checks tol before any integral
        k = fractional_kernel(1, 0.5)
        for u in (constant(1.0), barrier_w2(CONFIG)):
            with pytest.raises(ConfigParseError, match="tol"):
                eval_L(k, u, -2.3, tol=tol)

    def test_segments_list_pieces_then_far_halves(self):
        u = piecewise_constant([(-2.0, -1.0, -3.0), (1.0, 2.0, 5.0)],
                               far_value=-1.0, far_radius=8.0)
        assert u.segments() == [(-2.0, -1.0, -3.0), (1.0, 2.0, 5.0),
                                (-np.inf, -8.0, -1.0), (8.0, np.inf, -1.0)]
        assert piecewise_constant([]).segments() == []
        with pytest.raises(ConfigParseError):
            LINEAR.segments()

    @pytest.mark.parametrize("pieces,far_radius", [([], -1.0),
                                                   ([(1.0, 2.0, 1.0)], 0.0)],
                             ids=["negative-radius", "pieces-radius-0"])
    def test_far_part_overlapping_pieces_rejected(self, pieces, far_radius):
        # the far halves would overlap each other or the pieces, and every
        # reader of segments() would count the overlap twice
        with pytest.raises(DomainViolation):
            piecewise_constant(pieces, far_value=1.0, far_radius=far_radius)
        # far:v,0 without pieces is the constant, tail 1/s
        far0 = piecewise_constant([], far_value=1.0, far_radius=0.0)
        assert segment_tail(far0.segments(), 0.0, 0.5, 0.5) == pytest.approx(
            2.0, rel=1e-15)

    @pytest.mark.parametrize("pieces,far_value,far_radius", [
        ([(np.nan, 2.0, 1.0)], 0.0, None), ([(1.0, 2.0, np.nan)], 0.0, None),
        ([], np.nan, 1.0), ([], 1.0, np.nan)],
        ids=["edge", "value", "far-value", "far-radius"])
    def test_nan_rejected(self, pieces, far_value, far_radius):
        with pytest.raises(DomainViolation, match="NaN"):
            piecewise_constant(pieces, far_value=far_value,
                               far_radius=far_radius)
        # infinite piece edges stay valid, and declare no support
        half_line = piecewise_constant([(3.0, np.inf, 2.0)])
        assert half_line.segments() == [(3.0, np.inf, 2.0)]
        assert half_line.support is None

    @pytest.mark.parametrize("u,pw", [
        (constant(2.5), piecewise_constant([], far_value=2.5, far_radius=0.0,
                                           label="const(2.5)")),
        (constant(-1.0), piecewise_constant([], far_value=-1.0,
                                            far_radius=0.0,
                                            label="const(-1)")),
        (indicator(-1.0, 3.0), piecewise_constant([(-1.0, 3.0, 1.0)],
                                                  label="chi(-1,3)")),
    ], ids=["const", "const-negative", "indicator"])
    def test_constant_and_indicator_are_piecewise_forms(self, u, pw):
        for f in fields(u):
            if f.name not in ("fn", "hess_bound"):
                assert getattr(u, f.name) == getattr(pw, f.name), f.name
        y = np.concatenate([np.linspace(-5.0, 5.0, 101),
                            [-1.0, 0.0, 3.0, -np.inf, np.inf]])
        assert np.array_equal(u(y), pw(y))

    @given(st.floats(-8.0, 8.0), st.floats(0.15, 0.85))
    def test_segment_tail_with_infinite_ends_matches_quadrature(self, x0, s):
        segs = [(-np.inf, -5.0, -0.4), (-3.0, -1.0, 2.0), (1.5, 4.0, -0.5),
                (6.0, np.inf, 1.5)]

        def value(y):
            return sum(v for lo, hi, v in segs if lo < y < hi)

        edges = [e for lo, hi, _ in segs for e in (lo, hi)]
        assert segment_tail(segs, x0, 1.0, s) == pytest.approx(
            quad_tail(value, edges, x0, 1.0, s), rel=1e-12)


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
    assert segment_tail(u.segments(), x0, 0.5, s) >= 0.0


@given(st.floats(0.15, 0.85))
def test_w1_eval_matches_closed_form_any_s(s):
    # L(chi_(1,3))(-2) = -2 int_1^3 (y+2)^(-1-2s) dy, closed antiderivative
    k = fractional_kernel(1, s)
    res = eval_L(k, barrier_w1(CONFIG), -2.0)
    exact = -2.0 * (3.0 ** (-2.0 * s) - 5.0 ** (-2.0 * s)) / (2.0 * s)
    assert res.value == pytest.approx(exact, rel=1e-8)
    assert abs(res.value - exact) <= res.error_bound


# the r = 0.5 barrier: w2's reach |x - x1| + r falls below the near-field
# radius rho = 1 on B_r(x1), so the far field is empty there
HALF = make_disconnected_config(n=1, x1=-1.0, x2=1.0, r=0.5, R=8.0)


def without_support(u):
    """The same function without a declared support: the truncated route."""
    return replace(u, support=None)


class TestClosedFormBounds:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.9])
    def test_w1_on_the_barrier_grid(self, s):
        # L chi_(1,3)(x) = -2 int_1^3 (y - x)^(-1-2s) dy for x in B_1(-2)
        k = fractional_kernel(1, s)
        w1 = barrier_w1(CONFIG)
        for x in ball1_grid():
            res = eval_L(k, w1, x, tol=1e-8)
            exact = -((1.0 - x) ** (-2.0 * s) - (3.0 - x) ** (-2.0 * s)) / s
            assert abs(res.value - exact) <= res.error_bound


ROUTE_KERNELS = {
    "frac0.3": fractional_kernel(1, 0.3),
    "frac0.8": fractional_kernel(1, 0.8),
    "ti0.4": ti_demo_kernel(0.4),
    "general0.6": general_demo_kernel(0.6),
}
LOCAL = ("frac0.3", "frac0.8", "ti0.4")
# w1 vanishes at the first five points; at 1.4 and 2.4 it is 1, where the
# fractional kernel adds the mass beyond the reach in closed form and the
# TI kernel keeps the truncation search (the general kernel runs only
# where u(x) = 0, and w2 is not locally constant)
ROUTE_CASES = (
    [(k, "w1", CONFIG, x) for k in ROUTE_KERNELS
     for x in (-2.6, -2.0, -1.2, 0.5, 6.0)]
    + [(k, "w1", CONFIG, x) for k in LOCAL for x in (1.4, 2.4)]
    + [(k, "w2", cfg, x) for k in LOCAL
       for cfg, x in [(CONFIG, -2.3), (CONFIG, -1.2), (CONFIG, 0.5),
                      (CONFIG, 3.5), (HALF, -1.2), (HALF, -0.9),
                      (HALF, -0.3), (HALF, 0.2)]]
)
BARRIERS = {"w1": barrier_w1, "w2": barrier_w2}


class TestCompactRoute:
    """Declared support ends the far field; stripping it must not matter."""

    @pytest.mark.parametrize(
        "kname,barrier,config,x", ROUTE_CASES,
        ids=[f"{b}-{k}-r{c.r:g}-x{x:g}" for k, b, c, x in ROUTE_CASES])
    def test_eval_L_agrees_with_truncated_route(self, kname, barrier,
                                                config, x):
        kernel = ROUTE_KERNELS[kname]
        u = BARRIERS[barrier](config)
        a = eval_L(kernel, u, x)
        b = eval_L(kernel, without_support(u), x)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_reach_below_the_near_field_radius(self):
        # T clamps at rho: the shell (reach, rho) belongs to the near field
        # and only the kernel mass beyond rho is added in closed form
        k = fractional_kernel(1, 0.5)
        w2 = barrier_w2(HALF)
        res = eval_L(k, w2, -1.1)
        assert res.truncation_radius == 1.0
        assert res.remainder_bound == 0.0

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("x0", [-4.0, -2.0, 0.0, 2.5, 7.0])
    def test_tail_agrees_with_truncated_route(self, s, x0):
        # the closed-form tail against eval_L's far-field quadrature, with
        # and without the support that ends it
        segs = [(-3.0, -1.0, 2.0), (1.5, 4.0, 0.5)]
        exact = segment_tail(segs, x0, 1.0, s)
        w = tail_datum(segs, x0, 1.0)
        for u in (w, without_support(w)):
            res = eval_L(fractional_kernel(1, s), u, x0)
            assert abs(-0.5 * res.value - exact) <= 0.5 * res.error_bound


def tail_datum(segs, x0, r):
    """The nonnegative segments with B_r(x0) cut out, as a datum w with
    w = 0 near x0: for the plain fractional kernel, L w(x0) =
    -2 r^(-2s) Tail(w; x0, r), so eval_L is a second route to the tail."""
    return piecewise_constant(
        [(lo, hi, v) for a, b, v in segs
         for lo, hi in ((a, min(b, x0 - r)), (max(a, x0 + r), b)) if hi > lo])


def recording(u, seen):
    """u whose fn appends every evaluation point to seen."""
    def fn(y):
        seen.append(np.array(y, dtype=float, copy=True).ravel())
        return u.fn(y)

    return replace(u, fn=fn)


def farthest(seen, center):
    return float(np.max(np.abs(np.concatenate(seen) - center)))


class TestCompactWork:
    """No evaluation beyond the reach, no remainder, T is what ran."""

    @pytest.mark.parametrize("kernel", [
        fractional_kernel(1, 0.25),
        ti_demo_kernel(0.5),
        general_demo_kernel(0.75),
    ], ids=["frac", "ti", "general"])
    @pytest.mark.parametrize("x", [-2.5, -1.5])
    def test_eval_L_w1(self, kernel, x):
        seen = []
        w1 = barrier_w1(CONFIG)
        res = eval_L(kernel, recording(w1, seen), x)
        reach = 3.0 - x
        assert res.truncation_radius == reach
        assert res.remainder_bound == 0.0
        assert farthest(seen, x) <= reach

    @pytest.mark.parametrize("x", [-2.9, -2.3, -1.6])
    def test_eval_L_w2_fractional(self, x):
        seen = []
        w2 = barrier_w2(CONFIG)
        res = eval_L(fractional_kernel(1, 0.75), recording(w2, seen), x)
        reach = abs(x + 2.0) + 1.0
        assert res.truncation_radius == reach
        assert res.remainder_bound == 0.0
        assert farthest(seen, x) <= reach

    @pytest.mark.parametrize("x0", [-5.0, 0.0, 2.0])
    def test_tail(self, x0):
        # eval_L's route to the tail of data on (-1, 3)
        seen = []
        w = tail_datum([(-1.0, 3.0, 1.0)], x0, 0.5)
        res = eval_L(fractional_kernel(1, 0.4), recording(w, seen), x0)
        reach = max(abs(-1.0 - x0), abs(3.0 - x0))
        assert res.truncation_radius == reach
        assert farthest(seen, x0) <= reach
        # no truncation remainder: what is left is the quadrature
        # estimate, halved like the value on the way to the tail
        assert res.remainder_bound == 0.0
        assert 0.5 * res.error_bound < 1e-9


FIELDS = ("value", "error_bound", "remainder_bound", "truncation_radius")


def assert_points_alone(k, u, xs, tol=DEFAULT_TOL):
    """eval_L on the array xs against one call per point, bit for bit."""
    got = eval_L(k, u, xs, tol=tol)
    alone = [eval_L(k, u, float(x), tol=tol) for x in xs]
    for field in FIELDS:
        want = np.array([getattr(res, field) for res in alone])
        assert getattr(got, field).shape == xs.shape
        assert np.array_equal(getattr(got, field), want), field


class TestArrayPoints:
    """eval_L on an array of points runs all their integrals in one
    lock-step quadrature; each point's numbers are its own call's."""

    @pytest.mark.parametrize("tol", [BARRIER_TOL, DEFAULT_TOL])
    @pytest.mark.parametrize("s", [0.25, 0.75, 0.9])
    @pytest.mark.parametrize("barrier", [barrier_w1, barrier_w2])
    @pytest.mark.parametrize("family", ["frac", "ti"])
    def test_grid_equals_one_point_calls(self, family, barrier, s, tol):
        assert_points_alone(make_kernel(family, 1, s), barrier(CONFIG),
                            ball1_grid(), tol)

    def test_general_kernel_w1(self):
        assert_points_alone(general_demo_kernel(0.6), barrier_w1(CONFIG),
                            ball1_grid(), BARRIER_TOL)

    def test_truncation_search_points(self):
        # TI kernel where w1 = 1: the far field searches its radius
        assert_points_alone(ti_demo_kernel(0.4), barrier_w1(CONFIG),
                            np.linspace(1.2, 2.8, 9))

    def test_scalar_point_gives_floats(self):
        res = eval_L(fractional_kernel(1, 0.5), barrier_w2(CONFIG), -2.3)
        assert all(isinstance(getattr(res, f), float) for f in FIELDS)

    def test_constant_function_on_a_grid(self):
        res = eval_L(fractional_kernel(1, 0.5), constant(7.0), ball1_grid(5))
        assert np.array_equal(res.value, np.zeros(5))
        assert np.all(np.isinf(res.truncation_radius))

    def test_grid_on_a_break_raises_as_the_point_does(self):
        k = fractional_kernel(1, 0.5)
        w1 = barrier_w1(CONFIG)
        with pytest.raises(DomainViolation) as want:
            eval_L(k, w1, 1.0)
        with pytest.raises(DomainViolation) as got:
            eval_L(k, w1, np.linspace(-3.0, 3.0, 7))  # 1.0 and 3.0 on breaks
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("u", [barrier_w1(CONFIG), constant(1.0)],
                             ids=["w1", "constant"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_raises(self, u, bad):
        k = fractional_kernel(1, 0.5)
        with pytest.raises(DomainViolation, match="finite"):
            eval_L(k, u, bad)
        with pytest.raises(DomainViolation, match="finite"):
            eval_L(k, u, np.array([-2.5, bad, -1.5]))

    def test_empty_grid(self):
        res = eval_L(fractional_kernel(1, 0.5), barrier_w2(CONFIG),
                     np.array([]))
        assert res.value.shape == (0,)
