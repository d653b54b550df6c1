"""Ball kernel: closed-form values, extension quadrature, two-sided bounds."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc

from nonlocal_lab import poisson, quadrature
from nonlocal_lab.cli import parse_data
from nonlocal_lab.errors import (
    ConfigParseError,
    DomainViolation,
    UnsupportedDimension,
)
from nonlocal_lab.geometry import make_disconnected_config, mesh_intervals
from nonlocal_lab.kernel import phi
from nonlocal_lab.operator import (
    PointFunction,
    barrier_w2,
    constant,
    indicator,
    piecewise_constant,
)
from nonlocal_lab.poisson import (
    PoissonKernelBall,
    bound_ratio,
    check_poisson_bounds,
    poisson_constant,
    poisson_eval,
    poisson_extend,
)
from nonlocal_lab.quadrature import integrate_many

UNIT = PoissonKernelBall(n=1, s=0.5, r=1.0)
ORACLE_S = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95]


class TestConstant:
    def test_line_half_order_is_one_over_pi(self):
        assert poisson_constant(0.5) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_vanishes_toward_zero_order(self):
        assert 0.0 < poisson_constant(1e-9) < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(UnsupportedDimension, match="n = 0"):
            PoissonKernelBall(n=0, s=0.5, r=1.0)
        with pytest.raises(ConfigParseError):
            poisson_constant(1.0)
        with pytest.raises(ConfigParseError):
            PoissonKernelBall(n=1, s=0.5, r=-1.0)
        with pytest.raises(ConfigParseError):
            PoissonKernelBall(n=1, s=0.5, r=1.0, center=(0.0, 0.0))
        # n is checked before the center
        with pytest.raises(UnsupportedDimension, match="n = 2"):
            PoissonKernelBall(n=2, s=0.5, r=1.0, center=0.0)

    def test_center_is_a_number(self):
        pk = PoissonKernelBall(n=1, s=0.5, r=1.0, center=(4.0,))
        assert pk.center == 4.0 and pk == PoissonKernelBall(1, 0.5, 1.0, 4.0)


class TestEval:
    def test_spot_value_on_the_line(self):
        # c * (1-0)^s * (2-1)^(-s) * (sqrt2)^(-1) = 1/(pi sqrt2)
        val = poisson_eval(UNIT, 0.0, math.sqrt(2.0))
        assert val == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), abs=1e-12)

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
    @pytest.mark.parametrize("s", ORACLE_S)
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

    @pytest.mark.parametrize("s", ORACLE_S)
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
        # the extension sums one kernel mass per segment, so a datum's
        # value is the weighted sum of its one-segment extensions
        pieces = [(-5.0, -3.0, -3.0), (1.0, 2.0, 2.0), (2.0, 7.0, 0.25)]
        got = poisson_extend(UNIT, piecewise_constant(pieces), 0.25)
        terms = [v * poisson_extend(UNIT, indicator(lo, hi), 0.25).value
                 for lo, hi, v in pieces]
        assert abs(got.value - sum(terms)) <= 1e-15 * sum(map(abs, terms))

    def test_growth_must_pair_with_the_order(self, monkeypatch):
        # a function that is not piecewise-constant data, such as the
        # smooth barrier w2, fails before any integral
        def no_integrals(*args):
            raise AssertionError("integrals run for a smooth profile")

        monkeypatch.setattr(poisson, "integrate_many", no_integrals)
        w2 = barrier_w2(make_disconnected_config(n=1, x1=-2.0, x2=2.0,
                                                 r=1.0, R=16.0))
        with pytest.raises(ConfigParseError,
                           match="w2 is not piecewise-constant data"):
            poisson_extend(UNIT, w2, 0.0)

    def test_quadrature_only_on_the_line(self):
        with pytest.raises(UnsupportedDimension):
            poisson_extend(PoissonKernelBall(n=2, s=0.5, r=1.0,
                                             center=(0.0, 0.0)),
                           constant(1.0), (0.0, 0.0))

    def test_evaluation_point_must_be_inside(self):
        with pytest.raises(DomainViolation):
            poisson_extend(UNIT, constant(1.0), 1.0)


# two pieces, far data and half-line pieces
ARCCOS_DATA = ["pieces:-4,-1.5,2;1,3,1", "far:1,3", "far:-0.5,1",
               "pieces:-inf,-2,0.5;1,1.5,-1;4,inf,2"]
ARCCOS_CASES = [(x, d) for d in ARCCOS_DATA
                for x in (-0.9, -0.5, 0.0, 0.3, 0.8)]


class TestClosedFormBounds:
    @pytest.mark.parametrize("s", [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9,
                                   0.95])
    # b = 1e160 lies past the far band's distance cap of 1e150 r; the
    # thin pieces 1e-13 and 1e-10 wide hold all their mass at the boundary
    @pytest.mark.parametrize("b", [1.0 + 1e-13, 1.0 + 1e-10, 1.5, 2.0, 3.0,
                                   10.0, 1e160])
    def test_indicator_at_the_center(self, s, b):
        # from the center the Poisson measure of (r, b) and of its mirror
        # is 1/2 I_{1 - r^2/b^2}(1 - s, s) (Blumenthal, Getoor & Ray
        # 1961), taken as 1/2 (1 - I_{r^2/b^2}(s, 1 - s)) where that keeps
        # the smaller argument; at s = 1/2 it is atan(sqrt(b^2 - 1))/pi
        pk = PoissonKernelBall(n=1, s=s, r=1.0)
        near = (b - 1.0) / b * ((b + 1.0) / b)
        wants = [0.5 * betainc(1.0 - s, s, near) if near < 0.5 else
                 0.5 * (1.0 - betainc(s, 1.0 - s, (1.0 / b) ** 2))]
        if s == 0.5:
            wants.append(math.atan(math.sqrt((b - 1.0) * (b + 1.0))) / math.pi)
        for g in (indicator(1.0, b), indicator(-b, -1.0)):
            res = poisson_extend(pk, g, 0.0)
            for want in wants:
                assert abs(res.value - want) <= res.error_bound \
                    + 1e-15 * max(1.0, abs(want))

    @pytest.mark.parametrize("x,data", ARCCOS_CASES, ids=[
        f"{x}" if d == ARCCOS_DATA[0] else f"{x}-{d}"
        for x, d in ARCCOS_CASES])
    def test_arccos_form_at_one_half(self, x, data):
        # at s = 1/2, P(x, z) dz on z > 1 integrates to
        # arccos((1 - x z)/(z - x))/pi, which tends to arccos(-x)/pi as
        # z -> inf; segments on the left by mirror image
        g = parse_data(data)
        res = poisson_extend(UNIT, g, x)

        def edge(y, z):
            return math.acos(-y if z == np.inf else (1.0 - y * z) / (z - y))

        def mass(y, a, b):
            return (edge(y, b) - edge(y, a)) / math.pi

        want = sum(v * (mass(x, lo, hi) if lo >= 1.0 else mass(-x, -hi, -lo))
                   for lo, hi, v in g.segments())
        assert abs(res.value - want) <= res.error_bound


def quad_extension(pk, g, x):
    """(the extension of g at x, its allowance) by scipy quad of the
    closed-form kernel over g's segments outside the ball."""
    c, r = float(pk.center), pk.r
    total, allow = 0.0, 0.0
    for lo, hi, v in g.segments():
        for a, b in ((lo, min(hi, c - r)), (max(lo, c + r), hi)):
            if b > a:
                val, err = quad(lambda z: poisson_eval(pk, x, z), a, b,
                                epsabs=1e-15, epsrel=1e-12, limit=400)
                total += v * val
                allow += abs(v) * err
    return total, allow + 1e-15 * max(1.0, abs(total))


class TestCompactData:
    """The far band runs to infinity whatever the data's reach; the
    test names keep the old reach-ended and truncated routes."""

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("x", [-0.3, 0.5, 1.2])
    def test_agrees_with_truncated_route(self, s, x):
        # against scipy quad of the kernel, off the center
        pk = PoissonKernelBall(n=1, s=s, r=1.0, center=0.5)
        g = piecewise_constant([(-6.0, -2.0, 2.0), (1.7, 2.5, -1.0)])
        res = poisson_extend(pk, g, x)
        want, allow = quad_extension(pk, g, x)
        assert abs(res.value - want) <= res.error_bound + allow

    @pytest.mark.parametrize("support,T", [((-6.0, 2.5), 5.5), ((0.6, 1.2), 2.0)])
    def test_no_evaluation_beyond_the_reach(self, monkeypatch, support, T):
        # the data enter through their segments only: g is never called,
        # and no far-band integral runs past the reach T = max(reach, 2r)
        # from the center, phi(T) in the tail-mass coordinate
        g = piecewise_constant([(*support, 0.7)])
        jobs = []

        def pointwise(self, y):
            raise AssertionError("poisson_extend read the datum pointwise")

        def spy(f, js):
            jobs.extend(js)
            return integrate_many(f, js)

        monkeypatch.setattr(poisson, "integrate_many", spy)
        monkeypatch.setattr(PointFunction, "__call__", pointwise)
        pk = PoissonKernelBall(n=1, s=0.4, r=1.0, center=-0.5)
        res = poisson_extend(pk, g, -0.2)
        assert jobs and all(job[0] >= phi(T, 0.4) for job in jobs if job[5])
        want, allow = quad_extension(pk, g, -0.2)
        assert abs(res.value - want) <= res.error_bound + allow


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
        assert rep["min_ratio"] == rep["max_ratio"] == pytest.approx(
            want, rel=1e-14)
        assert rep["spread"] == 1.0

    @pytest.mark.parametrize("s", [0.25, 0.9])
    def test_far_samples_stay_finite(self, s):
        # |z - x|^(1+2s) leaves the floats near 1e110 at s = 0.9, but the
        # ratio tends to C (1 - x^2)^s as z grows, at r = 1
        pk = PoissonKernelBall(n=1, s=s, r=1.0)
        rep = check_poisson_bounds(pk, [0.3], [1e150])
        want = poisson_constant(s) * (1.0 - 0.3 ** 2) ** s
        assert rep["min_ratio"] == pytest.approx(want, rel=1e-14)

    def test_grid_ratios_finite_and_tame(self):
        xs = np.linspace(-0.49, 0.49, 50)
        zs = np.concatenate([np.linspace(-10.0, -2.0, 25),
                             np.linspace(2.0, 10.0, 25)])
        rep = check_poisson_bounds(UNIT, xs, zs)
        assert np.isfinite(rep["min_ratio"]) and rep["min_ratio"] > 0.0
        assert np.isfinite(rep["max_ratio"])
        assert rep["spread"] < 100.0
        assert rep["n_samples"] == 2500

    def test_ratios_invariant_under_rescaling(self):
        big = PoissonKernelBall(n=1, s=0.3, r=2.0)
        small = PoissonKernelBall(n=1, s=0.3, r=1.0)
        xs = np.linspace(-0.4, 0.4, 5)
        zs = np.array([2.5, 4.0, 9.0])
        a = check_poisson_bounds(small, xs, zs)
        b = check_poisson_bounds(big, 2.0 * xs, 2.0 * zs)
        assert a["min_ratio"] == pytest.approx(b["min_ratio"], rel=1e-12)
        assert a["max_ratio"] == pytest.approx(b["max_ratio"], rel=1e-12)

    def test_window_hypotheses_enforced(self):
        with pytest.raises(DomainViolation):
            check_poisson_bounds(UNIT, [0.5], [3.0])  # x on the window edge
        with pytest.raises(DomainViolation):
            check_poisson_bounds(UNIT, [0.0], [1.9])  # z inside the guard
        # the closed exterior window starts exactly at 2r
        rep = check_poisson_bounds(UNIT, [0.0], [2.0])
        assert rep["n_samples"] == 1


class TestArrayPoints:
    """poisson_extend on an array of points: one lock-step quadrature
    whose numbers are those of one call per point."""

    CENTERS = mesh_intervals([(-1.0, 1.0)], 32).centers

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("data", [
        piecewise_constant([(-3.0, -2.0, 0.4), (-2.0, -1.0, 1.5),
                            (1.0, 2.0, 2.0), (2.0, 3.0, 0.7)]),
        constant(1.0),
    ], ids=["compact", "constant"])
    def test_centers_equal_one_point_calls(self, s, data):
        pk = PoissonKernelBall(n=1, s=s, r=1.0)
        got = poisson_extend(pk, data, self.CENTERS)
        alone = [poisson_extend(pk, data, float(x)) for x in self.CENTERS]
        for field in ("value", "error_bound"):
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


def mp_extension(s, x, pieces):
    """P[g](x) on the unit ball by mpmath at 30 digits, from the kernel
    sin(pi s)/pi (1 - x^2)^s (z^2 - 1)^(-s) / |z - x| on finite pieces
    outside it.  A piece's z is sigma (a + w), a >= 1 the center distance
    of its end nearer the ball, so z^2 - 1 = (a - 1 + w)(a + 1 + w) carries
    no cancellation; w = u^p, p = 1/(1-s), absorbs the w^(-s) singularity
    at the ball, and u splits geometrically toward 0, where |z - x| is
    smallest."""
    with mpmath.workdps(30):
        s, x = mpmath.mpf(s), mpmath.mpf(x)
        p = 1 / (1 - s)
        total = 0
        for lo, hi, v in pieces:
            sigma, a, b = (1, lo, hi) if lo >= 1.0 else (-1, -hi, -lo)
            a, width = mpmath.mpf(a), mpmath.mpf(b) - mpmath.mpf(a)

            def kernel(u):
                w = u ** p
                return (p * u ** (p - 1) * ((a - 1 + w) * (a + 1 + w)) ** -s
                        / (a + w - sigma * x))

            total += v * mpmath.quad(kernel, [f * width ** (1 / p) for f in
                                              (0, 1e-6, 1e-4, 1e-2, 1)])
        return float(mpmath.sin(mpmath.pi * s) / mpmath.pi
                     * (1 - x * x) ** s * total)


class TestBelowOneHalf:
    """Below s = 1/2 the band runs in tau = t^((2-2s)/2), which keeps its
    integrand C^2 at the ball: values against mpmath, the step to s = 1/2,
    the panels it saves, and a pin of the s >= 1/2 path."""

    @pytest.mark.parametrize("s", [0.05, 0.25, 0.45])
    @pytest.mark.parametrize("data", ["pieces:-4,-1.5,2;1,3,1",
                                      "pieces:1,1.0000000001,1",
                                      "pieces:-1.0000000001,-1,1"],
                             ids=["two-sided", "thin-right", "thin-left"])
    def test_against_mpmath(self, s, data):
        g = parse_data(data)
        xs = np.array([0.0, 0.9, 0.999])
        got = poisson_extend(PoissonKernelBall(n=1, s=s, r=1.0), g, xs)
        for x, value, bound in zip(xs, got.value, got.error_bound):
            want = mp_extension(s, x, g.pieces)
            assert math.isfinite(want)
            assert abs(value - want) <= bound + 1e-15 * max(1.0, abs(want)), x

    @pytest.mark.parametrize("s", [0.01, 0.05, 0.25, 0.45, 0.5, 0.75, 0.9,
                                   0.99])
    @pytest.mark.parametrize("data", ["pieces:1,1.0000000001,1",
                                      "pieces:-1.0000000001,-1,1"],
                             ids=["thin-right", "thin-left"])
    def test_bound_holds_next_to_the_edge(self, s, data):
        # |z - x| and r^2 - |x - c|^2 cancel next to the sphere unless
        # they are formed from r - |x - c|; the bound must see no rounding
        g = parse_data(data)
        xs = np.array([-0.9999999, -0.999, -0.9, 0.9, 0.999, 0.9999999])
        got = poisson_extend(PoissonKernelBall(n=1, s=s, r=1.0), g, xs)
        for x, value, bound in zip(xs, got.value, got.error_bound):
            assert abs(value - mp_extension(s, x, g.pieces)) <= bound, x

    @pytest.mark.parametrize("x", [-0.999, -0.5, 0.0, 0.9, 0.999])
    def test_continuous_at_one_half(self, x):
        g = parse_data("pieces:-4,-1.5,2;1,3,1;3,inf,0.5")
        below, at = (poisson_extend(PoissonKernelBall(n=1, s=s, r=1.0), g, x)
                     for s in (0.5 - 1e-9, 0.5))
        assert abs(below.value - at.value) <= (below.error_bound
                                               + at.error_bound + 1e-6)

    def test_panels_at_a_quarter(self, panel_count):
        # with m = 1 at every s, s = 1/4 takes 5.9 times the panels of
        # s = 1/2 on these centers
        g = parse_data("pieces:-3,-1,1;1,2,0.5;2,5,0.25")
        centers = mesh_intervals([(-1.0, 1.0)], 128).centers
        counts = []
        for s in (0.25, 0.5):
            start = panel_count()
            poisson_extend(PoissonKernelBall(n=1, s=s, r=1.0), g, centers)
            counts.append(panel_count() - start)
        assert counts[0] <= 1.5 * counts[1]

    def test_path_above_one_half_is_pinned(self):
        res = poisson_extend(PoissonKernelBall(n=1, s=0.75, r=1.0),
                             parse_data("pieces:-4,-1.5,2;1,3,1"), 0.3)
        assert (res.value, res.error_bound) == (0.7239600688217906,
                                                1.1370659200209863e-13)

    def test_band_path_at_a_quarter_is_pinned(self):
        # m = 2: the band integrates in tau = t^(3/4)
        res = poisson_extend(PoissonKernelBall(n=1, s=0.25, r=1.0),
                             parse_data("pieces:-4,-1.5,2;1,3,1"), 0.3)
        assert (res.value, res.error_bound) == (0.5555654624448974,
                                                4.1040936468613006e-13)


class TestOneRound:
    """A band job starts from panels graded toward the sphere, where
    1/|z - x| peaks, so a one-point extension converges in the first
    round of its lock-step quadrature."""

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_one_point_calls_take_one_round(self, monkeypatch, s):
        rounds = []
        rule = quadrature.gk_panel

        def counted(f, a, b):
            rounds[-1] += 1
            return rule(f, a, b)

        monkeypatch.setattr(quadrature, "gk_panel", counted)
        # the four pieces next to the unit ball of the benchmark's data
        g = piecewise_constant([(-3.0, -2.0, 0.5), (-2.0, -1.0, 1.5),
                                (1.0, 2.0, 2.5), (2.0, 3.0, 1.0)])
        pk = PoissonKernelBall(n=1, s=s, r=1.0)
        for x in mesh_intervals([(-1.0, 1.0)], 128).centers:
            rounds.append(0)
            poisson_extend(pk, g, float(x))
        assert min(rounds) >= 1
        assert sum(n == 1 for n in rounds) >= 0.95 * len(rounds)
