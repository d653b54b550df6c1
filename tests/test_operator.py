from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from nonlocal_lab import quadrature
from nonlocal_lab.errors import (
    ConfigParseError,
    DomainViolation,
    QuadratureFailure,
    UnsupportedKernel,
)
from nonlocal_lab.geometry import make_disconnected_config
from nonlocal_lab.harnack import BARRIER_TOL
from nonlocal_lab.kernel import (
    Kernel,
    fractional_kernel,
    general_demo_kernel,
    make_kernel,
    ti_demo_kernel,
)
from nonlocal_lab.operator import (
    MAX_TRUNCATION,
    PointFunction,
    SmoothProfile,
    barrier_w1,
    barrier_w2,
    constant,
    eval_L,
    indicator,
    piecewise_constant,
    segment_tail,
)
from nonlocal_lab.poisson import PoissonKernelBall, poisson_extend
from nonlocal_lab.quadrature import DEFAULT_TOL

CONFIG = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)

# closed form for L(chi_(1,3))(-2) at s = 1/4:
# -2 * int_1^3 (y+2)^(-3/2) dy = 4 (5^(-1/2) - 3^(-1/2))
W1_SPOT_S025 = 4.0 * (5.0 ** -0.5 - 3.0 ** -0.5)

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
        # a bare callable is neither data, which are their pieces, nor a
        # smooth profile, which declares its bounds: neither can be built
        with pytest.raises(TypeError):
            PointFunction(lambda y: np.abs(y))
        with pytest.raises(TypeError, match="hess_bound"):
            SmoothProfile(lambda y: np.abs(y))

    def test_general_kernel_needs_locally_constant_u(self):
        with pytest.raises(UnsupportedKernel):
            eval_L(general_demo_kernel(0.75), barrier_w2(CONFIG), -2.0)

    def test_general_kernel_accepts_indicators(self):
        res = eval_L(general_demo_kernel(0.75), barrier_w1(CONFIG), -2.0)
        assert res.value < 0.0

    def test_far_field_failure_names_x_and_distances(self, monkeypatch):
        # where w1 = 1 the general kernel's far field oscillates without
        # end; its failure names the point and distances, not a p interval
        monkeypatch.setattr(quadrature, "MAX_PANELS", 200)
        with pytest.raises(QuadratureFailure,
                           match=r"far field at x = 2\.4, distances \(0\.3, inf\)"):
            eval_L(general_demo_kernel(0.6), barrier_w1(CONFIG), 2.4)

    def test_growth_incompatible_with_order(self):
        # C^2 but unbounded: no far-field remainder bounds its tail, and a
        # smooth profile without a sup_bound cannot be built
        with pytest.raises(TypeError, match="sup_bound"):
            SmoothProfile(lambda y: y, hess_bound=0.0)


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
        # a smooth profile is no datum: it has no segments
        assert not hasattr(barrier_w2(CONFIG), "segments")

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

    @pytest.mark.parametrize("pieces", [[(3.0, 1.0, 1.0)], [(1.0, 1.0, 1.0)],
                                        [(3.0, 1.0, 1.0), (1.0, 3.0, 1.0)],
                                        [(np.inf, np.inf, 1.0)]],
                             ids=["reversed", "empty", "mirrored", "inf"])
    def test_piece_needs_hi_above_lo(self, pieces):
        # as indicator requires: both routes would read it as empty
        with pytest.raises(DomainViolation, match="hi > lo"):
            piecewise_constant(pieces)

    @pytest.mark.parametrize("pieces,far_value,far_radius", [
        ([(np.nan, 2.0, 1.0)], 0.0, None), ([(1.0, 2.0, np.nan)], 0.0, None),
        ([], np.nan, 1.0), ([], 1.0, np.nan)],
        ids=["edge", "value", "far-value", "far-radius"])
    def test_nan_rejected(self, pieces, far_value, far_radius):
        with pytest.raises(DomainViolation, match="NaN"):
            piecewise_constant(pieces, far_value=far_value,
                               far_radius=far_radius)
        # infinite piece edges stay valid, and are breaks
        half_line = piecewise_constant([(3.0, np.inf, 2.0)])
        assert half_line.segments() == [(3.0, np.inf, 2.0)]
        assert half_line.breaks == (3.0, np.inf)

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
        assert u == pw
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


class TestDataArePieces:
    """A datum is its pieces and far part: its function, breaks, bound and
    segments derive from them, on every construction."""

    def test_fields_are_the_pieces(self):
        assert [f.name for f in fields(PointFunction)] == [
            "pieces", "far_value", "far_radius", "label"]

    def test_replaced_pieces_move_both_routes(self):
        # the function follows the replaced pieces: L and P of chi(1, 2)
        g = replace(indicator(1.0, 3.0), pieces=((1.0, 2.0, 1.0),))
        k, pk = fractional_kernel(1, 0.5), PoissonKernelBall(n=1, s=0.5, r=1.0)
        for route, op in ((eval_L, k), (poisson_extend, pk)):
            assert route(op, g, 0.0) == route(op, indicator(1.0, 2.0), 0.0)
        assert (g.breaks, g.sup_bound) == ((1.0, 2.0), 1.0)

    @pytest.mark.parametrize("g,ref", [
        (piecewise_constant([(1.0, 2.0, 1.0)], far_radius=5.0),
         indicator(1.0, 2.0)),
        (piecewise_constant([(1.0, 2.0, 1.0), (3.0, 4.0, 0.0)]),
         indicator(1.0, 2.0)),
        (piecewise_constant([], far_radius=5.0), constant(0.0)),
    ], ids=["zero-far-part", "zero-piece", "zero-far-only"])
    def test_zero_parts_are_no_breaks(self, g, ref):
        # a zero far part or a zero-valued piece is no jump of the datum:
        # both routes read it as the datum without it, bit for bit, also
        # on the edges of the zero parts, which a break would refuse
        assert (g.breaks, g.is_constant) == (ref.breaks, ref.is_constant)
        pk = PoissonKernelBall(n=1, s=0.5, r=1.0)
        for k in (fractional_kernel(1, 0.5), ti_demo_kernel(0.5)):
            for x in (-5.0, 0.0, 3.0, 3.5, 4.0, 5.0):
                assert eval_L(k, g, x) == eval_L(k, ref, x)
        for x in (0.0, 0.5):
            assert poisson_extend(pk, g, x) == poisson_extend(pk, ref, x)

    def test_a_function_beside_the_pieces_is_refused(self):
        with pytest.raises(TypeError):
            PointFunction(fn=np.zeros_like, pieces=((1.0, 3.0, 1.0),))

    def test_replace_checks_again(self):
        with pytest.raises(DomainViolation, match="hi > lo"):
            replace(indicator(1.0, 3.0), pieces=((3.0, 1.0, 1.0),))
        with pytest.raises(DomainViolation, match="far_value needs"):
            replace(indicator(1.0, 3.0), far_value=1.0)

    @pytest.mark.parametrize("pieces,far_radius", [
        ([(-1.0, 1e-16, 1.0), (0.0, 1.0, 2.0)], None),
        ([(0.0, 1e-13, 5.0)], 0.0), ([(-8.0 - 1e-14, -1.0, 1.0)], 8.0)],
        ids=["pieces", "far-radius-0", "far-radius-8"])
    def test_overlap_by_any_amount_is_refused(self, pieces, far_radius):
        # an overlap of 1e-16 or 1e-13 would be counted twice by the
        # segments' readers, and once by the function
        far = {} if far_radius is None else {"far_value": 1.0,
                                             "far_radius": far_radius}
        with pytest.raises(DomainViolation):
            piecewise_constant(pieces, **far)
        # touching stays allowed
        touching = piecewise_constant([(-8.0, -1.0, 1.0), (-1.0, 8.0, 2.0)],
                                      far_value=1.0, far_radius=8.0)
        assert touching.breaks == (-8.0, -1.0, 8.0)


@given(edges=st.lists(st.floats(-20.0, 20.0), max_size=10, unique=True),
       values=st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
       far=st.none() | st.tuples(st.floats(-5.0, 5.0),
                                 st.sampled_from([-1e-13, 0.0, 0.5, 3.0])))
def test_value_is_the_one_segment_containing_y(edges, values, far):
    """Off the breaks, u(y) is the value of the one segment of segments()
    that contains y, or 0 if none does; a far radius that cuts into a
    piece, by however little, is refused."""
    e = sorted(edges)
    pieces = [(a, b, v) for a, b, v in zip(e[::2], e[1::2], values)]
    far_part = {}
    if far is not None:
        reach = max(map(abs, e), default=0.0)
        far_part = {"far_value": far[0],
                    "far_radius": max(reach + far[1], 0.0)}
    try:
        u = piecewise_constant(pieces, **far_part)
    except DomainViolation:
        assert far is not None and far_part["far_radius"] < reach
        return
    # three points in every interval between neighbouring breaks
    ends = [-30.0, *u.breaks, 30.0]
    ys = [a + t * (b - a) for a, b in zip(ends, ends[1:]) if b > a
          for t in (0.25, 0.5, 0.75)]
    segs = u.segments()
    for y in ys:
        if y in u.breaks or abs(y) == u.far_radius:
            continue
        hits = [v for lo, hi, v in segs if lo < y < hi]
        assert len(hits) <= 1, y
        assert u(np.array([y]))[0] == (hits[0] if hits else 0.0), y


class TestBarriers:
    def test_w1_values(self):
        w1 = barrier_w1(CONFIG)
        assert w1(np.array([2.0]))[0] == 1.0
        assert w1(np.array([-2.0]))[0] == 0.0
        assert w1.breaks == (1.0, 3.0)

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
        env = k.lam
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
# radius rho = 1 on B_r(x1), so its far field sees u(x) alone
HALF = make_disconnected_config(n=1, x1=-1.0, x2=1.0, r=0.5, R=8.0)


def phi_test(t, s):
    """int_t^inf d^(-1-2s) dd, written out here for the oracles."""
    return t ** (-2.0 * s) / (2.0 * s)


def quad_ab(f, a, b):
    """scipy quad of f over (a, b), b may be inf: (value, its estimate)."""
    return quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=400)


def kernel_mass(kernel, d1, d2):
    """(int_d1^d2 K(d) dd, its allowance) for a radial kernel: phi in
    closed form for the fractional kernel; for the TI demo profile
    (3/2 - 1/(2 (1 + d^2))) d^(-1-2s), 3/2 of that minus scipy quad of
    the fast-decaying rest."""
    s = kernel.s
    closed = phi_test(d1, s) - (phi_test(d2, s) if np.isfinite(d2) else 0.0)
    if kernel.family == "fractional":
        return closed, 1e-15 * abs(closed)
    # the rest as two tails to infinity, which quad resolves at any d2
    (r1, e1), (r2, e2) = (quad_ab(lambda d: d ** (-1.0 - 2.0 * s)
                                  / (1.0 + d * d), d, np.inf)
                          if np.isfinite(d) else (0.0, 0.0) for d in (d1, d2))
    return 1.5 * closed - 0.5 * (r1 - r2), 0.5 * (e1 + e2) + 1e-15 * closed


def piecewise_oracle(kernel, u, x):
    """(L u(x), its allowance) for piecewise-constant u by a second route,
    2 [u(x) (M(x - a) + M(b - x)) - sum_S v_S M_S]: (a, b) is the interval
    of constancy around x, M the kernel mass beyond a distance and M_S that
    of each segment S outside (a, b).  A general kernel takes scipy quad of
    the pair kernel over finite segments, and needs u(x) = 0."""
    a = max((e for e in u.breaks if e < x), default=-np.inf)
    b = min((e for e in u.breaks if e > x), default=np.inf)
    ux = float(u(np.array([x]))[0])

    def mass(lo, hi):
        if kernel.family == "general":
            # the demo pair kernel (1 + sin(x + y)^2 / 2) |x - y|^(-1-2s) in
            # t = log |y - x|, which spreads a peak at a near end and never
            # forms y - x
            side = 1.0 if lo >= x else -1.0
            a, b = sorted(np.log([abs(lo - x), abs(hi - x)]))
            return quad_ab(lambda t: (1.0 + 0.5 * np.sin(
                2.0 * x + side * np.exp(t)) ** 2) * np.exp(-2.0 * kernel.s * t),
                a, b)
        return kernel_mass(kernel, *((lo - x, hi - x) if lo >= x
                                     else (x - hi, x - lo)))

    terms = [(-v, *mass(lo, hi)) for lo, hi, v in u.segments()
             if hi <= a or lo >= b]
    if ux != 0.0:
        terms += [(ux, *mass(-np.inf, a)), (ux, *mass(b, np.inf))]
    value = 2.0 * sum(c * m for c, m, _ in terms)
    allow = 2.0 * sum(abs(c) * e for c, _, e in terms)
    return value, allow + 1e-15 * max(1.0, abs(value))


def d2_of(u, x, ux, z):
    return 2.0 * ux - u(np.array([x + z]))[0] - u(np.array([x - z]))[0]


def w2_oracle(kernel, config, x):
    """(L w2(x), its allowance) by a second route, 2 int_0^inf D2(z) K(z) dz
    with D2(z) = 2 w2(x) - w2(x + z) - w2(x - z), by scipy quad between
    the distances from x to w2's breaks.  Below the first of them w2 is one
    quintic around x and D2 its exact Taylor polynomial
    -w2''(x) z^2 - w2''''(x) z^4 / 12, free of cancellation; beyond the
    last only 2 w2(x) is left, against the kernel mass."""
    w2 = barrier_w2(config)
    x1, r = float(config.x1[0]), config.r
    ux = float(w2(np.array([x]))[0])
    t = 2.0 * abs(x - x1) / r - 1.0
    # q(t) = 1 - (6t^5 - 15t^4 + 10t^3) with dt/dy = +-2/r, on 0 < t < 1
    q2, q4 = ((-(120 * t ** 3 - 180 * t ** 2 + 60 * t), -(720 * t - 360))
              if 0.0 < t < 1.0 else (0.0, 0.0))
    u2, u4 = q2 * (2.0 / r) ** 2, q4 * (2.0 / r) ** 4
    K = kernel.eval_at_distance
    zs = sorted({abs(e - x) for e in w2.breaks})

    def taylor(z):
        return -(u2 * z * z + u4 * z ** 4 / 12.0) * float(K(z))

    def direct(z):
        return float(d2_of(w2, x, ux, z) * K(z))

    parts = [quad_ab(taylor, 0.0, zs[0])]
    parts += [quad_ab(direct, lo, hi) for lo, hi in zip(zs, zs[1:])]
    tail, tail_allow = kernel_mass(kernel, zs[-1], np.inf)
    value = 2.0 * (sum(v for v, _ in parts) + 2.0 * ux * tail)
    allow = 2.0 * (sum(e for _, e in parts) + 2.0 * abs(ux) * tail_allow)
    return value, allow + 1e-15 * max(1.0, abs(value))


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


def mp_w1_L(kernel, x):
    """L w1(x) = -2 int_1^3 k(x, y) dy for x < 1 under the TI or general
    demo kernel, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        s, x = mpmath.mpf(kernel.s), mpmath.mpf(x)

        def factor(y):
            if kernel.family == "general":
                return 1 + mpmath.sin(x + y) ** 2 / 2
            return 1 + (y - x) ** 2 / (2 * (1 + (y - x) ** 2))

        return -2 * mpmath.quad(lambda y: factor(y) * (y - x) ** (-1 - 2 * s),
                                [1, 2, 3])


class TestSmallOrderBounds:
    """The quadrature route's bound on piecewise data stays honest and
    small down to s = 0.001: w1 vanishes past the distance cap on both
    sides, and the rounding of each break's position phi(|b - x|) in p,
    of order 100 at these orders, is charged."""

    @pytest.mark.parametrize("kernel", [ti_demo_kernel, general_demo_kernel],
                             ids=["ti", "general"])
    @pytest.mark.parametrize("s", [0.001, 0.003, 0.01, 0.03, 0.1, 0.5, 0.9])
    def test_w1_against_mpmath(self, kernel, s):
        k, xs = kernel(s), ball1_grid(11)[1:-1]
        res = eval_L(k, barrier_w1(CONFIG), xs, tol=1e-8)
        for x, value, bound in zip(xs, res.value, res.error_bound):
            assert abs(mpmath.mpf(value) - mp_w1_L(k, x)) <= bound, x
            assert bound <= 1e-7, x


ROUTE_KERNELS = {
    "frac0.3": fractional_kernel(1, 0.3),
    "frac0.8": fractional_kernel(1, 0.8),
    "ti0.4": ti_demo_kernel(0.4),
    "general0.6": general_demo_kernel(0.6),
}
LOCAL = ("frac0.3", "frac0.8", "ti0.4")
ORACLE_S = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95)
ROUTE_KERNELS.update({f"{fam}{s:g}": make_kernel(fam, 1, s)
                      for fam in ("frac", "ti") for s in ORACLE_S})
# far data and half-line pieces, read at x = -2 and 1.5 inside and at
# x = 20 and -30 on the far parts
ROUTE_DATA = {
    "far1,16": piecewise_constant([], far_value=1.0, far_radius=16.0),
    "halflines": piecewise_constant([(-np.inf, -3.0, 0.5), (1.0, 2.0, -1.0),
                                     (4.0, np.inf, 2.0)]),
    "pieces+far": piecewise_constant([(1.0, 2.0, 3.0)], far_value=-1.0,
                                     far_radius=5.0),
    # a break past every float-safe distance cap: the quadrature route
    # charges the clip
    "beyondcap": piecewise_constant([(1.0, 1e200, 1.0)]),
}
# w1 vanishes at the first five points and is 1 at 1.4 and 2.4 (the
# general kernel runs only where u(x) = 0, and w2 is not locally constant)
ROUTE_CASES = (
    [(k, "w1", CONFIG, x) for k in (*LOCAL, "general0.6")
     for x in (-2.6, -2.0, -1.2, 0.5, 6.0)]
    + [(k, "w1", CONFIG, x) for k in LOCAL for x in (1.4, 2.4)]
    # within 1e-10 of a break, where y = x +- d rounds onto it, and the
    # pair kernel 1e-6 from one
    + [(k, "w1", CONFIG, x) for k in ("frac0.5", "frac0.95")
       for x in (1.0 - 1e-10, 3.0 + 1e-10)]
    + [("general0.6", "w1", CONFIG, 1.0 - 1e-6)]
    + [(k, "w2", cfg, x) for k in LOCAL
       for cfg, x in [(CONFIG, -2.3), (CONFIG, -1.2), (CONFIG, 0.5),
                      (CONFIG, 3.5), (HALF, -1.2), (HALF, -0.9),
                      (HALF, -0.3), (HALF, 0.2)]]
    + [(f"{fam}{s:g}", d, None, x) for fam in ("frac", "ti") for s in ORACLE_S
       for d in ROUTE_DATA for x in (-2.0, 1.5, 20.0, -30.0)]
)


def route_id(k, b, c, x):
    return f"{b}-{k}-r{c.r:g}-x{x:g}" if c else f"{b}-{k}-x{x:g}"


class TestCompactRoute:
    """eval_L against a second route: closed forms for the fractional
    kernel, scipy quad otherwise.  The far field no longer splits into a
    reach-ended and a truncated route; the test names are kept."""

    @pytest.mark.parametrize("kname,barrier,config,x", ROUTE_CASES,
                             ids=[route_id(*case) for case in ROUTE_CASES])
    def test_eval_L_agrees_with_truncated_route(self, kname, barrier,
                                                config, x):
        kernel = ROUTE_KERNELS[kname]
        if barrier == "w2":
            res = eval_L(kernel, barrier_w2(config), x)
            want, allow = w2_oracle(kernel, config, x)
        else:
            u = barrier_w1(config) if barrier == "w1" else ROUTE_DATA[barrier]
            res = eval_L(kernel, u, x)
            want, allow = piecewise_oracle(kernel, u, x)
            if kernel.family == "fractional" and barrier != "beyondcap":
                # the closed form's bound is rounding alone
                assert res.error_bound <= max(1e-6, 1e-12 * abs(want))
        assert abs(res.value - want) <= res.error_bound + allow

    def test_reach_below_the_near_field_radius(self):
        # w2 vanishes past |x - x1| + r = 0.6 < rho = 1: the far field is
        # u(x) times the kernel mass beyond rho, a constant p-integrand
        k = fractional_kernel(1, 0.5)
        res = eval_L(k, barrier_w2(HALF), -1.1)
        want, allow = w2_oracle(k, HALF, -1.1)
        assert abs(res.value - want) <= res.error_bound + allow

    @pytest.mark.parametrize("s", [0.01, 0.05, 0.2, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("x0", [-4.0, -2.0, 0.0, 2.5, 7.0])
    def test_tail_agrees_with_truncated_route(self, s, x0):
        # the closed-form tail against eval_L's far field to infinity
        segs = [(-3.0, -1.0, 2.0), (1.5, 4.0, 0.5)]
        exact = segment_tail(segs, x0, 1.0, s)
        res = eval_L(fractional_kernel(1, s), tail_datum(segs, x0, 1.0), x0)
        assert abs(-0.5 * res.value - exact) <= 0.5 * res.error_bound


def tail_datum(segs, x0, r):
    """The nonnegative segments with B_r(x0) cut out, as a datum w with
    w = 0 near x0: for the plain fractional kernel, L w(x0) =
    -2 r^(-2s) Tail(w; x0, r), so eval_L is a second route to the tail."""
    return piecewise_constant(
        [(lo, hi, v) for a, b, v in segs
         for lo, hi in ((a, min(b, x0 - r)), (max(a, x0 + r), b)) if hi > lo])


def recording(monkeypatch, u, seen):
    """u, whose type's __call__ now appends every evaluation point to
    seen."""
    call = type(u).__call__

    def spy(self, y):
        seen.append(np.array(y, dtype=float, copy=True).ravel())
        return call(self, y)

    monkeypatch.setattr(type(u), "__call__", spy)
    return u


def farthest(seen, center):
    return float(np.max(np.abs(np.concatenate(seen) - center)))


def assert_read_past_the_reach(seen, x, reach):
    """The far field read u past its reach, and never beyond the
    float-safe distance cap MAX_TRUNCATION."""
    assert reach < farthest(seen, x) <= MAX_TRUNCATION * (1.0 + 1e-12)


class TestCompactWork:
    """Far fields run to infinity: under the TI and general kernels u is
    read past its reach and no node goes past the distance cap; under the
    fractional kernel L of piecewise data is a closed form, which runs no
    quadrature.  The value meets the second route."""

    @pytest.mark.parametrize("kernel", [
        fractional_kernel(1, 0.25),
        ti_demo_kernel(0.5),
        general_demo_kernel(0.75),
    ], ids=["frac", "ti", "general"])
    @pytest.mark.parametrize("x", [-2.5, -1.5])
    def test_eval_L_w1(self, monkeypatch, panel_count, kernel, x):
        seen = []
        w1 = barrier_w1(CONFIG)
        res = eval_L(kernel, recording(monkeypatch, w1, seen), x)
        if kernel.family == "fractional":
            assert panel_count() == 0
        else:
            assert_read_past_the_reach(seen, x, 3.0 - x)
        want, allow = piecewise_oracle(kernel, w1, x)
        assert abs(res.value - want) <= res.error_bound + allow

    @pytest.mark.parametrize("x", [-2.9, -2.3, -1.6])
    def test_eval_L_w2_fractional(self, monkeypatch, x):
        seen = []
        k = fractional_kernel(1, 0.75)
        res = eval_L(k, recording(monkeypatch, barrier_w2(CONFIG), seen), x)
        assert_read_past_the_reach(seen, x, abs(x + 2.0) + 1.0)
        want, allow = w2_oracle(k, CONFIG, x)
        assert abs(res.value - want) <= res.error_bound + allow

    @pytest.mark.parametrize("x0", [-5.0, 0.0, 2.0])
    def test_tail(self, panel_count, x0):
        # eval_L's route to the tail of data on (-1, 3)
        w = tail_datum([(-1.0, 3.0, 1.0)], x0, 0.5)
        res = eval_L(fractional_kernel(1, 0.4), w, x0)
        assert panel_count() == 0
        # the closed form's bound is rounding alone, halved like the value
        # on the way to the tail
        assert 0.5 * res.error_bound < 1e-9
        exact = segment_tail(w.segments(), x0, 0.5, 0.4)
        assert abs(-0.5 * 0.5 ** 0.8 * res.value - exact) \
            <= 0.5 * 0.5 ** 0.8 * res.error_bound


def unit_profile_kernel(s):
    """The fractional kernel entered as a TI kernel of profile 1: eval_L
    takes its quadrature route for piecewise data."""
    return Kernel(s, profile=lambda d: np.ones_like(d))


def mp_piecewise_L(s, u, x):
    """L u(x) for the fractional kernel by mpmath at 30 digits, segment by
    segment: 2 [u(x) M_out - sum_S v_S M_S], M_out the kernel mass outside
    the interval of constancy (a, b) around x and M_S that of each nonzero
    segment S outside it."""
    a = max((e for e in u.breaks if e < x), default=-np.inf)
    b = min((e for e in u.breaks if e > x), default=np.inf)
    ux = float(u(np.array([x]))[0])
    with mpmath.workdps(30):
        s, xm = mpmath.mpf(s), mpmath.mpf(x)

        def phi_mp(d):
            return 0 if mpmath.isinf(d) else d ** (-2 * s) / (2 * s)

        def mass(lo, hi):
            near, far = sorted(abs(mpmath.mpf(e) - xm) for e in (lo, hi))
            return phi_mp(near) - phi_mp(far)

        total = ux * (mass(-np.inf, a) + mass(b, np.inf))
        total -= sum((v * mass(lo, hi) for lo, hi, v in u.segments()
                      if v != 0.0 and (hi <= a or lo >= b)), 0)
        return 2 * total


CLOSED_S = (0.01, 0.25, 0.5, 0.75, 0.99)
CLOSED_DATA = {
    "far": piecewise_constant([(1.0, 2.0, 3.0)], far_value=-1.0,
                              far_radius=5.0),
    "touching": piecewise_constant([(-2.0, -1.0, 1.0), (-1.0, 0.5, -2.0),
                                    (0.5, 3.0, 0.5)]),
    "thin": piecewise_constant([(-3.0 - 1e-10, -3.0, -2.0),
                                (1.0, 1.0 + 1e-10, 1.0)]),
}


def closed_points(u):
    """Points inside, between and past the pieces, and within 1e-8 of the
    outermost breaks."""
    return np.array([-30.0, -2.5, 0.0, 2.5, 7.0,
                     u.breaks[0] - 1e-8, u.breaks[-1] + 1e-8])


class TestClosedFormL:
    """L of piecewise data under the fractional kernel is the closed form
    over the regions between breaks: against the quadrature route of the
    same kernel, an mpmath oracle, and with no distance cap."""

    @pytest.mark.parametrize("data", sorted(CLOSED_DATA))
    @pytest.mark.parametrize("s", CLOSED_S)
    def test_against_the_quadrature_route(self, s, data):
        u = CLOSED_DATA[data]
        xs = closed_points(u)
        closed = eval_L(fractional_kernel(1, s), u, xs)
        quad_route = eval_L(unit_profile_kernel(s), u, xs)
        assert np.all(np.abs(closed.value - quad_route.value)
                      <= closed.error_bound + quad_route.error_bound)

    @pytest.mark.parametrize("data", sorted(CLOSED_DATA))
    @pytest.mark.parametrize("s", CLOSED_S)
    def test_against_mpmath_within_its_own_bound(self, s, data):
        u = CLOSED_DATA[data]
        xs = closed_points(u)
        got = eval_L(fractional_kernel(1, s), u, xs)
        for x, value, bound in zip(xs, got.value, got.error_bound):
            want = mp_piecewise_L(s, u, float(x))
            assert value != 0.0 and bound > 0.0
            assert abs(mpmath.mpf(value) - want) <= bound, x
        assert_points_alone(fractional_kernel(1, s), u, xs)

    def test_far_part_past_every_distance_cap(self):
        # both far halves start at 1e200: L u(0) = 2 (0 - 1) 2 phi(1e200)
        res = eval_L(fractional_kernel(1, 0.001),
                     piecewise_constant([], far_value=1.0, far_radius=1e200),
                     0.0)
        with mpmath.workdps(30):
            s = mpmath.mpf(0.001)
            exact = -4 * mpmath.mpf(1e200) ** (-2 * s) / (2 * s)
        assert res.value == -796.2143411069945
        assert abs(mpmath.mpf(res.value) - exact) <= res.error_bound < 1e-9

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.9])
    def test_no_quadrature(self, panel_count, s):
        eval_L(fractional_kernel(1, s), barrier_w1(CONFIG), ball1_grid())
        assert panel_count() == 0

    def test_distance_past_the_floats_is_refused(self):
        u = piecewise_constant([(-1e308, 0.0, 1.0)])
        with pytest.raises(DomainViolation, match="too far out"):
            eval_L(fractional_kernel(1, 0.5), u, 1e308)


FIELDS = ("value", "error_bound")


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
        # TI kernel where w1 = 1: every point charges the distance clip
        assert_points_alone(ti_demo_kernel(0.4), barrier_w1(CONFIG),
                            np.linspace(1.2, 2.8, 9))

    def test_scalar_point_gives_floats(self):
        res = eval_L(fractional_kernel(1, 0.5), barrier_w2(CONFIG), -2.3)
        assert all(isinstance(getattr(res, f), float) for f in FIELDS)

    def test_constant_function_on_a_grid(self):
        res = eval_L(fractional_kernel(1, 0.5), constant(7.0), ball1_grid(5))
        assert np.array_equal(res.value, np.zeros(5))
        assert np.array_equal(res.error_bound, np.zeros(5))

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

    @pytest.mark.parametrize("route,op,u", [
        (eval_L, fractional_kernel(1, 0.5), barrier_w2(CONFIG)),
        (eval_L, ti_demo_kernel(0.5), barrier_w1(CONFIG)),
        (poisson_extend, PoissonKernelBall(n=1, s=0.5, r=1.0),
         indicator(1.0, 3.0))], ids=["eval_L-w2", "eval_L-w1", "poisson"])
    def test_fields_take_the_shape_of_x(self, route, op, u):
        xs = np.array([[-0.5, -0.2], [0.3, 0.6]])
        if route is eval_L:
            xs = xs - 2.0  # inside B_1(x1)
        got, flat = route(op, u, xs), route(op, u, xs.ravel())
        for field in FIELDS:
            assert getattr(got, field).shape == (2, 2)
            assert np.array_equal(getattr(got, field).ravel(),
                                  getattr(flat, field))


def w2_mpmath(s, x, config=CONFIG, ti=False):
    """L w2(x) by mpmath at 30 digits under the fractional kernel, or with
    ti under the TI demo kernel (factor f(z) = 1 + z^2 / (2 (1 + z^2))):
    2 int_0^inf D2(z) f(z) z^(-1-2s) dz split at the distances from x to
    w2's joins.  Below the first of them D2 is the exact Taylor polynomial
    -w2''(x) z^2 - w2''''(x) z^4 / 12 of w2's quintic around x (zero where
    w2 is constant there); beyond the last only 2 w2(x) is left.  The
    power law against that polynomial and against the tail is integrated
    in closed form, and quad takes f - 1 alone there: quad of z^(1-2s)
    from 0 goes wrong as s -> 1 (the fractional value at s = 0.97,
    x = -2.55 comes out 538.3 for 534.1253)."""
    with mpmath.workdps(30):
        s, x = mpmath.mpf(s), mpmath.mpf(x)
        x1, r = mpmath.mpf(float(config.x1[0])), mpmath.mpf(config.r)

        def w2(y):
            t = min(max(2 * abs(y - x1) / r - 1, 0), 1)
            return 1 - t ** 3 * (10 - 15 * t + 6 * t * t)

        def f1(z):  # f - 1
            return z * z / (2 * (1 + z * z)) if ti else 0

        t = 2 * abs(x - x1) / r - 1
        u2, u4 = ((-(120 * t ** 3 - 180 * t ** 2 + 60 * t) * (2 / r) ** 2,
                   -(720 * t - 360) * (2 / r) ** 4) if 0 < t < 1 else (0, 0))
        zs = sorted(abs(e - x) for e in (x1 - r, x1 - r / 2, x1 + r / 2,
                                         x1 + r))
        near = -(u2 * zs[0] ** (2 - 2 * s) / (2 - 2 * s)
                 + u4 * zs[0] ** (4 - 2 * s) / (12 * (4 - 2 * s)))
        mass = zs[-1] ** (-2 * s) / (2 * s)  # int_zs[-1]^inf f z^(-1-2s)
        if ti:
            near += mpmath.quad(lambda z: -(u2 * z ** 2 + u4 * z ** 4 / 12)
                                * f1(z) * z ** (-1 - 2 * s), [0, zs[0]])
            mass += mpmath.quad(lambda z: f1(z) * z ** (-1 - 2 * s),
                                [zs[-1], mpmath.inf])
        mid = mpmath.quad(lambda z: (2 * w2(x) - w2(x + z) - w2(x - z))
                          * (1 + f1(z)) * z ** (-1 - 2 * s), zs)
        return float(2 * (near + mid + 2 * w2(x) * mass))


class TestNearFieldBelowOneHalf:
    """Below s = 1/2 the near field's tail job runs in tau = z^((2-2s)/2),
    which keeps its integrand C^2 at tau = 0; z_lo, the Richardson model
    and the noise budget stay as they are in z."""

    # at least r/8 from the joins x1 +- r/2 and x1 +- r: on the plateau,
    # on the ramps and outside B_r(x1)
    POINTS = np.array([-2.75, -2.3, -2.0, -1.3, -0.6])

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_w2_against_mpmath(self, s):
        got = eval_L(fractional_kernel(1, s), barrier_w2(CONFIG), self.POINTS)
        for x, value, bound in zip(self.POINTS, got.value, got.error_bound):
            want = w2_mpmath(s, x)
            assert abs(value - want) <= bound + 1e-15 * max(1.0, abs(want)), x

    def test_continuous_at_one_half(self):
        below, at = (eval_L(fractional_kernel(1, s), barrier_w2(CONFIG),
                            self.POINTS) for s in (0.5 - 1e-9, 0.5))
        assert np.all(np.abs(below.value - at.value)
                      <= below.error_bound + at.error_bound + 1e-6)

    def test_panels_at_a_quarter(self, panel_count):
        # with m = 1 at every s, s = 1/4 takes 1.9 times the panels of
        # s = 1/2 on the barrier grid
        counts = []
        for s in (0.25, 0.5):
            start = panel_count()
            eval_L(fractional_kernel(1, s), barrier_w2(CONFIG), ball1_grid())
            counts.append(panel_count() - start)
        assert counts[0] <= 1.5 * counts[1]

    def test_path_above_one_half_is_pinned(self):
        res = eval_L(fractional_kernel(1, 0.9), barrier_w2(CONFIG), -2.3)
        assert (res.value, res.error_bound) == (6.336009721069164,
                                                1.804236215496207e-08)


class TestTranslationInvariantNearOne:
    """L w2 under the TI kernel up to s = 0.99 against the mpmath oracle:
    its model mass is the power law's closed form times the factor's mean,
    where z^2 K(z) integrated from 0 overflows from s = 0.97 on."""

    @pytest.mark.parametrize("s", [0.5, 0.9, 0.97, 0.99])
    def test_ti_w2_against_mpmath(self, s):
        xs = np.array([-2.55, -2.3, -2.0])
        got = eval_L(ti_demo_kernel(s), barrier_w2(CONFIG), xs)
        for x, value, bound in zip(xs, got.value, got.error_bound):
            want = w2_mpmath(s, x, ti=True)
            assert abs(value - want) <= bound + 1e-15 * max(1.0, abs(want)), x


class TestPointSetUp:
    """eval_L checks every point before it evaluates u on all points'
    Richardson stencils at once; the numbers are those of the per-point
    set-up, bit for bit."""

    W2_PINS = {
        ("frac", 0.25): [(12.205419338012941, 1.770192106244106e-08),
                         (9.294140303409483, 3.1748175703960564e-11),
                         (12.205419338012945, 1.770193705090607e-08)],
        ("frac", 0.9): [(28.247556834308654, 0.009024689541855329),
                        (3.887918420054865, 1.8000005502185603e-07),
                        (28.247556826258045, 0.009024691892523869)],
        ("ti", 0.5): [(13.613472060894509, 1.6094396043545284e-08),
                      (7.281348710343339, 3.097372906546957e-08),
                      (13.61347206092923, 1.6059673856929877e-08)],
    }

    @pytest.mark.parametrize("family, s", list(W2_PINS))
    def test_w2_is_pinned(self, family, s):
        res = eval_L(make_kernel(family, 1, s), barrier_w2(CONFIG),
                     np.array([-2.5, -2.0, -1.5]), tol=BARRIER_TOL)
        assert list(zip(res.value.tolist(), res.error_bound.tolist())) \
            == self.W2_PINS[family, s]

    @pytest.mark.parametrize("x_bad", [1e17, 1e300, 1.7e308])
    def test_bad_point_among_good_raises_as_alone(self, x_bad):
        # u is read at no stencil before every point is checked; under the
        # suite's error::RuntimeWarning an overflow there fails the test
        k = fractional_kernel(1, 0.5)
        w2 = barrier_w2(CONFIG)
        with pytest.raises(DomainViolation) as want:
            eval_L(k, w2, x_bad)
        with pytest.raises(DomainViolation) as got:
            eval_L(k, w2, np.array([-2.5, x_bad, -1.5]))
        assert str(got.value) == str(want.value)

    def test_stencils_evaluate_u_once_for_all_points(self):
        w2 = barrier_w2(CONFIG)
        calls = [0]

        def counted(y):
            calls[0] += 1
            return w2.fn(y)

        eval_L(fractional_kernel(1, 0.5), replace(w2, fn=counted),
               ball1_grid(), tol=BARRIER_TOL)
        # u(x), two calls per stencil, then two per near-field round and one
        # per far-field round: 16 here, against 4 per point for the stencils
        # of a per-point set-up
        assert calls[0] < 30
