import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

from nonlocal_lab import quadrature
from nonlocal_lab.errors import QuadratureFailure
from nonlocal_lab.quadrature import gk_panel, integrate


class TestPanels:
    def test_polynomial_exact(self):
        # K15 is exact through degree 22
        val, err = gk_panel(lambda x: x ** 2, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert err < 1e-14

    def test_fixed_ladder_matches_adaptive(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        edges = np.linspace(0, 5, 21)
        v1 = sum(gk_panel(f, lo, hi)[0]
                 for lo, hi in zip(edges[:-1], edges[1:]))
        v2, _ = integrate(f, 0, 5, tol=1e-12)
        assert v1 == pytest.approx(v2, abs=1e-10)


class TestAdaptive:
    def test_endpoint_singularity(self):
        val, err = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-10)
        assert val == pytest.approx(2.0, abs=5e-9)

    def test_kink_with_declared_break(self):
        f = lambda x: np.abs(x - 1.0 / 3.0)
        val, _ = integrate(f, 0.0, 1.0, tol=1e-12, breaks=[1.0 / 3.0])
        assert val == pytest.approx(5.0 / 18.0, rel=1e-12)

    def test_repeated_break_opens_no_empty_panel(self):
        f = lambda x: np.abs(x - 0.5)
        val, _ = integrate(f, 0.0, 1.0, tol=1e-12, breaks=[0.5, 0.5])
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_long_decaying_tail_with_geometric_seed(self):
        # integral of x^(-3/2) from 1 to 1e12
        val, _ = integrate(lambda x: x ** -1.5, 1.0, 1e12,
                           tol=1e-10, geometric_from=1.0)
        assert val == pytest.approx(2.0 * (1.0 - 1e-6), rel=1e-9)

    def test_panel_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
        with pytest.raises(QuadratureFailure):
            integrate(lambda x: 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0,
                      tol=1e-14)

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: np.cos(7.0 * x) * np.exp(x / 3.0), -2.0, 3.0),
        (lambda x: 1.0 / (1.0 + x ** 2), -10.0, 10.0),
        (lambda x: x ** 0.3 * np.log(x + 1e-300), 0.0, 2.0),
    ])
    def test_against_library_oracle(self, f, a, b):
        ours, _ = integrate(f, a, b, tol=1e-11)
        ref, _ = quad(f, a, b, limit=200)
        assert ours == pytest.approx(ref, abs=5e-9)

    def test_empty_interval_is_zero(self):
        assert integrate(lambda x: x, 1.0, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("shift", [2.98, 0.5, 10.0])
    def test_estimate_covers_rounding(self, shift):
        # a smooth integrand the rule resolves to the last bit: the damped
        # estimate alone (2.8e-17 at shift 2.98) undercuts the rounding
        # error of the sum (6.1e-16); the 50 eps floor of qk15 covers it
        val, err = integrate(lambda y: (y + shift) ** -1.5, 1.0, 3.0)
        exact = 2.0 * ((1.0 + shift) ** -0.5 - (3.0 + shift) ** -0.5)
        assert abs(val - exact) <= err
        assert err >= 50.0 * np.finfo(float).eps * exact


def smooth3(x):
    return np.stack([np.cos(7.0 * x) * np.exp(x / 3.0),
                     1.0 / (1.0 + x ** 2), x ** 3], axis=1)


def singular3(x):
    return np.stack([1.0 / np.sqrt(x), x ** 0.3 * np.log(x), np.exp(-x)],
                    axis=1)


class TestVectorValued:
    """Shared panels for integrands returning one column per component."""

    @pytest.mark.parametrize("f,a,b", [(smooth3, -2.0, 3.0),
                                       (singular3, 0.0, 1.0)],
                             ids=["smooth", "endpoint-singular"])
    def test_against_quad_vec(self, f, a, b):
        ours, err = integrate(f, a, b, tol=1e-11)
        assert ours.shape == (3,)
        ref, _ = quad_vec(lambda x: f(np.array([x]))[0], a, b,
                          epsabs=1e-12, epsrel=0.0, norm="max", limit=2000)
        np.testing.assert_allclose(ours, ref, rtol=0.0, atol=5e-9)
        assert err <= 1e-11

    @pytest.mark.parametrize("f,a,b", [(smooth3, -2.0, 3.0),
                                       (singular3, 0.0, 1.0)],
                             ids=["smooth", "endpoint-singular"])
    def test_components_match_scalar_integrate(self, f, a, b):
        tol = 1e-10
        ours, _ = integrate(f, a, b, tol=tol)
        for c in range(3):
            scalar, _ = integrate(lambda x: f(x)[:, c], a, b, tol=tol)
            assert abs(ours[c] - scalar) <= tol

    def test_panel_error_is_largest_component(self):
        val, err = gk_panel(smooth3, 0.0, 2.0)
        parts = [gk_panel(lambda x: smooth3(x)[:, c], 0.0, 2.0)
                 for c in range(3)]
        np.testing.assert_allclose(val, [v for v, _ in parts], rtol=1e-14)
        assert err == pytest.approx(max(e for _, e in parts), rel=1e-12)

    def test_rounding_floor_per_component(self):
        # a tiny component next to a large one keeps its own floor, and
        # the panel estimate is the largest of them
        def f(x):
            return np.stack([1e-6 * (x + 2.98) ** -1.5,
                             (x + 2.98) ** -1.5], axis=1)

        val, err = gk_panel(f, 1.0, 3.0)
        _, err_big = gk_panel(lambda x: f(x)[:, 1], 1.0, 3.0)
        assert err == err_big
        assert err >= 50.0 * np.finfo(float).eps * val[1]

    def test_empty_component_set(self):
        val, err = integrate(lambda x: np.empty((len(x), 0)), 0.0, 1.0)
        assert val.shape == (0,)
        assert err == 0.0
