import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonlocal_lab.errors import (
    ConfigParseError,
    DiagonalEvaluation,
    UnsupportedDimension,
)
from nonlocal_lab.kernel import (
    Kernel,
    fractional_kernel,
    general_demo_kernel,
    make_kernel,
    ti_demo_kernel,
)


def random_pairs(rng, m=1000, span=5.0):
    x = rng.uniform(-span, span, size=m)
    y = rng.uniform(-span, span, size=m)
    keep = x != y
    return x[keep], y[keep]


def k_at(kernel, x, y):
    """k(x, y) at one pair of points through the vectorized path."""
    return float(kernel.eval_pairs(np.array([x]), np.array([y]))[0])


def ellipticity_ratios(kernel, rng, m):
    """k(x,y) |x-y|^(1+2s) over random pairs."""
    x, y = random_pairs(rng, m)
    return kernel.eval_pairs(x, y) * np.abs(x - y) ** kernel.power


class TestEval:
    def test_fractional_plain_value(self):
        k = fractional_kernel(n=1, s=0.5)
        assert k_at(k, 0.0, 2.0) == pytest.approx(0.25, abs=0.0)

    @pytest.mark.parametrize("maker", [
        lambda: fractional_kernel(1, 0.4),
        lambda: ti_demo_kernel(0.6),
        lambda: general_demo_kernel(0.3),
    ])
    def test_symmetry_on_random_pairs(self, maker):
        k = maker()
        x, y = random_pairs(np.random.default_rng(1))
        np.testing.assert_allclose(k.eval_pairs(x, y), k.eval_pairs(y, x),
                                   rtol=1e-14, atol=0.0)

    def test_diagonal_rejected(self):
        k = fractional_kernel(1, 0.5)
        with pytest.raises(DiagonalEvaluation):
            k_at(k, 1.0, 1.0)
        with pytest.raises(DiagonalEvaluation):
            k.eval_pairs(np.array([0.0, 1.0]), np.array([2.0, 1.0]))

    def test_repeat_evaluation_is_pure(self):
        k = general_demo_kernel(0.5)
        v1 = k_at(k, 0.3, 1.7)
        v2 = k_at(k, 0.3, 1.7)
        assert v1 == v2


@given(
    s=st.floats(0.05, 0.95),
    x=st.floats(-10, 10),
    d=st.floats(0.01, 100),
)
def test_fractional_ratio_is_exactly_one(s, x, d):
    k = fractional_kernel(n=1, s=s)
    ratio = k_at(k, x, x + d) * d ** (1.0 + 2.0 * s)
    assert ratio == pytest.approx(1.0, rel=1e-12)


class TestEllipticity:
    def test_fractional_ratios_are_one(self):
        k = fractional_kernel(1, 0.5)
        ratios = ellipticity_ratios(k, np.random.default_rng(2), 200)
        assert ratios.min() == pytest.approx(1.0, rel=1e-12)
        assert ratios.max() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("maker", [
        lambda: fractional_kernel(1, 0.25),
        lambda: ti_demo_kernel(0.5),
        lambda: general_demo_kernel(0.75),
        lambda: ti_demo_kernel(0.9),
    ])
    def test_builtin_families_pass_declared_lambda(self, maker):
        k = maker()
        ratios = ellipticity_ratios(k, np.random.default_rng(5), 500)
        assert ratios.min() >= 1.0 / k.lam - 1e-12
        assert ratios.max() <= k.lam + 1e-12

    @pytest.mark.parametrize("family", ["frac", "ti", "general"])
    def test_values_are_the_factor_times_the_power_law(self, family):
        # the power law lives in the Kernel alone: eval_* is
        # f * d^(-1-2s) bit for bit, f the callable's factor, and
        # factor() = f stays in [1/lam, lam] at every separation, without
        # a warning
        k = make_kernel(family, 1, 0.75)
        d = np.logspace(-300, 300, 6001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for y in (d, -d):
                f = k.factor(0.0, y)
                assert np.all((1.0 / k.lam <= f) & (f <= k.lam))
        d = d[(d > 1e-100) & (d < 1e100)]  # d^(-1-2s) overflows below
        x = np.zeros_like(d)
        bare = (k.pair_fn(x, d) if family == "general"
                else k.profile(d) if family == "ti" else 1.0)
        assert np.array_equal(k.factor(x, d), np.broadcast_to(bare, d.shape))
        assert np.array_equal(k.eval_pairs(x, d), bare * d ** -k.power)
        if family != "general":
            assert np.array_equal(k.eval_at_distance(d),
                                  bare * d ** -k.power)

    def test_ti_profile_past_the_squares_overflow(self):
        # d * d overflows past 1.3e154, where the profile's factor is 1.5
        d = np.array([1e155, 1e200, 1e300])
        assert np.array_equal(ti_demo_kernel(0.25).eval_at_distance(d),
                              1.5 * d ** -1.5)


class TestConstruction:
    def test_bad_order_rejected(self):
        with pytest.raises(ConfigParseError):
            fractional_kernel(1, 1.0)

    def test_lambda_below_one_rejected(self):
        with pytest.raises(ConfigParseError):
            Kernel(s=0.5, lam=0.5)

    def test_ti_needs_profile(self):
        # the family follows from the callable a kernel carries
        def unit(d):
            return np.ones_like(d)

        assert Kernel(s=0.5).family == "fractional"
        assert Kernel(s=0.5, profile=unit).family == "translation-invariant"
        assert Kernel(s=0.5, pair_fn=lambda x, y: unit(abs(x - y))).family \
            == "general"
        with pytest.raises(ConfigParseError):
            Kernel(s=0.5, profile=unit, pair_fn=lambda x, y: 1.0)

    @pytest.mark.parametrize("family", ["frac", "ti", "general"])
    def test_kernels_live_on_the_line(self, family):
        with pytest.raises(UnsupportedDimension):
            make_kernel(family, 2, 0.5)
        with pytest.raises(UnsupportedDimension):
            fractional_kernel(2, 0.5)

    def test_fields_are_what_a_kernel_carries(self):
        assert [f.name for f in fields(Kernel)] == [
            "s", "lam", "profile", "pair_fn"]
        assert [make_kernel(f, 1, 0.5).tag()
                for f in ("frac", "ti", "general")] \
            == ["fractional(s=0.5,lam=1)",
                "translation-invariant(s=0.5,lam=1.5)",
                "general(s=0.5,lam=1.5)"]

    def test_factory_matches_flag_names(self):
        assert make_kernel("frac", 1, 0.5).family == "fractional"
        assert make_kernel("ti", 1, 0.5).family == "translation-invariant"
        assert make_kernel("general", 1, 0.5).family == "general"
        with pytest.raises(ConfigParseError):
            make_kernel("zeta", 1, 0.5)

    def test_scale_multiplies_values(self):
        # scale stays 1 and no kernel carries another constant factor:
        # a value is its factor times the power law, on pair kernels too
        for family in ("frac", "ti", "general"):
            k = make_kernel(family, 1, 0.25)
            assert k.scale == 1.0
            assert k_at(k, 0.3, 2.0) == pytest.approx(
                float(k.factor(0.3, 2.0)) * 1.7 ** -1.5, rel=1e-15)
