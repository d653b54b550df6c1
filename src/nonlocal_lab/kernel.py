"""Symmetric jump kernels on the line with two-sided ellipticity.

A kernel is a bounded factor times the power law |x - y|^(-1-2s), and is
fixed by the factor it carries.  With no callable the factor is 1, the
pure power kernel ("fractional"); a radial profile f(|z|) makes it
translation-invariant; a pair callable f(x, y) makes it general.  There
is no (1 - s) normalization: every constant the lab reports is a ratio of
solution values or of values of L, so that factor would cancel, and the
normalized operator is (1 - s) times the plain one.

Ellipticity means the factor lies in [1/lam, lam].  Only eval_at_distance
and eval_pairs multiply it by the power law; factor() gives
k(x, y) |x - y|^(1+2s) itself, which stays finite at every separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigParseError, DiagonalEvaluation
from .geometry import check_line


@dataclass(frozen=True)
class Kernel:
    """k(x, y) = f(x, y) * |x - y|^(-1-2s), the factor f (profile or
    pair_fn, else 1) in [1/lam, lam]."""

    s: float
    lam: float = 1.0
    profile: Callable | None = None  # |z| -> f(|z|), translation-invariant
    pair_fn: Callable | None = None  # (x, y) -> f(x, y), general family

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ConfigParseError(f"s must lie in (0, 1), got {self.s}")
        if not 1.0 <= self.lam < np.inf:
            raise ConfigParseError(
                f"lam must be >= 1 and finite, got {self.lam}")
        if self.profile is not None and self.pair_fn is not None:
            raise ConfigParseError(
                "a kernel carries a profile or a pair callable, not both")

    @property
    def family(self) -> str:
        if self.profile is not None:
            return "translation-invariant"
        return "fractional" if self.pair_fn is None else "general"

    @property
    def scale(self) -> float:
        """Always 1.0: perfbench/tracing.py keys assemble calls on it."""
        return 1.0

    @property
    def power(self) -> float:
        """Exponent of the envelope |x - y|^(-power)."""
        return 1.0 + 2.0 * self.s

    def eval_at_distance(self, d):
        """Kernel value at separation |x - y| = d (radial families only)."""
        d = np.asarray(d, dtype=float)
        if np.any(d <= 0):
            raise DiagonalEvaluation("kernel evaluated at zero separation")
        if self.pair_fn is not None:
            raise DiagonalEvaluation(
                "general kernels are not radial; use eval_pairs")
        if self.profile is not None:
            return self.profile(d) * d ** (-self.power)
        return d ** (-self.power)

    def eval_pairs(self, x, y):
        """Vectorized k(x, y) for coordinate arrays."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.abs(x - y)
        if np.any(d == 0):
            raise DiagonalEvaluation("kernel evaluated on the diagonal x = y")
        if self.pair_fn is not None:
            return self.pair_fn(x, y) * d ** (-self.power)
        return self.eval_at_distance(d)

    def factor(self, x, y):
        """k(x, y) |x - y|^(1+2s) = f(x, y), vectorized; no power of the
        distance is taken, so no separation overflows it."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.pair_fn is not None:
            return self.pair_fn(x, y)
        if self.profile is not None:
            return self.profile(np.abs(x - y))
        return np.ones(np.broadcast(x, y).shape)

    def tag(self) -> str:
        return f"{self.family}(s={self.s:g},lam={self.lam:g})"


def phi(t, s: float):
    """Kernel tail mass: integral of t^(-1-2s) over (t, inf) = t^(-2s)/(2s),
    for t > 0 a float or an array (numpy's array pow rounds apart from a
    float's)."""
    return t ** (-2.0 * s) / (2.0 * s)


def fractional_kernel(n: int, s: float) -> Kernel:
    """|x-y|^(-1-2s), exactly (lam = 1).  The kernels live on the line, so
    any n but 1 raises UnsupportedDimension."""
    check_line(n)
    return Kernel(s=float(s))


def ti_demo_kernel(s: float) -> Kernel:
    """Oscillating translation-invariant demo, lam = 1.5:
    factor 1 + z^2/(2(1+z^2))."""

    def profile(d):
        q = np.minimum(d, 1e150) ** 2  # finite; past 1e8 the factor is 1.5
        return 1.0 + 0.5 * q / (1.0 + q)

    return Kernel(s=float(s), lam=1.5, profile=profile)


def general_demo_kernel(s: float) -> Kernel:
    """Anisotropic symmetric demo, lam = 1.5: factor 1 + sin(x+y)^2 / 2."""

    def pair(x, y):
        return 1.0 + 0.5 * np.sin(x + y) ** 2

    return Kernel(s=float(s), lam=1.5, pair_fn=pair)


def make_kernel(family: str, n: int, s: float) -> Kernel:
    """Factory behind the CLI flags --kernel {frac|ti|general}; any n but 1
    raises UnsupportedDimension."""
    check_line(n)
    if family == "frac":
        return fractional_kernel(n, s)
    if family == "ti":
        return ti_demo_kernel(s)
    if family == "general":
        return general_demo_kernel(s)
    raise ConfigParseError(f"unknown kernel family {family!r}")
