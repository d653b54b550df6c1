"""Symmetric jump kernels with two-sided ellipticity.

Three families share one descriptor: the pure power kernel ("fractional"),
translation-invariant kernels given by a radial profile K(|z|), and general
symmetric kernels given by a pair callable k(x, y).  The optional
one-minus-s normalization multiplies the kernel by (1 - s); it keeps the
operator meaningful as s -> 1 and is what the robustness sweeps use.

Kernel values are absolute (not relative to the power envelope); ellipticity
means k(x,y) * |x-y|^(n+2s) / norm_factor lies in [1/lam, lam].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigParseError, DiagonalEvaluation

FAMILIES = ("fractional", "translation-invariant", "general")


@dataclass(frozen=True)
class Kernel:
    n: int
    s: float
    lam: float = 1.0
    family: str = "fractional"
    normalization: str = "plain"
    profile: Callable | None = None  # |z| -> K(|z|), translation-invariant family
    pair_fn: Callable | None = None  # (x, y) -> k(x, y), general family

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ConfigParseError(f"s must lie in (0, 1), got {self.s}")
        if not 1.0 <= self.lam < np.inf:
            raise ConfigParseError(
                f"lam must be >= 1 and finite, got {self.lam}")
        if self.family not in FAMILIES:
            raise ConfigParseError(f"unknown kernel family {self.family!r}")
        if self.normalization not in ("plain", "one-minus-s"):
            raise ConfigParseError(f"unknown normalization {self.normalization!r}")
        if self.family == "translation-invariant" and self.profile is None:
            raise ConfigParseError("translation-invariant family needs a profile")
        if self.family == "general" and self.pair_fn is None:
            raise ConfigParseError("general family needs a pair callable")

    @property
    def norm_factor(self) -> float:
        return 1.0 - self.s if self.normalization == "one-minus-s" else 1.0

    @property
    def scale(self) -> float:
        """Always 1.0: perfbench/tracing.py keys assemble calls on it."""
        return 1.0

    @property
    def translation_invariant(self) -> bool:
        return self.family in ("fractional", "translation-invariant")

    @property
    def power(self) -> float:
        """Exponent of the envelope |x - y|^(-power)."""
        return self.n + 2.0 * self.s

    def upper_envelope(self) -> float:
        """Constant A with k(x,y) <= A * |x-y|^(-n-2s), from ellipticity."""
        return self.lam * self.norm_factor

    def eval_at_distance(self, d):
        """Kernel value at separation |x - y| = d (radial families only)."""
        d = np.asarray(d, dtype=float)
        if np.any(d <= 0):
            raise DiagonalEvaluation("kernel evaluated at zero separation")
        if self.family == "fractional":
            return self.norm_factor * d ** (-self.power)
        if self.family == "translation-invariant":
            return self.norm_factor * self.profile(d)
        raise DiagonalEvaluation("general kernels are not radial; use eval_pairs")

    def eval_pairs(self, x, y):
        """Vectorized k(x, y) for coordinate arrays (n = 1)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.abs(x - y)
        if np.any(d == 0):
            raise DiagonalEvaluation("kernel evaluated on the diagonal x = y")
        if self.family == "general":
            return self.norm_factor * self.pair_fn(x, y)
        return self.eval_at_distance(d)

    def tag(self) -> str:
        norm = "" if self.normalization == "plain" else ",1-s"
        return f"{self.family}(s={self.s:g},lam={self.lam:g}{norm})"


def phi(t, s: float):
    """Kernel tail mass: integral of t^(-1-2s) over (t, inf) = t^(-2s)/(2s),
    for t > 0 a float or an array (numpy's array pow rounds apart from a
    float's)."""
    return t ** (-2.0 * s) / (2.0 * s)


def fractional_kernel(n: int, s: float, lam: float = 1.0, one_minus_s: bool = False) -> Kernel:
    """|x-y|^(-n-2s), exactly; lam only widens the declared envelope."""
    return Kernel(n=int(n), s=float(s), lam=float(lam), family="fractional",
                  normalization="one-minus-s" if one_minus_s else "plain")


def ti_demo_kernel(s: float, lam: float = 1.5, one_minus_s: bool = False) -> Kernel:
    """Oscillating translation-invariant demo: (1 + z^2/(2(1+z^2))) |z|^(-1-2s)."""
    power = 1.0 + 2.0 * float(s)

    def profile(d):
        d = np.asarray(d, dtype=float)
        q = np.minimum(d, 1e150) ** 2  # finite; past 1e8 the factor is 1.5
        return (1.0 + 0.5 * q / (1.0 + q)) * d ** (-power)

    return Kernel(n=1, s=float(s), lam=float(lam), family="translation-invariant",
                  normalization="one-minus-s" if one_minus_s else "plain", profile=profile)


def general_demo_kernel(s: float, lam: float = 1.5, one_minus_s: bool = False) -> Kernel:
    """Anisotropic symmetric demo: (1 + sin(x+y)^2 / 2) |x-y|^(-1-2s)."""
    power = 1.0 + 2.0 * float(s)

    def pair(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (1.0 + 0.5 * np.sin(x + y) ** 2) * np.abs(x - y) ** (-power)

    return Kernel(n=1, s=float(s), lam=float(lam), family="general",
                  normalization="one-minus-s" if one_minus_s else "plain", pair_fn=pair)


def make_kernel(family: str, n: int, s: float, lam: float | None = None,
                one_minus_s: bool = False) -> Kernel:
    """Factory behind the CLI flags --kernel {frac|ti|general}."""
    if family in ("frac", "fractional"):
        return fractional_kernel(n, s, lam if lam is not None else 1.0, one_minus_s)
    if family == "ti":
        if n != 1:
            raise ConfigParseError("ti demo kernel is 1d")
        return ti_demo_kernel(s, lam if lam is not None else 1.5, one_minus_s)
    if family == "general":
        if n != 1:
            raise ConfigParseError("general demo kernel is 1d")
        return general_demo_kernel(s, lam if lam is not None else 1.5, one_minus_s)
    raise ConfigParseError(f"unknown kernel family {family!r}")
