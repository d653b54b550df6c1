"""Exact exterior-to-interior kernel on balls and the extension it represents.

The kernel has a closed form on balls; integrating boundary data against it
reproduces the solution of the exterior-data problem without any mesh, which
makes it the reference route the discrete solver is checked against.  The
formula itself is valid in every dimension; the exterior quadrature behind
``poisson_extend`` is implemented on the line only, matching the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigParseError, DomainViolation, UnsupportedDimension
from .operator import (
    Estimate,
    PointFunction,
    _by_kind,
    _reach,
    _tail_remainder,
    integrable_envelope,
    truncation_radius,
)
from .quadrature import DEFAULT_TOL, check_tol, integrate_many

TRUNCATION_FACTOR = 1e4


def poisson_constant(n: int, s: float) -> float:
    """Normalizing constant Gamma(n/2) pi^(-n/2-1) sin(s pi)."""
    if n < 1:
        raise ConfigParseError(f"dimension must be >= 1, got {n}")
    if not 0.0 < s < 1.0:
        raise ConfigParseError(f"s must lie in (0, 1), got {s}")
    return math.gamma(0.5 * n) * math.pi ** (-0.5 * n - 1.0) * math.sin(s * math.pi)


@dataclass(frozen=True)
class PoissonKernelBall:
    """Ball B_r(center) together with the kernel data (n, s).

    Defined for x strictly inside and y strictly outside the closed ball;
    values are nonnegative.  center is a scalar for n = 1, else a length-n
    sequence.
    """

    n: int
    s: float
    r: float
    center: float | tuple[float, ...] = 0.0

    def __post_init__(self):
        poisson_constant(self.n, self.s)  # checks n and s
        if not self.r > 0.0:
            raise ConfigParseError(f"radius must be positive, got {self.r}")
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.shape != (self.n,):
            raise ConfigParseError(
                f"center has {c.shape[0]} coordinates for dimension {self.n}")

    @property
    def constant(self) -> float:
        return poisson_constant(self.n, self.s)

    def _center(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.center, dtype=float))

    def inside_gap(self, x) -> float:
        """r^2 - |x - center|^2, positive iff x is strictly inside."""
        dx = np.atleast_1d(np.asarray(x, dtype=float)) - self._center()
        return float(self.r * self.r - np.dot(dx, dx))


def poisson_eval(pk: PoissonKernelBall, x, y) -> float:
    """Kernel value at (x inside, y outside); exact formula, any dimension."""
    xg = pk.inside_gap(x)
    if not xg > 0.0:
        raise DomainViolation(f"x = {x} is not strictly inside the ball")
    yg = -pk.inside_gap(y)
    if not yg > 0.0:
        raise DomainViolation(f"y = {y} is not strictly outside the closed ball")
    dxy = np.atleast_1d(np.asarray(y, dtype=float)) - np.atleast_1d(
        np.asarray(x, dtype=float))
    dist = float(np.sqrt(np.dot(dxy, dxy)))
    return pk.constant * xg ** pk.s * yg ** (-pk.s) * dist ** (-pk.n)


def poisson_extend(pk: PoissonKernelBall, g: PointFunction, x,
                   tol: float = DEFAULT_TOL) -> Estimate:
    """Representation integral of exterior data g at points x inside.

    x is a float or a 1-d array of points, and the result's fields take
    its shape.  All integrals of all points run in one integrate_many
    call; each point's numbers are those of a call at that point alone.

    Each side of the exterior splits at center distance 2r.  The band next
    to the ball uses z = center +- r cosh(t), which turns the boundary
    singularity into a factor sinh(t)^(1-2s), and integrates in
    tau = t^(2-2s) (the substitution of eval_L's near field): there
    sinh(t)^(1-2s) dt = alpha (sinh(t)/t)^(1-2s) dtau, alpha = 1/(2-2s),
    which is smooth down to tau = 0.  The far band integrates in z over
    geometric panels up to a radius T:

    - data with a declared support (lo, hi) vanish beyond the reach
      max(|lo - center|, |hi - center|), so T = max(reach, 2r) and no
      remainder is left;
    - otherwise T is searched from TRUNCATION_FACTOR * r up by decades
      until the analytic remainder from g's growth envelope fits half the
      tolerance.  Beyond T >= 2r the kernel is at most
      (4/3)^s * 2 * amp_x * rho^(-1-2s) in the center distance rho, which
      is what the remainder integrates.
    """
    if pk.n != 1:
        raise UnsupportedDimension(
            "exterior quadrature is implemented for n = 1 only")
    check_tol(tol)
    shape = np.shape(x)
    xs = np.ravel(np.asarray(x, dtype=float)).tolist()
    c = float(pk._center()[0])
    r, s = pk.r, pk.s
    amp_g, p = integrable_envelope(g, s)
    reach = _reach(g, c)
    expo = 2.0 - 2.0 * s
    alpha = 1.0 / expo
    top = math.acosh(2.0) ** expo
    tb = {side: [math.acosh(side * (b - c) / r) ** expo for b in g.breaks
                 if r < side * (b - c) < 2.0 * r] for side in (1.0, -1.0)}
    # per point: the band and far integrals of the right, then the left side
    jobs, jx, jamp, ends = [], [], [], []
    for x in xs:
        if not pk.inside_gap(x) > 0.0:
            raise DomainViolation(f"x = {x:g} is not strictly inside the ball")
        amp_x = pk.constant * pk.inside_gap(x) ** s
        if reach is not None:
            T, remainder = max(reach, 2.0 * r), 0.0
        else:
            weight = amp_x * (4.0 / 3.0) ** s * 2.0
            T, remainder = truncation_radius(
                lambda T: weight * _tail_remainder(amp_g, p, s, c, T),
                TRUNCATION_FACTOR * r, 0.5 * tol)
        for side in (1.0, -1.0):
            fb = [side * (b - c) for b in g.breaks
                  if 2.0 * r < side * (b - c) < T]
            jobs += [(0.0, top, tol, tb[side]), (2.0 * r, T, tol, fb, r)]
        jx += [x] * 4
        jamp += [amp_x] * 4
        ends.append((remainder, T))
    jx, jamp = np.array(jx), np.array(jamp)
    jside = np.tile([1.0, 1.0, -1.0, -1.0], len(xs))

    def band(tau, j):
        t = tau ** alpha
        side = jside[j]
        # z itself collapses onto the boundary for t < sqrt(eps), which
        # would feed g the wrong one-sided value right where the
        # singular mass sits; keep the boundary offset exact and floor
        # the data argument strictly outside (pieces narrower than
        # 1e-9 r next to the boundary are beyond this quadrature)
        off = 2.0 * r * np.sinh(0.5 * t) ** 2
        zg = c + side * (r + np.maximum(off, 1e-9 * r))
        dist = np.abs(c + side * r * np.cosh(t) - jx[j])
        # dz = r sinh dt against (r sinh)^(-2s) from the kernel, and
        # sinh(t)^(1-2s) dt = alpha (sinh(t)/t)^(1-2s) dtau
        return (g.fn(zg) * jamp[j] * r ** (1.0 - 2.0 * s) * alpha
                * (np.sinh(t) / t) ** (1.0 - 2.0 * s) / dist)

    def far(w, j):
        z = c + jside[j] * w
        # the kernel P(x, z) on the line
        return g.fn(z) * (jamp[j] * ((z - c) ** 2 - r * r) ** (-s)
                          / np.abs(z - jx[j]))

    res = integrate_many(
        _by_kind(np.tile([0, 1], 2 * len(xs)), (band, far)), jobs)
    out = []
    for k, (remainder, T) in enumerate(ends):
        vals, errs = zip(*res[4 * k:4 * k + 4])
        out.append((sum(vals), sum(errs) + remainder, remainder, T))
    return Estimate.of_rows(out, shape)


@dataclass(frozen=True)
class PoissonBoundsReport:
    """Extremes of P(x, z) |x-z|^(n+2s) / r^2s over the sampled windows."""

    min_ratio: float
    max_ratio: float
    n_samples: int

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio


def bound_ratio(pk: PoissonKernelBall, x, z) -> float:
    """P(x, z) |x-z|^(n+2s) / r^2s for one admissible pair."""
    xc = np.atleast_1d(np.asarray(x, dtype=float))
    zc = np.atleast_1d(np.asarray(z, dtype=float))
    d = zc - xc
    dist = float(np.sqrt(np.dot(d, d)))
    return (poisson_eval(pk, x, z) * dist ** (pk.n + 2.0 * pk.s)
            / pk.r ** (2.0 * pk.s))


def check_poisson_bounds(pk: PoissonKernelBall, sample_x,
                         sample_z) -> PoissonBoundsReport:
    """Two-sided comparability of the kernel with r^2s |x-z|^(-n-2s).

    Samples must respect the interior window |x - center| < r/2 and the
    exterior window |z - center| >= 2r; anything else is rejected, the
    comparison only holds there.
    """
    c = pk._center()
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in sample_x]
    zs = [np.atleast_1d(np.asarray(z, dtype=float)) for z in sample_z]
    for x in xs:
        if not np.sqrt(np.dot(x - c, x - c)) < 0.5 * pk.r:
            raise DomainViolation(
                f"sample x = {x} leaves the interior window |x-c| < r/2")
    for z in zs:
        if not np.sqrt(np.dot(z - c, z - c)) >= 2.0 * pk.r:
            raise DomainViolation(
                f"sample z = {z} enters the exterior window guard |z-c| >= 2r")
    ratios = [bound_ratio(pk, x, z) for x in xs for z in zs]
    return PoissonBoundsReport(min_ratio=min(ratios), max_ratio=max(ratios),
                               n_samples=len(ratios))
