"""Exact exterior-to-interior kernel on balls and the extension it represents.

The kernel has a closed form on balls; integrating boundary data against it
reproduces the solution of the exterior-data problem without any mesh, which
makes it the reference route the discrete solver is checked against.  Both
routes take the same exterior data, piecewise constant, and the far band
runs to infinity in eval_L's tail-mass coordinate.  The formula
itself is valid in every dimension; the exterior quadrature behind
``poisson_extend`` is implemented on the line only, matching the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigParseError, DomainViolation, UnsupportedDimension
from .kernel import phi
from .operator import (
    MAX_TRUNCATION,
    Estimate,
    PointFunction,
    _by_kind,
    _far_distance,
)
from .quadrature import DEFAULT_TOL, check_tol, integrate_many


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
        if not (0.0 < self.r and 0.0 < self.r * self.r < np.inf):
            raise ConfigParseError(f"radius must be positive with a "
                                   f"positive finite square, got {self.r}")
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
        """r^2 - |x - center|^2, positive iff x is strictly inside;
        DomainViolation where the square is not finite."""
        d = math.dist(np.atleast_1d(np.asarray(x, dtype=float)), self._center())
        if not d * d < np.inf:
            raise DomainViolation(f"|x - center|^2 is not finite at x = {x}")
        return self.r * self.r - d * d


def poisson_eval(pk: PoissonKernelBall, x, y) -> float:
    """Kernel value at (x inside, y outside); exact formula, any dimension."""
    xg = pk.inside_gap(x)
    if not xg > 0.0:
        raise DomainViolation(f"x = {x} is not strictly inside the ball")
    yg = -pk.inside_gap(y)
    if not yg > 0.0:
        raise DomainViolation(f"y = {y} is not strictly outside the closed ball")
    dist = math.dist(np.atleast_1d(np.asarray(y, dtype=float)),
                     np.atleast_1d(np.asarray(x, dtype=float)))
    return pk.constant * xg ** pk.s * yg ** (-pk.s) * dist ** (-pk.n)


def poisson_extend(pk: PoissonKernelBall, g: PointFunction, x,
                   tol: float = DEFAULT_TOL) -> Estimate:
    """Representation integral of exterior data g at points x inside, with
    x and the result as in eval_L.  g must be piecewise constant, as the
    solver's data are; anything else raises ConfigParseError before any
    integral.

    Each side of the exterior splits at center distance 2r.  The band next
    to the ball uses z = center +- r cosh(t), which turns the boundary
    singularity into a factor sinh(t)^(1-2s), and integrates in
    tau = t^(2-2s) (the substitution of eval_L's near field): there
    sinh(t)^(1-2s) dt = alpha (sinh(t)/t)^(1-2s) dtau, alpha = 1/(2-2s),
    which is smooth down to tau = 0.  The far band runs to infinity in
    eval_L's tail-mass coordinate p = phi(v), v = |z - center| / r, on
    (0, phi(2)), with the integrand r P v^(1+2s) = amp_x r^(-2s)
    (1 - 1/v^2)^(-s) r v / |z - x|, free of overflow at any radius.  v
    stops at V = MAX_TRUNCATION, where that is amp_x r^(-2s) within 3/V:
    exact to rounding once g's breaks lie within V r, charged otherwise.
    """
    if pk.n != 1:
        raise UnsupportedDimension(
            "exterior quadrature is implemented for n = 1 only")
    check_tol(tol)
    if not g.piecewise:
        raise ConfigParseError(
            f"{g.label} is a bare callable; poisson_extend needs "
            f"piecewise-constant exterior data")
    shape = np.shape(x)
    xs = np.ravel(np.asarray(x, dtype=float)).tolist()
    c = float(pk._center()[0])
    r, s = pk.r, pk.s
    V = MAX_TRUNCATION
    expo = 2.0 - 2.0 * s
    alpha = 1.0 / expo
    top = math.acosh(2.0) ** expo
    tb = {side: [math.acosh(side * (b - c) / r) ** expo for b in g.breaks
                 if r < side * (b - c) < 2.0 * r] for side in (1.0, -1.0)}
    fb = {side: [phi(side * (b - c) / r, s) for b in g.breaks
                 if 2.0 * r < side * (b - c)] for side in (1.0, -1.0)}
    # both sides, twice the integrand's bound amp_v sup|g| (1 + 3/V)
    clip = 0.0 if all(abs(b - c) < V * r for b in g.breaks
                      if math.isfinite(b)) else 5.0 * phi(V, s) * g.sup_bound
    # per point: the band and far integrals of the right, then the left side
    jobs, jx, jamp = [], [], []
    for x in xs:
        gap = pk.inside_gap(x)
        if not gap > 0.0:
            raise DomainViolation(f"x = {x:g} is not strictly inside the ball")
        amp_x = pk.constant * gap ** s
        where = f"the far band at x = {x:g}, |z - c| in ({2.0 * r:g}, inf)"
        for side in (1.0, -1.0):
            jobs += [(0.0, top, tol, tb[side]),
                     (0.0, phi(2.0, s), tol, fb[side], None, where)]
        amp_v = pk.constant * (gap / (r * r)) ** s
        jx += [x - c] * 4
        jamp += [amp_x, amp_v] * 2
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
        dist = np.abs(side * r * np.cosh(t) - jx[j])
        # dz = r sinh dt against (r sinh)^(-2s) from the kernel, and
        # sinh(t)^(1-2s) dt = alpha (sinh(t)/t)^(1-2s) dtau
        return (g.fn(zg) * jamp[j] * r ** (1.0 - 2.0 * s) * alpha
                * (np.sinh(t) / t) ** (1.0 - 2.0 * s) / dist)

    def far(p, j):
        w = jside[j] * r * _far_distance(p, s, V)  # z - c
        return g.fn(c + w) * (jamp[j] * (1.0 - (r / w) ** 2) ** (-s)
                              * np.abs(w / (w - jx[j])))

    res = integrate_many(
        _by_kind(np.tile([0, 1], 2 * len(xs)), (band, far)), jobs)
    out = []
    for k in range(len(xs)):
        vals, errs = zip(*res[4 * k:4 * k + 4])
        out.append((sum(vals), sum(errs) + clip * jamp[4 * k + 1]))
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
    dist = math.dist(np.atleast_1d(np.asarray(z, dtype=float)),
                     np.atleast_1d(np.asarray(x, dtype=float)))
    return (poisson_eval(pk, x, z) * dist ** (pk.n + 2.0 * pk.s)
            / pk.r ** (2.0 * pk.s))


def check_poisson_bounds(pk: PoissonKernelBall, sample_x,
                         sample_z) -> PoissonBoundsReport:
    """Two-sided comparability of the kernel with r^2s |x-z|^(-n-2s).

    Samples must respect the interior window |x - center| < r/2 and the
    exterior window |z - center| >= 2r; anything else is rejected, the
    comparison only holds there.
    """
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in sample_x]
    zs = [np.atleast_1d(np.asarray(z, dtype=float)) for z in sample_z]
    for x in xs:
        if not math.dist(x, pk._center()) < 0.5 * pk.r:
            raise DomainViolation(
                f"sample x = {x} leaves the interior window |x-c| < r/2")
    for z in zs:
        if not math.dist(z, pk._center()) >= 2.0 * pk.r:
            raise DomainViolation(
                f"sample z = {z} enters the exterior window guard |z-c| >= 2r")
    ratios = [bound_ratio(pk, x, z) for x in xs for z in zs]
    return PoissonBoundsReport(min_ratio=min(ratios), max_ratio=max(ratios),
                               n_samples=len(ratios))
