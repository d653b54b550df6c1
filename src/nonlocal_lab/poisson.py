"""Exact exterior-to-interior kernel on balls and the extension it represents.

The kernel has a closed form on balls (Blumenthal, Getoor & Ray 1961);
integrating exterior data against it solves the exterior-data problem
without a mesh, which makes it the reference route the discrete solver is
checked against.  Both routes take piecewise-constant data, and
``poisson_extend`` reads them only through their segments.  Like the rest
of the lab, the kernel lives on the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigParseError, DomainViolation
from .geometry import check_line, coordinate
from .kernel import phi
from .operator import (
    MAX_TRUNCATION,
    Estimate,
    PointFunction,
    _by_kind,
    _far_distance,
    _smooth_power,
    piecewise_data,
)
from .quadrature import DEFAULT_TOL, check_tol, integrate_many


def poisson_constant(s: float) -> float:
    """Normalizing constant of the line, Gamma(1/2) pi^(-3/2) sin(s pi)."""
    if not 0.0 < s < 1.0:
        raise ConfigParseError(f"s must lie in (0, 1), got {s}")
    return math.gamma(0.5) * math.pi ** -1.5 * math.sin(s * math.pi)


@dataclass(frozen=True)
class PoissonKernelBall:
    """Interval B_r(center) of the line together with the order s.

    Defined for x strictly inside and y strictly outside the closed ball;
    values are nonnegative.  n must be 1 and is checked first; center is
    a number or a one-element sequence, kept as a number.
    """

    n: int
    s: float
    r: float
    center: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", check_line(self.n))
        poisson_constant(self.s)  # checks s
        if not (0.0 < self.r and 0.0 < self.r * self.r < np.inf):
            raise ConfigParseError(f"radius must be positive with a "
                                   f"positive finite square, got {self.r}")
        object.__setattr__(self, "center", coordinate(self.center))

    @property
    def constant(self) -> float:
        return poisson_constant(self.s)

    def inside_gap(self, x) -> float:
        """r^2 - |x - center|^2 at a number x, positive iff x is strictly
        inside; DomainViolation where the square is not finite."""
        d = abs(x - self.center)
        if not d * d < np.inf:
            raise DomainViolation(f"|x - center|^2 is not finite at x = {x}")
        return (self.r - d) * (self.r + d)  # exact next to the sphere


def _pair(pk: PoissonKernelBall, x, y) -> tuple[float, float, float]:
    """(r^2 - |x-c|^2, |y-c|^2 - r^2, |y-x|) for x inside and y outside."""
    xg = pk.inside_gap(x)
    if not xg > 0.0:
        raise DomainViolation(f"x = {x} is not strictly inside the ball")
    yg = -pk.inside_gap(y)
    if not yg > 0.0:
        raise DomainViolation(f"y = {y} is not strictly outside the closed ball")
    return xg, yg, abs(y - x)


def poisson_eval(pk: PoissonKernelBall, x, y) -> float:
    """Kernel value at (x inside, y outside), by the exact formula."""
    xg, yg, dist = _pair(pk, x, y)
    return pk.constant * xg ** pk.s * yg ** (-pk.s) * dist ** -1


def poisson_extend(pk: PoissonKernelBall, g: PointFunction, x,
                   tol: float = DEFAULT_TOL) -> Estimate:
    """Representation integral of piecewise-constant exterior data g at
    points x inside; other data raise ConfigParseError before any integral.
    x, the result and the array set-up are as in eval_L: one pass builds
    every point's gap, amplitudes and jobs.  The value sums v m and the
    bound |v| e, in segment order, over g's (lo, hi, v) segments, m the
    kernel's mass on a segment's part outside the ball and e its estimate.

    Each exterior side splits at center distance 2r.  The band next to the
    ball uses z = center +- r cosh(t), which turns the boundary singularity
    into a factor sinh(t)^(1-2s), and integrates in tau = t^((2-2s)/m), m =
    ceil(2 - 2s) as in eval_L's near field: sinh(t)^(1-2s) dt = m alpha tau^(m-1)
    (sinh(t)/t)^(1-2s) dtau, alpha = 1/(2-2s), with t^2 = tau^(m/(1-s)) a power
    >= 2, is C^2 down to tau = 0 for every s.  A band job starts from panels
    graded toward the sphere, where 1/|z - x| peaks: breaks at 1/4 and 1/2 of
    its tau-range, so most converge in one round.  The far band runs to
    infinity in eval_L's tail-mass coordinate p = phi(v), v = |z - center| / r,
    with the integrand r P v^(1+2s) = amp_x r^(-2s) (1 - 1/v^2)^(-s) r v /
    |z - x|, free of overflow at any radius.  v stops at V = MAX_TRUNCATION,
    which moves that factor by at most 3/V and reads no data.
    """
    check_tol(tol)
    piecewise_data(g)
    shape = np.shape(x)
    xs = np.ravel(np.asarray(x, dtype=float)).tolist()
    c, r, s = pk.center, pk.r, pk.s
    m, expo = _smooth_power(s), 2.0 - 2.0 * s
    beta = m / expo  # t = tau^beta on the band
    # (kind, side, v, lo, hi, breaks, reach) of the band (0) and far (1)
    # integral of each nonzero segment side outside the ball, v = |z - c| / r
    parts = []
    for lo, hi, v in g.segments():
        a, b = (lo - c) / r, (hi - c) / r
        for side, va, vb in ((1.0, a, b), (-1.0, -b, -a)):
            va = max(va, 1.0)
            if v != 0.0 and va < min(vb, 2.0):
                t0, t1 = (math.acosh(w) ** (expo / m) for w in (va, min(vb, 2)))
                parts.append((0, side, v, t0, t1, (t0 + 0.25 * (t1 - t0),
                                                   t0 + 0.5 * (t1 - t0)), None))
            if v != 0.0 and max(va, 2.0) < vb:
                parts.append((1, side, v, phi(vb, s), phi(max(va, 2.0), s), (),
                              f"({max(va, 2.0) * r:g}, {vb * r:g})"))
    jobs, jamp = [], []
    for x in xs:
        gap = pk.inside_gap(x)
        if not gap > 0.0:
            raise DomainViolation(f"x = {x:g} is not strictly inside the ball")
        amp = (pk.constant * gap ** s, pk.constant * (gap / (r * r)) ** s)
        for kind, _, _, lo, hi, breaks, reach in parts:
            jobs.append((lo, hi, tol, breaks, None, reach and
                         f"the far band at x = {x:g}, |z - c| in {reach}"))
            jamp.append(amp[kind])
    kinds, jside = (np.array([p[i] for p in parts] * len(xs)) for i in (0, 1))
    jx, jamp = np.array([x - c for x in xs for _ in parts]), np.array(jamp)
    jnear = r - jside * jx  # |z - x| at the sphere, exact next to it

    def band(tau, j):
        t = tau ** beta
        # |z - x| = r cosh(t) - side (x - c), with cosh(t) - 1 as a sinh^2
        dist = jnear[j] + 2.0 * r * np.sinh(0.5 * t) ** 2
        # dz = r sinh dt against (r sinh)^(-2s) from the kernel, and
        # sinh(t)^(1-2s) dt = beta tau^(m-1) (sinh(t)/t)^(1-2s) dtau
        return (jamp[j] * r ** (1.0 - 2.0 * s) * beta * tau ** (m - 1)
                * (np.sinh(t) / t) ** (1.0 - 2.0 * s) / dist)

    def far(p, j):
        w = jside[j] * r * _far_distance(p, s, MAX_TRUNCATION)  # z - c
        return (jamp[j] * (1.0 - (r / w) ** 2) ** (-s)
                * np.abs(w / (w - jx[j])))

    res = iter(integrate_many(_by_kind(kinds, (band, far)), jobs))
    rows = [[(p[2], next(res)) for p in parts] for _ in xs]
    return Estimate.of_rows([(sum((v * m for v, (m, _) in row), 0.0),
                              sum((abs(v) * e for v, (_, e) in row), 0.0))
                             for row in rows], shape)


def bound_ratio(pk: PoissonKernelBall, x, z) -> float:
    """P(x, z) |x-z|^(1+2s) / r^2s for one admissible pair, as
    C (gap_x / r^2)^s (|z - x|^2 / gap_z)^s, finite at any distance."""
    xg, zg, dist = _pair(pk, x, z)
    return pk.constant * (xg / pk.r ** 2) ** pk.s * (dist * dist / zg) ** pk.s


def check_poisson_bounds(pk: PoissonKernelBall, sample_x,
                         sample_z) -> dict:
    """Two-sided comparability of the kernel with r^2s |x-z|^(-1-2s): the
    extremes of bound_ratio over all sample pairs, as min_ratio,
    max_ratio, their quotient spread and the pair count n_samples.

    Samples are numbers and must respect the interior window
    |x - center| < r/2 and the exterior window |z - center| >= 2r;
    anything else is rejected, the comparison only holds there.
    """
    xs, zs = [float(x) for x in sample_x], [float(z) for z in sample_z]
    if not xs or not zs:
        raise ConfigParseError("the bounds need an x and a z sample")
    for x in xs:
        if not abs(x - pk.center) < 0.5 * pk.r:
            raise DomainViolation(
                f"sample x = {x} leaves the interior window |x-c| < r/2")
    for z in zs:
        if not abs(z - pk.center) >= 2.0 * pk.r:
            raise DomainViolation(
                f"sample z = {z} enters the exterior window guard |z-c| >= 2r")
    ratios = [bound_ratio(pk, x, z) for x in xs for z in zs]
    lo, hi = min(ratios), max(ratios)
    return {"min_ratio": lo, "max_ratio": hi, "spread": hi / lo,
            "n_samples": len(ratios)}
