"""Pointwise operator evaluation, nonlocal tails, and barrier functions.

Lu(x) = 2 p.v. integral of (u(x) - u(y)) k(x, y) dy.  For translation-
invariant kernels the principal value is computed in symmetrized form,

    near field = integral over (0, rho) of D2(z) K(z) dz,
    D2(z) = 2u(x) - u(x+z) - u(x-z),

which is absolutely convergent for C^2 functions (|D2| <= |u''| z^2).  The
far field is integrated directly out to a radius T:

- a function with a declared support (lo, hi) vanishes beyond its reach
  max(|lo - x|, |hi - x|).  When u(x) = 0 or the kernel is fractional,
  T = max(reach, rho) and what lies beyond T is u(x) times the kernel
  mass, zero or a closed form; no remainder is charged.
  `poisson_extend` ends at the reach in the same way;
- otherwise T is searched by decades, and the truncation tail beyond T is
  bounded analytically from sup |u| and the kernel's ellipticity
  envelope; the bound is reported, never dropped.

Exterior data are piecewise constant on both routes to the Dirichlet
problem, the collocation solver and `poisson_extend`, and their tails
have a closed form (`segment_tail`).  The only other functions eval_L
takes are bounded C^2 ones, such as the barrier w2.

PointFunction carries the structural facts the quadrature needs: breaks
(panels never straddle them), an optional piecewise-constant description
(makes tails exact), sup_bound >= sup |u|, and hess_bound, which
declares u to be C^2 and bounds |u''| for the cancellation guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigParseError, DomainViolation, UnsupportedKernel
from .geometry import DisconnectedConfig
from .kernel import Kernel
from .quadrature import DEFAULT_TOL, check_tol, integrate_many

MAX_TRUNCATION = 1e150  # float-safe cap of every truncation radius search


@dataclass(frozen=True)
class PointFunction:
    """A pure function R -> R with declared structure (n = 1).

    Exactly one evaluation semantic: `fn` (vectorized).  pieces/far_value
    describe piecewise-constant functions exactly: value v on each open
    (lo, hi), far_value for |y| >= far_radius, zero elsewhere; segments()
    lists them as the (lo, hi, v) segments the numerics read.  Functions
    that are not piecewise constant leave pieces empty and far_radius None.
    """

    fn: Callable
    sup_bound: float | None = None
    support: tuple | None = None  # (lo, hi), u vanishes outside
    pieces: tuple = ()  # ((lo, hi, value), ...), disjoint
    far_value: float = 0.0
    far_radius: float | None = None  # None: no far part (far_value must be 0)
    breaks: tuple = ()
    hess_bound: float | None = None  # u is C^2 on R with sup |u''| <= this
    label: str = "u"

    def __call__(self, y):
        return self.fn(np.asarray(y, dtype=float))

    @property
    def piecewise(self) -> bool:
        return bool(self.pieces) or self.far_radius is not None

    @property
    def is_constant(self) -> bool:
        return not self.pieces and self.far_radius == 0.0

    def dist_to_break(self, x: float) -> float:
        """Distance from x to the nearest structural break (inf if none);
        a piecewise-constant function lists all its edges as breaks."""
        return min((abs(b - x) for b in self.breaks), default=np.inf)

    def segments(self) -> list[tuple[float, float, float]]:
        """The pieces, then the far part as (-inf, -far_radius, v) and
        (far_radius, inf, v): the (lo, hi, v) segments on which a
        piecewise-constant function takes the value v."""
        if not self.piecewise:
            raise ConfigParseError(
                f"{self.label} is a bare callable, not piecewise data")
        segs = list(self.pieces)
        if self.far_value != 0.0:
            fr, v = self.far_radius, self.far_value
            segs += [(-np.inf, -fr, v), (fr, np.inf, v)]
        return segs


def constant(c: float) -> PointFunction:
    c = float(c)
    return piecewise_constant([], far_value=c, far_radius=0.0,
                              label=f"const({c:g})")


def indicator(lo: float, hi: float, label: str | None = None) -> PointFunction:
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise DomainViolation(f"empty indicator ({lo}, {hi})")
    return piecewise_constant([(lo, hi, 1.0)],
                              label=label or f"chi({lo:g},{hi:g})")


def piecewise_constant(pieces, far_value: float = 0.0,
                       far_radius: float | None = None,
                       label: str = "pw") -> PointFunction:
    pieces = tuple(sorted((float(lo), float(hi), float(v)) for lo, hi, v in pieces))
    if np.isnan([far_value, far_radius or 0.0, *np.ravel(pieces)]).any():
        raise DomainViolation(f"{label}: NaN in the pieces or the far part")
    if not np.isfinite([far_value, *(v for _, _, v in pieces)]).all():
        raise DomainViolation(f"{label}: the values must be finite")
    for (l0, h0, _), (l1, h1, _) in zip(pieces, pieces[1:]):
        if l1 < h0 - 1e-15:
            raise DomainViolation(f"overlapping pieces ({l0},{h0}) and ({l1},{h1})")
    if far_value != 0.0 and far_radius is None:
        raise DomainViolation("far_value needs far_radius")
    if not pieces and far_radius is None:
        far_radius = 0.0  # the zero datum, in constant(0.0)'s form
    if far_radius is not None:
        # the far halves must not overlap each other or any piece
        if far_radius < 0:
            raise DomainViolation(f"far_radius {far_radius:g} is negative")
        for lo, hi, _ in pieces:
            if lo < -far_radius - 1e-12 or hi > far_radius + 1e-12:
                raise DomainViolation("pieces must lie inside the far radius")

    def fn(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        if far_radius is not None:
            out[np.abs(y) >= far_radius] = far_value
        for lo, hi, v in pieces:
            out[(y > lo) & (y < hi)] = v
        return out

    vals = [abs(v) for _, _, v in pieces] + [abs(far_value)]
    brk = sorted({e for lo, hi, _ in pieces for e in (lo, hi)}
                 | ({-far_radius, far_radius} if far_radius else set()))
    support = None  # a half-line piece has no reach
    if far_value == 0.0 and pieces and np.isfinite(brk).all():
        support = (pieces[0][0], max(hi for _, hi, _ in pieces))
    return PointFunction(
        fn=fn, sup_bound=max(vals), support=support, pieces=pieces,
        far_value=float(far_value), far_radius=far_radius,
        breaks=tuple(brk), label=label,
    )


# -- barriers ---------------------------------------------------------------

def barrier_w1(config: DisconnectedConfig) -> PointFunction:
    """Indicator of B_r(x2); the rough barrier."""
    x2 = float(config.x2[0])
    return indicator(x2 - config.r, x2 + config.r, label="w1")


W2_HESS_CONSTANT = 240.0  # documented bound: |w2''| <= 240 / r^2 (sharp value ~23.09 / r^2)


def barrier_w2(config: DisconnectedConfig) -> PointFunction:
    """Radial C^2 cutoff: 1 on B_{r/2}(x1), 0 outside B_r(x1).

    Profile q(t) = 1 - (6t^5 - 15t^4 + 10t^3) on t = clip(2|x-x1|/r - 1, 0, 1);
    q' and q'' vanish at t = 0 and t = 1, so w2 is C^2 across the joins.
    """
    x1 = float(config.x1[0])
    r = config.r

    def fn(y):
        t = np.clip(2.0 * np.abs(np.asarray(y, dtype=float) - x1) / r - 1.0, 0.0, 1.0)
        return 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))

    return PointFunction(
        fn=fn, sup_bound=1.0, support=(x1 - r, x1 + r),
        breaks=(x1 - r, x1 - r / 2.0, x1 + r / 2.0, x1 + r),
        hess_bound=W2_HESS_CONSTANT / (r * r), label="w2",
    )


# -- operator evaluation ----------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """A value with its bounds, as eval_L and poisson_extend report it:
    floats at a scalar x, arrays of x's shape at an array of points."""

    value: float
    error_bound: float  # quadrature estimate + remainder_bound
    remainder_bound: float  # sup |u| bound beyond T; 0 when T ends the reach
    truncation_radius: float  # T, the distance integrated to

    @classmethod
    def of_rows(cls, rows: list, shape: tuple) -> "Estimate":
        """One estimate from per-point rows of the four fields."""
        return cls(*(np.array(rows, dtype=float).reshape(-1, 4).T
                     if shape else rows[0]))


def _tail_remainder(amp: float, s: float, T: float) -> float:
    """Integral of amp |y-c|^(-1-2s) over |y-c| > T, which bounds the
    tail beyond T of a function with sup |u| <= amp."""
    return amp * 2.0 * T ** (-2.0 * s) / (2.0 * s)


def _reach(u: PointFunction, x: float) -> float | None:
    """Distance from x beyond which u vanishes, max(|lo - x|, |hi - x|)
    over its declared support (lo, hi); None without compact support."""
    if u.support is None:
        return None
    lo, hi = u.support
    return max(abs(lo - x), abs(hi - x))


def truncation_radius(remainder: Callable[[float], float], T0: float,
                      tol: float) -> tuple[float, float]:
    """First T = T0 * 10^k with remainder(T) <= tol, capped at
    MAX_TRUNCATION, together with remainder(T)."""
    T = T0
    rem = remainder(T)
    while rem > tol and T < MAX_TRUNCATION:
        T *= 10.0
        rem = remainder(T)
    return T, rem


def _far_jobs(x: float, rho: float, T: float, breaks, tol: float) -> list:
    """The halves of rho < |y - x| < T as integrate_many jobs: the right
    one in y, the left one in the distance d = x - y, each on geometric
    panels from rho; panels never straddle a break."""
    right = [b for b in breaks if x + rho < b < x + T]
    left = [x - b for b in breaks if x - T < b < x - rho]
    return [(x + rho, x + T, tol, right, rho), (rho, T, tol, left, rho)]


def _by_kind(kinds, fns):
    """f(t, j) for integrate_many: the nodes of job j go to fns[kinds[j]]."""
    def f(t, j):
        kj = kinds[j]
        out = np.empty_like(t)
        for kind, fn in enumerate(fns):
            sel = kj == kind
            if sel.any():
                out[sel] = fn(t[sel], j[sel])
        return out

    return f


def eval_L(kernel: Kernel, u: PointFunction, x,
           tol: float = DEFAULT_TOL) -> Estimate:
    """Lu(x) with error estimate and analytic truncation remainder.

    x is a float or a 1-d array of points, and the result's fields take
    its shape.  All integrals of all points run in one integrate_many
    call; each point's numbers are those of a call at that point alone.

    Translation-invariant kernels use the symmetrized near field (valid for
    C^2 functions and exactly zero where u is locally constant); general
    kernels require u locally constant near x.  Raises DomainViolation
    for a u that is neither piecewise constant nor C^2 with a sup_bound,
    and UnsupportedKernel when no valid path exists.
    """
    check_tol(tol)
    shape = np.shape(x)
    xs = np.ravel(np.asarray(x, dtype=float)).tolist()
    if not np.isfinite(xs).all():
        raise DomainViolation(f"eval_L needs finite points, got x = {x}")
    if u.is_constant:
        return Estimate.of_rows([(0.0, 0.0, 0.0, np.inf)] * len(xs), shape)

    if not u.piecewise and None in (u.hess_bound, u.sup_bound):
        raise DomainViolation(
            f"{u.label} is neither piecewise constant nor declared C^2 "
            f"(hess_bound) and bounded (sup_bound)")
    uxs = u(np.array(xs)).tolist()
    env = kernel.upper_envelope()
    if not u.piecewise and not kernel.translation_invariant:
        raise UnsupportedKernel(
            "the symmetrized near field needs a translation-invariant kernel")
    m2 = u.hess_bound
    alpha = 1.0 / (2.0 - 2.0 * kernel.s)
    eps = np.finfo(float).eps

    def d2(x, ux, z):
        return 2.0 * ux - u.fn(x + z) - u.fn(x - z)

    # one job per integral, in the order a point's own call takes them:
    # (mass2,) near field, right and left far field
    NEAR, MASS2, RIGHT, LEFT = range(4)
    jobs, kinds, jx, jux, points = [], [], [], [], []
    for x, ux in zip(xs, uxs):
        # near field on (0, rho)
        if u.piecewise:
            # u is constant on (x - dbreak, x + dbreak); near field vanishes there
            dbreak = u.dist_to_break(x)
            if dbreak == 0.0:
                raise DomainViolation(f"x = {x:g} sits on a break of {u.label}")
            rho, near = 0.5 * dbreak, None
        else:
            rho = 1.0
            # D2(z) in float64 carries cancellation noise ~4 eps sup|u| at any z,
            # while the true value decays like u''(x) z^2; below the crossover
            # scale pointwise evaluation is pure noise against a z^(-1-2s) weight
            # and no amount of panel splitting converges.  Cut the integral at a
            # reliability floor z_lo and cover (0, z_lo) with the quadratic model
            # c2 * int z^2 K(z) dz, c2 estimated by Richardson at safe scales.
            scale_u = max(abs(ux), u.sup_bound, 1.0)
            noise = 4.0 * eps * scale_u
            # in tau the noise envelope is noise*env*alpha*tau^(-2 alpha); keep
            # its integral beyond the cut under tol/4, and keep the cut itself
            # where signal/noise >= 1e4
            expo = 2.0 * alpha - 1.0
            tau_budget = (noise * env * alpha / (expo * 0.25 * tol)) ** (1.0 / expo)
            z_lo = max(tau_budget ** alpha, 100.0 * np.sqrt(noise / m2))
            # a break within a few ulps of x is x's own join; flooring z_lo at
            # it would push the Richardson stencils into the cancellation noise
            near_join = 16.0 * eps * max(1.0, abs(x))
            zbreaks = sorted({abs(b - x) for b in u.breaks
                              if near_join < abs(b - x) < rho})
            if zbreaks:
                # keep both Richardson stencils inside one C^2 piece
                z_lo = min(z_lo, zbreaks[0] / 4.0)
            z_lo = max(min(z_lo, rho / 8.0), 64.0 * eps * max(1.0, abs(x)))
            a1 = float(d2(x, ux, np.array([z_lo]))[0]) / (z_lo * z_lo)
            a2 = float(d2(x, ux, np.array([2.0 * z_lo]))[0]) / (4.0 * z_lo * z_lo)
            c2 = min(max((4.0 * a1 - a2) / 3.0, -m2), m2)
            mass2 = None
            if kernel.family == "fractional":
                mass2 = env / kernel.lam \
                    * z_lo ** (2.0 - 2.0 * kernel.s) / (2.0 - 2.0 * kernel.s)
            else:
                jobs.append((0.0, z_lo, tol))
                kinds.append(MASS2)
            jobs.append((z_lo ** (1.0 / alpha), rho ** (1.0 / alpha), tol,
                         [zb ** (1.0 / alpha) for zb in zbreaks]))
            kinds.append(NEAR)
            near = (c2, mass2, a1, z_lo, scale_u)

        # far field 2 int_{rho < |y-x| < T} (u(x) - u(y)) k(x, y) dy
        reach = _reach(u, x)
        if reach is not None and (ux == 0.0 or kernel.family == "fractional"):
            # beyond the reach only u(x) k is left, zero or a power mass
            T, remainder = max(reach, rho), 0.0
            beyond = ux * 2.0 * kernel.norm_factor \
                * _power_mass(T, np.inf, kernel.s)
        else:
            def far_remainder(T):
                # |2 int_{|y-x|>T} (u(x) - u(y)) k dy|
                return 2.0 * env * (_tail_remainder(abs(ux), kernel.s, T)
                                    + _tail_remainder(u.sup_bound, kernel.s, T))

            T, remainder = truncation_radius(far_remainder, 1e4 * max(1.0, abs(x)), tol)
            beyond = 0.0
        jobs += _far_jobs(x, rho, T, u.breaks, tol)
        kinds += [RIGHT, LEFT]
        jx += [x] * (len(jobs) - len(jx))
        jux += [ux] * (len(jobs) - len(jux))
        points.append((near, beyond, remainder, T))

    jx, jux, kinds = np.array(jx), np.array(jux), np.array(kinds, dtype=int)
    jright = kinds == RIGHT

    def near_integrand(tau, j):
        z = tau ** alpha
        clipped = np.clip(d2(jx[j], jux[j], z), -m2 * z * z, m2 * z * z)
        return clipped * kernel.eval_at_distance(z) * alpha * tau ** (alpha - 1.0)

    def weighted(z, j):
        return z * z * kernel.eval_at_distance(z)

    def far(t, j):
        x = jx[j]
        y = np.where(jright[j], t, x - t)  # t is the distance on the left
        return (jux[j] - u.fn(y)) * kernel.eval_pairs(x, y)

    # the far field's halves share one integrand
    results = iter(integrate_many(_by_kind(
        np.minimum(kinds, RIGHT), (near_integrand, weighted, far)), jobs))
    out = []
    for near, beyond, remainder, T in points:
        near_val, near_err = 0.0, 0.0
        if near is not None:
            c2, mass2, a1, z_lo, scale_u = near
            mass2, mass2_err = next(results) if mass2 is None else (mass2, 0.0)
            tail_val, tail_err = next(results)
            model_slack = (abs(a1 - c2) + 16.0 * eps * scale_u
                           / (z_lo * z_lo)) * mass2
            # the symmetrized integrand collects the pair (x+z, x-z); the
            # operator carries an overall factor 2 on top of that
            near_val = 2.0 * (c2 * mass2 + tail_val)
            near_err = 2.0 * (tail_err + abs(c2) * mass2_err + model_slack)
        (r, er), (l, el) = next(results), next(results)
        out.append((near_val + 2.0 * ((l + r) + beyond),
                    near_err + 2.0 * (el + er) + remainder, remainder, T))
    return Estimate.of_rows(out, shape)


# -- nonlocal tail ----------------------------------------------------------

def _power_mass(a: float, b: float, s: float) -> float:
    """integral of rho^(-1-2s) over (a, b), 0 < a <= b <= inf."""
    if b <= a:
        return 0.0
    out = a ** (-2.0 * s) / (2.0 * s)
    if np.isfinite(b):
        out -= b ** (-2.0 * s) / (2.0 * s)
    return out


def segment_tail(segments, x0: float, r: float, s: float) -> float:
    """Tail(u; x0, r) = r^2s integral of |u(y)| |y-x0|^(-1-2s) over
    |y-x0| > r, in closed form for u = v on each (lo, hi) of the
    (lo, hi, v) segments (disjoint, ends may be infinite), zero elsewhere."""
    total = 0.0
    for lo, hi, v in segments:
        right = _power_mass(max(lo - x0, r), max(hi - x0, r), s)
        left = _power_mass(max(x0 - hi, r), max(x0 - lo, r), s)
        total += abs(v) * (right + left)
    return r ** (2.0 * s) * total
