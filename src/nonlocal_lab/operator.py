"""Pointwise operator evaluation, nonlocal tails, and barrier functions.

Lu(x) = 2 p.v. integral of (u(x) - u(y)) k(x, y) dy.  For translation-
invariant kernels the principal value is computed in symmetrized form,

    near field = integral over (0, rho) of D2(z) K(z) dz,
    D2(z) = 2u(x) - u(x+z) - u(x-z),

which is absolutely convergent for C^2 functions (|D2| <= |u''| z^2).  The
far field |y - x| > rho runs to infinity, each half in the tail-mass
coordinate p = phi(d) = d^(-2s)/(2s) of d = |y - x|: dp = -d^(-1-2s) dd
maps (rho, inf) onto (0, phi(rho)) and leaves the bounded integrand
(u(x) - u(y)) times the kernel's factor k(x, y) d^(1+2s) (Kernel.factor).
Distances stop at the float-safe MAX_TRUNCATION as one charged term, and
`poisson_extend` integrates its far band the same way, on the kernel alone.
Under the fractional kernel piecewise u needs neither: Lu(x) sums
2 (u(x) - v_R) (phi(d_near) - phi(d_far)) over the regions R between its
breaks, where it is v_R, with phi(inf) = 0; by parts, that is the sum of
2 sign(b - x) (u(b-) - u(b+)) phi(|b - x|) over the finite breaks b.

Below a reliability floor z_lo the near field of a C^2 function is the
quadratic model c2 z^2 against the model mass int_0^z_lo z^2 K(z) dz: in
v = z^(2-2s), the power law's closed form z_lo^(2-2s)/(2-2s) times the
factor's mean over (0, z_lo^(2-2s)), which is 1 without a factor.

Exterior data are PointFunctions, piecewise constant by type: the only
data both routes to the Dirichlet problem take, the collocation solver
and `poisson_extend`, with a closed-form tail (`segment_tail`).  A datum
is its pieces and far part alone; its values, breaks, bound and segments
derive from them, so every route reads one function.  The only other
function eval_L takes is the smooth barrier w2, a SmoothCutoff: its center
and radius, from which its bounds and joins derive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigParseError, DomainViolation, UnsupportedKernel
from .geometry import DisconnectedConfig, coordinate
from .kernel import Kernel, phi
from .quadrature import DEFAULT_TOL, check_tol, integrate_many

MAX_TRUNCATION = 1e150  # float-safe cap of every far-field distance


@dataclass(frozen=True)
class PointFunction:
    """Piecewise-constant data on R (n = 1): value v on each open (lo, hi)
    of pieces, far_value for |y| >= far_radius, zero elsewhere.

    Every construction, replace() included, checks and sorts the pieces
    and derives once what the numerics read: breaks (where it jumps),
    sup_bound, is_constant (no breaks) and the (lo, hi, v) segments.  No
    pieces and no far part is the zero datum, in constant(0.0)'s form.
    """

    pieces: tuple = ()  # ((lo, hi, value), ...), disjoint
    far_value: float = 0.0
    far_radius: float | None = None  # None: no far part (far_value must be 0)
    label: str = "pw"

    def __post_init__(self):
        label, fv, fr = self.label, float(self.far_value), self.far_radius
        pieces = tuple(sorted((float(lo), float(hi), float(v))
                              for lo, hi, v in self.pieces))
        if any(map(math.isnan, [fv, fr or 0.0,
                                *(x for piece in pieces for x in piece)])):
            raise DomainViolation(f"{label}: NaN in the pieces or the far part")
        if not all(map(math.isfinite, [fv, *(v for _, _, v in pieces)])):
            raise DomainViolation(f"{label}: the values must be finite")
        if not all(hi > lo for lo, hi, _ in pieces):
            raise DomainViolation(f"{label}: every piece needs hi > lo")
        for (l0, h0, _), (l1, h1, _) in zip(pieces, pieces[1:]):
            if l1 < h0:
                raise DomainViolation(f"overlapping pieces ({l0},{h0}) and ({l1},{h1})")
        if fv != 0.0 and fr is None:
            raise DomainViolation("far_value needs far_radius")
        if not pieces and fr is None:
            fr = 0.0
        if fr is not None:
            # the far halves must not overlap each other or any piece
            if fr < 0:
                raise DomainViolation(f"far_radius {fr:g} is negative")
            if any(lo < -fr or hi > fr for lo, hi, _ in pieces):
                raise DomainViolation("pieces must lie inside the far radius")
        far = ((-np.inf, -fr, fv), (fr, np.inf, fv)) if fv != 0.0 else ()
        # the datum jumps at its nonzero pieces' edges and far part's radius
        breaks = {e for lo, hi, v in pieces if v != 0.0 for e in (lo, hi)}
        breaks |= {-fr, fr} if far and fr else set()
        self.__dict__.update(
            pieces=pieces, far_value=fv, far_radius=fr,
            breaks=tuple(sorted(breaks)),
            sup_bound=max([abs(v) for _, _, v in pieces] + [abs(fv)]),
            is_constant=not breaks, _segments=pieces + far)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        if self.far_radius is not None:
            out[np.abs(y) >= self.far_radius] = self.far_value
        for lo, hi, v in self.pieces:
            out[(y > lo) & (y < hi)] = v
        return out

    def segments(self) -> list[tuple[float, float, float]]:
        """The pieces, then the far part as (-inf, -far_radius, v) and
        (far_radius, inf, v): the (lo, hi, v) segments on which the
        function takes the value v."""
        return list(self._segments)

    def segments_in(self, intervals) -> list[tuple[float, float, float]]:
        """Nonzero segments clipped to the intervals, interval by interval."""
        return [(bot, top, v) for lo, hi in intervals
                for a, b, v in self._segments
                if v != 0.0 and a < hi and lo < b  # cheap tests first
                and (top := min(hi, b)) > (bot := max(lo, a))]


piecewise_constant = PointFunction


def piecewise_data(g) -> PointFunction:
    """g, if it is piecewise-constant data; else ConfigParseError, before
    any integral of a route to the Dirichlet problem."""
    if not isinstance(g, PointFunction):
        raise ConfigParseError(f"{g.label} is not piecewise-constant data")
    return g


def constant(c: float) -> PointFunction:
    c = float(c)
    return PointFunction((), far_value=c, far_radius=0.0, label=f"const({c:g})")


def indicator(lo: float, hi: float, label: str | None = None) -> PointFunction:
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise DomainViolation(f"empty indicator ({lo}, {hi})")
    return PointFunction(((lo, hi, 1.0),), label=label or f"chi({lo:g},{hi:g})")


# -- barriers ---------------------------------------------------------------

def barrier_w1(config: DisconnectedConfig) -> PointFunction:
    """Indicator of B_r(x2); the rough barrier."""
    x2 = float(config.x2[0])
    return indicator(x2 - config.r, x2 + config.r, label="w1")


@dataclass(frozen=True)
class SmoothCutoff:
    """The smooth barrier w2: a radial C^2 cutoff, 1 on B_{r/2}(center)
    and 0 outside B_r(center), with its joins as breaks.

    Profile q(t) = 1 - (6t^5 - 15t^4 + 10t^3) on t = clip(2|y-c|/r - 1, 0, 1);
    q' and q'' vanish at t = 0 and t = 1, so w2 is C^2 across the joins.
    Every construction, replace() included, checks the center and
    0 < r < inf and derives sup_bound = 1 and the documented
    hess_bound = 240 / r^2 >= |w2''| (sharp value ~23.09 / r^2).
    """

    center: float
    r: float

    def __post_init__(self):
        c, r = coordinate(self.center), float(self.r)
        if not 0.0 < r < np.inf:
            raise ConfigParseError(f"r must be positive and finite, got {r}")
        self.__dict__.update(
            center=c, r=r, sup_bound=1.0, hess_bound=240.0 / (r * r),
            breaks=(c - r, c - r / 2.0, c + r / 2.0, c + r), label="w2")

    def __call__(self, y):
        d = np.minimum(np.abs(np.asarray(y, dtype=float) - self.center),
                       self.r)  # 2d stays finite
        t = np.clip(2.0 * d / self.r - 1.0, 0.0, 1.0)
        return 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def barrier_w2(config: DisconnectedConfig) -> SmoothCutoff:
    """The smooth barrier on B_r(x1)."""
    return SmoothCutoff(config.x1[0], config.r)


# -- operator evaluation ----------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """A value with its error bound, as eval_L and poisson_extend report
    it: floats at a scalar x, arrays of x's shape at an array of points."""

    value: float
    error_bound: float

    @classmethod
    def of_rows(cls, rows: list, shape: tuple) -> "Estimate":
        """One estimate from per-point (value, error_bound) rows."""
        return cls(*(np.array(rows, dtype=float).reshape(-1, 2).T
                     .reshape(2, *shape) if shape else rows[0]))


def _far_distance(p, s: float, cap: float):
    """phi's inverse d(p), clipped at cap: no far-field node overflows."""
    return (2.0 * s * np.maximum(p, phi(cap, s))) ** (-0.5 / s)


def _smooth_power(s: float) -> int:
    """The least integer m that makes t^2 a power >= 2 of tau = t^((2-2s)/m)."""
    return int(np.ceil(2.0 - 2.0 * s))


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


def _piecewise_fractional_L(s: float, u: PointFunction, xs: list,
                            shape: tuple) -> Estimate:
    """L u at the points xs by the closed form of the module docstring.  The
    bound, (breaks + 8) eps times the sum of the terms' sizes, covers the
    rounding of every term and of their sum."""
    fin = np.array([b for b in u.breaks if np.isfinite(b)])
    with np.errstate(over="ignore"):
        dist = fin - np.array(xs)[:, None]
    gap = np.abs(dist)
    for x, d, over in zip(xs, gap.min(1, initial=np.inf), np.isinf(gap).any(1)):
        if not 0.5 * d >= 1.0 / MAX_TRUNCATION:
            raise DomainViolation(f"x = {x:g} sits on a break of {u.label}")
        if over:
            raise DomainViolation(f"x = {x:g} is too far out for {u.label}")
    # u(b-) - u(b+) at each break b
    jump = sum(v * (fin == hi) - v * (fin == lo) for lo, hi, v in u.segments())
    terms = 2.0 * np.sign(dist) * jump * phi(gap, s)
    # summed break by break, so that each point's bits are its own
    value, size = (sum(t.T, np.zeros(len(xs))) for t in (terms, abs(terms)))
    bound = (fin.size + 8) * np.finfo(float).eps * size
    return Estimate.of_rows(np.stack([value, bound], -1).tolist(), shape)


def eval_L(kernel: Kernel, u: PointFunction | SmoothCutoff, x,
           tol: float = DEFAULT_TOL) -> Estimate:
    """Lu(x) with its error bound.

    x is a float or an array of points, and the result's fields take its
    shape.  Set-up is array work: all points are checked, two calls of
    u give every Richardson stencil, and one integrate_many call runs all
    integrals; each point's numbers are those of a call at it alone.

    u's type picks the path.  Piecewise data need no near field, which is
    zero where u is locally constant, and under the fractional kernel are a
    closed form.  The smooth barrier takes the symmetrized near field, which
    needs a translation-invariant kernel (else UnsupportedKernel).  The far
    field runs to infinity in the tail-mass coordinate (see the module
    docstring) and stops at MAX_TRUNCATION: the bound adds to the
    quadrature's estimate a charge for that cap and, for piecewise u, one
    for the rounding of the breaks' positions in p (see the README).
    Raises DomainViolation for points the floats cannot resolve.
    """
    check_tol(tol)
    shape = np.shape(x)
    xs = np.ravel(np.asarray(x, dtype=float)).tolist()
    if not np.isfinite(xs).all():
        raise DomainViolation(f"eval_L needs finite points, got x = {x}")
    piecewise = isinstance(u, PointFunction)
    if piecewise and u.is_constant:
        return Estimate.of_rows([(0.0, 0.0)] * len(xs), shape)
    if piecewise and kernel.family == "fractional":
        return _piecewise_fractional_L(kernel.s, u, xs, shape)

    uxs = u(np.array(xs)).tolist()
    lam = kernel.lam
    if not piecewise and kernel.family == "general":
        raise UnsupportedKernel(
            "the symmetrized near field needs a translation-invariant kernel")
    m2 = None if piecewise else u.hess_bound
    s = kernel.s
    alpha = 1.0 / (2.0 - 2.0 * s)
    beta = _smooth_power(s) * alpha  # z = tau^beta on the near field's tail
    eps = np.finfo(float).eps

    def d2(x, ux, z):
        return 2.0 * ux - u(x + z) - u(x - z)

    # one job per integral, in the order a point's own call takes them:
    # (model mass,) near field, right and left far field
    NEAR, MASS2, RIGHT, LEFT = range(4)
    jobs, kinds, jx, jux, points, zlo = [], [], [], [], [], []
    for x, ux in zip(xs, uxs):
        # near field on (0, rho)
        if piecewise:
            # u is constant on (x - 2 rho, x + 2 rho); near field vanishes there
            rho = 0.5 * min((abs(b - x) for b in u.breaks), default=np.inf)
            near = None
            if not rho >= 1.0 / MAX_TRUNCATION:  # else phi(rho) overflows
                raise DomainViolation(f"x = {x:g} sits on a break of {u.label}")
        else:
            rho = 1.0
            z_floor = 64.0 * eps * max(1.0, abs(x))  # x + z must resolve z
            if not z_floor <= rho / 8.0:
                raise DomainViolation(f"x = {x:g} is too far out for {u.label}")
            # D2(z) in float64 carries cancellation noise ~4 eps sup|u| at any z,
            # while the true value decays like u''(x) z^2; below the crossover
            # scale pointwise evaluation is pure noise against a z^(-1-2s) weight
            # and no amount of panel splitting converges.  Cut the integral at a
            # reliability floor z_lo and cover (0, z_lo) with the quadratic model
            # c2 * int z^2 K(z) dz, c2 estimated by Richardson at safe scales.
            scale_u = max(abs(ux), u.sup_bound, 1.0)
            noise = 4.0 * eps * scale_u
            # the noise envelope noise*lam*z^(-1-2s) integrates beyond z to
            # noise*lam*alpha*w^(-expo)/expo, w = z^(2-2s); keep that under
            # tol/4 (a cut past rho = 1 is clamped below) and signal/noise >= 1e4
            expo = 2.0 * alpha - 1.0
            w_budget = min(noise * lam * alpha / (expo * 0.25 * tol),
                           1.0) ** (1.0 / expo)
            z_lo = max(w_budget ** alpha, 100.0 * np.sqrt(noise / m2))
            # a break within a few ulps of x is x's own join; flooring z_lo at
            # it would push the Richardson stencils into the cancellation noise
            near_join = 16.0 * eps * max(1.0, abs(x))
            zbreaks = sorted({abs(b - x) for b in u.breaks
                              if near_join < abs(b - x) < rho})
            if zbreaks:
                # keep both Richardson stencils inside one C^2 piece
                z_lo = min(z_lo, zbreaks[0] / 4.0)
            z_lo = max(min(z_lo, rho / 8.0), z_floor)
            zlo.append(z_lo)
            # the model mass is alpha times the factor's integral over
            # v = z^(2-2s) in (0, v_lo)
            v_lo = z_lo ** (2.0 - 2.0 * s)
            mass2 = None
            if kernel.family == "fractional":
                mass2 = v_lo / (2.0 - 2.0 * s)
            else:
                jobs.append((0.0, v_lo, tol))
                kinds.append(MASS2)
            jobs.append((z_lo ** (1.0 / beta), rho ** (1.0 / beta), tol,
                         [zb ** (1.0 / beta) for zb in zbreaks]))
            kinds.append(NEAR)
            near = (mass2, z_lo, scale_u)

        # far field 2 int_{|y-x| > rho} (u(x) - u(y)) k(x, y) dy: each half
        # in p = phi(|y - x|) on (0, phi(rho)), split where y meets a break
        where = f"the far field at x = {x:g}, distances ({rho:g}, inf)"
        for side in (1.0, -1.0):
            jobs.append((0.0, phi(rho, s), tol,
                         [phi(side * (b - x), s) for b in u.breaks
                          if side * (b - x) > rho], None, where))
        kinds += [RIGHT, LEFT]
        jx += [x] * (len(jobs) - len(jx))
        jux += [ux] * (len(jobs) - len(jux))
        # the clip's charge: twice the integrand's envelope on both halves;
        # piecewise u breaking within half the cap is u(x -+ cap) past it,
        # where only the factor is misread, and each break's p rounds by eps
        envelope = (abs(ux) + u.sup_bound) * lam
        clip = 8.0 * envelope * phi(MAX_TRUNCATION, s)
        if piecewise:
            dists = np.array([abs(b - x) for b in u.breaks])
            if dists.max() <= MAX_TRUNCATION / 2.0:
                ucap = u(np.array([x - MAX_TRUNCATION, x + MAX_TRUNCATION]))
                clip = 4.0 * lam * phi(MAX_TRUNCATION, s) * np.abs(ux - ucap).sum()
            clip += 4.0 * eps * envelope * phi(dists, s).sum()
        points.append((near, float(clip)))

    # the Richardson stencils of all points, once every point is checked
    a = [[None] * len(xs)] * 2
    if not piecewise:
        z, xa, uxa = np.array(zlo), np.array(xs), np.array(uxs)
        a = [(d2(xa, uxa, k * z) / (k * k * z * z)).tolist() for k in (1.0, 2.0)]
    jx, jux, kinds = np.array(jx), np.array(jux), np.array(kinds, dtype=int)
    jright = kinds == RIGHT

    def near_integrand(tau, j):
        z = tau ** beta
        clipped = np.clip(d2(jx[j], jux[j], z), -m2 * z * z, m2 * z * z)
        return clipped * kernel.eval_at_distance(z) * beta * tau ** (beta - 1.0)

    def model_mass(v, j):
        return alpha * kernel.factor(0.0, v ** alpha)

    def far(p, j):
        x, d = jx[j], _far_distance(p, s, MAX_TRUNCATION)
        side = np.where(jright[j], 1.0, -1.0)
        y = x + side * d
        # a y rounded onto a break goes to the side its distance d is on
        hit = np.isin(y, u.breaks)
        y[hit] = np.nextafter(y[hit], y[hit] + side[hit] * np.sign(
            d[hit] - side[hit] * (y[hit] - x[hit])))
        return (jux[j] - u(y)) * kernel.factor(x, y)

    # the far field's halves share one integrand
    results = iter(integrate_many(_by_kind(
        np.minimum(kinds, RIGHT), (near_integrand, model_mass, far)), jobs))
    out = []
    for (near, clip), a1, a2 in zip(points, *a):
        near_val, near_err = 0.0, 0.0
        if near is not None:
            mass2, z_lo, scale_u = near
            c2 = min(max((4.0 * a1 - a2) / 3.0, -m2), m2)
            mass2, mass2_err = next(results) if mass2 is None else (mass2, 0.0)
            tail_val, tail_err = next(results)
            model_slack = (abs(a1 - c2) + 16.0 * eps * scale_u
                           / (z_lo * z_lo)) * mass2
            # the symmetrized integrand collects the pair (x+z, x-z); the
            # operator carries an overall factor 2 on top of that
            near_val = 2.0 * (c2 * mass2 + tail_val)
            near_err = 2.0 * (tail_err + abs(c2) * mass2_err + model_slack)
        (r, er), (l, el) = next(results), next(results)
        out.append((near_val + 2.0 * (l + r), near_err + 2.0 * (el + er) + clip))
    return Estimate.of_rows(out, shape)


# -- nonlocal tail ----------------------------------------------------------

def segment_tail(segments, x0: float, r: float, s: float) -> float:
    """Tail(u; x0, r) = r^2s integral of |u(y)| |y-x0|^(-1-2s) over
    |y-x0| > r, in closed form for u = v on each (lo, hi) of the
    (lo, hi, v) segments (disjoint, ends may be infinite), zero elsewhere."""
    if not 2.0 * s * np.log(r) < np.log(np.finfo(float).max):
        raise DomainViolation(f"r^2s overflows at r = {r:g}, s = {s:g}")
    total = 0.0
    for lo, hi, v in segments:
        right = phi(max(lo - x0, r), s) - phi(max(hi - x0, r), s)
        left = phi(max(x0 - hi, r), s) - phi(max(x0 - lo, r), s)
        total += abs(v) * (right + left)
    return r ** (2.0 * s) * total
