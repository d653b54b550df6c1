"""Pointwise operator evaluation, nonlocal tails, and barrier functions.

Lu(x) = 2 p.v. integral of (u(x) - u(y)) k(x, y) dy.  For translation-
invariant kernels the principal value is computed in symmetrized form,

    near field = integral over (0, rho) of D2(z) K(z) dz,
    D2(z) = 2u(x) - u(x+z) - u(x-z),

which is absolutely convergent for C^2 functions (|D2| <= |u''| z^2).  The
far field is integrated directly and the truncation tail beyond T is
bounded analytically from the declared growth class and the kernel's
ellipticity envelope; the bound is reported, never dropped.

PointFunction carries the structural facts the quadrature needs: breaks
(panels never straddle them), an optional piecewise-constant description
(makes tails exact), a global bound on u'' for the cancellation guard, and
the growth envelope |u(y)| <= A (1 + |y|)^p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainViolation, NonIntegrableTail, UnsupportedKernel
from .geometry import DisconnectedConfig
from .kernel import Kernel
from .quadrature import DEFAULT_TOL, integrate

GROWTH_CLASSES = ("bounded", "tail-integrable")


@dataclass(frozen=True)
class PointFunction:
    """A pure function R -> R with declared structure (n = 1).

    Exactly one evaluation semantic: `fn` (vectorized).  pieces/far_value
    describe piecewise-constant functions exactly: value v on each open
    (lo, hi), far_value for |y| >= far_radius, zero elsewhere.  Functions
    that are not piecewise constant leave pieces empty and far_radius None.
    """

    fn: Callable
    growth: str = "bounded"
    sup_bound: float | None = None
    envelope: tuple | None = None  # (A, p): |u(y)| <= A (1 + |y|)^p
    support: tuple | None = None  # (lo, hi), u vanishes outside
    pieces: tuple = ()  # ((lo, hi, value), ...), disjoint
    far_value: float = 0.0
    far_radius: float | None = None  # None: no far part (far_value must be 0)
    breaks: tuple = ()
    hess_bound: float | None = None  # global sup |u''| where defined
    d2_zero: bool = False  # second difference vanishes identically
    smooth: bool = False  # C^2 on all of R
    parts: tuple = ()  # ((coef, PointFunction), ...) for linear combos
    label: str = "u"

    def __post_init__(self):
        if self.growth not in GROWTH_CLASSES:
            raise DomainViolation(f"unknown growth class {self.growth!r}")
        if self.far_radius is None and self.far_value != 0.0:
            raise DomainViolation("far_value without far_radius")

    def __call__(self, y):
        return self.fn(np.asarray(y, dtype=float))

    @property
    def piecewise(self) -> bool:
        return bool(self.pieces) or self.far_radius is not None

    @property
    def is_constant(self) -> bool:
        return not self.pieces and self.far_radius == 0.0

    def tail_envelope(self) -> tuple[float, float]:
        """(A, p) with |u(y)| <= A (1 + |y|)^p; falls back to sup_bound."""
        if self.envelope is not None:
            return float(self.envelope[0]), float(self.envelope[1])
        if self.sup_bound is not None:
            return float(self.sup_bound), 0.0
        if self.parts:
            amps, pows = zip(*(pf.tail_envelope() for _, pf in self.parts))
            coefs = [abs(c) for c, _ in self.parts]
            p = max(pows)
            return sum(c * a for c, a in zip(coefs, amps)), p
        raise NonIntegrableTail(f"{self.label}: no growth envelope declared")

    def dist_to_break(self, x: float) -> float:
        """Distance from x to the nearest structural break (inf if none)."""
        pts = list(self.breaks)
        if self.support is not None:
            pts += list(self.support)
        if self.far_radius:
            pts += [-self.far_radius, self.far_radius]
        if not pts:
            return np.inf
        return float(np.min(np.abs(np.asarray(pts) - x)))

    def negative_part(self) -> "PointFunction":
        """u_- = max(-u, 0), preserving structure."""
        if self.piecewise and not self.parts:
            return piecewise_constant(
                [(lo, hi, max(-v, 0.0)) for lo, hi, v in self.pieces],
                far_value=max(-self.far_value, 0.0),
                far_radius=self.far_radius,
                label=f"({self.label})_-",
            )
        base = self

        def neg(y):
            return np.maximum(-base.fn(np.asarray(y, dtype=float)), 0.0)

        amp, p = self.tail_envelope()
        return PointFunction(
            fn=neg, growth=self.growth, sup_bound=self.sup_bound,
            envelope=(amp, p), support=self.support, breaks=self.breaks,
            label=f"({self.label})_-",
        )

    def __add__(self, other: "PointFunction") -> "PointFunction":
        return combine([(1.0, self), (1.0, other)])

    def __rmul__(self, c: float) -> "PointFunction":
        return combine([(float(c), self)])

    __mul__ = __rmul__


def combine(terms) -> "PointFunction":
    """Linear combination sum(c_i * u_i) as a PointFunction."""
    terms = tuple((float(c), u) for c, u in terms)
    flat = []
    for c, u in terms:
        if u.parts:
            flat.extend((c * ci, ui) for ci, ui in u.parts)
        else:
            flat.append((c, u))
    flat = tuple(flat)

    def fn(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for c, u in flat:
            out += c * u.fn(y)
        return out

    sup = None
    if all(u.sup_bound is not None for _, u in flat):
        sup = sum(abs(c) * u.sup_bound for c, u in flat)
    breaks = tuple(sorted({b for _, u in flat for b in u.breaks}
                          | {e for _, u in flat if u.support for e in u.support}))
    hess = None
    if all(u.hess_bound is not None for _, u in flat):
        hess = sum(abs(c) * u.hess_bound for c, u in flat)
    supports = [u.support for _, u in flat]
    support = None
    if all(sp is not None for sp in supports):
        support = (min(sp[0] for sp in supports), max(sp[1] for sp in supports))
    return PointFunction(
        fn=fn,
        growth="bounded" if all(u.growth == "bounded" for _, u in flat) else "tail-integrable",
        sup_bound=sup,
        support=support,
        breaks=breaks,
        hess_bound=hess,
        d2_zero=all(u.d2_zero for _, u in flat),
        smooth=all(u.smooth for _, u in flat),
        parts=flat,
        label=" + ".join(f"{c:g}*{u.label}" for c, u in flat),
    )


def constant(c: float) -> PointFunction:
    c = float(c)
    return PointFunction(
        fn=lambda y: np.full_like(np.asarray(y, dtype=float), c),
        sup_bound=abs(c), far_value=c, far_radius=0.0,
        hess_bound=0.0, d2_zero=True, smooth=True, label=f"const({c:g})",
    )


def indicator(lo: float, hi: float, label: str | None = None) -> PointFunction:
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise DomainViolation(f"empty indicator ({lo}, {hi})")

    def fn(y):
        y = np.asarray(y, dtype=float)
        return ((y > lo) & (y < hi)).astype(float)

    return PointFunction(
        fn=fn, sup_bound=1.0, support=(lo, hi), pieces=((lo, hi, 1.0),),
        breaks=(lo, hi), label=label or f"chi({lo:g},{hi:g})",
    )


def piecewise_constant(pieces, far_value: float = 0.0,
                       far_radius: float | None = None,
                       label: str = "pw") -> PointFunction:
    pieces = tuple(sorted((float(lo), float(hi), float(v)) for lo, hi, v in pieces))
    for (l0, h0, _), (l1, h1, _) in zip(pieces, pieces[1:]):
        if l1 < h0 - 1e-15:
            raise DomainViolation(f"overlapping pieces ({l0},{h0}) and ({l1},{h1})")
    if far_value != 0.0 and far_radius is None:
        raise DomainViolation("far_value needs far_radius")
    if far_radius is not None and far_radius > 0:
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
    support = None
    if far_value == 0.0 and pieces:
        support = (pieces[0][0], max(hi for _, hi, _ in pieces))
    return PointFunction(
        fn=fn, sup_bound=max(vals), support=support, pieces=pieces,
        far_value=float(far_value), far_radius=far_radius,
        breaks=tuple(brk), label=label,
    )


def affine(a: float, b: float) -> PointFunction:
    a, b = float(a), float(b)

    def fn(y):
        return a + b * np.asarray(y, dtype=float)

    return PointFunction(
        fn=fn, growth="tail-integrable" if b != 0.0 else "bounded",
        sup_bound=abs(a) if b == 0.0 else None,
        envelope=(abs(a) + abs(b), 1.0 if b != 0.0 else 0.0),
        hess_bound=0.0, d2_zero=True, smooth=True, label=f"{a:g}+{b:g}x",
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
        hess_bound=W2_HESS_CONSTANT / (r * r), smooth=True, label="w2",
    )


# -- operator evaluation ----------------------------------------------------

@dataclass(frozen=True)
class LEvalResult:
    value: float
    error_bound: float  # quadrature estimate + truncation remainder
    remainder_bound: float
    truncation_radius: float

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class TailResult:
    value: float
    remainder_bound: float
    truncation_radius: float


def _tail_remainder(amp: float, p: float, s: float, center: float, T: float) -> float:
    """Bound on integral of A(1+|y|)^p |y-c|^(-1-2s) over |y-c| > T."""
    if amp == 0.0:
        return 0.0
    if p >= 2.0 * s:
        return np.inf
    # (1+|y|) <= rho * (1 + (1+|c|)/T) for rho = |y-c| >= T >= 1
    fudge = (1.0 + (1.0 + abs(center)) / max(T, 1.0)) ** p if p > 0 else 1.0
    return amp * fudge * 2.0 * T ** (p - 2.0 * s) / (2.0 * s - p)


def _far_remainder(kernel: Kernel, u: PointFunction, x: float, T: float) -> float:
    """Analytic bound on |2 int_{|y-x|>T} (u(x) - u(y)) k dy|."""
    amp, p = u.tail_envelope()
    env = kernel.upper_envelope()
    ux = abs(float(u(np.array([x]))[0]))
    return 2.0 * env * (ux * 2.0 * T ** (-2.0 * kernel.s) / (2.0 * kernel.s)
                        + _tail_remainder(amp, p, kernel.s, x, T))


def _far_truncation(kernel: Kernel, u: PointFunction, x: float,
                    tol: float) -> tuple[float, float]:
    """Truncation radius making the analytic far remainder of Lu small."""
    amp, p = u.tail_envelope()
    if p >= 2.0 * kernel.s:
        raise NonIntegrableTail(
            f"{u.label}: envelope power {p} >= 2s = {2 * kernel.s:g}"
        )
    T = 1e4 * max(1.0, abs(x))
    while True:
        rem = _far_remainder(kernel, u, x, T)
        if rem <= tol or T > 1e150:
            return T, rem
        T *= 10.0


def eval_L(kernel: Kernel, u: PointFunction, x: float,
           near_radius: float | None = None,
           far_radius: float | None = None,
           tol: float = DEFAULT_TOL) -> LEvalResult:
    """Lu(x) with error estimate and analytic truncation remainder.

    Translation-invariant kernels use the symmetrized near field (valid for
    C^2 functions and exactly zero where u is locally constant); general
    kernels require u locally constant near x.  Raises UnsupportedKernel
    when no valid path exists and NonIntegrableTail when the declared
    growth cannot pair with the kernel order.
    """
    x = float(x)
    if u.parts:
        vals = [(c, eval_L(kernel, ui, x, near_radius, far_radius, tol))
                for c, ui in u.parts]
        return LEvalResult(
            value=sum(c * r.value for c, r in vals),
            error_bound=sum(abs(c) * r.error_bound for c, r in vals),
            remainder_bound=sum(abs(c) * r.remainder_bound for c, r in vals),
            truncation_radius=max(r.truncation_radius for _, r in vals),
        )
    if u.is_constant:
        return LEvalResult(0.0, 0.0, 0.0, np.inf)
    if u.d2_zero and kernel.translation_invariant:
        # symmetrized principal value of an affine function vanishes
        return LEvalResult(0.0, 0.0, 0.0, np.inf)

    ux = float(u(np.array([x]))[0])
    if far_radius is not None:
        amp, p = u.tail_envelope()
        if p >= 2.0 * kernel.s:
            raise NonIntegrableTail(
                f"{u.label}: envelope power {p} >= 2s = {2 * kernel.s:g}")
        T = float(far_radius)
        remainder = _far_remainder(kernel, u, x, T)
    else:
        T, remainder = _far_truncation(kernel, u, x, tol)

    # near field on (0, rho)
    if u.piecewise:
        # u is constant on (x - dbreak, x + dbreak); near field vanishes there
        dbreak = u.dist_to_break(x)
        if dbreak == 0.0:
            raise DomainViolation(f"x = {x:g} sits on a break of {u.label}")
        rho = 0.5 * dbreak
        if near_radius is not None:
            if near_radius > dbreak:
                raise DomainViolation(
                    f"near_radius {near_radius:g} reaches a break of {u.label}")
            rho = float(near_radius)
        near_val, near_err = 0.0, 0.0
    elif u.smooth:
        if not kernel.translation_invariant:
            raise UnsupportedKernel(
                "the symmetrized near field needs a translation-invariant kernel")
        if u.hess_bound is None:
            raise UnsupportedKernel(f"{u.label}: smooth path needs hess_bound")
        rho = float(near_radius) if near_radius is not None else 1.0
        m2 = u.hess_bound
        alpha = 1.0 / (2.0 - 2.0 * kernel.s)

        def d2_at(z):
            z = np.asarray(z, dtype=float)
            return 2.0 * ux - u.fn(x + z) - u.fn(x - z)

        # D2(z) in float64 carries cancellation noise ~4 eps sup|u| at any z,
        # while the true value decays like u''(x) z^2; below the crossover
        # scale pointwise evaluation is pure noise against a z^(-1-2s) weight
        # and no amount of panel splitting converges.  Cut the integral at a
        # reliability floor z_lo and cover (0, z_lo) with the quadratic model
        # c2 * int z^2 K(z) dz, c2 estimated by Richardson at safe scales.
        scale_u = max(abs(ux), u.sup_bound or 0.0, 1.0)
        noise = 4.0 * np.finfo(float).eps * scale_u
        # in tau the noise envelope is noise*env*alpha*tau^(-2 alpha); keep
        # its integral beyond the cut under tol/4, and keep the cut itself
        # where signal/noise >= 1e4
        expo = 2.0 * alpha - 1.0
        tau_budget = (noise * kernel.upper_envelope() * alpha
                      / (expo * 0.25 * tol)) ** (1.0 / expo)
        z_lo = max(tau_budget ** alpha, 100.0 * np.sqrt(noise / m2))
        # a break within a few ulps of x is x's own join; flooring z_lo at
        # it would push the Richardson stencils into the cancellation noise
        near_join = 16.0 * np.finfo(float).eps * max(1.0, abs(x))
        zbreaks = sorted({abs(b - x) for b in u.breaks if near_join < abs(b - x) < rho})
        if zbreaks:
            # keep both Richardson stencils inside one C^2 piece
            z_lo = min(z_lo, zbreaks[0] / 4.0)
        z_lo = max(min(z_lo, rho / 8.0), 64.0 * np.finfo(float).eps * max(1.0, abs(x)))
        a1 = float(d2_at(np.array([z_lo]))[0]) / (z_lo * z_lo)
        a2 = float(d2_at(np.array([2.0 * z_lo]))[0]) / (4.0 * z_lo * z_lo)
        c2 = min(max((4.0 * a1 - a2) / 3.0, -m2), m2)
        if kernel.family == "fractional":
            mass2 = kernel.upper_envelope() / kernel.lam \
                * z_lo ** (2.0 - 2.0 * kernel.s) / (2.0 - 2.0 * kernel.s)
            mass2_err = 0.0
        else:
            def weighted(z):
                z = np.asarray(z, dtype=float)
                return z * z * kernel.eval_at_distance(z)

            mass2, mass2_err = integrate(weighted, 0.0, z_lo, tol=tol)
        model_slack = (abs(a1 - c2) + 16.0 * np.finfo(float).eps * scale_u
                       / (z_lo * z_lo)) * mass2

        def near_integrand(tau):
            tau = np.asarray(tau, dtype=float)
            z = tau ** alpha
            d2 = np.clip(d2_at(z), -m2 * z * z, m2 * z * z)
            return d2 * kernel.eval_at_distance(z) * alpha * tau ** (alpha - 1.0)

        tbreaks = [zb ** (1.0 / alpha) for zb in zbreaks]
        tail_val, tail_err = integrate(near_integrand, z_lo ** (1.0 / alpha),
                                       rho ** (1.0 / alpha), tol=tol, breaks=tbreaks)
        # the symmetrized integrand collects the pair (x+z, x-z); the
        # operator carries an overall factor 2 on top of that
        near_val = 2.0 * (c2 * mass2 + tail_val)
        near_err = 2.0 * (tail_err + abs(c2) * mass2_err + model_slack)
    else:
        raise DomainViolation(
            f"{u.label} is neither piecewise constant nor declared smooth near x")

    # far field 2 int_{rho < |y-x| < T} (u(x) - u(y)) k(x, y) dy
    def far_right(y):
        y = np.asarray(y, dtype=float)
        return (ux - u.fn(y)) * kernel.eval_pairs(np.full_like(y, x), y)

    def far_left(rho_arr):
        y = x - np.asarray(rho_arr, dtype=float)
        return (ux - u.fn(y)) * kernel.eval_pairs(np.full_like(y, x), y)

    brk = [b for b in u.breaks]
    right, er = integrate(far_right, x + rho, x + T, tol=tol,
                          breaks=[b for b in brk if x + rho < b < x + T],
                          geometric_from=rho)
    left, el = integrate(far_left, rho, T, tol=tol,
                         breaks=[x - b for b in brk if x - T < b < x - rho],
                         geometric_from=rho)
    far_val = 2.0 * (left + right)
    far_err = 2.0 * (el + er)
    return LEvalResult(
        value=near_val + far_val,
        error_bound=near_err + far_err + remainder,
        remainder_bound=remainder,
        truncation_radius=T,
    )


# -- nonlocal tail ----------------------------------------------------------

def _power_mass(a: float, b: float, s: float) -> float:
    """integral of rho^(-1-2s) over (a, b), 0 < a <= b <= inf."""
    if b <= a:
        return 0.0
    out = a ** (-2.0 * s) / (2.0 * s)
    if np.isfinite(b):
        out -= b ** (-2.0 * s) / (2.0 * s)
    return out


def _piecewise_tail(u: PointFunction, x0: float, r: float, s: float) -> float:
    total = 0.0
    for lo, hi, v in u.pieces:
        right = _power_mass(max(lo - x0, r), max(hi - x0, r), s)
        left = _power_mass(max(x0 - hi, r), max(x0 - lo, r), s)
        total += abs(v) * (right + left)
    if u.far_radius is not None and u.far_value != 0.0:
        fr = u.far_radius
        total += abs(u.far_value) * (_power_mass(max(fr - x0, r), np.inf, s)
                                     + _power_mass(max(x0 + fr, r), np.inf, s))
    return r ** (2.0 * s) * total


def tail(u: PointFunction, x0: float, r: float, s: float,
         truncation: float | None = None,
         tol: float = DEFAULT_TOL) -> TailResult:
    """Tail(u; x0, r) = r^2s integral of |u(y)| |y-x0|^(-1-2s) over |y-x0| > r.

    Piecewise-constant functions integrate in closed form (zero remainder);
    callables integrate adaptively to the truncation radius with the
    envelope remainder reported.
    """
    x0 = float(x0)
    r = float(r)
    if not r > 0:
        raise DomainViolation(f"tail needs r > 0, got {r}")
    amp, p = u.tail_envelope()
    if p >= 2.0 * s:
        raise NonIntegrableTail(f"{u.label}: envelope power {p} >= 2s = {2 * s:g}")
    if u.piecewise and not u.parts:
        return TailResult(value=_piecewise_tail(u, x0, r, s),
                          remainder_bound=0.0, truncation_radius=np.inf)

    T = float(truncation) if truncation is not None else 1e4 * r
    if truncation is None:
        # grow until the envelope remainder respects the tolerance
        while r ** (2.0 * s) * _tail_remainder(amp, p, s, x0, T) > tol and T < 1e150:
            T *= 10.0
    if T <= r:
        raise DomainViolation(f"truncation {T:g} must exceed r = {r:g}")

    def right_integrand(y):
        y = np.asarray(y, dtype=float)
        return np.abs(u.fn(y)) * np.abs(y - x0) ** (-1.0 - 2.0 * s)

    def left_integrand(rho_arr):
        rho_arr = np.asarray(rho_arr, dtype=float)
        return np.abs(u.fn(x0 - rho_arr)) * rho_arr ** (-1.0 - 2.0 * s)

    brk = [b for b in u.breaks]
    right, er = integrate(right_integrand, x0 + r, x0 + T, tol=tol,
                          breaks=[b for b in brk if x0 + r < b < x0 + T],
                          geometric_from=r)
    left, el = integrate(left_integrand, r, T, tol=tol,
                         breaks=[x0 - b for b in brk if x0 - T < b < x0 - r],
                         geometric_from=r)
    value = r ** (2.0 * s) * (left + right)
    rem = r ** (2.0 * s) * _tail_remainder(amp, p, s, x0, T) + er + el
    return TailResult(value=value, remainder_bound=rem, truncation_radius=T)
