"""Adaptive Gauss-Kronrod quadrature on vectorized integrands.

One nested G7/K15 rule per panel; a worst-panel-first heap drives dyadic
subdivision, which concentrates panels toward endpoint singularities.
Integrands must accept and return numpy arrays.  All tolerances are
absolute; callers rescale when they need relative control.

An integrand may be vector-valued: given the 15 nodes of a panel it
returns one column per component, shape (15, k).  All components share
the panels, and a panel's error is the largest of its components'
estimates (as in scipy.integrate.quad_vec with the max norm).
"""

from __future__ import annotations

import heapq
from itertools import count

import numpy as np

from .errors import QuadratureFailure

# K15 nodes on [-1, 1] (positive half) with Kronrod weights; the embedded
# G7 rule lives on nodes 1, 3, 5, 7 with its own weights.
_K15_NODES = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_K15_WEIGHTS = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_G7_WEIGHTS = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

NODES = np.concatenate([-_K15_NODES[:-1], _K15_NODES[::-1]])  # ascending, 15 nodes
_WK = np.concatenate([_K15_WEIGHTS[:-1], _K15_WEIGHTS[::-1]])
_WG = np.zeros(15)
_WG[1:15:2] = np.concatenate([_G7_WEIGHTS[:-1], _G7_WEIGHTS[::-1]])

DEFAULT_TOL = 1e-9
MAX_PANELS = 4000
# QUADPACK's qk15 floors each panel estimate at 50 eps times the integral
# of |f|; resasc + |k15| bounds that integral from above, at no extra cost
_ROUNDING = 50.0 * np.finfo(float).eps


def gk_panel(f, a: float, b: float):
    """Integrate one panel; returns (K15 value, error estimate).

    The value is a float, or an array of k components when f returns
    shape (15, k); the error is then the largest component estimate.
    No estimate falls below the rounding floor of the rule itself."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * NODES), dtype=float)
    if fx.ndim == 2:
        return _gk_panel_vec(fx, half, b - a)
    k15 = half * float(fx @ _WK)
    g7 = half * float(fx @ _WG)
    raw = abs(k15 - g7)
    # the 1.5-power damping acts on the ratio to the variation resasc, not
    # on the raw difference; otherwise self-similar singular panels report
    # vanishing error and subdivision stops too early
    resasc = half * float(np.abs(fx - k15 / (b - a)) @ _WK)
    floor = _ROUNDING * (resasc + abs(k15))
    if resasc > 0.0 and raw > 0.0:
        return k15, max(resasc * min(1.0, (200.0 * raw / resasc) ** 1.5), floor)
    return k15, max(raw, floor)


def _gk_panel_vec(fx: np.ndarray, half: float, width: float):
    """gk_panel's rule and damped estimate applied to every column of fx."""
    k15 = half * (_WK @ fx)
    raw = np.abs(k15 - half * (_WG @ fx))
    resasc = half * (_WK @ np.abs(fx - k15 / width))
    # raw == 0 damps to 0 == raw, so resasc > 0 alone selects the damping
    pos = resasc > 0.0
    ratio = np.divide(200.0 * raw, resasc, out=np.zeros_like(raw), where=pos)
    err = np.where(pos, resasc * np.minimum(1.0, ratio ** 1.5), raw)
    err = np.maximum(err, _ROUNDING * (resasc + np.abs(k15)))
    return k15, float(err.max(initial=0.0))


def _geometric_points(a: float, b: float, per_decade: int = 4) -> list[float]:
    # seed points a * 10^(k/per_decade) inside (a, b); assumes 0 < a < b
    pts = []
    x = a
    ratio = 10.0 ** (1.0 / per_decade)
    while x * ratio < b:
        x *= ratio
        pts.append(x)
    return pts


def integrate(f, a: float, b: float, tol: float = DEFAULT_TOL,
              breaks=(), geometric_from: float | None = None,
              ) -> tuple[float | np.ndarray, float]:
    """Adaptive integral of f over (a, b), scalar or vector-valued.

    breaks: interior points where panels must not straddle (kinks,
    support edges).  geometric_from: seed log-spaced panels starting at
    this positive offset from a (for integrands decaying over many
    decades); ignored when the span is small.

    Returns (value, error_estimate), the value an array of components
    for a vector-valued f (the estimate bounds each of them); raises
    QuadratureFailure when the panel budget is exhausted with the
    estimate still above tolerance after MAX_PANELS panels.  An empty
    interval gives (0.0, 0.0) without calling f.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        return 0.0, 0.0
    pts = [a] + sorted({float(p) for p in breaks if a < p < b}) + [b]
    if geometric_from is not None and b - a > 100.0 * geometric_from > 0.0:
        extra = [a + p for p in _geometric_points(geometric_from, b - a)]
        pts = sorted(set(pts) | {p for p in extra if a < p < b})
    heap = []
    tie = count()
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = gk_panel(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, next(tie), lo, hi, val))
    npanels = len(heap)
    while total_err > tol and npanels < MAX_PANELS:
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at float resolution; accept its estimate as-is
            heapq.heappush(heap, (0.0, next(tie), lo, hi, val))
            total_err += neg_err  # removes this panel's err from the total
            continue
        v1, e1 = gk_panel(f, lo, mid)
        v2, e2 = gk_panel(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, next(tie), lo, mid, v1))
        heapq.heappush(heap, (-e2, next(tie), mid, hi, v2))
        npanels += 1
    if total_err > tol and npanels >= MAX_PANELS:
        # the largest absolute component scales the relative floor
        scale = float(np.max(np.abs(total), initial=0.0))
        if not total_err <= 1e-12 * max(1.0, scale):
            raise QuadratureFailure(
                f"no convergence on ({a:g}, {b:g}): error {total_err:.2e} > tol {tol:.2e} "
                f"after {npanels} panels"
            )
    return total, total_err

