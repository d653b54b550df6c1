"""Adaptive Gauss-Kronrod quadrature on vectorized integrands.

One nested G7/K15 rule per panel; a worst-panel-first heap drives dyadic
subdivision, which concentrates panels toward endpoint singularities.
All tolerances are absolute; callers rescale when they need relative
control.

An integrand takes a 1-d array of any number of nodes (the 15 of each of
P panels) and returns one value per node, or one row per node and one
column per component, shape (15 P, k).  All components share the panels,
and a panel's error is the largest of its components' estimates (as in
scipy.integrate.quad_vec with the max norm).  A node's value may depend
on the rest of the call only through an inner refinement shared by the
whole batch (a nested vector-valued integral), which can only sharpen it.

One call evaluates the initial panels, and each later call the halves of
a panel being split together with those of the next-worst panels that
the heap will split later unless the panel budget runs out first; the
panels split, and their order, are those of one call per panel.

integrate_many runs the heaps of many integrals (_refine) in lock-step,
one call of f per round on the panels of all of them; its f(x, j) also
receives each node's job index j, and integrate is its one-job case.  A
node's value may depend on its own job alone, which keeps every job's
result that of its own integrate call.  Every job runs to its end, and
the failure of the lowest-index failing job is raised.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, count

import numpy as np

from .errors import ConfigParseError, QuadratureFailure

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
# most heap entries split ahead of their turn in one call of f
MAX_LOOKAHEAD = 64
# QUADPACK's qk15 floors each panel estimate at 50 eps times the integral
# of |f|; resasc + |k15| bounds that integral from above, at no extra cost
_ROUNDING = 50.0 * np.finfo(float).eps


def gk_panel(f, a, b):
    """Integrate the panels (a, b) with one call of f on all their nodes;
    returns (K15 values, error estimates).

    a and b are floats or arrays of one shape, an entry per panel; the
    errors take that shape, and the values too, with a trailing axis of k
    components when f returns shape (15 P, k).  A panel's error is the
    largest of its component estimates, and no estimate falls below the
    rounding floor of the rule itself."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    width = b - a
    half = 0.5 * width
    x = (0.5 * (a + b))[..., None] + half[..., None] * NODES
    fx = np.asarray(f(x.ravel()), dtype=float)
    vec = fx.ndim == 2
    # one row of 15 nodes per panel, then one column per component
    fx = fx.reshape(x.shape + (fx.shape[1] if vec else 1,))
    half = half[..., None]
    k15 = half * (_WK @ fx)
    raw = np.abs(k15 - half * (_WG @ fx))
    dev = fx - (k15 / width[..., None])[..., None, :]
    resasc = half * (_WK @ np.abs(dev, out=dev))
    # the 1.5-power damping acts on the ratio to the variation resasc, not
    # on the raw difference; otherwise self-similar singular panels report
    # vanishing error and subdivision stops too early.  resasc == 0 means
    # one value at all 15 nodes, whose raw difference (the weights' sums
    # differ by 16 eps) stays under the floor: the damped 0 stands for it
    ratio = 200.0 * raw / (resasc + (resasc == 0.0))
    err = np.maximum(resasc * np.minimum(1.0, ratio ** 1.5),
                     _ROUNDING * (resasc + np.abs(k15)))
    if vec:
        return k15, err.max(axis=-1, initial=0.0)
    return k15[..., 0], err[..., 0]


def _geometric_points(a: float, b: float, per_decade: int = 4) -> list[float]:
    # seed points a * 10^(k/per_decade) inside (a, b); assumes 0 < a < b
    pts = []
    x = a
    ratio = 10.0 ** (1.0 / per_decade)
    while x * ratio < b:
        x *= ratio
        pts.append(x)
    return pts


def check_tol(tol: float) -> None:
    """ConfigParseError unless 0 < tol < inf, which NaN fails as well."""
    if not 0.0 < tol < np.inf:
        raise ConfigParseError(f"tol must be positive and finite, got {tol}")


def _refine(a: float, b: float, tol: float = DEFAULT_TOL, breaks=(),
            geometric_from: float | None = None, where: str | None = None):
    """The worst-panel-first heap of one integral (see integrate) as a
    generator: it yields the (lo, hi) edges of the panels it needs, is sent
    their (values, errors) as lists and returns (value, error)."""
    a = float(a)
    b = float(b)
    if not b > a:
        return 0.0, 0.0
    pts = [a] + sorted({float(p) for p in breaks if a < p < b}) + [b]
    if geometric_from is not None and b - a > 100.0 * geometric_from > 0.0:
        extra = [a + p for p in _geometric_points(geometric_from, b - a)]
        pts = sorted(set(pts) | {p for p in extra if a < p < b})
    vals, errs = yield pts[:-1], pts[1:]
    heap = []
    tie = count()
    total = 0.0
    total_err = 0.0
    for lo, hi, val, err in zip(pts[:-1], pts[1:], vals, errs):
        total += val
        total_err += err
        heapq.heappush(heap, (-err, next(tie), lo, hi, val))
    npanels = len(heap)
    cache = {}  # (lo, hi) of a heap entry -> its children's values, errors
    # once the worst estimate left is 0, what total_err holds above tol is
    # the residue of its own sums: no split can lower it
    while total_err > tol and npanels < MAX_PANELS and heap[0][0] < 0.0:
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at float resolution; accept its estimate as-is
            heapq.heappush(heap, (0.0, next(tie), lo, hi, val))
            total_err += neg_err  # removes this panel's err from the total
            continue
        if (lo, hi) not in cache:
            # split the next-worst entries in the same call of f, as many
            # as the errors ahead of them cannot bring the total under tol:
            # the heap splits each of them later, budget permitting
            room = total_err + neg_err - tol
            cap = min(MAX_LOOKAHEAD, MAX_PANELS - npanels - 1)
            ahead = []
            while heap and room > 0.0 and len(ahead) < cap:
                ahead.append(heapq.heappop(heap))
                room += ahead[-1][0]
            for entry in ahead:  # the pop order rests on (err, tie) alone
                heapq.heappush(heap, entry)
            split = [(lo, hi)] + [(u, v) for _, _, u, v, _ in ahead
                                  if (u, v) not in cache
                                  and u < 0.5 * (u + v) < v]
            # the two halves of each split panel, left then right
            vals, errs = yield tuple(zip(*[h for u, v in split for h in (
                (u, 0.5 * (u + v)), (0.5 * (u + v), v))]))
            cache.update(zip(split, zip(zip(vals[::2], vals[1::2]),
                                        zip(errs[::2], errs[1::2]))))
        (v1, v2), (e1, e2) = cache.pop((lo, hi))
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
                f"no convergence on {where or f'({a:g}, {b:g})'}: error "
                f"{total_err:.2e} > tol {tol:.2e} after {npanels} panels"
            )
    return total, total_err


def integrate_many(f, jobs) -> list[tuple[float | np.ndarray, float]]:
    """Adaptive integrals of f over many jobs, each a tuple of _refine's
    (a, b, tol, breaks, geometric_from, where), the last three optional.

    f(x, j) takes the nodes x and each node's job index j.  The jobs run
    in lock-step: every round is one gk_panel call on the panels that all
    jobs still pending need.  Returns one (value, error) per job, the one
    integrate gives it alone.  Every job runs to its end; when jobs fail,
    the QuadratureFailure of the lowest-index one is raised.
    """
    runs = [_refine(*job) for job in jobs]
    out = [None] * len(runs)
    want = {}  # job index -> the panel edges it waits for

    def step(i, sent):
        try:
            want[i] = runs[i].send(sent)
            return
        except StopIteration as stop:
            out[i] = stop.value
        except QuadratureFailure as exc:
            out[i] = exc
        want.pop(i, None)

    for i in range(len(runs)):
        step(i, None)
    while want:
        idx = list(want)
        sizes = [len(want[i][0]) for i in idx]
        owner = np.array(idx).repeat([len(NODES) * n for n in sizes])
        vals, errs = gk_panel(lambda x: f(x, owner), *(
            [e for i in idx for e in want[i][k]] for k in (0, 1)))
        # lists over the panels: floats, or a vector-valued f's components
        vals = vals.tolist() if vals.ndim == errs.ndim else list(vals)
        errs = errs.tolist()
        for i, end, n in zip(idx, accumulate(sizes), sizes):
            step(i, (vals[end - n:end], errs[end - n:end]))
    for res in out:
        if isinstance(res, QuadratureFailure):
            raise res
    return out


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
    return integrate_many(lambda x, j: f(x),
                          [(a, b, tol, breaks, geometric_from)])[0]
