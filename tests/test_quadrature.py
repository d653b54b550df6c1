import heapq
import signal
from itertools import count

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec

from nonlocal_lab import quadrature
from nonlocal_lab.errors import QuadratureFailure
from nonlocal_lab.quadrature import gk_panel, integrate, integrate_many


class TestPanels:
    def test_polynomial_exact(self):
        # K15 is exact through degree 22
        val, err = gk_panel(lambda x: x ** 2, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert err < 1e-14

    def test_fixed_ladder_matches_adaptive(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        edges = np.linspace(0, 5, 21)
        v1 = sum(gk_panel(f, lo, hi)[0]
                 for lo, hi in zip(edges[:-1], edges[1:]))
        v2, _ = integrate(f, 0, 5, tol=1e-12)
        assert v1 == pytest.approx(v2, abs=1e-10)


class TestAdaptive:
    def test_endpoint_singularity(self):
        val, err = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-10)
        assert val == pytest.approx(2.0, abs=5e-9)

    def test_kink_with_declared_break(self):
        f = lambda x: np.abs(x - 1.0 / 3.0)
        val, _ = integrate(f, 0.0, 1.0, tol=1e-12, breaks=[1.0 / 3.0])
        assert val == pytest.approx(5.0 / 18.0, rel=1e-12)

    def test_repeated_break_opens_no_empty_panel(self):
        f = lambda x: np.abs(x - 0.5)
        val, _ = integrate(f, 0.0, 1.0, tol=1e-12, breaks=[0.5, 0.5])
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_long_decaying_tail_with_geometric_seed(self):
        # integral of x^(-3/2) from 1 to 1e12
        val, _ = integrate(lambda x: x ** -1.5, 1.0, 1e12,
                           tol=1e-10, geometric_from=1.0)
        assert val == pytest.approx(2.0 * (1.0 - 1e-6), rel=1e-9)

    def test_panel_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
        with pytest.raises(QuadratureFailure):
            integrate(lambda x: 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0,
                      tol=1e-14)

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: np.cos(7.0 * x) * np.exp(x / 3.0), -2.0, 3.0),
        (lambda x: 1.0 / (1.0 + x ** 2), -10.0, 10.0),
        (lambda x: x ** 0.3 * np.log(x + 1e-300), 0.0, 2.0),
    ])
    def test_against_library_oracle(self, f, a, b):
        ours, _ = integrate(f, a, b, tol=1e-11)
        ref, _ = quad(f, a, b, limit=200)
        assert ours == pytest.approx(ref, abs=5e-9)

    def test_empty_interval_is_zero(self):
        assert integrate(lambda x: x, 1.0, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("shift", [2.98, 0.5, 10.0])
    def test_estimate_covers_rounding(self, shift):
        # a smooth integrand the rule resolves to the last bit: the damped
        # estimate alone (2.8e-17 at shift 2.98) undercuts the rounding
        # error of the sum (6.1e-16); the 50 eps floor of qk15 covers it
        val, err = integrate(lambda y: (y + shift) ** -1.5, 1.0, 3.0)
        exact = 2.0 * ((1.0 + shift) ** -0.5 - (3.0 + shift) ** -0.5)
        assert abs(val - exact) <= err
        assert err >= 50.0 * np.finfo(float).eps * exact


def smooth3(x):
    return np.stack([np.cos(7.0 * x) * np.exp(x / 3.0),
                     1.0 / (1.0 + x ** 2), x ** 3], axis=1)


def singular3(x):
    return np.stack([1.0 / np.sqrt(x), x ** 0.3 * np.log(x), np.exp(-x)],
                    axis=1)


class TestVectorValued:
    """Shared panels for integrands returning one column per component."""

    @pytest.mark.parametrize("f,a,b", [(smooth3, -2.0, 3.0),
                                       (singular3, 0.0, 1.0)],
                             ids=["smooth", "endpoint-singular"])
    def test_against_quad_vec(self, f, a, b):
        ours, err = integrate(f, a, b, tol=1e-11)
        assert ours.shape == (3,)
        ref, _ = quad_vec(lambda x: f(np.array([x]))[0], a, b,
                          epsabs=1e-12, epsrel=0.0, norm="max", limit=2000)
        np.testing.assert_allclose(ours, ref, rtol=0.0, atol=5e-9)
        assert err <= 1e-11

    @pytest.mark.parametrize("f,a,b", [(smooth3, -2.0, 3.0),
                                       (singular3, 0.0, 1.0)],
                             ids=["smooth", "endpoint-singular"])
    def test_components_match_scalar_integrate(self, f, a, b):
        tol = 1e-10
        ours, _ = integrate(f, a, b, tol=tol)
        for c in range(3):
            scalar, _ = integrate(lambda x: f(x)[:, c], a, b, tol=tol)
            assert abs(ours[c] - scalar) <= tol

    def test_panel_error_is_largest_component(self):
        val, err = gk_panel(smooth3, 0.0, 2.0)
        parts = [gk_panel(lambda x: smooth3(x)[:, c], 0.0, 2.0)
                 for c in range(3)]
        np.testing.assert_allclose(val, [v for v, _ in parts], rtol=1e-14)
        assert err == pytest.approx(max(e for _, e in parts), rel=1e-12)

    def test_rounding_floor_per_component(self):
        # a tiny component next to a large one keeps its own floor, and
        # the panel estimate is the largest of them
        def f(x):
            return np.stack([1e-6 * (x + 2.98) ** -1.5,
                             (x + 2.98) ** -1.5], axis=1)

        val, err = gk_panel(f, 1.0, 3.0)
        _, err_big = gk_panel(lambda x: f(x)[:, 1], 1.0, 3.0)
        assert err == err_big
        assert err >= 50.0 * np.finfo(float).eps * val[1]

    def test_empty_component_set(self):
        val, err = integrate(lambda x: np.empty((len(x), 0)), 0.0, 1.0)
        assert val.shape == (0,)
        assert err == 0.0


# -- the sequential heap, one integrand call per panel ------------------------
# The reference for integrate's batched evaluation: integrate must split
# exactly these panels, in this order, and report the same numbers.

def _sequential_gk_panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * quadrature.NODES), dtype=float)
    if fx.ndim == 2:
        return _sequential_gk_panel_vec(fx, half, b - a)
    k15 = half * float(fx @ quadrature._WK)
    g7 = half * float(fx @ quadrature._WG)
    raw = abs(k15 - g7)
    resasc = half * float(np.abs(fx - k15 / (b - a)) @ quadrature._WK)
    floor = quadrature._ROUNDING * (resasc + abs(k15))
    if resasc > 0.0 and raw > 0.0:
        return k15, max(resasc * min(1.0, (200.0 * raw / resasc) ** 1.5),
                        floor)
    return k15, max(raw, floor)


def _sequential_gk_panel_vec(fx, half, width):
    k15 = half * (quadrature._WK @ fx)
    raw = np.abs(k15 - half * (quadrature._WG @ fx))
    resasc = half * (quadrature._WK @ np.abs(fx - k15 / width))
    pos = resasc > 0.0
    ratio = np.divide(200.0 * raw, resasc, out=np.zeros_like(raw), where=pos)
    err = np.where(pos, resasc * np.minimum(1.0, ratio ** 1.5), raw)
    err = np.maximum(err, quadrature._ROUNDING * (resasc + np.abs(k15)))
    return k15, float(err.max(initial=0.0))


def sequential_integrate(f, a, b, tol=quadrature.DEFAULT_TOL, breaks=(),
                         geometric_from=None):
    a = float(a)
    b = float(b)
    if not b > a:
        return 0.0, 0.0
    pts = [a] + sorted({float(p) for p in breaks if a < p < b}) + [b]
    if geometric_from is not None and b - a > 100.0 * geometric_from > 0.0:
        extra = [a + p for p in
                 quadrature._geometric_points(geometric_from, b - a)]
        pts = sorted(set(pts) | {p for p in extra if a < p < b})
    heap = []
    tie = count()
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = _sequential_gk_panel(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, next(tie), lo, hi, val))
    npanels = len(heap)
    while (total_err > tol and npanels < quadrature.MAX_PANELS
           and heap[0][0] < 0.0):
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            heapq.heappush(heap, (0.0, next(tie), lo, hi, val))
            total_err += neg_err
            continue
        v1, e1 = _sequential_gk_panel(f, lo, mid)
        v2, e2 = _sequential_gk_panel(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, next(tie), lo, mid, v1))
        heapq.heappush(heap, (-e2, next(tie), mid, hi, v2))
        npanels += 1
    if total_err > tol and npanels >= quadrature.MAX_PANELS:
        scale = float(np.max(np.abs(total), initial=0.0))
        if not total_err <= 1e-12 * max(1.0, scale):
            raise QuadratureFailure(
                f"no convergence on ({a:g}, {b:g}): error {total_err:.2e} "
                f"> tol {tol:.2e} after {npanels} panels")
    return total, total_err


def _counting(f):
    """f with a record of its calls and of the nodes it was given."""
    def wrapped(x):
        wrapped.calls += 1
        wrapped.nodes += len(x)
        return f(x)
    wrapped.calls = 0
    wrapped.nodes = 0
    return wrapped


ORACLE_CASES = {
    "endpoint-singular": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                          {"tol": 1e-10}),
    "sin50": (lambda x: np.sin(50.0 * x), 0.0, 10.0, {"tol": 1e-12}),
    "geometric-tail": (lambda x: x ** -1.5, 1.0, 1e12,
                       {"tol": 1e-10, "geometric_from": 1.0,
                        "breaks": [2.5, 7.0]}),
    "smooth3": (smooth3, -2.0, 3.0, {"tol": 1e-11}),
    "singular3": (singular3, 0.0, 1.0, {"tol": 1e-11}),
}


class TestBatchedPanels:
    """integrate evaluates many panels per integrand call, and splits the
    same panels as the sequential heap."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_sequential_heap(self, case):
        f, a, b, kw = ORACLE_CASES[case]
        want, want_err = sequential_integrate(f, a, b, **kw)
        got, got_err = integrate(f, a, b, **kw)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert got_err == pytest.approx(want_err, rel=1e-12)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_budget_failure_matches_sequential_heap(self, case, monkeypatch):
        f, a, b, kw = ORACLE_CASES[case]
        monkeypatch.setattr(quadrature, "MAX_PANELS", 7)
        kw = {**kw, "tol": 1e-15}
        with pytest.raises(QuadratureFailure) as want:
            sequential_integrate(f, a, b, **kw)
        with pytest.raises(QuadratureFailure) as got:
            integrate(f, a, b, **kw)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("f,a,b,tol", [
        (lambda x: np.sin(400.0 * x * x), 0.0, 3.0, 1e-10),
        # under the rounding floor: runs the whole panel budget
        (lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0, 1e-17),
    ], ids=["oscillating", "budget"])
    def test_batches_bound_calls_and_waste(self, f, a, b, tol):
        seq = _counting(f)
        sequential_integrate(seq, a, b, tol=tol)
        panels = seq.nodes // 15
        assert panels >= 1000
        batched = _counting(f)
        integrate(batched, a, b, tol=tol)
        assert batched.calls <= panels / 10
        assert batched.nodes // 15 <= 1.15 * panels
        # a panel is split ahead of its turn only when the errors ahead of
        # it cannot bring the total under tol, and only within the budget
        # left, so here none goes to waste
        assert batched.nodes == seq.nodes

    def test_float_resolution_panels_are_never_split(self, monkeypatch):
        # a jump at 1/3 on an interval of a few dozen ulps, with tol under
        # the rounding floor: refinement runs into panels one ulp wide,
        # which integrate keeps as they are; splitting one would evaluate
        # a panel of zero width
        third = 1.0 / 3.0
        f = lambda x: (x > third).astype(float)
        a, b = third - 1e-15, third + 1e-15
        widths = []
        rule = quadrature.gk_panel

        def recording(g, lo, hi):
            widths.extend(np.ravel(np.subtract(hi, lo)).tolist())
            return rule(g, lo, hi)

        monkeypatch.setattr(quadrature, "gk_panel", recording)
        got, got_err = integrate(f, a, b, tol=1e-35)
        want, want_err = sequential_integrate(f, a, b, tol=1e-35)
        assert got == pytest.approx(want, rel=1e-14)
        assert got_err == pytest.approx(want_err, rel=1e-12)
        assert min(widths) > 0.0
        assert np.spacing(third) in widths


# -- many integrals in lock-step ----------------------------------------------

def _jobs_integrand(cases):
    """integrate_many's f(x, j) for a list of (f, a, b, kw) cases: the
    nodes of job j go to cases[j]'s integrand."""
    def f(x, j):
        out = None
        for k in np.unique(j):
            sel = j == k
            fx = cases[k][0](x[sel])
            if out is None:
                out = np.empty((len(x),) + fx.shape[1:])
            out[sel] = fx
        return out
    return f


def _job(case):
    f, a, b, kw = case
    return (a, b, kw.get("tol", quadrature.DEFAULT_TOL), kw.get("breaks", ()),
            kw.get("geometric_from"))


MIXED_JOBS = [ORACLE_CASES["endpoint-singular"], ORACLE_CASES["sin50"],
              ORACLE_CASES["geometric-tail"],
              (lambda x: x, 1.0, 1.0, {}),  # empty interval
              (lambda x: np.exp(-x), 0.0, 4.0, {"tol": 1e-13})]
VECTOR_JOBS = [ORACLE_CASES["smooth3"], ORACLE_CASES["singular3"],
               (smooth3, 0.0, 0.5, {"tol": 1e-9})]


@pytest.fixture
def alarm():
    """Fail a test that runs for more than 3 seconds."""
    def fire(signum, frame):
        raise TimeoutError("no return within 3 s")
    old = signal.signal(signal.SIGALRM, fire)
    signal.alarm(3)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


class TestLockStep:
    """integrate_many runs many heaps at once; each job's numbers are
    those of the sequential heap on that job alone."""

    @pytest.mark.parametrize("cases", [MIXED_JOBS, VECTOR_JOBS],
                             ids=["mixed", "vector"])
    def test_every_job_matches_sequential_heap(self, cases):
        got = integrate_many(_jobs_integrand(cases),
                             [_job(c) for c in cases])
        assert len(got) == len(cases)
        for (f, a, b, kw), (val, err) in zip(cases, got):
            want, want_err = sequential_integrate(f, a, b, **kw)
            assert np.array_equal(val, want)
            assert err == want_err

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_one_job_matches_integrate(self, case, monkeypatch):
        # integrate drives _refine with its own loop, integrate_many with
        # the lock-step one; a lone job must not tell them apart
        f, a, b, kw = ORACLE_CASES[case]
        val, err = integrate_many(lambda x, j: f(x), [_job((f, a, b, kw))])[0]
        want, want_err = integrate(f, a, b, **kw)
        assert np.array_equal(val, want) and err == want_err
        monkeypatch.setattr(quadrature, "MAX_PANELS", 7)
        kw = {**kw, "tol": 1e-15}
        with pytest.raises(QuadratureFailure) as want:
            integrate(f, a, b, **kw)
        with pytest.raises(QuadratureFailure) as got:
            integrate_many(lambda x, j: f(x), [_job((f, a, b, kw))])
        assert str(got.value) == str(want.value)

    def test_one_call_of_f_per_round(self):
        rounds = []
        f = _jobs_integrand(MIXED_JOBS)

        def counted(x, j):
            rounds.append(len(np.unique(j)))
            return f(x, j)

        integrate_many(counted, [_job(c) for c in MIXED_JOBS])
        alone = 0
        for g, a, b, kw in MIXED_JOBS:
            seq = _counting(g)
            integrate(seq, a, b, **kw)
            alone += seq.calls
        assert len(rounds) < alone
        assert max(rounds) == 4  # every nonempty job in the first round

    def test_no_jobs(self):
        assert integrate_many(lambda x, j: x, []) == []

    @pytest.mark.parametrize("order", ["listed", "reversed"])
    @pytest.mark.parametrize("first", [0, 2])
    def test_failure_is_the_first_failing_jobs(self, first, order,
                                               monkeypatch):
        # the geometric tail seeds more panels than the budget and fails
        # in the first round, the singular and oscillating jobs later
        monkeypatch.setattr(quadrature, "MAX_PANELS", 7)
        cases = [(f, a, b, {**kw, "tol": 1e-15})
                 for f, a, b, kw in MIXED_JOBS]
        if order == "reversed":
            cases.reverse()
        # jobs before the first one converge under the budget
        cases[:first] = [(lambda x: np.ones_like(x), 0.0, 1.0, {})] * first
        want = None
        for f, a, b, kw in cases:
            try:
                sequential_integrate(f, a, b, **kw)
            except QuadratureFailure as exc:
                want = str(exc)
                break
        assert want is not None
        with pytest.raises(QuadratureFailure) as got:
            integrate_many(_jobs_integrand(cases), [_job(c) for c in cases])
        assert str(got.value) == want

    @pytest.mark.parametrize("ulps,tol", [(16, 1e-60), (36, 1e-45)])
    def test_float_resolution_returns(self, ulps, tol, alarm):
        # every panel left is one ulp wide while the residue of the
        # error sums stays above tol; the heap stops once the worst
        # estimate left is 0
        third = 1.0 / 3.0
        b = third + ulps * np.spacing(third)
        val, err = integrate(lambda x: 3.0 * x, third, b, tol=tol)
        assert val == pytest.approx(3.0 * third * (b - third), rel=1e-12)
        assert 0.0 < err < 1e-30
        hang = (lambda x: 3.0 * x, third, b, {"tol": tol})
        cases = [MIXED_JOBS[0], hang, MIXED_JOBS[1]]
        got = integrate_many(_jobs_integrand(cases),
                             [_job(c) for c in cases])
        assert got[1] == (val, err)
        for k in (0, 2):
            f, a, b2, kw = cases[k]
            assert got[k] == sequential_integrate(f, a, b2, **kw)
