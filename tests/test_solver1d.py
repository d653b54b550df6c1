"""Solver checks.

The assembled couplings are verified against direct scipy double integrals
first; everything else (structure, principles, convergence) builds on them.
"""

import ast
import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from nonlocal_lab import solver1d
from nonlocal_lab.errors import (
    ConfigError,
    ConfigParseError,
    SingularSystem,
    UnsupportedDimension,
)
from nonlocal_lab.geometry import (
    complement,
    make_disconnected_config,
    mesh_intervals,
    mesh_over,
)
from nonlocal_lab.harnack import (
    disconnected_harnack_experiment,
    far_negative_data,
    mass_near_x2_data,
    random_nonneg_data,
)
from nonlocal_lab.kernel import (
    Kernel,
    fractional_kernel,
    general_demo_kernel,
    ti_demo_kernel,
)
from nonlocal_lab.operator import (
    barrier_w2,
    constant,
    eval_L,
    indicator,
    piecewise_constant,
)
from nonlocal_lab.poisson import PoissonKernelBall, poisson_extend
from nonlocal_lab.quadrature import integrate
from nonlocal_lab.solver1d import (
    ASSEMBLY_TOL,
    BAND_FRACTION,
    LinearSystem,
    _band_moment,
    _couplings,
    _overlap_mass,
    _segment_masses,
    assemble,
    solve,
)

# dip of the unit-load problem on (-1, 1), s = 1/2, N = 64, c0 = 1;
# regression pin from the first verified run (the linearity and
# translation tests tie it to the scheme, not to a chance value)
DIP_CHAT_S05_N64 = 0.158452761189276

G13 = indicator(1.0, 3.0)
# pieces on both sides of (-1, 1), one crossing into it, and a far part
MULTI = piecewise_constant([(-4.0, -1.5, 0.4), (-1.3, -0.6, -0.7),
                            (1.2, 1.7, 0.8), (2.0, 2.5, 0.3)],
                           far_value=-0.6, far_radius=6.0, label="multi")
# the exterior segments of each datum against (-1, 1), written out
EXTERIOR_SEGMENTS = {
    "chi": (G13, [(1.0, 3.0, 1.0)]),
    "multi": (MULTI, [(-np.inf, -6.0, -0.6), (-4.0, -1.5, 0.4),
                      (-1.3, -1.0, -0.7), (1.2, 1.7, 0.8), (2.0, 2.5, 0.3),
                      (6.0, np.inf, -0.6)]),
}


def unit_mesh(N=4):
    return mesh_intervals([(-1.0, 1.0)], N)


class TestCouplingOracle:
    """Entries of the N = 4 system on (-1, 1) against scipy quadrature."""

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_touching_pair_matches_double_integral(self, s):
        k = fractional_kernel(1, s)
        amp = float(k.eval_at_distance(1.0))
        system = assemble(k, unit_mesh(), G13)
        h = 0.5
        gamma = BAND_FRACTION * h

        def inner(x):
            lo = max(-0.5, x + gamma)
            if lo >= 0.0:
                return 0.0
            val, _ = quad(lambda y: amp * abs(y - x) ** (-1 - 2 * s), lo, 0.0)
            return val

        banded, _ = quad(inner, -1.0, -0.5, limit=200)
        curv, _ = quad(lambda z: amp * z ** (2.0 - 2.0 * s), 0.0, gamma)
        w01 = -system.matrix[0, 1] / 2.0
        assert w01 == pytest.approx(banded + curv / h ** 2, rel=1e-9)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_far_pair_matches_double_integral(self, s):
        k = fractional_kernel(1, s)
        amp = float(k.eval_at_distance(1.0))
        system = assemble(k, unit_mesh(), G13)

        def inner(x):
            val, _ = quad(lambda y: amp * abs(y - x) ** (-1 - 2 * s), 0.0, 0.5)
            return val

        ref, _ = quad(inner, -1.0, -0.5)
        assert -system.matrix[0, 2] / 2.0 == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_exterior_mass_matches_double_integral(self, s):
        k = fractional_kernel(1, s)
        amp = float(k.eval_at_distance(1.0))
        system = assemble(k, unit_mesh(), G13)
        gamma = BAND_FRACTION * 0.5

        def inner(x):
            left, _ = quad(lambda t: amp * t ** (-1 - 2 * s),
                           max(x + 1.0, gamma), np.inf)
            right, _ = quad(lambda t: amp * t ** (-1 - 2 * s),
                            max(1.0 - x, gamma), np.inf)
            return left + right

        ref, _ = quad(inner, -1.0, -0.5)
        assert system.exterior_mass[0] / 2.0 == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("s,name", [
        (0.25, "chi"), (0.5, "chi"), (0.75, "chi"),
        (0.25, "multi"), (0.5, "multi"), (0.75, "multi"),
    ], ids=["0.25", "0.5", "0.75", "multi-0.25", "multi-0.5", "multi-0.75"])
    def test_data_mass_matches_double_integral(self, s, name):
        # B of every cell against nested quadrature over the exterior
        # segments, each banded at gamma from the cell's points
        g, segs = EXTERIOR_SEGMENTS[name]
        k = fractional_kernel(1, s)
        amp = float(k.eval_at_distance(1.0))
        mesh = unit_mesh()
        system = assemble(k, mesh, g)
        gamma = BAND_FRACTION * 0.5

        def inner(x):
            def k_x(y):
                return amp * abs(y - x) ** (-1 - 2 * s)

            total = 0.0
            for a, b, v in segs:
                if a >= 1.0:
                    lo, hi = max(a, x + gamma), b
                else:
                    lo, hi = a, min(b, x - gamma)
                if lo < hi:
                    total += v * quad(k_x, lo, hi, epsabs=0.0,
                                      epsrel=1e-12)[0]
            return total

        ref = [quad(inner, lo, hi, points=[lo + gamma, hi - gamma],
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for lo, hi in zip(mesh.lo, mesh.hi)]
        # rhs = f h + 2 B with f = 0 here
        np.testing.assert_allclose(system.rhs / 2.0, ref, rtol=1e-11, atol=0.0)

    def test_interior_data_is_ignored(self):
        # only the exterior restriction of the data enters the system
        k = fractional_kernel(1, 0.5)
        a = assemble(k, unit_mesh(8), indicator(0.0, 3.0))
        b = assemble(k, unit_mesh(8), G13)
        assert np.allclose(a.rhs, b.rhs, rtol=0, atol=1e-14)

    def test_general_kernel_touching_pair_matches(self):
        k = general_demo_kernel(0.5)
        mesh = unit_mesh()
        system = assemble(k, mesh, G13)
        gamma = BAND_FRACTION * 0.5

        def kfun(x, y):
            return (1.0 + 0.5 * np.sin(x + y) ** 2) * abs(y - x) ** -2.0

        def inner(x):
            lo = max(-0.5, x + gamma)
            if lo >= 0.0:
                return 0.0
            val, _ = quad(lambda y: kfun(x, y), lo, 0.0)
            return val

        banded, _ = quad(inner, -1.0, -0.5, limit=200)

        def inner_band(x):
            hi = min(0.0, x + gamma)
            if hi <= -0.5:
                return 0.0
            val, _ = quad(lambda y: kfun(x, y) * (y - x) ** 2,
                          max(-0.5, x), hi)
            return val

        curv, _ = quad(inner_band, -1.0, -0.5, limit=200)
        w01 = -system.matrix[0, 1] / 2.0
        assert w01 == pytest.approx(banded + curv / 0.25, rel=1e-8)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_ti_entries_match_double_integrals(self, s):
        # W01 (touching, with its curvature coupling), W02, E0 and B3 of
        # the translation-invariant demo kernel against nested quadrature
        def K(d):
            return (1.0 + 0.5 * d * d / (1.0 + d * d)) * d ** (-1.0 - 2.0 * s)

        system = assemble(ti_demo_kernel(s), unit_mesh(), G13)
        h = 0.5
        gamma = BAND_FRACTION * h

        def right_mass(x_lo, x_hi, y_lo, y_hi):
            # cell (x_lo, x_hi) against (y_lo, y_hi) to its right, banded
            def inner(x):
                return quad(lambda y: K(y - x), max(y_lo, x + gamma), y_hi)[0]

            return quad(inner, x_lo, x_hi, limit=200)[0]

        curv, _ = quad(lambda t: K(t) * t ** 3, 0.0, gamma)
        w01 = right_mass(-1.0, -0.5, -0.5, 0.0) + curv / h ** 2
        assert -system.matrix[0, 1] / 2.0 == pytest.approx(w01, rel=1e-9)
        w02 = right_mass(-1.0, -0.5, 0.0, 0.5)
        assert -system.matrix[0, 2] / 2.0 == pytest.approx(w02, rel=1e-9)
        b3 = right_mass(0.5, 1.0, 1.0, 3.0)
        assert system.rhs[3] / 2.0 == pytest.approx(b3, rel=1e-9)

        def outside(x):
            # both exterior components seen from x in cell 0
            return (quad(K, max(x + 1.0, gamma), np.inf)[0]
                    + quad(K, 1.0 - x, np.inf)[0])

        e0, _ = quad(outside, -1.0, -0.5)
        assert abs(system.exterior_mass[0] / 2.0 - e0) \
            <= system.assembly_error

    @pytest.mark.parametrize("lo,hi,cell", [(-3.0, -1.5, 1), (1.5, 3.0, 2)],
                             ids=["left", "right"])
    def test_asymmetric_pair_kernel_data_mass(self, lo, hi, cell):
        # k(-x, -y) != k(x, y): a data segment left of its cell must take
        # the mass of k itself, not of its mirror image
        def factor(x, y):
            return 1.0 + 0.4 * np.tanh(x + y)

        k = Kernel(s=0.5, lam=2.0, pair_fn=factor)
        mesh = unit_mesh()
        system = assemble(k, mesh, indicator(lo, hi))
        ref, _ = quad(lambda x: quad(lambda y: factor(x, y)
                                     * abs(x - y) ** -2.0, lo, hi)[0],
                      mesh.lo[cell], mesh.hi[cell])
        assert system.rhs[cell] / 2.0 == pytest.approx(ref, rel=1e-9)


class TestStructure:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_row_sums_equal_exterior_mass(self, s):
        system = assemble(fractional_kernel(1, s), unit_mesh(16), G13)
        rows = system.matrix.sum(axis=1)
        assert np.allclose(rows, system.exterior_mass, rtol=1e-12, atol=1e-13)
        a = system.matrix
        slack = np.diag(a) - (np.abs(a).sum(axis=1) - np.abs(np.diag(a)))
        assert np.allclose(slack, system.exterior_mass,
                           rtol=1e-12, atol=1e-13)

    def test_matrix_is_symmetric_m_matrix(self):
        system = assemble(fractional_kernel(1, 0.6), unit_mesh(16), G13)
        a = system.matrix
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) > 0)
        off = a - np.diag(np.diag(a))
        assert np.all(off <= 0)

    @pytest.mark.parametrize("family", ["frac", "ti"])
    @pytest.mark.parametrize("intervals,n_cells", [
        ([(-1.0, 1.0)], 16),
        ([(-4.0, 0.0), (0.0, 4.0)], 8),
        ([(-3.0, -1.0), (1.0, 3.0)], 8),
        ([(-5.0, -3.0), (-1.0, 1.0), (3.0, 5.0)], 8),
        ([(-1.0, 1.0)], 100),
    ], ids=["one", "touching", "separated", "three", "non-dyadic"])
    def test_couplings_are_functions_of_the_gap(self, family, intervals,
                                                n_cells, monkeypatch):
        # W_ij depends on the pair through its clamped gap alone: W is
        # symmetric with a zero diagonal, every entry is the coupling of
        # its own pair's gap, and each pair is charged its gap's estimate
        s = 0.6
        k = fractional_kernel(1, s) if family == "frac" else ti_demo_kernel(s)
        mesh = mesh_intervals(intervals, n_cells)
        m = mesh.ncells
        h = float(np.min(mesh.widths))
        gamma = BAND_FRACTION * h
        comps = complement(mesh.intervals)
        span = mesh.intervals[-1][1] - mesh.intervals[0][0]
        estimates = []

        def recording(fn):
            def wrapped(*args):
                out = fn(*args)
                estimates.append(out[1])
                return out
            return wrapped

        monkeypatch.setattr(solver1d, "_overlap_mass",
                            recording(_overlap_mass))
        monkeypatch.setattr(solver1d, "_band_moment", recording(_band_moment))
        blocks, err = _couplings(k, mesh, h, gamma, span, ASSEMBLY_TOL)
        e_w, e_band = estimates[:2]  # W's two calls come first
        monkeypatch.undo()
        w = solver1d._toeplitz_fill(blocks, m)
        assert np.array_equal(w, w.T) and not np.any(np.diag(w))

        c = mesh.centers
        iu, ju = np.triu_indices(m, 1)
        gaps, which = np.unique(np.maximum(np.abs(c[iu] - c[ju]) - h, 0.0),
                                return_inverse=True)
        near = gaps < gamma
        want, _, _ = _overlap_mass(k, gaps, h, h, gamma, span, ASSEMBLY_TOL)
        want[near] += _band_moment(k, gaps[near], gamma,
                                   ASSEMBLY_TOL)[0] / (h * h)
        np.testing.assert_allclose(w[iu, ju], want[which], rtol=1e-13,
                                   atol=0.0)

        per_pair = e_w + e_band * near[which]
        assert err == pytest.approx(float(per_pair.sum()), rel=1e-12, abs=0.0)
        # the assembly adds the exterior mass's bound, one per component
        err_ext = sum(e for _, e in _segment_masses(k, mesh, comps, h, gamma,
                                                    span, ASSEMBLY_TOL))
        system = assemble(k, mesh, constant(1.0))
        assert system.assembly_error == pytest.approx(err + err_ext,
                                                      rel=1e-12, abs=0.0)
        if family == "frac":
            assert err == 0.0
        else:
            assert e_w > 0.0

    def test_ti_integrate_calls_do_not_grow_with_cells(self, monkeypatch):
        # W is one overlap integral over the distinct gaps plus one band
        # moment, and each exterior segment one integral over all cells
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(solver1d, "integrate", counting)
        k = ti_demo_kernel(0.5)
        counts = []
        for n_cells in (64, 256):
            calls.clear()
            assemble(k, unit_mesh(n_cells), G13)
            counts.append(len(calls))
        assert counts[0] == counts[1] == 5

    def test_disconnected_touching_junction(self):
        # x2 - x1 = 4r makes the meshed balls touch; the junction pair is
        # banded like any interior neighbor and stays finite
        cfg = make_disconnected_config(n=1, x1=0.3, x2=4.3, r=1.0, R=40.0)
        mesh = mesh_over(cfg, 16)
        system = assemble(fractional_kernel(1, 0.75), mesh, indicator(7.0, 8.0))
        a = system.matrix
        assert np.all(np.isfinite(a))
        assert np.array_equal(a, a.T)
        assert np.allclose(a.sum(axis=1), system.exterior_mass,
                           rtol=1e-11, atol=1e-12)
        assert a[15, 16] < 0  # junction coupling present

    def test_constant_data_solved_exactly(self):
        u = solve(assemble(fractional_kernel(1, 0.5), unit_mesh(8),
                           constant(5.0)))
        assert np.max(np.abs(u.values - 5.0)) < 1e-11

    def test_zero_data_gives_zero(self):
        u = solve(assemble(fractional_kernel(1, 0.5), unit_mesh(8),
                           constant(0.0)))
        assert np.array_equal(u.values, np.zeros(8))

    def test_solution_linear_in_data(self):
        k = fractional_kernel(1, 0.4)
        u1 = solve(assemble(k, unit_mesh(8), G13))
        g10 = piecewise_constant([(1.0, 3.0, 10.0)], label="10chi")
        u10 = solve(assemble(k, unit_mesh(8), g10))
        assert np.max(np.abs(u10.values - 10.0 * u1.values)) < 1e-10

    def test_far_data_scales_exactly(self):
        k = fractional_kernel(1, 0.25)
        g1 = piecewise_constant([], far_value=-1.0, far_radius=10.0)
        g2 = piecewise_constant([], far_value=-2.0, far_radius=10.0)
        u1 = solve(assemble(k, unit_mesh(8), g1))
        u2 = solve(assemble(k, unit_mesh(8), g2))
        assert np.all(u1.values < 0)
        assert np.max(np.abs(u2.values - 2.0 * u1.values)) < 1e-12

    def test_zero_datum_is_the_zero_constant(self, monkeypatch):
        # pieces: with no pieces is constant(0.0), whose data mass takes
        # no quadrature: its data part adds no integrate call to those of
        # the operator part
        g = piecewise_constant([])
        assert g.is_constant
        assert dataclasses.replace(g, label="const(0)") == constant(0.0)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(solver1d, "integrate", counting)
        k = ti_demo_kernel(0.5)
        assemble(k, unit_mesh(8), [])
        operator_calls = len(calls)
        assert operator_calls > 0
        system = assemble(k, unit_mesh(8), g)
        assert len(calls) == 2 * operator_calls
        assert not system.rhs.any()
        res = eval_L(fractional_kernel(1, 0.5), g, 0.3)
        assert res.value == 0.0 and res.error_bound == 0.0

    @pytest.mark.parametrize("ds", [1e-9, -1e-9, 1e-11, -1e-11])
    def test_continuous_in_s_through_one_half(self, ds):
        # the closed forms have no branch at s = 1/2: the solution moves by
        # about 0.7 |s - 1/2| there, with nothing lost to cancellation
        mesh = unit_mesh(128)
        u_half = solve(assemble(fractional_kernel(1, 0.5), mesh, G13)).values
        u = solve(assemble(fractional_kernel(1, 0.5 + ds), mesh, G13)).values
        assert np.max(np.abs(u - u_half)) <= 2.0 * abs(ds)

    def test_nonuniform_mesh_rejected(self):
        mesh = mesh_intervals([(0.0, 1.0), (2.0, 4.0)], 8)
        with pytest.raises(ConfigParseError):
            assemble(fractional_kernel(1, 0.5), mesh, G13)

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimension):
            assemble(fractional_kernel(2, 0.5), unit_mesh(), G13)

    def test_growing_data_rejected(self):
        # a function that is not piecewise-constant data is rejected in a
        # block as well
        with pytest.raises(ConfigParseError,
                           match="w2 is not piecewise-constant data"):
            assemble(fractional_kernel(1, 0.25), unit_mesh(),
                     [G13, barrier_w2(TWO_BALLS)])

    def test_memory_budget_guard(self, monkeypatch):
        # the default budget holds a 4096-cell matrix; past a budget, the
        # assembly of a general kernel, which fills the dense matrix,
        # fails before it builds any m x m array
        assert 8 * 4096 ** 2 <= solver1d.MATRIX_BUDGET_BYTES
        monkeypatch.setattr(solver1d, "MATRIX_BUDGET_BYTES", 8 * 8 * 8)
        assemble(general_demo_kernel(0.5), unit_mesh(8), G13)

        def no_couplings(*args):
            raise AssertionError("couplings built past the budget")

        monkeypatch.setattr(solver1d, "_couplings", no_couplings)
        with pytest.raises(ConfigError, match="budget"):
            assemble(general_demo_kernel(0.5), unit_mesh(16), G13)

    def test_budget_holds_the_largest_dense_matrix(self):
        # 1 GiB holds 11,585^2 float64 entries and not 11,586^2
        solver1d.check_budget(8 * 11585 ** 2, "11585 x 11585 entries")
        with pytest.raises(ConfigError,
                           match="^11586 x 11586 entries need .* budget$"):
            solver1d.check_budget(8 * 11586 ** 2, "11586 x 11586 entries")

    def test_one_owner_of_the_memory_budget(self):
        # no module but solver1d names the budget; only check_budget reads
        # it, and it is the one place that raises the memory ConfigError
        src = pathlib.Path(solver1d.__file__).parent
        readers, raisers = set(), []
        for path in sorted(src.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            if path.stem != "solver1d":
                assert "MATRIX_BUDGET_BYTES" not in text, path.name
            for fn in ast.walk(ast.parse(text)):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if getattr(node, "id", None) == "MATRIX_BUDGET_BYTES":
                        readers.add(fn.name)
                    if isinstance(node, ast.Raise) and getattr(
                            getattr(node.exc, "func", None), "id",
                            None) == "ConfigError":
                        raisers.append(f"{path.stem}.{fn.name}")
        assert readers == {"check_budget"}
        assert raisers == ["solver1d.check_budget"]

    def test_one_reader_of_dense_max_cells(self):
        # assemble gives a system the form its kernel gives it; solve()
        # alone reads the size at which LU gives way to CG
        src = pathlib.Path(solver1d.__file__).parent
        readers = set()
        for path in sorted(src.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            if path.stem != "solver1d":
                assert "DENSE_MAX_CELLS" not in text, path.name
            for fn in ast.walk(ast.parse(text)):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if getattr(node, "id", None) == "DENSE_MAX_CELLS":
                        readers.add(fn.name)
        assert readers == {"solve"}

    def test_singular_matrix_raises(self):
        system = assemble(fractional_kernel(1, 0.5), unit_mesh(), G13)
        broken = dataclasses.replace(system, operator=np.zeros((4, 4)))
        with pytest.raises(SingularSystem):
            solve(broken)


def block_data():
    """Constant, indicator, far-valued and multi-piece exterior data."""
    return [
        constant(2.0),
        G13,
        piecewise_constant([(1.5, 2.0, 0.7)], far_value=-1.0,
                           far_radius=5.0, label="far"),
        MULTI,
    ]


# the reference two-ball configuration: touching balls, R = 16
TWO_BALLS = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)


def harnack_data():
    """Two data of each experiment family on TWO_BALLS."""
    rng = np.random.default_rng(5)
    return [*(random_nonneg_data(TWO_BALLS, rng) for _ in range(2)),
            *(far_negative_data(TWO_BALLS, rng) for _ in range(2)),
            mass_near_x2_data(TWO_BALLS, 1.0),
            mass_near_x2_data(TWO_BALLS, 100.0)]


# (kernel, mesh, data) of a block
BLOCK_CASES = {
    "frac": (fractional_kernel(1, 0.6), unit_mesh, block_data),
    "ti": (ti_demo_kernel(0.5), unit_mesh, block_data),
    "frac-two-balls": (fractional_kernel(1, 0.5),
                       lambda: mesh_over(TWO_BALLS, 64), harnack_data),
    "ti-two-balls": (ti_demo_kernel(0.5), lambda: mesh_over(TWO_BALLS, 16),
                     harnack_data),
    "general": (general_demo_kernel(0.5), unit_mesh,
                lambda: block_data()[1:3]),
}


class TestBlock:
    """One operator, many data: the block path against single assembles."""

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_block_assemble_matches_single_bit_for_bit(self, case):
        kernel, make_mesh, make_data = BLOCK_CASES[case]
        mesh, data = make_mesh(), make_data()
        block = assemble(kernel, mesh, data, rhs=0.5, tol=1e-6)
        assert block.rhs.shape == (mesh.ncells, len(data))
        assert block.exterior == tuple(data)
        for j, g in enumerate(data):
            single = assemble(kernel, mesh, g, rhs=0.5, tol=1e-6)
            assert np.array_equal(block.matrix, single.matrix)
            assert np.array_equal(block.exterior_mass, single.exterior_mass)
            assert np.array_equal(block.rhs[:, j], single.rhs)
            assert block.assembly_error >= single.assembly_error

    @pytest.mark.parametrize("kernel,n_cells",
                             [(fractional_kernel(1, 0.6), 64),
                              (ti_demo_kernel(0.5), 8)], ids=["frac", "ti"])
    def test_unit_far_datum_rhs_is_exterior_mass(self, kernel, n_cells):
        # far:1,0.5 is 1 on every exterior component of (-1, 1), so its
        # data mass B and the exterior mass E come from the same segments
        # through the same routine and must agree bit for bit
        g = piecewise_constant([], far_value=1.0, far_radius=0.5)
        system = assemble(kernel, unit_mesh(n_cells), g)
        assert np.array_equal(system.rhs, system.exterior_mass)

    @pytest.mark.parametrize("family,distinct", [("random-nonneg", 16),
                                                 ("far-negative", 18)])
    def test_each_distinct_segment_is_computed_once(self, family, distinct,
                                                    monkeypatch):
        # 20 data of one family share their piece edges: a datum-by-datum
        # data mass would compute 20 x distinct segment masses
        mesh = mesh_over(TWO_BALLS, 256)
        comps = complement(mesh.intervals)
        make = (random_nonneg_data if family == "random-nonneg"
                else far_negative_data)
        rng = np.random.default_rng(0)  # the experiment's draws at seed 0
        per_datum = [make(TWO_BALLS, rng).segments_in(comps)
                     for _ in range(20)]
        assert sum(map(len, per_datum)) == 20 * distinct
        computed = []

        def counting(kernel, mesh, segs, *args):
            computed.extend(segs)
            return _segment_masses(kernel, mesh, segs, *args)

        monkeypatch.setattr(solver1d, "_segment_masses", counting)
        disconnected_harnack_experiment(0.5, fractional_kernel(1, 0.5),
                                        TWO_BALLS, family, N=256, samples=20)
        assert len(computed) == len(set(computed))
        data_segments = {(a, b) for segs in per_datum for a, b, _ in segs}
        assert len(data_segments) == distinct
        assert set(computed) == data_segments | set(comps)

    def test_block_solve_matches_single_solves(self):
        k = fractional_kernel(1, 0.6)
        mesh = mesh_over(make_disconnected_config(n=1, x1=-2.0, x2=2.0,
                                                  r=1.0, R=16.0), 32)
        data = block_data()
        us = solve(assemble(k, mesh, data))
        assert len(us) == len(data)
        for u, g in zip(us, data):
            ref = solve(assemble(k, mesh, g))
            assert u.exterior is g
            np.testing.assert_allclose(u.values, ref.values, rtol=1e-13,
                                       atol=0.0)

    def test_empty_block(self):
        system = assemble(fractional_kernel(1, 0.5), unit_mesh(), [])
        assert system.rhs.shape == (4, 0)
        assert solve(system) == []

    def test_residual_checked_per_column(self):
        # Wilkinson's matrix doubles its last column at every LU step, so
        # column 0 leaves a backward error near 3e-7, while column 1, the
        # matrix times 2^40 ones, solves exactly; a norm taken over the
        # whole block would scale column 0's residual below 1e-10
        n = 40
        a = np.eye(n) - np.tril(np.ones((n, n)), -1)
        a[:, -1] = 1.0
        b = np.stack([np.sin(np.arange(1.0, n + 1.0)),
                      a @ np.full(n, 2.0 ** 40)], axis=1)
        # the exterior mass that makes 2 diag - exterior_mass the row
        # sums of |a|, as in an assembled system
        mass = 2.0 * np.diagonal(a) - np.sum(np.abs(a), axis=1)
        # the general kernel keeps solve() off the mirrored split
        system = LinearSystem(operator=a, rhs=b, mesh=unit_mesh(n),
                              kernel=general_demo_kernel(0.5),
                              exterior=(G13, G13), exterior_mass=mass,
                              assembly_error=0.0)
        with pytest.raises(SingularSystem, match="column 0"):
            solve(system)
        (u,) = solve(dataclasses.replace(system, rhs=b[:, 1:],
                                         exterior=(G13,)))
        assert np.array_equal(u.values, np.full(n, 2.0 ** 40))

    @pytest.mark.parametrize("N,dense_max", [(2048, 1024), (1024, 4096)],
                             ids=["cg", "lu"])
    def test_small_rhs_beside_a_u_solves(self, monkeypatch, N, dense_max):
        # far data of -0.6 beyond 6 give a rhs far below A u: the
        # residual is 2.4e-10 (CG) and 2.0e-10 (LU) of max |b|, but its
        # backward error stays near 1e-15 on both paths
        system = assemble(fractional_kernel(1, 0.9),
                          mesh_intervals([(-4.0, 0.0), (0.0, 4.0)], N),
                          piecewise_constant([], far_value=-0.6,
                                             far_radius=6.0))
        assert isinstance(system.operator, solver1d.ToeplitzOperator)
        monkeypatch.setattr(solver1d, "DENSE_MAX_CELLS", dense_max)
        u = solve(system)
        assert -0.6 < u.values.min() and u.values.max() < 0.0

    @pytest.mark.parametrize("N", [4, 2048], ids=["lu", "cg"])
    def test_rhs_near_the_float_limit_solves(self, N):
        # |A| |u| overflows at rhs 1e308, so the check runs on b and u
        # scaled by a power of two; by linearity u is 1e308 times the
        # unit-load solution plus the O(1) response to the datum
        kernel = fractional_kernel(1, 0.5)
        u = solve(assemble(kernel, unit_mesh(N), G13, rhs=1e308)).values
        unit = solve(assemble(kernel, unit_mesh(N), constant(0.0), rhs=1.0))
        np.testing.assert_allclose(u, 1e308 * unit.values, rtol=1e-10)

    def test_wrong_solution_near_the_float_limit_is_caught(self,
                                                          monkeypatch):
        # unscaled, the bound 1e-10 (|A| |u| + |b|) is inf and would pass
        # any residual
        solve_exact = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solve_exact(a, b) * (1.0 + 1e-6))
        system = assemble(fractional_kernel(1, 0.5), unit_mesh(), G13,
                          rhs=1e308)
        with pytest.raises(SingularSystem, match="residual"):
            solve(system)

    @pytest.mark.parametrize("g", [
        constant(1e308),
        piecewise_constant([(1.0, 2.0, 1e308), (2.0, 3.0, -1e308)]),
    ], ids=["const", "pieces"])
    def test_data_mass_past_the_float_range_is_refused(self, g):
        # the data masses overflow to inf or nan, which no solve can take
        with pytest.raises(ConfigParseError, match="float range"):
            assemble(fractional_kernel(1, 0.5), unit_mesh(), g)


# meshes whose cells mirror about their midpoint: the reference two balls
# at N = 256 and (-1, 1) at 1,024 cells
MIRRORED_MESHES = {"two-balls": lambda: mesh_over(TWO_BALLS, 256),
                   "one": lambda: unit_mesh(1024)}


@pytest.fixture
def splits(monkeypatch):
    """The matrices solve() hands to _solve_mirrored, in order."""
    seen = []
    split = solver1d._solve_mirrored

    def spy(a, b):
        seen.append(a)
        return split(a, b)

    monkeypatch.setattr(solver1d, "_solve_mirrored", spy)
    return seen


class TestMirroredSolve:
    """A radial kernel on a mesh that mirrors about its midpoint gives a
    matrix that commutes with the reversal of the cells; the dense solve
    reads that off the system's kernel and mesh and splits the matrix
    into two half-size systems."""

    @pytest.mark.parametrize("case", sorted(MIRRORED_MESHES))
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("family", ["frac", "ti"])
    def test_split_matches_plain_lu(self, splits, family, s, case):
        kernel = (fractional_kernel(1, s) if family == "frac"
                  else ti_demo_kernel(s))
        rng = np.random.default_rng(11)
        data = [random_nonneg_data(TWO_BALLS, rng) for _ in range(20)]
        block = assemble(kernel, MIRRORED_MESHES[case](), data)
        a = block.matrix
        np.testing.assert_allclose(a[::-1, ::-1], a, rtol=1e-15, atol=0.0)
        # one datum and a block of 20
        one = dataclasses.replace(block, rhs=block.rhs[:, 0],
                                  exterior=data[0])
        for system, u in ((one, solve(one).values),
                          (block, np.stack([v.values for v in solve(block)],
                                           axis=1))):
            ref = np.linalg.solve(a, system.rhs)
            # both routes are backward stable, so they part by up to
            # cond(A) eps (2.3e-12 at s = 0.75 on 1,024 cells); measured
            # 8.6e-14 at one BLAS thread and 1.7e-13 at two, each within
            # 1.4e-13 of the iteratively refined solution
            assert np.max(np.abs(u - ref)) <= 5e-13 * np.max(np.abs(ref))
        assert len(splits) == 2
        assert all(np.array_equal(m, a) for m in splits)

    @pytest.mark.parametrize("case", ["general", "odd", "asymmetric"])
    def test_plain_lu_elsewhere(self, splits, case):
        # no split, and the solve is LU's, bit for bit
        kernel, mesh = fractional_kernel(1, 0.5), unit_mesh(4)
        if case == "general":
            kernel = general_demo_kernel(0.5)
        elif case == "odd":
            mesh = unit_mesh(5)
        elif case == "asymmetric":
            mesh = mesh_intervals([(-5.0, -4.0), (-1.0, 0.0), (0.5, 1.5)], 8)
        system = assemble(kernel, mesh, G13)
        u = solve(system).values
        assert splits == []
        assert np.array_equal(u, np.linalg.solve(system.matrix, system.rhs))

    def test_hand_built_system_takes_the_split(self, splits):
        # a radial system built by hand on a mirrored mesh splits as the
        # assembled one does
        assembled = assemble(fractional_kernel(1, 0.5), unit_mesh(4), G13)
        system = LinearSystem(
            operator=assembled.operator, rhs=assembled.rhs,
            mesh=assembled.mesh, kernel=assembled.kernel, exterior=G13,
            exterior_mass=assembled.exterior_mass, assembly_error=0.0)
        assert np.array_equal(solve(system).values,
                              solve(assembled).values)
        assert len(splits) == 2

    def test_residual_checked_against_the_whole_matrix(self, splits):
        # the asymmetric domain's system on a mirrored mesh of as many
        # cells forces the split on a matrix that is not mirrored, which
        # solves another system; the backward-error check on the full A
        # refuses it
        mesh = mesh_intervals([(-5.0, -4.0), (-1.0, 0.0), (0.5, 1.5)], 8)
        system = assemble(fractional_kernel(1, 0.5), mesh, G13)
        with pytest.raises(SingularSystem, match="residual"):
            solve(dataclasses.replace(system, mesh=unit_mesh(24)))
        assert len(splits) == 1


# two-ball meshes B_2r(x1) u B_2r(x2) with r = 1: touching, separated on
# the lattice of 32 cells per ball, and separated off it
TOEPLITZ_MESHES = {
    "one": lambda: unit_mesh(64),
    "touching": lambda: mesh_over(make_disconnected_config(
        n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0), 32),
    "separated": lambda: mesh_over(make_disconnected_config(
        n=1, x1=-3.0, x2=3.0, r=1.0, R=16.0), 32),
    "off-lattice": lambda: mesh_over(make_disconnected_config(
        n=1, x1=-2.5, x2=2.7, r=1.0, R=16.0), 32),
}


class TestToeplitzRoute:
    """Conjugate gradients on the O(m) Toeplitz form against the dense LU
    of the same system, with DENSE_MAX_CELLS lowered below its size."""

    @pytest.mark.parametrize("s,rel", [(0.25, 1e-10), (0.5, 1e-10),
                                       (0.75, 1e-10), (0.9, 1e-9)])
    @pytest.mark.parametrize("case", sorted(TOEPLITZ_MESHES))
    @pytest.mark.parametrize("family", ["frac", "ti"])
    def test_cg_matches_dense_lu(self, monkeypatch, family, case, s, rel):
        k = fractional_kernel(1, s) if family == "frac" else ti_demo_kernel(s)
        mesh = TOEPLITZ_MESHES[case]()
        system = assemble(k, mesh, block_data())
        assert isinstance(system.operator, solver1d.ToeplitzOperator)
        assert system.matrix is system.matrix
        dense = solve(system)

        def no_lu(*args):
            raise AssertionError("LU above DENSE_MAX_CELLS")

        monkeypatch.setattr(solver1d, "DENSE_MAX_CELLS", 16)
        monkeypatch.setattr(np.linalg, "solve", no_lu)
        for u, ref in zip(solve(system), dense):
            scale = np.max(np.abs(ref.values))
            assert np.max(np.abs(u.values - ref.values)) <= rel * scale

    @pytest.mark.parametrize("m", [8, 1024, 2048])
    @pytest.mark.parametrize("mesh", ["one", "two-balls"])
    @pytest.mark.parametrize("family", ["frac", "ti"])
    def test_form_follows_the_kernel(self, monkeypatch, family, mesh, m):
        # a translation-invariant system keeps the O(m) form at any size,
        # and assemble fills no dense matrix for it
        def no_fill(*args):
            raise AssertionError("dense matrix filled in assemble")

        monkeypatch.setattr(solver1d, "_toeplitz_fill", no_fill)
        k = (fractional_kernel(1, 0.5) if family == "frac"
             else ti_demo_kernel(0.5))
        system = assemble(k, unit_mesh(m) if mesh == "one"
                          else mesh_over(TWO_BALLS, m // 2), G13)
        assert system.mesh.ncells == m
        assert isinstance(system.operator, solver1d.ToeplitzOperator)

    def test_lu_solve_builds_no_preconditioner(self, monkeypatch):
        # the Strang spectra are built on first use, which only CG makes
        system = assemble(fractional_kernel(1, 0.5), unit_mesh(64), G13)
        solve(system)
        assert "eig" not in vars(system.operator)
        monkeypatch.setattr(solver1d, "DENSE_MAX_CELLS", 16)
        solve(system)
        assert len(vars(system.operator)["eig"]) == 1

    def test_general_kernel_is_dense(self, general_system):
        assert isinstance(general_system.operator, np.ndarray)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(solver1d, "DENSE_MAX_CELLS", 16)
        monkeypatch.setattr(solver1d, "CG_MAX_ITER", 2)
        system = assemble(fractional_kernel(1, 0.5), unit_mesh(64), G13)
        with pytest.raises(SingularSystem, match="conjugate gradients"):
            solve(system)

    def test_memory_budget_on_the_toeplitz_path(self, monkeypatch):
        # the O(m) system solves under a budget its dense view exceeds;
        # the view is refused when read, and a budget below the working
        # vectors refuses the mesh before any coupling is computed
        m = 512
        monkeypatch.setattr(solver1d, "DENSE_MAX_CELLS", 256)
        monkeypatch.setattr(solver1d, "MATRIX_BUDGET_BYTES", 8 * m * m - 1)
        system = assemble(fractional_kernel(1, 0.5), unit_mesh(m), G13)
        assert solve(system).values.shape == (m,)
        with pytest.raises(ConfigError, match="budget"):
            system.matrix

        def no_couplings(*args):
            raise AssertionError("couplings built past the budget")

        need = 8 * m * (solver1d.ASSEMBLY_VECTORS + solver1d.CG_VECTORS)
        monkeypatch.setattr(solver1d, "MATRIX_BUDGET_BYTES", need - 1)
        monkeypatch.setattr(solver1d, "_couplings", no_couplings)
        with pytest.raises(ConfigError, match="working vectors"):
            assemble(fractional_kernel(1, 0.5), unit_mesh(m), G13)

    def test_memory_budget_counts_the_exterior_segments(self, monkeypatch):
        # every distinct exterior segment holds one mass vector of m cells:
        # at 40,000 cells a datum of 4,000 pieces needs about 1.25 GiB and
        # is refused before any coupling or mass is computed, while ten
        # pieces pass the check
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(solver1d, "_couplings", reached)
        monkeypatch.setattr(solver1d, "_segment_masses", reached)
        mesh, k = unit_mesh(40_000), fractional_kernel(1, 0.5)
        many = piecewise_constant([(1.0 + i, 2.0 + i, 1.0)
                                   for i in range(4000)])
        with pytest.raises(ConfigError, match="4002 exterior segments"):
            assemble(k, mesh, many)
        with pytest.raises(Reached):
            assemble(k, mesh, piecewise_constant([(1.0 + i, 2.0 + i, 1.0)
                                                  for i in range(10)]))

    def test_hundred_thousand_cells_in_linear_memory(self):
        # a dense matrix of 100,000 cells would take 80 GB
        tracemalloc.start()
        try:
            system = assemble(fractional_kernel(1, 0.5), unit_mesh(100_000),
                              G13)
            u, iterations = solver1d._cg(system.operator,
                                         system.rhs[:, None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert iterations <= 25  # 17 measured
        resid = np.max(np.abs(system.rhs - system.operator.apply(u.T)[0]))
        assert resid <= 1e-13 * np.max(np.abs(system.rhs))
        assert 0.0 < u.min() and u.max() < 1.0


@pytest.fixture(scope="module")
def general_system():
    return assemble(general_demo_kernel(0.5), unit_mesh(), G13)


class TestDualRoutes:
    def test_power_profile_reproduces_closed_forms(self):
        # the same kernel entered through the quadrature path must agree
        # with the closed-form path within the reported assembly error
        s = 0.6
        kf = fractional_kernel(1, s)
        amp = float(kf.eval_at_distance(1.0))
        kt = Kernel(s=s, profile=lambda d: np.full_like(d, amp))
        # a non-dyadic mesh has fewer distinct gaps than cell pairs, so the
        # shared error estimate is charged from a smaller overlap integral
        for mesh in (unit_mesh(8), unit_mesh(100)):
            s1 = assemble(kf, mesh, G13)
            s2 = assemble(kt, mesh, G13)
            assert s2.assembly_error < 1e-4
            assert np.max(np.abs(s1.matrix - s2.matrix)) <= s2.assembly_error
            assert np.max(np.abs(s1.rhs - s2.rhs)) <= s2.assembly_error

    def test_power_pair_kernel_reproduces_closed_forms(self):
        # the power kernel entered as a general pair kernel: the nested
        # vector-valued quadrature against the closed forms
        s = 0.6
        kf = fractional_kernel(1, s)
        amp = float(kf.eval_at_distance(1.0))
        kg = Kernel(s=s, pair_fn=lambda x, y:
                    np.full(np.broadcast(x, y).shape, amp))
        s1 = assemble(kf, unit_mesh(), G13)
        s2 = assemble(kg, unit_mesh(), G13)
        assert s2.assembly_error < 1e-3
        assert np.max(np.abs(s1.matrix - s2.matrix)) <= s2.assembly_error
        assert np.max(np.abs(s1.rhs - s2.rhs)) <= s2.assembly_error

    def test_ti_exterior_mass_within_assembly_error(self):
        # E_i of the built-in TI kernel, truncated 2e4 past the domain,
        # against nested quad of the tail mass T(d) = int_d^inf K: the
        # truncated tail is charged at the envelope lam = 1.5, which the
        # profile's factor approaches there, so this bound is nearly tight
        kernel = ti_demo_kernel(0.25)
        mesh = unit_mesh(16)
        system = assemble(kernel, mesh, G13)
        gamma = BAND_FRACTION * float(mesh.widths[0])

        def k(t):
            return float(kernel.eval_at_distance(t))

        total = quad(k, gamma, np.inf, epsabs=1e-13, epsrel=1e-13)[0]

        def tail(d):  # banded: the band |x - y| < gamma is excluded
            return total - quad(k, gamma, max(d, gamma), epsabs=1e-13,
                                epsrel=1e-13)[0]

        def right(lo, hi):  # the cell (lo, hi) against (1, inf)
            cuts = [lo, *[c for c in (1.0 - gamma,) if lo < c < hi], hi]
            return sum(quad(lambda x: tail(1.0 - x), a, b, epsabs=1e-12,
                            epsrel=1e-12)[0] for a, b in zip(cuts, cuts[1:]))

        # the mesh is symmetric: (-inf, -1) mirrors (1, inf)
        R = np.array([right(lo, hi)
                      for lo, hi in zip(mesh.lo.tolist(), mesh.hi.tolist())])
        E = system.exterior_mass / 2.0
        assert np.sum(np.abs(E - (R + R[::-1]))) <= system.assembly_error

    def test_ti_demo_solve(self):
        system = assemble(ti_demo_kernel(0.5), unit_mesh(8), G13)
        a = system.matrix
        assert np.array_equal(a, a.T)
        assert np.allclose(a.sum(axis=1), system.exterior_mass,
                           rtol=1e-9, atol=1e-10)
        u = solve(system)
        assert np.all(u.values >= 0)
        assert np.all(u.values <= 1.0)

    def test_general_kernel_structure(self, general_system):
        a = general_system.matrix
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) > 0)
        assert np.all((a - np.diag(np.diag(a))) <= 0)
        assert np.allclose(a.sum(axis=1), general_system.exterior_mass,
                           rtol=1e-12, atol=1e-13)
        assert general_system.assembly_error < 1e-2

    def test_general_kernel_constants(self, general_system):
        # g = 1 has rhs exactly equal to the exterior mass; the row-sum
        # identity then forces u = 1 regardless of quadrature error
        system = dataclasses.replace(general_system,
                                     rhs=general_system.exterior_mass.copy())
        u = solve(system)
        assert np.max(np.abs(u.values - 1.0)) < 1e-12


class TestAgainstExtension:
    def test_solution_converges_to_representation(self):
        # the ball solution with exterior indicator data has the Poisson
        # representation as its exact value; coarse-to-fine errors drop
        s = 0.5
        k = fractional_kernel(1, s)
        pk = PoissonKernelBall(n=1, s=s, r=1.0, center=(0.0,))
        errs = []
        for n_cells in (32, 64):
            mesh = unit_mesh(n_cells)
            u = solve(assemble(k, mesh, G13))
            ref = np.array([poisson_extend(pk, G13, float(x)).value
                            for x in mesh.centers])
            errs.append(float(np.max(np.abs(u.values - ref))
                              / np.max(np.abs(ref))))
        assert errs[1] < errs[0]
        assert errs[1] < 0.03


def dip_min(kernel, mesh, c0):
    """min u for Lu = -c0 on the mesh with zero exterior data."""
    return float(np.min(solve(assemble(kernel, mesh, constant(0.0),
                                       rhs=-c0)).values))


class TestDip:
    """The dip constant -min u / (c0 r^(2s)) of the unit-load problem."""

    def test_dip_constant_regression(self):
        # r = 1 and c0 = 1, so the constant is -min u
        min_u = dip_min(fractional_kernel(1, 0.5), unit_mesh(64), 1.0)
        assert min_u == pytest.approx(-DIP_CHAT_S05_N64, rel=1e-10)

    def test_dip_translation_invariant(self):
        mesh = mesh_intervals([(1.0, 3.0)], 64)
        min_u = dip_min(fractional_kernel(1, 0.5), mesh, 1.0)
        assert -min_u == pytest.approx(DIP_CHAT_S05_N64, rel=1e-10)

    def test_dip_linear_in_load(self):
        k = fractional_kernel(1, 0.75)
        mesh = unit_mesh(32)
        m1 = dip_min(k, mesh, 1.0)
        m10 = dip_min(k, mesh, 10.0)
        assert m10 == pytest.approx(10.0 * m1, rel=1e-12)


class TestSegments:
    def test_data_clipped_to_the_exterior(self):
        mesh = mesh_intervals([(-1.0, 0.0), (0.5, 1.5)], 4)
        g = piecewise_constant([(-2.0, 2.5, 0.5)], far_value=-1.0,
                               far_radius=3.0)
        assert g.segments_in(complement(mesh.intervals)) == [
            (-2.0, -1.0, 0.5), (-np.inf, -3.0, -1.0), (0.0, 0.5, 0.5),
            (1.5, 2.5, 0.5), (3.0, np.inf, -1.0)]

    def test_bare_callable_data_rejected(self, monkeypatch):
        # a function without segments fails before any coupling is computed
        def no_couplings(*args):
            raise AssertionError("couplings built for a smooth profile")

        monkeypatch.setattr(solver1d, "_couplings", no_couplings)
        with pytest.raises(ConfigParseError,
                           match="w2 is not piecewise-constant data"):
            assemble(fractional_kernel(1, 0.6), unit_mesh(),
                     barrier_w2(TWO_BALLS))


@given(
    s=st.floats(0.15, 0.9),
    sep=st.floats(4.0, 8.0),
    v_mid=st.floats(0.0, 3.0),
    v_far=st.floats(0.0, 3.0),
)
def test_principles_on_random_configs(s, sep, v_mid, v_far):
    """Nonnegative data cannot produce a negative solution, adding data
    cannot lower it anywhere, and the solution never beats the data sup."""
    cfg = make_disconnected_config(n=1, x1=0.0, x2=sep, r=1.0, R=40.0)
    mesh = mesh_over(cfg, 8)
    k = fractional_kernel(1, s)
    pieces = [(sep + 2.5, sep + 4.0, v_far)]
    if sep > 4.4:
        pieces.append((2.1, sep - 2.1, v_mid))
    g = piecewise_constant(pieces, label="rand")
    system = assemble(k, mesh, g)
    a = system.matrix
    assert np.allclose(a.sum(axis=1), system.exterior_mass,
                       rtol=1e-11, atol=1e-12)
    assert np.all(np.diag(a) > 0)
    assert np.all((a - np.diag(np.diag(a))) <= 0)
    u = solve(system)
    top = max(v for *_, v in pieces)
    assert np.all(u.values >= -1e-12)
    assert np.all(u.values <= top + 1e-12)
    bumped = piecewise_constant(pieces + [(-6.0, -4.0, 1.0)], label="rand+")
    u2 = solve(assemble(k, mesh, bumped))
    assert np.all(u2.values >= u.values - 1e-12)
