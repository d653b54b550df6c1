"""Experiment-harness tests.

Golden values are frozen from seeded runs of this code; they guard the
report pipeline (solve, reduce, aggregate) against regressions, while
the property tests pin the invariants every report must satisfy.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from nonlocal_lab import harnack, quadrature, solver1d
from nonlocal_lab.errors import (
    ConfigError,
    ConfigParseError,
    EmptySample,
    NoPositiveC0,
    UnsupportedKernel,
)
from nonlocal_lab.geometry import make_disconnected_config, \
    mesh_intervals, mesh_over
from nonlocal_lab.harnack import (
    CSV_COLUMNS,
    aggregate_c_max,
    barrier_combination_check,
    disconnected_harnack_experiment,
    far_negative_data,
    harnack_report,
    localized_mp_check,
    mass_near_x2_data,
    random_nonneg_data,
    s_sweep,
)
from nonlocal_lab.kernel import make_kernel
from nonlocal_lab.operator import barrier_w1, barrier_w2, constant, eval_L
from nonlocal_lab.solver1d import assemble, solve

CFG = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)

# regression pins from seeded runs (s = 0.5 fractional kernel)
CMAX_RAND_S05_N64_SEED7 = 2.0767064913609086
MASS_C_S05_N256 = (1.3899669950854436, 3.2382870564032213,
                   5.2550424087884817, 5.6763981491136155)
MP_C_S025_N256 = {8.0: 0.23092580045987118, 16.0: 0.22648141385408047,
                  32.0: 0.22543913887470585}
C0MAX_S025 = 0.027384196342643614
SWEEP_CMAX = (1.6162921388098432, 1.8395138133759841,
              2.4068225133209702, 2.5498016786224014)
SWEEP_C0 = (0.01, 0.0027384196342643613, 0.00031622776601683794,
            0.00011547819846894582)
S_GRID = (0.5, 0.7, 0.9, 0.95)


def frac(s):
    return make_kernel("frac", 1, s)


@pytest.fixture(scope="module")
def random_batch():
    return disconnected_harnack_experiment(
        0.5, frac(0.5), CFG, "random-nonneg", seed=7, N=64, samples=20)


class TestReportGoldens:
    def test_random_family_regression(self, random_batch):
        rep = random_batch[0]
        assert rep.sup == pytest.approx(0.59996496144304312, rel=1e-12)
        assert rep.inf == pytest.approx(0.53625108216329698, rel=1e-12)
        assert rep.avg == pytest.approx(0.56042124290078976, rel=1e-12)
        assert rep.tail_term == 0.0
        assert rep.C_estimate == pytest.approx(1.1188135211265537, rel=1e-12)
        assert aggregate_c_max(random_batch) == pytest.approx(
            CMAX_RAND_S05_N64_SEED7, rel=1e-10)

    def test_mass_family_regression(self):
        reps = disconnected_harnack_experiment(
            0.5, frac(0.5), CFG, "mass-near-x2", seed=0, N=256)
        cs = [rep.C_estimate for rep in reps]
        assert cs == pytest.approx(MASS_C_S05_N256, rel=1e-9)
        assert all(a < b for a, b in zip(cs, cs[1:]))
        # bounded transfer: the constant saturates instead of following M
        assert abs(cs[3] - cs[2]) / cs[2] < 0.10

    def test_far_negative_tail_closed_form(self):
        # data -1 outside B_R makes the tail (r/R)^{2s}/s on the nose
        g = far_negative_data(CFG, None, magnitude=1.0)
        u = solve(assemble(frac(0.5), mesh_over(CFG, 64), g))
        rep = harnack_report(u, CFG, 0.5)
        assert rep.tail_term == pytest.approx(0.125, rel=1e-12)
        assert rep.sup < 0.0
        assert rep.C_estimate == "trivial"

    def test_far_negative_with_interior_mass_is_nontrivial(self):
        reps = disconnected_harnack_experiment(
            0.5, frac(0.5), CFG, "far-negative", seed=3, N=64, samples=4)
        assert all(rep.tail_term == pytest.approx(0.125, rel=1e-12)
                   for rep in reps)
        assert np.isfinite(aggregate_c_max(reps))


class TestReportShape:
    def test_as_dict_schema(self, random_batch):
        d = random_batch[0].as_dict()
        assert set(d) == {"config", "s", "kernel", "sup", "inf", "avg",
                          "tail_term", "C_estimate", "seed", "N",
                          "sample_id"}
        assert set(d["config"]) == {"n", "x1", "x2", "r", "R", "checked"}
        assert d["kernel"] == "fractional(s=0.5,lam=1)"
        assert d["seed"] == 7 and d["N"] == 64

    def test_csv_row_matches_columns(self, random_batch):
        row = random_batch[1].csv_row()
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == 0.5 and row[1] == 1

    def test_experiment_is_deterministic(self, random_batch):
        again = disconnected_harnack_experiment(
            0.5, frac(0.5), CFG, "random-nonneg", seed=7, N=64, samples=20)
        assert [r.as_dict() for r in again] \
            == [r.as_dict() for r in random_batch]

    def test_experiment_assembles_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(harnack, "assemble", counting)
        reps = disconnected_harnack_experiment(
            0.5, frac(0.5), CFG, "random-nonneg", seed=7, N=16, samples=5)
        assert len(calls) == 1
        assert [r.sample_id for r in reps] == list(range(5))

    @pytest.mark.parametrize("family,draw,tag", [
        ("random-nonneg", random_nonneg_data, "rand"),
        ("far-negative", far_negative_data, "farneg")])
    def test_experiment_draws_and_reports_like_one_by_one(self, monkeypatch,
                                                          family, draw, tag):
        # the data drawn as one array are the data drawn sample by sample
        # from one generator, and each report is harnack_report of its own
        # solution, bit for bit
        seen = {}

        def keeping_assemble(kernel, mesh, data, *args, **kwargs):
            seen["data"] = data
            return assemble(kernel, mesh, data, *args, **kwargs)

        def keeping_solve(system):
            seen["solutions"] = solve(system)
            return seen["solutions"]

        monkeypatch.setattr(harnack, "assemble", keeping_assemble)
        monkeypatch.setattr(harnack, "solve", keeping_solve)
        reps = disconnected_harnack_experiment(
            0.75, frac(0.75), CFG, family, seed=11, N=32, samples=6)
        rng = np.random.default_rng(11)
        want = [draw(CFG, rng, label=f"{tag}{i}") for i in range(6)]
        assert [(g.pieces, g.far_value, g.far_radius, g.label, g.breaks,
                 g.sup_bound) for g in seen["data"]] \
            == [(g.pieces, g.far_value, g.far_radius, g.label, g.breaks,
                 g.sup_bound) for g in want]
        for i, (rep, u) in enumerate(zip(reps, seen["solutions"])):
            one = dataclasses.replace(harnack_report(u, CFG, 0.75),
                                      kernel=frac(0.75).tag(), seed=11,
                                      sample_id=i)
            assert repr(rep.as_dict()) == repr(one.as_dict())

    @pytest.mark.parametrize("family", ["random-nonneg", "mass-near-x2",
                                        "far-negative"])
    def test_report_of_each_solution_is_the_experiments(self, monkeypatch,
                                                        family):
        # harnack_report reads N off the mesh: its cells per ball
        solutions = []

        def keeping_solve(system):
            solutions.extend(solve(system))
            return solutions

        monkeypatch.setattr(harnack, "solve", keeping_solve)
        reps = disconnected_harnack_experiment(
            0.5, frac(0.5), CFG, family, seed=2, N=16, samples=3)
        assert len(reps) == len(solutions) and reps[0].N == 16
        for rep, u in zip(reps, solutions):
            assert dataclasses.replace(
                harnack_report(u, CFG, 0.5), kernel=frac(0.5).tag(), seed=2,
                sample_id=rep.sample_id) == rep

    def test_far_negative_data_is_the_random_datum_with_a_far_part(self):
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        g = far_negative_data(CFG, rng_a, magnitude=2.5, label="f")
        inside = random_nonneg_data(CFG, rng_b)
        assert g.pieces == inside.pieces and g.label == "f"
        assert (g.far_value, g.far_radius) == (-2.5, CFG.R)
        assert g.sup_bound == 2.5
        assert far_negative_data(CFG).pieces == ()

    @staticmethod
    def _tail_terms(data, s=0.5):
        solutions = solve(assemble(frac(s), mesh_over(CFG, 64), data))
        return [harnack_report(u, CFG, s).tail_term for u in solutions]

    def test_far_negative_tail_is_the_closed_form(self):
        # every cell lies inside B_R, so only the far part -m beyond B_R
        # counts: (r/R)^(2s) m / s
        data = [(far_negative_data(CFG, np.random.default_rng(1)), 1.0),
                (far_negative_data(CFG, None, magnitude=3.0), 3.0),
                (constant(-1.0), 1.0)]
        for s in (0.25, 0.5):
            got = self._tail_terms([g for g, _ in data], s)
            for t, (_, m) in zip(got, data):
                assert t == pytest.approx((CFG.r / CFG.R) ** (2.0 * s) * m / s,
                                          rel=1e-14)

    def test_nonnegative_data_have_no_tail(self):
        rng = np.random.default_rng(2)
        data = [random_nonneg_data(CFG, rng), mass_near_x2_data(CFG, 10.0),
                constant(1.0)]
        assert self._tail_terms(data) == [0.0, 0.0, 0.0]

    def test_report_outside_mesh_raises(self):
        u = solve(assemble(frac(0.5), mesh_intervals([(10.0, 12.0)], 8),
                           constant(1.0)))
        with pytest.raises(EmptySample):
            harnack_report(u, CFG, 0.5)

    def test_aggregate_of_trivial_batch_raises(self):
        g = far_negative_data(CFG, None, magnitude=1.0)
        u = solve(assemble(frac(0.5), mesh_over(CFG, 16), g))
        rep = harnack_report(u, CFG, 0.5)
        with pytest.raises(EmptySample):
            aggregate_c_max([rep, rep])

    def test_unknown_family_raises(self):
        with pytest.raises(ConfigParseError):
            disconnected_harnack_experiment(0.5, frac(0.5), CFG, "bogus")

    @pytest.mark.parametrize("family", ["random-nonneg", "mass-near-x2",
                                        "far-negative"])
    def test_order_other_than_the_kernel_refused_first(self, family,
                                                       monkeypatch):
        # a report would carry s under another order's kernel tag, with
        # its tail at the wrong order; nothing is drawn or assembled
        def fail(*args, **kwargs):
            raise AssertionError("drawn or assembled")

        for name in ("_random_family", "mass_near_x2_data", "assemble"):
            monkeypatch.setattr(harnack, name, fail)
        with pytest.raises(ConfigParseError, match="kernel's order 0.5"):
            disconnected_harnack_experiment(0.75, frac(0.5), CFG, family)

    @pytest.mark.parametrize("family,kw", [
        ("random-nonneg", {"samples": 0}), ("far-negative", {"samples": 0}),
        ("mass-near-x2", {"masses": ()})])
    def test_family_without_data_raises(self, family, kw):
        # nothing drawn is a configuration error, not a trivial batch
        with pytest.raises(ConfigParseError, match="no data"):
            disconnected_harnack_experiment(0.5, frac(0.5), CFG, family,
                                            N=16, **kw)


class TestDataFamilies:
    def test_random_data_lives_in_the_gaps(self):
        # at separation 4r the middle gap is empty: two gaps of 8 cells
        rng = np.random.default_rng(11)
        g = random_nonneg_data(CFG, rng)
        assert len(g.pieces) == 16
        for lo, hi, val in g.pieces:
            assert 0.0 <= val <= 1.0
            assert -16.0 <= lo < hi <= 16.0
            assert hi <= -4.0 or lo >= 4.0  # off the solved domain

    def test_mass_data_window_and_baseline(self):
        g = mass_near_x2_data(CFG, 100.0)
        assert g(np.array([4.5]))[0] == pytest.approx(101.0)
        for y in (-10.0, -4.5, 6.0, 15.0):
            assert g(np.array([y]))[0] == pytest.approx(1.0)

    def test_mass_window_past_R_keeps_the_mass(self):
        cfg = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=4.5,
                                       unsafe=True)
        g = mass_near_x2_data(cfg, 7.0)
        assert g(np.array([4.25]))[0] == pytest.approx(8.0)
        assert g(np.array([4.75]))[0] == pytest.approx(7.0)

    @pytest.mark.parametrize("R,unsafe", [(16.0, False), (4.5, True)])
    def test_mass_window_lies_past_x2_away_from_x1(self, R, unsafe):
        # with x2 left of x1 the window is (x2 - 3r, x2 - 2r), and the
        # whole datum is the mirror image of the reference's, past -R too
        ref, mirror = (make_disconnected_config(
            n=1, x1=x1, x2=-x1, r=1.0, R=R, unsafe=unsafe)
            for x1 in (-2.0, 2.0))
        g = mass_near_x2_data(mirror, 7.0)
        assert g(np.array([-4.25]))[0] == pytest.approx(8.0)
        assert g(np.array([4.25]))[0] == pytest.approx(1.0)
        assert list(g.pieces) == sorted(
            (-hi, -lo, v) for lo, hi, v in mass_near_x2_data(ref, 7.0).pieces)

    def test_data_stay_inside_B_R(self):
        # the middle gap (0, 28) of this unsafe layout reaches past R = 16:
        # the data cover the domain's complement clipped to B_R
        cfg = make_disconnected_config(n=1, x1=-2.0, x2=30.0, r=1.0, R=16.0,
                                       unsafe=True)
        g = random_nonneg_data(cfg, np.random.default_rng(0))
        assert (g.pieces[0][0], g.pieces[-1][1]) == (-16.0, 16.0)
        assert {(lo, hi) for lo, hi, _ in g.pieces} >= {(-16.0, -14.5),
                                                        (14.0, 16.0)}

    def test_far_negative_values(self):
        g = far_negative_data(CFG, np.random.default_rng(0), magnitude=2.0)
        assert g(np.array([17.0]))[0] == -2.0
        assert g(np.array([-17.0]))[0] == -2.0
        assert g.pieces


class TestWeakCheck:
    """The weak form: cell average over B_r(x2) against inf over B_r(x1)
    plus the tail term, from the fields of one report."""

    def test_weak_constant_below_strong(self, random_batch):
        u = solve(assemble(frac(0.5), mesh_over(CFG, 64),
                           random_nonneg_data(CFG,
                                              np.random.default_rng(7))))
        rep = harnack_report(u, CFG, 0.5)
        den = rep.inf + rep.tail_term
        assert den > 0.0
        assert 0.0 < rep.avg / den <= random_batch[0].C_estimate

    def test_nonpositive_solution_passes_trivially(self):
        # avg <= 0 and inf + tail <= 0: the weak inequality holds at C = 0
        g = far_negative_data(CFG, None, magnitude=1.0)
        u = solve(assemble(frac(0.5), mesh_over(CFG, 32), g))
        rep = harnack_report(u, CFG, 0.5)
        assert rep.avg <= 0.0 and rep.inf + rep.tail_term <= 0.0


class TestLocalizedMP:
    def test_stability_regression(self):
        k = frac(0.25)
        cs = {}
        for R, want in MP_C_S025_N256.items():
            cfg = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=R)
            out = localized_mp_check(
                k, cfg, far_negative_data(cfg, None), N=256)
            cs[R] = out["C_empirical"]
            assert cs[R] == pytest.approx(want, rel=1e-10)
        assert max(cs.values()) / min(cs.values()) < 3.0

    def test_dip_linear_in_magnitude(self):
        k = frac(0.25)
        outs = [localized_mp_check(
            k, CFG, far_negative_data(CFG, None, magnitude=m), N=64)
            for m in (1.0, 2.0)]
        assert outs[1]["min_u"] == pytest.approx(2.0 * outs[0]["min_u"],
                                                 rel=1e-12)

    def test_zero_far_data_gives_zeros(self):
        out = localized_mp_check(frac(0.25), CFG, constant(0.0), N=16)
        assert out == {"min_u": 0.0, "tail_term": 0.0, "C_empirical": 0.0}

    @pytest.mark.parametrize("family,s", [("frac", 0.5), ("frac", 0.25),
                                          ("ti", 0.75)])
    def test_tail_takes_the_kernel_order(self, family, s):
        # -1 beyond R and 0 inside has Tail(u_-; 0, R) = 1/s, so the tail
        # term is (r/R)^(2s) / s at the kernel's own order
        out = localized_mp_check(make_kernel(family, 1, s), CFG,
                                 far_negative_data(CFG, None), N=64)
        assert out["tail_term"] == pytest.approx(
            (CFG.r / CFG.R) ** (2.0 * s) / s, rel=1e-12, abs=0.0)


def glued_negative_tail(u, config, s):
    """(r/R)^(2s) Tail(u_-; 0, R) by scipy quadrature of the solution
    glued to its data: the cell value on the mesh, the datum elsewhere."""
    mesh, g = u.mesh, u.exterior

    def u_minus(y):
        cell = np.flatnonzero((mesh.lo < y) & (y < mesh.hi))
        v = u.values[cell[0]] if cell.size else float(g(np.array([y]))[0])
        return max(-v, 0.0)

    R = config.R
    edges = np.abs(np.concatenate([mesh.lo, mesh.hi, g.breaks]))
    d = sorted({R, *edges[edges > R].tolist()})
    total = 0.0
    for side in (1.0, -1.0):
        for a, b in zip(d, d[1:] + [np.inf]):
            total += quad(lambda t: u_minus(side * t) * t ** (-1.0 - 2.0 * s),
                          a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return config.r ** (2.0 * s) * total


# unsafe configurations whose mesh leaves B_R(0): the cells beyond R count
# in the tail term.  At x = +-2 with R = 3 the data gaps are empty, so the
# random datum is zero; the shifted pair keeps a gap (3, 3.5).
UNSAFE = {
    "touching-R3": make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0,
                                            R=3.0, unsafe=True),
    "shifted-R3.5": make_disconnected_config(n=1, x1=-3.0, x2=1.0, r=1.0,
                                             R=3.5, unsafe=True),
}


class TestTailOutsideCutoff:
    @pytest.mark.parametrize("family", ["random-nonneg", "mass-near-x2",
                                        "far-negative"])
    @pytest.mark.parametrize("name", sorted(UNSAFE))
    def test_families_match_glued_quadrature(self, name, family):
        cfg, s = UNSAFE[name], 0.5
        rng = np.random.default_rng(5)
        g = {"random-nonneg": lambda: random_nonneg_data(cfg, rng),
             "mass-near-x2": lambda: mass_near_x2_data(cfg, 10.0),
             "far-negative": lambda: far_negative_data(cfg, rng)}[family]()
        u = solve(assemble(frac(s), mesh_over(cfg, 32), g))
        assert max(-u.mesh.lo.min(), u.mesh.hi.max()) > cfg.R
        rep = harnack_report(u, cfg, s)
        assert rep.tail_term == pytest.approx(glued_negative_tail(u, cfg, s),
                                              rel=1e-12, abs=0.0)
        assert (rep.tail_term > 0.0) == (family == "far-negative")

    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_localized_mp_matches_glued_quadrature(self, s):
        cfg = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=2.5,
                                       unsafe=True)
        far = far_negative_data(cfg, None)
        out = localized_mp_check(frac(s), cfg, far, N=64)
        x1, r = float(cfg.x1[0]), cfg.r
        u = solve(assemble(frac(s), mesh_intervals([(x1 - r, x1 + r)], 64),
                           far))
        assert out["tail_term"] == pytest.approx(
            glued_negative_tail(u, cfg, s), rel=1e-12, abs=0.0)


class TestBarrierCombination:
    def test_c0_regression(self):
        res = barrier_combination_check(frac(0.25), CFG, grid=41)
        assert res["c0_max"] == pytest.approx(C0MAX_S025, rel=1e-12)
        # feasibility at the reported constant, from the returned profiles
        assert np.max(res["Lw1"] + res["c0_max"] * res["Lw2"]) <= 0.0
        # w1 vanishes on the scanned ball, so v = w1 + c0 w2 peaks at c0
        xs = res["grid"]
        v = barrier_w1(CFG)(xs) + res["c0_max"] * barrier_w2(CFG)(xs)
        assert np.max(v) == pytest.approx(res["c0_max"])

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.9])
    def test_one_lock_step_quadrature_per_profile(self, s, monkeypatch):
        # L w1 is a closed form and L w2 one integrate_many call over the
        # grid; the rule is looked up as a module global on every round
        calls = []
        rule = quadrature.gk_panel

        def counted(f, a, b):
            calls.append(np.size(a))
            return rule(f, a, b)

        monkeypatch.setattr(quadrature, "gk_panel", counted)
        barrier_combination_check(frac(s), CFG, grid=101)
        assert 0 < len(calls) <= 20

    def test_no_feasible_c0_raises(self, monkeypatch):
        monkeypatch.setattr(harnack, "C0_GRID", np.array([1e6]))
        with pytest.raises(NoPositiveC0):
            barrier_combination_check(frac(0.25), CFG, grid=21)


# On the reference configuration shifted by this offset, the grid point
# x = -1.1794... lies one ulp from the w2 join x1 + r/2; flooring the
# Richardson scale at that join once made L w2 at s = 0.9 exhaust its
# panel budget.  w2 is C^2 there, so the shifted scan must give the
# unshifted constant.
BARRIER_NEAR_JOIN_SHIFT = 0.3205848747771507


def test_barrier_translated_s09_matches_untranslated():
    d = BARRIER_NEAR_JOIN_SHIFT
    cfg = make_disconnected_config(n=1, x1=-2.0 + d, x2=2.0 + d, r=1.0,
                                   R=16.0)
    shifted = barrier_combination_check(frac(0.9), cfg)["c0_max"]
    assert shifted == barrier_combination_check(frac(0.9), CFG)["c0_max"]


@pytest.mark.parametrize("family,s", [("frac", 0.5), ("ti", 0.75)])
@pytest.mark.parametrize("x1,R", [(-2.0, 16.0), (-3.0, 20.0)])
class TestMirrorImage:
    """y -> -y maps the layout (x1, x2) onto (-x1, -x2), each family's
    data onto the mirrored layout's and the grid of B_r(x1) onto itself
    reversed, so every reported number comes back."""

    @staticmethod
    def layouts(x1, R):
        return [make_disconnected_config(n=1, x1=c, x2=-c, r=1.0, R=R)
                for c in (x1, -x1)]

    def test_mass_family(self, x1, R, family, s):
        kernel = make_kernel(family, 1, s)
        ref, mirror = (disconnected_harnack_experiment(
            s, kernel, cfg, "mass-near-x2", N=64)
            for cfg in self.layouts(x1, R))
        for a, b in zip(ref, mirror):
            for key in ("sup", "inf", "avg", "C_estimate"):
                assert getattr(b, key) == pytest.approx(getattr(a, key),
                                                        rel=1e-12)

    def test_localized_mp(self, x1, R, family, s):
        kernel = make_kernel(family, 1, s)
        ref, mirror = (localized_mp_check(kernel, cfg, far_negative_data(cfg),
                                          N=64)
                       for cfg in self.layouts(x1, R))
        for key in ("min_u", "C_empirical"):
            assert mirror[key] == pytest.approx(ref[key], rel=1e-12)

    def test_barrier_combination(self, x1, R, family, s):
        kernel = make_kernel(family, 1, s)
        layouts = self.layouts(x1, R)
        ref, mirror = (barrier_combination_check(kernel, cfg)
                       for cfg in layouts)
        assert mirror["c0_max"] == ref["c0_max"]
        np.testing.assert_allclose(mirror["Lw1"][::-1], ref["Lw1"],
                                   rtol=1e-12, atol=0.0)
        # L w2 is an adaptive quadrature: the reversed grid is the mirror
        # only to the last bit, and the second difference 2u(x) - u(x+z)
        # - u(x-z) rounds its terms in the other order, so the two agree
        # within their error bounds (up to 1.8e-8 apart, 3.6e-10 relative,
        # for the TI kernel), not to 1e-12
        ref_err, mirror_err = (eval_L(kernel, barrier_w2(cfg), res["grid"],
                                      tol=harnack.BARRIER_TOL).error_bound
                               for cfg, res in zip(layouts, (ref, mirror)))
        assert np.all(np.abs(mirror["Lw2"][::-1] - ref["Lw2"])
                      <= ref_err + mirror_err[::-1])


@pytest.fixture(scope="module")
def sweep():
    return s_sweep("frac", CFG, S_GRID, seed=0, N=128, samples=8)


class TestSweep:
    def test_sweep_regression(self, sweep):
        cmax = [row["C_max"] for row in sweep["table"]]
        c0 = [row["c0_max"] for row in sweep["table"]]
        assert cmax == pytest.approx(SWEEP_CMAX, rel=1e-10)
        assert c0 == pytest.approx(SWEEP_C0, rel=1e-10)

    def test_sweep_monotonicity(self, sweep):
        cmax = [row["C_max"] for row in sweep["table"]]
        c0 = [row["c0_max"] for row in sweep["table"]]
        assert all(a < b for a, b in zip(cmax, cmax[1:]))
        assert all(a > b for a, b in zip(c0, c0[1:]))

    def test_sweep_reports_one_per_sample(self, sweep):
        for s in S_GRID:
            reps = sweep["reports"][s]
            assert [r.sample_id for r in reps] == list(range(8))

    @pytest.mark.parametrize("family, grid, error", [
        ("general", (0.5,), UnsupportedKernel),
        ("frac", (), ConfigParseError),
    ], ids=["general-kernel", "empty-grid"])
    def test_refused_before_any_assembly(self, monkeypatch, family, grid,
                                         error):
        # the barrier check needs a translation-invariant kernel for w2,
        # so a general sweep can never finish; it and an empty grid fail
        # before the first operator is assembled
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            raise AssertionError("assemble called")

        monkeypatch.setattr(harnack, "assemble", counting)
        with pytest.raises(error):
            s_sweep(family, CFG, grid, N=8, samples=2)
        assert calls == []

    def test_barrier_grid_past_the_budget_refused_first(self, monkeypatch):
        # the budget is checked before any operator value or assembly
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(harnack, "eval_L", reached)
        monkeypatch.setattr(harnack, "assemble", reached)
        most = solver1d.MATRIX_BUDGET_BYTES // harnack.BARRIER_POINT_BYTES
        with pytest.raises(Reached):
            s_sweep("frac", CFG, (0.5,), N=8, samples=2, grid=most)
        with pytest.raises(ConfigError, match="budget"):
            s_sweep("frac", CFG, (0.5,), N=8, samples=2, grid=most + 1)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       s=st.floats(min_value=0.2, max_value=0.85))
def test_report_invariants_on_random_draws(seed, s):
    k = frac(s)
    g = random_nonneg_data(CFG, np.random.default_rng(seed))
    u = solve(assemble(k, mesh_over(CFG, 32), g))
    rep = dataclasses.replace(harnack_report(u, CFG, s), kernel=k.tag(),
                              seed=seed)
    assert rep.sup >= rep.avg >= 0.0
    assert rep.inf >= 0.0
    assert rep.tail_term == 0.0
    if rep.inf > 0.0:
        # sup and inf live on different balls, so no lower bound of 1 here
        assert rep.C_estimate == pytest.approx(rep.sup / rep.inf)
    # the weak form holds: a positive average needs a positive denominator
    assert rep.avg <= 0.0 or rep.inf + rep.tail_term > 0.0
