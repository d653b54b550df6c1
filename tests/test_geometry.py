import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonlocal_lab.errors import (
    ConfigParseError,
    ContainmentViolation,
    SeparationViolation,
    UnsupportedDimension,
)
from nonlocal_lab.geometry import (
    DisconnectedConfig,
    Mesh1D,
    complement,
    config_from_text,
    make_disconnected_config,
    mesh_intervals,
    mesh_over,
)
from nonlocal_lab.kernel import fractional_kernel
from nonlocal_lab.operator import indicator
from nonlocal_lab.solver1d import assemble, solve


def corollary_config():
    return make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)


class TestConfigValidation:
    def test_reference_two_interval_config(self):
        cfg = corollary_config()
        x1, x2, r = cfg.x1[0], cfg.x2[0], cfg.r
        assert (x1 - r, x1 + r) == (-3.0, -1.0)
        assert (x2 - r, x2 + r) == (1.0, 3.0)
        assert cfg.domain == [(-4.0, 0.0), (0.0, 4.0)]
        assert cfg.checked

    def test_too_close_centers_rejected(self):
        with pytest.raises(SeparationViolation):
            make_disconnected_config(n=1, x1=0.0, x2=1.0, r=1.0, R=16.0)

    def test_two_dimensional_config_refused(self):
        # the dimension is checked before the centers: these also break
        # the separation rule, and the error names n
        with pytest.raises(UnsupportedDimension, match="n = 2"):
            make_disconnected_config(n=2, x1=(-1.0, 0.0), x2=(1.0, 0.0),
                                     r=1.0, R=20.0)

    def test_point_must_be_a_number(self):
        cfg = make_disconnected_config(n=1, x1=(-3.0,), x2=3.0, r=1.0, R=20.0)
        assert cfg.x1 == (-3.0,) and cfg.separation == 6.0
        with pytest.raises(ConfigParseError, match="point of the line"):
            make_disconnected_config(n=1, x1=(-3.0, 0.0), x2=3.0, r=1.0,
                                     R=20.0)

    def test_separation_equality_accepted(self):
        # non-strict bounds: |x1 - x2| = 4r is fine
        cfg = make_disconnected_config(n=1, x1=0.0, x2=4.0, r=1.0, R=20.0)
        assert cfg.separation == pytest.approx(4.0)

    def test_containment_violation(self):
        with pytest.raises(ContainmentViolation):
            make_disconnected_config(n=1, x1=-5.0, x2=0.0, r=1.25, R=14.0)

    def test_unsafe_skips_checks_but_stamps(self):
        cfg = make_disconnected_config(n=1, x1=0.0, x2=1.0, r=1.0, R=16.0, unsafe=True)
        assert not cfg.checked

    def test_bad_radius_rejected(self):
        with pytest.raises(ConfigParseError):
            make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=-1.0, R=16.0)

    def test_direct_construction_checks(self):
        # a config stamped checked has passed every check, however built
        with pytest.raises(SeparationViolation):
            DisconnectedConfig(n=1, x1=0.0, x2=1.0, r=1.0, R=16.0)
        assert not DisconnectedConfig(n=1, x1=0.0, x2=1.0, r=1.0, R=16.0,
                                      checked=False).checked
        # r and R are checked whatever the stamp
        for r, R in ((-1.0, 16.0), (1.0, float("nan"))):
            for checked in (True, False):
                with pytest.raises(ConfigParseError):
                    DisconnectedConfig(n=1, x1=0.0, x2=8.0, r=r, R=R,
                                       checked=checked)

    def test_replace_checks_again(self):
        cfg = corollary_config()
        with pytest.raises(ContainmentViolation):
            dataclasses.replace(cfg, R=4.0)
        assert dataclasses.replace(cfg, R=4.0, checked=False).R == 4.0


@given(
    x1=st.floats(-5, 5),
    r=st.floats(0.1, 2.0),
    sep_frac=st.floats(0, 1),
)
def test_valid_configs_have_disjoint_2r_balls(x1, r, sep_frac):
    sep = (4.0 + 4.0 * sep_frac) * r
    x2 = x1 + sep
    R = 4.0 * (max(abs(x1), abs(x2)) + 2.0 * r) + 1.0
    cfg = make_disconnected_config(n=1, x1=x1, x2=x2, r=r, R=R)
    (_, b1_hi), (b2_lo, _) = cfg.domain
    # open 2r-balls must not intersect (touching allowed)
    assert b1_hi <= b2_lo + 1e-12


class TestLayout:
    def test_domain_runs_left_to_right_whichever_ball_is_x1(self):
        cfg = make_disconnected_config(n=1, x1=3.0, x2=-3.0, r=1.0, R=20.0)
        assert cfg.domain == [(-5.0, -1.0), (1.0, 5.0)]
        assert mesh_over(cfg, 4).intervals == ((-5.0, -1.0), (1.0, 5.0))

    def test_domain_needs_n_one(self):
        with pytest.raises(UnsupportedDimension):
            make_disconnected_config(n=2, x1=(-3.0, 0.0), x2=(3.0, 0.0),
                                     r=1.0, R=20.0).domain

    @pytest.mark.parametrize("intervals,gaps", [
        ([(-1.0, 1.0)], []),
        ([(0.0, 4.0), (-4.0, 0.0)], []),  # touching: no middle component
        ([(-5.0, -1.0), (1.0, 5.0)], [(-1.0, 1.0)]),
    ])
    def test_complement(self, intervals, gaps):
        lo, hi = min(intervals)[0], max(intervals)[1]
        assert complement(intervals) == [(-np.inf, lo), *gaps, (hi, np.inf)]


class TestMesh:
    def test_reference_cells_n4(self):
        mesh = mesh_over(corollary_config(), N=4)
        assert np.allclose(mesh.centers, [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5])
        assert np.allclose(mesh.widths, 1.0)

    def test_minimum_resolution_enforced(self):
        with pytest.raises(ConfigParseError):
            mesh_over(corollary_config(), N=0)

    def test_cell_count_and_width(self):
        mesh = mesh_over(corollary_config(), N=512)
        assert mesh.ncells == 1024
        assert np.allclose(mesh.widths, 4.0 / 512.0)

    def test_widths_tile_intervals_exactly(self):
        mesh = mesh_over(corollary_config(), N=37)
        for k, (a, b) in enumerate(mesh.intervals):
            inside = (mesh.centers > a) & (mesh.centers < b)
            total = mesh.widths[inside].sum()
            assert total == pytest.approx(b - a, rel=1e-15)

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimension):
            mesh_over(make_disconnected_config(
                n=2, x1=(-3.0, 0.0), x2=(3.0, 0.0), r=1.0, R=20.0), N=8)

    def test_cells_in_ball_uses_open_centers(self):
        mesh = mesh_over(corollary_config(), N=4)
        idx = mesh.cells_in(-2.0, 1.0)
        assert np.allclose(mesh.centers[idx], [-2.5, -1.5])


def solved(mesh):
    return solve(assemble(fractional_kernel(1, 0.5), mesh,
                          indicator(1.0, 3.0))).values


class TestMeshIsIntervalsAndN:
    """A mesh is its intervals and N: its cell arrays derive from them, on
    every construction."""

    def test_fields_are_the_intervals_and_n(self):
        assert [f.name for f in dataclasses.fields(Mesh1D)] == ["intervals", "N"]

    @pytest.mark.parametrize("ivs", [((-2.0, 2.0),), ((-1.0, 0.5),)])
    def test_replaced_intervals_solve_like_a_fresh_mesh(self, ivs):
        mesh = dataclasses.replace(mesh_intervals([(-1.0, 1.0)], 8),
                                   intervals=ivs)
        assert np.array_equal(solved(mesh), solved(mesh_intervals(ivs, 8)))

    def test_replaced_n_rederives_the_cells(self):
        ivs = [(1.0, 5.0), (-5.0, -1.0)]
        mesh = dataclasses.replace(mesh_intervals(ivs, 8), N=16)
        fresh = mesh_intervals(ivs, 16)
        assert (mesh.N, mesh.ncells) == (16, 32)
        for name in ("lo", "hi", "centers", "widths"):
            assert np.array_equal(getattr(mesh, name), getattr(fresh, name))

    @pytest.mark.parametrize("change,message", [
        ({"intervals": ((-1.0, 1.0), (0.5, 2.0))},
         r"overlapping intervals \(-1.0,1.0\) and \(0.5,2.0\)"),
        ({"intervals": ((1.0, 1.0),)}, r"degenerate interval \(1.0, 1.0\)"),
        ({"N": 3}, "N must be at least 4, got 3"),
    ], ids=["overlapping", "degenerate", "N3"])
    def test_replace_checks_again(self, change, message):
        with pytest.raises(ConfigParseError, match=message):
            dataclasses.replace(mesh_intervals([(-1.0, 1.0)], 8), **change)


class TestConfigSerialization:
    def test_round_trip(self):
        # every value written in the text comes back from the parsed config
        text = "n = 1\nx1 = -2.0\nx2 = 2.0\nr = 1.0\nR = 16.0\nN = 256\n"
        cfg, N = config_from_text(text)
        assert N == 256
        assert (cfg.n, float(cfg.x1[0]), float(cfg.x2[0]), cfg.r, cfg.R) \
            == (1, -2.0, 2.0, 1.0, 16.0)
        assert cfg.checked

    def test_unsafe_round_trip(self):
        text = "n = 1\nx1 = 0.0\nx2 = 1.0\nr = 1.0\nR = 16.0\nunsafe = true\n"
        cfg, N = config_from_text(text)
        assert not cfg.checked
        assert N is None

    def test_comments_and_blank_lines_ignored(self):
        text = "# two intervals\nn = 1\nx1 = -2.0\n\nx2 = 2.0\nr = 1.0\nR = 16.0\n"
        cfg, N = config_from_text(text)
        assert cfg.separation == pytest.approx(4.0)

    def test_missing_key_reported(self):
        with pytest.raises(ConfigParseError, match="missing"):
            config_from_text("n = 1\nx1 = -2\n")

    def test_malformed_line_reported(self):
        with pytest.raises(ConfigParseError, match="line 2"):
            config_from_text("n = 1\nwhat even is this\n")

    @pytest.mark.parametrize("line,why", [
        ("samples = 3", "unknown key 'samples'"),
        ("R = 6", "repeated key 'R'"),
        ("unsafe = ture", "unsafe = 'ture'"),
    ], ids=["unknown", "repeated", "unsafe-spelling"])
    def test_bad_key_reported_with_its_line(self, line, why):
        text = "n = 1\nx1 = -2\nx2 = 2\nr = 1\nR = 16\n" + line + "\n"
        with pytest.raises(ConfigParseError, match=f"line 6: {why}"):
            config_from_text(text)

    @pytest.mark.parametrize("tail,why", [
        ("R = x\n", "line 5: R = 'x' is not a number"),
        ("R = 16\nN = 1e3\n", "line 6: N = '1e3' is not an integer"),
    ], ids=["R", "N"])
    def test_bad_value_reported_with_its_key_and_line(self, tail, why):
        text = "n = 1\nx1 = -2\nx2 = 2\nr = 1\n" + tail
        with pytest.raises(ConfigParseError, match=why):
            config_from_text(text)

    @pytest.mark.parametrize("flag,unsafe", [
        ("TRUE", True), ("Yes", True), ("1", True),
        ("false", False), ("NO", False), ("0", False)])
    def test_unsafe_spellings(self, flag, unsafe):
        text = f"n = 1\nx1 = -2\nx2 = 2\nr = 1\nR = 16\nunsafe = {flag}\n"
        assert config_from_text(text)[0].checked is not unsafe
