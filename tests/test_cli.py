"""CLI surface tests: parsing, exit codes, file output determinism."""

import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_lab import cli, harnack, solver1d
from nonlocal_lab.errors import EmptySample
from nonlocal_lab.geometry import mesh_intervals
from nonlocal_lab.harnack import CSV_COLUMNS
from nonlocal_lab.kernel import fractional_kernel
from nonlocal_lab.operator import indicator


ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_main(argv):
    return cli.main(argv)


def readme_commands():
    """argv of every nonlocal-lab line in the README's fenced blocks, with
    backslash continuations joined."""
    fenced = "\n".join(README.read_text(encoding="utf-8").split("```")[1::2])
    lines = fenced.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines
            if ln.startswith("nonlocal-lab ")]


class TestParsing:
    def test_harnack_run_flags(self):
        a = cli.parse_args(
            "harnack run --x1 -2 --x2 2 --r 1 --R 16 --s 0.5 "
            "--data random --samples 20 --seed 7".split())
        assert a.subcommand == "harnack" and a.action == "run"
        assert a.func is cli._cmd_harnack_run
        assert (a.x1, a.x2, a.r, a.R) == (-2.0, 2.0, 1.0, 16.0)
        assert a.s == 0.5 and a.data == "random"
        assert a.samples == 20 and a.seed == 7

    def test_missing_s_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.parse_args("harnack run --x1 -2 --x2 2 --r 1".split())
        assert err.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.parse_args(["frobnicate"])
        assert err.value.code == 2

    def test_sweep_grid_flag(self):
        a = cli.parse_args("harnack sweep --s-grid 0.5,0.7,0.9,0.95".split())
        assert a.s_grid == "0.5,0.7,0.9,0.95"

    def test_readme_commands_parse(self):
        commands = readme_commands()
        assert len(commands) >= 10
        for argv in commands:
            try:
                args = cli.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {argv}")
            assert callable(args.func)

    def test_data_spec_grammar(self):
        assert cli.parse_data("const:2.5")(0.0) == 2.5
        assert cli.parse_data("indicator:1,3")(2.0) == 1.0
        far = cli.parse_data("far:-1,16")
        assert far(17.0) == -1.0 and far(0.0) == 0.0
        pw = cli.parse_data("pieces:0,1,5;2,3,7")
        assert pw(0.5) == 5.0 and pw(2.5) == 7.0 and pw(1.5) == 0.0
        for bad in ("nope:1", "indicator:1", "pieces:a,b,c"):
            with pytest.raises(Exception):
                cli.parse_data(bad)


# the subcommands that take --kernel
KERNEL_COMMANDS = [
    "evalL --s 0.5 --barrier w1 --x -2",
    "solve1d --s 0.5",
    "harnack run --s 0.5",
    "harnack sweep",
    "harnack mp --s 0.5",
    "harnack barrier --s 0.5",
]


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert run_main(["poisson", "eval", "--s", "0.5"]) == 0
        capsys.readouterr()

    def test_config_violation_is_three(self, capsys):
        code = run_main("harnack run --x1 0 --x2 1 --r 1 --R 16 --s 0.5 "
                        "--N 16 --samples 2".split())
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_memory_budget_is_three(self, capsys, monkeypatch):
        monkeypatch.setattr(solver1d, "MATRIX_BUDGET_BYTES", 8 * 16 * 16)
        code = run_main(["solve1d", "--s", "0.5", "--N", "32",
                         "--domain=-1,1", "--data", "indicator:1,3"])
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_dump_matrix_past_the_budget_is_three(self, capsys,
                                                   monkeypatch, tmp_path):
        # a Toeplitz system solves in O(m); only its dense view is refused
        monkeypatch.setattr(solver1d, "DENSE_MAX_CELLS", 16)
        monkeypatch.setattr(solver1d, "MATRIX_BUDGET_BYTES", 8 * 256 * 256 - 1)
        argv = ["solve1d", "--s", "0.5", "--N", "256", "--domain=-1,1",
                "--out", str(tmp_path / "u.json")]
        assert run_main(argv) == 0
        assert run_main(argv + ["--dump-matrix"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_budget_refuses_before_anything_is_built(self, capsys,
                                                     monkeypatch):
        # the samples' data, the JSON of a dumped matrix, a datum's
        # exterior segments and the barrier grid count, and neither a
        # datum, a coupling nor an operator value is made past the budget
        def fail(*args, **kwargs):
            raise AssertionError("built past the budget")

        monkeypatch.setattr(solver1d, "_couplings", fail)
        monkeypatch.setattr(harnack, "_random_family", fail)
        monkeypatch.setattr(harnack, "eval_L", fail)
        pieces = ";".join(f"{1 + i},{2 + i},1" for i in range(4000))
        for argv in ("harnack run --s 0.5 --N 4 --samples 100000000",
                     "solve1d --s 0.5 --N 11586 --dump-matrix",
                     f"solve1d --s 0.5 --N 40000 --data pieces:{pieces}",
                     "harnack barrier --s 0.5 --grid 1000000",
                     "harnack sweep --grid 1000000"):
            assert run_main(argv.split()) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "budget" in err

    def test_budget_counts_the_cells_a_command_meshes(self, capsys,
                                                      monkeypatch, tmp_path):
        # mp meshes N cells and run 2N; evalL and barrier mesh none, so
        # they take any N from a config file, and the barrier grid counts
        # against the same budget.  mp's 64 cells hold four exterior
        # segments, two of the ball's complement and two of the far datum
        one = 8 * 64 * (solver1d.ASSEMBLY_VECTORS + solver1d.CG_VECTORS + 4)
        monkeypatch.setattr(solver1d, "MATRIX_BUDGET_BYTES",
                            one + solver1d.DATUM_BYTES)
        assert run_main("harnack mp --s 0.5 --N 64".split()) == 0
        assert run_main("harnack run --s 0.5 --N 16 --samples 1".split()) == 0
        capsys.readouterr()
        assert run_main("harnack run --s 0.5 --N 64 --samples 1".split()) == 3
        assert "budget" in capsys.readouterr().err
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 1\nx1 = -2\nx2 = 2\nr = 1\nR = 16\n"
                       "N = 1000000000000\n")
        for argv in ("evalL --s 0.5 --barrier w1 --x -2",
                     "harnack barrier --s 0.5 --grid 4"):
            assert run_main([*argv.split(), "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert harnack.BARRIER_POINT_BYTES * 5 > one + solver1d.DATUM_BYTES
        assert run_main(["harnack", "barrier", "--s", "0.5", "--grid", "5",
                         "--config", str(cfg)]) == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("site,argv,budget,what", [
        ("assemble", "solve1d --kernel general --s 0.5 --N 512", 2**20,
         "512 x 512 dense matrix"),
        ("dense-view", "solve1d --s 0.5 --N 256 --dump-matrix", 2**19 - 1,
         "256 x 256 dense matrix"),
        ("vectors", "solve1d --s 0.5 --N 4096", 2**20, "working vectors"),
        ("barrier", "harnack barrier --s 0.5 --grid 101", 2**20,
         "101 barrier grid points"),
        ("dump", "solve1d --s 0.5 --N 256 --dump-matrix", 2**19 - 1,
         "256 x 256 dumped matrix")],
        ids=["assemble", "dense-view", "vectors", "barrier", "dump"])
    def test_every_refusal_site_follows_the_budget(self, site, argv, budget,
                                                   what, capsys, monkeypatch):
        # the dense view of a Toeplitz system is reached with the dump's
        # own charge, made before the mesh, lifted
        monkeypatch.setattr(solver1d, "MATRIX_BUDGET_BYTES", budget)
        if site == "dense-view":
            monkeypatch.setattr(solver1d, "DENSE_MAX_CELLS", 16)
            monkeypatch.setattr(cli, "check_budget", lambda need, what: None)
        assert run_main(argv.split()) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget" in err and what in err

    @pytest.mark.parametrize("N", [10000, 11586])
    def test_csv_run_is_not_charged_for_a_dump(self, N, tmp_path):
        # CSV output writes no matrix, so --dump-matrix charges it nothing,
        # also past the 11,585 cells a JSON dump takes
        out = tmp_path / "u.csv"
        assert run_main(["solve1d", "--s", "0.5", "--N", str(N),
                         "--dump-matrix", "--format", "csv",
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == N + 1

    def test_fifty_thousand_cells(self, tmp_path):
        out = tmp_path / "u.json"
        assert run_main(["solve1d", "--s", "0.5", "--N", "50000",
                         "--out", str(out)]) == 0
        values = json.loads(out.read_text())["values"]
        assert len(values) == 50000
        assert 0.0 < min(values) and max(values) < 1.0

    @pytest.mark.parametrize("data,code", [("far:1,-1", 3), ("far:1,0", 0),
                                           ("const:1", 0)])
    def test_far_data_radius(self, capsys, tmp_path, data, code):
        # a negative far radius overlaps the far halves; a radius of 0 is
        # the constant datum, which the scheme reproduces exactly
        out = tmp_path / "u.json"
        assert run_main(["solve1d", "--s", "0.5", "--N", "8",
                         "--domain=-3,-2", "--data", data,
                         "--out", str(out)]) == code
        if code == 3:
            assert "far_radius" in capsys.readouterr().err
        else:
            values = json.loads(out.read_text())["values"]
            assert max(abs(v - 1.0) for v in values) < 1e-12

    @pytest.mark.parametrize("argv", [
        "poisson extend --s 0.5 --x 0 --data pieces:3,1,1",
        "solve1d --s 0.5 --N 4 --data pieces:3,1,1;1,3,1",
        "solve1d --s 0.5 --N 4 --data pieces:1,1,1",
    ], ids=["extend-reversed", "solve1d-reversed", "solve1d-empty"])
    def test_piece_needs_hi_above_lo(self, argv, capsys):
        # both routes would read a reversed piece as empty, and with its
        # mirror it would pass the overlap check as the mirror alone
        assert run_main(argv.split()) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "hi > lo" in err

    @pytest.mark.parametrize("argv", [
        "solve1d --s 0.5 --domain=abc",
        "solve1d --s 0.5 --domain=1,2,3",
        "harnack run --s 0.5 --data mass --masses 1,x",
        "harnack sweep --s-grid 0.5,zz",
        "harnack sweep --s-grid=",
        # the barrier check needs a translation-invariant kernel
        "harnack sweep --kernel general --N 8 --samples 2 --s-grid 0.5",
        "poisson bounds --s 0.5 --x-samples=a",
        # no sample on one side leaves no ratio to bound
        "poisson bounds --s 0.5 --x-samples= --z-samples 2",
        "poisson bounds --s 0.5 --z-samples=",
        "harnack run --s 0.5 --config {missing}",
        "harnack barrier --s 0.5 --grid 0",
        # one or two points sample only the rim of B_r(x1), where w2 = 0
        "harnack barrier --s 0.5 --grid 1",
        "harnack barrier --s 0.5 --grid 2",
        "harnack sweep --s-grid 0.5 --N 8 --samples 2 --grid 1",
        "harnack run --s 0.5 --seed=-1",
        "harnack sweep --seed=-1",
        "selftest --seed=-1",
        # past every solver path's budget, refused before the mesh is built
        "solve1d --s 0.5 --N 1000000000000",
        "harnack run --s 0.5 --N 1000000000000",
        # a span whose powers in the band moments overflow
        "solve1d --s 0.5 --N 8 --domain=-1e300,1e300",
        # r^2 or |x - center|^2 overflows
        "poisson extend --s 0.5 --r 1e300",
        "poisson extend --s 0.5 --center 1e300",
        # R^(2s) in the tail term overflows
        "harnack mp --s 0.9 --N 8 --R 1e300",
        # malformed integers
        "harnack mp --s 0.5 --N x",
        "harnack barrier --s 0.5 --grid=nan",
        "harnack run --s 0.5 --samples=1e300",
        "selftest --seed x",
        "selftest --seed 1e300",
        # degenerate or overlapping intervals and pieces
        "solve1d --s 0.5 --domain=1,1",
        "solve1d --s 0.5 --domain=-1,1;0,2",
        "solve1d --s 0.5 --data pieces:1,3,1;2,4,1",
        "poisson extend --s 0.5 --data indicator:3,1",
        # a config file with a 2-d point at n = 1, and with n = x
        "harnack run --s 0.5 --config {point_2d}",
        "harnack run --s 0.5 --config {n_x}",
        # an unknown key, a repeated key and an unsafe value misspelt
        "harnack run --s 0.5 --config {unknown_key}",
        "harnack run --s 0.5 --config {repeated_key}",
        "harnack run --s 0.5 --config {unsafe_ture}",
        # a value that is no number: the error names its key and line
        "harnack run --s 0.5 --config {x1_x}",
        "harnack run --s 0.5 --config {N_1e3}",
        # points too far out for the barrier's breaks
        "evalL --s 0.5 --barrier w2 --x 1e17",
        "evalL --s 0.5 --barrier w2 --x 1e300",
        # at the float limit, where 2 |x - x1| overflows
        "evalL --s 0.5 --barrier w2 --x 1.7e308",
        "evalL --s 0.5 --barrier w2 --x=-1.7e308",
    ])
    def test_malformed_numbers_are_three(self, argv, capsys, tmp_path):
        paths = {"missing": tmp_path / "missing.cfg"}
        for name, head in (("point_2d", "n = 1\nx1 = -2, 0\n"),
                           ("n_x", "n = x\nx1 = -2\n"),
                           ("unknown_key", "n = 1\nx1 = -2\nsamples = 3\n"),
                           ("repeated_key", "n = 1\nx1 = -2\nR = 6\n"),
                           ("unsafe_ture", "n = 1\nx1 = -2\nunsafe = ture\n"),
                           ("x1_x", "n = 1\nx1 = x\n"),
                           ("N_1e3", "n = 1\nx1 = -2\nN = 1e3\n")):
            paths[name] = tmp_path / f"{name}.cfg"
            paths[name].write_text(head + "x2 = 2\nr = 1\nR = 16\n")
        argv = argv.format(**paths).split()
        assert run_main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "evalL --s 0.5 --barrier w1 --x nan",
        "evalL --s 0.5 --barrier w2 --x inf",
        "poisson eval --s 0.5 --x nan",
        "poisson eval --s 0.5 --z nan",
        "poisson extend --s 0.5 --x nan",
        "poisson bounds --s 0.5 --x-samples=nan",
        "solve1d --s 0.5 --N 8 --data pieces:1,nan,1",
        "solve1d --s 0.5 --N 8 --data pieces:1,2,inf",
        "solve1d --s 0.5 --N 8 --data far:inf,3",
        "poisson extend --s 0.5 --data pieces:1,2,inf",
        "poisson extend --s 0.5 --data far:-inf,3",
    ])
    def test_non_finite_points_are_three(self, argv, capsys):
        # no NaN reaches the JSON, which could not carry it
        assert run_main(argv.split()) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        "evalL --s 0.5 --barrier w2 --x -2.3",
        "poisson extend --s 0.5",
        "solve1d --s 0.5 --N 8",
    ], ids=["evalL", "poisson-extend", "solve1d"])
    def test_tol_outside_zero_inf_is_three(self, argv, tol, capsys):
        assert run_main([*argv.split(), f"--tol={tol}"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")
        assert out.err.count("\n") == 1 and "tol" in out.err

    @pytest.mark.parametrize("argv", [
        "harnack run --s 0.5 --N 16 --samples 2 --R inf --format csv",
        "solve1d --s 0.5 --N 8 --rhs nan",
        "solve1d --s 0.5 --N 8 --rhs=-inf",
        "harnack run --s 0.5 --N 16 --samples 2 --data mass --masses=inf",
        "harnack mp --s 0.5 --N 16 --magnitude inf",
    ])
    def test_non_finite_R_lam_rhs_are_three(self, argv, capsys):
        assert run_main(argv.split()) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("argv,code", [
        ("solve1d --s 0.5 --N 4 --data far:1e308,2", 0),
        ("solve1d --s 0.5 --N 4 --data const:1e308", 3),
        ("solve1d --s 0.5 --N 4 --data pieces:1,2,1e308;2,3,-1e308", 3),
        ("harnack run --s 0.5 --N 16 --data mass --masses 1e308", 3),
        ("solve1d --s 0.5 --N 2048 --rhs 1e308 --data indicator:1,3", 0),
        ("solve1d --s 0.5 --N 4 --rhs 1e308 --data indicator:1,3", 0),
        # the scaled solve is finite, the solution itself is not
        ("solve1d --s 0.9 --N 4 --rhs 1e307 --domain=-30,30", 4),
    ])
    def test_finite_data_near_the_float_limit(self, argv, code):
        # a solve under a backward-error check that did not overflow, or
        # a data mass past the float range refused with one error line;
        # a RuntimeWarning fails the test
        check_json_contract(argv.split(), (code,))

    @pytest.mark.parametrize("argv", KERNEL_COMMANDS)
    def test_lam_is_not_a_flag(self, argv):
        # each kernel fixes its own ellipticity constant
        with pytest.raises(SystemExit) as err:
            cli.parse_args([*argv.split(), "--lam", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", KERNEL_COMMANDS)
    def test_normalize_1ms_is_not_a_flag(self, argv):
        # the constants are ratios, so a (1 - s) factor would cancel
        with pytest.raises(SystemExit) as err:
            cli.parse_args([*argv.split(), "--normalize-1ms"])
        assert err.value.code == 2

    def test_experiment_failure_is_one(self, capsys, monkeypatch):
        def boom(args):
            raise EmptySample("nothing to aggregate")
        monkeypatch.setattr(cli, "_cmd_selftest", boom)
        assert run_main(["selftest"]) == 1
        assert "nothing to aggregate" in capsys.readouterr().err


class TestEvalL:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "L.json"
        code = run_main(["evalL", "--s", "0.25", "--barrier", "w1",
                         "--x", "-2.0", "--out", str(out)])
        assert code == 0
        d = json.loads(out.read_text())
        assert set(d) == {"value", "error_bound", "kernel", "barrier", "s",
                          "x"}
        spot = 4.0 * (5.0 ** -0.5 - 3.0 ** -0.5)
        assert d["value"] == pytest.approx(spot, abs=1e-8)


class TestSolve1d:
    def test_json_roundtrip(self, tmp_path):
        # a domain of +-1e6 stays well inside the span assembly allows
        out = tmp_path / "u.json"
        for domain, data in [("-1,1", "indicator:1,3"),
                             ("-1e6,1e6", "far:1,2e6")]:
            code = run_main(["solve1d", "--s", "0.5", "--N", "16",
                             f"--domain={domain}", "--data", data,
                             "--out", str(out)])
            assert code == 0
            d = json.loads(out.read_text())
            assert len(d["centers"]) == len(d["values"]) == 16
            assert all(0.0 < v < 1.0 for v in d["values"])

    def test_csv_shape(self, tmp_path):
        out = tmp_path / "u.csv"
        run_main(["solve1d", "--s", "0.5", "--N", "8", "--domain=-1,1",
                  "--data", "indicator:1,3", "--format", "csv",
                  "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "center,value"
        assert len(lines) == 9

    def test_dump_matrix(self, tmp_path):
        out = tmp_path / "sys.json"
        run_main(["solve1d", "--s", "0.5", "--N", "8", "--domain=-1,1",
                  "--data", "indicator:1,3", "--dump-matrix",
                  "--out", str(out)])
        d = json.loads(out.read_text())
        assert len(d["matrix"]) == 8 and len(d["matrix"][0]) == 8
        assert len(d["rhs"]) == 8

    def test_dump_matrix_streams_the_json_text(self, tmp_path, capsys):
        # written as it is encoded, the dump is byte for byte the text
        # json.dumps gives, in a file and on stdout alike
        argv = ["solve1d", "--s", "0.5", "--N", "8", "--domain=-1,1",
                "--data", "indicator:1,3", "--dump-matrix"]
        out = tmp_path / "sys.json"
        assert run_main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert run_main(argv) == 0
        text = out.read_text()
        assert capsys.readouterr().out == text
        d = json.loads(text)
        assert text == json.dumps(d, sort_keys=True, indent=2) + "\n"
        system = solver1d.assemble(fractional_kernel(1, 0.5),
                                   mesh_intervals([(-1.0, 1.0)], 8),
                                   indicator(1.0, 3.0))
        assert d["matrix"] == system.matrix.tolist()
        assert d["rhs"] == system.rhs.tolist()


class TestHarnackCommands:
    def test_run_json_schema_and_value(self, tmp_path):
        out = tmp_path / "h.json"
        code = run_main("harnack run --s 0.5 --data random --samples 20 "
                        "--seed 7 --N 64".split() + ["--out", str(out)])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["C_max"] == pytest.approx(2.0767064913609086, rel=1e-10)
        assert len(d["reports"]) == 20
        assert set(d["reports"][0]) == {
            "config", "s", "kernel", "sup", "inf", "avg", "tail_term",
            "C_estimate", "seed", "N", "sample_id"}

    def test_run_csv_rows(self, tmp_path):
        out = tmp_path / "h.csv"
        run_main("harnack run --s 0.5 --data random --samples 5 --seed 7 "
                 "--N 16 --format csv".split() + ["--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 6

    def test_sweep_csv_one_row_per_sample(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_main("harnack sweep --s-grid 0.3,0.5 --samples 3 --N 16 "
                 "--grid 11 --format csv".split() + ["--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        keys = [tuple(float(v) for v in ln.split(",")[:2])
                for ln in lines[1:]]
        assert keys == [(0.3, 0), (0.3, 1), (0.3, 2),
                        (0.5, 0), (0.5, 1), (0.5, 2)]

    def test_repeat_invocations_are_byte_identical(self, tmp_path):
        argv = ("harnack run --s 0.5 --data random --samples 4 --seed 3 "
                "--N 16".split())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_main(argv + ["--out", str(a)])
        run_main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_blas_threads_move_only_last_digits(self):
        # the determinism contract: byte-identical at a fixed BLAS thread
        # setting, and another thread count moves only the last digits;
        # the solve1d run (2048 cells) takes conjugate gradients
        def run(threads, argv):
            path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       OMP_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
            out = subprocess.run(
                [sys.executable, "-m", "nonlocal_lab.cli", *argv.split()],
                env=env, capture_output=True, text=True, check=True).stdout
            return json.loads(out)

        def close(a, b):
            if isinstance(a, dict):
                return a.keys() == b.keys() and all(close(a[k], b[k])
                                                    for k in a)
            if isinstance(a, list):
                return len(a) == len(b) and all(map(close, a, b))
            if isinstance(a, float):
                return a == pytest.approx(b, rel=1e-12, abs=0.0)
            return a == b

        for argv in ("harnack run --s 0.5 --N 64", "solve1d --s 0.5 --N 2048"):
            one, two = run(1, argv), run(2, argv)
            assert one.get("reports", one.get("values"))
            assert close(one, two)

    @pytest.mark.parametrize("flags,ratio,magnitude", [
        ([], 16.0, 1.0),
        (["--R", "8"], 8.0, 1.0),
        (["--R", "32"], 32.0, 1.0),
        (["--magnitude", "2"], 16.0, 2.0),
    ], ids=["default", "R8", "R32", "magnitude2"])
    def test_mp_payload(self, tmp_path, flags, ratio, magnitude):
        out = tmp_path / "mp.json"
        code = run_main("harnack mp --s 0.25 --N 64".split() + flags
                        + ["--out", str(out)])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["R_over_r"] == ratio and d["magnitude"] == magnitude
        assert d["min_u"] < 0.0 < d["tail_term"]
        assert d["C_empirical"] == pytest.approx(
            -d["min_u"] / d["tail_term"])

    def test_barrier_payload(self, tmp_path):
        out = tmp_path / "b.json"
        code = run_main("harnack barrier --s 0.25 --grid 11".split()
                        + ["--out", str(out)])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["c0_max"] > 0.0
        assert d["Lw1_min"] < 0.0


class TestConfigFile:
    def test_file_supplies_geometry_and_N(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 1\nx1 = -2\nx2 = 2\nr = 1\nR = 16\nN = 16\n")
        out = tmp_path / "h.json"
        run_main(["harnack", "run", "--config", str(cfg), "--s", "0.5",
                  "--samples", "2", "--out", str(out)])
        d = json.loads(out.read_text())
        assert d["reports"][0]["N"] == 16
        assert d["reports"][0]["config"]["R"] == 16.0

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 1\nx1 = -2\nx2 = 2\nr = 1\nR = 16\nN = 16\n")
        out = tmp_path / "h.json"
        run_main(["harnack", "run", "--config", str(cfg), "--R", "32",
                  "--s", "0.5", "--samples", "2", "--N", "8",
                  "--out", str(out)])
        d = json.loads(out.read_text())
        assert d["reports"][0]["config"]["R"] == 32.0
        assert d["reports"][0]["N"] == 8

    def test_flags_override_before_validation(self, tmp_path, capsys):
        # R = 6 leaves B_2r(x1) outside B_R/2(0): the file alone exits 3,
        # and with --R 16 it runs exactly as the flags alone do
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 1\nx1 = -2\nx2 = 2\nr = 1\nR = 6\n")
        base = ["harnack", "run", "--s", "0.5", "--samples", "2", "--N", "8"]
        outs = [tmp_path / "file.json", tmp_path / "flags.json"]
        assert run_main(base + ["--config", str(cfg), "--R", "16",
                                "--out", str(outs[0])]) == 0
        assert run_main(base + ["--x1", "-2", "--x2", "2", "--r", "1",
                                "--R", "16", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert run_main(base + ["--config", str(cfg)]) == 3
        assert "not contained" in capsys.readouterr().err

    @pytest.mark.parametrize("unsafe", [True, False])
    def test_unsafe_flag_is_carried(self, tmp_path, capsys, unsafe):
        # |x1 - x2| = 9r is outside [4r, 8r]: only an unsafe file runs,
        # and every report carries the stamp
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 1\nx1 = -4.5\nx2 = 4.5\nr = 1\nR = 40\n"
                       + ("unsafe = true\n" if unsafe else ""))
        out = tmp_path / "h.json"
        code = run_main(["harnack", "run", "--config", str(cfg), "--s", "0.5",
                         "--samples", "2", "--N", "8", "--out", str(out)])
        if not unsafe:
            assert code == 3
            assert "outside [4r, 8r]" in capsys.readouterr().err
            return
        assert code == 0
        reports = json.loads(out.read_text())["reports"]
        assert reports
        assert all(rep["config"]["checked"] is False for rep in reports)

    def test_unsafe_mesh_beyond_cutoff_runs(self, tmp_path):
        # both meshes reach past B_R(0) = (-3.5, 3.5): run covers (-5, 3)
        # and mp B_r(x1) = (-4, -2); their cells count in the tail term
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 1\nx1 = -3\nx2 = 1\nr = 1\nR = 3.5\n"
                       "unsafe = true\n")
        base = ["--config", str(cfg), "--s", "0.25", "--N", "16"]
        for data in ("random", "mass", "farneg"):
            out = tmp_path / f"{data}.json"
            code = run_main(["harnack", "run", *base, "--data", data,
                             "--samples", "2", "--out", str(out)])
            assert code == 0
            reports = json.loads(out.read_text())["reports"]
            assert all(rep["config"]["checked"] is False for rep in reports)
            assert all((rep["tail_term"] > 0.0) == (data == "farneg")
                       for rep in reports)
        out = tmp_path / "mp.json"
        assert run_main(["harnack", "mp", *base, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["tail_term"] > 0.0

    def test_dimension_other_than_one_is_named(self, tmp_path, capsys):
        # the dimension is checked before the centers, so a layout that
        # also breaks the separation rule (x2 = 1, 0) names n as well
        cfg = tmp_path / "cfg.txt"
        for x2 in ("2, 0", "1, 0"):
            cfg.write_text(f"n = 2\nx1 = -2, 0\nx2 = {x2}\nr = 1\nR = 16\n")
            code = run_main(["harnack", "run", "--config", str(cfg), "--s",
                             "0.5", "--samples", "2", "--N", "8"])
            assert code == 3
            err = capsys.readouterr().err
            assert "n = 2" in err and "does not have dimension" not in err


# -- JSON contract of evalL and poisson --------------------------------------

SPECIAL = ("nan", "inf", "-inf", "0", "-1", "1e300", "x")
# valid values of each numeric flag; None leaves a flag at its default
EVALL_FLAGS = {"--s": ("0.01", "0.25", "0.5", "0.9", "0.99"),
               "--x": ("-2.5", "-2", "-1.2", "0.5", "2.4"),
               "--tol": (None, "1e-8", "1e-4"), "--x1": (None, "-2"),
               "--x2": (None, "2"), "--r": (None, "1"), "--R": (None, "16")}
POISSON_FLAGS = {"--s": ("0.01", "0.25", "0.5", "0.9"),
                 "--r": (None, "1", "2"), "--center": (None, "0", "0.5"),
                 "--x": (None, "0", "0.3"), "--z": (None, "2", "5"),
                 "--tol": (None, "1e-8", "1e-4"),
                 "--x-samples": (None, "", "0", "-0.4,0.4"),
                 "--z-samples": (None, "", "2,3", "8", "1e150")}


def draw_flags(draw, argv, flags):
    """argv with each of flags at a drawn valid value (None: the default),
    except up to two that take one of SPECIAL."""
    odd = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    for flag, valid in flags.items():
        value = draw(st.sampled_from(SPECIAL if flag in odd else valid))
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


@st.composite
def evalL_or_poisson_argv(draw):
    """An evalL or poisson {eval,extend,bounds} command line whose numeric
    flags are valid, except up to two that take one of SPECIAL."""
    if draw(st.booleans()):
        argv = ["evalL", "--kernel=" + draw(st.sampled_from(
                    ["frac", "ti", "general"])),
                "--barrier=" + draw(st.sampled_from(["w1", "w2"]))]
        flags = EVALL_FLAGS
    else:
        argv = ["poisson", draw(st.sampled_from(["eval", "extend", "bounds"])),
                "--data=" + draw(st.sampled_from(
                    ["indicator:1,3", "const:1", "far:-0.5,3",
                     "pieces:1,inf,1"]))]
        flags = POISSON_FLAGS
    return draw_flags(draw, argv, flags)


def reject_non_finite(name):
    raise ValueError(f"{name} in the JSON output")


def check_json_contract(argv, codes):
    """exit 0 writes JSON without NaN or Infinity; any other exit is one
    of codes with exactly one error line and no output; RuntimeWarnings
    are errors in this suite, so an overflow fails the example too"""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in codes, (argv, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=reject_non_finite)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@settings(derandomize=True, max_examples=150, deadline=None)
@given(evalL_or_poisson_argv())
def test_evalL_and_poisson_json_contract(argv):
    check_json_contract(argv, (0, 3, 4))


GEOMETRY_FLAGS = {"--x1": (None, "-2"), "--x2": (None, "2"),
                  "--r": (None, "1"), "--R": (None, "16")}
SOLVE1D_FLAGS = {"--s": ("0.01", "0.25", "0.5", "0.9"),
                 "--N": ("4", "8", "16"),
                 "--domain": (None, "-1,1", "-4,0;0,4"),
                 "--data": (None, "indicator:1,3", "const:1", "far:-0.6,6",
                            "pieces:1,inf,1"),
                 "--rhs": (None, "0", "1"), "--tol": (None, "1e-10", "1e-6")}
MP_FLAGS = {"--s": ("0.01", "0.25", "0.5", "0.9"), "--N": ("4", "8", "16"),
            "--magnitude": (None, "1", "10"),
            **GEOMETRY_FLAGS}
BARRIER_FLAGS = {"--s": ("0.01", "0.25", "0.5", "0.9", "0.99"),
                 "--grid": ("1", "5", "11"),
                 **GEOMETRY_FLAGS}
RUN_FLAGS = {"--s": ("0.01", "0.25", "0.5", "0.9"), "--N": ("4", "8", "16"),
             "--samples": ("1", "2", "3"), "--seed": (None, "0", "7"),
             "--masses": (None, "1", "1,100"),
             **GEOMETRY_FLAGS}
SWEEP_FLAGS = {"--s-grid": ("0.5", "0.25,0.75", "0.01,0.9", ""),
               "--N": ("4", "8", "16"), "--samples": ("1", "2"),
               "--seed": (None, "0", "7"), "--grid": ("1", "5"),
               **GEOMETRY_FLAGS}


@st.composite
def solver_or_harnack_argv(draw):
    """A solve1d or harnack {mp,barrier,run,sweep} command line whose
    numeric flags are valid, except up to two that take one of SPECIAL.
    The general kernel runs in barrier and sweep only: its assembly alone
    takes 0.5 s, and a sweep refuses it before any.  run and sweep draw a
    data family; N, the sample count and the grid are always given, small,
    unless drawn from SPECIAL."""
    command = draw(st.sampled_from(["solve1d", "mp", "barrier", "run",
                                    "sweep"]))
    general = command in ("barrier", "sweep")
    kernels = ["frac", "ti"] + ["general"] * general
    argv = ([] if command == "solve1d" else ["harnack"]) + [
        command, "--kernel=" + draw(st.sampled_from(kernels))]
    if command in ("run", "sweep"):
        argv.append("--data=" + draw(st.sampled_from(
            ["random", "mass", "farneg"])))
    flags = {"solve1d": SOLVE1D_FLAGS, "mp": MP_FLAGS,
             "barrier": BARRIER_FLAGS, "run": RUN_FLAGS,
             "sweep": SWEEP_FLAGS}[command]
    return draw_flags(draw, argv, flags)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(solver_or_harnack_argv())
def test_solver_and_harnack_json_contract(argv):
    check_json_contract(argv, (0, 3, 4) if argv[0] == "solve1d"
                        else (0, 1, 3, 4))


def test_selftest_report(tmp_path):
    out = tmp_path / "report.txt"
    code = run_main(["selftest", "--seed", "0", "--out", str(out)])
    lines = out.read_text().splitlines()
    criteria = [ln for ln in lines if ln.startswith("criterion ")]
    assert [ln.split()[1] for ln in criteria] == [str(i) for i in range(1, 10)]
    assert criteria[-1].startswith("criterion 9 (reproducibility): PASS")
    assert code in (0, 1)
    assert (code == 0) == (lines[-1] == "9 of 9 criteria passed")
