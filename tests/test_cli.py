"""CLI surface tests: parsing, exit codes, file output determinism."""

import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from nonlocal_lab import cli, solver1d
from nonlocal_lab.errors import EmptySample
from nonlocal_lab.harnack import CSV_COLUMNS


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
        a = cli.parse_args(
            "harnack sweep --s-grid 0.5,0.7,0.9,0.95 --normalize-1ms"
            .split())
        assert a.s_grid == "0.5,0.7,0.9,0.95"
        assert a.normalize_1ms

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
        "solve1d --s 0.5 --domain=abc",
        "solve1d --s 0.5 --domain=1,2,3",
        "harnack run --s 0.5 --data mass --masses 1,x",
        "harnack sweep --s-grid 0.5,zz",
        "poisson bounds --s 0.5 --x-samples=a",
        "harnack run --s 0.5 --config {missing}",
        "harnack barrier --s 0.5 --grid 0",
        "harnack run --s 0.5 --seed=-1",
        "harnack sweep --seed=-1",
        "selftest --seed=-1",
        # past every solver path's budget, refused before the mesh is built
        "solve1d --s 0.5 --N 1000000000000",
        "harnack run --s 0.5 --N 1000000000000",
    ])
    def test_malformed_numbers_are_three(self, argv, capsys, tmp_path):
        argv = argv.format(missing=tmp_path / "missing.cfg").split()
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
        "solve1d --s 0.5 --N 8 --kernel ti --lam inf",
        "solve1d --s 0.5 --N 8 --kernel ti --lam nan",
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
        assert set(d) >= {"value", "error_bound", "remainder_bound",
                          "truncation_radius", "kernel", "barrier"}
        spot = 4.0 * (5.0 ** -0.5 - 3.0 ** -0.5)
        assert d["value"] == pytest.approx(spot, abs=1e-8)


class TestSolve1d:
    def test_json_roundtrip(self, tmp_path):
        out = tmp_path / "u.json"
        code = run_main(["solve1d", "--s", "0.5", "--N", "16",
                         "--domain=-1,1", "--data", "indicator:1,3",
                         "--out", str(out)])
        assert code == 0
        d = json.loads(out.read_text())
        assert len(d["centers"]) == len(d["values"]) == 16
        assert all(v > 0.0 for v in d["values"])

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
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 2\nx1 = -2, 0\nx2 = 2, 0\nr = 1\nR = 16\n")
        code = run_main(["harnack", "run", "--config", str(cfg), "--s", "0.5",
                         "--samples", "2", "--N", "8"])
        assert code == 3
        err = capsys.readouterr().err
        assert "n = 2" in err and "does not have dimension" not in err
