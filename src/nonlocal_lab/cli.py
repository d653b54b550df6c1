"""Command-line front end.

Subcommands: evalL, poisson {eval|extend|bounds}, solve1d,
harnack {run|sweep|mp|barrier}, selftest.  All randomness flows from
--seed and reports carry no timestamps, so repeating an invocation
writes byte-identical output.  Exit codes: 0 success, 1 experiment
assertion failure, 2 usage, 3 config, 4 numeric failure.
"""

import argparse
import json
import sys
from contextlib import nullcontext

from .errors import ConfigParseError, LabError
from .geometry import config_from_text, mesh_intervals
from .harnack import (
    CSV_COLUMNS,
    barrier_combination_check,
    disconnected_harnack_experiment,
    aggregate_c_max,
    far_negative_data,
    localized_mp_check,
    s_sweep,
)
from .kernel import make_kernel
from .operator import (
    barrier_w1,
    barrier_w2,
    constant,
    eval_L,
    indicator,
    piecewise_constant,
)
from .poisson import (
    PoissonKernelBall,
    check_poisson_bounds,
    poisson_eval,
    poisson_extend,
)
from .solver1d import assemble, check_budget, check_vector_budget, solve

FAMILIES = {"random": "random-nonneg", "mass": "mass-near-x2",
            "farneg": "far-negative"}


# -- emission -----------------------------------------------------------------

def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "%.17g" % v if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(output, out: str | None) -> None:
    """Write text as it is, or a payload as JSON with sorted keys, indent
    2 and a final newline, encoded piece by piece and each array as its
    list, so that a dumped matrix is never held as text or nested lists."""
    with (open(out, "w", encoding="utf-8", newline="\n") if out
          else nullcontext(sys.stdout)) as fh:
        if isinstance(output, str):
            fh.write(output)
        else:
            json.dump(output, fh, sort_keys=True, indent=2,
                      default=lambda array: array.tolist())
            fh.write("\n")


# -- shared flag groups -------------------------------------------------------

def _number(text: str, kind=float):
    """Numeric flag type: a malformed number exits 3, not 2 (usage)."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigParseError(f"bad number {text!r}") from None


def _integer(text: str) -> int:
    return _number(text, int)


def _add_geometry(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--x1", type=_number, default=None)
    p.add_argument("--x2", type=_number, default=None)
    p.add_argument("--r", type=_number, default=None)
    p.add_argument("--R", type=_number, default=None)


def _add_kernel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", default="frac",
                   choices=("frac", "ti", "general"))


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", default="json", choices=("json", "csv"))


def _build_config(args):
    flags = {key: getattr(args, key) for key in ("x1", "x2", "r", "R")
             if getattr(args, key) is not None}
    text = "n = 1\nx1 = -2\nx2 = 2\nr = 1\nR = 16\n"  # the reference setup
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigParseError(f"config file: {exc}") from None
    cfg, file_N = config_from_text(text, **flags)
    N = getattr(args, "N", None)
    if N is None:
        N = file_N if file_N is not None else 256
    return cfg, N


def parse_data(text: str):
    """const:c | indicator:a,b | far:v,r0 | pieces:a,b,v[;a,b,v...]"""
    kind, _, rest = text.partition(":")
    try:
        if kind == "const":
            return constant(float(rest))
        if kind == "indicator":
            a, b = (float(t) for t in rest.split(","))
            return indicator(a, b)
        if kind == "far":
            v, r0 = (float(t) for t in rest.split(","))
            return piecewise_constant([], far_value=v, far_radius=r0)
        if kind == "pieces":
            pieces = [tuple(float(t) for t in part.split(","))
                      for part in rest.split(";") if part]
            return piecewise_constant(pieces)
    except ValueError as exc:
        raise ConfigParseError(f"bad data spec {text!r}: {exc}") from None
    raise ConfigParseError(f"unknown data kind {kind!r}")


def _parse_domain(text: str):
    intervals = [[_number(t) for t in part.split(",")]
                 for part in text.split(";")]
    if any(len(interval) != 2 for interval in intervals):
        raise ConfigParseError(f"bad domain {text!r}: intervals are a,b")
    return intervals


def _floats(text: str):
    return [_number(t) for t in text.split(",") if t]


# -- subcommands --------------------------------------------------------------

def _cmd_evalL(args) -> int:
    config, _ = _build_config(args)
    kernel = make_kernel(args.kernel, 1, args.s)
    barrier = barrier_w1(config) if args.barrier == "w1" else barrier_w2(config)
    res = eval_L(kernel, barrier, args.x, tol=args.tol)
    _emit({"barrier": args.barrier, "s": args.s, "x": args.x,
           "kernel": kernel.tag(), "value": res.value,
           "error_bound": res.error_bound}, args.out)
    return 0


def _cmd_poisson(args) -> int:
    pk = PoissonKernelBall(n=1, s=args.s, r=args.r, center=args.center)
    if args.action == "eval":
        payload = {"s": args.s, "r": args.r, "x": args.x, "z": args.z,
                   "value": poisson_eval(pk, args.x, args.z)}
    elif args.action == "extend":
        res = poisson_extend(pk, parse_data(args.data), args.x, tol=args.tol)
        payload = {"s": args.s, "r": args.r, "x": args.x, "data": args.data,
                   "value": res.value, "error_bound": res.error_bound}
    else:
        payload = {"s": args.s, "r": args.r,
                   **check_poisson_bounds(pk, _floats(args.x_samples),
                                          _floats(args.z_samples))}
    _emit(payload, args.out)
    return 0


def _cmd_solve1d(args) -> int:
    kernel = make_kernel(args.kernel, 1, args.s)
    intervals = _parse_domain(args.domain)
    m = len(intervals) * args.N
    check_vector_budget(m)  # before the mesh is built
    if args.dump_matrix and args.format == "json":
        check_budget(8 * m * m, f"{m} x {m} dumped matrix entries")
    mesh = mesh_intervals(intervals, args.N)
    system = assemble(kernel, mesh, parse_data(args.data), rhs=args.rhs,
                      tol=args.tol)
    u = solve(system)
    if args.format == "csv":
        _emit(csv_text(("center", "value"),
                       zip(mesh.centers.tolist(), u.values.tolist())),
              args.out)
        return 0
    payload = {"s": args.s, "kernel": kernel.tag(), "N": args.N,
               "domain": args.domain, "data": args.data,
               "centers": mesh.centers.tolist(),
               "values": u.values.tolist(),
               "assembly_error": system.assembly_error}
    if args.dump_matrix:
        payload["matrix"] = list(system.matrix)  # rows, encoded one by one
        payload["rhs"] = system.rhs.tolist()
    _emit(payload, args.out)
    return 0


def _cmd_harnack_run(args) -> int:
    config, N = _build_config(args)
    kernel = make_kernel(args.kernel, 1, args.s)
    reports = disconnected_harnack_experiment(
        args.s, kernel, config, FAMILIES[args.data], seed=args.seed,
        N=N, samples=args.samples, masses=tuple(_floats(args.masses)))
    if args.format == "csv":
        _emit(csv_text(CSV_COLUMNS, (r.csv_row() for r in reports)), args.out)
        return 0
    _emit({"C_max": aggregate_c_max(reports),
           "reports": [r.as_dict() for r in reports]}, args.out)
    return 0


def _cmd_harnack_sweep(args) -> int:
    config, N = _build_config(args)
    out = s_sweep(args.kernel, config, _floats(args.s_grid),
                  data_family=FAMILIES[args.data], seed=args.seed, N=N,
                  samples=args.samples, grid=args.grid)
    if args.format == "csv":
        rows = (r.csv_row() for s in _floats(args.s_grid)
                for r in out["reports"][s])
        _emit(csv_text(CSV_COLUMNS, rows), args.out)
        return 0
    _emit({"table": out["table"]}, args.out)
    return 0


def _cmd_harnack_mp(args) -> int:
    config, N = _build_config(args)
    kernel = make_kernel(args.kernel, 1, args.s)
    far = far_negative_data(config, None, magnitude=args.magnitude)
    res = localized_mp_check(kernel, config, far, N=N)
    _emit({"s": args.s, "R_over_r": config.R / config.r,
           "magnitude": args.magnitude, **res}, args.out)
    return 0


def _cmd_harnack_barrier(args) -> int:
    config, _ = _build_config(args)
    kernel = make_kernel(args.kernel, 1, args.s)
    res = barrier_combination_check(kernel, config, grid=args.grid)
    _emit({"s": args.s, "kernel": kernel.tag(),
           "c0_max": res["c0_max"],
           "grid_points": int(args.grid),
           "Lw1_min": float(res["Lw1"].min()),
           "Lw2_max": float(res["Lw2"].max())}, args.out)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    passed, text = run_selftest(seed=args.seed)
    _emit(text, args.out)
    return 0 if passed else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="nonlocal-lab",
        description="numerical experiments for nonlocal Dirichlet problems")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("evalL", help="pointwise operator value of a barrier")
    _add_kernel(p)
    _add_geometry(p)
    p.add_argument("--s", type=_number, required=True)
    p.add_argument("--barrier", required=True, choices=("w1", "w2"))
    p.add_argument("--x", type=_number, required=True)
    p.add_argument("--tol", type=_number, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evalL)

    p = sub.add_parser("poisson", help="kernel values, extensions, bounds")
    p.add_argument("action", choices=("eval", "extend", "bounds"))
    p.add_argument("--s", type=_number, required=True)
    p.add_argument("--r", type=_number, default=1.0)
    p.add_argument("--center", type=_number, default=0.0)
    p.add_argument("--x", type=_number, default=0.0)
    p.add_argument("--z", type=_number, default=2.0)
    p.add_argument("--data", default="indicator:1,3")
    p.add_argument("--x-samples", default="-0.4,0,0.4")
    p.add_argument("--z-samples", default="2,3,8")
    p.add_argument("--tol", type=_number, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_poisson)

    p = sub.add_parser("solve1d", help="assemble and solve on intervals")
    _add_kernel(p)
    _add_output(p)
    p.add_argument("--s", type=_number, required=True)
    p.add_argument("--domain", default="-1,1",
                   help="a,b[;c,d...] open intervals")
    p.add_argument("--data", default="indicator:1,3")
    p.add_argument("--rhs", type=_number, default=0.0)
    p.add_argument("--N", type=_integer, default=256)
    p.add_argument("--tol", type=_number, default=1e-10)
    p.add_argument("--dump-matrix", action="store_true")
    p.set_defaults(func=_cmd_solve1d)

    ph = sub.add_parser("harnack", help="experiment harness")
    hsub = ph.add_subparsers(dest="action", required=True)

    p = hsub.add_parser("run", help="one data-family experiment")
    _add_kernel(p)
    _add_geometry(p)
    _add_output(p)
    p.add_argument("--s", type=_number, required=True)
    p.add_argument("--data", default="random", choices=sorted(FAMILIES))
    p.add_argument("--samples", type=_integer, default=20)
    p.add_argument("--masses", default="1,10,100,1000")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--N", type=_integer, default=None)
    p.set_defaults(func=_cmd_harnack_run)

    p = hsub.add_parser("sweep", help="order sweep of the constants")
    _add_kernel(p)
    _add_geometry(p)
    _add_output(p)
    p.add_argument("--s-grid", default="0.5,0.7,0.9,0.95")
    p.add_argument("--data", default="random", choices=sorted(FAMILIES))
    p.add_argument("--samples", type=_integer, default=8)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--N", type=_integer, default=None)
    p.add_argument("--grid", type=_integer, default=101)
    p.set_defaults(func=_cmd_harnack_sweep)

    p = hsub.add_parser("mp", help="localized maximum principle run")
    _add_kernel(p)
    _add_geometry(p)
    p.add_argument("--s", type=_number, required=True)
    p.add_argument("--magnitude", type=_number, default=1.0)
    p.add_argument("--N", type=_integer, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_harnack_mp)

    p = hsub.add_parser("barrier", help="barrier combination search")
    _add_kernel(p)
    _add_geometry(p)
    p.add_argument("--s", type=_number, required=True)
    p.add_argument("--grid", type=_integer, default=101)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_harnack_barrier)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy seeds need integers >= 0
            raise ConfigParseError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
