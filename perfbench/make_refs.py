"""Record the reference responses the workload checks compare against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Writes perfbench/refs.json: for every data piece the workloads use, the
lab's response to that piece with unit value (the ball-2 average of the
solution, the Poisson extension at the cell centers, the solution at a few
check cells), plus the barrier profiles L w2 and the c0 thresholds.  The
references pin the numbers of the commit they were recorded at; record
them again only in a change that defines the benchmark anew, never in one
that claims a gain.
"""

import json
import sys

import numpy as np

import workloads as W
from nonlocal_lab import geometry as G
from nonlocal_lab import harnack as H
from nonlocal_lab import kernel as K
from nonlocal_lab import operator as O
from nonlocal_lab import poisson as P
from nonlocal_lab import solver1d as S


def unit_piece(lo: float, hi: float):
    return O.piecewise_constant([(lo, hi, 1.0)])


def many_data_refs(params) -> dict:
    config = W.REFERENCE
    mesh = G.mesh_over(config, params["N"])
    rng = np.random.default_rng(0)
    pieces = {(lo, hi) for lo, hi, _ in H.random_nonneg_data(config, rng).pieces}
    pieces |= {(lo, hi) for lo, hi, _ in H.mass_near_x2_data(config, 1.0).pieces}
    out = {}
    for s in params["s"]:
        kernel = K.make_kernel("frac", 1, s)

        def avg(g):
            u = S.solve(S.assemble(kernel, mesh, g))
            return H.harnack_report(u, config, s).avg

        coef = {W.piece_key(lo, hi): avg(unit_piece(lo, hi))
                for lo, hi in sorted(pieces)}
        coef["far"] = avg(O.piecewise_constant([], far_value=1.0,
                                               far_radius=config.R))
        out[f"{s:g}"] = coef
    return out


def barrier_refs(params) -> dict:
    config = W.REFERENCE
    out = {}
    for s in params["barrier_s"]:
        res = H.barrier_combination_check(K.make_kernel("frac", 1, s), config,
                                          grid=params["grid"])
        out[f"{s:g}"] = {"lw2": res["Lw2"].tolist(), "c0_max": res["c0_max"]}
    return out


def extension_refs(params) -> dict:
    centers = G.mesh_intervals([(-1.0, 1.0)], params["centers"]).centers
    out = {}
    for s in params["poisson_s"]:
        if s == 0.5:  # checked against the closed form instead
            continue
        pk = P.PoissonKernelBall(n=1, s=s, r=1.0, center=(0.0,))
        out[f"{s:g}"] = [[P.poisson_extend(pk, unit_piece(lo, hi), float(x)).value
                          for lo, hi in W.PIECES] for x in centers]
    return out


def single_solve_refs(family: str, m: int) -> dict:
    kernel = K.make_kernel(family, 1, W.SINGLE_S)
    mesh = G.mesh_intervals([(-1.0, 1.0)], m)
    cells = np.unique(np.linspace(0, m - 1, 8).round().astype(int))
    cols = [S.solve(S.assemble(kernel, mesh, unit_piece(lo, hi))).values[cells]
            for lo, hi in W.PIECES]
    return {"cells": cells.tolist(), "phi": np.column_stack(cols).tolist()}


def main() -> int:
    refs = {"many-data": {}, "pointwise": {}, "single-solve": {}}
    for size in W.SIZES.values():
        many = size["many-data"]
        refs["many-data"][f"N{many['N']}"] = many_data_refs(many)
        point = size["pointwise"]
        refs["pointwise"][f"grid{point['grid']}"] = barrier_refs(point)
        refs["pointwise"][f"centers{point['centers']}"] = extension_refs(point)
        for family, m in size["single-solve"]["cases"]:
            case = f"{family}-{m}"
            if case not in refs["single-solve"]:
                print(f"recording {case}", file=sys.stderr)
                refs["single-solve"][case] = single_solve_refs(family, m)
    with open(W.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
