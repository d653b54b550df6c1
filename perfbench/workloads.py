"""The benchmark's workloads: inputs from a seed, timed calls, output checks.

A workload turns (seed, pass index) into a list of items.  Each item is
one timed call into the lab's public API, the number of results it
completes, and a check run on its output after the clock has stopped.
The calls go through module attributes (``H.disconnected_harnack_experiment``
and so on) at call time, so the tracer's wrappers see them.

Checks use a second route wherever one exists (closed forms, the Poisson
extension, the row-sum identity, the maximum principle).  Everything else
is compared with ``refs.json``: responses to each unit data piece,
recorded when the benchmark was defined.  The solver and the extension
are linear in the data and the data pieces are fixed (only their values
are seeded), so the superposition of recorded responses is a reference
for any seed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nonlocal_lab import geometry as G
from nonlocal_lab import harnack as H
from nonlocal_lab import kernel as K
from nonlocal_lab import operator as O
from nonlocal_lab import poisson as P
from nonlocal_lab import solver1d as S

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

WORKLOADS = ("many-data", "pointwise", "single-solve")
MANY_FAMILIES = ("random-nonneg", "far-negative", "mass-near-x2")
# exterior data of the pointwise and single-solve workloads: fixed pieces
# next to the unit ball (-1, 1), seeded values
PIECES = ((-3.0, -2.0), (-2.0, -1.0), (1.0, 2.0), (2.0, 3.0))
SINGLE_S = 0.5
# L w1(x1) for s = 1/4 on the reference configuration, by antiderivative
W1_SPOT_S025 = 4.0 * (5.0 ** -0.5 - 3.0 ** -0.5)

SIZES = {
    "full": {
        "many-data": {"N": 256, "samples": 20, "s": (0.5, 0.75),
                      "masses": (1.0, 10.0, 100.0, 1000.0)},
        "pointwise": {"barrier_s": (0.25, 0.5, 0.75, 0.9), "grid": 101,
                      "poisson_s": (0.25, 0.5, 0.75), "centers": 128},
        "single-solve": {"cases": (("frac", 1024), ("frac", 4096),
                                   ("ti", 128), ("ti", 256),
                                   ("general", 4))},
    },
    "smoke": {
        "many-data": {"N": 16, "samples": 2, "s": (0.5, 0.75),
                      "masses": (1.0, 10.0, 100.0, 1000.0)},
        "pointwise": {"barrier_s": (0.25, 0.5, 0.75, 0.9), "grid": 5,
                      "poisson_s": (0.25, 0.5, 0.75), "centers": 8},
        "single-solve": {"cases": (("frac", 64), ("frac", 128), ("ti", 8),
                                   ("ti", 16), ("general", 4))},
    },
}


# the reference two-ball configuration of the CLI and the selftest
REFERENCE = G.make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)


@dataclass
class Item:
    """One timed call: `run` is timed, `check` inspects its output later.

    check returns a list of problems; each one counts as a failed result,
    up to `count`.
    """

    label: str
    count: int
    run: Callable[[], object]
    check: Callable[[object], list]


@functools.cache
def refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def piece_key(lo: float, hi: float) -> str:
    return f"{lo!r},{hi!r}"


def program_seed(seed: int, k: int) -> int:
    """Seed handed to the lab's own samplers on pass k."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def seeded_pieces(rng) -> O.PointFunction:
    values = rng.uniform(0.0, 1.0, len(PIECES))
    return O.piecewise_constant(
        [(lo, hi, float(v)) for (lo, hi), v in zip(PIECES, values)],
        label="seeded")


def build(workload: str, size: str, seed: int, k: int) -> list[Item]:
    """Items of pass k; the same (seed, k) gives the same inputs."""
    params = SIZES[size][workload]
    return _BUILDERS[workload](params, seed, k)


# -- many-data ----------------------------------------------------------------

def _many_data(params, seed: int, k: int) -> list[Item]:
    config = REFERENCE
    pseed = program_seed(seed, k)
    items = []
    for s in params["s"]:
        kernel = K.make_kernel("frac", 1, s)
        for family in MANY_FAMILIES:
            count = (len(params["masses"]) if family == "mass-near-x2"
                     else params["samples"])
            items.append(Item(
                f"{family} s={s:g}", count,
                functools.partial(_experiment, s, kernel, config, family,
                                  pseed, params),
                functools.partial(_check_experiment, s, kernel, config,
                                  family, pseed, params)))
    return items


def _experiment(s, kernel, config, family, pseed, params):
    return H.disconnected_harnack_experiment(
        s, kernel, config, family, seed=pseed, N=params["N"],
        samples=params["samples"], masses=params["masses"])


def _experiment_data(config, family, pseed, params) -> list:
    """The data the experiment draws, regenerated in the same order."""
    rng = np.random.default_rng(pseed)
    if family == "random-nonneg":
        return [H.random_nonneg_data(config, rng)
                for _ in range(params["samples"])]
    if family == "far-negative":
        return [H.far_negative_data(config, rng)
                for _ in range(params["samples"])]
    return [H.mass_near_x2_data(config, m) for m in params["masses"]]


def _check_experiment(s, kernel, config, family, pseed, params, reports):
    data = _experiment_data(config, family, pseed, params)
    if len(reports) != len(data):
        return [f"{family}: {len(reports)} reports for {len(data)} data"]
    coef = refs()["many-data"][f"N{params['N']}"][f"{s:g}"]
    problems = []
    for rep, g in zip(reports, data):
        problems += _report_problems(rep, g, coef, s, config, family)
    if family != "far-negative":
        # discrete maximum principle over every cell, and the report
        # reduction recomputed from that solution
        g = data[-1]
        u = S.solve(S.assemble(kernel, G.mesh_over(config, params["N"]), g))
        if float(u.values.min()) < -1e-12:
            problems.append(f"{g.label}: min u = {u.values.min():.3e} < 0")
        again = H.harnack_report(u, config, s)
        for field in ("sup", "inf", "avg", "tail_term"):
            a, b = getattr(again, field), getattr(reports[-1], field)
            if abs(a - b) > 1e-12 * max(abs(a), 1e-300):
                problems.append(f"{g.label}: {field} {b!r} != {a!r}")
    return problems


def _report_problems(rep, g, coef, s, config, family) -> list:
    fields = (rep.sup, rep.inf, rep.avg, rep.tail_term)
    if not all(math.isfinite(v) for v in fields):
        return [f"{g.label}: non-finite report {fields}"]
    problems = []
    # avg over B_r(x2) is linear in the data: superpose recorded responses
    terms = [v * coef[piece_key(lo, hi)] for lo, hi, v in g.pieces]
    terms.append(g.far_value * coef["far"])
    want = math.fsum(terms)
    if abs(rep.avg - want) > 1e-9 * max(1.0, math.fsum(map(abs, terms))):
        problems.append(f"{g.label}: avg {rep.avg!r} != {want!r}")
    values = [v for _, _, v in g.pieces] + [g.far_value, 0.0]
    lo, hi = min(values), max(values)
    if rep.inf < lo - 1e-12 or rep.sup > hi + 1e-12 * max(1.0, hi):
        problems.append(f"{g.label}: values outside the data range "
                        f"[{lo:g}, {hi:g}]")
    if family == "far-negative":
        # the data's own far part, (r/R)^2s Tail(-1 beyond R), is a floor
        floor = (config.r / config.R) ** (2.0 * s) / s
        if rep.tail_term < floor * (1.0 - 1e-12):
            problems.append(f"{g.label}: tail {rep.tail_term!r} < {floor!r}")
    elif rep.tail_term > 1e-12:
        problems.append(f"{g.label}: tail {rep.tail_term!r} for data >= 0")
    den = rep.inf + rep.tail_term
    if den > 0.0 and (isinstance(rep.C_estimate, str) or abs(
            rep.C_estimate - rep.sup / den) > 1e-12 * abs(rep.sup / den)):
        problems.append(f"{g.label}: C {rep.C_estimate!r} != sup / den")
    return problems


# -- pointwise ----------------------------------------------------------------

def _pointwise(params, seed: int, k: int) -> list[Item]:
    config = REFERENCE
    data = seeded_pieces(np.random.default_rng([seed, k]))
    centers = G.mesh_intervals([(-1.0, 1.0)], params["centers"]).centers
    items = []
    for s in params["barrier_s"]:
        kernel = K.make_kernel("frac", 1, s)
        items.append(Item(
            f"barrier s={s:g}", 2 * params["grid"],
            functools.partial(_barrier, kernel, config, params["grid"]),
            functools.partial(_check_barrier, kernel, config, params)))
    for s in params["poisson_s"]:
        pk = P.PoissonKernelBall(n=1, s=s, r=1.0, center=(0.0,))
        items.append(Item(
            f"poisson s={s:g}", len(centers),
            functools.partial(_extend, pk, data, centers),
            functools.partial(_check_extend, pk, data, centers)))
    return items


def _barrier(kernel, config, grid):
    return H.barrier_combination_check(kernel, config, grid=grid)


def _extend(pk, data, centers):
    return [P.poisson_extend(pk, data, float(x)) for x in centers]


def _check_barrier(kernel, config, params, out) -> list:
    s = kernel.s
    xs, lw1, lw2 = out["grid"], out["Lw1"], out["Lw2"]
    ref = refs()["pointwise"][f"grid{params['grid']}"][f"{s:g}"]
    problems = []
    # w1 is the indicator of B_r(x2): L w1 has a closed form on B_r(x1)
    a = float(config.x2[0]) - config.r - xs
    b = float(config.x2[0]) + config.r - xs
    exact = -(a ** (-2.0 * s) - b ** (-2.0 * s)) / s
    bad = np.abs(lw1 - exact) > 1e-7
    problems += [f"L w1 s={s:g} x={x:.6g}: {v!r} != {e!r}"
                 for x, v, e in zip(xs[bad], lw1[bad], exact[bad])]
    want = np.asarray(ref["lw2"])
    bad = np.abs(lw2 - want) > 1e-8 * max(1.0, float(np.max(np.abs(want))))
    problems += [f"L w2 s={s:g} x={x:.6g}: {v!r} != {e!r}"
                 for x, v, e in zip(xs[bad], lw2[bad], want[bad])]
    if out["c0_max"] != ref["c0_max"]:
        problems.append(f"c0_max s={s:g}: {out['c0_max']!r} != "
                        f"{ref['c0_max']!r}")
    if s == 0.25:
        res = O.eval_L(kernel, O.barrier_w1(config), float(config.x1[0]))
        if abs(res.value - W1_SPOT_S025) > res.error_bound:
            problems.append(f"L w1(x1) = {res.value!r} misses "
                            f"{W1_SPOT_S025!r} by more than its error bound "
                            f"{res.error_bound:.3e}")
    return problems


def _arccos_extension(data, x: float) -> float:
    """Extension of piecewise data at s = 1/2 on (-1, 1), in closed form.

    On the right, P(x, z) dz integrates to arccos((1 - x z) / (z - x)) / pi;
    pieces on the left use the mirror image.
    """
    total = 0.0
    for lo, hi, v in data.pieces:
        y, a, b = (x, lo, hi) if lo >= 1.0 else (-x, -hi, -lo)
        total += v * (math.acos((1.0 - y * b) / (b - y))
                      - math.acos((1.0 - y * a) / (a - y))) / math.pi
    return total


def _check_extend(pk, data, centers, out) -> list:
    vals = np.array([res.value for res in out])
    if pk.s == 0.5:
        want = np.array([_arccos_extension(data, float(x)) for x in centers])
    else:
        table = refs()["pointwise"][f"centers{len(centers)}"][f"{pk.s:g}"]
        values = np.array([v for _, _, v in data.pieces])
        want = np.asarray(table) @ values
    vmax = max(v for _, _, v in data.pieces)
    bad = ~(np.abs(vals - want) <= 1e-8) | (vals < -1e-12) | (vals > vmax)
    problems = [f"extension s={pk.s:g} x={x:.6g}: {v!r} != {w!r}"
                for x, v, w in zip(centers[bad], vals[bad], want[bad])]
    if pk.s == 0.5:
        spot = P.poisson_extend(pk, O.indicator(1.0, 3.0), 0.0).value
        if abs(spot - math.acos(1.0 / 3.0) / math.pi) > 1e-6:
            problems.append(f"extension of chi(1,3) at 0: {spot!r}")
    return problems


# -- single-solve -------------------------------------------------------------

def _single_solve(params, seed: int, k: int) -> list[Item]:
    data = seeded_pieces(np.random.default_rng([seed, k]))
    items = []
    for family, m in params["cases"]:
        kernel = K.make_kernel(family, 1, SINGLE_S)
        mesh = G.mesh_intervals([(-1.0, 1.0)], m)
        items.append(Item(
            f"{family} m={m}", 1,
            functools.partial(_assemble_solve, kernel, mesh, data),
            functools.partial(_check_solve, f"{family}-{m}", data)))
    return items


def _assemble_solve(kernel, mesh, data):
    system = S.assemble(kernel, mesh, data)
    return system, S.solve(system)


def _check_solve(case: str, data, out) -> list:
    system, u = out
    problems = []
    if not np.allclose(system.matrix.sum(axis=1), system.exterior_mass,
                       rtol=1e-9, atol=1e-10):
        problems.append(f"{case}: row sums differ from the exterior mass")
    values = np.array([v for _, _, v in data.pieces])
    if u.values.min() < -1e-12 or u.values.max() > values.max() + 1e-12:
        problems.append(f"{case}: solution leaves the data range")
    ref = refs()["single-solve"][case]
    got = u.values[ref["cells"]]
    want = np.asarray(ref["phi"]) @ values
    if np.any(np.abs(got - want) > 1e-9 * np.maximum(1.0, np.abs(want))):
        problems.append(f"{case}: {got.tolist()} != {want.tolist()}")
    if case.startswith("frac-"):
        # second route: the Poisson extension, at the criterion-3 tolerance
        pk = P.PoissonKernelBall(n=1, s=system.kernel.s, r=1.0,
                                 center=(0.0,))
        centers = system.mesh.centers
        idx = np.searchsorted(centers, (-0.8, -0.4, 0.0, 0.4, 0.8))
        ext = np.array([P.poisson_extend(pk, data, float(centers[i])).value
                        for i in idx])
        err = float(np.max(np.abs(u.values[idx] - ext)) / np.max(np.abs(ext)))
        if not err < 0.02:
            problems.append(f"{case}: relative error {err:.4g} against the "
                            f"extension route")
    return problems


_BUILDERS = {"many-data": _many_data, "pointwise": _pointwise,
             "single-solve": _single_solve}
