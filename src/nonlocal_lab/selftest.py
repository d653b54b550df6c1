"""Deterministic acceptance suite behind the `selftest` subcommand.

Each numbered criterion is a standalone function returning a
CriterionResult, so the pytest acceptance module can assert them one by
one.  run_selftest() executes the suite twice and adds the
reproducibility criterion by byte-comparing the two rendered reports.
All randomness flows from the seed argument; details are formatted with
a fixed precision so reports are stable across runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import make_disconnected_config, mesh_intervals, mesh_over
from .harnack import (
    disconnected_harnack_experiment,
    far_negative_data,
    localized_mp_check,
    random_nonneg_data,
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
from .poisson import PoissonKernelBall, poisson_constant, poisson_extend
from .solver1d import assemble, solve

# L w1(x1) for s = 1/4 on the reference configuration, by antiderivative:
# -2 * integral over (1,3) of |y + 2|^(-3/2) dy = 4 (5^(-1/2) - 3^(-1/2)).
W1_SPOT_S025 = 4.0 * (5.0 ** -0.5 - 3.0 ** -0.5)

STANDARD = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def check_poisson_normalization() -> CriterionResult:
    """1: the kernel integrates to one inside the ball."""
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        pk = PoissonKernelBall(n=1, s=s, r=1.0, center=(0.0,))
        vals = poisson_extend(pk, constant(1.0), np.array([0.0, 0.5, -0.5]))
        worst = max(worst, float(np.max(np.abs(vals.value - 1.0))))
    return CriterionResult(1, "poisson normalization", worst < 1e-6,
                           f"max |mass - 1| = {worst:.6g}")


def check_closed_forms() -> CriterionResult:
    """2: normalization constant and an arccos-form extension value."""
    e1 = abs(poisson_constant(0.5) - 1.0 / math.pi)
    pk = PoissonKernelBall(n=1, s=0.5, r=1.0, center=(0.0,))
    val = poisson_extend(pk, indicator(1.0, 3.0), 0.0).value
    e2 = abs(val - math.acos(1.0 / 3.0) / math.pi)
    return CriterionResult(2, "closed-form values",
                           e1 < 1e-12 and e2 < 1e-6,
                           f"constant err = {e1:.6g}, arccos err = {e2:.6g}")


def check_solver_vs_extension() -> CriterionResult:
    """3: the collocation solver converges to the extension route."""
    data = indicator(1.0, 3.0)
    ok = True
    finals = []
    for s in (0.25, 0.5, 0.75):
        kernel = make_kernel("frac", 1, s)
        pk = PoissonKernelBall(n=1, s=s, r=1.0, center=(0.0,))
        errs = []
        for N in (64, 128, 256, 512):
            mesh = mesh_intervals([(-1.0, 1.0)], N)
            u = solve(assemble(kernel, mesh, data))
            ext = poisson_extend(pk, data, mesh.centers).value
            # error relative to the solution scale; pointwise quotients
            # degenerate where the extension vanishes at the boundary
            errs.append(float(np.max(np.abs(u.values - ext))
                              / np.max(np.abs(ext))))
        monotone = all(a > b for a, b in zip(errs, errs[1:]))
        ok = ok and monotone and errs[-1] < 0.02
        finals.append(errs[-1])
    detail = "final rel errors " + ", ".join(f"{e:.4g}" for e in finals)
    return CriterionResult(3, "solver vs extension", ok, detail)


def check_barrier_estimates() -> CriterionResult:
    """4: barrier operator values obey the r^{-2s} scaling law."""
    s = 0.25
    kernel = make_kernel("frac", 1, s)
    chat, cmeas = {}, {}
    spot = None
    for r in (0.5, 1.0, 2.0):
        config = make_disconnected_config(n=1, x1=-2 * r, x2=2 * r, r=r,
                                          R=16 * r)
        w1, w2 = barrier_w1(config), barrier_w2(config)
        xs = np.linspace(-3.0 * r, -1.0 * r, 101)
        lw1 = eval_L(kernel, w1, xs).value
        lw2 = eval_L(kernel, w2, xs).value
        chat[r] = float(np.min(-lw1)) * r ** (2 * s)
        cmeas[r] = float(np.max(np.abs(lw2))) * r ** (2 * s)
        if r == 1.0:
            spot = float(lw1[50])
        if np.any(lw1 >= 0.0) or not np.all(np.isfinite(lw2)):
            return CriterionResult(4, "barrier estimates", False,
                                   "sign or finiteness violation")
    ok = True
    for r in (0.5, 1.0, 2.0):
        # L w1 <= -0.9 * chat_1 * r^{-2s} uniformly: chat[r] is the min of
        # -L w1 * r^{2s}, so the grid-uniform check reduces to this ratio.
        ok = ok and chat[r] >= 0.9 * chat[1.0]
        ok = ok and abs(chat[r] / chat[1.0] - 1.0) < 0.05
        ok = ok and abs(cmeas[r] / cmeas[1.0] - 1.0) < 0.05
    spot_err = abs(spot - W1_SPOT_S025)
    ok = ok and spot_err < 1e-4
    detail = (f"c_hat = {chat[1.0]:.6g}, C_meas = {cmeas[1.0]:.6g}, "
              f"spot err = {spot_err:.3g}")
    return CriterionResult(4, "barrier estimates", ok, detail)


def check_discrete_principles(seed: int = 0) -> CriterionResult:
    """5: nonneg data gives nonneg solutions; ordered data orders them."""
    rng = np.random.default_rng(seed)
    kernel = make_kernel("frac", 1, 0.5)
    mesh = mesh_over(STANDARD, 64)
    data = []
    for _ in range(100):
        g1 = random_nonneg_data(STANDARD, rng)
        bump = rng.uniform(0.0, 1.0, size=len(g1.pieces))
        g2 = piecewise_constant(
            [(lo, hi, val + b)
             for (lo, hi, val), b in zip(g1.pieces, bump)])
        data += [g1, g2]
    us = solve(assemble(kernel, mesh, data))
    pairs = list(zip(us[::2], us[1::2]))
    sign_viol = sum(float(u1.values.min()) < -1e-12 for u1, _ in pairs)
    pair_viol = sum(float(np.min(u2.values - u1.values)) < -1e-12
                    for u1, u2 in pairs)
    ok = sign_viol == 0 and pair_viol == 0
    return CriterionResult(
        5, "discrete principles", ok,
        f"sign violations {sign_viol}/100, order violations {pair_viol}/100")


def check_mass_saturation(seed: int = 0) -> CriterionResult:
    """6: far mass saturates the two-ball constant instead of growing."""
    kernel = make_kernel("frac", 1, 0.5)
    reports = disconnected_harnack_experiment(
        0.5, kernel, STANDARD, "mass-near-x2", seed=seed, N=256,
        masses=(1.0, 10.0, 100.0, 1000.0))
    cs = [rep.C_estimate for rep in reports]
    if any(isinstance(c, str) for c in cs):
        return CriterionResult(6, "mass saturation", False,
                               "trivial report in mass family")
    drift = abs(cs[3] - cs[2]) / cs[2]
    return CriterionResult(6, "mass saturation", drift < 0.10,
                           f"C drift M=100 to M=1000 is {drift:.4g}")


def check_nonrobustness_sweep(seed: int = 0) -> CriterionResult:
    """7: constants degenerate monotonically as s -> 1, in a tight band.

    The gate takes c0_max from C0_GRID.  The detail adds the exact band,
    from the largest c0 on the same x grid (min -L w1 / L w2 where
    L w2 > 0), and its two factors, each at its order's own minimiser."""
    s_grid = (0.5, 0.7, 0.9, 0.95)
    out = s_sweep("frac", STANDARD, s_grid, data_family="random-nonneg",
                  seed=seed, N=128, samples=8, grid=101)
    cmax = [row["C_max"] for row in out["table"]]
    c0 = [row["c0_max"] for row in out["table"]]
    inc = all(a < b for a, b in zip(cmax, cmax[1:]))
    dec = all(a > b for a, b in zip(c0, c0[1:]))
    quot = [c0[i] / (1.0 - s) for i, s in enumerate(s_grid[:3])]
    band = max(quot) / min(quot)
    ok = inc and dec and band <= 5.0
    parts = []  # (-L w1, (1 - s) L w2) at each order's minimiser
    for s in s_grid[:3]:
        lw1, lw2 = out["barriers"][s]["Lw1"], out["barriers"][s]["Lw2"]
        pos = np.flatnonzero(lw2 > 0.0)
        i = pos[np.argmin(-lw1[pos] / lw2[pos])]
        parts.append((-lw1[i], (1.0 - s) * lw2[i]))
    exact = [a / b for a, b in parts]
    hi, lo = int(np.argmax(exact)), int(np.argmin(exact))
    return CriterionResult(
        7, "non-robustness sweep", ok,
        f"C_max increasing {inc}, c0_max decreasing {dec}, "
        f"c0/(1-s) band = {band:.4g} (limit 5), exact band = "
        f"{exact[hi] / exact[lo]:.4g}: from s = {s_grid[hi]:g} to "
        f"{s_grid[lo]:g}, -L w1 falls {parts[hi][0] / parts[lo][0]:.4g}x "
        f"and (1-s) L w2 rises {parts[lo][1] / parts[hi][1]:.4g}x")


def check_localized_mp_stability() -> CriterionResult:
    """8: the localized bound is stable in R/r and linear in magnitude."""
    s = 0.25
    kernel = make_kernel("frac", 1, s)
    outs = {}
    for R in (8.0, 16.0, 32.0):
        config = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=R)
        far = far_negative_data(config, None, magnitude=1.0)
        outs[R] = localized_mp_check(kernel, config, far, N=256)
    cs = [outs[R]["C_empirical"] for R in (8.0, 16.0, 32.0)]
    ratio = max(cs) / min(cs)
    config = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)
    far2 = far_negative_data(config, None, magnitude=2.0)
    o2 = localized_mp_check(kernel, config, far2, N=256)
    ref = 2.0 * outs[16.0]["min_u"]
    reldev = abs(o2["min_u"] - ref) / abs(ref)
    ok = ratio < 3.0 and reldev < 1e-8
    return CriterionResult(
        8, "localized MP stability", ok,
        f"C ratio over R/r = {ratio:.4g} (limit 3), "
        f"linearity deviation = {reldev:.3g}")


def run_criteria(seed: int = 0) -> list:
    return [
        check_poisson_normalization(),
        check_closed_forms(),
        check_solver_vs_extension(),
        check_barrier_estimates(),
        check_discrete_principles(seed),
        check_mass_saturation(seed),
        check_nonrobustness_sweep(seed),
        check_localized_mp_stability(),
    ]


def render_report(results, seed: int) -> str:
    lines = [f"nonlocal-lab selftest seed={seed}", ""]
    for res in results:
        word = "PASS" if res.passed else "FAIL"
        lines.append(f"criterion {res.number} ({res.name}): {word} "
                     f"[{res.detail}]")
    npass = sum(1 for res in results if res.passed)
    lines += ["", f"{npass} of {len(results)} criteria passed"]
    return "\n".join(lines) + "\n"


def run_selftest(seed: int = 0) -> tuple:
    """(all criteria passed, the report), run twice; the rerun feeds the
    reproducibility check."""
    first = run_criteria(seed)
    second = run_criteria(seed)
    t1 = render_report(first, seed)
    t2 = render_report(second, seed)
    repro = CriterionResult(
        9, "reproducibility", t1 == t2,
        "second run byte-identical" if t1 == t2 else "reports differ")
    results = first + [repro]
    return all(res.passed for res in results), render_report(results, seed)
