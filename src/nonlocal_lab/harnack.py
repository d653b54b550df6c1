"""Experiment harness around the two-ball solver.

Each experiment solves the Dirichlet problem for a family of exterior
data on the disconnected domain, measures sup / inf / average over the
reference balls together with the tail of the negative part, and records
the empirical constant tying them.  The tail is a closed form over the
segments of the solution on R, its cells and then its data, so cells
outside B_R(0) count as well.  An experiment assembles its operator
once and solves all of its data in one block solve; its data share their
piece edges, so the assembly computes each distinct exterior segment's
mass once for all of them.  Everything is seeded and the sample order is
fixed, so reports are reproducible bit for bit at a fixed BLAS thread
setting.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigParseError, EmptySample, NoPositiveC0
from .geometry import (DisconnectedConfig, Mesh1D, complement,
                       mesh_intervals, mesh_over)
from .kernel import Kernel, make_kernel
from .operator import (
    PointFunction,
    barrier_w1,
    barrier_w2,
    eval_L,
    indicator,
    piecewise_constant,
    segment_tail,
)
from .solver1d import (GridFunction, assemble, check_budget,
                       check_vector_budget, solve)

DEFAULT_SAMPLES = 20
DEFAULT_MASSES = (1.0, 10.0, 100.0, 1000.0)
SUBCELLS_PER_GAP = 8  # resolution of the random piecewise data
C0_GRID = np.geomspace(1e-4, 10.0, 81)
BARRIER_TOL = 1e-8
# peak memory of a barrier check per grid point: 12.9-13.0 kB fractional,
# 14.5-19.1 kB TI at 0.1 <= s <= 0.99 (tracemalloc, 2,001-8,001 points)
BARRIER_POINT_BYTES = 20480


@dataclass(frozen=True)
class HarnackReport:
    """One solved sample, reduced to the quantities the inequality ties.

    sup and avg run over cell centers in B_r(x2), inf over B_r(x1);
    tail_term is (r/R)^(2s) times the tail of the negative part at the
    origin with cutoff R.  C_estimate derives from them: sup / (inf +
    tail_term), or the string "trivial" when that denominator is not
    positive.  N is the mesh's cells per interval.
    """

    config: DisconnectedConfig
    s: float
    kernel: str
    sup: float
    inf: float
    avg: float
    tail_term: float
    seed: int
    N: int
    sample_id: int = 0

    @property
    def C_estimate(self) -> float | str:
        den = self.inf + self.tail_term
        return self.sup / den if den > 0.0 else "trivial"

    def as_dict(self) -> dict:
        return {
            "config": {
                "n": self.config.n,
                "x1": float(self.config.x1[0]),
                "x2": float(self.config.x2[0]),
                "r": self.config.r,
                "R": self.config.R,
                "checked": self.config.checked,
            },
            "s": self.s,
            "kernel": self.kernel,
            "sup": self.sup,
            "inf": self.inf,
            "avg": self.avg,
            "tail_term": self.tail_term,
            "C_estimate": self.C_estimate,
            "seed": self.seed,
            "N": self.N,
            "sample_id": self.sample_id,
        }

    def csv_row(self) -> list:
        return [self.s, self.sample_id, self.sup, self.inf, self.avg,
                self.tail_term, self.C_estimate]


CSV_COLUMNS = ("s", "sample_id", "sup", "inf", "avg", "tail", "C_estimate")


def _negative_tail(mesh: Mesh1D, config: DisconnectedConfig, s: float):
    """u -> (r/R)^(2s) Tail(u_-; 0, R) for solutions u on the mesh, over
    u's negative cells reaching past R (the others add exactly +0.0), then
    its data clipped to the mesh's complement, as segments."""
    R, comps = config.R, complement(mesh.intervals)
    past = (mesh.lo < -R) | (mesh.hi > R)
    scale = (config.r / R) ** (2.0 * s)

    def tail(u: GridFunction) -> float:
        keep = (u.values < 0.0) & past
        cells = zip(mesh.lo[keep].tolist(), mesh.hi[keep].tolist(),
                    (-u.values[keep]).tolist())
        data = [(lo, hi, -v) for lo, hi, v in u.exterior.segments_in(comps)
                if v < 0.0]
        return scale * segment_tail([*cells, *data], 0.0, R, s)

    return tail


def _reporter(mesh: Mesh1D, config: DisconnectedConfig, s: float,
              kernel_tag: str, seed: int):
    """(u, sample_id) -> HarnackReport for solutions u on the mesh; the
    cells of B_r(x2) and B_r(x1) and the tail's geometry are found once."""
    in2, in1 = (mesh.cells_in(float(x[0]), config.r)
                for x in (config.x2, config.x1))
    for idx, x in ((in2, config.x2), (in1, config.x1)):
        if idx.size == 0:
            raise EmptySample(f"no cell centers in ball at {float(x[0]):g} "
                              f"radius {config.r:g}")
    tail = _negative_tail(mesh, config, s)

    def report(u: GridFunction, sample_id: int) -> HarnackReport:
        v2, inf_ = u.values[in2], float(u.values[in1].min())
        return HarnackReport(
            config=config, s=float(s), kernel=kernel_tag,
            sup=float(v2.max()), inf=inf_, avg=float(v2.mean()),
            tail_term=tail(u), seed=seed, N=mesh.N, sample_id=sample_id)

    return report


def harnack_report(u: GridFunction, config: DisconnectedConfig,
                   s: float) -> HarnackReport:
    """Reduce one solved sample to a HarnackReport, with an empty kernel
    tag, seed 0 and sample_id 0."""
    return _reporter(u.mesh, config, s, "", 0)(u, 0)


# -- data families ------------------------------------------------------------

def _data_gaps(config: DisconnectedConfig):
    """The solved domain's complement clipped to B_R, left to right."""
    R = config.R
    gaps = [(max(a, -R), min(b, R)) for a, b in complement(config.domain)]
    return [(a, b) for a, b in gaps if b - a > 1e-12 * R]


def _random_family(config: DisconnectedConfig, rng, labels,
                   **far) -> list[PointFunction]:
    """One datum per label, uniform [0,1] on SUBCELLS_PER_GAP pieces of
    each gap, drawn as one (data, pieces) array: the stream of one datum
    at a time."""
    edges = [np.linspace(a, b, SUBCELLS_PER_GAP + 1).tolist()
             for a, b in _data_gaps(config)]
    pieces = [piece for e in edges for piece in zip(e[:-1], e[1:])]
    values = rng.uniform(0.0, 1.0, (len(labels), len(pieces))).tolist()
    return [piecewise_constant([(*piece, v) for piece, v in zip(pieces, row)],
                               label=label, **far)
            for row, label in zip(values, labels)]


def random_nonneg_data(config: DisconnectedConfig, rng,
                       label: str = "rand") -> PointFunction:
    """Cellwise-constant uniform [0,1] values on B_R minus the domain."""
    return _random_family(config, rng, [label])[0]


def mass_near_x2_data(config: DisconnectedConfig,
                      mass: float) -> PointFunction:
    """Unit baseline on B_R minus the domain plus mass on the window 2r to
    3r past x2, away from x1; its parts beyond B_R carry the mass alone.

    The baseline keeps inf over B_r(x1) at order one independently of the
    mass, so the ratio genuinely tests how much of the concentrated datum
    leaks across the gap; a pure multiple of one indicator would leave the
    ratio exactly unchanged by linearity.
    """
    x1, x2, r, R = float(config.x1[0]), float(config.x2[0]), config.r, config.R
    window = [(x2 + 2.0 * r, x2 + 3.0 * r) if x2 >= x1
              else (x2 - 3.0 * r, x2 - 2.0 * r)]
    base = piecewise_constant([(a, b, 1.0) for a, b in _data_gaps(config)])
    beyond = indicator(*window[0]).segments_in(complement([(-R, R)]))
    pieces = [*base.segments_in(complement(window)),
              *((lo, hi, 1.0 + mass) for lo, hi, _ in base.segments_in(window)),
              *((lo, hi, float(mass)) for lo, hi, _ in beyond)]
    return piecewise_constant(pieces, label=f"mass{mass:g}")


def far_negative_data(config: DisconnectedConfig, rng=None,
                      magnitude: float = 1.0,
                      label: str = "farneg") -> PointFunction:
    """Random nonnegative inside B_R, constant -magnitude beyond it."""
    far = {"far_value": -float(magnitude), "far_radius": config.R}
    if rng is None:
        return piecewise_constant([], label=label, **far)
    return _random_family(config, rng, [label], **far)[0]


def disconnected_harnack_experiment(s: float, kernel: Kernel,
                                    config: DisconnectedConfig,
                                    data_family: str, seed: int = 0,
                                    N: int = 256,
                                    samples: int = DEFAULT_SAMPLES,
                                    masses=DEFAULT_MASSES,
                                    ) -> list[HarnackReport]:
    """Solve one data family and report each sample.

    Families: random-nonneg (seeded cellwise uniform on B_R minus the
    domain), mass-near-x2 (saturation scan over `masses`), far-negative
    (random inside, -1 beyond B_R).  All samples are drawn up front from
    one generator, as one array, and solved together on one operator; the
    memory budget of the 2N cells and the data is checked first.  s must
    be the kernel's order (ConfigParseError).
    """
    if s != kernel.s:
        raise ConfigParseError(f"s = {s} is not the kernel's order {kernel.s}")
    check_vector_budget(2 * N, len(masses) if data_family == "mass-near-x2"
                        else samples)
    rng, ids = np.random.default_rng(seed), range(samples)
    if data_family == "random-nonneg":
        data = _random_family(config, rng, [f"rand{i}" for i in ids])
    elif data_family == "mass-near-x2":
        data = [mass_near_x2_data(config, m) for m in masses]
    elif data_family == "far-negative":
        data = _random_family(config, rng, [f"farneg{i}" for i in ids],
                              far_value=-1.0, far_radius=config.R)
    else:
        raise ConfigParseError(f"unknown data family {data_family!r}")
    if not data:
        raise ConfigParseError(f"the {data_family} family yields no data")
    mesh = mesh_over(config, N)
    solutions = solve(assemble(kernel, mesh, data))
    report = _reporter(mesh, config, s, kernel.tag(), seed)
    return [report(u, i) for i, u in enumerate(solutions)]


def aggregate_c_max(reports) -> float:
    """Largest finite empirical constant of a report batch."""
    vals = [rep.C_estimate for rep in reports
            if not isinstance(rep.C_estimate, str)]
    if not vals:
        raise EmptySample("every report in the batch is trivial")
    return float(max(vals))


def localized_mp_check(kernel: Kernel, config: DisconnectedConfig,
                       far_data: PointFunction, N: int = 256) -> dict:
    """Solve on B_r(x1) alone and bound the dip by the negative tail; the
    memory budget of the N cells is checked before the mesh is built."""
    check_vector_budget(N)
    x1, r = float(config.x1[0]), config.r
    mesh = mesh_intervals([(x1 - r, x1 + r)], N)
    u = solve(assemble(kernel, mesh, far_data))
    min_u = float(u.values.min())
    tail_term = _negative_tail(mesh, config, kernel.s)(u)
    c_emp = -min_u / tail_term if (min_u < 0.0 and tail_term > 0.0) else 0.0
    return {"min_u": min_u, "tail_term": tail_term, "C_empirical": c_emp}


def barrier_combination_check(kernel: Kernel, config: DisconnectedConfig,
                              grid: int = 101) -> dict:
    """Largest c0 of C0_GRID keeping L(w1 + c0 w2) <= 0 on B_r(x1), with
    the operator evaluated at tolerance BARRIER_TOL.

    Both operator profiles are evaluated on the whole grid at once;
    linearity then turns the scan over c0 into a vector comparison.  A
    grid of 1 or 2 points samples only the rim of B_r(x1), where w2 = 0,
    so every c0 would pass; from 3 points on, one lies within r/2 of x1.
    A grid past the memory budget fails before any operator value.
    """
    if not grid >= 3:
        raise ConfigParseError(f"the grid needs at least 3 points, got {grid}")
    check_budget(BARRIER_POINT_BYTES * grid, f"{grid} barrier grid points")
    x1, r = float(config.x1[0]), config.r
    xs = np.linspace(x1 - r, x1 + r, int(grid))
    lw1 = eval_L(kernel, barrier_w1(config), xs, tol=BARRIER_TOL).value
    lw2 = eval_L(kernel, barrier_w2(config), xs, tol=BARRIER_TOL).value
    feasible = [float(c0) for c0 in C0_GRID if np.max(lw1 + c0 * lw2) <= 0.0]
    if not feasible:
        raise NoPositiveC0(
            f"no c0 in [{C0_GRID.min():g}, {C0_GRID.max():g}] keeps the "
            f"combination a subsolution on the grid")
    c0_max = max(feasible)
    return {"c0_max": c0_max, "grid": xs, "Lw1": lw1, "Lw2": lw2}


def s_sweep(kernel_family: str, config: DisconnectedConfig, s_grid,
            data_family: str = "random-nonneg", seed: int = 0,
            N: int = 128, samples: int = 8, grid: int = 101) -> dict:
    """Aggregate constants per order: table rows (s, C_max, c0_max), with
    each order's reports and barrier_combination_check result.

    Each order's barrier check runs before its solves, so a kernel the
    check cannot take (the general family) fails before any assembly."""
    if len(s_grid) == 0:
        raise ConfigParseError("the s grid is empty")
    table, reports, barriers = [], {}, {}
    for s in s_grid:
        s = float(s)
        k = make_kernel(kernel_family, config.n, s)
        barriers[s] = barrier_combination_check(k, config, grid=grid)
        reps = disconnected_harnack_experiment(
            s, k, config, data_family, seed=seed, N=N, samples=samples)
        table.append({"s": s, "C_max": aggregate_c_max(reps),
                      "c0_max": barriers[s]["c0_max"]})
        reports[s] = reps
    return {"table": table, "reports": reports, "barriers": barriers}
