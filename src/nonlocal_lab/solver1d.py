"""Discrete Dirichlet solver on unions of intervals.

Piecewise-constant collocation with double-integral couplings: row i encodes

    2 sum_j W_ij (u_i - u_j) + 2 E_i u_i = f_i |cell_i| + 2 B_i

with W_ij the cell-pair kernel mass, E_i the exterior mass and B_i the
exterior data mass.  Constants solve the scheme exactly by the row-sum
identity, and the matrix is an M-matrix whose row dominance slack is
exactly the exterior mass, so discrete maximum and comparison principles
hold by construction.

Touching cells make the raw W_ij diverge for s >= 1/2 (cellwise-constant
jumps carry infinite energy), so every kernel integral excludes the band
|x - y| < gamma with gamma = BAND_FRACTION * h; touching pairs get back
the band's weighted second moment / h^2 as a curvature coupling, which
restores the mass a smooth solution would have put there.  The exclusion
is applied to W, E and B alike, which keeps the row-sum identity and the
M-matrix structure exact at any band width.

The two translation-invariant families (fractional and a profile K(|x-y|))
share one path through two primitives: _overlap_mass, the banded mass of
a width-h cell against a segment at edge distance d0, and _band_moment,
the band's second moment at a gap.  Each is a closed form for the
fractional family (no quadrature error) and one vector-valued integral
over all its inputs otherwise, against the trapezoid overlap weight of the
two intervals.  W_ij depends on the pair through its gap alone, so it is
the overlap mass of two cells plus the curvature coupling, computed once
per distinct gap; every block of cells from intervals p <= q is Toeplitz
and is given by one generating vector over its index offsets.  An
exterior segment (E, and B, whose data segments are clipped to the
exterior components) is one overlap mass over all cells, which share its
error estimate e, so a segment adds m e plus its cells' truncation
remainders to the assembly error.  General pair kernels take a nested
adaptive quadrature per cell and segment whose inner cell mass is one
vector-valued integral over all nodes of a batch of outer panels; a
4-cell mesh assembles in 0.5-0.7 s, 8 cells in 1.2-1.4 s and 16 cells in
2.4-2.5 s (one core of a 2-vCPU x86-64 virtual machine).

The system matrix A = diag(2 (row sums of W + E)) - 2 W takes one of two
forms.  General kernels, and the translation-invariant families up to
DENSE_MAX_CELLS cells, fill it as a dense m x m array and solve it by LU;
the dense matrix may take at most MATRIX_BUDGET_BYTES, and a larger mesh
fails with ConfigError before anything is allocated.  Above that size a
translation-invariant system keeps only its block generating vectors and
E (ToeplitzOperator, O(m) storage) and is solved by conjugate gradients
with FFT products and a block-diagonal Strang circulant preconditioner
(Chan & Strang, SIAM J. Sci. Stat. Comput. 10, 1989), which converges in
tens of iterations at any m; the dense matrix is then built only when
LinearSystem.matrix is read.

Assembly has two parts.  The operator part, built once per (kernel,
mesh), holds the couplings W, the exterior mass E and their assembly
error; the data part is one column B per exterior datum.  Exterior data
must be piecewise constant and the source f one constant.  assemble()
takes one datum or a sequence of them: a sequence builds the operator
once and gives an m x k right-hand side, which solve() handles with one
factorization or one conjugate-gradient run, checking the residual of
every column.  E and each column sum the masses of their clipped
exterior segments, and one assemble() call computes the mass of each
distinct segment once: the data of an experiment family share their
piece edges.  Every column still sums its own segments in its own order,
so it equals the single-datum assembly bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .errors import (
    ConfigError,
    ConfigParseError,
    SingularSystem,
    UnsupportedDimension,
)
from .geometry import Mesh1D
from .kernel import Kernel
from .operator import PointFunction
from .quadrature import check_tol, integrate

BAND_FRACTION = 0.25
EXTERIOR_TRUNCATION_FACTOR = 1e4
ASSEMBLY_TOL = 1e-10
# largest translation-invariant system solved densely; larger ones take
# the O(m) Toeplitz form and conjugate gradients
DENSE_MAX_CELLS = 1024
# memory the solver may take: 1 GiB.  A dense m x m float64 matrix must
# fit (m <= 11585 cells), checked by assemble() on the dense path and when
# the dense view of a Toeplitz system is built; LU adds one copy of it.
# A Toeplitz system must fit ASSEMBLY_VECTORS + CG_VECTORS k float64
# vectors of m for k data (m <= 729,000 cells for one datum): assembly
# peaks at 110-130 of them for the TI family (its vector-valued coupling
# integral) and 20-26 for the fractional one, and each column of the
# conjugate gradients at 16
MATRIX_BUDGET_BYTES = 1 << 30
ASSEMBLY_VECTORS = 160
CG_VECTORS = 24
# conjugate gradients stop at this max-norm residual relative to each
# column's rhs, and raise SingularSystem after CG_MAX_ITER iterations
CG_TOL = 1e-13
CG_MAX_ITER = 1000


# -- closed forms for K(t) = A t^(-1-2s) -------------------------------------

def _phi(t, s: float):
    """Kernel tail mass: integral of t^(-1-2s) over (t, inf) = t^(-2s)/(2s)."""
    return np.asarray(t, dtype=float) ** (-2.0 * s) / (2.0 * s)


def _phi_mass(lo, width, s: float):
    """int_lo^(lo + width) _phi(t) dt for lo > 0, continuous in s through
    1/2.

    With L = log(1 + width/lo) and x = (1 - 2s) L it is
    lo^(1-2s) L expm1(x)/x / (2s), the ratio taken as 1 at x = 0, so
    s = 1/2 needs no branch (the integral is L there), no two
    antiderivative values cancel, and the width enters exactly rather
    than as a difference of rounded end points."""
    lo = np.asarray(lo, dtype=float)
    L = np.log1p(width / lo)
    x = np.asarray((1.0 - 2.0 * s) * L)
    ratio = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    return lo ** (1.0 - 2.0 * s) * L * ratio / (2.0 * s)


def _banded_mass(amp: float, s: float, d0, h: float, width: float,
                 gamma: float):
    """Banded kernel mass between width-h cells and a segment at distance d0.

    int over the cell of phi(max(distance, gamma)) for a segment of the
    given width (may be inf) whose near edge sits d0 from the cell edge;
    vectorized in d0.
    """
    def beyond(d):  # the cell against everything from d past its edge on
        lo = np.maximum(d, gamma)
        return _phi_mass(lo, h - (lo - d), s) + (lo - d) * _phi(gamma, s)

    d0 = np.asarray(d0, dtype=float)
    far = beyond(d0 + width) if np.isfinite(width) else 0.0
    return amp * (beyond(d0) - far)


# -- assembled system --------------------------------------------------------

@dataclass(frozen=True)
class LinearSystem:
    """Collocation system A u = b with its assembly metadata.

    A has positive diagonal and nonpositive off-diagonal entries, and every
    row's dominance slack equals the exterior-coupling mass (exterior_mass
    = 2 E_i).  operator holds A: a dense m x m array, or a
    ToeplitzOperator in O(m) for a large translation-invariant system,
    whose dense form is built on the first read of matrix.
    assembly_error bounds the quadrature and truncation error accumulated
    over the entries of A and of any one column of b; it is zero for the
    closed-form path.  A block system has an m x k rhs and a tuple of k
    exterior data, one per column.
    """

    operator: np.ndarray | ToeplitzOperator
    rhs: np.ndarray
    mesh: Mesh1D
    kernel: Kernel
    exterior: PointFunction | tuple[PointFunction, ...]
    exterior_mass: np.ndarray
    assembly_error: float

    @cached_property
    def matrix(self) -> np.ndarray:
        """A as a dense m x m array, built once for a ToeplitzOperator and
        refused with ConfigError past MATRIX_BUDGET_BYTES."""
        if isinstance(self.operator, np.ndarray):
            return self.operator
        return self.operator.dense()


class ToeplitzOperator:
    """A = diag(2 (row sums of W + E)) - 2 W of a translation-invariant
    kernel on a uniform mesh, in O(m) storage.

    W is kept as _couplings gives it, one (rows, cols, v) per interval
    block p <= q with W[rows, cols][i, j] = v[n_p - 1 - i + j], and the
    block (q, p) is its transpose, generated by v reversed.  A product
    with W embeds every block in a circulant of one power-of-two size n
    >= 2 max n_p - 1 and takes one real FFT per interval of the operand
    and one inverse FFT per interval of the result.  The preconditioner
    is block diagonal, one Strang circulant per interval: the block's
    generating vector wrapped at half its size, with the diagonal of A at
    the block's middle cell on its diagonal.  That cell's row of the
    block holds the same offsets as the circulant, so the circulant's
    smallest eigenvalue is twice that cell's mass outside the interval,
    and it is positive definite.
    """

    def __init__(self, blocks, E: np.ndarray):
        self.blocks = tuple(blocks)
        self.E = E
        self.m = E.size
        self.spans = [(rows.start, rows.stop)
                      for rows, cols, _ in self.blocks if rows == cols]
        nmax = max(b - a for a, b in self.spans)
        self.nfft = 1 << (2 * nmax - 2).bit_length()
        index = {a: p for p, (a, _) in enumerate(self.spans)}
        self.spectra = [[None] * len(self.spans) for _ in self.spans]
        diagonal = {}
        for rows, cols, v in self.blocks:
            p, q = index[rows.start], index[cols.start]
            n_p, n_q = rows.stop - rows.start, cols.stop - cols.start
            self.spectra[p][q] = self._spectrum(v, n_p, n_q)
            if p == q:
                diagonal[p] = v
            else:
                self.spectra[q][p] = self._spectrum(v[::-1], n_q, n_p)
        self.diag = 2.0 * (self._couple(np.ones((1, self.m)))[0] + E)
        self.eig = []
        for p, (a, b) in enumerate(self.spans):
            n = b - a
            k = np.arange(n)
            col = -2.0 * diagonal[p][n - 1 + np.minimum(k, n - k)]
            col[0] = self.diag[a + n // 2]
            self.eig.append(np.fft.rfft(col).real)

    def _spectrum(self, v, n_r: int, n_c: int) -> np.ndarray:
        """Spectrum of the circulant whose leading n_r x n_c block is the
        Toeplitz block generated by v (offsets 1 - n_r..n_c - 1 wrap to
        the end)."""
        col = np.zeros(self.nfft)
        col[:n_r] = v[n_r - 1::-1]
        col[self.nfft - n_c + 1:] = v[:n_r - 1:-1]
        return np.fft.rfft(col)

    def _couple(self, X: np.ndarray) -> np.ndarray:
        """W X for k operands, the rows of X (k x m)."""
        F = [np.fft.rfft(X[:, a:b], self.nfft) for a, b in self.spans]
        out = np.empty_like(X)
        for row, (a, b) in zip(self.spectra, self.spans):
            acc = sum(S * f for S, f in zip(row, F))
            out[:, a:b] = np.fft.irfft(acc, self.nfft)[:, :b - a]
        return out

    def apply(self, X: np.ndarray) -> np.ndarray:
        """A X for k operands, the rows of X (k x m)."""
        return self.diag * X - 2.0 * self._couple(X)

    def precondition(self, R: np.ndarray) -> np.ndarray:
        """The block-diagonal circulant's inverse applied to the rows of R."""
        Z = np.empty_like(R)
        for (a, b), eig in zip(self.spans, self.eig):
            Z[:, a:b] = np.fft.irfft(np.fft.rfft(R[:, a:b]) / eig, b - a)
        return Z

    def dense(self) -> np.ndarray:
        """A as a dense array, equal bit for bit to the dense assembly."""
        _check_dense_budget(self.m)
        return _system_matrix(_toeplitz_fill(self.blocks, self.m), self.E)


@dataclass(frozen=True)
class GridFunction:
    """Cellwise-constant solution with its exterior data attached."""

    mesh: Mesh1D
    values: np.ndarray
    exterior: PointFunction

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise SingularSystem("solution contains non-finite values")


def _exterior_components(mesh: Mesh1D) -> list[tuple[float, float]]:
    ivs = sorted(mesh.intervals)
    span = ivs[-1][1] - ivs[0][0]
    comps = [(-np.inf, ivs[0][0])]
    for (_, a_hi), (b_lo, _) in zip(ivs[:-1], ivs[1:]):
        if b_lo - a_hi > 1e-14 * span:
            comps.append((a_hi, b_lo))
    comps.append((ivs[-1][1], np.inf))
    return comps


def _data_segments(g: PointFunction, comps) -> list[tuple[float, float, float]]:
    """g's nonzero segments clipped to the exterior components, component
    by component."""
    return [(max(lo, a), min(hi, b), v) for lo, hi in comps
            for a, b, v in g.segments()
            if v != 0.0 and min(hi, b) > max(lo, a)]


def _cell_segment_quadrature(kernel: Kernel, p: float, h: float,
                             seg: tuple[float, float], gamma: float,
                             span: float, tol: float,
                             ) -> tuple[float, float, float]:
    """(mass, quadrature error, truncation remainder) for one cell-segment
    pair under a general pair kernel.  The segment must lie on one side of
    the cell (a or b may be infinite).

    The outer integral runs over the segment, where the truncation lives;
    the inner cell mass of all nodes of an outer panel at once is one
    smooth vector-valued quadrature, so the cost scales with the
    segment's difficulty alone.
    """
    lo, hi = seg
    if hi <= p:  # mirror left segments so the segment sits to the right
        pair = kernel.pair_fn  # k(x, z) seen from the mirror
        kernel = replace(kernel, pair_fn=lambda x, z: pair(-x, -z))
        return _cell_segment_quadrature(
            kernel, -(p + h), h, (-hi, -lo), gamma, span, tol)
    rem = 0.0
    if not np.isfinite(hi):
        hi = max(EXTERIOR_TRUNCATION_FACTOR * max(1.0, span), lo + span)
        rem = kernel.upper_envelope() * h * float(_phi(hi - (p + h), kernel.s))
    z0 = max(lo, p + gamma)  # the band removes x <= z - gamma entirely below
    if hi <= z0:
        return 0.0, 0.0, rem
    # once a truncation remainder is on the books, resolving the quadrature
    # far below it buys nothing and oscillating tails exhaust the panel
    # budget; a quarter of the remainder keeps the total bound's order
    tol = max(tol, 0.25 * rem)
    inner_tol = max(0.1 * tol / max(1.0, hi - z0), 1e-14)

    def outer(z):
        z = np.asarray(z, dtype=float)
        # the cell mass at each node z: x runs over (p, x_hi), the band
        # keeping x <= z - gamma
        x_hi = np.minimum(p + h, z - gamma)
        return _inner_mass(kernel, p, np.maximum(x_hi - p, 0.0), z,
                           inner_tol)

    breaks = [p + h + gamma] if z0 < p + h + gamma < hi else []
    val, err = integrate(outer, z0, hi, tol=tol, breaks=breaks,
                         geometric_from=max(z0 - (p + h), gamma))
    return val, err, rem


def _inner_mass(kernel: Kernel, lo, w, y, tol: float,
                moment: bool = False) -> np.ndarray:
    """int over x in (lo, lo + w) of k(x, y), times (x - y)^2 with moment,
    for an array of nodes y (lo and w scalars or arrays like y): one
    vector-valued integral over x = lo + w t, t in (0, 1), with one
    component per node."""

    def inner(t):
        x = lo + w * t[:, None]
        yy = np.broadcast_to(y, x.shape)
        k = kernel.eval_pairs(x, yy)
        return w * (k * (x - yy) ** 2 if moment else k)

    return integrate(inner, 0.0, 1.0, tol=tol)[0]


def _overlap_mass(kernel: Kernel, d0, h: float, width: float, gamma: float,
                  span: float, tol: float,
                  ) -> tuple[np.ndarray, float, np.ndarray]:
    """Banded mass between a width-h cell and a segment of the given width
    whose near edge sits d0 from it, for a translation-invariant kernel,
    vectorized in d0; width may be inf.  Returns (masses, the error
    estimate all entries share, truncation remainders).

    The fractional family takes the closed form (no error, no truncation).
    Otherwise it is the kernel against the trapezoid overlap weight of the
    two intervals, cut at gamma, in u = t - d0, as one vector-valued
    integral with one component per entry of d0; an infinite segment is
    truncated with one remainder per entry."""
    d0 = np.asarray(d0, dtype=float)
    rem = np.zeros_like(d0)
    if kernel.family == "fractional":
        amp = float(kernel.eval_at_distance(1.0))
        return _banded_mass(amp, kernel.s, d0, h, width, gamma), 0.0, rem
    if not np.isfinite(width):
        width = max(EXTERIOR_TRUNCATION_FACTOR * max(1.0, span), 2.0 * span)
        rem = h * kernel.upper_envelope() * _phi(d0 + width, kernel.s)
        tol = max(tol, 0.25 * float(rem.min()))
    plateau = min(h, width)
    top = h + width

    def trap(u):
        t = d0 + u[:, None]
        weight = np.minimum(np.minimum(u, plateau), top - u)[:, None]
        return (kernel.eval_at_distance(np.maximum(t, gamma))
                * (weight * (t > gamma)))

    breaks = [plateau, max(h, width), *(gamma - d0[d0 < gamma]).tolist()]
    v, e = integrate(trap, 0.0, top, tol=tol, breaks=breaks,
                     geometric_from=h)
    return v, e, rem


def _band_moment(kernel: Kernel, gaps, gamma: float,
                 tol: float) -> tuple[np.ndarray, float]:
    """Band second moment int_gap^gamma (z - gap) z^2 K(z) dz of a
    translation-invariant kernel at an array of gaps below gamma, with
    the error estimate all entries share.

    Divided by h^2 it is the curvature coupling of a touching pair: a
    smooth solution carries D2(z) ~ u'' z^2 mass in the band, and routing
    it through the nearest-neighbor coupling reproduces exactly that.
    Closed form for the fractional family, one vector-valued integral
    otherwise."""
    gaps = np.asarray(gaps, dtype=float)
    s = kernel.s
    if kernel.family == "fractional":
        amp = float(kernel.eval_at_distance(1.0))
        a = (gamma ** (3.0 - 2.0 * s)
             - gaps ** (3.0 - 2.0 * s)) / (3.0 - 2.0 * s)
        b = gaps * (gamma ** (2.0 - 2.0 * s)
                    - gaps ** (2.0 - 2.0 * s)) / (2.0 - 2.0 * s)
        return amp * (a - b), 0.0

    def band_m2(t):
        t = t[:, None]
        return kernel.eval_at_distance(t) * np.maximum(t - gaps, 0.0) * t * t

    return integrate(band_m2, 0.0, gamma, tol=tol, breaks=gaps.tolist())


def _toeplitz_gaps(mesh: Mesh1D, h: float):
    """The interval blocks of the cells and the gaps that determine them.

    W_ij depends on the pair through its gap alone, and on a uniform mesh
    the gap of cells i in interval p and j in interval q >= p depends on
    j - i alone: every block is Toeplitz, one gap per index offset, read
    off its first column (bottom up) and first row.  A diagonal block is
    symmetric and keeps the offsets j - i >= 1 only.  Yields
    (rows, cols, gaps) per block p <= q."""
    c = mesh.centers
    bounds = [*np.searchsorted(c, [lo for lo, _ in mesh.intervals]).tolist(),
              mesh.ncells]
    spans = list(zip(bounds[:-1], bounds[1:]))
    for p, (p0, p1) in enumerate(spans):
        for q0, q1 in spans[p:]:
            if q0 == p0:
                gaps = np.abs(c[p0 + 1:p1] - c[p0]) - h
            else:
                gaps = np.concatenate([np.abs(c[q0] - c[p1 - 1:p0:-1]),
                                       np.abs(c[q0:q1] - c[p0])]) - h
            yield slice(p0, p1), slice(q0, q1), gaps


def _couplings(kernel: Kernel, mesh: Mesh1D, h: float, gamma: float,
               span: float, tol: float) -> tuple[list | np.ndarray, float]:
    """Couplings W and the error bound accumulated over their entries.  W
    is a list of Toeplitz blocks (rows, cols, v) for the
    translation-invariant families, as _toeplitz_fill reads them, and a
    dense m x m array for general pair kernels."""
    err_acc = 0.0
    if kernel.family != "general":
        # W(gap) = overlap mass of two cells + band moment / h^2 below
        # gamma, on the distinct (clamped) gaps of all blocks at once
        blocks = list(_toeplitz_gaps(mesh, h))
        gaps, which = np.unique(
            np.maximum(np.concatenate([g for _, _, g in blocks]), 0.0),
            return_inverse=True)
        vals, e, _ = _overlap_mass(kernel, gaps, h, h, gamma, span, tol)
        near = gaps < gamma
        c, e2 = _band_moment(kernel, gaps[near], gamma, tol)
        vals[near] += c / (h * h)
        errs = np.full(gaps.shape, e)
        errs[near] += e2
        ends = np.cumsum([g.size for _, _, g in blocks])
        W = []
        for (rows, cols, _), idx in zip(blocks, np.split(which, ends[:-1])):
            n_p, n_q = rows.stop - rows.start, cols.stop - cols.start
            v = vals[idx]
            if rows == cols:  # offsets 1..n - 1, mirrored, zero diagonal
                v = np.concatenate([v[::-1], [0.0], v])
                pairs = np.arange(n_p - 1, 0, -1)
            else:  # offsets 1 - n_p..n_q - 1
                k = np.arange(1 - n_p, n_q)
                pairs = np.minimum(n_p, n_q - k) - np.maximum(0, -k)
            err_acc += float(pairs @ errs[idx])
            W.append((rows, cols, v))
    else:  # general pair kernels: nested adaptive, small meshes only
        m = mesh.ncells
        W = np.zeros((m, m))
        for i in range(m):
            p_i = float(mesh.lo[i])
            for j in range(i + 1, m):
                cell_j = (float(mesh.lo[j]), float(mesh.hi[j]))
                v, e, _ = _cell_segment_quadrature(
                    kernel, p_i, h, cell_j, gamma, span, tol)
                if cell_j[0] - (p_i + h) < gamma:
                    c, e2 = _general_band_m2(kernel, p_i, h, cell_j, gamma,
                                             tol)
                    v += c / (h * h)
                    e += e2
                W[i, j] = W[j, i] = v
                err_acc += e
    return W, err_acc


def _toeplitz_fill(blocks, m: int) -> np.ndarray:
    """The dense m x m W of Toeplitz blocks (rows, cols, v), each block
    row i read off v from offset n_p - 1 - i, mirrored below the
    diagonal."""
    W = np.zeros((m, m))
    for rows, cols, v in blocks:
        block = np.lib.stride_tricks.sliding_window_view(
            v, cols.stop - cols.start)[::-1]
        W[rows, cols] = block
        if rows != cols:
            W[cols, rows] = block.T
    return W


def _system_matrix(W: np.ndarray, E: np.ndarray) -> np.ndarray:
    """A = diag(2 (row sums of W + E)) - 2 W, formed in place in W (its
    diagonal is 0)."""
    diag = 2.0 * (W.sum(axis=1) + E)
    W *= -2.0
    np.fill_diagonal(W, diag)
    return W


def _check_dense_budget(m: int) -> None:
    """ConfigError if an m x m float64 matrix exceeds the budget."""
    if 8 * m * m > MATRIX_BUDGET_BYTES:
        raise ConfigError(
            f"{m} cells need a {8 * m * m / 2**20:.0f} MiB dense matrix, "
            f"over the {MATRIX_BUDGET_BYTES / 2**20:.0f} MiB budget")


def check_vector_budget(m: int, k: int = 1) -> None:
    """ConfigError if the Toeplitz path's working vectors for m cells and
    k data exceed the budget.  At k = 1 that path is the leanest, so a
    mesh refused here fits no solver path and need not be built."""
    need = 8 * m * (ASSEMBLY_VECTORS + CG_VECTORS * k)
    if need > MATRIX_BUDGET_BYTES:
        raise ConfigError(
            f"{m} cells and {k} data need about "
            f"{need / 2**20:.3g} MiB of working vectors, over the "
            f"{MATRIX_BUDGET_BYTES / 2**20:.0f} MiB budget")


def _segment_mass(kernel: Kernel, mesh: Mesh1D, a: float, b: float, h: float,
                  gamma: float, span: float, tol: float,
                  ) -> tuple[np.ndarray, float]:
    """Banded kernel mass of the exterior segment (a, b) per cell, and the
    error bound accumulated over its entries.  A translation-invariant
    segment is one overlap integral over all cells, each cell charged the
    shared estimate."""
    # edge distance of every cell to the segment, 0 when they touch
    d0 = np.maximum(0.0, np.maximum(a - mesh.hi, mesh.lo - b))
    if kernel.family != "general":
        val, e, rem = _overlap_mass(kernel, d0, h, b - a, gamma, span, tol)
        return val, mesh.ncells * e + float(np.sum(rem))
    val, e, rem = np.array([
        _cell_segment_quadrature(kernel, lo, h, (a, b), gamma, span, tol)
        for lo in mesh.lo.tolist()]).T
    return val, float(np.sum(e + rem))


def _weighted_mass(m: int, segs, mass) -> tuple[np.ndarray, float]:
    """Sum of v mass(a, b) over v-weighted exterior segments (a, b, v) in
    their order, per cell, and of |v| times their error bounds; the
    exterior mass E is the case v = 1 on every exterior component."""
    M = np.zeros(m)
    err_acc = 0.0
    for a, b, v in segs:
        val, e = mass(a, b)
        M += v * val
        err_acc += abs(v) * e
    return M, err_acc


def assemble(kernel: Kernel, mesh: Mesh1D, exterior, rhs=0.0,
             tol: float = ASSEMBLY_TOL) -> LinearSystem:
    """Build the collocation system for Lu = f on the mesh, u = g outside.

    exterior is one piecewise-constant PointFunction, or a sequence of
    them: the operator is built once and rhs gets one column per datum
    (m x k), each column equal bit for bit to the single-datum assembly.
    The mass of each distinct exterior segment is computed once per call
    and shared by E and every column.  A datum that is not piecewise
    constant raises ConfigParseError before any coupling is computed.
    rhs, the source f, is one constant shared by all columns.
    """
    if kernel.n != 1:
        raise UnsupportedDimension("the solver is implemented for n = 1 only")
    check_tol(tol)
    if not np.isfinite(rhs):
        raise ConfigParseError(f"rhs must be finite, got {rhs}")
    block = not isinstance(exterior, PointFunction)
    data = tuple(exterior) if block else (exterior,)
    for g in data:
        if not g.piecewise:
            raise ConfigParseError(
                f"{g.label} is a bare callable; assembly needs "
                f"piecewise-constant exterior data")

    m = mesh.ncells
    toeplitz = kernel.family != "general" and m > DENSE_MAX_CELLS
    if not toeplitz:
        _check_dense_budget(m)
    else:
        check_vector_budget(m, len(data))
    h = float(np.min(mesh.widths))
    ivs = mesh.intervals
    # cell edges carry rounding relative to the coordinates, not to h
    scale = max(h, abs(ivs[0][0]), abs(ivs[-1][1]))
    if float(np.max(mesh.widths)) - h > 1e-12 * scale:
        raise ConfigParseError("assembly needs a uniform cell width")
    gamma = BAND_FRACTION * h
    comps = _exterior_components(mesh)
    span = ivs[-1][1] - ivs[0][0]
    W, err_acc = _couplings(kernel, mesh, h, gamma, span, tol)
    # one mass per distinct segment, shared by E and every datum
    mass = cache(lambda a, b: _segment_mass(kernel, mesh, a, b, h, gamma,
                                            span, tol))
    E, e = _weighted_mass(m, [(lo, hi, 1.0) for lo, hi in comps], mass)
    err_acc += e
    B = np.zeros((m, len(data)))
    data_err = 0.0
    for j, g in enumerate(data):
        if g.is_constant:
            B[:, j] = float(g(np.zeros(1))[0]) * E
        else:
            B[:, j], e = _weighted_mass(m, _data_segments(g, comps), mass)
            data_err = max(data_err, e)

    if toeplitz:
        op = ToeplitzOperator(W, E)
    else:
        op = _system_matrix(
            W if isinstance(W, np.ndarray) else _toeplitz_fill(W, m), E)
    b = (float(rhs) * mesh.widths)[:, None] + 2.0 * B
    return LinearSystem(operator=op, rhs=b if block else b[:, 0], mesh=mesh,
                        kernel=kernel, exterior=data if block else exterior,
                        exterior_mass=2.0 * E,
                        assembly_error=err_acc + data_err)


def _general_band_m2(kernel: Kernel, p_i: float, h: float, cell_j, gamma,
                     tol: float) -> tuple[float, float]:
    """Second band moment between touching cells for a general pair kernel:
    at each outer node x in cell i, z runs over cell j within gamma of x."""
    j_lo, j_hi = cell_j

    def outer(x):
        x = np.asarray(x, dtype=float)
        z_lo = np.maximum(j_lo, x)
        w = np.maximum(np.minimum(j_hi, x + gamma) - z_lo, 0.0)
        return _inner_mass(kernel, z_lo, w, x, 1e-2 * tol, moment=True)

    return integrate(outer, p_i, p_i + h, tol=tol)


def _cg(op: ToeplitzOperator, b: np.ndarray):
    """Preconditioned conjugate gradients on all columns of b at once,
    with per-column step lengths.  Returns (u shaped like b, iterations,
    max-norm residual |b - A u| per column).  A column stops once its
    updated residual is within CG_TOL of its own rhs; SingularSystem
    after CG_MAX_ITER iterations."""
    B = np.atleast_2d(b.T)
    X = np.zeros_like(B)
    R = B.copy()
    tol = CG_TOL * np.max(np.abs(B), axis=1)
    active = np.max(np.abs(R), axis=1) > tol
    Z = op.precondition(R)
    D = Z.copy()
    rz = np.einsum("ij,ij->i", R, Z)
    it = 0
    while active.any():
        if it == CG_MAX_ITER:
            raise SingularSystem(
                f"conjugate gradients left a relative residual above "
                f"{CG_TOL:.0e} after {it} iterations")
        Q = op.apply(D)
        alpha = np.divide(rz, np.einsum("ij,ij->i", D, Q), where=active,
                          out=np.zeros_like(rz))[:, None]
        X += alpha * D
        R -= alpha * Q
        active &= np.max(np.abs(R), axis=1) > tol
        Z = op.precondition(R)
        rz, rz_old = np.einsum("ij,ij->i", R, Z), rz
        beta = np.divide(rz, rz_old, where=active, out=np.zeros_like(rz))
        D = Z + beta[:, None] * D
        it += 1
    resid = np.max(np.abs(B - op.apply(X)), axis=1)
    return (X.T if b.ndim == 2 else X[0]), it, resid


def solve(system: LinearSystem):
    """Solve A u = b with an explicit residual check per column.

    A dense operator takes one LU factorization; a ToeplitzOperator takes
    one preconditioned conjugate-gradient run (_cg) over all columns.
    Either way every column's max-norm residual must stay below 1e-10 of
    its rhs.  A one-datum system gives one GridFunction; a block system
    (m x k rhs) gives a list of k GridFunctions, each carrying its own
    datum as exterior.
    """
    a, b = system.operator, system.rhs
    if isinstance(a, ToeplitzOperator):
        u, _, resid = _cg(a, b)
    else:
        try:
            u = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        resid = np.atleast_1d(np.max(np.abs(a @ u - b), axis=0))
    bnorm = np.atleast_1d(np.max(np.abs(b), axis=0))
    for j, (res, bn) in enumerate(zip(resid.tolist(), bnorm.tolist())):
        where = f" in column {j}" if b.ndim == 2 else ""
        if bn > 0.0:
            if res / bn >= 1e-10:
                raise SingularSystem(
                    f"relative residual {res / bn:.2e} >= 1e-10{where}")
        elif res >= 1e-10:
            raise SingularSystem(
                f"residual {res:.2e} >= 1e-10 with zero rhs{where}")
    if b.ndim == 1:
        return GridFunction(mesh=system.mesh, values=u,
                            exterior=system.exterior)
    return [GridFunction(mesh=system.mesh, values=col, exterior=g)
            for col, g in zip(u.T.copy(), system.exterior)]
