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

The two translation-invariant families (fractional and a factor f(|x-y|))
share one path through two primitives: _overlap_mass, the banded mass of
a width-h cell against a segment at edge distance d0, and _band_moment,
the band's second moment at a gap.  Each is a closed form for the
fractional family (no quadrature error) and one vector-valued integral
over all its inputs otherwise, against the trapezoid overlap weight of the
two intervals.  W_ij depends on the pair through its gap alone, so it is
the overlap mass of two cells plus the curvature coupling, computed once
per distinct gap; every block of cells from intervals p <= q is Toeplitz
and is given by one generating vector over its index offsets.  An
exterior segment (E: components of geometry.complement; B: each datum's
segments_in them) is one overlap mass over all cells, which share its
error estimate e, so a segment adds m e plus its cells' truncation
remainders to the assembly error; the fractional closed form takes ten
segments per array call.  General pair kernels take a nested adaptive
quadrature per cell and segment whose inner cell mass is one
vector-valued integral over all nodes of a batch of outer panels, so its
cost grows about linearly with the cells.

The system matrix A = diag(2 (row sums of W + E)) - 2 W takes its
kernel's form: a dense m x m array for a general kernel, refused with
ConfigError before allocation past MATRIX_BUDGET_BYTES, and for a
translation-invariant one its block generating vectors and E
(ToeplitzOperator, O(m) storage) at any m, whose dense matrix, the same
bit for bit, is built and charged to the budget only when
LinearSystem.matrix is read.  solve() alone picks the method: LU up to
DENSE_MAX_CELLS cells, and above them conjugate gradients with FFT
products and a block-diagonal Strang circulant preconditioner (Chan &
Strang, SIAM J. Sci. Stat. Comput. 10, 1989), which converge in tens of
iterations at any m.  A radial kernel on an even number of cells that
mirror about the mesh midpoint (every single interval, and two balls of
one radius) gives an A that commutes with the reversal of the cells, and
LU then takes two solves of half the size (_solve_mirrored), a quarter
of the flops, within about 2e-13 (relative) of plain LU's values.

Assembly has two parts.  The operator part, built once per (kernel,
mesh), holds the couplings W, the exterior mass E and their assembly
error; the data part is one column B per exterior datum.  Exterior data
must be piecewise constant and the source f one constant.  assemble()
takes one datum or a sequence of them: a sequence builds the operator
once and gives an m x k right-hand side, which solve() handles with one
factorization or one conjugate-gradient run, checking each column's
backward error.  E and each column sum the masses of their clipped
exterior segments.  One assemble() call computes each distinct
segment's mass once, and sums the columns whose segments share a layout
(the data of an experiment family share their pieces) as one m x k
block, segment by segment in order, so each column equals the
single-datum assembly bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    ConfigParseError,
    SingularSystem,
)
from .geometry import Mesh1D, complement
from .kernel import Kernel, phi
from .operator import PointFunction, SmoothCutoff, piecewise_data
from .quadrature import check_tol, integrate

BAND_FRACTION = 0.25
EXTERIOR_TRUNCATION_FACTOR = 1e4
ASSEMBLY_TOL = 1e-10
# largest system solve() takes by LU; a larger translation-invariant one
# takes conjugate gradients on its O(m) Toeplitz form
DENSE_MAX_CELLS = 1024
# memory a run may take, 1 GiB, read only by check_budget().  A dense
# m x m float64 matrix must fit (m <= 11585 cells), checked by assemble()
# for a general kernel, by the dense view of a Toeplitz system and by
# solve1d before a JSON --dump-matrix; LU adds one copy of it, the
# mirrored split two half-size matrices, half of one copy.
# A Toeplitz system must fit ASSEMBLY_VECTORS + CG_VECTORS k float64
# vectors of m for k data (m <= 729,000 cells for one datum): assembly
# peaks at 110-130 of them for the TI family (its vector-valued coupling
# integral) and 20-26 for the fractional one, and each column of the
# conjugate gradients at 16.  Each datum also holds DATUM_BYTES of Python
# objects from its draw to its report (about 3.5 kB for a random-nonneg
# sample at N = 4, which peaks at 5.0 kB a sample with its vectors)
MATRIX_BUDGET_BYTES = 1 << 30
ASSEMBLY_VECTORS = 160
CG_VECTORS = 24
DATUM_BYTES = 4096
# conjugate gradients stop at this max-norm residual relative to each
# column's rhs, and raise SingularSystem after CG_MAX_ITER iterations
CG_TOL = 1e-13
CG_MAX_ITER = 1000


# -- closed forms for K(t) = A t^(-1-2s) -------------------------------------

def _phi_mass(lo, width, s: float):
    """int_lo^(lo + width) phi(t) dt for lo > 0, continuous in s through
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


def _banded_mass(s: float, d0, h: float, width: float, gamma: float):
    """Banded kernel mass between width-h cells and a segment at distance d0.

    int over the cell of phi(max(distance, gamma)) for a segment of the
    given width (may be inf) whose near edge sits d0 from the cell edge;
    vectorized in d0 and the width, which broadcast together.
    """
    def beyond(d):  # the cell against everything from d past its edge on
        lo = np.maximum(d, gamma)
        return (_phi_mass(lo, h - (lo - d), s)
                + (lo - d) * phi(np.asarray(gamma), s))

    d0 = np.asarray(d0, dtype=float)
    with np.errstate(invalid="ignore"):  # the far side of an infinite width
        far = np.where(np.isfinite(width), beyond(d0 + width), 0.0)
    return beyond(d0) - far


# -- assembled system --------------------------------------------------------

@dataclass(frozen=True)
class LinearSystem:
    """Collocation system A u = b with its assembly metadata.

    A has positive diagonal and nonpositive off-diagonal entries, and every
    row's dominance slack equals the exterior-coupling mass (exterior_mass
    = 2 E_i).  operator holds A in its kernel's form: a dense m x m array
    for a general kernel, else a ToeplitzOperator in O(m), whose dense
    form is built on the first read of matrix.
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
        op = self.operator
        return op if isinstance(op, np.ndarray) else op.dense()


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
        for rows, cols, v in self.blocks:
            p, q = index[rows.start], index[cols.start]
            n_p, n_q = rows.stop - rows.start, cols.stop - cols.start
            self.spectra[p][q] = self._spectrum(v, n_p, n_q)
            if p != q:
                self.spectra[q][p] = self._spectrum(v[::-1], n_q, n_p)
        self.diag = 2.0 * (self._couple(np.ones((1, self.m)))[0] + E)

    @cached_property
    def eig(self) -> list:
        """The Strang circulants' spectra; only CG reads them, on demand."""
        eig = []
        for rows, cols, v in self.blocks:
            if rows == cols:
                a, n = rows.start, rows.stop - rows.start
                k = np.arange(n)
                col = -2.0 * v[n - 1 + np.minimum(k, n - k)]
                col[0] = self.diag[a + n // 2]
                eig.append(np.fft.rfft(col).real)
        return eig

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
        check_budget(8 * self.m ** 2, f"{self.m} x {self.m} dense matrix "
                     "entries")
        return _system_matrix(_toeplitz_fill(self.blocks, self.m), self.E)


@dataclass(frozen=True)
class GridFunction:
    """Cellwise-constant solution with its exterior data attached: one
    value per cell of the mesh (else ConfigParseError)."""

    mesh: Mesh1D
    values: np.ndarray
    exterior: PointFunction

    def __post_init__(self):
        if np.shape(self.values) != (self.mesh.ncells,):
            raise ConfigParseError(f"{np.shape(self.values)} values on a mesh "
                                   f"of {self.mesh.ncells} cells")
        if not np.all(np.isfinite(self.values)):
            raise SingularSystem("solution contains non-finite values")


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
        rem = kernel.lam * h * float(
            phi(np.asarray(hi - (p + h)), kernel.s))
    z0 = max(lo, p + gamma)  # the band removes x <= z - gamma entirely below
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
        return _banded_mass(kernel.s, d0, h, width, gamma), 0.0, rem
    if not np.isfinite(width):
        width = max(EXTERIOR_TRUNCATION_FACTOR * max(1.0, span), 2.0 * span)
        rem = h * kernel.lam * phi(d0 + width, kernel.s)
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
        a = (gamma ** (3.0 - 2.0 * s)
             - gaps ** (3.0 - 2.0 * s)) / (3.0 - 2.0 * s)
        b = gaps * (gamma ** (2.0 - 2.0 * s)
                    - gaps ** (2.0 - 2.0 * s)) / (2.0 - 2.0 * s)
        return a - b, 0.0

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
    symmetric and keeps the offsets j - i >= 1 only.  Interval p holds the
    cells p*N to (p+1)*N.  Yields (rows, cols, gaps) per block p <= q."""
    c, N = mesh.centers, mesh.N
    spans = [(p * N, (p + 1) * N) for p in range(len(mesh.intervals))]
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


def check_budget(need: int, what: str) -> None:
    """ConfigError if need bytes, the allocation `what` names, exceed the
    memory budget."""
    if need > MATRIX_BUDGET_BYTES:
        raise ConfigError(f"{what} need about {need / 2**20:.6g} MiB, over "
                          f"the {MATRIX_BUDGET_BYTES / 2**20:.6g} MiB budget")


def check_vector_budget(m: int, k: int = 1, segments: int = 0) -> None:
    """ConfigError if the working vectors of a Toeplitz system's assembly
    and conjugate gradients for m cells and k data, with the data's own
    objects and one mass vector per distinct exterior segment, exceed the
    budget.  Every other path also holds a dense matrix, so a mesh and
    data refused here fit no solver path and need not be built."""
    check_budget(8 * m * (ASSEMBLY_VECTORS + CG_VECTORS * k + segments)
                 + DATUM_BYTES * k, f"the working vectors and data of {m} "
                 f"cells, {k} data and {segments} exterior segments")


def _segment_masses(kernel: Kernel, mesh: Mesh1D, segs, h: float,
                    gamma: float, span: float, tol: float) -> list:
    """(banded mass per cell, error bound over its entries) of each
    exterior segment (a, b), ten at a time: the fractional closed form in
    one array call (peak 8.1 vectors a segment, within ASSEMBLY_VECTORS),
    a TI segment as one overlap integral over all cells, each charged the
    shared estimate, and a general one cell by cell."""
    out = []
    for at in range(0, len(segs), 10):
        a, b = np.array(segs[at:at + 10]).T[:, :, None]
        # edge distance of every cell to the segment, 0 when they touch
        d0 = np.maximum(0.0, np.maximum(a - mesh.hi, mesh.lo - b))
        if kernel.family == "fractional":
            out += [(v, 0.0) for v in _banded_mass(kernel.s, d0, h, b - a,
                                                   gamma)]
            continue
        for d, (lo, hi) in zip(d0, segs[at:at + 10]):
            if kernel.family != "general":
                v, e, rem = _overlap_mass(kernel, d, h, hi - lo, gamma, span,
                                          tol)
                out.append((v, mesh.ncells * e + float(np.sum(rem))))
            else:
                v, e, rem = np.array([_cell_segment_quadrature(
                    kernel, p, h, (lo, hi), gamma, span, tol)
                    for p in mesh.lo.tolist()]).T
                out.append((v, float(np.sum(e + rem))))
    return out


def assemble(kernel: Kernel, mesh: Mesh1D, exterior, rhs=0.0,
             tol: float = ASSEMBLY_TOL) -> LinearSystem:
    """Build the collocation system for Lu = f on the mesh, u = g outside.

    exterior is one piecewise-constant PointFunction, or a sequence of
    them: the operator is built once and rhs gets one column per datum
    (m x k), each column equal bit for bit to the single-datum assembly.
    The mass of each distinct exterior segment is computed once per call
    and shared by E and every column.  A datum that is not piecewise
    constant (ConfigParseError), or data whose segment masses exceed the
    memory budget, fail before any coupling is computed.  rhs, the source
    f, is one constant shared by all columns.
    """
    check_tol(tol)
    if not np.isfinite(rhs):
        raise ConfigParseError(f"rhs must be finite, got {rhs}")
    block = not isinstance(exterior, (PointFunction, SmoothCutoff))
    data = tuple(map(piecewise_data, exterior if block else (exterior,)))
    m = mesh.ncells
    ivs = mesh.intervals
    comps = complement(ivs)
    # the columns whose clipped segments share a layout form one block;
    # E's column, 1 on every component, comes after the data's
    blocks = {tuple(comps): ([len(data)], [[1.0] * len(comps)])}
    for j, g in enumerate(data):
        if not g.is_constant:
            segs = g.segments_in(comps)
            cols, vals = blocks.setdefault(
                tuple([(a, b) for a, b, _ in segs]), ([], []))
            cols.append(j)
            vals.append([v for _, _, v in segs])
    distinct = list(dict.fromkeys(seg for layout in blocks for seg in layout))
    if kernel.family == "general":
        check_budget(8 * m * m, f"{m} x {m} dense matrix entries")
    else:
        check_vector_budget(m, len(data), len(distinct))
    h = float(np.min(mesh.widths))
    # cell edges carry rounding relative to the coordinates, not to h
    scale = max(h, abs(ivs[0][0]), abs(ivs[-1][1]))
    if float(np.max(mesh.widths)) - h > 1e-12 * scale:
        raise ConfigParseError("assembly needs a uniform cell width")
    gamma = BAND_FRACTION * h
    span = ivs[-1][1] - ivs[0][0]
    # the band moments take lengths up to the span to the power 3 - 2s
    if not span < np.finfo(float).max ** (1.0 / (3.0 - 2.0 * kernel.s)):
        raise ConfigParseError(f"a domain of span {span:g} overflows assembly")
    W, err_acc = _couplings(kernel, mesh, h, gamma, span, tol)
    # one mass per distinct segment; a block's columns sum theirs in order
    masses = dict(zip(distinct, _segment_masses(kernel, mesh, distinct, h,
                                                gamma, span, tol)))
    B, errs = np.zeros((m, len(data) + 1)), np.zeros(len(data) + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # b is checked below
        for layout, (cols, vals) in blocks.items():
            M = np.zeros((m, len(cols)))
            for seg, v in zip(layout, np.array(vals).T):
                M += masses[seg][0][:, None] * v
                errs[cols] += np.abs(v) * masses[seg][1]
            B[:, cols] = M
        E = B[:, -1].copy()
        for j, g in enumerate(data):
            if g.is_constant:
                B[:, j] = g.far_value * E
    err_acc = err_acc + float(errs[-1]) + float(errs[:-1].max(initial=0.0))

    op = (_system_matrix(W, E) if kernel.family == "general"
          else ToeplitzOperator(W, E))
    with np.errstate(over="ignore", invalid="ignore"):
        b = (float(rhs) * mesh.widths)[:, None] + 2.0 * B[:, :-1]
    if not np.isfinite(b).all():
        raise ConfigParseError("the data and rhs overflow the float range")
    return LinearSystem(operator=op, rhs=b if block else b[:, 0], mesh=mesh,
                        kernel=kernel, exterior=data if block else exterior,
                        exterior_mass=2.0 * E,
                        assembly_error=err_acc)


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
    """Preconditioned conjugate gradients on all columns of b (m x k) at
    once, with per-column step lengths.  Returns (u shaped like b,
    iterations).  A column stops once its updated residual is within
    CG_TOL of its own rhs; SingularSystem after CG_MAX_ITER
    iterations."""
    B = b.T
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
    return X.T, it


def _solve_mirrored(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A u = b for A = [[A11, A12], [J A12 J, J A11 J]], J the reversal of
    m/2 cells, as two LU solves of size m/2 (a quarter of the flops):
    (A11 + A12 J) y = b1 + J b2 and (A11 - A12 J) z = b1 - J b2 give
    u1 = (y + z)/2 and u2 = J (y - z)/2 (Cantoni & Butler, Linear Algebra
    Appl. 13, 1976).  Only the top half of A is read, and the second
    half-size matrix takes the first one's buffer."""
    n = a.shape[0] // 2
    a11, a12j = a[:n, :n], a[:n, :n - 1:-1]
    b1, jb2 = b[:n], b[:n - 1:-1]
    half = a11 + a12j
    y = np.linalg.solve(half, b1 + jb2)
    z = np.linalg.solve(np.subtract(a11, a12j, out=half), b1 - jb2)
    return 0.5 * np.concatenate([y + z, (y - z)[::-1]])


def solve(system: LinearSystem):
    """Solve A u = b with an explicit backward-error check per column.

    The one reader of DENSE_MAX_CELLS: a ToeplitzOperator of more cells
    takes one preconditioned conjugate-gradient run (_cg) over all
    columns, any other system one LU factorization of its matrix, or two
    of half the size when its kernel and mesh mirror it (_solve_mirrored).
    Each column's normwise backward error, its max-norm residual over
    |A| |u| + |b| on the whole A (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 7), is then checked through the operator
    within 1e-10, on b scaled by a power of two, exactly, so that nothing
    overflows.  A one-datum system gives one GridFunction; a block system
    (m x k rhs) gives a list of k GridFunctions, each with its datum.
    """
    op, mesh = system.operator, system.mesh
    rhs = system.rhs.reshape(mesh.ncells, -1)
    b = np.abs(rhs)
    bmax = np.max(b, axis=0)
    t = np.ldexp(1.0, np.frexp(bmax)[1] - 1)
    np.divide(rhs, t, out=b)  # b / t, in the buffer of |b|
    toeplitz = isinstance(op, ToeplitzOperator)
    if toeplitz and mesh.ncells > DENSE_MAX_CELLS:
        u, _ = _cg(op, b)
    else:
        # a radial kernel on an even number of cells that mirror about the
        # mesh midpoint gives an A that commutes with the cells' reversal
        ivs = mesh.intervals
        edge = max(float(np.min(mesh.widths)), abs(ivs[0][0]), abs(ivs[-1][1]))
        mirrored = (system.kernel.family != "general" and mesh.ncells % 2 == 0
                    and float(np.ptp(mesh.lo + mesh.hi[::-1])) <= 1e-14 * edge)
        a = system.matrix
        try:
            u = _solve_mirrored(a, b) if mirrored else np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
    au = op.apply(u.T).T if toeplitz else op @ u
    diag = op.diag if toeplitz else np.diagonal(op)
    # row i of |A| sums to diag_i + 2 sum_j W_ij = 2 diag_i - 2 E_i
    anorm = float(np.max(2.0 * diag - system.exterior_mass))
    scale = anorm * np.max(np.abs(u), axis=0) + bmax / t
    resid = np.max(np.abs(au - b), axis=0)
    for j, (res, sc, tj) in enumerate(zip(resid, scale, t)):
        if not res <= 1e-10 * sc:
            where = f" in column {j}" if system.rhs.ndim == 2 else ""
            raise SingularSystem(f"residual {res * tj:.2e} > 1e-10 (|A| |u| "
                                 f"+ |b|) = {1e-10 * sc * tj:.2e}{where}")
    with np.errstate(over="ignore"):  # GridFunction refuses a non-finite u
        u *= t
    if system.rhs.ndim == 1:
        return GridFunction(mesh=mesh, values=u[:, 0],
                            exterior=system.exterior)
    return [GridFunction(mesh=mesh, values=col, exterior=g)
            for col, g in zip(u.T.copy(), system.exterior)]
