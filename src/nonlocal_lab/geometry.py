"""The two-ball layout on the line: configurations, domain, complement,
1d meshes (a mesh is its intervals and N cells per interval).

The lab is one-dimensional.  Each input object checks n = 1 once, when it
is built (check_line), and a point is one number, given as a number or a
one-element sequence (coordinate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigParseError,
    ContainmentViolation,
    SeparationViolation,
    UnsupportedDimension,
)


def check_line(n) -> int:
    """n as an int; UnsupportedDimension for any n but 1 (1.5 included)."""
    if n != 1:
        raise UnsupportedDimension(f"the lab runs on the line, got n = {n}")
    return 1


def coordinate(x) -> float:
    """A point of the line: a number or a one-element sequence."""
    if np.shape(x) not in ((), (1,)):
        raise ConfigParseError(f"point {x!r} is not a point of the line")
    return float(np.ravel(x)[0])


@dataclass(frozen=True)
class DisconnectedConfig:
    """Two reference balls B_r(x1), B_r(x2) inside B_{R/2}(0).

    n must be 1, checked before the centers; x1 and x2 are kept as
    one-element tuples.  Every construction, replace() too, checks r > 0,
    0 < R < inf and, unless checked=False, 4r <= |x1 - x2| <= 8r and that
    both 2r-balls lie in B_{R/2}(0) (non-strict; the 2r-balls are then
    disjoint).  Every report downstream carries the checked stamp.
    """

    n: int
    x1: tuple[float]
    x2: tuple[float]
    r: float
    R: float
    checked: bool = field(default=True)

    def __post_init__(self):
        r, R = float(self.r), float(self.R)
        if not r > 0:
            raise ConfigParseError(f"r must be positive, got {r}")
        if not 0 < R < np.inf:
            raise ConfigParseError(f"R must be positive and finite, got {R}")
        object.__setattr__(self, "n", check_line(self.n))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "x1", (coordinate(self.x1),))
        object.__setattr__(self, "x2", (coordinate(self.x2),))
        if not self.checked:
            return
        d = self.separation
        tol = 1e-12 * max(r, 1.0)
        if not (4.0 * r - tol <= d <= 8.0 * r + tol):
            raise SeparationViolation(
                f"|x1 - x2| = {d:g} outside [4r, 8r] = [{4 * r:g}, {8 * r:g}]"
            )
        for (c,) in (self.x1, self.x2):
            if abs(c) + 2.0 * r > R / 2.0 + tol:
                raise ContainmentViolation(
                    f"B_2r({c:g}) not contained in B_R/2(0) with R = {R:g}")

    @property
    def separation(self) -> float:
        return abs(self.x1[0] - self.x2[0])

    @property
    def domain(self) -> list[tuple[float, float]]:
        """The solved domain B_2r(x1) u B_2r(x2), intervals left to right."""
        r2 = 2.0 * self.r
        return sorted((c - r2, c + r2) for c in (self.x1[0], self.x2[0]))


def complement(intervals) -> list[tuple[float, float]]:
    """Components of R minus a union of disjoint open intervals, left to
    right; a gap under 1e-14 of the span (touching intervals) is none."""
    ivs = sorted(intervals)
    span = ivs[-1][1] - ivs[0][0]
    ends = [-np.inf, *(e for iv in ivs for e in iv), np.inf]
    return [(a, b) for a, b in zip(ends[::2], ends[1::2])
            if b - a > 1e-14 * span]


def make_disconnected_config(n, x1, x2, r, R, unsafe: bool = False) -> DisconnectedConfig:
    """DisconnectedConfig(n, x1, x2, r, R, checked=not unsafe)."""
    return DisconnectedConfig(n=n, x1=x1, x2=x2, r=r, R=R, checked=not unsafe)


@dataclass(frozen=True)
class Mesh1D:
    """N uniform cells on each of disjoint open intervals: a mesh is its
    intervals and N.  Every construction, replace() too, checks that N is
    an integer >= 4 and the sorted intervals, then derives once the flat,
    read-only cell arrays lo, hi, centers and widths: interval p, counted
    from 0 left to right, holds the cells p*N up to (p+1)*N."""

    intervals: tuple
    N: int

    def __post_init__(self):
        N = int(self.N)
        if N != self.N:
            raise ConfigParseError(f"N must be an integer, got {self.N}")
        if N < 4:
            raise ConfigParseError(f"N must be at least 4, got {N}")
        ivs = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        for (a, b) in ivs:
            if not b > a:
                raise ConfigParseError(f"degenerate interval ({a}, {b})")
        for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise ConfigParseError(f"overlapping intervals ({a0},{b0}) and ({a1},{b1})")
        edges = [np.linspace(a, b, N + 1) for a, b in ivs]
        lo = np.concatenate([e[:-1] for e in edges])
        hi = np.concatenate([e[1:] for e in edges])
        cells = dict(lo=lo, hi=hi, centers=0.5 * (lo + hi), widths=hi - lo)
        for a in cells.values():
            a.flags.writeable = False
        self.__dict__.update(intervals=ivs, N=N, **cells)

    @property
    def ncells(self) -> int:
        return self.centers.size

    def cells_in(self, center: float, radius: float) -> np.ndarray:
        """Indices of cells whose center lies in B_radius(center), open."""
        return np.nonzero(np.abs(self.centers - center) < radius)[0]


mesh_intervals = Mesh1D


def mesh_over(config: DisconnectedConfig, N: int) -> Mesh1D:
    """Mesh over the config's domain with N uniform cells per interval."""
    return mesh_intervals(config.domain, N)


def config_from_text(text: str, **overrides,
                     ) -> tuple[DisconnectedConfig, int | None]:
    """Parse the flat key=value format, with the overrides of x1, x2, r or
    R applied before it is validated; returns (config, N or None).  The
    keys are n, x1, x2, r, R, N and unsafe, each at most once; unsafe is
    true/false/1/0/yes/no in any case.  An error in a line names it."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in ("n", "x1", "x2", "r", "R", "N", "unsafe"):
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigParseError(f"line {lineno}: repeated key {key!r}")
        if key == "unsafe" and val.lower() not in ("true", "false", "1", "0",
                                                   "yes", "no"):
            raise ConfigParseError(
                f"line {lineno}: unsafe = {val!r} is not one of "
                f"true/false/1/0/yes/no")
        values[key], lines[key] = val, lineno
    missing = [k for k in ("n", "x1", "x2", "r", "R") if k not in values]
    if missing:
        raise ConfigParseError(f"missing keys: {', '.join(missing)}")

    def parse(key, kind=float):
        try:
            return kind(values[key])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigParseError(f"line {lines[key]}: {key} = "
                                   f"{values[key]!r} is not {what}") from None

    def floats(text):
        return [float(v) for v in text.split(",")]

    n, x1, x2 = parse("n", int), parse("x1", floats), parse("x2", floats)
    r, R = parse("r"), parse("R")
    N = parse("N", int) if "N" in values else None
    unsafe = values.get("unsafe", "false").lower() in ("true", "1", "yes")
    geometry = {"x1": x1, "x2": x2, "r": r, "R": R, **overrides}
    return make_disconnected_config(n, **geometry, unsafe=unsafe), N
