"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of the lab's modules from outside:
every module of the package that holds a reference to a traced function
gets the wrapper in its place, so calls made through
``from .quadrature import integrate`` are seen as well as calls through the
defining module.  ``integrate`` looks ``gk_panel`` up as a module global,
so the wrapper on ``quadrature.gk_panel`` sees every panel.  Nothing in
``src/`` changes; ``uninstall`` puts the original functions back.

Each call becomes a span (id, parent, name, start, end) kept in memory.
Self time is a span's duration minus the time its child spans cover,
computed as spans close.  Kernel evaluations are counted (points per
call) but not spanned, which keeps the tracing cost of the innermost loop
low.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

PACKAGE = "nonlocal_lab"

# (module, function) pairs traced as spans; a span is named
# "<module>.<function>" without the package prefix
SPANNED = (
    ("quadrature", "integrate"),
    ("quadrature", "gk_panel"),
    ("operator", "eval_L"),
    ("operator", "tail"),
    ("poisson", "poisson_extend"),
    ("solver1d", "assemble"),
    ("solver1d", "solve"),
    ("harnack", "disconnected_harnack_experiment"),
    ("harnack", "harnack_report"),
)
# (module, class, method) whose calls are counted in evaluated points
COUNTED = (
    ("kernel", "Kernel", "eval_pairs"),
    ("kernel", "Kernel", "eval_at_distance"),
)
# matrix sizes whose dense solve time is reported by name
SOLVE_SIZES = (4, 128, 256, 512, 1024, 4096)
FAMILIES = ("fractional", "translation-invariant", "general")
FAMILY_TAGS = {"fractional": "frac", "translation-invariant": "ti",
               "general": "general"}


class SpanStats:
    """Totals for one span name."""

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failures = 0
        self.outer_calls = 0  # calls not nested inside the same function
        self.outer_s = 0.0
        self.children = Counter()  # direct child spans by name


class _Frame:
    __slots__ = ("span_id", "name", "child_s")

    def __init__(self, span_id: int, name: str):
        self.span_id = span_id
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Collects spans and counters while installed; see the module doc."""

    def __init__(self):
        self.names: list[str] = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, SpanStats] = {}
        self.points = Counter()
        self.assemble_keys: set = set()
        self.assemble_by_family = {f: [0, 0.0] for f in FAMILIES}
        self.solve_by_size: dict[int, list] = {}
        self.rhs_columns = 0
        self.matrix_bytes = 0
        self.passes = 0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patches: list = []
        self._wrappers: dict = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Swap every traced function for its wrapper in the package."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, fn_name in SPANNED:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                continue
            name = f"{mod_name}.{fn_name}"
            if name not in self._wrappers:
                self._wrappers[name] = self._span_wrapper(name, orig)
            wrapper = self._wrappers[name]
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth in COUNTED:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), cls_name,
                          None)
            orig = getattr(cls, meth, None)
            if orig is None:
                continue
            name = f"{mod_name}.{meth}"
            if name not in self._wrappers:
                self._wrappers[name] = self._count_wrapper(name, orig)
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrappers[name])

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _count_wrapper(self, name: str, fn):
        points = self.points

        def counted(obj, first, *args, **kwargs):
            points[name] += getattr(first, "size", 1)
            return fn(obj, first, *args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        name_idx = len(self.names)
        self.names.append(name)
        after = {"solver1d.assemble": self._after_assemble,
                 "solver1d.solve": self._after_solve}.get(name)
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(self._next_id, name)
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stats.failures += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame.child_s
                nested = parent is not None and parent.name == name
                if not nested:
                    stats.outer_calls += 1
                    stats.outer_s += dur
                if parent is not None:
                    parent.child_s += dur
                    self.stats[parent.name].children[name] += 1
                self.span_id.append(frame.span_id)
                self.span_parent.append(-1 if parent is None
                                        else parent.span_id)
                self.span_name.append(name_idx)
                self.span_start.append(start)
                self.span_end.append(end)
            if after is not None:
                after(args, kwargs, dur)
            return out

        return spanned

    def _after_assemble(self, args, kwargs, dur: float) -> None:
        kernel = kwargs.get("kernel", args[0] if args else None)
        mesh = kwargs.get("mesh", args[1] if len(args) > 1 else None)
        key = (self.passes, kernel.tag(), kernel.scale, mesh.intervals,
               mesh.ncells)
        self.assemble_keys.add(key)
        slot = self.assemble_by_family.get(kernel.family)
        if slot is not None:
            slot[0] += 1
            slot[1] += dur

    def _after_solve(self, args, kwargs, dur: float) -> None:
        system = kwargs.get("system", args[0] if args else None)
        m = int(system.matrix.shape[0])
        rhs = system.rhs
        self.rhs_columns += 1 if rhs.ndim == 1 else int(rhs.shape[1])
        self.matrix_bytes += m * m * 8
        slot = self.solve_by_size.setdefault(m, [0, 0.0])
        slot[0] += 1
        slot[1] += dur

    # -- results ------------------------------------------------------------

    def spans(self) -> dict:
        """Recorded spans as parallel columns, for writing out at exit."""
        return {"names": self.names, "id": self.span_id,
                "parent": self.span_parent, "name": self.span_name,
                "start": self.span_start, "end": self.span_end}

    def metrics(self) -> dict:
        """Per-layer metrics; counts and busy times are per traced pass."""
        per = 1.0 / max(self.passes, 1)
        empty = SpanStats()

        def st(name):
            return self.stats.get(name, empty)

        def ratio(num, den):
            return num / den if den else 0.0

        integ = st("quadrature.integrate")
        panel = st("quadrature.gk_panel")
        ev = st("operator.eval_L")
        tl = st("operator.tail")
        pe = st("poisson.poisson_extend")
        asm = st("solver1d.assemble")
        sol = st("solver1d.solve")
        exp = st("harnack.disconnected_harnack_experiment")
        rep = st("harnack.harnack_report")
        out = {
            "quadrature.integrate.calls": (integ.calls * per, "count"),
            "quadrature.integrate.self_s": (integ.self_s * per, "s"),
            "quadrature.integrate.panels_per_call": (
                ratio(integ.children["quadrature.gk_panel"], integ.calls),
                "count"),
            "quadrature.integrate.failures": (integ.failures * per, "count"),
            "quadrature.gk_panel.calls": (panel.calls * per, "count"),
            "quadrature.gk_panel.panels_per_s": (
                ratio(panel.calls, panel.total_s), "1/s"),
            "kernel.eval_pairs.points": (
                self.points["kernel.eval_pairs"] * per, "count"),
            "kernel.eval_at_distance.points": (
                self.points["kernel.eval_at_distance"] * per, "count"),
            "operator.eval_L.calls": (ev.calls * per, "count"),
            "operator.eval_L.self_s": (ev.self_s * per, "s"),
            "operator.eval_L.ms_per_point": (
                1e3 * ratio(ev.outer_s, ev.outer_calls), "ms"),
            "operator.tail.calls": (tl.calls * per, "count"),
            "operator.tail.self_s": (tl.self_s * per, "s"),
            "poisson.poisson_extend.calls": (pe.calls * per, "count"),
            "poisson.poisson_extend.self_s": (pe.self_s * per, "s"),
            "poisson.poisson_extend.ms_per_point": (
                1e3 * ratio(pe.outer_s, pe.outer_calls), "ms"),
            "solver1d.assemble.calls": (asm.calls * per, "count"),
            "solver1d.assemble.self_s": (asm.self_s * per, "s"),
            "solver1d.assemble.distinct_ratio": (
                ratio(len(self.assemble_keys), asm.calls), "ratio"),
        }
        for family in FAMILIES:
            calls, secs = self.assemble_by_family[family]
            out[f"solver1d.assemble.{FAMILY_TAGS[family]}.ms_per_call"] = (
                1e3 * ratio(secs, calls), "ms")
        out["solver1d.solve.calls"] = (sol.calls * per, "count")
        out["solver1d.solve.self_s"] = (sol.self_s * per, "s")
        out["solver1d.solve.rhs_columns"] = (self.rhs_columns * per, "count")
        for m in SOLVE_SIZES:
            calls, secs = self.solve_by_size.get(m, (0, 0.0))
            out[f"solver1d.solve.ms.m{m}"] = (1e3 * ratio(secs, calls), "ms")
        out["solver1d.solve.matrix_mb_computed"] = (
            self.matrix_bytes * per / 1e6, "MB")
        out["harnack.disconnected_harnack_experiment.self_s"] = (
            exp.self_s * per, "s")
        out["harnack.harnack_report.calls"] = (rep.calls * per, "count")
        out["harnack.harnack_report.self_s"] = (rep.self_s * per, "s")
        return out
