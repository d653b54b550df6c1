"""The benchmark's calls into the lab, run in-process at smoke size.

perfbench/workloads.py reaches the lab only through its public API, and
perfbench/tracing.py patches named functions of it and reads attributes
of its objects; a name either uses that goes away, or an output that
stops passing its check, would otherwise surface only in benchmark runs.
Every item of pass 0 runs here with its own check, untraced and traced.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from nonlocal_lab.kernel import Kernel

ROOT = Path(__file__).resolve().parents[1]
SEED = 5


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")
ITEMS = [(w, item) for w in workloads.WORKLOADS
         for item in workloads.build(w, "smoke", SEED, 0)]
# spans the tracer lists whose function the lab no longer has: operator's
# tail quadrature gave way to the closed form segment_tail, and the
# benchmark's operator.tail metrics read 0 since
GONE_SPANS = {("operator", "tail")}


@pytest.mark.parametrize("workload,item", ITEMS,
                         ids=[f"{w}:{item.label}" for w, item in ITEMS])
def test_smoke_item_passes_its_check(workload, item):
    assert item.check(item.run()) == []


def _patchable():
    """Every attribute the tracer may swap: the package's module globals
    and Kernel's methods, by owner and name."""
    owners = [m for name, m in sys.modules.items()
              if name.split(".")[0] == tracing.PACKAGE] + [Kernel]
    return {(owner.__name__, key): val for owner in owners
            for key, val in vars(owner).items()}


def test_traced_pass_gives_every_layer_metric():
    before = _patchable()
    tracer = tracing.Tracer()
    tracer.passes = 1
    for _, item in ITEMS:
        tracer.install()
        try:
            for mod, fn in set(tracing.SPANNED) - GONE_SPANS:  # wrapped
                home = f"{tracing.PACKAGE}.{mod}"
                assert getattr(sys.modules[home], fn) is not before[home, fn]
            out = item.run()
        finally:
            tracer.uninstall()
        assert item.check(out) == []
    after = _patchable()
    assert all(after[key] is val for key, val in before.items())
    metrics = tracer.metrics()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for name in {m["name"] for m in declared} - {"trace.overhead_ratio"}:
        assert math.isfinite(metrics[name][0]), name
