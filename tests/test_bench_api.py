"""The benchmark's calls into the lab, run in-process at smoke size.

perfbench/workloads.py reaches the lab only through its public API; a
name it calls that goes away, or an output that stops passing its check,
would otherwise surface only as failed benchmark operations.  Every item
of pass 0 runs here with its own check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 5


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
ITEMS = [(w, item) for w in workloads.WORKLOADS
         for item in workloads.build(w, "smoke", SEED, 0)]


@pytest.mark.parametrize("workload,item", ITEMS,
                         ids=[f"{w}:{item.label}" for w, item in ITEMS])
def test_smoke_item_passes_its_check(workload, item):
    assert item.check(item.run()) == []
