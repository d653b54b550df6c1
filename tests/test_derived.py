"""Derive, don't declare: an input object is its fields, and everything
else it exposes derives from them on every construction.  Changing one
field through dataclasses.replace must give, attribute for attribute, the
object a fresh construction from the same fields gives."""

import dataclasses

import numpy as np
import pytest

from nonlocal_lab.geometry import make_disconnected_config, mesh_intervals
from nonlocal_lab.harnack import harnack_report
from nonlocal_lab.kernel import fractional_kernel
from nonlocal_lab.operator import barrier_w2, indicator
from nonlocal_lab.solver1d import assemble, solve

CONFIG = make_disconnected_config(n=1, x1=-2.0, x2=2.0, r=1.0, R=16.0)


def report():
    mesh = mesh_intervals(CONFIG.domain, 16)
    u = solve(assemble(fractional_kernel(1, 0.5), mesh, indicator(5.0, 7.0)))
    return harnack_report(u, CONFIG, 0.5)


# (object, one field's new value, the attributes derived from the fields)
CASES = {
    "config": (lambda: CONFIG, {"x2": 3.0}, ("separation", "domain")),
    "datum": (lambda: indicator(1.0, 3.0), {"pieces": ((1.0, 2.0, 1.0),)},
              ("breaks", "sup_bound", "is_constant", "_segments")),
    "mesh": (lambda: mesh_intervals([(-1.0, 1.0)], 8), {"N": 16},
             ("lo", "hi", "centers", "widths", "ncells")),
    "barrier": (lambda: barrier_w2(CONFIG), {"center": -1.5},
                ("sup_bound", "hess_bound", "breaks", "label")),
    "report": (report, {"sup": 10.0}, ("C_estimate",)),
}


@pytest.mark.parametrize("make, change, derived", CASES.values(), ids=CASES)
def test_replace_rederives(make, change, derived):
    obj = make()
    names = [f.name for f in dataclasses.fields(obj)]
    assert not set(derived) & set(names), "a derived attribute is a field"
    replaced = dataclasses.replace(obj, **change)
    fresh = type(obj)(**{name: getattr(obj, name) for name in names}
                      | change)
    assert replaced == fresh
    for name in derived:
        got, want = getattr(replaced, name), getattr(fresh, name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
