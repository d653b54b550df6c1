import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nonlocal_lab import quadrature

settings.register_profile(
    "lab",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")


@pytest.fixture
def panel_count(monkeypatch):
    """Counts the GK15 panels evaluated from here on: the rule is looked
    up as a module global on every round, so the patch sees them all.
    Call the returned function for the count so far."""
    panels = [0]
    rule = quadrature.gk_panel

    def counted(f, a, b):
        panels[0] += np.size(a)
        return rule(f, a, b)

    monkeypatch.setattr(quadrature, "gk_panel", counted)
    return lambda: panels[0]
