import importlib

import pytest

from bottleneck_lab import envelope

# The package's `sweep` attribute is the function, not the module.
sweep_module = importlib.import_module("bottleneck_lab.sweep")


@pytest.fixture
def hull_calls(monkeypatch):
    """List that gets one entry (the point array's shape) per ConvexHull
    the envelope module builds."""
    calls = []
    real = envelope.ConvexHull

    def counting(points, *args, **kwargs):
        calls.append(points.shape)
        return real(points, *args, **kwargs)

    monkeypatch.setattr(envelope, "ConvexHull", counting)
    return calls


@pytest.fixture
def slice_builds(monkeypatch):
    """List that gets one entry (the marginal) per region_slice that the
    BoundarySlice constructor cuts, whatever route the slice takes."""
    calls = []
    real = sweep_module.region_slice

    def counting(graph):
        calls.append(graph.q)
        return real(graph)

    monkeypatch.setattr(sweep_module, "region_slice", counting)
    return calls
