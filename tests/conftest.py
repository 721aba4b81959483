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
    """List that gets one entry (the marginal) per polygon a BoundarySlice
    cuts, whatever route the slice takes: each region_slice its constructor
    calls, and each slice BoundarySlice.at takes at another marginal
    (RegionSlice.at, a re-cut from the kept hull or a fresh cut)."""
    calls = []
    real_slice, real_at = sweep_module.region_slice, envelope.RegionSlice.at

    def counting(graph):
        calls.append(graph.q)
        return real_slice(graph)

    def counting_at(region, graph):
        calls.append(graph.q)
        return real_at(region, graph)

    monkeypatch.setattr(sweep_module, "region_slice", counting)
    monkeypatch.setattr(envelope.RegionSlice, "at", counting_at)
    return calls
