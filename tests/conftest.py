import pytest

from bottleneck_lab import envelope


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
