"""The simplex walk in Python integers against its int64 predecessor.

The reference below is the int64 walk that the Python-integer bookkeeping
replaced: a float start adjugate checked for exactness, an int64
Edmonds-Bareiss update with an overflow bound, and a ratio test that
builds every lexicographic key.  Where it does not overflow, the walk must
visit the same bases in the same order.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from bottleneck_lab import DivergenceKernel, SimplexLattice
from bottleneck_lab import envelope
from bottleneck_lab.acceptance import run_property_suite
from test_sweep import kernel_graph, seeded_source

KL = DivergenceKernel.kl()
CHI2 = DivergenceKernel.chi_squared()
ENTROPY = DivergenceKernel.entropy_functional()

_INT64_MAX = int(np.iinfo(np.int64).max)


def ref_adjugate(M):
    Mf = M.astype(float)
    det = round(float(np.linalg.det(Mf)))
    adj = np.rint(det * np.linalg.inv(Mf)).astype(np.int64)
    if not np.array_equal(M @ adj, det * np.eye(M.shape[0], dtype=np.int64)):
        raise RuntimeError(f"basis adjugate is not exact (determinant {det})")
    return (adj, det) if det > 0 else (-adj, -det)


def ref_pivot(adj, det, u, r, total):
    bound = int(np.abs(adj).max()) * max(2 * max(map(abs, u.tolist())), total)
    if bound > _INT64_MAX:
        raise RuntimeError(f"basis adjugate may overflow int64 (determinant {det})")
    new, rem = np.divmod(u[r] * adj - u[:, None] * adj[r], det)
    if rem.any():
        raise RuntimeError(f"basis adjugate is not exact (determinant {det})")
    new[r] = adj[r]
    return new, int(u[r])


def ref_lex_leaving(adj, qc, start, u):
    rows = np.flatnonzero(u > 0)
    if rows.size == 1:
        return int(rows[0])
    keys = np.column_stack([adj @ qc, adj @ start])[rows].tolist()
    us = u[rows].tolist()
    best = 0
    for k in range(1, rows.size):
        for a, b in zip(keys[k], keys[best]):
            if a * us[best] != b * us[k]:
                if a * us[best] < b * us[k]:
                    best = k
                break
    return int(rows[best])


def ref_walk(X, Y, counts, start, rhs, ties, trace=None):
    """The int64 walk; ties[0] counts ratio tests whose smallest first-key
    ratio is shared by two rows.  The right-hand side rhs (q scaled to
    integers, far past int64) is kept as Python integers.  A trace list
    gets one (u, r, det, opening) per pivot: the entering column in the
    basis's coordinates, the leaving row, the determinant before the
    pivot, and whether it is an X-only pivot at lam = -inf."""
    K = counts.shape[0]
    CT = counts.T.astype(float)
    XY = np.vstack([X, Y])
    qc = np.array(rhs, dtype=object)
    total = int(counts[0].sum())
    B0 = counts[start].T
    scale = max(float(np.abs(X).max()), float(np.abs(Y).max()), 1.0)
    tol, brk = envelope._PRICE_TOL * scale, envelope._BREAK_TOL * scale
    cap = envelope._pivot_cap(K)
    basis = list(start)
    vertices = []
    lam = -math.inf
    adj, det = ref_adjugate(counts[basis].T)
    for _ in range(cap + 1):
        dX, dY = XY - (XY[:, basis] @ (adj / det)) @ CT
        rising = dX > tol
        j = -1
        opening = False
        if lam == -math.inf:
            flat = (dX <= tol) & (dY < -tol)
            if dX.min() < -tol:
                j = int(np.argmin(dX))
                opening = True
            elif flat.any():
                j = int(np.argmin(np.where(flat, dY, np.inf)))
        if j < 0:
            if not rising.any():
                vertices.append(list(basis))
                return vertices
            ratios = np.where(rising, dY, np.inf) / np.where(rising, dX, 1.0)
            j = int(np.argmin(ratios))
            if lam == -math.inf or dY[j] - lam * dX[j] > brk:
                vertices.append(list(basis))
            lam = max(lam, float(ratios[j]))
        u = adj @ counts[j]
        ratios = sorted(Fraction(int(w), int(d)) for w, d in zip(adj @ qc, u) if d > 0)
        ties[0] += len(ratios) > 1 and ratios[0] == ratios[1]
        r = ref_lex_leaving(adj, qc, B0, u)
        if trace is not None:
            trace.append((tuple(u.tolist()), r, det, opening))
        basis[r] = j
        adj, det = ref_pivot(adj, det, u, r, total)
    raise RuntimeError(f"simplex walk took more than {cap} pivots on {K} lattice points")


@pytest.fixture
def pinned(monkeypatch):
    """Run every chain's walk twice, the integer one (after the shared
    opening pivots) and the int64 reference (from the alphabet basis), and
    require the same vertex bases; yields [walks, tied ratio tests]."""
    real_x_phase, real_walk = envelope._x_phase, envelope._walk
    seen = [0, 0]
    alphabet = []

    def opening(lp, XY, start):
        alphabet[:] = start
        return real_x_phase(lp, XY, start)

    def both(lp, XY, opened):
        ties = [0]
        got = real_walk(lp, XY, opened)
        assert got == ref_walk(XY[0], XY[1], lp.counts, list(alphabet), lp.rhs, ties)
        seen[0] += 1
        seen[1] += ties[0]
        return got

    monkeypatch.setattr(envelope, "_x_phase", opening)
    monkeypatch.setattr(envelope, "_walk", both)
    return seen


def test_walk_bases_equal_the_int64_walk_on_a7(pinned):
    # A7's marginals are generic floats, so their ratio tests do not tie;
    # the seeded sources below, at lattice marginals, do.
    assert run_property_suite() == []
    assert pinned[0] > 200


@pytest.mark.parametrize("m,resolution", [(3, 24), (4, 10), (5, 6)])
def test_walk_bases_equal_the_int64_walk_on_seeded_sources(pinned, m, resolution):
    lattice = SimplexLattice.build(m, resolution)
    for seed in range(2):
        q, T = seeded_source(m, resolution, seed)
        for kernel in (KL, CHI2, ENTROPY):
            envelope.region_slice(kernel_graph(kernel, q, T, lattice))
    assert pinned[0] == 2 * 2 * 3 and pinned[1] > 0


@pytest.mark.parametrize("m,resolution", [(3, 24), (4, 10), (5, 6)])
def test_slice_shares_the_reference_walks_opening_pivots(monkeypatch, m, resolution):
    # Both reference walks open with the same X-only pivots at lam = -inf.
    # A slice takes them once: its pivots are the lower walk's, then the
    # upper walk's after that common prefix.  The entropy is concave, so
    # at the alphabet basis no X reduced cost is negative and the two
    # walks share no pivot.
    lattice = SimplexLattice.build(m, resolution)
    counts = lattice.counts
    start = lattice.vertices.tolist()
    taken = []
    real = envelope._pivot

    def recording(adj, det, u, r):
        taken.append((tuple(u), r, det))
        return real(adj, det, u, r)

    monkeypatch.setattr(envelope, "_pivot", recording)
    for seed in range(2):
        q, T = seeded_source(m, resolution, seed)
        den = max(Fraction(v).denominator for v in q.tolist())
        rhs = [int(Fraction(v) * den) for v in q.tolist()]
        for kernel in (KL, CHI2, ENTROPY):
            graph = kernel_graph(kernel, q, T, lattice)
            X, Y = graph.x_values[:-1], graph.y_values[:-1]
            lower, upper = [], []
            ref_walk(X, Y, counts, start, rhs, [0], lower)
            ref_walk(X, -Y, counts, start, rhs, [0], upper)
            prefix = 0
            while lower[prefix] == upper[prefix] and lower[prefix][3]:
                prefix += 1
            taken.clear()
            envelope.region_slice(graph)
            assert taken == [step[:3] for step in lower + upper[prefix:]]
            assert (prefix == 0) == (kernel is ENTROPY)
