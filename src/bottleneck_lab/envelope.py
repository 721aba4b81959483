"""Discretized simplex lattices and the achievable region at a marginal.

For a marginal q, the achievable pairs (E[f(p_w)], E[g(T p_w)]) over
mixtures of lattice points and q itself with mean q form a convex polygon:
the 2-D hull of the slice, at p = q, of the convex hull of the lifted
lattice points (p_1..p_{m-1}, f(p), g(Tp)) (Witsenhausen & Wyner 1975) and
of the single point (f(q), g(Tq)).  A mixture that gives the atom q weight
a keeps mean q over its other atoms, so no other mixture adds a point.
region_slice computes that polygon; every vertex carries the at most m
lattice points (or the atom q) and weights that span it.  q need not lie
on the lattice.  The candidate vertices of the lattice slice come from one
of two routes, chosen by m:

- m = 2: the faces of one qhull hull of the lifted points that contain q.
  A hull in dimension 3 is cheaper than the walk, which takes one pivot
  per vertex and has one vertex per few lattice points here: at the
  default N = 4096 (BSC 0.1/0.1, KL and entropy kernels, 2 050 vertices)
  the qhull call takes 27-48 ms and the whole slice 37-63 ms, while the
  same slice from the walk takes 80-128 ms, 1.8-2.8 times the slice
  (fastest of 5 runs in each of 7 processes, 2-CPU x86-64 Linux, numpy
  2.4.6, scipy 1.17.1).  The hull reads the lattice values alone, not q:
  for marginal-free kernels (entropy, l^beta norms) those are the same at
  every marginal, so the slice keeps the hull's simplices, and
  RegionSlice.at cuts the slice at another q from them without qhull.
- m >= 3: two parametric simplex walks, one per boundary chain, over the
  LP min (lower) or max (upper) of sum a_i (g_i - lambda f_i) s.t.
  sum a_i p_i = q, a >= 0; each vertex is its optimal basis over a range
  of lambda.  Both walks start from the alphabet basis, whose adjugate is
  closed form, and open with the same pivots at lambda = -inf, which read
  f alone: these run once per slice, and each chain goes on from the
  basis they reach.  Each pivot is an O(m^2) update of the basis adjugate
  in Python integers, exact at any determinant (no int64 ceiling), and
  one pricing product over the lattice, while a hull in dimension m + 1
  grows far faster with m and N.

envelope_at keeps the per-slope view: the lower convex (upper concave)
envelope of g(Tp) - lambda * f(p) over the lattice, read at q only and
clipped by its value at q.  Its value is each chain's support function at
lambda, so the property suite checks the slice against it as an
independent reference: for m = 2 the least chord over the lattice pairs
straddling q, by brute force, and for m >= 3 one qhull hull.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .core import (
    Channel,
    ConfigError,
    Distribution,
    _as_channel,
    _as_prob_vector,
    _check_direction,
    _pair_values,
)

# Barycentric weights down to -_BARY_TOL count as a ridge containing q;
# weights at or below _ATOM_TOL are dropped from the witness.
_BARY_TOL = 1e-12
_ATOM_TOL = 1e-12
# A polygon vertex whose two edges turn by less than this (sine of the
# angle) is dropped.  Such vertices carry no area, and their normal cones
# are too thin for a slope query to land on them reliably; the edges of
# real vertices on a 4096-point binary lattice turn by 1e-5 or more.
_TURN_TOL = 1e-9
# Singular values of the non-affine part of (f, g) below this share of
# max(|f|, |g|, 1) * sqrt(lattice size) mark a flat lifted set (for example
# a product joint, where g(Tp) is 0 everywhere).
_FLAT_TOL = 1e-10
# Reduced costs of the simplex walk within this share of max(|X|, |Y|, 1)
# count as zero when pricing.  They are rounded differences of values of
# that size: at 1e-15 the walk pivots on rounding noise and cycles until
# its pivot cap (A7), while at 1e-3 columns with a real breakpoint are
# passed over and vertices are lost (test_walk_matches_hull[m3-kl]).
_PRICE_TOL = 1e-11
# A walk basis is a vertex when the next breakpoint's reduced cost at the
# basis's own slope exceeds this share of max(|X|, |Y|, 1); below it the
# two breakpoints coincide up to rounding.  At 1e-16 a product joint's
# noise-level breakpoints become vertices (test_flat_lifted_set_gives_a_curve);
# at 1e-12 a vertex whose normal cone is 7e-11 wide is lost
# (test_walk_matches_hull[thin-cone]).
_BREAK_TOL = 1e-14
# A lattice candidate within this share of max(|X|, |Y|, 1) of the point
# (f(q), g(Tq)) in both coordinates is that point up to rounding: q on the
# lattice, or one ulp off it as a decomposed joint gives it.  Kept, it
# would be a second vertex 1e-16 from the first, joined to it by an edge
# of arbitrary slope (test_rounded_lattice_marginal_gives_one_trivial_vertex).
_SAME_TOL = 1e-12

# Lattice N by alphabet size when none is given, and the least N (at N = 1
# the lattice is the alphabet alone).
DEFAULT_RESOLUTION = {2: 4096, 3: 128, 4: 32}
MIN_RESOLUTION = 2
# Largest lattice a curve is computed on.  Peak RSS of a binary
# `curve --direction both` is set inside its qhull call: 166 MiB at
# N = 65 536 and 771 MiB at N = 262 143, or ~2.75 KiB per lattice point
# over the 67 MiB of imports (x86-64 Linux, numpy 2.4, scipy 1.17), so
# this keeps a run under ~1 GiB.  The CSV text (one ~110-byte row per two
# points) is built after the hull is freed and stays below that peak.
# The m >= 3 walk adds ~0.15 KiB per point.
MAX_LATTICE_POINTS = 1 << 18


def lattice_size(m: int, resolution: int) -> int:
    """Number of points of the m-letter simplex lattice at resolution N:
    C(N + m - 1, m - 1)."""
    return math.comb(resolution + m - 1, m - 1)


@dataclass(frozen=True, eq=False)
class SimplexLattice:
    """All compositions (k_1, ..., k_m) of N, as read-only int64 counts and
    as points counts / N of the simplex, in lexicographic order of the
    counts.  For m = 2 the first coordinate increases with the point
    index, so the lattice is a sorted 1-D path."""

    m: int
    resolution: int
    counts: np.ndarray
    points: np.ndarray

    @classmethod
    def build(cls, m: int, resolution: int | None = None) -> "SimplexLattice":
        """The m-letter lattice at resolution N, by every lattice rule: N
        defaults to DEFAULT_RESOLUTION[m] (ConfigError for an alphabet the
        table lacks), is at least MIN_RESOLUTION (ValueError), and gives at
        most MAX_LATTICE_POINTS points (ConfigError, before any is made)."""
        if m < 2:
            raise ValueError("lattice needs m >= 2")
        if resolution is None:
            if m not in DEFAULT_RESOLUTION:
                raise ConfigError(f"no default lattice for m = {m}; pass a resolution")
            resolution = DEFAULT_RESOLUTION[m]
        if resolution < MIN_RESOLUTION:
            raise ValueError(f"lattice resolution must be >= {MIN_RESOLUTION}, got {resolution}")
        size = lattice_size(m, resolution)
        if size > MAX_LATTICE_POINTS:
            raise ConfigError(
                f"the lattice at resolution {resolution} has {size} points; "
                f"at most {MAX_LATTICE_POINTS} are supported"
            )
        # Stars and bars: the m - 1 bar positions among N + m - 1 slots, in
        # lexicographic order, give the counts in lexicographic order.
        slots = resolution + m - 1
        bars = np.fromiter(
            chain.from_iterable(combinations(range(slots), m - 1)),
            dtype=np.int64,
            count=size * (m - 1),
        ).reshape(-1, m - 1)
        ends = np.full((bars.shape[0], 1), -1)
        counts = np.diff(np.hstack([ends, bars, ends + slots + 1]), axis=1) - 1
        pts = counts / float(resolution)
        for arr in (counts, pts):
            arr.setflags(write=False)
        return cls(m=m, resolution=resolution, counts=counts, points=pts)

    @property
    def size(self) -> int:
        return int(self.counts.shape[0])

    @property
    def vertices(self) -> np.ndarray:
        """Indices of the m alphabet vertices (all mass on one symbol), in
        lattice order."""
        return np.flatnonzero(self.counts.max(axis=1) == self.resolution)


@dataclass(frozen=True, eq=False)
class LagrangianGraph:
    """f(p) and g(Tp) at the rows it evaluated: the K lattice points (rows
    0..K-1) and the marginal q (row K); the Lagrangian g(Tp) - lam * f(p)
    at any slope lam is y_values - lam * x_values.  f and g, the functionals
    the values came from, are kept to re-evaluate witnesses with."""

    lattice: SimplexLattice
    rows: np.ndarray
    x_values: np.ndarray
    y_values: np.ndarray
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]

    @property
    def q(self) -> np.ndarray:
        return self.rows[-1]


def build_lagrangian_graph(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    T: Channel | np.ndarray,
    lattice: SimplexLattice,
    q: Distribution | np.ndarray,
) -> LagrangianGraph:
    """Evaluate f and g over the lattice and at q.

    f and g are vectorized functionals of (k, m) and (k, n) row arrays, such
    as the pair sweep resolves from two kernels.  Evaluation must be finite
    at every lattice point and at q; a failure aborts identifying the point.
    q is checked but not rescaled: it is the marginal f and g were resolved
    at.
    """
    matrix = _as_channel(T).matrix
    if matrix.shape[1] != lattice.m:
        raise ValueError("channel input alphabet does not match the lattice")
    q = _as_prob_vector(q, "q", rescale=False)
    if q.shape != (lattice.m,):
        raise ValueError("q does not live on this lattice's simplex")
    rows = np.vstack([lattice.points, q])
    x_vals, y_vals = _pair_values(f, g, matrix, rows)
    for name, vals in (("f", x_vals), ("g", y_vals)):
        bad = ~np.isfinite(vals)
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise ValueError(f"{name} is not finite at {rows[idx].tolist()}")
    for arr in (rows, x_vals, y_vals):
        arr.setflags(write=False)
    return LagrangianGraph(lattice=lattice, rows=rows, x_values=x_vals, y_values=y_vals, f=f, g=g)


def envelope_at(
    lattice: SimplexLattice, values: np.ndarray, q: np.ndarray, q_value: float, direction: str
) -> float:
    """Lower convex (upper concave) envelope at q of values over the
    lattice and of q_value at q itself; the single atom q caps it at
    q_value.

    m = 2: two atoms straddling q suffice (Caratheodory in one dimension),
    so the lattice envelope is the least chord at q N over the count pairs
    t_i <= q N <= t_j, a pair with t_i = t_j weighing its point alone.  The
    scan is quadratic in the lattice, which suits its callers: A7 (N = 64,
    about a thousand pairs) and the tests.
    m >= 3: one hull of the lifted points (p_1..p_{m-1}, ±values): the
    lattice envelope at q is the highest of its downward-facing facet
    planes there.  A degenerate (affine) graph is its own envelope, read at
    q through the alphabet vertices.
    """
    sign = 1.0 if _check_direction(direction) == "lower" else -1.0
    signed = sign * np.asarray(values, dtype=float)
    q = _as_prob_vector(q, "q", rescale=False)
    if lattice.m == 2:
        t, qn = lattice.counts[:, 0], float(q[0]) * lattice.resolution
        lo, hi = np.flatnonzero(t <= qn), np.flatnonzero(t >= qn)
        span = (t[hi] - t[lo][:, None]).astype(float)
        w = np.divide(t[hi] - qn, span, out=np.ones_like(span), where=span > 0)
        best = float((w * signed[lo][:, None] + (1.0 - w) * signed[hi]).min())
        return sign * min(best, sign * float(q_value))
    coords = lattice.points[:, : lattice.m - 1]
    try:
        planes = ConvexHull(np.column_stack([coords, signed]), qhull_options="Qt").equations
    except QhullError:
        vertices = lattice.vertices
        best = float((lattice.points[vertices] @ q) @ signed[vertices])
    else:
        planes = planes[planes[:, -2] < -1e-12]
        at_q = -(planes[:, :-2] @ q[: lattice.m - 1] + planes[:, -1]) / planes[:, -2]
        best = float(at_q.max()) if at_q.size else math.inf
    return sign * min(best, sign * float(q_value))


@dataclass(frozen=True, eq=False)
class RegionSlice:
    """Convex polygon of the (x, y) pairs achievable at the marginal q of
    graph, the Lagrangian graph it was cut from (lattice, q and values).

    Vertex k is x[k] = weights[k] @ X[atoms[k]] (likewise y), a mixture with
    mean q of the rows atoms[k] (increasing) of graph.rows:
    lattice points, or q itself as row K = lattice.size.  Unused slots come
    last and hold atom -1 with weight 0.
    lower and upper list the vertices of the two boundary chains, x strictly
    increasing, each running between the x-extremes of the polygon.
    simplices holds the lifted hull's facets (rows of lattice indices) an
    m = 2 slice was cut from, or the alphabet-vertex face of an affine
    graph; it is None for a slice from the walk.
    """

    graph: LagrangianGraph
    x: np.ndarray
    y: np.ndarray
    atoms: np.ndarray
    weights: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    simplices: np.ndarray | None = None

    def chain(self, direction: str) -> np.ndarray:
        return self.lower if _check_direction(direction) == "lower" else self.upper

    def support(self, lam: float, direction: str) -> int:
        """Vertex minimizing (lower) or maximizing (upper) y - lam * x; on a
        tie the one with the smaller x.  lam must be finite (0 * inf is nan)."""
        if not math.isfinite(lam):
            raise ValueError(f"slope lam = {lam} is not finite")
        chain = self.chain(direction)
        vals = self.y[chain] - lam * self.x[chain]
        return int(chain[np.argmin(vals) if direction == "lower" else np.argmax(vals)])

    def at(self, graph: LagrangianGraph) -> "RegionSlice":
        """region_slice(graph), bit for bit, for a graph over this slice's
        lattice (at another marginal, say).  When graph's lattice values
        equal this slice's bit for bit, as they do for marginal-free
        kernels, its lifted hull is the one this slice kept, and the
        polygon is cut from those simplices with no qhull call."""
        K = graph.lattice.size
        same = (
            self.simplices is not None
            and graph.lattice is self.graph.lattice
            and graph.x_values[:K].tobytes() == self.graph.x_values[:K].tobytes()
            and graph.y_values[:K].tobytes() == self.graph.y_values[:K].tobytes()
        )
        return _cut_hull(graph, self.simplices) if same else region_slice(graph)


def _half_hull(xs: list[float], ys: list[float], order) -> list[int]:
    # One monotone-chain pass keeping left turns of more than _TURN_TOL, so
    # duplicate and (nearly) collinear points drop out.
    out: list[int] = []
    for i in order:
        xi, yi = xs[i], ys[i]
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            ux, uy = xs[b] - xs[a], ys[b] - ys[a]
            vx, vy = xi - xs[b], yi - ys[b]
            if ux * vy - uy * vx <= _TURN_TOL * math.hypot(ux, uy) * math.hypot(vx, vy):
                out.pop()
            else:
                break
        out.append(i)
    return out


def _boundary_chains(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper hull chains of the points, both x-increasing and both
    running from the lowest (lower) or highest (upper) of the leftmost points
    to the same of the rightmost points."""
    order = np.lexsort((y, x)).tolist()
    # Turns are measured in the bounding box scaled to a unit square, so a
    # thin region keeps its vertices.
    xs = ((x - x.min()) / max(float(np.ptp(x)), 1e-300)).tolist()
    ys = ((y - y.min()) / max(float(np.ptp(y)), 1e-300)).tolist()
    lower = _half_hull(xs, ys, order)
    upper = _half_hull(xs, ys, order[::-1])[::-1]
    # A vertical edge at either end belongs to one chain only.
    if len(lower) > 1 and xs[lower[-2]] == xs[lower[-1]]:
        lower.pop()
    if len(upper) > 1 and xs[upper[0]] == xs[upper[1]]:
        upper.pop(0)
    return np.array(lower, dtype=int), np.array(upper, dtype=int)


def _flat_rank(points: np.ndarray, z: np.ndarray) -> tuple[int, np.ndarray]:
    """Number of directions in which the (f, g) values are not affine in p,
    and those directions' coordinates.  Subtracting an affine function of p
    is an invertible affine map of the lifted points, so the hull keeps its
    faces."""
    design = np.column_stack([points[:, :-1], np.ones(points.shape[0])])
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    resid = z - design @ coef
    _, sing, vt = np.linalg.svd(resid, full_matrices=False)
    scale = max(float(np.abs(z).max()), 1.0) * math.sqrt(points.shape[0])
    rank = int(np.sum(sing > _FLAT_TOL * scale))
    return rank, resid @ vt.T


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_index=True) for a 2-D integer array:
    its distinct rows in lexicographic order, and the index of each one's
    first occurrence.  One stable lexsort, then a compare of each sorted
    row with the one before it."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return ordered[first], order[first]


def _ridges_around(simplices: np.ndarray, counts: np.ndarray, qc: np.ndarray) -> np.ndarray:
    """Distinct m-vertex faces of the facets whose lattice counts box q."""
    m = counts.shape[1]
    # Vertex slot first, so each box bound is an elementwise minimum or
    # maximum over a few long rows rather than a reduction over short ones.
    corners = counts[simplices.T]
    lo, hi = np.minimum.reduce(corners), np.maximum.reduce(corners)
    facets = simplices[np.all((lo <= qc) & (hi >= qc), axis=1)]
    subsets = list(combinations(range(facets.shape[1]), m))
    ridges = np.sort(facets[:, subsets].reshape(-1, m), axis=1)
    corners = counts[ridges.T]
    lo, hi = np.minimum.reduce(corners), np.maximum.reduce(corners)
    return _unique_rows(ridges[np.all((lo <= qc) & (hi >= qc), axis=1)])[0]


def _face_witnesses(
    ridges: np.ndarray, counts: np.ndarray, qc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric weights of q in each face that contains it, one batched
    solve of the m x m count systems; one row per distinct point."""
    m = counts.shape[1]
    systems = counts[ridges].transpose(0, 2, 1).astype(float)
    regular = np.abs(np.linalg.det(systems)) > 0.5  # integer determinants
    atoms, systems = ridges[regular], systems[regular]
    rhs = np.broadcast_to(qc.astype(float), (atoms.shape[0], m))[..., None]
    weights = np.linalg.solve(systems, rhs)[..., 0]
    spans = np.all(weights >= -_BARY_TOL, axis=1)
    atoms, weights = atoms[spans], weights[spans]
    weights = np.where(weights > _ATOM_TOL, weights, 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    # Faces meeting q on a shared sub-face span the same point: keep one per
    # set of atoms actually used (unused slots become -1, sorted last).
    atoms = np.where(weights > 0.0, atoms, -1)
    order = np.argsort(np.where(atoms < 0, counts.shape[0], atoms), axis=1)
    atoms = np.take_along_axis(atoms, order, axis=1)
    weights = np.take_along_axis(weights, order, axis=1)
    atoms, first = _unique_rows(atoms)
    return atoms, weights[first]


def _hull_simplices(lattice: SimplexLattice, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Facets of the lifted lattice points' hull, as rows of lattice
    indices: one qhull call in dimension m + 1 (m when the lifted set is
    flat).  It reads no marginal."""
    rank, extra = _flat_rank(lattice.points, np.column_stack([X, Y]))
    if rank == 0:
        # (f, g) affine on the lattice: every mixture of lattice points with
        # mean q lands on one point, the alphabet vertices' mixture.
        return lattice.vertices[None]
    lifted = np.column_stack([lattice.points[:, : lattice.m - 1], extra[:, :rank]])
    return ConvexHull(lifted, qhull_options="Qt QbB").simplices


def _dot(u, v):
    """Sum of products; exact on Python ints, as the walk needs."""
    return sum(map(operator.mul, u, v))


def _pivot_cap(points: int) -> int:
    """Most pivots one walk may take over a lattice of this many points,
    the opening pivots both chains share counted in each.  A walk visits
    each basis at most once.  Measured walks take up to 1.1 pivots per
    point on the smallest lattices (m = 3, N = 3) and under 0.05 at the
    default ones (see test_walk_pivots_stay_under_cap)."""
    return 4 * points + 64


def _pivot(
    adj: list[list[int]], det: int, u: list[int], r: int
) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of the basis after its column r is replaced
    by the column a with u = adj a, by integer-preserving (Edmonds-Bareiss)
    pivoting in O(m^2) Python-integer operations: the determinant becomes
    u[r] (> 0 by the ratio test), row r is kept and each other row i
    becomes (u[r] adj[i] - u[i] adj[r]) / det, an exact division.  Python
    integers do not overflow, so the walk stays exact at any determinant.
    The walk's first adjugate is closed form (see _x_phase), with no
    elimination; every later one comes from this update."""
    ur, top = u[r], adj[r]
    new = []
    for i, (row, ui) in enumerate(zip(adj, u)):
        if i == r:
            new.append(top)
            continue
        out = []
        for a, b in zip(row, top):
            quot, rem = divmod(ur * a - ui * b, det)
            if rem:
                raise RuntimeError(f"basis adjugate is not exact (determinant {det})")
            out.append(quot)
        new.append(out)
    return new, ur


def _lex_leaving(adj: list[list[int]], rhs: list[int], u: list[int]) -> int:
    """Lexicographic ratio test: the row r with u[r] > 0 whose row of
    [weights, B^-1 B_0] / u[r] is smallest, compared exactly in integers.
    Rows of B^-1 B_0 are independent, so the minimum is unique, and
    degenerate pivots cannot cycle.  The weight ratios w[i] / u[i] compare
    by cross-multiplication.  B_0 is the start basis N J (see _x_phase), so
    row i of adj B_0 is N times adj[i] reversed; the rest of the key drops
    that common factor, and is built (scaled by the tied rows' prod(u) /
    u[i]) only for rows whose weight ratios tie exactly.  One pass weighs
    each eligible row and keeps the rows tied at the least ratio so far."""
    tied: list[int] = []
    for i, ui in enumerate(u):
        if ui > 0:
            wi = _dot(adj[i], rhs)
            if not tied or wi * ub < wb * ui:
                tied, wb, ub = [i], wi, ui
            elif wi * ub == wb * ui:
                tied.append(i)
    if len(tied) == 1:
        return tied[0]
    scale = math.prod(u[i] for i in tied)
    return min(tied, key=lambda i: [a * (scale // u[i]) for a in reversed(adj[i])])


@dataclass(frozen=True, eq=False)
class _SliceLP:
    """What every walk over one slice shares, built once per slice: the
    lattice counts, their transpose as a C-contiguous float (m, K) matrix
    for pricing, the integer right-hand side, the pricing and breakpoint
    tolerances, and the pivot cap of each walk."""

    counts: np.ndarray
    CT: np.ndarray
    rhs: list[int]
    tol: float
    brk: float
    cap: int

    def too_many_pivots(self) -> RuntimeError:
        return RuntimeError(
            f"simplex walk took more than {self.cap} pivots on {self.counts.shape[0]} lattice points"
        )


def _price(
    lp: _SliceLP, XY: np.ndarray, XYB: np.ndarray, adj: list[list[int]], det: int, out: np.ndarray
) -> None:
    """Reduced costs of the rows of XY at the basis, written to out: XY
    less one product of the 2 x m multipliers XYB adj / det with lp.CT,
    XYB being XY's basis columns.  Each row is rounded alike whatever the
    other row holds."""
    np.dot(XYB @ (np.array(adj, dtype=float) / det), lp.CT, out=out)
    np.subtract(XY, out, out=out)


def _enter(
    lp: _SliceLP, adj: list[list[int]], det: int, j: int
) -> tuple[list[list[int]], int, int]:
    """Pivot column j into the basis, with the lexicographic ratio test
    choosing the row r it replaces; returns the new adjugate and
    determinant, and r."""
    entering = lp.counts[j].tolist()
    u = [_dot(row, entering) for row in adj]
    r = _lex_leaving(adj, lp.rhs, u)
    return *_pivot(adj, det, u, r), r


def _x_phase(
    lp: _SliceLP, XY: np.ndarray, start: list[int]
) -> tuple[list[int], list[list[int]], int, int]:
    """The opening pivots at lam = -inf, which both chains share: from the
    basis start, the m alphabet vertices in lattice order, bring in the
    column with the most negative X reduced cost until none lies below
    -tol.  They read the X row alone, so they are the same for Y and -Y;
    XY is either chain's (X, Y), priced as the chain prices it, so a tie
    between columns breaks as it would in the chain.  The start basis (as
    columns) is N J, with J the reversal, so its adjugate is N^(m-1) J and
    its determinant N^m in closed form.  Returns the basis, its adjugate
    and determinant, and the number of pivots taken."""
    m, N = len(start), int(lp.counts[start[0]].sum())
    basis, XYB = list(start), XY[:, start]
    adj = [[N ** (m - 1) if i + k == m - 1 else 0 for k in range(m)] for i in range(m)]
    det = N**m
    reduced = np.empty_like(XY)
    dX = reduced[0]
    for pivots in range(lp.cap + 1):
        _price(lp, XY, XYB, adj, det, reduced)
        j = int(dX.argmin())
        if dX.item(j) >= -lp.tol:
            return basis, adj, det, pivots
        adj, det, r = _enter(lp, adj, det, j)
        basis[r], XYB[:, r] = j, XY[:, j]
    raise lp.too_many_pivots()


def _walk(
    lp: _SliceLP, XY: np.ndarray, opening: tuple[list[int], list[list[int]], int, int]
) -> list[list[int]]:
    """Optimal bases of the parametric LP
    min sum a_i (Y_i - lam X_i)  s.t.  sum a_i counts_i = rhs, a >= 0
    with (X, Y) the rows of XY, as lam runs from -inf to +inf, one per
    vertex of the lower chain, from the basis, adjugate, determinant and
    pivot count _x_phase left.  rhs is q scaled to integers, so the bases
    are those of the LP at q.

    At lam = -inf the objective is X, ties broken by Y: after the shared
    X pivots, columns whose X reduced cost is zero and whose Y reduced
    cost is negative enter.  From there each pivot brings in the column
    with the smallest breakpoint dY_j / dX_j over dX_j > 0, and lam moves
    up to it.  A basis whose next breakpoint lies past its own lam is a
    vertex; bases visited at one breakpoint span points on that edge and
    are not kept.  Weights and ratios are exact integer adjugate products,
    so degenerate pivots are recognised exactly, and the lexicographic
    ratio test keeps them from cycling.  The adjugate and determinant are
    Python integers, so there is no int64 ceiling on them; each pivot
    updates them in O(m^2) integer operations (_pivot).  Pricing reads
    the adjugate as floats: one product over the lattice per pivot
    (_price), with XY's basis columns in a 2 x m block that each pivot
    updates in place.  The opening pivots count against the cap as if this
    walk had taken them itself.
    """
    basis, adj, det, pivots = opening
    basis, XYB = list(basis), XY[:, basis]
    tol, brk = lp.tol, lp.brk
    reduced, ratios = np.empty_like(XY), np.empty(XY.shape[1])
    rising = np.empty(XY.shape[1], dtype=bool)
    dX, dY = reduced
    lam = -math.inf
    vertices = []
    for _ in range(lp.cap + 1 - pivots):
        _price(lp, XY, XYB, adj, det, reduced)
        j = -1
        if lam == -math.inf:
            # Lexicographic (X, Y) pricing until the basis is optimal.
            j = int(dX.argmin())
            if dX.item(j) >= -tol:
                flat = (dX <= tol) & (dY < -tol)
                j = int(np.where(flat, dY, np.inf).argmin()) if flat.any() else -1
        if j < 0:
            # Breakpoints of the columns with dX > tol, inf elsewhere: an
            # infinite least one means no column rises and lam ends here.
            ratios.fill(np.inf)
            np.greater(dX, tol, out=rising)
            np.divide(dY, dX, out=ratios, where=rising)
            j = int(ratios.argmin())
            ratio = ratios.item(j)
            if ratio == math.inf:
                vertices.append(list(basis))
                return vertices
            # Optimal from lam up to a later breakpoint: a vertex.
            if lam == -math.inf or dY.item(j) - lam * dX.item(j) > brk:
                vertices.append(list(basis))
            lam = max(lam, ratio)
        adj, det, r = _enter(lp, adj, det, j)
        basis[r], XYB[:, r] = j, XY[:, j]
    raise lp.too_many_pivots()


def _walk_faces(lattice: SimplexLattice, X: np.ndarray, Y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Atom sets of the distinct vertex bases of two parametric simplex
    walks, one for the lower chain (Y) and one for the upper chain (-Y),
    which go on from one run of their common opening pivots (_x_phase)."""
    # Every float is a dyadic rational, so scaling q by its largest
    # denominator gives integers proportional to q: the ratio test stays
    # exact.
    exact = [Fraction(v) for v in q.tolist()]
    den = max(v.denominator for v in exact)
    scale = max(float(np.abs(X).max()), float(np.abs(Y).max()), 1.0)
    lp = _SliceLP(
        counts=lattice.counts,
        CT=np.ascontiguousarray(lattice.counts.T, dtype=float),
        rhs=[int(v * den) for v in exact],
        tol=_PRICE_TOL * scale,
        brk=_BREAK_TOL * scale,
        cap=_pivot_cap(lattice.size),
    )
    lower, upper = np.vstack([X, Y]), np.vstack([X, -Y])
    # The alphabet vertices are a basis feasible for every q (weights q).
    opening = _x_phase(lp, lower, lattice.vertices.tolist())
    bases = _walk(lp, lower, opening) + _walk(lp, upper, opening)
    return _unique_rows(np.sort(bases, axis=1))[0]


def region_slice(graph: LagrangianGraph) -> RegionSlice:
    """Achievable region at the graph's marginal q: the 2-D hull of the
    slice at q of the convex hull of the lifted lattice points and of the
    single atom q.

    The lattice slice's vertices are mixtures with mean q of at most m
    lattice points.  For m = 2 they come from the m-vertex faces of one
    qhull hull that contain q (a 3-D hull is cheaper than one walk pivot
    per vertex).  For m >= 3 they are the vertex bases of two parametric
    simplex walks (see _walk), which share their opening pivots
    (_x_phase): a hull in dimension m + 1 grows far faster than the walks.
    Each candidate's barycentric weights are its witness, and a 2-D hull
    of the candidates and (f(q), g(Tq)) keeps the vertices.  An m = 2
    slice keeps the hull's simplices (see RegionSlice.at).
    """
    lattice, K = graph.lattice, graph.lattice.size
    X, Y = graph.x_values[:K], graph.y_values[:K]
    if lattice.m > 2:
        return _polygon(graph, _walk_faces(lattice, X, Y, graph.q))
    return _cut_hull(graph, _hull_simplices(lattice, X, Y))


def _cut_hull(graph: LagrangianGraph, simplices: np.ndarray) -> RegionSlice:
    """The slice at the graph's q cut from the faces of simplices, the
    lifted hull of its lattice values, which it keeps."""
    lattice = graph.lattice
    ridges = _ridges_around(simplices, lattice.counts, graph.q * lattice.resolution)
    return _polygon(graph, ridges, simplices)


def _polygon(
    graph: LagrangianGraph, ridges: np.ndarray, simplices: np.ndarray | None = None
) -> RegionSlice:
    """The slice whose lattice candidates are the faces ridges (rows of
    lattice indices), each weighed here (_face_witnesses); simplices is
    kept on it."""
    lattice, m, K = graph.lattice, graph.lattice.m, graph.lattice.size
    X = np.asarray(graph.x_values, dtype=float)
    Y = np.asarray(graph.y_values, dtype=float)
    atoms, weights = _face_witnesses(ridges, lattice.counts, graph.q * lattice.resolution)
    cx = np.einsum("ki,ki->k", weights, X[atoms])
    cy = np.einsum("ki,ki->k", weights, Y[atoms])
    # The single atom q (row K) replaces the candidates at its point.
    tol = _SAME_TOL * max(float(np.abs(X).max()), float(np.abs(Y).max()), 1.0)
    apart = (np.abs(cx - X[K]) > tol) | (np.abs(cy - Y[K]) > tol)
    trivial = np.full((1, m), -1)
    trivial[0, 0] = K
    atoms = np.vstack([atoms[apart], trivial])
    weights = np.vstack([weights[apart], np.eye(1, m)])
    cx = np.append(cx[apart], X[K])
    cy = np.append(cy[apart], Y[K])
    lower, upper = _boundary_chains(cx, cy)
    keep, inverse = np.unique(np.concatenate([lower, upper]), return_inverse=True)
    arrays = [cx[keep], cy[keep], atoms[keep], weights[keep]]
    for arr in arrays:
        arr.setflags(write=False)
    return RegionSlice(
        graph,
        *arrays,
        lower=inverse[: lower.size],
        upper=inverse[lower.size :],
        simplices=simplices,
    )
