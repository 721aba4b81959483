"""Brute-force boundary verification by direct search over witness channels.

Independent of the envelope machinery (it imports core alone): witnesses
are enumerated explicitly, their weights solved from the marginal
constraint, and the extremal objective taken subject to the x constraint.
The search follows from the alphabet alone (|W| <= |X| + 1, Witsenhausen &
Wyner):

- binary: every mixture of grid atoms at the marginal is a convex
  combination of two-atom witnesses straddling it, so both entry points
  read the best point of the hull of that pair cloud, which is exhaustive
  over the grid: the hull chain's extreme vertex, or its value at the
  target.  The chain reads a large cloud in two passes: a coarse chain
  through cloud points first, then only the points not above it, which
  cannot be vertices as they lie above a chord (see _hull_indices);
- ternary: _RESTARTS fixed seeded sets of m + 1 random grid atoms, every
  m-atom subset of each set weighed, plus the single atom q and the
  alphabet vertices weighted by q.  A mixture at q of m + 1 atoms is also a
  mixture of m of them (Caratheodory), and m affinely independent atoms
  have unique weights.

Restricted search can only land inside the achievable region, so oracle
minima upper-bound the true funnel values and oracle maxima lower-bound the
true bottleneck values; acceptance comparisons are one-sided plus closeness
where a closed form exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .core import (
    _MIX_TOL,
    Channel,
    Distribution,
    DivergenceKernel,
    WitnessChannel,
    _as_source,
    _check_direction,
    _pair_values,
    _resolve_pair,
    _trusted,
    bsc_source,
    mixture_weights,
)

_FEAS_EPS = 1e-12
# The ternary search: this many seeded sets of m + 1 random grid atoms.
_RESTARTS = 256
_SEED = 0


@dataclass(frozen=True)
class OracleConfig:
    """Atom grid of the search: multiples of 1 / grid_resolution."""

    grid_resolution: int = 128

    def __post_init__(self) -> None:
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")


@dataclass(frozen=True, eq=False)
class OraclePoint:
    """Best feasible objective found at one x target.  It keeps the atoms
    P, weights w and marginal found; witness, the checked WitnessChannel of
    them, is built on first read (A4 reads best_y alone)."""

    x_target: float
    direction: str
    best_y: float
    feasible: bool
    x_achieved: float
    P: np.ndarray
    w: np.ndarray
    marginal: np.ndarray

    @cached_property
    def witness(self) -> WitnessChannel:
        """The witness of weights w on the rows of P at the marginal."""
        atoms = tuple(
            (float(a), Distribution(row)) for a, row in zip(self.w, self.P) if a > 1e-13
        )
        return WitnessChannel(atoms=atoms, marginal=_trusted(Distribution, probs=self.marginal))


def _feasible(x: float, x_target: float, direction: str) -> bool:
    if direction == "upper":
        return x <= x_target + _FEAS_EPS
    return x >= x_target - _FEAS_EPS


def _chain(xv, yv, order, sign: float) -> list[int]:
    """Andrew's monotone chain over the cloud points in order, sorted by x
    and then by sign * y: the lower chain of (x, sign * y).  A point within
    1e-15 of the last kept point's x is skipped.  The kept points' x and y
    stay in lists beside their indices, so a turn test reads no index."""
    hull: list[int] = []
    hx: list[float] = []
    hy: list[float] = []
    for i in order:
        xi, yi = xv[i], yv[i]
        if hull and abs(xi - hx[-1]) <= 1e-15:
            continue
        while len(hull) >= 2:
            xa, ya = hx[-2], hy[-2]
            cross = (hx[-1] - xa) * sign * (yi - ya) - sign * (hy[-1] - ya) * (xi - xa)
            if cross <= 0.0:
                hull.pop()
                hx.pop()
                hy.pop()
            else:
                break
        hull.append(i)
        hx.append(xi)
        hy.append(yi)
    return hull


def _hull_indices(xs: np.ndarray, ys: np.ndarray, direction: str) -> list[int]:
    """The cloud's lower (upper) hull chain as _chain gives it over every
    point, read in two passes from 64 points on.  Sorted points within the
    skip width of a neighbour form tie runs.  The first pass chains the
    first point and, of the points outside tie runs, the last and the
    lowest (by sign * y) of each block of isqrt(n): points the skip rule
    never drops.  A point above that chain lies above a chord of two points
    the full chain reads, so it is no vertex.  The second pass reads the
    points at most 1e-9 max|y| above it and every tie-run point: what the
    skip rule drops in a run depends on the run alone."""
    sign = 1.0 if direction == "lower" else -1.0
    sy = sign * ys
    order = np.lexsort((sy, xs))
    # Zero-copy views: an item is a Python float (int), so the chain does
    # the same double arithmetic as on numpy scalars without their cost.
    xv, yv = memoryview(xs), memoryview(ys)
    n, fp = order.size, np.finfo(float)
    ymax = float(np.abs(ys).max()) if n else 0.0
    # The margin needs cross products (x by y differences) that neither
    # overflow nor underflow for differences down to one ulp.
    if n < 64 or not fp.tiny / fp.eps**2 < float(np.abs(xs).max()) * ymax < fp.max / 8:
        return _chain(xv, yv, memoryview(order), sign)
    sx, sy = xs[order], sy[order]
    near = np.diff(sx) <= 1e-15
    run = np.append(near, False) | np.insert(near, 0, False)
    free, b = np.flatnonzero(~run), math.isqrt(n)
    key = np.full(-(-free.size // b) * b, np.inf)
    key[: free.size] = sy[free]
    low = free[key.reshape(-1, b).argmin(axis=1) + np.arange(0, key.size, b)]
    coarse = _chain(xv, yv, memoryview(order[np.unique(np.r_[0, low, free[-1:]])]), sign)
    bound = np.interp(sx, xs[coarse], sign * ys[coarse]) + 1e-9 * ymax
    return _chain(xv, yv, memoryview(order[run | ~(sy > bound)]), sign)


def _reduce_mixture(
    P: np.ndarray,
    w: np.ndarray,
    fvals: np.ndarray,
    gvals: np.ndarray,
    direction: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Prune a mixture to at most m+1 atoms while preserving the marginal,
    total mass, and E[f], never worsening E[g] for the given direction.

    Moves along a null direction of the constraint system until a weight
    hits zero; the constraint rank is at most m+1, so any larger mixture
    admits such a move.
    """
    m = P.shape[1]
    while len(w) > m + 1:
        M = np.vstack([P.T, np.ones(len(w)), fvals])
        # The first right singular vector past M's numerical rank spans
        # part of its null space (the rank cut-off of scipy's null_space).
        _, sing, vt = np.linalg.svd(M)
        rank = int(np.sum(sing > sing.max() * max(M.shape) * np.finfo(float).eps))
        if rank == vt.shape[0]:
            break
        d = vt[rank]
        pos = d > 1e-14
        neg = d < -1e-14
        if not (np.any(pos) and np.any(neg)):
            break
        gamma_fwd = float(np.min(w[neg] / -d[neg]))  # +gamma zeroes a neg-d weight
        gamma_back = float(np.min(w[pos] / d[pos]))  # -gamma zeroes a pos-d weight
        rate = float(d @ gvals)
        if direction == "upper":
            step = gamma_fwd if rate >= 0 else -gamma_back
        else:
            step = -gamma_back if rate >= 0 else gamma_fwd
        w = w + step * d
        keep = w > 1e-13
        P, w, fvals, gvals = P[keep], w[keep], fvals[keep], gvals[keep]
        w = w / w.sum()
    return P, w, fvals, gvals


class _BinaryCloud:
    """The achievable set of every mixture of scalar grid atoms with mean q,
    for a binary source: the convex hull of the cloud of two-atom witnesses
    straddling q, plus the single atom at q.  Any richer mixture at the
    same marginal is a convex combination of these (|W| <= |X| + 1).

    Atom k is the row P[k]; the last row is the marginal.  Cloud point c
    mixes atoms ilo[c] and ihi[c] with weights wlo[c] and 1 - wlo[c]."""

    def __init__(self, f_fn, g_fn, Tmat: np.ndarray, q: float, resolution: int):
        ps = np.linspace(0.0, 1.0, resolution + 1)
        self.P = np.vstack([np.column_stack([1.0 - ps, ps]), [1.0 - q, q]])
        self.F, self.G = _pair_values(f_fn, g_fn, Tmat, self.P)
        lo, hi = np.meshgrid(np.flatnonzero(ps < q), np.flatnonzero(ps > q), indexing="ij")
        wlo = (ps[hi] - q) / (ps[hi] - ps[lo])
        self.ilo = np.append(lo.ravel(), ps.size)
        self.ihi = np.append(hi.ravel(), ps.size)
        self.wlo = np.append(wlo.ravel(), 1.0)
        self.xs = self.wlo * self.F[self.ilo] + (1.0 - self.wlo) * self.F[self.ihi]
        self.ys = self.wlo * self.G[self.ilo] + (1.0 - self.wlo) * self.G[self.ihi]
        self._chains: dict[str, np.ndarray] = {}

    def best(self, x_target: float, direction: str) -> tuple | None:
        """(y, P, w, x) of the best point of the cloud's hull meeting the x
        constraint, or None when none does."""
        sign = 1.0 if direction == "lower" else -1.0
        if direction not in self._chains:
            self._chains[direction] = np.array(_hull_indices(self.xs, self.ys, direction))
        chain = self._chains[direction]
        # The lower chain is convex (the upper concave), so past its extreme
        # vertex the best feasible point is the chain's value at x_target.
        k = int(np.argmin(sign * self.ys[chain]))
        if _feasible(self.xs[chain[k]], x_target, direction):
            return self._mix(chain[k : k + 1], np.array([1.0]), direction)
        hx = self.xs[chain]
        t = min(max(x_target, hx[0]), hx[-1])
        if not _feasible(t, x_target, direction):
            return None
        # Chain x values are strictly increasing, and a chain with one
        # vertex returned above or here.
        j = max(int(np.searchsorted(hx, t)), 1)
        mu = (hx[j] - t) / (hx[j] - hx[j - 1])
        return self._mix(chain[j - 1 : j + 1], np.array([mu, 1.0 - mu]), direction)

    def _mix(self, cloud: np.ndarray, mu: np.ndarray, direction: str) -> tuple:
        """(y, P, w, x) of the mixture of cloud points with weights mu, its
        repeated atoms merged and pruned to at most three atoms."""
        ids, inv = np.unique(
            np.concatenate([self.ilo[cloud], self.ihi[cloud]]), return_inverse=True
        )
        w = np.bincount(
            inv, weights=np.concatenate([mu * self.wlo[cloud], mu * (1.0 - self.wlo[cloud])])
        )
        keep = w > 1e-13
        ids, w = ids[keep], w[keep]
        P, w, f, g = _reduce_mixture(self.P[ids], w, self.F[ids], self.G[ids], direction)
        return float(w @ g), P, w, float(w @ f)


def _point(
    x_target: float, direction: str, best: tuple | None, trivial: tuple, marginal: np.ndarray
) -> OraclePoint:
    """The OraclePoint of the best (y, P, w, x) found, or of the single-atom
    witness trivial, flagged infeasible, when nothing met the x constraint."""
    y, P, w, x = trivial if best is None else best
    return OraclePoint(
        x_target=x_target,
        direction=direction,
        best_y=float(y),
        feasible=best is not None,
        x_achieved=x,
        P=P,
        w=w,
        marginal=marginal,
    )


def _x_targets(x) -> list[float]:
    """The x targets as floats, refused when one is nan."""
    xs = np.asarray(x, dtype=float).ravel()
    if np.isnan(xs).any():
        raise ValueError("x target is nan")
    return xs.tolist()


def _binary_points(
    f_fn, g_fn, channel: Channel, marginal: np.ndarray, x_targets, direction: str, resolution: int
) -> list[OraclePoint]:
    """The best point of the pair cloud's hull at each x target."""
    cloud = _BinaryCloud(f_fn, g_fn, channel.matrix, float(marginal[1]), resolution)
    trivial = (float(cloud.G[-1]), cloud.P[-1:], np.array([1.0]), float(cloud.F[-1]))
    return [
        _point(x_t, direction, cloud.best(x_t, direction), trivial, marginal)
        for x_t in x_targets
    ]


def oracle_exhaustive_binary(
    f_kernel: DivergenceKernel,
    g_kernel: DivergenceKernel,
    delta: float,
    q: float,
    x_grid,
    direction: str,
    resolution: int = 512,
) -> list[OraclePoint]:
    """Complete-to-grid-granularity search for a binary source through a
    symmetric channel: at each x target, the best point of the hull of the
    two-atom witnesses straddling the marginal on a scalar grid (a mixture
    of two of them, pruned back to at most three atoms)."""
    _check_direction(direction)
    source = bsc_source(q, delta)
    x_targets = _x_targets(x_grid)
    grid = OracleConfig(resolution).grid_resolution
    marginal, channel = _as_source(*source)
    f_fn, g_fn = _resolve_pair(f_kernel, g_kernel, marginal, channel)
    return _binary_points(f_fn, g_fn, channel, marginal, x_targets, direction, grid)


def _random_grid_atom(rng: np.random.Generator, m: int, resolution: int) -> np.ndarray:
    raw = rng.exponential(size=m)
    p = raw / raw.sum()
    scaled = p * resolution
    base = np.floor(scaled).astype(int)
    short = resolution - int(base.sum())
    if short:
        order = np.argsort(scaled - base)[::-1]
        base[order[:short]] += 1
    return base / float(resolution)


def oracle_boundary(
    f_kernel: DivergenceKernel,
    g_kernel: DivergenceKernel,
    T: Channel | np.ndarray,
    q: Distribution | np.ndarray,
    x_target: float,
    direction: str,
    cfg: OracleConfig,
) -> OraclePoint:
    """Best feasible objective over enumerated witnesses on the grid of cfg.

    A binary alphabet gets the best point of the straddling-pair cloud's
    hull, as oracle_exhaustive_binary does.  A ternary one gets the single
    atom q, the alphabet vertices weighted by q, and _RESTARTS seeded sets
    of m + 1 random grid atoms, each m-atom subset of a set weighted by
    mixture_weights on the marginal constraint (subsets that are affinely
    dependent or cannot reproduce the marginal within tolerance are
    skipped).  When nothing satisfies the x constraint the single-atom
    witness is reported with feasible=False.
    """
    _check_direction(direction)
    qv, channel = _as_source(q, T)
    m = qv.size
    if m > 3:
        raise ValueError("oracle_boundary supports m <= 3")
    (x_target,) = _x_targets(x_target)
    f_fn, g_fn = _resolve_pair(f_kernel, g_kernel, qv, channel)
    if m == 2:
        return _binary_points(
            f_fn, g_fn, channel, qv, [x_target], direction, cfg.grid_resolution
        )[0]

    def evaluate(P: np.ndarray, w: np.ndarray) -> tuple:
        fv, gv = _pair_values(f_fn, g_fn, channel.matrix, P)
        return float(w @ gv), P, w, float(w @ fv)

    best: tuple | None = None  # (y, P, w, x) of the best feasible witness

    def consider(found: tuple) -> None:
        nonlocal best
        y = found[0]
        better = best is None or (y > best[0] if direction == "upper" else y < best[0])
        if better and _feasible(found[3], x_target, direction):
            best = found

    trivial = evaluate(qv[None, :], np.array([1.0]))
    consider(trivial)
    vertex_keep = qv > 1e-13
    consider(evaluate(np.eye(m)[vertex_keep], qv[vertex_keep] / qv[vertex_keep].sum()))

    rng = np.random.default_rng(_SEED)
    pool = [
        _random_grid_atom(rng, m, cfg.grid_resolution) for _ in range(_RESTARTS * (m + 1))
    ]
    for trial in range(_RESTARTS):
        atoms = np.vstack(pool[trial * (m + 1) : (trial + 1) * (m + 1)])
        for subset in combinations(range(m + 1), m):
            P = atoms[list(subset)]
            try:
                w, residual = mixture_weights(P, qv)
            except ValueError:  # affinely dependent atoms
                continue
            if residual > _MIX_TOL:
                continue
            keep = w > 1e-13
            consider(evaluate(P[keep], w[keep] / w[keep].sum()))
    return _point(x_target, direction, best, trivial, qv)
