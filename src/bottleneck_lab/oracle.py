"""Brute-force boundary verification by direct search over witness channels.

Independent of the envelope machinery: witnesses are enumerated explicitly
(atom grids for binary alphabets, seeded random atom sets otherwise), their
weights solved from the marginal constraint, and the extremal objective
taken subject to the x constraint.  Restricted search can only land inside
the achievable region, so oracle minima upper-bound the true funnel values
and oracle maxima lower-bound the true bottleneck values; acceptance
comparisons are one-sided plus closeness where a closed form exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .core import Channel, Distribution, DivergenceKernel, mixture_weights
from .sweep import WitnessChannel, _as_channel, _resolve_pair

_FEAS_EPS = 1e-12
# Random atom sets whose nnls weights miss the marginal by more than this
# are skipped.
_MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    """Search budget; results are deterministic given the seed."""

    atom_budget: int = 3
    grid_resolution: int = 128
    restarts: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.atom_budget < 1:
            raise ValueError("atom_budget must be >= 1")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")


@dataclass(frozen=True, eq=False)
class OraclePoint:
    """Best feasible objective found at one x target."""

    x_target: float
    direction: str
    best_y: float
    witness: WitnessChannel
    feasible: bool
    x_achieved: float


def _is_better(y: float, best: tuple | None, direction: str) -> bool:
    """Whether y beats the incumbent (y, P, w, x), if there is one."""
    if best is None:
        return True
    return y > best[0] if direction == "upper" else y < best[0]


def _feasible(x: float, x_target: float, direction: str) -> bool:
    if direction == "upper":
        return x <= x_target + _FEAS_EPS
    return x >= x_target - _FEAS_EPS


def _hull_indices(xs: np.ndarray, ys: np.ndarray, direction: str) -> list[int]:
    order = np.lexsort((ys if direction == "lower" else -ys, xs))
    sign = 1.0 if direction == "lower" else -1.0
    # Zero-copy views: an item is a Python float (int), so the chain does
    # the same double arithmetic as on numpy scalars without their cost.
    xv, yv = memoryview(xs), memoryview(ys)
    hull: list[int] = []
    for i in memoryview(order):
        xi, yi = xv[i], yv[i]
        if hull and abs(xi - xv[hull[-1]]) <= 1e-15:
            continue
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            xa, ya = xv[a], yv[a]
            cross = (xv[b] - xa) * sign * (yi - ya) - sign * (yv[b] - ya) * (xi - xa)
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


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
        ns = null_space(M)
        if ns.shape[1] == 0:
            break
        d = ns[:, 0]
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


def _witness_from(P: np.ndarray, w: np.ndarray, marginal: np.ndarray) -> WitnessChannel:
    atoms = tuple(
        (float(a), Distribution(row)) for a, row in zip(w, P) if a > 1e-13
    )
    return WitnessChannel(atoms=atoms, marginal=Distribution(marginal))


class _BinaryCloud:
    """All one- and two-atom witnesses on a scalar grid for a binary source,
    with hulls over the witness cloud providing the exact-x mixtures (any
    richer mixture at the same marginal is a convex combination of these)."""

    def __init__(self, f_fn, g_fn, Tmat: np.ndarray, q: float, resolution: int):
        self.q = float(q)
        ps = np.linspace(0.0, 1.0, resolution + 1)
        self.ps = ps
        P = np.column_stack([1.0 - ps, ps])
        self.F = np.asarray(f_fn(P), dtype=float)
        self.G = np.asarray(g_fn(P @ Tmat.T), dtype=float)
        self.marginal = np.array([1.0 - self.q, self.q])
        self.f_trivial = float(f_fn(self.marginal[None, :])[0])
        self.g_trivial = float(g_fn((Tmat @ self.marginal)[None, :])[0])

        lo = np.where(ps < self.q)[0]
        hi = np.where(ps > self.q)[0]
        if lo.size and hi.size:
            plo = ps[lo][:, None]
            phi = ps[hi][None, :]
            wlo = (phi - self.q) / (phi - plo)
            x = wlo * self.F[lo][:, None] + (1.0 - wlo) * self.F[hi][None, :]
            y = wlo * self.G[lo][:, None] + (1.0 - wlo) * self.G[hi][None, :]
            ii, jj = np.meshgrid(lo, hi, indexing="ij")
            self.xs = np.append(x.ravel(), self.f_trivial)
            self.ys = np.append(y.ravel(), self.g_trivial)
            self.ilo = np.append(ii.ravel(), -1)
            self.ihi = np.append(jj.ravel(), -1)
            self.wlo = np.append(wlo.ravel(), 1.0)
        else:
            self.xs = np.array([self.f_trivial])
            self.ys = np.array([self.g_trivial])
            self.ilo = np.array([-1])
            self.ihi = np.array([-1])
            self.wlo = np.array([1.0])

        self._order = np.argsort(self.xs, kind="stable")
        self._xs_sorted = self.xs[self._order]
        ys_sorted = self.ys[self._order]
        idx = np.arange(ys_sorted.size)
        run_max = np.maximum.accumulate(ys_sorted)
        new_max = ys_sorted >= np.concatenate(([-np.inf], run_max[:-1]))
        self._prefix_max = run_max
        self._prefix_argmax = np.maximum.accumulate(np.where(new_max, idx, -1))
        run_min = np.minimum.accumulate(ys_sorted[::-1])[::-1]
        new_min = ys_sorted <= np.concatenate((run_min[1:], [np.inf]))
        self._suffix_min = run_min
        carrier = np.where(new_min, idx, idx.size)
        self._suffix_argmin = np.minimum.accumulate(carrier[::-1])[::-1]
        self._hulls: dict[str, list[int]] = {}

    def atoms_of(self, cloud_idx: int) -> tuple[np.ndarray, np.ndarray]:
        i = int(self.ilo[cloud_idx])
        j = int(self.ihi[cloud_idx])
        if i < 0:
            return self.marginal[None, :], np.array([1.0])
        w = float(self.wlo[cloud_idx])
        P = np.array([[1.0 - self.ps[i], self.ps[i]], [1.0 - self.ps[j], self.ps[j]]])
        return P, np.array([w, 1.0 - w])

    def fg_of(self, cloud_idx: int) -> tuple[np.ndarray, np.ndarray]:
        i = int(self.ilo[cloud_idx])
        j = int(self.ihi[cloud_idx])
        if i < 0:
            return np.array([self.f_trivial]), np.array([self.g_trivial])
        return self.F[[i, j]], self.G[[i, j]]

    def best_single(self, x_target: float, direction: str) -> tuple[float, int] | None:
        xs = self._xs_sorted
        if direction == "upper":
            k = int(np.searchsorted(xs, x_target + _FEAS_EPS, side="right")) - 1
            if k < 0:
                return None
            return float(self._prefix_max[k]), int(self._order[self._prefix_argmax[k]])
        k = int(np.searchsorted(xs, x_target - _FEAS_EPS, side="left"))
        if k >= xs.size:
            return None
        return float(self._suffix_min[k]), int(self._order[self._suffix_argmin[k]])

    def hull_mixture(
        self, x_target: float, direction: str
    ) -> tuple[float, int, int, float] | None:
        if direction not in self._hulls:
            self._hulls[direction] = _hull_indices(self.xs, self.ys, direction)
        hull = self._hulls[direction]
        hx = self.xs[hull]
        if not (hx[0] - _FEAS_EPS <= x_target <= hx[-1] + _FEAS_EPS):
            return None
        j = int(np.searchsorted(hx, x_target, side="left"))
        j = min(max(j, 1), len(hull) - 1) if len(hull) > 1 else 0
        if len(hull) == 1:
            return float(self.ys[hull[0]]), hull[0], hull[0], 1.0
        a, b = hull[j - 1], hull[j]
        span = self.xs[b] - self.xs[a]
        mu = 1.0 if span <= 0 else (self.xs[b] - x_target) / span
        mu = min(max(mu, 0.0), 1.0)
        y = mu * self.ys[a] + (1.0 - mu) * self.ys[b]
        return float(y), a, b, float(mu)

    def materialize(
        self, a: int, b: int, mu: float, direction: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        Pa, wa = self.atoms_of(a)
        Pb, wb = self.atoms_of(b)
        fa, ga = self.fg_of(a)
        fb, gb = self.fg_of(b)
        P = np.vstack([Pa, Pb])
        w = np.concatenate([mu * wa, (1.0 - mu) * wb])
        f = np.concatenate([fa, fb])
        g = np.concatenate([ga, gb])
        # Merge coincident atoms before pruning.
        _, inv = np.unique(np.round(P[:, 1] * 1e12).astype(np.int64), return_inverse=True)
        if inv.max() + 1 < len(w):
            k = inv.max() + 1
            Pm = np.zeros((k, P.shape[1]))
            wm = np.zeros(k)
            fm = np.zeros(k)
            gm = np.zeros(k)
            for src, dst in enumerate(inv):
                wm[dst] += w[src]
                Pm[dst] = P[src]
                fm[dst] = f[src]
                gm[dst] = g[src]
            P, w, f, g = Pm, wm, fm, gm
        keep = w > 1e-13
        P, w, f, g = P[keep], w[keep], f[keep], g[keep]
        return _reduce_mixture(P, w, f, g, direction)

    def improve(
        self, best: tuple | None, x_target: float, direction: str, mixtures: bool
    ) -> tuple | None:
        """The incumbent (y, P, w, x), or None, replaced by the best
        single cloud witness meeting the x constraint and then, with
        mixtures, by the exact-x hull mixture, wherever they are better."""
        single = self.best_single(x_target, direction)
        if single is not None and _is_better(single[0], best, direction):
            y, idx = single
            best = (y, *self.atoms_of(idx), float(self.xs[idx]))
        mix = self.hull_mixture(x_target, direction) if mixtures else None
        if mix is not None and _is_better(mix[0], best, direction):
            P, w, fv, gv = self.materialize(*mix[1:], direction)
            best = (float(w @ gv), P, w, float(w @ fv))
        return best


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
    symmetric channel: two-atom witnesses straddling the marginal on a scalar
    grid, refined by exact-x mixtures (pruned back to at most three atoms)."""
    if direction not in ("lower", "upper"):
        raise ValueError(f"unknown direction {direction!r}")
    channel = Channel([[1.0 - delta, delta], [delta, 1.0 - delta]])
    marginal = np.array([1.0 - q, q])
    f_fn, g_fn = _resolve_pair(f_kernel, g_kernel, marginal, channel)
    cloud = _BinaryCloud(f_fn, g_fn, channel.matrix, q, resolution)

    out: list[OraclePoint] = []
    for x_t in np.asarray(x_grid, dtype=float):
        best = cloud.improve(None, float(x_t), direction, mixtures=True)
        feasible = best is not None
        if not feasible:
            best = (cloud.g_trivial, marginal[None, :], np.array([1.0]), cloud.f_trivial)
        y, P, w, x = best
        out.append(
            OraclePoint(
                x_target=float(x_t),
                direction=direction,
                best_y=float(y),
                witness=_witness_from(P, w, marginal),
                feasible=feasible,
                x_achieved=x,
            )
        )
    return out


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
    """Best feasible objective over enumerated witnesses.

    Binary alphabets get the full straddling-pair grid; larger alphabets use
    seeded random atom sets (all prefix sizes up to the budget, so enlarging
    the budget never loses candidates).  Weights come from nonnegative least
    squares on the marginal constraint; sets that cannot reproduce the
    marginal within tolerance are skipped.  When nothing satisfies the x
    constraint the single-atom witness is reported with feasible=False.
    """
    if direction not in ("lower", "upper"):
        raise ValueError(f"unknown direction {direction!r}")
    channel = _as_channel(T)
    qv = q.probs if isinstance(q, Distribution) else np.asarray(q, dtype=float)
    m = qv.size
    if m > 3:
        raise ValueError("oracle_boundary supports m <= 3 at default budgets")
    budget = min(cfg.atom_budget, m + 1)
    f_fn, g_fn = _resolve_pair(f_kernel, g_kernel, qv, channel)

    best: tuple | None = None  # (y, P, w, x) of the best feasible witness

    def evaluate(P: np.ndarray, w: np.ndarray) -> tuple:
        fv = float(w @ np.asarray(f_fn(P), dtype=float))
        gv = float(w @ np.asarray(g_fn(P @ channel.matrix.T), dtype=float))
        return gv, P, w, fv

    def consider(P: np.ndarray, w: np.ndarray) -> None:
        nonlocal best
        found = evaluate(P, w)
        if _feasible(found[3], x_target, direction) and _is_better(found[0], best, direction):
            best = found

    # Structured candidates: the single-atom witness and, within budget, the
    # deterministic vertex refinement.
    consider(qv[None, :], np.array([1.0]))
    vertex_keep = qv > 1e-13
    if int(vertex_keep.sum()) <= budget:
        consider(np.eye(m)[vertex_keep], qv[vertex_keep] / qv[vertex_keep].sum())

    if m == 2 and budget >= 2:
        cloud = _BinaryCloud(f_fn, g_fn, channel.matrix, float(qv[1]), cfg.grid_resolution)
        best = cloud.improve(best, x_target, direction, mixtures=budget >= 3)

    rng = np.random.default_rng(cfg.seed)
    pool = [
        _random_grid_atom(rng, m, cfg.grid_resolution)
        for _ in range(cfg.restarts * (m + 1))
    ]
    for trial in range(cfg.restarts):
        atoms = pool[trial * (m + 1) : trial * (m + 1) + m + 1]
        for size in range(1, budget + 1):
            P = np.vstack(atoms[:size])
            w, residual = mixture_weights(P, qv)
            if residual > _MARGINAL_TOL or w.sum() <= 0.0:
                continue
            w = w / w.sum()
            keep = w > 1e-13
            if not np.any(keep):
                continue
            consider(P[keep], w[keep] / w[keep].sum())

    feasible = best is not None
    if not feasible:
        best = evaluate(qv[None, :], np.array([1.0]))
    y, P, w, x = best
    return OraclePoint(
        x_target=float(x_target),
        direction=direction,
        best_y=float(y),
        witness=_witness_from(P, w, qv),
        feasible=feasible,
        x_achieved=x,
    )

