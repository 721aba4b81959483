"""Boundary curves of the achievable (E[f(p_w)], E[g(T p_w)]) region.

For a fixed channel T and marginal q, the achievable pairs over all finite
mixtures sum_w alpha_w p_w = q of simplex lattice points and q itself form
a convex polygon: the hull of the slice at p = q of the convex hull of the
lifted lattice points and of the single-atom point at q
(envelope.region_slice).  A curve is one boundary chain of that polygon,
from one x-extreme to the other: for convex f these are the single-atom
point at q and the deterministic refinement onto the alphabet vertices
(swapped for the concave entropy frame).  Between them it keeps the
vertices whose supporting slopes include some lam >= 0.  Every vertex comes
with an explicit witness channel of at most m atoms, and the point at a
given slope is a support-function query on the same polygon.  Both are read
off a BoundarySlice, so they carry the kernels, channel and q it holds.
Witnesses, their check, the resolver and the (f, g) map come from core.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    _MIX_TOL,
    Channel,
    ConfigError,
    Distribution,
    DivergenceKernel,
    WitnessChannel,
    _as_source,
    _check_direction,
    _check_witnesses,
    _pair_values,
    _resolve_pair,
    _trusted,
    mixture_weights,
)
from .envelope import (
    LagrangianGraph,
    RegionSlice,
    SimplexLattice,
    build_lagrangian_graph,
    region_slice,
)


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """One boundary point (x, y) at supporting slope lam, with its witness.
    Forced endpoints carry lam = nan."""

    lam: float
    x: float
    y: float
    witness: WitnessChannel

    @property
    def trivial(self) -> bool:
        """Whether the witness is a single atom, the marginal itself."""
        return len(self.witness.atoms) == 1


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """x-sorted boundary points for one side of the achievable region, held
    as read-only arrays.  Point k is (xs[k], ys[k]) at supporting slope
    lams[k] (nan at a forced endpoint).  Its witness mixes rows[atoms[k, j]]
    with weight weights[k, j] over the slots with atoms[k, j] >= 0 (unused
    slots hold -1 and weight 0); rows holds each lattice point (or the
    marginal, for the single-atom witness) the witnesses use once, with
    the bits the slice holds.
    points, the same chain as BoundaryPoint objects, is built on first
    access; sweep checks the witnesses when it builds the arrays, and
    points does not check them again."""

    direction: str
    marginal: Distribution
    channel: Channel
    lams: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    atoms: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    f_kernel: DivergenceKernel
    g_kernel: DivergenceKernel

    @property
    def frame(self) -> str:
        """The curve's frame: PROBLEM_FRAMES read backwards, from the kind
        both kernels share; "finfo" for mixed kinds or a kind it lacks."""
        frames = {kind: frame for table in PROBLEM_FRAMES.values() for frame, kind in table.items()}
        kind = self.f_kernel.kind
        return frames.get(kind, "finfo") if kind == self.g_kernel.kind else "finfo"

    @cached_property
    def points(self) -> tuple[BoundaryPoint, ...]:
        return _points(
            self.lams, self.xs, self.ys, self.atoms, self.weights, self.rows, self.marginal
        )


@dataclass(frozen=True, eq=False)
class BoundarySlice:
    """The achievable-region polygon of the source (channel, q) under a
    pair of kernels, cut over SimplexLattice.build(m, resolution), with
    divergences taken from q.  Built only from its source, so region (an
    envelope.RegionSlice, which keeps its graph and q) cannot be paired with
    kernels or a channel it did not come from; sweep and slice_point read
    every curve and point off one.  at gives the slice of the same kernels,
    channel and lattice at another marginal; for marginal-free kernels at
    m = 2 it is re-cut from this slice's lifted hull."""

    f_kernel: DivergenceKernel
    g_kernel: DivergenceKernel
    channel: Channel
    q: InitVar[Distribution | np.ndarray]
    _: KW_ONLY
    resolution: InitVar[int | None] = None
    region: RegionSlice = field(init=False)

    def __post_init__(self, q, resolution) -> None:
        q, channel = _as_source(q, self.channel)
        lattice = SimplexLattice.build(channel.m, resolution)
        region = region_slice(self._graph(channel, lattice, q))
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "region", region)

    def _graph(self, channel: Channel, lattice: SimplexLattice, q: np.ndarray) -> LagrangianGraph:
        f_fn, g_fn = _resolve_pair(self.f_kernel, self.g_kernel, q, channel)
        return build_lagrangian_graph(f_fn, g_fn, channel, lattice, q)

    def at(self, q: Distribution | np.ndarray) -> "BoundarySlice":
        """The slice of the same kernels, channel and lattice at the
        marginal q, checked as the constructor checks it: bit for bit what
        the constructor builds there.  Its graph is built as the
        constructor builds it; when the graph's lattice values are this
        slice's (always, for marginal-free kernels), an m = 2 polygon is
        cut from this slice's lifted hull with no qhull call
        (RegionSlice.at), and otherwise it is cut afresh."""
        q, channel = _as_source(q, self.channel)
        region = self.region.at(self._graph(channel, self.region.graph.lattice, q))
        moved = copy.copy(self)
        object.__setattr__(moved, "region", region)
        return moved


def _chain_arrays(
    region: RegionSlice, vertices: list[int], lams: list[float]
) -> tuple[Distribution, dict[str, np.ndarray]]:
    """The slice's marginal, and the read-only arrays of BoundaryCurve for
    the given polygon vertices and slopes.  The lattice points (and q) the
    witnesses use are taken as the slice holds them, not normalized again,
    and every witness is checked in one batched call."""
    marginal = _trusted(Distribution, probs=region.graph.q)
    row_ids = region.atoms[vertices]
    used = row_ids >= 0
    ids, inverse = np.unique(row_ids[used], return_inverse=True)
    atoms = np.full(row_ids.shape, -1)
    atoms[used] = inverse
    arrays = {
        "lams": np.array(lams, dtype=float),
        "xs": region.x[vertices],
        "ys": region.y[vertices],
        "atoms": atoms,
        "weights": region.weights[vertices],
        "rows": region.graph.rows[ids],
    }
    _check_witnesses(arrays["weights"], atoms, arrays["rows"], marginal.probs)
    for arr in arrays.values():
        arr.setflags(write=False)
    return marginal, arrays


def _points(
    lams: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    atoms: np.ndarray,
    weights: np.ndarray,
    rows: np.ndarray,
    marginal: Distribution,
) -> tuple[BoundaryPoint, ...]:
    """BoundaryPoint objects for the arrays of a chain (see BoundaryCurve);
    the witnesses share one Distribution per row.  _chain_arrays checked
    them all, so they are not checked again one at a time."""
    dists = [_trusted(Distribution, probs=row) for row in rows]
    out = []
    for lam, x, y, slots, alphas in zip(
        lams.tolist(), xs.tolist(), ys.tolist(), atoms.tolist(), weights.tolist()
    ):
        witness = _trusted(
            WitnessChannel,
            atoms=tuple((a, dists[j]) for a, j in zip(alphas, slots) if j >= 0),
            marginal=marginal,
        )
        out.append(BoundaryPoint(lam=lam, x=x, y=y, witness=witness))
    return tuple(out)


def slice_point(bslice: BoundarySlice, lam: float, direction: str) -> BoundaryPoint:
    """Boundary point of a slice's polygon at supporting slope lam: the
    vertex minimizing (lower) or maximizing (upper) y - lam * x.  It is
    trivial when its witness is the single atom at the slice's marginal.
    Querying one slice at many slopes builds the slice once."""
    region = bslice.region
    marginal, arrays = _chain_arrays(region, [region.support(lam, direction)], [lam])
    return _points(**arrays, marginal=marginal)[0]


def sweep(bslice: BoundarySlice, direction: str) -> BoundaryCurve:
    """One boundary curve: the lower or upper chain of a slice's polygon,
    carrying the slice's kernels, channel and marginal, and no CSV label.

    Both x-extremes are kept as forced endpoints (lam = nan).  An interior
    vertex is kept when its range of supporting slopes meets lam >= 0, with
    lam set to the midpoint of its two edge slopes, clipped to >= 0: a slope
    strictly inside its normal cone, at which slice_point returns the same
    vertex.  Both chains of one slice are read off it without building it
    again.
    """
    region = bslice.region
    chain = region.chain(direction)
    slopes = np.diff(region.y[chain]) / np.diff(region.x[chain])
    left, right = slopes[:-1], slopes[1:]
    # Edge slopes rise along the lower chain and fall along the upper one, so
    # the largest slope supporting vertex i is its right (lower) or left
    # (upper) edge slope.
    steepest = right if direction == "lower" else left
    lams = np.maximum(0.5 * (left + right), 0.0)
    inner = np.flatnonzero(steepest >= 0.0)
    vertices = [int(chain[0]), *chain[inner + 1].tolist()]
    slopes_at = [math.nan, *lams[inner].tolist()]
    if chain.size > 1:
        vertices.append(int(chain[-1]))
        slopes_at.append(math.nan)
    marginal, arrays = _chain_arrays(region, vertices, slopes_at)
    return BoundaryCurve(
        direction=direction,
        marginal=marginal,
        channel=bslice.channel,
        **arrays,
        f_kernel=bslice.f_kernel,
        g_kernel=bslice.g_kernel,
    )


def _interp_on(curve: BoundaryCurve, x: float, expected_direction: str) -> float:
    if curve.direction != expected_direction:
        raise ValueError(
            f"value query needs the {expected_direction} curve, got {curve.direction}"
        )
    if not curve.xs.size:
        raise ValueError("curve is empty")
    if math.isnan(x):
        raise ValueError(f"x = {x} is not a number")
    xs = curve.xs
    lo, hi = float(xs[0]), float(xs[-1])
    if x < lo - 1e-12 or x > hi + 1e-12:
        warnings.warn(
            f"x = {x} outside curve domain [{lo}, {hi}]; clamping", RuntimeWarning
        )
    return float(np.interp(min(max(x, lo), hi), xs, curve.ys))


def bottleneck_value(curve: BoundaryCurve, x: float) -> float:
    """Largest achievable y subject to the x-budget, read off the upper
    curve by piecewise-linear interpolation (out-of-domain x is clamped
    with a warning, a NaN x refused)."""
    return _interp_on(curve, x, "upper")


def funnel_value(curve: BoundaryCurve, x: float) -> float:
    """Smallest achievable y subject to the x-floor, read off the lower
    curve (out-of-domain x is clamped with a warning, a NaN x refused)."""
    return _interp_on(curve, x, "lower")


def matched_channel_invariance_check(
    point: BoundaryPoint,
    q_prime: Distribution | np.ndarray,
    f_kernel: DivergenceKernel,
    g_kernel: DivergenceKernel,
    T: Channel | np.ndarray,
) -> BoundaryPoint:
    """Move a matched channel to a new marginal: keep the atoms, re-solve the
    weights for q_prime, and return the point (x, y) they span, at the
    original slope.  Whether it is a boundary point at q_prime is for the
    caller to check, for example against slice_point on a BoundarySlice
    at q_prime.

    The witness's atoms must be affinely independent (a slice vertex's
    witness is), so the weights at q_prime are unique.  Raises when the
    atoms are affinely dependent, when q_prime lies outside their convex
    hull or when the witness has a single atom.
    """
    if not (f_kernel.marginal_free and g_kernel.marginal_free):
        raise ValueError("matched-channel transport needs marginal-free functionals")
    atoms = point.witness.atoms
    if len(atoms) < 2:
        raise ValueError("a matched channel needs at least two atoms")
    qv, channel = _as_source(q_prime, T, "q_prime")
    P = np.vstack([p.probs for _, p in atoms])
    weights, residual = mixture_weights(P, qv)
    if residual > _MIX_TOL:
        raise ValueError(
            f"q_prime is outside the convex hull of the matched channel "
            f"(residual {residual:.3e})"
        )
    fv, gv = _pair_values(*_resolve_pair(f_kernel, g_kernel, qv, channel), channel.matrix, P)
    x = float(weights @ fv)
    y = float(weights @ gv)
    keep = weights > 1e-12
    witness = WitnessChannel(
        atoms=tuple(
            (float(w), p) for w, (_, p), k in zip(weights, atoms, keep) if k
        ),
        marginal=_trusted(Distribution, probs=qv),
    )
    return BoundaryPoint(lam=point.lam, x=x, y=y, witness=witness)


# Problem -> {frame: kernel kind}; a problem's first frame is its default.
PROBLEM_FRAMES = {
    "ib": {"finfo": "kl", "entropy": "entropy"},
    "pf": {"finfo": "kl", "entropy": "entropy"},
    "eb": {"finfo": "chi2"},
    "epf": {"finfo": "chi2"},
    "arimoto": {"K": "norm"},
}


def problem_curve(
    q: Distribution | np.ndarray,
    T: Channel | np.ndarray,
    problem: str,
    direction: str,
    *,
    beta: float | None = None,
    frame: str | None = None,
    resolution: int | None = None,
) -> BoundaryCurve | tuple[BoundaryCurve, BoundaryCurve]:
    """Boundary curve for one named problem instantiation.

    The kernel is PROBLEM_FRAMES[problem][frame], the frame defaulting to
    the problem's first: ib/pf use mutual-information kernels (or the
    conditional-entropy frame), eb/epf use chi-squared kernels, arimoto
    uses l^beta norm kernels in the multiplicative K frame.  beta (default
    2) is refused unless the kernel is a norm kernel.  direction "both"
    returns (lower, upper), both read off one BoundarySlice; "lower" or
    "upper" returns one curve.
    """
    _check_direction(direction, ("lower", "upper", "both"))
    if problem not in PROBLEM_FRAMES:
        raise ValueError(f"unknown problem {problem!r}")
    frames = PROBLEM_FRAMES[problem]
    frame = frame or next(iter(frames))
    if frame not in frames:
        raise ConfigError(f"frame {frame!r} is not available for problem {problem!r}")
    kind = frames[frame]
    if kind == "norm":
        kernel = DivergenceKernel.norm_beta(beta if beta is not None else 2.0)
    elif beta is not None:
        raise ConfigError(f"beta does not apply to problem {problem!r} in frame {frame!r}")
    else:
        kernel = DivergenceKernel(kind)
    bslice = BoundarySlice(kernel, kernel, T, q, resolution=resolution)
    sides = ("lower", "upper") if direction == "both" else (direction,)
    curves = tuple(sweep(bslice, side) for side in sides)
    return curves if direction == "both" else curves[0]


CURVE_CSV_HEADER = ["problem", "direction", "lambda", "x", "y", "trivial", "witness_json"]


def _csv_field(text: str) -> str:
    """text as a csv.writer field: quoted, with its quotes doubled, when it
    holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def curve_csv_text(curve: BoundaryCurve, problem: str) -> str:
    """The curve's lines of the export schema (no header), labelled with
    problem, byte for byte what csv.writer(lineterminator="\n") writes for
    them, formatted straight from the curve's arrays.  A forced endpoint has an empty
    lambda.  The witness field is WitnessChannel.to_json's text, written
    already quoted; each row's "p" list and each weight is formatted once."""
    head = f"{_csv_field(problem)},{_csv_field(curve.direction)},"
    p_text = [',""p"":[' + ",".join(map(repr, row)) + "]}" for row in curve.rows.tolist()]
    used = curve.atoms >= 0
    atom_text = [
        '{""alpha"":' + alpha + p_text[j]
        for alpha, j in zip(map(repr, curve.weights[used].tolist()), curve.atoms[used].tolist())
    ]
    sizes = used.sum(axis=1).tolist()
    ends = np.cumsum(sizes).tolist()
    lines = []
    for lam, x, y, size, end in zip(
        curve.lams.tolist(), map(repr, curve.xs.tolist()), map(repr, curve.ys.tolist()),
        sizes, ends,
    ):
        witness = ",".join(atom_text[end - size : end])
        lam_text = "" if math.isnan(lam) else repr(lam)
        lines.append(f'{head}{lam_text},{x},{y},{size == 1},"{{""atoms"":[{witness}]}}"\n')
    return "".join(lines)
