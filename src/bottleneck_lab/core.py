"""Probability-simplex primitives and information functionals.

Conventions used throughout the package:

- Entropies and divergences are computed in nats, except ``binary_entropy``
  and ``binary_entropy_inv`` which use bits (so that the binary entropy of
  one half equals one).  Conversions are explicit at call sites.
- Vectors that are within 1e-9 of summing to one are renormalized on
  construction; anything further off is rejected.

Every information functional evaluates one kernel table,
``_KERNEL_TABLE``: per kernel kind (see ``DivergenceKernel``) an elementwise
term t(p, r) that is summed over the alphabet, and for tv, entropy and norm a
map of that sum.  ``_evaluate`` applies the zero convention once, for every
kind: a term that comes out as 0 * inf or 0 / 0 where p = 0 counts as 0,
which is 0 log 0 = 0 and, for divergences, 0 * f(0/0) = 0.  Mass where the
reference has none is a hard error in the public functions, never ``inf``.

What the three routes share is written here once: ``WitnessChannel`` and
its check, ``_resolve_pair`` and ``_pair_values``, the map p -> (f(p), g(Tp)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

LN2 = math.log(2.0)

# Inputs within _SUM_TOL of stochastic are renormalized; worse are rejected.
_SUM_TOL = 1e-9
_NEG_TOL = 1e-12
# A mixture meets its marginal, and a witness's weights their sum of 1,
# within this: the witness checks, the mixture_weights residuals of the
# ternary oracle and of matched transport, and conditional_f_information.
_MIX_TOL = 1e-9


class ConfigError(ValueError):
    """A well-formed request that cannot be run as configured: an option
    the problem does not have, or a lattice over the point budget.  The CLI
    exits 3 on it and 2 on any other ValueError."""


def _as_prob_vector(values, name: str = "probs", *, rescale: bool = True) -> np.ndarray:
    """values checked as a probability vector, in a new read-only array
    normalized to sum 1; with rescale=False, checked but kept as given (a
    new array), for a vector normalized once already.  A Distribution's
    probs come back as they are.  Normalizing a vector a second time can
    move its last bits."""
    if isinstance(values, Distribution):
        return values.probs
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    checked = _as_prob_rows(arr[None, :], name)[0]
    return checked if rescale else arr


def _as_prob_rows(rows: np.ndarray, name: str = "probs") -> np.ndarray:
    """Each row of a 2-D array checked and renormalized as a probability
    vector, in one batched pass; a new read-only array.  An error names
    the first bad row (by index when there is more than one)."""
    arr = np.asarray(rows, dtype=float)
    label = (lambda r: f"{name}[{r}]") if arr.shape[0] > 1 else (lambda r: name)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise ValueError(f"{label(int(np.argmin(finite)))} contains non-finite entries")
    negative = (arr < -_NEG_TOL).any(axis=1)
    if negative.any():
        r = int(np.argmax(negative))
        idx = int(np.argmin(arr[r]))
        raise ValueError(f"{label(r)}[{idx}] = {arr[r, idx]} is negative")
    arr = np.clip(arr, 0.0, None)
    totals = arr.sum(axis=1)
    off = np.abs(totals - 1.0) > _SUM_TOL
    if off.any():
        r = int(np.argmax(off))
        raise ValueError(
            f"{label(r)} sums to {float(totals[r])}, not 1 (tolerance {_SUM_TOL})"
        )
    arr = arr / totals[:, None]
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector on an m-point alphabet (a point of the simplex)."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_prob_vector(self.probs)
        if arr.size < 2:
            raise ValueError("alphabet size must be at least 2")
        object.__setattr__(self, "probs", arr)

    @property
    def m(self) -> int:
        return int(self.probs.size)

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()})"


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as given,
    without its checks: for values that are checked and normalized
    already, which a second pass could change in their last bits."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_witnesses(
    weights: np.ndarray, atoms: np.ndarray, rows: np.ndarray, marginal: np.ndarray
) -> None:
    """Refuse a batch of witnesses unless each mixes at least one and at
    most m + 1 atoms, with positive weights summing to 1, into the
    marginal.  Witness k mixes rows[atoms[k, j]] with weight weights[k, j]
    over its slots with atoms[k, j] >= 0.  The error is the first refusal
    in that order that any witness of the batch meets."""
    used = atoms >= 0
    sizes = used.sum(axis=1)
    m = marginal.size
    if not sizes.all():
        raise ValueError("witness needs at least one atom")
    if (sizes > m + 1).any():
        raise ValueError(f"witness has {int(sizes.max())} atoms; at most {m + 1} allowed")
    if not ((weights > 0.0) | ~used).all():
        raise ValueError("witness weights must be strictly positive")
    weights = np.where(used, weights, 0.0)
    totals = weights.sum(axis=1)
    near = np.abs(totals - 1.0) <= _MIX_TOL
    if not near.all():
        raise ValueError(f"witness weights sum to {totals[np.argmin(near)]}")
    mix = (weights[:, None, :] @ rows[np.where(used, atoms, 0)])[:, 0]
    err = np.abs(mix - marginal).max(axis=1)
    near = err <= _MIX_TOL
    if not near.all():
        raise ValueError(f"witness mixture misses its marginal by {err[np.argmin(near)]:.3e}")


@dataclass(frozen=True, eq=False)
class WitnessChannel:
    """Finite mixture {(alpha_i, p_i)} with sum alpha_i p_i = marginal,
    realizing one boundary point as an explicit conditional P(X|W)."""

    atoms: tuple[tuple[float, Distribution], ...]
    marginal: Distribution

    def __post_init__(self) -> None:
        n = len(self.atoms)
        rows = self.conditionals() if n else np.empty((0, self.marginal.m))
        _check_witnesses(self.weights()[None], np.arange(n)[None], rows, self.marginal.probs)

    def weights(self) -> np.ndarray:
        return np.array([a for a, _ in self.atoms], dtype=float)

    def conditionals(self) -> np.ndarray:
        return np.vstack([p.probs for _, p in self.atoms])

    def to_json(self) -> str:
        return json.dumps(
            {"atoms": [{"alpha": float(a), "p": p.probs.tolist()} for a, p in self.atoms]},
            separators=(",", ":"),
        )


@dataclass(frozen=True, eq=False)
class Channel:
    """Column-stochastic n x m matrix; column j is the conditional P(Y|X=j)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError(f"channel matrix must be 2-D, got shape {mat.shape}")
        if mat.shape[0] < 2:
            raise ValueError("output alphabet size must be at least 2")
        # Columns are checked as contiguous rows, and the result keeps the
        # input's memory layout, so sums and products keep their bits.
        cols = np.empty_like(mat)
        cols.T[:] = _as_prob_rows(np.ascontiguousarray(mat.T), "column")
        cols.setflags(write=False)
        object.__setattr__(self, "matrix", cols)

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def m(self) -> int:
        return int(self.matrix.shape[1])

    def push_forward(self, p: np.ndarray | Distribution) -> np.ndarray:
        """Output distribution T p for an input distribution p."""
        return self.matrix @ _as_prob_vector(p, "p")


def _as_channel(T: Channel | np.ndarray) -> Channel:
    return T if isinstance(T, Channel) else Channel(T)


def _as_source(q, T, name: str = "q") -> tuple[np.ndarray, Channel]:
    """A source's marginal, checked as a probability vector (errors name it
    name), and its channel; refused unless the channel's inputs are the
    marginal's alphabet."""
    q, channel = _as_prob_vector(q, name), _as_channel(T)
    if q.size != channel.m:
        raise ValueError("channel input alphabet does not match the marginal")
    return q, channel


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint pmf P(X=x, Y=y) as an m x n array with rows indexed by x."""

    p_xy: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.p_xy, dtype=float)
        if mat.ndim != 2:
            raise ValueError(f"p_xy must be 2-D, got shape {mat.shape}")
        if mat.shape[0] < 2 or mat.shape[1] < 2:
            raise ValueError("both alphabets must have at least 2 symbols")
        # The pmf is checked as one probability vector of its m * n cells in
        # memory order, so the total and the layout are those of the input.
        order = "F" if mat.flags.f_contiguous else "C"
        cells = mat.reshape(1, -1, order=order)
        flat = _as_prob_rows(cells, "p_xy")
        if not flat.all():
            # Its total skips the zero cells: numpy sums 8 or more entries
            # pairwise, grouped by position, so zeros could move a last bit.
            cells = np.clip(cells, 0.0, None)
            flat = cells / cells[cells != 0.0].sum()
            flat.setflags(write=False)
        object.__setattr__(self, "p_xy", flat.reshape(mat.shape, order=order))

    @property
    def m(self) -> int:
        return int(self.p_xy.shape[0])

    @property
    def n(self) -> int:
        return int(self.p_xy.shape[1])

    def marginal_x(self) -> np.ndarray:
        """P(X = x), summed over the Y symbols with mass, in the pmf's
        layout: an all-zero column's zeros could move a last bit."""
        reached = self.p_xy[:, self.p_xy.any(axis=0)]
        return np.array(reached, order="F" if self.p_xy.flags.f_contiguous else "C").sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.p_xy.sum(axis=0)


def _check_beta(beta: float | None) -> float:
    """beta as a float, refused unless it is finite and >= 2: the range of
    the l^beta norm and Arimoto functionals."""
    if beta is None or not math.isfinite(beta) or beta < 2.0:
        raise ValueError(f"need a finite beta >= 2, got {beta}")
    return float(beta)


def _check_direction(direction: str, allowed: tuple[str, ...] = ("lower", "upper")) -> str:
    if direction not in allowed:
        raise ValueError(f"unknown direction {direction!r}")
    return direction


_DIVERGENCE_KINDS = ("kl", "chi2", "tv")
_FUNCTIONAL_KINDS = ("entropy", "norm")


@dataclass(frozen=True)
class DivergenceKernel:
    """The convex function defining an f-divergence, or a direct simplex
    functional (entropy, l^beta norm) used in its place.

    Kinds
    -----
    kl      f(t) = t log t              (mutual information)
    chi2    f(t) = t^2 - 1              (chi-squared information)
    tv      f(t) = |t - 1| / 2          (total variation)
    entropy direct functional p -> H(p) in nats
    norm    direct functional p -> ||p||_beta, beta >= 2
    """

    kind: str
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _DIVERGENCE_KINDS + _FUNCTIONAL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "norm":
            _check_beta(self.beta)
        elif self.beta is not None:
            raise ValueError(f"kernel kind {self.kind!r} takes no beta")

    @classmethod
    def kl(cls) -> "DivergenceKernel":
        return cls("kl")

    @classmethod
    def chi_squared(cls) -> "DivergenceKernel":
        return cls("chi2")

    @classmethod
    def total_variation(cls) -> "DivergenceKernel":
        return cls("tv")

    @classmethod
    def entropy_functional(cls) -> "DivergenceKernel":
        return cls("entropy")

    @classmethod
    def norm_beta(cls, beta: float) -> "DivergenceKernel":
        return cls("norm", beta=float(beta))

    @property
    def is_divergence(self) -> bool:
        return self.kind in _DIVERGENCE_KINDS

    @property
    def marginal_free(self) -> bool:
        """True when the resolved functional does not depend on the input
        marginal (a prerequisite for matched channels to exist).  Its
        values over a lattice are then the same at every marginal, so
        BoundarySlice.at re-cuts an m = 2 slice from the lifted hull it
        already holds."""
        return self.kind in _FUNCTIONAL_KINDS


def _kl_term(p: np.ndarray, r: np.ndarray, beta: None) -> np.ndarray:
    ratio = p / r
    over = np.isinf(ratio)
    if over.any():
        # p / r overflows against a reference entry near the least float,
        # where log p - log r is still finite.
        return p * np.where(over, np.log(p) - np.log(r), np.log(ratio))
    return p * np.log(ratio)


# kind -> (elementwise term t(p, r, beta), map of the row sum or None).
_KERNEL_TABLE = {
    "kl": (_kl_term, None),
    "chi2": (lambda p, r, beta: np.square(p - r) / r, None),
    "tv": (lambda p, r, beta: np.abs(p - r), lambda s, beta: 0.5 * s),
    "entropy": (lambda p, r, beta: p * np.log(p), lambda s, beta: -s),
    "norm": (lambda p, r, beta: p**beta, lambda s, beta: s ** (1.0 / beta)),
}


def _evaluate(
    kernel: DivergenceKernel, P: np.ndarray, r: np.ndarray | None = None
) -> np.ndarray:
    """The kernel's functional of each row of P (alphabet on the last axis),
    against the reference r for divergence kinds."""
    term, finish = _KERNEL_TABLE[kernel.kind]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = term(P, r, kernel.beta)
    # 0 log 0 = 0 and 0 * f(0/0) = 0: a p = 0 term of 0 * inf or 0 / 0 is 0.
    total = np.where((P == 0.0) & np.isnan(terms), 0.0, terms).sum(axis=-1)
    return total if finish is None else finish(total, kernel.beta)


def _require_divergence(kernel: DivergenceKernel) -> None:
    if not kernel.is_divergence:
        raise ValueError(f"kernel kind {kernel.kind!r} does not define an f-divergence")


def _check_continuity(P: np.ndarray, r: np.ndarray) -> None:
    """Refuse mass where the reference has none, naming the first such index."""
    bad = (P > 0.0) & (r == 0.0)
    if np.any(bad):
        at = np.argwhere(bad)[0].tolist()
        raise ValueError(
            f"absolute continuity violated: p{at} = {P[tuple(at)]} but r[{at[-1]}] = 0"
        )


def entropy(p: Distribution | Sequence[float] | np.ndarray) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0.  Result lies in [0, log m]."""
    return float(_evaluate(DivergenceKernel.entropy_functional(), _as_prob_vector(p)))


def _first_refused(value, ok: np.ndarray):
    """What a refusal names: value itself when it is a scalar, else its
    first entry, broadcast to ok's shape, that is not ok; so an array is
    refused with the text its bad entry would get on its own."""
    if ok.ndim == 0:
        return value
    return float(np.broadcast_to(np.asarray(value, dtype=float), ok.shape).flat[np.argmin(ok)])


def _check_range(value, name: str, top=1, slack: float = _NEG_TOL):
    """value, a float or an array, with each entry clamped into [0, top],
    top a float or an array that broadcasts against value (the broadcast
    shape back).  The one range rule of the package: an entry that is nan
    or further than slack outside is refused with "name must lie in [0,
    top], got value", naming the first such entry and its top, so an array
    is refused with the text its bad entry would get on its own.  A float
    comes back as a numpy float."""
    arr = np.asarray(value, dtype=float)
    batch = isinstance(top, np.ndarray)
    if batch:
        fine = ((arr >= -slack) & (arr <= top + slack)).all()
    else:
        # A scalar top takes two reductions; nan passes through both and
        # fails both tests.
        low = np.minimum.reduce(arr, axis=None, initial=0.0)
        high = np.maximum.reduce(arr, axis=None, initial=0.0)
        fine = low >= -slack and high <= top + slack
    if not fine:
        ok = (arr >= -slack) & (arr <= top + slack)
        top_text = _first_refused(top, ok) if batch else top
        raise ValueError(f"{name} must lie in [0, {top_text}], got {_first_refused(value, ok)}")
    if batch or low < 0.0 or high > top:
        arr = np.minimum(np.maximum(arr, 0.0), top)
    return arr[()]


_TINY = float(np.finfo(float).smallest_subnormal)


def binary_entropy(q):
    """Binary entropy in bits of q, a float or an array of them, elementwise
    (the same shape back); binary_entropy(0.5) = 1 and 0 log 0 = 0."""
    return _entropy_bits(_check_range(q, "q"))


def _entropy_bits(t):
    """binary_entropy of t, an array in [0, 1], with no range check: the F
    of a root search, whose candidates lie in its bracket already."""
    s = 1.0 - t
    # A zero entry's log is taken at the least positive float, so its term
    # is 0 * -1074 = 0 and nothing warns.
    return 0.0 - (t * np.log2(np.maximum(t, _TINY)) + s * np.log2(np.maximum(s, _TINY)))


# The candidates one step of _least_reaching evaluates around its Newton
# point, as offsets in floats.
_NEWTON_FAN = np.arange(-4, 5)[:, None]
# Newton steps _least_reaching takes from its base before it narrows the
# bracket: enough to reach the last bits from a start a few percent off.
_FIRST_NEWTON_STEPS = 3


def _least_reaching(F, slope, target, lo, hi, base, *params):
    """Elementwise over the broadcast arguments: the right end r of the
    bracket [lo, hi] narrowed to adjacent floats, keeping F(lo) < target <=
    F(hi), so that F(r) >= target and F falls short at the float below r.
    For F monotone in floats, r is the least float that reaches target.

    F(r, *params) must be increasing and concave on [lo, hi], with slope(r,
    *params) its derivative; a bracket with lo == hi is returned as it is.
    By concavity the tangent at any point lies above F, so a Newton step
    never passes the root in exact arithmetic.  The search takes
    _FIRST_NEWTON_STEPS Newton steps from base, clipped into the bracket.
    Then each step evaluates, in one call of F, the floats around the
    Newton point of the candidate nearest target so far and the bracket's
    midpoint in float-bit order.  The least candidate that reaches target
    becomes the right end and the candidate below it the left end, so the
    bracket at least halves per step: where F is too flat for Newton (h
    near 1/2, whose root is nearly double), the halving converges alone.
    """
    # Rows: target, lo, hi, the Newton base and F there, then params.
    values = (target, lo, hi, base, base, *params)
    shape = np.broadcast(*values).shape
    state = np.empty((len(values), *shape))
    for i, value in enumerate(values):
        state[i] = value
    state = state.reshape(len(values), -1)
    out = state[2].copy()
    idx = (state[2].view(np.int64) - state[1].view(np.int64) > 1).nonzero()[0]
    if not idx.size:
        return out.reshape(shape)[()]
    state = state.take(idx, axis=1)
    t, lo, hi, base, f_base, *params = state
    # A zero or infinite slope makes a Newton point infinite or nan; the
    # clips into the bracket take it in all the same.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f_base[:] = F(base, *params)
        for _ in range(_FIRST_NEWTON_STEPS):
            np.fmin(np.fmax(base + (t - f_base) / slope(base, *params), lo), hi, out=base)
            f_base[:] = F(base, *params)
        while True:
            t, lo, hi, base, f_base, *params = state
            lo_bits, hi_bits = lo.view(np.int64), hi.view(np.int64)
            newton = base + (t - f_base) / slope(base, *params)
            # Rows, ascending once sorted: lo, the fan, the midpoint, hi.
            bits = np.empty((_NEWTON_FAN.shape[0] + 3, idx.size), dtype=np.int64)
            bits[0], bits[-1] = lo_bits, hi_bits
            # Floats in [0, 1] have bits below 2^62, so the sum cannot wrap.
            bits[-2] = (lo_bits + hi_bits) >> 1
            np.minimum(
                np.maximum(newton.view(np.int64) + _NEWTON_FAN, lo_bits + 1), hi_bits - 1,
                out=bits[1:-2],
            )
            bits.sort(axis=0)
            c = bits.view(np.float64)
            f_c = F(c, *params)
            # lo falls short and hi reaches, so the first row that reaches
            # is past the first row.
            first = (f_c >= t).argmax(axis=0)
            nearest = np.abs(f_c - t).argmin(axis=0)
            # The new lo, hi and base, and F at the base, as flat indices
            # into c stacked on f_c.
            rows = np.array((first - 1, first, nearest, nearest + c.shape[0]))
            state[1:5] = np.concatenate((c, f_c)).take(rows * idx.size + np.arange(idx.size))
            done = state[2].view(np.int64) - state[1].view(np.int64) <= 1
            if done.all():
                out[idx] = state[2]
                break
            if done.any():
                out[idx[done]] = state[2, done]
                keep = (~done).nonzero()[0]
                idx, state = idx.take(keep), state.take(keep, axis=1)
    return out.reshape(shape)[()]


def _entropy_slope(r):
    """Derivative of binary_entropy, log2((1 - r) / r)."""
    return np.log2((1.0 - r) / r)


def binary_entropy_inv(y):
    """Inverse of binary_entropy on [0, 1/2], elementwise over y, a float or
    an array of them (in bits; the same shape back).

    Each root is _least_reaching's on the bracket [lo, 1/2]: its entropy
    reaches y, and the float below it falls short.  h(r) <= r log2(e / r)
    gives h(lo) <= y for lo = y / (2 log2(2e / y)).  The Newton steps start
    from the larger of two tighter bounds below the root: y / log2(e / lo),
    below the root of r log2(e / r) = y, and Topsoe's r with (4r(1 - r))^(1 /
    ln 4) = y.  y = 0 gives 0 and y = 1 gives 1/2, the exact inverses.
    """
    y = _check_range(y, "y")
    lo = np.where(y < 1.0, y / (2.0 * (_LOG2_2E - np.log2(np.maximum(y, _TINY)))), 0.5)
    hi = np.where(y > 0.0, 0.5, 0.0)
    base = np.maximum(
        y / (_LOG2_E - np.log2(np.maximum(lo, _TINY))),
        0.5 - 0.5 * np.sqrt(1.0 - np.power(y, _LN4)),
    )
    return _least_reaching(_entropy_bits, _entropy_slope, y, lo, hi, base)


_LN4 = math.log(4.0)
_LOG2_E = math.log2(math.e)
_LOG2_2E = math.log2(2.0 * math.e)


def star(a, b):
    """Binary convolution (1-a)b + (1-b)a, elementwise over floats or arrays;
    symmetric, star(a, 1/2) = 1/2."""
    a = _check_range(a, "a")
    b = _check_range(b, "b")
    return (1.0 - a) * b + (1.0 - b) * a


def f_divergence(
    kernel: DivergenceKernel,
    p: Distribution | np.ndarray,
    r: Distribution | np.ndarray,
) -> float:
    """f-divergence of p from r for a divergence-kind kernel.

    Requires p absolutely continuous with respect to r; an index with
    p > 0 but r = 0 raises, identifying the offending index.
    """
    _require_divergence(kernel)
    pv, rv = _as_prob_vector(p, "p"), _as_prob_vector(r, "r")
    if pv.size != rv.size:
        raise ValueError("p and r must share an alphabet")
    _check_continuity(pv, rv)
    return float(_evaluate(kernel, pv, rv))


def f_information(kernel: DivergenceKernel, joint: JointDistribution) -> float:
    """f-information between X and Y: the divergence of the joint pmf from the
    product of its marginals.  Zero when X and Y are independent."""
    _require_divergence(kernel)
    prod = np.outer(joint.marginal_x(), joint.marginal_y())
    # Cells where the product vanishes carry no joint mass, so the
    # 0 * f(0/0) = 0 convention applies and no continuity check can trip.
    return float(_evaluate(kernel, joint.p_xy.ravel(), prod.ravel()))


def _stack_conditionals(conditionals: Sequence) -> np.ndarray:
    return np.vstack([_as_prob_vector(c, "conditional") for c in conditionals])


def conditional_f_information(
    kernel: DivergenceKernel,
    weights: Sequence[float] | np.ndarray,
    conditionals: Sequence,
    marginal: Distribution | np.ndarray,
) -> float:
    """Weighted divergence sum_w alpha_w D_f(p_w || q) for a mixture with
    sum_w alpha_w p_w = q.  Equals the f-information of the induced joint."""
    w = _as_prob_vector(weights, "mixture weights", rescale=False)
    P = _stack_conditionals(conditionals)
    q = _as_prob_vector(marginal, "marginal")
    err = float(np.abs(w @ P - q).max())
    if err > _MIX_TOL:
        raise ValueError(f"mixture of conditionals misses the marginal by {err:.3e}")
    _require_divergence(kernel)
    live = w > 0.0
    _check_continuity(np.where(live[:, None], P, 0.0), q)
    return float(w[live] @ _evaluate(kernel, P[live], q))


def beta_norm(beta: float, p: Distribution | np.ndarray) -> float:
    """l^beta norm of a distribution, (sum p_i^beta)^(1/beta), beta >= 2.

    Lies in [m^((1-beta)/beta), 1]; equals 1 exactly at point masses.
    """
    return float(_evaluate(DivergenceKernel.norm_beta(beta), _as_prob_vector(p)))


def arimoto_conditional_entropy(
    beta: float,
    weights: Sequence[float] | np.ndarray,
    conditionals: Sequence,
) -> float:
    """Arimoto conditional entropy of order beta >= 2, in nats:
    beta/(1-beta) * log sum_w alpha_w ||p_w||_beta."""
    kernel = DivergenceKernel.norm_beta(beta)
    w = _as_prob_vector(weights, "mixture weights", rescale=False)
    k = float(w @ _evaluate(kernel, _stack_conditionals(conditionals)))
    return beta / (1.0 - beta) * math.log(k)


def decompose_joint(joint: JointDistribution) -> tuple[Distribution, Channel]:
    """Split a joint pmf into the X-marginal and the forward channel,
    restricted to their support by restrict_source.

    Only the X-symbols with mass are divided out, P(Y|X=x) = p_xy[x] / p(x);
    restrict_source then drops the Y-symbols with no mass, so that T q has
    full support, and refuses a joint unless X and Y each put mass on at
    least 2 symbols.  Reassembling the joint from the pieces reproduces the
    input on the restricted support.
    """
    px = joint.marginal_x()
    keep = px > 0.0
    q = px[keep]
    return restrict_source(q, (joint.p_xy[keep] / q[:, None]).T)


def restrict_source(q, T) -> tuple[Distribution, Channel]:
    """A marginal and a channel, checked and normalized once as they enter,
    then restricted to their support: X symbols with zero mass are dropped,
    and so are Y symbols that no remaining X symbol reaches.  The one place
    a source is restricted, for a joint too (decompose_joint), and the one
    place it is refused unless X and Y each keep at least 2 symbols.  Unlike
    a round trip through the joint, it keeps the given bits: a binary
    symmetric channel stays symmetric.  The input is checked whole, before
    anything is dropped."""
    qv, channel = _as_source(q, T)
    keep = qv > 0.0
    if int(keep.sum()) < 2:
        raise ValueError("support of X must contain at least 2 symbols")
    used = (channel.matrix[:, keep] > 0.0).any(axis=1)
    if int(used.sum()) < 2:
        raise ValueError("Y is constant: support of Y must contain at least 2 symbols")
    # A channel given as an array is normalized over the Y symbols it keeps,
    # in its own layout: numpy sums 8 or more entries pairwise, grouped by
    # position, so the zeros of a dropped symbol could move a last bit.
    renormalize = not used.all() and not isinstance(T, Channel)
    matrix = np.array(T, dtype=float) if renormalize else channel.matrix
    order = "F" if matrix.flags.f_contiguous else "C"
    if not keep.all():
        # So is q over the X symbols it keeps, unless it came normalized.
        if isinstance(q, Distribution):
            qv = qv[keep]
        else:
            qv = _as_prob_vector(np.asarray(q, dtype=float)[keep], "q")
        matrix = matrix[:, keep]
    if not used.all():
        matrix = matrix[used]
    if renormalize:
        channel = Channel(np.array(matrix, order=order))
    elif matrix is not channel.matrix:
        # The kept columns lose only zero entries, so they stay normalized;
        # the Channel constructor would divide them again.  Indexing can
        # change the layout, and the layout can move curve bits.
        matrix = np.array(matrix, order=order)
        matrix.setflags(write=False)
        channel = _trusted(Channel, matrix=matrix)
    return _trusted(Distribution, probs=qv), channel


def joint_from_marginal_channel(
    q: Distribution | np.ndarray, T: Channel | np.ndarray
) -> JointDistribution:
    """Assemble P(X=x, Y=y) = q_x * T[y, x] from a marginal and a channel."""
    qv, ch = _as_source(q, T)
    return JointDistribution((ch.matrix * qv[None, :]).T)


def bsc_source(q: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The marginal (1 - q, q) of a binary source and the binary symmetric
    channel with crossover probability delta, as arrays."""
    q = _check_range(q, "q")
    delta = _check_range(delta, "delta")
    return np.array([1.0 - q, q]), np.array([[1.0 - delta, delta], [delta, 1.0 - delta]])


def bsc_joint(q: float, delta: float) -> JointDistribution:
    """Joint pmf of a binary source P(X=1) = q through a binary symmetric
    channel with crossover probability delta."""
    return joint_from_marginal_channel(*bsc_source(q, delta))


def resolve_functional(
    kernel: DivergenceKernel,
    reference: Distribution | np.ndarray | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve a kernel to a vectorized simplex functional.

    Divergence kinds close over a full-support reference distribution and map
    p to D_f(p || reference); entropy and norm kinds ignore the reference.
    The reference is checked but never rescaled.  The returned callable
    accepts a (k, m) array of row-distributions and returns a length-k
    vector; for a divergence, m must be the size of the reference.
    """
    ref = None
    if kernel.is_divergence:
        if reference is None:
            raise ValueError(f"{kernel.kind} kernel needs a reference distribution")
        ref = _as_prob_vector(reference, "divergence reference", rescale=False)
        if np.any(ref <= 0.0):
            raise ValueError("divergence reference must have full support")
        if kernel.kind == "chi2":
            # A point mass at entry i is 1/r_i - 1 from the reference.
            with np.errstate(over="ignore"):
                over = np.isinf(1.0 / ref)
            if over.any():
                i = int(np.argmax(over))
                raise ValueError(
                    f"chi2 kernel: divergence reference entry [{i}] = {float(ref[i])!r} is too "
                    "small; a point mass's value 1/r - 1 there exceeds the largest float"
                )

    def functional(P: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(P)
        if ref is not None and P.shape[-1] != ref.size:
            raise ValueError(f"rows have {P.shape[-1]} entries; the reference has {ref.size}")
        return _evaluate(kernel, P, ref)

    return functional


def _resolve_pair(
    f_kernel: DivergenceKernel,
    g_kernel: DivergenceKernel,
    q: np.ndarray,
    T: Channel,
) -> tuple[Callable, Callable]:
    """f and g as vectorized functionals, divergences taken from q and T q.
    Every caller that turns kernels into functionals goes through here."""
    f_ref = q if f_kernel.is_divergence else None
    g_ref = T.matrix @ q if g_kernel.is_divergence else None
    return resolve_functional(f_kernel, f_ref), resolve_functional(g_kernel, g_ref)


def _pair_values(
    f: Callable, g: Callable, matrix: np.ndarray, P: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """f(P) and g(P T^T) as float arrays: the map p -> (f(p), g(Tp)) over
    the rows of P, for the channel matrix T; the one place it is written."""
    return np.asarray(f(P), dtype=float), np.asarray(g(P @ matrix.T), dtype=float)


def mixture_weights(P: np.ndarray, marginal: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights w for the rows of P with w @ P = marginal and sum(w) = 1,
    from one least-squares solve of [P^T; 1^T] w = [marginal; 1], with the
    residual norm.  Weights below 0 are clipped to 0 and the residual is
    taken at the clipped weights: its sum row is then at least as large as
    any clipped weight was negative, so a marginal outside the rows' hull
    leaves a residual.  Callers decide what residual still counts as a
    mixture.  The rows must be affinely independent (so no more of them
    than P has columns), which makes the weights unique.  Refuses dependent rows, rows that do
    not match the marginal and non-finite entries (ValueError)."""
    P = np.asarray(P, dtype=float)
    marginal = np.asarray(marginal, dtype=float)
    if P.ndim != 2 or marginal.ndim != 1 or P.shape[1] != marginal.size:
        raise ValueError(
            f"rows of P must match the marginal: P has shape {P.shape}, "
            f"the marginal {marginal.shape}"
        )
    for values, name in ((P, "P"), (marginal, "marginal")):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} contains non-finite entries")
    A = np.vstack([P.T, np.ones(len(P))])
    b = np.append(marginal, 1.0)
    weights, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    # For stochastic rows the rows of P^T sum to the ones row, so A has
    # rank at most P.shape[1]: more rows than that are always dependent.
    if len(P) > P.shape[1] or rank < len(P):
        raise ValueError(f"rows of P are affinely dependent: {P.tolist()}")
    weights = np.maximum(weights, 0.0)
    return weights, float(np.linalg.norm(A @ weights - b))


def _read_payload(source: str | Path | dict) -> dict:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = source
    if not isinstance(payload, dict):
        raise ValueError("joint distribution file must hold a JSON object")
    if "p_xy" not in payload and not ("q" in payload and "T" in payload):
        raise ValueError('expected fields "p_xy" or "q" and "T"')
    return payload


def load_joint(source: str | Path | dict) -> JointDistribution:
    """Load a joint distribution from JSON.

    Accepted forms: {"p_xy": [[...]]} with a row-major m x n pmf, or
    {"q": [...], "T": [[...]]} with a length-m marginal and a column-
    stochastic n x m channel matrix.
    """
    payload = _read_payload(source)
    if "p_xy" in payload:
        return JointDistribution(payload["p_xy"])
    return joint_from_marginal_channel(payload["q"], payload["T"])


def load_source(source: str | Path | dict) -> tuple[Distribution, Channel]:
    """The marginal and channel of a JSON source, in load_joint's forms,
    restricted to their support: a "p_xy" joint through decompose_joint, a
    "q" and "T" pair through restrict_source, so it keeps its bits."""
    payload = _read_payload(source)
    if "p_xy" in payload:
        return decompose_joint(JointDistribution(payload["p_xy"]))
    return restrict_source(payload["q"], payload["T"])
