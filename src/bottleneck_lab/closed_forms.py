"""Exact boundaries for a binary source through a binary symmetric channel.

All entropy-frame quantities here are in bits.  The Arimoto curves live in
the multiplicative K frame (l^beta norms of binary distributions) and map to
the conditional-entropy frame via ``k_frame_to_entropy``; computing in the K
frame first avoids log-of-small-number instability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Channel,
    ConfigError,
    Distribution,
    WitnessChannel,
    _check_beta,
    _check_range,
    _entropy_bits,
    _least_reaching,
    binary_entropy,
    binary_entropy_inv,
    bsc_source,
    star,
)


@dataclass(frozen=True)
class BscInstance:
    """Binary source P(X=1) = q <= 1/2 observed through a symmetric channel
    with crossover probability delta <= 1/2.

    q and delta may be arrays, checked elementwise by core's range rule
    with no slack: the closed forms then broadcast x against them, one
    instance per element.  marginal and channel need floats, and take
    their arrays from core.bsc_source."""

    q: float | np.ndarray
    delta: float | np.ndarray

    def __post_init__(self) -> None:
        _check_range(self.q, "q", 0.5, 0.0)
        _check_range(self.delta, "delta", 0.5, 0.0)

    def marginal(self) -> Distribution:
        return Distribution(bsc_source(self.q, self.delta)[0])

    def channel(self) -> Channel:
        return Channel(bsc_source(self.q, self.delta)[1])


@dataclass(frozen=True, eq=False)
class GerberPoint:
    """One upper-boundary point with its mixture parameter and witness."""

    x: float
    y: float
    alpha: float
    witness: WitnessChannel


def _entropy_x(inst: BscInstance, x):
    """x clamped to [0, h(q)] (bits) by core's range rule, refused when an
    entry is nan or further outside than rounding; and h(q)."""
    hq = binary_entropy(inst.q)
    return _check_range(x, "x", hq, 1e-9), hq


def mrs_gerber(inst: BscInstance, x):
    """Lower boundary of the conditional-entropy region in bits:
    h(delta star h^{-1}(x)) for x in [0, h(q)], elementwise over x and the
    instance (a float or an array, the broadcast shape back).  Convex and
    non-decreasing in x."""
    x, hq = _entropy_x(inst, x)
    # h^-1(h(q)) differs from q in its last bits; the endpoint is known.
    r = np.where(x >= hq, inst.q, binary_entropy_inv(x))
    return binary_entropy(star(inst.delta, r))[()]


def _binary(p1: float) -> Distribution:
    return Distribution([1.0 - p1, p1])


def _ratio(q, alpha):
    """q/z with z = max(alpha, 2q), capped at 1; 1/2 when z = 0."""
    z = np.maximum(alpha, 2.0 * q)
    return np.minimum(np.divide(q, z, out=np.full(np.shape(z), 0.5), where=z > 0.0), 1.0)


def _upper_xy(F: Callable, inst: BscInstance, alpha):
    """(r, x, y) of the upper-boundary point at mixture alpha, r = _ratio(q,
    alpha), under the binary functional F (h in bits, or K_beta): x = (1 -
    alpha) F(0) + alpha F(r), y = alpha F(delta star r) + (1 - alpha) F(delta).
    F(0) is exactly 0 or 1.  Elementwise, with one call of F; no witness."""
    ratio = _ratio(inst.q, alpha)
    f0, f_ratio, f_star, f_delta = F(
        np.array(np.broadcast_arrays(0.0, ratio, star(inst.delta, ratio), inst.delta))
    )
    x = (1.0 - alpha) * f0 + alpha * f_ratio
    y = alpha * f_star + (1.0 - alpha) * f_delta
    return ratio, x, y


def mr_gerber_point(inst: BscInstance, alpha: float) -> GerberPoint:
    """Upper-boundary point at mixture parameter alpha in [0, 1].

    With z = max(alpha, 2q):  x = alpha * h(q/z),
    y = alpha * h(delta star q/z) + (1 - alpha) * h(delta).

    The witness has two regimes.  For alpha >= 2q it mixes the point mass on
    X = 0 with the tilted conditional P(X=1|W=1) = q/alpha; for alpha < 2q it
    mixes both point masses with the uniform conditional, with weights
    (1 - q - alpha/2, q - alpha/2, alpha).
    """
    alpha = float(_check_range(alpha, "alpha"))
    q = inst.q
    ratio, x, y = (float(v) for v in _upper_xy(binary_entropy, inst, alpha))
    marginal = inst.marginal()
    if alpha >= 2.0 * q:
        pairs = [(1.0 - alpha, _binary(0.0)), (alpha, _binary(ratio))]
    else:
        pairs = [
            (1.0 - q - alpha / 2.0, _binary(0.0)),
            (q - alpha / 2.0, _binary(1.0)),
            (alpha, _binary(0.5)),
        ]
    atoms = tuple((w, p) for w, p in pairs if w > 1e-15)
    witness = WitnessChannel(atoms=atoms, marginal=marginal)
    return GerberPoint(x=x, y=y, alpha=alpha, witness=witness)


def _upper_x(alpha, q):
    """x of _upper_xy under h, bit for bit, for alpha >= 2q: there (1 -
    alpha) h(0) is exactly 0."""
    return alpha * _entropy_bits(q / alpha)


def _upper_slope(alpha, q):
    """Derivative of _upper_x in alpha, -log2(1 - q / alpha)."""
    return 0.0 - np.log2(1.0 - q / alpha)


def mr_gerber(inst: BscInstance, x):
    """Upper boundary in bits as a function of x, elementwise over x and the
    instance (a float or an array, the broadcast shape back).  Concave in x
    on [0, h(q)].

    x(alpha) = alpha h(q / alpha) is increasing and concave on [2q, 1], and
    _least_reaching finds alpha on x alone, with no witness: an alpha where
    mr_gerber_point's x reaches the target and falls short at the float
    below (mr_gerber_point gives the point with its witness).  On alpha <=
    2q the tilted conditional is q / (2q) = 1/2 exactly, whose entropy is
    exactly 1 bit, so x(alpha) = alpha there and alpha = x needs no root;
    x >= h(q) is read at alpha = 1.
    """
    x, hq = _entropy_x(inst, x)
    q = inst.q
    linear = x <= 2.0 * q
    lo = np.where(linear, x, np.where(x >= hq, 1.0, 2.0 * q))
    hi = np.where(linear, x, 1.0)
    alpha = _least_reaching(_upper_x, _upper_slope, x, lo, hi, x, q)
    return _upper_xy(binary_entropy, inst, alpha)[2][()]


def k_norm(p, beta: float):
    """l^beta norm of the binary distribution (1-p, p), elementwise over p."""
    _check_beta(beta)
    p = _check_range(p, "p")
    return np.power(np.power(p, beta) + np.power(1.0 - p, beta), 1.0 / beta)


def arimoto_mrs_gerber(inst: BscInstance, beta: float, p):
    """Lower-boundary point of the K-frame region at parameter p in [0, q]:
    (K(p), K(p star delta)), elementwise over p.  x spans [K(q), 1]."""
    p = _check_range(p, "p", inst.q)
    return k_norm(p, beta)[()], k_norm(star(p, inst.delta), beta)[()]


def arimoto_mr_gerber(inst: BscInstance, beta: float, alpha):
    """Upper-boundary point of the K-frame region at mixture alpha in [0, 1],
    elementwise over alpha: with z = max(alpha, 2q),
    (1 - alpha + alpha * K(q/z), alpha * K(q/z star delta) + (1 - alpha) * K(delta))."""
    alpha = _check_range(alpha, "alpha")
    _, x, y = _upper_xy(lambda p: k_norm(p, beta), inst, alpha)
    return x[()], y[()]


def k_frame_to_entropy(value: float, beta: float) -> float:
    """Map a K-frame value in (0, 1] to the conditional-entropy frame (nats):
    beta/(1-beta) * log(value).  Inverse of exp((1-beta)/beta * H)."""
    _check_beta(beta)
    if not 0.0 < value <= 1.0 + 1e-12:
        raise ValueError(f"K-frame value must lie in (0, 1], got {value}")
    return beta / (1.0 - beta) * math.log(min(value, 1.0))


CLOSED_FORM_CSV_HEADER = ["q", "delta", "beta", "x", "lower", "upper"]
# The laws closed_form_table computes: the entropy-frame lower and upper
# boundaries, and their K-frame (Arimoto) counterparts, which take a beta.
CLOSED_FORM_LAWS = ("mgl", "mrgl", "arimoto-mgl", "arimoto-mrgl")
# Most rows a closed-form table is computed for.  A table's peak RSS grows
# by ~0.44 KiB per row, its rows and CSV text, over the ~67 MiB of the
# interpreter with numpy and scipy.spatial, so this keeps a run near 0.5
# GiB: a 2^20-row `mgl` or `mrgl` table peaks at 526 MiB and takes 6.2-6.5
# s (2-CPU x86-64 Linux, Python 3.11, numpy 2.4; 541 MiB and 25-34 s with
# one scalar root search per row).
MAX_TABLE_POINTS = 1 << 20
# Rows per call of an entropy-frame law in closed_form_table: the inversion
# holds a dozen candidates per row, so a chunk bounds its temporaries to a
# few MiB each.
_TABLE_CHUNK = 1 << 14


def closed_form_table(
    inst: BscInstance,
    law: str,
    *,
    beta: float | None = None,
    points: int = 101,
) -> list[list[str]]:
    """Rows for the closed-form export schema; the column not covered by the
    requested law stays empty.

    law is one of CLOSED_FORM_LAWS.  Refused before any row is built, in
    this order: a beta for an entropy-frame law and more than
    MAX_TABLE_POINTS points (ConfigError), then fewer than 2 points.
    """
    if law not in CLOSED_FORM_LAWS:
        raise ValueError(f"unknown law {law!r}")
    arimoto = law.startswith("arimoto")
    if beta is not None and not arimoto:
        raise ConfigError(f"beta does not apply to law {law!r}")
    if points > MAX_TABLE_POINTS:
        raise ConfigError(f"points {points}: at most {MAX_TABLE_POINTS} are supported")
    if points < 2:
        raise ValueError("points must be at least 2")
    if arimoto:
        b_str = repr(_check_beta(beta))
        grid = np.linspace(0.0, inst.q if law == "arimoto-mgl" else 1.0, points)
        law_fn = arimoto_mrs_gerber if law == "arimoto-mgl" else arimoto_mr_gerber
        xs, ys = law_fn(inst, beta, grid)
    else:
        b_str = ""
        xs = np.linspace(0.0, binary_entropy(inst.q), points)
        law_fn = mrs_gerber if law == "mgl" else mr_gerber
        ys = np.concatenate(
            [law_fn(inst, xs[i : i + _TABLE_CHUNK]) for i in range(0, points, _TABLE_CHUNK)]
        )
    q_str, d_str = repr(float(inst.q)), repr(float(inst.delta))
    lower = law.endswith("mgl")
    order = np.argsort(xs, kind="stable")
    rows: list[list[str]] = []
    for x, y in zip(xs[order].tolist(), ys[order].tolist()):
        y_str = repr(y)
        rows.append([q_str, d_str, b_str, repr(x), y_str if lower else "", "" if lower else y_str])
    return rows
