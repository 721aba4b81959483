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
    _check_beta,
    _check_unit_interval,
    _h2,
    binary_entropy,
    binary_entropy_inv,
    star,
)
from .sweep import WitnessChannel


@dataclass(frozen=True)
class BscInstance:
    """Binary source P(X=1) = q <= 1/2 observed through a symmetric channel
    with crossover probability delta <= 1/2."""

    q: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 0.5:
            raise ValueError(f"q must lie in [0, 1/2], got {self.q}")
        if not 0.0 <= self.delta <= 0.5:
            raise ValueError(f"delta must lie in [0, 1/2], got {self.delta}")

    def marginal(self) -> Distribution:
        return Distribution([1.0 - self.q, self.q])

    def channel(self) -> Channel:
        d = self.delta
        return Channel([[1.0 - d, d], [d, 1.0 - d]])


@dataclass(frozen=True, eq=False)
class GerberPoint:
    """One upper-boundary point with its mixture parameter and witness."""

    x: float
    y: float
    alpha: float
    witness: WitnessChannel


def _entropy_x(inst: BscInstance, x: float) -> tuple[float, float]:
    """x clamped to [0, h(q)] (bits), refused when it is nan or further
    outside than rounding; and h(q)."""
    hq = binary_entropy(inst.q)
    if not -1e-12 <= x <= hq + 1e-9:
        raise ValueError(f"x = {x} outside [0, {hq}]")
    return min(max(x, 0.0), hq), hq


def mrs_gerber(inst: BscInstance, x: float) -> float:
    """Lower boundary of the conditional-entropy region in bits:
    h(delta star h^{-1}(x)) for x in [0, h(q)].  Convex and non-decreasing."""
    x, hq = _entropy_x(inst, x)
    if x >= hq:
        # h^-1(h(q)) differs from q in its last bits; the endpoint is known.
        return binary_entropy(star(inst.delta, inst.q))
    return binary_entropy(star(inst.delta, binary_entropy_inv(x)))


def _binary(p1: float) -> Distribution:
    return Distribution([1.0 - p1, p1])


def _ratio(q: float, alpha: float) -> float:
    """q/z with z = max(alpha, 2q), capped at 1; 1/2 when z = 0."""
    z = max(alpha, 2.0 * q)
    return 0.5 if z == 0.0 else min(q / z, 1.0)


def _upper_xy(
    F: Callable[[float], float], inst: BscInstance, alpha: float
) -> tuple[float, float, float]:
    """(r, x, y) of the upper-boundary point at mixture alpha, r = _ratio(q,
    alpha), under the binary functional F (h in bits, or K_beta): x = (1 -
    alpha) F(0) + alpha F(r), y = alpha F(delta star r) + (1 - alpha) F(delta).
    F(0) is exactly 0 or 1.  Scalars only, no witness."""
    delta = inst.delta
    ratio = _ratio(inst.q, alpha)
    x = (1.0 - alpha) * F(0.0) + alpha * F(ratio)
    y = alpha * F(star(delta, ratio)) + (1.0 - alpha) * F(delta)
    return ratio, float(x), float(y)


def mr_gerber_point(inst: BscInstance, alpha: float) -> GerberPoint:
    """Upper-boundary point at mixture parameter alpha in [0, 1].

    With z = max(alpha, 2q):  x = alpha * h(q/z),
    y = alpha * h(delta star q/z) + (1 - alpha) * h(delta).

    The witness has two regimes.  For alpha >= 2q it mixes the point mass on
    X = 0 with the tilted conditional P(X=1|W=1) = q/alpha; for alpha < 2q it
    mixes both point masses with the uniform conditional, with weights
    (1 - q - alpha/2, q - alpha/2, alpha).
    """
    alpha = _check_unit_interval(alpha, "alpha")
    q = inst.q
    ratio, x, y = _upper_xy(binary_entropy, inst, alpha)
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
    return GerberPoint(x=x, y=y, alpha=float(alpha), witness=witness)


def mr_gerber(inst: BscInstance, x: float) -> float:
    """Upper boundary in bits as a function of x, by monotone inversion of
    the alpha parametrization (x is continuous non-decreasing in alpha).
    Concave on [0, h(q)].

    The inversion is scalar: brentq runs on the x-coordinate alone and no
    witness is built; mr_gerber_point gives the point with its witness.
    On alpha <= 2q the tilted conditional is q / (2q) = 1/2 exactly, whose
    entropy is exactly 1 bit, so x(alpha) = alpha there and needs no root.
    """
    x, hq = _entropy_x(inst, x)
    q = inst.q
    if x <= 2.0 * q:
        return _upper_xy(binary_entropy, inst, x)[2]
    if x >= hq:
        return _upper_xy(binary_entropy, inst, 1.0)[2]

    def gap(alpha: float) -> float:
        # x of _upper_xy alone, with the unchecked entropy: ratio is
        # in [0, 1] by construction.
        return alpha * _h2(_ratio(q, alpha)) - x

    # Imported here, not at module level: `cli` imports this module, and a
    # `curve` run should not load scipy.optimize (~11 MiB of RSS).
    import scipy.optimize

    alpha = scipy.optimize.brentq(gap, 0.0, 1.0, xtol=1e-13, rtol=9e-16)
    return _upper_xy(binary_entropy, inst, float(alpha))[2]


def k_norm(p: float, beta: float) -> float:
    """l^beta norm of the binary distribution (1-p, p)."""
    _check_beta(beta)
    p = _check_unit_interval(p, "p")
    return (p**beta + (1.0 - p) ** beta) ** (1.0 / beta)


def arimoto_mrs_gerber(inst: BscInstance, beta: float, p: float) -> tuple[float, float]:
    """Lower-boundary point of the K-frame region at parameter p in [0, q]:
    (K(p), K(p star delta)).  x spans [K(q), 1]."""
    if not -1e-12 <= p <= inst.q + 1e-12:
        raise ValueError(f"p = {p} outside [0, q = {inst.q}]")
    p = min(max(p, 0.0), inst.q)
    return k_norm(p, beta), k_norm(star(p, inst.delta), beta)


def arimoto_mr_gerber(inst: BscInstance, beta: float, alpha: float) -> tuple[float, float]:
    """Upper-boundary point of the K-frame region at mixture alpha in [0, 1]:
    with z = max(alpha, 2q),
    (1 - alpha + alpha * K(q/z), alpha * K(q/z star delta) + (1 - alpha) * K(delta))."""
    alpha = _check_unit_interval(alpha, "alpha")
    _, x, y = _upper_xy(lambda p: k_norm(p, beta), inst, alpha)
    return x, y


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
# by ~0.45 KiB per row (its rows and CSV text: 106 MiB at 65 536 rows, of
# which ~78 MiB is the interpreter with numpy and scipy; x86-64 Linux), so
# this keeps a run near 0.5 GiB.
MAX_TABLE_POINTS = 1 << 20


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
    rows: list[list[str]] = []
    q_str, d_str = repr(float(inst.q)), repr(float(inst.delta))
    if not arimoto:
        xs = np.linspace(0.0, binary_entropy(inst.q), points)
        for x in xs:
            lower = repr(mrs_gerber(inst, float(x))) if law == "mgl" else ""
            upper = repr(mr_gerber(inst, float(x))) if law == "mrgl" else ""
            rows.append([q_str, d_str, "", repr(float(x)), lower, upper])
        return rows
    b_str = repr(_check_beta(beta))
    if law == "arimoto-mgl":
        for p in np.linspace(0.0, inst.q, points):
            x, y = arimoto_mrs_gerber(inst, beta, float(p))
            rows.append([q_str, d_str, b_str, repr(x), repr(y), ""])
    else:
        for alpha in np.linspace(0.0, 1.0, points):
            x, y = arimoto_mr_gerber(inst, beta, float(alpha))
            rows.append([q_str, d_str, b_str, repr(x), "", repr(y)])
    rows.sort(key=lambda r: float(r[3]))
    return rows
