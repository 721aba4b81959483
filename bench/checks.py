"""Output checks and quality readings for the benchmark's operations.

Every check raises CheckFailed with a one-line reason; the harness counts
that as a failed operation.  Nothing here runs inside a timed region.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from bottleneck_lab.closed_forms import BscInstance, mr_gerber, mrs_gerber
from bottleneck_lab.core import (
    LN2,
    DivergenceKernel,
    binary_entropy,
    entropy,
    f_information,
    joint_from_marginal_channel,
    resolve_functional,
)
from bottleneck_lab.oracle import OracleConfig, oracle_boundary

ROW_TOL = 1e-9  # witness mixture and (x, y) re-evaluation
CLOSED_FORM_TOL_BITS = 2e-3  # A1/A2 gate
ORACLE_TOL_NATS = 5e-3 * LN2  # A4 gate, stated in bits
CHI2_ENDPOINT_TOL = 1e-6  # A6 gate
ORACLE_TARGETS = 5


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def read_curves(path) -> dict[str, list[dict]]:
    """CSV rows grouped by direction, each sorted by (x, y)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out: dict[str, list[dict]] = {"lower": [], "upper": []}
    for row in rows:
        atoms = json.loads(row["witness_json"])["atoms"]
        out[row["direction"]].append(
            {
                "x": float(row["x"]),
                "y": float(row["y"]),
                "alpha": np.array([a["alpha"] for a in atoms]),
                "P": np.array([a["p"] for a in atoms]),
            }
        )
    for direction, pts in out.items():
        _require(len(pts) >= 2, f"{direction} curve has {len(pts)} points")
        pts.sort(key=lambda r: (r["x"], r["y"]))
    return out


def check_rows(curves: dict[str, list[dict]], kernel: DivergenceKernel, T: np.ndarray) -> np.ndarray:
    """Every witness mixes to one common marginal and re-evaluates to its
    row's (x, y).  Returns the common marginal."""
    common = None
    for direction, pts in curves.items():
        for r in pts:
            mix = r["alpha"] @ r["P"]
            if common is None:
                common = mix
            dev = float(np.abs(mix - common).max())
            _require(dev <= ROW_TOL, f"{direction} witness mixes to another marginal ({dev:.2e})")
    f_fn = resolve_functional(kernel, common if kernel.is_divergence else None)
    g_fn = resolve_functional(kernel, T @ common if kernel.is_divergence else None)
    for direction, pts in curves.items():
        for r in pts:
            x = float(r["alpha"] @ f_fn(r["P"]))
            y = float(r["alpha"] @ g_fn(r["P"] @ T.T))
            dev = max(abs(x - r["x"]), abs(y - r["y"]))
            _require(dev <= ROW_TOL, f"{direction} witness misses its row by {dev:.2e}")
    return common


def xy(pts: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([r["x"] for r in pts]), np.array([r["y"] for r in pts])


def region_area(lower: tuple, upper: tuple) -> float:
    """Area between the upper and lower polylines over their common x-range."""
    (xl, yl), (xu, yu) = lower, upper
    lo, hi = max(xl[0], xu[0]), min(xl[-1], xu[-1])
    xs = np.unique(np.concatenate([xl, xu, [lo, hi]]))
    xs = xs[(xs >= lo) & (xs <= hi)]
    return float(np.trapezoid(np.interp(xs, xu, yu) - np.interp(xs, xl, yl), xs))


def closed_form_dev_bits(inst: BscInstance, lower_h: tuple, upper_h: tuple, probes: int = 101) -> float:
    """Largest vertical distance, in bits, of entropy-frame curves (nats)
    from the closed forms: lower against mrs_gerber, upper against mr_gerber."""
    hq = binary_entropy(inst.q)
    worst = 0.0
    for (xs, ys), exact in ((lower_h, mrs_gerber), (upper_h, mr_gerber)):
        xb, yb = xs / LN2, ys / LN2
        lo, hi = max(xb[0], 0.0), min(xb[-1], hq)
        grid = np.concatenate([xb[(xb >= lo) & (xb <= hi)], np.linspace(lo, hi, probes)])
        for x in grid:
            worst = max(worst, abs(float(np.interp(x, xb, yb)) - exact(inst, float(x))))
    return worst


def mi_to_entropy_frame(pts: tuple, hx: float, hy: float) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) -> (H(X) - x, H(Y) - y), re-sorted by x."""
    xs, ys = hx - pts[0], hy - pts[1]
    order = np.argsort(xs, kind="stable")
    return xs[order], ys[order]


def check_bsc(curves, q_user: np.ndarray, T: np.ndarray, inst: BscInstance) -> dict:
    """bsc-ib: rows, then both MI curves within the A1/A2 gate of the closed
    forms after the frame map (upper MI <-> lower entropy boundary)."""
    check_rows(curves, DivergenceKernel.kl(), T)
    lower, upper = xy(curves["lower"]), xy(curves["upper"])
    hx, hy = entropy(q_user), entropy(T @ q_user)
    dev = closed_form_dev_bits(
        inst, mi_to_entropy_frame(upper, hx, hy), mi_to_entropy_frame(lower, hx, hy)
    )
    _require(dev <= CLOSED_FORM_TOL_BITS, f"closed-form deviation {dev:.3e} bits > {CLOSED_FORM_TOL_BITS}")
    return {"region_area": region_area(lower, upper), "max_dev_bits": dev}


def _endpoints(curves, far: tuple[float, float], tol: float) -> None:
    for direction, pts in curves.items():
        first, last = pts[0], pts[-1]
        _require(
            abs(first["x"]) <= ROW_TOL and abs(first["y"]) <= ROW_TOL,
            f"{direction} curve starts at ({first['x']:.3e}, {first['y']:.3e}), not (0, 0)",
        )
        _require(
            abs(last["x"] - far[0]) <= tol and abs(last["y"] - far[1]) <= tol,
            f"{direction} curve ends at ({last['x']}, {last['y']}), not {far}",
        )
        top = max(r["y"] for r in pts)
        _require(top <= far[1] + tol, f"{direction} curve exceeds the data-processing bound")


def check_ternary_ib(curves, T: np.ndarray) -> dict:
    """ternary-ib: rows, exact endpoints, y <= I(X;Y), and a one-sided
    sandwich against oracle_boundary (it may not beat the curves)."""
    kl = DivergenceKernel.kl()
    q = check_rows(curves, kl, T)
    joint = joint_from_marginal_channel(q, T)
    hx, ixy = entropy(q), f_information(kl, joint)
    _endpoints(curves, (hx, ixy), ROW_TOL)
    lower, upper = xy(curves["lower"]), xy(curves["upper"])
    cfg = OracleConfig()
    for x in np.linspace(0.0, hx, ORACLE_TARGETS + 2)[1:-1]:
        up = oracle_boundary(kl, kl, T, q, float(x), "upper", cfg)
        gap = up.best_y - float(np.interp(x, *upper))
        _require(not up.feasible or gap <= ORACLE_TOL_NATS, f"oracle beats upper curve by {gap:.3e} at x={x:.4f}")
        lo = oracle_boundary(kl, kl, T, q, float(x), "lower", cfg)
        gap = float(np.interp(x, *lower)) - lo.best_y
        _require(not lo.feasible or gap <= ORACLE_TOL_NATS, f"oracle undercuts lower curve by {gap:.3e} at x={x:.4f}")
    return {"region_area": region_area(lower, upper)}


def check_quaternary_eb(curves, T: np.ndarray) -> dict:
    """quaternary-eb: rows, origin, far endpoint y = chi2-information (A6),
    and x <= m - 1."""
    chi2 = DivergenceKernel.chi_squared()
    q = check_rows(curves, chi2, T)
    m = q.size
    far_y = f_information(chi2, joint_from_marginal_channel(q, T))
    _endpoints(curves, (float(m - 1), far_y), CHI2_ENDPOINT_TOL)
    widest = max(r["x"] for pts in curves.values() for r in pts)
    _require(widest <= m - 1 + ROW_TOL, f"x = {widest} exceeds m - 1 = {m - 1}")
    return {"region_area": region_area(xy(curves["lower"]), xy(curves["upper"]))}


def check_verify(name: str, result) -> None:
    """verify: the acceptance call passed its own gate."""
    if isinstance(result, list):
        _require(not result, f"{name}: {len(result)} violations, first: {result[0] if result else ''}")
    else:
        _require(result.passed, result.line())


def verify_quality(curves: list, inst: BscInstance) -> dict:
    """Region area and closed-form deviation of A4's entropy-frame sweeps."""
    by_dir = {c.direction: (c.xs, c.ys) for c in curves if c.frame == "entropy"}
    _require(set(by_dir) == {"lower", "upper"}, "A4 did not sweep both entropy curves")
    return {
        "region_area": region_area(by_dir["lower"], by_dir["upper"]),
        "max_dev_bits": closed_form_dev_bits(inst, by_dir["lower"], by_dir["upper"]),
    }
