"""Acceptance checks: exact closed forms and the independent oracle against
the lifted-hull curves, plus the randomized property suite.

Each check returns a CheckResult with the measured deviation so callers (the
verify CLI and the test suite) can print one pass/fail line per criterion.
Curves and points are read off a sweep.BoundarySlice; A7 also reads its
reference envelope off the graph its slice was cut from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import (
    BscInstance,
    _upper_xy,
    arimoto_mr_gerber,
    arimoto_mrs_gerber,
    mr_gerber,
    mrs_gerber,
)
from .core import (
    LN2,
    Channel,
    DivergenceKernel,
    _pair_values,
    binary_entropy,
    f_information,
    joint_from_marginal_channel,
)
from .envelope import envelope_at
from .oracle import OracleConfig, oracle_boundary
from .sweep import (
    BoundaryCurve,
    BoundarySlice,
    matched_channel_invariance_check,
    slice_point,
    sweep,
)

_ENTROPY = DivergenceKernel.entropy_functional()
_CHI2 = DivergenceKernel.chi_squared()

# Each gate's fixed configuration.  Only A4, A5 and A7 take sizes as
# arguments, which the tests and the benchmark's smoke round shrink.
GATE_RESOLUTION = 4096  # lattice N of A1-A3, A5 and A4's curves
GATE_PROBES = 101  # x-points (or mixture parameters) per curve in A1-A3
ARIMOTO_BETAS = (2.0, 3.0, 4.0)  # the norm orders A3 gates
MATCHED_PERTURBATION = 0.01  # A5 moves q1 by plus and minus this
CHI2_RESOLUTION = 4000  # lattice N of A6
PROPERTY_SEEDS = 200  # seeds of A7


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.criterion}: {status} (max deviation {self.max_deviation:.3e}, "
            f"tolerance {self.tolerance:.1e}; {self.detail})"
        )


def _worst_gap(curve: BoundaryCurve, xs: np.ndarray, ys: np.ndarray, unit: float = 1.0) -> float:
    """Largest gap between the curve, read by linear interpolation and held
    at its end values past its x range, and the exact values ys at the
    probes xs, all in units of `unit` nats (LN2 for bits)."""
    return float(np.abs(np.interp(xs * unit, curve.xs, curve.ys) / unit - ys).max())


def _curve_pair(
    kernel: DivergenceKernel, inst: BscInstance, resolution: int
) -> tuple[BoundaryCurve, BoundaryCurve]:
    """Lower and upper curves read off one BoundarySlice."""
    bslice = BoundarySlice(kernel, kernel, inst.channel(), inst.marginal(), resolution=resolution)
    return tuple(sweep(bslice, side) for side in ("lower", "upper"))


def check_mgl() -> CheckResult:
    """A1: lower entropy curve against the exact lower boundary."""
    inst = BscInstance(q=0.1, delta=0.1)
    curve, _ = _curve_pair(_ENTROPY, inst, GATE_RESOLUTION)
    xs = np.linspace(0.0, binary_entropy(inst.q), GATE_PROBES)
    dev = _worst_gap(curve, xs, mrs_gerber(inst, xs), LN2)
    tol = 2e-3
    return CheckResult(
        "A1 lower-boundary exactness (entropy, BSC 0.1/0.1)",
        dev <= tol,
        dev,
        tol,
        f"{GATE_PROBES} probes, N={GATE_RESOLUTION}, {curve.xs.size} curve points, bits",
    )


def check_mr_gerber() -> CheckResult:
    """A2: upper entropy curve against the exact parametric upper boundary,
    vertical distance after x-interpolation."""
    inst = BscInstance(q=0.1, delta=0.1)
    _, curve = _curve_pair(_ENTROPY, inst, GATE_RESOLUTION)
    _, xs, ys = _upper_xy(binary_entropy, inst, np.linspace(0.0, 1.0, GATE_PROBES))
    dev = _worst_gap(curve, xs, ys, LN2)
    tol = 2e-3
    return CheckResult(
        "A2 upper-boundary exactness (entropy, BSC 0.1/0.1)",
        dev <= tol,
        dev,
        tol,
        f"{GATE_PROBES} parametric probes, N={GATE_RESOLUTION}, {curve.xs.size} curve points, "
        "bits",
    )


def check_arimoto() -> CheckResult:
    """A3: norm-kernel curves against the exact K-frame boundaries, at each
    beta; the deviation is the largest over them."""
    inst = BscInstance(q=0.4, delta=0.2)
    ps = np.linspace(0.0, inst.q, GATE_PROBES)
    alphas = np.linspace(0.0, 1.0, GATE_PROBES)
    devs = []
    for beta in ARIMOTO_BETAS:
        kern = DivergenceKernel.norm_beta(beta)
        lower, upper = _curve_pair(kern, inst, GATE_RESOLUTION)
        devs.append(
            max(
                _worst_gap(lower, *arimoto_mrs_gerber(inst, beta, ps)),
                _worst_gap(upper, *arimoto_mr_gerber(inst, beta, alphas)),
            )
        )
    dev = max(devs)
    tol = 2e-3
    per_beta = ", ".join(f"beta={beta}: {d:.3e}" for beta, d in zip(ARIMOTO_BETAS, devs))
    return CheckResult(
        f"A3 K-frame boundaries (norm beta={'/'.join(map(str, ARIMOTO_BETAS))}, BSC 0.4/0.2)",
        dev <= tol,
        dev,
        tol,
        f"both directions, {GATE_PROBES} probes each, N={GATE_RESOLUTION}; {per_beta}",
    )


def check_oracle_cross(
    resolution: int = 512, n_x: int = 21, sweep_resolution: int = GATE_RESOLUTION
) -> CheckResult:
    """A4: the binary oracle, exhaustive over its grid, against the curves
    (one-sided) and against the closed forms (two-sided, entropy case)."""
    inst = BscInstance(q=0.1, delta=0.1)
    cfg = OracleConfig(resolution)
    tol = 5e-3

    def oracle_ys(kernel: DivergenceKernel, xs: np.ndarray) -> list[np.ndarray]:
        """The oracle's best y at each x, lower then upper."""
        args = (kernel, kernel, inst.channel(), inst.marginal(), xs)
        return [
            np.array([pt.best_y for pt in oracle_boundary(*args, side, cfg)])
            for side in ("lower", "upper")
        ]

    lower_h, upper_h = _curve_pair(_ENTROPY, inst, sweep_resolution)
    xs_h = np.linspace(0.0, binary_entropy(inst.q) * LN2, n_x)
    funnel_h, bottleneck_h = oracle_ys(_ENTROPY, xs_h)
    lower_c, upper_c = _curve_pair(_CHI2, inst, sweep_resolution)
    xs_c = np.linspace(0.0, 1.0, n_x)
    funnel_c, bottleneck_c = oracle_ys(_CHI2, xs_c)
    gaps = (
        # The oracle searches inside the region, so it must not undercut the
        # lower curve nor overshoot the upper one ...
        (np.interp(xs_h, lower_h.xs, lower_h.ys) - funnel_h) / LN2,
        (bottleneck_h - np.interp(xs_h, upper_h.xs, upper_h.ys)) / LN2,
        np.interp(xs_c, lower_c.xs, lower_c.ys) - funnel_c,
        bottleneck_c - np.interp(xs_c, upper_c.xs, upper_c.ys),
        # ... and in the entropy case it meets the closed forms.
        np.abs(funnel_h / LN2 - mrs_gerber(inst, xs_h / LN2)),
        np.abs(bottleneck_h / LN2 - mr_gerber(inst, xs_h / LN2)),
    )
    worst = float(np.concatenate([[0.0], *gaps]).max())
    return CheckResult(
        "A4 oracle cross-validation (BSC 0.1/0.1)",
        worst <= tol,
        worst,
        tol,
        f"{n_x} x-points, N={sweep_resolution}, oracle grid {resolution}; "
        "entropy vs curves and closed forms; chi2 vs curves",
    )


def check_matched(n_points: int = 10, resolution: int = GATE_RESOLUTION) -> CheckResult:
    """A5: matched channels transported to a perturbed marginal agree with a
    support query on the slice at that marginal and keep the same atom set.
    The entropy kernel is marginal-free, so each perturbed slice is re-cut
    from the base slice's lifted hull (BoundarySlice.at), bit for bit the
    slice a fresh build gives."""
    inst = BscInstance(q=0.1, delta=0.1)
    channel, q = inst.channel(), inst.marginal()
    base = BoundarySlice(_ENTROPY, _ENTROPY, channel, q, resolution=resolution)
    curve = sweep(base, "lower")
    q0 = float(curve.marginal.probs[1])
    margin = MATCHED_PERTURBATION + 0.005
    # Two-atom points at a finite slope whose atoms straddle q0 by more
    # than the margin, read off the curve's arrays (-1 slots are masked).
    used = curve.atoms >= 0
    p1 = curve.rows[curve.atoms, 1]
    lo = np.where(used, p1, np.inf).min(axis=1)
    hi = np.where(used, p1, -np.inf).max(axis=1)
    candidates = np.flatnonzero(
        (used.sum(axis=1) == 2) & np.isfinite(curve.lams) & (lo < q0 - margin) & (hi > q0 + margin)
    )
    if len(candidates) < n_points:
        return CheckResult(
            "A5 matched-channel invariance", False, math.inf, 5e-3,
            f"only {len(candidates)} usable non-trivial points, N={resolution}",
        )
    # Only the picked points are built, each as the slice's point at its
    # curve slope: the curve's own vertex there.
    index = candidates[np.linspace(0, len(candidates) - 1, n_points).astype(int)]
    picks = [slice_point(base, lam, "lower") for lam in curve.lams[index].tolist()]
    tol = 5e-3
    worst = 0.0
    atom_mismatch = 0
    for dq in (MATCHED_PERTURBATION, -MATCHED_PERTURBATION):
        q_new = np.array([1.0 - (q0 + dq), q0 + dq])
        # One slice per perturbed marginal serves every picked slope.
        bslice = base.at(q_new)
        for point in picks:
            moved = matched_channel_invariance_check(point, q_new, _ENTROPY, _ENTROPY, channel)
            fresh = slice_point(bslice, point.lam, "lower")
            worst = max(worst, abs(moved.x - fresh.x) / LN2, abs(moved.y - fresh.y) / LN2)
            got = sorted(a.probs[1] for _, a in moved.witness.atoms)
            want = sorted(a.probs[1] for _, a in fresh.witness.atoms)
            if len(got) != len(want) or any(abs(u - v) > 0 for u, v in zip(got, want)):
                atom_mismatch += 1
    passed = worst <= tol and atom_mismatch == 0
    return CheckResult(
        "A5 matched-channel invariance (entropy, BSC 0.1/0.1)",
        passed,
        worst,
        tol,
        f"{n_points} points, N={resolution}, perturbation +/-{MATCHED_PERTURBATION}, "
        f"atom mismatches {atom_mismatch}, bits",
    )


def check_chi2_endpoints() -> CheckResult:
    """A6: chi-squared curves hit (0, 0) and the exact full-information
    endpoint, and never exceed the m-1 bound."""
    inst = BscInstance(q=0.1, delta=0.1)
    lower, upper = _curve_pair(_CHI2, inst, CHI2_RESOLUTION)
    joint = joint_from_marginal_channel(lower.marginal, lower.channel)
    chi_xy = f_information(_CHI2, joint)
    # For a binary X, x is at most m - 1 = 1, reached by W = X, whose y is
    # the chi-squared information of X and Y.
    endpoint_dev = max(abs(float(np.interp(1.0, c.xs, c.ys)) - chi_xy) for c in (lower, upper))
    bound_excess = max(max(lower.xs.max(), upper.xs.max()) - 1.0, 0.0)
    origin_dev = max(
        abs(lower.xs[0]) + abs(lower.ys[0]),
        abs(upper.xs[0]) + abs(upper.ys[0]),
    )
    passed = endpoint_dev <= 1e-6 and bound_excess <= 1e-9 and origin_dev <= 1e-9
    return CheckResult(
        "A6 chi-squared endpoints and bounds (BSC 0.1/0.1)",
        passed,
        max(endpoint_dev, bound_excess, origin_dev),
        1e-6,
        f"endpoint dev {endpoint_dev:.2e}, bound excess {bound_excess:.2e}, "
        f"origin dev {origin_dev:.2e}",
    )


def _slope_grid(x_values: np.ndarray, y_values: np.ndarray, steps: int) -> np.ndarray:
    """Slopes A7 draws from: zero, a uniform ramp and a geometric tail up to
    twice the largest chord slope from either x-extreme of the graph cloud
    (an upper bound on the slopes that produce new tangencies)."""
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    top = 0.0
    for anchor in (int(np.argmin(x)), int(np.argmax(x))):
        dx = x - x[anchor]
        dy = y - y[anchor]
        mask = np.abs(dx) > 1e-12
        if np.any(mask):
            top = max(top, float(np.max(np.abs(dy[mask] / dx[mask]))))
    lam_max = 2.0 * top if top > 0.0 else 1.0
    n_geo = steps // 3
    uniform = np.linspace(0.0, lam_max, steps - n_geo + 1)[1:]
    geometric = lam_max * np.logspace(-8.0, 0.0, max(n_geo, 1))
    return np.unique(np.concatenate([[0.0], uniform, geometric]))


def run_property_suite(n_seeds: int = PROPERTY_SEEDS) -> list[str]:
    """A7: randomized envelope/witness/DPI/cardinality/closed-form checks.
    Returns a list of violation descriptions (empty means a clean pass).

    Each seed that gets through its slice checks draws a binary symmetric
    instance; the closed forms are checked on all of them at once, after
    the seed loop, and their violations join each seed's own in seed order."""
    per_seed: list[list[str]] = []
    bsc_seeds: list[int] = []
    bsc_draws: list[tuple[float, float]] = []
    kernels = [
        DivergenceKernel.entropy_functional(),
        DivergenceKernel.kl(),
        DivergenceKernel.chi_squared(),
    ]
    for seed in range(n_seeds):
        violations: list[str] = []
        per_seed.append(violations)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        T = rng.exponential(size=(n, m)) + 0.05
        channel = Channel(T / T.sum(axis=0, keepdims=True))
        q = rng.exponential(size=m)
        # Blend toward uniform: divergence references need full support.
        q = 0.6 * q / q.sum() + 0.4 / m
        kernel = kernels[int(rng.integers(0, len(kernels)))]
        direction = "lower" if rng.integers(0, 2) == 0 else "upper"
        resolution = 64 if m == 2 else 12
        try:
            # The slice's graph serves the reference envelope too; its
            # last row is q.
            bslice = BoundarySlice(kernel, kernel, channel, q, resolution=resolution)
            graph = bslice.region.graph
            grid = _slope_grid(graph.x_values, graph.y_values, steps=16)
            lam = float(grid[int(rng.integers(0, grid.size))])
            phi = graph.y_values - lam * graph.x_values
            env_at_q = envelope_at(graph.lattice, phi[:-1], graph.q, phi[-1], direction)
        except Exception as exc:  # any crash is a violation
            violations.append(f"seed {seed}: slice or envelope construction failed: {exc}")
            continue

        try:
            point = slice_point(bslice, lam, direction)
        except Exception as exc:
            violations.append(f"seed {seed}: boundary point failed: {exc}")
            continue
        if len(point.witness.atoms) > m + 1:
            violations.append(f"seed {seed}: witness has {len(point.witness.atoms)} atoms")
        # The witness re-evaluated through the functionals the graph kept.
        P, w = point.witness.conditionals(), point.witness.weights()
        fv, gv = _pair_values(graph.f, graph.g, channel.matrix, P)
        x_re, y_re = float(w @ fv), float(w @ gv)
        if abs(x_re - point.x) > 1e-9 or abs(y_re - point.y) > 1e-9:
            violations.append(f"seed {seed}: witness does not reproduce its point")
        support_line = point.y - lam * point.x
        # The single atom at q is feasible, so the support value never
        # passes phi_lam(q).
        sign = 1.0 if direction == "lower" else -1.0
        dom = sign * (support_line - float(phi[-1]))
        if dom > 1e-12:
            violations.append(f"seed {seed}: support value passes phi_lam(q) by {dom:.2e}")
        if abs(support_line - env_at_q) > 1e-7:
            violations.append(
                f"seed {seed}: supporting line off the envelope by "
                f"{abs(support_line - env_at_q):.2e}"
            )
        if kernel.is_divergence:
            joint = joint_from_marginal_channel(q, channel)
            dpi = f_information(kernel, joint)
            if point.y > dpi + 1e-7:
                violations.append(
                    f"seed {seed}: data-processing bound broken ({point.y} > {dpi})"
                )
        bsc_seeds.append(seed)
        bsc_draws.append((float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.0, 0.5))))

    for seed, found in zip(bsc_seeds, _closed_form_violations(bsc_draws)):
        per_seed[seed].extend(f"seed {seed}: {text}" for text in found)
    return [text for violations in per_seed for text in violations]


def _closed_form_violations(draws: list[tuple[float, float]]) -> list[list[str]]:
    """A7's closed-form checks for each (q, delta) draw, with one call per
    closed form over all draws: the lower boundary never above the upper
    one on 17 x-probes (only the first broken probe is named), and the two
    equal at both ends, x = 0 and x = h(q)."""
    if not draws:
        return []
    q, delta = (np.array(column)[:, None] for column in zip(*draws))
    inst = BscInstance(q=q, delta=delta)
    # np.linspace puts x = 0 and x = h(q) exactly at the ends of each row.
    xs = np.linspace(0.0, binary_entropy(q[:, 0]), 17, axis=-1)
    lo, hi = mrs_gerber(inst, xs), mr_gerber(inst, xs)
    broken = lo > hi + 1e-12
    ends = np.abs(lo[:, [0, -1]] - hi[:, [0, -1]]).max(axis=1) > 1e-9
    found: list[list[str]] = []
    for row in range(len(draws)):
        texts = []
        if broken[row].any():
            texts.append(f"closed-form sandwich broken at x={xs[row, broken[row].argmax()]}")
        if ends[row]:
            texts.append("closed forms differ at an endpoint")
        found.append(texts)
    return found


def check_properties() -> CheckResult:
    """A7 as one result: the violation count is the deviation."""
    violations = run_property_suite()
    return CheckResult(
        "A7 property suites",
        not violations,
        float(len(violations)),
        0.0,
        f"{PROPERTY_SEEDS} seeds" + (f", first: {violations[0]}" if violations else ""),
    )


SUITES = {
    "mgl": check_mgl,
    "mrgl": check_mr_gerber,
    "arimoto": check_arimoto,
    "oracle-cross": check_oracle_cross,
    "matched": check_matched,
    "chi2-endpoints": check_chi2_endpoints,
    "properties": check_properties,
}
