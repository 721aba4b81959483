import csv
import dataclasses
import io
import importlib
import math
import random
import warnings
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from bottleneck_lab import (
    BscInstance,
    Channel,
    Distribution,
    DivergenceKernel,
    SimplexLattice,
    WitnessChannel,
    binary_entropy,
    binary_entropy_inv,
    bottleneck_value,
    bsc_joint,
    conditional_f_information,
    entropy,
    f_information,
    funnel_value,
    joint_from_marginal_channel,
    matched_channel_invariance_check,
    mr_gerber_point,
    mrs_gerber,
    problem_curve,
    star,
    sweep,
)
from bottleneck_lab.acceptance import _slope_grid
from bottleneck_lab.core import LN2, _pair_values, resolve_functional
from bottleneck_lab import envelope
from bottleneck_lab.envelope import build_lagrangian_graph, envelope_at, region_slice
from bottleneck_lab.sweep import BoundarySlice, curve_csv_text, slice_point

# The package's `sweep` attribute is the function, not the module.
sweep_module = importlib.import_module("bottleneck_lab.sweep")

ENTROPY = DivergenceKernel.entropy_functional()
KL = DivergenceKernel.kl()
CHI2 = DivergenceKernel.chi_squared()

INST = BscInstance(q=0.1, delta=0.1)


def quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args)


@pytest.fixture(scope="module")
def kl_curves():
    lower = sweep(bsc_slice(KL, resolution=512), "lower")
    upper = sweep(bsc_slice(KL, resolution=512), "upper")
    return lower, upper


@pytest.fixture(scope="module")
def entropy_lower_fine():
    return sweep(bsc_slice(ENTROPY, resolution=4096), "lower")


def bsc_slice(kernel, inst=INST, **grid):
    """BoundarySlice of the kernel pair for a binary symmetric instance."""
    return BoundarySlice(kernel, kernel, inst.channel(), inst.marginal(), **grid)


def bsc_point(kernel, lam, direction, inst=INST, **grid):
    """slice_point at slope lam on a fresh bsc_slice."""
    return slice_point(bsc_slice(kernel, inst, **grid), lam, direction)


class TestSlicePoint:
    def test_convex_regime_gives_trivial_point(self):
        lam = (1.0 - 2.0 * INST.delta) ** 2
        point = bsc_point(ENTROPY, lam, "lower", resolution=200)  # q = 0.1 on the lattice
        assert point.trivial
        assert math.isclose(point.x / LN2, binary_entropy(INST.q), abs_tol=1e-12)
        assert math.isclose(
            point.y / LN2, binary_entropy(star(INST.delta, INST.q)), abs_tol=1e-12
        )
        assert len(point.witness.atoms) == 1

    def test_nontrivial_witness_is_symmetric_matched_channel(self):
        point = bsc_point(ENTROPY, 0.3, "lower", resolution=4096)
        assert not point.trivial
        ps = sorted(a.probs[1] for _, a in point.witness.atoms)
        r = binary_entropy_inv(point.x / LN2)
        assert abs(ps[0] - r) <= 2.0 / 4096 + 1e-9
        assert abs(ps[1] - (1.0 - r)) <= 2.0 / 4096 + 1e-9

    def test_zero_slope_upper_chi2_hits_full_information(self):
        point = bsc_point(CHI2, 0.0, "upper", resolution=512)
        joint = joint_from_marginal_channel(point.witness.marginal, INST.channel())
        assert math.isclose(point.x, 1.0, abs_tol=1e-9)
        assert math.isclose(point.y, f_information(CHI2, joint), abs_tol=1e-9)

    @pytest.mark.parametrize(
        "lam, direction", [(math.inf, "lower"), (-math.inf, "upper"), (math.nan, "lower")]
    )
    def test_non_finite_slope_is_refused(self, lam, direction):
        # At lam = +-inf, 0 * inf is nan at the trivial vertex (x = 0), and
        # the support query returned that vertex, not the x-maximum; a nan
        # slope returned the chain's first vertex.
        bslice = bsc_slice(KL, resolution=64)
        with pytest.raises(ValueError, match=f"lam = {lam} is not finite"):
            slice_point(bslice, lam, direction)


class TestSweep:
    def test_lower_tracks_exact_boundary_coarsely(self):
        curve = sweep(bsc_slice(ENTROPY, resolution=512), "lower")
        for x in np.linspace(0.0, binary_entropy(INST.q), 33):
            got = quiet(funnel_value, curve, float(x) * LN2) / LN2
            assert abs(got - mrs_gerber(INST, float(x))) <= 5e-3

    def test_explicit_log_spaced_grid(self):
        # Support queries at 200 log-spaced slopes up to the convexity
        # threshold land on vertices of the lower curve and reproduce the
        # exact lower boundary.
        lam_max = (1.0 - 2.0 * INST.delta) ** 2
        grid = np.concatenate([[0.0], np.geomspace(1e-8 * lam_max, lam_max, 200)])
        bslice = bsc_slice(ENTROPY, resolution=2048)
        region = bslice.region
        curve = sweep(bslice, "lower")
        picked = sorted({region.support(float(lam), "lower") for lam in grid},
                        key=lambda k: region.x[k])
        xs, ys = region.x[picked], region.y[picked]
        on_curve = set(zip(curve.xs.tolist(), curve.ys.tolist()))
        assert set(zip(xs.tolist(), ys.tolist())) <= on_curve
        for x in np.linspace(0.0, binary_entropy(INST.q), 50):
            got = float(np.interp(x * LN2, xs, ys)) / LN2
            assert abs(got - mrs_gerber(INST, float(x))) <= 2e-3

    def test_upper_tracks_exact_boundary_coarsely(self):
        curve = sweep(bsc_slice(ENTROPY, resolution=512), "upper")
        for alpha in np.linspace(0.0, 1.0, 33):
            pt = mr_gerber_point(INST, float(alpha))
            got = quiet(bottleneck_value, curve, pt.x * LN2) / LN2
            assert abs(got - pt.y) <= 5e-3

    def test_curves_pass_through_origin_in_divergence_frame(self, kl_curves):
        lower, upper = kl_curves
        for curve in kl_curves:
            assert abs(curve.xs[0]) <= 1e-12
            assert abs(curve.ys[0]) <= 1e-12

    def test_supporting_line_property(self, kl_curves):
        lower, upper = kl_curves
        for curve, sign in ((lower, 1.0), (upper, -1.0)):
            xs, ys = curve.xs, curve.ys
            for p in curve.points:
                if not math.isfinite(p.lam):
                    continue
                margin = sign * ((ys - p.lam * xs) - (p.y - p.lam * p.x))
                assert margin.min() >= -1e-7

    def test_witness_consistency(self, kl_curves):
        for curve in kl_curves:
            for p in curve.points:
                x_re = conditional_f_information(
                    KL,
                    p.witness.weights(),
                    [a for _, a in p.witness.atoms],
                    p.witness.marginal,
                )
                assert abs(x_re - p.x) <= 1e-9

    def test_data_processing_bound(self, kl_curves):
        lower, upper = kl_curves
        joint = joint_from_marginal_channel(upper.marginal, upper.channel)
        bound = f_information(KL, joint)
        assert upper.ys.max() <= bound + 1e-7
        assert lower.ys.max() <= bound + 1e-7

    def test_witness_cardinality(self, kl_curves):
        for curve in kl_curves:
            for p in curve.points:
                assert len(p.witness.atoms) <= curve.marginal.m + 1

    def test_lower_curve_convex_upper_concave(self, kl_curves):
        lower, upper = kl_curves
        for curve, sign in ((lower, 1.0), (upper, -1.0)):
            xs, ys = curve.xs, curve.ys
            for i in range(len(xs) - 2):
                cross = (xs[i + 1] - xs[i]) * (ys[i + 2] - ys[i]) - (
                    ys[i + 1] - ys[i]
                ) * (xs[i + 2] - xs[i])
                assert sign * cross >= -1e-9

    def test_product_joint_curves_are_flat_zero(self):
        joint = np.outer([0.6, 0.4], [0.3, 0.7])
        from bottleneck_lab import JointDistribution, decompose_joint

        q, T = decompose_joint(JointDistribution(joint))
        for direction in ("lower", "upper"):
            curve = sweep(BoundarySlice(KL, KL, T, q, resolution=256), direction)
            assert np.abs(curve.ys).max() <= 1e-12

    def test_total_variation_region_is_a_segment(self):
        # For a binary symmetric channel the output deviation is exactly
        # (1 - 2 delta) times the input deviation, so the whole region
        # collapses to a line through the origin with that slope.
        tv = DivergenceKernel.total_variation()
        lower = sweep(bsc_slice(tv, resolution=512), "lower")
        upper = sweep(bsc_slice(tv, resolution=512), "upper")
        slope = 1.0 - 2.0 * INST.delta
        for curve in (lower, upper):
            for p in curve.points:
                assert abs(p.y - slope * p.x) <= 1e-12

    def test_degenerate_channel_flat_entropy_curve(self):
        inst = BscInstance(q=0.2, delta=0.5)
        curve = sweep(bsc_slice(ENTROPY, inst, resolution=512), "lower")
        assert np.allclose(curve.ys, math.log(2.0), atol=1e-12)

    @pytest.mark.parametrize(
        "f_kernel, g_kernel, frame",
        [
            (ENTROPY, ENTROPY, "entropy"),
            (DivergenceKernel.norm_beta(3.0), DivergenceKernel.norm_beta(3.0), "K"),
            (KL, KL, "finfo"),
            (CHI2, CHI2, "finfo"),
            (DivergenceKernel.total_variation(), DivergenceKernel.total_variation(), "finfo"),
            (ENTROPY, KL, "finfo"),
        ],
        ids=["entropy", "norm", "kl", "chi2", "tv", "mixed"],
    )
    def test_frame_follows_the_kernels(self, f_kernel, g_kernel, frame):
        bslice = BoundarySlice(f_kernel, g_kernel, INST.channel(), INST.marginal(), resolution=64)
        assert sweep(bslice, "lower").frame == frame


class TestValueQueries:
    def test_zero_budget_gives_zero(self, kl_curves):
        lower, upper = kl_curves
        assert funnel_value(lower, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert bottleneck_value(upper, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_full_budget_hits_data_processing_endpoint(self, kl_curves):
        _, upper = kl_curves
        joint = joint_from_marginal_channel(upper.marginal, upper.channel)
        bound = f_information(KL, joint)
        assert math.isclose(bottleneck_value(upper, float(upper.xs[-1])), bound, abs_tol=1e-9)

    def test_funnel_small_budget_reported_against_oracle(self, kl_curves):
        # Whether leakage can stay at zero for a small disclosure budget is
        # instance-dependent; assert only agreement with the oracle.
        from bottleneck_lab.oracle import OracleConfig, oracle_boundary

        lower, _ = kl_curves
        x = 0.05 * float(lower.xs[-1])
        got = funnel_value(lower, x)
        cfg = OracleConfig(grid_resolution=256)
        pt = oracle_boundary(KL, KL, INST.channel(), INST.marginal(), x, "lower", cfg)
        assert abs(got - pt.best_y) <= 5e-3

    def test_monotone_nondecreasing(self, kl_curves):
        lower, upper = kl_curves
        xs = np.linspace(0.0, float(lower.xs[-1]), 50)
        lo_vals = [funnel_value(lower, float(x)) for x in xs]
        up_vals = [quiet(bottleneck_value, upper, float(x)) for x in xs]
        assert all(b >= a - 1e-9 for a, b in zip(lo_vals, lo_vals[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(up_vals, up_vals[1:]))

    def test_wrong_direction_rejected(self, kl_curves):
        lower, upper = kl_curves
        with pytest.raises(ValueError):
            bottleneck_value(lower, 0.1)
        with pytest.raises(ValueError):
            funnel_value(upper, 0.1)

    def test_nan_x_is_refused(self, kl_curves):
        lower, upper = kl_curves
        with pytest.raises(ValueError, match="x = nan"):
            bottleneck_value(upper, math.nan)
        with pytest.raises(ValueError, match="x = nan"):
            funnel_value(lower, math.nan)

    def test_out_of_domain_warns_and_clamps(self, kl_curves):
        lower, _ = kl_curves
        with pytest.warns(RuntimeWarning):
            value = funnel_value(lower, float(lower.xs[-1]) + 1.0)
        assert math.isclose(value, float(lower.ys[-1]), abs_tol=1e-12)


def to_mi_frame(curve):
    """(x, y) -> (H(X) - x, H(Y) - y): a conditional-entropy-frame curve in
    mutual-information coordinates."""
    hx = entropy(curve.marginal)
    hy = entropy(curve.channel.push_forward(curve.marginal))
    return hx - curve.xs, hy - curve.ys


class TestTransformEntropyFrame:
    """The conditional-entropy frame is the mutual-information frame under
    the affine map (x, y) -> (H(X) - x, H(Y) - y)."""

    def test_trivial_point_maps_to_origin(self, entropy_lower_fine):
        xs, ys = to_mi_frame(entropy_lower_fine)
        assert abs(xs[-1]) <= 1e-12
        assert abs(ys[-1]) <= 1e-12

    def test_deterministic_endpoint_maps_to_full_information(self, entropy_lower_fine):
        xs, ys = to_mi_frame(entropy_lower_fine)
        q = entropy_lower_fine.marginal
        joint = joint_from_marginal_channel(q, entropy_lower_fine.channel)
        assert math.isclose(float(xs[0]), entropy(q), abs_tol=1e-12)
        assert math.isclose(float(ys[0]), f_information(KL, joint), abs_tol=1e-9)

    def test_matches_divergence_frame_sweep(self):
        # The mapped entropy-frame lower curve and the directly swept
        # mutual-information upper curve describe the same boundary.
        ent = sweep(bsc_slice(ENTROPY, resolution=512), "lower")
        mi = sweep(bsc_slice(KL, resolution=512), "upper")
        xs, ys = to_mi_frame(ent)
        for x in np.linspace(0.0, float(mi.xs[-1]), 21):
            moved = float(np.interp(x, xs[::-1], ys[::-1]))
            assert abs(moved - quiet(bottleneck_value, mi, float(x))) <= 2e-3

    def test_ternary_transform_endpoints(self):
        rng = np.random.default_rng(1)
        T = rng.exponential(size=(3, 3)) + 0.3
        T = T / T.sum(axis=0, keepdims=True)
        q = np.array([0.45, 0.35, 0.2])
        raw = sweep(BoundarySlice(ENTROPY, ENTROPY, T, q, resolution=32), "lower")
        xs, ys = to_mi_frame(raw)
        assert abs(xs[-1]) <= 1e-12 and abs(ys[-1]) <= 1e-12
        joint = joint_from_marginal_channel(raw.marginal, raw.channel)
        assert math.isclose(float(ys[0]), f_information(KL, joint), abs_tol=1e-9)


class TestMatchedChannels:
    def test_nontrivial_point_yields_witness(self):
        point = bsc_point(ENTROPY, 0.3, "lower", resolution=512)
        assert not point.trivial and len(point.witness.atoms) == 2

    def test_divergence_frame_rejected(self, kl_curves):
        lower, _ = kl_curves
        nontrivial = next(p for p in lower.points if not p.trivial)
        with pytest.raises(ValueError, match="marginal"):
            matched_channel_invariance_check(nontrivial, [0.89, 0.11], KL, KL, INST.channel())

    def test_norm_kernel_two_atom_witness(self):
        # Past the convexity threshold the K-frame tangency is a symmetric
        # two-atom mixture, again a matched channel.
        inst = BscInstance(q=0.4, delta=0.2)
        norm = DivergenceKernel.norm_beta(2.0)
        point = bsc_point(norm, 0.40, "lower", resolution=2048, inst=inst)
        assert len(point.witness.atoms) == 2
        ps = sorted(a.probs[1] for _, a in point.witness.atoms)
        assert abs(ps[0] + ps[1] - 1.0) <= 2.0 / 2048

    def test_transport_builds_no_slice(self, slice_builds):
        point = bsc_point(ENTROPY, 0.3, "lower", resolution=512)
        slice_builds.clear()
        matched_channel_invariance_check(point, [0.89, 0.11], ENTROPY, ENTROPY, INST.channel())
        assert slice_builds == []

    def test_transported_point_is_trivial_when_its_witness_is_one_atom(self):
        # At the vertex (0, 1) only the atom at that vertex keeps weight:
        # the witness is the marginal itself, so the point is trivial.
        point = bsc_point(ENTROPY, 0.3, "lower", resolution=64)
        assert not point.trivial
        moved = matched_channel_invariance_check(
            point, [0.0, 1.0], ENTROPY, ENTROPY, INST.channel()
        )
        assert len(moved.witness.atoms) == 1 and moved.trivial
        assert moved.witness.atoms[0][1].probs.tolist() == [0.0, 1.0]

    def test_same_marginal_recovers_point(self):
        point = bsc_point(ENTROPY, 0.3, "lower", resolution=512)
        moved = matched_channel_invariance_check(
            point, point.witness.marginal, ENTROPY, ENTROPY, INST.channel()
        )
        assert math.isclose(moved.x, point.x, abs_tol=1e-9)
        assert math.isclose(moved.y, point.y, abs_tol=1e-9)

    def test_perturbed_marginal_matches_fresh_sweep(self):
        point = bsc_point(ENTROPY, 0.3, "lower", resolution=2048)
        q_new = np.array([0.89, 0.11])
        moved = matched_channel_invariance_check(point, q_new, ENTROPY, ENTROPY, INST.channel())
        fresh = slice_point(
            BoundarySlice(ENTROPY, ENTROPY, INST.channel(), q_new, resolution=2048), 0.3, "lower"
        )
        assert abs(moved.x - fresh.x) <= 1e-6
        assert abs(moved.y - fresh.y) <= 1e-6

    def test_single_atom_rejected(self):
        lam = (1.0 - 2.0 * INST.delta) ** 2
        point = bsc_point(ENTROPY, lam, "lower", resolution=512)
        with pytest.raises(ValueError, match="two atoms"):
            matched_channel_invariance_check(point, [0.89, 0.11], ENTROPY, ENTROPY, INST.channel())

    def test_marginal_outside_hull_rejected(self):
        # A valid marginal past the witness's highest atom.
        point = bsc_point(ENTROPY, 0.3, "lower", resolution=512)
        high = max(a.probs[1] for _, a in point.witness.atoms)
        assert high < 1.0
        p1 = 0.5 * (high + 1.0)
        outside = np.array([1.0 - p1, p1])
        with pytest.raises(ValueError, match="hull"):
            matched_channel_invariance_check(point, outside, ENTROPY, ENTROPY, INST.channel())


class TestSlopeGrid:
    """The slope grid the property suite (A7) draws from."""

    def test_starts_at_zero_and_increases(self):
        x = np.linspace(0.0, 1.0, 11)
        grid = _slope_grid(x, x**2, steps=32)
        assert grid[0] == 0.0
        assert np.all(np.diff(grid) > 0)
        assert math.isclose(grid[-1], 3.8)  # twice the steepest chord, from x = 1 to 0.9

    def test_constant_x_falls_back(self):
        grid = _slope_grid(np.zeros(5), np.linspace(0, 1, 5), steps=16)
        assert grid.size > 1 and np.isfinite(grid).all()


def assert_same_curve(got, want):
    """Field-for-field equality of two BoundaryCurves, witnesses included."""
    assert (got.direction, got.frame) == (want.direction, want.frame)
    assert (got.f_kernel, got.g_kernel) == (want.f_kernel, want.g_kernel)
    assert got.marginal.probs.tolist() == want.marginal.probs.tolist()
    assert got.channel.matrix.tolist() == want.channel.matrix.tolist()
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        assert (a.x, a.y, a.trivial) == (b.x, b.y, b.trivial)
        assert a.lam == b.lam or (math.isnan(a.lam) and math.isnan(b.lam))
        assert a.witness.to_json() == b.witness.to_json()
        assert a.witness.marginal.probs.tolist() == b.witness.marginal.probs.tolist()


class TestSliceCarriesItsSource:
    """A curve or point is read off one BoundarySlice and carries that
    slice's kernels, channel and marginal, never another's."""

    def test_curve_and_point_carry_their_slice(self):
        # An entropy-kernel slice of BSC(0.1) and a KL slice through another
        # channel, both at q = (0.9, 0.1): the upper curves start at h(0.1)
        # nats and at the origin.
        q, other = [0.9, 0.1], BscInstance(q=0.1, delta=0.3).channel()
        cases = [
            (BoundarySlice(ENTROPY, ENTROPY, INST.channel(), q, resolution=512), "entropy"),
            (BoundarySlice(KL, KL, other, q, resolution=512), "finfo"),
        ]
        starts = []
        for bslice, frame in cases:
            curve = sweep(bslice, "upper")
            assert curve.f_kernel is bslice.f_kernel and curve.g_kernel is bslice.g_kernel
            assert curve.channel is bslice.channel
            assert curve.frame == frame
            assert curve.marginal.probs.tolist() == bslice.region.graph.q.tolist() == q
            point = slice_point(bslice, 0.0, "upper")
            assert point.witness.marginal.probs.tolist() == q
            assert (point.x, point.y) in zip(curve.xs.tolist(), curve.ys.tolist())
            starts.append(float(curve.ys[0]))
        assert math.isclose(starts[0], binary_entropy(INST.delta) * LN2, abs_tol=1e-12)
        assert abs(starts[1]) <= 1e-12

    def test_rows_and_marginal_keep_the_slices_bits(self):
        # Normalizing a point of the N = 48 ternary lattice a second time
        # moves the last bits of some; a curve holds the slice's own.
        q, T = seeded_source(3, 48, 0)
        bslice = BoundarySlice(KL, KL, T, q, resolution=48)
        graph = bslice.region.graph
        held = set(map(tuple, np.vstack([graph.lattice.points, graph.q]).tolist()))
        for direction in ("lower", "upper"):
            curve = sweep(bslice, direction)
            assert set(map(tuple, curve.rows.tolist())) <= held
            assert curve.marginal.probs.tolist() == graph.q.tolist()

    def test_a_polygon_cannot_be_paired_with_other_kernels(self):
        # The entropy polygon of BSC(0.1) at q = (0.9, 0.1) beside KL
        # kernels and another channel: a slice is only built from its
        # source, so no spelling of that pairing is taken.
        q, other = [0.9, 0.1], BscInstance(q=0.1, delta=0.3).channel()
        region = BoundarySlice(ENTROPY, ENTROPY, INST.channel(), q, resolution=512).region
        with pytest.raises(TypeError):
            BoundarySlice(region, KL, KL, other)
        with pytest.raises(TypeError):
            BoundarySlice(KL, KL, other, q, resolution=512, region=region)
        with pytest.raises(TypeError):
            BoundarySlice(KL, KL, other, q, 512)  # resolution is keyword-only

    def test_constructor_cuts_its_polygon_from_its_source(self, slice_builds):
        # The polygon keeps the graph it was cut from: the slice's own
        # kernels and channel over the lattice asked for (by default the
        # alphabet's), at its q.
        q, T = seeded_source(3, 24, 1)
        bslice = BoundarySlice(KL, CHI2, T, q, resolution=24)
        graph = bslice.region.graph
        assert (graph.lattice.m, graph.lattice.resolution) == (3, 24)
        assert_allclose(graph.q, q, rtol=0, atol=1e-15)
        channel = bslice.channel.matrix
        assert channel.tolist() == Channel(T).matrix.tolist()
        f_fn = resolve_functional(KL, graph.q)
        g_fn = resolve_functional(CHI2, channel @ graph.q)
        want = build_lagrangian_graph(f_fn, g_fn, bslice.channel, graph.lattice, graph.q)
        assert graph.x_values.tolist() == want.x_values.tolist()
        assert graph.y_values.tolist() == want.y_values.tolist()
        default = BoundarySlice(KL, KL, INST.channel(), INST.marginal())
        assert default.region.graph.lattice.resolution == envelope.DEFAULT_RESOLUTION[2]
        assert default.region.graph.q.tolist() == INST.marginal().probs.tolist()
        assert len(slice_builds) == 2


def moved_marginal(q, dq):
    """The binary marginal q with its second entry moved by dq."""
    return np.array([1.0 - (q[1] + dq), q[1] + dq])


def assert_same_slice(got, want):
    """Two slices hold the same kernels, channel, graph and polygon, bit
    for bit."""
    assert (got.f_kernel, got.g_kernel) == (want.f_kernel, want.g_kernel)
    assert got.channel.matrix.tobytes() == want.channel.matrix.tobytes()
    pairs = [(got.region.graph, want.region.graph, ("rows", "x_values", "y_values"))]
    pairs.append((got.region, want.region, ("x", "y", "atoms", "weights", "lower", "upper")))
    for a, b, names in pairs:
        for name in names:
            u, v = getattr(a, name), getattr(b, name)
            assert (u.shape, u.dtype, u.tobytes()) == (v.shape, v.dtype, v.tobytes()), name


class TestSliceAt:
    @pytest.mark.parametrize("resolution", [64, 1024])
    @pytest.mark.parametrize("inst", [INST, BscInstance(q=0.4, delta=0.2)], ids=["bsc-0.1", "bsc-0.4"])
    @pytest.mark.parametrize(
        "kernel",
        [ENTROPY, DivergenceKernel.norm_beta(2.0), DivergenceKernel.norm_beta(3.5)],
        ids=["entropy", "norm-2", "norm-3.5"],
    )
    def test_recut_equals_a_fresh_slice(self, kernel, inst, resolution, hull_calls):
        # A marginal-free kernel's lattice values are the same at every
        # marginal, so the perturbed slices are cut from the base slice's
        # hull, and are bit for bit the slices a fresh build gives.
        base = bsc_slice(kernel, inst, resolution=resolution)
        for dq in (0.01, -0.01):
            q = moved_marginal(base.region.graph.q, dq)
            del hull_calls[:]
            got = base.at(q)
            assert hull_calls == []
            assert got.region.simplices is base.region.simplices
            fresh = BoundarySlice(kernel, kernel, inst.channel(), q, resolution=resolution)
            assert_same_slice(got, fresh)

    def test_base_and_two_recuts_build_one_hull(self, hull_calls, slice_builds):
        base = bsc_slice(ENTROPY, resolution=1024)
        for dq in (0.01, -0.01):
            base.at(moved_marginal(base.region.graph.q, dq))
        assert len(hull_calls) == 1
        assert len(slice_builds) == 3  # a re-cut is a polygon too

    @pytest.mark.parametrize("kernel", [KL, CHI2], ids=["kl", "chi2"])
    def test_divergence_kernels_cut_afresh(self, kernel, hull_calls):
        # Divergences are taken from q, so the lattice values move with it
        # and at builds the hull of its own graph.
        base = bsc_slice(kernel, resolution=1024)
        for dq in (0.01, -0.01):
            q = moved_marginal(base.region.graph.q, dq)
            got = base.at(q)
            assert got.region.simplices is not base.region.simplices
            assert_same_slice(got, BoundarySlice(kernel, kernel, INST.channel(), q, resolution=1024))
        assert len(hull_calls) == 5  # the base, and one per at and per fresh slice

    @pytest.mark.parametrize("kernel", [ENTROPY, KL, CHI2], ids=["entropy", "kl", "chi2"])
    def test_the_walk_cuts_afresh(self, kernel, monkeypatch, hull_calls):
        # An m >= 3 slice comes from the walk, which keeps no hull.
        walks = []
        real = envelope._walk_faces

        def counting(*args):
            walks.append(args[-1])
            return real(*args)

        monkeypatch.setattr(envelope, "_walk_faces", counting)
        q, T = seeded_source(3, 24, 1)
        base = BoundarySlice(kernel, kernel, T, q, resolution=24)
        assert base.region.simplices is None
        moved = q + np.array([0.01, -0.01, 0.0])
        got = base.at(moved)
        assert len(walks) == 2 and walks[-1].tolist() == got.region.graph.q.tolist()
        assert_same_slice(got, BoundarySlice(kernel, kernel, T, moved, resolution=24))
        assert hull_calls == []

    @pytest.mark.parametrize(
        "q",
        [[0.2, 0.3, 0.5], [[0.9, 0.1]], [0.5, 0.6], [1.2, -0.2], [math.nan, 1.0]],
        ids=["size", "2-d", "sum", "negative", "nan"],
    )
    def test_refuses_what_the_constructor_refuses(self, q):
        with pytest.raises(ValueError) as want:
            BoundarySlice(ENTROPY, ENTROPY, INST.channel(), q, resolution=64)
        with pytest.raises(ValueError) as got:
            bsc_slice(ENTROPY, resolution=64).at(q)
        assert str(got.value) == str(want.value)


class TestProblemCurve:
    def test_both_equals_one_call_per_direction(self, slice_builds):
        q, T = seeded_source(3, 24, 4)
        lower, upper = problem_curve(q, T, "eb", "both", resolution=24)
        assert len(slice_builds) == 1
        assert_same_curve(lower, problem_curve(q, T, "eb", "lower", resolution=24))
        assert_same_curve(upper, problem_curve(q, T, "eb", "upper", resolution=24))

    def test_unknown_direction_rejected_before_the_hull(self, slice_builds):
        with pytest.raises(ValueError, match="direction"):
            problem_curve(INST.marginal(), INST.channel(), "ib", "sideways", resolution=64)
        assert slice_builds == []

    @pytest.mark.parametrize("resolution", [3, 64, 4096])
    def test_tiny_coordinate_gets_a_curve_at_q(self, resolution):
        # The lattice point nearest to q is [1, 0] at every resolution here;
        # the curves are still at q, and the single atom q is an endpoint.
        q = np.array([0.9999, 0.0001])
        T = INST.channel()
        curves = problem_curve(q, T, "ib", "both", frame="entropy", resolution=resolution)
        far = (entropy(q), entropy(T.matrix @ q))
        for curve in curves:
            assert curve.marginal.probs.tolist() == q.tolist()
            mix = np.einsum("ki,kij->kj", curve.weights, curve.rows[np.maximum(curve.atoms, 0)])
            assert np.abs(mix - q).max() <= 1e-15
            trivial = [p for p in curve.points if p.trivial]
            assert len(trivial) == 1
            assert_allclose([trivial[0].x, trivial[0].y], far, rtol=0, atol=1e-15)
            assert trivial[0].witness.conditionals().tolist() == [q.tolist()]

    def test_eb_rejects_entropy_frame(self):
        with pytest.raises(ValueError, match="frame"):
            problem_curve(INST.marginal(), INST.channel(), "eb", "upper",
                          frame="entropy", resolution=64)

    @pytest.mark.parametrize("problem, beta", [("ib", 3.0), ("eb", 1.0)])
    def test_beta_needs_a_norm_kernel(self, problem, beta, slice_builds):
        with pytest.raises(ValueError, match="beta does not apply"):
            problem_curve([0.9, 0.1], INST.channel(), problem, "upper", beta=beta, resolution=64)
        assert slice_builds == []

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="problem"):
            problem_curve(INST.marginal(), INST.channel(), "rate", "upper",
                          resolution=64)

    def test_generic_is_not_a_problem(self, slice_builds):
        # The five problems are the paper's three instantiations; a kernel
        # outside them is built with BoundarySlice directly.
        with pytest.raises(ValueError, match="^unknown problem 'generic'$"):
            problem_curve(INST.marginal(), INST.channel(), "generic", "both", resolution=64)
        assert slice_builds == []

    def test_arimoto_uses_k_frame(self):
        curve = problem_curve(INST.marginal(), INST.channel(), "arimoto", "lower",
                              beta=2.0, resolution=256)
        assert curve.frame == "K"
        assert curve.f_kernel.beta == 2.0
        # K-frame x spans [K(q), 1].
        assert math.isclose(float(curve.xs[-1]), 1.0, abs_tol=1e-12)

    def test_arimoto_beta4_tracks_closed_form(self):
        from bottleneck_lab import arimoto_mrs_gerber

        inst = BscInstance(q=0.4, delta=0.2)
        curve = problem_curve(inst.marginal(), inst.channel(), "arimoto", "lower",
                              beta=4.0, resolution=512)
        for p in np.linspace(0.0, inst.q, 17):
            x, y = arimoto_mrs_gerber(inst, 4.0, float(p))
            assert abs(quiet(funnel_value, curve, x) - y) <= 5e-3

    def test_csv_rows_schema(self):
        curve = problem_curve(INST.marginal(), INST.channel(), "eb", "upper", resolution=128)
        rows = csv_rows(curve, "eb")
        assert all(len(r) == 7 for r in rows)
        assert rows[0][0] == "eb" and rows[0][1] == "upper"
        assert any('"atoms"' in r[6] for r in rows)

    def test_witness_json_schema(self):
        import json

        curve = problem_curve(INST.marginal(), INST.channel(), "eb", "upper", resolution=128)
        payload = json.loads(curve.points[-1].witness.to_json())
        assert set(payload) == {"atoms"}
        for atom in payload["atoms"]:
            assert set(atom) == {"alpha", "p"}
            assert isinstance(atom["p"], list) and len(atom["p"]) == 2


def _two_atom_vertex(region):
    """A chain endpoint of the region whose witness has two atoms."""
    ends = (region.lower[0], region.lower[-1])
    return int(next(k for k in ends if (region.atoms[k] >= 0).sum() == 2))


def _no_atoms(region, k):
    atoms, weights = region.atoms.copy(), region.weights.copy()
    atoms[k], weights[k] = -1, 0.0
    return atoms, weights


def _too_many_atoms(region, k):
    size, m = region.atoms.shape
    atoms = np.full((size, m + 2), -1)
    weights = np.zeros((size, m + 2))
    atoms[:, :m], weights[:, :m] = region.atoms, region.weights
    atoms[k], weights[k] = [0, 1, 2, 3], 0.25
    return atoms, weights


def _negative_weight(region, k):
    weights = region.weights.copy()
    weights[k, 0] = -weights[k, 0]
    return region.atoms, weights


def _weights_off_one(region, k):
    weights = region.weights.copy()
    weights[k, 0] += 1e-6
    return region.atoms, weights


def _atom_off_marginal(region, k):
    atoms = region.atoms.copy()
    atoms[k, 0] += 1 if atoms[k, 0] + 1 != atoms[k, 1] else -1
    return atoms, region.weights


_Q = [0.9, 0.1]


class TestWitnessRefusals:
    """Each refusal of the witness check, at the WitnessChannel constructor
    and through the batched check of a doctored slice's chain."""

    @pytest.mark.parametrize(
        "atoms, doctor, match",
        [
            ((), _no_atoms, "at least one atom"),
            ([(0.25, _Q)] * 4, _too_many_atoms, "4 atoms; at most 3 allowed"),
            ([(1.2, _Q), (-0.2, _Q)], _negative_weight, "strictly positive"),
            ([(0.5, _Q), (0.5 + 1e-6, _Q)], _weights_off_one, "weights sum to 1.000001"),
            ([(0.5, [0.5, 0.5]), (0.5, [0.7, 0.3])], _atom_off_marginal, "misses its marginal"),
        ],
        ids=["no-atoms", "too-many-atoms", "weight-not-positive", "weights-sum", "mixture"],
    )
    def test_refusal(self, atoms, doctor, match, monkeypatch):
        with pytest.raises(ValueError, match=match):
            WitnessChannel(
                atoms=tuple((a, Distribution(p)) for a, p in atoms), marginal=Distribution(_Q)
            )
        bslice = BoundarySlice(ENTROPY, ENTROPY, INST.channel(), _Q, resolution=64)
        sweep(bslice, "lower")
        region = bslice.region
        atoms, weights = doctor(region, _two_atom_vertex(region))
        doctored = dataclasses.replace(region, atoms=atoms, weights=weights)
        # A slice is built from its source only, so the doctored polygon
        # comes in through the slice the constructor cuts.
        monkeypatch.setattr(sweep_module, "region_slice", lambda graph: doctored)
        with pytest.raises(ValueError, match=match):
            sweep(BoundarySlice(ENTROPY, ENTROPY, INST.channel(), _Q, resolution=64), "lower")


def csv_rows(curve, problem):
    """The curve's CSV text, read back as rows of fields."""
    return list(csv.reader(io.StringIO(curve_csv_text(curve, problem), newline="")))


def _rows_from_points(curve, problem):
    """CSV rows written the old way, one BoundaryPoint at a time."""
    return [
        [
            problem,
            curve.direction,
            "" if math.isnan(p.lam) else repr(p.lam),
            repr(p.x),
            repr(p.y),
            str(p.trivial),
            p.witness.to_json(),
        ]
        for p in curve.points
    ]


class TestCurveArrays:
    @pytest.mark.parametrize(
        "m,resolution,problem,frame",
        [
            (2, 256, "ib", "finfo"),
            (2, 256, "pf", "entropy"),
            (2, 256, "arimoto", "K"),
            (3, 24, "eb", "finfo"),
            (3, 24, "ib", "entropy"),
            (3, 24, "arimoto", "K"),
            (4, 8, "pf", "finfo"),
            (4, 8, "ib", "entropy"),
            (4, 8, "arimoto", "K"),
        ],
    )
    def test_csv_rows_equal_rows_from_points(self, m, resolution, problem, frame):
        q, T = seeded_source(m, resolution, 5)
        for curve in problem_curve(q, T, problem, "both", frame=frame, resolution=resolution):
            text = curve_csv_text(curve, problem)
            assert "points" not in vars(curve)  # not built until read
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(_rows_from_points(curve, problem))
            assert text == buf.getvalue()
            assert len(curve.points) == curve.xs.size
            assert not curve.xs.flags.writeable and not curve.rows.flags.writeable

    def test_csv_text_quotes_a_problem_name_as_csv_does(self):
        curve = sweep(bsc_slice(ENTROPY, resolution=64), "upper")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_rows_from_points(curve, 'a,"b"'))
        assert curve_csv_text(curve, 'a,"b"') == buf.getvalue()
        assert buf.getvalue().startswith('"a,""b""",upper,')

    def test_points_are_not_checked_again(self, monkeypatch):
        # sweep checks a curve's witnesses in one batch; reading points
        # builds the same witnesses without another check.  Every module
        # binding of the checker is counted, so a witness built through
        # WitnessChannel's own checking constructor is seen too.
        calls = []
        for name in ("core", "envelope", "sweep", "oracle", "closed_forms", "acceptance", "cli"):
            module = importlib.import_module(f"bottleneck_lab.{name}")
            if "_check_witnesses" not in vars(module):
                continue

            def counting(*args, real=vars(module)["_check_witnesses"]):
                calls.append(args[0].shape[0])
                return real(*args)

            monkeypatch.setattr(module, "_check_witnesses", counting)
        curve = sweep(bsc_slice(ENTROPY, resolution=256), "lower")
        assert calls == [curve.xs.size]
        points = curve.points
        assert calls == [curve.xs.size]
        for p, x, y in zip(points, curve.xs.tolist(), curve.ys.tolist()):
            assert isinstance(p.witness, WitnessChannel)
            assert p.witness.marginal is curve.marginal
            assert (p.x, p.y) == (x, y)
            mean = p.witness.weights() @ p.witness.conditionals()
            assert np.abs(mean - curve.marginal.probs).max() <= 1e-12


def seeded_source(m, resolution, seed):
    """Marginal on the lattice with full support, and a random channel."""
    rng = np.random.default_rng([seed, m, resolution])
    counts = 1 + rng.multinomial(resolution - m, np.full(m, 1.0 / m))
    T = rng.dirichlet(np.ones(m), size=m).T  # column j is P(Y | X = j)
    return counts / resolution, T


def kernel_graph(kernel, q, T, lattice):
    """f and g of the kernel pair over the lattice and at q, divergences
    taken from q."""
    f_fn = resolve_functional(kernel, q if kernel.is_divergence else None)
    g_fn = resolve_functional(kernel, T @ q if kernel.is_divergence else None)
    return build_lagrangian_graph(f_fn, g_fn, T, lattice, q)


def walk_and_hull(kernel, q, T, resolution):
    """The slice of one source from the simplex walk and from qhull."""
    lattice = SimplexLattice.build(len(q), resolution)
    graph = kernel_graph(kernel, q, T, lattice)
    K = lattice.size
    X, Y = graph.x_values[:K], graph.y_values[:K]
    return (
        envelope._polygon(graph, envelope._walk_faces(lattice, X, Y, graph.q)),
        envelope._cut_hull(graph, envelope._hull_simplices(lattice, X, Y)),
    )


def linprog_support(graph, lam, sign):
    """The LP optimum over mixtures of the lattice points and q with mean q,
    from HiGHS."""
    columns = np.vstack([graph.lattice.points, graph.q]).T
    values = graph.y_values - lam * graph.x_values
    lp = linprog(sign * values, A_eq=columns, b_eq=graph.q, bounds=(0.0, None), method="highs")
    return sign * lp.fun


def fraction_adjugate(B):
    """Adjugate and determinant of an integer matrix (lists of rows), signed
    so that the determinant is positive, by Gauss-Jordan elimination in
    fractions."""
    n = len(B)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == k)) for k in range(n)]
            for i, row in enumerate(B)]
    det = Fraction(1)
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        det *= rows[k][k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [a - rows[i][k] * b for a, b in zip(rows[i], rows[k])]
    sign = 1 if det > 0 else -1
    adj = [[sign * det * v for v in row[n:]] for row in rows]
    assert all(v.denominator == 1 for row in adj for v in row)
    return [[int(v) for v in row] for row in adj], int(sign * det)


def symmetric_channel(m, eps):
    T = np.full((m, m), eps / (m - 1))
    np.fill_diagonal(T, 1.0 - eps)
    return T


class TestHullSlice:
    @pytest.mark.parametrize("m,resolution", [(2, 64), (3, 12), (4, 6)])
    @pytest.mark.parametrize("kernel", [KL, ENTROPY], ids=["kl", "entropy"])
    def test_support_matches_reference_envelope(self, m, resolution, kernel):
        q, T = seeded_source(m, resolution, 11)
        lattice = SimplexLattice.build(m, resolution)
        ref = q if kernel.is_divergence else None
        f_fn = resolve_functional(kernel, ref)
        g_fn = resolve_functional(kernel, T @ q if kernel.is_divergence else None)
        graph = build_lagrangian_graph(f_fn, g_fn, T, lattice, q)
        for lam in (0.0, 0.25, 0.7, 1.5, 4.0):
            values = graph.y_values - lam * graph.x_values
            for direction in ("lower", "upper"):
                env = envelope_at(lattice, values[:-1], q, values[-1], direction)
                point = slice_point(
                    BoundarySlice(kernel, kernel, T, q, resolution=resolution), lam, direction
                )
                assert abs((point.y - lam * point.x) - env) <= 1e-9
                assert len(point.witness.atoms) <= m
                xs, ys = _pair_values(f_fn, g_fn, T, point.witness.conditionals())
                x_re = float(point.witness.weights() @ xs)
                y_re = float(point.witness.weights() @ ys)
                assert abs(x_re - point.x) <= 1e-9 and abs(y_re - point.y) <= 1e-9

    @pytest.mark.parametrize("m,resolution", [(2, 256), (3, 12)])
    def test_csv_lambda_requery_returns_same_atoms(self, m, resolution):
        q, T = seeded_source(m, resolution, 3)
        for direction in ("lower", "upper"):
            curve = problem_curve(q, T, "ib", direction, resolution=resolution)
            rows = csv_rows(curve, "ib")
            assert sum(r[2] != "" for r in rows) >= len(rows) - 2
            for row, point in zip(rows, curve.points):
                if row[2] == "":
                    continue
                again = slice_point(
                    BoundarySlice(KL, KL, T, q, resolution=resolution), float(row[2]), direction
                )
                assert again.witness.to_json() == point.witness.to_json()

    @pytest.mark.parametrize(
        "m,resolution,kernel", [(2, 4096, ENTROPY), (3, 24, KL)], ids=["m2-entropy", "m3-kl"]
    )
    def test_slice_point_equals_per_call_path(self, m, resolution, kernel):
        if m == 2:
            q, T = INST.marginal().probs, INST.channel().matrix
        else:
            q, T = seeded_source(m, resolution, 7)
        bslice = BoundarySlice(kernel, kernel, T, q, resolution=resolution)
        region = bslice.region
        for direction in ("lower", "upper"):
            # Slopes spread over the chain's positive edge slopes reach ~20
            # distinct vertices; the extremes sit exactly on an edge (a tie).
            chain = region.chain(direction)
            edges = np.diff(region.y[chain]) / np.diff(region.x[chain])
            lams = [0.0, *np.quantile(edges[edges > 0.0], np.linspace(0.0, 1.0, 19))]
            for lam in lams:
                got = slice_point(bslice, lam, direction)
                want = slice_point(
                    BoundarySlice(kernel, kernel, T, q, resolution=resolution), lam, direction
                )
                assert (got.x, got.y, got.lam, got.trivial) == (
                    want.x, want.y, want.lam, want.trivial
                )
                assert got.witness.weights().tolist() == want.witness.weights().tolist()
                assert (
                    got.witness.conditionals().tolist() == want.witness.conditionals().tolist()
                )

    def test_ternary_curve_has_many_points_and_exact_endpoints(self):
        q, T = seeded_source(3, 48, 5)
        joint = joint_from_marginal_channel(q, T)
        far = (entropy(q), f_information(KL, joint))
        for direction in ("lower", "upper"):
            curve = problem_curve(q, T, "ib", direction, resolution=48)
            assert len(curve.points) >= 20
            first, last = curve.points[0], curve.points[-1]
            assert first.trivial and (first.x, first.y) == (0.0, 0.0)
            assert abs(last.x - far[0]) <= 1e-12 and abs(last.y - far[1]) <= 1e-12
            assert math.isnan(first.lam) and math.isnan(last.lam)
            assert all(p.lam >= 0.0 for p in curve.points[1:-1])

    def test_flat_lifted_set_gives_a_curve(self):
        # Y independent of X: g(Tp) is 0 on the whole lattice, so the lifted
        # points span one dimension less.
        q = np.array([0.5, 0.3, 0.2])
        T = np.tile([[0.6], [0.4]], (1, 3))
        for direction in ("lower", "upper"):
            curve = sweep(BoundarySlice(KL, KL, T, q, resolution=12), direction)
            assert len(curve.points) == 2
            assert np.abs(curve.ys).max() <= 1e-12
            assert math.isclose(curve.xs[-1], entropy(curve.marginal), abs_tol=1e-12)

    def test_affine_functionals_give_one_point(self):
        lattice = SimplexLattice.build(3, 6)
        graph = build_lagrangian_graph(
            lambda P: P @ np.array([0.2, 0.5, 0.9]),
            lambda P: P @ np.array([1.0, 0.0, 0.3]),
            np.eye(3),
            lattice,
            [0.5, 0.5, 0.0],
        )
        region = region_slice(graph)
        assert region.x.tolist() == [0.35] and region.y.tolist() == [0.5]
        assert region.lower.tolist() == region.upper.tolist() == [0]
        assert region.atoms[0, 0] == lattice.size and region.weights[0, 0] == 1.0

    @pytest.mark.parametrize(
        "case",
        [
            *[(m, n, k) for m, n in ((3, 48), (4, 8)) for k in ("kl", "chi2", "entropy")],
            "symmetric", "product", "zero-coordinate", "thin-cone",
        ],
        ids=lambda c: c if isinstance(c, str) else f"m{c[0]}-{c[2]}",
    )
    def test_walk_matches_hull(self, case):
        kernels = {"kl": KL, "chi2": CHI2, "entropy": ENTROPY}
        if case == "symmetric":  # tied breakpoints
            kernel, q, T, resolution = KL, np.full(3, 1.0 / 3.0), symmetric_channel(3, 0.1), 30
        elif case == "product":  # g(Tp) = 0: a flat lifted set
            kernel, q, T, resolution = KL, np.array([0.5, 0.3, 0.2]), np.tile([[0.6], [0.4]], (1, 3)), 12
        elif case == "zero-coordinate":  # degenerate start
            kernel, resolution = ENTROPY, 12
            q, T = np.array([0.5, 0.5, 0.0]), np.random.default_rng(1).dirichlet(np.ones(3), size=3).T
        elif case == "thin-cone":  # a lower vertex optimal for slopes 7e-11 apart
            kernel, resolution, q = ENTROPY, 36, np.array([0.5, 0.5, 0.0])
            T = np.array([[0.14440039, 0.10626361, 0.57412008],
                          [0.36319544, 0.33291781, 0.37440498],
                          [0.49240417, 0.56081857, 0.05147494]])
            T = T / T.sum(axis=0)
        else:
            m, resolution, name = case
            kernel = kernels[name]
            q, T = seeded_source(m, resolution, 0)
        walk, hull = walk_and_hull(kernel, q, T, resolution)
        for direction in ("lower", "upper"):
            a, b = walk.chain(direction), hull.chain(direction)
            assert a.size == b.size
            assert walk.atoms[a].tolist() == hull.atoms[b].tolist()
            assert_allclose(walk.x[a], hull.x[b], rtol=0, atol=1e-12)
            assert_allclose(walk.y[a], hull.y[b], rtol=0, atol=1e-12)
            assert_allclose(walk.weights[a], hull.weights[b], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m,resolution", [(3, 24), (4, 8), (5, 5)])
    @pytest.mark.parametrize("kernel", [KL, CHI2, ENTROPY], ids=["kl", "chi2", "entropy"])
    def test_relabeling_keeps_the_chains(self, m, resolution, kernel):
        # Permuting the X and Y symbols maps the lattice onto itself and
        # each f and g value onto its own up to rounding, so both chains
        # keep their vertices.  The walk breaks exact reduced-cost ties by
        # the last bit of a BLAS product, and a relabeling reorders its
        # columns: a path that such a tie moves shows here.
        shift, reverse = np.roll(np.arange(m), 1), np.arange(m)[::-1]
        for seed in range(3):
            q, T = seeded_source(m, resolution, seed)
            want = BoundarySlice(kernel, kernel, T, q, resolution=resolution).region
            for px, py in ((shift, reverse), (reverse, shift)):
                got = BoundarySlice(kernel, kernel, T[py][:, px], q[px], resolution=resolution)
                for direction in ("lower", "upper"):
                    a, b = got.region.chain(direction), want.chain(direction)
                    assert a.size == b.size
                    x, y = want.x[b], want.y[b]
                    scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
                    assert np.all(np.abs(got.region.x[a] - x) <= 1e-12 * scale)
                    assert np.all(np.abs(got.region.y[a] - y) <= 1e-12 * scale)

    def test_walk_matches_hull_off_the_lattice(self):
        # 30 seeded sources at a generic marginal, 6 of them with a zero
        # coordinate (entropy kernel, since a divergence needs full
        # support): the same chains, and the same support vertex for 25
        # slopes per chain.
        kernels = (KL, CHI2, ENTROPY)
        queries = 0
        for seed in range(30):
            rng = np.random.default_rng([seed, 17])
            m = 3 if seed % 2 else 4
            resolution = int(rng.integers(12, 31) if m == 3 else rng.integers(6, 9))
            q, T = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m), size=m).T
            kernel = kernels[seed % 3]
            if seed % 5 == 0:
                q[int(rng.integers(0, m))] = 0.0
                q, kernel = q / q.sum(), ENTROPY
            walk, hull = walk_and_hull(kernel, q, T, resolution)
            for direction in ("lower", "upper"):
                a, b = walk.chain(direction), hull.chain(direction)
                assert walk.atoms[a].tolist() == hull.atoms[b].tolist()
                assert_allclose(walk.x[a], hull.x[b], rtol=0, atol=1e-12)
                assert_allclose(walk.y[a], hull.y[b], rtol=0, atol=1e-12)
                edges = np.diff(hull.y[b]) / np.diff(hull.x[b])
                for lam in np.quantile(np.append(edges, 0.0), np.linspace(0.0, 1.0, 25)):
                    i, j = walk.support(lam, direction), hull.support(lam, direction)
                    assert walk.atoms[i].tolist() == hull.atoms[j].tolist()
                    assert abs(walk.x[i] - hull.x[j]) <= 1e-12
                    assert abs(walk.y[i] - hull.y[j]) <= 1e-12
                    queries += 1
        assert queries == 1500

    @pytest.mark.parametrize("m,resolution", [(2, 64), (3, 10), (4, 4)])
    @pytest.mark.parametrize("kernel", [KL, CHI2, ENTROPY], ids=["kl", "chi2", "entropy"])
    def test_lattice_marginal_slice_equals_every_face(self, m, resolution, kernel):
        # At a marginal on the lattice the single atom q is a lattice point,
        # so the slice is the lattice slice alone: the same chains as the
        # candidates from every m-point face of the lattice, with the atom
        # q (row K) in place of its lattice point.
        lattice = SimplexLattice.build(m, resolution)

        every_face = np.array(list(combinations(range(lattice.size), lattice.m)))
        for seed in range(3):
            q, T = seeded_source(m, resolution, seed)
            graph = kernel_graph(kernel, q, T, lattice)
            got, want = region_slice(graph), envelope._polygon(graph, every_face)
            q_row = np.flatnonzero((lattice.points == q).all(axis=1))
            for direction in ("lower", "upper"):
                a, b = got.chain(direction), want.chain(direction)
                assert got.atoms[a].tolist() == want.atoms[b].tolist()
                assert (got.atoms[a] == lattice.size).sum() == 1
                assert_allclose(got.x[a], want.x[b], rtol=1e-15, atol=1e-15)
                assert_allclose(got.y[a], want.y[b], rtol=1e-15, atol=1e-15)
                assert q_row.size == 1 and q_row[0] not in got.atoms[a]

    def test_rounded_lattice_marginal_gives_one_trivial_vertex(self):
        # A decomposed joint gives a lattice marginal up to an ulp: the
        # lattice point q and the atom q are one vertex, whose witness is
        # the atom q, and the chains match those at the exact lattice point.
        q, T = seeded_source(3, 24, 0)
        rounded = q + np.array([2.0, -1.0, -1.0]) * np.spacing(q)
        assert 0 < np.abs(rounded - q).max() <= 2e-16
        lattice = SimplexLattice.build(3, 24)
        for kernel in (KL, ENTROPY):
            exact = region_slice(kernel_graph(kernel, q, T, lattice))
            region = region_slice(kernel_graph(kernel, rounded, T, lattice))
            for direction in ("lower", "upper"):
                a, b = region.chain(direction), exact.chain(direction)
                assert region.atoms[a].tolist() == exact.atoms[b].tolist()
                assert_allclose(region.x[a], exact.x[b], rtol=0, atol=1e-14)
                assert_allclose(region.y[a], exact.y[b], rtol=0, atol=1e-14)

    def test_walk_support_matches_linprog(self):
        # A uniform marginal through a symmetric channel, where qhull gives
        # up on the lifted points (a wide-merge precision error at N = 43):
        # every support value of the walk's slice is the LP optimum that
        # HiGHS finds independently.
        q, T, resolution = np.full(3, 1.0 / 3.0), symmetric_channel(3, 0.15), 43
        graph = kernel_graph(CHI2, q, T, SimplexLattice.build(3, resolution))
        region = region_slice(graph)
        for lam in np.linspace(-1.0, 4.0, 11):
            for sign, direction in ((1.0, "lower"), (-1.0, "upper")):
                k = region.support(lam, direction)
                got = region.y[k] - lam * region.x[k]
                assert abs(linprog_support(graph, lam, sign) - got) <= 1e-9

    def test_ten_letter_support_matches_linprog(self):
        # A 10 x 10 joint at N = 10 (92 378 points): its basis determinants
        # reach 5e9, and the adjugate update's products pass 2**63.
        p_xy = np.random.default_rng(3).dirichlet(np.ones(100)).reshape(10, 10)
        q = p_xy.sum(axis=1)
        T = (p_xy / q[:, None]).T
        graph = kernel_graph(KL, q, T, SimplexLattice.build(10, 10))
        region = region_slice(graph)
        for lam in (0.3, 1.0, 3.0):
            for sign, direction in ((1.0, "lower"), (-1.0, "upper")):
                k = region.support(lam, direction)
                got = region.y[k] - lam * region.x[k]
                assert abs(linprog_support(graph, lam, sign) - got) <= 1e-12

    def test_region_slice_takes_the_walk_from_m3(self, hull_calls):
        for m, resolution in ((2, 16), (3, 8), (4, 4)):
            q, T = seeded_source(m, resolution, 2)
            BoundarySlice(KL, KL, T, q, resolution=resolution)
        assert [shape[1] for shape in hull_calls] == [3]  # the m = 2 slice only

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(envelope, "_pivot_cap", lambda points: 1)
        q, T = seeded_source(3, 12, 1)
        with pytest.raises(RuntimeError, match="more than 1 pivots"):
            BoundarySlice(KL, KL, T, q, resolution=12)

    def test_pivot_update_equals_adjugate(self, monkeypatch):
        # At every pivot of seeded walks the integer update gives the
        # adjugate and determinant of the new basis, as computed afresh.
        # Each chain goes on from the basis the shared opening pivots
        # reached, so each tracks its own copy of it.
        real_x_phase, real_walk = envelope._x_phase, envelope._walk
        real_pivot = envelope._pivot
        basis = {}
        pivots = []

        def opening(lp, XY, start):
            basis["B"] = lp.counts[start].T.tolist()
            basis["total"] = int(lp.counts[start[0]].sum())
            opened = real_x_phase(lp, XY, start)
            basis["opened"] = basis["B"]
            return opened

        def per_walk(lp, XY, opened):
            basis["B"] = [list(row) for row in basis["opened"]]
            return real_walk(lp, XY, opened)

        def checking(adj, det, u, r):
            B = basis["B"]
            assert (adj, det) == fraction_adjugate(B)
            # B adj = det I, so B u = det a.
            entering = [divmod(sum(b * v for b, v in zip(row, u)), det) for row in B]
            assert all(rem == 0 for _, rem in entering)
            assert sum(c for c, _ in entering) == basis["total"]
            for row, (c, _) in zip(B, entering):
                row[r] = c
            new, new_det = real_pivot(adj, det, u, r)
            assert (new, new_det) == fraction_adjugate(B)
            pivots.append(r)
            return new, new_det

        monkeypatch.setattr(envelope, "_x_phase", opening)
        monkeypatch.setattr(envelope, "_walk", per_walk)
        monkeypatch.setattr(envelope, "_pivot", checking)
        for m, resolution in ((3, 24), (4, 8), (5, 6)):
            for seed in range(3):
                q, T = seeded_source(m, resolution, seed)
                for kernel in (KL, CHI2, ENTROPY):
                    BoundarySlice(kernel, kernel, T, q, resolution=resolution)
        assert len(pivots) > 1000

    def test_pivot_refuses_inexact_update(self):
        # A basis of the N = 4 lattice (det 32) and an entering column.
        B = [[4, 0, 1], [0, 4, 1], [0, 0, 2]]
        adj, det = fraction_adjugate(B)
        u = [sum(a * c for a, c in zip(row, (2, 1, 1))) for row in adj]
        r = u.index(max(u))
        new, new_det = envelope._pivot(adj, det, u, r)
        for row, c in zip(B, (2, 1, 1)):
            row[r] = c
        assert (new, new_det) == fraction_adjugate(B)
        with pytest.raises(RuntimeError, match="not exact"):
            envelope._pivot(adj, det - 1, u, r)

    def test_pivot_past_int64_equals_fraction_reference(self):
        # A basis of the N = 10**6 lattice for m = 4: q and three alphabet
        # vertices, then a column entering it.  The adjugate's entries
        # reach 1e18 and the update's products 1e42, far past 2**63; each
        # update still equals the adjugate found in fractions.
        N = 10**6
        B = [[N, 0, 0, 250_001], [0, N, 0, 249_999], [0, 0, N, 125_000], [0, 0, 0, 375_000]]
        adj, det = fraction_adjugate(B)
        for column in ((300_001, 199_999, 100_000, 400_000), (1, 0, 0, N - 1)):
            u = [sum(a * c for a, c in zip(row, column)) for row in adj]
            r = max((i for i in range(4) if u[i] > 0), key=lambda i: u[i])
            assert max(map(abs, u)) * max(map(abs, adj[r])) > 2**63
            adj, det = envelope._pivot(adj, det, u, r)
            for row, c in zip(B, column):
                row[r] = c
            assert (adj, det) == fraction_adjugate(B)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_lex_leaving_equals_fraction_reference(self, m):
        # Random integer adjugates, half with first keys forced to tie and
        # half with entries past 2**63: the row chosen is the one whose key
        # [w_i, reversed adj[i]] / u[i] is least in fractions.
        rnd = random.Random(m)
        ties = big = 0
        for case in range(600):
            top = 2**80 if case % 2 else 50
            draw = lambda size: [rnd.randrange(-top, top) for _ in range(size)]
            adj = [draw(m) for _ in range(m)]
            rhs = [rnd.randrange(1, top) for _ in range(m)]
            u = draw(m)
            u[0] = abs(u[0]) + 1
            if case % 4 < 2:
                # Row k = t row 0 + v with v . rhs = 0: the same weight ratio.
                k, t, c = rnd.randrange(1, m), rnd.randrange(1, 4), rnd.randrange(-top, top)
                v = [rhs[1] * c, -rhs[0] * c] + [0] * (m - 2)
                adj[k] = [t * a + b for a, b in zip(adj[0], v)]
                u[k] = t * u[0]
            rows = [i for i in range(m) if u[i] > 0]
            keys = {
                i: [Fraction(sum(a * b for a, b in zip(adj[i], rhs)), u[i])]
                + [Fraction(a, u[i]) for a in reversed(adj[i])]
                for i in rows
            }
            want = min(rows, key=keys.get)
            assert envelope._lex_leaving(adj, rhs, u) == want
            ties += sum(keys[i][0] == keys[want][0] for i in rows) > 1
            big += max(abs(a) for a in chain(*adj)) > 2**63
        assert ties >= 100 and big >= 250

    def test_walk_pivots_stay_under_cap(self, monkeypatch):
        # The smallest lattices need the most pivots per point; every chain
        # here stays under half its cap, counting the opening pivots it
        # shares with the other chain as its own.
        pivots = []
        shared = [0]
        real = envelope._lex_leaving

        def counting(*args):
            pivots[-1] += 1
            return real(*args)

        x_phase, walk = envelope._x_phase, envelope._walk

        def opening(lp, XY, start):
            pivots.append(0)
            opened = x_phase(lp, XY, start)
            shared[0] = pivots.pop()
            return opened

        def per_walk(lp, XY, opened):
            pivots.append(shared[0])
            result = walk(lp, XY, opened)
            assert pivots[-1] <= envelope._pivot_cap(lp.counts.shape[0]) // 2
            return result

        monkeypatch.setattr(envelope, "_lex_leaving", counting)
        monkeypatch.setattr(envelope, "_x_phase", opening)
        monkeypatch.setattr(envelope, "_walk", per_walk)
        for seed in range(5):
            for m, resolution in ((3, 3), (3, 6), (4, 4), (5, 5), (4, 12)):
                q, T = seeded_source(m, resolution, seed)
                for kernel in (KL, CHI2, ENTROPY):
                    BoundarySlice(kernel, kernel, T, q, resolution=resolution)
        assert len(pivots) == 2 * 5 * 5 * 3
