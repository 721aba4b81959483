import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bottleneck_lab import (
    Channel,
    DivergenceKernel,
    SimplexLattice,
    boundary_point_at_lambda,
    build_lagrangian_graph,
    envelope_general,
    resolve_functional,
)
from bottleneck_lab.envelope import LagrangianGraph, compositions


def bsc(delta):
    return Channel([[1.0 - delta, delta], [delta, 1.0 - delta]])


def h_nats(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


ENTROPY = DivergenceKernel.entropy_functional()
H = resolve_functional(ENTROPY)


def entropy_graph(delta, lam, resolution):
    lattice = SimplexLattice.build(2, resolution)
    return build_lagrangian_graph(H, H, bsc(delta), lam, lattice)


def convex_weights(points, target):
    """Least-squares weights of the rows of points that mix to target."""
    A = np.vstack([points.T, np.ones(points.shape[0])])
    w, *_ = np.linalg.lstsq(A, np.append(target, 1.0), rcond=None)
    assert w.min() >= -1e-9
    assert np.abs(w @ points - target).max() <= 1e-9
    return w


class TestSimplexLattice:
    @pytest.mark.parametrize("m,n_points", [(2, 5), (3, 15), (4, 35)])
    def test_point_count(self, m, n_points):
        # C(N + m - 1, m - 1) compositions at N = 4.
        lattice = SimplexLattice.build(m, 4)
        assert lattice.size == math.comb(4 + m - 1, m - 1) == n_points

    def test_binary_ordering(self):
        lattice = SimplexLattice.build(2, 4)
        assert_allclose(lattice.points[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert_allclose(lattice.points.sum(axis=1), 1.0)

    def test_compositions_are_lexicographic(self):
        comps = list(compositions(3, 3))
        assert comps[0] == (0, 0, 3)
        assert comps[-1] == (3, 0, 0)
        assert comps == sorted(comps)

    def test_index_of_round_trips(self):
        lattice = SimplexLattice.build(3, 5)
        counts = np.round(lattice.points * 5).astype(int)
        for i in range(lattice.size):
            assert lattice.index_of(counts[i]) == i

    def test_snap_nearest_binary(self):
        lattice = SimplexLattice.build(2, 10)
        idx = lattice.snap([0.87, 0.13])
        assert_allclose(lattice.points[idx], [0.9, 0.1])

    def test_snap_preserves_total(self):
        lattice = SimplexLattice.build(3, 7)
        idx = lattice.snap([1 / 3, 1 / 3, 1 / 3])
        assert_allclose(lattice.points[idx].sum(), 1.0, atol=1e-15)


class TestBuildGraph:
    def test_entropy_bsc_direct_evaluation(self):
        delta = 0.1
        graph = entropy_graph(delta, 1.0, 4)
        for i, p in enumerate([0.0, 0.25, 0.5, 0.75, 1.0]):
            # First lattice coordinate is P(X=0), so P(X=1) = 1 - p.
            p1 = 1.0 - p
            mixed = (1.0 - delta) * p1 + delta * (1.0 - p1)
            assert math.isclose(
                graph.values[i], h_nats(mixed) - h_nats(p1), abs_tol=1e-14
            )

    def test_zero_slope_returns_g(self):
        graph = entropy_graph(0.2, 0.0, 16)
        assert_allclose(graph.values, graph.y_values, atol=0)

    def test_chi2_vanishes_at_reference(self):
        lattice = SimplexLattice.build(2, 10)
        q = np.array([0.7, 0.3])
        chi = DivergenceKernel.chi_squared()
        channel = bsc(0.1)
        graph = build_lagrangian_graph(
            resolve_functional(chi, q),
            resolve_functional(chi, channel.matrix @ q),
            channel, 0.8, lattice,
        )
        idx = lattice.snap(q)
        assert abs(graph.values[idx]) < 1e-14

    def test_nonfinite_evaluation_identifies_point(self):
        lattice = SimplexLattice.build(2, 4)
        with pytest.raises(ValueError, match="not finite"):
            with np.errstate(divide="ignore"):
                build_lagrangian_graph(
                    lambda P: np.log(P[:, 0]), H, bsc(0.1), 0.0, lattice
                )


class TestLowerEnvelope1d:
    def test_convex_regime_touches_everywhere(self):
        # For a symmetric channel the objective is convex once the slope
        # reaches (1 - 2 delta)^2, so the envelope coincides with it.
        delta = 0.1
        lam = (1.0 - 2.0 * delta) ** 2
        graph = entropy_graph(delta, lam, 256)
        result = envelope_general(graph, "lower")
        assert bool(result.touches.all())
        assert_allclose(result.envelope_values, graph.values, atol=1e-12)

    def test_concave_bump_hand_check(self):
        # Pure entropy (identity channel, slope 0) is concave; its lower
        # envelope over [0, 1] is the zero chord between the vertices.
        lattice = SimplexLattice.build(2, 4)
        graph = build_lagrangian_graph(
            H, H, np.eye(2), 0.0, lattice
        )
        result = envelope_general(graph, "lower")
        assert_allclose(result.envelope_values, 0.0, atol=1e-15)
        assert not result.touches[1:-1].any()
        assert result.touches[0] and result.touches[-1]

    def test_two_point_lattice(self):
        graph = entropy_graph(0.2, 0.5, 1)
        result = envelope_general(graph, "lower")
        assert bool(result.touches.all())
        assert_allclose(result.envelope_values, graph.values, atol=0)

    def test_dominance_and_support_validity(self):
        graph = entropy_graph(0.1, 0.3, 128)
        result = envelope_general(graph, "lower")
        assert np.all(result.envelope_values <= graph.values + 1e-12)
        pts = graph.lattice.points
        for i in range(graph.lattice.size):
            support = list(result.support_sets[i])
            assert len(support) <= 2
            w = convex_weights(pts[support], pts[i])
            assert abs(w @ graph.values[support] - result.envelope_values[i]) <= 1e-9


class TestUpperEnvelope1d:
    def test_concave_values_touch_everywhere(self):
        graph = entropy_graph(0.1, 0.0, 128)  # pure h(delta star p), concave
        # Derived check: discrete second differences are nonpositive.
        second = np.diff(graph.values, 2)
        assert np.all(second <= 1e-12)
        result = envelope_general(graph, "upper")
        assert bool(result.touches.all())

    def test_low_slope_chord_between_endpoints(self):
        # When the objective at the center falls below the endpoint value,
        # the upper envelope is the chord through the two endpoints.
        delta = 0.1
        lam = 0.6
        graph = entropy_graph(delta, lam, 64)
        assert graph.values[32] < h_nats(delta)
        result = envelope_general(graph, "upper")
        assert_allclose(result.envelope_values, h_nats(delta), atol=1e-12)
        assert result.touches[0] and result.touches[-1]
        assert not result.touches[1:-1].any()
        assert sorted(result.support_sets[32]) == [0, 64]

    def test_mirror_of_lower(self):
        graph = entropy_graph(0.15, 0.25, 64)
        flipped = LagrangianGraph(
            lattice=graph.lattice,
            lam=graph.lam,
            values=-graph.values,
            x_values=graph.x_values,
            y_values=-graph.y_values,
        )
        up = envelope_general(graph, "upper")
        lo = envelope_general(flipped, "lower")
        assert_allclose(up.envelope_values, -lo.envelope_values, atol=1e-14)


class TestEnvelopeGeneral:
    def test_affine_graph_is_its_own_envelope(self):
        lattice = SimplexLattice.build(3, 6)
        graph = build_lagrangian_graph(
            lambda P: P @ np.array([0.2, 0.5, 0.9]),
            lambda P: P @ np.array([1.0, 0.0, 0.3]),
            np.eye(3),
            0.7,
            lattice,
        )
        for direction in ("lower", "upper"):
            result = envelope_general(graph, direction)
            assert bool(result.touches.all())
            assert_allclose(result.envelope_values, graph.values, atol=1e-12)

    def test_m3_concave_entropy_chord_plane(self):
        # Entropy at slope 0 is concave; the lower envelope at N = 2 is the
        # plane through the three vertices, identically zero.
        lattice = SimplexLattice.build(3, 2)
        graph = build_lagrangian_graph(H, H, np.eye(3), 0.0, lattice)
        result = envelope_general(graph, "lower")
        assert_allclose(result.envelope_values, 0.0, atol=1e-12)
        interior = [i for i in range(lattice.size) if (lattice.points[i] > 0).sum() > 1]
        for i in interior:
            assert not result.touches[i]
            assert len(result.support_sets[i]) <= 3

    def test_binary_general_matches_1d_path(self):
        # Reference 1-D envelope: at each abscissa, the best chord between a
        # lattice point on its left and one on its right.
        graph = entropy_graph(0.1, 0.3, 64)
        t = graph.lattice.points[:, 0]
        v = graph.values
        for direction, pick in (("lower", np.min), ("upper", np.max)):
            ref = np.empty_like(v)
            for i in range(t.size):
                a, b = np.meshgrid(np.arange(i + 1), np.arange(i, t.size), indexing="ij")
                a, b = a.ravel(), b.ravel()
                span = np.where(b > a, t[b] - t[a], 1.0)
                share = np.where(b > a, (t[i] - t[a]) / span, 0.0)
                ref[i] = pick((1.0 - share) * v[a] + share * v[b])
            general = envelope_general(graph, direction)
            assert_allclose(general.envelope_values, ref, atol=1e-12)

    def test_degenerate_hull_falls_back_to_values(self):
        lattice = SimplexLattice.build(3, 3)
        graph = build_lagrangian_graph(
            lambda P: np.zeros(P.shape[0]),
            lambda P: np.zeros(P.shape[0]),
            np.eye(3),
            0.0,
            lattice,
        )
        result = envelope_general(graph, "lower")
        assert bool(result.touches.all())
        assert_allclose(result.envelope_values, graph.values, atol=0)

    def test_m4_concave_entropy_envelope(self):
        lattice = SimplexLattice.build(4, 8)
        graph = build_lagrangian_graph(H, H, np.eye(4), 0.0, lattice)
        result = envelope_general(graph, "lower")
        assert_allclose(result.envelope_values, 0.0, atol=1e-12)
        for i in range(lattice.size):
            assert len(result.support_sets[i]) <= 4

    def test_rejects_m5(self):
        lattice = SimplexLattice.build(5, 2)
        graph = build_lagrangian_graph(H, H, np.eye(5), 0.0, lattice)
        with pytest.raises(ValueError, match="m"):
            envelope_general(graph, "lower")

    def test_support_validity_m3(self):
        lattice = SimplexLattice.build(3, 12)
        rng = np.random.default_rng(5)
        T = rng.exponential(size=(3, 3)) + 0.1
        T = T / T.sum(axis=0, keepdims=True)
        graph = build_lagrangian_graph(H, H, T, 1.2, lattice)
        result = envelope_general(graph, "lower")
        assert np.all(result.envelope_values <= graph.values + 1e-12)
        pts = lattice.points
        for i in range(lattice.size):
            support = list(result.support_sets[i])
            assert len(support) <= 3
            w = convex_weights(pts[support], pts[i])
            assert abs(w @ graph.values[support] - result.envelope_values[i]) <= 1e-9


class TestEnvelopeGapAt:
    """The gap between the objective and its envelope at q, read off the
    support point at slope lam: phi(q) - (y - lam * x)."""

    def test_trivial_case(self):
        delta = 0.1
        lam = (1.0 - 2.0 * delta) ** 2
        # Resolution chosen so [0.9, 0.1] sits exactly on the lattice.
        graph = entropy_graph(delta, lam, 200)
        point = boundary_point_at_lambda(
            ENTROPY, ENTROPY, bsc(delta), [0.9, 0.1], lam, "lower", lattice=graph.lattice
        )
        idx = graph.lattice.snap([0.9, 0.1])
        assert abs(graph.values[idx] - (point.y - lam * point.x)) <= 1e-12
        assert point.trivial and len(point.witness.atoms) == 1
        w, atom = point.witness.atoms[0]
        assert w == 1.0
        assert_allclose(atom.probs, [0.9, 0.1], atol=1e-15)

    def test_nontrivial_mixture_reaches_marginal(self):
        graph = entropy_graph(0.1, 0.3, 4096)
        point = boundary_point_at_lambda(
            ENTROPY, ENTROPY, bsc(0.1), [0.9, 0.1], 0.3, "lower", lattice=graph.lattice
        )
        idx = graph.lattice.snap([0.9, 0.1])
        assert graph.values[idx] - (point.y - 0.3 * point.x) > 1e-7
        assert len(point.witness.atoms) == 2
        mix = sum(w * atom.probs for w, atom in point.witness.atoms)
        assert np.abs(mix - graph.lattice.points[idx]).max() <= 1e-9

    def test_chi2_straddle_at_reference(self):
        # Past the slope where the objective turns concave, the envelope
        # dips below zero at the reference and is spanned by points on
        # either side of it.
        lattice = SimplexLattice.build(2, 64)
        q = lattice.points[lattice.snap([0.9, 0.1])]
        chi = DivergenceKernel.chi_squared()
        point = boundary_point_at_lambda(chi, chi, bsc(0.1), q, 1.0, "lower", lattice=lattice)
        assert point.y - 1.0 * point.x < -1e-7  # the objective is 0 at q
        firsts = sorted(atom.probs[0] for _, atom in point.witness.atoms)
        assert firsts[0] < q[0] < firsts[-1]


class TestEnvelopeProperties:
    def test_idempotence(self):
        graph = entropy_graph(0.1, 0.3, 256)
        result = envelope_general(graph, "lower")
        regraph = LagrangianGraph(
            lattice=graph.lattice,
            lam=0.0,
            values=result.envelope_values,
            x_values=np.zeros(graph.lattice.size),
            y_values=result.envelope_values,
        )
        again = envelope_general(regraph, "lower")
        assert_allclose(again.envelope_values, result.envelope_values, atol=1e-12)
        assert bool(again.touches.all())

    def test_lower_envelope_convexity(self):
        graph = entropy_graph(0.1, 0.3, 512)
        result = envelope_general(graph, "lower")
        second = np.diff(result.envelope_values, 2)
        assert np.all(second >= -1e-9)

    def test_upper_envelope_concavity(self):
        graph = entropy_graph(0.1, 0.3, 512)
        result = envelope_general(graph, "upper")
        second = np.diff(result.envelope_values, 2)
        assert np.all(second <= 1e-9)

    def test_refinement_monotonicity(self):
        for lam in (0.1, 0.3, 0.5):
            coarse_graph = entropy_graph(0.1, lam, 64)
            fine_graph = entropy_graph(0.1, lam, 128)
            coarse = envelope_general(coarse_graph, "lower").envelope_values
            fine = envelope_general(fine_graph, "lower").envelope_values
            assert np.all(fine[::2] <= coarse + 1e-9)
