import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from bottleneck_lab import Channel, DivergenceKernel, SimplexLattice, resolve_functional
from bottleneck_lab.acceptance import _slope_grid
from bottleneck_lab.core import ConfigError
from bottleneck_lab.envelope import (
    DEFAULT_RESOLUTION,
    _boundary_chains,
    _unique_rows,
    build_lagrangian_graph,
    envelope_at,
    lattice_size,
    region_slice,
)
from bottleneck_lab.sweep import BoundarySlice, slice_point
from test_sweep import seeded_source


def bsc(delta):
    return Channel([[1.0 - delta, delta], [delta, 1.0 - delta]])


def h_nats(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


ENTROPY = DivergenceKernel.entropy_functional()
KL = DivergenceKernel.kl()
H = resolve_functional(ENTROPY)


Q = np.array([0.9, 0.1])


def entropy_graph(delta, resolution):
    lattice = SimplexLattice.build(2, resolution)
    return build_lagrangian_graph(H, H, bsc(delta), lattice, Q)


def phi(graph, lam):
    """The Lagrangian g(Tp) - lam * f(p) over the graph's lattice."""
    return (graph.y_values - lam * graph.x_values)[:-1]


def phi_at_q(graph, lam):
    """The Lagrangian at the graph's marginal (its last row)."""
    return float(graph.y_values[-1] - lam * graph.x_values[-1])


def envelope(lattice, values, direction):
    """envelope_at at every lattice point."""
    pairs = zip(lattice.points, values)
    return np.array([envelope_at(lattice, values, p, v, direction) for p, v in pairs])


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
        # Every composition of N into m parts once, in lexicographic order.
        for m, resolution in ((2, 5), (3, 3), (4, 4), (6, 3), (3, 2)):
            lattice = SimplexLattice.build(m, resolution)
            counts = np.rint(lattice.points * resolution).astype(int)
            assert counts.tolist() == lattice.counts.tolist()
            counts = [tuple(row) for row in counts.tolist()]
            assert counts == sorted(set(counts)) and len(counts) == lattice_size(m, resolution)
            assert all(min(row) >= 0 and sum(row) == resolution for row in counts)
            assert counts[0] == (0,) * (m - 1) + (resolution,)
            assert counts[-1] == (resolution,) + (0,) * (m - 1)

    def test_vertices_are_the_alphabet(self):
        lattice = SimplexLattice.build(3, 4)
        assert_allclose(lattice.points[lattice.vertices], np.eye(3)[::-1])

    def test_counts_are_read_only_integers_behind_the_points(self):
        lattice = SimplexLattice.build(4, 5)
        assert lattice.counts.dtype == np.int64
        assert not lattice.counts.flags.writeable and not lattice.points.flags.writeable
        assert (lattice.points == lattice.counts / 5.0).all()

    @pytest.mark.parametrize("m,resolution", [(2, None), (3, None), (4, None), (3, 7)])
    def test_default_resolution_is_read_in_build(self, m, resolution):
        lattice = SimplexLattice.build(m, resolution)
        assert lattice.resolution == (resolution or DEFAULT_RESOLUTION[m])

    def test_every_lattice_rule_is_applied_in_build(self, monkeypatch):
        with pytest.raises(ConfigError, match="no default lattice for m = 5"):
            SimplexLattice.build(5)
        for resolution in (0, 1):
            with pytest.raises(ValueError, match="resolution must be >= 2") as info:
                SimplexLattice.build(2, resolution)
            assert not isinstance(info.value, ConfigError)
        monkeypatch.setattr(np, "fromiter", None)  # nothing may be built
        with pytest.raises(ConfigError, match="at most 262144 are supported"):
            SimplexLattice.build(3, 1024)

    def test_library_slice_refuses_the_one_point_lattice(self):
        # A library caller meets the CLI's minimum.
        with pytest.raises(ValueError, match="resolution must be >= 2"):
            BoundarySlice(ENTROPY, ENTROPY, bsc(0.1), Q, resolution=1)


class TestBuildGraph:
    def test_entropy_bsc_direct_evaluation(self):
        delta = 0.1
        values = phi(entropy_graph(delta, 4), 1.0)
        for i, p in enumerate([0.0, 0.25, 0.5, 0.75, 1.0]):
            # First lattice coordinate is P(X=0), so P(X=1) = 1 - p.
            p1 = 1.0 - p
            mixed = (1.0 - delta) * p1 + delta * (1.0 - p1)
            assert math.isclose(values[i], h_nats(mixed) - h_nats(p1), abs_tol=1e-14)

    def test_zero_slope_returns_g(self):
        graph = entropy_graph(0.2, 16)
        points = graph.lattice.points
        assert_allclose(phi(graph, 0.0), H(points @ bsc(0.2).matrix.T), atol=0)
        assert_allclose(graph.x_values, H(np.vstack([points, Q])), atol=0)

    def test_chi2_vanishes_at_reference(self):
        lattice = SimplexLattice.build(2, 10)
        q = np.array([0.7, 0.3])
        chi = DivergenceKernel.chi_squared()
        channel = bsc(0.1)
        graph = build_lagrangian_graph(
            resolve_functional(chi, q),
            resolve_functional(chi, channel.matrix @ q),
            channel, lattice, q,
        )
        assert abs(phi_at_q(graph, 0.8)) < 1e-14
        assert abs(phi(graph, 0.8)[7]) < 1e-14  # the lattice point [0.7, 0.3]

    def test_nonfinite_evaluation_identifies_point(self):
        lattice = SimplexLattice.build(2, 4)
        with pytest.raises(ValueError, match="not finite"):
            with np.errstate(divide="ignore"):
                build_lagrangian_graph(lambda P: np.log(P[:, 0]), H, bsc(0.1), lattice, Q)


class TestRegionSlice:
    def test_affine_graph_gives_one_point(self):
        # Linear f and g: every mixture with mean q lands on (f(q), g(Tq)).
        # The lifted hull is the alphabet face alone, and the polygon is
        # the single atom q.
        lattice = SimplexLattice.build(2, 16)
        graph = build_lagrangian_graph(
            lambda P: P @ [1.0, 3.0], lambda P: P @ [2.0, -1.0], bsc(0.2), lattice, Q
        )
        region = region_slice(graph)
        assert region.simplices.tolist() == [lattice.vertices.tolist()]
        assert region.lower.tolist() == region.upper.tolist() == [0]
        assert region.atoms.tolist() == [[lattice.size, -1]]
        assert (region.x.tolist(), region.y.tolist()) == (
            graph.x_values[-1:].tolist(), graph.y_values[-1:].tolist()
        )

    def test_vertical_edges_belong_to_no_chain(self):
        # Each chain runs from the lowest (highest) of the leftmost points
        # to the lowest (highest) of the rightmost: on a unit square, its
        # bottom and its top edge.
        x, y = np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0, 1.0])
        lower, upper = _boundary_chains(x, y)
        assert lower.tolist() == [0, 2]
        assert upper.tolist() == [1, 3]


class TestBinaryLowerEnvelope:
    def test_convex_regime_touches_everywhere(self):
        # For a symmetric channel the objective is convex once the slope
        # reaches (1 - 2 delta)^2, so the envelope coincides with it.
        delta = 0.1
        graph = entropy_graph(delta, 256)
        values = phi(graph, (1.0 - 2.0 * delta) ** 2)
        assert_allclose(envelope(graph.lattice, values, "lower"), values, atol=1e-12)

    def test_concave_bump_hand_check(self):
        # Pure entropy (identity channel, slope 0) is concave; its lower
        # envelope over [0, 1] is the zero chord between the vertices.
        lattice = SimplexLattice.build(2, 4)
        values = build_lagrangian_graph(H, H, np.eye(2), lattice, Q).y_values[:-1]
        env = envelope(lattice, values, "lower")
        assert_allclose(env, 0.0, atol=1e-15)
        assert np.all(env[1:-1] < values[1:-1] - 1e-10)

    def test_two_point_lattice(self):
        # The alphabet alone, built directly: build refuses N = 1.
        counts = np.array([[0, 1], [1, 0]])
        lattice = SimplexLattice(m=2, resolution=1, counts=counts, points=counts / 1.0)
        graph = build_lagrangian_graph(H, H, bsc(0.2), lattice, Q)
        values = phi(graph, 0.5)
        assert_allclose(envelope(graph.lattice, values, "lower"), values, atol=0)

    def test_dominance_and_support_validity(self):
        graph = entropy_graph(0.1, 128)
        values = phi(graph, 0.3)
        assert np.all(envelope(graph.lattice, values, "lower") <= values + 1e-12)


class TestBinaryUpperEnvelope:
    def test_concave_values_touch_everywhere(self):
        graph = entropy_graph(0.1, 128)
        values = phi(graph, 0.0)  # pure h(delta star p), concave
        # Derived check: discrete second differences are nonpositive.
        assert np.all(np.diff(values, 2) <= 1e-12)
        assert_allclose(envelope(graph.lattice, values, "upper"), values, atol=1e-12)

    def test_low_slope_chord_between_endpoints(self):
        # When the objective at the center falls below the endpoint value,
        # the upper envelope is the chord through the two endpoints.
        delta = 0.1
        graph = entropy_graph(delta, 64)
        values = phi(graph, 0.6)
        assert values[32] < h_nats(delta)
        env = envelope(graph.lattice, values, "upper")
        assert_allclose(env, h_nats(delta), atol=1e-12)
        assert np.all(env[1:-1] > values[1:-1] + 1e-10)

    def test_mirror_of_lower(self):
        graph = entropy_graph(0.15, 64)
        values = phi(graph, 0.25)
        up = envelope(graph.lattice, values, "upper")
        lo = envelope(graph.lattice, -values, "lower")
        assert_allclose(up, -lo, atol=1e-14)


def qhull_envelope_at(lattice, values, q, q_value, direction):
    """envelope_at by one hull of the lifted points at any m: the highest
    downward-facing facet plane at q, or the alphabet vertices' plane for
    an affine graph, capped at q_value."""
    sign = 1.0 if direction == "lower" else -1.0
    signed = sign * np.asarray(values, dtype=float)
    lifted = np.column_stack([lattice.points[:, : lattice.m - 1], signed])
    try:
        planes = ConvexHull(lifted, qhull_options="Qt").equations
    except QhullError:
        vertices = lattice.vertices
        best = float((lattice.points[vertices] @ q) @ signed[vertices])
    else:
        planes = planes[planes[:, -2] < -1e-12]
        best = float((-(planes[:, :-2] @ q[:-1] + planes[:, -1]) / planes[:, -2]).max())
    return sign * min(best, sign * float(q_value))


class TestEnvelopeAt:
    """envelope_at for any alphabet size."""

    def test_affine_graph_is_its_own_envelope(self):
        lattice = SimplexLattice.build(3, 6)
        graph = build_lagrangian_graph(
            lambda P: P @ np.array([0.2, 0.5, 0.9]),
            lambda P: P @ np.array([1.0, 0.0, 0.3]),
            np.eye(3),
            lattice,
            [0.2, 0.3, 0.5],
        )
        values = phi(graph, 0.7)
        for direction in ("lower", "upper"):
            assert_allclose(envelope(lattice, values, direction), values, atol=1e-12)

    def test_m3_concave_entropy_chord_plane(self):
        # Entropy at slope 0 is concave; the lower envelope at N = 2 is the
        # plane through the three vertices, identically zero.
        lattice = SimplexLattice.build(3, 2)
        values = H(lattice.points)
        env = envelope(lattice, values, "lower")
        assert_allclose(env, 0.0, atol=1e-12)
        interior = (lattice.points > 0).sum(axis=1) > 1
        assert np.all(env[interior] < values[interior] - 1e-10)

    def test_binary_envelope_is_the_best_chord(self):
        # Reference 1-D envelope: at each abscissa, the best chord between a
        # lattice point on its left and one on its right.
        graph = entropy_graph(0.1, 64)
        t = graph.lattice.points[:, 0]
        v = phi(graph, 0.3)
        for direction, pick in (("lower", np.min), ("upper", np.max)):
            ref = np.empty_like(v)
            for i in range(t.size):
                a, b = np.meshgrid(np.arange(i + 1), np.arange(i, t.size), indexing="ij")
                a, b = a.ravel(), b.ravel()
                span = np.where(b > a, t[b] - t[a], 1.0)
                share = np.where(b > a, (t[i] - t[a]) / span, 0.0)
                ref[i] = pick((1.0 - share) * v[a] + share * v[b])
            assert_allclose(envelope(graph.lattice, v, direction), ref, atol=1e-12)

    def test_binary_chords_equal_the_hull(self):
        # m = 2 reads the least chord over the straddling pairs; a hull
        # gives the same value at A7's binary seeds (q off the lattice, at
        # A7's own slope), at every point of a lattice whose q N is not
        # always an exact integer, and on an affine graph.
        kernels = [ENTROPY, KL, DivergenceKernel.chi_squared()]
        cases = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            T = rng.exponential(size=(n, m)) + 0.05
            q = rng.exponential(size=m)
            q = 0.6 * q / q.sum() + 0.4 / m
            kernel = kernels[int(rng.integers(0, 3))]
            rng.integers(0, 2)  # A7's direction draw: the slope draw follows it
            if m != 2:
                continue
            graph = BoundarySlice(
                kernel, kernel, Channel(T / T.sum(axis=0, keepdims=True)), q, resolution=64
            ).region.graph
            grid = _slope_grid(graph.x_values, graph.y_values, steps=16)
            lam = float(grid[int(rng.integers(0, grid.size))])
            cases.append((graph.lattice, phi(graph, lam), graph.q, phi_at_q(graph, lam)))
        assert len(cases) == 89
        graph = entropy_graph(0.1, 200)
        values = phi(graph, 0.4)
        cases += [(graph.lattice, values, p, v) for p, v in zip(graph.lattice.points, values)]
        affine = 0.3 - 1.7 * graph.lattice.points[:, 0]
        cases += [(graph.lattice, affine, Q, 0.3 - 1.7 * Q[0] + 0.05)]
        for lattice, values, q, q_value in cases:
            for direction in ("lower", "upper"):
                want = qhull_envelope_at(lattice, values, q, q_value, direction)
                got = envelope_at(lattice, values, q, q_value, direction)
                assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    def test_degenerate_hull_falls_back_to_values(self):
        lattice = SimplexLattice.build(3, 3)
        zeros = np.zeros(lattice.size)
        for direction in ("lower", "upper"):
            assert_allclose(envelope(lattice, zeros, direction), zeros, atol=0)

    def test_m4_concave_entropy_envelope(self):
        lattice = SimplexLattice.build(4, 8)
        values = H(lattice.points)
        assert_allclose(envelope(lattice, values, "lower"), 0.0, atol=1e-12)

    def test_m5_needs_no_special_case(self):
        lattice = SimplexLattice.build(5, 3)
        values = H(lattice.points)
        env = envelope(lattice, values, "lower")
        assert_allclose(env, 0.0, atol=1e-12)
        assert_allclose(envelope(lattice, values, "upper"), values, atol=1e-12)

    def test_support_validity_m3(self):
        lattice = SimplexLattice.build(3, 12)
        rng = np.random.default_rng(5)
        T = rng.exponential(size=(3, 3)) + 0.1
        T = T / T.sum(axis=0, keepdims=True)
        values = phi(build_lagrangian_graph(H, H, T, lattice, np.full(3, 1.0 / 3.0)), 1.2)
        assert np.all(envelope(lattice, values, "lower") <= values + 1e-12)

    def test_unknown_direction_is_refused(self):
        lattice = SimplexLattice.build(2, 4)
        with pytest.raises(ValueError, match="direction"):
            envelope_at(lattice, np.zeros(lattice.size), Q, 0.0, "sideways")

    @pytest.mark.parametrize("m,resolution", [(2, 64), (3, 12), (4, 6)])
    def test_matches_linprog(self, m, resolution):
        # The envelope at q is the optimum of the LP over mixtures of
        # lattice points and q with mean q, which HiGHS solves
        # independently.  q is off the lattice.
        q, T = seeded_source(m, resolution, 11)
        q = 0.8 * q + 0.2 * np.random.default_rng(m).dirichlet(np.ones(m))
        lattice = SimplexLattice.build(m, resolution)
        graph = build_lagrangian_graph(
            resolve_functional(KL, q), resolve_functional(KL, T @ q), T, lattice, q
        )
        columns = np.vstack([lattice.points, q]).T
        for lam in (0.0, 0.25, 0.7, 1.5, 4.0):
            values = graph.y_values - lam * graph.x_values
            for sign, direction in ((1.0, "lower"), (-1.0, "upper")):
                lp = linprog(sign * values, A_eq=columns, b_eq=q,
                             bounds=(0.0, None), method="highs")
                env = envelope_at(lattice, values[:-1], q, values[-1], direction)
                assert abs(sign * lp.fun - env) <= 1e-9


class TestSupportGapAtQ:
    """The gap between the objective and its envelope at q, read off the
    support point at slope lam: phi(q) - (y - lam * x)."""

    def test_trivial_case(self):
        delta = 0.1
        lam = (1.0 - 2.0 * delta) ** 2
        # Resolution chosen so [0.9, 0.1] sits exactly on the lattice.
        graph = entropy_graph(delta, 200)
        bslice = BoundarySlice(ENTROPY, ENTROPY, bsc(delta), Q, resolution=200)
        point = slice_point(bslice, lam, "lower")
        assert abs(phi_at_q(graph, lam) - (point.y - lam * point.x)) <= 1e-12
        assert point.trivial and len(point.witness.atoms) == 1
        w, atom = point.witness.atoms[0]
        assert w == 1.0
        assert_allclose(atom.probs, [0.9, 0.1], atol=1e-15)

    def test_nontrivial_mixture_reaches_marginal(self):
        # [0.9, 0.1] is off the N = 4096 lattice.
        graph = entropy_graph(0.1, 4096)
        bslice = BoundarySlice(ENTROPY, ENTROPY, bsc(0.1), Q, resolution=4096)
        point = slice_point(bslice, 0.3, "lower")
        assert phi_at_q(graph, 0.3) - (point.y - 0.3 * point.x) > 1e-7
        assert len(point.witness.atoms) == 2
        mix = sum(w * atom.probs for w, atom in point.witness.atoms)
        assert np.abs(mix - Q).max() <= 1e-15

    def test_chi2_straddle_at_reference(self):
        # Past the slope where the objective turns concave, the envelope
        # dips below zero at the reference and is spanned by points on
        # either side of it.
        q = Q  # off the lattice
        chi = DivergenceKernel.chi_squared()
        point = slice_point(BoundarySlice(chi, chi, bsc(0.1), q, resolution=64), 1.0, "lower")
        assert point.y - 1.0 * point.x < -1e-7  # the objective is 0 at q
        firsts = sorted(atom.probs[0] for _, atom in point.witness.atoms)
        assert firsts[0] < q[0] < firsts[-1]


class TestEnvelopeProperties:
    def test_lower_envelope_convexity(self):
        graph = entropy_graph(0.1, 512)
        env = envelope(graph.lattice, phi(graph, 0.3), "lower")
        assert np.all(np.diff(env, 2) >= -1e-9)

    def test_upper_envelope_concavity(self):
        graph = entropy_graph(0.1, 512)
        env = envelope(graph.lattice, phi(graph, 0.3), "upper")
        assert np.all(np.diff(env, 2) <= 1e-9)

    def test_refinement_monotonicity(self):
        coarse_graph = entropy_graph(0.1, 64)
        fine_graph = entropy_graph(0.1, 128)
        for lam in (0.1, 0.3, 0.5):
            coarse = envelope(coarse_graph.lattice, phi(coarse_graph, lam), "lower")
            fine = envelope(fine_graph.lattice, phi(fine_graph, lam), "lower")
            assert np.all(fine[::2] <= coarse + 1e-9)


class TestUniqueRows:
    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    @pytest.mark.parametrize("size", [0, 1, 2, 40, 500])
    def test_equals_numpy_unique(self, width, size):
        # Few values per slot, so rows repeat; -1 marks unused slots as in
        # the witness arrays.
        rng = np.random.default_rng([width, size])
        for _ in range(5):
            rows = rng.integers(-1, 3, size=(size, width)).astype(np.int64)
            got_rows, got_first = _unique_rows(rows)
            want_rows, want_first = np.unique(rows, axis=0, return_index=True)
            np.testing.assert_array_equal(got_rows, want_rows)
            np.testing.assert_array_equal(got_first, want_first)

    def test_rows_with_many_duplicates(self):
        rows = np.array([[2, -1], [0, 1], [2, -1], [0, 1], [-1, -1], [0, 1]], dtype=np.int64)
        got_rows, got_first = _unique_rows(rows)
        np.testing.assert_array_equal(got_rows, [[-1, -1], [0, 1], [2, -1]])
        np.testing.assert_array_equal(got_first, [4, 1, 0])
