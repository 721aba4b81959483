import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from bottleneck_lab import (
    BscInstance,
    DivergenceKernel,
    binary_entropy,
    binary_entropy_inv,
    f_information,
    joint_from_marginal_channel,
    mr_gerber,
    mrs_gerber,
    oracle_boundary,
    oracle_exhaustive_binary,
)
from bottleneck_lab import oracle
from bottleneck_lab.acceptance import check_oracle_cross
from bottleneck_lab.core import LN2, Channel
from bottleneck_lab.oracle import (
    OracleConfig,
    _BinaryCloud,
    _binary_points,
    _hull_indices,
    _reduce_mixture,
)
from bottleneck_lab.sweep import WitnessChannel, _resolve_pair

ENTROPY = DivergenceKernel.entropy_functional()
KL = DivergenceKernel.kl()
CHI2 = DivergenceKernel.chi_squared()

INST = BscInstance(q=0.1, delta=0.1)


def witness_constraint_holds(point):
    if not point.feasible:
        return True
    if point.direction == "upper":
        return point.x_achieved <= point.x_target + 1e-9
    return point.x_achieved >= point.x_target - 1e-9


class TestExhaustiveBinary:
    def test_zero_target_divergence_frame(self):
        for direction in ("lower", "upper"):
            pt = oracle_exhaustive_binary(KL, KL, 0.1, 0.1, [0.0], direction, 128)[0]
            assert pt.feasible
            assert pt.best_y == pytest.approx(0.0, abs=1e-12)

    def test_recovers_symmetric_witness(self):
        x_bits = 0.2
        pt = oracle_exhaustive_binary(
            ENTROPY, ENTROPY, 0.1, 0.1, [x_bits * LN2], "lower", 512
        )[0]
        r = binary_entropy_inv(x_bits)
        step = 2.0 / 512
        for _, atom in pt.witness.atoms:
            p = atom.probs[1]
            assert min(abs(p - r), abs(p - (1.0 - r))) <= step

    def test_three_atom_refinement_beats_pairs_on_upper(self):
        # In the regime where the exact upper boundary needs a third atom,
        # the hull search mixes two pairs into it.
        x_t = 0.1 * LN2
        cfg = OracleConfig(grid_resolution=256)
        three = oracle_boundary(ENTROPY, ENTROPY, INST.channel(), INST.marginal(), x_t, "upper", cfg)
        assert math.isclose(three.best_y / LN2, mr_gerber(INST, 0.1), abs_tol=1e-4)
        assert len(three.witness.atoms) == 3

    def test_endpoint_has_unique_trivial_witness(self):
        hq = binary_entropy(INST.q) * LN2
        pt = oracle_exhaustive_binary(ENTROPY, ENTROPY, 0.1, 0.1, [hq], "lower", 512)[0]
        assert len(pt.witness.atoms) == 1
        assert_allclose(pt.witness.atoms[0][1].probs, [0.9, 0.1], atol=1e-12)

    def test_tracks_closed_forms(self):
        xs = np.linspace(0.0, binary_entropy(INST.q) * LN2, 15)
        funnel = oracle_exhaustive_binary(ENTROPY, ENTROPY, 0.1, 0.1, xs, "lower", 512)
        for pt in funnel:
            exact = mrs_gerber(INST, pt.x_target / LN2)
            assert pt.best_y / LN2 >= exact - 1e-9  # never below the true minimum
            assert pt.best_y / LN2 <= exact + 2e-3
        bottleneck = oracle_exhaustive_binary(ENTROPY, ENTROPY, 0.1, 0.1, xs, "upper", 512)
        for pt in bottleneck:
            exact = mr_gerber(INST, pt.x_target / LN2)
            assert pt.best_y / LN2 <= exact + 1e-9  # never above the true maximum
            assert pt.best_y / LN2 >= exact - 2e-3

    def test_soundness_of_every_witness(self):
        xs = np.linspace(0.0, 1.0, 11)
        for kernel in (CHI2, KL):
            for direction in ("lower", "upper"):
                grid = xs if kernel is CHI2 else xs * binary_entropy(INST.q) * LN2
                for pt in oracle_exhaustive_binary(kernel, kernel, 0.1, 0.1, grid, direction, 128):
                    assert witness_constraint_holds(pt)
                    assert len(pt.witness.atoms) <= 3

    def test_infeasible_target_reports_trivial(self):
        big = binary_entropy(INST.q) * LN2 + 0.5
        pt = oracle_exhaustive_binary(ENTROPY, ENTROPY, 0.1, 0.1, [big], "lower", 64)[0]
        assert not pt.feasible
        assert len(pt.witness.atoms) == 1

    def test_chi2_region_is_linear(self):
        joint = joint_from_marginal_channel(INST.marginal(), INST.channel())
        kappa = f_information(CHI2, joint)
        for direction in ("lower", "upper"):
            pts = oracle_exhaustive_binary(CHI2, CHI2, 0.1, 0.1, np.linspace(0, 1, 9), direction, 256)
            for pt in pts:
                assert math.isclose(pt.best_y, kappa * pt.x_target, abs_tol=1e-9)


class TestReduceMixture:
    @pytest.mark.parametrize("m, k", [(2, 7), (3, 12)])
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_prunes_to_m_plus_one_atoms_keeping_the_constraints(self, m, k, direction):
        # Marginal, total mass and E[f] held; E[g] never worse; the kept
        # atoms are rows of the input with their own values.
        rng = np.random.default_rng([m, k])
        P = rng.dirichlet(np.ones(m), size=k)
        w = rng.dirichlet(np.ones(k))
        f, g = rng.normal(size=k), rng.normal(size=k)
        P2, w2, f2, g2 = _reduce_mixture(P, w, f, g, direction)
        assert len(w2) <= m + 1 and np.all(w2 > 0.0)
        assert_allclose(w2 @ P2, w @ P, atol=1e-12)
        assert w2.sum() == pytest.approx(1.0, abs=1e-12)
        assert w2 @ f2 == pytest.approx(w @ f, abs=1e-12)
        sign = 1.0 if direction == "upper" else -1.0
        assert sign * (w2 @ g2) >= sign * (w @ g) - 1e-12
        rows = [int(np.flatnonzero((P == row).all(axis=1))[0]) for row in P2]
        assert_allclose(f2, f[rows], rtol=0, atol=0)
        assert_allclose(g2, g[rows], rtol=0, atol=0)


def scalar_hull_indices(xs, ys, direction):
    """The oracle's monotone chain indexing numpy arrays one scalar at a
    time: the reference the zero-copy loop must match index for index."""
    order = np.lexsort((ys if direction == "lower" else -ys, xs))
    sign = 1.0 if direction == "lower" else -1.0
    hull = []
    for i in order:
        if hull and abs(xs[i] - xs[hull[-1]]) <= 1e-15:
            continue
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (xs[b] - xs[a]) * sign * (ys[i] - ys[a]) - sign * (
                ys[b] - ys[a]
            ) * (xs[i] - xs[a])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(int(i))
    return hull


def adversarial_clouds():
    """Clouds with x-ties within 1e-15, collinear runs, repeated points and
    a single point."""
    rng = np.random.default_rng(11)
    ties = np.array([0.0, 1e-16, 5e-16, 1e-15, 0.5, 0.5 + 9e-16, 1.0, 1.0 + 1e-15, 1.0 + 2e-15])
    line = np.linspace(0.0, 1.0, 40)
    grid = rng.integers(0, 5, 200) / 4.0
    yield ties, rng.permutation(ties.size).astype(float)
    yield line, 2.0 * line + 1.0
    yield np.concatenate([line, line]), np.concatenate([line**2, 3.0 - line])
    yield grid, rng.integers(0, 3, 200) / 2.0
    yield grid, np.zeros(200)
    yield np.array([0.25]), np.array([-1.0])


def large_clouds():
    """Clouds of at least 10 000 points, so that the chain takes two passes
    wherever its arithmetic allows: each a name and its (xs, ys)."""
    rng = np.random.default_rng(29)
    xs = np.sort(rng.random(10_000))
    ys = (xs - 0.5) ** 2 + 0.1 * rng.random(xs.size)
    # Pairs 5e-16 apart in x, one point of each 0.05 below the hull: the
    # chain skips the second point of a pair, whichever is lower.
    pick = np.sort(rng.choice(xs.size, 300, replace=False))
    pair_x = np.concatenate([xs, xs[pick] + 5e-16])
    high, low = ys[pick] + 0.05, (xs[pick] - 0.5) ** 2 - 0.05
    yield "pair-high-first", (pair_x, np.concatenate([_with(ys, pick, high), low]))
    yield "pair-low-first", (pair_x, np.concatenate([_with(ys, pick, low), high]))
    yield "collinear-runs", (xs, np.abs(xs - 0.5) + np.where(rng.random(xs.size) < 0.5, 0.0, 0.2))
    yield "repeated", (np.tile(xs[::4], 4), np.tile(ys[::4], 4))
    yield "constant-y", (xs, np.full(xs.size, 0.25))
    # Near the least float: y of 2**-900 still takes two passes, a
    # subnormal y (a few significant bits) takes one.
    yield "y-2^-900", (xs, ys * 2.0**-900)
    yield "subnormal-y", (xs, ys * 2.0**-1064)


def _with(ys, pick, values):
    out = ys.copy()
    out[pick] = values
    return out


class TestHullIndices:
    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("kernel", [ENTROPY, CHI2], ids=["entropy", "chi2"])
    def test_a4_clouds_match_scalar_loop(self, kernel, direction):
        # A4's four clouds: BSC 0.1/0.1 on the 512-point grid.
        channel = INST.channel()
        f_fn, g_fn = _resolve_pair(kernel, kernel, INST.marginal().probs, channel)
        cloud = _BinaryCloud(f_fn, g_fn, channel.matrix, INST.q, 512)
        got = _hull_indices(cloud.xs, cloud.ys, direction)
        assert got == scalar_hull_indices(cloud.xs, cloud.ys, direction)
        assert all(type(i) is int for i in got)

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_adversarial_clouds_match_scalar_loop(self, direction):
        for xs, ys in adversarial_clouds():
            assert _hull_indices(xs, ys, direction) == scalar_hull_indices(xs, ys, direction)

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    @pytest.mark.parametrize("cloud", [pytest.param(c, id=name) for name, c in large_clouds()])
    def test_large_clouds_match_scalar_loop(self, cloud, direction):
        xs, ys = cloud
        assert xs.size >= 10_000
        assert _hull_indices(xs, ys, direction) == scalar_hull_indices(xs, ys, direction)

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_second_pass_reads_few_of_a4_entropy_clouds(self, direction, monkeypatch):
        reads = []
        real = oracle._chain

        def counting(xv, yv, order, sign):
            reads.append(len(order))
            return real(xv, yv, order, sign)

        monkeypatch.setattr(oracle, "_chain", counting)
        channel = INST.channel()
        f_fn, g_fn = _resolve_pair(ENTROPY, ENTROPY, INST.marginal().probs, channel)
        cloud = _BinaryCloud(f_fn, g_fn, channel.matrix, INST.q, 512)
        _hull_indices(cloud.xs, cloud.ys, direction)
        assert len(reads) == 2
        assert reads[1] < 0.05 * cloud.xs.size


each_source = pytest.mark.parametrize(
    "inst",
    [BscInstance(q=0.1, delta=0.1), BscInstance(q=0.3, delta=0.2), BscInstance(q=0.5, delta=0.05)],
    ids=["q0.1", "q0.3", "q0.5"],
)
each_kernel = pytest.mark.parametrize("kernel", [ENTROPY, KL, CHI2], ids=["entropy", "kl", "chi2"])


def cloud_for(kernel, inst, resolution=64):
    channel = inst.channel()
    f_fn, g_fn = _resolve_pair(kernel, kernel, inst.marginal().probs, channel)
    return _BinaryCloud(f_fn, g_fn, channel.matrix, inst.q, resolution), f_fn, g_fn


def cloud_targets(cloud):
    """Targets across the cloud's x range and a tenth of it past each end."""
    lo, hi = float(cloud.xs.min()), float(cloud.xs.max())
    pad = 0.1 * (hi - lo)
    return np.linspace(lo - pad, hi + pad, 13)


class TestBinaryCloudBest:
    @each_source
    @each_kernel
    def test_hull_query_equals_linprog(self, kernel, inst):
        cloud, _, _ = cloud_for(kernel, inst)
        n = cloud.xs.size
        for direction, sign in (("lower", 1.0), ("upper", -1.0)):
            for t in cloud_targets(cloud):
                # min sign * sum l_c y_c  s.t.  sum l_c = 1,  sign * sum l_c x_c >= sign * t.
                lp = linprog(
                    sign * cloud.ys,
                    A_ub=-sign * cloud.xs[None, :],
                    b_ub=[-sign * t],
                    A_eq=np.ones((1, n)),
                    b_eq=[1.0],
                    bounds=(0.0, None),
                    method="highs",
                )
                got = cloud.best(float(t), direction)
                assert (got is None) == (lp.status == 2), (direction, t)
                if got is not None:
                    assert got[0] == pytest.approx(sign * lp.fun, abs=1e-9)

    @each_source
    @each_kernel
    def test_witnesses_mix_to_q_and_reproduce_their_point(self, kernel, inst):
        cloud, f_fn, g_fn = cloud_for(kernel, inst)
        T = inst.channel().matrix
        for direction in ("lower", "upper"):
            for t in cloud_targets(cloud):
                got = cloud.best(float(t), direction)
                if got is None:
                    continue
                y, P, w, x = got
                assert len(w) <= 3 and np.all(w > 0.0)
                assert w.sum() == pytest.approx(1.0, abs=1e-12)
                assert_allclose(w @ P, [1.0 - inst.q, inst.q], atol=1e-9)
                assert w @ f_fn(P) == pytest.approx(x, abs=1e-9)
                assert w @ g_fn(P @ T.T) == pytest.approx(y, abs=1e-9)


def seeded_ternary(seed):
    rng = np.random.default_rng(seed)
    T = rng.exponential(size=(3, 3)) + 0.2
    return T / T.sum(axis=0, keepdims=True), np.array([0.5, 0.3, 0.2])


binary_sources = pytest.mark.parametrize(
    "T,q",
    [
        (INST.channel().matrix, INST.marginal().probs),
        (BscInstance(q=0.3, delta=0.2).channel().matrix, np.array([0.7, 0.3])),
        (np.array([[0.9, 0.3], [0.1, 0.7]]), np.array([0.6, 0.4])),
        (np.array([[0.8, 0.05], [0.2, 0.95]]), np.array([0.25, 0.75])),
    ],
    ids=["bsc0.1", "bsc0.2", "z0.4", "skew0.75"],
)


class TestOracleBoundary:
    @binary_sources
    @each_kernel
    def test_binary_query_is_the_exhaustive_search(self, kernel, T, q):
        # A binary oracle_boundary query reads the pair-cloud hull alone: it
        # equals the exhaustive search at the same grid, bit for bit (for a
        # non-symmetric channel, the batched search over the same targets).
        resolution = 64
        channel = Channel(T)
        f_fn, g_fn = _resolve_pair(kernel, kernel, q, channel)
        cloud = _BinaryCloud(f_fn, g_fn, T, float(q[1]), resolution)
        xs = cloud_targets(cloud)
        cfg = OracleConfig(grid_resolution=resolution)
        for direction in ("lower", "upper"):
            if T[0, 1] == T[1, 0] and T[0, 0] == T[1, 1]:
                want = oracle_exhaustive_binary(
                    kernel, kernel, float(T[1, 0]), float(q[1]), xs, direction, resolution
                )
            else:
                want = _binary_points(f_fn, g_fn, channel, q, xs, direction, resolution)
            assert any(pt.feasible for pt in want) and not all(pt.feasible for pt in want)
            for x, pt in zip(xs, want):
                got = oracle_boundary(kernel, kernel, T, q, x, direction, cfg)
                assert got.x_target == pt.x_target
                assert got.best_y == pt.best_y
                assert got.x_achieved == pt.x_achieved
                assert got.feasible == pt.feasible
                assert got.witness.to_json() == pt.witness.to_json()

    def test_determinism(self):
        # The ternary search draws its atom sets from a fixed seed.
        T, q = seeded_ternary(0)
        cfg = OracleConfig(grid_resolution=64)
        a = oracle_boundary(KL, KL, T, q, 0.15, "lower", cfg)
        b = oracle_boundary(KL, KL, T, q, 0.15, "lower", cfg)
        assert a.feasible
        assert a.best_y == b.best_y
        assert a.witness.to_json() == b.witness.to_json()

    def test_ternary_alphabet(self):
        T, q = seeded_ternary(0)
        joint = joint_from_marginal_channel(q, T)
        bound = f_information(KL, joint)
        cfg = OracleConfig(grid_resolution=48)
        pt = oracle_boundary(KL, KL, T, q, 0.5 * bound, "upper", cfg)
        assert pt.feasible
        assert witness_constraint_holds(pt)
        assert len(pt.witness.atoms) <= 3
        assert -1e-12 <= pt.best_y <= bound + 1e-9

    def test_ternary_sweep_sandwich(self):
        # Restricted search lands inside the region: the oracle maximum can
        # only undershoot the swept upper curve and its minimum can only
        # overshoot the swept lower curve.  The second marginal is on the
        # grid, where a single grid atom or a segment of two can meet it.
        import warnings

        from bottleneck_lab import BoundarySlice, bottleneck_value, funnel_value, sweep

        T, seeded_q = seeded_ternary(2)
        for q in (seeded_q, np.array([0.5, 0.25, 0.25])):
            bslice = BoundarySlice(KL, KL, T, q, resolution=32)
            upper, lower = sweep(bslice, "upper"), sweep(bslice, "lower")
            cfg = OracleConfig(grid_resolution=32)
            for frac in (0.1, 0.4, 0.7):
                x = frac * float(upper.xs[-1])
                ub = oracle_boundary(KL, KL, T, q, x, "upper", cfg)
                lb = oracle_boundary(KL, KL, T, q, x, "lower", cfg)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    assert ub.best_y <= bottleneck_value(upper, x) + 5e-3
                    assert lb.best_y >= funnel_value(lower, x) - 5e-3

    def test_rejects_large_alphabet(self):
        q = np.full(4, 0.25)
        T = np.eye(4)
        cfg = OracleConfig()
        with pytest.raises(ValueError):
            oracle_boundary(KL, KL, T, q, 0.1, "lower", cfg)

    def test_infeasible_funnel_flagged(self):
        cfg = OracleConfig(grid_resolution=64)
        pt = oracle_boundary(
            ENTROPY, ENTROPY, INST.channel(), INST.marginal(), 10.0, "lower", cfg
        )
        assert not pt.feasible



class TestOraclePointWitness:
    """An OraclePoint keeps its atoms and weights and builds its witness
    when read."""

    def test_a4_builds_no_witness(self, monkeypatch):
        # A4 reads best_y alone, so at smoke sizes no WitnessChannel is
        # made: the curves' witnesses are checked in batches, not one by one.
        built = []
        real = WitnessChannel.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(WitnessChannel, "__post_init__", counting)
        assert check_oracle_cross(resolution=64, n_x=5, sweep_resolution=1024).passed
        assert built == []
        pt = oracle_exhaustive_binary(ENTROPY, ENTROPY, 0.1, 0.1, [0.2], "lower", 64)[0]
        assert built == []
        witness = pt.witness
        assert built == [witness]

    def test_witness_is_built_once_with_the_same_bits(self):
        binary = oracle_exhaustive_binary(ENTROPY, ENTROPY, 0.1, 0.1, [0.05, 0.2], "lower", 64)
        binary += oracle_exhaustive_binary(ENTROPY, ENTROPY, 0.1, 0.1, [0.2], "upper", 64)
        T, q = seeded_ternary(0)
        ternary = oracle_boundary(KL, KL, T, q, 0.15, "lower", OracleConfig(grid_resolution=64))
        want = [
            '{"atoms":[{"alpha":0.3787649721182667,"p":[1.0,0.0]},'
            '{"alpha":0.5280291412346645,"p":[0.984375,0.015625]},'
            '{"alpha":0.09320588664706878,"p":[0.015625,0.984375]}]}',
            '{"atoms":[{"alpha":0.7035073870360875,"p":[0.953125,0.046875]},'
            '{"alpha":0.24204511494573547,"p":[0.9375,0.0625]},'
            '{"alpha":0.054447498018176985,"p":[0.046875,0.953125]}]}',
            '{"atoms":[{"alpha":0.6765520887680246,"p":[1.0,0.0]},'
            '{"alpha":0.0689582246395062,"p":[0.703125,0.296875]},'
            '{"alpha":0.2544896865924692,"p":[0.6875,0.3125]}]}',
            '{"atoms":[{"alpha":0.22567164179104465,"p":[0.09375,0.703125,0.203125]},'
            '{"alpha":0.36716417910447796,"p":[0.59375,0.125,0.28125]},'
            '{"alpha":0.40716417910447744,"p":[0.640625,0.234375,0.125]}]}',
        ]
        for pt, text in zip([*binary, ternary], want, strict=True):
            assert pt.witness is pt.witness
            assert pt.witness.to_json() == text
