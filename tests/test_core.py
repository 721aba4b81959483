import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bottleneck_lab import (
    Channel,
    Distribution,
    DivergenceKernel,
    JointDistribution,
    arimoto_conditional_entropy,
    beta_norm,
    binary_entropy,
    binary_entropy_inv,
    bsc_joint,
    conditional_f_information,
    decompose_joint,
    entropy,
    f_divergence,
    f_information,
    joint_from_marginal_channel,
    load_joint,
    resolve_functional,
    star,
)
from bottleneck_lab import core
from bottleneck_lab.core import LN2, mixture_weights

# Frozen from a 60-digit Decimal.ln() evaluation.
ENTROPY_01_09_NATS = 0.32508297339144824
HB_01_BITS = 0.46899559358928122

ALL_DIVERGENCES = [
    DivergenceKernel.kl(),
    DivergenceKernel.chi_squared(),
    DivergenceKernel.total_variation(),
]
ALL_KERNELS = ALL_DIVERGENCES + [
    DivergenceKernel.entropy_functional(),
    DivergenceKernel.norm_beta(2.0),
    DivergenceKernel.norm_beta(3.0),
]


class TestDistribution:
    def test_normalizes_small_noise(self):
        d = Distribution([0.5, 0.5 + 5e-10])
        assert abs(d.probs.sum() - 1.0) < 1e-15

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution([1.1, -0.1])

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            Distribution([1.0])

    def test_immutable(self):
        d = Distribution([0.3, 0.7])
        with pytest.raises(ValueError):
            d.probs[0] = 0.5


class TestChannel:
    def test_columns_are_distributions(self):
        with pytest.raises(ValueError):
            Channel([[0.5, 0.2], [0.4, 0.8]])

    def test_push_forward(self):
        ch = Channel([[0.9, 0.1], [0.1, 0.9]])
        assert_allclose(ch.push_forward([0.5, 0.5]), [0.5, 0.5])


class TestEntropy:
    def test_uniform_binary(self):
        assert math.isclose(entropy([0.5, 0.5]), math.log(2.0), rel_tol=1e-15)

    def test_point_mass(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_matches_high_precision_oracle(self):
        assert math.isclose(entropy([0.1, 0.9]), ENTROPY_01_09_NATS, abs_tol=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(m))
            h = entropy(p)
            assert -1e-12 <= h <= math.log(m) + 1e-12


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetry(self):
        assert math.isclose(binary_entropy(0.11), binary_entropy(0.89), rel_tol=1e-15)

    def test_frozen_value(self):
        assert math.isclose(binary_entropy(0.1), HB_01_BITS, abs_tol=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)


class TestBinaryEntropyInv:
    def test_endpoints(self):
        assert binary_entropy_inv(0.0) == 0.0
        assert binary_entropy_inv(1.0) == 0.5

    def test_against_bisection_oracle(self):
        # Independent bisection at 1e-14 interval width.
        def oracle(y):
            lo, hi = 0.0, 0.5
            while hi - lo > 1e-14:
                mid = 0.5 * (lo + hi)
                if binary_entropy(mid) < y:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for y in (0.5, 0.1, 0.9, 0.337):
            assert math.isclose(binary_entropy_inv(y), oracle(y), abs_tol=1e-13)

    def test_residual_bound(self):
        for y in np.linspace(0.0, 1.0, 101):
            r = binary_entropy_inv(float(y))
            assert 0.0 <= r <= 0.5
            assert abs(binary_entropy(r) - y) <= 1e-12

    def test_two_sided_inverse(self):
        for r in np.linspace(0.0, 0.5, 60):
            assert abs(binary_entropy_inv(binary_entropy(float(r))) - r) <= 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy_inv(-0.2)


class TestStar:
    def test_identity_at_zero(self):
        assert star(0.37, 0.0) == 0.37

    def test_absorbing_half(self):
        for a in (0.0, 0.2, 0.9, 1.0):
            assert math.isclose(star(a, 0.5), 0.5, rel_tol=1e-15)

    def test_direct_arithmetic(self):
        assert math.isclose(star(0.1, 0.1), 0.18, rel_tol=1e-15)

    def test_symmetric_and_associative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b, c = rng.uniform(0.0, 1.0, 3)
            assert math.isclose(star(a, b), star(b, a), abs_tol=1e-15)
            assert math.isclose(
                star(a, star(b, c)), star(star(a, b), c), abs_tol=1e-12
            )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            star(1.5, 0.2)


class TestFDivergence:
    @pytest.mark.parametrize("kernel", ALL_DIVERGENCES, ids=lambda k: k.kind)
    def test_zero_at_equality(self, kernel):
        p = Distribution([0.2, 0.3, 0.5])
        assert f_divergence(kernel, p, p) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kernel", ALL_DIVERGENCES, ids=lambda k: k.kind)
    def test_nonnegative_on_random_pairs(self, kernel):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(m))
            r = rng.dirichlet(np.ones(m)) + 0.01
            r = r / r.sum()
            assert f_divergence(kernel, p, r) >= -1e-14

    def test_chi2_binary_closed_form(self):
        # Expanding sum (p_i - r_i)^2 / r_i for a binary pair gives
        # (p - q)^2 / (q (1 - q)); cross-check numerically on a grid.
        kernel = DivergenceKernel.chi_squared()
        q = 0.3
        for p in np.linspace(0.0, 1.0, 21):
            expected = (p - q) ** 2 / (q * (1.0 - q))
            got = f_divergence(kernel, [1.0 - p, p], [1.0 - q, q])
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-14)

    def test_tv_half_l1(self):
        got = f_divergence(DivergenceKernel.total_variation(), [1.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    @pytest.mark.parametrize("p1", [1.0, 0.5])
    def test_kl_from_a_subnormal_reference_entry_is_finite(self, tiny, p1):
        # p / r overflows there, but the term p (log p - log r) does not,
        # and nothing warns.
        r = [1.0 - tiny, tiny]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f_divergence(DivergenceKernel.kl(), [1.0 - p1, p1], r)
        want = p1 * (math.log(p1) - math.log(tiny))
        if p1 < 1.0:
            want += (1.0 - p1) * math.log((1.0 - p1) / r[0])
        assert math.isclose(got, want, rel_tol=1e-15)

    def test_absolute_continuity_error_names_index(self):
        with pytest.raises(ValueError, match=r"\[1\]"):
            f_divergence(DivergenceKernel.kl(), [0.5, 0.5], [1.0, 0.0])

    def test_functional_kinds_are_not_divergences(self):
        with pytest.raises(ValueError):
            f_divergence(DivergenceKernel.entropy_functional(), [0.5, 0.5], [0.5, 0.5])


class TestKernelTable:
    @pytest.mark.parametrize(
        "kernel", ALL_KERNELS, ids=lambda k: k.kind + ("" if k.beta is None else f"{k.beta:g}")
    )
    def test_batched_rows_match_single_vector_functions(self, kernel):
        # Dyadic rows sum to exactly 1, so the single-vector functions do not
        # renormalize them; sparse Dirichlet draws put zeros in many rows.
        rng = np.random.default_rng(6)
        rows = np.array(
            [rng.multinomial(32, rng.dirichlet(np.full(4, 0.4))) for _ in range(60)]
        ) / 32.0
        assert (rows == 0.0).sum() >= 40
        ref = (1 + rng.multinomial(60, np.full(4, 0.25))) / 64.0
        batched = resolve_functional(kernel, ref if kernel.is_divergence else None)(rows)
        for row, got in zip(rows, batched):
            if kernel.kind == "entropy":
                want = entropy(row)
            elif kernel.kind == "norm":
                want = beta_norm(kernel.beta, row)
            else:
                want = f_divergence(kernel, row, ref)
            assert abs(got - want) <= 1e-15

    def test_reference_needs_full_support(self):
        with pytest.raises(ValueError, match="full support"):
            resolve_functional(DivergenceKernel.kl(), [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("kernel", ALL_DIVERGENCES, ids=lambda k: k.kind)
    @pytest.mark.parametrize(
        "reference, match",
        [
            ([math.nan, 0.5], "non-finite"),
            ([math.inf, 0.5], "non-finite"),
            ([[0.5, 0.5]], "1-D"),
            (0.5, "1-D"),
            ([0.5, 0.7, 0.2], "sums to"),
            ([0.3, 0.3], "sums to"),
        ],
    )
    def test_reference_must_be_a_distribution(self, kernel, reference, match):
        with pytest.raises(ValueError, match=match):
            resolve_functional(kernel, reference)

    @pytest.mark.parametrize("kernel", ALL_DIVERGENCES, ids=lambda k: k.kind)
    @pytest.mark.parametrize("rows", [[[1.0]], [[0.5, 0.5]], [[0.2, 0.3, 0.4, 0.1]]])
    def test_rows_must_match_the_reference_size(self, kernel, rows):
        fn = resolve_functional(kernel, [0.5, 0.3, 0.2])
        with pytest.raises(ValueError, match="reference has 3"):
            fn(np.array(rows))

    def test_reference_within_tolerance_is_not_rescaled(self):
        # chi2 of (1, 0) from r is (1 - r_0)^2 / r_0 + r_1: 1 + 5e-10 for the
        # raw r, 1 + 1e-9 had r been divided by its sum.
        chi2 = resolve_functional(DivergenceKernel.chi_squared(), [0.5, 0.5 + 5e-10])
        assert chi2(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0 + 5e-10, abs=1e-13)


class TestFInformation:
    @pytest.mark.parametrize("kernel", ALL_DIVERGENCES, ids=lambda k: k.kind)
    def test_product_joint_is_zero(self, kernel):
        joint = JointDistribution(np.outer([0.3, 0.7], [0.2, 0.4, 0.4]))
        assert f_information(kernel, joint) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_chi2_identity_coupling(self, m):
        rng = np.random.default_rng(m)
        q = rng.dirichlet(np.ones(m)) + 0.05
        q = q / q.sum()
        joint = JointDistribution(np.diag(q))
        got = f_information(DivergenceKernel.chi_squared(), joint)
        assert math.isclose(got, m - 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("kernel", ALL_DIVERGENCES, ids=lambda k: k.kind)
    def test_zero_x_row_is_dropped(self, kernel):
        # The product of the marginals vanishes on the zero row: 0 * f(0/0).
        p = np.array([[0.3, 0.1, 0.05], [0.0, 0.0, 0.0], [0.1, 0.15, 0.3]])
        got = f_information(kernel, JointDistribution(p))
        want = f_information(kernel, JointDistribution(p[[0, 2]]))
        assert math.isfinite(got) and want > 0.0
        assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-15)

    def test_kl_bsc_matches_direct_sum_and_entropy_identity(self):
        q, delta = 0.1, 0.1
        joint = bsc_joint(q, delta)
        # Independent direct evaluation of sum p log(p / (px py)).
        p = joint.p_xy
        px = p.sum(axis=1)
        py = p.sum(axis=0)
        direct = sum(
            p[i, j] * math.log(p[i, j] / (px[i] * py[j]))
            for i in range(2)
            for j in range(2)
            if p[i, j] > 0
        )
        got = f_information(DivergenceKernel.kl(), joint)
        assert math.isclose(got, direct, rel_tol=1e-13)
        expected_bits = binary_entropy(star(delta, q)) - binary_entropy(delta)
        assert math.isclose(got / LN2, expected_bits, rel_tol=1e-12)


class TestConditionalFInformation:
    def test_single_atom_is_zero(self):
        q = Distribution([0.4, 0.6])
        got = conditional_f_information(DivergenceKernel.kl(), [1.0], [q], q)
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_deterministic_atoms_reveal_source(self):
        q = np.array([0.7, 0.3])
        got = conditional_f_information(
            DivergenceKernel.kl(), q, [[1.0, 0.0], [0.0, 1.0]], q
        )
        assert math.isclose(got, entropy(q), rel_tol=1e-13)

    def test_chi2_vertex_atoms_uniform(self):
        got = conditional_f_information(
            DivergenceKernel.chi_squared(),
            [0.5, 0.5],
            [[1.0, 0.0], [0.0, 1.0]],
            [0.5, 0.5],
        )
        assert math.isclose(got, 1.0, rel_tol=1e-13)

    def test_mixture_consistency_enforced(self):
        with pytest.raises(ValueError, match="marginal"):
            conditional_f_information(
                DivergenceKernel.kl(), [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [0.7, 0.3]
            )

    @pytest.mark.parametrize("kernel", ALL_DIVERGENCES, ids=lambda k: k.kind)
    def test_marginal_with_zero_coordinate(self, kernel):
        q = [0.6, 0.4, 0.0]
        conditionals = [[1.0, 0.0, 0.0], [0.2, 0.8, 0.0]]
        got = conditional_f_information(kernel, [0.5, 0.5], conditionals, q)
        joint = JointDistribution(0.5 * np.array(conditionals))
        assert math.isfinite(got)
        assert math.isclose(got, f_information(kernel, joint), rel_tol=1e-12)

    def test_atom_off_the_marginal_support_names_index(self):
        # The mixture misses q[2] = 0 by 5e-11, inside the mixture tolerance,
        # but the second atom still puts mass there.
        with pytest.raises(ValueError, match=r"absolute continuity.*r\[2\] = 0"):
            conditional_f_information(
                DivergenceKernel.kl(),
                [0.5, 0.5],
                [[0.5, 0.5, 0.0], [0.5, 0.5 - 1e-10, 1e-10]],
                [0.5, 0.5, 0.0],
            )

    @pytest.mark.parametrize("kernel", ALL_DIVERGENCES, ids=lambda k: k.kind)
    def test_equals_f_information_of_assembled_joint(self, kernel):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(k))
            conditionals = rng.dirichlet(np.ones(m), size=k) + 1e-3
            conditionals = conditionals / conditionals.sum(axis=1, keepdims=True)
            marginal = weights @ conditionals
            expected = f_information(
                kernel, JointDistribution(weights[:, None] * conditionals)
            )
            got = conditional_f_information(kernel, weights, conditionals, marginal)
            assert math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-10)


def _independent_rows(m: int):
    """Seeded sets of 1..m affinely independent rows on the m-letter
    simplex: random rows, and rows on a grid of eighths (a grid set that
    comes out dependent is drawn again)."""
    rng = np.random.default_rng([7, m])
    for k in range(1, m + 1):
        for _ in range(4):
            yield rng.dirichlet(np.ones(m), size=k)
            while True:
                grid_rows = rng.multinomial(8, np.full(m, 1.0 / m), size=k) / 8.0
                if np.linalg.matrix_rank(np.vstack([grid_rows.T, np.ones(k)])) == k:
                    yield grid_rows
                    break


class TestMixtureWeights:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_weights_in_the_hull_are_those_of_scipy_nnls(self, m):
        from scipy.optimize import nnls

        rng = np.random.default_rng([8, m])
        for P in _independent_rows(m):
            i, j = rng.integers(len(P), size=2)
            t = rng.random()
            A = np.vstack([P.T, np.ones(len(P))])
            for marginal in (
                rng.dirichlet(np.ones(len(P))) @ P,
                t * P[i] + (1.0 - t) * P[j],
                P[i].copy(),
            ):
                weights, residual = mixture_weights(P, marginal)
                want, _ = nnls(A, np.append(marginal, 1.0))
                assert weights.shape == (len(P),) and isinstance(residual, float)
                assert np.abs(weights - want).max() <= 1e-12, (P, marginal)
                # A weight of 0 comes out within about eps * cond(A) of it,
                # and a miss below 0 that is clipped stays in the residual.
                assert residual <= 1e-14 + 1e-16 * np.linalg.cond(A), (P, marginal)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_a_marginal_outside_the_hull_leaves_its_clipped_weight(self, m):
        # Marginals in the rows' affine hull with a negative weight, and a
        # vertex of the simplex that no row is.
        rng = np.random.default_rng([9, m])
        for P in _independent_rows(m):
            marginals = []
            if P.max(axis=0).min() < 1.0:
                marginals.append(np.eye(m)[np.argmin(P.max(axis=0))])
            if len(P) > 1:
                c = np.append(-0.25, 1.25 * rng.dirichlet(np.ones(len(P) - 1)))
                marginals.append(c @ P)
            for marginal in marginals:
                weights, residual = mixture_weights(P, marginal)
                A = np.vstack([P.T, np.ones(len(P))])
                unclipped = np.linalg.lstsq(A, np.append(marginal, 1.0), rcond=None)[0]
                assert np.all(weights >= 0.0)
                assert residual > core._MIX_TOL, (P, marginal)
                assert residual >= -unclipped.min(), (P, marginal)

    @pytest.mark.parametrize(
        "P",
        [
            [[0.6, 0.3, 0.1], [0.6, 0.3, 0.1]],
            [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.0, 0.75, 0.25]],
            [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5], [0.4, 0.3, 0.3]],
        ],
        ids=["duplicated", "collinear", "m-plus-one"],
    )
    def test_dependent_rows_are_refused(self, P):
        with pytest.raises(ValueError, match=r"^rows of P are affinely dependent: \[\["):
            mixture_weights(np.array(P), np.array([0.4, 0.35, 0.25]))


class TestArimoto:
    def test_norm_uniform_binary(self):
        assert math.isclose(beta_norm(2.0, [0.5, 0.5]), 1.0 / math.sqrt(2.0), rel_tol=1e-15)

    def test_norm_point_mass(self):
        for beta in (2.0, 3.5, 10.0):
            assert beta_norm(beta, [1.0, 0.0]) == 1.0

    def test_norm_frozen_cube_root(self):
        # (0.008 + 0.512)^(1/3), frozen from a 60-digit Decimal evaluation.
        assert math.isclose(beta_norm(3.0, [0.2, 0.8]), 0.8041451517178116, abs_tol=1e-15)

    def test_norm_rejects_small_beta(self):
        with pytest.raises(ValueError):
            beta_norm(1.5, [0.5, 0.5])

    def test_norm_decreases_toward_uniform(self):
        rng = np.random.default_rng(4)
        for beta in (2.0, 3.0, 6.0):
            m = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(m))
            u = np.ones(m) / m
            values = [
                beta_norm(beta, (1.0 - t) * p + t * u) for t in np.linspace(0.0, 1.0, 11)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_conditional_entropy_single_atom_is_renyi(self):
        q = np.array([0.3, 0.7])
        got = arimoto_conditional_entropy(2.0, [1.0], [q])
        expected = 2.0 / (1.0 - 2.0) * math.log(beta_norm(2.0, q))
        assert math.isclose(got, expected, rel_tol=1e-14)

    def test_conditional_entropy_deterministic_atoms(self):
        got = arimoto_conditional_entropy(3.0, [0.4, 0.6], [[1.0, 0.0], [0.0, 1.0]])
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_conditional_entropy_frozen_mixture(self):
        got = arimoto_conditional_entropy(2.0, [0.5, 0.5], [[0.3, 0.7], [0.5, 0.5]])
        assert math.isclose(got, 0.6175607126859548, abs_tol=1e-14)


class TestDecomposeJoint:
    def test_bsc_round_trip(self):
        joint = bsc_joint(0.1, 0.1)
        q, T = decompose_joint(joint)
        assert_allclose(q.probs, [0.9, 0.1], atol=1e-15)
        assert_allclose(T.matrix, [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)
        rebuilt = joint_from_marginal_channel(q, T)
        assert_allclose(rebuilt.p_xy, joint.p_xy, atol=1e-12)

    def test_product_joint_has_identical_columns(self):
        joint = JointDistribution(np.outer([0.3, 0.7], [0.25, 0.75]))
        _, T = decompose_joint(joint)
        assert_allclose(T.matrix[:, 0], T.matrix[:, 1], atol=1e-15)

    def test_zero_row_shrinks_alphabet(self):
        p = np.array([[0.2, 0.2], [0.0, 0.0], [0.3, 0.3]])
        joint = JointDistribution(p)
        q, T = decompose_joint(joint)
        assert q.m == 2
        rebuilt = joint_from_marginal_channel(q, T)
        assert_allclose(rebuilt.p_xy, p[[0, 2]], atol=1e-12)

    def test_marginal_is_normalized_once(self):
        # Distribution normalizes the X-marginal; dividing it by its sum
        # first moves the last bits of 5 of these 50 marginals.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 6))
            joint = JointDistribution(rng.dirichlet(np.ones(3 * m)).reshape(m, 3))
            q, _ = decompose_joint(joint)
            assert q.probs.tolist() == Distribution(joint.marginal_x()).probs.tolist()

    def test_zero_column_shrinks_output_alphabet(self):
        p = np.array([[0.2, 0.0, 0.1, 0.05], [0.1, 0.0, 0.2, 0.05], [0.05, 0.0, 0.1, 0.15]])
        q, T = decompose_joint(JointDistribution(p))
        want_q, want_T = decompose_joint(JointDistribution(p[:, [0, 2, 3]].copy()))
        assert T.matrix.tolist() == want_T.matrix.tolist()
        assert q.probs.tolist() == want_q.probs.tolist()

    @pytest.mark.parametrize("form", ["p_xy", "q-T"])
    def test_zero_column_moves_no_bit(self, form):
        # n = 8 to 10: numpy sums 8 or more entries pairwise, grouped by
        # position, so an all-zero Y symbol would move last bits if its
        # zeros entered a sum.  Dropping it gives the q and T of the source
        # without it, in value and in layout.
        rng = np.random.default_rng(17)
        for _ in range(200):
            m, n = int(rng.integers(3, 6)), int(rng.integers(8, 11))
            col = int(rng.integers(0, n + 1))
            if form == "p_xy":
                p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
                p[rng.random(m) < 0.2] = 0.0
                p /= p.sum()
                without = {"p_xy": p.tolist()}
                with_zero = {"p_xy": np.insert(p, col, 0.0, axis=1).tolist()}
            else:
                q, T = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n), size=m).T
                without = {"q": q.tolist(), "T": T.tolist()}
                with_zero = {"q": q.tolist(), "T": np.insert(T, col, 0.0, axis=0).tolist()}
            try:
                q0, T0 = core.load_source(without)
            except ValueError:  # fewer than 2 X symbols with mass
                continue
            q1, T1 = core.load_source(with_zero)
            assert q1.probs.tobytes() == q0.probs.tobytes()
            assert T1.matrix.strides == T0.matrix.strides
            assert T1.matrix.tobytes("A") == T0.matrix.tobytes("A")

    def test_zero_mass_x_symbol_moves_no_bit(self):
        # m = 8 to 10 with one zero-mass X symbol: q is normalized over the
        # symbols it keeps, and T keeps its layout when that symbol's column
        # goes, so the pair gives the q and T of the pair without it.
        rng = np.random.default_rng(23)
        for _ in range(300):
            m, n = int(rng.integers(8, 11)), int(rng.integers(2, 6))
            col = int(rng.integers(0, m))
            q, T = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n), size=m).T
            q[col] = 0.0
            q /= q.sum()
            q1, T1 = core.load_source({"q": q.tolist(), "T": T.tolist()})
            q0, T0 = core.load_source(
                {"q": np.delete(q, col).tolist(), "T": np.delete(T, col, axis=1).tolist()}
            )
            assert q1.probs.tobytes() == q0.probs.tobytes()
            assert T1.matrix.strides == T0.matrix.strides
            assert T1.matrix.tobytes("A") == T0.matrix.tobytes("A")

    def test_zero_mass_symbol_of_a_distribution_keeps_its_bits(self):
        # A Distribution comes normalized, so restrict_source keeps its other
        # entries as they are.  The same values as an array are normalized
        # over the symbols kept, which moves their last bits here.
        q = Distribution([0.032544378698224845, 0.0, 0.7366863905325444, 0.23076923076923075])
        T = [[0.9, 0.5, 0.2, 0.4], [0.1, 0.5, 0.8, 0.6]]
        kept, channel = core.restrict_source(q, T)
        assert kept.probs.tobytes() == q.probs[[0, 2, 3]].tobytes()
        assert channel.matrix.tolist() == [[0.9, 0.2, 0.4], [0.1, 0.8, 0.6]]
        as_array, _ = core.restrict_source(q.probs, T)
        assert as_array.probs.tobytes() != kept.probs.tobytes()

    @pytest.mark.parametrize("p", [[[0.3, 0.0], [0.7, 0.0]], [[0.0, 0.4, 0.0], [0.0, 0.6, 0.0]]])
    def test_constant_y_rejected(self, p):
        with pytest.raises(ValueError, match="^Y is constant"):
            decompose_joint(JointDistribution(p))

    def test_single_support_rejected(self):
        with pytest.raises(ValueError):
            decompose_joint(JointDistribution([[0.5, 0.5], [0.0, 0.0]]))

    def test_restricts_through_restrict_source(self):
        # Seeded joints with zero-mass X rows and all-zero Y columns, in C
        # and F order: the joint door is the pair door on the conditionals,
        # bit for bit in q, in T and in T's memory layout.
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(400):
            m, n = (int(v) for v in rng.integers(2, 11, size=2))
            p = rng.random((m, n)) ** 3
            p[rng.random(m) < 0.3] = 0.0
            p[:, rng.random(n) < 0.3] = 0.0
            if rng.random() < 0.5:
                p = np.asfortranarray(p)
            if (p.sum(axis=1) > 0).sum() < 2 or (p.sum(axis=0) > 0).sum() < 2:
                continue
            joint = JointDistribution(p / p.sum())
            px = joint.marginal_x()
            keep = px > 0.0
            q, T = decompose_joint(joint)
            want_q, want_T = core.restrict_source(
                px[keep], (joint.p_xy[keep] / px[keep][:, None]).T
            )
            assert q.probs.tobytes() == want_q.probs.tobytes()
            assert T.matrix.shape == want_T.matrix.shape
            assert T.matrix.strides == want_T.matrix.strides
            assert T.matrix.tobytes("A") == want_T.matrix.tobytes("A")
            checked += 1
        assert checked > 300


@pytest.mark.parametrize(
    "joint, pair, match",
    [
        (
            [[0.5, 0.5], [0.0, 0.0]],
            ([1.0, 0.0], [[0.5, 0.2], [0.5, 0.8]]),
            "^support of X must contain at least 2 symbols$",
        ),
        (
            [[0.3, 0.0], [0.7, 0.0]],
            ([0.3, 0.7], [[1.0, 1.0], [0.0, 0.0]]),
            "^Y is constant: support of Y must contain at least 2 symbols$",
        ),
    ],
    ids=["one-symbol-x", "constant-y"],
)
def test_both_doors_refuse_a_degenerate_source_alike(joint, pair, match):
    with pytest.raises(ValueError, match=match):
        decompose_joint(JointDistribution(joint))
    with pytest.raises(ValueError, match=match):
        core.restrict_source(*pair)


class TestLoadJoint:
    def test_p_xy_form(self, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text('{"p_xy": [[0.81, 0.09], [0.01, 0.09]]}')
        joint = load_joint(path)
        assert joint.m == 2 and joint.n == 2

    def test_marginal_channel_form(self, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text('{"q": [0.9, 0.1], "T": [[0.9, 0.1], [0.1, 0.9]]}')
        joint = load_joint(path)
        assert_allclose(joint.p_xy, bsc_joint(0.1, 0.1).p_xy, atol=1e-15)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            load_joint({"pmf": [[0.5, 0.5]]})
