"""Refusals of malformed input.  Marginals, channels, mixture weights,
beta and ranges are checked by one helper each in core, so every entry
point refuses a bad value with a ValueError that names it, and the CLI
exits 2 on it where the CLI can reach it."""

import math
import warnings

import numpy as np
import pytest

from bottleneck_lab import (
    BscInstance,
    Channel,
    DivergenceKernel,
    arimoto_conditional_entropy,
    arimoto_mr_gerber,
    arimoto_mrs_gerber,
    binary_entropy,
    binary_entropy_inv,
    bsc_source,
    conditional_f_information,
    matched_channel_invariance_check,
    mr_gerber,
    mrs_gerber,
    oracle_boundary,
    problem_curve,
    star,
)
from bottleneck_lab.cli import EXIT_BAD_INPUT, main
from bottleneck_lab.closed_forms import closed_form_table, k_norm, mr_gerber_point
from bottleneck_lab.core import f_divergence, mixture_weights, resolve_functional
from bottleneck_lab.envelope import SimplexLattice, build_lagrangian_graph, envelope_at
from bottleneck_lab.oracle import OracleConfig
from bottleneck_lab.sweep import BoundaryPoint, BoundarySlice, slice_point

ENTROPY = DivergenceKernel.entropy_functional()
KL = DivergenceKernel.kl()
INST = BscInstance(q=0.1, delta=0.1)
BSC = INST.channel()
Q3 = np.array([0.5, 0.3, 0.2])
MISMATCH = "channel input alphabet does not match the marginal"


@pytest.mark.parametrize(
    "call",
    [
        # sweep and slice_point read the source off a slice, so this is
        # where a curve or point refuses it.
        lambda: BoundarySlice(KL, KL, BSC, Q3, resolution=8),
        lambda: problem_curve(Q3, BSC, "ib", "lower", resolution=8),
        lambda: oracle_boundary(KL, KL, BSC, Q3, 0.1, "lower", OracleConfig()),
    ],
    ids=["BoundarySlice", "problem_curve", "oracle_boundary"],
)
def test_marginal_that_does_not_fit_the_channel_is_refused(call):
    with pytest.raises(ValueError, match=MISMATCH):
        call()


@pytest.fixture(scope="module")
def two_atom_point():
    bslice = BoundarySlice(ENTROPY, ENTROPY, BSC, INST.marginal(), resolution=512)
    point = slice_point(bslice, 0.3, "lower")
    assert len(point.witness.atoms) == 2
    return point


@pytest.mark.parametrize(
    "q_prime, match",
    [
        ([0.5, 0.3, 0.2], MISMATCH),
        ([1.05, -0.05], r"q_prime\[1\] = -0.05 is negative"),
        ([0.5, 0.6], r"q_prime sums to 1\.1"),
        ([math.nan, 0.5], "q_prime contains non-finite entries"),
    ],
    ids=["wrong-size", "negative", "unnormalized", "nan"],
)
def test_matched_transport_refuses_a_malformed_marginal(two_atom_point, q_prime, match):
    with pytest.raises(ValueError, match=match):
        matched_channel_invariance_check(two_atom_point, q_prime, ENTROPY, ENTROPY, BSC)


def test_matched_transport_refuses_a_witness_with_dependent_atoms():
    # Mr. Gerber's witness below alpha = 2q mixes both point masses with the
    # uniform conditional: three atoms on a line, so the weights at a new
    # marginal are not unique.
    gerber = mr_gerber_point(INST, 0.1)
    assert len(gerber.witness.atoms) == 3
    point = BoundaryPoint(lam=math.nan, x=gerber.x, y=gerber.y, witness=gerber.witness)
    with pytest.raises(ValueError, match=r"^rows of P are affinely dependent: "):
        matched_channel_invariance_check(point, [0.89, 0.11], ENTROPY, ENTROPY, BSC)


@pytest.mark.parametrize(
    "delta, q, match",
    [
        (0.1, 1.5, r"q must lie in \[0, 1\], got 1.5"),
        (0.1, math.nan, r"q must lie in \[0, 1\], got nan"),
        (1.5, 0.1, r"delta must lie in \[0, 1\], got 1.5"),
    ],
    ids=["q-above-one", "q-nan", "delta-above-one"],
)
def test_exhaustive_oracle_refuses_a_scalar_outside_the_unit_interval(delta, q, match):
    # A binary symmetric source reaches the oracle through bsc_source, which
    # is where the scalars are refused.
    with pytest.raises(ValueError, match=match):
        bsc_source(q, delta)


@pytest.mark.parametrize(
    "call",
    [
        lambda: oracle_boundary(
            ENTROPY, ENTROPY, BSC, INST.marginal(), [0.1, math.nan], "upper", OracleConfig(64)
        ),
        lambda: oracle_boundary(
            ENTROPY, ENTROPY, BSC, INST.marginal(), math.nan, "lower", OracleConfig(64)
        ),
        lambda: oracle_boundary(
            ENTROPY, ENTROPY, np.eye(3), Q3, math.nan, "upper", OracleConfig(16)
        ),
    ],
    ids=["exhaustive", "boundary-binary", "boundary-ternary"],
)
def test_oracle_refuses_a_nan_target(call):
    with pytest.raises(ValueError, match="x target is nan"):
        call()


def test_exhaustive_oracle_refuses_a_grid_of_fewer_than_two_steps():
    with pytest.raises(ValueError, match="grid_resolution must be >= 2"):
        OracleConfig(grid_resolution=0)


def test_oracle_refuses_a_negative_marginal():
    with pytest.raises(ValueError, match=r"q\[1\] = -0.1 is negative"):
        oracle_boundary(ENTROPY, ENTROPY, BSC, [1.1, -0.1], 0.1, "lower", OracleConfig(64))


def _entropy(P):
    P = np.asarray(P)
    return -np.sum(np.where(P > 0.0, P * np.log(np.where(P > 0.0, P, 1.0)), 0.0), axis=-1)


@pytest.mark.parametrize(
    "T, q, match",
    [
        (BSC, [0.5, 0.6], r"q sums to 1\.1"),
        (BSC, [math.nan, 0.5], "q contains non-finite entries"),
        (np.array([[0.9, 0.2], [0.2, 0.8]]), [0.9, 0.1], r"column\[0\] sums to 1\.1"),
        (np.full((2, 3), 0.5), [0.5, 0.5], "channel input alphabet does not match the lattice"),
        (BSC, Q3, "q does not live on this lattice's simplex"),
    ],
    ids=["q-unnormalized", "q-nan", "channel-not-stochastic", "channel-width", "q-size"],
)
def test_graph_refuses_a_malformed_source(T, q, match):
    lattice = SimplexLattice.build(2, 8)
    with pytest.raises(ValueError, match=match):
        build_lagrangian_graph(_entropy, _entropy, T, lattice, q)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: DivergenceKernel("renyi"), "unknown kernel kind 'renyi'"),
        (lambda: DivergenceKernel("kl", beta=2.0), "kernel kind 'kl' takes no beta"),
        (lambda: closed_form_table(INST, "gerber"), "unknown law 'gerber'"),
        (lambda: f_divergence(KL, [0.5, 0.5], Q3), "p and r must share an alphabet"),
        (lambda: resolve_functional(KL), "kl kernel needs a reference distribution"),
        (lambda: SimplexLattice.build(1), r"lattice needs m >= 2"),
    ],
    ids=[
        "kernel-kind", "kernel-beta", "closed_form_table-law", "f_divergence-sizes",
        "resolve_functional-reference", "lattice-m",
    ],
)
def test_a_name_or_size_out_of_its_domain_is_refused(call, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        call()


def test_envelope_refuses_a_malformed_marginal():
    lattice = SimplexLattice.build(2, 8)
    values = _entropy(lattice.points)
    with pytest.raises(ValueError, match=r"q sums to 1\.1"):
        envelope_at(lattice, values, [0.5, 0.6], 0.0, "lower")


@pytest.mark.parametrize(
    "call",
    [
        lambda: conditional_f_information(KL, [math.nan, 1.0], np.eye(2), [0.5, 0.5]),
        lambda: arimoto_conditional_entropy(2.0, [math.nan, 1.0], np.eye(2)),
    ],
    ids=["conditional_f_information", "arimoto_conditional_entropy"],
)
def test_mixture_refuses_nan_weights(call):
    with pytest.raises(ValueError, match="mixture weights contains non-finite entries"):
        call()


P3 = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["P", "marginal"])
def test_mixture_weights_refuse_a_non_finite_entry(name, bad):
    P, marginal = P3.copy(), Q3.copy()
    (P[1] if name == "P" else marginal)[2] = bad
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries"):
        mixture_weights(P, marginal)


@pytest.mark.parametrize("width", [2, 4])
def test_mixture_weights_refuse_rows_of_another_width(width):
    P = np.full((2, width), 1.0 / width)
    with pytest.raises(ValueError, match=r"rows of P must match the marginal: P has shape \(2, "):
        mixture_weights(P, Q3)


def test_push_forward_refuses_a_non_distribution():
    with pytest.raises(ValueError, match=r"p sums to 1\.1"):
        Channel(np.eye(2)).push_forward([0.5, 0.6])


@pytest.mark.parametrize(
    "call, got",
    [
        (lambda: DivergenceKernel("norm", beta=1.5), "1.5"),
        (lambda: DivergenceKernel("norm"), "None"),
        (lambda: problem_curve([0.6, 0.4], BSC, "arimoto", "lower", beta=1.5), "1.5"),
        (lambda: closed_form_table(BscInstance(0.4, 0.2), "arimoto-mgl"), "None"),
    ],
    ids=["kernel", "kernel-without-beta", "problem_curve", "closed_form_table"],
)
def test_beta_refusals_share_one_message(call, got):
    with pytest.raises(ValueError, match=rf"need a finite beta >= 2, got {got}$"):
        call()


@pytest.mark.parametrize(
    "args, got",
    [
        (["curve", "--bsc", "0.4,0.2", "--problem", "arimoto", "--beta", "1.5"], "1.5"),
        (["closed-form", "--bsc", "0.4,0.2", "--law", "arimoto-mgl", "--beta", "1.5"], "1.5"),
        (["closed-form", "--bsc", "0.4,0.2", "--law", "arimoto-mrgl"], "None"),
    ],
    ids=["curve", "closed-form", "closed-form-without-beta"],
)
def test_cli_beta_refusal_is_bad_input(tmp_path, capsys, args, got):
    out = tmp_path / "x.csv"
    assert main([*args, "--output", str(out)]) == EXIT_BAD_INPUT
    assert f"error: need a finite beta >= 2, got {got}\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: mrs_gerber(INST, math.nan), r"^x must lie in \[0, 0\.46899\d*\], got nan$"),
        (lambda: mr_gerber(INST, math.nan), r"^x must lie in \[0, 0\.46899\d*\], got nan$"),
        (
            lambda: arimoto_mrs_gerber(BscInstance(0.4, 0.2), 2.0, math.nan),
            r"^p must lie in \[0, 0\.4\], got nan$",
        ),
    ],
    ids=["mrs_gerber", "mr_gerber", "arimoto_mrs_gerber"],
)
def test_closed_forms_refuse_a_nan_argument(call, match):
    with pytest.raises(ValueError, match=match):
        call()


ARIMOTO_INST = BscInstance(0.4, 0.2)
# Each array function with one argument left open, so that a float and an
# array containing it can be passed in the same place.
ARRAY_FUNCTIONS = {
    "binary_entropy": binary_entropy,
    "binary_entropy_inv": binary_entropy_inv,
    "mrs_gerber": lambda x: mrs_gerber(INST, x),
    "mr_gerber": lambda x: mr_gerber(INST, x),
    "arimoto_mrs_gerber": lambda p: arimoto_mrs_gerber(ARIMOTO_INST, 3.0, p),
    "arimoto_mr_gerber": lambda alpha: arimoto_mr_gerber(ARIMOTO_INST, 3.0, alpha),
    "BscInstance.q": lambda q: BscInstance(q=q, delta=0.1),
    "BscInstance.delta": lambda delta: BscInstance(q=0.1, delta=delta),
}


@pytest.mark.parametrize("bad", [math.nan, 1.5, -0.25])
@pytest.mark.parametrize("name", list(ARRAY_FUNCTIONS))
def test_an_array_is_refused_like_its_bad_entry(name, bad):
    fn = ARRAY_FUNCTIONS[name]
    with pytest.raises(ValueError) as alone:
        fn(bad)
    with pytest.raises(ValueError) as within:
        fn(np.array([[0.05, 0.1], [bad, 0.2]]))
    assert str(within.value) == str(alone.value)


@pytest.mark.parametrize(
    "call, refused",
    [
        (lambda: mrs_gerber(INST, 1.5), "x must lie in [0, 0.4689955935892812], got 1.5"),
        (lambda: mr_gerber(INST, -0.25), "x must lie in [0, 0.4689955935892812], got -0.25"),
        # A batch names its bad entry's own top, h(0.4).
        (
            lambda: mrs_gerber(BscInstance(np.array([0.1, 0.4]), 0.1), np.array([0.2, 1.0])),
            "x must lie in [0, 0.9709505944546686], got 1.0",
        ),
        (lambda: arimoto_mrs_gerber(ARIMOTO_INST, 3.0, 0.5), "p must lie in [0, 0.4], got 0.5"),
        (lambda: k_norm(1.5, 2.0), "p must lie in [0, 1], got 1.5"),
        (lambda: arimoto_mr_gerber(ARIMOTO_INST, 3.0, 1.5), "alpha must lie in [0, 1], got 1.5"),
        (lambda: mr_gerber_point(INST, math.nan), "alpha must lie in [0, 1], got nan"),
        (lambda: BscInstance(q=0.75, delta=0.1), "q must lie in [0, 0.5], got 0.75"),
        (lambda: BscInstance(q=0.1, delta=-0.1), "delta must lie in [0, 0.5], got -0.1"),
        (lambda: bsc_source(1.5, 0.1), "q must lie in [0, 1], got 1.5"),
        (lambda: star(0.1, 2.0), "b must lie in [0, 1], got 2.0"),
    ],
    ids=[
        "mrs_gerber", "mr_gerber", "mrs_gerber-batch", "arimoto_mrs_gerber", "k_norm",
        "arimoto_mr_gerber", "mr_gerber_point", "BscInstance.q", "BscInstance.delta",
        "bsc_source", "star",
    ],
)
def test_range_refusals_share_one_message(call, refused):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == refused


def test_array_functions_warn_nothing():
    # The ends of every domain: x = 0 and x = h(q), q = 1/2, delta = 0 and
    # 1/2, and y = 0 and 1, where a log or a division meets a zero.
    insts = [BscInstance(q, delta) for q in (0.0, 0.1, 0.5) for delta in (0.0, 0.1, 0.5)]
    q = np.array([inst.q for inst in insts])[:, None]
    delta = np.array([inst.delta for inst in insts])[:, None]
    batch = BscInstance(q=q, delta=delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = np.linspace(0.0, binary_entropy(q[:, 0]), 9, axis=-1)
        ys = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-52, 1.0])
        assert np.isfinite(binary_entropy(np.array([0.0, 5e-324, 0.5, 1.0]))).all()
        assert np.isfinite(binary_entropy_inv(ys)).all()
        assert np.isfinite(mrs_gerber(batch, xs)).all()
        assert np.isfinite(mr_gerber(batch, xs)).all()
        for inst in insts:
            p = np.linspace(0.0, inst.q, 9)
            alpha = np.linspace(0.0, 1.0, 9)
            assert np.isfinite(arimoto_mrs_gerber(inst, 2.0, p)).all()
            assert np.isfinite(arimoto_mr_gerber(inst, 3.0, alpha)).all()
