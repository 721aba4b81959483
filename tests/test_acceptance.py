"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with -s to see the lines."""

import dataclasses
import functools
import importlib
import math
import re
import time
import warnings

import numpy as np
import pytest

from bottleneck_lab import acceptance, envelope
from bottleneck_lab.acceptance import (
    _worst_gap,
    check_arimoto,
    check_chi2_endpoints,
    check_matched,
    check_mgl,
    check_mr_gerber,
    check_oracle_cross,
    check_properties,
    run_property_suite,
)
from bottleneck_lab.core import (
    LN2,
    Distribution,
    DivergenceKernel,
    WitnessChannel,
    _trusted,
    bsc_source,
)
from bottleneck_lab.sweep import BoundarySlice, bottleneck_value, funnel_value, sweep


def report(result, elapsed=None, budget=None):
    suffix = f" [{elapsed:.1f}s of {budget:.0f}s budget]" if budget else ""
    print(result.line() + suffix)
    assert result.passed, result.line()
    if budget is not None:
        assert elapsed < budget


def test_a1_lower_boundary_exactness():
    t0 = time.perf_counter()
    result = check_mgl()
    report(result, time.perf_counter() - t0, budget=10.0)


def test_a2_upper_boundary_exactness():
    report(check_mr_gerber())


def test_a3_arimoto_k_frame():
    result = check_arimoto()
    report(result)
    for beta in (2.0, 3.0, 4.0):
        assert f"beta={beta}: " in result.detail


def test_a4_oracle_cross_validation():
    t0 = time.perf_counter()
    result = check_oracle_cross()
    report(result, time.perf_counter() - t0, budget=60.0)


def test_a5_matched_channel_invariance():
    report(check_matched())


def test_a6_chi2_endpoints_and_bounds():
    report(check_chi2_endpoints())


def test_a7_property_suites():
    report(check_properties())


@pytest.mark.parametrize(
    "kernel, source, resolution",
    [
        (DivergenceKernel.entropy_functional(), bsc_source(0.1, 0.1), 256),
        (DivergenceKernel.chi_squared(), bsc_source(0.1, 0.1), 256),
        (DivergenceKernel.norm_beta(3.0), bsc_source(0.4, 0.2), 256),
        (DivergenceKernel.kl(), ([0.5, 0.3, 0.2], [[0.8, 0.1, 0.3], [0.2, 0.9, 0.7]]), 12),
    ],
    ids=["entropy", "chi2", "norm", "ternary-kl"],
)
def test_worst_gap_equals_the_value_queries_probe_by_probe(kernel, source, resolution):
    # The gates read a curve with np.interp over all probes at once; each
    # probe's gap is the one the public value query gives, bit for bit,
    # also past both ends, where the query clamps with a warning.
    q, T = source
    bslice = BoundarySlice(kernel, kernel, T, q, resolution=resolution)
    rng = np.random.default_rng(0)
    for direction, value in (("lower", funnel_value), ("upper", bottleneck_value)):
        curve = sweep(bslice, direction)
        lo, hi = curve.xs[0], curve.xs[-1]
        for unit in (1.0, LN2):
            xs = np.concatenate(
                [[lo - 1.0, lo - 1e-9, hi + 1e-9, hi + 1.0], np.linspace(lo, hi, 41), curve.xs]
            ) / unit
            ys = rng.uniform(0.0, 2.0, xs.size) * curve.ys.max() / unit
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = [abs(value(curve, x * unit) / unit - y) for x, y in zip(xs, ys)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = [_worst_gap(curve, x, y, unit) for x, y in zip(xs[:, None], ys[:, None])]
                assert _worst_gap(curve, xs, ys, unit) == max(want)
            assert got == want


def test_a4_reads_both_chains_off_one_slice_per_kernel(hull_calls):
    result = check_oracle_cross(resolution=64, n_x=5, sweep_resolution=1024)
    assert result.passed, result.line()
    assert len(hull_calls) == 2  # one entropy slice, one chi2 slice


def test_a5_cuts_its_perturbed_slices_from_one_hull(hull_calls, slice_builds):
    # The entropy kernel is marginal-free, so both perturbed slices are
    # re-cut from the base slice's lifted hull.
    result = check_matched(n_points=3, resolution=1024)
    assert result.passed, result.line()
    assert len(hull_calls) == 1
    assert len(slice_builds) == 3  # the base slice and two re-cuts


def test_reduced_size_lines_name_their_curve_lattice():
    # A smaller curve lattice than the gate's shows in the line.
    a4 = check_oracle_cross(resolution=64, n_x=5, sweep_resolution=1024).line()
    assert "5 x-points, N=1024, oracle grid 64; " in a4
    a5 = check_matched(n_points=3, resolution=1024).line()
    assert "3 points, N=1024, perturbation +/-0.01, " in a5
    assert "N=4096" not in a4 + a5


def test_a7_reference_envelope_catches_a_lossy_slice(monkeypatch):
    # Dropping polygon vertices that turn by less than 3e-2 moves the
    # support value of two of the first 70 draws off the envelope at q.
    monkeypatch.setattr(envelope, "_TURN_TOL", 3e-2)
    violations = run_property_suite(70)
    assert [v.split(":")[0] for v in violations] == ["seed 31", "seed 69"]
    assert all("supporting line off the envelope" in v for v in violations)


def test_a7_builds_one_graph_per_seed(monkeypatch):
    # The reference envelope reads the graph the slice was cut from, and
    # only the BoundarySlice constructor builds one.
    built = []
    module = importlib.import_module("bottleneck_lab.sweep")
    real = module.build_lagrangian_graph

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(module, "build_lagrangian_graph", counting)
    assert run_property_suite(10) == []
    assert len(built) == 10


def test_a7_resolves_each_seed_once(monkeypatch):
    # A7 re-evaluates a witness through the functionals its slice's graph
    # kept, so the slice's own resolution is the seed's only one.  Every
    # module binding of the resolver is counted.
    resolved = []
    for name in ("core", "envelope", "sweep", "oracle", "closed_forms", "acceptance", "cli"):
        module = importlib.import_module(f"bottleneck_lab.{name}")
        if "_resolve_pair" not in vars(module):
            continue

        def counting(*args, real=vars(module)["_resolve_pair"]):
            resolved.append(args)
            return real(*args)

        monkeypatch.setattr(module, "_resolve_pair", counting)
    assert run_property_suite(10) == []
    assert len(resolved) == 10


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


def _split_atoms(slice_point):
    """slice_point with each witness atom split into five equal ones: the
    same mixture, with more atoms than A7's m + 1 <= 4 allows (so the
    witness is built past WitnessChannel's own atom-count check)."""

    def split(*args):
        point = slice_point(*args)
        atoms = tuple((a / 5, p) for a, p in point.witness.atoms for _ in range(5))
        witness = _trusted(WitnessChannel, atoms=atoms, marginal=point.witness.marginal)
        return dataclasses.replace(point, witness=witness)

    return split


def _past_phi(slice_point):
    """slice_point with y moved by 1e3 the way a support value may not go:
    up for the lower side, down for the upper."""

    def moved(bslice, lam, direction):
        point = slice_point(bslice, lam, direction)
        return dataclasses.replace(point, y=point.y + (1e3 if direction == "lower" else -1e3))

    return moved


def _x_moved(pair_values):
    """_pair_values with every f value moved by 1e-6."""

    def moved(*args):
        fv, gv = pair_values(*args)
        return fv + 1e-6, gv

    return moved


A7_SEEDS = 6


@pytest.mark.parametrize(
    "name, fault, text, seeds",
    [
        ("BoundarySlice", lambda real: _boom, "slice or envelope construction failed: boom", None),
        ("slice_point", lambda real: _boom, "boundary point failed: boom", None),
        ("slice_point", _split_atoms, r"witness has \d+ atoms", None),
        ("_pair_values", _x_moved, "witness does not reproduce its point", None),
        ("slice_point", _past_phi, r"support value passes phi_lam\(q\) by \S+", None),
        (
            "f_information",
            lambda real: lambda *args: -1.0,
            r"data-processing bound broken \(\S+ > -1\.0\)",
            (0, 1, 3, 5),
        ),
        (
            "mrs_gerber",
            lambda real: lambda inst, xs: real(inst, xs) + 1.0,
            r"closed-form sandwich broken at x=0\.0",
            None,
        ),
        (
            "mrs_gerber",
            lambda real: lambda inst, xs: real(inst, xs) - 1.0,
            "closed forms differ at an endpoint",
            None,
        ),
    ],
    ids=["slice", "point", "atom-count", "reproduce", "phi", "dpi", "sandwich", "endpoints"],
)
def test_a7_names_each_violation_and_its_seed(monkeypatch, name, fault, text, seeds):
    # Each A7 check, forced to fail through a name the suite calls, names
    # the seeds it failed on (every seed, or the seeds with a divergence
    # kernel for the data-processing bound) and fails the suite's result.
    monkeypatch.setattr(acceptance, name, fault(getattr(acceptance, name)))
    violations = run_property_suite(A7_SEEDS)
    named = [int(re.match(r"seed (\d+): ", v).group(1)) for v in violations]
    assert named == sorted(named)
    hits = [seed for seed, v in zip(named, violations) if re.fullmatch(rf"seed \d+: {text}", v)]
    assert hits == list(range(A7_SEEDS) if seeds is None else seeds)
    monkeypatch.setattr(
        acceptance, "run_property_suite", functools.partial(run_property_suite, A7_SEEDS)
    )
    result = check_properties()
    assert not result.passed
    assert result.max_deviation == len(violations)
    assert result.detail.endswith(f", first: {violations[0]}")


def test_a5_fails_with_too_few_usable_points():
    result = check_matched(n_points=10**6, resolution=64)
    assert not result.passed
    assert result.max_deviation == math.inf
    assert re.fullmatch(r"only \d+ usable non-trivial points, N=64", result.detail)


def test_a5_counts_atom_mismatches(monkeypatch):
    # A transported witness with other atoms than the slice's point is a
    # mismatch even where x and y agree: 3 points at 2 marginals.
    real = acceptance.matched_channel_invariance_check

    def single_atom(point, q_prime, *args):
        moved = real(point, q_prime, *args)
        marginal = Distribution(q_prime)
        witness = WitnessChannel(atoms=((1.0, marginal),), marginal=marginal)
        return dataclasses.replace(moved, witness=witness)

    monkeypatch.setattr(acceptance, "matched_channel_invariance_check", single_atom)
    result = check_matched(n_points=3, resolution=1024)
    assert not result.passed
    assert result.max_deviation <= result.tolerance
    assert "atom mismatches 6, bits" in result.detail
