import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bottleneck_lab import (
    BscInstance,
    arimoto_mr_gerber,
    arimoto_mrs_gerber,
    beta_norm,
    binary_entropy,
    binary_entropy_inv,
    closed_forms,
    k_frame_to_entropy,
    k_norm,
    mr_gerber,
    mr_gerber_point,
    mrs_gerber,
    star,
)
from bottleneck_lab.closed_forms import MAX_TABLE_POINTS, closed_form_table
from bottleneck_lab.core import (
    LN2,
    ConfigError,
    DivergenceKernel,
    _pair_values,
    resolve_functional,
)

INST = BscInstance(q=0.1, delta=0.1)
# The default instance plus the degenerate corners of the parametrization.
EDGE_INSTS = [
    INST,
    BscInstance(q=0.1, delta=0.5),
    BscInstance(q=0.1, delta=0.0),
    BscInstance(q=0.5, delta=0.1),
]


def _bits(r):
    return int(np.float64(r).view(np.int64))


def _float(b):
    return float(np.int64(b).view(np.float64))


def float_bisection(reaches, lo, hi):
    """The right end of [lo, hi] halved in float-bit order until its ends are
    adjacent floats, with reaches(lo) false and reaches(hi) true throughout."""
    a, b = _bits(lo), _bits(hi)
    while b - a > 1:
        mid = (a + b) // 2
        if reaches(_float(mid)):
            b = mid
        else:
            a = mid
    return _float(b)


def turning_floats(reaches, lo, hi, width=16):
    """The floats r in [lo, hi] where reaches turns true (it holds at r and
    fails at the float below), around the test's own float-bit bisection.
    A rounded entropy is not monotone in its last bit, so it can straddle a
    target at a few neighbouring floats; `width` floats on either side must
    have settled, falling short below and reaching above.  reaches takes a
    float or an array of them."""
    c = _bits(float_bisection(reaches, lo, hi))
    window = np.arange(max(c - width, _bits(lo)), min(c + width, _bits(hi)) + 1).view(np.float64)
    flags = reaches(window)
    assert not flags[0] and flags[-1]
    return window[1:][flags[1:] & ~flags[:-1]].tolist()


def entropy_turns(x):
    """turning_floats of binary_entropy(r) >= x on [0, 1/2]."""
    return turning_floats(lambda r: binary_entropy(r) >= x, 0.0, 0.5)


def alpha_turns(inst, x):
    """turning_floats of mr_gerber_point(inst, alpha).x >= x on [2q, 1],
    with that x read where mr_gerber_point reads it, off _upper_xy."""
    def reaches(alpha):
        return closed_forms._upper_xy(binary_entropy, inst, alpha)[1] >= x

    return turning_floats(reaches, 2.0 * inst.q, 1.0)


def brentq_tolerance(root, slope, y):
    """brentq's xtol + rtol |root| at the old settings, one ulp, and the
    width in the root of 4 ulps of y: the rounding of the function, seen
    through its slope there, which no float inversion can resolve."""
    return 1e-16 + 9e-16 * abs(root) + float(np.spacing(root)) + 4.0 * float(np.spacing(y)) / slope


def bsc_draws(seed, n=50):
    rng = np.random.default_rng(seed)
    return [
        BscInstance(q=float(rng.uniform(0.05, 0.5)), delta=float(rng.uniform(0.0, 0.5)))
        for _ in range(n)
    ]


class TestBscInstance:
    def test_rejects_large_q(self):
        with pytest.raises(ValueError):
            BscInstance(q=0.6, delta=0.1)

    def test_rejects_large_delta(self):
        with pytest.raises(ValueError):
            BscInstance(q=0.1, delta=0.7)


class TestMrsGerber:
    def test_zero_budget(self):
        assert math.isclose(mrs_gerber(INST, 0.0), binary_entropy(INST.delta), abs_tol=1e-15)

    def test_full_budget(self):
        hq = binary_entropy(INST.q)
        expected = binary_entropy(star(INST.delta, INST.q))
        assert math.isclose(mrs_gerber(INST, hq), expected, abs_tol=1e-12)

    def test_uniform_source_saturates(self):
        inst = BscInstance(q=0.5, delta=0.3)
        assert math.isclose(mrs_gerber(inst, 1.0), 1.0, abs_tol=1e-12)

    def test_convex_and_nondecreasing(self):
        xs = np.linspace(0.0, binary_entropy(INST.q), 101)
        ys = np.array([mrs_gerber(INST, float(x)) for x in xs])
        assert np.all(np.diff(ys) >= -1e-12)
        assert np.all(np.diff(ys, 2) >= -1e-9)

    def test_clamps_to_the_endpoint(self):
        # An x just past h(q), within the accepted slack, is read at h(q),
        # so the lower boundary stays under the upper one there.
        hq = binary_entropy(INST.q)
        x = hq + 9e-10
        assert mrs_gerber(INST, x) == mrs_gerber(INST, hq)
        assert mrs_gerber(INST, x) <= mr_gerber(INST, x) + 1e-12

    def test_bit_identical_to_checked_inversion(self):
        # mrs_gerber is binary_entropy(star(delta, r)) bit for bit, with r =
        # binary_entropy_inv(x) a float where the checked entropy turns to
        # reach x, as the test's own float-bit bisection finds them.  On
        # these draws the rounding makes it turn at floats at most 4 apart;
        # where it turns once, r is the least float that reaches x.
        for inst in bsc_draws(2025):
            hq = binary_entropy(inst.q)
            for x in np.linspace(0.0, hq, 17).tolist():
                if x == hq:
                    # The endpoint is read at q itself, not at h^-1(h(q)).
                    assert mrs_gerber(inst, x) == binary_entropy(star(inst.delta, inst.q))
                    continue
                r = binary_entropy_inv(x)
                if x == 0.0:
                    assert r == 0.0
                else:
                    turns = entropy_turns(x)
                    assert r in turns
                    assert _bits(turns[-1]) - _bits(turns[0]) <= 4
                assert mrs_gerber(inst, x) == binary_entropy(star(inst.delta, r))

    def test_roots_agree_with_brentq(self):
        # Each root is within brentq's own tolerance of a test-local brentq
        # root, plus the rounding of h seen through its slope: near y = 1, h
        # is flat, and both land anywhere on the floats where h rounds to y
        # (3.7e-9 apart at 1 - 2^-52, where dr/dy is about 2e7).
        ys = [x for inst in bsc_draws(2025) for x in np.linspace(0.0, binary_entropy(inst.q), 17)]
        for y in [*map(float, ys), 5e-324, 1e-300, 1.0 - 2.0**-52, 1.0]:
            r = binary_entropy_inv(y)
            if y in (0.0, 1.0):
                assert r == y / 2.0
                continue
            want = brentq(lambda t: binary_entropy(t) - y, 0.0, 0.5, xtol=1e-16, rtol=9e-16)
            slope = math.log2((1.0 - want) / want) if want > 0.0 else math.inf
            assert abs(r - want) <= brentq_tolerance(want, slope, y), y

    def test_array_call_equals_scalar_calls(self):
        insts = bsc_draws(2025, n=20) + EDGE_INSTS
        q = np.array([inst.q for inst in insts])[:, None]
        delta = np.array([inst.delta for inst in insts])[:, None]
        xs = np.linspace(0.0, binary_entropy(q[:, 0]), 17, axis=-1)
        batch = BscInstance(q=q, delta=delta)
        for fn in (mrs_gerber, mr_gerber):
            got = fn(batch, xs)
            assert got.shape == xs.shape
            want = [[fn(inst, x) for x in row] for inst, row in zip(insts, xs.tolist())]
            assert got.tobytes() == np.array(want).tobytes()
        # Near y = 1 the search runs long and h straddles y at many floats.
        rng = np.random.default_rng(7)
        ys = np.concatenate([xs.ravel(), rng.uniform(0.0, 1.0, 300), 1.0 - rng.uniform(0.0, 1e-9, 50)])
        for fn in (binary_entropy, binary_entropy_inv):
            assert fn(ys).tobytes() == np.array([fn(y) for y in ys.tolist()]).tobytes()
        p_grid = np.linspace(0.0, q[:, 0], 17, axis=-1)
        alpha_grid = np.broadcast_to(np.linspace(0.0, 1.0, 17), xs.shape)
        for fn, grid in ((arimoto_mrs_gerber, p_grid), (arimoto_mr_gerber, alpha_grid)):
            got = np.array(fn(batch, 3.0, grid))
            want = [[fn(inst, 3.0, v) for v in row] for inst, row in zip(insts, grid.tolist())]
            assert got.tobytes() == np.array(want).transpose(2, 0, 1).tobytes()
        # A float is the 0-d case: a numpy float back.
        assert type(mrs_gerber(INST, 0.3)) is np.float64
        assert type(binary_entropy_inv(0.3)) is np.float64

    def test_endpoint_equals_mr_gerber(self):
        # Both closed forms are h(delta star q) at x = h(q); read through
        # h^-1(h(q)), the lower one ends above the upper one for 34 of these
        # draws (by up to 2.2e-16).
        rng = np.random.default_rng(0)
        for _ in range(300):
            inst = BscInstance(q=float(rng.uniform(0.05, 0.5)), delta=float(rng.uniform(0.0, 0.5)))
            hq = binary_entropy(inst.q)
            assert mrs_gerber(inst, hq) == mr_gerber(inst, hq)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            mrs_gerber(INST, binary_entropy(INST.q) + 0.1)


class TestMrGerberPoint:
    def test_alpha_one_is_trivial_endpoint(self):
        pt = mr_gerber_point(INST, 1.0)
        assert math.isclose(pt.x, binary_entropy(INST.q), abs_tol=1e-15)
        assert math.isclose(pt.y, binary_entropy(star(INST.delta, INST.q)), abs_tol=1e-15)

    def test_alpha_zero_is_deterministic_endpoint(self):
        pt = mr_gerber_point(INST, 0.0)
        assert pt.x == 0.0
        assert math.isclose(pt.y, binary_entropy(INST.delta), abs_tol=1e-15)

    def test_branch_continuity_at_two_q(self):
        # Both weight constructions coincide where the regimes meet.
        alpha = 2.0 * INST.q
        q, delta = INST.q, INST.delta
        z = alpha
        x1 = alpha * binary_entropy(q / z)
        y1 = alpha * binary_entropy(star(delta, q / z)) + (1 - alpha) * binary_entropy(delta)
        pt = mr_gerber_point(INST, alpha)
        assert math.isclose(pt.x, x1, abs_tol=1e-12)
        assert math.isclose(pt.y, y1, abs_tol=1e-12)
        below = mr_gerber_point(INST, alpha - 1e-12)
        assert math.isclose(below.x, pt.x, abs_tol=1e-10)
        assert math.isclose(below.y, pt.y, abs_tol=1e-10)

    def test_witness_reproduces_point(self):
        h_fn = resolve_functional(DivergenceKernel.entropy_functional(), None)
        channel = INST.channel()
        for alpha in np.linspace(0.0, 1.0, 41):
            pt = mr_gerber_point(INST, float(alpha))
            xs, ys = _pair_values(h_fn, h_fn, channel.matrix, pt.witness.conditionals())
            x_re = float(pt.witness.weights() @ xs) / LN2
            y_re = float(pt.witness.weights() @ ys) / LN2
            assert abs(x_re - pt.x) <= 1e-10
            assert abs(y_re - pt.y) <= 1e-10
            mix = pt.witness.weights() @ pt.witness.conditionals()
            assert np.abs(mix - [1.0 - INST.q, INST.q]).max() <= 1e-12

    def test_case_two_has_three_atoms(self):
        pt = mr_gerber_point(INST, INST.q)  # alpha < 2q
        assert len(pt.witness.atoms) == 3
        seconds = sorted(a.probs[1] for _, a in pt.witness.atoms)
        assert seconds == [0.0, 0.5, 1.0]


class TestMrGerber:
    def test_endpoints(self):
        assert math.isclose(mr_gerber(INST, 0.0), binary_entropy(INST.delta), abs_tol=1e-12)
        hq = binary_entropy(INST.q)
        assert math.isclose(
            mr_gerber(INST, hq), binary_entropy(star(INST.delta, INST.q)), abs_tol=1e-12
        )

    def test_inversion_accuracy(self):
        # mr_gerber solves alpha from x; pushing the result back through the
        # parametrization must recover x to 1e-10.
        for x in np.linspace(0.0, binary_entropy(INST.q), 41):
            y = mr_gerber(INST, float(x))
            # find alpha whose point matches y, then check its x
            alpha = brentq(
                lambda a: mr_gerber_point(INST, a).x - float(x), 0.0, 1.0, xtol=1e-14
            )
            pt = mr_gerber_point(INST, alpha)
            assert abs(pt.x - float(x)) <= 1e-10
            assert abs(pt.y - y) <= 1e-9

    def test_dominates_lower_boundary(self):
        xs = np.linspace(0.0, binary_entropy(INST.q), 101)
        for x in xs:
            assert mr_gerber(INST, float(x)) >= mrs_gerber(INST, float(x)) - 1e-12
        assert math.isclose(mr_gerber(INST, 0.0), mrs_gerber(INST, 0.0), abs_tol=1e-9)
        hq = binary_entropy(INST.q)
        assert math.isclose(mr_gerber(INST, hq), mrs_gerber(INST, hq), abs_tol=1e-9)

    def test_concave(self):
        xs = np.linspace(0.0, binary_entropy(INST.q), 101)
        ys = np.array([mr_gerber(INST, float(x)) for x in xs])
        assert np.all(np.diff(ys, 2) <= 1e-9)

    def test_degenerate_channel_half(self):
        inst = BscInstance(q=0.2, delta=0.5)
        for x in np.linspace(0.0, binary_entropy(0.2), 11):
            assert math.isclose(mrs_gerber(inst, float(x)), 1.0, abs_tol=1e-12)
            assert math.isclose(mr_gerber(inst, float(x)), 1.0, abs_tol=1e-12)

    def test_noiseless_channel(self):
        inst = BscInstance(q=0.3, delta=0.0)
        for x in np.linspace(0.0, binary_entropy(0.3), 11):
            assert math.isclose(mrs_gerber(inst, float(x)), float(x), abs_tol=1e-10)

    def test_builds_no_witness(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mr_gerber built a witness object")

        monkeypatch.setattr(closed_forms, "WitnessChannel", refuse)
        monkeypatch.setattr(closed_forms, "Distribution", refuse)
        with pytest.raises(AssertionError):
            mr_gerber_point(INST, 0.5)
        for inst in EDGE_INSTS:
            for x in np.linspace(0.0, binary_entropy(inst.q), 33):
                mr_gerber(inst, float(x))

    def test_linear_branch_needs_no_root(self, monkeypatch):
        # On alpha <= 2q the conditional is uniform and x(alpha) = alpha
        # exactly, so mr_gerber reads the point at alpha = x directly.
        def refuse(*args, **kwargs):
            raise AssertionError("mr_gerber ran a root search")

        monkeypatch.setattr(closed_forms, "_upper_x", refuse)
        monkeypatch.setattr(closed_forms, "_upper_slope", refuse)
        for inst in EDGE_INSTS + [BscInstance(q=0.25, delta=0.05), BscInstance(q=0.4, delta=0.2)]:
            for x in np.linspace(0.0, 2.0 * inst.q, 17).tolist():
                assert mr_gerber(inst, x) == mr_gerber_point(inst, x).y
        with pytest.raises(AssertionError, match="root search"):
            mr_gerber(INST, 2.0 * INST.q + 0.05)

    def test_bit_identical_to_point_inversion(self):
        # mr_gerber is mr_gerber_point(inst, alpha).y bit for bit, with alpha
        # a float of [2q, 1] where the point's x turns to reach x, as the
        # test's own float-bit bisection finds them (at floats at most 8
        # apart on these draws); x <= 2q reads alpha = x and x = h(q) reads
        # alpha = 1.  Those alphas are within brentq's old tolerance (xtol
        # 1e-13) of a test-local brentq root.
        for inst in EDGE_INSTS + bsc_draws(2024):
            hq = binary_entropy(inst.q)
            for x in np.linspace(0.0, hq, 17).tolist():
                got = mr_gerber(inst, x)
                if x <= 2.0 * inst.q or x == hq:
                    assert got == mr_gerber_point(inst, x if x <= 2.0 * inst.q else 1.0).y
                    continue
                turns = alpha_turns(inst, x)
                assert _bits(turns[-1]) - _bits(turns[0]) <= 8
                points = [mr_gerber_point(inst, a) for a in turns]
                assert all(pt.x >= x for pt in points)
                alphas = [pt.alpha for pt in points if pt.y == got]
                assert alphas, (inst, x)
                want = brentq(lambda a: mr_gerber_point(inst, a).x - x, 0.0, 1.0,
                              xtol=1e-13, rtol=9e-16)
                slope = -math.log2(1.0 - inst.q / want)
                assert abs(alphas[0] - want) <= 1e-13 + brentq_tolerance(want, slope, x)


class TestArimotoClosedForms:
    def test_k_norm_matches_general_norm(self):
        for p in np.linspace(0.0, 1.0, 21):
            assert math.isclose(
                k_norm(float(p), 3.0), beta_norm(3.0, [1.0 - p, p]), abs_tol=1e-15
            )

    def test_mrs_point_mass_endpoint(self):
        x, y = arimoto_mrs_gerber(INST, 2.0, 0.0)
        assert x == 1.0
        assert math.isclose(y, k_norm(INST.delta, 2.0), abs_tol=1e-15)

    def test_mrs_trivial_endpoint(self):
        x, y = arimoto_mrs_gerber(INST, 2.0, INST.q)
        assert math.isclose(x, k_norm(INST.q, 2.0), abs_tol=1e-15)
        assert math.isclose(y, k_norm(star(INST.q, INST.delta), 2.0), abs_tol=1e-15)

    def test_mrs_direct_arithmetic(self):
        inst = BscInstance(q=0.4, delta=0.2)
        x, y = arimoto_mrs_gerber(inst, 2.0, 0.2)
        assert math.isclose(x, math.sqrt(0.04 + 0.64), abs_tol=1e-15)
        mixed = star(0.2, 0.2)  # 0.32
        assert math.isclose(y, math.sqrt(mixed**2 + (1 - mixed) ** 2), abs_tol=1e-15)

    def test_mr_endpoints(self):
        x0, y0 = arimoto_mr_gerber(INST, 2.0, 0.0)
        assert x0 == 1.0 and math.isclose(y0, k_norm(INST.delta, 2.0), abs_tol=1e-15)
        x1, y1 = arimoto_mr_gerber(INST, 2.0, 1.0)
        assert math.isclose(x1, k_norm(INST.q, 2.0), abs_tol=1e-15)
        assert math.isclose(y1, k_norm(star(INST.q, INST.delta), 2.0), abs_tol=1e-15)

    def test_mr_branch_continuity(self):
        alpha = 2.0 * INST.q
        above = arimoto_mr_gerber(INST, 2.0, alpha)
        below = arimoto_mr_gerber(INST, 2.0, alpha - 1e-13)
        assert math.isclose(above[0], below[0], abs_tol=1e-12)
        assert math.isclose(above[1], below[1], abs_tol=1e-12)

    def test_rejects_small_beta(self):
        with pytest.raises(ValueError):
            arimoto_mrs_gerber(INST, 1.5, 0.05)
        with pytest.raises(ValueError):
            arimoto_mr_gerber(INST, 1.9, 0.5)

    def test_boundary_sandwich_in_k_frame(self):
        inst = BscInstance(q=0.4, delta=0.2)
        alphas = np.linspace(0.0, 1.0, 101)
        upper = [arimoto_mr_gerber(inst, 2.0, float(a)) for a in alphas]
        xs_u = np.array([u[0] for u in upper])
        ys_u = np.array([u[1] for u in upper])
        for p in np.linspace(0.0, inst.q, 33):
            x, y_low = arimoto_mrs_gerber(inst, 2.0, float(p))
            y_up = float(np.interp(x, xs_u[::-1], ys_u[::-1]))
            assert y_up >= y_low - 1e-9


class TestKFrameMap:
    def test_one_maps_to_zero(self):
        assert k_frame_to_entropy(1.0, 2.0) == 0.0

    def test_matches_renyi_entropy(self):
        q = 0.3
        got = k_frame_to_entropy(k_norm(q, 2.0), 2.0)
        expected = 2.0 / (1.0 - 2.0) * math.log(k_norm(q, 2.0))
        assert math.isclose(got, expected, rel_tol=1e-15)

    def test_round_trip(self):
        for beta in (2.0, 4.0):
            for v in (0.3, 0.8, 1.0):
                h = k_frame_to_entropy(v, beta)
                back = math.exp((1.0 - beta) / beta * h)
                assert math.isclose(back, v, rel_tol=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            k_frame_to_entropy(0.0, 2.0)
        with pytest.raises(ValueError):
            k_frame_to_entropy(0.5, 1.0)



def no_grid(*args, **kwargs):
    raise AssertionError("the table grid was built")


class TestClosedFormTable:
    # Each refusal comes before the grid, in this order: a beta for an
    # entropy-frame law, then more than MAX_TABLE_POINTS rows, then fewer
    # than 2.
    @pytest.mark.parametrize("points", [101, 1, 10**11])
    @pytest.mark.parametrize("law", ["mgl", "mrgl"])
    def test_beta_with_entropy_law_is_infeasible(self, monkeypatch, law, points):
        monkeypatch.setattr(np, "linspace", no_grid)
        with pytest.raises(ConfigError, match=f"^beta does not apply to law '{law}'$"):
            closed_form_table(INST, law, beta=3.0, points=points)

    @pytest.mark.parametrize("law", ["mgl", "arimoto-mrgl"])
    def test_oversized_table_is_refused_before_it_is_built(self, monkeypatch, law):
        monkeypatch.setattr(np, "linspace", no_grid)
        with pytest.raises(ConfigError, match=f"^points {MAX_TABLE_POINTS + 1}: at most "):
            closed_form_table(INST, law, beta=3.0 if "arimoto" in law else None,
                              points=MAX_TABLE_POINTS + 1)
        with pytest.raises(ValueError, match="^points must be at least 2$"):
            closed_form_table(INST, law, points=1)
