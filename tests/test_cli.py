import csv
import importlib
import io
import json
import math
import os
import re
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest

import bottleneck_lab
from bottleneck_lab import (
    DivergenceKernel,
    WitnessChannel,
    binary_entropy,
    bsc_source,
    k_norm,
    oracle_boundary,
    star,
)
from bottleneck_lab import cli, envelope
from bottleneck_lab.acceptance import CheckResult
from bottleneck_lab.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    build_parser,
    main,
)
from bottleneck_lab.closed_forms import CLOSED_FORM_LAWS
from bottleneck_lab.oracle import OracleConfig
from bottleneck_lab.sweep import CURVE_CSV_HEADER, PROBLEM_FRAMES, problem_curve
from test_sweep import _rows_from_points

# The package's `sweep` attribute is the function, not the module.
sweep_module = importlib.import_module("bottleneck_lab.sweep")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_seeded_joint(path, m, resolution, seed=3):
    """m x m joint whose x-marginal has full support on the lattice."""
    rng = np.random.default_rng([seed, m, resolution])
    counts = 1 + rng.multinomial(resolution - m, np.full(m, 1.0 / m))
    rows = rng.dirichlet(np.ones(m), size=m)  # row x is P(Y | X = x)
    path.write_text(json.dumps({"p_xy": (counts[:, None] * rows / resolution).tolist()}))
    return str(path)


def witness_marginal_error(rows, q):
    """Largest distance of a CSV row's witness mixture from q."""
    worst = 0.0
    for row in rows:
        atoms = json.loads(row[6])["atoms"]
        mix = sum(a["alpha"] * np.array(a["p"]) for a in atoms)
        worst = max(worst, float(np.abs(mix - np.asarray(q)).max()))
    return worst


def source_args(tmp_path, source, name="src"):
    """CLI arguments for a --bsc string or a JSON source written to a file."""
    if isinstance(source, str):
        return ["--bsc", source]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(source))
    return ["--input", str(path)]


def run_curve(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(
        ["curve", "--bsc", "0.1,0.1", "--output", str(out), "--resolution", "128", *extra]
    )
    return code, out


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


class TestCurveCommand:
    def test_eb_both_writes_csv_and_manifest(self, tmp_path):
        code, out = run_curve(tmp_path, "eb.csv", "--problem", "eb", "--direction", "both")
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["problem", "direction", "lambda", "x", "y", "trivial", "witness_json"]
        directions = {r[1] for r in rows[1:]}
        assert directions == {"lower", "upper"}
        manifest = json.loads((tmp_path / "eb.csv.manifest.json").read_text())
        assert manifest["command"] == "curve"
        assert manifest["tool_version"]
        assert manifest["parameters"]["problem"] == "eb"
        assert len(manifest["input_digest"]) == 64

    def test_builds_no_witness(self, tmp_path, monkeypatch):
        # The CSV rows come from the curve's arrays, so a curve run builds
        # no witness object; the patch does reach the lazily built points,
        # which are built unchecked through sweep's _trusted.
        def refuse(*args, **kwargs):
            raise AssertionError("curve built a witness object")

        trusted = sweep_module._trusted

        def trusted_but_no_witness(cls, **fields):
            if cls is WitnessChannel:
                refuse()
            return trusted(cls, **fields)

        monkeypatch.setattr(sweep_module, "_trusted", trusted_but_no_witness)
        monkeypatch.setattr(WitnessChannel, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            sweep_module.problem_curve([0.9, 0.1], np.eye(2), "ib", "lower", resolution=16).points
        code, out = run_curve(tmp_path, "ib.csv", "--problem", "ib", "--direction", "both")
        assert code == EXIT_OK and len(read_csv(out)) > 3
        src = write_seeded_joint(tmp_path / "joint.json", 3, 12)
        code = main(["curve", "--input", src, "--problem", "eb", "--direction", "both",
                     "--resolution", "12", "--output", str(tmp_path / "m3.csv")])
        assert code == EXIT_OK

    def test_manifest_version_is_the_project_version(self):
        # The manifest records __version__ as tool_version.
        # The [project] table's string keys, read without tomllib (3.11+).
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        table = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        project = dict(re.findall(r'^(\w+) = "([^"]*)"$', table, flags=re.MULTILINE))
        assert project["name"] == "bottleneck-lab"
        assert bottleneck_lab.__version__ == project["version"]

    def test_deterministic_reruns(self, tmp_path):
        _, first = run_curve(tmp_path, "a.csv", "--problem", "ib", "--direction", "upper")
        _, second = run_curve(tmp_path, "b.csv", "--problem", "ib", "--direction", "upper")
        assert first.read_bytes() == second.read_bytes()

    def test_product_joint_curves_are_flat(self, tmp_path):
        src = tmp_path / "joint.json"
        joint = np.outer([0.6, 0.4], [0.3, 0.7])
        src.write_text(json.dumps({"p_xy": joint.tolist()}))
        out = tmp_path / "flat.csv"
        code = main(
            ["curve", "--input", str(src), "--problem", "ib", "--direction", "both",
             "--output", str(out), "--resolution", "128"]
        )
        assert code == EXIT_OK
        ys = [float(r[4]) for r in read_csv(out)[1:]]
        assert max(abs(y) for y in ys) <= 1e-12

    @pytest.mark.parametrize("problem", ["ib", "eb", "pf"])
    def test_unused_y_symbol_is_dropped(self, tmp_path, problem):
        # A Y symbol no X reaches makes T q lose full support; the joint
        # gets the curve of the same joint without that column.
        with_zero = [[0.2, 0, 0.1, 0.05], [0.1, 0, 0.2, 0.05], [0.05, 0, 0.1, 0.15]]
        without = [[0.2, 0.1, 0.05], [0.1, 0.2, 0.05], [0.05, 0.1, 0.15]]
        outputs = []
        for name, p_xy in (("with_zero", with_zero), ("without", without)):
            src, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            src.write_text(json.dumps({"p_xy": p_xy}))
            code = main(["curve", "--input", str(src), "--problem", problem,
                         "--resolution", "24", "--output", str(out)])
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("problem", list(PROBLEM_FRAMES))
    def test_constant_y_is_bad_input(self, tmp_path, capsys, problem):
        # Every f-information of a constant Y is 0; each problem refuses
        # the source alike, by naming Y.
        src, out = tmp_path / "const.json", tmp_path / "const.csv"
        src.write_text(json.dumps({"p_xy": [[0.3, 0.0], [0.7, 0.0]]}))
        code = main(["curve", "--input", str(src), "--problem", problem,
                     "--resolution", "16", "--output", str(out)])
        assert code == EXIT_BAD_INPUT
        assert "Y is constant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, q, T",
        [
            ("0.1,0.1", [0.9, 0.1], [[0.9, 0.1], [0.1, 0.9]]),
            ("0.4,0.2", [0.6, 0.4], [[0.8, 0.2], [0.2, 0.8]]),
            (
                {"q": [0.2, 0.3, 0.5], "T": [[0.9, 0.2, 0.1], [0.1, 0.8, 0.9]]},
                [0.2, 0.3, 0.5],
                [[0.9, 0.2, 0.1], [0.1, 0.8, 0.9]],
            ),
        ],
        ids=["bsc-0.1", "bsc-0.4", "q-and-T"],
    )
    def test_given_source_keeps_its_bits(self, tmp_path, monkeypatch, source, q, T):
        # A --bsc or {"q","T"} source is not rebuilt from its joint, whose
        # round trip moved T[0][1] of BSC(0.1) to 0.10000000000000002.
        curves = []

        def capture(*args, **kwargs):
            curves.extend(problem_curve(*args, **kwargs))
            return tuple(curves)

        monkeypatch.setattr(cli, "problem_curve", capture)
        code = main(["curve", *source_args(tmp_path, source), "--problem", "ib",
                     "--resolution", "24", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_OK
        assert len(curves) == 2
        for curve in curves:
            assert curve.marginal.probs.tobytes() == np.array(q).tobytes()
            assert curve.channel.matrix.tobytes() == np.array(T).tobytes()

    @pytest.mark.parametrize("problem", ["ib", "eb", "pf"])
    def test_marginal_and_channel_are_restricted_to_their_support(self, tmp_path, problem):
        # A {"q","T"} source drops its zero-mass X symbols and the Y symbols
        # only they reach, as a joint does.
        full = {"q": [0.3, 0.0, 0.7], "T": [[0.6, 0.0, 0.2], [0.0, 1.0, 0.0], [0.4, 0.0, 0.8]]}
        kept = {"q": [0.3, 0.7], "T": [[0.6, 0.2], [0.4, 0.8]]}
        outputs = []
        for name, payload in (("full", full), ("kept", kept)):
            out = tmp_path / f"{name}.csv"
            code = main(["curve", *source_args(tmp_path, payload, name), "--problem", problem,
                         "--resolution", "24", "--output", str(out)])
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_zero_mass_x_symbol_keeps_the_curve_bits(self, tmp_path):
        # Nine X symbols, one with no mass: the curve CSV is the one of the
        # eight-symbol source without it, byte for byte (as in CI).
        full = {
            "q": [0.119, 0.096, 0.092, 0.1, 0.106, 0.112, 0.136, 0.0, 0.239],
            "T": [[0.3, 0.26, 0.36, 0.37, 0.25, 0.32, 0.39, 0.26, 0.34],
                  [0.35, 0.39, 0.34, 0.32, 0.35, 0.34, 0.24, 0.34, 0.3],
                  [0.35, 0.35, 0.3, 0.31, 0.4, 0.34, 0.37, 0.4, 0.36]],
        }
        kept = {"q": full["q"][:7] + full["q"][8:], "T": [row[:7] + row[8:] for row in full["T"]]}
        outputs = []
        for name, payload in (("full", full), ("kept", kept)):
            out = tmp_path / f"{name}.csv"
            code = main(["curve", *source_args(tmp_path, payload, name), "--problem", "ib",
                         "--resolution", "4", "--output", str(out)])
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "source, match",
        [
            ({"q": [0.3, 0.7], "T": [[1.0, 1.0], [0.0, 0.0]]}, "Y is constant"),
            ({"q": [1.0, 0.0], "T": [[0.5, 0.2], [0.5, 0.8]]}, "support of X"),
            ("0.0,0.1", "support of X"),
            ([1, 2], "must hold a JSON object"),
            ({"q": [0.5, 0.5], "T": [0.5, 0.5]}, "channel matrix must be 2-D"),
            ({"q": [0.5, 0.5], "T": [[1.0, 1.0]]}, "output alphabet size must be at least 2"),
            ({"p_xy": [0.5, 0.5]}, "p_xy must be 2-D"),
            ({"p_xy": [[0.5, 0.5]]}, "both alphabets must have at least 2 symbols"),
        ],
        ids=["constant-y", "constant-x", "bsc-constant-x", "not-an-object", "T-not-2d",
             "T-one-output", "p_xy-not-2d", "p_xy-one-row"],
    )
    def test_given_source_is_refused_like_a_joint(self, tmp_path, capsys, source, match):
        out = tmp_path / "x.csv"
        code = main(["curve", *source_args(tmp_path, source), "--problem", "ib",
                     "--resolution", "16", "--output", str(out)])
        assert code == EXIT_BAD_INPUT
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_missing_source_is_bad_input(self, tmp_path):
        code = main(["curve", "--problem", "ib", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_BAD_INPUT

    def test_both_sources_is_bad_input(self, tmp_path):
        src = tmp_path / "j.json"
        src.write_text('{"p_xy": [[0.25,0.25],[0.25,0.25]]}')
        code = main(
            ["curve", "--input", str(src), "--bsc", "0.1,0.1", "--problem", "ib",
             "--output", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_BAD_INPUT

    def test_malformed_bsc_is_bad_input(self, tmp_path):
        code = main(["curve", "--bsc", "0.1", "--problem", "ib",
                     "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_BAD_INPUT

    def test_arimoto_on_a_ternary_source(self, tmp_path):
        # No closed form beyond binary: the curves must mix to q, start at the
        # single atom q, end at the point masses (norm 1), and the oracle,
        # which can only land inside the region, must not pass them.
        p_xy = np.random.default_rng(3).dirichlet(np.ones(9)).reshape(3, 3)
        src = tmp_path / "ternary.json"
        src.write_text(json.dumps({"p_xy": p_xy.tolist()}))
        out = tmp_path / "k.csv"
        code = main(["curve", "--input", str(src), "--problem", "arimoto", "--beta", "2",
                     "--output", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)[1:]
        q = p_xy.sum(axis=1)
        T = (p_xy / q[:, None]).T
        assert witness_marginal_error(rows, q) <= 1e-9
        norm = DivergenceKernel.norm_beta(2.0)
        cfg = OracleConfig(grid_resolution=32)
        for direction, sign in (("lower", -1.0), ("upper", 1.0)):
            xs = np.array([float(r[3]) for r in rows if r[1] == direction])
            ys = np.array([float(r[4]) for r in rows if r[1] == direction])
            assert xs[0] == pytest.approx(np.linalg.norm(q), abs=1e-12)
            assert ys[0] == pytest.approx(np.linalg.norm(T @ q), abs=1e-12)
            assert xs[-1] == pytest.approx(1.0, abs=1e-12)
            for frac in (0.25, 0.5, 0.75):
                x = xs[0] + frac * (1.0 - xs[0])
                pt = oracle_boundary(norm, norm, T, q, x, direction, cfg)
                assert pt.feasible
                assert sign * (pt.best_y - np.interp(x, xs, ys)) <= 5e-3

    def test_frame_mismatch_is_infeasible(self, tmp_path):
        code, _ = run_curve(
            tmp_path, "x.csv", "--problem", "eb", "--frame", "entropy"
        )
        assert code == EXIT_INFEASIBLE

    def test_alphabet_without_default_lattice_is_infeasible(self, tmp_path):
        src = tmp_path / "quinary.json"
        src.write_text(json.dumps({"p_xy": np.full((5, 2), 0.1).tolist()}))
        code = main(["curve", "--input", str(src), "--problem", "ib",
                     "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_INFEASIBLE

    def test_oversized_lattice_is_refused_before_it_is_built(self, tmp_path, monkeypatch, capsys):
        def no_lattice(*args, **kwargs):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(envelope.np, "fromiter", no_lattice)
        out = tmp_path / "x.csv"
        code = main(["curve", "--bsc", "0.1,0.1", "--problem", "ib",
                     "--resolution", "100000000000", "--output", str(out)])
        assert code == EXIT_INFEASIBLE
        assert "100000000001 points" in capsys.readouterr().err
        assert not out.exists()

    def test_symmetric_ternary_source_gets_a_curve(self, tmp_path):
        # Uniform marginal through a symmetric channel: a qhull hull of the
        # lifted points fails with a precision error at the default lattice.
        T = np.full((3, 3), 0.075)
        np.fill_diagonal(T, 0.85)
        src = tmp_path / "symmetric.json"
        src.write_text(json.dumps({"q": [1 / 3, 1 / 3, 1 / 3], "T": T.tolist()}))
        out = tmp_path / "eb.csv"
        assert main(["curve", "--input", str(src), "--problem", "eb", "--output", str(out)]) == EXIT_OK
        rows = read_csv(out)[1:]
        for direction in ("lower", "upper"):
            xs = [float(r[3]) for r in rows if r[1] == direction]
            assert xs[0] == 0.0 and abs(xs[-1] - 2.0) <= 1e-12  # chi2 information of X is m - 1

    def test_ten_letter_source_gets_a_curve(self, tmp_path):
        # 92 378 lattice points at N = 10; basis determinants reach 5e9, past
        # what an int64 adjugate update could hold.  At N = 6 the nearest
        # lattice point drops four symbols (q ranges over 0.053..0.144), and
        # the curve is still at the marginal itself.
        p_xy = np.random.default_rng(3).dirichlet(np.ones(100)).reshape(10, 10)
        src = tmp_path / "m10.json"
        src.write_text(json.dumps({"p_xy": p_xy.tolist()}))
        q = p_xy.sum(axis=1)
        for resolution in ("6", "10"):
            out = tmp_path / f"ib{resolution}.csv"
            code = main(["curve", "--input", str(src), "--problem", "ib",
                         "--resolution", resolution, "--output", str(out)])
            assert code == EXIT_OK
            rows = read_csv(out)[1:]
            for direction in ("lower", "upper"):
                xs = [float(r[3]) for r in rows if r[1] == direction]
                assert len(xs) > 10 and xs == sorted(xs) and xs[0] == 0.0
            assert witness_marginal_error(rows, q) <= 1e-9

    def test_walk_past_its_pivot_cap_is_an_internal_fault(self, tmp_path, monkeypatch):
        # Not bad input: the error propagates instead of mapping to exit 2.
        monkeypatch.setattr(envelope, "_pivot_cap", lambda points: 1)
        src = write_seeded_joint(tmp_path / "joint.json", 3, 12)
        out = tmp_path / "x.csv"
        with pytest.raises(RuntimeError, match="pivots"):
            main(["curve", "--input", src, "--problem", "ib", "--resolution", "12",
                  "--output", str(out)])
        assert not out.exists()

    def test_chain_walk_past_its_pivot_cap_is_an_internal_fault(self, tmp_path, monkeypatch):
        # The cap lets the shared opening pivots (11 here) finish, and a
        # chain walk runs out: the walk's own raise, not the opening's.
        monkeypatch.setattr(envelope, "_pivot_cap", lambda points: 20)
        opened = []
        real_x_phase = envelope._x_phase

        def x_phase(*args):
            opened.append(real_x_phase(*args))
            return opened[-1]

        monkeypatch.setattr(envelope, "_x_phase", x_phase)
        src = write_seeded_joint(tmp_path / "joint.json", 3, 12)
        out = tmp_path / "x.csv"
        with pytest.raises(RuntimeError, match="more than 20 pivots"):
            main(["curve", "--input", src, "--problem", "ib", "--resolution", "12",
                  "--output", str(out)])
        assert [pivots for *_, pivots in opened] == [11]
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, args",
        [
            (None, ["--bsc", "0.1,0.1", "--problem", "ib", "--resolution", "3"]),
            ({"q": [0.9999, 0.0001], "T": [[0.9, 0.1], [0.1, 0.9]]}, ["--problem", "ib"]),
            (
                {"q": [0.9999, 0.0001], "T": [[0.9, 0.1], [0.1, 0.9]]},
                ["--problem", "ib", "--frame", "entropy"],
            ),
        ],
        ids=["bsc-resolution-3", "small-coordinate", "small-coordinate-entropy"],
    )
    def test_off_lattice_marginal_gets_a_curve(self, tmp_path, source, args):
        # The lattice point nearest to q has a zero where q does not; the
        # curve is still computed at q, and every witness mixes to it.
        if source is not None:
            src = tmp_path / "joint.json"
            src.write_text(json.dumps(source))
            args = ["--input", str(src), *args]
        out = tmp_path / "x.csv"
        assert main(["curve", *args, "--direction", "both", "--output", str(out)]) == EXIT_OK
        rows = read_csv(out)[1:]
        assert {r[1] for r in rows} == {"lower", "upper"}
        q = [0.9, 0.1] if source is None else source["q"]
        assert witness_marginal_error(rows, q) <= 1e-9
        trivial = [json.loads(r[6])["atoms"] for r in rows if r[5] == "True"]
        assert trivial and all(atoms[0]["p"] == pytest.approx(q, abs=1e-15) for atoms in trivial)

    @pytest.mark.parametrize(
        "source, args",
        [
            (None, ["--bsc", "1e-320,0.1"]),
            (
                {"q": [0.5, 0.5, 5e-324], "T": [[0.9, 0.1, 0.3], [0.1, 0.9, 0.7]]},
                ["--resolution", "24"],
            ),
        ],
        ids=["bsc-subnormal-q", "ternary-least-float"],
    )
    def test_subnormal_marginal_entry_gets_a_kl_curve(self, tmp_path, source, args):
        # The KL reference has an entry near the least float: p / r
        # overflows there, but the curve is finite and nothing warns.
        if source is not None:
            src = tmp_path / "joint.json"
            src.write_text(json.dumps(source))
            args = ["--input", str(src), *args]
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["curve", *args, "--problem", "ib", "--output", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)[1:]
        xs = [float(r[3]) for r in rows if r[1] == "upper"]
        assert all(math.isfinite(float(r[3])) and math.isfinite(float(r[4])) for r in rows)
        if source is None:
            # H(X) is about 7e-318 nats: both chains are the trivial point.
            assert [(r[3], r[4], r[5]) for r in rows] == [("0.0", "0.0", "True")] * 2
        else:
            # X is binary within rounding, so the upper chain ends at H(X) = ln 2.
            assert len(xs) > 10 and xs == sorted(xs) and xs[-1] == pytest.approx(math.log(2))
            assert witness_marginal_error(rows, source["q"]) <= 1e-9

    @pytest.mark.parametrize("problem", ["eb", "epf"])
    @pytest.mark.parametrize(
        "source, entry",
        [
            ("1e-320,0.1", "[1] = 1e-320"),
            ({"q": [0.5, 0.5, 5e-324], "T": [[0.9, 0.1, 0.3], [0.1, 0.9, 0.7]]}, "[2] = 5e-324"),
        ],
        ids=["bsc-subnormal-q", "ternary-least-float"],
    )
    def test_chi2_refuses_a_reference_entry_past_the_largest_float(
        self, tmp_path, capsys, source, entry, problem
    ):
        # A point mass is 1/r - 1 from the reference in chi-squared, about
        # 1e320 here: the refusal names the kernel and the entry.
        out = tmp_path / "x.csv"
        code = main(["curve", *source_args(tmp_path, source), "--problem", problem,
                     "--resolution", "24", "--output", str(out)])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert f"chi2 kernel: divergence reference entry {entry} is too small" in err
        assert "exceeds the largest float" in err
        assert not out.exists()

    @pytest.mark.parametrize("resolution", ["0", "1"])
    def test_tiny_resolution_is_bad_input(self, tmp_path, resolution):
        out = tmp_path / "x.csv"
        code = main(["curve", "--bsc", "0.1,0.1", "--problem", "ib",
                     "--resolution", resolution, "--output", str(out)])
        assert code == EXIT_BAD_INPUT
        assert not out.exists()

    def test_small_beta_is_bad_input(self, tmp_path):
        code, _ = run_curve(
            tmp_path, "x.csv", "--problem", "arimoto", "--beta", "1.5"
        )
        assert code == EXIT_BAD_INPUT

    def test_no_partial_file_on_failure(self, tmp_path):
        out = tmp_path / "never.csv"
        code = main(["curve", "--bsc", "0.1,0.1", "--problem", "eb",
                     "--frame", "entropy", "--output", str(out)])
        assert code == EXIT_INFEASIBLE
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"p_xy": [[0.25, 0.25], [0.25,',
            b'{"p_xy": [[0.25, 0.25], [0.25, 0.25]], "n": "\xff"}',
        ],
        ids=["truncated", "not-utf8"],
    )
    def test_unreadable_input_is_bad_input(self, tmp_path, payload):
        src = tmp_path / "joint.json"
        src.write_bytes(payload)
        code = main(["curve", "--input", str(src), "--problem", "ib",
                     "--output", str(tmp_path / "x.csv"), "--resolution", "16"])
        assert code == EXIT_BAD_INPUT
        assert sorted(p.name for p in tmp_path.iterdir()) == ["joint.json"]

    @pytest.mark.parametrize(
        "source, args",
        [
            (None, ["--bsc", "0.1,0.1", "--problem", "ib"]),
            ((3, 48), ["--problem", "ib", "--resolution", "48"]),
            ((4, 12), ["--problem", "eb", "--resolution", "12"]),
            (None, ["--bsc", "0.4,0.2", "--problem", "arimoto", "--beta", "2"]),
        ],
        ids=["bsc-ib", "ternary-ib", "quaternary-eb", "bsc-arimoto"],
    )
    def test_both_is_lower_then_upper_bytewise(self, tmp_path, source, args):
        if source is not None:
            args = ["--input", write_seeded_joint(tmp_path / "joint.json", *source), *args]
        text = {}
        for direction in ("both", "lower", "upper"):
            out = tmp_path / f"{direction}.csv"
            assert main(["curve", *args, "--direction", direction, "--output", str(out)]) == EXIT_OK
            text[direction] = out.read_bytes()
        header, upper_rows = text["upper"].split(b"\n", 1)
        assert text["lower"].startswith(header + b"\n")
        assert text["both"] == text["lower"] + upper_rows

    @pytest.mark.parametrize("bsc, problem", [("0.1,0.1", "ib"), ("0.4,0.2", "arimoto")])
    def test_both_writes_header_lower_upper(self, tmp_path, bsc, problem):
        # The file is csv.writer's text of the header and of each curve's
        # points, lower then upper, forced endpoints (empty lambda) and
        # single-atom witnesses among them.
        out = tmp_path / "both.csv"
        code = main(["curve", "--bsc", bsc, "--problem", problem, "--direction", "both",
                     "--resolution", "128", "--output", str(out)])
        assert code == EXIT_OK
        q, channel = bsc_source(*map(float, bsc.split(",")))
        curves = problem_curve(q, channel, problem, "both", resolution=128)
        rows = [row for curve in curves for row in _rows_from_points(curve, problem)]
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([CURVE_CSV_HEADER, *rows])
        assert out.read_text(encoding="utf-8") == want.getvalue()
        assert sum(row[2] == "" for row in rows) == 4
        assert any(row[5] == "True" and len(json.loads(row[6])["atoms"]) == 1 for row in rows)

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_non_finite_beta_is_bad_input(self, tmp_path, capsys, beta):
        code, out = run_curve(tmp_path, "x.csv", "--problem", "arimoto", "--beta", beta)
        assert code == EXIT_BAD_INPUT
        assert "a finite beta >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_both_builds_one_hull(self, tmp_path, hull_calls):
        code, _ = run_curve(tmp_path, "x.csv", "--problem", "ib", "--direction", "both")
        assert code == EXIT_OK
        assert len(hull_calls) == 1

    @pytest.mark.usefixtures("umask_022")
    def test_new_output_follows_umask(self, tmp_path):
        code, out = run_curve(tmp_path, "new.csv", "--problem", "ib", "--direction", "upper")
        assert code == EXIT_OK
        for path in (out, tmp_path / "new.csv.manifest.json"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "new.csv.manifest.json"]

    @pytest.mark.usefixtures("umask_022")
    def test_existing_output_keeps_its_mode(self, tmp_path):
        out = tmp_path / "old.csv"
        manifest = tmp_path / "old.csv.manifest.json"
        for path, mode in ((out, 0o600), (manifest, 0o664)):
            path.write_text("stale\n")
            path.chmod(mode)
        code, _ = run_curve(tmp_path, "old.csv", "--problem", "ib", "--direction", "upper")
        assert code == EXIT_OK
        assert out.read_text().startswith("problem,")
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert stat.S_IMODE(manifest.stat().st_mode) == 0o664

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code, _ = run_curve(tmp_path, "x.csv", "--problem", "ib", "--direction", "upper")
        assert code == EXIT_BAD_INPUT
        assert list(tmp_path.iterdir()) == []

    def test_arimoto_both_directions_dataset(self, tmp_path):
        out = tmp_path / "arimoto.csv"
        code = main(
            ["curve", "--bsc", "0.4,0.2", "--problem", "arimoto", "--beta", "2",
             "--direction", "both", "--output", str(out), "--resolution", "512"]
        )
        assert code == EXIT_OK
        rows = read_csv(out)[1:]
        xs = [float(r[3]) for r in rows]
        assert math.isclose(max(xs), 1.0, abs_tol=1e-12)
        assert min(xs) >= k_norm(0.4, 2.0) - 1e-3
        assert {r[1] for r in rows} == {"lower", "upper"}


def test_choices_are_the_library_tables():
    def choices(command, option):
        sub = next(a for a in parser._actions if a.dest == "command").choices[command]
        return list(next(a for a in sub._actions if option in a.option_strings).choices)

    parser = build_parser()
    frames = [frame for table in PROBLEM_FRAMES.values() for frame in table]
    assert choices("curve", "--problem") == list(PROBLEM_FRAMES)
    assert choices("curve", "--frame") == list(dict.fromkeys(frames))
    assert choices("closed-form", "--law") == list(CLOSED_FORM_LAWS)


class TestClosedFormCommand:
    def run(self, tmp_path, name, *extra):
        out = tmp_path / name
        code = main(["closed-form", "--bsc", "0.1,0.1", "--output", str(out), *extra])
        return code, out

    def test_mgl_table_endpoint_row(self, tmp_path):
        code, out = self.run(tmp_path, "mgl.csv", "--law", "mgl", "--points", "101")
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["q", "delta", "beta", "x", "lower", "upper"]
        first = rows[1]
        assert float(first[3]) == 0.0
        assert math.isclose(float(first[4]), binary_entropy(0.1), abs_tol=1e-12)
        assert first[5] == ""

    def test_mrgl_dominates_mgl_rowwise(self, tmp_path):
        _, mgl_out = self.run(tmp_path, "mgl.csv", "--law", "mgl", "--points", "51")
        _, mrgl_out = self.run(tmp_path, "mrgl.csv", "--law", "mrgl", "--points", "51")
        mgl_rows = read_csv(mgl_out)[1:]
        mrgl_rows = read_csv(mrgl_out)[1:]
        for lo, hi in zip(mgl_rows, mrgl_rows):
            assert lo[3] == hi[3]
            assert float(hi[5]) >= float(lo[4]) - 1e-12

    def test_arimoto_mgl_endpoints(self, tmp_path):
        out = tmp_path / "amgl.csv"
        code = main(
            ["closed-form", "--bsc", "0.4,0.2", "--law", "arimoto-mgl", "--beta", "2",
             "--points", "11", "--output", str(out)]
        )
        assert code == EXIT_OK
        rows = read_csv(out)[1:]
        xs = [float(r[3]) for r in rows]
        ys = [float(r[4]) for r in rows]
        assert math.isclose(min(xs), k_norm(0.4, 2.0), abs_tol=1e-12)
        assert math.isclose(max(xs), 1.0, abs_tol=1e-12)
        by_x = dict(zip(xs, ys))
        assert math.isclose(by_x[max(xs)], k_norm(0.2, 2.0), abs_tol=1e-12)
        assert math.isclose(by_x[min(xs)], k_norm(star(0.4, 0.2), 2.0), abs_tol=1e-12)

    @pytest.mark.parametrize("law", ["mgl", "mrgl"])
    def test_beta_with_entropy_law_is_infeasible(self, tmp_path, capsys, law):
        code, out = self.run(tmp_path, "x.csv", "--law", law, "--beta", "3")
        assert code == EXIT_INFEASIBLE
        assert f"error: beta does not apply to law '{law}'" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_table_is_refused_before_it_is_built(self, tmp_path, monkeypatch, capsys):
        def no_grid(*args, **kwargs):
            raise AssertionError("the table grid was built")

        monkeypatch.setattr(np, "linspace", no_grid)
        code, out = self.run(tmp_path, "x.csv", "--law", "mrgl", "--points", "100000000000")
        assert code == EXIT_INFEASIBLE
        assert "error: points 100000000000:" in capsys.readouterr().err
        assert not out.exists()

    def test_arimoto_rejects_small_beta(self, tmp_path):
        code, _ = self.run(tmp_path, "bad.csv", "--law", "arimoto-mrgl", "--beta", "1.5")
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("law", ["arimoto-mgl", "arimoto-mrgl"])
    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_non_finite_beta_is_bad_input(self, tmp_path, capsys, law, beta):
        code, out = self.run(tmp_path, "bad.csv", "--law", law, "--beta", beta)
        assert code == EXIT_BAD_INPUT
        assert "a finite beta >= 2" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_mgl_suite_passes(self, capsys):
        code = main(["verify", "--suite", "mgl"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out

    def test_chi2_endpoint_suite_passes(self, capsys):
        code = main(["verify", "--suite", "chi2-endpoints"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("A6") and "PASS" in out

    @pytest.mark.parametrize(
        "outcomes, expected",
        [
            ((True, True), EXIT_OK),
            ((False, True), EXIT_CHECK_FAILED),
            ((True, False), EXIT_CHECK_FAILED),
        ],
    )
    def test_all_runs_every_suite_in_order(self, monkeypatch, capsys, outcomes, expected):
        calls = []
        results = [
            CheckResult(f"fake {i}", ok, 0.0 if ok else 1.0, 0.5, "stub")
            for i, ok in enumerate(outcomes)
        ]

        def suite(result):
            def check():
                calls.append(result.criterion)
                return result

            return check

        monkeypatch.setattr(cli, "SUITES", {r.criterion: suite(r) for r in results})
        code = main(["verify", "--suite", "all"])
        assert code == expected
        assert calls == [r.criterion for r in results]
        assert capsys.readouterr().out.splitlines() == [r.line() for r in results]
