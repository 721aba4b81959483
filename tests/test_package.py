import ast
import os
import subprocess
import sys
from pathlib import Path

import bottleneck_lab

PACKAGE_DIR = Path(bottleneck_lab.__file__).parent

# Third-party modules a submodule may import when it is itself imported.
# scipy.spatial (qhull) is the package's only scipy import; nothing imports
# scipy.optimize, so every run loads numpy and scipy.spatial only.
TOP_LEVEL_IMPORTS = {"envelope": {"scipy.spatial"}}


def test_all_names_resolve_once():
    names = bottleneck_lab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(bottleneck_lab, name)] == []


def module_level_imports(tree):
    """Absolute module names imported outside any function body."""
    found = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_module_level_third_party_imports_are_pinned():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert set(TOP_LEVEL_IMPORTS) <= {path.stem for path in sources}
    for path in sources:
        imports = module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        third_party = {
            name for name in imports if name.split(".")[0] not in sys.stdlib_module_names
        }
        allowed = {"numpy"} | TOP_LEVEL_IMPORTS.get(path.stem, set())
        assert third_party <= allowed, (
            f"{path.name} imports {sorted(third_party - allowed)} at module level; "
            "import it inside the function that calls it"
        )
        assert TOP_LEVEL_IMPORTS.get(path.stem, set()) <= third_party, path.name


def package_imports(tree):
    """The package's own modules a module imports, at module level or
    inside a function, by their names within the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            names = [f"bottleneck_lab.{name}" for name in names]
        else:
            continue
        found.update(
            name.split(".", 1)[1] for name in names if name.startswith("bottleneck_lab.")
        )
    return found


def test_reference_routes_import_no_slice_route():
    # The closed forms and the oracle cross-check the slice route, so a
    # change to sweep or envelope must not reach them.
    for stem in ("closed_forms", "oracle"):
        tree = ast.parse((PACKAGE_DIR / f"{stem}.py").read_text(encoding="utf-8"))
        imports = package_imports(tree)
        assert imports and not imports & {"sweep", "envelope"}, (stem, sorted(imports))


# Run in a fresh interpreter: pytest's own process has scipy.optimize loaded.
CURVE_RUNS_WITHOUT_OPTIMIZE = """
import contextlib, io, json, sys
from pathlib import Path

import numpy as np

from bottleneck_lab import acceptance, cli, closed_forms, core, envelope, oracle, sweep
from bottleneck_lab.sweep import BoundarySlice, matched_channel_invariance_check, slice_point

out = Path(sys.argv[1])
rng = np.random.default_rng([3, 4, 12])
counts = 1 + rng.multinomial(12 - 4, np.full(4, 0.25))
rows = rng.dirichlet(np.ones(4), size=4)
(out / "joint.json").write_text(json.dumps({"p_xy": (counts[:, None] * rows / 12).tolist()}))
runs = [
    ["curve", "--bsc", "0.1,0.1", "--problem", "ib"],
    ["curve", "--input", str(out / "joint.json"), "--problem", "eb", "--resolution", "12"],
    *(["closed-form", "--bsc", "0.1,0.1", "--law", law] for law in ("mgl", "mrgl")),
    *(["closed-form", "--bsc", "0.1,0.1", "--law", law, "--beta", "3"]
      for law in ("arimoto-mgl", "arimoto-mrgl")),
]
for i, args in enumerate(runs):
    assert cli.main([*args, "--output", str(out / f"out{i}.csv")]) == 0, args
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "all"]) == 0
kl = core.DivergenceKernel.kl()
T3 = np.full((3, 3), 0.1) + 0.7 * np.eye(3)
point = oracle.oracle_boundary(kl, kl, T3, [0.5, 0.3, 0.2], 0.3, "upper", oracle.OracleConfig(16))
assert point.feasible
ent = core.DivergenceKernel.entropy_functional()
bsc = closed_forms.BscInstance(q=0.1, delta=0.1)
bslice = BoundarySlice(ent, ent, bsc.channel(), bsc.marginal(), resolution=512)
matched_channel_invariance_check(
    slice_point(bslice, 0.3, "lower"), [0.89, 0.11], ent, ent, bsc.channel()
)
assert "scipy.optimize" not in sys.modules, "a run of the package loaded scipy.optimize"
"""


def test_curve_runs_do_not_load_scipy_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-c", CURVE_RUNS_WITHOUT_OPTIMIZE, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr

