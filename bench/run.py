#!/usr/bin/env python3
"""Benchmark harness for bottleneck-lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--trace 0|1] [--record FILE]

One process, one closed-loop client: each operation starts after the
previous one and its output check have finished.  A round is one curve
operation, or for ``verify`` the three acceptance calls A4, A5 and A7.
Rounds repeat until another would overrun ``--seconds`` (at least one
runs).  ``norm_wall_s`` is the median round, each round's wall time scaled
by how fast the machine ran during it, as probe.py samples it (with
``--trace 0`` only).  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 1 when any output check failed and 2 when
the package cannot be loaded from ``src/`` next to this directory.  See
README.md here for the workloads.
"""

from __future__ import annotations

import os

# At most one BLAS thread besides the client: fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The benchmark runs without the thread-pool knob; removing it is recorded.
THREADS_ENV = os.environ.pop("BOTTLENECK_LAB_THREADS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3

E2E = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "region_area": "nats2"}
PER_LAYER_UNITS = {
    "core.functional_rows": "count",
    "envelope.lattice_points": "count",
    "envelope.graph_calls": "count",
    "envelope.hull1d_calls": "count",
    "envelope.qhull_calls": "count",
    "envelope.qhull_facets": "count",
    "envelope.bary_calls": "count",
    "sweep.slopes": "count",
    "sweep.points": "count",
    "sweep.useful_ratio": "ratio",
    "sweep.marginal_shift": "prob",
    "sweep.max_atoms": "count",
    "closed_forms.calls": "count",
    "oracle.calls": "count",
    "acceptance.A4.dev_ratio": "ratio",
    "acceptance.A5.dev_ratio": "ratio",
    "acceptance.A7.violations": "count",
    "quality.max_dev_bits": "bits",
    "trace.spans": "count",
    "trace.absent_sites": "count",
}


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str | None  # None: the verify suites
    m: int
    resolution: int | None  # None: the CLI default lattice
    smoke_resolution: int | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bsc-ib", "ib", 2, None, 512),
        Workload("ternary-ib", "ib", 3, 48, 12),
        Workload("quaternary-eb", "eb", 4, 12, 6),
        Workload("verify", None, 2, None, None),
    )
}
BSC = (0.1, 0.1)
# Fixed draw that shapes the seeded ternary and quaternary sources.
BASE_DRAW = 20180216


def load_package():
    """The bottleneck_lab modules, imported from this checkout's src/ only."""
    if not (SRC / "bottleneck_lab" / "__init__.py").is_file():
        print(f"error: no bottleneck_lab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("bottleneck_lab")
    if Path(pkg.__file__).resolve().parent != SRC / "bottleneck_lab":
        print(f"error: bottleneck_lab was imported from {pkg.__file__}", file=sys.stderr)
        sys.exit(2)
    # The package re-exports a function named sweep, so the submodules are
    # looked up by their full module names.
    return SimpleNamespace(
        **{
            name: importlib.import_module(f"bottleneck_lab.{name}")
            for name in ("cli", "core", "envelope", "sweep", "closed_forms", "oracle", "acceptance")
        }
    )


def seeded_joint(m: int, resolution: int, seed: int):
    """m x m joint whose x-marginal has counts >= 1 on the given lattice.

    A fixed base draw sets the shape (counts and channel rows); the seed
    relabels the X and Y symbols, which changes every number the program
    sees but not the achievable region, so runs on different seeds stay
    comparable.
    """
    import numpy as np

    base = np.random.default_rng([BASE_DRAW, m, resolution])
    counts = 1 + base.multinomial(resolution - m, np.full(m, 1.0 / m))
    rows = base.dirichlet(np.ones(m), size=m)  # row x is P(Y | X = x)
    rng = np.random.default_rng(seed)
    px, py = rng.permutation(m), rng.permutation(m)
    return (counts[:, None] * rows / resolution)[px][:, py]


def write_inputs(w: Workload, seed: int, resolution: int | None, workdir: Path) -> Path | None:
    """Generate and write the workload's source; None for --bsc and verify."""
    workdir.mkdir(parents=True, exist_ok=True)
    if w.problem is None or w.m == 2:
        return None
    path = workdir / "source.json"
    joint = seeded_joint(w.m, resolution, seed)
    path.write_text(json.dumps({"p_xy": joint.tolist()}) + "\n", encoding="utf-8")
    return path


def measure_setup(w: Workload, seed: int) -> list[float]:
    """Wall time of fresh processes that import the package and write the
    inputs, from process start to exit, each at the reference machine speed
    (probe.py; the child prints its ticks).  No timeout is passed: with
    one, the wait polls in steps of up to 50 ms, which would quantize the
    time."""
    import probe

    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", w.name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        wall = perf_counter() - t0
        ticks = json.loads(proc.stdout)["ticks"]
        samples.append(probe.normalise(wall, ticks, probe.SETUP_TICK_S, probe.setup_tick))
    return samples


class Client:
    """Runs rounds of one workload and checks every operation's output."""

    def __init__(self, pkg, w: Workload, source: Path | None, workdir: Path, tracer, smoke: bool, probe=None):
        import checks

        self.pkg, self.w, self.source, self.workdir = pkg, w, source, workdir
        self.tracer, self.smoke, self.checks, self.probe = tracer, smoke, checks, probe
        self.attempted = self.failed = 0
        self.reasons: list[str] = []
        self.quality: list[dict] = []
        self.results: dict[str, list[float]] = {}
        self.captured: list = []
        self._original_sweep = None
        self.inst = pkg.closed_forms.BscInstance(q=BSC[0], delta=BSC[1])
        if w.problem is None:
            self._capture_sweeps()

    def _traced(self, name: str, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def _capture_sweeps(self) -> None:
        # Keeps the curves A4 sweeps so their area and closed-form deviation
        # can be read after the timed call; it times nothing.
        acc = self.pkg.acceptance
        original = acc.sweep

        def capture(*args, **kwargs):
            curve = original(*args, **kwargs)
            self.captured.append(curve)
            return curve

        self._original_sweep = original
        acc.sweep = capture

    def close(self) -> None:
        if self._original_sweep is not None:
            self.pkg.acceptance.sweep = self._original_sweep

    def _timed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.op_id += 1
            self.tracer.active = True
        try:
            with self.probe or nullcontext():
                t0 = perf_counter()
                result = fn(*args)
                return result, perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.active = False

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def round(self) -> float | None:
        """One round; returns its timed wall seconds, or None if an
        operation in it raised."""
        return self._verify_round() if self.w.problem is None else self._curve_round()

    def _curve_argv(self, out: Path) -> list[str]:
        source = ["--bsc", f"{BSC[0]},{BSC[1]}"] if self.source is None else ["--input", str(self.source)]
        argv = ["curve", *source, "--problem", self.w.problem, "--direction", "both"]
        resolution = self.w.smoke_resolution if self.smoke else self.w.resolution
        if resolution is not None:
            argv += ["--resolution", str(resolution)]
        return argv + ["--output", str(out)]

    def _curve_round(self) -> float | None:
        import numpy as np

        out = self.workdir / "curve.csv"
        self.attempted += 1
        main = self._traced("cli", self.pkg.cli.main)
        try:
            code, wall = self._timed(main, self._curve_argv(out))
        except Exception as exc:  # a crash is a failed operation
            self._fail(f"curve raised {type(exc).__name__}: {exc}")
            return None
        if code != 0:
            self._fail(f"curve exited {code}")
            return wall
        c, core = self.checks, self.pkg.core
        try:
            curves = c.read_curves(out)
            if self.source is None:
                joint = core.bsc_joint(*BSC)
            else:
                joint = core.load_joint(self.source)
            q, channel = core.decompose_joint(joint)
            T = np.asarray(channel.matrix)
            if self.w.m == 2:
                quality = c.check_bsc(curves, q.probs, T, self.inst)
            elif self.w.problem == "ib":
                quality = c.check_ternary_ib(curves, T)
            else:
                quality = c.check_quaternary_eb(curves, T)
        except Exception as exc:  # malformed output fails the check too
            self._fail(f"{type(exc).__name__}: {exc}")
            return wall
        self.quality.append(quality)
        return wall

    def _suite_calls(self):
        acc = self.pkg.acceptance
        if not self.smoke:
            return [
                ("A4", acc.check_oracle_cross, {}),
                ("A5", acc.check_matched, {}),
                ("A7", acc.run_property_suite, {}),
            ]
        return [
            ("A4", acc.check_oracle_cross, {"resolution": 64, "n_x": 5, "sweep_resolution": 1024}),
            ("A5", acc.check_matched, {"n_points": 3, "resolution": 1024}),
            ("A7", acc.run_property_suite, {"n_seeds": 4}),
        ]

    def _verify_round(self) -> float | None:
        total = 0.0
        for name, fn, kwargs in self._suite_calls():
            self.attempted += 1
            self.captured.clear()
            call = self._traced(f"acceptance.{name}", lambda fn=fn, kw=kwargs: fn(**kw))
            try:
                result, wall = self._timed(call)
            except Exception as exc:  # a crash is a failed operation
                self._fail(f"{name} raised {type(exc).__name__}: {exc}")
                total = None
                continue
            if total is not None:
                total += wall
            if isinstance(result, list):
                self.results.setdefault(f"acceptance.{name}.violations", []).append(len(result))
            else:
                ratio = result.max_deviation / result.tolerance
                self.results.setdefault(f"acceptance.{name}.dev_ratio", []).append(ratio)
            try:
                self.checks.check_verify(name, result)
                if name == "A4":
                    self.quality.append(self.checks.verify_quality(self.captured, self.inst))
            except Exception as exc:  # malformed output fails the check too
                self._fail(f"{type(exc).__name__}: {exc}")
        return total


def environment(threads) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "BOTTLENECK_LAB_THREADS": "unset" if THREADS_ENV is None else f"removed (was {THREADS_ENV!r})",
    }


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or the env setting."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


def _median_of(rows: list[dict], key: str) -> float:
    values = [r[key] for r in rows if key in r]
    return float(statistics.median(values)) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    w = WORKLOADS[name]
    pkg = load_package()
    import probe
    setup = [] if smoke else measure_setup(w, seed)
    workdir = WORK / f"{name}-{os.getpid()}"
    resolution = w.smoke_resolution if smoke else w.resolution
    source = write_inputs(w, seed, resolution, workdir)

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(pkg)
    speed = None if smoke or tracer is not None else probe.Probe()
    client = Client(pkg, w, source, workdir, tracer, smoke, speed)
    walls: list[float] = []
    norm_walls: list[float] = []
    ticks: list[float] = []
    start = perf_counter()
    try:
        while True:
            r0 = perf_counter()
            if client.probe is not None:
                client.probe.samples.clear()
            wall = client.round()
            if wall is not None:
                walls.append(wall)
                if client.probe is not None:
                    ticks += client.probe.samples
                    norm_walls.append(probe.normalise(wall, client.probe.samples, probe.OP_TICK_S, probe.op_tick))
            cost = perf_counter() - r0
            if smoke or perf_counter() - start + cost > seconds:
                break
    finally:
        client.close()
        if tracer is not None:
            tracer.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "max_dev_bits": _median_of(client.quality, "max_dev_bits"),
        "round_walls_s": walls,
        "tick_ms": 1e3 * statistics.median(ticks) if ticks else None,
    }
    if tracer is None:
        metrics = {
            # Median round, each scaled by how fast the machine ran during
            # it (probe.py): the host's drift cancels, the program's own
            # time does not.
            "norm_wall_s": float(statistics.median(norm_walls)) if norm_walls else 0.0,
            "setup_s": float(statistics.median(setup)) if setup else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "region_area": _median_of(client.quality, "region_area"),
        }
        units = E2E
    else:
        metrics = tracer.per_layer(max(len(walls), 1), walls)
        for key in ("acceptance.A4.dev_ratio", "acceptance.A5.dev_ratio", "acceptance.A7.violations"):
            values = client.results.get(key)
            metrics[key] = float(max(values)) if values else 0.0
        metrics["quality.max_dev_bits"] = info["max_dev_bits"]
        units = {k: PER_LAYER_UNITS.get(k, "s") for k in metrics}
        info["absent"] = tracer.absent
        tracer.write(WORK / f"trace-{name}-seed{seed}.json")
    return {
        "result": {
            "correct": client.failed == 0,
            "attempted": client.attempted,
            "failed": client.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "reasons": client.reasons,
        "info": info,
    }


def report(name: str, out: dict, env: dict) -> None:
    """Human-readable lines: every metric by name and unit, then notes."""
    res = out["result"]
    walls = out["info"]["round_walls_s"]
    tick = out["info"]["tick_ms"]
    print(f"# workload {name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"round walls [{' '.join(f'{w:.3f}' for w in walls)}] s"
          + ("" if tick is None else f", median probe tick {tick:.3f} ms"))
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, m in res["metrics"].items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    if walls:
        print(f"{name} wall_s {statistics.median(walls):.6g} s (median round, not scaled)")
    print(f"{name} max_dev_bits {out['info']['max_dev_bits']:.6g} bits (0: no closed form)")
    for site in out["info"].get("absent", []):
        print(f"# layer site absent: {site}")
    for reason in out["reasons"]:
        print(f"# failed: {reason}")


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per run)."""
    record = {"env": None, "seed": args.seed, "seconds": args.seconds, "runs": {}}
    ok = True
    modes = (0, 1) if args.record else (args.trace,)
    for name in WORKLOADS:
        for trace in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print("\n".join(lines + [f"# {name}: no result (exit {proc.returncode})"]))
                ok = False
                continue
            print("\n".join(lines[:-1]), flush=True)
            ok = ok and result["correct"] and proc.returncode == 0
            result["failures"] = [line[len("# failed: "):] for line in lines if line.startswith("# failed: ")]
            record["runs"].setdefault(name, {})[f"trace{trace}"] = result
    if args.record:
        record["env"] = environment(blas_threads())
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": ok, "workloads": list(WORKLOADS)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write both modes' results here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    w = WORKLOADS[args.workload]
    if args.setup_only:
        import probe

        with probe.Probe(probe.setup_tick, probe.SETUP_INTERVAL_S) as speed:
            load_package()
            workdir = WORK / f"setup-{os.getpid()}"
            write_inputs(w, args.seed, w.resolution, workdir)
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"ticks": speed.samples}))
        return 0
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, out, environment(blas_threads()))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
