"""Span tracing of bottleneck_lab's layers, installed from outside the package.

Each wrapper is installed on the name where the caller looks it up (modules
bind imported names at import time, so patching only the defining module
would miss most calls).  Spans are kept in memory as
``[name, start, end, parent, op_id]`` and written out when the run ends.
Wrappers record nothing unless the tracer is active, so work done outside
the timed operations (output checks) stays untraced.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from time import perf_counter

import numpy as np

# Span name -> per-layer metric that receives the span's self time.
SELF_METRIC = {
    "cli": "cli.self_s",
    "core.ingest": "core.ingest_s",
    "core.functional": "core.functional_s",
    "envelope.lattice": "envelope.lattice_s",
    "envelope.graph": "envelope.graph_s",
    "envelope.hull1d": "envelope.hull1d_s",
    "envelope.facet_scan": "envelope.facet_scan_s",
    "envelope.qhull": "envelope.qhull_s",
    "envelope.bary": "envelope.bary_s",
    "sweep": "sweep.self_s",
    "closed_forms": "closed_forms.s",
    "oracle": "oracle.s",
    "acceptance.A4": "acceptance.self_s",
    "acceptance.A5": "acceptance.self_s",
    "acceptance.A7": "acceptance.self_s",
}

# Span name -> per-layer metric counting its calls.
CALL_METRIC = {
    "envelope.graph": "envelope.graph_calls",
    "envelope.hull1d": "envelope.hull1d_calls",
    "envelope.qhull": "envelope.qhull_calls",
    "envelope.bary": "envelope.bary_calls",
    "closed_forms": "closed_forms.calls",
    "oracle": "oracle.calls",
}

_ENVELOPE_SPANS = ("envelope.hull1d", "envelope.facet_scan")


class Tracer:
    """In-memory span recorder; one per process run."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = 0
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.emitted: list[tuple[np.ndarray, object]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def add(self, metric: str, amount: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        """fn with a span named name around each active call; after(result,
        args, kwargs) records counts once the call has returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by its traced version, or record it as absent."""
        self._replace(owner, attr, lambda fn: self.wrap(name, fn, after))

    def patch_resolver(self, owner, after) -> None:
        """Trace the functionals that owner.resolve_functional hands out."""

        def wrap_returned(fn):
            @functools.wraps(fn)
            def resolve(*args, **kwargs):
                return self.wrap("core.functional", fn(*args, **kwargs), after)

            return resolve

        self._replace(owner, "resolve_functional", wrap_returned)

    def _replace(self, owner, attr: str, make) -> None:
        if attr not in vars(owner):
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def install(self, pkg) -> None:
        """Wrap the public functions of every bottleneck_lab layer."""
        # core and closed_forms are reached only through the names that
        # cli, sweep, envelope, oracle and acceptance bind.
        cli, env, sw = pkg.cli, pkg.envelope, pkg.sweep
        acc, orc = pkg.acceptance, pkg.oracle

        for attr in ("load_joint", "decompose_joint", "bsc_joint"):
            self.patch(cli, attr, "core.ingest")

        def rows(result, args, kwargs):
            self.add("core.functional_rows", np.atleast_2d(args[0]).shape[0])

        for owner in (sw, env, acc, orc):
            self.patch_resolver(owner, rows)

        def lattice_points(result, args, kwargs):
            self.add("envelope.lattice_points", result.size)

        self.patch(env.SimplexLattice, "build", "envelope.lattice", lattice_points)
        for owner in (sw, acc):
            self.patch(owner, "build_lagrangian_graph", "envelope.graph")
            self.patch(owner, "envelope_general", "envelope.facet_scan")
        for attr in ("lower_envelope_1d", "upper_envelope_1d"):
            self.patch(sw, attr, "envelope.hull1d")

        def facets(result, args, kwargs):
            self.add("envelope.qhull_facets", result.simplices.shape[0])

        self.patch(env, "ConvexHull", "envelope.qhull", facets)
        self.patch(sw, "barycentric_weights", "envelope.bary")

        def emitted_curve(result, args, kwargs):
            self.emitted.append((_marginal_arg(args, kwargs), result.points))

        def emitted_point(result, args, kwargs):
            self.emitted.append((_marginal_arg(args, kwargs), (result,)))

        self.patch(cli, "problem_curve", "sweep")
        for owner in (sw, acc):
            self.patch(owner, "sweep", "sweep", emitted_curve)
        self.patch(acc, "boundary_point_at_lambda", "sweep", emitted_point)
        self.patch(acc, "matched_channel_invariance_check", "sweep")
        self.patch(acc, "default_lambda_grid", "sweep")

        for attr in ("mrs_gerber", "mr_gerber", "mr_gerber_point"):
            self.patch(acc, attr, "closed_forms")
        self.patch(acc, "oracle_exhaustive_binary", "oracle")
        self.patch(orc, "oracle_boundary", "oracle")

    def per_layer(self, rounds: int, round_walls: list[float]) -> dict[str, float]:
        """Per-round layer metrics from the recorded spans."""
        n = len(self.spans)
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=int)
        names = [s[0] for s in self.spans]
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        out: dict[str, float] = {m: 0.0 for m in SELF_METRIC.values()}
        out.update({m: 0.0 for m in CALL_METRIC.values()})
        for key in ("acceptance.A4_s", "acceptance.A5_s", "acceptance.A7_s"):
            out[key] = 0.0
        slopes = 0
        for i, name in enumerate(names):
            out[SELF_METRIC[name]] += self_time[i]
            if name in CALL_METRIC:
                out[CALL_METRIC[name]] += 1
            if name.startswith("acceptance.A"):
                out[name + "_s"] += dur[i]
            if name in _ENVELOPE_SPANS and self._inside(i, "sweep", parent, names):
                slopes += 1
        for metric, total in self.counts.items():
            out[metric] = total
        for key in ("core.functional_rows", "envelope.lattice_points", "envelope.qhull_facets"):
            out.setdefault(key, 0.0)

        points, shift, atoms = 0, 0.0, 0
        for q_input, emitted in self.emitted:
            for point in emitted:
                points += 1
                weights = point.witness.weights()
                if q_input is not None:
                    mix = weights @ point.witness.conditionals()
                    shift = max(shift, float(np.abs(mix - q_input).max()))
                atoms = max(atoms, len(weights))
        out = {k: v / rounds for k, v in out.items()}
        out["sweep.slopes"] = slopes / rounds
        out["sweep.points"] = points / rounds
        out["sweep.useful_ratio"] = points / slopes if slopes else 0.0
        out["sweep.marginal_shift"] = shift
        out["sweep.max_atoms"] = float(atoms)

        roots = dur[parent < 0].sum()
        wall = float(sum(round_walls))
        out["trace.wall_s"] = wall / rounds
        out["trace.remainder_s"] = (wall - roots) / rounds
        out["trace.spans"] = n / rounds
        out["trace.overhead_s"] = n * _span_cost() / rounds
        out["trace.absent_sites"] = float(len(self.absent))
        return {k: float(v) for k, v in out.items()}

    @staticmethod
    def _inside(i: int, name: str, parent: np.ndarray, names: list[str]) -> bool:
        j = parent[i]
        while j >= 0:
            if names[j] == name:
                return True
            j = parent[j]
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "op_id"],
            "absent": self.absent,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def _marginal_arg(args, kwargs) -> np.ndarray | None:
    """The q argument of sweep and boundary_point_at_lambda, if passed."""
    q = kwargs["q"] if "q" in kwargs else args[3] if len(args) > 3 else None
    return None if q is None else np.asarray(getattr(q, "probs", q), dtype=float)


def _span_cost(calls: int = 20000) -> float:
    """Seconds one active wrapper adds to a call, measured on a no-op."""

    def noop():
        return None

    probe = Tracer()
    probe.active = True
    traced = probe.wrap("probe", noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        traced()
    cost = (perf_counter() - t0 - bare) / calls
    return max(cost, 0.0)
