#!/usr/bin/env python3
"""Smoke check of the benchmark harness, kept out of the test suite.

    python3 bench/smoke.py

Runs every workload once at a tiny size, untimed, with tracing off and on,
and applies each operation's output check.  Exits 1 if any run fails its
check or prints a metric set other than the one BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"] for m in declared["end_to_end"]},
        True: {m["name"] for m in declared["per_layer"]},
    }
    failures = 0
    for name in run.WORKLOADS:
        for trace in (False, True):
            out = run.run_workload(name, seed=0, seconds=0.0, trace=trace, smoke=True)
            res = out["result"]
            problems = list(out["reasons"])
            if set(res["metrics"]) != expected[trace]:
                problems.append(f"metric set differs: {sorted(set(res['metrics']) ^ expected[trace])}")
            ok = res["correct"] and res["attempted"] >= 1 and not problems
            failures += not ok
            print(f"{name} trace={int(trace)}: {'ok' if ok else 'FAIL'} "
                  f"({res['attempted']} attempted, {res['failed']} failed)")
            for problem in problems:
                print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
