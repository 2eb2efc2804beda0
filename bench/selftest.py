"""Smoke test of the benchmark: each workload at a tiny size, untraced and traced.

    python3 bench/selftest.py

Checks that every item passes, that the metrics printed are exactly those
BENCHMARK.json declares (names and units) and that the traced run's layer
predictions hold.  Exits 0 on success, 1 with the problems listed otherwise.
Takes about half a minute.
"""

from __future__ import annotations

import json
import os

import run  # pins BLAS threads and puts the sposchur sources on sys.path

import workloads  # noqa: E402


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            record, result = run.measure(workload, seed=1, seconds=0, trace=trace,
                                         tiny=True, min_items=1)
            where = f"{workload} trace={trace}"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{where}: metrics {sorted(got.items())} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {record['problems']} {record['errors']}")
            if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: non-numeric metric value")
            print(f"{where}: {result['attempted']} items, correct={result['correct']}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
