"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs all three passes of every workload at small sizes, untraced and
traced, and checks that every metric BENCHMARK.json names is reported with
its unit, that every trace hook found its target and that no operation
failed.  Then corrupts one reference value and checks that operations
fail, which proves the correctness gate fires, and checks that the
full-size instances at the recorded seeds still have the fingerprints in
`record.json`.  Exits 1 on any problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
from workloads import record

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                r, metrics = run.run(wl, 1, 0.1, trace, small=True)
                result = run.report(r, metrics, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{wl} trace {int(trace)}: metrics {got} "
                                f"are not {want}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{wl}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{wl} trace {int(trace)}: {r.failures}")
            if len(r.probes) != len(r.wl.probe):
                problems.append(f"{wl}: {len(r.probes)} probe outcomes")
            if trace and r.tracer.missing:
                problems.append(f"{wl}: missing hooks {r.tracer.missing}")
            print(f"{wl} trace {int(trace)}: {len(got)} metrics, "
                  f"{r.failed} of {r.attempted} ops failed")

    r, _ = run.run("flat", 1, 0.1, False, small=True, corrupt=True)
    print(f"corrupted reference: {r.failed} of {r.attempted} ops failed")
    if r.failed == 0:
        problems.append("a corrupted reference value went unnoticed")

    if record() != json.loads((HERE / "record.json").read_text()):
        problems.append("instances differ from record.json")
    else:
        print("full-size instances match record.json")

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
