#!/usr/bin/env python3
"""Self-test of the benchmark at a small size (256 cliques, 4096 nodes).

    python3 perfbench/selftest.py

Builds dcbench as run.py does, then checks, for every workload and both
passes (--trace 0 and --trace 1):
  - the run is correct, no solve failed, and at seed 1 the rounds and
    coloring hash equal the recorded reference;
  - the printed metrics are exactly the ones BENCHMARK.json declares for
    that pass, each with its declared unit;
  - the traced pass colors exactly as the registry entry does. For det
    this is the benchmark's own composition of the layer calls;
  - the trace file holds span and ledger-counter events.
It also checks that a coloring corrupted on the benchmark's side counts as
a failed solve, and that the harness refuses to run while
DELTACOLOR_FAULTS is set. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

CLIQUES = "256"
WORKLOADS = ["det-hard-1m", "rand-hard-1m", "trial-hard-1m", "det-mixed-1m"]


def declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = run.build_dir()
    binary = run.build(out_dir)
    work = os.path.join(out_dir, "selftest")
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    def bench(workload, trace, *extra, env=None):
        cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--work-dir", work, "--cliques", CLIQUES,
               *extra]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                           env=env)
        lines = p.stdout.strip().splitlines()
        result = None
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines[-1])
        return p.returncode, result

    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(rc == 0 and result is not None,
                   f"{tag}: exits 0 with a result")
            if result is None:
                continue
            keys = ["attempted", "correct", "failed", "metrics"]
            expect(sorted(result) == keys,
                   f"{tag}: result has exactly the four result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag}: every solve passed")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared(spec, key),
                   f"{tag}: metrics and units are the declared {key} ones")
            path = os.path.join(work, f"{workload}-seed1.report.json")
            with open(path) as f:
                report = json.load(f)
            expect(report["reference"]["golden"] == "match",
                   f"{tag}: rounds and hash match the recorded reference")
            if trace == 1:
                traced = [s for s in report["solves"] if s["traced"]]
                untraced = {s["hash"] for s in report["solves"]
                            if not s["traced"]}
                expect(len(traced) == 1 and untraced == {traced[0]["hash"]},
                       f"{tag}: traced pass hash equals the registry entry's")
                with open(report["trace_file"]) as f:
                    phases = {e["ph"] for e in json.load(f)["traceEvents"]}
                expect({"X", "C"} <= phases,
                       f"{tag}: trace holds spans and ledger counters")

    rc, result = bench("det-hard-1m", 0, "--corrupt-solve", "0")
    expect(result is not None and not result["correct"]
           and result["failed"] >= 1
           and result["metrics"]["ok_frac"]["value"] < 1,
           "a corrupted coloring counts as a failed solve")

    env = dict(os.environ, DELTACOLOR_FAULTS="engine-throw@round=1")
    rc, result = bench("trial-hard-1m", 0, env=env)
    expect(rc != 0 and result is None,
           "refuses to run while DELTACOLOR_FAULTS is set")

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
