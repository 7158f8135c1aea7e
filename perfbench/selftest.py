#!/usr/bin/env python3
"""Self-tests of the kgeval benchmark, on the smallest preset (codex-s).

    python3 perfbench/selftest.py

1. Smoke: every workload of BENCHMARK.json runs once untraced and once
   traced; each must pass its gates and emit exactly the metric names of
   BENCHMARK.json (end_to_end, per_layer) with their units.
2. Gates: each correctness gate must fail on a planted defect (one
   perturbed engine rank, one perturbed full-ranking rank, one flipped
   byte in a served EVAL reply): the run exits non-zero and reports
   correct=false with failed operations.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_PRESET = "codex-s"
SMOKE_SECONDS = "2"
DEFECTS = ("sampled-rank", "full-rank", "reply-byte")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace",
           str(trace), "--preset", SMOKE_PRESET, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result = run(workload, trace)
            what = f"{workload} --trace {trace}"
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{what} passes its gates")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{what} emits exactly the BENCHMARK.json metrics with "
                  f"their units (missing {sorted(set(expected[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected[trace]))}, "
                  f"unit mismatches "
                  f"{sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])})")
    workload = bench["workloads"][0]["name"]
    for defect in DEFECTS:
        code, result = run(workload, 0, "--inject", defect)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"planted defect {defect} fails its gate")
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
