#!/usr/bin/env python3
"""Smoke-sized self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it runs
perfbench/run.py briefly with --trace 0 and --trace 1 and checks that:
  - the last stdout line is a JSON object with exactly the contract's keys;
  - every named metric is present with its unit and a finite value;
  - the correctness gate ran (its checks are listed) and passed.
It then checks that the gate can fail: a run with --break-gate (one installed
rule removed behind the controller's back) must report correct=false and
exit non-zero. Finally it checks that, in a directory holding only
BENCHMARK.json and perfbench/, the benchmark exits non-zero without a result.
Exits non-zero on the first failed expectation.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1"
GATE_LINES = ("all events completed", "every working-set flow installed",
              "InvariantChecker::check() empty", "txns_committed == expected-good")


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py"] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def expect(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_result(lines, wanted, label):
    expect(bool(lines), f"{label}: printed output")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result has exactly correct/attempted/failed/metrics")
    expect(result["correct"] is True, f"{label}: correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted >= 1")
    expect(result["failed"] == 0, f"{label}: failed == 0")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        expect(got is not None and got["unit"] == m["unit"]
               and isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{label}: metric {m['name']} [{m['unit']}]")
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{label}: no metrics beyond BENCHMARK.json's list")
    text = "\n".join(lines)
    for g in GATE_LINES:
        expect(f"[ok] {g}" in text, f"{label}: gate check '{g}' ran and passed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{w['name']} --trace {trace}"
            proc, lines = run(["--workload", w["name"], "--seed", "7",
                               "--seconds", SECONDS, "--trace", trace])
            expect(proc.returncode == 0, f"{label}: exit code 0 (got {proc.returncode})")
            check_result(lines, spec[key], label)

    first = spec["workloads"][0]["name"]
    proc, lines = run(["--workload", first, "--seed", "7", "--seconds", SECONDS,
                       "--trace", "0", "--break-gate"])
    expect(proc.returncode != 0, "sabotaged run exits non-zero")
    expect(bool(lines) and json.loads(lines[-1])["correct"] is False,
           "sabotaged run reports correct=false")
    expect("[FAIL] every working-set flow installed" in proc.stdout,
           "sabotaged run names the failed check")

    stripped = ROOT / ".bench_build" / "selftest-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", stripped / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", first,
                           "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
                          cwd=stripped, capture_output=True, text=True, timeout=180,
                          env={"PATH": "/usr/bin:/bin"})
    shutil.rmtree(stripped, ignore_errors=True)
    expect(proc.returncode != 0, "without the sources the benchmark exits non-zero")
    expect(not any(l.startswith("{") for l in proc.stdout.splitlines()),
           "without the sources the benchmark prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
