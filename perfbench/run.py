#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/legobench from the
checkout's sources (CMake, into $CARGO_TARGET_DIR or .bench_build), runs it,
and prints as the last stdout line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Exits non-zero when the
build fails, the program fails, or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # the whole run, build included, must end within 180 s
BUILD_LIMIT_S = 880  # a first build in a fresh checkout may take longer


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then build incrementally. Returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("LegoSDN sources (src/) not found next to perfbench/")
    bdir.mkdir(parents=True, exist_ok=True)
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    subprocess.run(
        ["cmake", "--build", str(bdir), "--target", "legobench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    return bdir / "legobench"


def source_digest():
    """Identify the code under test: the git commit when there is one,
    otherwise a digest of every source file the benchmark compiles."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git " + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sha256 " + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--break-gate", action="store_true",
                    help="self-test only: sabotage one rule so the gate must fail")
    args = ap.parse_args()
    started = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {sorted(names)}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(bdir / f"spans-{args.workload}-{args.seed}.tsv")]
    if args.break_gate:
        cmd.append("--break-gate")
    # A first build may take most of the first run's allowance; after it the
    # program itself still gets the per-run limit.
    limit = max(RUN_LIMIT_S - (time.monotonic() - started), RUN_LIMIT_S - 10)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"legobench did not finish within {limit:.0f} s")
        return 1
    sys.stderr.write(proc.stderr)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        log(f"legobench exited {proc.returncode} without a result")
        return 1
    print(f"  {'source':16s} {source_digest()}")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}: {got}")
            return 1
        metrics[m["name"]] = got
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
