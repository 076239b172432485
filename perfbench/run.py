#!/usr/bin/env python3
"""End-to-end benchmark of the solver and the waveform service.

Usage (from the repository root):

    python3 perfbench/run.py --workload bbh_global --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/ on first use,
runs one workload in .bench_build/work/, checks the correctness values the
run reports against perfbench/reference.json, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Exits 1 when a check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the benchmark binary; quiet on success."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(["cmake", "--build", str(BUILD), "--target",
                          "perfbench", "-j", jobs],
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True)
    if res.returncode != 0:
        log(res.stdout[-8000:])
        raise RuntimeError("build failed")
    return BUILD / "perfbench"


def reference_failures(workload, checks):
    """Compare the run's correctness values with perfbench/reference.json."""
    refs = json.loads((HERE / "reference.json").read_text())[workload]
    failures = []
    for name, ref in refs.items():
        got = checks.get(name)
        if got is None:
            failures.append(f"{name}: not reported")
        elif abs(got - ref["value"]) > ref["rel_tol"] * abs(ref["value"]):
            failures.append(f"{name}={got:.6g} outside {ref['value']:.6g}"
                            f" +/- {100 * ref['rel_tol']:g}%")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload}")
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    listed = spec["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           args.trace]
    res = subprocess.run(cmd, cwd=WORK, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {res.returncode}")
    for line in lines[:-1]:
        print(line)
    run = json.loads(lines[-1])

    names = {m["name"] for m in listed}
    if set(run["metrics"]) != names:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(run['metrics']) ^ names)}")
    failures = list(run["failures"])
    attempted, failed = run["attempted"], run["failed"]
    if args.trace == "0" and args.workload != "serve_mix":
        extra = reference_failures(args.workload, run["checks"])
        attempted += 1
        failed += 1 if extra else 0
        failures += extra
    for f in failures:
        print(f"  FAILED: {f}")
    print(f"  failed_frac                  {failed / max(1, attempted):.6g}"
          f"  ({failed} of {attempted} checks, lost or refused requests)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]],
                                "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
