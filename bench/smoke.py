#!/usr/bin/env python3
"""Smoke test of the benchmark itself, kept out of the test suite.

Runs every workload at a tiny size (one or a few operations, a small
RRT cap on darkswitch), untraced and traced, and checks that each run
passes its own correctness gate and prints exactly the metrics that
BENCHMARK.json lists, with their units. Then checks that two runs of
one seed give the same output digest, and that the benchmark
refuses to run, without printing a result, in a directory that holds
only BENCHMARK.json and the benchmark's files.

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# --seconds this short gives one solve, or three tracked executions.
TINY = {
    "lightdark": ["--seconds", "1"],
    "darkswitch": ["--seconds", "1", "--iteration-cap", "400"],
    "track": ["--seconds", "0.27"],
}
TMP_DIR = os.path.join(ROOT, ".bench_smoke")
SPANS = os.path.join(TMP_DIR, "spans.csv")


def run(cwd, workload, trace, extra=("--seconds", "1")):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "0", "--trace", str(trace), "--setup-repeats", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_runs(spec) -> list:
    failures = []
    for workload, extra in TINY.items():
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            if workload == "track" and trace:
                extra = [*extra, "--spans", SPANS]
            proc = run(ROOT, workload, trace, extra)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}{proc.stdout[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                failures.append(f"{label}: bad result {lines[-1][:500]}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                failures.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            print(f"ok  {label}: {result['attempted']} op(s)", flush=True)
    try:
        with open(SPANS) as fh:
            spans = fh.read().splitlines()
    except OSError as exc:
        return failures + [f"--spans file unreadable: {exc}"]
    if len(spans) < 2 or spans[0] != "span,name,parent,start_s,end_s":
        failures.append("--spans file is malformed")
    return failures


def check_digest_repeats() -> list:
    """Two runs of one seed make the same executions, so their output
    digests agree."""
    digests = []
    for _ in range(2):
        proc = run(ROOT, "track", 0, TINY["track"])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            return [f"track digest run: exit {proc.returncode}"]
        digests.append(json.loads(lines[-2])["detail"]["ops"]["digest"])
    if digests[0] != digests[1]:
        return [f"track digests differ between runs of one seed: {digests}"]
    print("ok  track digest repeats", flush=True)
    return []


def check_bare_directory() -> list:
    bare = os.path.join(TMP_DIR, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "track", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    print("ok  bare directory refused", flush=True)
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    shutil.rmtree(TMP_DIR, ignore_errors=True)
    os.makedirs(TMP_DIR)
    try:
        failures = check_runs(spec) + check_digest_repeats() + check_bare_directory()
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
