#!/usr/bin/env python3
"""Run every workload on several seeds and summarize the spread.

    python3 bench/baseline.py --seeds 701-710 --out bench/baseline.json

For each workload and end-to-end metric: the values, their median,
quartiles (statistics.quantiles, n=4) and the quartile distance as a
share of the median, next to the bound BENCHMARK.json fixes. Then one
traced run per workload, on the first seed, for the per-layer metrics. Each run's details
(per-operation seeds, times and output digests) are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(spec, workload, seed, trace) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"exit": proc.returncode, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0}


def ops_summary(ops):
    """Per-operation records for the planners; on track, the counts and
    digest without the hundreds of per-execution times."""
    return ops if isinstance(ops, list) else {k: v for k, v in ops.items() if k != "s"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="101-110", help="inclusive range lo-hi")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"seeds": [lo, hi], "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in range(lo, hi + 1):
            r = run(spec, name, seed, 0)
            runs.append(r)
            ok &= r["exit"] == 0 and r["result"]["correct"]
            print(name, seed, r["exit"], {k: round(v["value"], 4)
                                          for k, v in r["result"]["metrics"].items()}, flush=True)
        summary = {}
        for metric in bounds:
            s = spread([r["result"]["metrics"][metric]["value"] for r in runs])
            summary[metric] = {**s, "bound": bounds[metric]}
            print(f"  {metric}: median {s['median']:.4g} spread {s['iqr_share']:.3f} "
                  f"(bound {bounds[metric]})", flush=True)
        traced = run(spec, name, lo, 1)
        ok &= traced["exit"] == 0 and traced["result"]["correct"]
        doc["workloads"][name] = {
            "end_to_end": summary,
            "runs": [{"seed": lo + i, "exit": r["exit"], "result": r["result"],
                      "ops": ops_summary(r["detail"]["ops"]), "setup_s": r["detail"]["setup_s"],
                      "wall_s": r["detail"]["wall_s"]}
                     for i, r in enumerate(runs)],
            "traced": {"seed": lo, "exit": traced["exit"], "result": traced["result"],
                       "hooks": traced["detail"]["hooks"]},
        }
        doc["environment"] = runs[0]["detail"]["environment"]
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
