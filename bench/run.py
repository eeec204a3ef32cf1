#!/usr/bin/env python3
"""beliefplan benchmark: time to plan, and time per tracked execution.

Run from the repository root:

    python3 bench/run.py --workload lightdark --seed 0 --seconds 38 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  lightdark   synthesis.solve on problems/lightdark.json, consecutive RRT seeds
  darkswitch  synthesis.solve on bench/darkswitch.json, consecutive RRT seeds
  track       LQR-tracked executions of bench/track_reference.csv

One process runs a closed loop: one operation at a time, no worker
threads, BLAS/OpenMP threads pinned to 1. --seconds fixes the number of
operations through each workload's nominal cost per operation, so the
inputs depend only on --seed and --seconds. With --trace 0 the last stdout
line carries the end-to-end metrics; with --trace 1 the per-layer
metrics from spans recorded around the calls into each module. The line
before it holds the run's details: environment, per-operation seeds,
times and output digests, and hook status. Exit status 0 means every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 10  # fresh set-up processes per run, spread between its operations

PLAN_HOOKS = (
    "beliefplan.synthesis.solve", "beliefplan.synthesis.bmc_next_candidate",
    "beliefplan.discrete_planner.monitor_word", "beliefplan.synthesis.monitor_word",
    "beliefplan.synthesis.solve_segment", "beliefplan.belief_rrt.rrt_select",
    "beliefplan.belief_rrt.rrt_extend", "beliefplan.belief_rrt.rrt_drain",
    "beliefplan.belief_rrt.propagate_mlo", "beliefplan.belief_rrt.cone_contains",
    "beliefplan.dynamics.make_belief", "beliefplan.synthesis.monitor",
    "beliefplan.formula.cone_contains", "beliefplan.cli.load_problem",
)
EXPECTED_HOOKS = {
    "lightdark": PLAN_HOOKS + (
        "beliefplan.cli.run", "beliefplan.cli.solve", "beliefplan.cli.simulate",
        "beliefplan.tracking.kalman_update", "beliefplan.formula.monitor",
    ),
    "darkswitch": PLAN_HOOKS,
    "track": (
        "beliefplan.tracking.simulate", "beliefplan.formula.monitor",
        "beliefplan.tracking.kalman_update", "beliefplan.dynamics.make_belief",
        "beliefplan.formula.cone_contains", "beliefplan.cli.load_problem",
    ),
}
# Spans that must not appear on a workload (track plans nothing).
FORBIDDEN_SPANS = {"track": ("synthesis.", "discrete_planner.", "belief_rrt.")}


class LayerCounters:
    """Per-operation counts read from hooked calls' arguments and results."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.extends_ok = 0
        self.timeouts = 0
        self.trees = {}

    def on_extend(self, args, result):
        self.extends_ok += result is not None

    def on_segment(self, args, result):
        self.timeouts += getattr(result, "status", None) == "timeout"

    def on_drain(self, args, result):
        self.trees[id(args[0])] = args[0]

    def snapshot(self) -> dict:
        nodes, active = 0, 0
        if self.trees:
            largest = max(self.trees.values(), key=len)
            nodes = len(largest)
            active = sum(1 for node in largest if getattr(node, "active", True))
        return {
            "extends_ok": self.extends_ok,
            "timeouts": self.timeouts,
            "tree_nodes_max": nodes,
            "active_share": active / nodes if nodes else 0.0,
        }


def hooks(counters: LayerCounters):
    """(module, attribute, span name, observer): each function is hooked
    in the namespace of the module that calls it."""
    bp = "beliefplan."
    return [
        (bp + "synthesis", "solve", "synthesis.solve", None),
        (bp + "cli", "solve", "synthesis.solve", None),
        (bp + "synthesis", "bmc_next_candidate", "discrete_planner.bmc_next_candidate", None),
        (bp + "discrete_planner", "monitor_word", "formula.monitor_word", None),
        (bp + "synthesis", "monitor_word", "formula.monitor_word", None),
        (bp + "synthesis", "solve_segment", "belief_rrt.solve_segment", counters.on_segment),
        (bp + "belief_rrt", "rrt_select", "belief_rrt.rrt_select", None),
        (bp + "belief_rrt", "rrt_extend", "belief_rrt.rrt_extend", counters.on_extend),
        (bp + "belief_rrt", "rrt_drain", "belief_rrt.rrt_drain", counters.on_drain),
        (bp + "belief_rrt", "propagate_mlo", "dynamics.propagate_mlo", None),
        (bp + "belief_rrt", "cone_contains", "geometry.cone_contains", None),
        (bp + "formula", "cone_contains", "geometry.cone_contains", None),
        (bp + "dynamics", "make_belief", "gaussian.make_belief", None),
        (bp + "synthesis", "monitor", "formula.monitor", None),
        (bp + "formula", "monitor", "formula.monitor", None),
        (bp + "tracking", "simulate", "tracking.simulate", None),
        (bp + "cli", "simulate", "tracking.simulate", None),
        (bp + "tracking", "kalman_update", "dynamics.kalman_update", None),
        (bp + "cli", "load_problem", "cli.load_problem", None),
        (bp + "cli", "run", "cli.run", None),
    ]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("lightdark", "darkswitch", "track"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--iteration-cap", type=int, default=None, help="override the RRT iteration cap")
    ap.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS)
    ap.add_argument("--spans", default=None, help="write every recorded span (CSV) here")
    return ap.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "beliefplan")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # benchmark checkouts may not be repositories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR, TESTS])
    return env


def measure_setup(problem: str, repeats: int) -> list:
    """Wall time of fresh processes that import beliefplan, validate the
    problem as `beliefplan --validate-only` does and load the reference."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, probe, problem], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def run_ops(op, count: int, before=None, after=None) -> list:
    """Closed loop: operations 0 .. count-1, one at a time."""
    results = []
    for i in range(count):
        if before is not None:
            before(i)
        t0 = time.perf_counter()
        try:
            res = op(i)
        except Exception as exc:  # a crash counts as a failed operation
            res = {"s": time.perf_counter() - t0, "errors": [f"{type(exc).__name__}: {exc}"],
                   "satisfied": False, "steps": None}
        if after is not None:
            after(res)
        results.append(res)
    return results


def run_untraced(args, wl, op, count) -> tuple:
    """The operations, with the set-up probes spread evenly between
    them, so that set-up and operations are sampled over the same span
    of the machine's speed."""
    slots = [round(j * count / args.setup_repeats) for j in range(args.setup_repeats)]
    setup = []

    def probe(i):
        setup.extend(measure_setup(wl.problem, slots.count(i)))

    ops = run_ops(op, count, before=probe)
    probe(count)
    return ops, setup


def check_cli_outputs(out_dir: str, problem) -> list:
    """The CLI's plan.json, trajectory.csv and simulation.csv, checked
    with the oracle and by shape."""
    import oracles
    import workloads

    errors = []
    with open(os.path.join(out_dir, "plan.json")) as fh:
        if json.load(fh).get("status") != "solution":
            errors.append("CLI plan.json has no solution")
    ref = workloads.load_reference(os.path.join(out_dir, "trajectory.csv"))
    if not oracles.oracle_monitor(problem.formula, ref, 0):
        errors.append("oracle monitor rejects the CLI trajectory")
    with open(os.path.join(out_dir, "simulation.csv")) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# satisfied: ") or len(lines) != ref.num_steps + 3:
        errors.append("CLI simulation.csv is malformed")
    return errors


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(kind, ops, sums, counts, extras) -> dict:
    """Per-layer metrics. Counts come from the run's first traced
    operation (exact for a fixed seed); times are medians per operation;
    per-call times are totals over all traced calls."""
    s0, c0 = sums[0], counts[0]

    def calls(name, s=s0):
        return s.get(name, {}).get("calls", 0)

    def per_op(name, key="s"):
        return median([s.get(name, {}).get(key, 0.0) for s in sums])

    def share(name):
        return median([s.get(name, {}).get("s", 0.0) / op["s"] for s, op in zip(sums, ops)])

    def per_call(name, scale):
        n = sum(calls(name, s) for s in sums)
        t = sum(s.get(name, {}).get("s", 0.0) for s in sums)
        return t / n * scale if n else 0.0

    plan = kind == "plan"
    iterations = calls("belief_rrt.rrt_select")
    return {
        "synthesis.cegis_iterations": ops[0].get("cegis_iterations", 0) if plan else 0,
        "synthesis.counterexamples": ops[0].get("counterexamples", 0) if plan else 0,
        "synthesis.plan_steps": (ops[0]["steps"] or 0) if plan else 0,
        "discrete_planner.bmc_calls": calls("discrete_planner.bmc_next_candidate"),
        "discrete_planner.bmc_s": per_op("discrete_planner.bmc_next_candidate"),
        "discrete_planner.bmc_self_s": per_op("discrete_planner.bmc_next_candidate", "self_s"),
        "discrete_planner.bmc_share": share("discrete_planner.bmc_next_candidate"),
        "formula.word_monitor_calls": calls("formula.monitor_word"),
        "formula.word_monitor_s": per_op("formula.monitor_word"),
        "formula.word_monitor_us": per_call("formula.monitor_word", 1e6),
        "belief_rrt.segments": calls("belief_rrt.solve_segment"),
        "belief_rrt.segment_timeouts": c0["timeouts"],
        "belief_rrt.rrt_s": per_op("belief_rrt.solve_segment"),
        "belief_rrt.rrt_share": share("belief_rrt.solve_segment"),
        "belief_rrt.iterations": iterations,
        "belief_rrt.select_s": per_op("belief_rrt.rrt_select"),
        "belief_rrt.drain_s": per_op("belief_rrt.rrt_drain"),
        "belief_rrt.extend_s": per_op("belief_rrt.rrt_extend"),
        "belief_rrt.extend_yield": c0["extends_ok"] / iterations if iterations else 0.0,
        "belief_rrt.tree_nodes_max": c0["tree_nodes_max"],
        "belief_rrt.active_share": c0["active_share"],
        "dynamics.propagate_mlo_calls": calls("dynamics.propagate_mlo"),
        "dynamics.propagate_mlo_us": per_call("dynamics.propagate_mlo", 1e6),
        "gaussian.make_belief_calls": calls("gaussian.make_belief"),
        "gaussian.make_belief_us": per_call("gaussian.make_belief", 1e6),
        "geometry.cone_contains_calls": calls("geometry.cone_contains"),
        "geometry.cone_contains_us": per_call("geometry.cone_contains", 1e6),
        "dynamics.kalman_update_calls": calls("dynamics.kalman_update"),
        "dynamics.kalman_update_us": per_call("dynamics.kalman_update", 1e6),
        "tracking.simulate_s": per_op("tracking.simulate"),
        "formula.trace_monitor_calls": calls("formula.monitor"),
        "formula.trace_monitor_ms": per_call("formula.monitor", 1e3),
        **extras,
    }


LAYER_UNITS = {"_calls": "count", "_us": "us", "_ms": "ms", "_s": "s"}


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.endswith(("_share", "_yield", ".overhead")):
        return "ratio"
    return {"synthesis.plan_steps": "steps", "belief_rrt.tree_nodes_max": "nodes"}.get(name, "count")


def run_traced(args, wl, op, count, detail) -> tuple:
    """The operations, traced. The overhead is estimated from the cost
    of one hook times the spans each operation recorded."""
    from beliefplan import cli
    from tracer import Tracer, hook_cost

    cost = hook_cost()
    counters = LayerCounters()
    errors, extras = [], {}
    sums, counts = [], []
    with Tracer(hooks(counters)) as tracer:
        cli.load_problem(wl.problem)
        cli_run_s = cli_self_s = 0.0
        if wl.name == "lightdark":
            out_dir = os.path.join(TMP_DIR, "cli")
            lo = len(tracer)
            code = cli.run(["--problem", wl.problem, "--out", out_dir, "--seed", str(args.seed * 1000)])
            s = tracer.summary(lo)
            cli_run_s = s["cli.run"]["s"]
            cli_self_s = cli_run_s - sum(
                s.get(n, {}).get("s", 0.0) for n in ("synthesis.solve", "tracking.simulate")
            )
            try:
                errors += [f"CLI exit code {code}"] if code else check_cli_outputs(out_dir, op.problem)
            except (OSError, ValueError, KeyError) as exc:
                errors.append(f"CLI outputs unreadable: {exc}")
        marks = []
        ops = run_ops(
            op, count,
            before=lambda i: (counters.reset(), marks.append(len(tracer))),
            after=lambda res: (sums.append(tracer.summary(marks[-1])), counts.append(counters.snapshot())),
        )
        run_summary = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
        fired = tracer.fired_counts()
        absent = list(tracer.absent)
    for target in EXPECTED_HOOKS[wl.name]:
        if fired.get(target, 0) == 0:
            errors.append(f"expected hook {target} " + ("is absent" if target in absent else "never fired"))
    for prefix in FORBIDDEN_SPANS.get(wl.name, ()):
        errors += [f"unexpected span {n}" for n in run_summary if n.startswith(prefix)]
    spans = [sum(v["calls"] for v in s.values()) for s in sums]
    loads = run_summary.get("cli.load_problem", {"s": 0.0, "calls": 0})
    extras.update({
        "cli.load_problem_s": loads["s"] / loads["calls"] if loads["calls"] else 0.0,
        "cli.run_s": cli_run_s,
        "cli.self_s": cli_self_s,
        "trace.overhead": median([r["s"] / (r["s"] - n * cost) for r, n in zip(ops, spans)
                                  if r["s"] > n * cost]),
        "trace.op_s": median([r["s"] for r in ops]),
    })
    detail["hooks"] = {"fired": fired, "absent": absent}
    detail["spans"] = run_summary
    detail["hook_cost_us"] = cost * 1e6
    metrics = layer_metrics(wl.kind, ops, sums, counts, extras)
    return ops, errors, {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beliefplan", "__init__.py")) or not os.path.isfile(
        os.path.join(TESTS, "oracles.py")
    ):
        print("error: run from a beliefplan checkout (src/beliefplan and tests/oracles.py missing)",
              file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads; inherited by CLI children
    sys.path[:0] = [SRC, BENCH_DIR, TESTS]

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    count = wl.op_count(args.seconds)
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "operations": count, "environment": environment()}
    try:
        if wl.kind == "plan":
            op = workloads.PlanOps(wl, args.seed, args.iteration_cap)
        else:
            op = workloads.TrackOps(wl, args.seed)
        if args.trace:
            ops, errors, metrics = run_traced(args, wl, op, count, detail)
        else:
            ops, setup = run_untraced(args, wl, op, count)
            errors = []
            satisfied = sum(1 for r in ops if r["satisfied"] and not r["errors"])
            metrics = {
                "setup_s": {"value": median(setup), "unit": "s"},
                "op_s": {"value": median([r["s"] for r in ops]), "unit": "s"},
                "sat_frac": {"value": satisfied / len(ops), "unit": "ratio"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
            detail["setup_s"] = setup
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    failed = sum(1 for r in ops if r["errors"])
    errors += [e for r in ops for e in r["errors"]]
    detail["ops"] = [
        {k: r.get(k) for k in ("seed", "s", "steps", "satisfied", "digest", "errors") if k in r}
        for r in ops
    ] if wl.kind == "plan" else {
        "count": len(ops),
        "satisfied": sum(1 for r in ops if r["satisfied"]),
        "digest": op.digest.hexdigest(),
        "s": [r["s"] for r in ops],
    }
    detail["errors"] = errors
    detail["wall_s"] = time.perf_counter() - t_start
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
