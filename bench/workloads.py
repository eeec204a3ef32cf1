"""Workload inputs, timed operations and the correctness gate.

Every operation is timed around the call into beliefplan only; its
checks run afterwards, untimed. The checks use no code under test for
their verdicts: trajectories and tracked verdicts are re-evaluated with
the brute-force oracle of ``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

import oracles
from beliefplan import cli, formula, synthesis, tracking
from beliefplan.gaussian import make_belief

# The oracle recomputes the same few normal quantiles by 200-step
# bisection on every atomic evaluation; memoizing that pure function
# leaves its results unchanged and makes the gate cheap enough to run
# on every operation.
oracles.bisect_quantile = functools.lru_cache(maxsize=None)(oracles.bisect_quantile)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
LIGHTDARK = os.path.join(ROOT, "problems", "lightdark.json")
DARKSWITCH = os.path.join(BENCH_DIR, "darkswitch.json")
REFERENCE = os.path.join(BENCH_DIR, "track_reference.csv")

# Candidate log every darkswitch solve must walk (plan, outcome).
DARKSWITCH_LOG = [
    ([["target", 0]], "infeasible-start"),
    ([["target", 1]], "infeasible-start"),
    ([["free_space", 0], ["target", 0]], "timeout"),
    ([["free_space", 1], ["target", 0]], "success"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    kind: str  # "plan" or "track"
    hold: int  # G[0, hold] target: beliefs the final segment must keep
    op_s: float  # typical wall time of one operation with its checks
    known_log: list | None = None

    def op_count(self, seconds: float) -> int:
        """Operations in a run of about `seconds`. A fixed nominal cost,
        not a measured one, sets the count, so a run's inputs depend
        only on its seed and length, never on the machine's speed."""
        return max(1, round(seconds / self.op_s))


# op_s: medians on a 2-vCPU Xeon virtual machine (see README.md).
WORKLOADS = {
    "lightdark": Workload("lightdark", LIGHTDARK, "plan", 40, 8.5),
    "darkswitch": Workload("darkswitch", DARKSWITCH, "plan", 10, 16.0, DARKSWITCH_LOG),
    "track": Workload("track", LIGHTDARK, "track", 40, 0.09),
}


def load_reference(path: str = REFERENCE) -> synthesis.SolutionTrajectory:
    """The tracked reference, read back from a CLI trajectory.csv
    (values printed with %.17g, so they round-trip exactly)."""
    beliefs, modes, controls = [], [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            mean = [float(row["mean0"]), float(row["mean1"])]
            c01 = float(row["cov01"])
            cov = [[float(row["cov00"]), c01], [c01, float(row["cov11"])]]
            beliefs.append(make_belief(mean, cov))
            if row["mode"] != "":
                modes.append(int(row["mode"]))
                controls.append(np.array([float(row["control0"]), float(row["control1"])]))
    return synthesis.SolutionTrajectory(tuple(beliefs), tuple(modes), tuple(controls), (0,))


def named_atomics(f) -> dict:
    """Named atomic sub-formulas of f, by name."""
    out = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, formula.Atomic):
            if g.name is not None:
                out[g.name] = g
        elif isinstance(g, (formula.And, formula.Or)):
            stack.extend(g.children)
        else:
            stack.extend((g.left, g.right))
    return out


def _oracle_trace(beliefs, modes):
    return SimpleNamespace(beliefs=tuple(beliefs), modes=tuple(modes))


def solution_digest(result) -> str:
    """SHA-256 of the plan signature, dwell windows, candidate log and
    trajectory arrays of one solve."""
    t = result.trajectory
    h = hashlib.sha256()
    doc = {
        "plan": [[s.label, s.mode, s.dwell_min, s.dwell_max] for s in result.plan.segments],
        "log": result.candidate_log,
        "boundaries": list(t.segment_boundaries),
        "modes": list(t.modes),
    }
    h.update(json.dumps(doc, sort_keys=True).encode())
    h.update(np.array([b.mean for b in t.beliefs]).tobytes())
    h.update(np.array([b.cov for b in t.beliefs]).tobytes())
    h.update(np.array(t.controls).tobytes())
    return h.hexdigest()


def check_solution(wl: Workload, problem, result) -> list:
    """Independent checks of one solve; returns the failures found."""
    if not result.ok:
        return ["no solution"]
    errors = []
    t = result.trajectory
    cap = formula.horizon(problem.formula) + 1
    if t.num_steps > cap:
        errors.append(f"{t.num_steps} steps exceed {cap} positions")
    trace = _oracle_trace(t.beliefs, t.modes)
    if not oracles.oracle_monitor(problem.formula, trace, 0):
        errors.append("oracle monitor rejects the trajectory")
    atomics = named_atomics(problem.formula)
    target_start = t.segment_boundaries[-1]
    if len(t.beliefs) - target_start < wl.hold + 1:
        errors.append(f"only {len(t.beliefs) - target_start} target beliefs")
    for k in range(len(t.beliefs)):
        name = "target" if k >= target_start else "free_space"
        if not oracles.oracle_atomic(atomics[name], trace, k):
            errors.append(f"belief {k} leaves the {name} cone")
            break
    if wl.known_log is not None:
        got = [(c["plan"], c["outcome"]) for c in result.candidate_log]
        if got != wl.known_log:
            errors.append(f"candidate log {got} differs from the known log")
    return errors


class PlanOps:
    """Solves of one problem over consecutive RRT seeds."""

    def __init__(self, wl: Workload, seed: int, iteration_cap: int | None):
        self.wl = wl
        self.problem, self.params, self.k_max, _, _ = cli.load_problem(wl.problem)
        if iteration_cap is not None:
            self.params = replace(
                self.params, iteration_cap=iteration_cap, rrt_timeout=None
            )
        self.base = seed * 1000

    def __call__(self, i: int) -> dict:
        rrt_seed = self.base + i
        rng = np.random.default_rng(rrt_seed)
        t0 = time.perf_counter()
        result = synthesis.solve(self.problem, self.params, k_max=self.k_max, rng=rng)
        elapsed = time.perf_counter() - t0
        errors = check_solution(self.wl, self.problem, result)
        return {
            "seed": rrt_seed,
            "s": elapsed,
            "errors": errors,
            "satisfied": not errors,
            "steps": result.trajectory.num_steps if result.ok else None,
            "cegis_iterations": result.iterations,
            "counterexamples": len(result.counterexamples),
            "digest": solution_digest(result) if result.ok else None,
        }


class TrackOps:
    """LQR-tracked executions of the fixed reference, each from an
    initial state drawn from the initial belief."""

    def __init__(self, wl: Workload, seed: int):
        self.problem, _, _, _, self.sim = cli.load_problem(wl.problem)
        self.ref = load_reference()
        self.gains = {
            i: tracking.lqr_gains(m, self.sim.lqr_horizon, self.sim.Q_final, self.sim.Q, self.sim.R)
            for i, m in enumerate(self.problem.system.modes)
        }
        init = self.problem.initial_belief
        self.mean, self.chol = init.mean, np.linalg.cholesky(init.cov)
        self.seed = seed
        self.digest = hashlib.sha256()

    def __call__(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        x0 = self.mean + self.chol @ rng.standard_normal(self.mean.shape[0])
        t0 = time.perf_counter()
        est, _xs = tracking.simulate(
            self.problem.system, self.sim.real_system, self.ref, x0,
            self.ref.num_steps, self.gains, rng,
        )
        try:
            satisfied = formula.monitor(self.problem.formula, est, 0) is True
        except formula.InsufficientTraceError:
            satisfied = False
        elapsed = time.perf_counter() - t0
        errors = []
        # A trace shorter than the horizon is satisfied only by a finite
        # witness, which is exactly what the oracle evaluates.
        oracle = oracles.oracle_monitor(
            self.problem.formula, _oracle_trace(est.beliefs, est.modes), 0
        )
        if oracle != satisfied:
            errors.append(f"monitor says {satisfied}, oracle says {oracle}")
        self.digest.update(np.array([b.mean for b in est.beliefs]).tobytes())
        self.digest.update(bytes([satisfied]))
        return {
            "s": elapsed,
            "errors": errors,
            "satisfied": satisfied,
            "steps": len(est.modes),
        }
