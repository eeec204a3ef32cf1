"""Declarative problem ingestion and end-to-end runs.

A problem file is JSON describing the switched system, initial belief,
formula (with named sub-formulas), planner parameters, and an optional
tracked-execution simulation. `run` writes plan.json, trajectory.csv,
and simulation.csv into the output directory.

Exit codes: 0 solution, 1 no-solution, 2 schema error, 3 formula error,
4 numeric/dimension error, 5 internal error (the planner and a monitor
disagree: a bug, never a property of the problem).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import formula
from .belief_rrt import InternalConsistencyError, RrtParams
from .discrete_planner import WitnessDisagreementError
from .dynamics import IllConditionedUpdateError, SwitchedSystem, SystemMode
from .formula import FormulaSyntaxError, NameCollisionError, UnsupportedBoundError, parse_formula
from .gaussian import EIGENVALUE_TOL, DomainError, InvalidCovarianceError, make_belief
from .geometry import DegeneratePolytopeError, Polytope, LinearExpression, box_polytope
from .synthesis import Problem, SynthesisResult, solve
from .tracking import lqr_gains, simulate

log = logging.getLogger("beliefplan")

EXIT_SOLUTION = 0
EXIT_NO_SOLUTION = 1
EXIT_SCHEMA = 2
EXIT_FORMULA = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

_FMT = "%.17g"

# lqr_gains runs and keeps one Riccati step per horizon step; the bound
# keeps a mistyped horizon from running for hours or exhausting memory.
MAX_LQR_HORIZON = 10_000


class SchemaError(ValueError):
    """Problem file violates the expected structure."""


class NumericError(ValueError):
    """Dimension mismatch or invalid numeric content in the problem file."""


@dataclass(frozen=True)
class SimulationConfig:
    real_system: SwitchedSystem
    real_x0: np.ndarray
    num_steps: int | None
    lqr_horizon: int
    Q_final: np.ndarray
    Q: np.ndarray
    R: np.ndarray


def _object(doc, path: str, fields) -> dict:
    """doc, after checking that it is an object whose keys all lie in fields."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    unknown = set(doc) - set(fields)
    if unknown:
        raise SchemaError(f"{path}: unknown field(s) {sorted(unknown)}")
    return doc


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}: missing required field")
    return doc[key]


def _matrix(value, path: str, shape=None) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: not a numeric array ({exc})")
    if shape is not None and arr.shape != shape:
        raise NumericError(f"{path}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{path}: expected finite entries")
    return arr


def _positive_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SchemaError(f"{path}: expected a positive integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    return float(value)


# The RrtParams fields a problem file may set, with their checks; the
# defaults and the cross-field rules are RrtParams' own.
_PLANNER_FIELDS = {
    "iteration_cap": _positive_int, "min_num_of_steps": _positive_int, "max_num_of_steps": _positive_int,
    "delta_near": _number, "delta_drain": _number, "goal_bias": _number,
}


def _load_mode(doc, path: str, n: int, m: int) -> SystemMode:
    _object(doc, path, ("A", "B", "W", "C", "noise"))
    A = _matrix(_require(doc, "A", path), f"{path}.A", (n, n))
    B = _matrix(_require(doc, "B", path), f"{path}.B", (n, m))
    W = _matrix(_require(doc, "W", path), f"{path}.W", (n, n))
    C = None
    noise = None
    if doc.get("C") is not None:
        C = _matrix(doc["C"], f"{path}.C")
        if C.ndim != 2 or C.shape[1] != n:
            raise NumericError(f"{path}.C: expected p x {n} matrix, got {C.shape}")
        noise = _require(doc, "noise", path)
        if not isinstance(noise, str):
            noise = _matrix(noise, f"{path}.noise", (C.shape[0], C.shape[0]))
    elif "noise" in doc and doc["noise"] is not None:
        raise SchemaError(f"{path}.noise: noise given without observation matrix C")
    try:
        return SystemMode(A=A, B=B, W=W, C=C, noise=noise)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}")


def _load_control_domain(doc, path: str, m: int) -> Polytope:
    _object(doc, path, ("box", "vertices"))
    if "box" in doc:
        bounds = doc["box"]
        if not isinstance(bounds, list) or len(bounds) != m:
            raise NumericError(f"{path}.box: expected {m} [lo, hi] pairs")
        try:
            return box_polytope(bounds)
        except (TypeError, ValueError) as exc:
            raise NumericError(f"{path}.box: {exc}")
    if "vertices" in doc:
        vertices = _matrix(doc["vertices"], f"{path}.vertices")
        if vertices.ndim != 2 or vertices.shape[1] != m:
            raise NumericError(f"{path}.vertices: expected k x {m} array")
        return _vertices_polytope(vertices, f"{path}.vertices")
    raise SchemaError(f"{path}: expected either 'box' or 'vertices'")


def _vertices_polytope(vertices: np.ndarray, path: str) -> Polytope:
    m = vertices.shape[1]
    if m == 1:  # the hull of points on a line is the interval between the extreme ones
        lo, hi = vertices.min(axis=0), vertices.max(axis=0)
        box = box_polytope(list(zip(lo, hi)))
        return Polytope(box.halfspaces, tuple(vertices))
    from scipy.spatial import ConvexHull

    try:
        hull = ConvexHull(vertices)
    except Exception as exc:
        first = str(exc).strip().partition("\n")[0]  # qhull's report runs to several lines
        raise NumericError(f"{path}: convex hull failed ({first})")
    halfspaces = tuple(
        LinearExpression(eq[:-1], eq[-1]) for eq in hull.equations
    )
    hull_vertices = tuple(vertices[i] for i in hull.vertices)
    return Polytope(halfspaces, hull_vertices)


def _parse_entry(text: str, path: str, n: int, num_modes: int, named: dict):
    """parse_formula, with a formula error prefixed by its entry's path."""
    try:
        return parse_formula(text, n, num_modes, named)
    except FormulaSyntaxError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_problem(path: str):
    """Parse and validate a problem file.

    Returns (Problem, RrtParams, k_max, seed, SimulationConfig | None).
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"problem file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}")
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"problem file {path} could not be read ({exc})")
    _object(doc, "$", (
        "state_dim", "control_dim", "modes", "control_domain", "initial",
        "named_formulas", "formula", "planner", "simulation",
    ))

    n = _positive_int(_require(doc, "state_dim", "$"), "$.state_dim")
    m = _positive_int(_require(doc, "control_dim", "$"), "$.control_dim")

    modes_doc = _require(doc, "modes", "$")
    if not isinstance(modes_doc, list) or not modes_doc:
        raise SchemaError("$.modes: expected a nonempty list")
    modes = [
        _load_mode(md, f"$.modes[{i}]", n, m) for i, md in enumerate(modes_doc)
    ]
    control_domain = _load_control_domain(
        _require(doc, "control_domain", "$"), "$.control_domain", m
    )
    lo, hi = (bound.tolist() for bound in control_domain.box)
    if not all(math.isfinite(h - l) for l, h in zip(lo, hi)):  # the planner samples this box
        raise NumericError("$.control_domain: a side of the bounding box is not finite in length")
    try:
        system = SwitchedSystem(tuple(modes), control_domain)
    except ValueError as exc:
        raise NumericError(f"$.modes: {exc}")

    initial_doc = _object(_require(doc, "initial", "$"), "$.initial", ("mean", "cov"))
    mean = _matrix(_require(initial_doc, "mean", "$.initial"), "$.initial.mean", (n,))
    cov = _matrix(_require(initial_doc, "cov", "$.initial"), "$.initial.cov", (n, n))
    try:
        initial = make_belief(mean, cov)
    except InvalidCovarianceError as exc:
        raise NumericError(f"$.initial.cov: {exc}")

    named = {}
    named_doc = doc.get("named_formulas", {})
    if not isinstance(named_doc, dict):
        raise SchemaError("$.named_formulas: expected an object")
    for fname, text in named_doc.items():
        if not isinstance(text, str):
            raise SchemaError(f"$.named_formulas.{fname}: expected a string")
        if fname in formula.KEYWORDS:
            raise NameCollisionError(
                f"$.named_formulas.{fname}: {fname!r} is a keyword of the formula grammar"
            )
        parsed = _parse_entry(text, f"$.named_formulas.{fname}", n, len(modes), named)
        try:
            parsed = formula.named(parsed, fname)
        except ValueError:
            pass  # non-atomic named formulas stay anonymous internally
        named[fname] = parsed

    formula_text = _require(doc, "formula", "$")
    if not isinstance(formula_text, str):
        raise SchemaError("$.formula: expected a string")
    spec = _parse_entry(formula_text, "$.formula", n, len(modes), named)

    planner_doc = _object(
        _require(doc, "planner", "$"), "$.planner", {*_PLANNER_FIELDS, "k_max", "seed"}
    )
    _require(planner_doc, "iteration_cap", "$.planner")
    fields = {
        key: check(planner_doc[key], f"$.planner.{key}")
        for key, check in _PLANNER_FIELDS.items() if key in planner_doc
    }
    k_max = _positive_int(planner_doc.get("k_max", 6), "$.planner.k_max")
    seed = planner_doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise SchemaError(f"$.planner.seed: expected a non-negative integer, got {seed!r}")
    try:
        params = RrtParams(**fields)
    except ValueError as exc:
        raise SchemaError(f"$.planner: {exc}")

    try:
        problem = Problem(system, initial, spec)
    except ValueError as exc:
        raise NumericError(f"$: {exc}")

    sim = None
    if doc.get("simulation") is not None:
        sim = _load_simulation(doc["simulation"], system, n, m)
    return problem, params, k_max, seed, sim


def _load_simulation(doc, system: SwitchedSystem, n: int, m: int) -> SimulationConfig:
    path = "$.simulation"
    _object(doc, path, ("real_modes", "real_x0", "num_steps", "lqr"))
    real_modes_doc = _require(doc, "real_modes", path)
    if not isinstance(real_modes_doc, list) or len(real_modes_doc) != len(system.modes):
        raise SchemaError(
            f"{path}.real_modes: expected {len(system.modes)} mode objects"
        )
    real_modes = [
        _load_mode(md, f"{path}.real_modes[{i}]", n, m)
        for i, md in enumerate(real_modes_doc)
    ]
    real_system = SwitchedSystem(tuple(real_modes), system.control_domain)
    real_x0 = _matrix(_require(doc, "real_x0", path), f"{path}.real_x0", (n,))
    num_steps = doc.get("num_steps")
    if num_steps is not None:
        num_steps = _positive_int(num_steps, f"{path}.num_steps")
    lqr_doc = _object(_require(doc, "lqr", path), f"{path}.lqr", ("horizon", "Q_final", "Q", "R"))
    h = _positive_int(_require(lqr_doc, "horizon", f"{path}.lqr"), f"{path}.lqr.horizon")
    if h > MAX_LQR_HORIZON:
        raise SchemaError(f"{path}.lqr.horizon: expected at most {MAX_LQR_HORIZON}, got {h}")
    Q_final = _matrix(_require(lqr_doc, "Q_final", f"{path}.lqr"), f"{path}.lqr.Q_final", (n, n))
    Q = _matrix(_require(lqr_doc, "Q", f"{path}.lqr"), f"{path}.lqr.Q", (n, n))
    R = _matrix(_require(lqr_doc, "R", f"{path}.lqr"), f"{path}.lqr.R", (m, m))
    # The rank test is the one lqr_gains applies.
    if not (np.array_equal(R, R.T) and np.linalg.eigvalsh(R)[0] > 0
            and np.linalg.matrix_rank(R) == m):
        raise NumericError(f"{path}.lqr.R: expected a symmetric positive definite matrix, got {R.tolist()}")
    for name, M in (("Q_final", Q_final), ("Q", Q)):  # the eigenvalue bound of a covariance
        if not (np.array_equal(M, M.T) and np.linalg.eigvalsh(M)[0] >= EIGENVALUE_TOL):
            raise NumericError(f"{path}.lqr.{name}: expected a symmetric positive semidefinite matrix, got {M.tolist()}")
    return SimulationConfig(real_system, real_x0, num_steps, h, Q_final, Q, R)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return _FMT % x


def _write(writer, path, *args) -> None:
    """writer(path, *args), with an OSError as a one-line error about --out."""
    try:
        writer(path, *args)
    except OSError as exc:
        raise SchemaError(f"--out: cannot write {path} ({exc})")


def _write_plan_json(path, result: SynthesisResult):
    segments = []
    if result.plan is not None:
        for seg in result.plan.segments:
            segments.append(
                {
                    "atomic": seg.label,
                    "mode": seg.mode,
                    "dwell_min": seg.dwell_min,
                    "dwell_max": seg.dwell_max,
                }
            )
    doc = {
        "status": "solution" if result.ok else "no-solution",
        "cegis_iterations": result.iterations,
        "k_max": result.k_max,
        "segments": segments,
        "counterexamples": [
            [[name, mode] for name, mode in prefix]
            for prefix in result.counterexamples
        ],
        "candidates": result.candidate_log,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trajectory_csv(path, trajectory, m: int):
    n = trajectory.beliefs[0].dim
    cov_cols = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    header = (
        ["k", "mode"]
        + [f"mean{i}" for i in range(n)]
        + [f"cov{i}{j}" for i, j in cov_cols]
        + [f"control{i}" for i in range(m)]
    )
    leads = [[str(mode)] for mode in trajectory.modes] + [[""]]
    with open(path, "w", newline="") as fh:
        _write_rows(fh, header, trajectory, leads, cov_cols, m)


def _write_simulation_csv(path, est, xs, satisfied: bool, m: int):
    n = est.beliefs[0].dim
    header = (
        ["k"]
        + [f"real{i}" for i in range(n)]
        + [f"est_mean{i}" for i in range(n)]
        + [f"est_cov{i}{i}" for i in range(n)]
        + [f"control{i}" for i in range(m)]
    )
    leads = [[_fmt(v) for v in x] for x in xs]
    with open(path, "w", newline="") as fh:
        fh.write(f"# satisfied: {1 if satisfied else 0}\n")
        _write_rows(fh, header, est, leads, [(i, i) for i in range(n)], m)


def _write_rows(fh, header, traj, leads, cov_cols, m: int):
    """The header, then one row per belief k of traj: k, leads[k], the
    mean, the cov_cols entries of the covariance, and the controls
    applied at k, blank on the last row."""
    fh.write(",".join(header) + "\n")
    for k, b in enumerate(traj.beliefs):
        row = [str(k), *leads[k]]
        row.extend(_fmt(v) for v in b.mean)
        row.extend(_fmt(b.cov[i, j]) for i, j in cov_cols)
        if k < traj.num_steps:
            row.extend(_fmt(v) for v in traj.controls[k])
        else:
            row.extend("" for _ in range(m))
        fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="beliefplan",
        description="Synthesize a belief-space trajectory for a PrSTL problem file",
    )
    ap.add_argument("--problem", required=True, help="path to the JSON problem file")
    ap.add_argument("--out", default="./out", help="output directory (default ./out)")
    ap.add_argument("--seed", type=int, default=None, help="RNG seed (overrides the file)")
    ap.add_argument(
        "--iteration-cap", type=int, default=None,
        help="RRT iteration cap (overrides the file's iteration_cap)",
    )
    ap.add_argument("--k-max", type=int, default=None, help="maximum plan segments")
    ap.add_argument("--validate-only", action="store_true", help="parse and validate, no planning")
    ap.add_argument("--no-simulation", action="store_true", help="skip tracked execution")
    return ap


def run(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    level = os.environ.get("BELIEFPLAN_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
            level, logging.ERROR
        )
    )

    for flag, value, least in (
        ("--seed", args.seed, 0),
        ("--k-max", args.k_max, 1),
        ("--iteration-cap", args.iteration_cap, 1),
    ):
        if value is not None and value < least:
            raise SchemaError(f"{flag}: expected an integer >= {least}, got {value}")

    problem, params, k_max, seed, sim = load_problem(args.problem)
    if args.iteration_cap is not None:
        params = replace(params, iteration_cap=args.iteration_cap)
    if args.k_max is not None:
        k_max = args.k_max
    if args.seed is not None:
        seed = args.seed

    if args.validate_only:
        log.info("problem file %s validated", args.problem)
        return EXIT_SOLUTION

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"--out: cannot create the output directory ({exc})")
    rng = np.random.default_rng(seed)
    try:
        result = solve(problem, params, k_max=k_max, rng=rng)
    except (np.linalg.LinAlgError, OverflowError, FloatingPointError) as exc:
        raise NumericError(f"the planner failed numerically ({exc})")
    _write(_write_plan_json, os.path.join(args.out, "plan.json"), result)
    if not result.ok:
        log.info("no solution after %d CEGIS iterations", result.iterations)
        return EXIT_NO_SOLUTION

    trajectory = result.trajectory
    m = problem.system.control_dim  # the control columns, even of a plan with no steps
    _write(_write_trajectory_csv, os.path.join(args.out, "trajectory.csv"), trajectory, m)
    log.info("solution with %d steps", trajectory.num_steps)

    if sim is not None and not args.no_simulation:
        num_steps = sim.num_steps if sim.num_steps is not None else trajectory.num_steps
        num_steps = min(num_steps, trajectory.num_steps)
        # Costs or a real system large enough to overflow would otherwise
        # run on as inf and nan until some later check trips; an infinite
        # observation gain trips the estimate's finite check.
        try:
            with np.errstate(over="raise", invalid="raise"):
                gains = {
                    i: lqr_gains(mode, sim.lqr_horizon, sim.Q_final, sim.Q, sim.R)
                    for i, mode in enumerate(problem.system.modes)
                }
                est, xs = simulate(
                    problem.system, sim.real_system, trajectory, sim.real_x0,
                    num_steps, gains, rng,
                )
        except (np.linalg.LinAlgError, OverflowError, FloatingPointError, InvalidCovarianceError) as exc:
            raise NumericError(f"$.simulation: the tracked execution failed numerically ({exc})")
        satisfied = formula.monitor(problem.formula, est, 0)
        _write(_write_simulation_csv, os.path.join(args.out, "simulation.csv"), est, xs, satisfied, m)
    return EXIT_SOLUTION


def main(argv=None) -> None:
    try:
        code = run(argv)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        code = EXIT_SCHEMA
    except (FormulaSyntaxError, NameCollisionError, UnsupportedBoundError) as exc:
        print(f"formula error: {exc}", file=sys.stderr)
        code = EXIT_FORMULA
    except (NumericError, InvalidCovarianceError, IllConditionedUpdateError,
            DegeneratePolytopeError, DomainError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        code = EXIT_NUMERIC
    except (InternalConsistencyError, WitnessDisagreementError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    main()
