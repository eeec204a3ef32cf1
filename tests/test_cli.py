import contextlib
import dataclasses
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from beliefplan import belief_rrt, cli, discrete_planner, synthesis
from beliefplan.belief_rrt import RrtParams
from beliefplan.cli import (
    EXIT_FORMULA,
    EXIT_INTERNAL,
    EXIT_NO_SOLUTION,
    EXIT_NUMERIC,
    EXIT_SCHEMA,
    EXIT_SOLUTION,
    NumericError,
    SchemaError,
    load_problem,
    run,
)
from beliefplan.discrete_planner import WitnessDisagreementError
from beliefplan.dynamics import IllConditionedUpdateError
from beliefplan.formula import MAX_HORIZON, FormulaSyntaxError
from beliefplan.gaussian import DomainError
from beliefplan.geometry import DegeneratePolytopeError
from beliefplan.synthesis import InternalConsistencyError, solve

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath(os.path.join(HERE, os.pardir, "src"))
LIGHTDARK = os.path.join(HERE, os.pardir, "problems", "lightdark.json")


def _base_doc():
    with open(LIGHTDARK) as fh:
        return json.load(fh)


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _small_doc():
    """A quick solvable problem for end-to-end CLI runs."""
    return {
        "state_dim": 1,
        "control_dim": 1,
        "modes": [
            {"A": [[1.0]], "B": [[1.0]], "W": [[0.0]], "C": [[1.0]], "noise": "0.01"}
        ],
        "control_domain": {"box": [[-1.0, 1.0]]},
        "initial": {"mean": [0.0], "cov": [[0.01]]},
        "named_formulas": {
            "safe": "P(-x0 <= 1) >= 0.95 & P(x0 <= 6) >= 0.95",
            "goal": "P(x0 - 5 <= 0.3) >= 0.9 & P(5 - x0 <= 0.3) >= 0.9",
        },
        "formula": "(safe) U[0,20] G[0,5] (goal)",
        "planner": {
            "iteration_cap": 3000,
            "delta_near": 1.0,
            "delta_drain": 0.5,
            "goal_bias": 0.25,
            "min_num_of_steps": 1,
            "max_num_of_steps": 5,
            "k_max": 3,
            "seed": 0,
        },
        "simulation": {
            "real_modes": [{"A": [[1.0]], "B": [[1.0]], "W": [[0.0]]}],
            "real_x0": [0.05],
            "num_steps": None,
            "lqr": {"horizon": 5, "Q_final": [[1.0]], "Q": [[1.0]], "R": [[0.05]]},
        },
    }


# ---------------------------------------------------------------------------
# load_problem
# ---------------------------------------------------------------------------

def test_load_lightdark():
    problem, params, k_max, seed, sim = load_problem(LIGHTDARK)
    assert problem.system.state_dim == 2
    assert params.iteration_cap == 20000
    assert k_max == 6
    assert sim is not None
    assert np.allclose(sim.real_x0, [0.5, 2.75])


def test_load_missing_file():
    with pytest.raises(SchemaError):
        load_problem("/nonexistent/problem.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError):
        load_problem(str(path))


def test_load_missing_field(tmp_path):
    doc = _base_doc()
    del doc["formula"]
    with pytest.raises(SchemaError, match="formula"):
        load_problem(_write(tmp_path, doc))


def test_load_dimension_mismatch_is_numeric(tmp_path):
    doc = _base_doc()
    doc["modes"][0]["A"] = [[1.0]]
    with pytest.raises(NumericError, match=r"modes\[0\].A"):
        load_problem(_write(tmp_path, doc))


def test_load_bad_covariance_is_numeric(tmp_path):
    doc = _base_doc()
    doc["initial"]["cov"] = [[-1.0, 0.0], [0.0, 0.1]]
    with pytest.raises(NumericError, match="initial.cov"):
        load_problem(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "R",
    [
        [[0.0, 0.0], [0.0, 0.05]],  # singular
        [[0.05, 0.01], [0.0, 0.05]],  # not symmetric
        [[-0.05, 0.0], [0.0, 0.05]],  # indefinite
        [[1.0, 0.0], [0.0, 1e-20]],  # singular to lqr_gains' rank test
    ],
)
def test_load_bad_lqr_R_is_numeric(tmp_path, R):
    doc = _base_doc()
    doc["simulation"]["lqr"]["R"] = R
    with pytest.raises(NumericError, match=r"lqr\.R"):
        load_problem(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "field, M",
    [
        ("Q_final", [[-0.8, 0.0], [0.0, -0.8]]),  # negative definite
        ("Q", [[-5.0, 0.0], [0.0, -5.0]]),
        ("Q", [[1.0, 0.5], [0.0, 1.0]]),  # not symmetric
        ("Q_final", [[1.0, 0.0], [0.0, -1e-8]]),  # an eigenvalue below -1e-9
    ],
)
def test_load_bad_lqr_Q_is_numeric(tmp_path, field, M):
    doc = _base_doc()
    doc["simulation"]["lqr"][field] = M
    with pytest.raises(NumericError, match=rf"lqr\.{field}: expected a symmetric positive semidefinite"):
        load_problem(_write(tmp_path, doc))


def test_lqr_costs_at_the_eigenvalue_bound_load(tmp_path):
    """Q and Q_final may be singular, down to an eigenvalue of -1e-9."""
    doc = _base_doc()
    doc["simulation"]["lqr"]["Q"] = [[1.0, 0.0], [0.0, 0.0]]
    doc["simulation"]["lqr"]["Q_final"] = [[1.0, 0.0], [0.0, -1e-9]]
    assert load_problem(_write(tmp_path, doc))[4] is not None


def test_a_singular_riccati_step_exits_numeric(tmp_path, capsys):
    """A LinAlgError from the gains maps to exit 4 with one line that
    names the tracking stage."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    fixed = mock.patch.object(cli, "solve", lambda *args, **kwargs: _lightdark_result())
    with fixed, mock.patch.object(cli, "lqr_gains", singular), pytest.raises(SystemExit) as exc:
        cli.main(["--problem", LIGHTDARK, "--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric error: $.simulation: the tracked execution failed numerically (Singular matrix)\n"
    )


def test_load_huge_lqr_horizon_is_schema_error(tmp_path):
    doc = _base_doc()
    doc["simulation"]["lqr"]["horizon"] = cli.MAX_LQR_HORIZON + 1
    with pytest.raises(SchemaError, match=r"lqr\.horizon"):
        load_problem(_write(tmp_path, doc))


def test_load_nonfinite_matrix_is_numeric(tmp_path):
    doc = _base_doc()
    doc["simulation"]["real_modes"][0]["A"][0][0] = float("inf")
    with pytest.raises(NumericError, match=r"real_modes\[0\]\.A"):
        load_problem(_write(tmp_path, doc))


@pytest.mark.parametrize("case", ["1-D-A", "2-D-A", "2-D-x0"])
def test_overflowing_tracked_execution_is_numeric(tmp_path, case):
    """A real system that overflows the tracked execution ends with a
    NumericError (exit 4), never a traceback or a finished run. The 1-D
    mode has no closed form, and numpy raises on the overflow. The 2-D
    light-dark mode steps on Python floats, which ignore np.errstate:
    real A = 1e200 I, or real_x0 = [1e308, 1e308] with its infinite
    noise gain, makes the observation non-finite, and the filter step's
    belief check names it."""
    if case == "1-D-A":
        doc, message = _small_doc(), "failed numerically"
        doc["simulation"]["real_modes"][0]["A"] = [[1e200]]
    else:
        doc, message = _base_doc(), r"failed numerically \(non-finite entries in belief state\)"
        if case == "2-D-A":
            doc["simulation"]["real_modes"][0]["A"] = [[1e200, 0.0], [0.0, 1e200]]
        else:
            doc["simulation"]["real_x0"] = [1e308, 1e308]
    with pytest.raises(NumericError, match=message):
        run(["--problem", _write(tmp_path, doc), "--out", str(tmp_path / "out")])


def test_load_formula_error(tmp_path):
    doc = _base_doc()
    doc["formula"] = "(free_space) U[0,240] G[0,40] (unknown_region)"
    with pytest.raises(FormulaSyntaxError):
        load_problem(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "keys",
    [("initial",), ("modes", 0), ("control_domain",), ("planner",), ("simulation",),
     ("simulation", "lqr"), ("simulation", "real_modes", 0)],
    ids=["initial", "modes[0]", "control_domain", "planner", "simulation", "simulation.lqr",
         "simulation.real_modes[0]"],
)
def test_load_non_object_section_is_schema_error(tmp_path, request, keys):
    doc = _base_doc()
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = 3
    with pytest.raises(SchemaError) as info:
        load_problem(_write(tmp_path, doc))
    assert str(info.value) == f"$.{request.node.callspec.id}: expected an object"


def test_load_nonfinite_predicate_is_formula_error(tmp_path):
    doc = _base_doc()
    doc["named_formulas"]["free_space"] = "P(-x0 <= 1e999) >= 0.99"
    with pytest.raises(FormulaSyntaxError, match="finite"):
        load_problem(_write(tmp_path, doc))


def test_load_unknown_planner_field(tmp_path):
    doc = _base_doc()
    doc["planner"]["bogus"] = 1
    with pytest.raises(SchemaError, match="bogus"):
        load_problem(_write(tmp_path, doc))


@pytest.mark.parametrize(
    "keys, old, new",
    [
        ((), "simulation", "simulaton"),
        (("modes", 0), "noise", "noize"),
        (("control_domain",), "box", "boxes"),
        (("initial",), "cov", "covariance"),
        (("planner",), "seed", "sed"),
        (("simulation",), "num_steps", "steps"),
        (("simulation", "real_modes", 0), "W", "w"),
        (("simulation", "lqr"), "Q_final", "Qf"),
    ],
    ids=["$", "$.modes[0]", "$.control_domain", "$.initial", "$.planner", "$.simulation",
         "$.simulation.real_modes[0]", "$.simulation.lqr"],
)
def test_a_misspelt_field_exits_schema_with_one_line(tmp_path, capsys, request, keys, old, new):
    """Every block of a problem file but the open map named_formulas
    rejects a key it does not know, so a misspelt field is reported,
    not dropped: light-dark with "simulation" spelt "simulaton" would
    otherwise run without a tracked execution."""
    doc = _base_doc()
    block = doc
    for key in keys:
        block = block[key]
    block[new] = block.pop(old)
    doc["named_formulas"]["unused"] = "P(x0 <= 1) >= 0.5"  # any name is a field of named_formulas
    with pytest.raises(SystemExit) as exc:
        cli.main(["--problem", _write(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_SCHEMA
    path = request.node.callspec.id
    assert capsys.readouterr().err == f"schema error: {path}: unknown field(s) [{new!r}]\n"
    assert not (tmp_path / "out").exists()


# A valid value of each RrtParams field a problem file may set, none of
# them the field's default.
_PLANNER_VALUES = {
    "iteration_cap": 9,
    "delta_near": 2.0,
    "delta_drain": 0.25,
    "goal_bias": 0.5,
    "min_num_of_steps": 3,
    "max_num_of_steps": 4,
}


@pytest.mark.parametrize("field", sorted(_PLANNER_VALUES))
def test_every_planner_field_loads(tmp_path, field):
    """Each field of RrtParams but the retired rrt_timeout can be set
    from the planner block (a field added to RrtParams fails the first
    assertion until it is listed here), and the loader passes it on
    unchanged."""
    assert set(_PLANNER_VALUES) == {f.name for f in dataclasses.fields(RrtParams)} - {"rrt_timeout"}
    doc = _base_doc()
    doc["planner"] = {"iteration_cap": 7, "max_num_of_steps": 5, field: _PLANNER_VALUES[field]}
    params = load_problem(_write(tmp_path, doc))[1]
    assert params == RrtParams(**doc["planner"])
    assert getattr(params, field) == _PLANNER_VALUES[field]


def test_a_planner_block_with_only_the_cap_takes_the_defaults(tmp_path):
    doc = _base_doc()
    doc["planner"] = {"iteration_cap": 11}
    _, params, k_max, seed, _ = load_problem(_write(tmp_path, doc))
    assert (params, k_max, seed) == (RrtParams(iteration_cap=11), 6, 0)
    doc["planner"]["rrt_timeout"] = None
    with pytest.raises(SchemaError) as info:
        load_problem(_write(tmp_path, doc))
    assert str(info.value) == "$.planner: unknown field(s) ['rrt_timeout']"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("iteration_cap", "20000", "$.planner.iteration_cap: expected a positive integer, got '20000'"),
        ("delta_near", "2", "$.planner.delta_near: expected a number, got '2'"),
        ("delta_drain", True, "$.planner.delta_drain: expected a number, got True"),
        ("goal_bias", "0.25", "$.planner.goal_bias: expected a number, got '0.25'"),
        ("min_num_of_steps", 0, "$.planner.min_num_of_steps: expected a positive integer, got 0"),
        ("max_num_of_steps", "15", "$.planner.max_num_of_steps: expected a positive integer, got '15'"),
        ("goal_bias", 1.5, "$.planner: goal_bias must lie in [0, 1]"),
    ],
)
def test_a_bad_planner_field_exits_schema_with_its_path(tmp_path, capsys, field, value, message):
    """A bad value is reported once, under its own path; only a rule
    across fields, which RrtParams checks, is reported under
    $.planner."""
    doc = _base_doc()
    doc["planner"][field] = value
    with pytest.raises(SystemExit) as exc:
        cli.main(["--problem", _write(tmp_path, doc), "--validate-only"])
    assert exc.value.code == EXIT_SCHEMA
    assert capsys.readouterr().err == f"schema error: {message}\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", "abc"),
        ("seed", -1),
        ("seed", True),
        ("seed", 1.5),
        ("k_max", 0),
        ("k_max", "6"),
        ("k_max", True),
        ("min_num_of_steps", 0),
        ("min_num_of_steps", 3.0),
        ("max_num_of_steps", "15"),
        ("K_max", 6),
        ("delta_near", None),
        ("iteration_cap", "20000"),
        ("delta_near", "2"),
        ("delta_drain", True),
        ("goal_bias", "0.25"),
        ("rrt_timeout", "5"),
        ("rrt_timeout", float("nan")),
        ("rrt_timeout", float("inf")),
        ("iteration_cap", 20000.5),
        ("iteration_cap", 0),
        ("iteration_cap", True),
    ],
)
def test_load_bad_planner_field(tmp_path, field, value):
    doc = _base_doc()
    doc["planner"][field] = value
    with pytest.raises(SchemaError, match=r"\$\.planner"):
        load_problem(_write(tmp_path, doc))


def test_load_vertices_control_domain(tmp_path):
    doc = _small_doc()
    del doc["control_domain"]["box"]
    doc["control_domain"]["vertices"] = [[-1.0], [1.0]]
    problem, *_ = load_problem(_write(tmp_path, doc))
    from beliefplan.geometry import polytope_contains

    assert polytope_contains(problem.system.control_domain, [0.5])
    assert not polytope_contains(problem.system.control_domain, [1.5])


def test_a_degenerate_vertex_domain_exits_numeric(tmp_path, capsys):
    """Two vertices span a segment of the plane, not a region: qhull
    rejects them, and the domain is not widened to their bounding box."""
    doc = _base_doc()
    doc["control_domain"] = {"vertices": [[-1.0, -1.0], [1.0, 1.0]]}
    with pytest.raises(SystemExit) as exc:
        cli.main(["--problem", _write(tmp_path, doc), "--validate-only"])
    assert exc.value.code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "$.control_domain.vertices: convex hull failed (" in err, err


def test_load_vertices_hull_2d(tmp_path):
    doc = _base_doc()
    doc["control_domain"] = {
        "vertices": [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]]
    }
    problem, *_ = load_problem(_write(tmp_path, doc))
    from beliefplan.geometry import polytope_contains

    P = problem.system.control_domain
    assert len(P.vertices) == 4  # interior point dropped by the hull
    assert polytope_contains(P, [0.9, -0.9])
    assert not polytope_contains(P, [1.1, 0.0])


def test_a_hull_qhull_cannot_build_exits_numeric_with_one_line(tmp_path, capsys):
    """qhull's report runs to several lines; the message keeps its first."""
    doc = _base_doc()
    doc["control_domain"] = {"vertices": [[-1e308, -1e308], [1e308, -1e308], [0, 1e308]]}
    with pytest.raises(SystemExit) as exc:
        cli.main(["--problem", _write(tmp_path, doc), "--validate-only"])
    assert exc.value.code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "convex hull failed (QH6006 qhull option error" in err, err


def test_control_domain_without_zero_exits_numeric(tmp_path, capsys):
    """A goal dwell applies u = 0, so the control domain must contain 0."""
    doc = _base_doc()
    doc["control_domain"] = {"box": [[-1.0, 1.0], [-1.0, -0.01]]}
    with pytest.raises(SystemExit) as exc:
        cli.main(["--problem", _write(tmp_path, doc), "--validate-only"])
    assert exc.value.code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "must contain 0" in err
    assert "Traceback" not in err


def test_triangle_control_domain_tracks_inside_the_domain(tmp_path, capsys):
    """Feedback controls clamped to the triangle's bounding box leave the
    triangle; tracking pulls them back, and the run completes."""
    doc = _base_doc()
    doc["control_domain"] = {"vertices": [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]}
    doc["simulation"]["real_x0"] = [1.5, 2.0]
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--problem", path, "--seed", "0", "--out", str(out)])
    assert exc.value.code == EXIT_SOLUTION, capsys.readouterr().err
    from beliefplan.geometry import polytope_contains

    domain = load_problem(path)[0].system.control_domain
    lines = (out / "simulation.csv").read_text().splitlines()
    header = lines[1].split(",")
    cols = [header.index("control0"), header.index("control1")]
    controls = [[float(row.split(",")[j]) for j in cols] for row in lines[2:-1]]
    assert controls
    assert all(polytope_contains(domain, u) for u in controls)


# ---------------------------------------------------------------------------
# run / exit codes
# ---------------------------------------------------------------------------

def test_validate_only(tmp_path):
    code = run(["--problem", _write(tmp_path, _small_doc()), "--validate-only"])
    assert code == EXIT_SOLUTION


def test_run_end_to_end(tmp_path):
    out = tmp_path / "out"
    code = run(["--problem", _write(tmp_path, _small_doc()), "--out", str(out)])
    assert code == EXIT_SOLUTION
    plan = json.loads((out / "plan.json").read_text())
    assert plan["status"] == "solution"
    assert plan["cegis_iterations"] >= 1
    assert plan["segments"]
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("k,mode,mean0,cov00,control0")
    sim = (out / "simulation.csv").read_text().splitlines()
    assert sim[0].startswith("# satisfied:")
    assert sim[1].startswith("k,real0,est_mean0,est_cov00,control0")
    # row counts: T+1 data rows
    assert len(traj) - 1 == len(sim) - 2


def test_run_no_simulation_flag(tmp_path):
    out = tmp_path / "out"
    code = run(
        ["--problem", _write(tmp_path, _small_doc()), "--out", str(out), "--no-simulation"]
    )
    assert code == EXIT_SOLUTION
    assert (out / "trajectory.csv").exists()
    assert not (out / "simulation.csv").exists()


def test_run_no_solution(tmp_path, monkeypatch):
    """The start lies in safe and far lies 50 away, out of reach at one
    unit per step: a state-dependent noise keeps the goal proof out, so
    the segment from safe to far is searched for iteration_cap
    iterations and times out, and the run exits with no solution."""
    doc = _small_doc()
    doc["modes"][0]["noise"] = "0.01 + 0.001*x0^2"
    doc["named_formulas"]["far"] = "P(50 - x0 <= 0) >= 0.9"
    doc["formula"] = "(safe) U[0,5] (far)"
    doc["planner"]["iteration_cap"] = 40
    selects, searches = [], []
    select, solve_segment = belief_rrt.rrt_select, synthesis.solve_segment

    def counting_select(*args):
        selects.append(None)
        return select(*args)

    def recording_solve_segment(*args):
        before = len(selects)
        result = solve_segment(*args)
        searches.append((result.status, len(selects) - before))
        return result

    monkeypatch.setattr(belief_rrt, "rrt_select", counting_select)
    monkeypatch.setattr(synthesis, "solve_segment", recording_solve_segment)
    out = tmp_path / "out"
    code = run(["--problem", _write(tmp_path, doc), "--out", str(out)])
    assert code == EXIT_NO_SOLUTION
    plan = json.loads((out / "plan.json").read_text())
    assert plan["status"] == "no-solution"
    assert "timeout" in [c["outcome"] for c in plan["candidates"]], plan["candidates"]
    assert ("timeout", 40) in searches, searches
    assert all(count == 40 for status, count in searches if status == "timeout"), searches
    assert not (out / "trajectory.csv").exists()


def _cli(args, tmp_path, timeout=300):
    # The child runs in tmp_path, where a relative PYTHONPATH such as "src"
    # no longer resolves, so put the absolute src directory first.  Empty
    # entries are dropped: they would add the child's cwd to sys.path.
    # A child still running after `timeout` seconds fails the test with
    # subprocess.TimeoutExpired instead of hanging the suite.
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-m", "beliefplan.cli", *args],
        capture_output=True, text=True, cwd=str(tmp_path), env=env, timeout=timeout,
    )


TRACK_REFERENCE = os.path.join(HERE, os.pardir, "bench", "track_reference.csv")
DARKSWITCH = os.path.join(HERE, os.pardir, "bench", "darkswitch.json")


def _ulps(x: float, y: float) -> int:
    """The number of doubles from x to y where both have one sign (and a
    huge number where the signs differ)."""
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


def test_lightdark_trajectory_matches_the_track_reference(tmp_path):
    """bench/track_reference.csv was written as the CLI's trajectory.csv
    for light-dark at seed 0 while the planner's MLO step still solved
    through numpy; the closed-form step moves some covariances by a few
    ulps (tests/data/lightdark_seed0/trajectory.csv pins today's bytes).
    Every other cell is still byte-equal to the reference, and each
    covariance cell lies within 16 ulps of it."""
    r = _cli(["--problem", os.path.abspath(LIGHTDARK), "--seed", "0", "--no-simulation",
              "--out", str(tmp_path / "out")], tmp_path)
    assert r.returncode == 0, r.stderr
    mine = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    with open(TRACK_REFERENCE) as fh:
        ref = fh.read().splitlines()
    assert len(mine) == len(ref) and mine[0] == ref[0]
    header = ref[0].split(",")
    for line, ref_line in zip(mine[1:], ref[1:]):
        for name, cell, ref_cell in zip(header, line.split(","), ref_line.split(","), strict=True):
            if name.startswith("cov"):
                assert _ulps(float(cell), float(ref_cell)) <= 16, (name, cell, ref_cell)
            else:
                assert cell == ref_cell, (name, line, ref_line)


def test_lightdark_outputs_match_the_golden_files(tmp_path):
    """tests/data/lightdark_seed0 holds the CLI's plan.json,
    trajectory.csv and simulation.csv for light-dark at seed 0.
    simulation.csv is the only shipped output that runs the one-state
    noise walk and the trace monitor's verdict."""
    r = _cli(["--problem", os.path.abspath(LIGHTDARK), "--seed", "0",
              "--out", str(tmp_path / "out")], tmp_path)
    assert r.returncode == 0, r.stderr
    for name in ("plan.json", "trajectory.csv", "simulation.csv"):
        with open(os.path.join(HERE, "data", "lightdark_seed0", name), "rb") as fh:
            assert (tmp_path / "out" / name).read_bytes() == fh.read(), name


DARKSWITCH_SEED3 = os.path.join(HERE, "data", "darkswitch_seed3")


def test_darkswitch_outputs_match_the_golden_files(tmp_path):
    """tests/data/darkswitch_seed3 holds the CLI's plan.json and
    trajectory.csv for darkswitch at seed 3. Darkswitch is the only
    shipped problem with a dark (lbs) mode, so these bytes pin its
    covariances by depth: they decide the goal-empty proof of the dark
    segment and the covariances of the steps in mode 0."""
    r = _cli(["--problem", os.path.abspath(DARKSWITCH), "--seed", "3",
              "--out", str(tmp_path / "out")], tmp_path)
    assert r.returncode == 0, r.stderr
    for name in ("plan.json", "trajectory.csv"):
        with open(os.path.join(DARKSWITCH_SEED3, name), "rb") as fh:
            assert (tmp_path / "out" / name).read_bytes() == fh.read(), name


LIGHTDARK_LINEAR = os.path.join(HERE, "data", "lightdark_linear.json")


def test_changing_covariance_table_outputs_match_the_golden_files(tmp_path):
    """tests/data/lightdark_linear is light-dark with one constant-noise
    (polbs_linear) mode and process noise W = 0.05 I, so the covariance
    at each depth differs from the one before: these bytes pin the
    covariance a step at a given depth takes."""
    r = _cli(["--problem", os.path.abspath(LIGHTDARK_LINEAR), "--seed", "0",
              "--out", str(tmp_path / "out")], tmp_path)
    assert r.returncode == 0, r.stderr
    for name in ("plan.json", "trajectory.csv"):
        with open(os.path.join(HERE, "data", "lightdark_linear_seed0", name), "rb") as fh:
            assert (tmp_path / "out" / name).read_bytes() == fh.read(), name


def test_shipped_problems_solve_without_the_lp_solver(tmp_path):
    """The goal-emptiness proof imports scipy.optimize only for slanted
    rows, which neither shipped problem has: the import would add about
    half a second and much memory to every run."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from beliefplan.cli import load_problem\n"
        "from beliefplan.synthesis import solve\n"
        "for path in sys.argv[1:]:\n"
        "    problem, params, k_max, seed, _ = load_problem(path)\n"
        "    assert solve(problem, params, k_max, rng=np.random.default_rng(seed)).ok, path\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    r = subprocess.run(
        [sys.executable, "-c", script, os.path.abspath(DARKSWITCH), os.path.abspath(LIGHTDARK)],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
    )
    assert r.returncode == 0, r.stderr


def test_overflowing_noise_exits_numeric_without_a_traceback(tmp_path):
    """A noise gain whose square overflows makes R = inf * I with NaN off
    the diagonal (inf * 0): the condition test rejects the non-finite
    innovation matrix, so the run exits 4 with one numeric-error line
    that names the non-finite entries, and numpy warns of nothing. In a
    subprocess, so that stderr holds everything the run prints."""
    with open(LIGHTDARK) as fh:
        doc = json.load(fh)
    doc["modes"][0]["noise"] = "(5 - x0)^230"
    r = _cli(["--problem", _write(tmp_path, doc), "--seed", "0", "--out", str(tmp_path / "out")],
             tmp_path)
    assert r.returncode == EXIT_NUMERIC, r.stderr
    assert r.stderr.splitlines() == ["numeric error: non-finite entries in innovation covariance"]


def test_overflowing_noise_power_exits_numeric_without_a_traceback(tmp_path):
    """A noise power that float ** int cannot represent, (5 - x0)^500
    near x0 = 0, is an infinite gain, not an OverflowError: the run
    exits 4 with the same one line as a gain whose square overflows."""
    with open(LIGHTDARK) as fh:
        doc = json.load(fh)
    doc["modes"][0]["noise"] = "(5 - x0)^500"
    r = _cli(["--problem", _write(tmp_path, doc), "--seed", "0", "--out", str(tmp_path / "out")],
             tmp_path)
    assert r.returncode == EXIT_NUMERIC, r.stderr
    assert r.stderr.splitlines() == ["numeric error: non-finite entries in innovation covariance"]


def test_overflowing_dynamics_exits_numeric_without_a_warning(tmp_path):
    """A = diag(1, 1e160) overflows the predicted covariance within two
    steps: the planner's overflow becomes a non-finite entry that the
    belief check reports, so the run exits 4 with one numeric-error line
    and numpy warns of nothing. In a subprocess, so that stderr holds
    everything the run prints."""
    doc = _base_doc()
    doc["modes"][0]["A"] = [[1.0, 0.0], [0.0, 1e160]]
    r = _cli(["--problem", _write(tmp_path, doc), "--seed", "0", "--no-simulation",
              "--out", str(tmp_path / "out")], tmp_path)
    assert r.returncode == EXIT_NUMERIC, r.stderr
    assert r.stderr.splitlines() == ["numeric error: non-finite entries in belief state"]


def test_an_overflowing_input_matrix_exits_numeric_with_one_line(tmp_path):
    """B = 1e308 I passes --validate-only, but horizon * B is infinite:
    rrt_extend rejects the greedy control's least-squares problem before
    LAPACK sees it (LAPACK would print DLASCL lines, then lstsq raise
    LinAlgError), so the run exits 4 with one numeric-error line. In a
    subprocess, so that stderr holds everything the run prints."""
    doc = _base_doc()
    doc["modes"][0]["B"] = [[1e308, 0.0], [0.0, 1e308]]
    path = _write(tmp_path, doc)
    assert _cli(["--problem", path, "--validate-only"], tmp_path).returncode == EXIT_SOLUTION
    r = _cli(["--problem", path, "--seed", "0", "--no-simulation", "--iteration-cap", "300",
              "--out", str(tmp_path / "out")], tmp_path)
    assert r.returncode == EXIT_NUMERIC, r.stderr
    assert r.stderr.splitlines() == [
        "numeric error: the planner failed numerically"
        " (the greedy control's least-squares problem has non-finite entries)"
    ]


def test_a_control_box_of_infinite_width_exits_numeric_at_load(tmp_path):
    """A [-1e308, 1e308] control box has an infinite width, which the
    planner's uniform control samples cannot span (numpy raised
    OverflowError): the problem is rejected at load, by --validate-only
    and by a full run alike, with one numeric-error line."""
    doc = _base_doc()
    doc["control_domain"] = {"box": [[-1e308, 1e308], [-1e308, 1e308]]}
    path = _write(tmp_path, doc)
    expected = ["numeric error: $.control_domain: a side of the bounding box is not finite in length"]
    for args in (["--validate-only"], ["--seed", "0", "--no-simulation", "--iteration-cap", "300",
                                       "--out", str(tmp_path / "out")]):
        r = _cli(["--problem", path, *args], tmp_path)
        assert r.returncode == EXIT_NUMERIC, r.stderr
        assert r.stderr.splitlines() == expected


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, OverflowError, FloatingPointError])
def test_a_numeric_failure_in_the_planner_exits_numeric(tmp_path, capsys, error):
    """The planning stage maps numpy's and Python's numeric exceptions to
    exit 4 with one line that names the stage."""
    def failing(*args, **kwargs):
        raise error("boom")
    with mock.patch.object(cli, "solve", failing), pytest.raises(SystemExit) as exc:
        cli.main(["--problem", LIGHTDARK, "--seed", "0", "--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric error: the planner failed numerically (boom)\n"


def test_a_plan_without_steps_keeps_the_control_columns(tmp_path):
    """When the initial belief already satisfies the formula the plan
    has no steps; trajectory.csv and simulation.csv still carry one
    control column per control dimension, empty on the last row, under
    the headers of light-dark's golden files."""
    doc = _base_doc()
    doc["formula"] = "free_space"
    out = tmp_path / "out"
    assert run(["--problem", _write(tmp_path, doc), "--seed", "0", "--out", str(out)]) == 0
    with open(TRACK_REFERENCE) as fh:
        header = fh.readline()
    assert (out / "trajectory.csv").read_text().splitlines() == [
        header.rstrip("\n"), "0,,0,2.5,0.10000000000000001,0.10000000000000001,0,,",
    ]
    with open(os.path.join(HERE, "data", "lightdark_seed0", "simulation.csv")) as fh:
        fh.readline()  # the golden run's own verdict
        header = fh.readline()
    assert (out / "simulation.csv").read_text().splitlines() == [
        "# satisfied: 1", header.rstrip("\n"),
        "0,0.5,2.75,0,2.5,0.10000000000000001,0.10000000000000001,,",
    ]


def test_exit_code_schema(tmp_path):
    doc = _small_doc()
    del doc["modes"]
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr


@pytest.mark.parametrize("case", ["directory", "not-utf8", "deep-nesting"])
def test_an_unreadable_problem_file_exits_schema_with_one_line(tmp_path, case):
    """A problem file that cannot be opened, decoded or parsed without
    running out of stack exits 2 with one line naming the file, not
    with a traceback and the no-solution code."""
    path = tmp_path / "problem.json"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"\xff" + json.dumps(_small_doc()).encode())
    else:
        path.write_text('{"state_dim": ' + "[" * 100_000 + "]" * 100_000 + "}")
    r = _cli(["--problem", str(path), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.count("\n") == 1, r.stderr
    assert r.stderr.startswith(f"schema error: problem file {path} could not be read ("), r.stderr


def test_an_out_path_that_is_a_file_exits_schema(tmp_path):
    """--out naming a regular file exits 2 with one line, before any
    planning, and leaves the file as it was."""
    out = tmp_path / "out"
    out.write_text("")
    r = _cli(["--problem", _write(tmp_path, _small_doc()), "--out", str(out)], tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.count("\n") == 1, r.stderr
    assert r.stderr.startswith("schema error: --out: cannot create the output directory ("), r.stderr
    assert out.read_text() == ""


@pytest.mark.parametrize("name, written", [
    ("plan.json", []),
    ("simulation.csv", ["plan.json", "trajectory.csv"]),
], ids=["plan.json", "simulation.csv"])
def test_an_output_file_that_cannot_be_written_exits_schema(tmp_path, name, written):
    """A directory in --out named like an output file: after planning,
    writing that file fails, which exits 2 with one line naming it and
    no traceback. The files written before it stay."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    r = _cli(["--problem", _write(tmp_path, _small_doc()), "--seed", "0", "--out", str(out)], tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.count("\n") == 1, r.stderr
    assert r.stderr.startswith(f"schema error: --out: cannot write {out / name} ("), r.stderr
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == written


def test_exit_code_schema_bad_seed(tmp_path):
    doc = _small_doc()
    doc["planner"]["seed"] = "abc"
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr
    assert "Traceback" not in r.stderr


def test_an_infinite_rrt_timeout_exits_schema(tmp_path):
    """json reads "rrt_timeout": Infinity; the planner block has no such
    field, so the file is rejected at load as an unknown field, before
    the missing iteration_cap is reported."""
    doc = _base_doc()
    del doc["planner"]["iteration_cap"]
    doc["planner"]["rrt_timeout"] = float("inf")
    path = _write(tmp_path, doc)
    assert '"rrt_timeout": Infinity' in (tmp_path / "problem.json").read_text()
    r = _cli(["--problem", path, "--validate-only"], tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr
    assert r.stderr.endswith("$.planner: unknown field(s) ['rrt_timeout']\n")
    assert r.stderr.count("\n") == 1


def test_a_missing_iteration_cap_exits_schema(tmp_path):
    """iteration_cap is the one bound on a segment search, so a planner
    block without it is rejected at load with one line naming it."""
    doc = _base_doc()
    del doc["planner"]["iteration_cap"]
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.count("\n") == 1, r.stderr
    assert r.stderr.endswith("$.planner.iteration_cap: missing required field\n"), r.stderr


def test_a_hopeless_segment_runs_exactly_the_iteration_cap(tmp_path, monkeypatch):
    """A goal inside the safe region that the control bound of 1 per
    step cannot reach in 3 steps, so the goal proof does not prune it:
    every segment search from a feasible start runs --iteration-cap
    iterations, one rrt_select call each, and ends as a "timeout"."""
    doc = _small_doc()
    doc["formula"] = "(safe) U[0,3] (goal)"
    selects, searches = [], []
    select, solve_segment = belief_rrt.rrt_select, synthesis.solve_segment

    def counting_select(*args):
        selects.append(None)
        return select(*args)

    def recording_solve_segment(*args):
        before = len(selects)
        result = solve_segment(*args)
        searches.append((result.status, result.proof, len(selects) - before))
        return result

    monkeypatch.setattr(belief_rrt, "rrt_select", counting_select)
    monkeypatch.setattr(synthesis, "solve_segment", recording_solve_segment)
    out = tmp_path / "out"
    code = run(["--problem", _write(tmp_path, doc), "--out", str(out), "--iteration-cap", "37"])
    assert code == EXIT_NO_SOLUTION
    searched = [s for s in searches if s[0] != "infeasible-start"]
    assert searched and set(searched) == {("timeout", None, 37)}, searches
    assert len(selects) == 37 * len(searched)


@pytest.mark.parametrize(
    "flag, value", [("--seed", "-1"), ("--k-max", "0"), ("--iteration-cap", "0")]
)
@pytest.mark.parametrize("validate_only", [True, False])
def test_exit_code_schema_bad_flag(tmp_path, flag, value, validate_only):
    args = ["--problem", _write(tmp_path, _small_doc()), "--out", str(tmp_path / "out"),
            flag, value]
    r = _cli(args + ["--validate-only"] * validate_only, tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr
    assert "Traceback" not in r.stderr
    assert flag in r.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "error, code",
    [
        (IllConditionedUpdateError("innovation matrix is ill-conditioned"), EXIT_NUMERIC),
        (DegeneratePolytopeError("polytope has no interior"), EXIT_NUMERIC),
        (DomainError("std_normal_quantile requires p in (0, 1)"), EXIT_NUMERIC),
        (InternalConsistencyError("planner and monitor disagree"), EXIT_INTERNAL),
        (WitnessDisagreementError("batched search and word monitor disagree"), EXIT_INTERNAL),
    ],
)
def test_main_maps_search_errors_to_exit_codes(tmp_path, monkeypatch, capsys, error, code):
    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve", failing_solve)
    monkeypatch.setattr(
        sys, "argv",
        ["beliefplan", "--problem", _write(tmp_path, _small_doc()), "--out", str(tmp_path / "out")],
    )
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert str(error) in err
    assert "Traceback" not in err


def test_rejected_dwell_vector_exits_internal(tmp_path, monkeypatch, capsys):
    """A dwell vector the search reports but discrete_planner.monitor_word
    rejects ends the run with exit 5 and no traceback."""
    monkeypatch.setattr(discrete_planner, "monitor_word", lambda f, signature, dwells: False)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--problem", _write(tmp_path, _small_doc()), "--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "fail the word monitor" in err
    assert "Traceback" not in err


def test_rejected_realized_dwells_exit_no_solution(tmp_path, monkeypatch, capsys):
    """A word monitor that rejects every candidate's realized dwells
    leaves no plan: the run exits 1 without a traceback, and plan.json
    logs those candidates as "realized-dwell"."""
    monkeypatch.setattr(synthesis, "monitor_word", lambda f, signature, dwells: False)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--problem", _write(tmp_path, _small_doc()), "--out", str(out), "--iteration-cap", "300"])
    assert exc.value.code == EXIT_NO_SOLUTION
    assert "Traceback" not in capsys.readouterr().err
    plan = json.loads((out / "plan.json").read_text())
    assert plan["status"] == "no-solution"
    assert "realized-dwell" in [c["outcome"] for c in plan["candidates"]]


def test_exit_code_formula(tmp_path):
    doc = _small_doc()
    doc["formula"] = "G[5,2] (safe)"
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_FORMULA, r.stderr


@pytest.mark.parametrize(
    "entry, bound, code",
    [
        ("formula", MAX_HORIZON - 40, EXIT_SOLUTION),
        ("formula", MAX_HORIZON - 39, EXIT_FORMULA),
        ("formula", 10**14, EXIT_FORMULA),
        ("named_formulas", 2**31, EXIT_FORMULA),
    ],
)
def test_a_horizon_past_the_bound_exits_formula_at_load(tmp_path, entry, bound, code):
    """A formula whose horizon, named formulas substituted, exceeds
    MAX_HORIZON ends at load with exit 3 and one line that names its
    entry, before any monitor sizes an array by it; the horizon
    MAX_HORIZON itself validates."""
    doc = _base_doc()
    text = f"(free_space) U[0,{bound}] G[0,40] (target)"
    if entry == "named_formulas":
        doc["named_formulas"]["far"], doc["formula"] = text, "far"
        path = "$.named_formulas.far"
    else:
        doc["formula"], path = text, "$.formula"
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == code, r.stderr
    if code == EXIT_FORMULA:
        assert r.stderr == (f"formula error: {path}: horizon {bound + 40} exceeds "
                            f"{MAX_HORIZON} steps (line 1, column 1)\n")


@pytest.mark.parametrize(
    "entry, path",
    [("named_formulas", "$.named_formulas.extra: "), ("formula", "$.formula: ")],
)
def test_formula_error_names_its_entry(tmp_path, entry, path):
    doc = _small_doc()
    if entry == "named_formulas":
        doc["named_formulas"]["extra"] = "(safe) U[0,3] nowhere"
    else:
        doc["formula"] = "(safe) U[0,3] nowhere"
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_FORMULA, r.stderr
    assert r.stderr == f"formula error: {path}unknown formula name 'nowhere' (line 1, column 15)\n"


@pytest.mark.parametrize("name", ["true", "false", "P", "q", "G", "F"])
def test_a_formula_named_after_a_keyword_exits_formula(tmp_path, name):
    """The parser reads these words before the table of named formulas:
    a formula named "true" would stand for the constant, and one named
    "G" would not parse. Such a name is a formula error at load."""
    doc = _small_doc()
    doc["named_formulas"][name] = doc["named_formulas"]["goal"]
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_FORMULA, r.stderr
    assert r.stderr == (f"formula error: $.named_formulas.{name}: {name!r} is a keyword "
                        "of the formula grammar\n")


def _small_doc_3d():
    """_small_doc with two more states, which nothing observes or moves."""
    doc = _small_doc()
    eye = np.eye(3).tolist()
    mode = {"A": eye, "B": [[1.0], [0.0], [0.0]], "W": np.zeros((3, 3)).tolist()}
    doc["state_dim"] = 3
    doc["modes"] = [dict(mode, C=[[1.0, 0.0, 0.0]], noise="0.01")]
    doc["initial"] = {"mean": [0.0, 0.0, 0.0], "cov": (0.01 * np.eye(3)).tolist()}
    doc["simulation"]["real_modes"] = [mode]
    doc["simulation"]["real_x0"] = [0.05, 0.0, 0.0]
    doc["simulation"]["lqr"].update(Q_final=eye, Q=eye)
    return doc


def _numeric_cases():
    """Problems that end with exit 4, each with whether only its
    validation runs and the one line it prints."""
    doc = _small_doc()
    doc["initial"]["mean"] = [0.0, 0.0]
    yield doc, True, "$.initial.mean: expected shape (1,), got (2,)"
    doc = _small_doc_3d()
    doc["initial"]["cov"][2][2] = 1.7e308  # numpy's symmetrization overflows
    yield doc, True, "$.initial.cov: non-finite entries in belief state"
    doc = _base_doc()
    doc["simulation"]["lqr"]["Q_final"] = [[-0.8, 0.0], [0.0, -0.8]]  # lqr_gains meets a singular matrix
    yield doc, True, ("$.simulation.lqr.Q_final: expected a symmetric positive semidefinite "
                      "matrix, got [[-0.8, 0.0], [0.0, -0.8]]")
    # light-dark's gain 0.1 (5 - x0)^2 + 0.001 is infinite at the true
    # state, which the estimate does not follow
    doc = _base_doc()
    doc["simulation"]["real_x0"] = [1e160, 2.75]
    yield doc, False, ("$.simulation: the tracked execution failed numerically "
                       "(non-finite entries in belief state)")


def test_exit_code_numeric(tmp_path):
    """Exit 4 with exactly one line on stderr: no numpy warning, no
    traceback."""
    for doc, validate_only, message in _numeric_cases():
        args = ["--problem", _write(tmp_path, doc), "--out", str(tmp_path / "out")]
        r = _cli(args + ["--validate-only"] * validate_only, tmp_path)
        assert r.returncode == EXIT_NUMERIC, r.stderr
        assert r.stderr == f"numeric error: {message}\n"


def test_exit_code_numeric_singular_lqr_R(tmp_path):
    doc = _small_doc()
    doc["simulation"]["lqr"]["R"] = [[0.0]]
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_NUMERIC, r.stderr
    assert "Traceback" not in r.stderr


# 1,200 named formulas, each F[0,1] of the one before: every text nests
# two levels, the tree of the last one 1,200.
_NAMED_CHAIN = {"n0": "F[0,1] (target)", **{f"n{i}": f"F[0,1] (n{i - 1})" for i in range(1, 1200)}}


@pytest.mark.parametrize(
    "field, text, code",
    [
        ("formula", "(" * 250 + "free_space" + ")" * 250 + " U[0,240] G[0,40] (target)",
         EXIT_FORMULA),
        ("formula", "G[0,1] " * 5000 + "(target)", EXIT_FORMULA),
        ("named_formulas", "(free_space) U[0,240] (n1199)", EXIT_FORMULA),
        ("noise", "(" * 5000 + "x0" + ")" * 5000, EXIT_NUMERIC),
        ("noise", "-" * 5000 + "x0", EXIT_NUMERIC),
        ("noise", " + ".join(["x0"] * 5000), EXIT_NUMERIC),
    ],
    ids=["parentheses", "prefixes", "named-chain", "noise-parentheses", "noise-minuses",
         "noise-sum"],
)
@pytest.mark.parametrize("validate_only", [True, False])
def test_deep_nesting_exits_with_a_one_line_message(tmp_path, field, text, code, validate_only):
    """Nesting past MAX_NESTING ends at load with its exit code and one
    line on stderr, never with a RecursionError from the parsers, the
    noise walk, horizon or the monitors."""
    doc = _base_doc()
    if field == "noise":
        doc["modes"][0]["noise"] = text
    else:
        doc["formula"] = text
    if field == "named_formulas":
        doc["named_formulas"].update(_NAMED_CHAIN)
    args = ["--problem", _write(tmp_path, doc), "--out", str(tmp_path / "out"),
            "--no-simulation", "--iteration-cap", "5"]
    r = _cli(args + ["--validate-only"] * validate_only, tmp_path)
    assert r.returncode == code, r.stderr
    assert r.stderr.count("\n") == 1 and "nests deeper than 64 levels" in r.stderr, r.stderr


def test_named_chain_plans_in_linear_time(tmp_path):
    """Twenty named formulas, each using the one before twice, make a
    syntax tree of over 2**20 leaves on some 60 distinct nodes. A walk of
    the tree did not finish this run in a minute; a walk of the distinct
    nodes takes well under a second."""
    doc = _base_doc()
    doc["named_formulas"]["n0"] = "target"
    for i in range(1, 21):
        doc["named_formulas"][f"n{i}"] = f"(n{i - 1}) & (true U[0,1] n{i - 1})"
    doc["formula"] = "(free_space) U[0,240] (n20)"
    args = ["--problem", _write(tmp_path, doc), "--out", str(tmp_path / "out"),
            "--no-simulation", "--iteration-cap", "5"]
    r = _cli(args, tmp_path, timeout=60)
    assert r.returncode == EXIT_NO_SOLUTION, r.stderr


def test_exit_code_validate_ok(tmp_path):
    r = _cli(["--problem", _write(tmp_path, _small_doc()), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_SOLUTION, r.stderr


def test_seed_and_cap_overrides(tmp_path):
    doc = _small_doc()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    path = _write(tmp_path, doc)
    for out in (out1, out2):
        code = run(
            ["--problem", path, "--out", str(out), "--seed", "7", "--iteration-cap", "3000"]
        )
        assert code == EXIT_SOLUTION
    for name in ("plan.json", "trajectory.csv", "simulation.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# Fuzzed problem files
# ---------------------------------------------------------------------------

DOCUMENTED_EXIT_CODES = {
    EXIT_SOLUTION, EXIT_NO_SOLUTION, EXIT_SCHEMA, EXIT_FORMULA, EXIT_NUMERIC, EXIT_INTERNAL,
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_EXTREMES = [0, -1, 1, 0.5, -0.5, 1e-320, 1e308, -1e308, float("nan"), float("inf"), 2**63]
_TEXT_NUMBERS = ["0", "-1", "1e999", "1e-999", "99999999999999999999", "0.5", "nan"]


def _scalars(parent, key):
    """(parent, key) of every scalar at or below parent[key]."""
    node = parent[key]
    if isinstance(node, (dict, list)):
        for k in (node if isinstance(node, dict) else range(len(node))):
            yield from _scalars(node, k)
    else:
        yield parent, key


@st.composite
def _mutated_lightdark(draw, section=None):
    """problems/lightdark.json with one to three mutations, each at a
    path found by walking down from the root: drop the field or item,
    give it another JSON type, reshape it, or set an out-of-range value
    (for a string, a number inside it). With a top-level section, each
    mutation instead sets one of that section's scalars, drawn evenly,
    to an out-of-range value, so deep numbers are reached as often as
    shallow ones."""
    doc = _base_doc()
    for _ in range(draw(st.integers(1, 3))):
        if section is not None:
            parent, key = draw(st.sampled_from(list(_scalars(doc, section))))
            parent[key] = draw(st.sampled_from(_EXTREMES))
            continue
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and len(node) and (parent is None or draw(st.booleans())):
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        if parent is None:
            continue
        kind = draw(st.sampled_from(["drop", "retype", "reshape", "range"]))
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = draw(_JSON_VALUES)
        elif kind == "reshape":
            if isinstance(node, list) and node:
                parent[key] = draw(st.sampled_from([node[:-1], node + node[-1:], [node], node[0]]))
            else:
                parent[key] = [node]
        elif isinstance(node, str):
            numbers = list(re.finditer(r"(?<![\w.])\d+(\.\d+)?", node))  # not the 0 of x0
            if numbers:
                at = numbers[draw(st.integers(0, len(numbers) - 1))]
                number = draw(st.sampled_from(_TEXT_NUMBERS))
                parent[key] = node[: at.start()] + number + node[at.end():]
        else:
            parent[key] = draw(st.sampled_from(_EXTREMES))
    return doc


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_mutated_lightdark())
def test_fuzzed_lightdark_exits_with_documented_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.main(["--problem", path, "--validate-only"])
    assert exc.value.code in DOCUMENTED_EXIT_CODES, err.getvalue()
    assert "Traceback" not in err.getvalue()


@functools.cache
def _lightdark_result():
    problem, params, k_max, seed, _ = load_problem(LIGHTDARK)
    return solve(problem, params, k_max=k_max, rng=np.random.default_rng(seed))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_mutated_lightdark(section="simulation"))
def test_fuzzed_simulation_block_exits_with_documented_code(doc):
    """A full run with mutated simulation scalars, on a fixed light-dark
    solution, ends with a documented exit code and no traceback, whether
    load_problem rejects the block or the tracking stage fails."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        fixed = mock.patch.object(cli, "solve", lambda *args, **kwargs: _lightdark_result())
        with fixed, contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.main(["--problem", path, "--out", os.path.join(tmp, "out")])
    assert exc.value.code in DOCUMENTED_EXIT_CODES, err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("section", ["modes", "control_domain", "initial"])
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_planner_inputs_exit_with_one_line(section, data):
    """A short planning run on mutated modes, control domain or initial
    belief ends with a documented exit code and no traceback; an error
    exit writes exactly one line to stderr, a solution or no solution
    none."""
    doc = data.draw(_mutated_lightdark(section=section))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        argv = ["--problem", path, "--out", os.path.join(tmp, "out"), "--no-simulation",
                "--iteration-cap", "50", "--k-max", "2"]
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert exc.value.code in DOCUMENTED_EXIT_CODES, err.getvalue()
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) == (exc.value.code not in (EXIT_SOLUTION, EXIT_NO_SOLUTION)), lines
