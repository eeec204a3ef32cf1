import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from beliefplan.cli import (
    EXIT_FORMULA,
    EXIT_NO_SOLUTION,
    EXIT_NUMERIC,
    EXIT_SCHEMA,
    EXIT_SOLUTION,
    NumericError,
    SchemaError,
    load_problem,
    run,
)
from beliefplan.formula import FormulaSyntaxError

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


def test_load_formula_error(tmp_path):
    doc = _base_doc()
    doc["formula"] = "(free_space) U[0,240] G[0,40] (unknown_region)"
    with pytest.raises(FormulaSyntaxError):
        load_problem(_write(tmp_path, doc))


def test_load_unknown_planner_field(tmp_path):
    doc = _base_doc()
    doc["planner"]["bogus"] = 1
    with pytest.raises(SchemaError, match="bogus"):
        load_problem(_write(tmp_path, doc))


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


def test_run_no_solution(tmp_path):
    doc = _small_doc()
    doc["named_formulas"]["goal"] = "P(x0 <= -50) >= 0.9"
    doc["formula"] = "F[0,5] (goal)"
    doc["planner"]["iteration_cap"] = 200
    out = tmp_path / "out"
    code = run(["--problem", _write(tmp_path, doc), "--out", str(out)])
    assert code == EXIT_NO_SOLUTION
    plan = json.loads((out / "plan.json").read_text())
    assert plan["status"] == "no-solution"
    assert not (out / "trajectory.csv").exists()


def _cli(args, tmp_path):
    # The child runs in tmp_path, where a relative PYTHONPATH such as "src"
    # no longer resolves, so put the absolute src directory first.  Empty
    # entries are dropped: they would add the child's cwd to sys.path.
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-m", "beliefplan.cli", *args],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
    )


def test_exit_code_schema(tmp_path):
    doc = _small_doc()
    del doc["modes"]
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr


def test_exit_code_schema_bad_seed(tmp_path):
    doc = _small_doc()
    doc["planner"]["seed"] = "abc"
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_SCHEMA, r.stderr
    assert "Traceback" not in r.stderr


def test_exit_code_formula(tmp_path):
    doc = _small_doc()
    doc["formula"] = "G[5,2] (safe)"
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_FORMULA, r.stderr


def test_exit_code_numeric(tmp_path):
    doc = _small_doc()
    doc["initial"]["mean"] = [0.0, 0.0]
    r = _cli(["--problem", _write(tmp_path, doc), "--validate-only"], tmp_path)
    assert r.returncode == EXIT_NUMERIC, r.stderr


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
