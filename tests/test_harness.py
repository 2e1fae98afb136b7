"""Convergence-study harness: error measurement, rate algebra, the grading
threshold predictor, study execution, and the CSV round trips."""

import csv
import math

import numpy as np
import pytest

from memburgers.gridops import GridFunction
from memburgers.harness import (
    CSV_HEADER,
    StudyPlan,
    dump_trajectory_csv,
    dump_weights_csv,
    emit_csv,
    error_at_final_time,
    observed_rate,
    resolve_gamma,
    run_study,
)
from memburgers.mesh import build_graded_mesh, build_spatial_grid
from memburgers.problems import example1, example2
from memburgers.quadrature import compute_weights
from memburgers.scheme import SchemeConfig, solve

from oracles import expected_temporal_order

SQRT_3_4 = 0.8660254037844386  # frozen: sqrt(0.75)
RATE_2011_0963 = 1.0633651053898021  # frozen: log2(2.0116e-3 / 9.6258e-4)


def test_error_at_final_time_constant_offset():
    # final level = exact + 1 at the three interior nodes of a J = 4 grid,
    # so the L2 error is sqrt(3 h) = sqrt(0.75)
    problem = example1(0.5)
    grid = build_spatial_grid(1.0, 4)
    exact = problem.exact(grid.x, 1.0)
    shifted = exact.copy()
    shifted[1:-1] += 1.0
    err = error_at_final_time(GridFunction(grid=grid, values=shifted), problem, 1.0)
    assert err == pytest.approx(SQRT_3_4, rel=1e-13)


def test_observed_rate_frozen_pair():
    assert observed_rate(2.0116e-3, 9.6258e-4) == pytest.approx(RATE_2011_0963, rel=1e-13)
    assert abs(observed_rate(2.0116e-3, 9.6258e-4) - 1.06) < 0.01
    assert observed_rate(4.0, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_observed_rate_domain():
    with pytest.raises(ValueError):
        observed_rate(0.0, 1e-3)
    with pytest.raises(ValueError):
        observed_rate(1e-3, -1e-4)


def test_expected_temporal_order_regimes():
    below = expected_temporal_order(1.0, 1.25)
    assert below.regime == "below_threshold"
    assert below.order == pytest.approx(1.25)
    assert not below.log_factor

    at = expected_temporal_order(1.6, 1.25)  # threshold 2/1.25 = 1.6 exactly
    assert at.regime == "at_threshold"
    assert at.order == 2.0
    assert at.log_factor

    above = expected_temporal_order(1.0, 2.25)  # threshold 2/2.25 < 1
    assert above.regime == "above_threshold"
    assert above.order == 2.0
    assert not above.log_factor


def test_expected_temporal_order_validation():
    with pytest.raises(ValueError):
        expected_temporal_order(0.9, 1.25)
    with pytest.raises(ValueError):
        expected_temporal_order(1.5, 0.0)


def test_resolve_gamma_rules_and_clamping():
    p1 = example1(0.5)
    assert resolve_gamma("2/(alpha+1)", p1, "endpoint_average") == pytest.approx(4.0 / 3.0)
    # 2/(alpha+2) < 1 always, so it clamps to the uniform mesh
    assert resolve_gamma("2/(alpha+2)", p1, "interval_average") == 1.0
    # auto-sigma: sigma = alpha + 2 = 2.5 under interval averaging -> clamped
    assert resolve_gamma("auto-sigma", p1, "interval_average") == 1.0
    # auto-sigma on pointwise modes: sigma = alpha + 1 = 1.5 -> 4/3
    assert resolve_gamma("auto-sigma", p1, "midpoint") == pytest.approx(4.0 / 3.0)
    assert resolve_gamma(1.75, p1, "midpoint") == 1.75
    for gamma in (0.8, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"gamma must be finite and >= 1, got {gamma}"):
            resolve_gamma(gamma, p1, "midpoint")
    p2 = example2(0.5)
    with pytest.raises(ValueError):
        resolve_gamma("auto-sigma", p2, "endpoint_average")  # no order statement


def test_study_plan_validation():
    ok = dict(
        problem="example1", alphas=(0.5,), gamma_rule=1.0, axis="time",
        base_n=2, base_j=4, levels=2,
    )
    StudyPlan(**ok)
    with pytest.raises(ValueError):
        StudyPlan(**{**ok, "axis": "both"})
    with pytest.raises(ValueError):
        StudyPlan(**{**ok, "levels": 0})
    with pytest.raises(ValueError):
        StudyPlan(**{**ok, "alphas": ()})
    with pytest.raises(ValueError):
        StudyPlan(**{**ok, "f_mode": "simpson"})
    with pytest.raises(ValueError):
        StudyPlan(**{**ok, "gamma_rule": "2/alpha"})
    # solver settings are checked by the SchemeConfig the study will run
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        StudyPlan(**{**ok, "eps": math.inf})
    with pytest.raises(ValueError, match="max_steps must be >= 2"):
        StudyPlan(**{**ok, "max_steps": 1})
    # counts that are not integers are refused, not run at truncated values
    for name, bad in (("base_n", 4.5), ("base_j", 8.5), ("levels", 2.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            StudyPlan(**{**ok, name: bad})
    StudyPlan(**{**ok, "base_n": np.int64(2), "base_j": np.int32(4), "levels": np.int64(2)})


def test_run_study_block_structure():
    plan = StudyPlan(
        problem="example1",
        alphas=(0.25, 0.75),
        gamma_rule="2/(alpha+1)",
        axis="time",
        base_n=2,
        base_j=8,
        levels=3,
    )
    rows = run_study(plan)
    assert len(rows) == 6
    # N doubles inside each alpha block; J stays fixed
    assert [r.N for r in rows] == [2, 4, 8, 2, 4, 8]
    assert all(r.J == 8 for r in rows)
    assert [r.alpha for r in rows] == [0.25, 0.25, 0.25, 0.75, 0.75, 0.75]
    # rate is blank exactly at the start of each block
    assert rows[0].rate is None and rows[3].rate is None
    for i in (1, 2, 4, 5):
        assert rows[i].rate == pytest.approx(
            np.log2(rows[i - 1].error_l2 / rows[i].error_l2), rel=1e-12
        )
    # resolved grading exponent is recorded per block
    assert rows[0].gamma == pytest.approx(2.0 / 1.25)
    assert rows[3].gamma == pytest.approx(2.0 / 1.75)
    assert all(r.error_l2 > 0.0 for r in rows)
    assert all(r.wall_time_seconds >= 0.0 for r in rows)
    assert all(r.max_fp_iters >= 1 for r in rows)


def test_run_study_space_axis_doubles_j():
    plan = StudyPlan(
        problem="example2",
        alphas=(0.5,),
        gamma_rule="2/(alpha+1)",
        axis="space",
        base_n=4,
        base_j=4,
        levels=2,
        f_mode="interval_average",
    )
    rows = run_study(plan)
    assert [r.J for r in rows] == [4, 8]
    assert all(r.N == 4 for r in rows)


def test_run_study_is_deterministic_modulo_walltime():
    plan = StudyPlan(
        problem="example1", alphas=(0.5,), gamma_rule=1.0, axis="time",
        base_n=2, base_j=8, levels=2,
    )
    a = run_study(plan)
    b = run_study(plan)
    for ra, rb in zip(a, b):
        assert ra.error_l2 == rb.error_l2
        assert ra.rate == rb.rate
        assert ra.max_fp_iters == rb.max_fp_iters


def test_emit_csv_round_trip(tmp_path):
    plan = StudyPlan(
        problem="example1", alphas=(0.5,), gamma_rule=4.0 / 3.0, axis="time",
        base_n=2, base_j=8, levels=2,
    )
    rows = run_study(plan)
    path = tmp_path / "study.csv"
    emit_csv(rows, str(path))
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 1 + len(rows)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["rate"] == ""
    # repr-format floats round-trip exactly
    assert float(parsed[0]["error_l2"]) == rows[0].error_l2
    assert float(parsed[1]["rate"]) == rows[1].rate
    assert float(parsed[1]["gamma"]) == rows[1].gamma
    assert int(parsed[1]["N"]) == rows[1].N
    assert parsed[0]["f_mode"] == "endpoint_average"


def test_emit_csv_writes_numpy_floats_as_numbers(tmp_path):
    # alphas taken from a numpy array are np.float64; the CSV must hold 0.5,
    # not np.float64(0.5), so float() can read it back
    plan = StudyPlan(
        problem="example1", alphas=tuple(np.array([0.5])), gamma_rule=1.0, axis="time",
        base_n=2, base_j=4, levels=1,
    )
    path = tmp_path / "numpy.csv"
    emit_csv(run_study(plan), str(path))
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert float(parsed[0]["alpha"]) == 0.5
    assert parsed[0]["N"] == "2"


def test_run_study_writes_out_file(tmp_path):
    path = tmp_path / "auto.csv"
    plan = StudyPlan(
        problem="example1", alphas=(0.5,), gamma_rule=1.0, axis="time",
        base_n=2, base_j=4, levels=1,
    )
    emit_csv(run_study(plan), str(path))
    assert path.read_text().splitlines()[0] == CSV_HEADER


def test_dump_weights_csv_round_trip(tmp_path):
    mesh = build_graded_mesh(1.0, 4, 1.5)
    weights = compute_weights(mesh, 0.3)
    path = tmp_path / "weights.csv"
    with open(path, "w", newline="") as fh:
        dump_weights_csv(weights, fh)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 4 * 5 // 2  # triangular count
    for rec in parsed:
        n, s = int(rec["n"]), int(rec["s"])
        assert float(rec["weight"]) == weights[n, s]


def test_dump_trajectory_csv(tmp_path):
    problem = example1(0.5)
    mesh = build_graded_mesh(1.0, 3, 1.0)
    grid = build_spatial_grid(1.0, 4)
    result = solve(problem, mesh, grid, 0.5, SchemeConfig(), keep_trajectory=True)
    path = tmp_path / "traj.csv"
    dump_trajectory_csv(result, str(path))
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 4
    assert [int(r["n"]) for r in parsed] == [0, 1, 2, 3]
    for rec, level in zip(parsed, result.trajectory):
        assert float(rec["t"]) == float(mesh.t[int(rec["n"])])
        for j in range(5):
            assert float(rec[f"u_{j}"]) == level[j]

    bare = solve(problem, mesh, grid, 0.5, SchemeConfig())
    with pytest.raises(ValueError):
        dump_trajectory_csv(bare, str(tmp_path / "x.csv"))
