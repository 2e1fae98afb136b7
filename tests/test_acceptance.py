"""Acceptance gate: every benchmark column, invariant, and equivalence the
package promises, one criterion per test, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import time

import numpy as np
import pytest

from memburgers import scheme
from memburgers.gridops import convection_values, norm_l2, second_diff_values
from memburgers.harness import StudyPlan, expected_temporal_order, run_study
from memburgers.mesh import build_graded_mesh, build_spatial_grid
from memburgers.problems import example1, example2
from memburgers.quadrature import compute_weights
from memburgers.scheme import SchemeConfig, StabilityViolationError, solve

from oracles import (
    delta_b,
    delta_c,
    delta_f,
    dense_trajectory,
    shift_b,
    shift_f,
    staggered_diff,
    weight_by_quadrature,
)


def _verdict(number, label, body):
    try:
        body()
    except AssertionError:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def _check_column(rows, expected_errors, expected_rates, rate_tol):
    assert len(rows) == len(expected_errors)
    for row, expected in zip(rows, expected_errors):
        assert row.error_l2 == pytest.approx(expected, rel=0.05), (
            f"N={row.N} J={row.J}: error {row.error_l2:.6e} vs expected {expected:.6e}"
        )
    observed = [row.rate for row in rows[1:]]
    for got, expected in zip(observed, expected_rates):
        assert got == pytest.approx(expected, abs=rate_tol), (
            f"rate {got:.3f} vs expected {expected:.2f} (tol {rate_tol})"
        )


@pytest.fixture(scope="module")
def study_uniform_a025():
    return run_study(
        StudyPlan("example1", (0.25,), 1.0, "time", 8, 1024, 4, "endpoint_average")
    )


@pytest.fixture(scope="module")
def study_graded_a025():
    return run_study(
        StudyPlan(
            "example1", (0.25,), "2/(alpha+1)", "time", 8, 1024, 4, "endpoint_average"
        )
    )


@pytest.fixture(scope="module")
def study_interval_a050():
    return run_study(
        StudyPlan(
            "example1", (0.5,), "2/(alpha+1)", "time", 8, 1024, 4, "interval_average"
        )
    )


@pytest.fixture(scope="module")
def study_spatial_a065():
    return run_study(
        StudyPlan(
            "example1", (0.65,), "2/(alpha+1)", "space", 256, 8, 4, "endpoint_average"
        )
    )


@pytest.fixture(scope="module")
def study_singular_a075():
    return run_study(
        StudyPlan(
            "example2", (0.75,), "2/(alpha+1)", "time", 8, 512, 4, "interval_average"
        )
    )


def test_criterion_1_uniform_mesh_reduced_order(study_uniform_a025):
    # problem 1, alpha = 0.25, uniform mesh, pointwise f: the singular mode
    # caps the order at sigma = 1.25
    def body():
        _check_column(
            study_uniform_a025,
            [5.2489e-3, 2.1570e-3, 9.0520e-4, 3.8131e-4],
            [1.28, 1.25, 1.25],
            rate_tol=0.1,
        )

    _verdict(1, "uniform mesh order 1+alpha", body)


def test_criterion_2_graded_mesh_restores_order(study_graded_a025):
    # same problem, grading at gamma = 2/(1+alpha) = 1.6 recovers order ~2
    def body():
        rows = study_graded_a025
        assert rows[-1].N == 64
        assert rows[-1].error_l2 == pytest.approx(3.3192e-5, rel=0.05)
        _check_column(
            rows,
            [rows[0].error_l2, rows[1].error_l2, rows[2].error_l2, rows[3].error_l2],
            [1.83, 1.86, 1.90],
            rate_tol=0.1,
        )

    _verdict(2, "graded mesh restores second order", body)


def test_criterion_3_interval_average_second_order(study_interval_a050):
    # alpha = 0.5, gamma = 4/3, interval-averaged f: clean second order
    def body():
        _check_column(
            study_interval_a050,
            [2.7254e-3, 6.7966e-4, 1.7026e-4, 4.1702e-5],
            [2.00, 2.00, 2.00],
            rate_tol=0.1,
        )

    _verdict(3, "interval-averaged f second order in time", body)


def test_criterion_4_spatial_second_order(study_spatial_a065):
    # alpha = 0.65, N = 256 fixed, J doubling: second order in space
    def body():
        _check_column(
            study_spatial_a065,
            [2.7412e-2, 6.7176e-3, 1.6726e-3, 4.1903e-4],
            [2.0, 2.0, 2.0],
            rate_tol=0.05,
        )

    _verdict(4, "second order in space", body)


def test_criterion_5_singular_solution_order(study_singular_a075):
    # problem 2 (u ~ t^alpha, singular forcing), alpha = 0.75, gamma = 8/7,
    # interval-averaged f
    def body():
        _check_column(
            study_singular_a075,
            [6.0540e-3, 1.6480e-3, 4.2152e-4, 1.0608e-4],
            [1.88, 1.97, 1.99],
            rate_tol=0.1,
        )

    _verdict(5, "singular-solution benchmark", body)


def test_criterion_6_discrete_identities():
    # the convection form is exactly skew symmetric and the six
    # summation-by-parts identities hold on random zero-boundary pairs
    def body():
        rng = np.random.default_rng(1105)
        for _ in range(500):
            J = int(rng.integers(4, 65))
            g = build_spatial_grid(1.0, J)
            wv = rng.normal(size=J + 1)
            vv = rng.normal(size=J + 1)
            wv[0] = wv[-1] = vv[0] = vv[-1] = 0.0
            h = g.h

            def ip(a, b):
                return h * float(np.dot(a[1:-1], b[1:-1]))

            def close(lhs, rhs):
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))

            nw = convection_values(wv, h)
            assert abs(ip(nw, wv)) <= 1e-12 * (1.0 + norm_l2(nw, h) * norm_l2(wv, h))
            close(
                ip(second_diff_values(wv, h), vv),
                -h * float(np.dot(staggered_diff(wv, h), staggered_diff(vv, h))),
            )
            close(
                ip(delta_c(wv * vv), vv),
                0.5 * ip(shift_f(vv) * delta_f(wv) + shift_b(vv) * delta_b(wv), vv),
            )
            close(ip(wv * delta_c(vv) + delta_c(wv * vv), vv), 0.0)
            close(ip(wv * delta_c(wv), vv) + ip(delta_c(wv * vv), wv), 0.0)
            close(ip(wv * delta_c(vv), wv) + ip(delta_c(wv * wv), vv), 0.0)
            e = vv - wv
            close(
                ip(vv * delta_c(e) + e * delta_c(wv) + delta_c(e * (vv + wv)), e),
                ip(e * delta_c(wv) + delta_c(wv * e), e),
            )

    _verdict(6, "discrete operator identities", body)


def test_criterion_7_weight_properties():
    # positivity on random meshes, positive-semidefinite memory pairing,
    # and closed-form agreement with double quadrature, all inside a minute
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(2201)
        for _ in range(200):
            n = int(rng.integers(1, 41))
            mesh = build_graded_mesh(
                float(rng.uniform(0.5, 2.0)), n, float(rng.uniform(1.0, 3.0))
            )
            w = compute_weights(mesh, float(rng.uniform(0.02, 0.98)))
            for level in range(1, n + 1):
                assert np.all(w[level, 1 : level + 1] > 0.0)

        for _ in range(1000):
            n = int(rng.integers(1, 21))
            mesh = build_graded_mesh(1.0, n, float(rng.uniform(1.0, 3.0)))
            w = compute_weights(mesh, float(rng.uniform(0.02, 0.98)))
            levels = rng.normal(size=n + 1)
            c = np.empty(n + 1)
            c[1] = levels[1]
            for s in range(2, n + 1):
                c[s] = 0.5 * (levels[s] + levels[s - 1])
            q = 0.0
            for lev in range(1, n + 1):
                mem = float(np.dot(w[lev, 1 : lev + 1] * mesh.k[:lev], c[1 : lev + 1]))
                q += mesh.k[lev - 1] * mem * c[lev]
            assert q >= -1e-12

        for n_steps, grading, alpha in [(5, 1.6, 0.3), (5, 1.0, 0.7), (4, 2.0, 0.5)]:
            mesh = build_graded_mesh(1.0, n_steps, grading)
            w = compute_weights(mesh, alpha)
            for n in range(1, n_steps + 1):
                for s in range(1, n + 1):
                    ref = weight_by_quadrature(mesh.t, n, s, alpha)
                    assert abs(w[n, s] - ref) <= 1e-9 * abs(ref)

        assert time.perf_counter() - start < 60.0

    _verdict(7, "weight positivity, PSD pairing, quadrature match", body)


def test_criterion_8_energy_stability():
    # every completed step satisfies the energy bound (margin >= -1e-9) on
    # the benchmark configs, and the violation guard actually raises
    def body():
        for problem, grading, j, f_mode in [
            (example1(0.25), 1.0, 1024, "endpoint_average"),
            (example2(0.75), 8.0 / 7.0, 512, "interval_average"),
        ]:
            mesh = build_graded_mesh(1.0, 64, grading)
            grid = build_spatial_grid(1.0, j)
            result = solve(
                problem, mesh, grid, problem.alpha, SchemeConfig(f_mode=f_mode)
            )
            assert len(result.reports) == 64
            assert all(r.stability_margin >= -1e-9 for r in result.reports)

        grid = build_spatial_grid(1.0, 4)
        violating = np.zeros(grid.J + 1)
        violating[1:-1] = 1.0
        with pytest.raises(StabilityViolationError):
            scheme._check_stability(0.0, violating, grid.h, step=1)

    _verdict(8, "energy bound margins", body)


def test_criterion_9_dense_oracle_equivalence():
    # the fixed-point solver reproduces an independently assembled
    # dense Newton-Krylov trajectory to 1e-7 in the max norm, every level
    def body():
        cases = [
            (example1(0.25), 1.0, "endpoint_average"),
            (example1(0.75), 2.0 / 1.75, "interval_average"),
            (example2(0.25), 1.6, "interval_average"),
            (example2(0.75), 1.0, "interval_average"),
        ]
        for problem, grading, f_mode in cases:
            mesh = build_graded_mesh(1.0, 4, grading)
            grid = build_spatial_grid(1.0, 8)
            cfg = SchemeConfig(eps=1e-12, f_mode=f_mode)
            result = solve(
                problem, mesh, grid, problem.alpha, cfg, keep_trajectory=True
            )
            reference = dense_trajectory(problem, mesh, grid, problem.alpha, f_mode)
            for level, ref in zip(result.trajectory, reference):
                assert np.max(np.abs(level - ref)) <= 1e-7

    _verdict(9, "independent dense-solver equivalence", body)


def test_criterion_10_order_predictor_agreement(
    study_uniform_a025, study_graded_a025, study_interval_a050
):
    # the grading-threshold predictor names the regime and the observed
    # final-level rates land on its orders
    def body():
        below = expected_temporal_order(1.0, 1.25)
        assert below.regime == "below_threshold" and below.order == pytest.approx(1.25)
        at = expected_temporal_order(1.6, 1.25)
        assert at.regime == "at_threshold" and at.order == 2.0 and at.log_factor
        above = expected_temporal_order(4.0 / 3.0, 2.5)
        assert above.regime == "above_threshold" and above.order == 2.0

        assert abs(study_uniform_a025[-1].rate - below.order) <= 0.15
        assert abs(study_graded_a025[-1].rate - at.order) <= 0.25
        assert abs(study_interval_a050[-1].rate - above.order) <= 0.15

    _verdict(10, "order predictor matches observations", body)
