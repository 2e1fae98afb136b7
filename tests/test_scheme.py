"""Time stepper tests: the tridiagonal core, Picard behavior, the guards,
energy margins, and agreement with an independently assembled
dense-solver oracle."""

import dataclasses

import numpy as np
import pytest

from memburgers import scheme
from memburgers.mesh import build_graded_mesh, build_mesh_from_levels, build_spatial_grid
from memburgers.problems import (
    ManufacturedProblem,
    SeparableForcing,
    example1,
    example2,
)
from memburgers.quadrature import compute_weights
from memburgers.scheme import (
    NonconvergenceError,
    SchemeConfig,
    StabilityViolationError,
    solve,
    tridiagonal_factor,
    tridiagonal_solve,
)

from oracles import dense_trajectory, f_half_reference


def _zero_problem(alpha=0.5):
    return ManufacturedProblem(
        name="zero",
        alpha=alpha,
        u0=lambda x: np.zeros_like(x),
        exact=lambda x, t: np.zeros_like(x),
        forcing=SeparableForcing(terms=()),
        sigma={},
    )


def test_tridiagonal_hand_solution():
    factor = tridiagonal_factor([2.0, 2.0, 2.0], [-1.0, -1.0])
    x = tridiagonal_solve(factor, [1.0, 0.0, 1.0])
    assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 5, 40])
def test_tridiagonal_matches_dense_solve(m):
    rng = np.random.default_rng(m)
    off = rng.normal(size=m - 1)
    diag = 4.0 + rng.random(size=m)  # dominant and symmetric, hence positive definite
    rhs = rng.normal(size=m)
    full = np.diag(diag)
    if m > 1:
        full += np.diag(off, -1) + np.diag(off, 1)
    expected = np.linalg.solve(full, rhs)
    got = tridiagonal_solve(tridiagonal_factor(diag, off), rhs)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-13)


def test_tridiagonal_band_length_validation():
    with pytest.raises(ValueError):
        tridiagonal_factor([2.0, 2.0, 2.0], [-1.0])  # off-diagonal too short
    with pytest.raises(ValueError):
        tridiagonal_factor([2.0, 2.0, 2.0], [-1.0, -1.0, -1.0])
    with pytest.raises(ValueError):
        tridiagonal_factor([], [])
    factor = tridiagonal_factor([2.0, 2.0, 2.0], [-1.0, -1.0])
    with pytest.raises(ValueError):
        tridiagonal_solve(factor, [1.0, 1.0])
    with pytest.raises(ValueError):
        # LAPACK would solve the first three rows and return the fourth as is
        tridiagonal_solve(factor, [1.0, 1.0, 1.0, 1.0])


def test_tridiagonal_indefinite_matrix_raises():
    # eigenvalues 1 - sqrt(2) < 0 < 1, 1 + sqrt(2): symmetric but indefinite
    with pytest.raises(ValueError, match="not positive definite"):
        tridiagonal_factor([1.0, 1.0, 1.0], [-1.0, -1.0])


def test_scheme_config_validation():
    for eps in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SchemeConfig(eps=eps)
    with pytest.raises(ValueError):
        SchemeConfig(max_steps=0)
    with pytest.raises(ValueError):
        SchemeConfig(f_mode="trapezoid")


def test_zero_data_stays_exactly_zero():
    problem = _zero_problem()
    mesh = build_graded_mesh(1.0, 6, 1.5)
    grid = build_spatial_grid(1.0, 8)
    result = solve(problem, mesh, grid, 0.5, SchemeConfig(), keep_trajectory=True)
    for level in result.trajectory:
        assert np.array_equal(level, np.zeros(grid.J + 1))
    # the zero start satisfies the zero fixed point on the first pass
    assert all(r.iterations == 1 for r in result.reports)


def test_first_step_matches_dense_oracle():
    alpha = 0.5
    problem = example1(alpha)
    mesh = build_graded_mesh(1.0, 8, 1.0)
    grid = build_spatial_grid(1.0, 16)
    config = SchemeConfig(eps=1e-11, f_mode="endpoint_average")
    u1 = solve(problem, mesh, grid, alpha, config, keep_trajectory=True).trajectory[1]
    reference = dense_trajectory(problem, mesh, grid, alpha, config.f_mode)
    assert np.max(np.abs(u1 - reference[1])) <= 1e-8


def test_full_solve_matches_dense_oracle():
    alpha = 0.75
    problem = example2(alpha)
    mesh = build_graded_mesh(1.0, 4, 1.6)
    config = SchemeConfig(eps=1e-12, f_mode="interval_average")
    for J in (8, 2):  # J = 2: a single interior node, a 1 x 1 system
        grid = build_spatial_grid(1.0, J)
        result = solve(problem, mesh, grid, alpha, config, keep_trajectory=True)
        reference = dense_trajectory(problem, mesh, grid, alpha, config.f_mode)
        for level, ref in zip(result.trajectory, reference):
            assert np.max(np.abs(level - ref)) <= 1e-7


def test_nonconvergence_reports_failing_step():
    problem = example1(0.5)
    mesh = build_graded_mesh(1.0, 4, 1.0)
    grid = build_spatial_grid(1.0, 32)
    config = SchemeConfig(eps=1e-14, max_steps=1)
    with pytest.raises(NonconvergenceError) as info:
        solve(problem, mesh, grid, 0.5, config)
    assert info.value.step == 1
    assert info.value.iterations == 1
    assert info.value.increment > 0.0


def test_stability_margins_nonnegative_across_configs():
    cases = [
        (example1(0.25), 1.0, "endpoint_average"),
        (example1(0.75), 1.6, "midpoint"),
        (example2(0.25), 2.0, "interval_average"),
        (example2(0.75), 8.0 / 7.0, "interval_average"),
    ]
    for problem, grading, f_mode in cases:
        mesh = build_graded_mesh(1.0, 32, grading)
        grid = build_spatial_grid(1.0, 32)
        result = solve(problem, mesh, grid, problem.alpha, SchemeConfig(f_mode=f_mode))
        assert all(r.stability_margin >= -1e-9 for r in result.reports)


def test_energy_bound_recomputed_from_trajectory():
    # independent re-evaluation of ||U^n|| <= ||U^0|| + 2 sum k_l ||f^{l-1/2}||
    alpha = 0.5
    problem = example1(alpha)
    mesh = build_graded_mesh(1.0, 16, 1.3)
    grid = build_spatial_grid(1.0, 24)
    config = SchemeConfig(f_mode="interval_average")
    result = solve(problem, mesh, grid, alpha, config, keep_trajectory=True)

    def l2(vals):
        return float(np.sqrt(grid.h * np.dot(vals[1:-1], vals[1:-1])))

    budget = l2(result.trajectory[0])
    for n in range(1, mesh.N + 1):
        fh = f_half_reference(problem.forcing, mesh, n, config.f_mode, grid)
        budget += 2.0 * float(mesh.k[n - 1]) * l2(fh)
        assert l2(result.trajectory[n]) <= budget + 1e-9


def test_solve_evaluates_each_profile_once():
    # the sources of all steps come from one table: each spatial profile
    # is evaluated on the grid once per solve, not once per step
    problem = example1(0.5)
    calls = []

    def counted(i, profile):
        def evaluate(x):
            calls.append(i)
            return profile(x)

        return evaluate

    terms = tuple(
        dataclasses.replace(t, profile=counted(i, t.profile))
        for i, t in enumerate(problem.forcing.terms)
    )
    problem = dataclasses.replace(problem, forcing=SeparableForcing(terms))
    mesh = build_graded_mesh(1.0, 16, 1.5)
    grid = build_spatial_grid(1.0, 16)
    solve(problem, mesh, grid, 0.5, SchemeConfig(f_mode="midpoint"))
    assert sorted(calls) == list(range(len(terms)))


def test_solve_factors_once_per_step_and_solves_once_per_pass(monkeypatch):
    factors, solves = [], []

    def counted_factor(diag, off):
        factors.append(len(diag))
        return tridiagonal_factor(diag, off)

    def counted_solve(factor, rhs):
        solves.append(len(rhs))
        return tridiagonal_solve(factor, rhs)

    monkeypatch.setattr(scheme, "tridiagonal_factor", counted_factor)
    monkeypatch.setattr(scheme, "tridiagonal_solve", counted_solve)
    mesh = build_graded_mesh(1.0, 12, 1.5)
    grid = build_spatial_grid(1.0, 16)
    result = solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())
    assert factors == [grid.J - 1] * mesh.N
    assert len(solves) == sum(r.iterations for r in result.reports)
    assert len(solves) > mesh.N  # some step took more than one pass
    assert set(solves) == {grid.J - 1}


def test_stability_check_raises_on_violation():
    grid = build_spatial_grid(1.0, 4)
    too_big = np.zeros(grid.J + 1)
    too_big[1:-1] = 1.0
    with pytest.raises(StabilityViolationError):
        scheme._check_stability(0.0, too_big, grid.h, step=1)


def test_infinite_diagonal_raises(monkeypatch):
    # dpttrs does not check finiteness, so a step whose diagonal is
    # infinite must be refused by name before it is factored
    def infinite_diagonal(mesh, alpha):
        w = compute_weights(mesh, alpha)
        w[1, 1] = np.inf
        return w

    monkeypatch.setattr(scheme, "compute_weights", infinite_diagonal)
    mesh = build_graded_mesh(1.0, 3, 1.0)
    grid = build_spatial_grid(1.0, 8)
    with pytest.raises(ValueError, match="step 1: .*lost diagonal dominance"):
        solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())


def test_lost_diagonal_dominance_raises(monkeypatch):
    # a zero diagonal weight leaves no implicit diffusion; the step must
    # refuse it with a ValueError, which still fires under python -O
    def zero_diagonal(mesh, alpha):
        w = compute_weights(mesh, alpha)
        w[2, 2] = 0.0
        return w

    monkeypatch.setattr(scheme, "compute_weights", zero_diagonal)
    mesh = build_graded_mesh(1.0, 3, 1.0)
    grid = build_spatial_grid(1.0, 8)
    with pytest.raises(ValueError, match="step 2"):
        solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())


def test_alpha_mismatch_raises():
    problem = example1(0.5)
    mesh = build_graded_mesh(1.0, 2, 1.0)
    grid = build_spatial_grid(1.0, 8)
    with pytest.raises(ValueError):
        solve(problem, mesh, grid, 0.6, SchemeConfig())


def test_boundary_values_exactly_zero():
    problem = example2(0.3)
    mesh = build_graded_mesh(1.0, 8, 1.6)
    grid = build_spatial_grid(1.0, 16)
    config = SchemeConfig(f_mode="interval_average")
    result = solve(problem, mesh, grid, 0.3, config, keep_trajectory=True)
    for level in result.trajectory:
        assert level[0] == 0.0
        assert level[-1] == 0.0


def test_solve_is_deterministic():
    problem = example1(0.25)
    mesh = build_graded_mesh(1.0, 8, 1.0)
    grid = build_spatial_grid(1.0, 16)
    config = SchemeConfig()
    a = solve(problem, mesh, grid, 0.25, config)
    b = solve(problem, mesh, grid, 0.25, config)
    assert np.array_equal(a.final.values, b.final.values)
    assert [r.iterations for r in a.reports] == [r.iterations for r in b.reports]


def test_single_step_mesh():
    problem = example1(0.5)
    mesh = build_mesh_from_levels([0.0, 1.0])
    grid = build_spatial_grid(1.0, 8)
    result = solve(problem, mesh, grid, 0.5, SchemeConfig(), keep_trajectory=True)
    assert len(result.reports) == 1
    _assert_trajectory_shape(result, problem)
    assert result.max_fp_iterations == result.reports[0].iterations


def test_multi_step_trajectory_array():
    problem = example1(0.5)
    mesh = build_graded_mesh(1.0, 6, 1.5)
    grid = build_spatial_grid(1.0, 8)
    result = solve(problem, mesh, grid, 0.5, SchemeConfig(), keep_trajectory=True)
    _assert_trajectory_shape(result, problem)
    assert solve(problem, mesh, grid, 0.5, SchemeConfig()).trajectory is None


def _assert_trajectory_shape(result, problem):
    grid = result.grid
    assert result.trajectory.shape == (result.mesh.N + 1, grid.J + 1)
    assert np.array_equal(result.trajectory[-1], result.final.values)
    u0 = np.zeros(grid.J + 1)
    u0[1:-1] = problem.u0(grid.x[1:-1])
    assert np.array_equal(result.trajectory[0], u0)
