"""Temporal mesh construction and grading-hypothesis diagnostics."""

import numpy as np
import pytest

from memburgers.mesh import (
    TemporalMesh,
    build_graded_mesh,
    build_mesh_from_levels,
    build_spatial_grid,
    check_mesh_hypotheses,
)

# frozen: (1/8)**1.6
T1_N8_G16 = 0.03589682359365734


def test_two_level_quadratic_grading_levels():
    mesh = build_graded_mesh(1.0, 2, 2.0)
    assert np.allclose(mesh.t, [0.0, 0.25, 1.0], rtol=0.0, atol=1e-15)
    assert mesh.t[0] == 0.0
    assert mesh.t[-1] == 1.0


def test_first_level_matches_power_law():
    mesh = build_graded_mesh(1.0, 8, 1.6)
    assert abs(mesh.t[1] - T1_N8_G16) <= 1e-12 * T1_N8_G16


def test_uniform_when_gamma_is_one():
    for n in (2, 7, 10, 64):
        mesh = build_graded_mesh(1.0, n, 1.0)
        assert np.all(np.abs(mesh.k - 1.0 / n) <= 1e-14 / n)
        assert np.allclose(mesh.t, np.arange(n + 1) / n, rtol=1e-14, atol=0.0)


def test_steps_partition_the_interval():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 129))
        gamma = float(rng.uniform(1.0, 4.0))
        t_final = float(rng.choice([0.5, 1.0, 2.0]))
        mesh = build_graded_mesh(t_final, n, gamma)
        assert np.all(mesh.k > 0.0)
        assert np.all(np.diff(mesh.t) > 0.0)
        assert abs(mesh.k.sum() - t_final) <= 1e-12 * t_final


def test_graded_steps_are_nondecreasing():
    for gamma in (1.0, 4.0 / 3.0, 1.6, 2.0, 3.0):
        mesh = build_graded_mesh(1.0, 50, gamma)
        assert np.all(np.diff(mesh.k) >= -1e-12 * mesh.k.max())


@pytest.mark.parametrize("gamma", [1.0, 4.0 / 3.0, 1.6, 2.0])
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128])
def test_hypotheses_hold_for_power_law_meshes(n, gamma):
    report = check_mesh_hypotheses(build_graded_mesh(1.0, n, gamma))
    assert report.step_bound_ok
    assert report.level_growth_ok
    assert report.monotone_steps_ok
    assert report.all_ok
    assert np.isfinite(report.step_bound_const)
    assert report.initial_level_const > 0.0


def test_uniform_mesh_has_zero_step_increase():
    report = check_mesh_hypotheses(build_graded_mesh(1.0, 16, 1.0))
    assert report.monotone_steps_ok
    # steps are equal, so the smallest increase constant is (roundoff) zero
    assert report.step_increase_const <= 1e-8


def test_hand_built_mesh_with_shrinking_step_fails():
    # k = (0.5, 0.1, 0.4): the middle step shrinks, breaking monotonicity
    mesh = build_mesh_from_levels([0.0, 0.5, 0.6, 1.0], gamma=1.0)
    report = check_mesh_hypotheses(mesh)
    assert not report.monotone_steps_ok
    assert not report.all_ok
    # the other two diagnostics still admit finite constants
    assert report.step_bound_ok
    assert report.level_growth_ok


def test_graded_mesh_validation():
    with pytest.raises(ValueError):
        build_graded_mesh(0.0, 8, 1.0)
    with pytest.raises(ValueError):
        build_graded_mesh(-1.0, 8, 1.0)
    with pytest.raises(ValueError):
        build_graded_mesh(1.0, 0, 1.0)
    with pytest.raises(ValueError):
        build_graded_mesh(1.0, 8, 0.5)


def test_levels_validation():
    with pytest.raises(ValueError):
        build_mesh_from_levels([0.1, 0.5, 1.0])  # t_0 != 0
    with pytest.raises(ValueError):
        build_mesh_from_levels([0.0, 0.6, 0.5, 1.0])  # not increasing
    with pytest.raises(ValueError):
        build_mesh_from_levels([0.0])  # too short


def test_temporal_mesh_shape_validation():
    # a ValueError, not an assert, so python -O still refuses it
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="TemporalMesh"):
        TemporalMesh(T=1.0, N=4, gamma=1.0, k_base=0.25, t=t, k=np.array([0.5]))
    with pytest.raises(ValueError, match="TemporalMesh"):
        TemporalMesh(T=1.0, N=2, gamma=1.0, k_base=0.5, t=t, k=np.array([0.5]))


def test_spatial_grid_nodes():
    grid = build_spatial_grid(1.0, 4)
    assert grid.h == 0.25
    assert np.array_equal(grid.x, [0.0, 0.25, 0.5, 0.75, 1.0])
    # endpoints are exact even when h is not dyadic
    grid3 = build_spatial_grid(1.0, 3)
    assert grid3.x[0] == 0.0
    assert grid3.x[-1] == 1.0


def test_spatial_grid_validation():
    with pytest.raises(ValueError):
        build_spatial_grid(0.0, 4)
    with pytest.raises(ValueError):
        build_spatial_grid(1.0, 1)
    # h^2 underflows to 0, or 1/h^2 overflows: the scheme could not divide by it
    for L in (1e-300, 1e-160):
        with pytest.raises(ValueError, match="1/h\\^2 is not finite"):
            build_spatial_grid(L, 4)


def test_mesh_is_annotated_with_its_parameters():
    mesh = build_graded_mesh(2.0, 10, 1.5)
    assert mesh.T == 2.0
    assert mesh.N == 10
    assert mesh.gamma == 1.5
    assert abs(mesh.k_base - 2.0 ** (1 / 1.5) / 10) <= 1e-15
