"""Temporal mesh construction and grading-hypothesis diagnostics."""

import dataclasses
import math
import re

import numpy as np
import pytest

from memburgers.mesh import (
    SpatialGrid,
    TemporalMesh,
    build_graded_mesh,
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
    mesh = TemporalMesh([0.0, 0.5, 0.6, 1.0], gamma=1.0)
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
    for gamma in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"gamma must be finite and >= 1, got {gamma}"):
            build_graded_mesh(1.0, 8, gamma)
    for T in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"T must be positive and finite, got {T}"):
            build_graded_mesh(T, 8, 1.0)
    # a count that is not an integer is refused, not truncated
    for N in (2.5, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match=re.escape(f"N must be an integer, got {N!r}")):
            build_graded_mesh(1.0, N, 1.0)
    assert build_graded_mesh(1.0, np.int64(2), 1.0).N == 2


def test_graded_mesh_refuses_underflowing_gamma():
    # a huge finite gamma sends the first levels (n*k_base)**gamma to 0; the
    # refusal names gamma, not the collapsed levels TemporalMesh would see
    for gamma, lost in ((1e300, 7), (400.0, 1)):
        message = (f"gamma = {gamma} is too large for N = 8 and T = 1.0: "
                   f"the levels (n*k_base)**gamma underflow to 0 for n <= {lost}")
        with pytest.raises(ValueError, match=re.escape(message)):
            build_graded_mesh(1.0, 8, gamma)
    # the largest whole gamma whose t_1 = 8**-gamma is still a (subnormal) float
    assert build_graded_mesh(1.0, 8, 358.0).t[1] > 0.0
    assert build_graded_mesh(1.0, 1, 1e300).t[1] == 1.0  # N = 1 has no level to lose


def test_levels_validation():
    # ValueErrors, not asserts, so python -O still refuses them
    with pytest.raises(ValueError, match="t_0 must be 0, got 0.1"):
        TemporalMesh([0.1, 0.5, 1.0])
    with pytest.raises(ValueError, match="strictly increasing, got t_2 = 0.5 after t_1 = 0.6"):
        TemporalMesh([0.0, 0.6, 0.5, 1.0])
    with pytest.raises(ValueError, match="at least two, got shape \\(1,\\)"):
        TemporalMesh([0.0])
    with pytest.raises(ValueError, match="at least two, got shape \\(2, 2\\)"):
        TemporalMesh([[0.0, 0.5], [0.5, 1.0]])
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"gamma must be finite and >= 1, got {bad}"):
            TemporalMesh([0.0, 0.5, 1.0], gamma=bad)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"levels must be finite, got {bad}"):
            TemporalMesh([0.0, 0.5, bad])
    with pytest.raises(ValueError, match="levels must be finite, got inf"):
        TemporalMesh([0.0, math.inf, math.inf])  # inf - inf would warn


def test_spatial_grid_nodes():
    grid = build_spatial_grid(1.0, 4)
    assert grid.h == 0.25
    assert np.array_equal(grid.x, [0.0, 0.25, 0.5, 0.75, 1.0])
    # endpoints are exact even when h is not dyadic
    grid3 = build_spatial_grid(1.0, 3)
    assert grid3.x[0] == 0.0
    assert grid3.x[-1] == 1.0


def test_spatial_grid_validation():
    # the class checks its own fields; build_spatial_grid only calls it
    for make in (SpatialGrid, build_spatial_grid):
        with pytest.raises(ValueError, match="L must be positive and finite, got 0.0"):
            make(0.0, 4)
        with pytest.raises(ValueError, match="J must be >= 2, got 1"):
            make(1.0, 1)
        for L in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"L must be positive and finite, got {L}"):
                make(L, 4)
        # h^2 underflows to 0, or 1/h^2 overflows: the scheme could not divide by it
        for L in (1e-300, 1e-160):
            with pytest.raises(ValueError, match="SpatialGrid: 1/h\\^2 is not finite"):
                make(L, 4)
        # a count that is not an integer is refused, not truncated to 8
        for J in (8.7, np.float64(8.0)):
            with pytest.raises(ValueError, match=re.escape(f"J must be an integer, got {J!r}")):
                make(1.0, J)
        assert make(1.0, np.int64(8)).J == 8


def test_spatial_grid_derives_spacing_and_nodes():
    assert [f.name for f in dataclasses.fields(SpatialGrid) if f.init] == ["L", "J"]
    # h and x can no longer be passed, so they cannot disagree with L and J
    with pytest.raises(TypeError):
        SpatialGrid(L=1.0, J=8, h=0.5, x=np.linspace(0, 1, 9))
    grid = SpatialGrid(1.0, 8)
    built = build_spatial_grid(1.0, 8)
    assert grid.h == built.h == 1.0 / 8
    assert grid.x.tobytes() == built.x.tobytes() == np.linspace(0.0, 1.0, 9).tobytes()


def test_mesh_is_annotated_with_its_parameters():
    mesh = build_graded_mesh(2.0, 10, 1.5)
    assert mesh.T == 2.0
    assert mesh.N == 10
    assert mesh.gamma == 1.5
    assert abs(mesh.k_base - 2.0 ** (1 / 1.5) / 10) <= 1e-15
    assert np.array_equal(mesh.k, np.diff(mesh.t))
    # a hand-built mesh derives the same fields from its levels
    hand = TemporalMesh([0.0, 0.5, 0.6, 1.5], gamma=2.0)
    assert (hand.N, hand.T, hand.gamma) == (3, 1.5, 2.0)
    assert hand.k_base == 1.5**0.5 / 3
    assert np.array_equal(hand.k, np.diff(hand.t))
