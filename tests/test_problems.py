"""Manufactured problems: the forcing really is what the exact solution
demands (residual oracle), and the per-step source modes agree with direct
integration."""

from math import gamma, pi

import numpy as np
import pytest
from scipy.integrate import quad

from memburgers.mesh import build_graded_mesh, build_spatial_grid
from memburgers.problems import (
    F_MODES,
    ForcingTerm,
    SeparableForcing,
    example1,
    example2,
    f_half,
    problem_by_name,
)

from oracles import f_half_reference, forcing_value, pde_residual


def _forcing_example1_direct(alpha, x, t):
    # independent transcription of the closed-form source for
    # u = sin(pi x) - t^(alpha+1)/Gamma(alpha+2) sin(2 pi x)
    g = gamma
    return (
        pi**2 / g(alpha + 1.0) * t**alpha * np.sin(pi * x)
        - 4.0 * pi**2 / g(2.0 * alpha + 2.0) * t ** (2.0 * alpha + 1.0) * np.sin(2.0 * pi * x)
        - 1.0 / g(alpha + 1.0) * t**alpha * np.sin(2.0 * pi * x)
        + pi * np.sin(pi * x) * np.cos(pi * x)
        - 2.0 * pi / g(alpha + 2.0) * t ** (alpha + 1.0) * np.sin(pi * x) * np.cos(2.0 * pi * x)
        - pi / g(alpha + 2.0) * t ** (alpha + 1.0) * np.sin(2.0 * pi * x) * np.cos(pi * x)
        + 2.0 * pi / g(alpha + 2.0) ** 2 * t ** (2.0 * alpha + 2.0) * np.sin(2.0 * pi * x) * np.cos(2.0 * pi * x)
    )


def _forcing_example2_direct(alpha, x, t):
    # source for u = t^alpha/Gamma(alpha+1) sin(pi x)
    g = gamma
    return (
        pi**2 / g(2.0 * alpha + 1.0) * t ** (2.0 * alpha) * np.sin(pi * x)
        + 1.0 / g(alpha) * t ** (alpha - 1.0) * np.sin(pi * x)
        + pi / (2.0 * g(alpha + 1.0) ** 2) * t ** (2.0 * alpha) * np.sin(2.0 * pi * x)
    )


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_example1_forcing_matches_direct_formula(alpha):
    prob = example1(alpha)
    x = np.linspace(0.0, 1.0, 11)
    for t in (0.1, 0.37, 1.0):
        expected = _forcing_example1_direct(alpha, x, t)
        assert np.allclose(forcing_value(prob.forcing, x, t), expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_example2_forcing_matches_direct_formula(alpha):
    prob = example2(alpha)
    x = np.linspace(0.0, 1.0, 11)
    for t in (0.1, 0.37, 1.0):
        expected = _forcing_example2_direct(alpha, x, t)
        assert np.allclose(forcing_value(prob.forcing, x, t), expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", ["example1", "example2"])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.75, 0.95])
def test_forcing_satisfies_pde_residual(name, alpha):
    # numeric u_t + u u_x - I^alpha u_xx against the stored forcing; the
    # oracle stencils leave ~1e-9 noise, so 1e-6 is a loose but honest gate
    prob = problem_by_name(name, alpha)
    for x in (0.3, 0.5, 0.7):
        for t in (0.4, 0.9):
            assert abs(pde_residual(prob, x, t, alpha)) <= 1e-6


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_exact_solution_initial_and_boundary(name):
    prob = problem_by_name(name, 0.4)
    for t in (0.0, 0.2, 1.0):
        vals = prob.exact(np.array([0.0, 1.0]), t)
        assert np.max(np.abs(vals)) <= 1e-12


def test_interval_average_matches_adaptive_quadrature():
    # per-term quadrature handles the t^(alpha-1) endpoint singularity of
    # the example-2 first interval; closed form agrees to ~1e-14
    rng = np.random.default_rng(77)
    grid = build_spatial_grid(1.0, 8)
    for trial in range(100):
        alpha = float(rng.uniform(0.1, 0.9))
        prob = example1(alpha) if trial % 2 == 0 else example2(alpha)
        mesh = build_graded_mesh(
            1.0, int(rng.integers(2, 9)), float(rng.uniform(1.0, 2.5))
        )
        n = int(rng.integers(1, mesh.N + 1))
        factors, profiles = f_half(prob.forcing, mesh, "interval_average", grid)
        fh = factors[n - 1] @ profiles
        t0, t1 = float(mesh.t[n - 1]), float(mesh.t[n])
        kn = t1 - t0
        for j in (2, 5):
            xj = float(grid.x[j])
            ref = 0.0
            for term in prob.forcing.terms:
                part, _ = quad(
                    lambda t, trm=term: trm.coefficient
                    * float(trm.profile(np.array([xj]))[0])
                    * t**trm.exponent,
                    t0,
                    t1,
                    limit=800,
                    epsabs=1e-14,
                    epsrel=1e-13,
                )
                ref += part
            ref /= kn
            assert abs(fh[j] - ref) <= 1e-10 * (1.0 + abs(ref))


def test_endpoint_average_first_step_rejects_singular_forcing():
    prob = example2(0.5)  # forcing has a t^(alpha-1) term, so f(x, 0) blows up
    mesh = build_graded_mesh(1.0, 4, 1.0)
    grid = build_spatial_grid(1.0, 4)
    # the table covers step 1, so building it is refused
    with pytest.raises(ValueError, match="interval_average"):
        f_half(prob.forcing, mesh, "endpoint_average", grid)
    # the other modes never touch t = 0
    for mode in ("midpoint", "interval_average"):
        factors, _ = f_half(prob.forcing, mesh, mode, grid)
        assert np.all(np.isfinite(factors))


def test_constant_in_time_term_same_across_modes():
    # a p = 0 term is constant in time, so every mode returns the same values
    forcing = SeparableForcing(terms=(ForcingTerm(np.sin, 0.0, 2.5),))
    mesh = build_graded_mesh(1.0, 3, 1.4)
    grid = build_spatial_grid(1.0, 6)
    results = []
    for mode in F_MODES:
        factors, profiles = f_half(forcing, mesh, mode, grid)
        results.append(factors @ profiles)
    assert results[0].shape == (mesh.N, grid.J + 1)
    for other in results[1:]:
        assert np.allclose(results[0], other, rtol=1e-14, atol=1e-15)


def test_f_half_validation():
    prob = example1(0.5)
    mesh = build_graded_mesh(1.0, 3, 1.0)
    grid = build_spatial_grid(1.0, 4)
    with pytest.raises(ValueError):
        f_half(prob.forcing, mesh, "simpson", grid)


@pytest.mark.parametrize(
    "name, mode",
    [("example1", mode) for mode in F_MODES]
    + [("example2", "midpoint"), ("example2", "interval_average")],
)
@pytest.mark.parametrize("grading", [1.0, 1.6, 3.0])
def test_f_half_table_matches_per_step_reference(name, mode, grading):
    # every row of the table reproduces the per-step, pointwise evaluation
    prob = problem_by_name(name, 0.4)
    mesh = build_graded_mesh(1.0, 32, grading)
    grid = build_spatial_grid(1.0, 24)
    factors, profiles = f_half(prob.forcing, mesh, mode, grid)
    assert factors.shape == (mesh.N, len(prob.forcing.terms))
    assert profiles.shape == (len(prob.forcing.terms), grid.J + 1)
    for n in range(1, mesh.N + 1):
        ref = f_half_reference(prob.forcing, mesh, n, mode, grid)
        row = factors[n - 1] @ profiles
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_sigma_metadata():
    p1 = example1(0.25)
    assert p1.sigma_for("midpoint") == pytest.approx(1.25)
    assert p1.sigma_for("endpoint_average") == pytest.approx(1.25)
    assert p1.sigma_for("interval_average") == pytest.approx(2.25)
    p2 = example2(0.25)
    assert p2.sigma_for("interval_average") == pytest.approx(1.25)
    with pytest.raises(ValueError):
        p2.sigma_for("endpoint_average")


def test_forcing_term_validation():
    with pytest.raises(ValueError):
        ForcingTerm(np.sin, -1.0, 1.0)
    with pytest.raises(ValueError):
        ForcingTerm(np.sin, -1.5, 1.0)
    ForcingTerm(np.sin, -0.5, 1.0)  # integrable singularity is allowed


def test_problem_by_name_errors():
    with pytest.raises(ValueError):
        problem_by_name("example3", 0.5)
    with pytest.raises(ValueError):
        problem_by_name("example1", 1.5)


def test_forcing_at_time_zero():
    # t = 0 is well defined when all exponents are >= 0 (0^0 taken as 1)
    prob = example1(0.5)
    x = np.linspace(0.0, 1.0, 9)
    vals = forcing_value(prob.forcing, x, 0.0)
    expected = pi * np.sin(pi * x) * np.cos(pi * x)  # only the p = 0 term survives
    assert np.allclose(vals, expected, atol=1e-12)
    with pytest.raises(ValueError):
        forcing_value(example2(0.5).forcing, x, 0.0)
