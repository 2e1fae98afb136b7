"""Product-integration weight tests: closed form vs quadrature oracle, and
the structural properties the stability theory rests on."""

from math import gamma

import numpy as np
import pytest

from memburgers.mesh import build_graded_mesh, build_mesh_from_levels
from memburgers.quadrature import compute_weights

from oracles import weight_by_quadrature

# frozen: 1/Gamma(2.5), the single weight of a unit-step mesh at alpha = 0.5
W11_UNIT_HALF = 0.752252778063675


def test_single_unit_step_weight():
    mesh = build_mesh_from_levels([0.0, 1.0])
    w = compute_weights(mesh, 0.5)
    assert abs(w[1, 1] - W11_UNIT_HALF) <= 1e-12
    assert abs(w[1, 1] - 1.0 / gamma(2.5)) <= 1e-15


@pytest.mark.parametrize(
    "n_steps,grading,alpha",
    [(5, 1.6, 0.3), (5, 1.0, 0.7), (4, 2.0, 0.5)],
)
def test_matches_double_quadrature_oracle(n_steps, grading, alpha):
    mesh = build_graded_mesh(1.0, n_steps, grading)
    w = compute_weights(mesh, alpha)
    for n in range(1, n_steps + 1):
        for s in range(1, n + 1):
            ref = weight_by_quadrature(mesh.t, n, s, alpha)
            assert abs(w[n, s] - ref) <= 1e-9 * abs(ref), (
                f"weight ({n},{s}) off: closed form {w[n, s]!r}, oracle {ref!r}"
            )


def test_table_is_lower_triangular_array():
    mesh = build_graded_mesh(1.0, 6, 1.5)
    w = compute_weights(mesh, 0.4)
    assert isinstance(w, np.ndarray)
    assert w.shape == (7, 7)
    assert np.all(w[np.triu_indices(7, k=1)] == 0.0)
    assert np.all(w[0] == 0.0) and np.all(w[:, 0] == 0.0)


def test_all_weights_positive_on_random_meshes():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(1, 41))
        grading = float(rng.uniform(1.0, 3.0))
        t_final = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(0.02, 0.98))
        w = compute_weights(build_graded_mesh(t_final, n, grading), alpha)
        for level in range(1, n + 1):
            assert np.all(w[level, 1 : level + 1] > 0.0)


def test_alpha_near_one_recovers_plain_averaging():
    # as alpha -> 1 the kernel tends to 1: off-diagonal weights -> 1 and the
    # diagonal (triangle) weight -> 1/2
    mesh = build_graded_mesh(1.0, 4, 1.0)
    w = compute_weights(mesh, 0.999)
    for n in range(1, 5):
        for s in range(1, n):
            assert abs(w[n, s] - 1.0) <= 5e-3
        assert abs(w[n, n] - 0.5) <= 5e-3


def test_rule_is_exact_on_constants():
    # applying the rule to the constant 1 must reproduce the averaged memory
    # integral of 1, i.e. (t_n^(a+1) - t_{n-1}^(a+1)) / (k_n Gamma(a+2))
    for grading, alpha in [(1.0, 0.25), (1.7, 0.25), (1.0, 0.6), (1.7, 0.6)]:
        mesh = build_graded_mesh(1.0, 10, grading)
        w = compute_weights(mesh, alpha)
        g2 = gamma(alpha + 2.0)
        for n in range(1, 11):
            discrete = float(np.dot(w[n, 1 : n + 1], mesh.k[:n]))
            exact = (mesh.t[n] ** (alpha + 1.0) - mesh.t[n - 1] ** (alpha + 1.0)) / (
                mesh.k[n - 1] * g2
            )
            assert abs(discrete - exact) <= 1e-10 * abs(exact)


def test_memory_pairing_positive_semidefinite():
    # Q = sum_n k_n (I^alpha W^{n-1/2}) W^{n-1/2} (first term pairs with W^1)
    # is the continuous positive-type form applied to the reconstruction,
    # so it can never go below roundoff-negative
    rng = np.random.default_rng(42)
    for trial in range(1000):
        n = int(rng.integers(1, 21))
        grading = float(rng.uniform(1.0, 3.0))
        alpha = float(rng.uniform(0.02, 0.98))
        mesh = build_graded_mesh(1.0, n, grading)
        w = compute_weights(mesh, alpha)
        levels = rng.normal(size=n + 1)
        c = np.empty(n + 1)
        c[1] = levels[1]
        for s in range(2, n + 1):
            c[s] = 0.5 * (levels[s] + levels[s - 1])
        q = 0.0
        for lev in range(1, n + 1):
            memory = float(np.dot(w[lev, 1 : lev + 1] * mesh.k[:lev], c[1 : lev + 1]))
            q += mesh.k[lev - 1] * memory * c[lev]
        assert q >= -1e-12, f"pairing negative ({q}) on trial {trial}"


def test_history_sum_constant_history_analytic():
    # uniform 3-step mesh, every stored value equal to 1: the weighted row
    # sum the scheme applies is the discrete memory integral of the constant 1
    mesh = build_graded_mesh(1.0, 3, 1.0)
    w = compute_weights(mesh, 0.5)
    row_sum = float(np.dot(w[3, 1:4], mesh.k))
    analytic = (mesh.t[3] ** 1.5 - mesh.t[2] ** 1.5) / (mesh.k[2] * gamma(2.5))
    assert abs(row_sum - analytic) <= 1e-12


def test_history_sum_level_one_uses_only_first_value():
    # the table is lower triangular, so a full-row product at level 1 sees
    # only the first stored value whatever the later rows hold
    mesh = build_graded_mesh(1.0, 2, 1.3)
    w = compute_weights(mesh, 0.4)
    first = np.array([0.0, 2.0, -1.0, 3.0, 0.0])
    stored = np.vstack([first, np.full(5, 7.0)])
    out = (w[1, 1:] * mesh.k) @ stored
    assert np.allclose(out, w[1, 1] * mesh.k[0] * first, rtol=1e-15)


def test_nonpositive_weights_raise_value_error():
    # strong grading cancels the closed form's nearly equal powers
    with pytest.raises(ValueError, match="row"):
        compute_weights(build_graded_mesh(1.0, 512, 6.0), 0.25)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_alpha_domain(alpha):
    mesh = build_graded_mesh(1.0, 3, 1.0)
    with pytest.raises(ValueError):
        compute_weights(mesh, alpha)
