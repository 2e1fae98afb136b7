"""Product-integration weight tests: closed form vs quadrature oracle, and
the structural properties the stability theory rests on."""

import math
from math import gamma, pi, sin

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi

from memburgers import quadrature, resolve_gamma
from memburgers.mesh import TemporalMesh, build_graded_mesh
from memburgers.problems import problem_by_name
from memburgers.quadrature import (
    _BLOCK,
    _SOE_NODES,
    _soe_factors,
    _soe_gauss,
    _soe_modes,
    compute_weights,
)

from oracles import weight_by_quadrature, weights_row_loop

# frozen: 1/Gamma(2.5), the single weight of a unit-step mesh at alpha = 0.5
W11_UNIT_HALF = 0.752252778063675


def test_single_unit_step_weight():
    mesh = TemporalMesh([0.0, 1.0])
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


@pytest.mark.parametrize("n_steps", [1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 6 * _BLOCK + 5])
@pytest.mark.parametrize("alpha,grading", [(0.25, 1.6), (0.5, 1.0), (0.9, 2.5), (0.1, 3.0)])
def test_matches_row_loop_oracle(n_steps, alpha, grading):
    # the blocked kernel takes each weight as a mixed second difference of
    # one power table, and the full table stacks blocks of _BLOCK rows (N on
    # either side of the second block boundary); the oracle evaluates each
    # row from its own powers
    mesh = build_graded_mesh(1.0, n_steps, grading)
    w = compute_weights(mesh, alpha)
    ref = weights_row_loop(mesh, alpha)
    lower = np.tril(np.ones(ref.shape, dtype=bool))
    lower[0] = lower[:, 0] = False
    assert np.all(w[~lower] == 0.0)
    assert np.max(np.abs(w[lower] - ref[lower]) / ref[lower]) <= 1e-14


@pytest.mark.parametrize(
    "rows",
    [(1, 2), (1, _BLOCK + 1), (5, 17), (_BLOCK, _BLOCK + 2), (_BLOCK + 1, 2 * _BLOCK + 1),
     (3, 3 * _BLOCK + 6), (3 * _BLOCK + 5, 3 * _BLOCK + 6)],
)
def test_row_range_is_slice_of_full_table(rows):
    mesh = build_graded_mesh(2.0, 3 * _BLOCK + 5, 1.7)
    full = compute_weights(mesh, 0.35)
    n0, n1 = rows
    block = compute_weights(mesh, 0.35, rows)
    assert block.shape == (n1 - n0, n1 - 1)
    assert np.array_equal(block, full[n0:n1, 1:n1])


@pytest.mark.parametrize(
    "rows", [(8 * _BLOCK + 1, 9 * _BLOCK + 1), (9 * _BLOCK + 1, 701), (600, 690)]
)
@pytest.mark.parametrize("window", [None, 512, _BLOCK, 0])
def test_first_column_is_slice_of_full_table(rows, window):
    # solve asks for the columns c0..n1-1 of its exact window only, the
    # block before: c0 = n0 - _BLOCK; also c0 = 1, a wider window
    # c0 = n0 - 512, and c0 = n0 (the near square alone)
    mesh = build_graded_mesh(2.0, 700, 1.7)
    full = compute_weights(mesh, 0.35)
    n0, n1 = rows
    c0 = 1 if window is None else n0 - window
    block = compute_weights(mesh, 0.35, rows, first_col=c0)
    assert block.shape == (n1 - n0, n1 - c0)
    assert np.array_equal(block, full[n0:n1, c0:n1])


def test_positivity_check_covers_only_returned_columns():
    # on this mesh only w[189, 1] cancels to zero; rows without column 1 pass
    mesh = build_graded_mesh(1.0, 512, 6.0)
    with pytest.raises(ValueError, match="nonpositive weight in row 189 "):
        compute_weights(mesh, 0.25, (129, 257), first_col=1)
    block = compute_weights(mesh, 0.25, (129, 257), first_col=2)
    rows = np.arange(129, 257)[:, None]
    cols = np.arange(2, 257)[None, :]
    assert np.all(block[cols <= rows] > 0.0)


@pytest.mark.parametrize("rows", [(0, 3), (-1, 2), (1, 7), (3, 3), (4, 2)])
def test_bad_row_range_raises(rows):
    mesh = build_graded_mesh(1.0, 5, 1.0)
    with pytest.raises(ValueError, match="rows must satisfy"):
        compute_weights(mesh, 0.5, rows)


@pytest.mark.parametrize("first_col", [-1, 0, 4, 5, -3])
def test_bad_first_column_raises(first_col):
    # with rows (3, 5) first_col must lie in [1, 3]; the full table takes only 1
    mesh = build_graded_mesh(1.0, 5, 1.0)
    for rows in ((3, 5), None):
        with pytest.raises(ValueError, match="first_col must satisfy"):
            compute_weights(mesh, 0.5, rows, first_col)


def test_nonpositive_weights_raise_value_error():
    # strong grading cancels the closed form's nearly equal powers; the first
    # bad row is the one named, as in the row-by-row oracle
    mesh = build_graded_mesh(1.0, 512, 6.0)
    with pytest.raises(ValueError, match="nonpositive weight in row 189 "):
        compute_weights(mesh, 0.25)
    with pytest.raises(ValueError, match="row 189$"):
        weights_row_loop(mesh, 0.25)
    with pytest.raises(ValueError, match="nonpositive weight in row 189 "):
        compute_weights(mesh, 0.25, (129, 257))


def test_overflowing_powers_named_without_warnings(monkeypatch):
    # the powers lie in [0, 1], so no mesh overflows them: poison P[2, 0]
    # (level t_2, column t_0) instead.  pytest turns a RuntimeWarning into an
    # error, so this also checks that none escapes the kernel
    mesh = build_graded_mesh(1.0, 8, 1.5)
    power = np.power

    def poisoned(x, y, out):
        power(x, y, out=out)
        out[2, 0] = np.inf
        return out

    monkeypatch.setattr(np, "power", poisoned)
    with pytest.raises(ValueError, match="non-finite weight in row 2;"):
        compute_weights(mesh, 0.5)


@pytest.mark.parametrize("t1", [1e-210, 1e-300])
def test_underflowing_powers_raise_value_error(t1):
    # a steep grading at T = 1 puts the first level, and step, at t1, so
    # k_1**1.5 is subnormal at t1 = 1e-210 and 0 at 1e-300; both the table
    # and a solve block refuse
    mesh = build_graded_mesh(1.0, 100, math.log10(t1) / -2.0)
    assert mesh.t[1] == pytest.approx(t1, rel=1e-12)
    with pytest.raises(ValueError, match="powers of the mesh steps underflow in rows 1..64 "):
        compute_weights(mesh, 0.5)
    with pytest.raises(ValueError, match="powers of the mesh steps underflow in rows 1..64 "):
        compute_weights(mesh, 0.5, (1, _BLOCK + 1))


@pytest.mark.parametrize("T", [2.0**-1000, 2.0**1000], ids=["2**-1000", "2**1000"])
@pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5, 0.75])
def test_weights_scale_with_the_final_time(T, alpha):
    # the levels T*s are exact, so w(T s) = T**(alpha-1) w(s) up to the
    # rounding of the one factor; the whole table and the blocks a solve
    # builds (window columns included) hold it, though the powers of T*s
    # themselves overflow (T = 2**1000) or underflow (T = 2**-1000)
    unit = build_graded_mesh(1.0, 150, 2.0)
    mesh = TemporalMesh(T * unit.t, unit.gamma)
    cases = ((None, 1), ((65, 129), 1), ((129, 151), 65))
    for rows, first_col in cases:
        w = compute_weights(mesh, alpha, rows, first_col)
        ref = T ** (alpha - 1.0) * compute_weights(unit, alpha, rows, first_col)
        assert np.all(np.abs(w - ref) <= 1e-15 * np.abs(ref)), (rows, first_col)


def test_tiny_but_normal_powers_keep_their_accuracy():
    # k**1.5 is about 2e-228 at T = 1e-150: normal, so the weights stay accurate
    mesh = build_graded_mesh(1e-150, 300, 1.0)
    w = compute_weights(mesh, 0.5)
    for n, s in ((2, 1), (150, 75), (300, 1), (300, 299)):
        assert abs(w[n, s] / _weight_mpmath(mesh, n, s, 0.5) - 1.0) <= 1e-10, (n, s)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_alpha_domain(alpha):
    mesh = build_graded_mesh(1.0, 3, 1.0)
    with pytest.raises(ValueError):
        compute_weights(mesh, alpha)


def _weight_mpmath(mesh, n, s, alpha):
    """The closed form at 40 digits, from the mesh levels as stored."""
    with mpmath.workdps(40):
        t = [mpmath.mpf(float(x)) for x in mesh.t[[s - 1, s, n - 1, n]]]
        a = mpmath.mpf(alpha) + 1
        num = ((t[3] - t[0]) ** a - (t[3] - t[1]) ** a) - ((t[2] - t[0]) ** a - (t[2] - t[1]) ** a)
        return float(num / ((t[3] - t[2]) * (t[1] - t[0]) * mpmath.gamma(a + 1)))


def _tail_delta(mesh):
    """The smallest lag t_{b0-1} - t_{c0-1} of a tail block, as solve takes it."""
    t = mesh.t
    starts = np.arange(1, mesh.N + 1, _BLOCK)
    tail = starts[starts > 2 * _BLOCK]
    return float(np.min(t[tail - 1] - t[tail - _BLOCK - 1]))


def _assert_tail_weights_match_mpmath(mesh, alpha):
    # far pairs s < c0 = b0 - _BLOCK of the first and the last tail block,
    # with the modes solve takes (the Gauss rule of the base modes, for
    # delta from the mesh); pytest turns any RuntimeWarning into an error.
    # A factor is 0 only where its exp(-lam lag) underflows, so every F
    # lies in [0, 1] and is positive wherever lam lag < 700
    t, k = mesh.t, mesh.k
    starts = np.arange(1, mesh.N + 1, _BLOCK)
    tail = starts[starts > 2 * _BLOCK]
    delta = _tail_delta(mesh)
    lam, omega = _soe_gauss(*_soe_modes(alpha, mesh.T, delta), alpha, mesh.T, delta)
    for b0 in (tail[0], tail[-1]):
        b1, c0 = min(b0 + _BLOCK, mesh.N + 1), b0 - _BLOCK
        row_lag, col_lag = t[b0 - 1 : b1 - 1] - t[b0 - 1], t[b0 - 1] - t[1:c0]
        rows = _soe_factors(lam, k[b0 - 1 : b1 - 1], row_lag)
        cols = _soe_factors(lam, k[: c0 - 1], col_lag)
        for f, lag in ((rows, row_lag), (cols, col_lag)):
            assert np.all(f >= 0.0) and np.all(f <= 1.0)
            assert np.all(f[np.multiply.outer(lag, lam) < 700.0] > 0.0)
        w = (omega * rows) @ cols.T
        for n in (b0, b1 - 1):
            for s in (1, 2, c0 // 2, c0 - 1):
                ref = _weight_mpmath(mesh, n, s, alpha)
                assert abs(w[n - b0, s - 1] / ref - 1.0) <= 1e-11, (n, s)


@pytest.mark.parametrize("T,alpha", [
    (1.0, 0.1), (1.0, 0.5), (1.0, 0.9),
    # extreme time scales and orders: no overflow, no warning
    (1e-6, 0.05), (1e-6, 0.95), (1e6, 0.05), (1e6, 0.95),
])
def test_soe_tail_weights_match_mpmath(T, alpha):
    _assert_tail_weights_match_mpmath(build_graded_mesh(T, 1024, 1.6), alpha)


def test_soe_tail_on_non_monotone_steps():
    # steps that shrink and grow again: the smallest far lag is not at the
    # first tail block, so delta must come from the mesh
    rng = np.random.default_rng(5)
    k = np.where(np.arange(900) % 200 < 100, 1e-4, 1.0) * rng.uniform(0.5, 1.5, 900)
    _assert_tail_weights_match_mpmath(TemporalMesh(np.concatenate([[0.0], np.cumsum(k)])), 0.5)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5, 0.9, 0.95])
@pytest.mark.parametrize("T,delta", [(1.0, 1e-3), (1.0, 1e-9), (1e6, 1e-2), (1e-6, 1e-12)])
def test_soe_modes_fit_kernel(alpha, T, delta):
    lam, omega = _soe_modes(alpha, T, delta)
    assert np.all(lam > 0.0) and np.all(omega > 0.0)
    tau = np.geomspace(delta, T, 400)
    fit = np.exp(-np.multiply.outer(tau, lam)) @ omega
    kernel = tau ** (alpha - 1.0) / gamma(alpha)
    assert np.max(np.abs(fit / kernel - 1.0)) <= 1e-12


def _relative_fit(lam, omega, alpha, tau):
    kernel = tau ** (alpha - 1.0) / gamma(alpha)
    return np.max(np.abs(np.exp(-np.multiply.outer(tau, lam)) @ omega / kernel - 1.0))


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5, 0.9, 0.95])
@pytest.mark.parametrize("T,delta", [(1.0, 1e-3), (1.0, 1e-9), (1e6, 1e-2), (1e-6, 1e-12)])
def test_soe_gauss_modes_fit_kernel(alpha, T, delta, monkeypatch):
    # the Gauss rule of the base modes: positive weights, rates inside the
    # base's range, never more modes than an 8-node base, and a fit of
    # 1e-14 on the 100 samples it is chosen on (about that between them);
    # where it takes the 8-node count (alpha <= 0.1 at delta = 1e-9 and
    # alpha = 0.05 at T = 1e6 here, where the fit's rounding floor is near
    # 1e-14), the fit is still the 8-node base's 1e-12
    base_lam, base_omega = _soe_modes(alpha, T, delta)
    lam, omega = _soe_gauss(base_lam, base_omega, alpha, T, delta)
    monkeypatch.setattr(quadrature, "_SOE_NODES", 8)
    most = _soe_modes(alpha, T, delta)[0].size
    assert lam.size <= most
    assert np.all(omega > 0.0)
    assert base_lam.min() <= lam.min() and lam.max() <= base_lam.max()
    chosen_on, between = np.geomspace(delta, T, 100), np.geomspace(delta, T, 2000)
    if lam.size < most:
        assert _relative_fit(lam, omega, alpha, chosen_on) <= 1e-14
        assert _relative_fit(lam, omega, alpha, between) <= 2e-14
    else:
        assert _relative_fit(lam, omega, alpha, between) <= 1e-12


@pytest.mark.parametrize("problem,alpha,gamma_rule,f_mode,n_steps,most", [
    ("example1", 0.25, "2/(alpha+1)", "endpoint_average", 4096, 64),  # long_history
    ("example2", 0.75, "auto-sigma", "interval_average", 256, 40),  # singular_study's levels
    ("example2", 0.75, "auto-sigma", "interval_average", 512, 40),
])
def test_soe_gauss_halves_the_workload_modes(problem, alpha, gamma_rule, f_mode, n_steps, most):
    # the 8-node base had 128, 72 and 80 modes on these meshes
    gamma_value = resolve_gamma(gamma_rule, problem_by_name(problem, alpha), f_mode)
    mesh = build_graded_mesh(1.0, n_steps, gamma_value)
    delta = _tail_delta(mesh)
    lam, omega = _soe_gauss(*_soe_modes(alpha, 1.0, delta), alpha, 1.0, delta)
    assert lam.size <= most
    assert _relative_fit(lam, omega, alpha, np.geomspace(delta, 1.0, 2000)) <= 2e-14


def _gauss_jacobi_mpmath(q, alpha):
    """Nodes and weights of the q-point Gauss rule for x**(-alpha) on [0, 1], from
    the eigenvectors of its Jacobi matrix (Golub-Welsch) at 40 digits."""
    with mpmath.workdps(40):
        b = -mpmath.mpf(alpha)
        jac = mpmath.zeros(q, q)
        for i in range(q):
            s = 2 * i + b
            jac[i, i] = (1 + b * b / (s * (s + 2))) / 2
            if i:
                jac[i, i - 1] = jac[i - 1, i] = i * (i + b) / s / mpmath.sqrt((s + 1) * (s - 1))
        x, v = mpmath.eigsy(jac)
        pairs = sorted((x[j], v[0, j] ** 2 / (1 + b)) for j in range(q))
        return np.array([[float(p) for p in pair] for pair in pairs]).T


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("T", [1.0, 1e3])
def test_soe_gauss_jacobi_modes_match_references(alpha, T):
    # the first _SOE_NODES modes are the Gauss-Jacobi rule for s**(-alpha) on
    # [0, 1/T], times sin(pi alpha)/pi.  scipy's roots_jacobi is an independent
    # rule, but itself off a 40-digit rule by up to 3.6e-13 (alpha = 0.95);
    # against the 40-digit rule the modes hold to a few units in the last place
    lam, omega = _soe_modes(alpha, T, 1e-3)
    lam, omega = lam[:_SOE_NODES], omega[:_SOE_NODES] * pi / sin(pi * alpha)
    y, wy = roots_jacobi(_SOE_NODES, 0.0, -alpha)  # weight (1 + y)**(-alpha) on [-1, 1]
    x, w = _gauss_jacobi_mpmath(_SOE_NODES, alpha)
    scale = T ** (alpha - 1.0)
    for ref_lam, ref_omega, rtol in [
        ((1.0 + y) / 2.0 / T, wy * 2.0 ** (alpha - 1.0) * scale, 1e-12),
        (x / T, w * scale, 5e-14),
    ]:
        assert np.max(np.abs(lam / ref_lam - 1.0)) <= rtol
        assert np.max(np.abs(omega / ref_omega - 1.0)) <= rtol
