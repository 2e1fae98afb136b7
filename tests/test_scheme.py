"""Time stepper tests: the tridiagonal core, Picard behavior, the guards,
energy margins, and agreement with an independently assembled
dense-solver oracle."""

import ctypes
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrf as scipy_dpttrf

from memburgers import error_at_final_time, resolve_gamma, scheme
from memburgers.gridops import norm_l2
from memburgers.mesh import TemporalMesh, build_graded_mesh, build_spatial_grid
from memburgers.problems import (
    ManufacturedProblem,
    SeparableForcing,
    example1,
    example2,
    f_half,
)
from memburgers.quadrature import _BLOCK, compute_weights
from memburgers.scheme import (
    _SUB,
    NonconvergenceError,
    SchemeConfig,
    StabilityViolationError,
    solve,
)

from oracles import dense_trajectory, f_half_reference, spliced_weights, weights_row_loop


def _zero_problem(alpha=0.5):
    return ManufacturedProblem(
        name="zero",
        alpha=alpha,
        exact=lambda x, t: np.zeros_like(x),
        forcing=SeparableForcing(terms=()),
        sigma={},
    )


@pytest.mark.parametrize("m", [1, 2, 5, 40])
def test_tridiagonal_matches_dense_solve(m, monkeypatch):
    # with the convection switched off every pass solves the step's linear
    # system alone: diagonal a + 2c, off-diagonal -c, m interior nodes
    # (m = 1 has an empty off-diagonal)
    def no_convection(left, mid, right, out, tmp):
        out[:] = 0.0
        return out

    monkeypatch.setattr(scheme, "convection_values", no_convection)
    rng = np.random.default_rng(m)
    a, c = 0.5 + rng.random(2)
    rhs = rng.normal(size=m)
    full = np.diag(np.full(m, a + 2.0 * c)) - c * (np.eye(m, k=1) + np.eye(m, k=-1))
    system = _system(m)  # its iterates start at zero
    system.rhs[:] = rhs
    scheme._factor(a, c, system, step=1)
    v, passes, increment = scheme._picard(system, 1.0 / (m + 1), SchemeConfig(eps=1e-12), step=1)
    assert passes == 2 and increment < 1e-12  # the second pass repeats the first
    assert v[0] == v[-1] == 0.0
    assert np.allclose(v[1:-1], np.linalg.solve(full, rhs), rtol=1e-12, atol=1e-13)


def test_picard_leaves_its_inputs_unchanged():
    # each pass works in place in the iterate rows, starting from the
    # iterate the caller wrote into the first, but leaves the step's
    # right-hand side as it is, and every pass solves with the same factor
    rng = np.random.default_rng(7)
    m = 31
    rhs = rng.normal(size=m)
    system = _system(m)
    system.rhs[:] = rhs
    system.iterates[0, 1:-1] = rng.normal(size=m)
    scheme._factor(40.0, 3.0, system, step=1)
    factor_in = system.d.copy(), system.e.copy()
    out, passes, _ = scheme._picard(system, 1.0 / (m + 1), SchemeConfig(), step=1)
    assert passes > 1
    assert system.rhs.tobytes() == rhs.tobytes()
    assert np.shares_memory(out, system.iterates)
    assert all(f.tobytes() == g.tobytes() for f, g in zip((system.d, system.e), factor_in))


def test_picard_passes_allocate_no_row_and_write_no_end(monkeypatch):
    # every pass reads and writes through the views _Tridiagonal built: at
    # J = 8192 the passes of a step allocate no array of J - 1 values or
    # more, and leave the iterate rows' ends exactly +0.0
    allocated, picard = [], scheme._picard

    def measured(system, h, config, step):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = picard(system, h, config, step)
        allocated.append(tracemalloc.get_traced_memory()[1] - before)
        ends = system.iterates[:, [0, -1]]
        assert not np.any(ends) and not np.any(np.signbit(ends))
        return result

    monkeypatch.setattr(scheme, "_picard", measured)
    J = 8192
    tracemalloc.start()
    try:
        result = solve(example1(0.5), build_graded_mesh(1.0, 4, 1.5), build_spatial_grid(1.0, J),
                       0.5, SchemeConfig())
    finally:
        tracemalloc.stop()
    assert len(allocated) == 4 and sum(r.iterations for r in result.reports) > 4
    assert max(allocated) < (J - 1) * 8


def test_tridiagonal_indefinite_matrix_raises(monkeypatch):
    # the dominance guard keeps the matrix positive definite, so a pivot
    # that LAPACK reports as not positive is simulated; the step is named
    def not_positive_definite(n, d, e, info):
        _cell(info).value = 2

    monkeypatch.setattr(scheme, "dpttrf", not_positive_definite)
    mesh = build_graded_mesh(1.0, 3, 1.0)
    grid = build_spatial_grid(1.0, 8)
    with pytest.raises(ValueError, match=r"step 1: .*not positive definite \(pivot 2\)"):
        solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())


def test_tridiagonal_rejected_argument_raises(monkeypatch):
    # dpttrs reports a bad argument as info = -(its position); the solve
    # must stop with it rather than go on with an unsolved right-hand side
    def rejects_ldb(n, nrhs, d, e, b, ldb, info):
        _cell(info).value = -6

    monkeypatch.setattr(scheme, "dpttrs", rejects_ldb)
    mesh = build_graded_mesh(1.0, 3, 1.0)
    grid = build_spatial_grid(1.0, 8)
    with pytest.raises(ValueError, match=r"tridiagonal_solve: dpttrs rejected argument 6"):
        solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())


@pytest.mark.parametrize("n_nodes", [2, 3, 7, 4096])
def test_tridiagonal_workspace_is_what_lapack_takes(n_nodes):
    # LAPACK gets raw addresses and lengths, so every array it writes
    # through is allocated by _Tridiagonal itself: C-contiguous float64 of
    # the exact shapes (J = 2: one interior node, an empty off-diagonal),
    # each prebuilt address the data of its array, the iterate rows zero,
    # ends included, and the first factor's order at most 64 rows
    m = n_nodes - 1
    system = scheme._Tridiagonal(n_nodes)
    shapes = {"d": (m,), "e": (m - 1,), "iterates": (2, n_nodes + 1), "rhs": (m,)}
    for name, shape in shapes.items():
        array = getattr(system, name)
        assert array.dtype == np.float64 and array.flags.c_contiguous, name
        assert array.shape == shape, name
    assert not np.any(system.iterates)
    assert system.n.value == min(m, 64)
    d, e = system.d.ctypes.data, system.e.ctypes.data
    n, info = ctypes.addressof(system.n), ctypes.addressof(system.info)
    assert [a.value for a in system.factor_args] == [n, d, e, info]
    for row, args in zip(system.iterates, system.solve_args):
        assert [a.value for a in args[2:5]] == [d, e, row[1:].ctypes.data]
        assert args[6].value == info
        assert _cell(args[0]).value == _cell(args[5]).value == m
        assert _cell(args[1]).value == 1


def _system(m):
    """The step's tridiagonal workspace for m interior nodes, as solve builds it
    (J = m + 1)."""
    return scheme._Tridiagonal(m + 1)


def _cell(address):
    """The int64 LAPACK argument that a prebuilt ctypes address points to."""
    return ctypes.c_int64.from_address(address.value)


def _count_factor_rows(monkeypatch):
    """Make scheme.dpttrf record the rows of each call; returns the record."""
    rows, dpttrf = [], scheme.dpttrf

    def counted(n, d, e, info):
        rows.append(_cell(n).value)
        dpttrf(n, d, e, info)

    monkeypatch.setattr(scheme, "dpttrf", counted)
    return rows


def _assert_factors_carried(calls, n_steps, m):
    """The dpttrf calls of a solve of n_steps steps on m interior nodes: one
    a step, plus one per doubling of the rows, which start at min(m, 64) and
    never shrink (each step starts where the last one ended)."""
    assert n_steps <= len(calls) <= n_steps + math.ceil(math.log2(m / 64)) + 1
    assert calls == sorted(calls) and calls[0] == min(m, 64)


class _Untruncated(scheme._Tridiagonal):
    """A step workspace whose first factor starts at all m = J - 1 rows."""

    def __init__(self, J):
        super().__init__(J)
        self.n.value = J - 1


@pytest.mark.parametrize("m", [1, 2, 3, 17, 255, 4095, 16383])
def test_truncated_factor_is_bit_identical(m, monkeypatch):
    # _factor runs dpttrf only on the rows before the pivots settle and
    # fills in the rest; d and e must be what dpttrf leaves on all m rows,
    # for a/c from 1e-40 (rho rounds to 1: every row is factored) to 1e6,
    # from a start of 2 rows (too short, so that n doubles), of 64 (the
    # first step's) and of m; the full factor comes from scipy's own
    # LAPACK, an independent build
    calls = _count_factor_rows(monkeypatch)
    for c in (1.0, 6.7e7):
        for ratio in [1e-40] + [10.0**p for p in range(-18, 7, 3)]:
            a = ratio * c
            d_full, e_full, info = scipy_dpttrf(np.full(m, a + 2.0 * c), np.full(max(m - 1, 1), -c))
            assert info == 0
            for start in sorted({min(m, 2), min(m, 64), m}):
                calls.clear()
                system = _system(m)
                system.n.value = start
                scheme._factor(a, c, system, step=1)
                assert system.d.tobytes() == d_full.tobytes()
                assert system.e.tobytes() == e_full[: m - 1].tobytes()
                assert calls[0] == start and system.n.value == calls[-1]
                assert calls[1:] == [min(2 * n, m) for n in calls[:-1]]  # doubling
                if start == m or ratio == 1e-40:
                    assert calls[-1] == m
                elif start == 2 and m > 2:
                    assert len(calls) > 1


def _gemm_operands(rng, m, n, k, trans_a):
    """a, b and c with a row stride longer than a row, as the solve's views
    of its history buffers have (cur[:, 1:-1])."""
    def strided(rows, cols):
        return rng.standard_normal((rows, cols + 3))[:, 1 : cols + 1]

    return strided(k, m) if trans_a else strided(m, k), strided(k, n), strided(m, n)


@pytest.mark.parametrize("m,n,k", [(8, 37, 64), (1, 5, 3), (64, 1, 1), (0, 4, 3), (3, 0, 2), (3, 4, 0)])
@pytest.mark.parametrize("trans_a", [False, True])
@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1.0, 1.0), (-2.5, 1.0), (0.5, 0.0)])
def test_gemm_matches_matmul(m, n, k, trans_a, alpha, beta):
    rng = np.random.default_rng(m * 100 + n * 10 + k)
    a, b, c = _gemm_operands(rng, m, n, k, trans_a)
    op_a = a.T if trans_a else a
    expected = alpha * np.matmul(op_a, b) + beta * c
    if beta == 0.0:
        c[...] = np.nan  # beta = 0 does not read c
    untouched = b.copy(), a.copy()
    scheme._gemm(a, b, c, alpha=alpha, beta=beta, trans_a=trans_a)
    assert np.allclose(c, expected, rtol=1e-13, atol=1e-13)
    assert np.array_equal(b, untouched[0]) and np.array_equal(a, untouched[1])


def test_gemm_writes_only_c():
    # the view c = rows[4:8] of a buffer whose other rows (b = rows[:4])
    # and whose end columns it must not touch
    buffer = np.arange(10.0 * 9).reshape(10, 9)
    rows = buffer[:8, 1:-1]
    a = np.ones((4, 4))
    before = buffer.copy()
    scheme._gemm(a, rows[:4], rows[4:8], beta=1.0)
    expected = before[4:8, 1:-1] + before[:4, 1:-1].sum(axis=0)
    assert np.array_equal(buffer[4:8, 1:-1], expected)
    changed = buffer != before
    changed[4:8, 1:-1] = False
    assert not changed.any()


def _refused_gemm_arguments():
    ok = np.ones((3, 4)), np.ones((4, 5)), np.zeros((3, 5))
    buffer = np.zeros((8, 8))
    return [
        ("float32 a", (ok[0].astype(np.float32), ok[1], ok[2]), {}),
        ("int b", (ok[0], np.ones((4, 5), dtype=int), ok[2]), {}),
        ("1-d c", (ok[0], ok[1][:, 0], np.zeros(3)), {}),
        ("inner sizes", (ok[0], np.ones((3, 5)), ok[2]), {}),
        ("c's shape", (ok[0], ok[1], np.zeros((3, 6))), {}),
        ("transposed shape", (ok[0], ok[1], ok[2]), {"trans_a": True}),
        ("column stride of a", (np.ones((3, 8))[:, ::2], ok[1], ok[2]), {}),
        ("column stride of c", (ok[0], ok[1], np.zeros((3, 10))[:, ::2]), {}),
        ("transposed view b", (ok[0], np.ones((5, 4)).T, ok[2]), {}),
        ("rows closer than a row", (np.lib.stride_tricks.as_strided(
            np.ones(16), (3, 4), (8, 8)), ok[1], ok[2]), {}),
        ("broadcast rows", (np.broadcast_to(np.ones(4), (3, 4)), ok[1], ok[2]), {}),
        ("reversed rows", (ok[0][::-1], ok[1], ok[2]), {}),
        ("c overlaps a", (buffer[:3, :4], ok[1], buffer[2:5, :5]), {}),
        ("c overlaps b", (np.ones((4, 4)), buffer[:4, :5], buffer[3:7, :5]), {}),
        ("c is b", (np.ones((4, 4)), buffer[:4, :4], buffer[:4, :4]), {}),
        ("read-only c", (ok[0], ok[1], np.broadcast_to(np.zeros(5), (3, 5))), {}),
    ]


@pytest.mark.parametrize("args,kwargs", [case[1:] for case in _refused_gemm_arguments()],
                         ids=[case[0] for case in _refused_gemm_arguments()])
def test_gemm_refuses_what_blas_cannot_take(args, kwargs):
    # every check raises, under python -O too (none is an assert), and
    # nothing is written
    before = args[2].copy()
    with pytest.raises(ValueError, match="_gemm: "):
        scheme._gemm(*args, **kwargs)
    assert np.array_equal(args[2], before)


def test_factor_starts_at_the_rows_the_last_step_ended_at(monkeypatch):
    # a step whose pivots settle within 64 rows, after one whose pivots
    # needed more, factors in one call of the carried rows, and still
    # leaves the factor dpttrf gives on all m rows
    calls = _count_factor_rows(monkeypatch)
    m = 4095
    system = _system(m)
    scheme._factor(1e-4, 1.0, system, step=1)  # rho about 0.99: settles late
    carried = calls[-1]
    assert 64 < carried < m and system.n.value == carried
    calls.clear()
    a, c = 1e3, 1.0  # settles within a few rows
    scheme._factor(a, c, system, step=2)
    assert calls == [carried] and system.n.value == carried
    d_full, e_full, info = scipy_dpttrf(np.full(m, a + 2.0 * c), np.full(m - 1, -c))
    assert info == 0
    assert system.d.tobytes() == d_full.tobytes() and system.e.tobytes() == e_full.tobytes()
    calls.clear()
    scheme._factor(a, c, _system(m), step=1)
    assert calls == [64]  # on its own, the same step needs no more than the start


def test_factor_is_truncated_on_every_singular_study_step(monkeypatch):
    # the benchmark's singular_study workload (example 2, alpha 0.75,
    # interval_average, gamma auto-sigma, J = 4096) at its finest level,
    # N = 512: every step factors fewer than m = 4095 rows, one call a step
    # but for the doublings of the carried rows
    calls = _count_factor_rows(monkeypatch)
    problem = example2(0.75)
    mesh = build_graded_mesh(1.0, 512, resolve_gamma("auto-sigma", problem, "interval_average"))
    grid = build_spatial_grid(1.0, 4096)
    w_nn = np.diag(compute_weights(mesh, problem.alpha, (1, mesh.N + 1)))
    system = _system(grid.J - 1)
    for n in range(1, mesh.N + 1):
        kn = float(mesh.k[n - 1])
        scheme._factor((1.0 if n == 1 else 2.0) / kn, w_nn[n - 1] * kn / (grid.h * grid.h), system, step=n)
    _assert_factors_carried(calls, mesh.N, grid.J - 1)
    assert max(calls) < grid.J - 1


def test_truncated_factor_leaves_the_solve_bit_identical(monkeypatch):
    # on this gamma-3 mesh the pivots of the first steps settle within
    # m = 4095 rows; against a solve whose every factor starts at all m
    # rows, every bit of the trajectory and of the reports must stay the same
    calls = _count_factor_rows(monkeypatch)
    problem = example2(0.75)
    mesh = build_graded_mesh(1.0, 8, 3.0)
    grid = build_spatial_grid(1.0, 4096)
    config = SchemeConfig(f_mode="interval_average")
    short = solve(problem, mesh, grid, problem.alpha, config, keep_trajectory=True)
    assert min(calls) < grid.J - 1
    calls.clear()
    monkeypatch.setattr(scheme, "_Tridiagonal", _Untruncated)
    full = solve(problem, mesh, grid, problem.alpha, config, keep_trajectory=True)
    assert calls == [grid.J - 1] * mesh.N
    assert short.trajectory.tobytes() == full.trajectory.tobytes()
    assert short.reports == full.reports


def test_a_later_solve_leaves_an_earlier_result_unchanged():
    # each solve steps in its own workspace, and final.values is the array
    # it wrote U^N into: a second solve must not write into the first
    # one's final level or trajectory
    grid = build_spatial_grid(1.0, 16)
    mesh = build_graded_mesh(1.0, 6, 1.5)
    first = solve(example1(0.5), mesh, grid, 0.5, SchemeConfig(), keep_trajectory=True)
    final, trajectory = first.final.values.tobytes(), first.trajectory.tobytes()
    config = SchemeConfig(f_mode="interval_average")
    second = solve(example2(0.5), mesh, grid, 0.5, config, keep_trajectory=True)
    assert first.final.values.tobytes() == final
    assert first.trajectory.tobytes() == trajectory
    assert not np.shares_memory(first.final.values, second.final.values)


def test_scheme_config_validation():
    for eps in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SchemeConfig(eps=eps)
    for max_steps in (0, 1, 2.5, np.float64(3.0)):
        with pytest.raises(ValueError, match="max_steps"):
            SchemeConfig(max_steps=max_steps)
    # no step is accepted before its second pass, so one pass can never do
    with pytest.raises(ValueError, match=r"max_steps must be >= 2 \(no step is accepted before"):
        SchemeConfig(max_steps=1)
    assert SchemeConfig(max_steps=np.int64(3)).max_steps == 3
    with pytest.raises(ValueError):
        SchemeConfig(f_mode="trapezoid")


def test_zero_data_stays_exactly_zero():
    problem = _zero_problem()
    mesh = build_graded_mesh(1.0, 6, 1.5)
    grid = build_spatial_grid(1.0, 8)
    result = solve(problem, mesh, grid, 0.5, SchemeConfig(), keep_trajectory=True)
    for level in result.trajectory:
        assert np.array_equal(level, np.zeros(grid.J + 1))
    # the zero predictor is the zero fixed point, but no step is accepted
    # before its second pass
    assert all(r.iterations == 2 for r in result.reports)


@pytest.mark.parametrize("eps", [1e-170, 5e-324])
def test_zero_increment_meets_every_eps(eps):
    # a pass is accepted exactly when its increment norm is below eps, for
    # every eps SchemeConfig takes: the zero problem's increments are 0, so
    # each step is accepted at its second pass even where eps^2 underflows
    assert eps * eps == 0.0
    result = solve(_zero_problem(), build_graded_mesh(1.0, 6, 1.5), build_spatial_grid(1.0, 8),
                   0.5, SchemeConfig(eps=eps))
    assert [(r.iterations, r.final_increment) for r in result.reports] == [(2, 0.0)] * 6


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
    for J in (8, 3, 2):  # J = 3: a 2 x 2 system; J = 2: a single interior node, 1 x 1
        grid = build_spatial_grid(1.0, J)
        result = solve(problem, mesh, grid, alpha, config, keep_trajectory=True)
        reference = dense_trajectory(problem, mesh, grid, alpha, config.f_mode)
        for level, ref in zip(result.trajectory, reference):
            assert np.max(np.abs(level - ref)) <= 1e-7


@pytest.mark.parametrize("n_steps", [
    1, 2, _SUB - 1, _SUB, _SUB + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + _SUB + 1,
    2 * _BLOCK, 2 * _BLOCK + 1, 2 * _BLOCK + _SUB + 1, 4 * _BLOCK + 1, 9 * _BLOCK + 1,
    10 * _BLOCK + 1,
])
def test_block_boundaries_match_dense_oracle(n_steps):
    # the history is summed a block of _BLOCK steps at a time (the block
    # before by one GEMM, older blocks through the SOE tail from the third
    # block on), then a sub-block of _SUB steps at a time (the block's
    # finished steps by one GEMM), then per step; steps on either side of
    # each block and sub-block boundary, the first tail block, and solves
    # whose two history buffers have swapped many times must agree with the
    # oracle, which sums it term by term
    alpha = 0.4
    problem = example1(alpha)
    mesh = build_graded_mesh(1.0, n_steps, 2.0 / (alpha + 1.0))
    grid = build_spatial_grid(1.0, 4)
    config = SchemeConfig(eps=1e-12)
    reference = np.array(dense_trajectory(problem, mesh, grid, alpha, config.f_mode))
    result = solve(problem, mesh, grid, alpha, config, keep_trajectory=True)
    assert np.max(np.abs(result.trajectory - reference)) <= 1e-10


def test_solve_never_builds_the_full_weight_table():
    # the weights are built one block of rows at a time; the whole
    # (N+1)^2 table would be 33.6 MB here.  The rows k_s d2(V_s) live in
    # two (_BLOCK, J+1) buffers (0.5 MB), never in an (N+1, J+1) table
    # (8.4 MB); the solve peaks near 2 MB in all
    n_steps, n_nodes = 2048, 512
    mesh = build_graded_mesh(1.0, n_steps, 1.0)
    grid = build_spatial_grid(1.0, n_nodes)
    tracemalloc.start()
    try:
        solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * (n_steps + 1) ** 2 * 8
    assert peak < 0.5 * (n_steps + 1) * (n_nodes + 1) * 8


def test_history_holds_two_blocks(monkeypatch):
    # three blocks at J = 8192, where one (_BLOCK, J-1) slot of rows is
    # 4.2 MB: at its peak the solve holds the two history buffers and the
    # SOE state z (one row per mode of the Gauss rule solve takes), plus
    # about 23 rows of J+1: the 7 forcing profiles, u(., 0) and u(., T) for
    # the boundary check, U^{n-1} and D, _Tridiagonal's six rows and the
    # weight block's few.  Every history and source product is added in
    # place, so a margin of 24 rows holds them; a solve that kept a third
    # slot of rows alive would not fit, nor one that wrote its products
    # through an (8, J+1) scratch, nor one that held a product of z's size.
    # A first solve with a tail takes the imports the modes need
    # (numpy.polynomial), which are not the solve's memory
    modes, soe_gauss = [], scheme._soe_gauss

    def counted(*args):
        lam, omega = soe_gauss(*args)
        modes.append(lam.size)
        return lam, omega

    solve(example1(0.5), build_graded_mesh(1.0, 2 * _BLOCK + 1, 1.0), build_spatial_grid(1.0, 4),
          0.5, SchemeConfig())
    monkeypatch.setattr(scheme, "_soe_gauss", counted)
    n_steps, n_nodes = 3 * _BLOCK, 8192
    mesh = build_graded_mesh(1.0, n_steps, 1.0)
    grid = build_spatial_grid(1.0, n_nodes)
    tracemalloc.start()
    try:
        solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = (n_nodes + 1) * 8
    (n_modes,) = modes
    assert peak < (2 * _BLOCK + n_modes + 24) * row


@pytest.mark.parametrize("n_steps", [_SUB - 1, _SUB + 1, 2 * _BLOCK + _SUB + 1])
def test_forcing_norms_are_each_steps_source_norm(n_steps, monkeypatch):
    # the energy budget adds 2 k_n ||f^{n-1/2}|| per step, with the norms
    # of a whole sub-block's sources taken at once; with U^0 = 0 the bound
    # each step checks is that budget alone, and it must be the budget of
    # norm_l2(factors[n-1] @ profiles), step by step, within 1e-14
    bounds, check = [], scheme._check_stability

    def recorded(bound, u_new, h, step):
        bounds.append(bound)
        return check(bound, u_new, h, step)

    monkeypatch.setattr(scheme, "_check_stability", recorded)
    problem = example2(0.75)
    mesh = build_graded_mesh(1.0, n_steps, 1.5)
    grid = build_spatial_grid(1.0, 64)
    config = SchemeConfig(f_mode="interval_average")
    assert not np.any(problem.exact(grid.x, 0.0))
    solve(problem, mesh, grid, problem.alpha, config)
    factors, profiles = f_half(problem.forcing, mesh, config.f_mode, grid)
    budget = 0.0
    for n, bound in enumerate(bounds, start=1):
        budget += 2.0 * float(mesh.k[n - 1]) * norm_l2(factors[n - 1] @ profiles, grid.h)
        assert abs(bound - budget) <= 1e-14 * budget, n
    assert len(bounds) == n_steps


@pytest.mark.parametrize("n_steps", [2 * _BLOCK + 1, 3 * _BLOCK + 1, 5 * _BLOCK + 1])
def test_soe_tail_matches_exact_history(n_steps, monkeypatch):
    # from the third block on, steps older than the block before enter the
    # history through the SOE modes; the dense oracle sums every step
    # exactly, and so does the solve whose one block holds all N steps
    alpha = 0.5
    problem = example1(alpha)
    mesh = build_graded_mesh(1.0, n_steps, 2.0 / (alpha + 1.0))
    grid = build_spatial_grid(1.0, 8)
    reference = np.array(dense_trajectory(problem, mesh, grid, alpha, "endpoint_average"))
    tight = solve(problem, mesh, grid, alpha, SchemeConfig(eps=1e-12), keep_trajectory=True)
    assert np.max(np.abs(tight.trajectory - reference)) <= 1e-10 * np.max(np.abs(reference))
    tail = solve(problem, mesh, grid, alpha, SchemeConfig())
    monkeypatch.setattr(scheme, "_BLOCK", n_steps)
    exact = solve(problem, mesh, grid, alpha, SchemeConfig())
    assert [r.iterations for r in tail.reports] == [r.iterations for r in exact.reports]
    gap = np.max(np.abs(tail.final.values - exact.final.values))
    assert gap <= 1e-10 * np.max(np.abs(exact.final.values))
    assert min(r.stability_margin for r in tail.reports) >= -1e-9


@pytest.mark.parametrize("n_steps", [256, 512])
def test_singular_study_error_matches_the_exact_history(n_steps, monkeypatch):
    # singular_study's two finest levels (J = 4096) through the SOE tail
    # against the solve whose one block holds all N steps and sums every
    # step exactly: error_l2 within 1e-8 relative (measured -2.7e-10 and
    # +4.7e-9; the 8-node tail, before the Gauss rule, gave +1.7e-8 and
    # +1.6e-7)
    problem = example2(0.75)
    config = SchemeConfig(f_mode="interval_average")
    mesh = build_graded_mesh(1.0, n_steps, resolve_gamma("auto-sigma", problem, config.f_mode))
    grid = build_spatial_grid(1.0, 4096)
    tail = solve(problem, mesh, grid, problem.alpha, config)
    monkeypatch.setattr(scheme, "_BLOCK", n_steps)
    exact = solve(problem, mesh, grid, problem.alpha, config)
    errors = [error_at_final_time(r.final, problem, 1.0) for r in (tail, exact)]
    assert abs(errors[0] / errors[1] - 1.0) <= 1e-8


@pytest.mark.parametrize("n_steps", [
    1, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK, 3 * _BLOCK + 1,
    9 * _BLOCK, 9 * _BLOCK + 1, 10 * _BLOCK, 10 * _BLOCK + 1,
])
def test_soe_modes_built_only_with_a_tail(n_steps, monkeypatch):
    # a solve of at most two blocks (N <= 2 _BLOCK) sums every step exactly
    # and builds no modes; one with tail blocks builds them once, however
    # many such blocks it has
    calls, soe_modes = [], scheme._soe_modes

    def counted(*args):
        calls.append(args)
        return soe_modes(*args)

    monkeypatch.setattr(scheme, "_soe_modes", counted)
    mesh = build_graded_mesh(1.0, n_steps, 1.0)
    solve(example1(0.5), mesh, build_spatial_grid(1.0, 4), 0.5, SchemeConfig())
    assert len(calls) == (n_steps > 2 * _BLOCK)


def _pairing_spectrum(mesh, w):
    """Smallest and largest eigenvalue of the symmetrised pairing k_n w_ns k_s."""
    m = mesh.k[:, None] * w[1:, 1:] * mesh.k[None, :]
    eig = np.linalg.eigvalsh(0.5 * (m + m.T))
    return eig[0], eig[-1]


@pytest.mark.parametrize("alpha,grading,n_steps", [
    (0.25, 1.6, 1024), (0.5, 4.0 / 3.0, 512), (0.75, 1.0, 300), (0.9, 2.5, 700), (0.05, 1.0, 400),
])
def test_spliced_memory_pairing_is_positive_semidefinite(alpha, grading, n_steps):
    # the energy bound rests on the memory pairing being positive
    # semidefinite; the solve pairs exact near and window weights with SOE
    # weights for older steps, and that spliced matrix must keep the
    # smallest eigenvalue of the exact one
    mesh = build_graded_mesh(1.0, n_steps, grading)
    low, top = _pairing_spectrum(mesh, spliced_weights(mesh, alpha, _BLOCK))
    low_exact, _ = _pairing_spectrum(mesh, weights_row_loop(mesh, alpha))
    assert low >= -1e-14 * top
    assert abs(low - low_exact) <= 1e-12 * top


@pytest.mark.parametrize(
    "problem, gamma, n_steps, n_nodes, f_mode",
    [
        (example1(0.25), 2.0 / 1.25, 2048, 16, "endpoint_average"),
        (example2(0.75), None, 1024, 32, "interval_average"),
    ],
    ids=["example1", "example2"],
)
def test_predicted_start_takes_two_passes_and_lands_near_converged(
    problem, gamma, n_steps, n_nodes, f_mode
):
    # reduced long_history and singular_study cases: from the extrapolated
    # half level every step meets eps on its second pass, the first one it
    # may accept, and the final level lies within 1e-9 of the converged
    # solve; an iteration started from U^{n-1} lands 1.4e-7 and 2.2e-7 off
    # on these cases, so they tell the two starts apart
    if gamma is None:
        gamma = resolve_gamma("auto-sigma", problem, f_mode)
    mesh = build_graded_mesh(1.0, n_steps, gamma)
    grid = build_spatial_grid(1.0, n_nodes)
    result = solve(problem, mesh, grid, problem.alpha, SchemeConfig(f_mode=f_mode))
    assert [r.iterations for r in result.reports] == [2] * n_steps
    converged = solve(problem, mesh, grid, problem.alpha, SchemeConfig(eps=1e-12, f_mode=f_mode))
    off = np.linalg.norm(result.final.values - converged.final.values)
    assert off <= 1e-9 * np.linalg.norm(converged.final.values)


def test_nonconvergence_reports_failing_step():
    problem = example1(0.5)
    mesh = build_graded_mesh(1.0, 4, 1.0)
    grid = build_spatial_grid(1.0, 32)
    config = SchemeConfig(eps=1e-14, max_steps=2)
    with pytest.raises(NonconvergenceError) as info:
        solve(problem, mesh, grid, 0.5, config)
    assert info.value.step == 1
    assert info.value.iterations == 2
    assert info.value.increment > 0.0


def test_non_finite_increment_stops_at_once(monkeypatch):
    # a NaN convection value poisons the first pass; the loop must not spend
    # the rest of its budget on NaN before reporting
    def nan_convection(left, mid, right, out, tmp):
        out[:] = np.nan
        return out

    monkeypatch.setattr(scheme, "convection_values", nan_convection)
    mesh = build_graded_mesh(1.0, 4, 1.0)
    grid = build_spatial_grid(1.0, 8)
    with pytest.raises(NonconvergenceError, match="step 1: increment nan after 1 passes") as info:
        solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())
    assert info.value.step == 1
    assert info.value.iterations == 1


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
    # at J = 16 each step factors all J - 1 rows; at J = 256 on the uniform
    # 128-step mesh the pivots settle within the first 128 rows, so each
    # step factors fewer rows, in one dpttrf call but for the doublings of
    # the carried rows
    solves, tridiagonal_solve = [], scheme.tridiagonal_solve

    def counted_solve(system, row):
        solves.append(system.iterates[row, 1:-1].size)
        return tridiagonal_solve(system, row)

    factors = _count_factor_rows(monkeypatch)
    monkeypatch.setattr(scheme, "tridiagonal_solve", counted_solve)
    for n_steps, grading, n_nodes in [(12, 1.5, 16), (128, 1.0, 256)]:
        factors.clear()
        solves.clear()
        mesh = build_graded_mesh(1.0, n_steps, grading)
        grid = build_spatial_grid(1.0, n_nodes)
        result = solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())
        if n_nodes == 16:
            assert factors == [grid.J - 1] * mesh.N
        else:
            _assert_factors_carried(factors, mesh.N, grid.J - 1)
            assert max(factors) < grid.J - 1
        assert len(solves) == sum(r.iterations for r in result.reports)
        assert len(solves) > mesh.N  # some step took more than one pass
        assert set(solves) == {grid.J - 1}


def test_stability_check_raises_on_violation():
    grid = build_spatial_grid(1.0, 4)
    too_big = np.zeros(grid.J + 1)
    too_big[1:-1] = 1.0
    with pytest.raises(StabilityViolationError):
        scheme._check_stability(0.0, too_big, grid.h, step=1)
    # an infinite bound and level leave margin inf - inf = nan, which fails too
    with pytest.raises(StabilityViolationError, match="by nan"):
        scheme._check_stability(np.inf, np.where(too_big > 0.0, np.inf, 0.0), grid.h, step=1)


def test_infinite_diagonal_raises(monkeypatch):
    # dpttrs does not check finiteness, so a step whose diagonal is
    # infinite must be refused by name before it is factored
    def infinite_diagonal(mesh, alpha, rows, first_col):
        w = compute_weights(mesh, alpha, rows, first_col)
        if rows[0] == 1:
            w[0, 1 - first_col] = np.inf  # w_11
        return w

    monkeypatch.setattr(scheme, "compute_weights", infinite_diagonal)
    mesh = build_graded_mesh(1.0, 3, 1.0)
    grid = build_spatial_grid(1.0, 8)
    with pytest.raises(ValueError, match="step 1: .*lost diagonal dominance"):
        solve(example1(0.5), mesh, grid, 0.5, SchemeConfig())


def test_lost_diagonal_dominance_raises(monkeypatch):
    # a zero diagonal weight leaves no implicit diffusion; the step must
    # refuse it with a ValueError, which still fires under python -O
    def zero_diagonal(mesh, alpha, rows, first_col):
        w = compute_weights(mesh, alpha, rows, first_col)
        if rows[0] == 1:
            w[1, 2 - first_col] = 0.0  # w_22
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
    mesh = TemporalMesh([0.0, 1.0])
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
    # row 0 is the exact solution at t = 0 with zero end values
    u0 = problem.exact(grid.x, 0.0)
    u0[[0, -1]] = 0.0
    assert np.array_equal(result.trajectory[0], u0)


def test_initial_level_has_no_negative_zero():
    # on [0, 2] this exact(x, 0) = 0 * sin(pi x) is -0.0 where the sine is
    # negative; U^0 must hold +0.0 there, or trajectory dumps print -0.0
    problem = dataclasses.replace(
        example2(0.5), exact=lambda x, t: float(t) ** 0.5 * np.sin(np.pi * x)
    )
    grid = build_spatial_grid(2.0, 16)
    assert np.any(np.signbit(problem.exact(grid.x, 0.0)))
    mesh = build_graded_mesh(1.0, 4, 1.0)
    config = SchemeConfig(f_mode="interval_average")
    result = solve(problem, mesh, grid, 0.5, config, keep_trajectory=True)
    row0 = result.trajectory[0]
    assert np.array_equal(row0, np.zeros(grid.J + 1))
    assert not np.any(np.signbit(row0))
