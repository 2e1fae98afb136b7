"""Implicit time stepper for the memory equation.

One solve advances

    u_t + u u_x - I^alpha(u_xx) = f,   u(0,t) = u(L,t) = 0,   u(.,0) = exact(.,0),

through the levels of a graded mesh.  The memory integral is replaced by
the product-integration rule (see quadrature), the convection term by the
skew-symmetric form N(U) (see gridops), and time stepping is of
Crank-Nicolson type.  Every level n = 1..N solves the same system for one
unknown V,

    a (V - U^{n-1}) + N(V) = w_nn k_n d2(V) + H_n + f^{n-1/2},

    H_n = sum_{s=1}^{n-1} w_ns k_s d_s,      d_s = d2(V at level s),

where d2 is the second difference.  For n >= 2 the unknown is the half
level V = U^{n-1/2}, a = 2/k_n and U^n = 2V - U^{n-1}.  The first step is
the one special case: the first interval's reconstruction takes the value
U^1 (not an average), so there V = U^1, a = 1/k_1, and H_1 = 0.  The
sources f^{n-1/2} of all steps come from one table of time factors and
one evaluation of each forcing profile, built before the first step (see
problems.f_half).

solve scales each step's system by 6h, so that neither a Picard pass nor
the second difference after the passes divides:

    6h a (V - U^{n-1}) + 6h N(V) = w_nn 6h k_n d2(V) + 6h (H_n + f^{n-1/2}).

6h N(V) is what convection_values gives (see gridops), and the rows of
the history hold 6h k_s d_s, which second_diff_values writes with the
one scale 6h k_s / h^2 = 6 k_s / h.

The history H_n sums over every earlier step, a block of _BLOCK steps
at a time (the lag-sum splitting of Hairer, Lubich & Schlichte, SIAM J.
Sci. Stat. Comput. 6, 1985), in O(N (_BLOCK + modes) J) flops and
O((_BLOCK + modes) J) memory.  Alive are one block of weights
(_BLOCK x 2 _BLOCK), the rows 6h k_s d_s of one block, at the J-1
interior nodes, in one buffer hist of (_BLOCK, J-1), and a scratch of
_BLOCK x _CHUNK values.  Every matrix product of the history and of the
sources is written into the scratch or added straight into the rows it
belongs to, by BLAS dgemm with beta = 0 or 1 (_gemm), so no product of a
block's or of z's size is ever allocated.  The weights enter the rows
exactly as quadrature returns them (it takes their powers on [0, 1] and
scales by T**(alpha-1), so no final time overflows them); the rows of
steps not yet taken hold their partial history and source until the step
finishes and overwrites its row with its own 6h k_n d_n.

  - Block phase, at the top of solve's outer loop: when block i, the
    steps [b0, b1), starts, its rows of the weight table are built, for
    the columns c0..b1-1 only (see quadrature), as for every block, block
    0 too.  hist holds block i-1, the exact window c0 <= s < b0
    (c0 = b0 - _BLOCK; none for block 0), and the far part of the history
    of all block i's steps, s < b0, is written over it.  Its tail,
    s < c0, goes through the sum-of-exponentials (SOE) modes of the
    kernel (see quadrature): a state z, one row per mode, holds the tail
    at t_{c0-1}, and first decays to t_{b0-1}.  Every product then acts
    on each node (column) on its own, so the phase walks the J-1 nodes
    one chunk of _CHUNK columns at a time, through the scratch; per
    chunk, in order, one product each:
    (i) the scratch takes the block's sources 6h f^{n-1/2} = 6h
    factors[n-1] @ profiles (see problems.f_half), and their sums of
    squares are added up for the norms of the f^{n-1/2} in the energy
    bound;
    (ii) it adds the window, block i-1's rows times the block's weights;
    (iii) it adds the tail, the block's SOE factors times z;
    (iv) z takes block i-1, which leaves the window at the next block,
    while hist still holds it (not at the last block, which no block
    follows), so that z then holds the tail s < b0 at t_{b0-1};
    (v) the scratch is written over block i-1's columns of hist.
    The modes come from one call, quadrature's _soe_tail, once per solve:
    the Gauss rule of a 10-node base, for the lags from the smallest
    t_{b0-1} - t_{c0-1} of the tail blocks up to T.  With N <= 2 _BLOCK
    there is no tail: no modes, and z has no rows.
  - Sub-block phase: the block's steps run _SUB at a time.  When a
    sub-block starts, its rows add the near terms of the block's
    finished steps, one product with those rows.
  - Step phase: step n adds the near terms of the finished steps of its
    own sub-block, at most _SUB - 1, to its row (through _Tridiagonal's
    tmp), which then holds 6h (H_n + f^{n-1/2}).

Each step's nonlinear system is solved by fixed-point (Picard) iteration
with the convection term lagged: every pass solves one symmetric,
strictly diagonally dominant (hence positive definite) tridiagonal system

    diag  6h (a + 2c),  off-diagonal  -6h c,      c = w_nn k_n / h^2.

The iteration starts from the extrapolated half level

    V_pred = U^{n-1} + k_n / (2 k_{n-1}) (U^{n-1} - U^{n-2}),   n >= 2,

and from U^0 at step 1.  It stops at the first pass from the second on
whose increment (discrete L2 norm) is below eps, so eps bounds the
increment of a pass >= 2 and every step takes at least two passes.  From
V_pred the first increment is often already below eps, and accepting it
would leave about theta eps of iteration error per step (theta the
contraction factor) in the results.  _factor checks the dominance and
factors the step's matrix once (LAPACK dpttrf, L D L^T), only up to the
row where its pivots settle, the rest filled in bit for bit (see
_factor).  _picard makes each pass one back substitution through
tridiagonal_solve (dpttrs), kept as its own function so that a traced
run can time the per-pass solve.

dpttrf and dpttrs are the LAPACK routines, and dgemm the CBLAS routine,
of the OpenBLAS that numpy itself loads: the ILP64 symbols
scipy_dpttrf_64_, scipy_dpttrs_64_ and scipy_cblas_dgemm64_, found
through numpy's linalg extension and called with ctypes (numpy >= 2
wheels export them; without them the import fails with one ImportError).
They take raw addresses, so _Tridiagonal allocates every array the first
two write through and builds every argument, once per solve, and _gemm
checks every array it passes (dtype, strides, shapes, overlap) and
raises on any it cannot take.

The step loop allocates no full-length array.  solve keeps one
workspace: _Tridiagonal's two iterate rows, the factor, one row for the
step's right-hand side 6h a U^{n-1} + (the step's row), and one
temporary, and, beside U^{n-1}, one row D = U^{n-1} - U^{n-2} (zero
before step 1).  V_pred is written from them straight into the first
iterate row.  _Tridiagonal also prebuilds, for either iterate row, the
views a pass reads and writes, so that a pass slices nothing, allocates
nothing and writes no end value (see _picard).  After the passes
6h k_n d2(V) goes straight into the step's row of hist
(second_diff_values), U^n = 2V - U^{n-1} (U^1 = V) is written over the
spent D, D = U^n - U^{n-1} over U^{n-1}, and the two arrays swap names.

Every step checks the energy bound

    ||U^n|| <= ||U^0|| + 2 sum_{l<=n} k_l ||f^{l-1/2}||   (+ 1e-9 slack),

which the scheme satisfies because the convection form is skew-symmetric
and the product-integration weights induce a positive-semidefinite memory
pairing.  The SOE tail changes the far weights by about 1e-14 relative,
so the pairing is positive semidefinite up to a perturbation of that size
rather than exactly; the check guards it.  A violation raises
StabilityViolationError (never expected; it would indicate an assembly
bug, not a bad parameter choice).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .gridops import GridFunction, convection_values, norm_l2, second_diff_values
from .mesh import SpatialGrid, TemporalMesh, whole_count
from .problems import F_MODES, ManufacturedProblem, f_half
from .quadrature import _BLOCK, _soe_factors, _soe_tail, compute_weights

__all__ = [
    "SchemeConfig",
    "StepReport",
    "SolveResult",
    "NonconvergenceError",
    "StabilityViolationError",
    "solve",
]

_STABILITY_SLACK = 1e-9
_SUB = 8  # steps per sub-block
_CHUNK = 1024  # interior nodes per column chunk of the block phase
_BOUNDARY_TOL = 1e-12  # largest |u(L, t)| / max(1, max |u(., t)|) taken as u(L, t) = 0

try:
    _lapack = ctypes.CDLL(_umath_linalg.__file__)
    dpttrf, dpttrs = _lapack.scipy_dpttrf_64_, _lapack.scipy_dpttrs_64_
    dgemm = _lapack.scipy_cblas_dgemm64_
except AttributeError:
    raise ImportError(
        "memburgers: numpy's LAPACK exports no scipy_dpttrf_64_ / scipy_dpttrs_64_ / "
        "scipy_cblas_dgemm64_ (numpy >= 2.0 wheels do)"
    ) from None
# Fortran calling convention: every argument by address, integers int64
dpttrf.argtypes, dpttrf.restype = [ctypes.c_void_p] * 4, None  # n, d, e, info
dpttrs.argtypes, dpttrs.restype = [ctypes.c_void_p] * 7, None  # n, nrhs, d, e, b, ldb, info
# CBLAS: order, transa, transb as C ints; m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
_int, _size, _real, _ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
dgemm.argtypes = [_int] * 3 + [_size] * 3 + [_real, _ptr, _size, _ptr, _size, _real, _ptr, _size]
dgemm.restype = None
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112  # the CBLAS enum values


class NonconvergenceError(RuntimeError):
    """Fixed-point iteration failed to meet eps within max_steps passes, or its
    increment stopped being finite."""

    def __init__(self, step: int, iterations: int, increment: float):
        self.step = step
        self.iterations = iterations
        self.increment = increment
        super().__init__(
            f"fixed-point iteration did not converge at step {step}: "
            f"increment {increment:.3e} after {iterations} passes"
        )


class StabilityViolationError(RuntimeError):
    """Computed level broke the energy bound; indicates an assembly bug."""


@dataclass(frozen=True)
class SchemeConfig:
    """Solver parameters.

    eps: fixed-point stopping tolerance: the discrete L2 norm of the
        increment of a pass, from the second pass on (each step starts from
        the extrapolated half level and accepts no first pass).
    max_steps: fixed-point pass budget per time step, >= 2.
    f_mode: the time factor of the sources f^{n-1/2}: midpoint,
        endpoint_average or interval_average (see problems.f_half).
    """

    eps: float = 1e-6
    max_steps: int = 300
    f_mode: str = "endpoint_average"

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"SchemeConfig: eps must be positive and finite, got {self.eps}")
        if whole_count("SchemeConfig", "max_steps", self.max_steps) < 2:
            raise ValueError(
                f"SchemeConfig: max_steps must be >= 2 (no step is accepted before "
                f"its second pass), got {self.max_steps}"
            )
        if self.f_mode not in F_MODES:
            raise ValueError(f"SchemeConfig: unknown f mode {self.f_mode!r}")


@dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics.

    stability_margin = (energy bound) - ||U^n||; the solver guarantees it
    is >= -1e-9 on every step it completes.
    """

    step: int
    iterations: int
    final_increment: float
    stability_margin: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Final level, per-step reports, and (optionally) the full trajectory:
    the (N+1, J+1) array whose row n holds U^n, its last row final.values."""

    mesh: TemporalMesh
    grid: SpatialGrid
    final: GridFunction
    reports: Tuple[StepReport, ...]
    trajectory: Optional[np.ndarray] = None

    @property
    def max_fp_iterations(self) -> int:
        return max(r.iterations for r in self.reports)


class _Tridiagonal:
    """The step's tridiagonal system on J + 1 nodes, m = J - 1 of them
    interior: its L D L^T factor d (m rows) and e (m - 1 entries), the
    (2, J + 1) iterate rows whose interiors the passes solve in, the
    step's right-hand side rhs (m rows) and a temporary tmp (m rows); with
    every argument of dpttrf (on the first n.value rows) and of dpttrs (on
    all m rows, in either iterate row) built once.  n.value is min(m, 64)
    before the first factor, and then the rows the last factor ended at,
    where _factor starts.  views[s] holds what a pass that solves in
    iterate row s reads and writes: the views left, mid, right of the other
    row, V's (see gridops), and the interior of row s.

    LAPACK writes through the raw addresses, so every array it sees is
    allocated here, float64 and C-contiguous, and stays referenced here for
    as long as the arguments, as do the int64 cells.
    """

    def __init__(self, J: int):
        m = J - 1
        self.d, self.e = np.empty(m), np.empty(m - 1)
        self.iterates, self.rhs, self.tmp = np.zeros((2, J + 1)), np.empty(m), np.empty(m)
        self.views = tuple(
            (v[:-2], v[1:-1], v[2:], row[1:-1])
            for row, v in zip(self.iterates, self.iterates[::-1])
        )
        self.n = ctypes.c_int64(min(m, 64))  # dpttrf's order, carried from step to step
        self.info = ctypes.c_int64()
        self._m, self._one = ctypes.c_int64(m), ctypes.c_int64(1)  # dpttrs's order (and ldb), nrhs
        cells = (self.n, self.info, self._m, self._one)
        n, info, m_, one = (ctypes.c_void_p(ctypes.addressof(cell)) for cell in cells)
        d_, e_ = (ctypes.c_void_p(array.ctypes.data) for array in (self.d, self.e))
        self.factor_args = (n, d_, e_, info)
        self.solve_args = tuple(
            (m_, one, d_, e_, ctypes.c_void_p(row[1:].ctypes.data), m_, info)
            for row in self.iterates
        )


def tridiagonal_solve(system: _Tridiagonal, row: int) -> None:
    """One back substitution (LAPACK dpttrs) with the factor _factor left in
    system, in place in the interior of system.iterates[row]."""
    dpttrs(*system.solve_args[row])
    if system.info.value != 0:
        raise ValueError(f"tridiagonal_solve: dpttrs rejected argument {-system.info.value}")


def _gemm(
    a: np.ndarray, b: np.ndarray, c: np.ndarray,
    alpha: float = 1.0, beta: float = 0.0, trans_a: bool = False,
) -> None:
    """c = alpha op(a) @ b + beta c, in place in c (BLAS dgemm); op(a) is a.T
    with trans_a, else a.  beta = 0 does not read c.

    a, b and c must be float64 matrices of matching shapes whose rows are
    unit-stride and at least a row's length apart (BLAS's leading
    dimension), and c must be writeable and overlap neither a nor b;
    anything else raises ValueError.
    """
    for name, x in (("a", a), ("b", b), ("c", c)):
        if x.dtype != np.float64 or x.ndim != 2:
            raise ValueError(f"_gemm: {name} must be a float64 matrix, got {x.dtype}, {x.ndim}-d")
    m, k = a.shape[::-1] if trans_a else a.shape
    n = b.shape[1]
    if b.shape[0] != k or c.shape != (m, n):
        raise ValueError(f"_gemm: shapes {a.shape}{'.T' if trans_a else ''} @ {b.shape} "
                         f"do not give c's {c.shape}")
    if np.may_share_memory(c, a) or np.may_share_memory(c, b) or not c.flags.writeable:
        raise ValueError("_gemm: c must be writeable and overlap neither a nor b")
    if m == 0 or n == 0:
        return
    if k == 0:  # an empty sum: c = beta c
        if beta:
            c *= beta
        else:
            c.fill(0.0)
        return
    for name, x in (("a", a), ("b", b), ("c", c)):
        rows, step = x.strides
        if step != 8 or rows % 8 or rows < 8 * x.shape[1]:
            raise ValueError(f"_gemm: {name}'s rows must be unit-stride and at least a row "
                             f"apart, got strides {x.strides}")
    dgemm(_ROW_MAJOR, _TRANS if trans_a else _NO_TRANS, _NO_TRANS, m, n, k,
          alpha, a.ctypes.data, a.strides[0] // 8, b.ctypes.data, b.strides[0] // 8,
          beta, c.ctypes.data, c.strides[0] // 8)


def _factor(a: float, c: float, system: _Tridiagonal, step: int) -> None:
    """Factor the step's matrix, diagonal a + 2c and off-diagonal -c, as L D L^T
    in system's d and e.

    d has the m rows, e m - 1 entries.  dpttrf's pivot recurrence reads only
    the previous pivot, so the factor of the first n rows is the first n
    rows of the full factor, and once two pivots in a row are equal every
    later pivot equals them and every later e_i = -c / d_i equals the last.
    So LAPACK factors only the first n rows, and the rest is filled in; if
    the pivots have not settled by row n, n doubles.  n = m is the full
    factorization.  n starts at system.n, the rows the last step's factor
    ended at (min(m, 64) at the first step), and is left there for the next
    step.  d and e come out bit for bit as dpttrf on all m rows leaves them.
    """
    if not (a > 0.0 and c > 0.0 and a + 2.0 * c < math.inf):
        # a > 0 is exactly the strict diagonal dominance margin of the
        # matrix; dpttrs does not check finiteness, so an infinite
        # diagonal (a weight or 6 k_n / h that overflows) is refused here
        raise ValueError(f"step {step}: tridiagonal system lost diagonal dominance (c = {c})")
    d, e = system.d, system.e
    m = d.size
    while True:
        n = system.n.value
        d[:n] = a + 2.0 * c
        e[: n - 1] = -c
        dpttrf(*system.factor_args)
        info = system.info.value
        if info != 0:
            raise ValueError(f"step {step}: tridiagonal matrix is not positive definite (pivot {info})")
        if n == m:
            return
        if d[n - 1] == d[n - 2]:
            d[n:] = d[n - 1]
            e[n - 1 :] = e[n - 2]
            return
        system.n.value = min(2 * n, m)


def _picard(
    system: _Tridiagonal, h: float, config: SchemeConfig, step: int
) -> Tuple[np.ndarray, int, float]:
    """Lagged-convection fixed-point loop for one step, started from the
    iterate the caller left in system.iterates[0] (with zero ends).

    Each pass solves A V = system.rhs - 6h N(V_prev) at the interior nodes
    with the factor of A that _factor left in system (solve scales the
    step's system by 6h, so that the pass need not divide).  The passes
    run in system.iterates, a (2, J+1) workspace, through the views
    system.views prebuilt for either row: a pass writes 6h N(V_prev) into
    the interior of the other row, forms its right-hand side and solves
    there, and takes the increment in place in V_prev's row, which the next
    pass solves in.  No pass writes an end value, so the ends stay zero.
    system.rhs and the factor are left as they are.  An iterate is accepted
    from the second pass on, once the increment (its discrete L2 norm, as
    norm_l2 takes it) is below eps.  Returns (the row of iterates holding V,
    passes, final increment norm); a non-finite increment raises
    NonconvergenceError at once.
    """
    rhs, tmp = system.rhs, system.tmp
    increment = math.inf
    for passes in range(1, config.max_steps + 1):
        s = passes % 2  # the row this pass solves in; V_prev is in the other
        left, mid, right, new = system.views[s]
        convection_values(left, mid, right, new, tmp)  # new: the right-hand side, then V
        np.subtract(rhs, new, out=new)
        tridiagonal_solve(system, s)
        mid -= new
        increment = math.sqrt(h * np.dot(mid, mid))
        if passes > 1 and increment < config.eps:
            return system.iterates[s], passes, increment
        if not math.isfinite(increment):
            raise NonconvergenceError(step=step, iterations=passes, increment=increment)
    raise NonconvergenceError(step=step, iterations=config.max_steps, increment=increment)


def _check_stability(bound: float, u_new: np.ndarray, h: float, step: int) -> float:
    margin = bound - norm_l2(u_new, h)
    if not margin >= -_STABILITY_SLACK:  # a NaN margin fails too
        raise StabilityViolationError(
            f"energy bound violated at step {step}: ||U^n|| exceeds "
            f"||U^0|| + 2 sum k_l ||f^(l-1/2)|| by {-margin:.3e}"
        )
    return margin


def solve(
    problem: ManufacturedProblem,
    mesh: TemporalMesh,
    grid: SpatialGrid,
    alpha: float,
    config: SchemeConfig,
    *,
    keep_trajectory: bool = False,
) -> SolveResult:
    """Run all N steps from U^0 = exact(x, 0); returns the final level and per-step reports.

    NonconvergenceError propagates with the failing step attached.  A grid on
    which the exact u(L, t) is nonzero at t = 0 or t = T is refused up front.
    """
    if not math.isclose(alpha, problem.alpha, rel_tol=0.0, abs_tol=1e-14):
        raise ValueError(
            f"solve: alpha {alpha} does not match problem alpha {problem.alpha}"
        )
    exact = {t: np.asarray(problem.exact(grid.x, t), dtype=float) for t in (0.0, mesh.T)}
    for t, u in exact.items():
        if abs(u[-1]) > _BOUNDARY_TOL * max(1.0, float(np.max(np.abs(u)))):
            raise ValueError(
                f"solve: {problem.name} does not vanish at x = L = {grid.L} "
                f"(u = {u[-1]:.3e} at t = {t}); choose a whole-number L"
            )
    h = grid.h
    u_prev = exact[0.0] + 0.0  # U^0; adding 0.0 turns -0.0 into 0.0
    u_prev[[0, -1]] = 0.0
    diff = np.zeros(grid.J + 1)  # D = U^{n-1} - U^{n-2}; zero before step 1
    u0_norm = norm_l2(u_prev, h)
    forcing_budget = 0.0  # 2 * sum_{l<=n} k_l ||f^{l-1/2}||
    t, k = mesh.t, mesh.k
    # row r of hist: 6h k_s d2(V_s) at the interior nodes, s = b0 + r in block i, or its
    # history until step s; at block i's start, block i - 1's rows
    hist = np.empty((min(_BLOCK, mesh.N), grid.J - 1))
    scratch = np.empty((hist.shape[0], min(_CHUNK, grid.J - 1)))  # one column chunk of rows
    lam, omega = _soe_tail(mesh, alpha)  # no modes when N <= 2 _BLOCK
    z = np.zeros((lam.size, grid.J - 1))  # the tail state at t_{c0-1}, one row per mode
    factors, profiles = f_half(problem.forcing, mesh, config.f_mode, grid)
    sources = profiles[:, 1:-1]

    system = _Tridiagonal(grid.J)  # the step's workspace
    iterates, rhs, tmp = system.iterates, system.rhs, system.tmp
    six_h = 6.0 * h  # the step's system is scaled by 6h: rows, rhs and factor
    trajectory = None
    if keep_trajectory:
        trajectory = np.empty((mesh.N + 1, grid.J + 1))
        trajectory[0] = u_prev
    reports = []
    # a diverging iterate overflows quietly here: its increment is not
    # finite, which _picard reports as NonconvergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(1, mesh.N + 1, _BLOCK):  # block i: the far history of all its steps
            b1 = min(b0 + _BLOCK, mesh.N + 1)
            c0 = max(b0 - _BLOCK, 1)  # the window is block i - 1, whole; block 0 has none
            w = compute_weights(mesh, alpha, (b0, b1), first_col=c0)
            near, window = w[:, b0 - c0 :], w[:, : b0 - c0]  # columns b0..b1-1, c0..b0-1
            last = hist[: b0 - c0]  # block i - 1's rows
            if c0 > 1:  # the tail: decay z to t_{b0-1}; the SOE factors of the block's steps
                z *= np.exp(-lam * (t[b0 - 1] - t[c0 - 1]))[:, None]
                g = omega * _soe_factors(lam, k[b0 - 1 : b1 - 1], t[b0 - 1 : b1 - 1] - t[b0 - 1])
            takes = c0 < b0 and b1 <= mesh.N  # z takes block i - 1 for the blocks after block i
            if takes:
                e = _soe_factors(lam, k[c0 - 1 : b0 - 1], t[b0 - 1] - t[c0:b0])
            rows = hist[: b1 - b0]  # block i's rows, written over block i - 1's
            squares = np.zeros(b1 - b0)  # the sums of squares of the rows' 6h f^{n-1/2}
            for j0 in range(0, grid.J - 1, _CHUNK):  # a chunk: _CHUNK nodes from j0, or fewer
                cols = slice(j0, j0 + _CHUNK)
                part = scratch[: b1 - b0, : min(_CHUNK, grid.J - 1 - j0)]
                _gemm(factors[b0 - 1 : b1 - 1], sources[:, cols], part, alpha=six_h)
                squares += np.einsum("ij,ij->i", part, part)
                if c0 < b0:  # the window; none for block 0
                    _gemm(window, last[:, cols], part, beta=1.0)
                if c0 > 1:
                    _gemm(g, z[:, cols], part, beta=1.0)
                if takes:
                    _gemm(e, last[:, cols], z[:, cols], beta=1.0, trans_a=True)
                rows[:, cols] = part
            f_norms = (np.sqrt(h * squares) / six_h).tolist()
            for q0 in range(0, b1 - b0, _SUB):  # sub-block: rows q0..q1-1
                q1 = min(q0 + _SUB, b1 - b0)
                if q0:  # the near terms of the block's finished steps
                    _gemm(near[q0:q1, :q0], rows[:q0], rows[q0:q1], beta=1.0)
                for r in range(q0, q1):  # step n: its last near terms, then its system
                    n = b0 + r
                    kn = float(k[n - 1])
                    if r > q0:  # rows[r] then holds 6h (H_n + f^{n-1/2})
                        rows[r] += np.matmul(near[r, q0:r], rows[q0:r], out=tmp)
                    a = (six_h if n == 1 else 2.0 * six_h) / kn
                    d2_scale = 6.0 * kn / h  # 6h k_n / h^2
                    np.multiply(u_prev[1:-1], a, out=rhs)
                    rhs += rows[r]
                    # V_pred = U^{n-1} + k_n / (2 k_{n-1}) D, U^0 at step 1, in _picard's start row
                    np.multiply(diff, kn / (2.0 * float(k[n - 2])) if n > 1 else 0.0, out=iterates[0])
                    iterates[0] += u_prev
                    _factor(a, near[r, r] * d2_scale, system, step=n)
                    v, passes, increment = _picard(system, h, config, step=n)

                    second_diff_values(v[:-2], v[1:-1], v[2:], d2_scale, out=rows[r])
                    # U^n into D's spent array, then D = U^n - U^{n-1} into U^{n-1}'s; swap
                    if n == 1:
                        diff[:] = v
                    else:  # U^n = 2V - U^{n-1}
                        v *= 2.0
                        np.subtract(v, u_prev, out=diff)
                    np.subtract(diff, u_prev, out=u_prev)
                    u_prev, diff = diff, u_prev
                    forcing_budget += 2.0 * kn * f_norms[r]
                    margin = _check_stability(u0_norm + forcing_budget, u_prev, h, step=n)
                    reports.append(StepReport(n, passes, increment, margin))
                    if trajectory is not None:
                        trajectory[n] = u_prev

    return SolveResult(
        mesh=mesh,
        grid=grid,
        final=GridFunction(grid=grid, values=u_prev),
        reports=tuple(reports),
        trajectory=trajectory,
    )
