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

The history H_n sums over every earlier step, a block of _BLOCK steps
at a time (the lag-sum splitting of Hairer, Lubich & Schlichte, SIAM J.
Sci. Stat. Comput. 6, 1985), in O(N (_BLOCK + modes) J) flops and
O((3 _BLOCK + modes) J) memory.  Alive are one block of weights
(_BLOCK x 2 _BLOCK) and the rows k_s d_s of three blocks, in a ring d of
(_BLOCK, J+1) slots, block i in slot i mod 3.  The rows hold k_s d_s so
that the weights enter exactly as quadrature returns them; the rows of
steps not yet taken hold their partial history until the step finishes
and overwrites its row with its own k_n d_n.

  - Block: when block i, the steps [b0, b1), starts, the far part of the
    history of all its steps, s < b0, is written into its slot.  Its exact
    window, block i-1 (c0 <= s < b0, c0 = b0 - _BLOCK), is one matrix
    product with the block's rows of the weight table, built for the
    columns c0..b1-1 only (see quadrature).  Its tail, s < c0, goes through
    the sum-of-exponentials (SOE) modes of the kernel (see quadrature): a
    state z, one row per mode, holds the tail at t_{b0-1}.  Per block z
    decays from the last block's t_{b0-1} and takes block i-2, which just
    left the window and so frees its slot (one matrix product); one more
    product adds z into block i's slot.  The modes are built once per
    solve, for the lags from the smallest t_{b0-1} - t_{c0-1} of the tail
    blocks up to T.  With N <= 2 _BLOCK there is no tail and no modes.
  - Step: step n adds its near part, the at most _BLOCK - 1 terms
    b0 <= s < n, to its row, which then holds H_n.

Each step's nonlinear system is solved by fixed-point (Picard) iteration
with the convection term lagged: every pass solves one symmetric,
strictly diagonally dominant (hence positive definite) tridiagonal system

    diag  a + 2c,  off-diagonal  -c,      c = w_nn k_n / h^2,

warm-started from U^{n-1} and stopped when the discrete L2 norm of the
iterate increment drops below eps.  _picard owns the step's linear
system: it checks the dominance, factors the matrix once (LAPACK dpttrf,
L D L^T), and makes each pass one back substitution through
tridiagonal_solve (dpttrs), kept as its own function so that a traced run
can time the per-pass solve.  A pass allocates no full-length iterate: it
forms rhs - N(V) in the array convection_values returns, solves in that
array, and takes the increment and the new iterate in place in the one
working copy of U^{n-1} that the step keeps.

Every step checks the energy bound

    ||U^n|| <= ||U^0|| + 2 sum_{l<=n} k_l ||f^{l-1/2}||   (+ 1e-9 slack),

which the scheme satisfies because the convection form is skew-symmetric
and the product-integration weights induce a positive-semidefinite memory
pairing.  The SOE tail changes the far weights by about 1e-12 relative,
so the pairing is positive semidefinite up to a perturbation of that size
rather than exactly; the check guards it.  A violation raises
StabilityViolationError (never expected; it would indicate an assembly
bug, not a bad parameter choice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .gridops import GridFunction, convection_values, norm_l2, second_diff_values
from .mesh import SpatialGrid, TemporalMesh, whole_count
from .problems import F_MODES, ManufacturedProblem, f_half
from .quadrature import _BLOCK, _soe_factors, _soe_modes, compute_weights

__all__ = [
    "SchemeConfig",
    "StepReport",
    "SolveResult",
    "NonconvergenceError",
    "StabilityViolationError",
    "solve",
]

_STABILITY_SLACK = 1e-9
_BOUNDARY_TOL = 1e-12  # largest |u(L, t)| / max(1, max |u(., t)|) taken as u(L, t) = 0


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

    eps: fixed-point stopping tolerance (discrete L2 of the increment).
    max_steps: fixed-point pass budget per time step.
    f_mode: the time factor of the sources f^{n-1/2}: midpoint,
        endpoint_average or interval_average (see problems.f_half).
    """

    eps: float = 1e-6
    max_steps: int = 300
    f_mode: str = "endpoint_average"

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"SchemeConfig: eps must be positive and finite, got {self.eps}")
        if whole_count("SchemeConfig", "max_steps", self.max_steps) < 1:
            raise ValueError(f"SchemeConfig: max_steps must be >= 1, got {self.max_steps}")
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


def tridiagonal_solve(factor: Tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """One back substitution with the L D L^T factor (d, e) made by _picard (LAPACK dpttrs).

    rhs may be overwritten: the solve runs in it when it is a contiguous
    float64 array, as each pass's right-hand side is.  Use the returned array.
    """
    x, info = dpttrs(*factor, rhs, overwrite_b=1)
    if info != 0:
        raise ValueError(f"tridiagonal_solve: dpttrs rejected argument {-info}")
    return x


def _picard(
    a: float,
    c: float,
    rhs_base: np.ndarray,
    v: np.ndarray,
    h: float,
    config: SchemeConfig,
    step: int,
) -> Tuple[np.ndarray, int, float]:
    """Lagged-convection fixed-point loop for one step, started from v.

    Each pass solves A V = rhs_base - N(V_prev) at the interior nodes, A
    the tridiagonal matrix with diagonal a + 2c and off-diagonal -c; A is
    checked and factored once, before the first pass.  rhs_base and v are
    left as they are: the passes work in one copy of v, and each pass forms
    its right-hand side and solves in the array convection_values returns.
    Returns (V, passes, final increment norm); a non-finite increment raises
    NonconvergenceError at once.
    """
    if not (a > 0.0 and c > 0.0 and a + 2.0 * c < math.inf):
        # a > 0 is exactly the strict diagonal dominance margin of the
        # matrix; dpttrs does not check finiteness, so an infinite
        # diagonal (h^2 underflowing to 0) is refused here
        raise ValueError(f"step {step}: tridiagonal system lost diagonal dominance (c = {c})")
    m = v.size - 2
    # the f2py wrapper rejects an empty off-diagonal, which m = 1 has
    d, e, info = dpttrf(np.full(m, a + 2.0 * c), np.full(max(m - 1, 1), -c))
    if info != 0:
        raise ValueError(f"step {step}: tridiagonal matrix is not positive definite (pivot {info})")
    v = v.copy()  # the working iterate; its zero ends are never written
    inner = v[1:-1]
    increment = math.inf
    for passes in range(1, config.max_steps + 1):
        rhs = convection_values(v, h)[1:-1]
        np.subtract(rhs_base, rhs, out=rhs)
        new = tridiagonal_solve((d, e), rhs)
        inner -= new
        increment = norm_l2(v, h)
        inner[:] = new
        if increment < config.eps:
            return v, passes, increment
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
    u0_norm = norm_l2(u_prev, h)
    forcing_budget = 0.0  # 2 * sum_{l<=n} k_l ||f^{l-1/2}||
    t, k = mesh.t, mesh.k
    starts = np.arange(1, mesh.N + 1, _BLOCK)
    # row r of slot i % len(d): k_s d2(V_s), s = b0 + r in block i, or its history until step s
    d = np.zeros((min(3, starts.size), min(_BLOCK, mesh.N), grid.J + 1))
    # the first block before the forcing: bad weights fail first
    b0, rows = 1, d[0]  # the block's first step and its slot
    near = w = compute_weights(mesh, alpha, (1, min(1 + _BLOCK, mesh.N + 1)), first_col=1)
    tail = starts[starts > 2 * _BLOCK]  # blocks with steps s < c0 = b0 - _BLOCK
    if tail.size:
        # the smallest lag t_{n-1} - t_s of a tail pair, s < c0 <= b0 <= n
        lam, omega = _soe_modes(alpha, mesh.T, float(np.min(t[tail - 1] - t[tail - _BLOCK - 1])))
        z = np.zeros((lam.size, grid.J + 1))  # the tail state at t_{b0-1}, one row per mode
    factors, profiles = f_half(problem.forcing, mesh, config.f_mode, grid)

    trajectory = None
    if keep_trajectory:
        trajectory = np.empty((mesh.N + 1, grid.J + 1))
        trajectory[0] = u_prev
    reports = []
    # a diverging iterate overflows quietly here: its increment is not
    # finite, which _picard reports as NonconvergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, mesh.N + 1):
            if n == b0 + len(w):  # next block: the far history of all its steps
                b0, b1 = n, min(n + _BLOCK, mesh.N + 1)
                c0, i = b0 - _BLOCK, (b0 - 1) // _BLOCK  # the window is block i - 1, whole
                w = compute_weights(mesh, alpha, (b0, b1), first_col=c0)
                near = w[:, _BLOCK:]  # columns b0..b1-1
                rows = d[i % len(d), : b1 - b0]
                np.matmul(w[:, :_BLOCK], d[(i - 1) % len(d)], out=rows)  # the window, exact
                if c0 > 1:  # tail: decay z to t_{b0-1}, add block i - 2 (just left the window)
                    z *= np.exp(-lam * (t[b0 - 1] - t[c0 - 1]))[:, None]
                    p0 = c0 - _BLOCK  # block i - 2: steps p0..c0-1
                    e = _soe_factors(lam, k[p0 - 1 : c0 - 1], t[b0 - 1] - t[p0:c0]).T
                    g = omega * _soe_factors(lam, k[b0 - 1 : b1 - 1], t[b0 - 1 : b1 - 1] - t[b0 - 1])
                    z += e @ d[(i - 2) % len(d)]
                    rows += g @ z
            kn = float(mesh.k[n - 1])
            a = (1.0 if n == 1 else 2.0) / kn
            fh = factors[n - 1] @ profiles
            r = n - b0
            rows[r] += near[r, :r] @ rows[:r]  # near history: rows[r] now holds H_n
            rhs_base = a * u_prev[1:-1] + rows[r, 1:-1] + fh[1:-1]
            c = near[r, r] * kn / (h * h)
            v, passes, increment = _picard(a, c, rhs_base, u_prev, h, config, step=n)
            u_new = v if n == 1 else 2.0 * v - u_prev

            forcing_budget += 2.0 * kn * norm_l2(fh, h)
            margin = _check_stability(u0_norm + forcing_budget, u_new, h, step=n)
            rows[r] = kn * second_diff_values(v, h)
            u_prev = u_new
            reports.append(StepReport(n, passes, increment, margin))
            if trajectory is not None:
                trajectory[n] = u_new

    return SolveResult(
        mesh=mesh,
        grid=grid,
        final=GridFunction(grid=grid, values=u_prev),
        reports=tuple(reports),
        trajectory=trajectory,
    )
