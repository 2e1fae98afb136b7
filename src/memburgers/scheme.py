"""Implicit time stepper for the memory equation.

One solve advances

    u_t + u u_x - I^alpha(u_xx) = f,   u(0,t) = u(L,t) = 0,   u(.,0) = u_0,

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

Each step's nonlinear system is solved by fixed-point (Picard) iteration
with the convection term lagged: every pass solves one symmetric,
strictly diagonally dominant (hence positive definite) tridiagonal system

    diag  a + 2c,  off-diagonal  -c,      c = w_nn k_n / h^2,

warm-started from U^{n-1} and stopped when the discrete L2 norm of the
iterate increment drops below eps.  The matrix is the same for every pass
of a step, so it is factored once per step (LAPACK dpttrf, L D L^T) and
each pass is one back substitution (dpttrs).

Every step checks the energy bound

    ||U^n|| <= ||U^0|| + 2 sum_{l<=n} k_l ||f^{l-1/2}||   (+ 1e-9 slack),

which the scheme satisfies because the convection form is skew-symmetric
and the product-integration weights induce a positive-semidefinite memory
pairing.  A violation raises StabilityViolationError (never expected; it
would indicate an assembly bug, not a bad parameter choice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .gridops import GridFunction, convection_values, norm_l2, second_diff_values
from .mesh import SpatialGrid, TemporalMesh
from .problems import F_MODES, ManufacturedProblem, f_half
from .quadrature import compute_weights

__all__ = [
    "SchemeConfig",
    "StepReport",
    "SolveResult",
    "NonconvergenceError",
    "StabilityViolationError",
    "tridiagonal_factor",
    "tridiagonal_solve",
    "solve",
]

_STABILITY_SLACK = 1e-9


class NonconvergenceError(RuntimeError):
    """Fixed-point iteration failed to meet eps within max_steps passes."""

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
        if self.max_steps < 1:
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


def tridiagonal_factor(diag, off) -> Tuple[np.ndarray, np.ndarray]:
    """L D L^T factor of the symmetric tridiagonal matrix with diagonal diag
    (length m >= 1) and off-diagonal off (length m - 1), by LAPACK dpttrf.

    Raises ValueError unless the matrix is positive definite.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if diag.ndim != 1 or off.shape != (diag.size - 1,):  # no shape is (-1,): m = 0 fails
        raise ValueError(
            f"tridiagonal_factor: need m >= 1 diagonal and m - 1 off-diagonal "
            f"entries, got shapes {diag.shape} and {off.shape}"
        )
    # the f2py wrapper rejects an empty off-diagonal, which m = 1 has
    d, e, info = dpttrf(diag, off if off.size else np.zeros(1))
    if info != 0:
        raise ValueError(f"tridiagonal_factor: matrix is not positive definite (pivot {info})")
    return d, e


def tridiagonal_solve(factor: Tuple[np.ndarray, np.ndarray], rhs) -> np.ndarray:
    """Solve with a factor from tridiagonal_factor: one LAPACK dpttrs call."""
    d, e = factor
    rhs = np.asarray(rhs, dtype=float)
    # dpttrs solves only the first m rows of a longer rhs and reports nothing
    if rhs.shape != d.shape:
        raise ValueError(f"tridiagonal_solve: rhs shape {rhs.shape}, factor shape {d.shape}")
    x, info = dpttrs(d, e, rhs)
    if info != 0:
        raise ValueError(f"tridiagonal_solve: dpttrs rejected argument {-info}")
    return x


def _picard(
    factor: Tuple[np.ndarray, np.ndarray],
    rhs_base: np.ndarray,
    v: np.ndarray,
    h: float,
    config: SchemeConfig,
    step: int,
) -> Tuple[np.ndarray, int, float]:
    """Lagged-convection fixed-point loop for one step, started from v.

    Each pass solves A V = rhs_base - N(V_prev) at the interior nodes, A
    given by its factor.
    Returns (V, passes, final increment norm).
    """
    increment = math.inf
    for passes in range(1, config.max_steps + 1):
        v_new = np.zeros_like(v)
        v_new[1:-1] = tridiagonal_solve(factor, rhs_base - convection_values(v, h)[1:-1])
        increment = norm_l2(v_new - v, h)
        v = v_new
        if increment < config.eps:
            return v, passes, increment
    raise NonconvergenceError(step=step, iterations=config.max_steps, increment=increment)


def _check_stability(bound: float, u_new: np.ndarray, h: float, step: int) -> float:
    margin = bound - norm_l2(u_new, h)
    if margin < -_STABILITY_SLACK:
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
    """Run all N steps; returns the final level and per-step reports.

    NonconvergenceError propagates with the failing step attached.
    """
    if not math.isclose(alpha, problem.alpha, rel_tol=0.0, abs_tol=1e-14):
        raise ValueError(
            f"solve: alpha {alpha} does not match problem alpha {problem.alpha}"
        )
    w = compute_weights(mesh, alpha)
    h = grid.h
    u_prev = np.zeros(grid.J + 1)
    u_prev[1:-1] = np.asarray(problem.u0(grid.x[1:-1]), dtype=float)
    u0_norm = norm_l2(u_prev, h)
    forcing_budget = 0.0  # 2 * sum_{l<=n} k_l ||f^{l-1/2}||
    d = np.zeros((mesh.N + 1, grid.J + 1))  # row s: d2 of the unknown of step s
    factors, profiles = f_half(problem.forcing, mesh, config.f_mode, grid)

    trajectory = None
    if keep_trajectory:
        trajectory = np.empty((mesh.N + 1, grid.J + 1))
        trajectory[0] = u_prev
    reports = []
    for n in range(1, mesh.N + 1):
        kn = float(mesh.k[n - 1])
        a = (1.0 if n == 1 else 2.0) / kn
        c = w[n, n] * kn / (h * h)
        if not (a > 0.0 and c > 0.0 and a + 2.0 * c < math.inf):
            # a > 0 is exactly the strict diagonal dominance margin of the
            # matrix; dpttrs does not check finiteness, so an infinite
            # diagonal (h^2 underflowing to 0) is refused here
            raise ValueError(f"step {n}: tridiagonal system lost diagonal dominance (c = {c})")
        fh = factors[n - 1] @ profiles
        history = (w[n, 1:n] * mesh.k[: n - 1]) @ d[1:n]  # H_n; zero at n = 1
        scaled = u_prev[1:-1] / kn if n == 1 else a * u_prev[1:-1]
        rhs_base = scaled + history[1:-1] + fh[1:-1]

        try:
            factor = tridiagonal_factor(np.full(grid.J - 1, a + 2.0 * c), np.full(grid.J - 2, -c))
            v, passes, increment = _picard(factor, rhs_base, u_prev, h, config, step=n)
        except ValueError as exc:
            raise ValueError(f"step {n}: {exc}") from exc
        u_new = v if n == 1 else 2.0 * v - u_prev

        forcing_budget += 2.0 * kn * norm_l2(fh, h)
        margin = _check_stability(u0_norm + forcing_budget, u_new, h, step=n)
        d[n] = second_diff_values(v, h)
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
