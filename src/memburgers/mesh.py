"""Graded temporal meshes and the uniform spatial grid.

Time levels follow the power-law grading

    t_n = (n * k_base)**gamma,   k_base = T**(1/gamma) / N,   gamma >= 1,

so t_0 = 0, t_N = T, and gamma = 1 recovers the uniform mesh.  Grading
concentrates levels near t = 0 where solutions of the memory problem lose
regularity, which is what restores second-order time accuracy.

The convergence theory assumes three structural hypotheses on the mesh:

  (H1)  k_n <= C * k_base * min(1, t_n**(1 - 1/gamma))
  (H2)  t_1 >= c * k_base**gamma   and   t_n <= C * t_{n-1}  (n >= 2)
  (H3)  0 <= k_{n+1} - k_n <= C * k_base**2 * min(1, t_n**(1 - 2/gamma))

`check_mesh_hypotheses` reports, for one concrete mesh, the smallest
constants achieving each bound.  For a fixed valid mesh (H1) and (H2)
always admit finite constants, so their booleans only flag degenerate
meshes; the step-monotonicity half of (H3) is the condition that can
genuinely fail, and it is checked for every consecutive step pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TemporalMesh",
    "SpatialGrid",
    "MeshHypothesesReport",
    "build_graded_mesh",
    "build_mesh_from_levels",
    "build_spatial_grid",
    "check_mesh_hypotheses",
]

# Slack for sign checks on floating-point step differences.
_STEP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TemporalMesh:
    """Strictly increasing time levels t[0..N] with steps k[i] = t[i+1] - t[i].

    Attributes use the 1-based convention of the scheme: step n (n = 1..N)
    spans [t[n-1], t[n]] and has length k[n-1].  Instances are immutable;
    share freely across threads.
    """

    T: float
    N: int
    gamma: float
    k_base: float
    t: np.ndarray  # shape (N+1,)
    k: np.ndarray  # shape (N,)

    def __post_init__(self) -> None:
        if self.t.shape != (self.N + 1,) or self.k.shape != (self.N,):
            raise ValueError(
                f"TemporalMesh: N={self.N} needs t of shape ({self.N + 1},) and k of "
                f"shape ({self.N},), got {self.t.shape} and {self.k.shape}"
            )


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform grid x_j = j*h, j = 0..J, on [0, L] with h = L/J."""

    L: float
    J: int
    h: float
    x: np.ndarray  # shape (J+1,)


@dataclass(frozen=True)
class MeshHypothesesReport:
    """Diagnostics from check_mesh_hypotheses.

    Booleans say whether the corresponding hypothesis holds for this mesh
    with some finite constant; the floats are the smallest (for lower
    bounds: largest) constants achieving each bound.
    """

    step_bound_ok: bool
    step_bound_const: float  # smallest C in (H1)
    initial_level_const: float  # largest c with t_1 >= c * k_base**gamma
    level_growth_ok: bool
    level_growth_const: float  # smallest C with t_n <= C t_{n-1}, n >= 2
    monotone_steps_ok: bool
    step_increase_const: float  # smallest C in the upper half of (H3)

    @property
    def all_ok(self) -> bool:
        return self.step_bound_ok and self.level_growth_ok and self.monotone_steps_ok


def build_graded_mesh(T: float, N: int, gamma: float) -> TemporalMesh:
    """Build the graded mesh t_n = (n * k_base)**gamma on [0, T].

    Requires T > 0, N >= 1, gamma >= 1.  Levels are computed by direct
    exponentiation (not step accumulation) and the endpoints are pinned to
    0 and T exactly.
    """
    T = float(T)
    gamma = float(gamma)
    N = int(N)
    if not T > 0.0:
        raise ValueError(f"build_graded_mesh: T must be positive, got {T}")
    if N < 1:
        raise ValueError(f"build_graded_mesh: N must be >= 1, got {N}")
    if not gamma >= 1.0:
        raise ValueError(f"build_graded_mesh: gamma must be >= 1, got {gamma}")

    k_base = T ** (1.0 / gamma) / N
    t = (np.arange(N + 1, dtype=float) * k_base) ** gamma
    t[0] = 0.0
    t[N] = T  # exact endpoint; the power form matches it to roundoff anyway
    if not np.all(np.diff(t) > 0.0):
        raise ValueError(
            f"build_graded_mesh: levels not strictly increasing for T={T}, N={N}, gamma={gamma}"
        )
    return TemporalMesh(T=T, N=N, gamma=gamma, k_base=k_base, t=t, k=np.diff(t))


def build_mesh_from_levels(levels, gamma: float = 1.0) -> TemporalMesh:
    """Wrap explicit time levels (t_0 = 0 < t_1 < ... < t_N) as a TemporalMesh.

    Intended for diagnostics on hand-built meshes; `gamma` only enters the
    hypothesis formulas, and k_base is set to T**(1/gamma)/N as for the
    power-law construction.
    """
    t = np.asarray(levels, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("build_mesh_from_levels: need at least two levels")
    if t[0] != 0.0:
        raise ValueError(f"build_mesh_from_levels: t_0 must be 0, got {t[0]}")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("build_mesh_from_levels: levels must be strictly increasing")
    gamma = float(gamma)
    if not gamma >= 1.0:
        raise ValueError(f"build_mesh_from_levels: gamma must be >= 1, got {gamma}")
    N = t.size - 1
    T = float(t[-1])
    k_base = T ** (1.0 / gamma) / N
    return TemporalMesh(T=T, N=N, gamma=gamma, k_base=k_base, t=t.copy(), k=np.diff(t))


def build_spatial_grid(L: float, J: int) -> SpatialGrid:
    """Uniform grid on [0, L] with J intervals (J >= 2) and a finite 1/h^2."""
    L = float(L)
    J = int(J)
    if not L > 0.0:
        raise ValueError(f"build_spatial_grid: L must be positive, got {L}")
    if J < 2:
        raise ValueError(f"build_spatial_grid: J must be >= 2, got {J}")
    h = L / J
    if not (h * h > 0.0 and math.isfinite(1.0 / (h * h))):  # the scheme divides by h^2
        raise ValueError(f"build_spatial_grid: 1/h^2 is not finite for h = L/J = {L!r}/{J} = {h!r}")
    # linspace pins both endpoints exactly and is uniform to roundoff
    x = np.linspace(0.0, L, J + 1)
    return SpatialGrid(L=L, J=J, h=h, x=x)


def check_mesh_hypotheses(mesh: TemporalMesh) -> MeshHypothesesReport:
    """Check the grading hypotheses (H1)-(H3) for one mesh; see module docstring."""
    t, k = mesh.t, mesh.k
    kb, gamma, N = mesh.k_base, mesh.gamma, mesh.N

    # (H1): k_n <= C * kb * min(1, t_n^(1 - 1/gamma)), n = 1..N
    cap1 = np.minimum(1.0, t[1:] ** (1.0 - 1.0 / gamma))
    step_bound = k / (kb * cap1)
    step_bound_ok = bool(np.all(np.isfinite(step_bound)) and np.all(k > 0.0))
    step_bound_const = float(np.max(step_bound))

    # (H2): t_1 >= c * kb^gamma and t_n <= C * t_{n-1} for n >= 2
    initial_level_const = float(t[1] / kb**gamma)
    if N >= 2:
        growth = t[2:] / t[1:-1]
        level_growth_ok = bool(np.all(np.isfinite(growth)))
        level_growth_const = float(np.max(growth))
    else:
        level_growth_ok = True
        level_growth_const = 1.0

    # (H3): 0 <= k_{n+1} - k_n <= C * kb^2 * min(1, t_n^(1 - 2/gamma)).
    # The sign half is checked for every consecutive pair: that is what the
    # power-law meshes satisfy and what a non-monotone hand-built mesh breaks.
    if N >= 2:
        dk = np.diff(k)
        tol = _STEP_TOL * float(np.max(k))
        monotone_steps_ok = bool(np.all(dk >= -tol))
        cap3 = np.minimum(1.0, t[1:-1] ** (1.0 - 2.0 / gamma))
        step_increase_const = float(np.max(np.maximum(dk, 0.0) / (kb**2 * cap3)))
    else:
        monotone_steps_ok = True
        step_increase_const = 0.0

    return MeshHypothesesReport(
        step_bound_ok=step_bound_ok,
        step_bound_const=step_bound_const,
        initial_level_const=initial_level_const,
        level_growth_ok=level_growth_ok,
        level_growth_const=level_growth_const,
        monotone_steps_ok=monotone_steps_ok,
        step_increase_const=step_increase_const,
    )
