"""Graded temporal meshes and the uniform spatial grid.

Time levels follow the power-law grading

    t_n = (n * k_base)**gamma,   k_base = T**(1/gamma) / N,   gamma >= 1,

so t_0 = 0, t_N = T, and gamma = 1 recovers the uniform mesh.  Grading
concentrates levels near t = 0 where solutions of the memory problem lose
regularity, which is what restores second-order time accuracy.
`build_graded_mesh` builds these levels; `TemporalMesh(levels, gamma)`
wraps any strictly increasing levels from t_0 = 0, hand-built ones too.
The uniform grid x_j = j * L / J is fixed by L and J alone, so
`SpatialGrid(L, J)` derives the spacing h and the nodes x itself.

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
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TemporalMesh",
    "SpatialGrid",
    "MeshHypothesesReport",
    "build_graded_mesh",
    "build_spatial_grid",
    "check_mesh_hypotheses",
]

# Slack for sign checks on floating-point step differences.
_STEP_TOL = 1e-12


def whole_count(owner: str, name: str, value) -> int:
    """value as an int if it is a Python or numpy integer; otherwise a
    ValueError naming it, so 8.7 is refused rather than truncated to 8."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{owner}: {name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class TemporalMesh:
    """Strictly increasing time levels t[0..N], t[0] = 0, and their grading exponent.

    N, T = t[N], the steps k = diff(t) and k_base = T**(1/gamma)/N are
    derived at construction.  Attributes use the 1-based convention of the
    scheme: step n (n = 1..N) spans [t[n-1], t[n]] and has length k[n-1].
    Instances are immutable; share freely across threads.
    """

    t: np.ndarray  # shape (N+1,)
    gamma: float = 1.0
    N: int = field(init=False)
    T: float = field(init=False)
    k: np.ndarray = field(init=False)  # shape (N,)
    k_base: float = field(init=False)

    def __post_init__(self) -> None:
        t = np.array(self.t, dtype=float)
        gamma = float(self.gamma)
        if t.ndim != 1 or t.size < 2:
            raise ValueError(f"TemporalMesh: need 1-D levels, at least two, got shape {t.shape}")
        if t[0] != 0.0:
            raise ValueError(f"TemporalMesh: t_0 must be 0, got {t[0]}")
        if not np.all(np.isfinite(t)):
            raise ValueError(f"TemporalMesh: levels must be finite, got {t[~np.isfinite(t)][0]}")
        k = np.diff(t)
        if not np.all(k > 0.0):
            n = int(np.argmin(k > 0.0)) + 1
            raise ValueError(f"TemporalMesh: levels must be strictly increasing, "
                             f"got t_{n} = {t[n]} after t_{n - 1} = {t[n - 1]}")
        if not 1.0 <= gamma < math.inf:
            raise ValueError(f"TemporalMesh: gamma must be finite and >= 1, got {gamma}")
        N = t.size - 1
        T = float(t[N])
        derived = dict(t=t, gamma=gamma, N=N, T=T, k=k, k_base=T ** (1.0 / gamma) / N)
        for name, value in derived.items():  # frozen, so set through object
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform grid x_j = j*h, j = 0..J, on [0, L]; h = L/J and x are derived from L and J."""

    L: float
    J: int
    h: float = field(init=False)
    x: np.ndarray = field(init=False)  # shape (J+1,)

    def __post_init__(self) -> None:
        L = float(self.L)
        J = whole_count("SpatialGrid", "J", self.J)
        if not 0.0 < L < math.inf:
            raise ValueError(f"SpatialGrid: L must be positive and finite, got {L}")
        if J < 2:
            raise ValueError(f"SpatialGrid: J must be >= 2, got {J}")
        h = L / J
        if not (h * h > 0.0 and math.isfinite(1.0 / (h * h))):  # d2 scales by 1/h^2
            raise ValueError(f"SpatialGrid: 1/h^2 is not finite for h = L/J = {L!r}/{J} = {h!r}")
        # linspace pins both endpoints exactly and is uniform to roundoff
        for name, value in dict(L=L, J=J, h=h, x=np.linspace(0.0, L, J + 1)).items():
            object.__setattr__(self, name, value)  # frozen, so set through object


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

    Requires a finite T > 0 with k_base = T**(1/gamma)/N > 0 (not underflowed),
    an integer N >= 1 and a finite gamma >= 1 small enough that t_1 =
    k_base**gamma does not underflow to 0.  Levels are
    computed by direct exponentiation (not step accumulation) and the
    endpoints are pinned to 0 and T exactly.
    """
    T = float(T)
    gamma = float(gamma)
    N = whole_count("build_graded_mesh", "N", N)
    if not 0.0 < T < math.inf:
        raise ValueError(f"build_graded_mesh: T must be positive and finite, got {T}")
    if N < 1:
        raise ValueError(f"build_graded_mesh: N must be >= 1, got {N}")
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"build_graded_mesh: gamma must be finite and >= 1, got {gamma}")

    k_base = T ** (1.0 / gamma) / N
    if k_base == 0.0:
        raise ValueError(f"build_graded_mesh: T = {T} is too small for N = {N}: "
                         f"the base step T**(1/gamma)/N underflows to 0")
    t = (np.arange(N + 1, dtype=float) * k_base) ** gamma  # level 0: 0.0**gamma = 0
    t[N] = T  # exact endpoint; the power form matches it to roundoff anyway
    if not t[1] > 0.0:
        lost = int(np.count_nonzero(t[1:N] == 0.0))
        raise ValueError(
            f"build_graded_mesh: gamma = {gamma} is too large for N = {N} and T = {T}: "
            f"the levels (n*k_base)**gamma underflow to 0 for n <= {lost}"
        )
    return TemporalMesh(t, gamma)


def build_spatial_grid(L: float, J: int) -> SpatialGrid:
    """Uniform grid on [0, L] with J intervals; see SpatialGrid."""
    return SpatialGrid(L, J)


def check_mesh_hypotheses(mesh: TemporalMesh) -> MeshHypothesesReport:
    """Check the grading hypotheses (H1)-(H3) for one mesh; see module docstring."""
    t, k = mesh.t, mesh.k
    kb, gamma = mesh.k_base, mesh.gamma

    # (H1): k_n <= C * kb * min(1, t_n^(1 - 1/gamma)), n = 1..N
    cap1 = np.minimum(1.0, t[1:] ** (1.0 - 1.0 / gamma))
    step_bound = k / (kb * cap1)
    step_bound_ok = bool(np.all(np.isfinite(step_bound)))
    step_bound_const = float(np.max(step_bound))

    # (H2): t_1 >= c * kb^gamma and t_n <= C * t_{n-1} for n >= 2; with
    # N = 1 there is no such n, and C = 1
    initial_level_const = float(t[1] / kb**gamma)
    growth = t[2:] / t[1:-1]
    level_growth_ok = bool(np.all(np.isfinite(growth)))
    level_growth_const = float(np.max(growth, initial=1.0))

    # (H3): 0 <= k_{n+1} - k_n <= C * kb^2 * min(1, t_n^(1 - 2/gamma)).
    # The sign half is checked for every consecutive pair: that is what the
    # power-law meshes satisfy and what a non-monotone hand-built mesh breaks.
    # With N = 1 there is no pair, and C = 0.
    dk = np.diff(k)
    tol = _STEP_TOL * float(np.max(k))
    monotone_steps_ok = bool(np.all(dk >= -tol))
    cap3 = np.minimum(1.0, t[1:-1] ** (1.0 - 2.0 / gamma))
    step_increase_const = float(np.max(np.maximum(dk, 0.0) / (kb**2 * cap3), initial=0.0))

    return MeshHypothesesReport(
        step_bound_ok=step_bound_ok,
        step_bound_const=step_bound_const,
        initial_level_const=initial_level_const,
        level_growth_ok=level_growth_ok,
        level_growth_const=level_growth_const,
        monotone_steps_ok=monotone_steps_ok,
        step_increase_const=step_increase_const,
    )
