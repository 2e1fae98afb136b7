"""Manufactured problems for the memory equation

    u_t + u u_x - I^alpha(u_xx) = f,   u(0,t) = u(L,t) = 0,   u(x,0) = exact(x,0),

on [0, 1] x (0, T].  Each built-in problem states only its exact solution
as sine modes (c, p, k), u = sum c t**p sin(k pi x).  exact(x, t) and the
forcing are derived from the modes, the forcing as a sum of separable
terms c_i * g_i(x) * t**p_i with p_i > -1, so the per-step source is

    f^{n-1/2} = sum_i c_i tau_i(n) g_i,

where only the time factor tau_i(n) depends on the step.  It is formed one
of three ways:

    midpoint           t_{n-1/2}**p
    endpoint_average   ( t_{n-1}**p + t_n**p ) / 2
    interval_average   (1/k_n) int_{t_{n-1}}^{t_n} t**p dt   (exact)

f_half builds the table of c_i tau_i(n) for all steps and evaluates each
profile g_i once on the grid.  The interval average integrates t**p in
closed form, which is what makes a forcing with a weakly singular
t**(alpha-1) term usable from the first step.

Each problem records a regularity index sigma per supported f mode: the
exact solution and forcing satisfy bounds of the type

    t ||d/dt u_xx|| + t^2 ||d^2/dt^2 u_xx|| <= M t^(sigma - 1)

(similarly for pointwise f), which is the index the mesh-grading theory is
phrased in.  Problem 1 is smooth at t = 0 except for a t**(alpha+1) mode,
so sigma = alpha + 1 for the pointwise f modes and alpha + 2 when the
interval average removes the forcing-regularity constraint.  Problem 2 has
u ~ t**alpha and an f with a t**(alpha-1) term, so only interval averaging
carries an order statement (sigma = 1 + alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Tuple

import numpy as np

from .mesh import SpatialGrid, TemporalMesh

__all__ = [
    "F_MODES",
    "ForcingTerm",
    "SeparableForcing",
    "ManufacturedProblem",
    "example1",
    "example2",
    "f_half",
    "problem_by_name",
]

F_MODES = ("midpoint", "endpoint_average", "interval_average")

_PI = math.pi


@dataclass(frozen=True)
class ForcingTerm:
    """One separable term coefficient * profile(x) * t**exponent."""

    profile: Callable
    exponent: float
    coefficient: float

    def __post_init__(self) -> None:
        if not self.exponent > -1.0:
            raise ValueError(
                f"ForcingTerm: exponent must be > -1 for integrability, got {self.exponent}"
            )


@dataclass(frozen=True)
class SeparableForcing:
    """Finite sum of separable terms; see f_half for the per-step sources."""

    terms: Tuple[ForcingTerm, ...]


@dataclass(frozen=True)
class ManufacturedProblem:
    """Exact solution, forcing, and regularity metadata; the initial data are exact(x, 0)."""

    name: str
    alpha: float
    exact: Callable  # exact(x, t)
    forcing: SeparableForcing
    sigma: Mapping[str, float] = field(default_factory=dict)

    def sigma_for(self, f_mode: str) -> float:
        """Regularity index for a given f mode; raises if no order statement exists."""
        if f_mode not in F_MODES:
            raise ValueError(f"unknown f mode {f_mode!r}")
        try:
            return self.sigma[f_mode]
        except KeyError:
            raise ValueError(
                f"problem {self.name!r} has no regularity index for f mode {f_mode!r}"
            ) from None


def _sine(k: int) -> Callable:
    return lambda x: np.sin(k * _PI * x)


def _sine_cosine(k: int, l: int) -> Callable:
    return lambda x: np.sin(k * _PI * x) * np.cos(l * _PI * x)


def _manufactured(name: str, alpha: float, modes: Callable, sigma: Callable) -> ManufacturedProblem:
    """The problem u = sum of c t**p sin(k pi x) over modes(alpha), regularity map sigma(alpha).

    The forcing u_t + u u_x - I^alpha(u_xx) is derived term by term, using
    I^alpha(t**p) = Gamma(p+1)/Gamma(p+alpha+1) t**(p+alpha); u u_x gives
    c d l pi t**(p+q) sin(k pi x) cos(l pi x) per ordered pair of modes (c, p, k), (d, q, l).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"{name}: alpha must be in (0, 1), got {alpha}")
    modes = modes(alpha)
    terms = [  # -I^alpha(u_xx), then u_t, then u u_x
        ForcingTerm(_sine(k), p + alpha,
                    (k * _PI) ** 2 * c * math.gamma(p + 1.0) / math.gamma(p + alpha + 1.0))
        for c, p, k in modes
    ]
    terms += [ForcingTerm(_sine(k), p - 1.0, c * p) for c, p, k in modes if p != 0.0]
    terms += [
        ForcingTerm(_sine_cosine(k, l), p + q, c * d * l * _PI)
        for c, p, k in modes
        for d, q, l in modes
    ]

    def exact(x, t):
        try:
            return sum(c * float(t) ** p * np.sin(k * _PI * x) for c, p, k in modes)
        except OverflowError:  # Python's message is an errno tuple; u(x, 0) is finite, so p >= 0
            raise OverflowError(f"{name}: exact(x, t) takes t**{max(p for _, p, _ in modes):g}, "
                                f"which overflows a float at t = {float(t):g}") from None

    return ManufacturedProblem(name, alpha, exact, SeparableForcing(tuple(terms)), sigma(alpha))


def example1(alpha: float) -> ManufacturedProblem:
    """Solution sin(pi x) - t**(alpha+1)/Gamma(alpha+2) * sin(2 pi x).

    Its two modes give seven forcing terms with exponents {0, alpha,
    alpha+1, 2 alpha+1, 2 alpha+2}.
    """
    return _manufactured(
        "example1", alpha,
        lambda a: ((1.0, 0.0, 1), (-1.0 / math.gamma(a + 2.0), a + 1.0, 2)),
        lambda a: {"midpoint": a + 1.0, "endpoint_average": a + 1.0, "interval_average": a + 2.0},
    )


def example2(alpha: float) -> ManufacturedProblem:
    """Solution t**alpha/Gamma(alpha+1) * sin(pi x), zero initial data.

    Its one mode gives three forcing terms, among them the weakly singular
    t**(alpha-1) of u_t, so endpoint averaging is undefined at t = 0.
    """
    return _manufactured(
        "example2", alpha,
        lambda a: ((1.0 / math.gamma(a + 1.0), a, 1),),
        lambda a: {"interval_average": 1.0 + a},
    )


_PROBLEMS = {"example1": example1, "example2": example2}


def problem_by_name(name: str, alpha: float) -> ManufacturedProblem:
    try:
        builder = _PROBLEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; expected one of {sorted(_PROBLEMS)}"
        ) from None
    return builder(alpha)


def f_half(
    forcing: SeparableForcing,
    mesh: TemporalMesh,
    mode: str,
    grid: SpatialGrid,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step sources of a whole solve: f^{n-1/2} = factors[n-1] @ profiles.

    Returns factors, shape (N, m), whose column i is c_i times term i's time
    factor at every step, and profiles, shape (m, J+1), each g_i evaluated
    once on grid.x.  interval_average uses the exact antiderivative

        (1/k_n) int_{t_{n-1}}^{t_n} t**p dt
            = (t_n**(p+1) - t_{n-1}**(p+1)) / ((p+1) k_n).

    endpoint_average at n = 1 needs f(x, 0), hence all exponents >= 0.
    A factor that is not finite (levels whose powers overflow) raises
    ValueError naming the first step and exponent it occurs at.
    """
    if mode not in F_MODES:
        raise ValueError(f"f_half: unknown f mode {mode!r}")
    p = np.array([term.exponent for term in forcing.terms])
    c = np.array([term.coefficient for term in forcing.terms])
    if mode == "endpoint_average" and np.any(p < 0.0):
        raise ValueError(
            "f_half: endpoint_average undefined at t=0 for a singular forcing; "
            "use interval_average"
        )
    t0 = mesh.t[:-1, None]
    t1 = mesh.t[1:, None]
    # huge levels overflow the powers; the check below names the result
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "midpoint":
            tau = (0.5 * (t0 + t1)) ** p
        elif mode == "endpoint_average":
            tau = 0.5 * (t0**p + t1**p)
        else:  # interval_average
            tau = (t1 ** (p + 1.0) - t0 ** (p + 1.0)) / ((p + 1.0) * mesh.k[:, None])
        factors = c * tau
    bad = np.argwhere(~np.isfinite(factors))
    if bad.size:
        n, i = bad[0]
        raise ValueError(
            f"f_half: non-finite source factor at step {n + 1} for the t**{p[i]:g} term; "
            f"the powers of the mesh levels overflow"
        )
    profiles = np.array([term.profile(grid.x) for term in forcing.terms])
    # the reshape gives an empty forcing shape (0, J+1), so its sources are zero
    return factors, profiles.reshape(len(forcing.terms), grid.J + 1)
