"""Manufactured problems for the memory equation

    u_t + u u_x - I^alpha(u_xx) = f,   u(0,t) = u(L,t) = 0,   u(x,0) = u_0(x),

on [0, 1] x (0, T].  Forcings are stored symbolically as sums of separable
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


# -- spatial profiles (closed set; every profile vanishes at x = 0 and x = 1) --


def sin_pi(x):
    return np.sin(_PI * x)


def sin_2pi(x):
    return np.sin(2.0 * _PI * x)


def sin_pi_cos_pi(x):
    return np.sin(_PI * x) * np.cos(_PI * x)


def sin_pi_cos_2pi(x):
    return np.sin(_PI * x) * np.cos(2.0 * _PI * x)


def sin_2pi_cos_pi(x):
    return np.sin(2.0 * _PI * x) * np.cos(_PI * x)


def sin_2pi_cos_2pi(x):
    return np.sin(2.0 * _PI * x) * np.cos(2.0 * _PI * x)


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
    """Exact solution, initial data, forcing, and regularity metadata."""

    name: str
    alpha: float
    u0: Callable
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


def example1(alpha: float) -> ManufacturedProblem:
    """Solution sin(pi x) - t**(alpha+1)/Gamma(alpha+2) * sin(2 pi x).

    The forcing u_t + u u_x - I^alpha(u_xx) expands into seven separable
    terms with exponents {0, alpha, alpha+1, 2 alpha+1, 2 alpha+2}; the
    memory integral of t**(alpha+1) contributes the Gamma(2 alpha+2) mode.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"example1: alpha must be in (0, 1), got {alpha}")
    g1 = math.gamma(alpha + 1.0)
    g2 = math.gamma(alpha + 2.0)
    g22 = math.gamma(2.0 * alpha + 2.0)

    terms = (
        ForcingTerm(sin_pi, alpha, _PI**2 / g1),
        ForcingTerm(sin_2pi, 2.0 * alpha + 1.0, -4.0 * _PI**2 / g22),
        ForcingTerm(sin_2pi, alpha, -1.0 / g1),
        ForcingTerm(sin_pi_cos_pi, 0.0, _PI),
        ForcingTerm(sin_pi_cos_2pi, alpha + 1.0, -2.0 * _PI / g2),
        ForcingTerm(sin_2pi_cos_pi, alpha + 1.0, -_PI / g2),
        ForcingTerm(sin_2pi_cos_2pi, 2.0 * alpha + 2.0, 2.0 * _PI / g2**2),
    )

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return np.sin(_PI * x) - float(t) ** (alpha + 1.0) / g2 * np.sin(2.0 * _PI * x)

    return ManufacturedProblem(
        name="example1",
        alpha=alpha,
        u0=sin_pi,
        exact=exact,
        forcing=SeparableForcing(terms),
        sigma={
            "midpoint": alpha + 1.0,
            "endpoint_average": alpha + 1.0,
            "interval_average": alpha + 2.0,
        },
    )


def example2(alpha: float) -> ManufacturedProblem:
    """Solution t**alpha/Gamma(alpha+1) * sin(pi x), zero initial data.

    The forcing carries a weakly singular t**(alpha-1) term (from u_t), so
    only the interval-averaged f mode has an order statement; pointwise
    endpoint averaging is undefined at t = 0.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"example2: alpha must be in (0, 1), got {alpha}")
    ga = math.gamma(alpha)
    g1 = math.gamma(alpha + 1.0)
    g21 = math.gamma(2.0 * alpha + 1.0)

    terms = (
        ForcingTerm(sin_pi, 2.0 * alpha, _PI**2 / g21),
        ForcingTerm(sin_pi, alpha - 1.0, 1.0 / ga),
        ForcingTerm(sin_2pi, 2.0 * alpha, _PI / (2.0 * g1**2)),
    )

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        return float(t) ** alpha / g1 * np.sin(_PI * x)

    def u0(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ManufacturedProblem(
        name="example2",
        alpha=alpha,
        u0=u0,
        exact=exact,
        forcing=SeparableForcing(terms),
        sigma={"interval_average": 1.0 + alpha},
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
    """
    if mode not in F_MODES:
        raise ValueError(f"f_half: unknown f mode {mode!r}")
    p = np.array([term.exponent for term in forcing.terms])
    c = np.array([term.coefficient for term in forcing.terms])
    t0 = mesh.t[:-1, None]
    t1 = mesh.t[1:, None]
    if mode == "midpoint":
        tau = (0.5 * (t0 + t1)) ** p
    elif mode == "endpoint_average":
        if np.any(p < 0.0):
            raise ValueError(
                "f_half: endpoint_average undefined at t=0 for a singular forcing; "
                "use interval_average"
            )
        tau = 0.5 * (t0**p + t1**p)
    else:  # interval_average
        tau = (t1 ** (p + 1.0) - t0 ** (p + 1.0)) / ((p + 1.0) * mesh.k[:, None])
    profiles = np.array([term.profile(grid.x) for term in forcing.terms])
    # the reshape gives an empty forcing shape (0, J+1), so its sources are zero
    return c * tau, profiles.reshape(len(forcing.terms), grid.J + 1)
