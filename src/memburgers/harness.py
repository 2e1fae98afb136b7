"""Convergence studies: run solves across refinement levels, tabulate rates.

A study fixes one axis (double N at fixed J, or double J at fixed N), runs
every (alpha, level) combination of its plan, and records per-level rows

    alpha, gamma, N, J, f_mode, error_l2, rate, wall_time_seconds, max_fp_iters

where error_l2 = ||U^N - u(., T)|| in the discrete L2 norm and the rate
log2(E_coarse / E_fine) is attached to the finer row (blank on the first
level of each alpha block).

The expected temporal order for grading exponent gamma and regularity
index sigma has three regimes:

    gamma < 2/sigma :  k**(gamma * sigma)
    gamma = 2/sigma :  k**2 * log(t_N / t_1)
    gamma > 2/sigma :  k**2

`expected_temporal_order` encodes this; a uniform mesh on a sigma = 1+alpha
problem therefore shows order 1+alpha, and grading at gamma = 2/sigma
restores (essentially) second order.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass, fields
from typing import Callable, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .gridops import GridFunction, norm_l2
from .mesh import build_graded_mesh, build_spatial_grid
from .problems import F_MODES, ManufacturedProblem, problem_by_name
from .scheme import SchemeConfig, solve

__all__ = [
    "CSV_HEADER",
    "ConvergenceRow",
    "StudyPlan",
    "OrderPrediction",
    "error_at_final_time",
    "observed_rate",
    "expected_temporal_order",
    "resolve_gamma",
    "run_study",
    "emit_csv",
    "dump_weights_csv",
    "dump_trajectory_csv",
]

GAMMA_RULES = ("2/(alpha+1)", "2/(alpha+2)", "auto-sigma")


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level of a study."""

    alpha: float
    gamma: float
    N: int
    J: int
    f_mode: str
    error_l2: float
    rate: Optional[float]
    wall_time_seconds: float
    max_fp_iters: int


CSV_HEADER = ",".join(f.name for f in fields(ConvergenceRow))


@dataclass(frozen=True)
class StudyPlan:
    """Declarative description of one convergence study.

    gamma_rule is a number (used as-is) or one of the strings
    "2/(alpha+1)", "2/(alpha+2)", "auto-sigma" (2/sigma for the problem's
    regularity index under f_mode); rules resolving below 1 clamp to the
    uniform mesh, which already meets the grading threshold there.
    axis "time" doubles N from base_n at fixed base_j; "space" doubles J.
    """

    problem: str
    alphas: Tuple[float, ...]
    gamma_rule: Union[float, str]
    axis: str
    base_n: int
    base_j: int
    levels: int
    f_mode: str = "endpoint_average"
    eps: float = 1e-6
    max_steps: int = 300
    t_final: float = 1.0
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.axis not in ("time", "space"):
            raise ValueError(f"StudyPlan: axis must be 'time' or 'space', got {self.axis!r}")
        if self.levels < 1:
            raise ValueError(f"StudyPlan: levels must be >= 1, got {self.levels}")
        if not self.alphas:
            raise ValueError("StudyPlan: need at least one alpha")
        if self.f_mode not in F_MODES:
            raise ValueError(f"StudyPlan: unknown f mode {self.f_mode!r}")
        if isinstance(self.gamma_rule, str) and self.gamma_rule not in GAMMA_RULES:
            raise ValueError(
                f"StudyPlan: gamma rule must be a number or one of {GAMMA_RULES}, "
                f"got {self.gamma_rule!r}"
            )


@dataclass(frozen=True)
class OrderPrediction:
    """Expected temporal order; log_factor marks the k^2 log(t_N/t_1) regime."""

    order: float
    regime: str  # "below_threshold" | "at_threshold" | "above_threshold"
    log_factor: bool


def error_at_final_time(
    u_final: GridFunction, problem: ManufacturedProblem, t_final: float
) -> float:
    """Discrete L2 distance between the computed final level and the exact solution."""
    exact = problem.exact(u_final.grid.x, t_final)
    return norm_l2(u_final.values - exact, u_final.grid.h)


def observed_rate(error_coarse: float, error_fine: float) -> float:
    """log2(E_coarse / E_fine) for a halved step; requires positive errors."""
    if not (error_coarse > 0.0 and error_fine > 0.0):
        raise ValueError(
            f"observed_rate: errors must be positive, got {error_coarse}, {error_fine}"
        )
    return math.log2(error_coarse / error_fine)


def expected_temporal_order(gamma: float, sigma: float) -> OrderPrediction:
    """Predicted temporal order for grading exponent gamma and index sigma."""
    if not gamma >= 1.0:
        raise ValueError(f"expected_temporal_order: gamma must be >= 1, got {gamma}")
    if not sigma > 0.0:
        raise ValueError(f"expected_temporal_order: sigma must be positive, got {sigma}")
    threshold = 2.0 / sigma
    if math.isclose(gamma, threshold, rel_tol=1e-9, abs_tol=0.0):
        return OrderPrediction(order=2.0, regime="at_threshold", log_factor=True)
    if gamma < threshold:
        return OrderPrediction(order=gamma * sigma, regime="below_threshold", log_factor=False)
    return OrderPrediction(order=2.0, regime="above_threshold", log_factor=False)


def resolve_gamma(
    rule: Union[float, str], problem: ManufacturedProblem, f_mode: str
) -> float:
    """Turn a plan/CLI gamma rule into a concrete grading exponent >= 1."""
    return gamma_from_rule(rule, problem.alpha, lambda: problem.sigma_for(f_mode))


def gamma_from_rule(
    rule: Union[float, str], alpha: float, sigma: Optional[Callable[[], float]] = None
) -> float:
    """Grading exponent >= 1 for a gamma rule at memory exponent alpha.

    auto-sigma takes 2/sigma(), the problem's regularity index, and is
    refused when no sigma is given.
    """
    if isinstance(rule, str):
        if rule == "2/(alpha+1)":
            value = 2.0 / (alpha + 1.0)
        elif rule == "2/(alpha+2)":
            value = 2.0 / (alpha + 2.0)
        elif rule == "auto-sigma":
            if sigma is None:
                raise ValueError("gamma rule auto-sigma needs a problem; give a number")
            value = 2.0 / sigma()
        else:
            raise ValueError(f"resolve_gamma: unknown rule {rule!r}")
    else:
        value = float(rule)
        if not value >= 1.0:
            raise ValueError(f"resolve_gamma: explicit gamma must be >= 1, got {value}")
    return max(1.0, value)


def run_study(plan: StudyPlan) -> List[ConvergenceRow]:
    """Run every (alpha, level) combination of the plan, in plan order.

    Solver nonconvergence propagates (the exception names the step); rows
    computed so far are lost, matching the all-or-nothing CSV contract.
    """
    rows: List[ConvergenceRow] = []
    for alpha in plan.alphas:
        problem = problem_by_name(plan.problem, alpha)
        gamma = resolve_gamma(plan.gamma_rule, problem, plan.f_mode)
        config = SchemeConfig(eps=plan.eps, max_steps=plan.max_steps, f_mode=plan.f_mode)
        prev_error: Optional[float] = None
        for level in range(plan.levels):
            n = plan.base_n * (2**level if plan.axis == "time" else 1)
            j = plan.base_j * (2**level if plan.axis == "space" else 1)
            mesh = build_graded_mesh(plan.t_final, n, gamma)
            grid = build_spatial_grid(plan.length, j)
            start = time.perf_counter()
            result = solve(problem, mesh, grid, alpha, config)
            wall = time.perf_counter() - start
            err = error_at_final_time(result.final, problem, plan.t_final)
            rate = observed_rate(prev_error, err) if prev_error is not None else None
            rows.append(
                ConvergenceRow(
                    alpha=alpha,
                    gamma=gamma,
                    N=n,
                    J=j,
                    f_mode=plan.f_mode,
                    error_l2=err,
                    rate=rate,
                    wall_time_seconds=wall,
                    max_fp_iters=result.max_fp_iterations,
                )
            )
            prev_error = err
    return rows


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: Sequence[ConvergenceRow], path: str) -> None:
    """Write rows under the header, one column per field; rate is blank where absent."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for row in rows:
            writer.writerow("" if value is None else _fmt(value) for value in astuple(row))


def dump_weights_csv(w: np.ndarray, stream: TextIO) -> None:
    """Write a compute_weights table's lower triangle as n,s,weight rows to an open text stream."""
    writer = csv.writer(stream)
    writer.writerow(["n", "s", "weight"])
    writer.writerows(
        [n, s, _fmt(float(w[n, s]))] for n in range(1, w.shape[0]) for s in range(1, n + 1)
    )


def dump_trajectory_csv(result, path: str) -> None:
    """Dump a kept trajectory as n,t,u_0..u_J rows."""
    if result.trajectory is None:
        raise ValueError("dump_trajectory_csv: solve was run without keep_trajectory")
    J = result.grid.J
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "t"] + [f"u_{j}" for j in range(J + 1)])
        for n, u in enumerate(result.trajectory):
            writer.writerow([n, _fmt(float(result.mesh.t[n]))] + [_fmt(float(v)) for v in u])
