"""Independent oracle implementations used to pin expected values.

Everything here deliberately avoids the package's own closed forms and
vectorized assembly: weights come from nested adaptive quadrature of the
defining double integral, trajectories from dense nonlinear solves with
loop-built operators, the PDE residual from finite-difference
derivatives of the exact solution plus adaptive quadrature of the memory
integral, and per-step sources from pointwise evaluation of the forcing
at each step, one branch per f mode.  The undivided difference and shift
operators

    delta_c w_j = w_{j+1} - w_{j-1}           (wide centered gap)
    delta_f w_j = w_{j+1} - w_j               shift_f w_j = w_{j+1}
    delta_b w_j = w_j - w_{j-1}               shift_b w_j = w_{j-1}

and the staggered difference (w_{j+1} - w_j)/h at the half nodes are the
reference operators of the summation-by-parts identity tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import root

from memburgers.problems import F_MODES
from memburgers.quadrature import compute_weights


def delta_c(v: np.ndarray) -> np.ndarray:
    """Wide centered gap w_{j+1} - w_{j-1} (zero at the boundary slots)."""
    out = np.zeros_like(v)
    out[1:-1] = v[2:] - v[:-2]
    return out


def delta_f(v: np.ndarray) -> np.ndarray:
    """Forward gap w_{j+1} - w_j (zero in the last slot)."""
    out = np.zeros_like(v)
    out[:-1] = v[1:] - v[:-1]
    return out


def delta_b(v: np.ndarray) -> np.ndarray:
    """Backward gap w_j - w_{j-1} (zero in the first slot)."""
    out = np.zeros_like(v)
    out[1:] = v[1:] - v[:-1]
    return out


def shift_f(v: np.ndarray) -> np.ndarray:
    """Forward shift w_{j+1} (zero in the last slot)."""
    out = np.zeros_like(v)
    out[:-1] = v[1:]
    return out


def shift_b(v: np.ndarray) -> np.ndarray:
    """Backward shift w_{j-1} (zero in the first slot)."""
    out = np.zeros_like(v)
    out[1:] = v[:-1]
    return out


def staggered_diff(v: np.ndarray, h: float) -> np.ndarray:
    """Divided forward differences (w_{j+1} - w_j)/h at the J half nodes."""
    return (v[1:] - v[:-1]) / h


def forcing_value(forcing, x, t: float) -> np.ndarray:
    """Pointwise value f(x, t) of a separable forcing; t = 0 requires all exponents >= 0."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"forcing_value: t must be >= 0, got {t}")
    if t == 0.0 and any(term.exponent < 0.0 for term in forcing.terms):
        raise ValueError("forcing_value: singular term, f(x, 0) undefined")
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for term in forcing.terms:
        acc += term.coefficient * t**term.exponent * term.profile(x)
    return acc


def f_half_reference(forcing, mesh, n: int, mode: str, grid) -> np.ndarray:
    """Source f^{n-1/2} of step n (1-based) on the grid, evaluated on its own.

    midpoint and endpoint_average evaluate the forcing pointwise (so
    endpoint_average at n = 1 raises for a singular forcing);
    interval_average integrates each t**p term in closed form.
    """
    if mode not in F_MODES:
        raise ValueError(f"f_half_reference: unknown f mode {mode!r}")
    t0 = float(mesh.t[n - 1])
    t1 = float(mesh.t[n])
    kn = float(mesh.k[n - 1])
    x = grid.x
    if mode == "midpoint":
        return forcing_value(forcing, x, 0.5 * (t0 + t1))
    if mode == "endpoint_average":
        return 0.5 * (forcing_value(forcing, x, t0) + forcing_value(forcing, x, t1))
    values = np.zeros_like(x)
    for term in forcing.terms:
        p1 = term.exponent + 1.0
        avg = (t1**p1 - t0**p1) / (p1 * kn)
        values += term.coefficient * avg * term.profile(x)
    return values


def gamma_by_integral(q: float) -> float:
    """Euler integral for Gamma(q), evaluated with mpmath at 40 digits.

    On [0, 1] the substitution s = u**(1/q) absorbs the s**(q-1) endpoint
    singularity exactly (the integrand becomes exp(-u**(1/q))/q), so both
    pieces are smooth and tanh-sinh quadrature reaches machine precision
    for q well below 1.
    """
    import mpmath as mp

    with mp.workdps(40):
        qm = mp.mpf(q)
        head = mp.quad(lambda u: mp.e ** (-(u ** (1 / qm))) / qm, [0, 1])
        tail = mp.quad(lambda s: s ** (qm - 1) * mp.e ** (-s), [1, mp.inf])
        return float(head + tail)


def weight_by_quadrature(t: np.ndarray, n: int, s: int, alpha: float) -> float:
    """Nested adaptive quadrature of the defining double integral

        w_ns = 1/(k_n k_s) int_{t_{n-1}}^{t_n} int_{t_{s-1}}^{min(t,t_s)}
                    (t - z)**(alpha-1)/Gamma(alpha) dz dt.

    The inner integral uses a QAWS algebraic weight when its upper limit
    hits the kernel singularity z = t (the s = n diagonal), and plain
    adaptive quadrature otherwise.
    """
    ga = math.gamma(alpha)
    lo, hi_s = float(t[s - 1]), float(t[s])

    def inner(tt: float) -> float:
        hi = min(tt, hi_s)
        if hi <= lo:
            return 0.0
        if hi == tt:
            val, _ = quad(lambda z: 1.0, lo, tt, weight="alg", wvar=(0.0, alpha - 1.0))
        else:
            val, _ = quad(lambda z: (tt - z) ** (alpha - 1.0), lo, hi, limit=400)
        return val / ga

    outer, _ = quad(inner, float(t[n - 1]), float(t[n]), limit=400, epsabs=1e-14, epsrel=1e-13)
    kn = float(t[n] - t[n - 1])
    ks = float(t[s] - t[s - 1])
    return outer / (kn * ks)


def memory_integral_quadrature(fn, alpha: float, t: float) -> float:
    """Adaptive quadrature of int_0^t (t-z)**(alpha-1)/Gamma(alpha) fn(z) dz."""
    val, _ = quad(fn, 0.0, t, weight="alg", wvar=(0.0, alpha - 1.0), limit=400)
    return val / math.gamma(alpha)


def pde_residual(problem, x: float, t: float, alpha: float) -> float:
    """u_t + u u_x - I^alpha(u_xx) - f at one point, all derivatives numeric.

    Fourth-order stencils in x and the QAWS memory quadrature keep the
    oracle noise near 1e-9, three orders below the 1e-6 test tolerance.
    """
    ex = problem.exact
    dt = 1e-5
    dx = 1e-3
    u_t = (ex(x, t + dt) - ex(x, t - dt)) / (2.0 * dt)
    u_x = (-ex(x + 2 * dx, t) + 8 * ex(x + dx, t) - 8 * ex(x - dx, t) + ex(x - 2 * dx, t)) / (
        12.0 * dx
    )
    u = float(ex(x, t))

    def uxx(z: float) -> float:
        return float(
            (
                -ex(x + 2 * dx, z)
                + 16 * ex(x + dx, z)
                - 30 * ex(x, z)
                + 16 * ex(x - dx, z)
                - ex(x - 2 * dx, z)
            )
            / (12.0 * dx * dx)
        )

    mem = memory_integral_quadrature(uxx, alpha, t)
    f = float(forcing_value(problem.forcing, np.array([x]), t)[0])
    return float(u_t) + u * float(u_x) - mem - f


def _root_found(sol) -> bool:
    """hybr's own test bounds the step, not the residual: with one unknown it
    can stop "not making good progress" at a root whose residual is already
    at rounding level (4.4e-16 seen).  Such a root counts as found."""
    return bool(sol.success) or float(np.max(np.abs(sol.fun))) <= 1e-12


def dense_trajectory(problem, mesh, grid, alpha: float, f_mode: str) -> list:
    """Solve every per-step nonlinear system densely and exactly.

    Uses the same weights as the scheme (oracle-checked on their own) and
    the per-step sources of f_half_reference, but assembles operators with
    explicit loops, evaluates convection as mean3 * centered difference,
    and solves each step with a dense hybrid-Powell root find instead of
    the fixed-point iteration.  Returns the levels [U^0, ..., U^N] as arrays.
    """
    w = compute_weights(mesh, alpha)
    J, h = grid.J, grid.h
    k = mesh.k

    def conv(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for j in range(1, J):
            mean3 = (v[j - 1] + v[j] + v[j + 1]) / 3.0
            centered = (v[j + 1] - v[j - 1]) / (2.0 * h)
            out[j] = mean3 * centered
        return out

    def d2(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for j in range(1, J):
            out[j] = (v[j + 1] - 2.0 * v[j] + v[j - 1]) / (h * h)
        return out

    u0 = np.zeros(J + 1)
    u0[1:-1] = problem.u0(grid.x[1:-1])
    levels = [u0]
    d_store = {}
    u_prev = u0

    for n in range(1, mesh.N + 1):
        f = f_half_reference(problem.forcing, mesh, n, f_mode, grid)
        if n == 1:

            def residual(ui: np.ndarray) -> np.ndarray:
                u = np.zeros(J + 1)
                u[1:-1] = ui
                r = (u - u0) / k[0] + conv(u) - w[1, 1] * k[0] * d2(u) - f
                return r[1:-1]

            sol = root(residual, u0[1:-1], method="hybr", tol=1e-13)
            assert _root_found(sol), f"oracle root find failed at step 1: {sol.message}"
            u1 = np.zeros(J + 1)
            u1[1:-1] = sol.x
            d_store[1] = d2(u1)
            u_prev = u1
            levels.append(u1)
        else:
            history = np.zeros(J + 1)
            for s in range(1, n):
                history += w[n, s] * k[s - 1] * d_store[s]

            def residual(vi: np.ndarray) -> np.ndarray:
                v = np.zeros(J + 1)
                v[1:-1] = vi
                r = (
                    2.0 * (v - u_prev) / k[n - 1]
                    + conv(v)
                    - w[n, n] * k[n - 1] * d2(v)
                    - history
                    - f
                )
                return r[1:-1]

            sol = root(residual, u_prev[1:-1], method="hybr", tol=1e-13)
            assert _root_found(sol), f"oracle root find failed at step {n}: {sol.message}"
            v = np.zeros(J + 1)
            v[1:-1] = sol.x
            d_store[n] = d2(v)
            u_prev = 2.0 * v - u_prev
            levels.append(u_prev)

    return levels
