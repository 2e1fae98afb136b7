"""Product-integration weights for the weakly singular memory integral.

The memory term is the Riemann-Liouville integral

    (I^alpha w)(t) = int_0^t beta(t - zeta) w(zeta) dzeta,
    beta(tau) = tau**(alpha-1) / Gamma(alpha),   0 < alpha < 1.

Averaging over the n-th mesh interval and replacing w by its piecewise
constant reconstruction (value W^1 on the first interval, the half-level
value W^{s-1/2} on interval s >= 2) gives the product-integration rule

    I^alpha W^{n-1/2} = w_{n1} W^1 k_1 + sum_{s=2}^{n} w_{ns} W^{s-1/2} k_s,

with weights

    w_ns = 1/(k_n k_s) * int_{t_{n-1}}^{t_n} int_{t_{s-1}}^{min(t, t_s)}
                beta(t - zeta) dzeta dt.

Both integrals are elementary, which yields the closed forms implemented in
`compute_weights`: for s < n

    w_ns = ( [ (t_n - t_{s-1})^{a} - (t_n - t_s)^{a} ]
           - [ (t_{n-1} - t_{s-1})^{a} - (t_{n-1} - t_s)^{a} ] )
           / (k_n k_s Gamma(alpha + 2)),        a = alpha + 1,

and on the diagonal w_nn = k_n**(alpha-1) / Gamma(alpha+2).  All weights
are strictly positive, and the bilinear form the rule induces on level
sequences is positive semidefinite (the kernel beta is of positive type
and the rule is exact on the reconstruction itself).  The closed form
subtracts nearly equal powers when k_s << t_n, so on strongly graded
meshes rounding can leave a weight nonpositive; `compute_weights` then
raises ValueError rather than return the table.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import TemporalMesh

__all__ = ["compute_weights"]


def compute_weights(mesh: TemporalMesh, alpha: float) -> np.ndarray:
    """Evaluate the product-integration weights in closed form.

    Returns the (N+1, N+1) table w with w[n, s] the weight for
    1 <= s <= n <= N; row and column 0 are unused, kept so the indices
    match the math, and every entry outside that triangle is zero.
    Requires 0 < alpha < 1.  Cost is O(N^2) with one vectorized sweep per
    row; no quadrature is involved.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"compute_weights: alpha must be in (0, 1), got {alpha}")

    t, k, N = mesh.t, mesh.k, mesh.N
    a = alpha + 1.0
    g2 = math.gamma(alpha + 2.0)

    w = np.zeros((N + 1, N + 1))
    for n in range(1, N + 1):
        if n >= 2:
            s = np.arange(1, n)
            upper = (t[n] - t[s - 1]) ** a - (t[n] - t[s]) ** a
            lower = (t[n - 1] - t[s - 1]) ** a - (t[n - 1] - t[s]) ** a
            w[n, 1:n] = (upper - lower) / (k[n - 1] * k[s - 1] * g2)
        w[n, n] = k[n - 1] ** (alpha - 1.0) / g2
        if not np.all(w[n, 1 : n + 1] > 0.0):
            raise ValueError(
                f"compute_weights: nonpositive weight in row {n} (smallest "
                f"{w[n, 1 : n + 1].min():.3e}); the closed form cancels on this mesh"
            )
    return w
