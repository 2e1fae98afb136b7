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
and the rule is exact on the reconstruction itself).

The four powers of a weight are entries of one table

    P[m, s] = max(t_m - t_s, 0)**a,

and the numerator above is its mixed second difference
(P[n, s-1] - P[n, s]) - (P[n-1, s-1] - P[n-1, s]).  So `compute_weights`
builds the rows n0 <= n < n1 of the table from the rows n0-1..n1-1 of P:
one power per entry, where evaluating each weight on its own takes four.
`solve` asks for one block of _BLOCK rows at a time, which keeps only a
_BLOCK x n1 slice of the table alive; the full (N+1, N+1) table is
stacked from the same blocks.  The closed form subtracts nearly equal
powers when k_s << t_n, so on strongly graded meshes rounding can leave a
weight nonpositive; `compute_weights` then raises ValueError rather than
return the rows, as it does for a non-finite weight (levels so large that
their powers overflow).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .mesh import TemporalMesh

__all__ = ["compute_weights"]


_BLOCK = 128  # rows per weight block: the step block of solve's history sum


def compute_weights(
    mesh: TemporalMesh, alpha: float, rows: Optional[Tuple[int, int]] = None
) -> np.ndarray:
    """Evaluate the product-integration weights in closed form.

    Returns the (N+1, N+1) table w with w[n, s] the weight for
    1 <= s <= n <= N; row and column 0 are unused, kept so the indices
    match the math, and every entry outside that triangle is zero.  With
    rows = (n0, n1), 1 <= n0 < n1 <= N + 1, returns only w[n0:n1, :n1],
    bit for bit the same numbers.  Requires 0 < alpha < 1.  Cost is
    O(N^2), one power per entry; no quadrature is involved.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"compute_weights: alpha must be in (0, 1), got {alpha}")
    N = mesh.N
    if rows is not None:
        n0, n1 = rows
        if not 1 <= n0 < n1 <= N + 1:
            raise ValueError(
                f"compute_weights: rows must satisfy 1 <= n0 < n1 <= N + 1 = {N + 1}, got {rows}"
            )
        return _weight_rows(mesh, alpha, n0, n1)
    w = np.zeros((N + 1, N + 1))
    for n0 in range(1, N + 1, _BLOCK):
        n1 = min(n0 + _BLOCK, N + 1)
        w[n0:n1, :n1] = _weight_rows(mesh, alpha, n0, n1)
    return w


def _weight_rows(mesh: TemporalMesh, alpha: float, n0: int, n1: int) -> np.ndarray:
    """w[n0:n1, :n1] as the mixed second difference of P (module docstring).

    Works in place: at most P and one array of its size are alive at once.
    Raises ValueError at the first row holding a weight that is not
    positive and finite.
    """
    t, k = mesh.t, mesh.k
    g2 = math.gamma(alpha + 2.0)
    # huge levels overflow the powers; the row check below names the result
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.subtract.outer(t[n0 - 1 : n1], t[:n1])  # row i: level n0 - 1 + i
        np.maximum(p, 0.0, out=p)
        np.power(p, alpha + 1.0, out=p)
        q = np.empty_like(p)
        np.subtract(p[:, :-1], p[:, 1:], out=q[:, 1:])  # q[i, s] = P[i, s-1] - P[i, s]
        w = p[:-1]  # P's own rows are no longer needed
        w[:, 0] = 0.0
        np.subtract(q[1:, 1:], q[:-1, 1:], out=w[:, 1:])
        del q
        w[:, 1:] /= k[: n1 - 1]
        w /= (k[n0 - 1 : n1 - 1] * g2)[:, None]
        diagonal = k[n0 - 1 : n1 - 1] ** (alpha - 1.0) / g2
    near = w[:, n0:]  # columns n0..n1-1: square, with the diagonal on its own
    near[np.triu_indices(n1 - n0, 1)] = 0.0
    np.fill_diagonal(near, diagonal)

    ok = w > 0.0
    ok &= w < math.inf
    # row n holds n weights (columns 1..n); every other entry is zero
    bad = np.flatnonzero(np.count_nonzero(ok, axis=1) != np.arange(n0, n1))
    if bad.size:
        n = n0 + int(bad[0])
        row = w[n - n0, 1 : n + 1]
        if not np.all(np.isfinite(row)):
            raise ValueError(
                f"compute_weights: non-finite weight in row {n}; the powers of the "
                f"mesh levels overflow"
            )
        raise ValueError(
            f"compute_weights: nonpositive weight in row {n} (smallest "
            f"{row.min():.3e}); the closed form cancels on this mesh"
        )
    return w
