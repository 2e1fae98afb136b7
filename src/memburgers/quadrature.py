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
`solve` asks for one block of _BLOCK rows at a time, and only for the
columns of the block before it (its exact window, see scheme) and its
own; the full (N+1, N+1) table stacks the same blocks.  Every power is
of a time difference, so on levels t = T tau, w_ns(t) = T**(alpha-1)
w_ns(tau): the powers are taken on [0, 1], of the levels and steps
divided by T, and T**(alpha-1) goes into the divisor (at T = 1 both are
exact no-ops), so no T overflows a power.  The closed form subtracts
nearly equal powers when k_s << t_n, so on strongly graded meshes
rounding can leave a weight nonpositive; `compute_weights` then raises
ValueError rather than return the rows, as it does for a non-finite
weight (beyond the float range) and for steps so small against T that
their powers underflow (are subnormal or 0).

Pairs (n, s) older than the window go through a sum of exponentials
(SOE) instead (the fast convolution of Jiang, Zhang, Zhang & Zhang,
Commun. Comput. Phys. 21, 2017).  The kernel is the Laplace integral

    beta(tau) = (sin(pi alpha)/pi) int_0^inf s**(-alpha) exp(-s tau) ds,

and `_soe_modes` discretizes it for tau in [delta, T]: Gauss-Jacobi with
weight s**(-alpha) on [0, 1/T], then Gauss-Legendre on dyadic panels up
to 45/delta, 10 nodes each, so beta(tau) = sum_j omega_j exp(-lam_j tau)
to about 1e-15 relative.  Those are many more modes than the fit needs
(160 on the benchmark's long_history mesh).  `_soe_gauss` keeps fewer:
the r-point Gauss rule of the positive discrete measure
sum_j omega_j delta(x - log lam_j) (Golub & Meurant, Matrices, Moments and
Quadrature with Applications, 2010), from a Lanczos run on diag(log lam),
with the smallest r whose fit is 1e-14 (62 modes there, and 35 and 38 on
the singular_study levels N = 256 and 512, where an 8-node base had 128,
72 and 80).  A Gauss rule of a positive measure has positive weights and
its nodes inside the measure's range, so the tail kernel stays a positive
sum of decaying exponentials.  It costs 1-3 ms per solve.  Putting the
modes into the double integral that defines w_ns (its smallest lag is
t_{n-1} - t_s >= delta) gives

    w_ns = sum_j omega_j F_j(k_n, 0) F_j(k_s, t_{n-1} - t_s),
    F_j(k, lag) = -expm1(-lam_j k) / (lam_j k) * exp(-lam_j lag),

the factors `_soe_factors` builds.  Every F lies in [0, 1], so nothing
overflows, and these weights do not cancel; an F is 0 only where
exp(-lam_j lag) underflows (lam_j lag > 745), its correct rounding.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .mesh import TemporalMesh

__all__ = ["compute_weights"]


_BLOCK = 64  # rows per weight block: the step block of solve's history sum, and its window
_SOE_NODES = 10  # Gauss-Jacobi nodes on [0, 1/T], and Gauss-Legendre nodes per dyadic panel
_SOE_CUTOFF = 45.0  # the panels end at 45/delta, where exp(-s delta) < 3e-20


def compute_weights(
    mesh: TemporalMesh,
    alpha: float,
    rows: Optional[Tuple[int, int]] = None,
    first_col: int = 1,
) -> np.ndarray:
    """Evaluate the product-integration weights in closed form.

    Returns the (N+1, N+1) table w with w[n, s] the weight for
    1 <= s <= n <= N; row and column 0 are unused, kept so the indices
    match the math, and every entry outside that triangle is zero.  With
    rows = (n0, n1), 1 <= n0 < n1 <= N + 1, returns only w[n0:n1, c0:n1],
    c0 = first_col with 1 <= c0 <= n0, bit for bit the same numbers;
    without rows, first_col must be 1.
    Requires 0 < alpha < 1.  Cost is O(N^2), one power per entry; no
    quadrature is involved.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"compute_weights: alpha must be in (0, 1), got {alpha}")
    N = mesh.N
    n0, n1 = (1, N + 1) if rows is None else rows  # no rows: n0 = 1 admits only first_col = 1
    if rows is not None and not 1 <= n0 < n1 <= N + 1:
        raise ValueError(
            f"compute_weights: rows must satisfy 1 <= n0 < n1 <= N + 1 = {N + 1}, got {rows}"
        )
    if not 1 <= first_col <= n0:
        raise ValueError(
            f"compute_weights: first_col must satisfy 1 <= first_col <= n0 = {n0}, "
            f"got {first_col}"
        )
    if rows is not None:
        return _weight_rows(mesh, alpha, n0, n1, first_col)
    w = np.zeros((N + 1, N + 1))
    for n0 in range(1, N + 1, _BLOCK):
        n1 = min(n0 + _BLOCK, N + 1)
        w[n0:n1, 1:n1] = _weight_rows(mesh, alpha, n0, n1, 1)
    return w


def _weight_rows(mesh: TemporalMesh, alpha: float, n0: int, n1: int, c0: int) -> np.ndarray:
    """w[n0:n1, c0:n1], c0 >= 1, from the table P on [0, 1] (module docstring).

    Works in place: at most P and one array of its size are alive at once.
    Raises ValueError if the powers of the columns' steps underflow, and at
    the first row holding a weight, among the columns returned, that is not
    positive and finite.
    """
    t = mesh.t[c0 - 1 : n1] / mesh.T  # levels c0-1..n1-1, the rows' from t[n0 - c0]
    k = mesh.k[c0 - 1 : n1 - 1] / mesh.T  # the columns' steps, the rows' kn from k[n0 - c0]
    kn = k[n0 - c0 :]
    g2 = math.gamma(alpha + 2.0) * mesh.T ** (1.0 - alpha)  # T**(1-alpha) lies between T and 1
    # a weight beyond the float range overflows; the row check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        smallest = np.min(k) ** (alpha + 1.0)
        if smallest < np.finfo(float).tiny:
            raise ValueError(f"compute_weights: the powers of the mesh steps underflow in rows "
                             f"{n0}..{n1 - 1} (smallest {smallest:.3e}), so the weights would be wrong")
        # p[i, j] = P[n0 - 1 + i, c0 - 1 + j]; weight column s needs P's columns s-1 and s
        p = np.subtract.outer(t[n0 - c0 :], t)
        np.maximum(p, 0.0, out=p)
        np.power(p, alpha + 1.0, out=p)
        q = p[:, :-1] - p[:, 1:]  # q[i, j] = P[., s-1] - P[., s], s = c0 + j
        w = p[:-1, 1:]  # P's own rows are no longer needed; column j: s = c0 + j
        np.subtract(q[1:], q[:-1], out=w)
        del q
        w /= k
        w /= (kn * g2)[:, None]
        diagonal = kn ** (alpha - 1.0) / g2
    np.fill_diagonal(w[:, n0 - c0 :], diagonal)  # columns n0..n1-1: square

    ok = w > 0.0
    ok &= w < math.inf
    # row n holds the weights of columns c0..n; every other entry is zero
    bad = np.flatnonzero(np.count_nonzero(ok, axis=1) != np.arange(n0, n1) - c0 + 1)
    if bad.size:
        n = n0 + int(bad[0])
        row = w[n - n0, : n - c0 + 1]
        if not np.all(np.isfinite(row)):
            raise ValueError(f"compute_weights: non-finite weight in row {n}; beyond the float range")
        raise ValueError(f"compute_weights: nonpositive weight in row {n} (smallest "
                         f"{row.min():.3e}); the closed form cancels on this mesh")
    return w


def _soe_modes(alpha: float, T: float, delta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Rates lam and weights omega with sum_j omega_j exp(-lam_j tau) = beta(tau)
    to about 1e-15 relative for delta <= tau <= T (module docstring).

    The Gauss-Jacobi rule for the weight x**(-alpha) on [0, 1] (Golub-Welsch,
    from the shifted Jacobi recurrence, its nodes polished by two Newton
    steps on that recurrence and its weights 1 / sum_k p_k(x)**2 taken at
    them) is scaled to [0, 1/T]; dyadic Gauss-Legendre panels cover
    [1/T, 45/delta].  All rates and weights are positive.
    """
    q = _SOE_NODES
    b = -alpha  # the Jacobi weight (1 - y)^0 (1 + y)^b on [-1, 1], then y = 2x - 1
    m = np.arange(1.0, q)
    s = 2.0 * m + b
    diag = np.empty(q)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / (s * (s + 2.0))
    off = 2.0 * m * (m + b) / s * np.sqrt(1.0 / ((s + 1.0) * (s - 1.0)))
    # the Jacobi matrix on [0, 1], dense (q rows); eigvalsh reads its lower triangle
    a, c = 0.5 * (1.0 + diag), np.concatenate([[0.0], 0.5 * off, [1.0]])
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(c[1:-1], -1))
    # the orthonormal p_{i+1} = ((x - a_i) p_i - c_i p_{i-1}) / c_{i+1}, p_0 = 1, and
    # its derivative; eigvalsh leaves the smallest node up to 1e-13 relative off
    for _ in range(2):  # two Newton steps on p_q(x) = 0; the weights at the second's x
        p0, p, d0, d, norm = 0.0, 1.0, 0.0, 0.0, 0.0
        for i in range(q):
            norm = norm + p * p  # sum of p_k(x)**2, k < q
            u = x - a[i]
            p0, p = p, (u * p - c[i] * p0) / c[i + 1]
            d0, d = d, (u * d + p0 - c[i] * d0) / c[i + 1]
        x = x - p / d

    g, gw = np.polynomial.legendre.leggauss(q)
    # in logs, so that no ratio of extreme T and delta overflows
    panels = max(1, math.ceil(math.log2(_SOE_CUTOFF) + math.log2(T) - math.log2(delta)))
    lo = np.ldexp(1.0, np.arange(panels))[:, None] / T  # panel [lo, 2 lo]
    nodes = lo * (1.5 + 0.5 * g)
    lam = np.concatenate([x / T, nodes.ravel()])
    omega = np.concatenate([
        1.0 / (norm * (1.0 - alpha)) * T ** (alpha - 1.0),
        (0.5 * lo * gw * nodes ** -alpha).ravel(),
    ])
    return lam, math.sin(math.pi * alpha) / math.pi * omega


def _soe_gauss(
    lam: np.ndarray, omega: np.ndarray, alpha: float, T: float, delta: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Fewer modes for the same kernel: the r-point Gauss rule of the positive
    measure sum_j omega_j delta(x - log lam_j) (module docstring).

    r is the smallest count whose largest relative fit error on 100
    log-spaced tau in [delta, T] is at most 1e-14, but at most the count of
    an 8-node base (8 rates per panel and 8 on [0, 1/T]), which r takes
    where no smaller r meets that target.  The rules of every r come from
    one Lanczos run on diag(log lam) from sqrt(omega), fully
    reorthogonalized: eigh turns its r x r Jacobi matrix into r nodes,
    clipped into [lam_min, lam_max], and r positive weights.  The log of
    the error falls about linearly in r, so r is searched by interpolation
    in it from a first guess, with bisection steps where that stalls.
    The temporaries, mostly
    the Lanczos vectors (r of them, lam.size long), are freed on return.
    """
    x = np.log(lam)  # lam is ascending: the Gauss-Jacobi rates, then the panels'
    total = float(np.sum(omega))
    tau = np.geomspace(delta, T, 100)
    kernel = tau ** (alpha - 1.0) / math.gamma(alpha)
    basis = np.sqrt(omega / total)[None, :]  # row i: the i-th Lanczos vector
    diag, off = [], []  # the Jacobi matrix, as far as the Lanczos run has gone
    v = basis[0]  # the residual of the last step: off[-1] times the next vector

    def rule(r: int) -> Tuple[np.ndarray, np.ndarray, float]:
        nonlocal basis, v
        if basis.shape[0] < r:  # room for r vectors, grown only past the first probe
            grown = np.empty((r, x.size))
            grown[: basis.shape[0]] = basis
            basis = grown
        for i in range(len(diag), r):
            if i:
                np.divide(v, off[-1], out=basis[i])
            done = basis[: i + 1]
            v = x * basis[i]
            c = done @ v
            diag.append(float(c[i]))  # the Rayleigh quotient of vector i
            v -= c @ done
            v -= (done @ v) @ done  # twice is enough (Kahan, Parlett)
            off.append(math.sqrt(float(v @ v)))
        jacobi = np.diag(diag[:r])
        jacobi.ravel()[r :: r + 1] = off[: r - 1]  # the subdiagonal; eigh reads the lower triangle
        nodes, vectors = np.linalg.eigh(jacobi)
        weights = total * vectors[0] ** 2
        del jacobi, vectors
        rates = np.clip(np.exp(nodes), lam[0], lam[-1])
        # the exponents -tau_i rates_j as a product: a broadcast ufunc would
        # take two buffers of the product's size
        fit = tau[:, None] @ -rates[None, :]
        fit = np.exp(fit, out=fit) @ weights
        error = float(np.max(np.abs(fit / kernel - 1.0)))
        return rates, weights, max(error, 1e-300)  # the search takes its log

    # r = lo misses the target, r = hi is taken; the empty rule r = 0 misses by 1.  The
    # first guess is what the benchmark meshes need, 0.38-0.39 of the base's modes
    lo, hi = 0, lam.size // _SOE_NODES * 8
    errors, stalled, found = {0: 1.0}, 0, None
    r = min(round(0.39 * lam.size), hi - 1)
    while True:
        rates, weights, errors[r] = rule(r)
        if errors[r] <= 1e-14:
            hi, found = r, (rates, weights)
            stalled += 1  # hi may creep down a step at a time
        else:
            lo, stalled = r, 0
        if hi - lo <= 1:
            return found if found is not None else rule(hi)[:2]
        # the line through lo's and hi's log errors, or, before hi has one,
        # through r = 0's and lo's
        base = lo if hi in errors else 0
        top = hi if hi in errors else lo
        if stalled >= 3 or errors[top] >= errors[base]:
            r = (lo + hi) // 2
        else:  # where that line reaches 1e-14
            step = math.log(errors[base] / 1e-14) / math.log(errors[base] / errors[top])
            r = min(max(base + round((top - base) * step), lo + 1), hi - 1)


def _soe_factors(lam: np.ndarray, k: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """F[i, j] = -expm1(-lam_j k_i) / (lam_j k_i) * exp(-lam_j lag_i), each in [0, 1]:
    the factor of one interval of length k_i whose end lies lag_i >= 0 before
    the reference time (module docstring)."""
    x = np.multiply.outer(k, lam)
    f = np.expm1(-x)
    f /= -x
    f *= np.exp(-np.multiply.outer(lag, lam))
    return f
