"""Grid functions and the discrete spatial operators.

A grid function holds nodal values (v_0, ..., v_J) on a uniform grid.
Members of the homogeneous-Dirichlet solution space satisfy v_0 = v_J = 0;
the L2 norm sums over interior nodes only:

    ||w|| = sqrt(h * sum_{s=1}^{J-1} w_s^2).

The norm and the two operators the time stepper uses are array kernels
that take nodal values and h.  The operators are valid at interior nodes
and return full-length arrays with zero boundary entries: the second
divided difference

    d2(w)_j = (w_{j+1} - 2 w_j + w_{j-1}) / h**2

and the skew-symmetric (Galerkin) convection form

    N(w)_j = mean3(w)_j * (w_{j+1} - w_{j-1}) / (2h)
           = (1/(6h)) * ( w_j (w_{j+1} - w_{j-1}) + w_{j+1}^2 - w_{j-1}^2 ),

where mean3(w)_j = (w_{j-1} + w_j + w_{j+1})/3.  It satisfies
<N(w), w> = 0 exactly, which is what the energy stability argument uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import SpatialGrid

__all__ = ["GridFunction", "norm_l2", "second_diff_values", "convection_values"]


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal values on a SpatialGrid; treated as an immutable value."""

    grid: SpatialGrid
    values: np.ndarray  # shape (J+1,)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.J + 1,):
            raise ValueError(
                f"GridFunction: expected {self.grid.J + 1} values, got shape {v.shape}"
            )
        object.__setattr__(self, "values", v)


def norm_l2(values: np.ndarray, h: float) -> float:
    v = values[1:-1]
    return float(np.sqrt(h * np.dot(v, v)))


def second_diff_values(v: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    return out


def convection_values(v: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(v)
    gap = v[2:] - v[:-2]
    sqgap = v[2:] ** 2 - v[:-2] ** 2
    out[1:-1] = (v[1:-1] * gap + sqgap) / (6.0 * h)
    return out
