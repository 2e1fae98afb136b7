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
           = (w_{j+1} - w_{j-1}) (w_{j-1} + w_j + w_{j+1}) / (6h),

where mean3(w)_j = (w_{j-1} + w_j + w_{j+1})/3.  It satisfies
<N(w), w> = 0 exactly, which is what the energy stability argument uses.
convection_values evaluates the second, factored line.  Both operators
write into out (an array of v's shape that does not overlap v) and return
it, so the time stepper's passes allocate no full-length array;
second_diff_values takes no temporary, convection_values one of J - 1
values.  second_diff_values sums (-2 w_j + w_{j+1}) + w_{j-1}, which
rounds exactly as (w_{j+1} - 2 w_j) + w_{j-1} does.
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


def second_diff_values(v: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    out[0] = out[-1] = 0.0
    inner = out[1:-1]
    np.multiply(v[1:-1], -2.0, out=inner)
    inner += v[2:]
    inner += v[:-2]
    inner /= h * h
    return out


def convection_values(v: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    out[0] = out[-1] = 0.0
    inner = out[1:-1]
    np.add(v[:-2], v[1:-1], out=inner)
    inner += v[2:]
    inner *= v[2:] - v[:-2]
    inner /= 6.0 * h
    return out
