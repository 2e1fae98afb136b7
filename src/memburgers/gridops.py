"""Grid functions and the discrete spatial operators.

A grid function holds nodal values (v_0, ..., v_J) on a uniform grid.
Members of the homogeneous-Dirichlet solution space satisfy v_0 = v_J = 0;
the L2 norm sums over interior nodes only:

    ||w|| = sqrt(h * sum_{s=1}^{J-1} w_s^2).

The norm takes nodal values and h.  The two operators the time stepper
uses are valid at interior nodes: the second divided difference

    d2(w)_j = (w_{j+1} - 2 w_j + w_{j-1}) / h**2

and the skew-symmetric (Galerkin) convection form

    N(w)_j = mean3(w)_j * (w_{j+1} - w_{j-1}) / (2h)
           = (w_{j+1} - w_{j-1}) (w_{j-1} + w_j + w_{j+1}) / (6h),

where mean3(w)_j = (w_{j-1} + w_j + w_{j+1})/3.  It satisfies
<N(w), w> = 0 exactly, which is what the energy stability argument uses.

Their kernels take the three views left = w[:-2], mid = w[1:-1] and
right = w[2:] (w_{j-1}, w_j, w_{j+1} at j = 1..J-1) and write the J - 1
interior values into out (a view that overlaps none of them), which they
return; they write no end value and divide nowhere, so the caller folds
the constants into its own scalars:

  - second_diff_values writes scale * (w_{j+1} - 2 w_j + w_{j-1}), so
    scale = 1/h**2 gives d2(w); it sums (-2 w_j + w_{j+1}) + w_{j-1},
    which rounds exactly as (w_{j+1} - 2 w_j) + w_{j-1} does;
  - convection_values writes 6h N(w), the second line above without its
    1/(6h), and takes a temporary tmp of J - 1 values from the caller.

The time stepper builds the views and the temporary once per solve, so
its passes slice and allocate nothing.
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


def second_diff_values(
    left: np.ndarray, mid: np.ndarray, right: np.ndarray, scale: float, out: np.ndarray
) -> np.ndarray:
    np.multiply(mid, -2.0, out=out)
    out += right
    out += left
    out *= scale
    return out


def convection_values(
    left: np.ndarray, mid: np.ndarray, right: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    np.add(left, mid, out=out)
    out += right
    np.subtract(right, left, out=tmp)
    out *= tmp
    return out
