"""The grid operators on full-length arrays, through the package's kernels.

gridops' kernels take the views w[:-2], w[1:-1], w[2:] and write only the
interior, with the constants left to the caller (see gridops).  These
wrappers give the operators in the textbook form: nodal values and h in,
a new full-length array with zero ends out.
"""

import numpy as np

from memburgers.gridops import convection_values, second_diff_values


def second_diff(v: np.ndarray, h: float) -> np.ndarray:
    """d2(v) = (v_{j+1} - 2 v_j + v_{j-1}) / h^2, with zero ends."""
    out = np.zeros_like(v)
    second_diff_values(v[:-2], v[1:-1], v[2:], 1.0 / (h * h), out[1:-1])
    return out


def convection(v: np.ndarray, h: float) -> np.ndarray:
    """N(v) = (v_{j+1} - v_{j-1}) (v_{j-1} + v_j + v_{j+1}) / (6h), with zero ends."""
    out = np.zeros_like(v)
    convection_values(v[:-2], v[1:-1], v[2:], out[1:-1], np.empty(v.size - 2))
    out /= 6.0 * h
    return out
