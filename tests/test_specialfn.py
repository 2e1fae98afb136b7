"""Accuracy of the stdlib Gamma function, which the weights and the
manufactured problems call directly and need to 1e-13 relative."""

import math
from math import gamma

import numpy as np
import pytest

from oracles import gamma_by_integral

# frozen from the Euler-integral oracle at 30 digits: 1.32934038817913702047...
GAMMA_2P5 = 1.3293403881791370


def test_known_point_against_frozen_oracle_value():
    assert abs(gamma(2.5) - GAMMA_2P5) <= 1e-13 * GAMMA_2P5


@pytest.mark.parametrize("q", [0.3, 0.5, 1.0, 1.5, 2.5, 3.7])
def test_matches_integral_oracle(q):
    ref = gamma_by_integral(q)
    assert abs(gamma(q) - ref) <= 1e-13 * abs(ref)


def test_trivial_integer_values():
    assert gamma(1.0) == 1.0
    assert gamma(2.0) == 1.0
    assert abs(gamma(3.0) - 2.0) <= 1e-14
    assert abs(gamma(4.0) - 6.0) <= 1e-13


def test_half_integer_value():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-14


def test_recurrence_property():
    # Gamma(q+1) = q Gamma(q) across the domain the solver actually uses
    rng = np.random.default_rng(20240817)
    for q in rng.uniform(0.05, 3.0, size=100):
        lhs = gamma(q + 1.0)
        rhs = q * gamma(q)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs), f"recurrence broken at q={q}"
