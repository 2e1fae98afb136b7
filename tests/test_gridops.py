"""Grid-function algebra: the norm, the difference kernels, the
skew-symmetric convection form, and the summation-by-parts identities the
energy estimates depend on."""

from math import pi

import numpy as np
import pytest

from memburgers.gridops import GridFunction, convection_values, norm_l2, second_diff_values
from memburgers.mesh import build_spatial_grid

from oracles import delta_b, delta_c, delta_f, shift_b, shift_f, staggered_diff

SQRT_3_4 = 0.8660254037844386  # frozen: sqrt(0.75)


def _pair(rng, J, L=1.0):
    g = build_spatial_grid(L, J)
    wv = rng.normal(size=J + 1)
    vv = rng.normal(size=J + 1)
    wv[0] = wv[-1] = 0.0
    vv[0] = vv[-1] = 0.0
    return g, wv, vv


def _ip(h, a, b):
    return h * float(np.dot(a[1:-1], b[1:-1]))


def test_inner_product_and_norm_interior_only():
    g = build_spatial_grid(1.0, 4)
    ones = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    assert norm_l2(ones, g.h) == pytest.approx(SQRT_3_4, rel=1e-15)
    # boundary values must not contribute
    dirty = np.array([5.0, 1.0, 1.0, 1.0, -7.0])
    assert norm_l2(dirty, g.h) == pytest.approx(SQRT_3_4, rel=1e-15)


def test_second_difference_hand_values():
    h = 0.25  # 1/h^2 = 16
    d2 = second_diff_values(np.array([0.0, 1.0, 2.0, 1.0, 0.0]), h)
    assert np.allclose(d2, [0.0, 0.0, -32.0, 0.0, 0.0], atol=1e-12)


def test_convection_hand_values():
    h = 0.25  # 1/(6h) = 2/3
    nw = convection_values(np.array([0.0, 1.0, 2.0, 1.0, 0.0]), h)
    assert np.allclose(nw, [0.0, 4.0, 0.0, -4.0, 0.0], atol=1e-12)


def test_convection_equals_mean3_times_centered():
    rng = np.random.default_rng(314)
    for _ in range(50):
        J = int(rng.integers(4, 80))
        g, wv, _ = _pair(rng, J)
        mean3 = (wv[:-2] + wv[1:-1] + wv[2:]) / 3.0
        centered = (wv[2:] - wv[:-2]) / (2.0 * g.h)
        expected = np.zeros_like(wv)
        expected[1:-1] = mean3 * centered
        got = convection_values(wv, g.h)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_convection_skew_symmetry():
    # <N(w), w> = 0 for every w in the zero-boundary space
    rng = np.random.default_rng(2718)
    for _ in range(500):
        J = int(rng.integers(4, 129))
        g, wv, _ = _pair(rng, J)
        nw = convection_values(wv, g.h)
        assert abs(_ip(g.h, nw, wv)) <= 1e-12 * (1.0 + norm_l2(nw, g.h) * norm_l2(wv, g.h))


def test_summation_by_parts_identities():
    # the six discrete identities behind the energy estimates, checked on
    # random zero-boundary pairs; all are exact up to roundoff
    rng = np.random.default_rng(99)
    for _ in range(500):
        J = int(rng.integers(4, 65))
        g, wv, vv = _pair(rng, J)
        h = g.h

        def close(lhs, rhs):
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))

        # (a) <d2 w, v> = -h sum_j stag(w)_{j-1/2} stag(v)_{j-1/2}
        close(
            _ip(h, second_diff_values(wv, h), vv),
            -h * float(np.dot(staggered_diff(wv, h), staggered_diff(vv, h))),
        )
        # (b) <dc(wv), v> = 1/2 <T+ v df w + T- v db w, v>
        close(
            _ip(h, delta_c(wv * vv), vv),
            0.5 * _ip(h, shift_f(vv) * delta_f(wv) + shift_b(vv) * delta_b(wv), vv),
        )
        # (c) <w dc v + dc(wv), v> = 0
        close(_ip(h, wv * delta_c(vv) + delta_c(wv * vv), vv), 0.0)
        # (d) <w dc w, v> + <dc(wv), w> = 0
        close(_ip(h, wv * delta_c(wv), vv) + _ip(h, delta_c(wv * vv), wv), 0.0)
        # (e) <w dc v, w> + <dc(w^2), v> = 0
        close(_ip(h, wv * delta_c(vv), wv) + _ip(h, delta_c(wv * wv), vv), 0.0)
        # (f) error-equation rearrangement with e = v - w
        e = vv - wv
        close(
            _ip(h, vv * delta_c(e) + e * delta_c(wv) + delta_c(e * (vv + wv)), e),
            _ip(h, e * delta_c(wv) + delta_c(wv * e), e),
        )


def _operator_error(J, op, exact_fn):
    g = build_spatial_grid(1.0, J)
    err = op(np.sin(pi * g.x), g.h)[1:-1] - exact_fn(g.x)[1:-1]
    return float(np.sqrt(g.h * np.dot(err, err)))


def test_second_difference_is_second_order():
    exact = lambda x: -pi * pi * np.sin(pi * x)
    e_coarse = _operator_error(128, second_diff_values, exact)
    e_fine = _operator_error(256, second_diff_values, exact)
    assert 1.9 <= np.log2(e_coarse / e_fine) <= 2.1


def test_convection_is_second_order():
    exact = lambda x: pi * np.sin(pi * x) * np.cos(pi * x)
    e_coarse = _operator_error(256, convection_values, exact)
    e_fine = _operator_error(512, convection_values, exact)
    assert 1.9 <= np.log2(e_coarse / e_fine) <= 2.1


def test_undivided_helpers_zero_fill():
    v = np.array([1.0, 2.0, 4.0, 8.0])
    assert np.array_equal(delta_c(v), [0.0, 3.0, 6.0, 0.0])
    assert np.array_equal(delta_f(v), [1.0, 2.0, 4.0, 0.0])
    assert np.array_equal(delta_b(v), [0.0, 1.0, 2.0, 4.0])
    assert np.array_equal(shift_f(v), [2.0, 4.0, 8.0, 0.0])
    assert np.array_equal(shift_b(v), [0.0, 1.0, 2.0, 4.0])
    assert np.array_equal(staggered_diff(v, 0.5), [2.0, 4.0, 8.0])


def test_grid_function_validation():
    g = build_spatial_grid(1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(grid=g, values=np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(grid=g, values=np.zeros((5, 1)))
