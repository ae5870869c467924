from fractions import Fraction

import numpy as np
import pytest

from steinpaths.paths import (
    PathError,
    PiecewiseConstantPath,
    as_time,
    grid_path,
    lin_comb,
    paths_equal,
    step_indicator,
    zero_path,
)

F = Fraction


def jump_path(at, value, dim=None):
    """1_{[at,1]} * value."""
    value = np.atleast_1d(np.asarray(value, dtype=float))
    dim = dim or value.size
    return PiecewiseConstantPath(dim, [F(0), F(at)], [np.zeros(dim), value])


def random_path(rng, dim, den=60, max_jumps=6):
    k = rng.integers(1, max_jumps + 1)
    numerators = sorted(rng.choice(np.arange(1, den), size=k, replace=False))
    bps = [F(0)] + [F(int(m), den) for m in numerators]
    vals = rng.standard_normal((k + 1, dim))
    return PiecewiseConstantPath(dim, bps, vals)


def test_evaluate_right_continuous_at_jump():
    p = jump_path(F(1, 2), [3.0, 4.0])
    assert np.array_equal(p(F(1, 2)), [3.0, 4.0])


def test_evaluate_before_first_jump():
    p = jump_path(F(1, 2), [3.0, 4.0])
    assert np.array_equal(p(F(0)), [0.0, 0.0])


def test_evaluate_staircase_counts_indicators():
    # sum of 1_{[i/3,1]} for i=1..3; value at t=2/3 counts i with i/3 <= 2/3
    stair = zero_path(1)
    for i in range(1, 4):
        stair = lin_comb(1.0, stair, 1.0, step_indicator(i, 3, 1, 1))
    t = F(2, 3)
    expected = sum(1 for i in range(1, 4) if F(i, 3) <= t)
    assert stair(t)[0] == expected == 2


def test_evaluate_outside_domain_raises():
    p = jump_path(F(1, 2), [1.0])
    with pytest.raises(PathError):
        p(F(3, 2))
    with pytest.raises(PathError):
        p(F(-1, 2))


def test_float_times_rejected():
    with pytest.raises(PathError):
        as_time(0.5)


def test_sup_norm_single_jump():
    assert jump_path(F(1, 2), [3.0, 4.0]).sup_norm() == 5.0


def test_sup_norm_zero_path():
    assert zero_path(3).sup_norm() == 0.0


def test_sup_norm_max_over_intervals():
    p = PiecewiseConstantPath(1, [F(0), F(1, 3), F(2, 3)], [[1.0], [-2.0], [1.5]])
    assert p.sup_norm() == 2.0


def test_lin_comb_cancellation():
    rng = np.random.default_rng(0)
    x = random_path(rng, 2)
    z = lin_comb(1.0, x, -1.0, x)
    assert z.sup_norm() == 0.0


def test_lin_comb_scaling():
    x = jump_path(F(1, 2), [1.0, 0.0])
    y = zero_path(2)
    z = lin_comb(2.0, x, 0.0, y)
    assert paths_equal(z, jump_path(F(1, 2), [2.0, 0.0]))


def test_lin_comb_merges_breakpoints():
    x = jump_path(F(1, 3), [1.0])
    y = jump_path(F(2, 3), [1.0])
    z = lin_comb(1.0, x, 1.0, y)
    assert z.breakpoints == (F(0), F(1, 3), F(2, 3))


def test_lin_comb_dim_mismatch():
    with pytest.raises(PathError):
        lin_comb(1.0, zero_path(1), 1.0, zero_path(2))


def test_step_indicator_last_index_jumps_at_one():
    p = step_indicator(4, 4, 1, 1)
    assert p(F(1)) == 1.0
    assert p(F(99, 100)) == 0.0
    assert p.sup_norm() == 1.0


def test_step_indicator_half():
    p = step_indicator(1, 2, 2, 3)
    assert np.array_equal(p(F(1, 2)), [0.0, 1.0, 0.0])
    assert np.array_equal(p(F(1, 4)), [0.0, 0.0, 0.0])


def test_step_indicator_before_jump():
    # 0.49 < 2/4, checked with the exact rational 49/100
    p = step_indicator(2, 4, 1, 2)
    assert np.array_equal(p(F(49, 100)), [0.0, 0.0])


def test_step_indicator_range_errors():
    with pytest.raises(PathError):
        step_indicator(5, 4, 1, 1)
    with pytest.raises(PathError):
        step_indicator(1, 4, 3, 2)


def test_nonfinite_values_rejected():
    with pytest.raises(PathError):
        PiecewiseConstantPath(1, [F(0)], [[np.inf]])


def test_breakpoints_must_start_at_zero_and_increase():
    with pytest.raises(PathError):
        PiecewiseConstantPath(1, [F(1, 2)], [[1.0]])
    with pytest.raises(PathError):
        PiecewiseConstantPath(1, [F(0), F(1, 2), F(1, 2)], [[0.0], [1.0], [2.0]])


def test_triangle_inequality_property():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = random_path(rng, 3)
        y = random_path(rng, 3)
        a, b = rng.standard_normal(2)
        lhs = lin_comb(a, x, b, y).sup_norm()
        rhs = abs(a) * x.sup_norm() + abs(b) * y.sup_norm()
        assert lhs <= rhs + 1e-12


def test_lin_comb_pointwise_property():
    rng = np.random.default_rng(2)
    x = random_path(rng, 2, den=48)
    y = random_path(rng, 2, den=48)
    a, b = 0.7, -1.3
    z = lin_comb(a, x, b, y)
    for _ in range(1000):
        t = F(int(rng.integers(0, 961)), 960)
        assert np.allclose(z(t), a * x(t) + b * y(t), rtol=0, atol=1e-12)


def test_sup_norm_equals_dense_grid_max():
    # any rational grid containing all breakpoints attains the sup
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_path(rng, 2, den=24)
        grid_max = max(
            float(np.linalg.norm(x(F(j, 240)))) for j in range(241)
        )
        assert grid_max == pytest.approx(x.sup_norm(), rel=1e-15)


def test_json_round_trip():
    rng = np.random.default_rng(4)
    x = random_path(rng, 2)
    d = x.to_json_dict()
    y = PiecewiseConstantPath.from_json_dict(d)
    assert paths_equal(x, y)
    assert y.breakpoints == x.breakpoints


def test_grid_path_breakpoints():
    vals = np.arange(6, dtype=float)
    p = grid_path(vals, 5)
    assert p.breakpoints == tuple(F(k, 5) for k in range(6))
    assert p(F(2, 5))[0] == 2.0
    assert p(F(1))[0] == 5.0


def test_paths_immutable():
    p = zero_path(1)
    with pytest.raises(AttributeError):
        p.dim = 2
    with pytest.raises(ValueError):
        p.values[0, 0] = 1.0
