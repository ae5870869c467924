from fractions import Fraction

import numpy as np
import pytest

from steinpaths.paths import PathError, PiecewiseConstantPath, as_time, grid_path

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
    # sum of 1_{[i/3,1]} for i=1..3, the grid path with values 0, 1, 2, 3;
    # its value at t=2/3 counts i with i/3 <= 2/3
    stair = grid_path(np.arange(4.0), 3)
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
    assert PiecewiseConstantPath(3, [F(0)], np.zeros((1, 3))).sup_norm() == 0.0


def test_sup_norm_max_over_intervals():
    p = PiecewiseConstantPath(1, [F(0), F(1, 3), F(2, 3)], [[1.0], [-2.0], [1.5]])
    assert p.sup_norm() == 2.0


# step indicators 1_{[i/n,1]} e_coord, built as path objects


def test_step_indicator_last_index_jumps_at_one():
    p = jump_path(F(4, 4), [1.0])
    assert p(F(1)) == 1.0
    assert p(F(99, 100)) == 0.0
    assert p.sup_norm() == 1.0


def test_step_indicator_half():
    p = jump_path(F(1, 2), [0.0, 1.0, 0.0])
    assert np.array_equal(p(F(1, 2)), [0.0, 1.0, 0.0])
    assert np.array_equal(p(F(1, 4)), [0.0, 0.0, 0.0])


def test_step_indicator_before_jump():
    # 0.49 < 2/4, checked with the exact rational 49/100
    p = jump_path(F(2, 4), [1.0, 0.0])
    assert np.array_equal(p(F(49, 100)), [0.0, 0.0])


def test_nonfinite_values_rejected():
    with pytest.raises(PathError):
        PiecewiseConstantPath(1, [F(0)], [[np.inf]])


def test_breakpoints_must_start_at_zero_and_increase():
    with pytest.raises(PathError):
        PiecewiseConstantPath(1, [F(1, 2)], [[1.0]])
    with pytest.raises(PathError):
        PiecewiseConstantPath(1, [F(0), F(1, 2), F(1, 2)], [[0.0], [1.0], [2.0]])


def test_sup_norm_equals_dense_grid_max():
    # any rational grid containing all breakpoints attains the sup
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_path(rng, 2, den=24)
        grid_max = max(
            float(np.linalg.norm(x(F(j, 240)))) for j in range(241)
        )
        assert grid_max == pytest.approx(x.sup_norm(), rel=1e-15)


def test_grid_path_breakpoints():
    vals = np.arange(6, dtype=float)
    p = grid_path(vals, 5)
    assert p.breakpoints == tuple(F(k, 5) for k in range(6))
    assert p(F(2, 5))[0] == 2.0
    assert p(F(1))[0] == 5.0


def test_grid_path_needs_n_plus_one_values():
    with pytest.raises(PathError):
        grid_path(np.zeros(5), 5)
    with pytest.raises(PathError):
        grid_path(np.zeros((7, 2)), 5)
    assert grid_path(np.zeros((6, 2)), 5).dim == 2


def test_paths_immutable():
    p = PiecewiseConstantPath(1, [F(0)], [[0.0]])
    with pytest.raises(AttributeError):
        p.dim = 2
    with pytest.raises(ValueError):
        p.values[0, 0] = 1.0
