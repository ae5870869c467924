from fractions import Fraction

import numpy as np
import pytest

from steinpaths.functionals import (
    FunctionalError,
    UnsupportedFunctionalError,
    certified_library,
    dderiv,
    dderiv2,
    linear_cylinder,
    norm_upper_bound,
    numeric_cylinder,
    parse_functional,
    sin_cylinder,
    tanh_product,
    validate_derivatives,
)
from steinpaths.paths import PiecewiseConstantPath, grid_path, lin_comb, zero_path

F = Fraction


def random_path(rng, dim, den=40, max_jumps=5):
    k = int(rng.integers(1, max_jumps + 1))
    numerators = sorted(rng.choice(np.arange(1, den), size=k, replace=False))
    bps = [F(0)] + [F(int(m), den) for m in numerators]
    return PiecewiseConstantPath(dim, bps, rng.standard_normal((k + 1, dim)))


def constant_path(value):
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return PiecewiseConstantPath(value.size, [F(0)], [value])


def test_eval_sin_zero_path():
    g = sin_cylinder(1, 1, dim=1)
    assert g(zero_path(1)) == 0.0


def test_eval_product_of_coordinates():
    g = numeric_cylinder(lambda x: x[..., 0] * x[..., 1], [F(1)], dim=2)
    assert g(constant_path([2.0, 3.0])) == pytest.approx(6.0)


def test_eval_sum_of_two_times_on_staircase():
    stair = PiecewiseConstantPath(
        1, [F(0), F(1, 5), F(1, 2), F(7, 10)], [[0.5], [-1.0], [2.0], [0.25]]
    )
    g = linear_cylinder([1, 1], [F(1, 4), F(3, 4)], dim=1)
    direct = stair(F(1, 4))[0] + stair(F(3, 4))[0]
    assert g(stair) == pytest.approx(direct)
    assert direct == -1.0 + 0.25


def test_rows_read_grid_values_as_the_path_does():
    # rows are floor(n t) in exact arithmetic, jumps included, and the rows'
    # values, flattened, are the stacked evaluations of the grid path
    g = linear_cylinder([1, 2, 1], [F(0), F(2, 7), F(1)], [1.0, 2.0, 3.0], dim=2)
    assert g.rows(7).tolist() == [0, 2, 7] and g.rows(3).tolist() == [0, 0, 3]
    assert g.rows(7).dtype == np.intp
    rng = np.random.default_rng(3)
    for n in (3, 7, 10):
        values = rng.standard_normal((n + 1, 2))
        stacked = values[g.rows(n)].reshape(-1)
        assert np.array_equal(stacked, g.stack(grid_path(values, n)))
        assert g.value_stacked(stacked) == g(grid_path(values, n))


def test_eval_dim_mismatch():
    g = sin_cylinder(1, 1, dim=2)
    with pytest.raises(FunctionalError):
        g(zero_path(1))


def test_dderiv_sin_at_zero():
    g = sin_cylinder(1, 1, dim=1)
    h = constant_path([1.0])  # 1_{[0,1]} e_1
    assert dderiv(g, zero_path(1), h) == pytest.approx(1.0)  # cos(0) * 1


def test_dderiv_zero_direction():
    rng = np.random.default_rng(0)
    for g in certified_library(1):
        w = random_path(rng, 1)
        assert dderiv(g, w, zero_path(1)) == 0.0


def test_dderiv_matches_finite_difference():
    rng = np.random.default_rng(1)
    eps = 1e-5
    for g in certified_library(2) + [tanh_product([1, 2], [F(1, 3), F(2, 3)], 2)]:
        for _ in range(10):
            w = random_path(rng, 2)
            h = random_path(rng, 2)
            fd = (g(lin_comb(1, w, eps, h)) - g(lin_comb(1, w, -eps, h))) / (2 * eps)
            assert dderiv(g, w, h) == pytest.approx(fd, abs=1e-6)


def test_dderiv_linear_in_direction():
    rng = np.random.default_rng(2)
    for g in certified_library(1):
        w, h1, h2 = (random_path(rng, 1) for _ in range(3))
        a, b = 0.6, -2.5
        combo = dderiv(g, w, lin_comb(a, h1, b, h2))
        assert combo == pytest.approx(
            a * dderiv(g, w, h1) + b * dderiv(g, w, h2), abs=1e-10
        )


def test_dderiv2_zero_for_linear():
    g = linear_cylinder([1, 1], [F(1, 2), F(1)], [1.0, -2.0], dim=1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        w, h1, h2 = (random_path(rng, 1) for _ in range(3))
        assert dderiv2(g, w, h1, h2) == 0.0


def test_dderiv2_symmetric():
    rng = np.random.default_rng(4)
    g = tanh_product([1, 2, 1], [F(1, 4), F(1, 2), F(1)], dim=2)
    for _ in range(10):
        w, h1, h2 = (random_path(rng, 2) for _ in range(3))
        assert dderiv2(g, w, h1, h2) == pytest.approx(
            dderiv2(g, w, h2, h1), abs=1e-10
        )


def test_dderiv2_matches_finite_difference_of_dderiv():
    rng = np.random.default_rng(5)
    eps = 1e-5
    for g in [sin_cylinder(1, 1, 1), tanh_product([1, 1], [F(1, 3), F(1)], 1)]:
        for _ in range(10):
            w, h1, h2 = (random_path(rng, 1) for _ in range(3))
            fd = (
                dderiv(g, lin_comb(1, w, eps, h2), h1)
                - dderiv(g, lin_comb(1, w, -eps, h2), h1)
            ) / (2 * eps)
            assert dderiv2(g, w, h1, h2) == pytest.approx(fd, abs=1e-5)


def test_supplied_derivatives_validate():
    rng = np.random.default_rng(6)
    for g in certified_library(2):
        validate_derivatives(g, rng)


def test_norm_bound_zero_functional():
    g = linear_cylinder([1], [1], [0.0], dim=1)
    for cls in ("M1", "M2", "M"):
        assert norm_upper_bound(g, cls).value == 0.0


def test_norm_bound_sin_m0_is_four():
    # sup|sin| + sup|cos| + sup|sin| + Lipschitz(sin'') = 1+1+1+1
    g = sin_cylinder(1, 1, dim=1)
    assert norm_upper_bound(g, "M0").value == pytest.approx(4.0)


def test_norm_bound_linear_m0_unsupported():
    g = linear_cylinder([1], [1], None, dim=1)
    with pytest.raises(UnsupportedFunctionalError):
        norm_upper_bound(g, "M0")
    assert norm_upper_bound(g, "M1").value > 0


def test_norm_bound_numeric_unsupported():
    g = numeric_cylinder(lambda x: x[..., 0], [F(1)], dim=1)
    with pytest.raises(UnsupportedFunctionalError):
        norm_upper_bound(g, "M1")


def test_norm_bound_unknown_class():
    with pytest.raises(FunctionalError):
        norm_upper_bound(sin_cylinder(1, 1, 1), "M3")


def _norm_summand_quotients(g, w, h1, h2):
    """Sampled quotients dominated by the M0-style norm summands."""
    x = g.stack(w)
    value_q = abs(float(g.base.value(x)))
    grad_blocks = g.base.grad(x).reshape(g.k, g.dim)
    grad_q = float(np.sum(np.linalg.norm(grad_blocks, axis=1)))  # exact ||Dg(w)||
    n1, n2 = h1.sup_norm(), h2.sup_norm()
    hess_q = 0.0
    if n1 > 0 and n2 > 0:
        hess_q = abs(dderiv2(g, w, h1, h2)) / (n1 * n2)
    return value_q, grad_q, hess_q


@pytest.mark.parametrize("dim", [1, 2])
def test_norm_bound_randomized_soundness(dim):
    # each sampled norm summand never exceeds the assembled upper bound
    rng = np.random.default_rng(7)
    funcs = certified_library(dim)
    trials = [10**4 if g.label.startswith("tanhprod") else 1000 for g in funcs]
    for g, n_trials in zip(funcs, trials):
        cert = g.certificate()
        grad_bound = float(np.sum(cert.grad_block_sups))
        hess_bound = float(np.sum(cert.hess_block_sups))
        lip_bound = g.k**1.5 * cert.hess_lipschitz
        bound_m1 = norm_upper_bound(g, "M1").value
        for _ in range(n_trials):
            w, h1, h2 = (random_path(rng, dim) for _ in range(3))
            value_q, grad_q, hess_q = _norm_summand_quotients(g, w, h1, h2)
            cubic_q = value_q / (1.0 + w.sup_norm() ** 3)
            assert cubic_q <= cert.sup_abs_over_cubic + 1e-12
            assert grad_q <= grad_bound + 1e-12
            assert hess_q <= hess_bound + 1e-9
            # Lipschitz quotient of the second derivative
            nh, nu = h1.sup_norm(), h2.sup_norm()
            if nh > 0 and nu > 0:
                lip_q = abs(
                    dderiv2(g, lin_comb(1, w, 1, h1), h2, h2)
                    - dderiv2(g, w, h2, h2)
                ) / (nh * nu**2)
                assert lip_q <= lip_bound + 1e-9
            assert value_q <= bound_m1 * (1.0 + w.sup_norm() ** 3) + 1e-9


def test_hessian_lipschitz_k_squared_bound():
    # |D2g(w+h)[u,u] - D2g(w)[u,u]| <= L_H * k^2 * ||h|| for unit u
    rng = np.random.default_rng(8)
    g = tanh_product([1, 1, 1], [F(1, 4), F(1, 2), F(3, 4)], dim=1)
    L = g.certificate().hess_lipschitz
    for _ in range(200):
        w, h, u = (random_path(rng, 1) for _ in range(3))
        nu = u.sup_norm()
        if nu == 0 or h.sup_norm() == 0:
            continue
        gap = abs(
            dderiv2(g, lin_comb(1, w, 1, h), u, u) - dderiv2(g, w, u, u)
        ) / nu**2
        assert gap <= L * g.k**2 * h.sup_norm() + 1e-9


def test_parse_functional_round_trip():
    g = parse_functional("sin:coord=1,t=1", dim=1)
    assert g(zero_path(1)) == 0.0
    g = parse_functional("tanhprod:coords=1,2,t=1/2,1", dim=2)
    assert g.k == 2 and g.dim == 2
    g = parse_functional("lin:coords=1,2,t=1,1,w=1,-1", dim=2)
    assert g(constant_path([5.0, 3.0])) == pytest.approx(2.0)
    g = parse_functional("cos:coord=2,t=1/4", dim=2)
    assert g(zero_path(2)) == 1.0


def test_parse_functional_errors():
    with pytest.raises(FunctionalError):
        parse_functional("nope:coord=1,t=1", dim=1)
    with pytest.raises(FunctionalError):
        parse_functional("sin", dim=1)
    with pytest.raises(FunctionalError):
        parse_functional("sin:t=1", dim=1)


def test_certified_library_has_five_certified(    ):
    for dim in (1, 2):
        lib = certified_library(dim)
        assert len(lib) >= 5
        for g in lib:
            assert norm_upper_bound(g, "M1").value < np.inf
