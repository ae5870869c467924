import math
from fractions import Fraction

import numpy as np
import pytest

from steinpaths.functionals import (
    FunctionalError,
    NormCertificate,
    UnsupportedFunctionalError,
    certified_library,
    linear_cylinder,
    norm_upper_bound,
    parse_functional,
    sin_cylinder,
    tanh_product,
)
from steinpaths import ou_stein as ou
from steinpaths.graph import GraphModel
from steinpaths.paths import PiecewiseConstantPath, grid_path

from oracles import validate_derivatives

F = Fraction
GRID = 40  # random step paths jump on the 1/40 grid


def random_steps(rng, trials, dim, max_jumps=5):
    """(trials, GRID+1, dim) grid values of random step paths: each has 1 to
    max_jumps jumps at distinct times m/GRID, 0 < m < GRID, and a standard
    normal value on each interval of constancy, the first included."""
    jumps = rng.integers(1, max_jumps + 1, size=trials)
    u = rng.random((trials, GRID - 1))
    # a path jumps at the times of its row's `jumps` smallest uniforms
    kth = np.take_along_axis(np.sort(u, axis=1), jumps[:, None] - 1, axis=1)
    segment = np.zeros((trials, GRID + 1), dtype=np.intp)
    segment[:, 1:GRID] = np.cumsum(u <= kth, axis=1)
    segment[:, GRID] = jumps
    values = rng.standard_normal((trials, max_jumps + 1, dim))
    return np.take_along_axis(values, segment[:, :, None], axis=1)


def sup_norm(steps):
    """Sup over t of |w(t)|_2: every interval of a grid path holds a row."""
    return np.linalg.norm(steps, axis=-1).max(axis=-1)


def stacked(g, steps):
    """g's stacked argument at each grid path: the rows it reads, flattened."""
    return steps[..., g.rows(GRID), :].reshape(steps.shape[:-2] + (-1,))


def path_argument(g, w):
    """g's stacked argument at a path object, read at each of g's times."""
    return np.concatenate([w(t) for t in g.times])


def dderiv(g, x, h):
    """Dg(w)[h] from the stacked arguments x of w and h of the direction."""
    return np.einsum("...i,...i->...", g.grad_stacked(x), h)


def dderiv2(g, x, h1, h2):
    """D^2 g(w)[h1, h2] from stacked arguments; bilinear and symmetric."""
    return np.einsum("...i,...ij,...j->...", h1, g.hess_stacked(x), h2)


def test_random_steps_are_step_paths_on_the_grid():
    # 1 to 5 jumps strictly inside (0, 1), and the row maximum is the sup
    # norm of the path object
    rng = np.random.default_rng(9)
    steps = random_steps(rng, 500, 2)
    jumps = np.any(steps[:, 1:] != steps[:, :-1], axis=2)
    assert set(jumps.sum(axis=1)) == {1, 2, 3, 4, 5}
    assert not jumps[:, -1].any()
    norms = sup_norm(steps)
    for i in range(0, 500, 25):
        assert grid_path(steps[i], GRID).sup_norm() == norms[i]


def test_eval_sin_zero_path():
    g = sin_cylinder(1, 1, dim=1)
    assert g.value_stacked(np.zeros(g.n_args)) == 0.0


def test_eval_sum_of_two_times_on_staircase():
    stair = PiecewiseConstantPath(
        1, [F(0), F(1, 5), F(1, 2), F(7, 10)], [[0.5], [-1.0], [2.0], [0.25]]
    )
    g = linear_cylinder([1, 1], [F(1, 4), F(3, 4)], dim=1)
    direct = stair(F(1, 4))[0] + stair(F(3, 4))[0]
    assert g.value_stacked(path_argument(g, stair)) == pytest.approx(direct)
    assert direct == -1.0 + 0.25


def test_rows_read_grid_values_as_the_path_does():
    # rows are floor(n t) in exact arithmetic, jumps included, and the rows'
    # values, flattened, are the grid path's values at the functional's times
    g = linear_cylinder([1, 2, 1], [F(0), F(2, 7), F(1)], [1.0, 2.0, 3.0], dim=2)
    assert g.rows(7).tolist() == [0, 2, 7] and g.rows(3).tolist() == [0, 0, 3]
    assert g.rows(7).dtype == np.intp
    rng = np.random.default_rng(3)
    for n in (3, 7, 10):
        values = rng.standard_normal((n + 1, 2))
        stacked_rows = values[g.rows(n)].reshape(-1)
        assert np.array_equal(stacked_rows, path_argument(g, grid_path(values, n)))


def test_dderiv_sin_at_zero():
    g = sin_cylinder(1, 1, dim=1)
    # the direction 1_{[0,1]} e_1 reads 1 at t = 1
    assert dderiv(g, np.zeros(1), np.ones(1)) == pytest.approx(1.0)  # cos(0) * 1


def test_dderiv_zero_direction():
    rng = np.random.default_rng(0)
    for g in certified_library(1):
        x = stacked(g, random_steps(rng, 1, 1))
        assert dderiv(g, x, np.zeros_like(x)) == 0.0


def test_dderiv_matches_finite_difference():
    rng = np.random.default_rng(1)
    eps = 1e-5
    for g in certified_library(2) + [tanh_product([1, 2], [F(1, 3), F(2, 3)], 2)]:
        x, h = (stacked(g, random_steps(rng, 10, 2)) for _ in range(2))
        fd = (g.value_stacked(x + eps * h) - g.value_stacked(x - eps * h)) / (2 * eps)
        assert dderiv(g, x, h) == pytest.approx(fd, abs=1e-6)


def test_dderiv_linear_in_direction():
    rng = np.random.default_rng(2)
    for g in certified_library(1):
        x, h1, h2 = (stacked(g, random_steps(rng, 1, 1)) for _ in range(3))
        a, b = 0.6, -2.5
        combo = dderiv(g, x, a * h1 + b * h2)
        assert combo == pytest.approx(
            a * dderiv(g, x, h1) + b * dderiv(g, x, h2), abs=1e-10
        )


def test_dderiv2_zero_for_linear():
    g = linear_cylinder([1, 1], [F(1, 2), F(1)], [1.0, -2.0], dim=1)
    rng = np.random.default_rng(3)
    x, h1, h2 = (stacked(g, random_steps(rng, 5, 1)) for _ in range(3))
    assert np.all(dderiv2(g, x, h1, h2) == 0.0)


def test_dderiv2_symmetric():
    rng = np.random.default_rng(4)
    g = tanh_product([1, 2, 1], [F(1, 4), F(1, 2), F(1)], dim=2)
    x, h1, h2 = (stacked(g, random_steps(rng, 10, 2)) for _ in range(3))
    assert dderiv2(g, x, h1, h2) == pytest.approx(dderiv2(g, x, h2, h1), abs=1e-10)


def test_dderiv2_matches_finite_difference_of_dderiv():
    rng = np.random.default_rng(5)
    eps = 1e-5
    for g in [sin_cylinder(1, 1, 1), tanh_product([1, 1], [F(1, 3), F(1)], 1)]:
        x, h1, h2 = (stacked(g, random_steps(rng, 10, 1)) for _ in range(3))
        fd = (dderiv(g, x + eps * h2, h1) - dderiv(g, x - eps * h2, h1)) / (2 * eps)
        assert dderiv2(g, x, h1, h2) == pytest.approx(fd, abs=1e-5)


def test_supplied_derivatives_validate():
    rng = np.random.default_rng(6)
    for g in certified_library(2):
        validate_derivatives(g, rng)


TRIG = NormCertificate(1.0, (1.0,), ((1.0,),), 1.0)


@pytest.mark.parametrize("spec, dim, cert", [
    ("sin:coord=1,t=1", 1, TRIG),
    ("sin:coord=1,t=1/2", 2, TRIG),
    ("sin:coord=2,t=1", 2, TRIG),
    ("cos:coord=1,t=1/2", 1, TRIG),
    ("cos:coord=1,t=1", 2, TRIG),
    ("cos:coord=2,t=1/3", 2, TRIG),
    ("lin:coords=1,2,1,t=1/2,1,1/2,w=0.5,-3,2", 2, NormCertificate(
        2.9102352619416987, (2.5, 3.0), ((0.0, 0.0), (0.0, 0.0)), 0.0)),
    ("lin:coords=1,1,t=1,1,w=-1,-2.5", 1, NormCertificate(
        1.8519678939628992, (3.5,), ((0.0,),), 0.0)),
    ("lin:coords=2,1,2,t=1/4,1/4,1,w=-0.1,0.3,-7", 2, NormCertificate(
        3.9155892615215584, (0.31622776601683794, 7.0), ((0.0, 0.0), (0.0, 0.0)), 0.0)),
    # weights whose squares overflow certify their finite block norms, and
    # the Hessian terms, 0 times an overflowing product, stay exactly 0.0
    ("lin:coords=1,t=1,w=1e300", 1, NormCertificate(
        5.2913368398939974e+299, (1e300,), ((0.0,),), 0.0)),
    ("lin:coords=1,2,t=1/2,1/2,w=1e300,-1e300", 2, NormCertificate(
        1.0582673679787995e+300, (math.sqrt(2) * 1e300,), ((0.0,),), 0.0)),
    ("lin:coords=1,1,t=1/2,1,w=1e300,1e300", 1, NormCertificate(
        1.0582673679787995e+300, (1e300, 1e300), ((0.0, 0.0), (0.0, 0.0)), 0.0)),
])
def test_linear_form_certificate_and_derivatives(spec, dim, cert):
    # sin, cos and lin are f(x . a): the derivatives validate and the
    # certificate rule reproduces each hand-certified constant exactly
    g = parse_functional(spec, dim)
    validate_derivatives(g, np.random.default_rng(6))
    assert g.certificate() == cert
    if spec.startswith("lin"):
        x = np.random.default_rng(7).standard_normal((5, g.n_args))
        assert np.all(g.hess_stacked(x) == 0.0)
        assert not np.isnan(norm_upper_bound(g))


def test_norm_bound_zero_functional():
    g = linear_cylinder([1], [1], [0.0], dim=1)
    assert norm_upper_bound(g) == 0.0


def test_norm_bound_numeric_unsupported():
    # the Stein solution phi(g) carries no certificate
    law = ou.TargetLaw(GraphModel(4, 0.3))
    g = ou.stein_solution(sin_cylinder(1, 1, dim=2), law.cov_matrix([F(1)]))
    with pytest.raises(UnsupportedFunctionalError):
        norm_upper_bound(g)


@pytest.mark.parametrize("dim", [1, 2])
def test_norm_bound_randomized_soundness(dim):
    # each sampled norm summand never exceeds the assembled upper bound; the
    # paths w, h1, h2 of a trial are random step paths
    rng = np.random.default_rng(7)
    funcs = certified_library(dim)
    trials = [10**4 if g.label.startswith("tanhprod") else 1000 for g in funcs]
    for g, n_trials in zip(funcs, trials):
        cert = g.certificate()
        grad_bound = float(np.sum(cert.grad_block_sups))
        hess_bound = float(np.sum(cert.hess_block_sups))
        lip_bound = g.k**1.5 * cert.hess_lipschitz
        bound_m1 = norm_upper_bound(g)
        w, h1, h2 = (random_steps(rng, n_trials, dim) for _ in range(3))
        x, y1, y2 = (stacked(g, steps) for steps in (w, h1, h2))
        nw, n1, n2 = (sup_norm(steps) for steps in (w, h1, h2))
        assert np.all(n1 > 0) and np.all(n2 > 0)
        value_q = np.abs(g.value_stacked(x))
        grad_blocks = g.grad_stacked(x).reshape(n_trials, g.k, g.dim)
        grad_q = np.linalg.norm(grad_blocks, axis=2).sum(axis=1)  # exact ||Dg(w)||
        hess_q = np.abs(dderiv2(g, x, y1, y2)) / (n1 * n2)
        # Lipschitz quotient of the second derivative
        lip_q = np.abs(dderiv2(g, x + y1, y2, y2) - dderiv2(g, x, y2, y2)) / (n1 * n2**2)
        assert np.all(value_q / (1.0 + nw**3) <= cert.sup_abs_over_cubic + 1e-12)
        assert np.all(grad_q <= grad_bound + 1e-12)
        assert np.all(hess_q <= hess_bound + 1e-9)
        assert np.all(lip_q <= lip_bound + 1e-9)
        assert np.all(value_q <= bound_m1 * (1.0 + nw**3) + 1e-9)


def test_hessian_lipschitz_k_squared_bound():
    # |D2g(w+h)[u,u] - D2g(w)[u,u]| <= L_H * k^2 * ||h|| for unit u
    rng = np.random.default_rng(8)
    g = tanh_product([1, 1, 1], [F(1, 4), F(1, 2), F(3, 4)], dim=1)
    L = g.certificate().hess_lipschitz
    w, h, u = (random_steps(rng, 200, 1) for _ in range(3))
    x, y, v = (stacked(g, steps) for steps in (w, h, u))
    nh, nu = sup_norm(h), sup_norm(u)
    assert np.all(nh > 0) and np.all(nu > 0)
    gap = np.abs(dderiv2(g, x + y, v, v) - dderiv2(g, x, v, v)) / nu**2
    assert np.all(gap <= L * g.k**2 * nh + 1e-9)


def test_parse_functional_round_trip():
    g = parse_functional("sin:coord=1,t=1", dim=1)
    assert g.value_stacked(np.zeros(1)) == 0.0
    g = parse_functional("tanhprod:coords=1,2,t=1/2,1", dim=2)
    assert g.k == 2 and g.dim == 2
    g = parse_functional("lin:coords=1,2,t=1,1,w=1,-1", dim=2)
    assert g.value_stacked(np.array([5.0, 3.0])) == pytest.approx(2.0)
    g = parse_functional("cos:coord=2,t=1/4", dim=2)
    assert g.value_stacked(np.zeros(2)) == 1.0


@pytest.mark.parametrize("spec", [
    "sin:coord=2,t=1/3",
    "cos:coord=1,t=1",
    "tanhprod:coords=1,2,2,t=1/2,1,1/4",
    "lin:coords=1,2,t=1,1/2",
    "lin:coords=1,t=1,w=5",
    "lin:coords=1,2,1,t=1/2,1,1/2,w=0.1,-3,2.5e-300",
])
def test_label_rebuilds_the_functional(spec):
    # a report records its functionals by label, so each label parses back
    # to a functional with the same label, times, values and certificate
    g = parse_functional(spec, dim=2)
    h = parse_functional(g.label, dim=2)
    assert h.label == g.label and h.times == g.times
    x = np.random.default_rng(3).standard_normal((5, g.n_args))
    for ev in ("value_stacked", "grad_stacked", "hess_stacked"):
        assert np.array_equal(getattr(h, ev)(x), getattr(g, ev)(x))
    assert h.certificate() == g.certificate()


def test_parse_functional_errors():
    with pytest.raises(FunctionalError):
        parse_functional("nope:coord=1,t=1", dim=1)
    with pytest.raises(FunctionalError):
        parse_functional("sin", dim=1)
    with pytest.raises(FunctionalError):
        parse_functional("sin:t=1", dim=1)
    for spec in ("sin:coord=1,t=2", "sin:coord=x,t=1", "sin:coord=1,t=abc",
                 "lin:coords=1,t=1,w=abc", "sin:coord=1,t=1/0", "sin:coord=1,t=1,w=5",
                 "sin:coord=1,t=1/2,1", "cos:coord=1,2,t=1", "tanhprod:coords=1,t=1,w=2",
                 "sin:coord=1,t=1,t=1/2", "lin:coord=1,coords=2,t=1,1"):
        with pytest.raises(FunctionalError):
            parse_functional(spec, dim=1)
    # lin keeps its documented alias coord for coords
    assert parse_functional("lin:coord=1,t=1", dim=1).label == "lin:coords=1,t=1"


@pytest.mark.parametrize("spec", [
    "sin:coord=0,t=1",
    "sin:coord=3,t=1",
    "cos:coord=0,t=1/2",
    "cos:coord=3,t=1/2",
    "tanhprod:coords=1,3,t=1/2,1",
    "lin:coords=0,t=1",
])
def test_coordinate_outside_path_dimension_is_refused(spec):
    # coord 0 would read the last coordinate through index -1, coord 3 the
    # next time's first coordinate or past the end of x
    with pytest.raises(FunctionalError, match="outside 1..2"):
        parse_functional(spec, dim=2)


def test_certified_library_has_five_certified(    ):
    for dim in (1, 2):
        lib = certified_library(dim)
        assert len(lib) >= 5
        for g in lib:
            assert norm_upper_bound(g) < np.inf
