import math
from fractions import Fraction

import numpy as np
import pytest

from steinpaths.combinatorial import (
    ArrayModel,
    double_center,
    sample_pair as comb_sample_pair,
)
from steinpaths.functionals import (
    cos_cylinder,
    linear_cylinder,
    numeric_cylinder,
    sin_cylinder,
    tanh_product,
)
from steinpaths.graph import GraphModel
from steinpaths.mc import SeedSpec, from_values
from steinpaths.ou_stein import (
    combinatorial_law,
    epsilon1_combinatorial,
    epsilon1_graph,
    epsilon3_estimate,
    generator_apply,
    graph_law,
    make_phi_cylinder,
    mehler_apply,
    mehler_two_step,
    solve_phi,
    stein_identity_residual,
    stein_selfconsistency,
)

F = Fraction


def det5_model():
    base = np.arange(25, dtype=float).reshape(5, 5) ** 1.3
    return ArrayModel.deterministic(double_center(base))


def step_argument(g, jumps):
    """g's stacked argument at the step path that starts at 0 and adds each
    {time: vector} jump from its time on."""
    return np.concatenate([
        sum((np.asarray(v, dtype=float) for s, v in jumps.items() if s <= t),
            np.zeros(g.dim))
        for t in g.times
    ])


def sup_norm(values):
    """Sup norm of a grid path from its (n+1, dim) values."""
    return float(np.linalg.norm(values, axis=-1).max())


def epsilon1_pairs(pair_sampler, lambda_action, gnorm, samples, rng):
    """(|g|/6) E ||(Y-Y') Lambda|| ||Y-Y'||^2, one object-layer pair at a
    time: the pair's two (n+1, dim) grid arrays share one grid, so Y - Y'
    is their difference."""
    vals = np.empty(samples)
    for s in range(samples):
        y, y_prime = pair_sampler(rng)
        diff = y - y_prime
        vals[s] = sup_norm(lambda_action(diff)) * sup_norm(diff) ** 2
    return from_values(gnorm / 6.0 * vals, name="epsilon1")


def test_law_cov_matches_sampler():
    for law in (combinatorial_law(det5_model()), graph_law(GraphModel(5, 0.3))):
        times = [F(2, 5), F(1)]
        d = law.sample_at(SeedSpec(50).rng(), 4 * 10**4, times)
        cov = law.cov_matrix(times)
        kd = cov.shape[0]
        flat = d.reshape(d.shape[0], kd)
        for i in range(kd):
            for j in range(kd):
                est = from_values(flat[:, i] * flat[:, j])
                assert abs(est.mean - cov[i, j]) <= 5 * est.stderr + 1e-12


def test_mehler_u_zero_is_identity():
    law = combinatorial_law(det5_model())
    g = sin_cylinder(1, 1, dim=1)
    x = step_argument(g, {F(1, 3): [0.7], F(4, 5): [-0.2]})
    est = mehler_apply(g, x, 0.0, law, 1000, SeedSpec(51))
    assert est.mean == g.value_stacked(x)
    assert est.m2 == 0.0


def test_mean_g_estimates_each_functional():
    # both functionals carry the default label "numeric"
    law = graph_law(GraphModel(6, 0.3))
    first = numeric_cylinder(lambda x: np.sin(x[..., 0]), [F(1)], dim=2)
    one = numeric_cylinder(lambda x: np.ones(x.shape[:-1]), [F(1)], dim=2)
    assert first.label == one.label
    seed = SeedSpec(55)
    law.mean_g(first, 4096, seed)
    est = law.mean_g(one, 4096, seed)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_mehler_u_large_reaches_target_mean():
    law = graph_law(GraphModel(5, 0.3))
    g = cos_cylinder(2, 1, dim=2)
    x = step_argument(g, {F(1, 2): [0.5, -0.3]})
    far = mehler_apply(g, x, 20.0, law, 2 * 10**4, SeedSpec(52, (0,)))
    target = law.mean_g(g, 2 * 10**4, SeedSpec(52, (1,)))
    tol = 4 * math.hypot(far.stderr, target.stderr)
    assert abs(far.mean - target.mean) < tol


def test_mehler_contraction_on_linear():
    # T_u g(w) = e^{-u} g(w) for centered linear g
    law = combinatorial_law(det5_model())
    g = linear_cylinder([1], [F(3, 5)], None, dim=1)
    x = step_argument(g, {F(1, 5): [1.3]})
    for u in (0.3, 1.0):
        est = mehler_apply(g, x, u, law, 4 * 10**4, SeedSpec(53, (int(10 * u),)))
        assert abs(est.mean - math.exp(-u) * g.value_stacked(x)) < 4 * est.stderr


def test_mehler_semigroup_property():
    # Gaussian target: two-step evaluation agrees with the single step
    law = combinatorial_law(det5_model())
    g = tanh_product([1, 1], [F(2, 5), F(1)], dim=1)
    x = step_argument(g, {F(1, 5): [0.8], F(3, 5): [-0.4]})
    u, v = 0.4, 0.9
    two = mehler_two_step(g, x, u, v, law, 6 * 10**4, SeedSpec(54, (0,)))
    one = mehler_apply(g, x, u + v, law, 6 * 10**4, SeedSpec(54, (1,)))
    tol = 4 * math.hypot(two.stderr, one.stderr)
    assert abs(two.mean - one.mean) < tol


def test_generator_linear_functional():
    law = graph_law(GraphModel(4, 0.5))
    f = linear_cylinder([1, 2], [F(1, 2), F(1)], [2.0, -1.0], dim=2)
    x = step_argument(f, {F(1, 4): [0.3, 0.1], F(3, 4): [-0.2, 0.5]})
    grad = f.grad_stacked(x)
    assert generator_apply(f, x, law) == pytest.approx(-float(grad @ x), abs=1e-14)


def test_generator_pure_trace_at_zero_path():
    # at w = 0 a cosine cylinder has zero gradient, so only the trace term
    law = combinatorial_law(det5_model())
    f = cos_cylinder(1, 1, dim=1)
    x = np.zeros(f.n_args)
    expected = -1.0 * float(law.cov_matrix([F(1)])[0, 0])  # H = -cos(0) = -1
    assert generator_apply(f, x, law) == pytest.approx(expected, abs=1e-14)


def test_generator_linearity_and_constant_invariance():
    # adding a constant leaves the generator unchanged; scaling a linear
    # base scales the generator
    law = combinatorial_law(det5_model())
    jumps = {F(2, 5): [0.4], F(4, 5): [1.1]}
    f = linear_cylinder([1, 1], [F(2, 5), F(1)], [1.0, -0.5], dim=1)
    f3 = linear_cylinder([1, 1], [F(2, 5), F(1)], [3.0, -1.5], dim=1)
    x = step_argument(f, jumps)
    assert generator_apply(f3, x, law) == pytest.approx(
        3.0 * generator_apply(f, x, law), rel=1e-12
    )
    const = linear_cylinder([1], [F(1)], [0.0], dim=1)
    assert generator_apply(const, step_argument(const, jumps), law) == 0.0


def test_generator_matches_semigroup_derivative():
    # Richardson finite difference of u -> T_u f(w) at u = 0, with common
    # random numbers across the two step sizes
    law = combinatorial_law(det5_model())
    f = cos_cylinder(1, 1, dim=1)
    x = step_argument(f, {F(2, 5): [0.6]})
    delta = 0.05
    rng = SeedSpec(55).rng()
    d = law.sample_at(rng, 2 * 10**5, f.times).reshape(-1, 1)

    def t_est(u):
        decay, beta = math.exp(-u), math.sqrt(1 - math.exp(-2 * u))
        return f.value_stacked(decay * x + beta * d)

    f0 = float(f.value_stacked(x))
    fd1 = (t_est(delta) - f0) / delta
    fd2 = (t_est(2 * delta) - f0) / (2 * delta)
    richardson = from_values(2 * fd1 - fd2)
    gen = generator_apply(f, x, law)
    assert abs(richardson.mean - gen) < 5 * richardson.stderr + 0.01


def test_stein_identity_zero_for_gaussian_targets():
    funcs1 = [
        sin_cylinder(1, 1, dim=1),
        cos_cylinder(1, F(1, 2), dim=1),
        tanh_product([1, 1], [F(1, 2), F(1)], dim=1),
    ]
    law = combinatorial_law(det5_model())
    for k, f in enumerate(funcs1):
        est = stein_identity_residual(f, law, 10**5, SeedSpec(56, (k,)))
        assert abs(est.mean) <= 3 * est.stderr
    funcs2 = [
        sin_cylinder(1, 1, dim=2),
        cos_cylinder(2, F(1, 2), dim=2),
        tanh_product([1, 2], [F(1, 2), F(1)], dim=2),
    ]
    law2 = graph_law(GraphModel(6, 0.3))
    for k, f in enumerate(funcs2):
        est = stein_identity_residual(f, law2, 10**5, SeedSpec(57, (k,)))
        assert abs(est.mean) <= 3 * est.stderr


def test_stein_identity_negative_control_detected():
    law = combinatorial_law(det5_model())
    f = cos_cylinder(1, 1, dim=1)
    est = stein_identity_residual(f, law, 10**5, SeedSpec(58), scale=1.1)
    assert abs(est.mean) > 3 * est.stderr


def test_stein_identity_mixture_defect_is_real():
    # random-array targets are Gaussian mixtures; the unconditional-
    # covariance generator is biased for even functionals
    law = combinatorial_law(ArrayModel.iid_gaussian(5))
    f = cos_cylinder(1, 1, dim=1)
    est = stein_identity_residual(f, law, 2 * 10**5, SeedSpec(59))
    assert abs(est.mean) > 3 * est.stderr
    # while odd functionals stay centered by conditional symmetry
    est_odd = stein_identity_residual(
        sin_cylinder(1, 1, dim=1), law, 10**5, SeedSpec(60)
    )
    assert abs(est_odd.mean) <= 3 * est_odd.stderr


def test_stein_identity_pass_rate_over_reruns():
    # each rerun is a 3-stderr test that a correct sampler passes with
    # probability 0.9973, so it passes fewer than 48 of 50 with
    # probability 3.5e-4
    law = combinatorial_law(ArrayModel.deterministic())

    def passes(f, scale):
        count = 0
        for k in range(50):
            est = stein_identity_residual(f, law, 10**4, SeedSpec(61, (k,)), scale=scale)
            count += abs(est.mean) <= 3 * est.stderr
        return count

    assert passes(sin_cylinder(1, 1, dim=1), 1.0) >= 48
    # a miscaled law fails the rule; the control needs an even functional,
    # as A sin(scale D) has mean zero at every scale (D is symmetric)
    assert passes(cos_cylinder(1, 1, dim=1), 1.1) < 48


def test_solve_phi_constant_is_zero():
    law = combinatorial_law(ArrayModel.deterministic())
    g = linear_cylinder([1], [1], [0.0], dim=1)
    est, quad_err = solve_phi(g, np.zeros(1), law, inner_samples=2000, seed=SeedSpec(62))
    assert est.mean == 0.0
    assert quad_err == 0.0


def test_solve_phi_quadrature_refinement_within_error():
    law = combinatorial_law(ArrayModel.deterministic())
    g = sin_cylinder(1, 1, dim=1)
    x = step_argument(g, {F(1, 3): [0.9]})
    est64, err64 = solve_phi(g, x, law, 64, 4096, SeedSpec(63))
    est128, _ = solve_phi(g, x, law, 128, 4096, SeedSpec(63))
    assert abs(est128.mean - est64.mean) <= max(err64, 1e-12)


def test_phi_cylinder_matches_solve_phi():
    law = combinatorial_law(ArrayModel.deterministic())
    g = sin_cylinder(1, 1, dim=1)
    x = step_argument(g, {F(1, 3): [0.9]})
    est, _ = solve_phi(g, x, law, 64, 4096, SeedSpec(64))
    phi_hat = make_phi_cylinder(g, law, 64, 4096, SeedSpec(64, (9,)))
    # independent draws: agree within combined Monte Carlo resolution
    assert phi_hat.value_stacked(x) == pytest.approx(est.mean, abs=5 * est.stderr + 1e-3)


def test_stein_selfconsistency_small_n():
    law = combinatorial_law(ArrayModel.deterministic())
    g = sin_cylinder(1, 1, dim=1)
    x = step_argument(g, {F(1, 3): [0.5], F(2, 3): [-0.3]})
    report = stein_selfconsistency(g, x, law, seed=SeedSpec(65))
    assert report["pass"], report
    assert report["gap"] <= report["tolerance"]


def test_epsilon1_generic_zero_lambda():
    model = ArrayModel.deterministic()
    rng = SeedSpec(66).rng()

    def pair_sampler(r):
        y, y_prime, _ = comb_sample_pair(model, r)
        return y.values, y_prime.values

    est = epsilon1_pairs(pair_sampler, np.zeros_like, 1.0, 200, rng)
    assert est.mean == 0.0


def test_epsilon1_generic_matches_fast_combinatorial():
    model = ArrayModel.iid_gaussian(4)
    lam = (model.n - 1) / 4.0
    rng = SeedSpec(67).rng()

    def pair_sampler(r):
        y, y_prime, _ = comb_sample_pair(model, r)
        return y.values, y_prime.values

    slow = epsilon1_pairs(pair_sampler, lambda values: lam * values, 6.0, 3000, rng)
    fast = epsilon1_combinatorial(model, 6.0, 3000, SeedSpec(68))
    tol = 5 * math.hypot(slow.stderr, fast.stderr)
    assert abs(slow.mean - fast.mean) < tol


def test_epsilon1_graph_moment_bound():
    model = GraphModel(50, 0.5)
    est = epsilon1_graph(model, 6.0, 2 * 10**4, SeedSpec(69))
    # gnorm 6 cancels the 1/6: raw expectation <= 5/n
    assert est.mean + 3 * est.stderr <= 5.0 / 50


def test_epsilon1_combinatorial_moment_bound():
    model = ArrayModel.iid_gaussian(8)
    n = model.n
    est = epsilon1_combinatorial(model, 1.0, 4 * 10**4, SeedSpec(80))
    bound = (
        (1.0 / 6.0)
        * ((n - 1) / 4.0)
        * 32.0
        * float(model.abs3.sum())
        / (n**2 * n**1.5)
    )
    assert est.mean - 3 * est.stderr <= bound


def test_epsilon3_graph_exact_zero():
    est = epsilon3_estimate(GraphModel(6, 0.3), sin_cylinder(1, 1, dim=2), 100, SeedSpec(81))
    assert est.mean == 0.0 and est.m2 == 0.0


def test_epsilon3_combinatorial_doob_bound():
    model = ArrayModel.iid_gaussian(9)
    f = sin_cylinder(1, 1, dim=1)
    est = epsilon3_estimate(model, f, 4 * 10**4, SeedSpec(82))
    assert abs(est.mean) - 3 * est.stderr <= 2.0 / math.sqrt(model.n)


def test_epsilon3_rejects_unknown_model():
    with pytest.raises(TypeError):
        epsilon3_estimate(object(), sin_cylinder(1, 1, dim=1), 10, SeedSpec(83))


def test_epsilon1_generic_matches_fast_graph():
    from steinpaths.graph import GraphModel, apply_lambda_values, sample_pair

    model = GraphModel(4, 0.4)
    rng = SeedSpec(84).rng()

    def pair_sampler(r):
        y, y_prime, _ = sample_pair(model, r)
        return y.values, y_prime.values

    def lam_action(values):
        return apply_lambda_values(model, values)

    slow = epsilon1_pairs(pair_sampler, lam_action, 6.0, 2500, rng)
    fast = epsilon1_graph(model, 6.0, 2500, SeedSpec(85))
    tol = 5 * math.hypot(slow.stderr, fast.stderr)
    assert abs(slow.mean - fast.mean) < tol


def test_pair_swap_statistic_exchangeable():
    # an order-sensitive statistic of the pair has the same law under the
    # component swap: s(Y, Y') vs s(Y', Y)
    model = ArrayModel.iid_gaussian(4)
    rng = SeedSpec(86).rng()
    fwd, rev = [], []
    for _ in range(10**4):
        y, y_prime, _ = comb_sample_pair(model, rng)
        a = float(y.values[-1, 0])
        b = float(y_prime.values[-1, 0])
        fwd.append(a - 0.5 * abs(b))
        rev.append(b - 0.5 * abs(a))
    ef, er = from_values(np.array(fwd)), from_values(np.array(rev))
    assert abs(ef.mean - er.mean) < 5 * math.hypot(ef.stderr, er.stderr)
    ks_grid = np.sort(np.concatenate([fwd, rev]))
    fa = np.searchsorted(np.sort(fwd), ks_grid, side="right") / len(fwd)
    fb = np.searchsorted(np.sort(rev), ks_grid, side="right") / len(rev)
    assert float(np.abs(fa - fb).max()) < 1.95 * math.sqrt(2.0 / len(fwd))
