import inspect
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from steinpaths import combinatorial as comb
from steinpaths import graph as gr
from steinpaths import ou_stein as ou
from steinpaths.combinatorial import ArrayModel, double_center
from steinpaths.functionals import (
    CylinderFunctional,
    FunctionalError,
    UnsupportedFunctionalError,
    _LinearFormBase,
    cos_cylinder,
    linear_cylinder,
    parse_functional,
    sin_cylinder,
    tanh_product,
)
from steinpaths.graph import GraphModel
from steinpaths.mc import McEstimate, SeedSpec
from steinpaths.ou_stein import (
    TargetLaw,
    epsilon1_combinatorial,
    epsilon1_graph,
    epsilon3_estimate,
    family,
    stein_identity_residual,
    stein_solution,
)
from steinpaths.paths import time_rows

from oracles import from_values, stein_equation_residual, stein_solution_mc, validate_derivatives

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


def generator_at(f, x, law):
    """A f at the one stacked argument x, against the law's covariance."""
    return float(ou._generator_values(f, x[None], law.cov_matrix(f.times))[0])


def sup_norm(values):
    """Sup norms of grid paths from their (..., n+1, dim) values."""
    return np.linalg.norm(values, axis=-1).max(axis=-1)


def epsilon1_pairs(draw_pairs, model, lam, gnorm, samples, rng):
    """(|g|/6) E ||(Y-Y') Lambda|| ||Y-Y'||^2 over `samples` pairs from the
    family's kernel: each pair's two (n+1, dim) grid arrays share one
    grid, so Y - Y' is their difference."""
    _, y, y_prime, _ = draw_pairs(family(model), model, rng, samples, np.arange(model.n + 1))
    diff = y - y_prime
    return from_values(gnorm / 6.0 * sup_norm(diff @ lam) * sup_norm(diff) ** 2)


@pytest.mark.parametrize("model", [
    GraphModel(7, 0.3),
    ArrayModel.iid_gaussian(6),
    ArrayModel.deterministic(),
    ArrayModel.from_json_dict({"type": "array", "n": 3, "entries": [
        {"i": 1, "j": 1, "dist": "gaussian", "mean": 1.0, "var": 2.0},
        {"i": 1, "j": 2, "dist": "rademacher-shifted", "mean": -1.0, "scale": 0.5},
        {"i": 2, "j": 1, "dist": "two-point", "x1": 0.0, "p1": 0.5, "x2": -2.0},
        {"i": 2, "j": 2, "dist": "constant", "value": 1.0},
        {"i": 3, "j": 3, "dist": "gaussian", "var": 1.0},
    ]}),
], ids=["graph", "iid-gaussian", "deterministic", "entries"])
def test_target_law_is_the_family_functions(model):
    # TargetLaw(model) reads the model's own family module, bit for bit
    law = TargetLaw(model)
    times = [F(1, 3), F(1, 2), F(1)]
    rows = time_rows(model.n, times)
    fam = family(model)
    assert law.n == model.n
    got = law.sample_at(SeedSpec(70).rng(), 9, times)
    want = fam.sample_dn_values(model, SeedSpec(70).rng(), 9, rows)
    assert got.shape == (9, want[0].size) == (9, len(times) * fam.DIM)
    assert got.tobytes() == want.reshape(9, -1).tobytes()
    want_cov = fam.prelimit_cov(model, times)
    cov = law.cov_matrix(times)
    assert cov.shape == want_cov.shape and cov.tobytes() == want_cov.tobytes()


def test_law_cov_matches_sampler():
    for law in (TargetLaw(det5_model()), TargetLaw(GraphModel(5, 0.3))):
        times = [F(2, 5), F(1)]
        d = law.sample_at(SeedSpec(50).rng(), 4 * 10**4, times)
        cov = law.cov_matrix(times)
        kd = cov.shape[0]
        flat = d.reshape(d.shape[0], kd)
        for i in range(kd):
            for j in range(kd):
                est = from_values(flat[:, i] * flat[:, j])
                assert abs(est.mean - cov[i, j]) <= 5 * est.stderr + 1e-12


def test_generator_linear_functional():
    law = TargetLaw(GraphModel(4, 0.5))
    f = linear_cylinder([1, 2], [F(1, 2), F(1)], [2.0, -1.0], dim=2)
    x = step_argument(f, {F(1, 4): [0.3, 0.1], F(3, 4): [-0.2, 0.5]})
    grad = f.grad_stacked(x)
    assert generator_at(f, x, law) == pytest.approx(-float(grad @ x), abs=1e-14)


def test_generator_pure_trace_at_zero_path():
    # at w = 0 a cosine cylinder has zero gradient, so only the trace term
    law = TargetLaw(det5_model())
    f = cos_cylinder(1, 1, dim=1)
    x = np.zeros(f.n_args)
    expected = -1.0 * float(law.cov_matrix([F(1)])[0, 0])  # H = -cos(0) = -1
    assert generator_at(f, x, law) == pytest.approx(expected, abs=1e-14)


def test_generator_linearity_and_constant_invariance():
    # adding a constant leaves the generator unchanged; scaling a linear
    # base scales the generator
    law = TargetLaw(det5_model())
    jumps = {F(2, 5): [0.4], F(4, 5): [1.1]}
    f = linear_cylinder([1, 1], [F(2, 5), F(1)], [1.0, -0.5], dim=1)
    f3 = linear_cylinder([1, 1], [F(2, 5), F(1)], [3.0, -1.5], dim=1)
    x = step_argument(f, jumps)
    assert generator_at(f3, x, law) == pytest.approx(
        3.0 * generator_at(f, x, law), rel=1e-12
    )
    const = linear_cylinder([1], [F(1)], [0.0], dim=1)
    assert generator_at(const, step_argument(const, jumps), law) == 0.0


def test_generator_matches_semigroup_derivative():
    # Richardson finite difference of u -> T_u f(w) at u = 0, with common
    # random numbers across the two step sizes
    law = TargetLaw(det5_model())
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
    gen = generator_at(f, x, law)
    assert abs(richardson.mean - gen) < 5 * richardson.stderr + 0.01


def test_stein_identity_zero_for_gaussian_targets():
    funcs1 = [
        sin_cylinder(1, 1, dim=1),
        cos_cylinder(1, F(1, 2), dim=1),
        tanh_product([1, 1], [F(1, 2), F(1)], dim=1),
    ]
    law = TargetLaw(det5_model())
    for k, f in enumerate(funcs1):
        est = stein_identity_residual(f, law, 10**5, SeedSpec(56, (k,)))
        assert abs(est.mean) <= 3 * est.stderr
    funcs2 = [
        sin_cylinder(1, 1, dim=2),
        cos_cylinder(2, F(1, 2), dim=2),
        tanh_product([1, 2], [F(1, 2), F(1)], dim=2),
    ]
    law2 = TargetLaw(GraphModel(6, 0.3))
    for k, f in enumerate(funcs2):
        est = stein_identity_residual(f, law2, 10**5, SeedSpec(57, (k,)))
        assert abs(est.mean) <= 3 * est.stderr


def test_stein_identity_negative_control_detected():
    law = TargetLaw(det5_model())
    f = cos_cylinder(1, 1, dim=1)
    est = stein_identity_residual(f, law, 10**5, SeedSpec(58), scale=1.1)
    assert abs(est.mean) > 3 * est.stderr


def test_stein_identity_mixture_defect_is_real():
    # random-array targets are Gaussian mixtures; the unconditional-
    # covariance generator is biased for even functionals
    law = TargetLaw(ArrayModel.iid_gaussian(5))
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
    law = TargetLaw(ArrayModel.deterministic())

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


# the Stein solution: g12, a12 and the deterministic preset; D is Gaussian
# on g12 and on the preset, a Gaussian mixture on a12
STEIN_MODELS = {
    "g12": GraphModel(12, 0.3),
    "a12": ArrayModel.iid_gaussian(12),
    "deterministic": ArrayModel.deterministic(),
}


def linear_form_specs(dim):
    """One sin, one cos and one two-time weighted lin spec at dimension dim."""
    return ["sin:coord=1,t=1", "cos:coord=%d,t=1/2" % dim,
            "lin:coords=1,%d,t=1/2,1,w=2,-0.5" % dim]


def stein_cases(models, kinds=("sin", "cos", "lin")):
    return [pytest.param(models[name], spec, id="%s-%s" % (name, spec.split(":")[0]))
            for name in models
            for spec in linear_form_specs(family(models[name]).DIM)
            if spec.split(":")[0] in kinds]


def stein_setup(model, spec):
    """g, the covariance of its stacked evaluations and its closed-form phi."""
    g = parse_functional(spec, family(model).DIM)
    cov = TargetLaw(model).cov_matrix(g.times)
    return g, cov, stein_solution(g, cov)


def stein_points(g, cov, count, seed):
    """count points drawn from 2 N(0, cov), then one at a . x = 20, the
    edge of the closed form's documented domain."""
    a = g.base.a
    x = SeedSpec(seed).rng().multivariate_normal(np.zeros(g.n_args), 4.0 * cov, size=count)
    return np.vstack([x, 20.0 * a / (a @ a)])


@pytest.mark.parametrize("model, spec", stein_cases(STEIN_MODELS))
def test_stein_solution_residual_is_exact(model, spec):
    g, cov, phi = stein_setup(model, spec)
    assert (phi.dim, phi.times, phi.label) == (g.dim, g.times, "phi(%s)" % spec)
    x = stein_points(g, cov, 64, 90)
    assert abs(x[-1] @ g.base.a) == pytest.approx(20.0)
    assert stein_equation_residual(phi, g, x, cov).max() <= 1e-12


@pytest.mark.parametrize("model, spec", stein_cases(STEIN_MODELS, ("sin", "cos")))
def test_stein_solution_negative_controls(model, spec):
    # phi solved against 1.1 Sigma, and phi with F'' negated, each miss the
    # equation by far more than its 1e-12 bound (lin is immune to both:
    # its phi is -a.x at any Sigma, with F'' = 0)
    g, cov, phi = stein_setup(model, spec)
    x = stein_points(g, cov, 64, 91)[:-1]
    wide = stein_solution(g, 1.1 * cov)
    base = phi.base
    flipped = CylinderFunctional(g.dim, g.times, _LinearFormBase(
        base.a, (base.fn, base.dfn, lambda s: -base.d2fn(s)), None), "flipped")
    for wrong in (wide, flipped):
        assert stein_equation_residual(wrong, g, x, cov).max() > 1e-12


@pytest.mark.parametrize("model, spec", stein_cases(STEIN_MODELS))
def test_stein_solution_derivatives_validate(model, spec):
    _, _, phi = stein_setup(model, spec)
    validate_derivatives(phi, SeedSpec(92).rng(), trials=5)


@pytest.mark.parametrize("model, spec", stein_cases(
    {name: STEIN_MODELS[name] for name in ("g12", "deterministic")}, ("sin", "cos")))
def test_stein_solution_matches_monte_carlo_oracle(model, spec):
    # where D is Gaussian, phi, grad phi and hess phi are the Monte Carlo
    # semigroup integrals over frozen draws of D, entry by entry
    g, cov, phi = stein_setup(model, spec)
    d_flat = TargetLaw(model).sample_at(SeedSpec(93).rng(), 2**15, g.times)
    for x in stein_points(g, cov, 3, 94)[:-1]:
        want = np.concatenate([[phi.value_stacked(x)], phi.grad_stacked(x),
                               phi.hess_stacked(x).ravel()])
        for est, value in zip(stein_solution_mc(g, x, d_flat), want):
            assert abs(est.mean - value) <= 5 * est.stderr


@pytest.mark.parametrize("model, spec", stein_cases(STEIN_MODELS, ("lin",)))
def test_stein_solution_of_lin_is_minus_lin(model, spec):
    # for lin, f(vs) e(v) = vs, so phi = -a.x, grad phi = -a and hess phi = 0
    g, cov, phi = stein_setup(model, spec)
    x = stein_points(g, cov, 8, 95)
    assert phi.value_stacked(x) == pytest.approx(-g.value_stacked(x), rel=1e-14, abs=1e-14)
    assert phi.grad_stacked(x) == pytest.approx(-g.grad_stacked(x), rel=1e-14)
    assert not phi.hess_stacked(x).any()


def test_stein_solution_of_lin_at_an_overflowing_variance():
    # sigma^2 = a' Sigma a overflows to inf, yet lin's phi stays -a.x: its
    # kappa is 0, and 0 * inf would make every node NaN
    g = linear_cylinder([1], [1], [1e300], dim=1)
    phi = stein_solution(g, np.eye(1))
    x = np.array([[0.0], [1e-300], [-2e-300]])
    assert phi.value_stacked(x) == pytest.approx(-g.value_stacked(x), rel=1e-14)
    assert phi.grad_stacked(x) == pytest.approx(-g.grad_stacked(x), rel=1e-14)


def test_stein_solution_refusals():
    law = TargetLaw(GraphModel(6, 0.3))
    sin = sin_cylinder(1, 1, dim=2)
    phi = stein_solution(sin, law.cov_matrix(sin.times))
    tanh = tanh_product([1, 2], [F(1, 2), F(1)], dim=2)
    for g in (tanh, phi):  # no closed form: not a sin, cos or lin form
        with pytest.raises(UnsupportedFunctionalError):
            stein_solution(g, law.cov_matrix(g.times))
    for cov in (law.cov_matrix([F(1, 2), F(1)]), np.eye(1), np.zeros(2)):
        with pytest.raises(FunctionalError):
            stein_solution(sin, cov)


def test_epsilon1_generic_zero_lambda(draw_pairs):
    model = ArrayModel.deterministic()
    est = epsilon1_pairs(draw_pairs, model, np.zeros((1, 1)), 1.0, 200, SeedSpec(66).rng())
    assert est.mean == 0.0


def test_epsilon1_generic_matches_fast_combinatorial(draw_pairs):
    model = ArrayModel.iid_gaussian(4)
    lam = np.array([[(model.n - 1) / 4.0]])
    slow = epsilon1_pairs(draw_pairs, model, lam, 6.0, 3000, SeedSpec(67).rng())
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
    assert est == McEstimate(100, 0.0, 0.0)


def test_epsilon3_combinatorial_doob_bound():
    model = ArrayModel.iid_gaussian(9)
    f = sin_cylinder(1, 1, dim=1)
    est = epsilon3_estimate(model, f, 4 * 10**4, SeedSpec(82))
    assert abs(est.mean) - 3 * est.stderr <= 2.0 / math.sqrt(model.n)


def readme_contract():
    """name -> parameter names (None for a constant) of every entry in
    README's family-contract list, the bullets after "The contract:"."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    bullets = text.split("The contract:\n", 1)[1].split("\n\n", 1)[0]
    entries = {name: None for name in re.findall(r"`([A-Z][A-Z_]+)`", bullets)}
    for name, params in re.findall(r"`(\w+)\(([^)]*)\)`", bullets):
        entries[name] = params.split(", ")
    return entries


def test_family_contract():
    # family maps each model type to its module, which exports every name
    # of README's contract list with the parameters listed there; any other
    # type is refused, also where the epsilon estimators read the family
    assert family(GraphModel(6, 0.3)) is gr
    assert family(ArrayModel.iid_gaussian(4)) is comb
    contract = readme_contract()
    assert {"KIND", "DIM", "TOL_IDENTITIES", "bound_table",
            "covariance_identities", "increment_cov_check"} <= set(contract)
    assert len(contract) == 15, sorted(contract)
    for name, params in contract.items():
        assert name in gr.__all__ and name in comb.__all__, name
        graph_item, array_item = getattr(gr, name), getattr(comb, name)
        if params is None:
            assert type(graph_item) is type(array_item), name
            continue
        assert list(inspect.signature(graph_item).parameters) == params, name
        assert list(inspect.signature(array_item).parameters) == params, name
    assert (gr.KIND, gr.DIM) == ("graph", 2)
    assert (comb.KIND, comb.DIM) == ("array", 1)
    for other in (object(), None, "graph", gr):
        with pytest.raises(TypeError):
            family(other)
        with pytest.raises(TypeError):
            epsilon3_estimate(other, sin_cylinder(1, 1, dim=1), 10, SeedSpec(83))
        with pytest.raises(TypeError):
            TargetLaw(other).cov_matrix([F(1)])


def test_epsilon1_generic_matches_fast_graph(draw_pairs):
    model = GraphModel(4, 0.4)
    lam = gr.lambda_matrix(model)
    slow = epsilon1_pairs(draw_pairs, model, lam, 6.0, 2500, SeedSpec(84).rng())
    fast = epsilon1_graph(model, 6.0, 2500, SeedSpec(85))
    tol = 5 * math.hypot(slow.stderr, fast.stderr)
    assert abs(slow.mean - fast.mean) < tol


def test_pair_swap_statistic_exchangeable(draw_pairs):
    # an order-sensitive statistic of the pair has the same law under the
    # component swap: s(Y, Y') vs s(Y', Y)
    model = ArrayModel.iid_gaussian(4)
    _, y, y_prime, _ = draw_pairs(comb, model, SeedSpec(86).rng(), 10**4, [model.n])
    a, b = y[:, 0, 0], y_prime[:, 0, 0]
    fwd, rev = a - 0.5 * np.abs(b), b - 0.5 * np.abs(a)
    ef, er = from_values(fwd), from_values(rev)
    assert abs(ef.mean - er.mean) < 5 * math.hypot(ef.stderr, er.stderr)
    ks_grid = np.sort(np.concatenate([fwd, rev]))
    fa = np.searchsorted(np.sort(fwd), ks_grid, side="right") / len(fwd)
    fb = np.searchsorted(np.sort(rev), ks_grid, side="right") / len(rev)
    assert float(np.abs(fa - fb).max()) < 1.95 * math.sqrt(2.0 / len(fwd))
