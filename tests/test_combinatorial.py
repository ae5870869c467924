import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from steinpaths.combinatorial import (
    MEMORY_BUDGET,
    ArrayModel,
    CombinatorialRealization,
    DegenerateModelError,
    ModelError,
    _five_index_sum_factorized,
    _five_index_sum_naive,
    apply_swap,
    assumption_diagnostic,
    bound_beta3,
    bound_prelimit_distance,
    bound_prelimit_distance_report,
    constant_entry,
    cov_d,
    cov_d_grid,
    double_center,
    eps3_values,
    gaussian_entry,
    pair_norm_stats,
    rademacher_entry,
    regression_residual,
    regression_residuals,
    s_n_squared,
    sample_dn_values,
    sample_pair,
    sample_trials,
    sample_y,
    sample_y_values,
    sample_zhat_values,
    two_point_entry,
    zhat_cov,
    zhat_cov_matrix,
)
from steinpaths.functionals import certified_library, linear_cylinder, sin_cylinder
from steinpaths.mc import SeedSpec, from_values, mc_run_vector

F = Fraction


def det3():
    return ArrayModel.deterministic()


def rng_for(label: int):
    return SeedSpec(90, (label,)).rng()


# -- entry moments ----------------------------------------------------------


def test_gaussian_abs_moments_match_quadrature():
    # independent oracle: composite Gauss-Legendre of x^k (phi(x)+phi(-x))
    # on [0, R]; the integrand is analytic there (the |x| kink sits at 0)
    nodes, weights = np.polynomial.legendre.leggauss(40)

    def abs_moment(mean, sd, k):
        r = abs(mean) + 14 * sd
        total = 0.0
        panels = np.linspace(0.0, r, 41)
        for lo, hi in zip(panels, panels[1:]):
            x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            pdf = (
                np.exp(-0.5 * ((x - mean) / sd) ** 2)
                + np.exp(-0.5 * ((x + mean) / sd) ** 2)
            ) / (sd * math.sqrt(2 * math.pi))
            total += 0.5 * (hi - lo) * float(weights @ (x**k * pdf))
        return total

    for mean, var in [(0.0, 1.0), (0.7, 2.3), (-1.4, 0.5)]:
        e = gaussian_entry(mean, var)
        sd = math.sqrt(var)
        assert e.abs1 == pytest.approx(abs_moment(mean, sd, 1), rel=1e-10)
        assert e.abs3 == pytest.approx(abs_moment(mean, sd, 3), rel=1e-10)


def test_two_point_and_rademacher_moments():
    e = two_point_entry(2.0, 0.25, -1.0)
    assert e.mean == pytest.approx(0.25 * 2 - 0.75)
    assert e.abs3 == pytest.approx(0.25 * 8 + 0.75 * 1)
    r = rademacher_entry(0.5, 2.0)
    assert r.var == 4.0
    assert r.abs1 == pytest.approx(0.5 * (2.5 + 1.5))


# -- s_n^2 ------------------------------------------------------------------


def test_s_n_squared_deterministic_matches_enumeration():
    model = det3()
    # oracle: variance of sum X_{i,pi(i)} over all 6 permutations
    c = np.array(model.c)
    sums = [sum(c[i, p[i]] for i in range(3)) for p in itertools.permutations(range(3))]
    assert float(np.var(sums)) == pytest.approx(2.0)
    assert s_n_squared(model) == pytest.approx(2.0)


def test_s_n_squared_iid_gaussian_is_n():
    for n in (2, 5, 9):
        assert s_n_squared(ArrayModel.iid_gaussian(n)) == pytest.approx(n)


def test_s_n_squared_mc_oracle_mixed_model():
    n = 5
    rng = rng_for(1)
    grid = [[gaussian_entry(0.0, 0.5 + ((i + j) % 3)) for j in range(n)] for i in range(n)]
    model = ArrayModel.from_entries(grid)
    vals = sample_y_values(model, rng, 10**5)[:, -1] * model.s_n
    est = from_values(vals**2)
    assert abs(est.mean - s_n_squared(model)) < 4 * est.stderr


def test_s_n_is_stored_at_construction():
    for model in (det3(), ArrayModel.iid_gaussian(7), _mixed_5x5()):
        assert model.s_n == math.sqrt(s_n_squared(model))
        assert "s_n" in vars(model)


@pytest.mark.parametrize("field", ["mean", "var"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_moments_rejected(field, bad):
    entry = {"i": 1, "j": 1, "dist": "gaussian", "mean": 0.0, "var": 1.0, field: bad}
    with pytest.raises(ModelError):
        ArrayModel.from_json_dict({"type": "array", "n": 2, "entries": [entry]})


def test_degenerate_model_rejected():
    with pytest.raises(DegenerateModelError):
        ArrayModel.deterministic(np.zeros((3, 3)))


def test_uncentered_means_rejected():
    with pytest.raises(ModelError):
        ArrayModel.deterministic([[1.0, 0.0], [0.0, 1.0]])


def test_validate_accepts_double_center_at_large_scale():
    # the row/column-mean check is relative to max |c|, so the package's own
    # centering helper passes at any magnitude
    for n in (16, 64, 128):
        c = double_center(1e6 * rng_for(40 + n).standard_normal((n, n)))
        assert ArrayModel.deterministic(c).n == n


def test_validate_rejects_small_offset_at_large_scale():
    for n in (16, 64, 128):
        c = double_center(1e6 * rng_for(40 + n).standard_normal((n, n)))
        c[0] += 1e-6 * np.abs(c).max()  # row 0 mean off by 1e-6 max|c|
        with pytest.raises(ModelError):
            ArrayModel.deterministic(c)


def test_double_center_fixes_means():
    rng = rng_for(2)
    m = double_center(rng.standard_normal((4, 4)))
    model = ArrayModel.deterministic(m)
    assert np.abs(model.c.mean(axis=0)).max() < 1e-12
    assert np.abs(model.c.mean(axis=1)).max() < 1e-12


# -- sampling ---------------------------------------------------------------


def test_sample_y_endpoint_and_breakpoints():
    model = ArrayModel.iid_gaussian(4)
    real = sample_y(model, rng_for(3))
    picks = real.x[np.arange(4), real.pi]
    assert real.values.shape == (5, 1) and real.values[0, 0] == 0.0
    assert real.values[-1, 0] == pytest.approx(picks.sum() / model.s_n)


def test_sample_y_unit_variance_at_one():
    model = ArrayModel.iid_gaussian(6)
    vals = sample_y_values(model, rng_for(4), 10**5)[:, -1]
    est = from_values(vals**2)
    assert abs(est.mean - 1.0) < 4 * est.stderr


def test_pair_sup_norm_bound():
    model = ArrayModel.iid_gaussian(5)
    rng = rng_for(5)
    for _ in range(50):
        y, y_prime, (i, j) = sample_pair(model, rng)
        diff = y.values - y_prime.values
        lhs = float(np.abs(diff).max())
        s = model.s_n
        bound = (
            2.0
            / s
            * (
                abs(y.x[i - 1, y.pi[i - 1]])
                + abs(y.x[j - 1, y.pi[j - 1]])
                + abs(y.x[i - 1, y.pi[j - 1]])
                + abs(y.x[j - 1, y.pi[i - 1]])
            )
        )
        assert lhs <= bound + 1e-12


def test_pair_swap_twice_restores():
    model = det3()
    y, y_prime, (i, j) = sample_pair(model, rng_for(6))
    back = apply_swap(y_prime, i, j)
    assert np.array_equal(back.pi, y.pi)
    assert np.allclose(back.values, y.values)


def test_pair_exchangeable_ks():
    model = ArrayModel.iid_gaussian(4)
    rng = rng_for(7)
    n_samp = 20000
    a = np.empty(n_samp)
    b = np.empty(n_samp)
    for s in range(n_samp // 1000):
        for t in range(1000):
            y, y_prime, _ = sample_pair(model, rng)
            a[s * 1000 + t] = y.values[-1, 0]
            b[s * 1000 + t] = y_prime.values[-1, 0]
    # two-sample KS statistic below the alpha=0.001 critical value
    grid = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), grid, side="right") / n_samp
    fb = np.searchsorted(np.sort(b), grid, side="right") / n_samp
    ks = float(np.abs(fa - fb).max())
    assert ks < 1.95 * math.sqrt(2.0 / n_samp)


# -- regression identity ----------------------------------------------------


def test_regression_residual_deterministic_linear():
    real = sample_y(det3(), rng_for(8))
    f = linear_cylinder([1], [1], None, dim=1)
    assert regression_residual(real, f) < 1e-12


def test_regression_residual_constant_functional():
    real = sample_y(det3(), rng_for(9))
    f = linear_cylinder([1], [1], [0.0], dim=1)
    assert regression_residual(real, f) == 0.0


def test_regression_residual_gaussian_sin():
    model = ArrayModel.iid_gaussian(6)
    f = sin_cylinder(1, 1, dim=1)
    for k in range(5):
        real = sample_y(model, SeedSpec(91, (k,)).rng())
        assert regression_residual(real, f) < 1e-10


@pytest.mark.parametrize("name", ["iid-gaussian", "deterministic", "mixed-5x5"])
def test_stacked_trials_match_single_trials(name):
    # stacked draws are the per-trial draws bit for bit, and each trial's
    # batched residual is its one-trial residual
    model = {
        "iid-gaussian": ArrayModel.iid_gaussian(5),
        "deterministic": ArrayModel.deterministic(centered_5x5()),
        "mixed-5x5": _mixed_5x5(),
    }[name]
    funcs = certified_library(1)
    stack = sample_trials(model, [SeedSpec(92, (t,)).rng() for t in range(6)])
    assert stack.x.shape == (6, 5, 5) and stack.values.shape == (6, 6, 1)
    batched = regression_residuals(stack, funcs)
    assert batched.shape == (len(funcs), 6)
    assert batched.max() < 1e-14
    for t in range(6):
        real = sample_y(model, SeedSpec(92, (t,)).rng())
        assert np.array_equal(real.x, stack.x[t]) and np.array_equal(real.pi, stack.pi[t])
        assert np.array_equal(real.values, stack.values[t])
        for a, f in enumerate(funcs):
            assert abs(regression_residual(real, f) - batched[a, t]) <= 1e-15
    one = CombinatorialRealization(model, stack.x[:1], stack.pi[:1], stack.values[:1])
    assert np.array_equal(regression_residuals(one, funcs)[:, 0], batched[:, 0])


def centered_5x5():
    return double_center(np.arange(25.0).reshape(5, 5) ** 1.3)


# -- pre-limit covariances --------------------------------------------------


def test_zhat_cov_iid_diagonal_one():
    model = ArrayModel.iid_gaussian(5)
    assert zhat_cov(model, 2, 2) == pytest.approx(1.0)
    zhat = sample_zhat_values(model, rng_for(10), 10**5)
    est = from_values(zhat[:, 1] ** 2)
    assert abs(est.mean - 1.0) < 4 * est.stderr


def test_zhat_cov_zero_offdiag_for_centered_random():
    model = ArrayModel.iid_gaussian(4)
    assert zhat_cov(model, 1, 3) == 0.0


def test_zhat_cov_deterministic_value():
    model = det3()
    assert zhat_cov(model, 1, 2) == pytest.approx(1.0 / 3.0)
    zhat = sample_zhat_values(model, rng_for(11), 10**5)
    est = from_values(zhat[:, 0] * zhat[:, 1])
    assert abs(est.mean - 1.0 / 3.0) < 4 * est.stderr


def test_zhat_cov_matrix_consistent():
    model = det3()
    zc = zhat_cov_matrix(model)
    for i in range(3):
        for j in range(3):
            assert zc[i, j] == pytest.approx(zhat_cov(model, i + 1, j + 1))


def test_dn_mean_zero_and_breakpoints():
    model = ArrayModel.iid_gaussian(4)
    vals = sample_dn_values(model, rng_for(12), 10**4)
    est = from_values(vals[:, 2])
    assert abs(est.mean) < 4 * est.stderr


def test_dn_values_leave_numpy_ma_unimported():
    # np.unique without a return_* flag imports numpy.ma, 10-15 ms in a
    # fresh process; the D_n sampler finds its distinct rows without it
    code = (
        "import sys, numpy as np\n"
        "from steinpaths import combinatorial as comb\n"
        "model = comb.ArrayModel.iid_gaussian(6)\n"
        "for cuts in ([0, 4, 2, 4, 6], [], [0]):\n"
        "    vals = comb.sample_dn_values(model, np.random.default_rng(0), 3, cuts)\n"
        "    assert vals.shape == (3, len(cuts))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"


def test_cov_d_grid_sums_the_index_boxes():
    # each entry is the box sum of one Zhat covariance matrix over s_n^2,
    # bit for bit as the one-pair form cov_d
    for model in (det3(), _mixed_5x5(), ArrayModel.iid_rademacher(6)):
        n = model.n
        zc, s2 = zhat_cov_matrix(model), s_n_squared(model)
        ss, ts = [F(1, 3), F(1, 2), F(1)], [F(0), F(2, 3), F(1)]
        grid = cov_d_grid(model, ss, ts)
        assert grid.shape == (3, 3)
        for a, s in enumerate(ss):
            for b, t in enumerate(ts):
                box = float(zc[: int(n * s), : int(n * t)].sum()) / s2
                assert grid[a, b] == box == cov_d(model, s, t)
    assert cov_d_grid(det3(), [], [F(1)]).shape == (0, 1)


def test_dn_grid_covariance_matches_closed_form():
    model = det3()
    vals = sample_dn_values(model, rng_for(14), 10**5)
    s, t = F(1, 3), F(1)
    prod = vals[:, 1] * vals[:, 3]
    est = from_values(prod)
    assert abs(est.mean - cov_d(model, s, t)) < 4 * est.stderr


# -- epsilon statistics ------------------------------------------------------


def test_pair_norm_stats_match_object_layer():
    model = ArrayModel.iid_gaussian(4)
    fast = from_values(pair_norm_stats(model, rng_for(15), 4000))
    slow_vals = []
    rng = rng_for(16)
    for _ in range(4000):
        y, y_prime, _ = sample_pair(model, rng)
        diff = np.abs(y.values - y_prime.values).max()
        slow_vals.append((model.n - 1) / 4.0 * diff**3)
    slow = from_values(np.array(slow_vals))
    tol = 5 * math.hypot(fast.stderr, slow.stderr)
    assert abs(fast.mean - slow.mean) < tol


def test_eps3_zero_for_deterministic_zero_rowsums():
    f = linear_cylinder([1], [1], None, dim=1)
    vals = eps3_values(det3(), f, rng_for(17), 200)
    assert np.all(vals == 0.0)


# -- bounds -----------------------------------------------------------------


def _random_moment_model(n, seed):
    rng = SeedSpec(92, (seed,)).rng()
    c = double_center(rng.standard_normal((n, n)))
    grid = [
        [gaussian_entry(c[i, j], 0.3 + rng.random()) for j in range(n)]
        for i in range(n)
    ]
    return ArrayModel.from_entries(grid)


def test_bound_factorized_equals_naive():
    for seed, n in [(0, 4), (1, 5)]:
        model = _random_moment_model(n, seed)
        fast = _five_index_sum_factorized(model)
        slow = _five_index_sum_naive(model)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_bound_zero_gnorm():
    assert bound_prelimit_distance(det3(), 0.0) == 0.0


def test_bound_iid_normal_matches_independent_formula():
    # for iid N(0,1): per-tuple summand collapses to 31 a + 30 a^3 with
    # a = E|X| = sqrt(2/pi); independent re-derivation of the bound value
    n = 10
    model = ArrayModel.iid_gaussian(n)
    a = math.sqrt(2.0 / math.pi)
    expected = (
        math.sqrt(n) * (31.0 * a + 30.0 * a**3) / (n - 1)
        + 2.0 / math.sqrt(n)
        + 4.0 / 3.0
    )
    assert bound_prelimit_distance(model, 1.0) == pytest.approx(expected, rel=1e-12)
    assert _five_index_sum_naive(model) == pytest.approx(
        _five_index_sum_factorized(model), rel=1e-9
    )


def test_bound_row_permutation_invariance():
    model = _random_moment_model(5, 3)
    perm = [3, 0, 4, 1, 2]
    permuted = ArrayModel(model.table, model.index[perm])
    assert bound_prelimit_distance(model, 1.0) == pytest.approx(
        bound_prelimit_distance(permuted, 1.0), rel=1e-12
    )


def test_bound_report_third_moment_variant():
    model = ArrayModel.iid_gaussian(8)
    rep = bound_prelimit_distance_report(model, 1.0)
    n = 8
    assert rep["final_term_variance"] == pytest.approx(4.0 / 3.0)
    expected_third = 4.0 * n**2 * 2.0 * math.sqrt(2 / math.pi) / (3 * n * n**1.5)
    assert rep["final_term_third_moment"] == pytest.approx(expected_third, rel=1e-12)
    assert rep["total"] == pytest.approx(
        rep["five_index_term"] + rep["sqrt_term"] + rep["final_term_variance"]
    )


def test_bound_beta3_frozen_value():
    # n=100, s^2=100, beta3=1.6, c=0, sum sigma^2 = 1e4, gnorm=1
    val = bound_beta3(100, 10.0, 1.6, np.zeros((100, 100)), 1e4, 1.0)
    assert val == pytest.approx(5399.0 / 495.0, rel=1e-12)  # ~10.907


def test_bound_beta3_c_zero_kills_second_term():
    base = bound_beta3(10, 3.0, 2.0, np.zeros((10, 10)), 90.0, 1.0)
    with_c = bound_beta3(10, 3.0, 2.0, np.ones((10, 10)), 90.0, 1.0)
    assert with_c > base
    manual = 8.0 * 2.0 ** (1 / 3) * 10.0**3 / (10 * 9 * 27.0)
    assert with_c - base == pytest.approx(manual, rel=1e-12)


def test_bound_beta3_linear_in_gnorm():
    one = bound_beta3(20, 4.0, 1.0, np.zeros((20, 20)), 100.0, 1.0)
    two = bound_beta3(20, 4.0, 1.0, np.zeros((20, 20)), 100.0, 2.0)
    assert two == pytest.approx(2 * one, rel=1e-14)


# -- diagnostics -------------------------------------------------------------


def test_assumption_diagnostic_iid():
    model = ArrayModel.iid_gaussian(4)
    rows = assumption_diagnostic(model, [F(0), F(1, 2), F(1)])
    table = {(r["t"], r["u"]): r for r in rows}
    assert table[("1", "1")]["assumption1"] == pytest.approx(1.0)
    assert table[("0", "1")]["assumption1"] == 0.0
    assert table[("0", "1")]["assumption2"] == 0.0
    for t, u in [("1/2", "1"), ("0", "1/2")]:
        assert table[(t, u)]["assumption1"] == pytest.approx(
            table[(u, t)]["assumption1"]
        )
        assert table[(t, u)]["assumption2"] == pytest.approx(
            table[(u, t)]["assumption2"]
        )


def test_assumption_diagnostic_matches_direct_sum():
    model = det3()
    n = 3
    rows = assumption_diagnostic(model, [F(1, 3), F(1)])
    table = {(r["t"], r["u"]): r for r in rows}
    b2 = model.abs2
    c = model.c
    s2 = s_n_squared(model)
    for t, u in [(F(1, 3), F(1)), (F(1), F(1))]:
        kt, ku = int(3 * t), int(3 * u)
        # delta_ij - 1/n multiplies E[X_ik X_jk]; diagonal uses second moments
        lhs1 = sum(
            (b2[i, k] * (1 - 1 / n) if i == j else -c[i, k] * c[j, k] / n)
            for i in range(kt)
            for j in range(ku)
            for k in range(n)
        ) / (s2 * (n - 1))
        lhs2 = sum(
            (b2[i, l] if i == j else c[i, l] * c[j, l])
            for i in range(kt)
            for j in range(ku)
            for l in range(n)
        ) / s2
        row = table[(str(t), str(u))]
        assert row["assumption1"] == pytest.approx(lhs1, rel=1e-12)
        assert row["assumption2"] == pytest.approx(lhs2, rel=1e-12)


# -- json loading ------------------------------------------------------------


def test_model_from_json_presets():
    m = ArrayModel.from_json_dict({"preset": "iid-gaussian", "n": 4})
    assert m.n == 4 and s_n_squared(m) == pytest.approx(4.0)
    d = ArrayModel.from_json_dict({"preset": "deterministic"})
    assert d.n == 3 and s_n_squared(d) == pytest.approx(2.0)


def test_model_from_json_entries():
    spec = {
        "n": 2,
        "entries": [
            {"i": 1, "j": 1, "dist": "gaussian", "var": 1.0},
            {"i": 1, "j": 2, "dist": "gaussian", "var": 1.0},
            {"i": 2, "j": 1, "dist": "rademacher-shifted", "scale": 1.0},
            {"i": 2, "j": 2, "dist": "two-point", "x1": 1.0, "p1": 0.5, "x2": -1.0},
        ],
    }
    m = ArrayModel.from_json_dict(spec)
    assert s_n_squared(m) == pytest.approx(2.0)
    with pytest.raises(ModelError):
        ArrayModel.from_json_dict({"preset": "bogus"})


# -- law table and index ---------------------------------------------------

_LAW_ARRAYS = ("c", "sigma2", "abs1", "abs2", "abs3",
               "_gc", "_gvar", "_gsd", "_q", "_lo", "_hi", "_run_start")


def _entrywise_laws(grid):
    """The law arrays read entry by entry off a grid of EntrySpecs, with the
    sampler split written out on (n, n) arrays."""
    def get(name):
        return np.array([[getattr(e, name) for e in row] for row in grid])

    family, c, sigma2, p0, p1, p2 = (get(k) for k in ("family", "mean", "var", "p0", "p1", "p2"))
    rad, two = family == 2, family == 3
    discrete = rad | two
    laws = {
        "family": family, "c": c, "sigma2": sigma2, "abs1": get("abs1"),
        "abs2": sigma2 + c**2, "abs3": get("abs3"),
        "_gc": np.where(discrete, 0.0, c),
        "_gvar": np.where(discrete, 0.0, sigma2),
        "_gsd": np.where(family == 1, p1, 0.0),
        "_q": np.where(rad, 0.5, np.where(two, p1, 0.0)),
        "_lo": np.where(rad, p0 - p1, np.where(two, p0, 0.0)),
        "_hi": np.where(rad, p0 + p1, np.where(two, p2, 0.0)),
    }
    law = np.stack([laws[k] for k in ("_gc", "_gvar", "_q", "_lo", "_hi")])
    laws["_run_start"] = np.concatenate(
        [[True], (law[:, 1:] != law[:, :-1]).any(axis=(0, 2))]
    )
    return laws


def _json_8x8():
    # all four families and a repeated law, on rows and columns with zero means
    return {"n": 8, "entries": [
        {"i": 1, "j": 1, "dist": "gaussian", "mean": 0.5, "var": 2.0},
        {"i": 1, "j": 2, "dist": "constant", "value": -0.5},
        {"i": 2, "j": 1, "dist": "rademacher-shifted", "mean": -0.5, "scale": 1.5},
        {"i": 2, "j": 2, "dist": "two-point", "x1": 2.0, "p1": 0.25, "x2": 0.0},
        {"i": 5, "j": 7, "dist": "gaussian", "var": 1.0},
        {"i": 6, "j": 7, "dist": "gaussian", "var": 1.0},
        {"i": 8, "j": 3, "dist": "two-point", "x1": 2.0, "p1": 1 / 3, "x2": -1.0},
    ]}


def test_law_arrays_match_entry_grid_bit_for_bit():
    n = 8
    c = double_center(rng_for(130).standard_normal((n, n)))
    json_grid = [[constant_entry(0.0)] * n for _ in range(n)]
    json_grid[0][:2] = [gaussian_entry(0.5, 2.0), constant_entry(-0.5)]
    json_grid[1][:2] = [rademacher_entry(-0.5, 1.5), two_point_entry(2.0, 0.25, 0.0)]
    json_grid[4][6] = json_grid[5][6] = gaussian_entry(0.0, 1.0)
    json_grid[7][2] = two_point_entry(2.0, 1 / 3, -1.0)
    # distinct entries with one sampler law: the index changes between rows
    # 0 and 1, and 2 and 3, but a run starts only at row 3
    rad, two = rademacher_entry(0.0, 1.0), two_point_entry(-1.0, 0.5, 1.0)
    same_laws = [[rad] * 4, [two] * 4, [two] * 4, [rademacher_entry(0.0, 2.0)] * 4]
    cases = [
        (ArrayModel.iid_gaussian(n), [[gaussian_entry(0.0, 1.0)] * n] * n),
        (ArrayModel.iid_rademacher(n, 1.5), [[rademacher_entry(0.0, 1.5)] * n] * n),
        (ArrayModel.deterministic(c), [[constant_entry(v) for v in row] for row in c]),
        (ArrayModel.from_json_dict(_json_8x8()), json_grid),
        (_mixed_5x5(), _mixed_5x5_grid()),
        (ArrayModel.from_entries(same_laws), same_laws),
    ]
    for idx, (model, grid) in enumerate(cases):
        table = ArrayModel.from_entries(grid)
        oracle = _entrywise_laws(grid)
        for name in _LAW_ARRAYS:
            for other in (getattr(table, name), oracle[name]):
                got = getattr(model, name)
                assert got.dtype == other.dtype and got.shape == other.shape, (idx, name)
                assert got.tobytes() == other.tobytes(), (idx, name)
        assert model._has_gauss == table._has_gauss == bool((oracle["family"] == 1).any())
        assert model._has_discrete == table._has_discrete == bool((oracle["family"] >= 2).any())
        assert len(table.table) == len(set(table.table))
        assert [table.table[k] for k in table.index.reshape(-1)] == [e for row in grid for e in row]
    assert cases[-1][0]._run_start.tolist() == [True, False, False, True]


def test_law_tables_stay_small_at_n1024():
    n = 1024
    model = ArrayModel.iid_gaussian(n)
    assert model.table == (gaussian_entry(0.0, 1.0),) and model.index.shape == (n, n)
    listed = [
        {"i": 1, "j": 1, "dist": "gaussian", "var": 1.0},
        {"i": 7, "j": 300, "dist": "gaussian", "var": 2.0},
        {"i": 512, "j": 2, "dist": "rademacher-shifted", "scale": 0.5},
        {"i": 1024, "j": 1024, "dist": "two-point", "x1": 2.0, "p1": 1 / 3, "x2": -1.0},
    ]
    sparse = ArrayModel.from_json_dict({"n": n, "entries": listed})
    assert len(sparse.table) == len(listed) + 1
    assert np.count_nonzero(sparse.index) == len(listed)
    assert sparse.sigma2[6, 299] == 2.0 and sparse.sigma2.sum() == 1.0 + 2.0 + 0.25 + 2.0


def test_model_index_rejects_bad_shapes_and_rows():
    e = gaussian_entry(0.0, 1.0)
    for table, index in [([e], np.zeros((2, 3), int)), ([e], [[0]]), ([e], [[0, 1], [0, 0]]),
                         ([e], [[0, -1], [0, 0]])]:
        with pytest.raises(ModelError):
            ArrayModel(table, index)
    with pytest.raises(ValueError):
        ArrayModel.from_entries([[e, e], [e]])
    for i, j in [(0, 1), (3, 1), (1, -1)]:
        with pytest.raises(ModelError):
            ArrayModel.from_json_dict({"n": 2, "entries": [
                {"i": i, "j": j, "dist": "gaussian", "var": 1.0}]})


# -- cross-validation of the sampler layers -----------------------------------


def test_y_and_prelimit_share_covariance():
    # Cov(Y(s), Y(t)) equals the pre-limit covariance exactly in this
    # family: the diagonal picks give (1/n) sum_l E X_il^2 and the
    # off-diagonal picks give -(1/(n(n-1))) sum_k c_ik c_jk, the same
    # closed forms as the Zhat covariances
    model = det3()
    vals = sample_y_values(model, rng_for(30), 2 * 10**5)
    for ks, kt in [(1, 3), (2, 2), (1, 2)]:
        est = from_values(vals[:, ks] * vals[:, kt])
        closed = cov_d(model, F(ks, 3), F(kt, 3))
        assert abs(est.mean - closed) < 4 * est.stderr


def test_deterministic_means_match_exact_enumeration():
    # with X = c deterministic, Y is uniform over the n! permutations, so
    # E g(Y) is a finite average; D_n is then exactly Gaussian, so
    # E cos D(t) = exp(-Var D(t) / 2) and E sin D(t) = 0
    n = 6
    model = ArrayModel.deterministic(double_center(rng_for(40).standard_normal((n, n))))
    cuts = [1, 3, 4, 6]
    perms = np.array(list(itertools.permutations(range(n))))
    y = np.cumsum(model.c[np.arange(n), perms], axis=1)[:, np.array(cuts) - 1] / model.s_n
    exact_y = np.concatenate([np.cos(y).mean(axis=0), np.sin(y).mean(axis=0)])
    var_d = np.array([cov_d(model, F(k, n), F(k, n)) for k in cuts])
    assert np.allclose((y**2).mean(axis=0), var_d, rtol=1e-12, atol=0)
    exact_d = np.concatenate([np.exp(-var_d / 2), np.zeros(len(cuts))])

    for label, (sampler, exact) in enumerate(
        [(sample_y_values, exact_y), (sample_dn_values, exact_d)]
    ):
        def cos_sin(rng, size):
            v = sampler(model, rng, size, cuts)
            return np.concatenate([np.cos(v), np.sin(v)], axis=1)

        ests = mc_run_vector(cos_sin, 10**5, SeedSpec(41, (label,)))
        for est, value in zip(ests, exact):
            assert abs(est.mean - value) <= 5 * est.stderr


def test_mixed_family_sampler_moments():
    spec = {
        "n": 2,
        "entries": [
            {"i": 1, "j": 1, "dist": "gaussian", "mean": 0.5, "var": 2.0},
            {"i": 1, "j": 2, "dist": "constant", "value": -0.5},
            {"i": 2, "j": 1, "dist": "rademacher-shifted", "mean": -0.5, "scale": 1.5},
            {"i": 2, "j": 2, "dist": "two-point", "x1": 2.0, "p1": 0.25, "x2": 0.0},
        ],
    }
    model = ArrayModel.from_json_dict(spec)
    from steinpaths.combinatorial import _sample_full

    x = _sample_full(model, rng_for(31), 10**5)
    for i in range(2):
        for j in range(2):
            mean = from_values(x[:, i, j])
            assert abs(mean.mean - model.c[i, j]) <= 4 * mean.stderr + 1e-12
            absm = from_values(np.abs(x[:, i, j]))
            assert abs(absm.mean - model.abs1[i, j]) <= 4 * absm.stderr + 1e-12
            cube = from_values(np.abs(x[:, i, j]) ** 3)
            assert abs(cube.mean - model.abs3[i, j]) <= 4 * cube.stderr + 1e-12


def test_eps3_linear_endpoint_statistic():
    # for the linear end-point functional the remainder draw collapses to
    # sum(X) / (n s_n), so its variance is sum sigma^2 / (n s_n)^2
    model = ArrayModel.iid_gaussian(6)
    f = linear_cylinder([1], [1], None, dim=1)
    vals = eps3_values(model, f, rng_for(32), 10**5)
    est = from_values(vals**2)
    expected = float(model.sigma2.sum()) / (model.n * model.s_n) ** 2
    assert abs(est.mean - expected) < 4 * est.stderr


# -- cut-aware, family-aware, memory-bounded samplers -------------------------


def _mixed_2x2():
    return ArrayModel.from_json_dict(
        {
            "n": 2,
            "entries": [
                {"i": 1, "j": 1, "dist": "gaussian", "mean": 0.5, "var": 2.0},
                {"i": 1, "j": 2, "dist": "constant", "value": -0.5},
                {"i": 2, "j": 1, "dist": "rademacher-shifted", "mean": -0.5,
                 "scale": 1.5},
                {"i": 2, "j": 2, "dist": "two-point", "x1": 2.0, "p1": 0.25,
                 "x2": 0.0},
            ],
        }
    )


def _mixed_5x5_grid():
    # all four families, cycling over the entries, around double-centred means
    n = 5
    c = double_center(SeedSpec(93).rng().standard_normal((n, n)))
    makers = (
        lambda m: gaussian_entry(m, 0.7),
        lambda m: rademacher_entry(m, 1.2),
        lambda m: two_point_entry(m + 1.5, 0.25, m - 0.5),
        constant_entry,
    )
    return [[makers[(i + 2 * j) % 4](c[i, j]) for j in range(n)] for i in range(n)]


def _mixed_5x5():
    return ArrayModel.from_entries(_mixed_5x5_grid())


def _assert_cov_at_cuts(model, vals, cuts, label):
    n = model.n
    for a, ka in enumerate(cuts):
        for b, kb in enumerate(cuts):
            est = from_values(vals[:, a] * vals[:, b])
            closed = cov_d(model, F(ka, n), F(kb, n))
            assert abs(est.mean - closed) < 4 * est.stderr + 1e-12, (label, ka, kb)


def test_cut_aware_dn_covariance_matches_closed_form():
    cases = [
        ("det3", det3(), [1, 2]),
        ("iid-gaussian", ArrayModel.iid_gaussian(8), [0, 2, 5]),
        ("iid-rademacher", ArrayModel.iid_rademacher(8), [3, 6]),
        ("mixed-2x2", _mixed_2x2(), [1]),
        ("mixed-5x5", _mixed_5x5(), [1, 3, 4]),
    ]
    for idx, (label, model, cuts) in enumerate(cases):
        assert max(cuts) < model.n
        vals = sample_dn_values(model, rng_for(50 + idx), 10**5, cuts)
        assert vals.shape == (10**5, len(cuts))
        _assert_cov_at_cuts(model, vals, cuts, label)


def test_cut_aware_y_repeats_full_rows():
    # single-family models: the picks are drawn row-major, so the rows a
    # cut-aware call returns are the full call's values at the same seed
    for idx, model in enumerate(
        [det3(), ArrayModel.iid_gaussian(8), ArrayModel.iid_rademacher(8)]
    ):
        cuts = [2, 1] if model.n == 3 else [5, 0, 2]
        full = sample_y_values(model, rng_for(60 + idx), 2000)
        cut = sample_y_values(model, rng_for(60 + idx), 2000, cuts)
        assert np.array_equal(cut, full[:, cuts])


def test_cut_aware_y_mixed_families_covariance():
    # Cov(Y(s), Y(t)) equals the pre-limit covariance in this family
    for idx, (model, cuts) in enumerate([(_mixed_2x2(), [1]), (_mixed_5x5(), [2, 4])]):
        vals = sample_y_values(model, rng_for(65 + idx), 10**5, cuts)
        _assert_cov_at_cuts(model, vals, cuts, model.n)


def test_dn_and_y_reject_rows_outside_grid():
    model = ArrayModel.iid_gaussian(4)
    for sampler in (sample_dn_values, sample_y_values):
        with pytest.raises(ValueError):
            sampler(model, rng_for(70), 10, [5])
        with pytest.raises(ValueError):
            sampler(model, rng_for(70), 10, [-1])


def test_eps3_cut_aware_linear_second_moment():
    # at t = 1/2 only rows i <= n/2 enter: R = sum_{i <= n/2, j} X_ij/(n s_n),
    # whose mean vanishes with the row means, so
    # E R^2 = sum_{i <= n/2, j} sigma_ij^2 / (n s_n)^2
    f = linear_cylinder([1], [F(1, 2)], None, dim=1)
    models = [ArrayModel.iid_gaussian(6), ArrayModel.iid_rademacher(6), _mixed_5x5()]
    for idx, model in enumerate(models):
        n = model.n
        vals = eps3_values(model, f, rng_for(75 + idx), 10**5)
        est = from_values(vals**2)
        expected = float(model.sigma2[: n // 2].sum()) / (n * model.s_n) ** 2
        assert abs(est.mean - expected) < 4 * est.stderr, n


def _paired_rows():
    # three row laws, each held by two consecutive rows: runs of b = 2 that
    # mix all four families, with two Gaussian variances in one run
    n = 6
    c = np.repeat(double_center(SeedSpec(94).rng().standard_normal((3, n))), 2, axis=0)
    makers = (
        lambda m, j: gaussian_entry(m, 0.2 + 3 * (j // 4)),
        lambda m, j: rademacher_entry(m, 1.2),
        lambda m, j: two_point_entry(m + 1.5, 0.25, m - 0.5),
        lambda m, j: constant_entry(m),
    )
    return ArrayModel.from_entries(
        [[makers[(i // 2 + j) % 4](c[i, j], j) for j in range(n)] for i in range(n)]
    )


def test_run_starts_mark_rows_whose_laws_change():
    assert _paired_rows()._run_start.tolist() == [True, False] * 3
    assert ArrayModel.iid_rademacher(4)._run_start.tolist() == [True] + [False] * 3
    assert det3()._run_start.all() and _mixed_5x5()._run_start.all()


def _gaussian_columns(n):
    # equal rows of centred Gaussian entries whose variances alternate
    # between two values along the row
    return ArrayModel.from_entries([[gaussian_entry(0.0, 0.2 + 2.8 * (j % 2)) for j in range(n)]] * n)


def _cos_dn_exact(model, k, a):
    """E cos(a D_n(k/n)) for models of equal rows of centred Gaussian entries
    (column variances v_l) or of Rademacher entries.  Given the Gaussian Z
    (and X'' for Rademacher entries), D_n(k/n) is centred Gaussian, so the
    transform is E exp(-a^2 Var/2); with lam = a^2 / (2 s_n^2 (n-1)):
    Gaussian: per column, v_l sum_{i <= k} W_il^2 is a quadratic form in Z
    with eigenvalues v_l (k - 1 times) and v_l (1 - k/n);
    Rademacher: per column the variance is k - T^2/n with
    T = sum_{i <= k} X''_il = 2j - k, j ~ Bin(k, 1/2)."""
    n = model.n
    lam = a * a / (2 * s_n_squared(model) * (n - 1))
    if model._has_gauss:
        v = model.sigma2[0]
        return float(
            np.prod((1 + 2 * lam * v) ** (-(k - 1) / 2) * (1 + 2 * lam * v * (1 - k / n)) ** -0.5)
        )
    column = sum(
        math.comb(k, j) * 2.0**-k * math.exp(-lam * (k - (2 * j - k) ** 2 / n))
        for j in range(k + 1)
    )
    return column**n


def test_dn_mixture_law_exact_cos_transform():
    # pins the law of D_n, not only its covariance: a Gaussian with the
    # cov_d variance, or a kernel without the chi^2 term, fails here
    a = 2.5
    label_idx = 100
    for make in (ArrayModel.iid_gaussian, ArrayModel.iid_rademacher, _gaussian_columns):
        for n, k in ((3, 3), (4, 2), (5, 5), (6, 4)):
            model = make(n)
            exact = _cos_dn_exact(model, k, a)
            # one run of k rows, and the full grid (one row per run)
            one_cut = sample_dn_values(model, rng_for(label_idx), 10**5, [k])[:, 0]
            grid = sample_dn_values(model, rng_for(label_idx + 1), 10**5)[:, k]
            label_idx += 2
            for vals in (one_cut, grid):
                est = from_values(np.cos(a * vals))
                assert abs(est.mean - exact) < 5 * est.stderr, (make.__name__, n, k)


def test_dn_runs_match_entrywise_zhat_sums():
    # runs of two rows mixing all families: the run kernel at cuts that
    # split runs matches the closed-form covariance and, in its cos
    # transform, the sums of Zhat drawn one row at a time
    model = _paired_rows()
    n, cuts = model.n, [1, 4, 6]
    runs = sample_dn_values(model, rng_for(120), 10**5, cuts)
    _assert_cov_at_cuts(model, runs, cuts, "paired-rows")
    zhat = sample_zhat_values(model, rng_for(121), 10**5)
    rows = np.cumsum(zhat, axis=1)[:, np.array(cuts) - 1] / model.s_n
    for col, k in enumerate(cuts):
        for a in (1.0, 2.0):
            x = from_values(np.cos(a * runs[:, col]))
            y = from_values(np.cos(a * rows[:, col]))
            assert abs(x.mean - y.mean) < 5 * math.hypot(x.stderr, y.stderr), (k, a)


def _heterogeneous(n):
    # every row its own run: the entry laws change along each column
    c = double_center(SeedSpec(95).rng().standard_normal((n, n)))
    return ArrayModel.from_entries(
        [
            [
                gaussian_entry(c[i, j], 1.0 + (i + j) % 3)
                if (i + j) % 2
                else two_point_entry(c[i, j] - 0.6, 0.4, c[i, j] + 0.4)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def test_dn_sampler_peak_memory_within_budget():
    # one CHUNK of full-grid D_n draws at n = 128; drawn all at once, the
    # (4096, n, n) planes would take several hundred MB each.  Also n = 256
    # on the full grid, one cut of an iid model (one run, so one plane row
    # per sample covers many samples) and an all-singleton-run model.
    het = _heterogeneous(64)
    assert het._run_start.all()
    cases = [
        (ArrayModel.iid_gaussian(128), 4096, None, (4096, 129)),
        (ArrayModel.iid_gaussian(256), 512, None, (512, 257)),
        (ArrayModel.iid_rademacher(128), 8192, [64], (8192, 1)),
        (het, 4096, [0, 20, 64], (4096, 3)),
    ]
    for idx, (model, size, cuts, shape) in enumerate(cases):
        tracemalloc.start()
        try:
            vals = sample_dn_values(model, rng_for(80 + 5 * idx), size, cuts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vals.shape == shape
        assert peak <= MEMORY_BUDGET, (idx, peak)
