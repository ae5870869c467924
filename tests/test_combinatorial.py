import cmath
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
    _half_binomial,
    _path_from_diag,
    bound_beta3,
    bound_prelimit,
    bound_prelimit_distance_report,
    constant_entry,
    double_center,
    eps3_values,
    gaussian_entry,
    pair_moves,
    pair_norm_stats,
    prelimit_cov,
    rademacher_entry,
    regression_residual,
    s_n_squared,
    sample_dn_values,
    sample_trials,
    sample_y_values,
    sample_zhat_values,
    two_point_entry,
    zhat_cov_matrix,
)
from steinpaths import combinatorial as comb
from steinpaths.functionals import certified_library, linear_cylinder, sin_cylinder
from steinpaths.mc import SeedSpec, mc_run_vector
from steinpaths.paths import grid_rows

from oracles import _five_index_sum_naive, from_values, zhat_cov

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
    real = sample_trials(model, rng_for(3), 1)
    picks = real.x[0, np.arange(4), real.pi[0]]
    assert real.values.shape == (1, 5, 1) and real.values[0, 0, 0] == 0.0
    assert real.values[0, -1, 0] == pytest.approx(picks.sum() / model.s_n)


def test_sample_trials_draw_order():
    # every X first, then every pi as a row of rng.permuted; at one trial
    # pi is rng.permutation(n) bit for bit
    model = _entries_3x3()
    for count in (1, 7):
        rng, replay = rng_for(10), rng_for(10)
        real = sample_trials(model, rng, count)
        x = comb._sample_full(model, replay, count)
        pi = replay.permuted(np.tile(np.arange(3), (count, 1)), axis=1)
        assert np.array_equal(real.x, x) and np.array_equal(real.pi, pi)
        assert rng.random() == replay.random()
    rng, replay = rng_for(11), rng_for(11)
    real = sample_trials(model, rng, 1)
    comb._sample_full(model, replay, 1)
    assert np.array_equal(real.pi[0], replay.permutation(3))


def test_sample_trials_permutation_law():
    # each of the 10^4 stacked permutations is uniform: P(pi(i) = j) = 1/n
    # for every (i, j), within 5 stderr
    n, count = 5, 10**4
    pi = sample_trials(ArrayModel.iid_gaussian(n), rng_for(12), count).pi
    assert (np.sort(pi, axis=1) == np.arange(n)).all()
    freq = (pi[:, :, None] == np.arange(n)).mean(axis=0)
    stderr = math.sqrt((1 / n) * (1 - 1 / n) / count)
    assert np.abs(freq - 1 / n).max() <= 5 * stderr


def test_sample_y_unit_variance_at_one():
    model = ArrayModel.iid_gaussian(6)
    vals = sample_y_values(model, rng_for(4), 10**5)[:, -1]
    est = from_values(vals**2)
    assert abs(est.mean - 1.0) < 4 * est.stderr


def _entries_3x3():
    # heterogeneous laws: Gaussian with a mean, shifted Rademacher,
    # two-point, constant, and constant-zero entries
    return ArrayModel.from_json_dict({"type": "array", "n": 3, "entries": [
        {"i": 1, "j": 1, "dist": "gaussian", "mean": 1.0, "var": 2.0},
        {"i": 1, "j": 2, "dist": "rademacher-shifted", "mean": -1.0, "scale": 0.5},
        {"i": 2, "j": 1, "dist": "two-point", "x1": 0.0, "p1": 0.5, "x2": -2.0},
        {"i": 2, "j": 2, "dist": "constant", "value": 1.0},
        {"i": 3, "j": 3, "dist": "gaussian", "var": 1.0},
    ]})


@pytest.mark.parametrize("name", ["deterministic", "iid-gaussian", "entries"])
def test_pair_moves_match_recomputation(name):
    # every ordered pair's move at every grid row is Y minus the path of
    # the swapped permutation, recomputed from scratch; each pair has
    # probability 1/(n(n-1))
    model = {"deterministic": det3(), "iid-gaussian": ArrayModel.iid_gaussian(5),
             "entries": _entries_3x3()}[name]
    n, trials = model.n, 4
    real = sample_trials(model, SeedSpec(94).rng(), trials)
    moves, prob = pair_moves(real, np.arange(n + 1), np.eye(n + 1).reshape(n + 1, 1, n + 1, 1))
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    assert moves.shape == (n + 1, trials, i.size) and prob.shape == (trials, i.size)
    assert (prob == 1 / (n * (n - 1))).all()
    # a contraction with random covectors at rows in any order, repeated
    rows = [n, 1, n, n // 2]
    h = SeedSpec(95).rng().standard_normal((trials, len(rows), 1))
    contracted, _ = pair_moves(real, rows, h)
    pairs = np.arange(i.size)
    for t in range(trials):
        pi = np.repeat(real.pi[t][None], i.size, axis=0)
        pi[pairs, i], pi[pairs, j] = real.pi[t, j], real.pi[t, i]
        x = np.broadcast_to(real.x[t], pi.shape + (n,))
        diff = real.values[t] - _path_from_diag(model, x, pi)  # (pairs, n+1, 1)
        assert np.allclose(moves[:, t].T, diff[..., 0], rtol=0, atol=1e-15)
        assert np.allclose(contracted[t], np.einsum("pa,a->p", diff[:, rows, 0], h[t, :, 0]),
                           rtol=0, atol=1e-14)


def test_pair_sup_norm_bound(draw_pairs):
    model, n = ArrayModel.iid_gaussian(5), 5
    real, y, y_prime, pick = draw_pairs(comb, model, rng_for(5), 50, np.arange(n + 1))
    i, j = (a[pick] for a in np.nonzero(~np.eye(n, dtype=bool)))
    x, pi, t = real.x, real.pi, np.arange(50)
    lhs = np.abs(y - y_prime).max(axis=(1, 2))
    bound = (
        2.0
        / model.s_n
        * (
            abs(x[t, i, pi[t, i]])
            + abs(x[t, j, pi[t, j]])
            + abs(x[t, i, pi[t, j]])
            + abs(x[t, j, pi[t, i]])
        )
    )
    assert lhs.shape == (50,) and (lhs <= bound + 1e-12).all()


def test_pair_swap_twice_restores():
    # at Y', which swaps pi(i) and pi(j), the same pair swaps them back:
    # the kernel gives the opposite move, and Y' minus it is Y
    model, n = det3(), 3
    real = sample_trials(model, rng_for(6), 1)
    unit = np.eye(n + 1).reshape(n + 1, 1, n + 1, 1)
    moves, _ = pair_moves(real, np.arange(n + 1), unit)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    pairs = np.arange(i.size)
    pi = np.repeat(real.pi, i.size, axis=0)
    pi[pairs, i], pi[pairs, j] = real.pi[0, j], real.pi[0, i]
    y_prime = real.values[0] - moves[:, 0].T[..., None]  # (pairs, n+1, 1)
    swapped = CombinatorialRealization(model, np.repeat(real.x, i.size, axis=0), pi, y_prime)
    back, _ = pair_moves(swapped, np.arange(n + 1), unit)
    assert np.array_equal(back[:, pairs, pairs], -moves[:, 0])
    assert np.allclose(y_prime - back[:, pairs, pairs].T[..., None], real.values[0], atol=1e-15)


def test_pair_exchangeable_ks(draw_pairs):
    model = ArrayModel.iid_gaussian(4)
    n_samp = 20000
    _, y, y_prime, _ = draw_pairs(comb, model, rng_for(7), n_samp, [model.n])
    a, b = y[:, 0, 0], y_prime[:, 0, 0]
    # two-sample KS statistic below the alpha=0.001 critical value
    grid = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), grid, side="right") / n_samp
    fb = np.searchsorted(np.sort(b), grid, side="right") / n_samp
    ks = float(np.abs(fa - fb).max())
    assert ks < 1.95 * math.sqrt(2.0 / n_samp)


# -- regression identity ----------------------------------------------------


def test_regression_residual_deterministic_linear():
    real = sample_trials(det3(), rng_for(8), 1)
    f = linear_cylinder([1], [1], None, dim=1)
    assert regression_residual(real, [f])[0, 0] < 1e-12


def test_regression_residual_constant_functional():
    real = sample_trials(det3(), rng_for(9), 1)
    f = linear_cylinder([1], [1], [0.0], dim=1)
    assert regression_residual(real, [f])[0, 0] == 0.0


def test_regression_residual_gaussian_sin():
    model = ArrayModel.iid_gaussian(6)
    f = sin_cylinder(1, 1, dim=1)
    stack = sample_trials(model, SeedSpec(91).rng(), 5)
    assert (regression_residual(stack, [f]) < 1e-10).all()


@pytest.mark.parametrize("name", ["iid-gaussian", "deterministic", "mixed-5x5"])
def test_stacked_trials_match_single_trials(name):
    # each trial's batched residual is the residual of its one-trial slice
    # of the stack
    model = {
        "iid-gaussian": ArrayModel.iid_gaussian(5),
        "deterministic": ArrayModel.deterministic(centered_5x5()),
        "mixed-5x5": _mixed_5x5(),
    }[name]
    funcs = certified_library(1)
    stack = sample_trials(model, SeedSpec(92).rng(), 6)
    assert stack.x.shape == (6, 5, 5) and stack.values.shape == (6, 6, 1)
    batched = regression_residual(stack, funcs)
    assert batched.shape == (len(funcs), 6)
    assert batched.max() < 1e-14
    for t in range(6):
        one = CombinatorialRealization(model, stack.x[t:t + 1], stack.pi[t:t + 1],
                                       stack.values[t:t + 1])
        assert np.abs(regression_residual(one, funcs)[:, 0] - batched[:, t]).max() <= 1e-15
    one = CombinatorialRealization(model, stack.x[:1], stack.pi[:1], stack.values[:1])
    assert np.array_equal(regression_residual(one, funcs)[:, 0], batched[:, 0])


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
    # fresh process; the D_n sampler and the closed-form covariance find
    # their distinct rows without it
    code = (
        "import sys, numpy as np\n"
        "from fractions import Fraction\n"
        "from steinpaths import combinatorial as comb\n"
        "model = comb.ArrayModel.iid_gaussian(6)\n"
        "for cuts in ([0, 4, 2, 4, 6], [], [0]):\n"
        "    vals = comb.sample_dn_values(model, np.random.default_rng(0), 3, cuts)\n"
        "    assert vals.shape == (3, len(cuts))\n"
        "    times = [Fraction(k, 6) for k in cuts]\n"
        "    assert comb.prelimit_cov(model, times).shape == (len(cuts),) * 2\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"


def test_prelimit_cov_sums_the_index_boxes():
    # each entry is the box sum of one Zhat covariance matrix over s_n^2:
    # bit for bit on a zero-mean model, within rel 1e-13 on the others,
    # whose prefix sums add in another order than the box's; and bit for
    # bit as the one-pair call, also on a grid finer than the model's,
    # whose times share rows and are gathered from one kernel value
    for model in (det3(), _mixed_5x5(), ArrayModel.iid_rademacher(6)):
        n = model.n
        zc, s2 = zhat_cov_matrix(model), s_n_squared(model)
        for times in ([F(1, 3), F(0), F(1, 2), F(2, 3), F(1), F(1, 3)],
                      [F(k, 4 * n + 1) for k in range(4 * n + 2)]):
            grid = prelimit_cov(model, times)
            assert grid.shape == (len(times), len(times))
            for a, s in enumerate(times):
                for b, t in enumerate(times):
                    box = float(zc[: int(n * s), : int(n * t)].sum()) / s2
                    assert grid[a, b] == prelimit_cov(model, [s, t])[0, 1]
                    if model.c.any():
                        assert grid[a, b] == pytest.approx(box, rel=1e-13, abs=0.0)
                    else:
                        assert grid[a, b] == box
    assert prelimit_cov(det3(), []).shape == (0, 0)


def _box_sum_oracle(model, times):
    """The (k, k) pre-limit covariance summed box by box from the Zhat
    covariance matrix: O(k^2 n^2), the reference for the prefix sums."""
    n, zc = model.n, zhat_cov_matrix(model)
    sums = [[float(zc[: int(n * s), : int(n * t)].sum()) for t in times] for s in times]
    return np.array(sums).reshape(len(times), len(times)) / s_n_squared(model)


def test_prefix_sum_kernel_matches_the_box_sums():
    # every row of the model and two off-grid times, on models with nonzero
    # means (a double-centred random 64 x 64 array among them) within rel
    # 1e-13, and exactly on the iid presets, whose means vanish
    c64 = double_center(SeedSpec(95).rng().standard_normal((64, 64)))
    cases = [(det3(), False), (_mixed_5x5(), False), (ArrayModel.deterministic(c64), False),
             (ArrayModel.iid_gaussian(16), True), (ArrayModel.iid_rademacher(16), True)]
    for model, exact in cases:
        n = model.n
        times = [F(k, n) for k in range(n + 1)] + [F(1, 3), F(5, 7)]
        cov, box = prelimit_cov(model, times), _box_sum_oracle(model, times)
        if exact:
            assert (cov == box).all(), n
        else:
            assert cov == pytest.approx(box, rel=1e-13, abs=0.0), n


def test_dn_grid_covariance_matches_closed_form():
    model = det3()
    vals = sample_dn_values(model, rng_for(14), 10**5)
    s, t = F(1, 3), F(1)
    prod = vals[:, 1] * vals[:, 3]
    est = from_values(prod)
    assert abs(est.mean - prelimit_cov(model, [s, t])[0, 1]) < 4 * est.stderr


# -- epsilon statistics ------------------------------------------------------


def test_pair_norm_stats_match_object_layer(draw_pairs):
    model = ArrayModel.iid_gaussian(4)
    fast = from_values(pair_norm_stats(model, rng_for(15), 4000))
    _, y, y_prime, _ = draw_pairs(comb, model, rng_for(16), 4000, np.arange(model.n + 1))
    diff = np.abs(y - y_prime).max(axis=(1, 2))
    slow = from_values((model.n - 1) / 4.0 * diff**3)
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
    assert bound_prelimit(det3(), 0.0) == 0.0


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
    assert bound_prelimit(model, 1.0) == pytest.approx(expected, rel=1e-12)
    assert _five_index_sum_naive(model) == pytest.approx(
        _five_index_sum_factorized(model), rel=1e-9
    )


def test_bound_row_permutation_invariance():
    model = _random_moment_model(5, 3)
    perm = [3, 0, 4, 1, 2]
    permuted = ArrayModel(model.table, model.index[perm])
    assert bound_prelimit(model, 1.0) == pytest.approx(
        bound_prelimit(permuted, 1.0), rel=1e-12
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
        closed = prelimit_cov(model, [F(ks, 3), F(kt, 3)])[0, 1]
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
    var_d = np.diag(prelimit_cov(model, [F(k, n) for k in cuts]))
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
    closed = prelimit_cov(model, [F(k, n) for k in cuts])
    for a, ka in enumerate(cuts):
        for b, kb in enumerate(cuts):
            est = from_values(vals[:, a] * vals[:, b])
            assert abs(est.mean - closed[a, b]) < 4 * est.stderr + 1e-12, (label, ka, kb)


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
    # det3's first two rows are not flat, so their picks go through pi, and
    # the rows a cut-aware call returns are the full call's values at the
    # same seed (iid models draw run sums instead: test_y_flat_runs_exact_law)
    model = det3()
    cuts = [2, 1]
    full = sample_y_values(model, rng_for(60), 2000)
    cut = sample_y_values(model, rng_for(60), 2000, cuts)
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
    # per sample covers many samples) and an all-singleton-run model; and
    # n = 256 at every second row, whose 128 runs take the Wishart kernel's
    # (128, 128, block) Bartlett planes.
    het = _heterogeneous(64)
    assert het._run_start.all()
    cases = [
        (ArrayModel.iid_gaussian(128), 4096, None, (4096, 129)),
        (ArrayModel.iid_gaussian(256), 512, None, (512, 257)),
        (ArrayModel.iid_rademacher(128), 8192, [64], (8192, 1)),
        (het, 4096, [0, 20, 64], (4096, 3)),
        (ArrayModel.iid_gaussian(256), 4096, list(range(2, 257, 2)), (4096, 128)),
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


# -- flat centred Gaussian rows: run variances from a Wishart diagonal ---------


def _gauss_then_rademacher(n=16):
    # an "entries" model of flat rows: centred Gaussian rows whose variance
    # changes every 4 rows, then Rademacher rows from row n - 3 on
    entries = [
        {"i": i, "j": j, "dist": "gaussian", "var": 0.5 + (i - 1) // 4}
        if i <= n - 4 else
        {"i": i, "j": j, "dist": "rademacher-shifted", "scale": 1.5}
        for i in range(1, n + 1) for j in range(1, n + 1)
    ]
    return ArrayModel.from_json_dict({"n": n, "entries": entries})


def _eps3_gathered(model, f, rng, size):
    """eps3_values on flat rows as it read the law arrays before they were
    read as (m, 1) columns: gathered into (m, block) planes through an
    index whose pick is column 0.  The reference for that path's bits."""
    n, s = model.n, model.s_n
    rows, m = grid_rows(n, f.rows(n))
    assert model._flat_row[:m].all()
    row_c = model._gc[:m].sum(axis=1)[:, None]
    row_var = model._gvar[:m].sum(axis=1)[:, None]
    out = np.empty(size)
    for lo, hi in comb._blocks(size, m, n):
        b = hi - lo
        pi = np.zeros((m, b), dtype=np.intp)
        idx = (np.arange(m)[:, None], pi)
        picks = model._gc[idx]
        row_sums = np.repeat(row_c, b, axis=1)
        if model._has_gauss:
            pick_gauss = model._gsd[idx] * rng.standard_normal((m, b))
            rest_sd = np.sqrt(np.maximum(row_var - model._gvar[idx], 0.0))
            picks += pick_gauss
            row_sums += pick_gauss + rest_sd * rng.standard_normal((m, b))
        if model._has_discrete:
            x = comb._two_point(model, rng, (m, b, n), np.s_[:m, None])
            picks += np.take_along_axis(x, pi[:, :, None], axis=2)[:, :, 0]
            row_sums += x.sum(axis=2)
        grads = f.grad_stacked(comb._at_rows(picks.T, rows, s))
        prefix = comb._at_rows(row_sums.T, rows, 1.0)
        out[lo:hi] = np.einsum("sk,sk->s", grads, prefix) / (n * s)
    return out


def test_eps3_flat_rows_match_the_gathered_law_planes():
    # Gaussian, Rademacher, both in one model, and skewed two-point rows;
    # the 16 x 16 model at a size of several sub-blocks
    funcs = [sin_cylinder(1, 1, dim=1), linear_cylinder([1], [F(1, 2)], None, dim=1)]
    cases = [(ArrayModel.iid_gaussian(8), 300), (ArrayModel.iid_rademacher(8), 300),
             (_gauss_then_rademacher(), 5000), (_skewed_flat_rows(8), 300)]
    for idx, (model, size) in enumerate(cases):
        for f in funcs:
            new = eps3_values(model, f, SeedSpec(96, (idx,)).rng(), size)
            old = _eps3_gathered(model, f, SeedSpec(96, (idx,)).rng(), size)
            assert new.tobytes() == old.tobytes(), (idx, f.label)


def test_wishart_runs_exact_cos_transform():
    # several runs drawn jointly from one Bartlett factor: each cut's value
    # and each increment (the rows j+1..k of an iid model have the law of
    # the rows 1..k-j) against the exact transform, so a wrong Bartlett
    # degree of freedom or a wrong root of I - beta beta^T fails here
    a = 2.5
    label = 160
    for n, k in ((6, 4), (6, 6), (8, 8), (9, 7)):
        model = ArrayModel.iid_gaussian(n)
        for cuts in ([1, 2, k], [k // 2, k]):
            vals = sample_dn_values(model, rng_for(label), 10**5, cuts)
            label += 1
            columns = [(c, vals[:, col]) for col, c in enumerate(cuts)]
            columns += [(k - c, vals[:, -1] - vals[:, col]) for col, c in enumerate(cuts[:-1])]
            for rows, x in columns:
                est = from_values(np.cos(a * x))
                exact = _cos_dn_exact(model, rows, a)
                assert abs(est.mean - exact) < 5 * est.stderr, (n, cuts, rows)


def test_wishart_runs_covariance_with_rows_past_the_cut():
    # run variances 0.5, 1.5, 2.5 and Rademacher rows past m = 12: cuts that
    # keep and that split the Gaussian runs
    model = _gauss_then_rademacher()
    for idx, cuts in enumerate([[4, 8, 12], [1, 3, 6, 11], [10]]):
        vals = sample_dn_values(model, rng_for(170 + idx), 10**5, cuts)
        _assert_cov_at_cuts(model, vals, cuts, cuts)


def test_wishart_kernel_dispatch(monkeypatch):
    # taken when the rows up to the last cut are flat, centred and Gaussian,
    # the full grid and sample_zhat_values (r = n) included; every other
    # call keeps the run kernel
    calls = []
    kernel = comb._wishart_block_sums

    def spy(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(comb, "_wishart_block_sums", spy)
    mixed = _gauss_then_rademacher()
    taken = [(ArrayModel.iid_gaussian(8), [1, 2, 8]), (ArrayModel.iid_gaussian(8), [7]),
             (mixed, [4, 8, 12]), (mixed, list(range(1, 13))),
             (ArrayModel.iid_gaussian(8), None), (ArrayModel.iid_gaussian(8), list(range(1, 9)))]
    kept = [(ArrayModel.iid_rademacher(8), [2, 4]), (_mixed_5x5(), [2, 4]), (det3(), [1]),
            (mixed, [4, 16])]
    for model, cuts in taken:
        sample_dn_values(model, rng_for(175), 7, cuts)
        assert calls == [7], cuts
        calls.clear()
    sample_zhat_values(ArrayModel.iid_gaussian(8), rng_for(175), 7)
    assert calls == [7]
    calls.clear()
    for model, cuts in kept:
        sample_dn_values(model, rng_for(175), 7, cuts)
        assert calls == [], (model.n, cuts)


def test_wishart_full_grid_exact_cos_transform():
    # r = n: every row and every increment of the full grid against the
    # exact transform, so a kernel that draws the squared run norms
    # independently with their marginal law, or with n Bartlett degrees of
    # freedom on every row, fails here
    label = 180
    for n, a in ((3, 2.0), (6, 2.5), (8, 2.5)):
        model = ArrayModel.iid_gaussian(n)
        vals = sample_dn_values(model, rng_for(label), 10**5)
        label += 1
        for j, k in itertools.combinations(range(n + 1), 2):
            est = from_values(np.cos(a * (vals[:, k] - vals[:, j])))
            exact = _cos_dn_exact(model, k - j, a)
            assert abs(est.mean - exact) < 5 * est.stderr, (n, j, k)


def _gauss_runs(n=12):
    # an "entries" model of flat, centred Gaussian rows whose variance
    # changes every 4 rows
    entries = [{"i": i, "j": j, "dist": "gaussian", "var": 0.5 + (i - 1) // 4}
               for i in range(1, n + 1) for j in range(1, n + 1)]
    return ArrayModel.from_json_dict({"n": n, "entries": entries})


def test_wishart_full_grid_covariance_with_unequal_run_variances():
    # r = n with three row variances: the full grid, and the Zhat draws
    # summed to every row
    model = _gauss_runs()
    n, cuts = model.n, list(range(model.n + 1))
    grid = sample_dn_values(model, rng_for(185), 10**5)
    _assert_cov_at_cuts(model, grid, cuts, "full grid")
    zhat = sample_zhat_values(model, rng_for(186), 10**5)
    rows = np.zeros((zhat.shape[0], n + 1))
    rows[:, 1:] = np.cumsum(zhat, axis=1) / model.s_n
    _assert_cov_at_cuts(model, rows, cuts, "zhat")


def _wishart_scatter(rng, size, n, b, var, block_first):
    """_wishart_block_sums as it drew T's normals before each row was drawn
    in place: one (r(r-1)/2, block) draw scattered below the diagonal.  The
    reference for the bits of r < n calls."""
    r = b.size
    beta = np.sqrt(b / n)
    c = 1.0 / (1.0 + math.sqrt(1.0 - b.sum() / n))
    rows, cols = np.tril_indices(r, -1)
    diag = np.arange(r)
    multi = np.flatnonzero(b > 1)
    out = np.empty((size, block_first.size))
    for lo, hi in comb._blocks(size, r, r):
        s = hi - lo
        t = np.zeros((r, r, s))
        t[rows, cols] = rng.standard_normal((rows.size, s))
        t[diag, diag] = np.sqrt(rng.chisquare((n - diag)[:, None], (r, s)))
        w = (beta @ t.reshape(r, -1)).reshape(r, s)
        norm = np.einsum("rjs,rjs->rs", t, t)
        norm -= (2.0 * c * beta)[:, None] * np.einsum("rjs,js->rs", t, w)
        norm += ((c * beta) ** 2)[:, None] * np.einsum("js,js->s", w, w)
        np.maximum(norm, 0.0, out=norm)
        if multi.size:
            norm[multi] += rng.chisquare(n * (b[multi, None] - 1), (multi.size, s))
        norm *= var[:, None]
        if r > block_first.size:
            norm = np.add.reduceat(norm, block_first, axis=0)
        out[lo:hi] = (np.sqrt(norm) * rng.standard_normal((block_first.size, s))).T
    return out


def test_wishart_rows_drawn_in_place_match_the_scatter():
    # r < n runs, with and without runs of b > 1 and blocks of several
    # runs, at sizes of several sub-blocks
    cases = [
        (8, [1, 1, 6], [0.5, 1.0, 2.0], [0, 2], 120000),
        (32, [1] * 30, [1.0] * 30, list(range(30)), 2000),
        (32, [4] * 7, [0.5 + k for k in range(7)], [0, 3, 4], 30000),
        (16, [2, 3, 1, 5], [2.0, 1.0, 3.0, 0.5], [0, 1, 2, 3], 70000),
    ]
    for idx, (n, b, var, block_first, size) in enumerate(cases):
        b, var, block_first = np.array(b), np.array(var), np.array(block_first)
        assert b.size < n and len(comb._blocks(size, b.size, b.size)) > 1
        new = comb._wishart_block_sums(SeedSpec(97, (idx,)).rng(), size, n, b, var, block_first)
        old = _wishart_scatter(SeedSpec(97, (idx,)).rng(), size, n, b, var, block_first)
        assert new.tobytes() == old.tobytes(), idx


# -- flat rows: Y run sums without pi, and popcount counts --------------------

# two centred, skewed two-point laws (x1, p1, x2): -3 w.p. 0.1 else 1/3, and
# 2 w.p. 0.25 else -2/3
_SKEWED = ((-3.0, 0.1, 1 / 3), (2.0, 0.25, -2 / 3))


def _skewed_law(i, n):
    return _SKEWED[(4 * i // n) % 2]  # blocks of n/4 rows: A, B, A, B


def _skewed_flat_rows(n):
    # an "entries" model whose rows are flat: each row's law is the same in
    # every column, and runs of equal rows hold b > 1 rows
    entries = [
        {"i": i + 1, "j": j + 1, "dist": "two-point", "x1": x1, "p1": p1, "x2": x2}
        for i in range(n) for x1, p1, x2 in [_skewed_law(i, n)] for j in range(n)
    ]
    return ArrayModel.from_json_dict({"n": n, "entries": entries})


def _y_transform_exact(label, model, k, a):
    """E exp(i a Y(k/n)): Y(k/n) is a sum of k independent picks over s_n,
    whatever pi is, so its transform is a product over the rows."""
    t = a / model.s_n
    if label == "iid-gaussian":
        return math.exp(-a * a * k / (2 * model.s_n**2))
    if label == "iid-rademacher":
        return math.cos(1.5 * t) ** k
    return np.prod([p1 * cmath.exp(1j * t * x1) + (1 - p1) * cmath.exp(1j * t * x2)
                    for x1, p1, x2 in (_skewed_law(i, model.n) for i in range(k))])


@pytest.mark.parametrize("n, cuts", [(8, [5, 0, 2]), (32, [8, 32, 20])])
def test_y_flat_runs_exact_law(n, cuts):
    # every row is flat, so Y draws one sum per run and no pi; E cos(aY) and
    # E sin(aY) against the closed forms pin each run's law (its b, its
    # Gaussian variance b gvar and which value is the low one)
    a = 2.0
    cases = [("iid-gaussian", ArrayModel.iid_gaussian(n)),
             ("iid-rademacher", ArrayModel.iid_rademacher(n, 1.5)),
             ("skewed", _skewed_flat_rows(n))]
    for idx, (label, model) in enumerate(cases):
        assert model._flat_row.all()

        def cos_sin(rng, size):
            v = sample_y_values(model, rng, size, cuts)
            return np.concatenate([np.cos(a * v), np.sin(a * v)], axis=1)

        ests = mc_run_vector(cos_sin, 10**5, SeedSpec(142, (n, idx)))
        exact = [complex(_y_transform_exact(label, model, k, a)) for k in cuts]
        for est, value in zip(ests, [e.real for e in exact] + [e.imag for e in exact]):
            assert abs(est.mean - value) <= 5 * est.stderr + 1e-12, (label, cuts)


def _flat_and_pi_rows():
    # n = 6: rows 1-2 flat Gaussian, rows 3-4 not flat (laws that alternate
    # along the row, with opposite means), rows 5-6 flat skewed two-point
    c = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5]

    def varied(sign):
        return [gaussian_entry(sign * m, 0.5) if j % 2 == 0
                else two_point_entry(sign * m - 0.6, 0.4, sign * m + 0.4)
                for j, m in enumerate(c)]

    flat_gauss, flat_skewed = gaussian_entry(0.0, 2.0), two_point_entry(*_SKEWED[0])
    return ArrayModel.from_entries(
        [[flat_gauss] * 6] * 2 + [varied(1.0), varied(-1.0)] + [[flat_skewed] * 6] * 2
    )


def test_y_mixing_flat_and_pi_rows_covariance():
    # runs of b = 2 flat rows around two rows drawn through pi, at cuts that
    # keep and that split those runs
    model = _flat_and_pi_rows()
    assert model._flat_row.tolist() == [True, True, False, False, True, True]
    for idx, cuts in enumerate([[2, 3, 6], [1, 4, 5]]):
        vals = sample_y_values(model, rng_for(143 + idx), 10**5, cuts)
        _assert_cov_at_cuts(model, vals, cuts, cuts)


def test_flat_rows_mark_rows_of_one_law():
    # a row is flat when its sampler law (_gc, _gvar, _q, _lo, _hi) is the
    # same in every column, even where distinct entries give that law
    rad, two = rademacher_entry(0.0, 1.0), two_point_entry(-1.0, 0.5, 1.0)
    same_law = ArrayModel.from_entries([[rad, two], [two, rad]])
    assert same_law._flat_row.tolist() == [True, True]
    assert det3()._flat_row.tolist() == [False, False, True]
    assert ArrayModel.iid_gaussian(5)._flat_row.all()
    assert not _mixed_5x5()._flat_row.any()
    assert _paired_rows()._flat_row.tolist() == [False] * 6


def test_half_binomial_pmf_is_exact():
    # one call with several run lengths: their words share a plane, and the
    # bits past each b are masked off
    b = np.array([1, 16, 63, 64, 65])
    size = 2 * 10**5
    k = _half_binomial(rng_for(145), b, (size,))
    assert k.shape == (b.size, size) and k.dtype == np.int64
    for bj, kj in zip(b.tolist(), k):
        assert 0 <= kj.min() and kj.max() <= bj
        pmf = np.array([math.comb(bj, x) for x in range(bj + 1)]) / 2.0**bj
        freq = np.bincount(kj, minlength=bj + 1) / size
        # each tail whose counts are expected below 10 is pooled into one cell
        lo, hi = np.flatnonzero(size * pmf >= 10)[[0, -1]]
        p, f = (np.concatenate([[x[:lo].sum()], x[lo:hi + 1], [x[hi + 1:].sum()]])
                for x in (pmf, freq))
        assert np.all(np.abs(f - p) <= 5 * np.sqrt(p * (1 - p) / size) + 1e-12), bj


def test_y_pi_path_peak_memory_within_budget():
    # no row is flat, so every pick goes through pi; drawn at once, the
    # (4096, 512) uniforms, their argsort and the picks took about 98 MB
    n = 512
    table = [gaussian_entry(0.0, 2.0), two_point_entry(-0.6, 0.4, 0.4)]
    model = ArrayModel(table, np.add.outer(np.arange(n), np.arange(n)) % 2)
    assert not model._flat_row.any()
    tracemalloc.start()
    try:
        vals = sample_y_values(model, rng_for(146), 4096, [n])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == (4096, 1)
    assert peak <= MEMORY_BUDGET, peak
