import argparse
import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from steinpaths import cli, mc
from steinpaths import combinatorial as comb
from steinpaths import graph as gr
from steinpaths import ou_stein as ou
from steinpaths.cli import main
from steinpaths.functionals import certified_library
from steinpaths.mc import from_values
from steinpaths.reporting import RunReport, canonical_json


def write_model(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def graph_model(tmp_path, n=3, p=0.5):
    return write_model(tmp_path, "graph.json", {"type": "graph", "n": n, "p": p})


def det_model(tmp_path):
    return write_model(tmp_path, "det.json", {"type": "array", "preset": "deterministic"})


def iid_model(tmp_path, n=8):
    return write_model(
        tmp_path, "iid.json", {"type": "array", "preset": "iid-gaussian", "n": n}
    )


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_regression_deterministic(tmp_path, capsys):
    code, out = run(
        capsys,
        ["verify-regression", "--model", det_model(tmp_path), "--trials", "3"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["pass"]
    assert report["estimates"] == []
    assert report["values"][0]["name"] == "max_residual"
    assert report["values"][0]["value"] < 1e-12
    assert report["parameters"]["tol"] == 1e-9


def test_verify_regression_graph(tmp_path, capsys):
    code, out = run(
        capsys, ["verify-regression", "--model", graph_model(tmp_path), "--trials", "2"]
    )
    assert code == 0


def test_verify_regression_oversize_guard(tmp_path, capsys, monkeypatch):
    # the budget bounds n^2 x (most times of any functional), and is checked
    # before anything is drawn; at the budget a block holds one trial
    draws, sample_trials = [], gr.sample_trials

    def spy(model, rng, count):
        draws.append((model, count))
        return sample_trials(model, rng, count)

    monkeypatch.setattr(gr, "sample_trials", spy)
    assert cli.REGRESSION_TERMS == 1024**2
    sin = ["--functional", "sin:coord=1,t=1"]
    for n, specs, expected in [
        (1024, sin, 0),
        (1025, sin, 2),
        (724, [], 0),  # the default library reads at most two times
        (725, [], 2),
        (512, ["--functional", "tanhprod:coords=1,1,1,1,1,t=1/5,2/5,3/5,4/5,1"], 2),
    ]:
        model = graph_model(tmp_path, n=n, p=0.5)
        code = main(["verify-regression", "--model", model, "--trials", "2"] + specs)
        capsys.readouterr()
        assert code == expected, n
    assert [(model.n, count) for model, count in draws] == [(1024, 1)] * 2 + [(724, 1)] * 2


@pytest.mark.parametrize("kind", ["graph", "array"])
def test_verify_regression_trial_blocks(tmp_path, capsys, monkeypatch, kind):
    # block b draws all its trials from stream (b,) in one call: a budget
    # of 5 trials splits 23 trials into blocks of 5, 5, 5, 5 and 3, each
    # the one-call draw of its stream bit for bit
    model = graph_model(tmp_path, n=12, p=0.3) if kind == "graph" else iid_model(tmp_path, 12)
    mod = ou.family(cli._load_model(model)[1])
    blocks, sample_trials = [], mod.sample_trials

    def spy(model, rng, count):
        blocks.append(sample_trials(model, rng, count))
        return blocks[-1]

    monkeypatch.setattr(mod, "sample_trials", spy)
    monkeypatch.setattr(cli, "REGRESSION_TERMS", 5 * 12**2 * 2)  # 5 trials per block
    code, out = run(capsys, ["verify-regression", "--model", model, "--trials", "23",
                             "--seed", "4"])
    report = json.loads(out)
    assert code == 0 and report["checks"][0]["pass"]
    assert [len(b.values) for b in blocks] == [5, 5, 5, 5, 3]
    monkeypatch.undo()
    field, funcs = "edges" if kind == "graph" else "x", certified_library(mod.DIM)
    for b, block in enumerate(blocks):
        real = mod.sample_trials(block.model, mc.SeedSpec(4, (b,)).rng(), len(block.values))
        assert np.array_equal(real.values, block.values), b
        assert np.array_equal(getattr(real, field), getattr(block, field)), b
    worst = max(float(mod.regression_residual(b, funcs).max()) for b in blocks)
    assert report["values"][0]["value"] == worst


@pytest.mark.parametrize("n", [12, 1024])
def test_sample_trials_peak_memory_at_a_full_block(n):
    # a block's one-call draw holds a few (count, n, n) float planes at
    # once, the returned realization included: the graph its int edges and
    # two (n+1)-column degree tables (np.triu copies the cumulative one),
    # the array X, a draw and the sum or np.where plane, each with boolean
    # planes on top.  With the default library a block holds 3,640 trials
    # at n = 12 and one at n = 1024
    count = max(1, cli.REGRESSION_TERMS // (n * n * 2))
    assert count == {12: 3640, 1024: 1}[n]
    models = [(gr, gr.GraphModel(n, 0.3), 3.5), (comb, comb.ArrayModel.iid_gaussian(n), 3.25),
              (comb, comb.ArrayModel.iid_rademacher(n), 3.25)]
    for mod, model, planes in models:
        tracemalloc.start()
        try:
            real = mod.sample_trials(model, mc.SeedSpec(1, (0,)).rng(), count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(real.values) == count
        assert peak <= planes * count * n * n * 8, (model, peak / (count * n * n * 8))
        del real


@pytest.mark.parametrize("kind", ["graph", "array"])
def test_verify_regression_honours_workers(tmp_path, capsys, monkeypatch, kind):
    # trial blocks run through the engine's task runner; the block maximum
    # does not depend on which worker finished first
    seen = []
    run_tasks = mc._run_tasks

    def spy(task, n_tasks, workers):
        seen.append((n_tasks, workers))
        return run_tasks(task, n_tasks, workers)

    monkeypatch.setattr(mc, "_run_tasks", spy)
    monkeypatch.setattr(cli, "REGRESSION_TERMS", 5 * 12**2 * 2)  # 5 trials per block
    model = graph_model(tmp_path, n=12, p=0.3) if kind == "graph" else iid_model(tmp_path, 12)
    outputs = []
    for workers in ("1", "3"):
        code, out = run(capsys, ["verify-regression", "--model", model, "--trials", "23",
                                 "--seed", "4", "--workers", workers])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert seen == [(5, 1), (5, 3)]


def test_bound_help_says_workers_has_no_effect(capsys):
    code, out = run(capsys, ["bound", "--help"])
    assert code == 0
    assert "--workers WORKERS accepted like every command's, but has no effect" in " ".join(
        out.split())


def test_bound_help_says_seed_has_no_effect(capsys):
    code, out = run(capsys, ["bound", "--help"])
    assert code == 0
    assert ("--seed SEED accepted like every command's, but has no effect: bound draws "
            "nothing") in " ".join(out.split())


def test_non_finite_model_moments_are_usage_errors(tmp_path, capsys):
    model = tmp_path / "nan.json"
    model.write_text('{"type": "array", "n": 2, "entries": '
                     '[{"i": 1, "j": 1, "dist": "gaussian", "mean": NaN, "var": 1}]}')
    code, out = run(capsys, ["bound", "--model", str(model)])
    assert code == 2 and out == ""


@pytest.mark.parametrize("payload, law", [
    ({"type": "array", "preset": "deterministic",
      "matrix": [[1e300, -1e300, 0], [-1e300, 1e300, 0], [0, 0, 0]]}, "constant_entry(-1e+300)"),
    ({"type": "array", "n": 2, "entries": [{"i": 1, "j": 1, "dist": "gaussian", "var": 1e250}]},
     "gaussian_entry(0.0, 1e+250)"),
    ({"type": "array", "n": 2, "entries": [
        {"i": 1, "j": 1, "dist": "rademacher-shifted", "scale": 1e150}]},
     "rademacher_entry(0.0, 1e+150)"),
    ({"type": "array", "n": 2, "entries": [
        {"i": 1, "j": 1, "dist": "two-point", "x1": 1e200, "p1": 0.5, "x2": 0.0}]},
     "two_point_entry(1e+200, 0.5, 0.0)"),
    ({"type": "array", "preset": "iid-rademacher", "n": 4, "scale": 1e120},
     "rademacher_entry(0.0, 1e+120)"),
], ids=["constant", "gaussian", "rademacher-shifted", "two-point", "iid-rademacher"])
def test_overflowing_entry_moments_are_usage_errors(tmp_path, capsys, payload, law):
    # x**3 of a finite entry overflows a float: refused before anything is drawn
    model = write_model(tmp_path, "big.json", payload)
    code = main(["bound", "--model", model])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "usage error: model file %s: the moments of %s overflow a float\n" % (model, law)


@pytest.mark.parametrize("entries, message", [
    ([{"i": 1.7, "j": 1, "dist": "constant", "value": 1.0}], "entry 1: i = 1.7 is not an integer"),
    ([{"i": 1, "j": 1, "dist": "constant", "value": 1.0},
      {"i": 2, "j": 0.5, "dist": "constant", "value": 1.0}], "entry 2: j = 0.5 is not an integer"),
    ([{"i": 1, "j": 2, "dist": "constant", "value": 1.0},
      {"i": 2, "j": 2, "dist": "constant", "value": -1.0},
      {"i": 1.0, "j": 2, "dist": "gaussian", "var": 1.0}],
     "entry 3: (1, 2) is already given by entry 1"),
], ids=["fractional-i", "fractional-j", "repeated"])
def test_malformed_entry_coordinates_are_usage_errors(tmp_path, capsys, entries, message):
    model = write_model(tmp_path, "e.json", {"type": "array", "n": 2, "entries": entries})
    code = main(["bound", "--model", model])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "usage error: model file %s: %s\n" % (model, message)


@pytest.mark.parametrize("payload", [
    {"type": "array", "preset": "iid-rademacher", "n": 8, "scale": 1e90},
    {"type": "array", "preset": "deterministic",
     "matrix": [[1e100, -1e100, 0], [-1e100, 1e100, 0], [0, 0, 0]]},
], ids=["iid-rademacher-1e90", "deterministic-1e100"])
def test_verify_covariance_at_large_entry_scale(tmp_path, capsys, payload):
    # Zhat's products near 1e180 would overflow their squared deviations;
    # measured in a power of two near s_n they do not
    code, out = run(capsys, ["verify-covariance", "--model",
                             write_model(tmp_path, "big.json", payload), "--grid", "3"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(checks) == ["prelimit_grid_psd", "zhat_cov_mc", "dn_grid_cov_mc"]
    assert checks.pop("prelimit_grid_psd")["pass"]
    assert all(c["pass"] and c["detail"].endswith(" over 20000 samples")
               for c in checks.values()), checks


@pytest.mark.parametrize("payload", [
    {"type": "graph", "n": 64, "p": 0.3},
    {"type": "array", "preset": "iid-gaussian", "n": 64},
])
def test_verify_regression_at_n64(tmp_path, capsys, payload):
    model = write_model(tmp_path, "m64.json", payload)
    code, out = run(capsys, ["verify-regression", "--model", model, "--trials", "2"])
    assert code == 0
    assert json.loads(out)["values"][0]["value"] < 1e-9


@pytest.mark.parametrize("kind", ["graph", "array"])
def test_verify_regression_nan_residual_fails(tmp_path, capsys, monkeypatch, kind):
    # a NaN in the middle block of three must reach the check, not be
    # folded away by a max that skips it
    model = graph_model(tmp_path, n=12, p=0.3) if kind == "graph" else iid_model(tmp_path, 12)
    mod = ou.family(cli._load_model(model)[1])
    residuals, calls = mod.regression_residual, []

    def nan_in_second_block(real, funcs):
        calls.append(1)
        out = residuals(real, funcs)
        return np.full_like(out, np.nan) if len(calls) == 2 else out

    monkeypatch.setattr(mod, "regression_residual", nan_in_second_block)
    monkeypatch.setattr(cli, "REGRESSION_TERMS", 5 * 12**2 * 2)  # 5 trials per block
    code, out = run(capsys, ["verify-regression", "--model", model, "--trials", "15"])
    assert len(calls) == 3
    assert code == 1
    report = json.loads(out)
    (check,) = report["checks"]
    assert check["name"] == "regression_identity" and not check["pass"]
    assert check["detail"] == "max residual nan"
    assert "values" not in report  # a canonical report holds no NaN value


def test_verify_covariance_nan_relative_difference_fails(tmp_path, capsys, monkeypatch):
    side_cov = gr.brownian_side_cov

    def nan_edge_entry(n, p, mt, mu):
        # at the second of the 64 points: a fold that keeps only a first NaN passes
        b = side_cov(n, p, mt, mu)
        b[1, 0, 0] = np.nan
        return b

    monkeypatch.setattr(gr, "brownian_side_cov", nan_edge_entry)
    code, out = run(capsys, ["verify-covariance", "--model", graph_model(tmp_path),
                             "--samples", "0"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["edge_block_identity"]["pass"]
    assert checks["edge_block_identity"]["detail"] == "max rel diff nan"
    assert checks["cross_block_identity"]["pass"]


def test_verify_covariance_nan_cov_tv_past_the_first_time_fails(tmp_path, capsys, monkeypatch):
    # a NaN at t = 1, the last of the 8 grid times, must reach the TT check
    cov_tv = gr.cov_tv

    def nan_at_one(model, t):
        c = cov_tv(model, t)
        if t == 1:
            c[0, 0] = np.nan
        return c

    monkeypatch.setattr(gr, "cov_tv", nan_at_one)
    code, out = run(capsys, ["verify-covariance", "--model", graph_model(tmp_path, 12, 0.3),
                             "--samples", "0"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["cov_tv_vs_prelimit_TT"]["pass"]
    assert checks["cov_tv_vs_prelimit_TT"]["detail"] == "max abs diff nan"
    assert checks["cov_tv_vs_prelimit_TV"]["pass"]


@pytest.mark.parametrize("kind", ["graph", "array"])
def test_verify_covariance_constant_column_off_target_fails(tmp_path, capsys, monkeypatch,
                                                           kind):
    # a constant product column has zero stderr, so its mean is compared
    # with the target exactly (at --tol) instead of by a z-score
    if kind == "graph":  # D_n = 0: constant, and off every nonzero target
        monkeypatch.setattr(gr, "sample_dn_values",
                            lambda model, rng, size, cuts: np.zeros((size, len(cuts), 2)))
        model, check = graph_model(tmp_path, n=4, p=0.3), "dn_grid_cov_mc"
    else:  # Zhat = 1 everywhere
        monkeypatch.setattr(comb, "sample_zhat_values",
                            lambda model, rng, size: np.ones((size, model.n)))
        model, check = iid_model(tmp_path, 4), "zhat_cov_mc"
    code, out = run(capsys, ["verify-covariance", "--model", model,
                             "--samples", "600", "--grid", "2"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks[check]["pass"]
    assert checks[check]["detail"] == "max |z| inf over 600 samples"
    if kind == "array":
        assert checks["dn_grid_cov_mc"]["pass"]


def test_verify_covariance_constant_columns_on_target_pass(tmp_path, capsys):
    # graph D_n's edge coordinate is 0 at rows k <= 2 and both coordinates
    # at k <= 1, and so are the targets: those columns pass exactly
    model = graph_model(tmp_path, n=4, p=0.3)
    code, out = run(capsys, ["verify-covariance", "--model", model, "--samples", "4000",
                             "--grid", "8"])
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["dn_grid_cov_mc"]["pass"], checks
    assert code == 1 and not checks["cov_tv_vs_prelimit_VV"]["pass"]  # by design


def test_verify_covariance_graph_identities(tmp_path, capsys):
    model = graph_model(tmp_path, n=7, p=0.3)
    code, out = run(
        capsys,
        ["verify-covariance", "--model", model, "--samples", "20000"],
    )
    report = json.loads(out)
    checks = {c["name"]: c for c in report["checks"]}
    for name in (
        "edge_block_identity", "cross_block_identity", "twostar_block_identity",
        "twostar_variance_identity",
    ):
        assert checks[name]["pass"], checks[name]
    for name in ("cov_tv_vs_prelimit_TT", "cov_tv_vs_prelimit_TV"):
        assert checks[name]["pass"], checks[name]
    assert checks["prelimit_grid_psd"]["pass"]
    assert checks["dn_grid_cov_mc"]["pass"]
    # the two-star variance entry of the rank-one covariance cannot match
    # the pre-limit, which carries extra variance components by design;
    # the command reports that honestly
    assert not checks["cov_tv_vs_prelimit_VV"]["pass"]
    assert code == 1


@pytest.mark.parametrize("n, p, grid", [(12, 0.3, 8), (64, 0.9, 12), (7, 0.05, 7)])
def test_twostar_variance_identity_fails_an_inflated_vv(tmp_path, capsys, monkeypatch,
                                                        n, p, grid):
    # the pre-limit's two-star variance is var_v_exact plus its excess to
    # roundoff; the VV entries scaled by 1 + 1e-9 fail at the default --tol
    argv = ["verify-covariance", "--model", graph_model(tmp_path, n, p), "--samples", "0",
            "--grid", str(grid)]
    code, out = run(capsys, argv)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["twostar_variance_identity"]["pass"], checks["twostar_variance_identity"]
    assert code == 1 and [c for c in checks if not checks[c]["pass"]] == [
        "cov_tv_vs_prelimit_VV"]
    cov = gr.prelimit_cov

    def inflated_vv(model, times):
        c = cov(model, times)
        vv = np.arange(1, len(c), 2)
        c[vv, vv] *= 1 + 1e-9
        return c

    monkeypatch.setattr(gr, "prelimit_cov", inflated_vv)
    code, out = run(capsys, argv)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and not checks["twostar_variance_identity"]["pass"]
    worst = float(checks["twostar_variance_identity"]["detail"].split()[-1])
    assert worst == pytest.approx(1e-9, rel=1e-3)
    assert checks["twostar_block_identity"]["pass"]


def test_tol_identities_are_the_checks_read_at_tol(tmp_path, capsys):
    # the graph's TOL_IDENTITIES name exactly its checks that compare at
    # --tol at --samples 0; the array names none, so there it refuses --tol
    model = graph_model(tmp_path, 8, 0.3)
    code, out = run(capsys, ["verify-covariance", "--model", model, "--samples", "0",
                             "--grid", "4", "--tol", "1e-7"])
    at_tol = [c["name"] for c in json.loads(out)["checks"] if c["tolerance"] == 1e-7]
    assert code == 1 and at_tol == list(gr.TOL_IDENTITIES)
    assert comb.TOL_IDENTITIES == ()


def test_graph_dn_grid_cov_mc_passes_and_is_worker_independent(tmp_path, capsys):
    # every pair of (row, coordinate) columns of the --grid rows, against
    # the pre-limit's grid covariance, at the default --samples and --grid
    model = write_model(tmp_path, "g12.json", {"type": "graph", "n": 12, "p": 0.3})
    outputs = []
    for workers in ("1", "2"):
        code, out = run(capsys, ["verify-covariance", "--model", model,
                                 "--workers", workers])
        outputs.append(out)
    assert outputs[0] == outputs[1]
    checks = {c["name"]: c for c in json.loads(outputs[0])["checks"]}
    assert checks["dn_grid_cov_mc"]["pass"], checks["dn_grid_cov_mc"]
    assert checks["dn_grid_cov_mc"]["detail"].endswith("over 20000 samples")
    assert code == 1 and not checks["cov_tv_vs_prelimit_VV"]["pass"]  # by design


def test_graph_dn_grid_cov_mc_fails_an_inflated_sampler(tmp_path, capsys, monkeypatch):
    # negative control: D_n with every covariance entry scaled by 1.1
    sample = gr.sample_dn_values
    monkeypatch.setattr(gr, "sample_dn_values", lambda model, rng, size, cuts:
                        np.sqrt(1.1) * sample(model, rng, size, cuts))
    model = write_model(tmp_path, "g12.json", {"type": "graph", "n": 12, "p": 0.3})
    code, out = run(capsys, ["verify-covariance", "--model", model])
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and not checks["dn_grid_cov_mc"]["pass"], checks["dn_grid_cov_mc"]
    assert checks["twostar_block_identity"]["pass"]


def test_verify_covariance_array_psd_check_at_zero_samples(tmp_path, capsys, monkeypatch):
    # an array run that draws nothing still checks its closed-form
    # covariance: it passes, and a covariance negated fails
    argv = ["verify-covariance", "--model", iid_model(tmp_path, 8), "--samples", "0"]
    code, out = run(capsys, argv)
    checks = json.loads(out)["checks"]
    assert code == 0 and [c["name"] for c in checks] == ["prelimit_grid_psd"]
    assert checks[0]["pass"]
    cov = comb.prelimit_cov
    monkeypatch.setattr(comb, "prelimit_cov", lambda model, times: -cov(model, times))
    code, out = run(capsys, argv)
    assert code == 1 and not json.loads(out)["checks"][0]["pass"]


def test_verify_covariance_degenerate_grid(tmp_path, capsys):
    model = graph_model(tmp_path, n=7, p=0.3)
    code, out = run(
        capsys,
        ["verify-covariance", "--model", model, "--grid", "0", "--samples", "0"],
    )
    report = json.loads(out)
    checks = {c["name"]: c for c in report["checks"]}
    assert "vacuous" in checks["cov_tv_vs_prelimit_VV"]["detail"]
    assert code == 0


def test_verify_covariance_graph_grid_zero_dn_check_is_vacuous(tmp_path, capsys):
    # --grid 0 reads time 0 alone, where D_n and its covariance vanish
    model = graph_model(tmp_path, n=7, p=0.3)
    code, out = run(capsys, ["verify-covariance", "--model", model, "--grid", "0",
                             "--samples", "500"])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["dn_grid_cov_mc"]["pass"]
    assert checks["dn_grid_cov_mc"]["detail"] == "max |z| 0.00 (degenerate grid, vacuous)"
    assert list(checks)[-1] == "dn_grid_cov_mc"


def test_verify_covariance_array_degenerate_grid(tmp_path, capsys):
    code, out = run(
        capsys,
        ["verify-covariance", "--model", iid_model(tmp_path, 6), "--grid", "0",
         "--samples", "500"],
    )
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["dn_grid_cov_mc"]["detail"] == "max |z| 0.00 (degenerate grid, vacuous)"
    assert "vacuous" not in checks["zhat_cov_mc"]["detail"]


def test_verify_covariance_array(tmp_path, capsys):
    code, out = run(
        capsys,
        ["verify-covariance", "--model", det_model(tmp_path), "--samples", "20000",
         "--grid", "3"],
    )
    assert code == 0
    report = json.loads(out)
    assert all(c["pass"] for c in report["checks"])


def test_distance_graph_passes(tmp_path, capsys):
    model = graph_model(tmp_path, n=32, p=0.5)
    code, out = run(
        capsys,
        ["distance", "--model", model, "--samples", "20000",
         "--functional", "sin:coord=1,t=1"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["pass"]
    assert report["bounds"][0]["value"] == pytest.approx(12.0 * 4.0 / 32)


def test_distance_combinatorial_passes(tmp_path, capsys):
    code, _ = run(
        capsys,
        ["distance", "--model", iid_model(tmp_path, 16), "--samples", "20000",
         "--functional", "sin:coord=1,t=1"],
    )
    assert code == 0


def test_distance_zero_samples_usage_error(tmp_path, capsys):
    code, _ = run(
        capsys,
        ["distance", "--model", graph_model(tmp_path, 8), "--samples", "0"],
    )
    assert code == 2


@pytest.mark.parametrize("kind", ["graph", "array"])
def test_verify_covariance_one_sample_is_usage_error(tmp_path, capsys, monkeypatch, kind):
    # one sample has no standard error, so it could only be compared with
    # its target exactly; it is refused before anything is drawn
    draws = []
    monkeypatch.setattr(gr, "brownian_side_cov", lambda *a: draws.append(a))
    monkeypatch.setattr(ou.TargetLaw, "sample_at", lambda *a: draws.append(a))
    model = graph_model(tmp_path, 12, 0.3) if kind == "graph" else iid_model(tmp_path, 12)
    code = main(["verify-covariance", "--model", model, "--samples", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and draws == []
    assert err.startswith("usage error: --samples 1 ")


@pytest.mark.parametrize("kind, widest", [("graph", 512), ("array", 1024)])
def test_verify_covariance_grid_budget(tmp_path, capsys, monkeypatch, kind, widest):
    # the stacked covariance holds (grid x dim)^2 entries: the widest grid
    # within the budget runs, and the next one is refused, naming the count,
    # before a covariance is formed or anything drawn
    assert cli.COVARIANCE_ENTRIES == 1 << 20
    model = graph_model(tmp_path, 12, 0.3) if kind == "graph" else iid_model(tmp_path, 12)
    argv = ["verify-covariance", "--model", model, "--samples", "0", "--grid"]
    code, out = run(capsys, argv + [str(widest)])
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    # the graph's VV entry fails by design; every other check passes
    assert code == (1 if kind == "graph" else 0)
    assert [name for name, ok in checks.items() if not ok] == (
        ["cov_tv_vs_prelimit_VV"] if kind == "graph" else [])
    calls = []
    monkeypatch.setattr(ou.TargetLaw, "cov_matrix", lambda *a: calls.append(a))
    monkeypatch.setattr(ou.TargetLaw, "sample_at", lambda *a: calls.append(a))
    code = main(argv + [str(widest + 1)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and calls == []
    entries = (2 * (widest + 1) if kind == "graph" else widest + 1) ** 2
    assert err.startswith("usage error: verify-covariance --grid %d stacks (grid x dim)^2 = "
                          "%d covariance entries, over the budget of %d"
                          % (widest + 1, entries, 1 << 20))


@pytest.mark.parametrize("command", ["simulate", "distance", "coupling"])
def test_one_sample_is_usage_error(tmp_path, capsys, monkeypatch, graph_draws, command):
    # an estimate of one sample has stderr 0, so distance passed it with
    # "ci 0"; the parser refuses --samples 1 before anything is drawn
    couplings = []
    monkeypatch.setattr(gr, "coupling_distance", lambda *a, **k: couplings.append(a))
    model = [] if command == "coupling" else ["--model", graph_model(tmp_path, 12, 0.3)]
    extra = ["--n", "8", "--p", "0.3"] if command == "coupling" else []
    code = main([command, *model, *extra, "--samples", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and graph_draws == [] and couplings == []
    assert "--samples: must be at least 2, got 1" in err


def test_distance_uncertified_functional_usage_error(tmp_path, capsys):
    code, _ = run(
        capsys,
        ["distance", "--model", graph_model(tmp_path, 8), "--samples", "100",
         "--functional", "nonsense:t=1"],
    )
    assert code == 2


def test_coupling_bounds(tmp_path, capsys):
    code, out = run(
        capsys, ["coupling", "--n", "100", "--p", "0.3", "--samples", "500"]
    )
    assert code == 0
    report = json.loads(out)
    bounds = {b["name"]: b["value"] for b in report["bounds"]}
    assert bounds["bound sup_distance"] == pytest.approx(12.14, abs=0.01)
    ests = {e["name"]: e["value"] for e in report["estimates"]}
    assert ests["sup_distance"] <= bounds["bound sup_distance"]
    assert ests["sup_z_sq"] <= 5.0


@pytest.mark.parametrize("n, refused", [(gr.COUPLING_MAX_N, False), (gr.COUPLING_MAX_N + 1, True)])
def test_coupling_refuses_an_n_past_the_one_sample_budget(capsys, monkeypatch, n, refused):
    # one coupled sample holds 73 n + 5 floats; past n = 7181 it exceeds an
    # eighth of the memory budget, so such an n is a usage error, raised
    # before the merged clock is built
    assert gr.COUPLING_MAX_N == 7181 and mc.MEMORY_BUDGET == 1 << 25
    built, build = [], gr._coupled_sampler
    monkeypatch.setattr(gr, "_coupled_sampler", lambda model: built.append(model.n) or build(model))
    code = main(["coupling", "--n", str(n), "--p", "0.3", "--samples", "2"])
    out, err = capsys.readouterr()
    if refused:
        assert code == 2 and out == "" and built == []
        assert err.startswith("usage error: ") and "n is at most 7181" in err
    else:
        assert code == 0 and built == [n]
        assert json.loads(out)["parameters"]["chunk"] == 1


def test_coupling_estimates_decrease(tmp_path, capsys):
    vals = []
    for n in (16, 256):
        code, out = run(
            capsys, ["coupling", "--n", str(n), "--p", "0.3", "--samples", "400"]
        )
        assert code == 0
        report = json.loads(out)
        vals.append({e["name"]: e["value"] for e in report["estimates"]}["sup_distance"])
    assert vals[1] < vals[0]


def test_bound_commands(tmp_path, capsys):
    code, out = run(capsys, ["bound", "--model", graph_model(tmp_path, 100, 0.3)])
    assert code == 0
    bounds = {b["name"]: b["value"] for b in json.loads(out)["bounds"]}
    assert bounds["prelimit_12g_over_n"] == pytest.approx(0.12)
    code, out = run(capsys, ["bound", "--model", iid_model(tmp_path, 10)])
    assert code == 0
    bounds = {b["name"]: b["value"] for b in json.loads(out)["bounds"]}
    assert "total" in bounds and "total_third_moment_variant" in bounds


@pytest.mark.parametrize("kind, gnorm, overflowing", [
    ("graph", "1e308", "prelimit_12g_over_n, continuous_sqrt_log"),
    ("graph", "1.7e306", "continuous_sqrt_log"),
    ("array", "1e308", "five_index_term"),
])
def test_bound_overflowing_gnorm_is_usage_error(tmp_path, capsys, kind, gnorm, overflowing):
    # a finite --gnorm whose bounds overflow is refused before the report is
    # emitted (it used to end in a ReportError traceback), and --out is not
    # written
    model = graph_model(tmp_path, 12, 0.3) if kind == "graph" else iid_model(tmp_path, 12)
    out_file = tmp_path / "report.json"
    code = main(["bound", "--model", model, "--gnorm", gnorm, "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_file.exists()
    assert err.startswith("usage error: --gnorm %r overflows the bounds " % float(gnorm))
    assert overflowing in err
    # a --gnorm whose bounds fit is still reported
    code, out = run(capsys, ["bound", "--model", model, "--gnorm", "1e300"])
    assert code == 0 and len(json.loads(out)["bounds"]) >= 5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, spec", [
    ("array", "lin:coords=1,t=0,w=1e307"),
    ("graph", "lin:coords=1,t=0,w=1e308"),
    ("graph", "lin:coords=1,2,t=0,0,w=1e308,1e308"),
])
def test_distance_overflowing_bound_is_usage_error(tmp_path, capsys, kind, spec):
    # at t = 0 the draws are 0 and stay finite, but the functional's bound
    # overflows: distance refuses it before drawing (it used to end in a
    # ReportError traceback), names the functional, and writes no --out
    model = graph_model(tmp_path, 12, 0.3) if kind == "graph" else iid_model(tmp_path, 12)
    label = cli.parse_functional(spec, 2 if kind == "graph" else 1).label
    out_file = tmp_path / "report.json"
    code = main(["distance", "--model", model, "--samples", "100", "--functional", spec,
                 "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not out_file.exists()
    assert err.startswith("usage error: the distance bound of %s overflows " % label)
    # simulate reads no bound, so the same functional runs, with nothing on stderr
    code = main(["simulate", "--model", model, "--samples", "100", "--functional", spec])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert [e["value"] for e in json.loads(out)["estimates"]] == [0, 0]


def test_stein_identity_command(tmp_path, capsys):
    code, out = run(
        capsys,
        ["stein-identity", "--model", det_model(tmp_path), "--samples", "20000",
         "--functional", "sin:coord=1,t=1"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["pass"]


def test_simulate_command_and_csv(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, _ = run(
        capsys,
        ["simulate", "--model", det_model(tmp_path), "--samples", "2000",
         "--functional", "sin:coord=1,t=1", "--format", "csv",
         "--out", str(out_file)],
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "name,kind,value,stderr,ci_lo,ci_hi,count,pass"
    assert len(lines) >= 3


def test_reports_byte_identical_across_workers(tmp_path, capsys):
    model = iid_model(tmp_path, 6)
    graph = graph_model(tmp_path, 10, 0.3)
    # rows of equal laws (multi-row runs of the D_n kernel) ...
    rademacher = write_model(
        tmp_path, "rad.json", {"type": "array", "preset": "iid-rademacher", "n": 6}
    )
    # ... and rows that all differ (one row per run)
    heterogeneous = write_model(tmp_path, "het.json", {"type": "array", "n": 3, "entries": [
        {"i": 1, "j": 1, "dist": "gaussian", "mean": 1.0, "var": 2.0},
        {"i": 1, "j": 2, "dist": "rademacher-shifted", "mean": -1.0, "scale": 0.5},
        {"i": 2, "j": 1, "dist": "two-point", "x1": 0.0, "p1": 0.5, "x2": -2.0},
        {"i": 2, "j": 2, "dist": "constant", "value": 1.0},
        {"i": 3, "j": 3, "dist": "gaussian", "var": 1.0},
    ]})
    commands = [
        ["distance", "--model", rademacher, "--samples", "8192",
         "--functional", "cos:coord=1,t=1/2"],
        ["simulate", "--model", heterogeneous, "--samples", "8192",
         "--functional", "sin:coord=1,t=2/3"],
        ["distance", "--model", model, "--samples", "8192",
         "--functional", "cos:coord=1,t=1/2"],
        ["simulate", "--model", model, "--samples", "8192",
         "--functional", "sin:coord=1,t=1/4"],
        ["stein-identity", "--model", model, "--samples", "8192",
         "--functional", "sin:coord=1,t=1/2"],
        ["verify-covariance", "--model", model, "--samples", "8192", "--grid", "3"],
        ["verify-covariance", "--model", graph, "--samples", "8192", "--grid", "3"],
        ["simulate", "--model", graph, "--samples", "8192",
         "--functional", "cos:coord=2,t=1/2"],
        ["stein-identity", "--model", graph, "--samples", "8192",
         "--functional", "tanhprod:coords=1,2,t=1/2,1"],
        # 4500 samples span eight coupling chunks of 595
        ["coupling", "--n", "12", "--p", "0.3", "--samples", "4500"],
    ]
    for argv in commands:
        outputs = []
        for workers in ("1", "2", "3"):
            _, out = run(capsys, argv + ["--seed", "7", "--workers", workers])
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2], argv[:3]


def test_coupling_honours_workers(capsys, monkeypatch):
    seen = []
    run_tasks = mc._run_tasks

    def spy(task, n_tasks, workers):
        seen.append(workers)
        return run_tasks(task, n_tasks, workers)

    monkeypatch.setattr(mc, "_run_tasks", spy)
    code, _ = run(capsys, ["coupling", "--n", "8", "--p", "0.3", "--samples", "4500",
                           "--workers", "2"])
    assert code == 0
    assert seen == [2]


@pytest.mark.parametrize("kind", ["graph", "array"])
def test_verify_covariance_honours_workers(tmp_path, capsys, monkeypatch, kind):
    seen = []
    run_tasks = mc._run_tasks

    def spy(task, n_tasks, workers):
        seen.append(workers)
        return run_tasks(task, n_tasks, workers)

    monkeypatch.setattr(mc, "_run_tasks", spy)
    model = graph_model(tmp_path, 10, 0.3) if kind == "graph" else iid_model(tmp_path, 6)
    code, out = run(capsys, ["verify-covariance", "--model", model, "--samples", "5000",
                             "--grid", "3", "--workers", "2"])
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    if kind == "graph":  # one sampler check; VV fails by design
        assert code == 1 and checks["dn_grid_cov_mc"]["pass"]
        assert seen == [2]
    else:  # the Zhat and the D_n grid checks
        assert code == 0
        assert seen == [2, 2]


def test_tol_only_on_verify_commands(tmp_path, capsys):
    model = det_model(tmp_path)
    assert main(["simulate", "--model", model, "--samples", "10", "--tol", "1"]) == 2
    assert main(["bound", "--model", model, "--tol", "1"]) == 2
    code, out = run(capsys, ["verify-covariance", "--model", model, "--samples", "0"])
    assert json.loads(out)["parameters"]["tol"] == 1e-10
    code, out = run(capsys, ["verify-regression", "--model", model, "--trials", "1",
                             "--tol", "1e-3"])
    assert code == 0
    assert json.loads(out)["parameters"]["tol"] == 1e-3


def test_tol_that_no_check_reads_is_usage_error(tmp_path, capsys, monkeypatch):
    # an array run at --samples 0 has one check, prelimit_grid_psd, whose
    # bound is fixed: a --tol given there is refused before anything is
    # computed, even at the default's value; a run that reads it takes it
    array, graph = iid_model(tmp_path, 4), graph_model(tmp_path, 8, 0.3)
    calls = []
    monkeypatch.setattr(ou, "TargetLaw", lambda model: calls.append(model))
    for tol in ("0", "1e-10", "1e300"):
        assert main(["verify-covariance", "--model", array, "--samples", "0", "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == "" and calls == []
        assert err == ("usage error: --tol is read by no check of an array model at "
                       "--samples 0: prelimit_grid_psd has the fixed bound -1e-9 (omit "
                       "--tol, or draw at least 2 samples)\n")
    monkeypatch.undo()
    code, out = run(capsys, ["verify-covariance", "--model", array, "--samples", "0"])
    assert code == 0 and json.loads(out)["parameters"]["tol"] == 1e-10
    for argv in (["--model", array, "--samples", "100"],  # the Monte Carlo checks
                 ["--model", graph, "--samples", "0"]):  # the block identities
        code, out = run(capsys, ["verify-covariance", "--tol", "1e300"] + argv)
        assert code in (0, 1) and json.loads(out)["parameters"]["tol"] == 1e300


@pytest.mark.parametrize("command", ["verify-covariance", "verify-regression"])
def test_negative_tol_is_usage_error(tmp_path, capsys, monkeypatch, command):
    # a tolerance is a largest accepted difference, so it is at least 0;
    # 0 asks for exact agreement, and an exact residual meets it: at --grid 0
    # D_n's one product column is exactly 0, as is its target
    model = iid_model(tmp_path, 4)
    extra = (["--samples", "100", "--grid", "0"] if command == "verify-covariance"
             else ["--trials", "1"])
    assert main([command, "--model", model, "--tol", "-1"] + extra) == 2
    assert "--tol: must be at least 0.0, got -1" in capsys.readouterr().err
    monkeypatch.setattr(comb, "regression_residual",
                        lambda real, funcs: np.zeros((len(funcs), len(real.values))))
    code, out = run(capsys, [command, "--model", model, "--tol", "0"] + extra)
    assert code == 0 and json.loads(out)["parameters"]["tol"] == 0


def test_report_values_round_trip(tmp_path, capsys):
    report = RunReport("distance", {}, 0, "test")
    report.add_estimate("E[g(Y)]", from_values([1.0, 2.0]))
    report.add_value("gap lin:coords=1,1,t=1/2,1,w=1,-1", 0.1 + 0.2)
    report.add_bound("bound", 3.0)
    data = json.loads(report.to_json())
    assert data["values"] == [{"name": "gap lin:coords=1,1,t=1/2,1,w=1,-1",
                               "value": 0.1 + 0.2}]
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert [row[1] for row in rows[1:]] == ["estimate", "value", "bound"]
    assert rows[2] == ["gap lin:coords=1,1,t=1/2,1,w=1,-1", "value",
                       "0.30000000000000004", "", "", "", "", ""]
    assert float(rows[2][2]) == 0.1 + 0.2
    assert "values" not in json.loads(RunReport("simulate", {}, 0, "test").to_json())
    # distance reports its gap as a value, not as a two-sample estimate
    argv = ["distance", "--model", iid_model(tmp_path, 6), "--samples", "500",
            "--functional", "sin:coord=1,t=1"]
    code, out = run(capsys, argv)
    data = json.loads(out)
    est = {e["name"]: e["value"] for e in data["estimates"]}
    assert list(est) == ["E[g(Y)] sin:coord=1,t=1", "E[g(D)] sin:coord=1,t=1"]
    assert data["values"] == [{"name": "gap sin:coord=1,t=1",
                               "value": abs(est["E[g(Y)] sin:coord=1,t=1"]
                                            - est["E[g(D)] sin:coord=1,t=1"])}]
    code, out = run(capsys, argv + ["--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 8 for row in rows)
    assert rows[3][:2] == ["gap sin:coord=1,t=1", "value"]
    assert float(rows[3][2]) == data["values"][0]["value"]


def test_csv_labels_with_commas_round_trip(tmp_path, capsys):
    report = RunReport("simulate", {}, 0, "test")
    names = ['E[g(Y)] lin:coords=1,1,t=1/2,1,w=1,-1', 'say "hi", twice']
    for name in names:
        report.add_estimate(name, from_values([1.0, 2.0]))
        report.add_bound(name, 3.0)
        report.add_check(name, True, 0.1)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == ["name", "kind", "value", "stderr", "ci_lo", "ci_hi", "count", "pass"]
    assert all(len(row) == 8 for row in rows)
    assert [row[0] for row in rows[1:]] == names * 3  # estimates, bounds, checks
    code, out = run(
        capsys,
        ["simulate", "--model", det_model(tmp_path), "--samples", "100",
         "--functional", "tanhprod:coords=1,1,t=1/3,1", "--format", "csv"],
    )
    assert code == 0
    assert out.startswith("name,kind,value,stderr,ci_lo,ci_hi,count,pass\n")
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 8 for row in rows)
    assert rows[1][0] == "E[g(Y)] tanhprod:coords=1,1,t=1/3,1"


def test_report_rerun_reproduces_estimates(tmp_path, capsys):
    model = graph_model(tmp_path, 8, 0.4)
    args = ["simulate", "--model", model, "--samples", "3000", "--seed", "11"]
    _, first = run(capsys, args)
    _, second = run(capsys, args)
    assert first == second
    report = json.loads(first)
    assert report["seed"] == 11
    assert report["parameters"]["samples"] == 3000


def test_report_names_its_bit_generator(tmp_path, capsys):
    # a report that draws names the engine's bit generator, so a report made
    # under another generator cannot pass for a rerun; the CSV layout and
    # the report of bound, which draws nothing, carry no such field
    model = graph_model(tmp_path, 8, 0.4)
    args = ["simulate", "--model", model, "--samples", "3000", "--seed", "3"]
    _, first = run(capsys, args)
    _, second = run(capsys, args)
    assert first == second
    assert json.loads(first)["bit_generator"] == "SFC64"
    _, text = run(capsys, args + ["--format", "csv"])
    assert "SFC64" not in text
    _, out = run(capsys, ["bound", "--model", model])
    assert "bit_generator" not in json.loads(out)


@pytest.fixture
def unbuilt_parser():
    # main builds its parser once per process; a test that counts or
    # patches the builds starts from none and leaves none behind
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch, unbuilt_parser):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    model = graph_model(tmp_path, 8, 0.3)
    codes = [main(argv) for argv in (["bound", "--model", model],
                                     ["simulate", "--model", model, "--samples", "1"],
                                     ["bound", "--help"],
                                     ["bound", "--model", model])]
    assert codes == [0, 2, 0, 0] and len(builds) == 1


def test_shared_parser_runs_like_a_fresh_one(tmp_path, capsys, unbuilt_parser):
    # one process's sequence of commands gives each the exit code, stdout and
    # stderr that a freshly built parser gives it; simulate without
    # --functional after a run with one still takes the default library
    model = graph_model(tmp_path, 8, 0.3)
    sequence = [
        ["simulate", "--model", model, "--samples", "500", "--functional", "sin:coord=1,t=1"],
        ["simulate", "--model", model, "--samples", "500"],
        ["distance", "--model", model, "--samples", "1"],
        ["--help"],
        ["distance", "--model", model, "--samples", "500", "--format", "csv"],
        ["bound", "--model", model],
        ["verify-covariance", "--model", model, "--samples", "500", "--grid", "2"],
        ["coupling", "--n", "8", "--p", "0.3", "--samples", "500"],
        ["simulate", "--model", model, "--samples", "500"],
    ]

    def results(fresh):
        out = []
        for argv in sequence:
            if fresh:
                cli._parser.cache_clear()
            out.append((main(argv), *capsys.readouterr()))
        return out

    shared = results(fresh=False)
    assert shared == results(fresh=True)
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 1, 0, 0]
    library = [g.label for g in certified_library(2)]
    assert json.loads(shared[1][1])["parameters"]["functionals"] == library
    assert shared[-1] == shared[1]


def test_command_patched_after_the_parser_is_built_runs(tmp_path, capsys, monkeypatch):
    model = graph_model(tmp_path, 8, 0.3)
    assert run(capsys, ["bound", "--model", model])[0] == 0  # the parser is built
    seen = []
    monkeypatch.setattr(cli, "cmd_bound", lambda args, *rest: seen.append(args.command))
    code, out = run(capsys, ["bound", "--model", model])
    assert code == 0 and seen == ["bound"] and json.loads(out)["bounds"] == []


def test_canonical_json_float_round_trip():
    x = 0.1 + 0.2
    text = canonical_json({"v": x})
    assert json.loads(text)["v"] == x


def test_control_characters_round_trip(tmp_path, capsys):
    controls = "".join(map(chr, range(32)))
    report = RunReport(command="bound", parameters={"model": controls, controls: 1},
                       seed=0, version="v")
    assert json.loads(report.to_json())["parameters"] == {"model": controls, controls: 1}
    # from U+0020 up only the quote and the backslash are escaped
    text = "".join(map(chr, range(32, 0x30000)))
    assert canonical_json(text) == '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')
    model = write_model(tmp_path, "g\x01.json", {"type": "graph", "n": 5, "p": 0.5})
    code, out = run(capsys, ["bound", "--model", model])
    assert code == 0
    assert json.loads(out)["parameters"]["model"] == model


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_model_file_is_usage_error(tmp_path, capsys):
    code, _ = run(capsys, ["bound", "--model", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize("name", ["models", "file.json/graph.json"])
def test_unreadable_model_path_is_usage_error(tmp_path, capsys, name):
    # a directory, or a path through a regular file: OSErrors other than a
    # missing file
    (tmp_path / "models").mkdir()
    (tmp_path / "file.json").write_text("{}")
    model = tmp_path / name
    code = main(["bound", "--model", str(model)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage error: model file %s: " % model)
    assert err.count("\n") == 1


@pytest.fixture
def graph_draws(monkeypatch):
    """Records every graph Y call."""
    calls, sample_y = [], gr.sample_y_values

    def spy(*args, **kwargs):
        calls.append(args[0])
        return sample_y(*args, **kwargs)

    monkeypatch.setattr(gr, "sample_y_values", spy)
    return calls


@pytest.mark.parametrize("spec", ["sin:coord=3,t=1", "sin:coord=0,t=1", "cos:coord=3,t=1/2"])
def test_coordinate_outside_model_is_usage_error(tmp_path, capsys, graph_draws, spec):
    code = main(["simulate", "--model", graph_model(tmp_path, 12, 0.3), "--samples", "100",
                 "--functional", spec])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "usage error: coord %s outside 1..2\n" % spec.split("=")[1].split(",")[0]
    assert graph_draws == []


@pytest.mark.parametrize("spec, field", [
    ("sin:coord=1,t=2", "'t'"),
    ("sin:coord=x,t=1", "'coord'"),
    ("sin:coord=1,t=abc", "'t'"),
    ("lin:coords=1,t=1,w=abc", "'w'"),
    ("sin:coord=1,t=1/0", "'t'"),
    ("sin:coord=1,t=1,w=5", "'w'"),
    ("sin:coord=1,t=1/2,1", "'t'"),
    ("cos:coord=1,2,t=1", "'coord'"),
    ("tanhprod:coords=1,t=1,w=2", "'w'"),
    ("sin:coord=1,t=1,t=1/2", "'t'"),
    ("lin:coord=1,coords=2,t=1,1", "'coords'"),
    ("lin:coords=1,t=1/12,w=nan", "'w'"),
    ("lin:coords=1,t=1/12,w=inf", "'w'"),
    ("lin:coords=1,2,t=1,1,w=1,-1e400", "'w'"),
    ("lin:coords=1,1,t=1,1,w=1e308,1e308", "'w'"),
])
def test_malformed_or_ignored_spec_field_is_usage_error(tmp_path, capsys, graph_draws, spec,
                                                        field):
    # a value that does not parse or is not finite, a field the functional
    # does not take and a second value of a single-valued field are refused
    # before any draw
    code = main(["simulate", "--model", graph_model(tmp_path, 12, 0.3), "--samples", "100",
                 "--functional", spec])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and field in err
    assert graph_draws == []


def test_out_in_missing_directory_is_refused_before_drawing(tmp_path, capsys, graph_draws):
    out_file = tmp_path / "missing" / "report.json"
    code = main(["simulate", "--model", graph_model(tmp_path, 12, 0.3), "--samples", "100",
                 "--functional", "sin:coord=1,t=1", "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "usage error: output file %s: no such directory\n" % out_file
    assert graph_draws == [] and not out_file.parent.exists()
    # the same run with --out in an existing directory draws and writes
    code = main(["simulate", "--model", graph_model(tmp_path, 12, 0.3), "--samples", "100",
                 "--functional", "sin:coord=1,t=1", "--out", str(tmp_path / "report.json")])
    assert code == 0 and len(graph_draws) == 1
    assert json.loads((tmp_path / "report.json").read_text())["command"] == "simulate"


def test_out_naming_a_directory_is_refused_before_loading(tmp_path, capsys, monkeypatch,
                                                         graph_draws):
    model = graph_model(tmp_path, 12, 0.3)
    loads = []
    monkeypatch.setattr(cli, "_load_model", lambda path: loads.append(path))
    code = main(["simulate", "--model", model, "--samples", "100",
                 "--functional", "sin:coord=1,t=1", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "usage error: output file %s: is a directory\n" % tmp_path
    assert loads == [] and graph_draws == []


def test_out_that_cannot_be_opened_is_refused_before_drawing(tmp_path, capsys, graph_draws):
    # a 300-character basename is ENAMETOOLONG on common file systems; it
    # used to surface only when the report was written, after the run
    out_file = tmp_path / ("r" * 300)
    model = graph_model(tmp_path, 12, 0.3)
    code = main(["simulate", "--model", model, "--samples", "100",
                 "--functional", "sin:coord=1,t=1", "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and graph_draws == []
    assert err == "usage error: output file %s: File name too long\n" % out_file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.json"]


def test_out_write_failure_is_usage_error_after_the_run(tmp_path, capsys, monkeypatch,
                                                        graph_draws):
    # an --out that passes the up-front checks but cannot be written
    out_file = tmp_path / "report.json"

    def refuse(path, *args, **kwargs):
        if path == str(out_file):
            raise PermissionError(13, "Permission denied", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    code = main(["simulate", "--model", graph_model(tmp_path, 12, 0.3), "--samples", "100",
                 "--functional", "sin:coord=1,t=1", "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "usage error: output file %s: Permission denied\n" % out_file
    assert len(graph_draws) == 1 and not out_file.exists()


@pytest.mark.parametrize("text", [
    "not json",
    "[1, 2]",
    '{"type": "graph"}',
    '{"type": "graph", "n": 8}',
    '{"type": "array", "n": 3}',
    '{"type": "array", "n": 2, "entries": [{"i": 1, "j": 1, "dist": "gaussian"}]}',
    '{"n": "abc", "p": 0.3}',
    '{"n": null, "p": 0.3}',
    '{"n": 6.9, "p": 0.3}',
    '{"preset": "iid-gaussian", "n": 5.5}',
    '{"type": "graph", "n": Infinity, "p": 0.3}',
    # integers past the largest float
    pytest.param('{"type": "graph", "n": 1%s, "p": 0.3}' % ("0" * 400), id="n-1e400"),
    pytest.param('{"type": "array", "n": 2, "entries": [{"i": 1%s, "j": 1, "dist": "constant", '
                 '"value": 0}]}' % ("0" * 400), id="entry-i-1e400"),
])
def test_malformed_model_file_is_usage_error(tmp_path, capsys, text):
    model = tmp_path / "bad.json"
    model.write_text(text)
    code = main(["bound", "--model", str(model)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage error: model file %s: " % model)
    assert err.count("\n") == 1


@pytest.mark.parametrize("payload, field", [
    ({"preset": "deterministic", "n": 5}, "n = 5"),
    ({"type": "array", "preset": "iid-gaussian", "n": 6, "scale": 2.0}, "'scale'"),
    ({"type": "graph", "n": 6, "p": 0.3, "preset": "iid-gaussian"}, "'preset'"),
    ({"n": 6, "p": 0.3, "entries": []}, "'entries'"),
    ({"type": "array", "n": 2, "entries": [
        {"i": 1, "j": 1, "dist": "gaussian", "var": 1.0, "scale": 2.0}]}, "'scale'"),
    ({"type": "array", "n": 2, "p": 0.3, "entries": []}, "'p'"),
])
def test_unread_model_field_is_usage_error(tmp_path, capsys, payload, field):
    # a field that the model's loader reads nowhere is refused, not ignored
    code = main(["bound", "--model", write_model(tmp_path, "m.json", payload)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage error: model file ") and field in err


def test_integral_n_stays_accepted(tmp_path, capsys):
    # an entry's coordinates read as n does: 2.0 is 2
    entries = {"type": "array", "n": 2, "entries": [
        {"i": 1, "j": 1, "dist": "gaussian", "var": 1.0},
        {"i": 2.0, "j": 1.0, "dist": "gaussian", "var": 2.0}]}
    for payload in ({"n": 6.0, "p": 0.3}, {"preset": "iid-gaussian", "n": 5}, entries,
                    {"preset": "deterministic", "n": 3.0}):
        code, _ = run(capsys, ["bound", "--model", write_model(tmp_path, "m.json", payload)])
        assert code == 0


def test_non_finite_sample_fails_a_check(tmp_path, capsys, monkeypatch):
    sample_zhat = comb.sample_zhat_values

    def nan_column(model, rng, size):
        x = sample_zhat(model, rng, size)
        x[:, 1] = np.nan
        return x

    monkeypatch.setattr(comb, "sample_zhat_values", nan_column)
    code = main(["verify-covariance", "--model", iid_model(tmp_path, 4), "--samples", "600",
                 "--workers", "2"])
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert list(checks) == ["prelimit_grid_psd", "finite_samples"]
    assert not checks["finite_samples"]["pass"]
    assert checks["finite_samples"]["detail"] == "non-finite sample in chunk 0"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "distance", "stein-identity"])
def test_overflowing_moments_fail_a_check(tmp_path, capsys, command):
    # the values are finite, but their squared deviations overflow; the
    # check reports it, and numpy warns of nothing
    code = main([command, "--model", graph_model(tmp_path, 12, 0.3), "--samples", "100",
                 "--functional", "lin:coords=1,t=1,w=1e300"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["finite_samples"]["pass"]
    assert checks["finite_samples"]["detail"] == "non-finite moments over 100 finite samples"


def test_report_parameters_are_the_options(tmp_path, capsys):
    # a report records every option that changes its contents, and nothing
    # the run did not take as input beyond the model kind, the functionals'
    # labels and coupling's derived settings
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    sizes = {
        "simulate": ["--samples", "10"],
        "verify-regression": ["--trials", "1"],
        "verify-covariance": ["--samples", "10", "--grid", "2"],
        "distance": ["--samples", "10"],
        "coupling": ["--n", "8", "--p", "0.3", "--samples", "10"],
        "bound": [],
        "stein-identity": ["--samples", "10"],
    }
    assert sorted(subparsers.choices) == sorted(sizes)
    derived = {"refine", "chunk", "discretization_bias_bound", "corr_at_one"}
    for command, sub in subparsers.choices.items():
        dests = {a.dest for a in sub._actions} - {"help"}
        expected = dests - {"seed", "workers", "out", "format", "functional"}
        expected |= {"kind"} if "model" in dests else set()
        expected |= {"functionals"} if "functional" in dests else set()
        expected |= derived if command == "coupling" else set()
        models = ([graph_model(tmp_path, 8, 0.3), iid_model(tmp_path, 4)]
                  if "model" in dests else [None])
        for model in models:
            argv = [command] + sizes[command] + (["--model", model] if model else [])
            _, out = run(capsys, argv + ["--seed", "3"])
            parameters = json.loads(out)["parameters"]
            assert set(parameters) == expected, command
            options = vars(parser.parse_args(argv))
            assert all(parameters[k] == options[k] for k in expected & dests), command


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "@array", "--workers", "0"],
    ["verify-regression", "--model", "@graph", "--workers", "0"],
    ["verify-covariance", "--model", "@array", "--workers", "-1"],
    ["distance", "--model", "@graph", "--workers", "0"],
    ["coupling", "--n", "8", "--p", "0.3", "--workers", "0"],
    ["bound", "--model", "@array", "--workers", "0"],
    ["stein-identity", "--model", "@graph", "--workers", "0"],
    ["verify-regression", "--model", "@array", "--trials", "0"],
    ["verify-regression", "--model", "@graph", "--trials", "-1"],
    ["verify-covariance", "--model", "@graph", "--grid", "-1"],
    ["verify-covariance", "--model", "@array", "--grid", "-1"],
    ["verify-covariance", "--model", "@graph", "--samples", "-1"],
    ["bound", "--model", "@graph", "--gnorm", "-1"],
    ["bound", "--model", "@array", "--gnorm", "-0.5"],
    ["bound", "--model", "@graph", "--gnorm", "nan"],
    ["bound", "--model", "@array", "--gnorm", "inf"],
    ["stein-identity", "--model", "@graph", "--scale", "nan"],
    ["stein-identity", "--model", "@array", "--scale", "inf"],
    ["verify-regression", "--model", "@graph", "--tol", "nan"],
    ["verify-covariance", "--model", "@array", "--tol", "inf"],
    ["simulate", "--model", "@graph", "--seed", "-1"],
    ["verify-regression", "--model", "@array", "--seed", "-1"],
    ["verify-covariance", "--model", "@graph", "--seed", "-1"],
    ["distance", "--model", "@array", "--seed", "-1"],
    ["coupling", "--n", "8", "--p", "0.3", "--seed", "-1"],
    ["bound", "--model", "@graph", "--seed", "-1"],
    ["stein-identity", "--model", "@array", "--seed", "-1"],
])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    # rejected while parsing: no model is loaded and nothing is drawn
    models = {"@graph": graph_model(tmp_path, 8, 0.3), "@array": iid_model(tmp_path, 6)}
    calls = []
    monkeypatch.setattr(cli, "_load_model", lambda path: calls.append(path))
    monkeypatch.setattr(gr, "coupling_distance", lambda *a, **k: calls.append(a))
    code, out = run(capsys, [models.get(a, a) for a in argv])
    assert code == 2 and out == "" and calls == []


def test_negative_scale_in_exponent_form_is_a_value(tmp_path, capsys):
    # argparse read "-1e3" after a space as an option ("expected one
    # argument"); it is a value, as in --scale=-1e3 and as -2.5 always was
    model = graph_model(tmp_path, 12, 0.3)
    base = ["stein-identity", "--model", model, "--samples", "4096", "--functional",
            "sin:coord=1,t=1"]
    outs = {}
    for spelling in (["--scale", "-1e3"], ["--scale=-1e3"], ["--scale", "-1000"],
                     ["--scale", "-2.5"], ["--scale=-2.5"], ["--scale", "-25E-1"]):
        code, out = run(capsys, base + spelling)
        assert code in (0, 1) and out, spelling
        outs[" ".join(spelling)] = out
    assert outs["--scale -1e3"] == outs["--scale=-1e3"] == outs["--scale -1000"]
    assert outs["--scale -2.5"] == outs["--scale=-2.5"] == outs["--scale -25E-1"]
    assert json.loads(outs["--scale -1e3"])["parameters"]["scale"] == -1000.0
    for bad in (["--scale", "-x"], ["--scale", "nan"], ["--scale", "-inf"], ["--scale", "-1e"],
                ["--scale", "-1e999"], ["--scale"]):
        code, out = run(capsys, base + bad)
        assert code == 2 and out == "", bad


def test_benchmark_values_stay_accepted():
    parser = cli.build_parser()
    for argv in (
        ["simulate", "--model", "m", "--workers", "1"],
        ["distance", "--model", "m", "--workers", "2"],
        ["verify-regression", "--model", "m", "--trials", "200"],
        ["verify-regression", "--model", "m", "--trials", "100", "--workers", "2"],
        ["verify-covariance", "--model", "m", "--samples", "0", "--grid", "0"],
        ["bound", "--model", "m", "--gnorm", "0"],
        ["stein-identity", "--model", "m", "--samples", "2"],
    ):
        parser.parse_args(argv)
