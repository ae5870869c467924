import argparse
import csv
import io
import json

import numpy as np
import pytest

from steinpaths import cli, mc
from steinpaths import combinatorial as comb
from steinpaths import graph as gr
from steinpaths.cli import main
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

    def spy(model, rngs):
        rngs = list(rngs)
        draws.append((model, rngs))
        return sample_trials(model, rngs)

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
    assert [(args[0].n, len(args[1])) for args in draws] == [(1024, 1)] * 2 + [(724, 1)] * 2


@pytest.mark.parametrize("kind", ["graph", "array"])
def test_verify_regression_trial_blocks(tmp_path, capsys, monkeypatch, kind):
    # blocks of trials draw what the per-trial samplers draw, and a smaller
    # budget (more blocks) gives the same residuals
    mod = gr if kind == "graph" else comb
    model = graph_model(tmp_path, n=12, p=0.3) if kind == "graph" else iid_model(tmp_path, 12)
    argv = ["verify-regression", "--model", model, "--trials", "23", "--seed", "4"]
    code, out = run(capsys, argv)
    assert code == 0
    whole = json.loads(out)["values"][0]["value"]
    blocks, sample_trials = [], mod.sample_trials

    def spy(model, rngs):
        blocks.append(sample_trials(model, rngs))
        return blocks[-1]

    monkeypatch.setattr(mod, "sample_trials", spy)
    monkeypatch.setattr(cli, "REGRESSION_TERMS", 5 * 12**2 * 2)  # 5 trials per block
    code, out = run(capsys, argv)
    report = json.loads(out)
    assert code == 0 and report["checks"][0]["pass"]
    assert abs(report["values"][0]["value"] - whole) <= 1e-15
    assert [len(b.values) for b in blocks] == [5, 5, 5, 5, 3]
    monkeypatch.undo()
    single = gr.sample_graph if kind == "graph" else comb.sample_y
    trial = 0
    for block in blocks:
        for t in range(len(block.values)):
            real = single(block.model, mc.SeedSpec(4, (trial,)).rng())
            assert np.array_equal(real.values, block.values[t])
            assert np.array_equal(real.edges if kind == "graph" else real.x,
                                  block.edges[t] if kind == "graph" else block.x[t])
            trial += 1
    assert trial == 23


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


def test_non_finite_model_moments_are_usage_errors(tmp_path, capsys):
    model = tmp_path / "nan.json"
    model.write_text('{"type": "array", "n": 2, "entries": '
                     '[{"i": 1, "j": 1, "dist": "gaussian", "mean": NaN, "var": 1}]}')
    code, out = run(capsys, ["bound", "--model", str(model)])
    assert code == 2 and out == ""


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
    mod = gr if kind == "graph" else comb
    residuals, calls = mod.regression_residuals, []

    def nan_in_second_block(real, funcs):
        calls.append(1)
        out = residuals(real, funcs)
        return np.full_like(out, np.nan) if len(calls) == 2 else out

    monkeypatch.setattr(mod, "regression_residuals", nan_in_second_block)
    monkeypatch.setattr(cli, "REGRESSION_TERMS", 5 * 12**2 * 2)  # 5 trials per block
    model = graph_model(tmp_path, n=12, p=0.3) if kind == "graph" else iid_model(tmp_path, 12)
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

    def nan_edge_entry(n, p, t, u):
        b = np.array(side_cov(n, p, t, u), dtype=float)
        b[0, 0] = np.nan
        return b

    monkeypatch.setattr(gr, "brownian_side_cov", nan_edge_entry)
    code, out = run(capsys, ["verify-covariance", "--model", graph_model(tmp_path),
                             "--samples", "0"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["edge_block_identity"]["pass"]
    assert checks["edge_block_identity"]["detail"] == "max rel diff nan"
    assert checks["cross_block_identity"]["pass"]


@pytest.mark.parametrize("kind", ["graph", "array"])
def test_verify_covariance_constant_column_off_target_fails(tmp_path, capsys, monkeypatch,
                                                           kind):
    # a constant product column has zero stderr, so its mean is compared
    # with the target exactly (at --tol) instead of by a z-score
    if kind == "graph":  # D_n = 0: constant, and off every nonzero target
        monkeypatch.setattr(gr, "sample_dn_values",
                            lambda model, rng, size, cuts: np.zeros((size, len(cuts), 2)))
        model, check = graph_model(tmp_path, n=4, p=0.3), "sampler_vs_closed_form_mc"
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
    assert checks["sampler_vs_closed_form_mc"]["pass"], checks
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
        "edge_block_identity", "cross_block_identity", "twostar_block_identity"
    ):
        assert checks[name]["pass"], checks[name]
    for name in ("cov_tv_vs_prelimit_TT", "cov_tv_vs_prelimit_TV"):
        assert checks[name]["pass"], checks[name]
    assert checks["prelimit_grid_psd"]["pass"]
    assert checks["sampler_vs_closed_form_mc"]["pass"]
    # the two-star variance entry of the rank-one covariance cannot match
    # the pre-limit, which carries extra variance components by design;
    # the command reports that honestly
    assert not checks["cov_tv_vs_prelimit_VV"]["pass"]
    assert code == 1


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
        assert code == 1 and checks["sampler_vs_closed_form_mc"]["pass"]
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
])
def test_malformed_model_file_is_usage_error(tmp_path, capsys, text):
    model = tmp_path / "bad.json"
    model.write_text(text)
    code = main(["bound", "--model", str(model)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage error: model file %s: " % model)
    assert err.count("\n") == 1


def test_integral_n_stays_accepted(tmp_path, capsys):
    for payload in ({"n": 6.0, "p": 0.3}, {"preset": "iid-gaussian", "n": 5}):
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
    assert list(checks) == ["finite_samples"]
    assert not checks["finite_samples"]["pass"]
    assert checks["finite_samples"]["detail"] == "non-finite sample in chunk 0"


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
])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    # rejected while parsing: no model is loaded and nothing is drawn
    models = {"@graph": graph_model(tmp_path, 8, 0.3), "@array": iid_model(tmp_path, 6)}
    calls = []
    monkeypatch.setattr(cli, "_load_model", lambda path: calls.append(path))
    monkeypatch.setattr(gr, "coupling_distance", lambda *a, **k: calls.append(a))
    code, out = run(capsys, [models.get(a, a) for a in argv])
    assert code == 2 and out == "" and calls == []


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
