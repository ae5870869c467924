"""Command-line front door.

Subcommands: simulate | verify-regression | verify-covariance | distance
| coupling | bound | stein-identity.  Every command emits a
self-contained JSON (or CSV) report; exit code 0 means all checks
passed, 1 means some check failed, 2 means a usage error.  `main` runs
every command through `_run`, which loads the model, parses the
functionals, builds the report and emits it; a `cmd_*` only adds entries.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from . import combinatorial as comb
from . import graph as gr
from . import mc
from . import ou_stein as ou
from .functionals import (
    FUNCTIONAL_SPEC_HELP,
    FunctionalError,
    certified_library,
    norm_upper_bound,
    parse_functional,
)
from .mc import CHUNK, SeedSpec, mc_run, mc_run_vector
from .paths import time_rows
from .reporting import RunReport

F = Fraction

USAGE_ERROR, CHECK_FAILURE = 2, 1
PRODUCT_BYTES = 1 << 20  # bytes of product columns per Monte Carlo chunk, at most
REGRESSION_TERMS = 1 << 20  # verify-regression's trials x n^2 x (most times) per block
# options left out of a report's parameters: the seed has its own field,
# the functionals are recorded by their labels, and the rest do not change
# a report's contents
NOT_PARAMETERS = frozenset({"command", "fn", "seed", "workers", "out", "format", "functional"})


class UsageError(ValueError):
    pass


def _load_model(path: str):
    """Returns ("graph", GraphModel) or ("array", ArrayModel).  A path that
    cannot be read, or a file that is not a JSON model object, lacks a field
    or has a non-integer n, is a usage error."""
    try:
        with open(path) as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise ValueError("not a JSON object")
        kind = d.get("type")
        if not float(d.get("n", 0)).is_integer():
            raise ValueError("n = %r is not an integer" % d["n"])
        if kind is None:
            kind = "graph" if set(d) >= {"n", "p"} else "array"
        if kind == "graph":
            return "graph", gr.GraphModel.from_json_dict(d)
        if kind == "array":
            return "array", comb.ArrayModel.from_json_dict(d)
        raise ValueError("unknown model type %r" % kind)
    except OSError as exc:
        raise UsageError("model file %s: %s" % (path, exc.strerror or exc)) from exc
    except KeyError as exc:
        raise UsageError("model file %s: missing field %s" % (path, exc)) from exc
    except (ValueError, TypeError) as exc:
        raise UsageError("model file %s: %s" % (path, exc)) from exc


def _functionals(specs, kind):
    dim = 2 if kind == "graph" else 1
    return [parse_functional(s, dim) for s in specs] if specs else certified_library(dim)


def _gap_sampler(kind, model, g):
    """Chunk samplers for g(Y_n) and g(D_n), drawing only the grid rows g
    reads."""
    cuts = g.rows(model.n)

    def values(sampler):
        def fn(rng, size):
            return g.value_stacked(sampler(model, rng, size, cuts).reshape(size, -1))

        return fn

    mod = gr if kind == "graph" else comb
    return values(mod.sample_y_values), values(mod.sample_dn_values)


# ---------------------------------------------------------------------------
# subcommands


def _gap_estimates(args, kind, model, funcs, report):
    """Adds E[g(Y)] and E[g(D)] for each functional; returns the pairs."""
    seed, pairs = SeedSpec(args.seed), []
    for idx, g in enumerate(funcs):
        y_fn, d_fn = _gap_sampler(kind, model, g)
        est_y = mc_run(y_fn, args.samples, seed.child(2 * idx), workers=args.workers)
        est_d = mc_run(d_fn, args.samples, seed.child(2 * idx + 1), workers=args.workers)
        report.add_estimate("E[g(Y)] %s" % g.label, est_y)
        report.add_estimate("E[g(D)] %s" % g.label, est_d)
        pairs.append((est_y, est_d))
    return pairs


def cmd_simulate(args, kind, model, funcs, report):
    _gap_estimates(args, kind, model, funcs, report)


def cmd_verify_regression(args, kind, model, funcs, report):
    terms = model.n**2 * max(g.k for g in funcs)
    if terms > REGRESSION_TERMS:
        raise UsageError(
            "verify-regression enumerates n^2 x (times) = %d pair x cut terms, "
            "over the budget of %d (use a smaller model or fewer times)"
            % (terms, REGRESSION_TERMS)
        )
    mod = gr if kind == "graph" else comb
    # a block's (trials, pairs, cuts) arrays are no larger than one trial's
    # at the budget
    block = max(1, REGRESSION_TERMS // terms)

    def block_max(b: int) -> float:
        # a generator: each trial's stream is freed once drawn
        rngs = (SeedSpec(args.seed, (t,)).rng()
                for t in range(b * block, min((b + 1) * block, args.trials)))
        return float(mod.regression_residuals(mod.sample_trials(model, rngs), funcs).max())
    # block maxima come back in block order, so the fold is the serial one;
    # np.max keeps a NaN, which fails the check and is no report value
    blocks = mc._run_tasks(block_max, -(-args.trials // block), args.workers)
    worst = float(np.max([0.0, *blocks]))
    if math.isfinite(worst):
        report.add_value("max_residual", worst)
    report.add_check(
        "regression_identity", worst < args.tol, args.tol, "max residual %.3e" % worst
    )


def _product_z(sample, pairs, targets, args, seed):
    """Largest |z| of the Monte Carlo means of x_i x_j against targets, over
    (i, j) in pairs, where x are the flattened rows sample(rng, size) draws.

    One mc_run_vector call covers every product column; its chunk is chosen
    from the column count, so a chunk's products stay within PRODUCT_BYTES.
    A column without spread (stderr 0) is compared with its target exactly,
    at --tol relative to max(1, |target|): |z| is 0 within it, inf outside.
    """
    if not pairs:
        return 0.0
    left, right = np.array(pairs).T
    chunk = max(1, min(CHUNK, PRODUCT_BYTES // (8 * len(pairs))))

    def products(rng, size):
        x = np.ascontiguousarray(sample(rng, size).reshape(size, -1).T)
        return (x[left] * x[right]).T  # column-major: no copy in the engine

    ests = mc_run_vector(products, args.samples, seed, args.workers, chunk)
    z = [abs(e.mean - t) / e.stderr if e.stderr > 0
         else 0.0 if abs(e.mean - t) <= args.tol * max(1.0, abs(t)) else math.inf
         for e, t in zip(ests, targets)]
    return float(np.max(z))


def _verify_covariance_graph(model, args, report):
    n, p = model.n, model.p
    rng = SeedSpec(args.seed, (0,)).rng()
    # each closed-form block against the Brownian construction's entry
    blocks = {"edge_block_identity": (gr.cov_d1d1, 0, 0),
              "cross_block_identity": (gr.cov_d1d2, 0, 1),
              "twostar_block_identity": (gr.cov_d2d2, 1, 1)}
    worst = dict.fromkeys(blocks, 0.0)
    for _ in range(64):
        nn = int(rng.integers(3, 40))
        pp = float(rng.uniform(0.05, 0.95))
        t = F(int(rng.integers(0, 101)), 100)
        u = F(int(rng.integers(0, 101)), 100)
        b = gr.brownian_side_cov(nn, pp, t, u)
        for name, (closed, i, j) in blocks.items():
            x, y = closed(nn, pp, t, u), b[i, j]
            rel = abs(x - y) / max(abs(x), abs(y), 1e-30)
            worst[name] = float(np.maximum(worst[name], rel))  # keeps a NaN
    for name, val in worst.items():
        report.add_check(name, val <= args.tol, args.tol, "max rel diff %.3e" % val)

    times = [F(k, args.grid) for k in range(1, args.grid + 1)] if args.grid else [F(0)]
    pc = gr.prelimit_cov(model)
    vacuous = bool((time_rows(n, times) <= 1).all())
    labels = {(0, 0): "TT", (0, 1): "TV", (1, 1): "VV"}
    for (i, j), lab in labels.items():
        gap = max(abs(float(gr.cov_tv(model, t)[i, j]) - pc.block(t, t)[i, j]) for t in times)
        detail = "max abs diff %.3e" % gap
        if vacuous:
            detail += " (degenerate grid, vacuous)"
        report.add_check("cov_tv_vs_prelimit_%s" % lab, gap <= 1e-12, 1e-12, detail)

    grid_cov = pc.grid(times)
    eig_min = float(np.linalg.eigvalsh(grid_cov).min()) if times else 0.0
    report.add_check("prelimit_grid_psd", eig_min >= -1e-9, -1e-9, "min eig %.3e" % eig_min)

    if args.samples > 0 and not vacuous:
        cuts = time_rows(n, times)
        # values at row a, coordinate i sit in flattened column 2a + i
        pairs = [(2 * a + i, 2 * a + j) for a in range(len(times)) for i, j in labels]
        targets = [pc.block(t, t)[i, j] for t in times for i, j in labels]
        worst_z = _product_z(
            lambda rng, size: gr.sample_dn_values(model, rng, size, cuts),
            pairs, targets, args, SeedSpec(args.seed, (1,)),
        )
        report.add_check(
            "sampler_vs_closed_form_mc",
            worst_z <= 5.0,
            "5 stderr",
            "max |z| %.2f over %d samples" % (worst_z, args.samples),
        )


def _verify_covariance_array(model, args, report):
    n = model.n
    zc = comb.zhat_cov_matrix(model)
    if args.samples > 0:
        # the products are symmetric, so i <= j covers every entry
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        worst_z = _product_z(
            lambda rng, size: comb.sample_zhat_values(model, rng, size),
            pairs, [zc[i, j] for i, j in pairs], args, SeedSpec(args.seed, (1,)),
        )
        report.add_check(
            "zhat_cov_mc",
            worst_z <= 5.0,
            "5 stderr",
            "max |z| %.2f over %d samples" % (worst_z, args.samples),
        )
        times = [F(k, args.grid) for k in range(1, args.grid + 1)]
        cuts = time_rows(n, times)
        pairs = [(a, b) for a in range(len(times)) for b in range(a, len(times))]
        cov = comb.cov_d_grid(model, times, times).tolist()
        worst_z = _product_z(
            lambda rng, size: comb.sample_dn_values(model, rng, size, cuts),
            pairs, [cov[a][b] for a, b in pairs], args, SeedSpec(args.seed, (2,)),
        )
        detail = "max |z| %.2f" % worst_z
        if not pairs:
            detail += " (degenerate grid, vacuous)"
        report.add_check("dn_grid_cov_mc", worst_z <= 5.0, "5 stderr", detail)


def cmd_verify_covariance(args, kind, model, funcs, report):
    if kind == "graph":
        _verify_covariance_graph(model, args, report)
    else:
        _verify_covariance_array(model, args, report)


def cmd_distance(args, kind, model, funcs, report):
    # every norm is certified before anything is drawn
    norm_class = "M2" if kind == "graph" else "M1"
    gnorms = [norm_upper_bound(g, norm_class).value for g in funcs]
    pairs = _gap_estimates(args, kind, model, funcs, report)
    for g, gnorm, (est_y, est_d) in zip(funcs, gnorms, pairs):
        gap = abs(est_y.mean - est_d.mean)
        ci = 1.96 * math.hypot(est_y.stderr, est_d.stderr)
        bound = (gr.bound_prelimit(model.n, gnorm) if kind == "graph"
                 else comb.bound_prelimit_distance(model, gnorm))
        report.add_value("gap %s" % g.label, gap)
        report.add_bound("bound %s" % g.label, bound)
        report.add_check(
            "distance_within_bound %s" % g.label,
            gap - ci <= bound,
            "gap - ci95 <= bound",
            "gap %.4g, ci %.4g, bound %.4g (|g| <= %.4g)" % (gap, ci, bound, gnorm),
        )


def cmd_coupling(args, kind, model, funcs, report):
    rep = gr.coupling_distance(
        gr.GraphModel(args.n, args.p), args.samples, SeedSpec(args.seed),
        workers=args.workers,
    )
    report.parameters.update({key: rep[key] for key in (
        "refine", "chunk", "discretization_bias_bound", "corr_at_one")})
    for name, est in rep["estimates"].items():
        report.add_estimate(name, est)
        report.add_bound("bound %s" % name, rep["bounds"][name])
        report.add_check(
            "coupling_%s" % name,
            rep["passes"][name],
            rep["bounds"][name],
            "estimate %.4g <= bound %.4g" % (est.mean, rep["bounds"][name]),
        )


def cmd_bound(args, kind, model, funcs, report):
    if kind == "graph":
        report.add_bound("prelimit_12g_over_n", gr.bound_prelimit(model.n, args.gnorm))
        report.add_bound(
            "continuous_sqrt_log", gr.bound_continuous(model.n, args.gnorm)
        )
        for name, val in gr.coupling_bounds(model.n).items():
            report.add_bound("coupling_%s" % name, val)
    else:
        rep = comb.bound_prelimit_distance_report(model, args.gnorm)
        for key, val in rep.items():
            report.add_bound(key, val)
        beta3 = comb.bound_beta3(model.n, model.s_n, float(model.abs3.max()), model.c,
                                 float(model.sigma2.sum()), args.gnorm)
        report.add_bound("simplified_beta3", beta3)


def cmd_stein_identity(args, kind, model, funcs, report):
    law = ou.graph_law(model) if kind == "graph" else ou.combinatorial_law(model)
    for idx, g in enumerate(funcs):
        est = ou.stein_identity_residual(
            g, law, args.samples, SeedSpec(args.seed, (idx,)), scale=args.scale,
            workers=args.workers,
        )
        report.add_estimate("mean_generator %s" % g.label, est)
        report.add_check(
            "stein_identity %s" % g.label,
            abs(est.mean) <= 3.0 * est.stderr,
            "3 stderr",
            "|mean| %.3e vs 3 se %.3e" % (abs(est.mean), 3 * est.stderr),
        )


# ---------------------------------------------------------------------------


def _at_least(low, kind=int):
    """argparse type: a `kind` value no smaller than low."""

    def parse(text):
        value = kind(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %s, got %s" % (low, text))
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinpaths",
        description="simulate and verify exchangeable-pair Gaussian "
        "approximations of step processes",
        epilog=FUNCTIONAL_SPEC_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, samples=None, fewest=1, workers_help=None):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=_at_least(1), default=1, help=workers_help)
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if samples is not None:
            p.add_argument("--samples", type=_at_least(fewest), default=samples)

    p = sub.add_parser("simulate", help="estimate E g under both processes")
    common(p, samples=10000)
    p.add_argument("--functional", action="append", default=[])
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify-regression", help="enumerated regression identity")
    common(p)
    p.add_argument("--functional", action="append", default=[])
    p.add_argument("--trials", type=_at_least(1), default=5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=cmd_verify_regression)

    p = sub.add_parser("verify-covariance", help="covariance identities and MC")
    common(p, samples=20000, fewest=0)
    p.add_argument("--grid", type=_at_least(0), default=8)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_verify_covariance)

    p = sub.add_parser("distance", help="Monte Carlo distance vs closed-form bound")
    common(p, samples=100000)
    p.add_argument("--functional", action="append", default=[])
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("coupling", help="coupled step/continuous moments")
    common(p, model=False, samples=10000)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(fn=cmd_coupling)

    p = sub.add_parser("bound", help="closed-form bound values")
    common(p, workers_help="accepted like every command's, but has no effect: "
                           "bound draws nothing")
    p.add_argument("--gnorm", type=_at_least(0.0, float), default=1.0)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("stein-identity", help="stationarity of the generator")
    common(p, samples=100000, fewest=2)
    p.add_argument("--functional", action="append", default=[])
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_stein_identity)
    return parser


def _run(args) -> int:
    """Loads the model and parses the functionals the subcommand takes, lets
    it fill one report and emits that report.  An `--out` in a directory
    that does not exist is refused before anything is drawn.  A Monte Carlo
    sample that is not finite fails the report's `finite_samples` check."""
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise UsageError("output file %s: no such directory" % args.out)
    options = vars(args)
    kind = model = funcs = None
    parameters = {k: v for k, v in options.items() if k not in NOT_PARAMETERS}
    if "model" in options:
        kind, model = _load_model(args.model)
        parameters["kind"] = kind
    if "functional" in options:
        funcs = _functionals(args.functional, kind)
        parameters["functionals"] = [g.label for g in funcs]
    report = RunReport(command=args.command, parameters=parameters, seed=args.seed,
                       version="steinpaths-%s" % __version__)
    try:
        args.fn(args, kind, model, funcs, report)
    except mc.McError as exc:
        report.add_check("finite_samples", False, "finite", str(exc))
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("output file %s: %s" % (args.out, exc.strerror or exc)) from exc
    else:
        sys.stdout.write(text)
    return 0 if report.all_pass else CHECK_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (UsageError, comb.ModelError, gr.GraphModelError, FunctionalError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
