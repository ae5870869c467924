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
import functools
import json
import math
import os
import re
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
from .reporting import RunReport

F = Fraction

USAGE_ERROR, CHECK_FAILURE = 2, 1
PRODUCT_BYTES = 1 << 20  # bytes of product columns per Monte Carlo chunk, at most
REGRESSION_TERMS = 1 << 20  # verify-regression's trials x n^2 x (most times) per block
COVARIANCE_ENTRIES = 1 << 20  # verify-covariance's (grid x dim)^2 stacked covariance entries
# verify-covariance's --tol default.  argparse stores a default as this very
# object and parses a given --tol to a new float, so `args.tol is
# COVARIANCE_TOL` tells an unset --tol from one given, even at this value
COVARIANCE_TOL = 1e-10
# options left out of a report's parameters: the seed has its own field,
# the functionals are recorded by their labels, and the rest do not change
# a report's contents
NOT_PARAMETERS = frozenset({"command", "seed", "workers", "out", "format", "functional"})


class UsageError(ValueError):
    pass


def _load_model(path: str):
    """Returns (graph, GraphModel) or (combinatorial, ArrayModel), as
    ou_stein.family pairs them.  A path that cannot be read, or a file that is
    not a JSON model object, lacks a field or has a non-integer n, is a usage error."""
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
            return gr, gr.GraphModel.from_json_dict(d)
        if kind == "array":
            return comb, comb.ArrayModel.from_json_dict(d)
        raise ValueError("unknown model type %r" % kind)
    except OSError as exc:
        raise UsageError("model file %s: %s" % (path, exc.strerror or exc)) from exc
    except KeyError as exc:
        raise UsageError("model file %s: missing field %s" % (path, exc)) from exc
    except (ValueError, TypeError, OverflowError) as exc:  # an int too large for a float
        raise UsageError("model file %s: %s" % (path, exc)) from exc


def _gap_sampler(fam, model, g):
    """Chunk samplers for g(Y_n) and g(D_n), drawing only the grid rows g
    reads: Y_n by the family module fam, D_n by the model's TargetLaw."""
    cuts, law = g.rows(model.n), ou.TargetLaw(model)

    def y_fn(rng, size):
        return g.value_stacked(fam.sample_y_values(model, rng, size, cuts).reshape(size, -1))

    def d_fn(rng, size):
        return g.value_stacked(law.sample_at(rng, size, g.times))

    return y_fn, d_fn


# ---------------------------------------------------------------------------
# subcommands


def _gap_estimates(args, fam, model, funcs, report):
    """Adds E[g(Y)] and E[g(D)] for each functional; returns the pairs."""
    seed, pairs = SeedSpec(args.seed), []
    for idx, g in enumerate(funcs):
        y_fn, d_fn = _gap_sampler(fam, model, g)
        est_y = mc_run(y_fn, args.samples, seed.child(2 * idx), workers=args.workers)
        est_d = mc_run(d_fn, args.samples, seed.child(2 * idx + 1), workers=args.workers)
        report.add_estimate("E[g(Y)] %s" % g.label, est_y)
        report.add_estimate("E[g(D)] %s" % g.label, est_d)
        pairs.append((est_y, est_d))
    return pairs


def cmd_simulate(args, fam, model, funcs, report):
    _gap_estimates(args, fam, model, funcs, report)


def cmd_verify_regression(args, fam, model, funcs, report):
    terms = model.n**2 * max(g.k for g in funcs)
    if terms > REGRESSION_TERMS:
        raise UsageError(
            "verify-regression enumerates n^2 x (times) = %d pair x cut terms, "
            "over the budget of %d (use a smaller model or fewer times)"
            % (terms, REGRESSION_TERMS)
        )
    # a block's (trials, pairs, cuts) arrays are no larger than one trial's
    # at the budget
    block = max(1, REGRESSION_TERMS // terms)

    def block_max(b: int) -> float:
        # a generator: each trial's stream is freed once drawn
        rngs = (SeedSpec(args.seed, (t,)).rng()
                for t in range(b * block, min((b + 1) * block, args.trials)))
        return float(fam.regression_residual(fam.sample_trials(model, rngs), funcs).max())
    # block maxima come back in block order, so the fold is the serial one;
    # np.max keeps a NaN, which fails the check and is no report value
    blocks = mc._run_tasks(block_max, -(-args.trials // block), args.workers)
    worst = float(np.max([0.0, *blocks]))
    if math.isfinite(worst):
        report.add_value("max_residual", worst)
    report.add_check(
        "regression_identity", worst <= args.tol, args.tol, "max residual %.3e" % worst
    )


def _product_check(report, name, note, sample, cov, args, seed):
    """Adds the check `name`: the largest |z| of the Monte Carlo means of
    x_i x_j against cov[i, j], over i <= j (the products are symmetric), is
    at most 5, where x are the flattened rows sample(rng, size) draws; note
    ends the check's detail.

    One mc_run_vector call covers every product column; its chunk is chosen
    from the column count, so a chunk's products stay within PRODUCT_BYTES.
    A column without spread (stderr 0) is compared with its target exactly,
    at --tol relative to max(1, |target|): |z| is 0 within it, inf outside.
    """
    left, right = np.triu_indices(len(cov))
    chunk = max(1, min(CHUNK, PRODUCT_BYTES // (8 * left.size)))

    def products(rng, size):
        x = np.ascontiguousarray(sample(rng, size).reshape(size, -1).T)
        return (x[left] * x[right]).T  # column-major: no copy in the engine

    ests = mc_run_vector(products, args.samples, seed, args.workers, chunk)
    z = [abs(e.mean - t) / e.stderr if e.stderr > 0
         else 0.0 if abs(e.mean - t) <= args.tol * max(1.0, abs(t)) else math.inf
         for e, t in zip(ests, cov[left, right])]
    worst_z = float(np.max(z))
    report.add_check(name, worst_z <= 5.0, "5 stderr", "max |z| %.2f%s" % (worst_z, note))


def cmd_verify_covariance(args, fam, model, funcs, report):
    """The family's covariance_identities, then prelimit_grid_psd
    (TargetLaw's covariance at the --grid times has no eigenvalue below
    -1e-9), then the Monte Carlo checks: the family's increment_cov_check,
    if it has one, and dn_grid_cov_mc, D_n's products at those times
    against that covariance.  --grid 0 reads time 0 alone, where D_n and
    its covariance vanish, so the checks on that degenerate grid are
    vacuous.  A single sample has no standard error to judge a product by,
    so --samples 1 is a usage error, as is a --grid whose stacked
    covariance exceeds COVARIANCE_ENTRIES.  --tol is read by the family's
    TOL_IDENTITIES and, above 0 samples, by the Monte Carlo checks'
    constant columns; a --tol given where it is read nowhere is a usage
    error."""
    if args.samples == 1:
        raise UsageError("--samples 1 gives no standard error; use 0 to skip "
                         "the Monte Carlo checks, or at least 2")
    if not fam.TOL_IDENTITIES and args.samples == 0 and args.tol is not COVARIANCE_TOL:
        raise UsageError("--tol is read by no check of %s %s model at --samples 0: "
                         "prelimit_grid_psd has the fixed bound -1e-9 (omit --tol, "
                         "or draw at least 2 samples)"
                         % ("an" if fam.KIND[0] in "aeiou" else "a", fam.KIND))
    entries = (args.grid * fam.DIM) ** 2
    if entries > COVARIANCE_ENTRIES:
        raise UsageError("verify-covariance --grid %d stacks (grid x dim)^2 = %d covariance "
                         "entries, over the budget of %d (use a smaller --grid)"
                         % (args.grid, entries, COVARIANCE_ENTRIES))
    law = ou.TargetLaw(model)
    times = [F(k, args.grid) for k in range(1, args.grid + 1)] or [F(0)]
    cov = law.cov_matrix(times)
    vacuous = "" if cov.any() else " (degenerate grid, vacuous)"
    for check in fam.covariance_identities(model, times, cov, vacuous, args.tol,
                                           SeedSpec(args.seed, (0,))):
        report.add_check(*check)
    eig_min = float(np.linalg.eigvalsh(cov).min())
    report.add_check("prelimit_grid_psd", eig_min >= -1e-9, -1e-9, "min eig %.3e" % eig_min)
    if args.samples == 0:
        return
    samples = " over %d samples" % args.samples
    increments = fam.increment_cov_check(model)
    if increments is not None:
        name, sample, target = increments
        _product_check(report, name, samples, sample, target, args, SeedSpec(args.seed, (1,)))
    _product_check(report, "dn_grid_cov_mc", vacuous or samples,
                   lambda rng, size: law.sample_at(rng, size, times),
                   cov, args, SeedSpec(args.seed, (2,)))


def cmd_distance(args, fam, model, funcs, report):
    """Checks each functional's gap against the family's pre-limit bound at
    its certified norm.  Every norm and bound is computed before anything
    is drawn: a bound that overflows is a usage error that names its
    functional, raised before the report is emitted."""
    gnorms = [norm_upper_bound(g) for g in funcs]
    bounds = [fam.bound_prelimit(model, gnorm) for gnorm in gnorms]
    for g, gnorm, bound in zip(funcs, gnorms, bounds):
        if not math.isfinite(bound):
            raise UsageError("the distance bound of %s overflows (|g| <= %r)" % (g.label, gnorm))
    pairs = _gap_estimates(args, fam, model, funcs, report)
    for g, gnorm, bound, (est_y, est_d) in zip(funcs, gnorms, bounds, pairs):
        gap = abs(est_y.mean - est_d.mean)
        ci = mc.Z95 * math.hypot(est_y.stderr, est_d.stderr)
        report.add_value("gap %s" % g.label, gap)
        report.add_bound("bound %s" % g.label, bound)
        report.add_check(
            "distance_within_bound %s" % g.label,
            gap - ci <= bound,
            "gap - ci95 <= bound",
            "gap %.4g, ci %.4g, bound %.4g (|g| <= %.4g)" % (gap, ci, bound, gnorm),
        )


def cmd_coupling(args, fam, model, funcs, report):
    rep = gr.coupling_distance(
        gr.GraphModel(args.n, args.p), args.samples, SeedSpec(args.seed),
        workers=args.workers,
    )
    bounds = gr.coupling_bounds(args.n)
    for name, est in rep.pop("estimates").items():
        report.add_estimate(name, est)
        report.add_bound("bound %s" % name, bounds[name])
        report.add_check(
            "coupling_%s" % name,
            est.mean <= bounds[name],
            bounds[name],
            "estimate %.4g <= bound %.4g" % (est.mean, bounds[name]),
        )
    report.parameters.update(rep)  # refine, chunk and the derived diagnostics


def cmd_bound(args, fam, model, funcs, report):
    """Adds every closed-form bound at --gnorm; a --gnorm so large that a
    bound overflows is a usage error, raised before the report is emitted."""
    bounds = fam.bound_table(model, args.gnorm)
    overflow = [key for key, val in bounds.items() if not math.isfinite(val)]
    if overflow:
        raise UsageError("--gnorm %r overflows the bounds %s" % (args.gnorm, ", ".join(overflow)))
    for key, val in bounds.items():
        report.add_bound(key, val)


def cmd_stein_identity(args, fam, model, funcs, report):
    law = ou.TargetLaw(model)
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
    """argparse type: a `kind` value no smaller than low; a float must be
    finite, as every value a report records must be."""

    def parse(text):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError("must be finite, got %s" % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %s, got %s" % (low, text))
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (its subparsers are of its class too) that reads a
    negative number in exponent form, `--scale -1e3`, as a value: argparse
    reads a token that starts with `-` as an option unless it matches its
    negative-number pattern, which holds `-5` and `-.5` but not `-1e3`.
    No option string here looks like a negative number, so none is hidden."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="steinpaths",
        description="simulate and verify exchangeable-pair Gaussian "
        "approximations of step processes",
        epilog=FUNCTIONAL_SPEC_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a Monte Carlo command takes at least 2 samples, so that each estimate
    # has a standard error (verify-covariance also takes 0)
    def common(p, model=True, samples=None, fewest=2, draws=True):
        # a command that draws nothing still takes --seed and --workers, and
        # says in its help that they have no effect
        no_effect = None if draws else ("accepted like every command's, but has no effect: "
                                        "%s draws nothing" % p.prog.split()[-1])
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--seed", type=_at_least(0), default=0, help=no_effect)
        p.add_argument("--workers", type=_at_least(1), default=1, help=no_effect)
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if samples is not None:
            p.add_argument("--samples", type=_at_least(fewest), default=samples)

    p = sub.add_parser("simulate", help="estimate E g under both processes")
    common(p, samples=10000)
    p.add_argument("--functional", action="append", default=[])

    p = sub.add_parser("verify-regression", help="enumerated regression identity")
    common(p)
    p.add_argument("--functional", action="append", default=[])
    p.add_argument("--trials", type=_at_least(1), default=5)
    p.add_argument("--tol", type=_at_least(0.0, float), default=1e-9)

    p = sub.add_parser("verify-covariance", help="covariance identities and MC")
    common(p, samples=20000, fewest=0)
    p.add_argument("--grid", type=_at_least(0), default=8)
    p.add_argument("--tol", type=_at_least(0.0, float), default=COVARIANCE_TOL)

    p = sub.add_parser("distance", help="Monte Carlo distance vs closed-form bound")
    common(p, samples=100000)
    p.add_argument("--functional", action="append", default=[])

    p = sub.add_parser("coupling", help="coupled step/continuous moments")
    common(p, model=False, samples=10000)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)

    p = sub.add_parser("bound", help="closed-form bound values")
    common(p, draws=False)
    p.add_argument("--gnorm", type=_at_least(0.0, float), default=1.0)

    p = sub.add_parser("stein-identity", help="stationarity of the generator")
    common(p, samples=100000)
    p.add_argument("--functional", action="append", default=[])
    p.add_argument("--scale", type=_at_least(-math.inf, float), default=1.0)
    return parser


def _probe_out(path: str) -> None:
    """Refuses an --out file that cannot be opened for writing (a usage
    error), and leaves the file system as it found it: a file the probe
    creates is removed, and an existing one is opened to append nothing."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError("output file %s: no such directory" % path)
    if os.path.isdir(path):
        raise UsageError("output file %s: is a directory" % path)
    existed = os.path.lexists(path)
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666))
    except OSError as exc:
        raise UsageError("output file %s: %s" % (path, exc.strerror or exc)) from exc
    if not existed:
        os.remove(path)


def _run(args) -> int:
    """Loads the model and parses the functionals the subcommand takes, lets
    it fill one report and emits that report.  An `--out` in a directory
    that does not exist, naming a directory, or that cannot be opened for
    writing is refused before anything is drawn.  A Monte Carlo sample that
    is not finite fails the report's `finite_samples` check."""
    if args.out:
        _probe_out(args.out)
    options = vars(args)
    fam = model = funcs = None
    parameters = {k: v for k, v in options.items() if k not in NOT_PARAMETERS}
    if "model" in options:
        fam, model = _load_model(args.model)
        parameters["kind"] = fam.KIND
    if "functional" in options:
        funcs = ([parse_functional(s, fam.DIM) for s in args.functional]
                 or certified_library(fam.DIM))
        parameters["functionals"] = [g.label for g in funcs]
    # a report that draws names its bit generator, so that a run under
    # another generator cannot pass for a rerun; bound draws nothing.  The
    # lookup also imports numpy.random here, on the main thread: imported
    # first by a worker thread, it leaves its allocations in that thread's
    # malloc arena and raises the peak RSS of a run with --workers 2
    bits = None if args.command == "bound" else mc.bit_generator().__name__
    report = RunReport(command=args.command, parameters=parameters, seed=args.seed,
                       version="steinpaths-%s" % __version__, bit_generator=bits)
    # looked up at each call, not bound into the shared parser, so that a
    # cmd_* replaced after the parser is built is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        command(args, fam, model, funcs, report)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` parses with: built by build_parser on the first
    call, not at import, and shared by every later call in the process.
    It holds no per-call state: commands are dispatched by name in `_run`,
    and the `--functional` lists are copied by argparse before appending."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except (UsageError, comb.ModelError, gr.GraphModelError, FunctionalError) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
