"""Workload definitions: the operations each workload runs, their sizes,
their expected exit codes, and the metric names the benchmark reports.

This module imports nothing from steinpaths or numpy, so the runner can
read it without paying the program's import cost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Model files every workload may reference as "@<key>" in an argv.
MODELS = {
    "g64": {"type": "graph", "n": 64, "p": 0.3},
    "g12": {"type": "graph", "n": 12, "p": 0.3},
    "a32": {"type": "array", "preset": "iid-gaussian", "n": 32},
    "r32": {"type": "array", "preset": "iid-rademacher", "n": 32},
    "a12": {"type": "array", "preset": "iid-gaussian", "n": 12},
    "a64": {"type": "array", "preset": "iid-gaussian", "n": 64},
}

# Monte Carlo z-tests that a correct program fails at a fixed, small rate.
# Exit code 1 is accepted from an op that lists them only when every failing
# check is one of them and its |z| stays below Z_CEILING.
Z_CEILING = 6.0


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call (``argv``), or a library call (``lib``) on
    the model named by ``argv[0]``."""

    name: str
    expect: int
    why: str
    argv: tuple = ()
    lib: str = ""
    size_flag: str = "--samples"
    size: int = 0
    fmt: str = "json"
    # problem kind (see KNOWN_DEFECTS) of an open defect this op shows; it
    # still counts in ``failed`` and ops_failed_ratio, but leaves the run
    # ``correct``
    known_defect: str = ""
    stat_checks: tuple = ()

    def scaled_size(self, scale: float) -> int:
        return max(2, round(self.size * scale))

    def cli_argv(self, seed: int, workers: int, scale: float, model_path) -> list:
        out = [model_path(a[1:]) if a.startswith("@") else a for a in self.argv]
        if self.size:
            out += [self.size_flag, str(self.scaled_size(scale))]
        if self.fmt != "json":
            out += ["--format", self.fmt]
        return out + ["--seed", str(seed), "--workers", str(workers)]


@dataclass(frozen=True)
class Workload:
    """Ops run back to back in one process; ``models`` are loaded at set-up.
    Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    models: tuple
    ops: tuple


# Open defects an op is known to show, by problem kind.
KNOWN_DEFECTS = {
    "csv-width": "labels with commas are written unquoted, so csv.reader sees "
    "more fields than the header has (ROADMAP item 4)",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "graph-mc",
            ("g64",),
            (
                Op("simulate", 0, "simulate has no checks",
                   ("simulate", "--model", "@g64",
                    "--functional", "sin:coord=1,t=1",
                    "--functional", "cos:coord=2,t=1/2"), size=8192),
                Op("distance-csv", 0, "gap - ci95 is far below 12|g|/n",
                   ("distance", "--model", "@g64",
                    "--functional", "sin:coord=2,t=1"), size=8192, fmt="csv",
                   known_defect="csv-width"),
                Op("stein-identity", 0,
                   "E A f(D) = 0 exactly; the 3-stderr test fails at rate 0.27%",
                   ("stein-identity", "--model", "@g64",
                    "--functional", "tanhprod:coords=1,2,t=1/2,1"), size=24576,
                   stat_checks=("stein_identity",)),
                Op("coupling", 0, "moments sit far below their bounds",
                   ("coupling", "--n", "100", "--p", "0.3"), size=2000),
                Op("epsilon1_graph", 0, "library call", ("@g64",),
                   lib="epsilon1_graph", size=8192),
            ),
        ),
        Workload(
            "array-mc",
            ("a32", "r32"),
            (
                Op("simulate", 0, "simulate has no checks",
                   ("simulate", "--model", "@a32",
                    "--functional", "sin:coord=1,t=1/4",
                    "--functional", "cos:coord=1,t=1"), size=8192),
                Op("distance", 0, "gap - ci95 is far below the five-index bound",
                   ("distance", "--model", "@a32",
                    "--functional", "sin:coord=1,t=1"), size=4096),
                Op("verify-covariance", 0,
                   "closed forms hold; the 5-stderr MC tests rarely fail",
                   ("verify-covariance", "--model", "@a32"), size=4096,
                   stat_checks=("zhat_cov_mc", "dn_grid_cov_mc")),
                Op("stein-identity", 0,
                   "E A f(D) = 0 exactly; the 3-stderr test fails at rate 0.27%",
                   ("stein-identity", "--model", "@r32",
                    "--functional", "sin:coord=1,t=1/2"), size=4096,
                   stat_checks=("stein_identity",)),
                Op("epsilon3_estimate", 0, "library call", ("@a32",),
                   lib="epsilon3_estimate", size=2048),
                Op("epsilon1_combinatorial", 0, "library call", ("@a32",),
                   lib="epsilon1_combinatorial", size=16384),
            ),
        ),
        Workload(
            "exact-small",
            ("g12", "a12", "g64", "a64"),
            (
                Op("verify-regression-graph", 0, "residuals are roundoff only",
                   ("verify-regression", "--model", "@g12"),
                   size_flag="--trials", size=200),
                Op("verify-regression-array-csv", 0, "residuals are roundoff only",
                   ("verify-regression", "--model", "@a12"),
                   size_flag="--trials", size=100, fmt="csv"),
                Op("verify-covariance-graph", 1,
                   "the two-star diagonal of the pre-limit differs from the "
                   "rank-one table by design (README)",
                   ("verify-covariance", "--model", "@g64", "--samples", "0")),
                Op("bound-array", 0, "bound has no checks",
                   ("bound", "--model", "@a64")),
                Op("bound-graph", 0, "bound has no checks",
                   ("bound", "--model", "@g64")),
            ),
        ),
    )
}

# (name, unit) of every end-to-end metric, reported with tracing off
END_TO_END = (
    ("setup_s", "s"),
    ("wall_w1_s", "s"),
    ("wall_w2_s", "s"),
    ("cpu_w2_s", "s"),
    ("peak_rss_w1_mb", "MB"),
    ("peak_rss_w2_mb", "MB"),
)
# carried by the result line's failed / attempted pair and printed by name
FAILED_RATIO = ("ops_failed_ratio", "failed/attempted")

COMMANDS = (
    "simulate", "distance", "stein-identity", "coupling",
    "verify-covariance", "verify-regression", "bound",
)


def _layer_metrics():
    out = []
    for fn in ("sample_dn_values", "sample_zhat_values", "sample_y_values",
               "eps3_values", "pair_norm_stats"):
        base = "combinatorial." + fn
        out += [(base + ".us_per_sample", "us"), (base + ".peak_mb", "MB"),
                (base + ".cut_fraction", "ratio"),
                (base + ".bytes_mb_computed", "MB")]
    for fn in ("sample_y_values", "sample_dn_values", "sample_coupled_values",
               "pair_norm_stats"):
        base = "graph." + fn
        out += [(base + ".calls", "count"), (base + ".us_per_sample", "us"),
                (base + ".ms_p50", "ms"), (base + ".ms_p90", "ms")]
    out += [("graph.coupling_distance.self_s", "s"),
            ("mc.mc_run.self_s", "s"), ("mc.chunks", "count"),
            ("mc.mc_run.util_w2", "ratio")]
    for fn in ("CylinderFunctional.value_stacked", "CylinderFunctional.grad_stacked",
               "CylinderFunctional.hess_stacked", "norm_upper_bound"):
        base = "functionals." + fn
        out += [(base + ".calls", "count"), (base + ".self_s", "s")]
    for fn in ("stein_identity_residual", "TargetLaw.sample_at",
               "TargetLaw.cov_matrix", "epsilon1_graph", "epsilon1_combinatorial",
               "epsilon3_estimate"):
        out.append(("ou_stein.%s.self_s" % fn, "s"))
    for mod in ("graph", "combinatorial"):
        out += [(mod + ".regression_residual.calls", "count"),
                (mod + ".regression_residual.ms_p50", "ms")]
    out += [("graph.prelimit_cov.self_s", "s"), ("graph.cov_tv.self_s", "s"),
            ("combinatorial.bound_prelimit_distance_report.self_s", "s")]
    for fn in ("grid_path", "PiecewiseConstantPath.__call__"):
        out += [("paths.%s.calls" % fn, "count"), ("paths.%s.self_s" % fn, "s")]
    for fn in ("to_json", "to_csv"):
        out += [("reporting.RunReport.%s.self_s" % fn, "s"),
                ("reporting.RunReport.%s.bytes" % fn, "B")]
    out += [("cli._load_model.self_s", "s"), ("cli.import.self_s", "s")]
    out += [("cli.main.%s.busy_s" % c, "s") for c in COMMANDS]
    out.append(("trace.overhead_s", "s"))
    return tuple(out)


PER_LAYER = _layer_metrics()


def op_seed(workload: str, op: str, seed: int) -> int:
    """Per-op seed derived from the workload seed."""
    digest = hashlib.sha256(("%s/%s/%d" % (workload, op, seed)).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
