"""One fresh process: set up, run a workload's ops at one --workers value,
check every output, and print one JSON line with the results.

Run by ``run.py``; the parent measures set-up time, wall time and rusage
from outside.  Usage:

    python3 perfbench/worker.py --workload graph-mc --seed 1 --workers 2 \
        [--scale 1.0] [--trace off|spans|malloc] [--setup-only] \
        [--host-probe] [--expect OP=CODE ...]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

Z_PATTERNS = (
    re.compile(r"max \|z\| ([0-9.eE+-]+)"),
    re.compile(r"\|mean\| ([0-9.eE+-]+) vs 3 se ([0-9.eE+-]+)"),
)


def model_path(key: str) -> str:
    return os.path.join("perfbench", "out", "models", key + ".json")


def _check_z(check) -> bool:
    """True if a failing check is a z-test whose |z| is below the ceiling."""
    detail = check.get("detail", "")
    m = Z_PATTERNS[0].search(detail)
    if m:
        return float(m.group(1)) <= wl.Z_CEILING
    m = Z_PATTERNS[1].search(detail)
    if m and float(m.group(2)) > 0:
        return 3.0 * float(m.group(1)) / float(m.group(2)) <= wl.Z_CEILING
    return False


def check_cli(op, expect, rc, text):
    """Problems of one CLI op as (kind, message); also whether a
    statistical check missed at its designed rate."""
    problems, stat_miss, report = [], False, None
    if op.fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            problems.append(("csv-width", "empty CSV"))
        else:
            width = len(rows[0])
            bad = [r for r in rows[1:] if len(r) != width]
            if bad:
                problems.append(("csv-width", "%d of %d rows are not %d fields wide"
                                 % (len(bad), len(rows) - 1, width)))
    else:
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            problems.append(("json", "json.loads: %s" % exc))
        else:
            for est in report.get("estimates", []):
                if not all(math.isfinite(est[k]) for k in ("value", "stderr")):
                    problems.append(("finite", "non-finite estimate %s" % est["name"]))
    if rc != expect:
        failing = [c for c in (report or {}).get("checks", []) if not c["pass"]]
        if (rc == 1 and expect == 0 and failing and all(
                c["name"].startswith(op.stat_checks) and _check_z(c)
                for c in failing)):
            stat_miss = True
        else:
            problems.append(("exit", "exit %s, expected %d (%s)"
                             % (rc, expect, op.why)))
    return problems, stat_miss


def check_lib(est, samples):
    ok = (math.isfinite(est.mean) and math.isfinite(est.stderr)
          and est.count == samples)
    if ok:
        return []
    return [("estimate", "mean %r, stderr %r, count %d of %d"
             % (est.mean, est.stderr, est.count, samples))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--trace", choices=("off", "spans", "malloc"), default="off")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--host-probe", action="store_true")
    ap.add_argument("--expect", action="append", default=[])
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    if args.host_probe:
        # set-up without the program: the same interpreter start, benchmark
        # modules and numpy import, so its time follows the host's speed only
        import numpy  # noqa: F401

        print(json.dumps({"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC)}))
        return 0
    work = wl.WORKLOADS[args.workload]
    overrides = dict(kv.split("=", 1) for kv in args.expect)

    if not os.path.isfile(os.path.join(SRC, "steinpaths", "__init__.py")):
        print("worker: no steinpaths sources under %s" % SRC, file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)
    tracer = None
    if args.trace != "off":
        tracer = tracing.Tracer(malloc=args.trace == "malloc")
        token = tracer.open("cli.import")
    import numpy as np
    import steinpaths
    from steinpaths import cli, functionals, ou_stein
    from steinpaths.mc import SeedSpec

    if not os.path.abspath(steinpaths.__file__).startswith(SRC + os.sep):
        print("worker: imported steinpaths from %s" % steinpaths.__file__,
              file=sys.stderr)
        return 3
    if tracer:
        tracer.close(token)
        tracer.install()

    models = {key: cli._load_model(model_path(key))[1] for key in work.models}
    eps3_f = functionals.parse_functional("sin:coord=1,t=1", 1)
    lib_fns = {
        "epsilon1_graph": lambda m, n, s: ou_stein.epsilon1_graph(m, 1.0, n, s),
        "epsilon1_combinatorial":
            lambda m, n, s: ou_stein.epsilon1_combinatorial(m, 1.0, n, s),
        "epsilon3_estimate":
            lambda m, n, s: ou_stein.epsilon3_estimate(m, eps3_f, n, s),
    }
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    runs = []
    for op in work.ops:
        seed = wl.op_seed(work.name, op.name, args.seed)
        buf, rc, est, error = io.StringIO(), None, None, None
        start = time.perf_counter()
        try:
            if op.lib:
                model = models[op.argv[0][1:]]
                est = lib_fns[op.lib](model, op.scaled_size(args.scale),
                                      SeedSpec(seed))
            else:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(op.cli_argv(seed, args.workers, args.scale,
                                              model_path))
        except Exception as exc:  # an op that raises is a failed op
            error = "%s: %s" % (type(exc).__name__, exc)
        runs.append((op, rc, est, error, buf.getvalue(),
                     time.perf_counter() - start))

    ops = []
    for op, rc, est, error, text, wall in runs:
        stat_miss = False
        if error:
            problems = [("raised", error)]
        elif op.lib:
            problems = check_lib(est, op.scaled_size(args.scale))
            text = "%r %r %d" % (est.mean, est.stderr, est.count)
        else:
            expect = int(overrides.get(op.name, op.expect))
            problems, stat_miss = check_cli(op, expect, rc, text)
        ops.append({
            "name": op.name, "rc": rc, "wall_s": wall, "problems": problems,
            "stat_miss": stat_miss,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
        })
    result = {
        "setup_end": setup_end,
        "ops_wall_s": sum(o["wall_s"] for o in ops),
        "ops": ops,
        "numpy": np.__version__,
        "bit_generator": type(SeedSpec(0).rng().bit_generator).__name__,
    }
    if tracer:
        result["layers"] = tracing.summarize(tracer.spans)
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        name = "%s-seed%d-w%d-%s.jsonl" % (work.name, args.seed, args.workers,
                                           args.trace)
        tracer.write_jsonl(os.path.join(OUT, "trace", name), t0)
        result["trace_file"] = os.path.join("perfbench", "out", "trace", name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
