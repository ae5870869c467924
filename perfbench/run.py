"""steinpaths benchmark runner.

    python3 perfbench/run.py --workload graph-mc --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` it measures set-up time in fresh processes,
then runs the workload's ops in fresh processes at ``--workers 1`` and
``--workers 2`` until ``--seconds`` are used, and reports the mean of
each end-to-end metric over those processes, times scaled to a reference
host speed (see REF_PROBE_S).  With ``--trace 1`` it runs the ops once
untraced and three times traced (spans at --workers 1, tracemalloc at
--workers 1, spans at --workers 2) and reports the per-layer metrics.  Every output is
checked; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

CHILD_TIMEOUT_S = 120
SETUP_PROBES = 5
# Time metrics are scaled by REF_PROBE_S / (mean host-probe time of the run),
# so they read as seconds on a host whose probe takes REF_PROBE_S.  The probe
# is the worker's set-up without the program; on a shared host its time
# follows the host's speed, which drifts by tens of percent over minutes.
REF_PROBE_S = 0.15
# numpy's BLAS may not start threads of its own: --workers alone sets the
# parallelism of a worker process
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, workers=1, trace="off", setup_only=False, probe=False) -> dict:
    """Run one worker process; add its set-up time, CPU time and peak RSS."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--workers", str(workers), "--scale", repr(args.scale),
            "--trace", trace]
    argv += ["--setup-only"] if setup_only else []
    argv += ["--host-probe"] if probe else []
    for kv in args.expect:
        argv += ["--expect", kv]
    start = _now()
    proc = subprocess.Popen(argv, cwd=ROOT, env=dict(os.environ, **THREAD_ENV),
                            stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError("worker %s exited with %d" % (argv[2:], proc.returncode))
    res = json.loads(out.decode().strip().splitlines()[-1])
    res["setup_s"] = res["setup_end"] - start
    res["cpu_s"] = usage.ru_utime + usage.ru_stime
    res["rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
    return res


class Tally:
    """Counts op executions and failures over all processes of one run.

    An op fails on any problem its worker found, or when its output bytes
    differ from the first execution of the same op in this run (other
    --workers, other process).  ``correct`` stays true only while every
    failure is the op's recorded known defect.
    """

    def __init__(self, work):
        self.ops = {op.name: op for op in work.ops}
        self.digests: dict = {}
        self.attempted = self.failed = self.stat_misses = 0
        self.unexpected: list = []
        self.notes: list = []

    def add(self, res, label):
        for o in res["ops"]:
            self.attempted += 1
            problems = [tuple(p) for p in o["problems"]]
            ref = self.digests.setdefault(o["name"], o["digest"])
            if o["digest"] != ref:
                problems.append(("bytes", "output bytes differ from the first run"))
            self.stat_misses += o["stat_miss"]
            if not problems:
                continue
            self.failed += 1
            known = self.ops[o["name"]].known_defect
            note = "%s %s: %s" % (label, o["name"],
                                  "; ".join("%s: %s" % p for p in problems))
            if any(kind != known for kind, _ in problems):
                self.unexpected.append(note)
                self.notes.append(note)
            else:
                self.notes.append(note + " [known defect: %s]"
                                  % wl.KNOWN_DEFECTS[known])

    @property
    def correct(self) -> bool:
        return not self.unexpected


def run_e2e(args, tally) -> dict:
    deadline = _now() + args.seconds
    spawn(args, setup_only=True)  # warm-up: fills the bytecode cache
    probes, setups = [], []
    for _ in range(SETUP_PROBES):
        probes.append(spawn(args, probe=True)["setup_s"])
        setups.append(spawn(args, setup_only=True)["setup_s"])
    w1, w2 = [], []
    while True:
        start = _now()
        probes.append(spawn(args, probe=True)["setup_s"])
        w1.append(spawn(args, workers=1))
        probes.append(spawn(args, probe=True)["setup_s"])
        w2.append(spawn(args, workers=2))
        tally.add(w1[-1], "w1")
        tally.add(w2[-1], "w2")
        if _now() + (_now() - start) > deadline:
            break
    # means, not medians: per-process times on a shared host are often
    # bimodal, and a median of ten flips between the modes
    mean = statistics.fmean
    setups += [r["setup_s"] for r in w1 + w2]
    unscaled = {
        "setup_s": mean(setups),
        "wall_w1_s": mean(r["ops_wall_s"] for r in w1),
        "wall_w2_s": mean(r["ops_wall_s"] for r in w2),
        "cpu_w2_s": mean(r["cpu_s"] for r in w2),
    }
    host = REF_PROBE_S / mean(probes)
    values = {name: value * host for name, value in unscaled.items()}
    values["peak_rss_w1_mb"] = mean(r["rss_mb"] for r in w1)
    values["peak_rss_w2_mb"] = mean(r["rss_mb"] for r in w2)
    print("%d set-up samples; %d runs at --workers 1 and %d at --workers 2"
          % (len(setups), len(w1), len(w2)))
    print("host probe %.4f s (mean of %d): times are scaled by %.4f"
          % (mean(probes), len(probes), host))
    for name, value in unscaled.items():
        print("unscaled %s %.6g s" % (name, value))
    raw = {"setup_s": setups, "host_probe_s": probes,
           "w1": [(r["ops_wall_s"], r["cpu_s"], r["rss_mb"]) for r in w1],
           "w2": [(r["ops_wall_s"], r["cpu_s"], r["rss_mb"]) for r in w2]}
    return {"metrics": values, "units": dict(wl.END_TO_END),
            "provenance_from": w1[0], "raw": raw}


def _layer_value(name, spans, malloc, w2, overhead):
    if name == "trace.overhead_s":
        return overhead
    if name == "mc.chunks":
        return spans.get("mc.chunk", {}).get("calls", 0)
    if name == "mc.mc_run.util_w2":
        run_wall = w2.get("mc.mc_run", {}).get("busy_s", 0.0)
        busy = w2.get("mc.chunk", {}).get("busy_s", 0.0)
        return busy / (2.0 * run_wall) if run_wall else 0.0
    span, stat = name.rsplit(".", 1)
    return (malloc if stat == "peak_mb" else spans).get(span, {}).get(stat, 0)


def run_traced(args, tally) -> dict:
    base = spawn(args, workers=1)
    spans = spawn(args, workers=1, trace="spans")
    malloc = spawn(args, workers=1, trace="malloc")
    w2 = spawn(args, workers=2, trace="spans")
    for label, res in (("w1", base), ("w1 traced", spans),
                       ("w1 tracemalloc", malloc), ("w2 traced", w2)):
        tally.add(res, label)
    overhead = spans["ops_wall_s"] - base["ops_wall_s"]
    values = {name: _layer_value(name, spans["layers"], malloc["layers"],
                                 w2["layers"], overhead)
              for name, _ in wl.PER_LAYER}
    thin50 = sorted(name for name, s in spans["layers"].items() if not s["p50_ok"])
    thin90 = sorted(name for name, s in spans["layers"].items() if not s["p90_ok"])
    print("tracing overhead %.3f s (traced %.3f s - untraced %.3f s)"
          % (overhead, spans["ops_wall_s"], base["ops_wall_s"]))
    print("traces: %s" % ", ".join(r["trace_file"] for r in (spans, malloc, w2)))
    print("under 10 calls beyond ms_p50 (fewer than 20 calls): %s"
          % ", ".join(thin50))
    print("under 10 calls beyond ms_p90 (fewer than 100 calls): %s"
          % ", ".join(thin90))
    return {"metrics": values, "units": dict(wl.PER_LAYER),
            "provenance_from": base,
            "layers": {"w1": spans["layers"], "w1_malloc": malloc["layers"],
                       "w2": w2["layers"]}}


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, res) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "bit_generator": res["bit_generator"],
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies every op's samples or trials (self-test)")
    ap.add_argument("--expect", action="append", default=[], metavar="OP=CODE",
                    help="override an op's expected exit code (self-test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "steinpaths", "__init__.py")):
        print("run.py: no steinpaths sources under %s" % ROOT, file=sys.stderr)
        return 2

    os.makedirs(os.path.join(OUT, "models"), exist_ok=True)
    for key, spec in wl.MODELS.items():
        with open(os.path.join(OUT, "models", key + ".json"), "w") as fh:
            json.dump(spec, fh)

    tally = Tally(wl.WORKLOADS[args.workload])
    try:
        result = (run_traced if args.trace else run_e2e)(args, tally)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    units = result["units"]
    for name, value in result["metrics"].items():
        print("%-52s %.6g %s" % (name, value, units[name]))
    ratio_name, ratio_unit = wl.FAILED_RATIO
    print("%-52s %.6g %s (%d of %d op runs)"
          % (ratio_name, tally.failed / tally.attempted, ratio_unit,
             tally.failed, tally.attempted))
    if tally.stat_misses:
        print("%d op runs missed a Monte Carlo z-test within |z| <= %g"
              % (tally.stat_misses, wl.Z_CEILING))
    for note in tally.notes:
        print("failed: " + note)
    prov = provenance(args, result["provenance_from"])
    print("provenance " + json.dumps(prov, sort_keys=True))

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "metrics": result["metrics"],
                   "attempted": tally.attempted, "failed": tally.failed,
                   "notes": tally.notes, "layers": result.get("layers"),
                   "raw": result.get("raw")},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
