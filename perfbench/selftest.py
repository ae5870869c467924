"""Self-test of the benchmark at tiny scale.

Checks that BENCHMARK.json lists the runner's workloads and metrics, that
every workload prints every end-to-end and per-layer metric by name with
its unit, that a wrong expected exit code raises ops_failed_ratio and
clears ``correct`` (negative control), and that the runner fails without
printing a result in a copy that holds no program sources.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402

TINY = ("--seed", "7", "--seconds", "1", "--scale", "0.02")


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--trace", str(trace), *TINY, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines):
    """name -> (value, unit) of the metric lines printed before the result."""
    out = {}
    for line in lines:
        parts = line.split()
        try:
            out[parts[0]] = (float(parts[1]), parts[2])
        except (IndexError, ValueError):
            pass
    return out


def check_metrics(lines, result, expected):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == dict(expected), "result metrics differ: %s" % (
        set(got) ^ set(dict(expected)))
    shown = printed(lines)
    for name, unit in expected:
        assert shown.get(name, (0, None))[1] == unit, "%s not printed in %s" % (
            name, unit)
    assert shown[wl.FAILED_RATIO[0]][1] == wl.FAILED_RATIO[1]
    assert result["attempted"] >= 1


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(wl.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(wl.PER_LAYER)

    ratios = {}
    for name in wl.WORKLOADS:
        lines, result = run(name, 0)
        check_metrics(lines, result, wl.END_TO_END)
        assert result["correct"], "\n".join(lines)
        ratios[name] = printed(lines)[wl.FAILED_RATIO[0]][0]
        lines, result = run(name, 1)
        check_metrics(lines, result, wl.PER_LAYER)
        assert result["correct"], "\n".join(lines)
        print("%s: %d end-to-end and %d per-layer metrics, ops_failed_ratio %g"
              % (name, len(wl.END_TO_END), len(wl.PER_LAYER), ratios[name]))

    # negative control: bound exits 0, so expecting 1 must count as a failure
    lines, result = run("exact-small", 0, "--expect", "bound-graph=1")
    ratio = printed(lines)[wl.FAILED_RATIO[0]][0]
    assert ratio > ratios["exact-small"] and not result["correct"], lines
    print("negative control: ops_failed_ratio %g -> %g, correct false"
          % (ratios["exact-small"], ratio))

    # a copy with only BENCHMARK.json and perfbench/ must fail, printing nothing
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "graph-mc", "--trace", "0", *TINY],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("bare copy: exit %d, no result printed" % proc.returncode)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
