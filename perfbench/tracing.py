"""Spans around steinpaths' public functions, installed from outside.

A ``Tracer`` replaces each traced function at every name it is looked up
under (``cli`` and ``ou_stein`` import ``mc_run`` by name, several modules
import ``grid_path`` by name), and each method on its class.  Spans are
kept in memory as (name, start, end, parent, thread, ...) and written as
JSONL when the run ends; ``summarize`` turns them into per-function stats.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
import tracemalloc

NAME, START, END, PARENT, THREAD, SIZE, N, CUT, PEAK, NBYTES = range(10)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _cut(n, times):
    """Largest grid row a functional with these times reads, over n."""
    return max(int(n * t) for t in times) / n


def _sampler(size_index):
    """Span info for f(model, ..., size): (size, n, cut)."""

    def info(args, kwargs):
        return _arg(args, kwargs, size_index, "size"), args[0].n, None

    return info


def _eps3_info(args, kwargs):
    model, f = args[0], args[1]
    return _arg(args, kwargs, 3, "size"), model.n, _cut(model.n, f.times)


def _sample_at_info(args, kwargs):
    law = args[0]
    times = _arg(args, kwargs, 3, "times")
    return _arg(args, kwargs, 2, "size"), law.n, _cut(law.n, times)


# (module, attribute or Class.method, span info) for every traced function
TARGETS = (
    ("combinatorial", "sample_dn_values", _sampler(2)),
    ("combinatorial", "sample_zhat_values", _sampler(2)),
    ("combinatorial", "sample_y_values", _sampler(2)),
    ("combinatorial", "eps3_values", _eps3_info),
    ("combinatorial", "pair_norm_stats", _sampler(2)),
    ("combinatorial", "regression_residual", None),
    ("combinatorial", "bound_prelimit_distance_report", None),
    ("graph", "sample_y_values", _sampler(2)),
    ("graph", "sample_dn_values", _sampler(2)),
    ("graph", "sample_coupled_values", _sampler(2)),
    ("graph", "pair_norm_stats", _sampler(2)),
    ("graph", "coupling_distance", None),
    ("graph", "regression_residual", None),
    ("graph", "prelimit_cov", None),
    ("graph", "cov_tv", None),
    ("mc", "mc_run", None),
    ("functionals", "CylinderFunctional.value_stacked", None),
    ("functionals", "CylinderFunctional.grad_stacked", None),
    ("functionals", "CylinderFunctional.hess_stacked", None),
    ("functionals", "norm_upper_bound", None),
    ("ou_stein", "stein_identity_residual", None),
    ("ou_stein", "TargetLaw.sample_at", _sample_at_info),
    ("ou_stein", "TargetLaw.cov_matrix", None),
    ("ou_stein", "epsilon1_graph", None),
    ("ou_stein", "epsilon1_combinatorial", None),
    ("ou_stein", "epsilon3_estimate", None),
    ("paths", "grid_path", None),
    ("paths", "PiecewiseConstantPath.__call__", None),
    ("reporting", "RunReport.to_json", None),
    ("reporting", "RunReport.to_csv", None),
    ("cli", "_load_model", None),
)


class Tracer:
    """In-memory span recorder.

    With ``malloc`` each sampler span (one with a ``size``) also records its
    tracemalloc peak; tracemalloc runs only while such a span is open, so
    the interpreter-bound code around the samplers is not slowed.
    """

    def __init__(self, malloc: bool = False):
        self.spans: list = []
        self.malloc = malloc
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span stack ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.cut, local.mem = [], None, []
        return local

    def open(self, name, size=0, n=0, cut=None, parent=None):
        local = self._state()
        if local.stack:
            parent = local.stack[-1]
        rec = [name, 0.0, 0.0, parent, threading.get_ident(), size or 0, n,
               local.cut if cut is None else cut, 0, 0]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(rec)
        local.stack.append(sid)
        saved_cut = local.cut
        if cut is not None:
            local.cut = cut
        tracked = self.malloc and bool(size)
        if tracked:
            if not local.mem:
                tracemalloc.start()
            cur, peak = tracemalloc.get_traced_memory()
            if local.mem:
                local.mem[-1][1] = max(local.mem[-1][1], peak)
            tracemalloc.reset_peak()
            local.mem.append([cur, cur])
        rec[START] = time.perf_counter()
        return sid, saved_cut, tracked

    def close(self, token, nbytes=0):
        end = time.perf_counter()
        sid, saved_cut, tracked = token
        local = self._local
        rec = self.spans[sid]
        rec[END] = end
        rec[NBYTES] = nbytes
        local.stack.pop()
        local.cut = saved_cut
        if tracked:
            _, peak = tracemalloc.get_traced_memory()
            base, seen = local.mem.pop()
            peak = max(peak, seen)
            rec[PEAK] = peak - base
            if local.mem:
                local.mem[-1][1] = max(local.mem[-1][1], peak)
            else:
                tracemalloc.stop()

    def current(self):
        stack = self._state().stack
        return stack[-1] if stack else None

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, info=None):
        tracer = self

        def traced(*args, **kwargs):
            size, n, cut = info(args, kwargs) if info else (0, 0, None)
            token = tracer.open(name, size, n, cut)
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, str):
                    nbytes = len(result.encode())
                return result
            finally:
                tracer.close(token, nbytes)

        return traced

    def install(self, package: str = "steinpaths"):
        """Wrap every target at every module attribute that refers to it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == package or k.startswith(package + ".")]
        for mod_name, attr, info in TARGETS:
            mod = sys.modules["%s.%s" % (package, mod_name)]
            span = "%s.%s" % (mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(span, getattr(cls, meth), info))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(span, orig, info)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
        self._install_chunks(sys.modules[package + ".mc"])
        self._install_cli(sys.modules[package + ".cli"])

    def _install_chunks(self, mc):
        """One "mc.chunk" span per Monte Carlo chunk task, on any thread."""
        tracer, run_tasks = self, mc._run_tasks

        def traced_run_tasks(task, n_tasks, workers):
            parent = tracer.current()

            def chunk(i):
                token = tracer.open("mc.chunk", parent=parent)
                try:
                    return task(i)
                finally:
                    tracer.close(token)

            return run_tasks(chunk, n_tasks, workers)

        mc._run_tasks = traced_run_tasks

    def _install_cli(self, cli):
        """Spans per CLI command, and the cut each sampler call serves."""
        tracer, main, gap_sampler = self, cli.main, cli._gap_sampler

        def traced_main(argv=None):
            token = tracer.open("cli.main.%s" % (argv[0] if argv else "none"))
            try:
                return main(argv)
            finally:
                tracer.close(token)

        def traced_gap_sampler(kind, model, g):
            cut = _cut(model.n, g.times)

            def with_cut(fn):
                def sample(rng, size):
                    local = tracer._state()
                    saved, local.cut = local.cut, cut
                    try:
                        return fn(rng, size)
                    finally:
                        local.cut = saved

                return sample

            return tuple(with_cut(fn) for fn in gap_sampler(kind, model, g))

        cli.main = traced_main
        cli._gap_sampler = traced_gap_sampler

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path, t0: float):
        with open(path, "w") as fh:
            for sid, r in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": r[NAME], "start": r[START] - t0,
                    "end": r[END] - t0, "parent": r[PARENT], "thread": r[THREAD],
                    "size": r[SIZE], "cut": r[CUT], "peak_bytes": r[PEAK],
                    "bytes": r[NBYTES],
                }) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _rank(sorted_vals, q):
    """Nearest-rank q-quantile of a sorted list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def summarize(spans) -> dict:
    """Per span name: calls, busy/self time, per-sample and per-call stats.

    Self time is a span's duration minus the part of it its children cover,
    on any thread.  ``ms_p50``/``ms_p90`` are nearest-rank quantiles of the
    per-call times; ``p50_ok``/``p90_ok`` say whether at least ten calls lie
    beyond them.
    """
    children: dict = {}
    for r in spans:
        if r[PARENT] is not None:
            children.setdefault(r[PARENT], []).append((r[START], r[END]))
    acc: dict = {}
    for sid, r in enumerate(spans):
        dur = r[END] - r[START]
        s = acc.setdefault(r[NAME], {
            "calls": 0, "busy_s": 0.0, "self_s": 0.0, "samples": 0, "durs": [],
            "peak_mb": 0.0, "cut_weight": 0.0, "bytes_mb_computed": 0.0,
            "bytes": 0,
        })
        s["calls"] += 1
        s["busy_s"] += dur
        s["self_s"] += dur - _covered(children.get(sid, ()), r[START], r[END])
        s["durs"].append(dur)
        s["samples"] += r[SIZE]
        s["cut_weight"] += r[SIZE] * (1.0 if r[CUT] is None else r[CUT])
        s["peak_mb"] = max(s["peak_mb"], r[PEAK] / 1e6)
        s["bytes_mb_computed"] = max(
            s["bytes_mb_computed"], r[SIZE] * r[N] * r[N] * 8 / 1e6)
        s["bytes"] += r[NBYTES]
    out = {}
    for name, s in acc.items():
        durs = sorted(s.pop("durs"))
        samples = s["samples"]
        s["us_per_sample"] = s["busy_s"] / samples * 1e6 if samples else 0.0
        s["cut_fraction"] = s.pop("cut_weight") / samples if samples else 0.0
        s["ms_p50"] = _rank(durs, 0.5) * 1e3
        s["ms_p90"] = _rank(durs, 0.9) * 1e3
        s["p50_ok"] = len(durs) >= 20
        s["p90_ok"] = len(durs) >= 100
        out[name] = s
    return out
