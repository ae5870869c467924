"""Machine-readable run reports: canonical JSON and flat CSV.

JSON is serialized with sorted keys and every float printed with 17
significant digits, so identical runs produce identical bytes and values
round-trip exactly through text.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .mc import McEstimate

__all__ = ["ReportError", "fmt_float", "canonical_json", "RunReport"]


class ReportError(ValueError):
    pass


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ReportError("non-finite value %r in report" % x)
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted object keys, 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ", ".join(canonical_json(v) for v in obj)
    if isinstance(obj, dict):
        keys = sorted(obj)
        if any(not isinstance(k, str) for k in keys):
            raise ReportError("JSON object keys must be strings")
        return "{%s}" % ", ".join(
            "%s: %s" % (canonical_json(k), canonical_json(obj[k])) for k in keys
        )
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return fmt_float(float(obj))
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    raise ReportError("cannot serialize %r" % type(obj).__name__)


@dataclass
class RunReport:
    """Self-contained record of one CLI run.

    estimates carry {name, value, stderr, ci95, count}; values (exact
    point values, such as a worst residual or a gap of two estimates) and
    bounds carry {name, value}; checks carry {name, pass, tolerance,
    detail}.  The JSON has a "values" list only when a value was added, and
    a "bit_generator" (the class name of the engine's generator) only when
    one is given; the CSV has no bit_generator row.
    """

    command: str
    parameters: dict
    seed: int
    version: str
    bit_generator: str | None = None
    estimates: list = field(default_factory=list)
    values: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def add_estimate(self, name: str, est: McEstimate) -> None:
        lo, hi = est.ci95() if est.count >= 2 else (est.mean, est.mean)
        self.estimates.append({"name": name, "count": est.count, "value": est.mean,
                               "stderr": est.stderr, "ci95": [lo, hi]})

    def add_value(self, name: str, value: float) -> None:
        self.values.append({"name": name, "value": float(value)})

    def add_bound(self, name: str, value: float) -> None:
        self.bounds.append({"name": name, "value": float(value)})

    def add_check(self, name: str, ok: bool, tolerance, detail: str = "") -> None:
        self.checks.append(
            {
                "name": name,
                "pass": bool(ok),
                "tolerance": tolerance,
                "detail": detail,
            }
        )

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "version": self.version,
            "estimates": self.estimates,
            "bounds": self.bounds,
            "checks": self.checks,
        }
        if self.values:
            out["values"] = self.values
        if self.bit_generator is not None:
            out["bit_generator"] = self.bit_generator
        return out

    def to_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"

    def to_csv(self) -> str:
        """Flat table; labels holding commas or quotes are quoted."""
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(["name", "kind", "value", "stderr", "ci_lo", "ci_hi", "count", "pass"])
        for e in self.estimates:
            out.writerow(
                [
                    e["name"],
                    "estimate",
                    fmt_float(e["value"]),
                    fmt_float(e["stderr"]),
                    fmt_float(e["ci95"][0]),
                    fmt_float(e["ci95"][1]),
                    e["count"],
                    "",
                ]
            )
        for kind, rows in (("value", self.values), ("bound", self.bounds)):
            for r in rows:
                out.writerow([r["name"], kind, fmt_float(r["value"]), "", "", "", "", ""])
        for c in self.checks:
            out.writerow(
                [c["name"], "check", "", "", "", "", "", "true" if c["pass"] else "false"]
            )
        return buf.getvalue()
