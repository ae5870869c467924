"""Piecewise-constant cadlag paths on [0,1] with values in R^p.

A path is stored as a strictly increasing tuple of exact rational
breakpoints (the first is always 0) together with one value vector per
interval of constancy.  The path equals ``values[k]`` on
``[breakpoints[k], breakpoints[k+1])`` and on the final interval
``[breakpoints[-1], 1]``; evaluation at a breakpoint therefore returns
the new value (right-continuity).

Times are ``fractions.Fraction`` so that floor expressions like
``floor(n*t)`` are computed in integer arithmetic and evaluation at a
jump is never ambiguous.  Values are plain floats.  Paths are immutable
after construction.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "PathError",
    "as_time",
    "PiecewiseConstantPath",
    "lin_comb",
    "step_indicator",
    "zero_path",
    "grid_path",
    "grid_rows",
    "time_rows",
    "paths_equal",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class PathError(ValueError):
    """Invalid path construction or evaluation outside [0,1]."""


def as_time(t, den: int | None = None) -> Fraction:
    """Coerce ``t`` to an exact rational time in [0,1].

    Accepts a Fraction, an int, a ``(num, den)`` pair via the two-argument
    form, or a string like ``"3/4"``.  Floats are rejected: binary floats
    at jump locations are exactly the ambiguity this module avoids.
    """
    if den is not None:
        t = Fraction(t, den)
    elif isinstance(t, float):
        raise PathError("times must be exact rationals, got float %r" % t)
    else:
        t = Fraction(t)
    if not ZERO <= t <= ONE:
        raise PathError("time %s outside [0,1]" % t)
    return t


class PiecewiseConstantPath:
    """Right-continuous step function [0,1] -> R^p.

    Parameters
    ----------
    dim : int
        Dimension p >= 1 of the value space.
    breakpoints : sequence of Fraction
        Strictly increasing rationals in [0,1]; the first must be 0.
    values : array-like, shape (len(breakpoints), dim)
        Value on each interval of constancy; all entries finite.
    """

    __slots__ = ("dim", "breakpoints", "values")

    def __init__(self, dim: int, breakpoints: Sequence[Fraction], values) -> None:
        if dim < 1:
            raise PathError("dim must be a positive integer")
        bps = tuple(Fraction(b) for b in breakpoints)
        if not bps or bps[0] != 0:
            raise PathError("first breakpoint must equal 0")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise PathError("breakpoints must be strictly increasing")
        if bps[-1] > 1:
            raise PathError("breakpoints must lie in [0,1]")
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (len(bps), dim):
            raise PathError(
                "values shape %s incompatible with %d breakpoints and dim %d"
                % (vals.shape, len(bps), dim)
            )
        if not np.all(np.isfinite(vals)):
            raise PathError("path values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("PiecewiseConstantPath is immutable")

    def segment_index(self, t: Fraction) -> int:
        """Index k with breakpoints[k] <= t < breakpoints[k+1]."""
        if not ZERO <= t <= ONE:
            raise PathError("evaluation time %s outside [0,1]" % t)
        return bisect_right(self.breakpoints, t) - 1

    def __call__(self, t) -> np.ndarray:
        """Value at time ``t`` (the new value at a jump)."""
        return self.values[self.segment_index(as_time(t))]

    def sup_norm(self) -> float:
        """sup over t in [0,1] of the Euclidean norm of path(t); exact,
        since the sup is attained on some interval of constancy."""
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "breakpoints": [[b.numerator, b.denominator] for b in self.breakpoints],
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiecewiseConstantPath":
        bps = [Fraction(num, den) for num, den in d["breakpoints"]]
        return cls(d["dim"], bps, d["values"])

    def __repr__(self) -> str:
        return "PiecewiseConstantPath(dim=%d, jumps=%d)" % (
            self.dim,
            len(self.breakpoints) - 1,
        )


def lin_comb(
    a: float,
    x: PiecewiseConstantPath,
    b: float,
    y: PiecewiseConstantPath,
) -> PiecewiseConstantPath:
    """Pointwise combination a*x + b*y on the merged breakpoint set."""
    if x.dim != y.dim:
        raise PathError("dimension mismatch: %d vs %d" % (x.dim, y.dim))
    merged = sorted(set(x.breakpoints) | set(y.breakpoints))
    xi = [x.segment_index(t) for t in merged]
    yi = [y.segment_index(t) for t in merged]
    vals = a * x.values[xi] + b * y.values[yi]
    return PiecewiseConstantPath(x.dim, merged, vals)


def step_indicator(i: int, n: int, coord: int, dim: int) -> PiecewiseConstantPath:
    """The path 1_{[i/n, 1]} * e_coord (coord is 1-based)."""
    if not 1 <= i <= n:
        raise PathError("index i=%d outside 1..%d" % (i, n))
    if not 1 <= coord <= dim:
        raise PathError("coord %d outside 1..%d" % (coord, dim))
    e = np.zeros(dim)
    e[coord - 1] = 1.0
    if i == 0:
        return PiecewiseConstantPath(dim, [ZERO], [e])
    return PiecewiseConstantPath(dim, [ZERO, Fraction(i, n)], [np.zeros(dim), e])


def zero_path(dim: int) -> PiecewiseConstantPath:
    return PiecewiseConstantPath(dim, [ZERO], np.zeros((1, dim)))


def grid_path(values, n: int) -> PiecewiseConstantPath:
    """Path with breakpoints {0, 1/n, ..., n/n} and the given n+1 values.

    ``values`` has shape (n+1,) or (n+1, dim); entry k is the value on
    [k/n, (k+1)/n) (and [1,1] for k = n).
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != n + 1:
        raise PathError("grid_path needs n+1 values, got %d" % vals.shape[0])
    bps = [Fraction(k, n) for k in range(n + 1)]
    return PiecewiseConstantPath(vals.shape[1], bps, vals)


def grid_rows(n: int, cuts=None) -> tuple[np.ndarray, int]:
    """Grid rows k (for t = k/n) a sampler returns, and the largest of them.

    ``cuts=None`` means every row 0..n.  Samplers draw only what rows up to
    the largest one need, so callers pass the rows their functional reads.
    """
    if cuts is None:
        return np.arange(n + 1), n
    rows = np.asarray(cuts, dtype=np.intp).reshape(-1)
    if rows.size == 0:
        return rows, 0
    if rows.min() < 0 or rows.max() > n:
        raise PathError("grid rows must lie in 0..%d" % n)
    return rows, int(rows.max())


def time_rows(n: int, times: Sequence) -> np.ndarray:
    """Rows floor(n t), exact for rational t, of a grid path's values."""
    return np.array([int(n * t) for t in times], dtype=np.intp)


def paths_equal(
    x: PiecewiseConstantPath, y: PiecewiseConstantPath, tol: float = 0.0
) -> bool:
    """Pointwise equality on the union of breakpoint sets."""
    if x.dim != y.dim:
        return False
    for t in sorted(set(x.breakpoints) | set(y.breakpoints)):
        if np.max(np.abs(x(t) - y(t))) > tol:
            return False
    return True
