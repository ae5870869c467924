"""Exact times and grid rows of step paths on [0,1] with values in R^p.

The library holds a step path as its (n+1, p) grid values, row k being
the value on [k/n, (k+1)/n); a cylinder functional reads the rows
floor(n t) of its times (``time_rows``, ``grid_rows``).  Times are
``fractions.Fraction`` so that floor(n*t) is computed in integer
arithmetic and evaluation at a jump is never ambiguous.

``PiecewiseConstantPath`` is the exact object form: strictly increasing
rational breakpoints (the first is always 0) with one value vector per
interval of constancy, right-continuous at each jump.  It and
``grid_path`` are the oracle that the tests pin the row reads with.
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
    "grid_path",
    "grid_rows",
    "time_rows",
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

    def __call__(self, t) -> np.ndarray:
        """Value at time ``t`` (the new value at a jump)."""
        return self.values[bisect_right(self.breakpoints, as_time(t)) - 1]

    def sup_norm(self) -> float:
        """sup over t in [0,1] of the Euclidean norm of path(t); exact,
        since the sup is attained on some interval of constancy."""
        return float(np.max(np.linalg.norm(self.values, axis=1)))


def grid_path(values, n: int) -> PiecewiseConstantPath:
    """Path with breakpoints {0, 1/n, ..., n/n} and the given n+1 values.

    ``values`` has shape (n+1,) or (n+1, dim); entry k is the value on
    [k/n, (k+1)/n) (and [1,1] for k = n).
    """
    vals = np.asarray(values, dtype=float)
    dim = vals.shape[1] if vals.ndim == 2 else 1
    return PiecewiseConstantPath(dim, [Fraction(k, n) for k in range(n + 1)], vals)


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
