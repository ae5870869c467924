"""Deterministic parallel Monte Carlo engine.

Mean/variance accumulation, mergeable across chunks (Chan's update), with
a splittable counter-based RNG: numpy's Philox keyed by
(root seed, stream path) via SeedSequence spawn keys.  ``mc_run_vector``
is the one chunk loop: work is split into fixed-size chunks whose
substreams depend only on the chunk index, and chunk results are merged
in index order, so the final numbers are bit-identical for any worker
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "McError",
    "McEstimate",
    "merge",
    "ci95",
    "from_values",
    "SeedSpec",
    "mc_run",
    "mc_run_vector",
    "CHUNK",
    "MEMORY_BUDGET",
]

CHUNK = 4096  # samples per task; fixed so results do not depend on workers
MEMORY_BUDGET = 32 << 20  # working memory of a sampler call or an engine chunk
Z95 = 1.96


class McError(ValueError):
    pass


@dataclass
class McEstimate:
    """First/second moment accumulator.

    count -- number of samples
    mean  -- running mean
    m2    -- sum of squared deviations from the mean
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    name: str = field(default="", compare=False)

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        return float(np.sqrt(self.variance / self.count))

    def ci95(self) -> tuple[float, float]:
        return ci95(self)

    def to_dict(self) -> dict:
        lo, hi = (self.ci95() if self.count >= 2 else (self.mean, self.mean))
        return {
            "name": self.name,
            "count": self.count,
            "value": self.mean,
            "stderr": self.stderr,
            "ci95": [lo, hi],
        }


def merge(a: McEstimate, b: McEstimate) -> McEstimate:
    """Combine two disjoint accumulations (Chan's parallel update)."""
    if a.count == 0:
        return McEstimate(b.count, b.mean, b.m2, a.name or b.name)
    if b.count == 0:
        return McEstimate(a.count, a.mean, a.m2, a.name or b.name)
    n = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.count / n)
    m2 = a.m2 + b.m2 + delta * delta * (a.count * b.count / n)
    return McEstimate(n, mean, m2, a.name or b.name)


def ci95(est: McEstimate) -> tuple[float, float]:
    """mean +/- 1.96 stderr; needs at least two samples."""
    if est.count < 2:
        raise McError("ci95 needs count >= 2, have %d" % est.count)
    half = Z95 * est.stderr
    return est.mean - half, est.mean + half


def from_values(xs, name: str = "") -> McEstimate:
    """Moments of the flattened values xs; no values give an empty estimate."""
    xs = np.asarray(xs, dtype=float).ravel()
    if xs.size == 0:
        return McEstimate(name=name)
    if not np.all(np.isfinite(xs)):
        raise McError("non-finite sample in batch")
    mean = np.mean(xs)
    return McEstimate(int(xs.size), float(mean), float(np.sum((xs - mean) ** 2)), name)


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus a stream path of task indices.

    Distinct paths give statistically independent Philox substreams; the
    same (root, path) reproduces the identical sample sequence.
    """

    root: int
    path: tuple = ()

    def child(self, *indices: int) -> "SeedSpec":
        return SeedSpec(self.root, self.path + tuple(int(i) for i in indices))

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.root, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def _run_tasks(task, n_tasks: int, workers: int) -> list:
    if workers <= 1 or n_tasks <= 1:
        return [task(i) for i in range(n_tasks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(n_tasks)))


def _chunk_sizes(n_samples: int, chunk: int) -> list[int]:
    sizes = [chunk] * (n_samples // chunk)
    if n_samples % chunk:
        sizes.append(n_samples % chunk)
    return sizes


def mc_run_vector(
    sample_fn: Callable[[np.random.Generator, int], np.ndarray],
    n_samples: int,
    seed: SeedSpec,
    workers: int = 1,
    chunk: int = CHUNK,
) -> list[McEstimate]:
    """Per-column estimates of E[X] where sample_fn(rng, size) draws size
    iid rows, shaped (size,) or (size, d); a scalar is the case d = 1.

    Chunk i draws from seed.child(i).  Each column of a chunk is reduced as
    one contiguous run, so its moments carry the bits from_values gives
    that column (a row-major (size, d > 1) array reduced along axis 0 does
    not), and chunks merge in index order by Chan's update, vectorized over
    the columns with the arithmetic of ``merge``; the result is therefore
    independent of the worker count.
    """
    if n_samples < 1:
        raise McError("n_samples must be positive")
    sizes = _chunk_sizes(n_samples, chunk)

    def task(i: int):
        xs = np.asarray(sample_fn(seed.child(i).rng(), sizes[i]), dtype=float)
        # a view, not a copy, for (size,) and column-major (size, d) draws
        cols = np.ascontiguousarray(xs.reshape(sizes[i], -1).T)
        if not np.all(np.isfinite(cols)):
            raise McError("non-finite sample in chunk %d" % i)
        means = cols.mean(axis=1)
        return means, ((cols - means[:, None]) ** 2).sum(axis=1)

    count, mean, m2 = 0, 0.0, 0.0
    for size, (means, m2s) in zip(sizes, _run_tasks(task, len(sizes), workers)):
        total = count + size
        delta = means - mean
        mean = mean + delta * (size / total)
        m2 = m2 + m2s + delta * delta * (count * size / total)
        count = total
    return [McEstimate(count, float(a), float(b)) for a, b in zip(mean, m2)]


def mc_run(
    sample_fn: Callable[[np.random.Generator, int], np.ndarray],
    n_samples: int,
    seed: SeedSpec,
    workers: int = 1,
    chunk: int = CHUNK,
    name: str = "",
) -> McEstimate:
    """Estimate E[X] where sample_fn(rng, size) draws size iid samples:
    the one-column case of mc_run_vector."""
    (est,) = mc_run_vector(sample_fn, n_samples, seed, workers, chunk)
    est.name = name
    return est
