"""Deterministic parallel Monte Carlo engine.

Mean/variance accumulation, mergeable across chunks (Chan's update), with
splittable random streams: numpy's SFC64 seeded from a SeedSequence keyed
by (root seed, stream path) through its spawn key.  ``mc_run_vector``
is the one chunk loop: work is split into fixed-size chunks whose
substreams depend only on the chunk index, and chunk results are merged
in index order, so the final numbers are bit-identical for any worker
count.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

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
    "bit_generator",
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


def merge(a: McEstimate, b: McEstimate) -> McEstimate:
    """Combine two disjoint accumulations (Chan's parallel update)."""
    if a.count == 0:
        return McEstimate(b.count, b.mean, b.m2)
    if b.count == 0:
        return McEstimate(a.count, a.mean, a.m2)
    n = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.count / n)
    m2 = a.m2 + b.m2 + delta * delta * (a.count * b.count / n)
    return McEstimate(n, mean, m2)


def ci95(est: McEstimate) -> tuple[float, float]:
    """mean +/- 1.96 stderr; needs at least two samples."""
    if est.count < 2:
        raise McError("ci95 needs count >= 2, have %d" % est.count)
    half = Z95 * est.stderr
    return est.mean - half, est.mean + half


def from_values(xs) -> McEstimate:
    """Moments of the flattened values xs; no values give an empty estimate."""
    xs = np.asarray(xs, dtype=float).ravel()
    if xs.size == 0:
        return McEstimate()
    if not np.all(np.isfinite(xs)):
        raise McError("non-finite sample in batch")
    mean = np.mean(xs)
    return McEstimate(int(xs.size), float(mean), float(np.sum((xs - mean) ** 2)))


def bit_generator() -> type:
    """The numpy bit generator class that SeedSpec.rng builds: SFC64.
    Looked up at each call, not bound at import, because numpy imports
    numpy.random lazily: binding it here would add that import (about
    7 ms) to every process's start-up."""
    return np.random.SFC64


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus a stream path of task indices.

    ``rng`` is the one place a bit generator is built: bit_generator()
    (SFC64), seeded by ``SeedSequence(root, spawn_key=path)``.  Distinct
    paths give statistically independent streams (SeedSequence hashes the
    spawn key into the whole state); the same (root, path) reproduces the
    identical sample sequence.  No stream is advanced or jumped, so no
    counter-based generator is needed; SFC64 draws normals and uniforms
    faster than Philox.
    """

    root: int
    path: tuple = ()

    def child(self, *indices: int) -> "SeedSpec":
        return SeedSpec(self.root, self.path + tuple(int(i) for i in indices))

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.root, spawn_key=self.path)
        return np.random.Generator(bit_generator()(ss))


def _run_tasks(task, n_tasks: int, workers: int) -> Iterator:
    """Yields task(0), ..., task(n_tasks - 1) in index order.  At most
    2 * workers tasks are submitted and not yet yielded, so the results
    held at once do not grow with n_tasks."""
    if workers <= 1 or n_tasks <= 1:
        yield from map(task, range(n_tasks))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for i in range(n_tasks):
            if len(ahead) == 2 * workers:
                yield ahead.popleft().result()
            ahead.append(pool.submit(task, i))
        while ahead:
            yield ahead.popleft().result()


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
    independent of the worker count.  Each chunk is merged as it arrives,
    so memory does not grow with the chunk count.  A non-finite sample, or
    finite samples whose mean or m2 overflows, raise ``McError``.
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
    # finite samples can still overflow the moments, e.g. squared deviations
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(m2))):
        raise McError("non-finite moments over %d finite samples" % count)
    return [McEstimate(count, float(a), float(b)) for a, b in zip(mean, m2)]


def mc_run(
    sample_fn: Callable[[np.random.Generator, int], np.ndarray],
    n_samples: int,
    seed: SeedSpec,
    workers: int = 1,
) -> McEstimate:
    """Estimate E[X] where sample_fn(rng, size) draws size iid samples:
    the one-column case of mc_run_vector."""
    (est,) = mc_run_vector(sample_fn, n_samples, seed, workers)
    return est
