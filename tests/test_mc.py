import functools
import tracemalloc

import numpy as np
import pytest

from steinpaths.mc import (
    CHUNK,
    McError,
    McEstimate,
    SeedSpec,
    bit_generator,
    ci95,
    from_values,
    mc_run,
    mc_run_vector,
    merge,
)


def test_accumulate_constant():
    est = from_values([2.0, 2.0, 2.0])
    assert est.mean == 2.0
    assert est.variance == 0.0
    assert est.count == 3


def test_accumulate_small_sample():
    est = from_values([1.0, 2.0, 3.0])
    assert est.mean == pytest.approx(2.0)
    assert est.variance == pytest.approx(1.0)


def test_accumulate_clt_scale():
    rng = SeedSpec(123).rng()
    est = from_values(rng.standard_normal(10**6))
    assert abs(est.mean) < 4e-3


def test_accumulate_rejects_nonfinite():
    with pytest.raises(McError):
        from_values([1.0, np.nan])
    with pytest.raises(McError):
        from_values([1.0, np.inf])


def test_merge_with_empty_is_identity():
    a = from_values([1.0, 5.0, 2.0])
    for merged in (merge(a, McEstimate()), merge(McEstimate(), a)):
        assert merged.count == a.count
        assert merged.mean == a.mean
        assert merged.m2 == a.m2


def test_merge_split_matches_single_pass():
    rng = SeedSpec(7).rng()
    xs = rng.standard_normal(10001)
    whole = from_values(xs)
    split = merge(from_values(xs[:5000]), from_values(xs[5000:]))
    assert split.count == whole.count
    assert split.mean == pytest.approx(whole.mean, rel=1e-12)
    assert split.m2 == pytest.approx(whole.m2, rel=1e-12)


def test_merge_three_way_fixed_order():
    rng = SeedSpec(8).rng()
    parts = [from_values(rng.standard_normal(100)) for _ in range(3)]
    left = merge(merge(parts[0], parts[1]), parts[2])
    seq = McEstimate()
    for p in parts:
        seq = merge(seq, p)
    assert left.count == seq.count
    assert left.mean == seq.mean
    assert left.m2 == seq.m2


def test_ci95_degenerate():
    est = from_values([3.0, 3.0, 3.0])
    assert ci95(est) == (3.0, 3.0)


def test_ci95_width_quarter_sample():
    rng = SeedSpec(9).rng()
    xs = rng.standard_normal(4000)
    a = from_values(xs[:1000])
    b = from_values(xs)
    wa = a.ci95()[1] - a.ci95()[0]
    wb = b.ci95()[1] - b.ci95()[0]
    # width ~ sd/sqrt(N): quadrupling N halves the width
    assert wb == pytest.approx(wa / 2, rel=0.15)


def test_ci95_insufficient_data():
    with pytest.raises(McError):
        ci95(from_values([1.0]))


def test_ci95_coverage():
    # ~95% of intervals cover the true mean over 1000 synthetic experiments
    root = SeedSpec(2024)
    hits = 0
    n_exp = 1000
    for i in range(n_exp):
        xs = root.child(i).rng().standard_normal(400) + 0.3
        lo, hi = from_values(xs).ci95()
        hits += lo <= 0.3 <= hi
    assert 0.93 <= hits / n_exp <= 0.97


def test_seedspec_reproducible():
    a = SeedSpec(42, (1, 2)).rng().standard_normal(16)
    b = SeedSpec(42, (1, 2)).rng().standard_normal(16)
    assert np.array_equal(a, b)
    c = SeedSpec(42, (1, 3)).rng().standard_normal(16)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("root, path", [(0, ()), (42, (1, 2)), (7, (3,))])
def test_seedspec_engine_is_sfc64_keyed_by_spawn_path(root, path):
    rng = SeedSpec(root, path).rng()
    assert type(rng.bit_generator) is np.random.SFC64
    assert type(rng.bit_generator) is bit_generator()  # the class a report names
    ref = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(root, spawn_key=path)))
    assert np.array_equal(rng.standard_normal(64), ref.standard_normal(64))
    assert np.array_equal(rng.integers(0, 2**32, 64, dtype=np.uint32),
                          ref.integers(0, 2**32, 64, dtype=np.uint32))


def test_substream_independence():
    n = 20000
    x = SeedSpec(5, (0,)).rng().standard_normal(n)
    y = SeedSpec(5, (1,)).rng().standard_normal(n)
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) < 4 / np.sqrt(n)
    lag1 = float(np.corrcoef(x[:-1], y[1:])[0, 1])
    assert abs(lag1) < 4 / np.sqrt(n)


def test_mc_run_deterministic_across_workers():
    def sampler(rng, size):
        return rng.standard_normal(size) ** 2

    a = mc_run(sampler, 20000, SeedSpec(11), workers=1)
    b = mc_run(sampler, 20000, SeedSpec(11), workers=4)
    assert (a.count, a.mean, a.m2) == (b.count, b.mean, b.m2)
    assert a.mean == pytest.approx(1.0, abs=5 * a.stderr)


def test_mc_run_vector_deterministic():
    def sampler(rng, size):
        z = rng.standard_normal((size, 2))
        return np.stack([z[:, 0], z[:, 0] * z[:, 1]], axis=1)

    a = mc_run_vector(sampler, 8192 + 17, SeedSpec(12), workers=1)
    b = mc_run_vector(sampler, 8192 + 17, SeedSpec(12), workers=3)
    for ea, eb in zip(a, b):
        assert (ea.count, ea.mean, ea.m2) == (eb.count, eb.mean, eb.m2)


def test_engine_columns_match_from_values_bitwise():
    # a row-major (size, d) sampler: each column of a chunk carries the bits
    # from_values gives it, chunks merge with the bits of the scalar merge,
    # and mc_run is column 0 of the vector call
    def sampler(rng, size):
        z = rng.standard_normal((size, 3))
        return np.stack([z[:, 0] ** 2, z[:, 0] * z[:, 1], z[:, 2] + 1.5], axis=1)

    seed = SeedSpec(13)
    sizes = (CHUNK, CHUNK, 17)
    chunks = [sampler(seed.child(i).rng(), s) for i, s in enumerate(sizes)]
    one = mc_run_vector(sampler, CHUNK, seed)
    many = mc_run_vector(sampler, sum(sizes), seed, workers=2)
    for j in range(3):
        ref = from_values(chunks[0][:, j])
        assert (one[j].count, one[j].mean, one[j].m2) == (ref.count, ref.mean, ref.m2)
        ref = functools.reduce(merge, [from_values(x[:, j]) for x in chunks])
        assert (many[j].count, many[j].mean, many[j].m2) == (ref.count, ref.mean, ref.m2)
    col0 = mc_run(lambda rng, size: sampler(rng, size)[:, 0], sum(sizes), seed)
    assert (col0.count, col0.mean, col0.m2) == (many[0].count, many[0].mean, many[0].m2)


def test_engine_rejects_nonfinite_and_multi_column_mc_run():
    with pytest.raises(McError):
        mc_run(lambda rng, size: np.full(size, np.inf), 10, SeedSpec(14))
    with pytest.raises(ValueError):
        mc_run(lambda rng, size: np.zeros((size, 2)), 10, SeedSpec(14))


def test_engine_rejects_overflowing_moments():
    # finite samples whose mean or m2 is not finite
    with pytest.raises(McError, match="non-finite moments"):
        mc_run(lambda rng, size: rng.choice([-1e300, 1e300], size), 10, SeedSpec(14))
    with pytest.raises(McError, match="non-finite moments"):
        mc_run_vector(lambda rng, size: np.full((size, 2), 1.7e308), CHUNK + 1, SeedSpec(14))


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_memory_does_not_grow_with_chunk_count(workers):
    # chunks are merged as they arrive: ten times the chunks of 1000 columns
    # hold no more memory (every chunk's moments held at once: 16 kB each)
    def peak(n_samples):
        tracemalloc.start()
        try:
            mc_run_vector(lambda rng, size: np.ones((size, 1000)), n_samples, SeedSpec(0),
                          workers, chunk=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)  # first-call allocations
    small, large = peak(200), peak(2000)
    assert large <= 2 * small, (small, large)
