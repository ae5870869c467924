import numpy as np
import pytest


def _draw_pairs(mod, model, rng, trials, rows):
    """`trials` exchangeable pairs of a graph or array model (`mod` is its
    family module) from one batched draw of Y and one ``pair_moves`` call
    with unit covectors.  Each trial takes one pair by the kernel's
    probabilities; index `pairs` is the graph's leftover mass, the resample
    that keeps its edge, which moves nothing.  Returns the realizations,
    Y and Y' at the grid rows as (trials, len(rows), dim) arrays, and each
    trial's pair index."""
    real = mod.sample_trials(model, rng, trials)
    dim, k = real.values.shape[-1], len(rows)
    moves, prob = mod.pair_moves(real, rows, np.eye(k * dim).reshape(k * dim, 1, k, dim))
    pick = (np.cumsum(prob, axis=-1) < rng.random((trials, 1))).sum(axis=-1)
    moves = np.concatenate([moves, np.zeros(moves.shape[:-1] + (1,))], axis=-1)
    y = real.values[:, rows]
    return real, y, y - moves[:, np.arange(trials), pick].T.reshape(y.shape), pick


@pytest.fixture
def draw_pairs():
    return _draw_pairs
