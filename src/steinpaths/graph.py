"""Edge and two-star statistics of a Bernoulli graph, revealed vertex by
vertex, with their Gaussian pre-limit and continuous limit.

With m = floor(nt) and iid Bernoulli(p) edge indicators I_ij,

    T_n(t) = (m-2)/n^2 * sum_{i<j<=m} I_ij,
    V_n(t) = (1/n^2) * #(two-stars among the first m vertices),
    Y_n    = (T_n - E T_n, V_n - E V_n),

and the exchangeable pair resamples one uniformly chosen edge.  The
regression identity holds with Lambda_n = n(n-1)/8 [[2, 2p], [0, 1]] and
zero remainder.

The pre-limit D_n = (D1, D2) is sampled through its five-Brownian-motion
representation (clocks k(k-1) for B1,B2,B3,B5 and k^2(k-1) for B4), whose
grid covariance is available in closed form:

    E D1(t)D1(u) = ab m(m-1) p(1-p) / (2 n^4),
    E D1(t)D2(u) = ab m(m-1) p^2 (1-p) / n^4,
    E D2(t)D2(u) = 2 p^3(1-p) ab m(m-1)/n^4 + ab m(m-1)/n^5
                   + p^2(1-p)^2 m^2(m-1)/(2 n^4) + 2 p^3(1-p) m(m-1)/n^4,

with a = floor(nt)-2, b = floor(nu)-2, m = floor(n(t^u)).  The Gaussian
family behind the D2 block can also be assembled index by index from the
covariance table (``cov_d2d2_table`` and the direct small-n oracle); the
two D2 forms differ by exactly (1+p) m(m-1) p^2(1-p)/n^4, which is kept
visible as a diagnostic rather than hidden in either evaluator.

The continuous limit Z = (Z1, Z2) uses the same B1, B2 through
t B(t^2); coupling Z_n to Z shares those two motions on a merged clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .functionals import CylinderFunctional
from .mc import MEMORY_BUDGET, SeedSpec, mc_run_vector
from .paths import as_time, grid_rows

__all__ = [
    "GraphModelError",
    "GraphModel",
    "moments_tv",
    "moments_tv_exact",
    "cov_tv",
    "cov_tv_exact",
    "var_v_exact",
    "GraphRealization",
    "sample_graph",
    "sample_trials",
    "sample_pair",
    "resample_edge",
    "lambda_matrix",
    "apply_lambda_values",
    "regression_residual",
    "regression_residuals",
    "cov_d1d1",
    "cov_d1d2",
    "cov_d2d2",
    "cov_d2d2_table",
    "brownian_side_cov",
    "d2_block_discrepancy",
    "PrelimitCovariance",
    "prelimit_cov",
    "bernoulli",
    "sample_y_values",
    "sample_dn_values",
    "DirectGaussianOracle",
    "z_coefficients",
    "sample_z_values",
    "sample_coupled_values",
    "coupling_distance",
    "pair_norm_stats",
    "bound_prelimit",
    "bound_continuous",
    "coupling_bounds",
]


class GraphModelError(ValueError):
    pass


@dataclass(frozen=True)
class GraphModel:
    """Bernoulli graph on n >= 3 vertices with edge probability p."""

    n: int
    p: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise GraphModelError("need an integer n >= 3 (two-stars need 3 vertices)")
        if not 0.0 < self.p < 1.0:
            raise GraphModelError("edge probability must satisfy 0 < p < 1")

    @classmethod
    def from_json_dict(cls, d: dict) -> "GraphModel":
        return cls(int(d["n"]), float(d["p"]))


def _binom2(m: int) -> int:
    return m * (m - 1) // 2


def _binom3(m: int) -> int:
    return m * (m - 1) * (m - 2) // 6 if m >= 3 else 0


def moments_tv_exact(model: GraphModel, t) -> tuple[Fraction, Fraction]:
    """Exact (E T_n(t), E V_n(t)) in rational arithmetic."""
    n = model.n
    m = int(n * as_time(t))
    p = Fraction(model.p)
    et = Fraction(m - 2, 1) * _binom2(m) * p / n**2
    ev = 3 * _binom3(m) * p**2 / Fraction(n**2)
    return et, ev


def moments_tv(model: GraphModel, t) -> tuple[float, float]:
    et, ev = moments_tv_exact(model, t)
    return float(et), float(ev)


def cov_tv_exact(model: GraphModel, t) -> list[list[Fraction]]:
    """Rank-one leading-order covariance matrix of Y_n(t):
    3 (m-2) C(m,3) p(1-p)/n^4 * [[1, 2p], [2p, 4p^2]].

    Exact for the edge variance and the cross entry; for the two-star
    variance this is the leading term only (see var_v_exact).
    """
    n = model.n
    m = int(n * as_time(t))
    p = Fraction(model.p)
    f = 3 * (m - 2) * _binom3(m) * p * (1 - p) / Fraction(n**4)
    if m < 3:
        f = Fraction(0)
    return [[f, 2 * p * f], [2 * p * f, 4 * p**2 * f]]


def cov_tv(model: GraphModel, t) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in cov_tv_exact(model, t)])


def var_v_exact(model: GraphModel, t) -> Fraction:
    """Exact Var V_n(t): per-star variance plus shared-edge covariances,
    [3 C(m,3) p^2 (1-p^2) + C(m,2) 2(m-2)(2m-5) p^3 (1-p)] / n^4."""
    n = model.n
    m = int(n * as_time(t))
    if m < 3:
        return Fraction(0)
    p = Fraction(model.p)
    per_star = 3 * _binom3(m) * p**2 * (1 - p**2)
    shared = _binom2(m) * 2 * (m - 2) * (2 * m - 5) * p**3 * (1 - p)
    return (per_star + shared) / Fraction(n**4)


# ---------------------------------------------------------------------------
# sampling the graph process


def _expected_cuts(model: GraphModel) -> tuple[np.ndarray, np.ndarray]:
    """Float E T, E V at every grid cut k = 0..n."""
    n, p = model.n, model.p
    ks = np.arange(n + 1)
    b2 = ks * (ks - 1) / 2.0
    b3 = np.where(ks >= 3, ks * (ks - 1) * (ks - 2) / 6.0, 0.0)
    return (ks - 2) * b2 * p / n**2, 3.0 * b3 * p**2 / n**2


@dataclass
class GraphRealization:
    """Edge indicators plus the centered (edge, two-star) grid values; with
    a leading trial axis on both arrays it holds a stack of realizations."""

    model: GraphModel
    edges: np.ndarray  # (..., n, n) symmetric 0/1, zero diagonal
    values: np.ndarray  # (..., n+1, 2): Y_n(k/n) for k = 0..n

    @property
    def n(self) -> int:
        return self.model.n


def _prefix_degrees(edges: np.ndarray) -> np.ndarray:
    """(..., n, n+1) table: entry [v, m] counts v's neighbours among vertices
    < m."""
    out = np.zeros(edges.shape[:-1] + (edges.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(edges, axis=-1, out=out[..., 1:])
    return out


def _tv_cut_values(model: GraphModel, edges: np.ndarray) -> np.ndarray:
    """(..., n+1, 2) raw (T, V) values at grid cuts from adjacency matrices;
    at cut m each vertex v < m centres C(deg[v, m], 2) two-stars."""
    n = model.n
    deg = _prefix_degrees(edges)
    deg *= np.arange(n)[:, None] < np.arange(n + 1)  # keep vertices v < m
    s = deg.sum(axis=-2) // 2
    w = (deg * (deg - 1)).sum(axis=-2) // 2
    return np.stack([(np.arange(n + 1) - 2) * s / n**2, w / n**2], axis=-1)


def _path_from_edges(model: GraphModel, edges: np.ndarray) -> np.ndarray:
    """(..., n+1, 2) centered (T, V) values at the grid rows k = 0..n."""
    return _tv_cut_values(model, edges) - np.stack(_expected_cuts(model), axis=1)


def sample_trials(model: GraphModel, rngs: Iterable[np.random.Generator]) -> GraphRealization:
    """One graph per generator, stacked on a leading trial axis; each graph
    takes the draws ``sample_graph(model, rng)`` takes from its generator,
    and its values equal that call's bit for bit."""
    n = model.n
    upper = np.stack([rng.random((n, n)) < model.p for rng in rngs])
    edges = np.triu(upper, 1)
    edges = (edges | edges.swapaxes(-1, -2)).astype(int)
    return GraphRealization(model, edges, _path_from_edges(model, edges))


def sample_graph(model: GraphModel, rng: np.random.Generator) -> GraphRealization:
    real = sample_trials(model, [rng])
    return GraphRealization(model, real.edges[0], real.values[0])


def resample_edge(
    real: GraphRealization, i: int, j: int, new_value: int
) -> GraphRealization:
    """Replace indicator of edge (i, j) (1-based) by new_value."""
    edges = real.edges.copy()
    edges[i - 1, j - 1] = edges[j - 1, i - 1] = int(new_value)
    return GraphRealization(real.model, edges, _path_from_edges(real.model, edges))


def sample_pair(model: GraphModel, rng: np.random.Generator):
    """Exchangeable pair: resample one uniformly chosen edge."""
    real = sample_graph(model, rng)
    i, j = sorted(rng.permutation(model.n)[:2] + 1)
    new = int(rng.random() < model.p)
    return real, resample_edge(real, i, j, new), (i, j, new)


def lambda_matrix(model: GraphModel) -> np.ndarray:
    n, p = model.n, model.p
    return n * (n - 1) / 8.0 * np.array([[2.0, 2.0 * p], [0.0, 1.0]])


def apply_lambda_values(model: GraphModel, values: np.ndarray) -> np.ndarray:
    """Row-vector action v -> v Lambda_n on (..., 2) arrays."""
    return np.asarray(values) @ lambda_matrix(model)


def regression_residuals(real: GraphRealization, funcs: Sequence[CylinderFunctional]) -> np.ndarray:
    """(len(funcs), ...) residuals |Df(Y)[Y] - 2 E^Y Df(Y)[(Y-Y') Lambda_n]|
    of a realization or a stack of them, one row per functional.

    The conditional expectation is enumerated exactly over the C(n,2)
    edges and the two resample outcomes weighted (1-p, p), which sum the
    jump I_ij - new to I_ij - p; edge (i, j), i < j, moves (T, V)(t_a) by
    that jump times (m_a - 2, D_i + D_j - 2 I_ij)/n^2 once j <= m_a (D:
    prefix degrees, built once at every row some functional reads)."""
    model, n = real.model, real.n
    lead = real.values.shape[:-2]
    lam = lambda_matrix(model)
    i, j = np.triu_indices(n, 1)
    iij = real.edges[..., i, j]  # (..., pairs)
    # sorted as a set: np.unique imports numpy.ma (about 16 ms) on first use
    read = np.array(sorted({k for f in funcs for k in f.rows(n).tolist()}), dtype=np.intp)
    table = _prefix_degrees(real.edges)[..., read]  # (..., n, rows read)

    # one call per functional, so its (..., pairs, cuts) arrays are freed
    # before the next functional's are built
    def residual(f: CylinderFunctional) -> np.ndarray:
        cuts = f.rows(n)
        x = real.values[..., cuts, :].reshape(lead + (-1,))
        grads = f.grad_stacked(x)
        # Df(Y)[v Lambda_n] = v . (Lambda_n g_a) at each cut a
        g_lam = grads.reshape(lead + (f.k, 2)) @ lam.T
        deg = table[..., np.searchsorted(read, cuts)]  # (..., n, k)
        nbr = deg[..., i, :] - 2 * iij[..., None]  # (..., pairs, k)
        nbr += deg[..., j, :]
        moves = nbr * g_lam[..., None, :, 1]
        del nbr  # at most two (..., pairs, k) arrays are live at once
        moves += (cuts - 2) * g_lam[..., None, :, 0]
        moves *= j[:, None] + 1 <= cuts  # vertex j joins by cut a
        # fancy indexing leaves the pair axis strided in a stack; made
        # contiguous, each trial's terms are summed pairwise, as for one trial
        total = np.ascontiguousarray((iij - model.p) * moves.sum(axis=-1)).sum(axis=-1)
        total /= n**2 * _binom2(n)
        return np.abs(np.einsum("...a,...a->...", grads, x) - 2.0 * total)

    out = np.empty((len(funcs),) + lead)
    for row, f in enumerate(funcs):
        out[row] = residual(f)
    return out


def regression_residual(real: GraphRealization, f: CylinderFunctional) -> float:
    """The residual of ``regression_residuals`` for one realization and one
    functional."""
    return float(regression_residuals(real, [f])[0])


# ---------------------------------------------------------------------------
# pre-limit covariance closed forms


def _mm(n: int, t, u) -> tuple[int, int, int, int]:
    mt = int(n * as_time(t))
    mu = int(n * as_time(u))
    return mt, mu, min(mt, mu), max(mt, mu)


def cov_d1d1(n: int, p: float, t, u) -> float:
    mt, mu, m, _ = _mm(n, t, u)
    return (mt - 2) * (mu - 2) * m * (m - 1) * p * (1 - p) / (2.0 * n**4)


def cov_d1d2(n: int, p: float, t, u) -> float:
    mt, mu, m, _ = _mm(n, t, u)
    return (mt - 2) * (mu - 2) * m * (m - 1) * p**2 * (1 - p) / float(n**4)


def cov_d2d2(n: int, p: float, t, u) -> float:
    """The D2 block of the Brownian representation (the combined
    closed form); matches the sampler's law exactly."""
    mt, mu, m, _ = _mm(n, t, u)
    ab = (mt - 2) * (mu - 2)
    mm1 = m * (m - 1)
    return (
        2.0 * p**3 * (1 - p) * ab * mm1 / n**4
        + ab * mm1 / float(n**5)
        + p**2 * (1 - p) ** 2 * m * mm1 / (2.0 * n**4)
        + 2.0 * p**3 * (1 - p) * mm1 / n**4
    )


def cov_d2d2_table(n: int, p: float, t, u) -> float:
    """The D2 block assembled from the Gaussian-family covariance table
    (pair resolution of the Z^(2,1)/Z^(2,2) sums): four-term display."""
    mt, mu, m, mx = _mm(n, t, u)
    ab = (mt - 2) * (mu - 2)
    mm1 = m * (m - 1)
    mm2 = max(m - 2, 0)
    return (
        ab * mm1 / float(n**5)
        + ab * mm1 * p**3 * (1 - p) / n**4
        + mm1 * mm2 * p**2 * (1 - p**2) / (2.0 * n**4)
        + mm1 * mm2 * (mx - 3) * p**3 * (1 - p) / n**4
    )


def d2_block_discrepancy(n: int, p: float, t, u) -> float:
    """Analytic gap cov_d2d2 - cov_d2d2_table = (1+p) m(m-1) p^2(1-p)/n^4
    (plus nothing else); kept as a visible diagnostic."""
    _, _, m, _ = _mm(n, t, u)
    return (1 + p) * m * (m - 1) * p**2 * (1 - p) / n**4


def z_coefficients(p: float) -> tuple[float, float, float, float]:
    """(alpha1, alpha2, beta1, beta2): loadings of Z1 and Z2 on B1, B2."""
    a1 = math.sqrt(p * (1 - p)) / math.sqrt(2 + 8 * p**2)
    a2 = p * math.sqrt(2 * p * (1 - p)) / math.sqrt(1 + 4 * p**2)
    b1 = a2
    b2 = 2 * p**2 * math.sqrt(2 * p * (1 - p)) / math.sqrt(1 + 4 * p**2)
    return a1, a2, b1, b2


def brownian_side_cov(n: int, p: float, t, u) -> np.ndarray:
    """2x2 grid covariance computed from the five-motion construction
    coefficient by coefficient (independent of the closed forms above)."""
    mt, mu, m, _ = _mm(n, t, u)
    a1, a2, b1, b2 = z_coefficients(p)
    at, au = (mt - 2) / n**2, (mu - 2) / n**2
    tau = m * (m - 1)  # min of the B1/B2/B3/B5 clocks
    nu = m * m * (m - 1)  # min of the B4 clock
    c11 = at * au * (a1 * a1 + a2 * a2) * tau
    c12 = at * au * (a1 * b1 + a2 * b2) * tau
    c22 = (
        at * au * (b1 * b1 + b2 * b2) * tau
        + at * au * tau / n
        + (p * (1 - p)) ** 2 / (2.0 * n**4) * nu
        + 2 * p**3 * (1 - p) / n**4 * tau
    )
    return np.array([[c11, c12], [c12, c22]])


@dataclass(frozen=True)
class PrelimitCovariance:
    """Closed-form grid covariance evaluators for D_n = (D1, D2)."""

    model: GraphModel

    def block(self, t, u) -> np.ndarray:
        n, p = self.model.n, self.model.p
        return np.array(
            [
                [cov_d1d1(n, p, t, u), cov_d1d2(n, p, t, u)],
                [cov_d1d2(n, p, u, t), cov_d2d2(n, p, t, u)],
            ]
        )

    def grid(self, times: Sequence) -> np.ndarray:
        """(2L, 2L) covariance of (D1(t_1), D2(t_1), ..., D2(t_L))."""
        ts = [as_time(t) for t in times]
        L = len(ts)
        out = np.zeros((2 * L, 2 * L))
        for i, t in enumerate(ts):
            for j, u in enumerate(ts):
                out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = self.block(t, u)
        return out


def prelimit_cov(model: GraphModel) -> PrelimitCovariance:
    return PrelimitCovariance(model)


# ---------------------------------------------------------------------------
# samplers


def _bm(rng: np.random.Generator, size: int, times: np.ndarray) -> np.ndarray:
    """(size, len(times)) Brownian motion at the increasing times."""
    d = np.diff(np.concatenate([[0.0], times]))
    steps = rng.standard_normal((size, times.size))
    steps *= np.sqrt(d)
    return np.cumsum(steps, axis=1, out=steps)


def _bytes(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count,) uint8 draws equal to ``np.frombuffer(rng.bytes(count),
    np.uint8)``: rng.bytes serializes these uint32 words little-endian and
    cuts them to count, with three copies this view does not make."""
    words = rng.integers(0, 2**32, -(-count // 4), dtype=np.uint32)
    return words.astype("<u4", copy=False).view(np.uint8)[:count]


def bernoulli(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """Boolean array of iid Bernoulli(p) draws, one byte per indicator.

    With q = 256p and j = floor(q), a byte u gives 1 if u < j and 0 if
    u > j; only the 1/256 ties u == j draw a uniform, which gives 1 with
    probability q - j.  The law is Bernoulli(p) to the 2^-53 resolution of
    that uniform, as for ``rng.random() < p``.  The bytes are drawn first
    and the tie uniforms after them, in index order.
    """
    u = _bytes(rng, math.prod(shape)).reshape(shape)
    q = 256.0 * p
    j = math.floor(q)
    out = u < j
    if q > j:
        ties = np.flatnonzero(u == j)
        out.reshape(-1)[ties] = rng.random(ties.size) < q - j
    return out


def sample_y_values(
    model: GraphModel, rng: np.random.Generator, size: int, cuts=None
) -> np.ndarray:
    """(size, len(cuts), 2) centered values of Y_n at t = k/n for k in cuts
    (default: every k = 0..n).

    Vertex k joins with a (k, size) block of indicators from ``bernoulli``,
    added to the degrees of vertices < k; its own degree is the block's
    column sum.  Degrees are held vertex-major, (vertex, sample), in the
    smallest integer dtype that holds n - 1.  The edge and two-star counts
    are formed only at the distinct rows r read, as sum(d) / 2 and
    (sum(d^2) - sum(d)) / 2 over the first r degrees, both exact.  A sample
    costs m(m-1)/2 random bytes for m = max(cuts) plus O(r) per row read,
    and its rows equal the full call's rows at the same seed.
    """
    n, p = model.n, model.p
    rows, m = grid_rows(n, cuts)
    reads, pos = np.unique(rows, return_inverse=True)
    dt = np.min_scalar_type(n - 1)
    deg = np.zeros((m, size), dtype=dt)
    et, ev = _expected_cuts(model)
    out = np.empty((size, reads.size, 2))
    joined = 1  # vertices 0..joined-1 are in the graph
    for i, r in enumerate(reads):
        for k in range(joined, r):
            block = bernoulli(rng, p, (k, size)).view(np.uint8)
            deg[:k] += block
            np.add.reduce(block, axis=0, dtype=dt, out=deg[k])
        joined = max(joined, r)
        d = deg[:r]
        s = np.add.reduce(d, axis=0, dtype=np.int64)
        q = np.einsum("vs,vs->s", d, d, dtype=np.int64)
        out[:, i, 0] = (r - 2) * (s // 2) / n**2 - et[r]
        out[:, i, 1] = (q - s) // 2 / n**2 - ev[r]
    return out if cuts is None else out[:, pos]


def sample_dn_values(
    model: GraphModel, rng: np.random.Generator, size: int, cuts=None
) -> np.ndarray:
    """(size, len(cuts), 2) values of the pre-limit D_n at t = k/n for k
    in cuts (default: every k = 0..n), via five independent Brownian
    motions on the clocks k(k-1) and k^2(k-1).

    Each motion is drawn only at the clocks of the sorted, distinct rows
    k >= 1 in cuts, from independent increments between consecutive
    clocks (row 0 sits at clock 0 and takes no draw), so a call costs 5
    normals per sample per distinct row.  The law at the rows is exact,
    but a cut call's values are not the full call's rows at the same seed.
    With every row 1..n present (``cuts=None`` or ``range(n+1)``) the
    increments are the unit steps of the clocks and the values are those
    of the full-grid draw.
    """
    n, p = model.n, model.p
    rows, _ = grid_rows(n, cuts)
    ks, pos = np.unique(rows, return_inverse=True)
    drawn = ks[ks > 0]
    a1, a2, b1, b2 = z_coefficients(p)
    tau = (drawn * (drawn - 1)).astype(float)
    nu = drawn * tau
    pad = np.zeros((size, ks.size - drawn.size))
    w1, w2, w3, w4, w5 = (
        np.concatenate([pad, _bm(rng, size, clock)], axis=1)
        for clock in (tau, tau, tau, nu, tau)
    )
    shift = (ks - 2.0) / n**2
    out = np.empty((size, ks.size, 2))
    out[:, :, 0] = shift * (a1 * w1 + a2 * w2)
    out[:, :, 1] = (
        shift * (b1 * w1 + b2 * w2)
        + shift / math.sqrt(n) * w3
        + p * (1 - p) / (math.sqrt(2.0) * n**2) * w4
        + math.sqrt(2 * p**3 * (1 - p)) / n**2 * w5
    )
    return out if cuts is None else out[:, pos]


class DirectGaussianOracle:
    """Small-n sampler of the pre-limit from the covariance table itself.

    Enumerates the Gaussian family (pair variables for the edge and
    mixed parts, triple variables for the two-star part), assembles the
    grid covariance entry by entry from the covariance table (unlisted pairs
    uncorrelated), and samples through a symmetric PSD square root.
    """

    MAX_N = 6

    def __init__(self, model: GraphModel):
        if model.n > self.MAX_N:
            raise GraphModelError(
                "direct oracle enumerates n^3 variables; use n <= %d" % self.MAX_N
            )
        self.model = model
        n, p = model.n, model.p
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        triples = [
            (i, j, k)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
            if i != j and j != k and i != k
        ]
        self.pairs, self.triples = pairs, triples
        n_z1 = n_z21 = len(pairs)
        n_z22 = len(triples)
        dim = n_z1 + n_z21 + n_z22
        cov = np.zeros((dim, dim))
        c_z1 = p * (1 - p) / (2.0 * n**4)
        c_z1_z21 = p**2 * (1 - p) / (4.0 * n**4)
        c_z22_z1 = 3.0 * p**2 * (1 - p) / (4.0 * n**4)
        c_z22_z21 = p**3 * (1 - p) / (2.0 * n**4)
        c_z22_diag = p**2 * (1 - p**2) / (2.0 * n**4)
        c_z22_share = p**3 * (1 - p) / n**4
        c_z21 = 1.0 / n**5
        pa = {pr: idx for idx, pr in enumerate(pairs)}
        for idx, pr in enumerate(pairs):
            cov[idx, idx] = c_z1
            cov[idx, n_z1 + idx] = cov[n_z1 + idx, idx] = c_z1_z21
            cov[n_z1 + idx, n_z1 + idx] = c_z21
        for tdx, (i, j, k) in enumerate(triples):
            row = n_z1 + n_z21 + tdx
            pdx = pa[(i, j)]
            cov[row, pdx] = cov[pdx, row] = c_z22_z1
            cov[row, n_z1 + pdx] = cov[n_z1 + pdx, row] = c_z22_z21
            for sdx, (r, s, t_) in enumerate(triples):
                if (r, s) != (i, j):
                    continue
                col = n_z1 + n_z21 + sdx
                cov[row, col] = c_z22_diag if k == t_ else c_z22_share
        self._family_cov = cov
        # linear map from the family to the grid variables (D1(k), D2(k))
        rows = []
        for k in range(n + 1):
            wt = np.zeros(dim)
            for idx, (i, j) in enumerate(pairs):
                if i <= k and j <= k:
                    wt[idx] = k - 2
            rows.append(wt)
            wv = np.zeros(dim)
            for idx, (i, j) in enumerate(pairs):
                if i <= k and j <= k:
                    wv[n_z1 + idx] = k - 2
            for tdx, (i, j, k_) in enumerate(triples):
                if i <= k and j <= k and k_ <= k:
                    wv[n_z1 + n_z21 + tdx] = 1.0
            rows.append(wv)
        self._map = np.array(rows)  # (2(n+1), dim)
        self.grid_cov = self._map @ cov @ self._map.T
        evals, evecs = np.linalg.eigh(self.grid_cov)
        if evals.min() < -1e-10:
            raise GraphModelError("table covariance not PSD: %g" % evals.min())
        self._sqrt = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None)))

    def sample_values(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n+1, 2) grid values with the table-exact law."""
        z = rng.standard_normal((size, self._sqrt.shape[1]))
        flat = z @ self._sqrt.T
        return flat.reshape(size, self.model.n + 1, 2)


# ---------------------------------------------------------------------------
# continuous limit and the coupling


def sample_z_values(p: float, grid: Sequence, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, L, 2) of the continuous limit Z at the grid times, from two
    shared Brownian motions through t B(t^2)."""
    ts = np.array([float(as_time(t)) for t in grid])
    if np.any(np.diff(ts) <= 0):
        raise GraphModelError("grid must be strictly increasing")
    a1, a2, b1, b2 = z_coefficients(p)
    w1, w2 = _bm(rng, size, ts**2), _bm(rng, size, ts**2)
    out = np.empty((size, ts.size, 2))
    out[:, :, 0] = ts * (a1 * w1 + a2 * w2)
    out[:, :, 1] = ts * (b1 * w1 + b2 * w2)
    return out


def _coupled_sampler(model: GraphModel, refine: int):
    """Build the merged clock, its index maps and the step scales once;
    returns (draw, grid), where draw(rng, size) draws the five motions of
    `size` coupled samples and returns the planes (zn1, zn2, z1, z2) of
    Z_n on the step grid and of Z on `grid`."""
    n, p = model.n, model.p
    a1, a2, b1, b2 = z_coefficients(p)
    ks = np.arange(n + 1)
    js = np.arange(1, refine * n + 1)
    tau = ks * (ks - 1)
    # the shared times k(k-1)/n^2 and (j/(refine n))^2 are integers over
    # (refine n)^2, and each integer quotient is the correctly rounded time
    merged, idx = np.unique(np.concatenate([tau * refine**2, js * js]), return_inverse=True)
    tau_idx, sq_idx = idx[: n + 1], idx[n + 1 :]
    grid = js / float(refine * n)
    shared = merged / float((refine * n) ** 2)
    tau_t, nu_t = tau[1:] / float(n * n), (ks * tau)[1:] / float(n**3)
    shift = (ks - 2.0) / n
    scale3, scale4 = shift / math.sqrt(n), p * (1 - p) / math.sqrt(2.0 * n)
    scale5 = math.sqrt(2 * p**3 * (1 - p)) / n

    def draw(rng: np.random.Generator, size: int):
        w1, w2 = _bm(rng, size, shared), _bm(rng, size, shared)
        pad = np.zeros((size, 1))
        w3, w4, w5 = (
            np.concatenate([pad, _bm(rng, size, times)], axis=1) for times in (tau_t, nu_t, tau_t)
        )
        # A = a1 W1 + a2 W2 and B = b1 W1 + b2 W2, each once on the merged clock
        a = a1 * w1
        a += a2 * w2
        b = np.multiply(w1, b1, out=w1)
        b += b2 * w2
        zn2 = shift * b[:, tau_idx]
        # Z_n2's four terms, summed left to right
        zn2 += scale3 * w3
        zn2 += scale4 * w4
        zn2 += scale5 * w5
        return shift * a[:, tau_idx], zn2, grid * a[:, sq_idx], grid * b[:, sq_idx]

    return draw, grid


def sample_coupled_values(
    model: GraphModel, rng: np.random.Generator, size: int, refine: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample (Z_n, Z) from shared B1, B2 on the merged clock.

    Returns (zn, z, grid_floats): zn has shape (size, n+1, 2) on the step
    grid k/n; z has shape (size, L, 2) on the refined grid j/(refine*n),
    j = 1..refine*n.  The step process is rewritten through the scaled
    motions B(k(k-1)) = n Btilde(k(k-1)/n^2) so that both processes read
    the same Btilde1, Btilde2.
    """
    draw, grid = _coupled_sampler(model, refine)
    zn1, zn2, z1, z2 = draw(rng, size)
    return np.stack([zn1, zn2], axis=2), np.stack([z1, z2], axis=2), grid


def _discretization_bias_bound(model: GraphModel, refine: int) -> float:
    """Crude upper bound for the sup-norm bias of evaluating Z on the
    refined grid: coefficient mass times an expected-maximal-increment
    bound over the refine*n cells (clock gap <= 2/(refine*n))."""
    n, p = model.n, model.p
    a1, a2, b1, b2 = z_coefficients(p)
    coef = math.hypot(a1 + a2, b1 + b2)
    cells = refine * n
    gap = 2.0 / cells
    max_inc = math.sqrt(2.0 * gap * math.log(2.0 * cells)) + math.sqrt(gap)
    drift = 2.0 / cells  # |t - g| sup|B| contribution, E sup|B(t^2)| <= 2
    return coef * (max_inc + drift * 2.0)


def coupling_bounds(n: int) -> dict:
    """Closed-form moment bounds for the coupled pair (natural log)."""
    return {
        "sup_distance": 12.0 / math.sqrt(n) + 51.0 * math.sqrt(math.log(n) / n),
        "sup_distance_sq": 121.0 / n + 743.0 * math.log(n) / n,
        "sup_z_sq": 5.0,
    }


def coupling_distance(
    model: GraphModel,
    samples: int,
    seed: SeedSpec,
    refine: int = 8,
    workers: int = 1,
) -> dict:
    """Monte Carlo moments of the coupled (Z_n, Z) pair with pass flags
    against the closed-form bounds.

    Each engine chunk draws its motions as ``sample_coupled_values`` does
    and reduces their planes straight to six per-sample statistics.  The
    chunk size depends on (n, refine) only: a chunk's whole working set,
    its five motions and its statistic planes, fits in an eighth of
    ``MEMORY_BUDGET``, so memory is bounded at any n and sample count.
    """
    n = model.n
    draw, _ = _coupled_sampler(model, refine)
    cut = np.arange(1, refine * n + 1) // refine  # floor(n * j/(refine n))
    # per sample: W1, W2, A and B on the merged clock of (refine+1) n times
    # (k(k-1) is no square for k >= 2), three step motions and two Z_n planes
    # of n+1 values, and two Z planes and two difference planes of refine n
    floats = 4 * (refine + 1) * n + 5 * (n + 1) + 4 * refine * n
    chunk = max(1, MEMORY_BUDGET // 8 // (8 * floats))

    def stats(rng, size):
        zn1, zn2, z1, z2 = draw(rng, size)
        d1, d2 = zn1[:, cut] - z1, zn2[:, cut] - z2
        # x0^2 + x1^2 is the sum np.linalg.norm takes, and a correctly
        # rounded sqrt is monotone, so sqrt(max) is the max of the norms
        gap = np.sqrt((d1 * d1 + d2 * d2).max(axis=1))
        sup_z2 = np.sqrt((z1 * z1 + z2 * z2).max(axis=1)) ** 2
        x, y = zn1[:, -1], z1[:, -1]  # correlation ingredients at t = 1
        # column-major: each statistic is then summed pairwise as one
        # contiguous run, exactly as from_values sums a 1-D array
        return np.array([gap, gap**2, sup_z2, x * y, x**2, y**2]).T

    gap, gap2, supz2, prod, zn2, z2 = mc_run_vector(
        stats, samples, seed, workers=workers, chunk=chunk
    )
    bounds = coupling_bounds(n)
    corr = prod.mean / math.sqrt(max(zn2.mean * z2.mean, 1e-300))
    report = {
        "n": n,
        "p": model.p,
        "samples": samples,
        "refine": refine,
        "chunk": chunk,
        "discretization_bias_bound": _discretization_bias_bound(model, refine),
        "corr_at_one": corr,
        "estimates": {
            "sup_distance": gap,
            "sup_distance_sq": gap2,
            "sup_z_sq": supz2,
        },
        "bounds": bounds,
        "passes": {
            key: acc_est.mean <= bounds[key]
            for key, acc_est in zip(
                ("sup_distance", "sup_distance_sq", "sup_z_sq"), (gap, gap2, supz2)
            )
        },
    }
    return report


# ---------------------------------------------------------------------------
# epsilon_1 statistic and distance bounds


def pair_norm_stats(model: GraphModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draws of ||(Y-Y') Lambda_n|| ||Y-Y'||^2.

    Y-Y' is supported on the two coordinates touched by the resampled edge
    {I, J}: dT(k) = delta (k-2)/n^2 and dV(k) = delta (prefix count of the
    neighbours of I and J)/n^2 for k >= max(I, J) >= 2, and 0 before.  Both
    are delta times nonnegative sequences nondecreasing in k, and so are
    their images under the nonnegative upper-triangular Lambda_n, so both
    sups sit at k = n, where (dT, dV) = delta (a, b) with a = (n-2)/n^2 and
    b = (neighbour total)/n^2.
    """
    n, p = model.n, model.p
    lam = lambda_matrix(model)
    i = rng.integers(0, n, size)
    j = rng.integers(0, n - 1, size)
    j += j >= i  # (i, j) uniform over ordered pairs of distinct vertices
    old, new = bernoulli(rng, p, (2, size))
    flip = old != new  # |delta|, which is 0 or 1
    edges = bernoulli(rng, p, (2, size, n))
    rows = np.arange(size)
    total = edges.sum(axis=(0, 2), dtype=np.int64)
    for e in edges:  # the pair's own slots are not neighbours
        total -= e[rows, i]
        total -= e[rows, j]
    ab = np.stack([np.full(size, (n - 2) / n**2), total / n**2], axis=1)
    return flip * np.linalg.norm(ab @ lam, axis=1) * np.linalg.norm(ab, axis=1) ** 2


def bound_prelimit(n: int, gnorm_m2: float) -> float:
    """Distance bound to the pre-limit: 12 |g| / n."""
    if n < 3:
        raise GraphModelError("need n >= 3")
    return 12.0 * gnorm_m2 / n


def bound_continuous(n: int, gnorm_m2: float) -> float:
    """Distance bound to the continuous limit:
    |g| (913 sqrt(ln n) + 112) / sqrt(n), natural logarithm."""
    if n < 3:
        raise GraphModelError("need n >= 3")
    return gnorm_m2 * (913.0 * math.sqrt(math.log(n)) + 112.0) / math.sqrt(n)
