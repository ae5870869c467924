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
covariance table (``cov_d2d2_table``, and the direct small-n oracle in
tests/oracles.py); the two D2 forms differ by exactly (1+p) m(m-1) p^2(1-p)/n^4, which is kept
visible as a diagnostic rather than hidden in either evaluator.

The continuous limit Z = (Z1, Z2) uses the same B1, B2 through
t B(t^2); coupling Z_n to Z shares those two motions on a merged clock.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .functionals import CylinderFunctional
from .mc import MEMORY_BUDGET, SeedSpec, mc_run_vector
from .paths import as_time, grid_rows, time_rows

__all__ = [
    "KIND",
    "DIM",
    "GraphModelError",
    "GraphModel",
    "cov_tv",
    "cov_tv_exact",
    "var_v_exact",
    "GraphRealization",
    "sample_trials",
    "lambda_matrix",
    "pair_moves",
    "regression_residual",
    "row_cov",
    "cov_d1d1",
    "cov_d1d2",
    "cov_d2d2",
    "cov_d2d2_table",
    "brownian_side_cov",
    "d2_block_discrepancy",
    "prelimit_cov",
    "TOL_IDENTITIES",
    "covariance_identities",
    "increment_cov_check",
    "bernoulli",
    "sample_y_values",
    "sample_dn_values",
    "z_coefficients",
    "REFINE",
    "sample_coupled_values",
    "coupling_distance",
    "pair_norm_stats",
    "eps3_values",
    "bound_prelimit",
    "bound_continuous",
    "bound_table",
    "coupling_bounds",
]

KIND, DIM = "graph", 2  # report kind, path dimension
# the covariance_identities checks that compare at verify-covariance's --tol
TOL_IDENTITIES = ("edge_block_identity", "cross_block_identity", "twostar_block_identity",
                  "twostar_variance_identity")


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
        """Model of a model file's graph object, which holds no field
        beyond type, n and p."""
        unread = sorted(set(d) - {"type", "n", "p"})
        if unread:
            raise GraphModelError("a graph model takes no field %s" % ", ".join(map(repr, unread)))
        return cls(int(d["n"]), float(d["p"]))


def _binom2(m: int) -> int:
    return m * (m - 1) // 2


def _binom3(m: int) -> int:
    return m * (m - 1) * (m - 2) // 6 if m >= 3 else 0


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
    """Edge indicators, their prefix degrees and the centered (edge, two-star)
    grid values; with a leading trial axis on each array it holds a stack."""

    model: GraphModel
    edges: np.ndarray  # (..., n, n) symmetric 0/1, zero diagonal
    degrees: np.ndarray  # (..., n, n+1): _prefix_degrees(edges)
    values: np.ndarray  # (..., n+1, 2): Y_n(k/n) for k = 0..n

    @property
    def n(self) -> int:
        return self.model.n


def _prefix_degrees(edges: np.ndarray) -> np.ndarray:
    """(..., n, n+1) table of adjacency matrices: entry [v, m] counts v's
    neighbours among vertices < m if v < m, and is 0 once v >= m."""
    out = np.zeros(edges.shape[:-1] + (edges.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(edges, axis=-1, out=out[..., 1:])
    return np.triu(out, 1)  # keeps the vertices v < m


def _path_from_degrees(model: GraphModel, deg: np.ndarray) -> np.ndarray:
    """(..., n+1, 2) centered (T, V) values at the grid rows k = 0..n from
    prefix-degree tables; at cut m each vertex v < m centres C(deg[v, m], 2)
    two-stars."""
    n = model.n
    s = deg.sum(axis=-2)
    # sum d(d-1) = sum d^2 - sum d, exact in integers and with no table-sized temporary
    w = (np.einsum("...vm,...vm->...m", deg, deg) - s) // 2
    raw = np.stack([(np.arange(n + 1) - 2) * (s // 2) / n**2, w / n**2], axis=-1)
    return raw - np.stack(_expected_cuts(model), axis=1)


def sample_trials(model: GraphModel, rng: np.random.Generator, count: int) -> GraphRealization:
    """count graphs stacked on a leading trial axis, from one (count, n, n)
    uniform draw: graph t reads the t-th n x n block of uniforms, so the
    stack is count one-graph calls on the same generator bit for bit."""
    n = model.n
    upper = rng.random((count, n, n)) < model.p
    edges = np.triu(upper, 1)
    edges = (edges | edges.swapaxes(-1, -2)).astype(int)
    deg = _prefix_degrees(edges)
    return GraphRealization(model, edges, deg, _path_from_degrees(model, deg))


def lambda_matrix(model: GraphModel) -> np.ndarray:
    n, p = model.n, model.p
    return n * (n - 1) / 8.0 * np.array([[2.0, 2.0 * p], [0.0, 1.0]])


@functools.lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), built once per n; read-only, as callers share it."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def pair_moves(real: GraphRealization, rows, h) -> tuple[np.ndarray, np.ndarray]:
    """Every exchangeable pair (Y, Y') of a realization or a stack of them:
    the (..., pairs) values sum_a h[..., a, :] . (Y - Y')(rows[a]/n), and
    each pair's probability given Y.

    Y' resamples a uniformly chosen edge from Bernoulli(p); keeping the
    edge moves nothing, so the pairs are the C(n,2) flips of edge (i, j),
    i < j, in np.triu_indices order, with probability (1-p)/C(n,2) for a
    present edge and p/C(n,2) for an absent one.  A flip moves (T, V)(k/n)
    by delta (k - 2, D_i + D_j - 2 I_ij)/n^2 once j < k (0-based), with
    delta = I_ij - I'_ij and D the prefix degrees at row k.  The covectors
    h, (..., len(rows), 2), broadcast against the realization's leading
    axes: unit covectors on an extra leading axis give the moves."""
    model, n = real.model, real.n
    rows, h = np.asarray(rows), np.asarray(h)
    i, j = _upper_pairs(n)
    iij = np.ascontiguousarray(real.edges[..., i, j])  # (..., pairs)
    deg = real.degrees[..., rows]  # (..., n, k)
    nbr = deg[..., i, :]  # (..., pairs, k)
    nbr += deg[..., j, :]
    nbr -= 2 * iij[..., None]
    moves = nbr * h[..., None, :, 1]
    del nbr  # at most two (..., pairs, k) arrays are live at once
    moves += (rows - 2) * h[..., None, :, 0]
    moves *= j[:, None] + 1 <= rows  # vertex j joins by row k
    # made contiguous, a stack sums each trial's pairs pairwise, as one trial does
    out = np.ascontiguousarray(moves.sum(axis=-1))
    del moves  # freed before the sign's temporary is made
    out *= 2 * iij - 1
    out /= n**2
    return out, np.where(iij == 1, 1.0 - model.p, model.p) / _binom2(n)


def regression_residual(real: GraphRealization, funcs: Sequence[CylinderFunctional]) -> np.ndarray:
    """(len(funcs), ...) residuals |Df(Y)[Y] - 2 E^Y Df(Y)[(Y-Y') Lambda_n]|
    of a realization or a stack of them, one row per functional.

    Df(Y)[v Lambda_n] = sum_a v(t_a) . (Lambda_n g_a) over f's cuts a, so
    the conditional expectation is the sum of ``pair_moves`` with the
    covectors Lambda_n g_a, weighted by the pairs' probabilities: exact
    given the realization, so the residual is roundoff only."""
    n, lead, lam = real.n, real.values.shape[:-2], lambda_matrix(real.model)

    # one call per functional, so its (..., pairs) arrays are freed before
    # the next functional's are built
    def residual(f: CylinderFunctional) -> np.ndarray:
        cuts = f.rows(n)
        x = real.values[..., cuts, :].reshape(lead + (-1,))
        grads = f.grad_stacked(x)
        moves, prob = pair_moves(real, cuts, grads.reshape(lead + (f.k, 2)) @ lam.T)
        moves *= prob
        return np.abs(np.einsum("...a,...a->...", grads, x) - 2.0 * moves.sum(axis=-1))

    return np.array([residual(f) for f in funcs]).reshape((len(funcs),) + lead)


# ---------------------------------------------------------------------------
# pre-limit covariance closed forms


# x**k element by element as Python raises a scalar: an int exactly, then
# rounded once to float, and a float by the C library's pow, which numpy's
# vector power (x*x at k = 2) does not match to the last bit for every x
_pow = np.vectorize(pow, otypes=[float])


def row_cov(n, p, mt, mu, d2: str = "brownian") -> np.ndarray:
    """(..., 2, 2) closed-form blocks [[D1D1, D1D2], [D2D1, D2D2]] of
    Cov(D_n(t), D_n(u)) at the rows mt = floor(n t) and mu = floor(n u),
    for broadcastable arrays of n, p, mt and mu.  d2 picks the D2D2 form:
    "brownian", the sampler's law; "table", the four-term display from the
    Gaussian-family covariance table; or "gap", their analytic difference.

    Values are float64 in the operation order of the forms on Python ints.
    An integer product is exact below 2^53 (an int64 one would overflow
    from n near 55,000); + 0.0 gives its zero a Python int's sign."""
    mt, mu = np.asarray(mt, dtype=float), np.asarray(mu, dtype=float)
    n4, n5, p2, p3, q = _pow(n, 4), _pow(n, 5), _pow(p, 2), _pow(p, 3), 1 - p
    m, mx = np.minimum(mt, mu), np.maximum(mt, mu)
    ab, mm1 = (mt - 2) * (mu - 2), m * (m - 1)
    abm = ab * mm1 + 0.0  # read alone as D1D1 and D1D2; in a D2D2 sum a zero's sign is lost
    d11 = abm * p * q / (2.0 * n4)
    d12 = abm * p2 * q / n4  # D2D1 too: (mu-2)(mt-2) is the same product
    if d2 == "brownian":
        c = 2.0 * p3 * q
        d22 = c * ab * mm1 / n4 + abm / n5 + p2 * _pow(q, 2) * m * mm1 / (2.0 * n4) + c * mm1 / n4
    elif d2 == "table":
        mm2 = mm1 * np.maximum(m - 2, 0)
        d22 = (abm / n5 + abm * p3 * q / n4 + mm2 * p2 * (1 - p2) / (2.0 * n4)
               + mm2 * (mx - 3) * p3 * q / n4)
    elif d2 == "gap":
        d22 = (1 + p) * m * (m - 1) * p2 * q / n4
    else:
        raise ValueError("d2 must be brownian, table or gap, got %r" % d2)
    d11, d12, d22 = np.broadcast_arrays(d11, d12, d22)
    return np.stack([np.stack([d11, d12], -1), np.stack([d12, d22], -1)], -2)


def _view(i: int, j: int, d2: str = "brownian"):
    """Entry [i, j] of row_cov at the rows of two times t, u, as a float."""
    def cov(n: int, p: float, t, u) -> float:
        return float(row_cov(n, p, *time_rows(n, [as_time(t), as_time(u)]), d2)[i, j])
    return cov


# D1D1, D1D2 and the D2D2 forms at two times: the sampler's, the table's and their gap
cov_d1d1, cov_d1d2, cov_d2d2 = _view(0, 0), _view(0, 1), _view(1, 1)
cov_d2d2_table, d2_block_discrepancy = _view(1, 1, "table"), _view(1, 1, "gap")


def z_coefficients(p: float) -> tuple[float, float, float, float]:
    """(alpha1, alpha2, beta1, beta2): loadings of Z1 and Z2 on B1, B2."""
    a1 = math.sqrt(p * (1 - p)) / math.sqrt(2 + 8 * p**2)
    a2 = p * math.sqrt(2 * p * (1 - p)) / math.sqrt(1 + 4 * p**2)
    b1 = a2
    b2 = 2 * p**2 * math.sqrt(2 * p * (1 - p)) / math.sqrt(1 + 4 * p**2)
    return a1, a2, b1, b2


def brownian_side_cov(n, p, mt, mu) -> np.ndarray:
    """(..., 2, 2) grid covariance at the rows mt, mu, for broadcastable
    arrays of n, p, mt and mu, computed from the five-motion construction
    coefficient by coefficient (independent of row_cov's closed forms)."""
    mt, mu = np.asarray(mt, dtype=float), np.asarray(mu, dtype=float)
    m = np.minimum(mt, mu)
    a1, a2, b1, b2 = np.vectorize(z_coefficients, otypes=[float] * 4)(p)
    n2, n4 = _pow(n, 2), _pow(n, 4)
    at, au = (mt - 2) / n2, (mu - 2) / n2
    tau = m * (m - 1)  # min of the B1/B2/B3/B5 clocks
    nu = m * m * (m - 1)  # min of the B4 clock
    c11 = at * au * (a1 * a1 + a2 * a2) * tau
    c12 = at * au * (a1 * b1 + a2 * b2) * tau
    c22 = (
        at * au * (b1 * b1 + b2 * b2) * tau
        + at * au * tau / n
        + _pow(p * (1 - p), 2) / (2.0 * n4) * nu
        + 2 * _pow(p, 3) * (1 - p) / n4 * tau
    )
    c11, c12, c22 = np.broadcast_arrays(c11, c12, c22)
    return np.stack([np.stack([c11, c12], -1), np.stack([c12, c22], -1)], -2)


def prelimit_cov(model: GraphModel, times: Sequence) -> np.ndarray:
    """(2k, 2k) closed-form covariance of (D1(t_1), D2(t_1), ..., D2(t_k)).
    The closed forms read a time only through its row floor(n t), so
    row_cov evaluates them once on the grid of distinct rows, and each
    2 x 2 block is gathered to its pair of times."""
    rows, at = np.unique(time_rows(model.n, [as_time(t) for t in times]), return_inverse=True)
    blocks = row_cov(model.n, model.p, rows[:, None], rows)
    return blocks[at][:, at].swapaxes(1, 2).reshape(2 * at.size, 2 * at.size)


def _rel_diff(x, y) -> np.ndarray:
    """|x - y| relative to the larger of |x| and |y|; 0 where both are 0."""
    return np.abs(x - y) / np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-30)


def _var_v_excess(model: GraphModel, t) -> Fraction:
    """The pre-limit's D2 variance at t minus var_v_exact, exactly:
    m(m-1)[(m-2)^2/n + p^2(1-p^2)]/n^4, m = floor(n t)."""
    n = model.n
    m = int(n * as_time(t))
    p = Fraction(model.p)
    return m * (m - 1) * (Fraction((m - 2) ** 2, n) + p**2 * (1 - p**2)) / n**4


def covariance_identities(model: GraphModel, times: Sequence, cov: np.ndarray, note: str,
                          tol: float, seed: SeedSpec) -> list[tuple]:
    """verify-covariance's closed-form checks, as (name, pass, bound,
    detail): each covariance block of the Brownian construction against
    its closed form at 64 random points drawn from seed; the rank-one
    cov_tv against the diagonal blocks of cov, the pre-limit's covariance
    at times; and twostar_variance_identity, the D2 variances on cov's
    diagonal against var_v_exact plus _var_v_excess.  note ends the details
    of the checks that read cov.  np.max keeps a NaN, which fails."""
    rng = seed.rng()
    # each point's n, p, 100 t and 100 u, drawn point after point
    points = [(int(rng.integers(3, 40)), float(rng.uniform(0.05, 0.95)),
               int(rng.integers(0, 101)), int(rng.integers(0, 101))) for _ in range(64)]
    nn, pp, kt, ku = map(np.array, zip(*points))
    rows = nn * kt // 100, nn * ku // 100  # floor(n t) at t = k/100
    rel = _rel_diff(row_cov(nn, pp, *rows), brownian_side_cov(nn, pp, *rows))
    checks = []
    for name, (i, j) in {"edge_block_identity": (0, 0), "cross_block_identity": (0, 1),
                         "twostar_block_identity": (1, 1)}.items():
        worst = float(np.max(rel[:, i, j]))
        checks.append((name, worst <= tol, tol, "max rel diff %.3e" % worst))

    # (2, 2, times): the covariance blocks of cov at equal times
    diag = np.diagonal(cov.reshape(len(times), 2, len(times), 2), axis1=0, axis2=2)
    gaps = np.abs(np.array([cov_tv(model, t) for t in times]).transpose(1, 2, 0) - diag)
    for (i, j), lab in {(0, 0): "TT", (0, 1): "TV", (1, 1): "VV"}.items():
        gap = float(np.max(gaps[i, j]))
        checks.append(("cov_tv_vs_prelimit_%s" % lab, gap <= 1e-12, 1e-12,
                       "max abs diff %.3e%s" % (gap, note)))

    exact = [float(var_v_exact(model, t) + _var_v_excess(model, t)) for t in times]
    worst = float(np.max(_rel_diff(diag[1, 1], np.array(exact))))
    checks.append(("twostar_variance_identity", worst <= tol, tol,
                   "max rel diff %.3e%s" % (worst, note)))
    return checks


def increment_cov_check(model: GraphModel) -> None:
    """verify-covariance's Monte Carlo check of the increments: none for
    the graph, whose D_n is checked by dn_grid_cov_mc alone."""
    return None


# ---------------------------------------------------------------------------
# samplers


# below this many clocks a prefix sum is one add per clock, each over every
# motion and sample at once; from it on, one cumsum along the clocks is faster
_COLUMN_ADDS = 12


def _step_sd(clocks: np.ndarray) -> np.ndarray:
    """(..., 1, k) standard deviations of the Brownian increments from 0 to
    each of the increasing clocks (..., k), to scale a _motions plane."""
    return np.sqrt(np.diff(clocks, prepend=0.0))[..., None, :]


def _motions(rng: np.random.Generator, size: int, sd: np.ndarray) -> np.ndarray:
    """(motions, size, k) independent Brownian motions, motion i read at
    the clocks whose increments have the standard deviations sd[i, 0]
    (from _step_sd).  One normal call fills the plane, motion by motion and
    sample by sample, so motion i takes the normals that its own
    (size, k) draw would take after those of motions 0..i-1.  The steps
    are scaled and prefix-summed in place, left to right, as cumsum sums."""
    w = rng.standard_normal((sd.shape[0], size, sd.shape[-1]))
    w *= sd
    if w.shape[-1] < _COLUMN_ADDS:
        for c in range(1, w.shape[-1]):
            w[..., c] += w[..., c - 1]
        return w
    return np.cumsum(w, axis=-1, out=w)


def _bytes(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count,) uint8 draws: the little-endian bytes of ceil(count/8) raw
    64-bit words of the bit generator, cut to count.  They equal
    ``np.frombuffer(rng.bytes(count), np.uint8)``, which splits the same
    words into uint32 halves, and when ceil(count/4) is even the generator
    also ends where rng.bytes leaves it."""
    words = rng.bit_generator.random_raw(-(-count // 8))
    return words.astype("<u8", copy=False).view(np.uint8)[:count]


def _byte_rule(p: float) -> tuple[int, float, bool]:
    """(j, rate, fill) of ``bernoulli``'s rule for Bernoulli(p): a byte u
    gives u < j when fill is True and u <= j when it is False, and the
    correction then sets (fill) or clears (not fill) a Bernoulli(rate)
    subset; rate 0 is no correction."""
    q = 256.0 * p
    j = math.floor(q)
    if q == j:
        return j, 0.0, True
    set_rate, clear_rate = (q - j) / (256 - j), (j + 1 - q) / (j + 1)
    return (j, set_rate, True) if set_rate <= clear_rate else (j, clear_rate, False)


def bernoulli(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """Boolean array of iid Bernoulli(p) draws, one byte per indicator.

    With q = 256p and j = floor(q), a byte u gives u < j, which is
    Bernoulli(j/256), or u <= j, which is Bernoulli((j+1)/256).  A sparse
    correction then sets to 1 an independent Bernoulli((q-j)/(256-j))
    subset of the first, or clears a Bernoulli((j+1-q)/(j+1)) subset of
    the second, whichever rate is smaller; it is at most 1/257.  The
    subset is ``_correction``'s K ~ Binomial(count, rate) distinct uniform
    positions, so it costs O(K) and never scans the bytes.  The law is
    Bernoulli(p) to double precision; when q == j nothing beyond the bytes
    is drawn.  K and the positions are drawn first, then the raw words:
    the call is a one-block group of sample_y_values' rule.
    """
    count = math.prod(shape)
    j, rate, fill = _byte_rule(p)
    picks, _ = _correction(rng, [count], rate)
    u = _bytes(rng, count)
    out = np.less(u, j) if fill else np.less_equal(u, j)
    out[picks] = fill
    return out.reshape(shape)


Y_GROUP = 1 << 24  # edge indicators per correction group of sample_y_values


def _correction_groups(n: int, size: int) -> list[tuple[int, int]]:
    """Vertex ranges [lo, hi) of sample_y_values' correction groups:
    vertices 1..n-1 in order, each group closed before the vertex whose
    (k, size) block would take it past Y_GROUP indicators.  A group holds
    at least one vertex, so a block that alone passes the budget is a
    group of its own."""
    groups, lo, total = [], 1, 0
    for k in range(1, n):
        if total and total + k * size > Y_GROUP:
            groups.append((lo, k))
            lo, total = k, 0
        total += k * size
    groups.append((lo, n))
    return groups


def _correction(rng: np.random.Generator, counts, rate: float):
    """(picks, bounds): the correction of blocks of counts[i] indicators
    laid end to end, K ~ Binomial(N, rate) distinct uniform positions of
    their N = sum(counts) indicators, sorted, and each made relative to
    its own block; block i takes picks[bounds[i]:bounds[i + 1]]."""
    starts = np.cumsum([0, *counts])
    if not rate:
        return starts[:0], [0] * starts.size
    total = int(starts[-1])
    picks = rng.choice(total, rng.binomial(total, rate), replace=False, shuffle=False)
    picks.sort()
    bounds = np.searchsorted(picks, starts)
    picks -= np.repeat(starts[:-1], np.diff(bounds))
    return picks, bounds.tolist()


def sample_y_values(
    model: GraphModel, rng: np.random.Generator, size: int, cuts=None
) -> np.ndarray:
    """(size, len(cuts), 2) centered values of Y_n at t = k/n for k in cuts
    (default: every k = 0..n).

    Vertex k joins with a (k, size) block of Bernoulli(p) indicators by
    ``bernoulli``'s rule, added to the degrees of vertices < k; its own
    degree is the block's column sum.  The bytes are drawn vertex by vertex
    and compared in place, but the sparse correction is drawn once per
    group of consecutive vertices (``_correction_groups``, fixed by n and
    size alone), before the group's bytes: its K positions over the
    group's blocks are sorted once and sliced per vertex.  Degrees are
    held vertex-major, (vertex, sample), in the smallest integer dtype
    that holds n - 1.  The edge and two-star counts are formed only at the
    distinct rows r read, as sum(d) / 2 and (sum(d^2) - sum(d)) / 2 over
    the first r degrees, both exact.  A sample costs m(m-1)/2 random bytes
    for m = max(cuts) plus O(r) per row read.  A cut call draws the whole
    group of its last vertex, so its rows equal the full call's rows at the
    same seed.
    """
    n, p = model.n, model.p
    rows, m = grid_rows(n, cuts)
    reads, pos = np.unique(rows, return_inverse=True)
    dt = np.min_scalar_type(n - 1)
    deg = np.zeros((m, size), dtype=dt)
    j, rate, fill = _byte_rule(p)
    compare = np.less if fill else np.less_equal
    groups, hi = iter(_correction_groups(n, size)), 1
    et, ev = _expected_cuts(model)
    out = np.empty((size, reads.size, 2))
    joined = 1  # vertices 0..joined-1 are in the graph
    for i, r in enumerate(reads):
        for k in range(joined, r):
            if k == hi:
                lo, hi = next(groups)
                picks, bounds = _correction(rng, [v * size for v in range(lo, hi)], rate)
            u = _bytes(rng, k * size)
            block = compare(u, j, out=u.view(bool))  # over the bytes, in place
            block[picks[bounds[k - lo] : bounds[k - lo + 1]]] = fill
            block = block.view(np.uint8).reshape(k, size)
            deg[:k] += block
            np.add.reduce(block, axis=0, dtype=dt, out=deg[k])
            del u, block  # freed before the next bytes are drawn, which reuse the memory
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
    normals per sample per distinct row, drawn by one normal call into a
    (5, size, rows) plane (``_motions``).  The law at the rows is exact,
    but a cut call's values are not the full call's rows at the same seed.
    With every row 1..n present (``cuts=None`` or ``range(n+1)``) the
    increments are the unit steps of the clocks and the values are those
    of the full-grid draw.
    """
    n, p = model.n, model.p
    rows, _ = grid_rows(n, cuts)
    ks, pos = np.unique(rows, return_inverse=True)
    pad = int(ks[0] == 0)  # row 0 sits at clock 0, where every motion is 0
    drawn = ks[pad:]
    a1, a2, b1, b2 = z_coefficients(p)
    tau = (drawn * (drawn - 1)).astype(float)
    out = np.empty((size, ks.size, 2))

    def assemble(part, k, w):
        shift = (k - 2.0) / n**2
        part[..., 0] = shift * (a1 * w[0] + a2 * w[1])
        part[..., 1] = (
            shift * (b1 * w[0] + b2 * w[1])
            + shift / math.sqrt(n) * w[2]
            + p * (1 - p) / (math.sqrt(2.0) * n**2) * w[3]
            + math.sqrt(2 * p**3 * (1 - p)) / n**2 * w[4]
        )

    clocks = np.stack([tau, tau, tau, drawn * tau, tau])  # W1..W5, one normal call
    assemble(out[:, pad:], drawn, _motions(rng, size, _step_sd(clocks)))
    if pad:
        assemble(out[:, :pad], ks[:pad], np.zeros((5, 1, pad)))
    return out if cuts is None else out[:, pos]


# ---------------------------------------------------------------------------
# continuous limit and the coupling


REFINE = 8  # cells of Z's grid j/(REFINE n) per step of Z_n's grid k/n
# the largest n whose coupled sample, (8 REFINE + 9) n + 5 floats, fits MEMORY_BUDGET / 8
COUPLING_MAX_N = (MEMORY_BUDGET // 64 - 5) // (8 * REFINE + 9)


def _rows(plane: np.ndarray, size: int, width: int) -> np.ndarray:
    """The first size * width values of a flat plane as a (size, width) array."""
    return plane[: size * width].reshape(size, width)


def _coupled_sampler(model: GraphModel):
    """Build the merged clock, its index maps and the step scales once;
    returns (draw, grid, width), width being the size of the merged clock.

    draw(rng, size, planes) draws the five motions of `size` coupled samples
    and returns (zn1, zn2, z1, z2): Z_n on the step grid, as new (size, n+1)
    arrays, and Z on `grid`, as (size, L) views of planes[1] and planes[3].
    `planes` are four flat float64 arrays of at least size * width values:
    W1 and W2 are drawn into planes[0] and planes[1], A into planes[2] with
    planes[3] as the temporary, and B over W1, so on return planes[0] and
    planes[2] hold nothing that is read again."""
    n, p = model.n, model.p
    a1, a2, b1, b2 = z_coefficients(p)
    ks = np.arange(n + 1)
    js = np.arange(1, REFINE * n + 1)
    tau = ks * (ks - 1)
    # the shared times k(k-1)/n^2 and (j/(REFINE n))^2 are integers over
    # (REFINE n)^2, and each integer quotient is the correctly rounded time
    merged, idx = np.unique(np.concatenate([tau * REFINE**2, js * js]), return_inverse=True)
    tau_idx, sq_idx = idx[: n + 1], idx[n + 1 :]
    grid = js / float(REFINE * n)
    shared = merged / float((REFINE * n) ** 2)
    step_sd = _step_sd(shared)[0]  # as _motions scales its steps
    tau_t, nu_t = tau[1:] / float(n * n), (ks * tau)[1:] / float(n**3)
    step_sds = _step_sd(np.stack([tau_t, nu_t, tau_t]))  # W3, W4, W5 at rows 1..n
    shift = (ks - 2.0) / n
    # the scales of W3, W4 and W5 in Z_n2, row by row
    scales = np.stack([shift / math.sqrt(n), np.full(n + 1, p * (1 - p) / math.sqrt(2.0 * n)),
                       np.full(n + 1, math.sqrt(2 * p**3 * (1 - p)) / n)])
    width = merged.size

    def draw(rng: np.random.Generator, size: int, planes):
        w1, w2, a, tmp = (_rows(plane, size, width) for plane in planes)
        for w in (w1, w2):
            rng.standard_normal(out=w)
            w *= step_sd
            np.cumsum(w, axis=1, out=w)
        steps = _motions(rng, size, step_sds)
        # A = a1 W1 + a2 W2 and B = b1 W1 + b2 W2, each once on the merged clock
        np.multiply(w1, a1, out=a)
        a += np.multiply(w2, a2, out=tmp)
        b = np.multiply(w1, b1, out=w1)
        b += np.multiply(w2, b2, out=tmp)
        zn1 = np.take(a, tau_idx, axis=1)
        zn1 *= shift
        zn2 = np.take(b, tau_idx, axis=1)
        zn2 *= shift
        # Z_n2's four terms, summed left to right; row 0 is clock 0, where
        # the step motions are 0
        for scale, w in zip(scales, steps):
            zn2[:, 1:] += scale[1:] * w
            zn2[:, 0] += scale[0] * 0.0
        # Z into the planes of W2 and of the temporary, both read by now
        z1 = np.take(a, sq_idx, axis=1, out=_rows(planes[1], size, grid.size), mode="clip")
        z1 *= grid
        z2 = np.take(b, sq_idx, axis=1, out=_rows(planes[3], size, grid.size), mode="clip")
        z2 *= grid
        return zn1, zn2, z1, z2

    return draw, grid, width


def sample_coupled_values(
    model: GraphModel, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample (Z_n, Z) from shared B1, B2 on the merged clock.

    Returns (zn, z, grid_floats): zn has shape (size, n+1, 2) on the step
    grid k/n; z has shape (size, L, 2) on the refined grid j/(REFINE*n),
    j = 1..REFINE*n.  The step process is rewritten through the scaled
    motions B(k(k-1)) = n Btilde(k(k-1)/n^2) so that both processes read
    the same Btilde1, Btilde2.
    """
    draw, grid, width = _coupled_sampler(model)
    zn1, zn2, z1, z2 = draw(rng, size, [np.empty(size * width) for _ in range(4)])
    return np.stack([zn1, zn2], axis=2), np.stack([z1, z2], axis=2), grid


def _discretization_bias_bound(model: GraphModel) -> float:
    """Crude upper bound for the sup-norm bias of evaluating Z on the
    refined grid: coefficient mass times an expected-maximal-increment
    bound over the REFINE*n cells (clock gap <= 2/(REFINE*n))."""
    n, p = model.n, model.p
    a1, a2, b1, b2 = z_coefficients(p)
    coef = math.hypot(a1 + a2, b1 + b2)
    cells = REFINE * n
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
    workers: int = 1,
) -> dict:
    """Monte Carlo moments of the coupled (Z_n, Z) pair: the three
    estimates, with the derived refine, chunk, discretization_bias_bound
    and corr_at_one.  ``coupling_bounds`` holds the bounds they meet.

    Each engine chunk draws its motions as ``sample_coupled_values`` does
    and reduces their planes straight to six per-sample statistics.  The
    chunk size depends on n only: a chunk's whole working set,
    its five motions and its statistic planes, fits in an eighth of
    ``MEMORY_BUDGET``, so memory is bounded at any sample count; an n past
    COUPLING_MAX_N, where one sample would not fit, is refused.
    Each worker thread draws its chunks into four planes of chunk * width
    values that it allocates once; they are freed when the call returns.
    """
    n = model.n
    # per sample: W1, W2, A and B on the merged clock of (REFINE+1) n times
    # (k(k-1) is no square for k >= 2), three step motions and two Z_n planes
    # of n+1 values, and two Z planes and two difference planes of REFINE n.
    # Z and the differences reuse the merged-clock planes, so this
    # over-counts; it stays, as every report depends on the chunk size
    floats = 4 * (REFINE + 1) * n + 5 * (n + 1) + 4 * REFINE * n
    if n > COUPLING_MAX_N:  # refused before the merged clock is built
        raise GraphModelError("coupling at n = %d exceeds its memory budget in one sample; "
                              "n is at most %d" % (n, COUPLING_MAX_N))
    chunk = MEMORY_BUDGET // 8 // (8 * floats)
    draw, _, width = _coupled_sampler(model)
    cut = np.arange(1, REFINE * n + 1) // REFINE  # floor(n * j/(REFINE n))
    local = threading.local()

    def stats(rng, size):
        if not hasattr(local, "planes"):
            local.planes = [np.empty(chunk * width) for _ in range(4)]
        planes = local.planes
        zn1, zn2, z1, z2 = draw(rng, size, planes)
        # the differences go into the planes of B and A, which draw leaves free
        d1 = np.take(zn1, cut, axis=1, out=_rows(planes[2], size, cut.size), mode="clip")
        d1 -= z1
        d2 = np.take(zn2, cut, axis=1, out=_rows(planes[0], size, cut.size), mode="clip")
        d2 -= z2
        x, y = zn1[:, -1], z1[:, -1]  # correlation ingredients at t = 1
        corr = [x * y, x**2, y**2]  # taken before z1 is squared in place
        # x0^2 + x1^2 is the sum np.linalg.norm takes, and a correctly
        # rounded sqrt is monotone, so sqrt(max) is the max of the norms
        d1 *= d1
        d2 *= d2
        d1 += d2
        gap = np.sqrt(d1.max(axis=1))
        z1 *= z1
        z2 *= z2
        z1 += z2
        sup_z2 = np.sqrt(z1.max(axis=1)) ** 2
        # column-major: each statistic is then summed pairwise as one
        # contiguous run, exactly as from_values sums a 1-D array
        return np.array([gap, gap**2, sup_z2, *corr]).T

    gap, gap2, supz2, prod, zn2, z2 = mc_run_vector(
        stats, samples, seed, workers=workers, chunk=chunk
    )
    corr = prod.mean / math.sqrt(max(zn2.mean * z2.mean, 1e-300))
    return {
        "refine": REFINE,
        "chunk": chunk,
        "discretization_bias_bound": _discretization_bias_bound(model),
        "corr_at_one": corr,
        "estimates": {
            "sup_distance": gap,
            "sup_distance_sq": gap2,
            "sup_z_sq": supz2,
        },
    }


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
    b = (neighbour total)/n^2.  So only |delta| and the total are drawn:
    |delta| = |old - new| ~ Bernoulli(2p(1-p)) by ``bernoulli``, then the
    total, the 2(n-2) edges from I and J to the other vertices, which are
    independent of the edge {I, J}, ~ Binomial(2(n-2), p).
    """
    n, p = model.n, model.p
    lam = lambda_matrix(model)
    flip = bernoulli(rng, 2 * p * (1 - p), (size,))
    total = rng.binomial(2 * (n - 2), p, size)
    ab = np.stack([np.full(size, (n - 2) / n**2), total / n**2], axis=1)
    return flip * np.linalg.norm(ab @ lam, axis=1) * np.linalg.norm(ab, axis=1) ** 2


def eps3_values(model: GraphModel, f, rng, size: int) -> np.ndarray:
    """Draws of the regression remainder R_f: zeros, as R = 0 for the graph pair."""
    return np.zeros(size)


def bound_prelimit(model: GraphModel, gnorm: float) -> float:
    """Distance bound to the pre-limit: 12 |g| / n, |g| the M2 norm."""
    return 12.0 * gnorm / model.n


def bound_continuous(n: int, gnorm_m2: float) -> float:
    """Distance bound to the continuous limit:
    |g| (913 sqrt(ln n) + 112) / sqrt(n), natural logarithm."""
    if n < 3:
        raise GraphModelError("need n >= 3")
    return gnorm_m2 * (913.0 * math.sqrt(math.log(n)) + 112.0) / math.sqrt(n)


def bound_table(model: GraphModel, gnorm: float) -> dict:
    """bound's named bounds at |g| = gnorm, in report order: the pre-limit
    and continuous-limit distance bounds, then the coupling bounds."""
    table = {
        "prelimit_12g_over_n": bound_prelimit(model, gnorm),
        "continuous_sqrt_log": bound_continuous(model.n, gnorm),
    }
    for name, val in coupling_bounds(model.n).items():
        table["coupling_%s" % name] = val
    return table
