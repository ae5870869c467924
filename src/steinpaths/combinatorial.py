"""Random-array permutation statistics and their Gaussian pre-limit.

The model is an n x n array of independent entries X_ij with means c_ij
(vanishing row and column means), variances sigma_ij^2 and finite third
absolute moments.  A uniform random permutation pi turns the array into
the step process

    Y_n(t) = (1/s_n) sum_{i <= floor(nt)} X_{i,pi(i)},
    s_n^2  = (1/n) sum sigma_ij^2 + (1/(n-1)) sum c_ij^2,

whose exchangeable pair swaps the images of two uniformly chosen rows.
The matching pre-limit is D_n(t) = (1/s_n) sum_{i <= floor(nt)} Zhat_i
with Zhat_i = (1/sqrt(n-1)) sum_l X''_il (Z_il - mean_j Z_jl) built from
an independent array copy and iid standard normals; its covariance is

    E Zhat_i^2      = (1/n) sum_l (sigma_il^2 + c_il^2),
    E Zhat_i Zhat_j = -(1/(n(n-1))) sum_k c_ik c_jk      (i != j).

The distance bound evaluator implements the five-index moment sum
(factorized to O(n^2) aggregates, with the naive O(n^5) loop kept as an
oracle) plus the 2/sqrt(n) remainder term and a final variance term; a
third-moment variant of the final term is reported alongside.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .functionals import CylinderFunctional
from .mc import MEMORY_BUDGET
from .paths import as_time, grid_rows

__all__ = [
    "ModelError",
    "DegenerateModelError",
    "EntrySpec",
    "constant_entry",
    "gaussian_entry",
    "rademacher_entry",
    "two_point_entry",
    "ArrayModel",
    "double_center",
    "DETERMINISTIC_3X3",
    "s_n_squared",
    "CombinatorialRealization",
    "sample_y",
    "sample_trials",
    "sample_pair",
    "apply_swap",
    "regression_residual",
    "regression_residuals",
    "zhat_cov",
    "zhat_cov_matrix",
    "cov_d",
    "cov_d_grid",
    "sample_y_values",
    "sample_zhat_values",
    "sample_dn_values",
    "pair_norm_stats",
    "eps3_values",
    "bound_prelimit_distance",
    "bound_prelimit_distance_report",
    "bound_beta3",
    "assumption_diagnostic",
    "MEMORY_BUDGET",
]

_FAM_CONSTANT, _FAM_GAUSSIAN, _FAM_RADEMACHER, _FAM_TWO_POINT = range(4)

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Sampler calls fill their samples in sub-blocks, and each (block, m, n)
# float64 plane takes at most an eighth of the budget (a block holds at
# most four).
_PLANE_BYTES = MEMORY_BUDGET // 8


class ModelError(ValueError):
    pass


class DegenerateModelError(ModelError):
    pass


def _std_normal_cdf(a: float) -> float:
    return 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))


def _std_normal_pdf(a: float) -> float:
    return math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)


def _abs_moments_gaussian(mean: float, sd: float) -> tuple[float, float]:
    """(E|X|, E|X|^3) for X ~ N(mean, sd^2), sd > 0."""
    a = mean / sd
    phi, Phi = _std_normal_pdf(a), _std_normal_cdf(a)
    m1 = sd * (2.0 * phi + a * (2.0 * Phi - 1.0))
    m3 = sd**3 * ((a**3 + 3.0 * a) * (2.0 * Phi - 1.0) + (a * a + 2.0) * 2.0 * phi)
    return m1, m3


@dataclass(frozen=True)
class EntrySpec:
    """One array entry: distribution family plus closed-form moments."""

    family: int
    p0: float
    p1: float = 0.0
    p2: float = 0.0
    mean: float = 0.0
    var: float = 0.0
    abs1: float = 0.0  # E|X|
    abs3: float = 0.0  # E|X|^3

    @property
    def abs2(self) -> float:
        # mean * mean, as numpy squares arrays; Python's mean**2 can differ
        return self.var + self.mean * self.mean


def constant_entry(value: float) -> EntrySpec:
    v = float(value)
    return EntrySpec(_FAM_CONSTANT, v, mean=v, var=0.0, abs1=abs(v), abs3=abs(v) ** 3)


def gaussian_entry(mean: float, var: float) -> EntrySpec:
    mean, var = float(mean), float(var)
    if var < 0:
        raise ModelError("variance must be nonnegative")
    if var == 0:
        return constant_entry(mean)
    sd = math.sqrt(var)
    m1, m3 = _abs_moments_gaussian(mean, sd)
    return EntrySpec(_FAM_GAUSSIAN, mean, sd, mean=mean, var=var, abs1=m1, abs3=m3)


def rademacher_entry(mean: float, scale: float) -> EntrySpec:
    """X = mean + scale * R with R = +-1 equally likely."""
    mean, scale = float(mean), float(scale)
    m1 = 0.5 * (abs(mean + scale) + abs(mean - scale))
    m3 = 0.5 * (abs(mean + scale) ** 3 + abs(mean - scale) ** 3)
    return EntrySpec(
        _FAM_RADEMACHER, mean, scale, mean=mean, var=scale**2, abs1=m1, abs3=m3
    )


def two_point_entry(x1: float, p1: float, x2: float) -> EntrySpec:
    x1, p1, x2 = float(x1), float(p1), float(x2)
    if not 0.0 <= p1 <= 1.0:
        raise ModelError("two-point probability outside [0,1]")
    mean = p1 * x1 + (1 - p1) * x2
    var = p1 * x1**2 + (1 - p1) * x2**2 - mean**2
    m1 = p1 * abs(x1) + (1 - p1) * abs(x2)
    m3 = p1 * abs(x1) ** 3 + (1 - p1) * abs(x2) ** 3
    return EntrySpec(_FAM_TWO_POINT, x1, p1, x2, mean=mean, var=var, abs1=m1, abs3=m3)


DETERMINISTIC_3X3 = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]


def double_center(matrix) -> np.ndarray:
    """c - rowmean - colmean + grandmean: exact vanishing row/col means."""
    c = np.asarray(matrix, dtype=float)
    return c - c.mean(axis=1, keepdims=True) - c.mean(axis=0, keepdims=True) + c.mean()


class ArrayModel:
    """n x n array of independent entries: a table of entry laws and an
    (n, n) index into it.  Every law array is the table's field read at the
    index, so the entries of a preset share one table row."""

    def __init__(self, table: Sequence[EntrySpec], index) -> None:
        index = np.array(index, dtype=np.intp)  # a copy: the law arrays follow it
        n = len(index)
        if n < 2 or index.shape != (n, n):
            raise ModelError("index must form an n x n grid with n >= 2")
        if index.min() < 0 or index.max() >= len(table):
            raise ModelError("index entries must point into the law table")
        self.n = n
        self.table = tuple(table)
        self.index = index
        family, c, sigma2, abs1, abs2, abs3, p0, p1, p2 = (
            np.array([getattr(e, name) for e in self.table])
            for name in ("family", "mean", "var", "abs1", "abs2", "abs3", "p0", "p1", "p2")
        )
        # The samplers split each entry law in two parts, each zero on the
        # other's entries: a Gaussian part (constant and Gaussian entries,
        # mean _gc, variance _gvar, sd _gsd) and a two-point part
        # (Rademacher and two-point entries: _lo if a uniform is below _q,
        # else _hi).
        rad = family == _FAM_RADEMACHER
        discrete = rad | (family == _FAM_TWO_POINT)
        gc = np.where(discrete, 0.0, c)
        gvar = np.where(discrete, 0.0, sigma2)
        gsd = np.where(family == _FAM_GAUSSIAN, p1, 0.0)
        q = np.where(rad, 0.5, np.where(discrete, p1, 0.0))
        lo = np.where(rad, p0 - p1, np.where(discrete, p0, 0.0))
        hi = np.where(rad, p0 + p1, np.where(discrete, p2, 0.0))
        (self.c, self.sigma2, self.abs1, self.abs2, self.abs3, self._gc,
         self._gvar, self._gsd, self._q, self._lo, self._hi) = (
            a[index] for a in (c, sigma2, abs1, abs2, abs3, gc, gvar, gsd, q, lo, hi)
        )
        # Rows whose entry laws differ from the row above in some column
        # (row 0 always): the D_n kernel draws per run of equal-law rows.
        # Laws can differ only where the index does.
        law = np.stack([gc, gvar, q, lo, hi])
        row, col = np.nonzero(index[1:] != index[:-1])
        changed = (law[:, index[row, col]] != law[:, index[row + 1, col]]).any(axis=0)
        self._run_start = np.ones(n, dtype=bool)
        self._run_start[1:] = np.bincount(row[changed], minlength=n - 1) > 0
        self._has_gauss = bool((family == _FAM_GAUSSIAN)[index].any())
        self._has_discrete = bool(discrete[index].any())
        self._validate()

    def _validate(self) -> None:
        moments = [(e.mean, e.var, e.abs3) for e in self.table]
        if not np.isfinite(moments).all():
            raise ModelError("entry laws need finite means, variances and "
                             "third absolute moments")
        row = np.abs(self.c.mean(axis=1))
        col = np.abs(self.c.mean(axis=0))
        # relative to the entry scale, so double_center output passes at
        # any magnitude
        tol = 1e-12 * max(1.0, float(np.abs(self.c).max()))
        if row.max() > tol or col.max() > tol:
            raise ModelError(
                "row/column means of the entry means must vanish "
                "(max |rowmean|=%.2e, |colmean|=%.2e); see double_center"
                % (row.max(), col.max())
            )
        # Lyapunov consistency E|X|^3 >= (E X^2)^(3/2) >= sigma^3
        if np.any(self.abs3 < self.sigma2**1.5 - 1e-9):
            raise ModelError("third absolute moments inconsistent with variances")
        self.s_n = math.sqrt(s_n_squared(self))  # raises unless s_n^2 > 0

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_entries(cls, grid: Sequence[Sequence[EntrySpec]]) -> "ArrayModel":
        """Model of an n x n grid of EntrySpecs; equal entries share a row."""
        ids: dict = {}
        index = [[ids.setdefault(e, len(ids)) for e in row] for row in grid]
        return cls(list(ids), index)

    @classmethod
    def iid_gaussian(cls, n: int) -> "ArrayModel":
        return cls([gaussian_entry(0.0, 1.0)], _constant_index(n))

    @classmethod
    def deterministic(cls, matrix=None) -> "ArrayModel":
        matrix = DETERMINISTIC_3X3 if matrix is None else matrix
        c = np.asarray(matrix, dtype=float)
        values, index = np.unique(c, return_inverse=True)
        return cls([constant_entry(v) for v in values], index.reshape(c.shape))

    @classmethod
    def iid_rademacher(cls, n: int, scale: float = 1.0) -> "ArrayModel":
        return cls([rademacher_entry(0.0, scale)], _constant_index(n))

    @classmethod
    def from_json_dict(cls, d: dict) -> "ArrayModel":
        preset = d.get("preset")
        if preset == "iid-gaussian":
            return cls.iid_gaussian(int(d["n"]))
        if preset == "iid-rademacher":
            return cls.iid_rademacher(int(d["n"]), float(d.get("scale", 1.0)))
        if preset == "deterministic":
            return cls.deterministic(d.get("matrix"))
        if preset is not None:
            raise ModelError("unknown preset %r" % preset)
        n = int(d["n"])
        ids = {constant_entry(0.0): 0}
        index = _constant_index(n)
        for item in d["entries"]:
            i, j = int(item["i"]) - 1, int(item["j"]) - 1
            if not (0 <= i < n and 0 <= j < n):
                raise ModelError("entry (%d, %d) outside 1..%d" % (i + 1, j + 1, n))
            dist = item["dist"]
            if dist == "constant":
                e = constant_entry(item["value"])
            elif dist == "gaussian":
                e = gaussian_entry(item.get("mean", 0.0), item["var"])
            elif dist == "rademacher-shifted":
                e = rademacher_entry(item.get("mean", 0.0), item["scale"])
            elif dist == "two-point":
                e = two_point_entry(item["x1"], item["p1"], item["x2"])
            else:
                raise ModelError("unknown dist %r" % dist)
            index[i, j] = ids.setdefault(e, len(ids))
        return cls(list(ids), index)


def _constant_index(n: int) -> np.ndarray:
    """(n, n) index of table row 0; (0, 0), which ArrayModel rejects, if n < 0."""
    return np.zeros((max(n, 0),) * 2, dtype=np.intp)


def s_n_squared(model: ArrayModel) -> float:
    """(1/n) sum sigma_ij^2 + (1/(n-1)) sum c_ij^2; the variance of the
    full permutation sum."""
    n = model.n
    s2 = float(model.sigma2.sum()) / n + float((model.c**2).sum()) / (n - 1)
    if s2 <= 0:
        raise DegenerateModelError("s_n^2 = %g is not positive" % s2)
    return s2


def _blocks(size: int, m: int, n: int) -> list[tuple[int, int]]:
    """Sample ranges [lo, hi) of the sub-blocks that fill one call, sized so
    that one (block, m, n) float64 plane takes at most _PLANE_BYTES."""
    step = max(1, _PLANE_BYTES // (8 * max(m, 1) * n))
    return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


def _two_point(model: ArrayModel, rng: np.random.Generator, shape, idx) -> np.ndarray:
    """Draws of the two-point part of the entries model[idx] (zero on the
    other entries), broadcast to shape; one uniform per value."""
    u = rng.random(shape)
    return np.where(u < model._q[idx], model._lo[idx], model._hi[idx])


def _draw(model: ArrayModel, rng: np.random.Generator, shape, idx) -> np.ndarray:
    """Independent draws of the entries model[idx], broadcast to shape.

    Normals are drawn only if the model has a Gaussian entry and uniforms
    only if it has a Rademacher or two-point entry, in that order.
    """
    x = np.zeros(shape)
    x += model._gc[idx]
    if model._has_gauss:
        x += model._gsd[idx] * rng.standard_normal(shape)
    if model._has_discrete:
        x += _two_point(model, rng, shape, idx)
    return x


def _sample_full(model: ArrayModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, n, n) array draws."""
    n = model.n
    return _draw(model, rng, (size, n, n), np.s_[:, :])


def _at_rows(steps: np.ndarray, rows: np.ndarray, scale: float) -> np.ndarray:
    """Values at grid rows `rows` of the step path with these (size, m)
    increments, divided by scale."""
    grid = np.zeros((steps.shape[0], steps.shape[1] + 1))
    grid[:, 1:] = np.cumsum(steps, axis=1) / scale
    return grid[:, rows]


def _picks(x: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """(..., n) entries X_{i, pi(i)}."""
    return np.take_along_axis(x, pi[..., None], axis=-1)[..., 0]


def _path_from_diag(model: ArrayModel, x: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """(..., n+1, 1) values of Y_n at the grid rows k = 0..n."""
    out = np.zeros(pi.shape[:-1] + (model.n + 1, 1))
    out[..., 1:, 0] = np.cumsum(_picks(x, pi), axis=-1) / model.s_n
    return out


@dataclass
class CombinatorialRealization:
    """One (X, pi) draw together with the step path's grid values; with a
    leading trial axis on every array it holds a stack of draws."""

    model: ArrayModel
    x: np.ndarray            # (..., n, n) realized array
    pi: np.ndarray           # (..., n) permutation, 0-based
    values: np.ndarray       # (..., n+1, 1): Y_n(k/n) for k = 0..n

    @property
    def n(self) -> int:
        return self.model.n


def sample_trials(
    model: ArrayModel, rngs: Iterable[np.random.Generator]
) -> CombinatorialRealization:
    """One draw per generator, stacked on a leading trial axis; each draw
    takes the draws ``sample_y(model, rng)`` takes from its generator, and
    its values equal that call's bit for bit."""
    x, pi = zip(*[(_sample_full(model, rng, 1)[0], rng.permutation(model.n)) for rng in rngs])
    x, pi = np.stack(x), np.stack(pi)
    return CombinatorialRealization(model, x, pi, _path_from_diag(model, x, pi))


def sample_y(model: ArrayModel, rng: np.random.Generator) -> CombinatorialRealization:
    """Sample X entrywise, pi uniform (Fisher-Yates), assemble the path."""
    real = sample_trials(model, [rng])
    return CombinatorialRealization(model, real.x[0], real.pi[0], real.values[0])


def apply_swap(real: CombinatorialRealization, i: int, j: int) -> CombinatorialRealization:
    """Swap the permutation images of rows i and j (1-based); X unchanged."""
    pi = real.pi.copy()
    pi[[i - 1, j - 1]] = pi[[j - 1, i - 1]]
    return CombinatorialRealization(real.model, real.x, pi, _path_from_diag(real.model, real.x, pi))


def sample_pair(model: ArrayModel, rng: np.random.Generator):
    """Exchangeable pair: resample (I,J) uniform among ordered distinct rows
    and swap their permutation images."""
    real = sample_y(model, rng)
    i, j = (rng.permutation(model.n)[:2] + 1).tolist()
    return real, apply_swap(real, i, j), (i, j)


def regression_residuals(
    real: CombinatorialRealization, funcs: Sequence[CylinderFunctional]
) -> np.ndarray:
    """(len(funcs), ...) residuals |LHS - RHS| of the exchangeable-pair
    linear regression identity, for a realization or a stack of them, one
    row per functional.

    LHS averages Df(Y)[Y - Y'_(i,j)] over all ordered pairs i != j; RHS is
    (2/(n-1)) (Df(Y)[Y] - (1/(n s_n)) sum_{i,j} Df(Y)[X_{i,pi(j)} 1_[i/n,1]]).
    Both sides are exact given the realization (the (I,J)-average is a
    finite sum and Df(Y)[.] is linear), so the residual is roundoff only.
    """
    n, s = real.n, real.model.s_n
    lead = real.values.shape[:-2]
    picks = _picks(real.x, real.pi)  # X_{i, pi(i)}
    row_prefix = np.zeros(lead + (n + 1,))
    np.cumsum(real.x.sum(axis=-1), axis=-1, out=row_prefix[..., 1:])

    # one call per functional, so its (..., n, n) arrays are freed before
    # the next functional's are built
    def residual(f: CylinderFunctional) -> np.ndarray:
        cuts = f.rows(n)
        x = real.values[..., cuts, 0]
        grads = f.grad_stacked(x)
        c = grads @ (np.arange(1, n + 1)[:, None] <= cuts).T  # Df(Y)[1_[(i+1)/n, 1]]
        # swapping rows i, j moves Y by u[i, j] from (i+1)/n on, u[j, i] from (j+1)/n on
        u = picks[..., :, None] - np.take_along_axis(real.x, real.pi[..., None, :], axis=-1)
        lhs = (c[..., :, None] * u + c[..., None, :] * u.swapaxes(-1, -2)).sum(axis=(-2, -1))
        lhs /= n * (n - 1) * s
        df_y = np.einsum("...a,...a->...", grads, x)
        correction = np.einsum("...a,...a->...", grads, row_prefix[..., cuts]) / (n * s)
        rhs = 2.0 / (n - 1) * (df_y - correction)
        return np.abs(lhs - rhs)

    out = np.empty((len(funcs),) + lead)
    for row, f in enumerate(funcs):
        out[row] = residual(f)
    return out


def regression_residual(real: CombinatorialRealization, f: CylinderFunctional) -> float:
    """The residual of ``regression_residuals`` for one realization and one
    functional."""
    return float(regression_residuals(real, [f])[0])


def zhat_cov(model: ArrayModel, i: int, j: int) -> float:
    """Closed-form Cov(Zhat_i, Zhat_j); i, j are 1-based."""
    n = model.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ModelError("indices outside 1..n")
    if i == j:
        return float(model.abs2[i - 1].sum()) / n
    return -float((model.c[i - 1] * model.c[j - 1]).sum()) / (n * (n - 1))


def zhat_cov_matrix(model: ArrayModel) -> np.ndarray:
    n = model.n
    out = -(model.c @ model.c.T) / (n * (n - 1))
    np.fill_diagonal(out, model.abs2.sum(axis=1) / n)
    return out


def cov_d_grid(model: ArrayModel, ss: Sequence, ts: Sequence) -> np.ndarray:
    """(len(ss), len(ts)) closed-form Cov(D_n(s), D_n(t)) = sum of Zhat
    covariances over the index box, divided by s_n^2, from one covariance
    matrix."""
    zc = zhat_cov_matrix(model)
    rows = [[int(model.n * as_time(t)) for t in times] for times in (ss, ts)]
    sums = [[float(zc[:ks, :kt].sum()) for kt in rows[1]] for ks in rows[0]]
    return np.array(sums, dtype=float).reshape(len(ss), len(ts)) / s_n_squared(model)


def cov_d(model: ArrayModel, s, t) -> float:
    """Closed-form Cov(D_n(s), D_n(t)); the one-pair case of cov_d_grid."""
    return float(cov_d_grid(model, [s], [t])[0, 0])


def _block_sums(
    model: ArrayModel, rng: np.random.Generator, size: int, ends: np.ndarray
) -> np.ndarray:
    """(size, len(ends)) draws of the sums of Zhat_i over the row blocks
    (e_{a-1}, e_a], for increasing ends 0 < e_1 < ... (e_0 = 0).

    Given X'' and Z the block sums are Gaussian, so each block takes one
    normal for its summed conditional variance.  The rest splits each block
    into runs: maximal sets of consecutive rows whose entry laws agree
    column by column (ArrayModel._run_start), and draws per run R of b rows
    and column l only U_Rl = sum_{i in R} W_il (W = Z - Zbar):
    sum_{i in R} X''_il W_il given U is
      Gaussian part:  N(c U, sigma^2 (U^2/b + chi^2_{b-1}))
                      (one chi^2 per distinct sigma^2 of the run);
      two-point part: U (K lo + (b-K) hi)/b + N(0, K (b-K) (hi-lo)^2 / b)
                      with K ~ Bin(b, q) the number of lo values.
    Rows after the last end enter only through the column sums in Zbar,
    which take one N(0, n - e_last) normal per column.  When every run is
    one row (b = 1) this is the entrywise computation, with one uniform per
    two-point entry.  Per-run variates are laid out runs outer, samples
    inner, as in the Y and eps3 samplers.
    """
    n = model.n
    if not ends.size:
        return np.zeros((size, 0))
    m = int(ends[-1])
    starts = model._run_start[:m].copy()
    starts[ends[:-1]] = True
    first = np.flatnonzero(starts)
    r = first.size
    b = np.diff(np.append(first, m))
    multi = np.flatnonzero(b > 1)
    b3 = b[:, None, None]
    # per-run entry laws: views of the model's arrays when every run is one
    # row, so the entrywise case copies no (m, n) array
    take = slice(0, m) if r == m else first
    gc = model._gc[take]
    has_mean = bool(gc.any())
    if model._has_gauss:
        gvar = model._gvar[take]
        gvar_b = gvar / b[:, None] if multi.size else gvar
    if model._has_discrete and multi.size:
        q, high = model._q[take][:, None], model._hi[take]
        spread = model._lo[take] - high
        spread_b, spread2_b = spread / b[:, None], spread**2 / b[:, None]
    block_first = np.searchsorted(first, np.append(0, ends[:-1]))
    noisy = model._has_gauss or (model._has_discrete and multi.size > 0)

    def draw(s: int) -> np.ndarray:
        u = rng.standard_normal((r, s, n))
        if multi.size:
            u *= np.sqrt(b3)
        zbar = u.sum(axis=0)
        if m < n:
            zbar += math.sqrt(n - m) * rng.standard_normal((s, n))
        zbar /= n
        u -= b3 * zbar if multi.size else zbar
        acc = np.einsum("rsl,rl->sr", u, gc) if has_mean else np.zeros((s, r))
        if model._has_gauss:
            var = np.einsum("rsl,rsl,rl->sr", u, u, gvar_b)
            for j in multi:
                vals, counts = np.unique(gvar[j][gvar[j] > 0], return_counts=True)
                if vals.size:
                    var[:, j] += rng.chisquare(counts * (b[j] - 1), (s, vals.size)) @ vals
        else:
            var = np.zeros((s, r))
        if model._has_discrete and not multi.size:
            acc += np.einsum("rsl,rsl->sr", _two_point(model, rng, u.shape, (take, None)), u)
        elif model._has_discrete:
            k_lo = rng.binomial(b3, q, u.shape)
            acc += np.einsum("rsl,rl->sr", u, high)
            acc += np.einsum("rsl,rsl,rl->sr", k_lo, u, spread_b)
            k_lo *= b3 - k_lo
            var += np.einsum("rsl,rl->sr", k_lo, spread2_b)
        if r > ends.size:
            acc = np.add.reduceat(acc, block_first, axis=1)
            var = np.add.reduceat(var, block_first, axis=1)
        if noisy:
            acc += np.sqrt(var) * rng.standard_normal((ends.size, s)).T
        return acc

    # one sub-block per call of draw, so each plane is freed before the
    # next one is drawn
    out = np.empty((size, ends.size))
    for lo, hi in _blocks(size, r, n):
        out[lo:hi] = draw(hi - lo)
    out /= math.sqrt(n - 1)
    return out


def sample_zhat_values(model: ArrayModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, n) draws of (Zhat_1, ..., Zhat_n)."""
    return _block_sums(model, rng, size, np.arange(1, model.n + 1))


def sample_dn_values(
    model: ArrayModel, rng: np.random.Generator, size: int, cuts=None
) -> np.ndarray:
    """(size, len(cuts)) values of D_n at t = k/n for k in cuts (default:
    every k = 0..n); only the sums of Zhat between consecutive cuts are
    drawn."""
    rows, _ = grid_rows(model.n, cuts)
    # the sorted distinct rows > 0; np.unique here would import numpy.ma
    ends = np.flatnonzero(np.bincount(rows)[1:]) + 1
    sums = _block_sums(model, rng, size, ends)
    return _at_rows(sums, np.searchsorted(ends, rows, side="right"), model.s_n)


def sample_y_values(
    model: ArrayModel, rng: np.random.Generator, size: int, cuts=None
) -> np.ndarray:
    """(size, len(cuts)) values of Y_n at t = k/n for k in cuts (default:
    every k = 0..n); picks are drawn only for rows up to max(cuts).

    The picks are drawn row-major over (row, sample), so at the same seed
    the rows a cut-aware call returns repeat the full call's values for a
    model with a single family of random entries.
    """
    n = model.n
    rows, m = grid_rows(n, cuts)
    pi = np.argsort(rng.random((size, n)), axis=1)[:, :m]
    picks = _draw(model, rng, (m, size), (np.arange(m)[:, None], pi.T))
    return _at_rows(picks.T, rows, model.s_n)


def pair_norm_stats(model: ArrayModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draws of ||(Y-Y') Lambda_n|| * ||Y-Y'||^2 with Lambda_n = (n-1)/4.

    Only the four affected entries matter: with rows (I,J) and columns
    (pi(I), pi(J)) uniform ordered distinct pairs, Y-Y' jumps by
    u = X_{I pi(I)} - X_{I pi(J)} at I/n and v = X_{J pi(J)} - X_{J pi(I)}
    at J/n, so the sup norm is max(|first jump alone|, |u+v|)/s_n.
    """
    n = model.n
    ij = np.argsort(rng.random((size, n)), axis=1)[:, :2]
    kl = np.argsort(rng.random((size, n)), axis=1)[:, :2]
    i_, j_ = ij[:, 0], ij[:, 1]
    k_, l_ = kl[:, 0], kl[:, 1]
    x_ik = _draw(model, rng, size, (i_, k_))
    x_jl = _draw(model, rng, size, (j_, l_))
    x_il = _draw(model, rng, size, (i_, l_))
    x_jk = _draw(model, rng, size, (j_, k_))
    u = x_ik - x_il
    v = x_jl - x_jk
    first = np.where(i_ < j_, u, v)
    sup = np.maximum(np.abs(first), np.abs(u + v)) / model.s_n
    return (n - 1) / 4.0 * sup**3


def eps3_values(
    model: ArrayModel, f: CylinderFunctional, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draws of the regression remainder R_f via the tower property:
    (1/(n s_n)) sum_{i,j} Df(Y)[X_{i,pi(j)} 1_[i/n,1]].

    Only rows up to the functional's last cut m are drawn.  Their Gaussian
    part needs two normals per row: one for the pick X_{i,pi(i)} and one
    for the rest of the row sum, N(rowsum(c)_i - c_{i,pi(i)},
    rowsum(sigma^2)_i - sigma^2_{i,pi(i)}).  The two-point part is drawn
    entry by entry.
    """
    n, s = model.n, model.s_n
    rows, m = grid_rows(n, f.rows(n))
    row_c = model._gc[:m].sum(axis=1)[:, None]
    row_var = model._gvar[:m].sum(axis=1)[:, None]
    out = np.empty(size)
    for lo, hi in _blocks(size, m, n):
        b = hi - lo
        pi = np.argsort(rng.random((b, n)), axis=1)[:, :m].T
        idx = (np.arange(m)[:, None], pi)
        picks = model._gc[idx]
        row_sums = np.repeat(row_c, b, axis=1)
        if model._has_gauss:
            pick_gauss = model._gsd[idx] * rng.standard_normal((m, b))
            rest_sd = np.sqrt(np.maximum(row_var - model._gvar[idx], 0.0))
            picks += pick_gauss
            row_sums += pick_gauss + rest_sd * rng.standard_normal((m, b))
        if model._has_discrete:
            x = _two_point(model, rng, (m, b, n), np.s_[:m, None])
            picks += np.take_along_axis(x, pi[:, :, None], axis=2)[:, :, 0]
            row_sums += x.sum(axis=2)
        grads = f.grad_stacked(_at_rows(picks.T, rows, s))  # (b, k); dim 1
        prefix = _at_rows(row_sums.T, rows, 1.0)
        out[lo:hi] = np.einsum("sk,sk->s", grads, prefix) / (n * s)
    return out


# ---------------------------------------------------------------------------
# distance bound evaluators


def _five_index_sum_factorized(model: ArrayModel) -> float:
    """The five-index moment sum, factorized over independent indices.

    Writing a = E|X|, b = E|X|^2, m = E|X|^3 and Q_ij = sum_r |c_ir c_jr|,
    each of the ten summand families depends on at most four of the five
    indices, so free indices contribute powers of n and the rest collapse
    to row/column aggregates; everything is O(n^2).
    """
    n = float(model.n)
    a, b, m = model.abs1, model.abs2, model.abs3
    a_row = a.sum(axis=1)
    a_col = a.sum(axis=0)
    b_row = b.sum(axis=1)
    b_col = b.sum(axis=0)
    a_tot = float(a.sum())
    b_tot = float(b.sum())
    absc = np.abs(model.c)
    v_col = absc.sum(axis=0)                  # column sums of |c|
    w_col = a_row @ absc                      # w_r = sum_i a_row_i |c_ir|
    sum_q = float(v_col @ v_col)              # sum_ij Q_ij
    sum_arow_q = float(w_col @ v_col)         # sum_ij a_row_i Q_ij

    total = 3.0 * n**3 * float(m.sum())
    total += 5.0 * n**2 * float(a_row @ b_row)
    total += 7.0 * n * b_tot * a_tot
    total += 5.0 * n**2 * float(b_col @ a_col)
    total += 16.0 * n * float(a_row @ a @ a_col)
    total += 2.0 * n * float((a_row**3).sum())
    total += 4.0 * float((a_row**2).sum()) * a_tot
    total += 6.0 * float((a_col**2).sum()) * a_tot
    total += 2.0 * n * float((a_col**3).sum())
    # family with the inner (1/n) sum over r of (E|X_ir|^2 + |c_ir c_jr|)
    total += (2.0 / n) * (
        n**3 * float(a_row @ b_row)
        + 2.0 * n**2 * sum_arow_q
        + 3.0 * n**2 * a_tot * b_tot
        + 2.0 * n * a_tot * sum_q
    )
    return total


def _five_index_sum_naive(model: ArrayModel) -> float:
    """Literal five nested loops over the ten summand families; oracle only."""
    n = model.n
    a, b, m = model.abs1, model.abs2, model.abs3
    absc = np.abs(model.c)
    q = absc @ absc.T  # Q_ij = sum_r |c_ir||c_jr|
    b_row = b.sum(axis=1)
    total = 0.0
    for i, j, k, l, u in itertools.product(range(n), repeat=5):
        total += (
            3.0 * m[i, k]
            + 5.0 * a[i, k] * b[i, l]
            + 7.0 * b[i, k] * a[j, l]
            + 5.0 * b[i, k] * a[j, k]
            + 16.0 * a[i, k] * a[i, l] * a[j, l]
            + 2.0 * a[i, u] * a[i, k] * a[i, l]
            + 4.0 * a[i, u] * a[i, l] * a[j, k]
            + 6.0 * a[u, k] * a[i, k] * a[j, l]
            + 2.0 * a[u, k] * a[i, k] * a[j, k]
            + (1.0 / n)
            * (2.0 * a[i, k] + 2.0 * a[j, l] + 2.0 * a[u, k] + 2.0 * a[u, l])
            * (b_row[i] + q[i, j])
        )
    return total


def bound_prelimit_distance_report(model: ArrayModel, gnorm_m1: float) -> dict:
    """All terms of the pre-limit distance bound, scaled by gnorm_m1.

    ``total`` uses the variance form of the final term;
    ``total_third_moment_variant`` replaces it by the pair-distance moment
    expression 4 |g| sum E|X|^3 / (3 n s^3).
    """
    if gnorm_m1 < 0:
        raise ModelError("gnorm must be nonnegative")
    n = model.n
    s2 = s_n_squared(model)
    s3 = s2**1.5
    sum_term = gnorm_m1 * _five_index_sum_factorized(model) / (n**3 * (n - 1) * s3)
    sqrt_term = 2.0 * gnorm_m1 / math.sqrt(n)
    final_var = 4.0 * gnorm_m1 * float(model.sigma2.sum()) / (3.0 * n * s2)
    final_third = 4.0 * gnorm_m1 * float(model.abs3.sum()) / (3.0 * n * s3)
    return {
        "five_index_term": sum_term,
        "sqrt_term": sqrt_term,
        "final_term_variance": final_var,
        "final_term_third_moment": final_third,
        "total": sum_term + sqrt_term + final_var,
        "total_third_moment_variant": sum_term + sqrt_term + final_third,
    }


def bound_prelimit_distance(model: ArrayModel, gnorm_m1: float) -> float:
    """Pre-limit distance bound: five-index sum + 2|g|/sqrt(n) + final
    variance term."""
    return bound_prelimit_distance_report(model, gnorm_m1)["total"]


def bound_beta3(
    n: int, s_n: float, beta3: float, c, sigma_sq_total: float, gnorm_m1: float
) -> float:
    """Simplified bound under E|X_ik|^3 <= beta3 for all entries:

    |g| ( 58 b3 n^2 / ((n-1) s^3) + 8 b3^(1/3) sum|c_ir c_jr| / (n(n-1)s^3)
          + 2/sqrt(n) + 4 sum sigma^2 / (3 n s^2) ).
    """
    if beta3 < 0 or s_n <= 0:
        raise ModelError("need beta3 >= 0 and s_n > 0")
    absc = np.abs(np.asarray(c, dtype=float))
    v_col = absc.sum(axis=0)
    c_term_sum = float(v_col @ v_col)  # sum_{i,j,r} |c_ir c_jr|
    s3 = s_n**3
    return gnorm_m1 * (
        58.0 * beta3 * n**2 / ((n - 1) * s3)
        + 8.0 * beta3 ** (1.0 / 3.0) * c_term_sum / (n * (n - 1) * s3)
        + 2.0 / math.sqrt(n)
        + 4.0 * sigma_sq_total / (3.0 * n * s_n**2)
    )


def assumption_diagnostic(model: ArrayModel, grid: Sequence) -> list[dict]:
    """Finite-n left-hand sides of the two continuous-limit conditions on
    a (t, u) grid; diagnostic only, no pass/fail.

    lhs1(t,u) = (1/(s^2 (n-1))) sum_{i<=floor(nt), j<=floor(nu), k}
                    E[X_ik X_jk] (delta_ij - 1/n)
    lhs2(t,u) = (1/s^2) sum_{i<=floor(nt), j<=floor(nu), l} E[X_il X_jl]
    """
    n = model.n
    s2 = s_n_squared(model)
    times = [as_time(t) for t in grid]
    b2_prefix = np.concatenate([[0.0], np.cumsum(model.abs2.sum(axis=1))])
    c_prefix = np.concatenate(
        [np.zeros((1, n)), np.cumsum(model.c, axis=0)], axis=0
    )
    c2_prefix = np.concatenate([[0.0], np.cumsum((model.c**2).sum(axis=1))])
    rows = []
    for t in times:
        for u in times:
            kt, ku = int(n * t), int(n * u)
            km = min(kt, ku)
            cross = float(c_prefix[kt] @ c_prefix[ku])  # includes i = j
            off_diag = cross - c2_prefix[km]
            lhs1 = (b2_prefix[km] * (1.0 - 1.0 / n) - off_diag / n) / (s2 * (n - 1))
            lhs2 = (b2_prefix[km] + off_diag) / s2
            rows.append(
                {
                    "t": str(t),
                    "u": str(u),
                    "assumption1": lhs1,
                    "assumption2": lhs2,
                }
            )
    return rows
