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
(factorized to O(n^2) aggregates; the naive O(n^5) loop that pins it is
the tests' oracle in tests/oracles.py) plus the 2/sqrt(n) remainder term
and a final variance term; a third-moment variant of the final term is
reported alongside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functionals import CylinderFunctional
from .mc import MEMORY_BUDGET, SeedSpec
from .paths import as_time, grid_rows, time_rows

__all__ = [
    "KIND",
    "DIM",
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
    "sample_trials",
    "pair_moves",
    "regression_residual",
    "zhat_cov_matrix",
    "prelimit_cov",
    "TOL_IDENTITIES",
    "covariance_identities",
    "increment_cov_check",
    "sample_y_values",
    "sample_zhat_values",
    "sample_dn_values",
    "pair_norm_stats",
    "eps3_values",
    "bound_prelimit",
    "bound_prelimit_distance_report",
    "bound_beta3",
    "bound_table",
    "MEMORY_BUDGET",
]

KIND, DIM = "array", 1  # report kind, path dimension
TOL_IDENTITIES = ()  # the array has no closed-form covariance identity

_FAM_CONSTANT, _FAM_GAUSSIAN, _FAM_RADEMACHER, _FAM_TWO_POINT = range(4)

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


def _entry_law(helper):
    """An entry helper whose moments overflow a float (``x**3`` raises
    OverflowError) raises ModelError instead, naming the law."""

    @functools.wraps(helper)
    def build(*params):
        try:
            return helper(*params)
        except OverflowError as exc:
            raise ModelError("the moments of %s(%s) overflow a float"
                             % (helper.__name__, ", ".join(map(str, params)))) from exc

    return build


@_entry_law
def constant_entry(value: float) -> EntrySpec:
    v = float(value)
    return EntrySpec(_FAM_CONSTANT, v, mean=v, var=0.0, abs1=abs(v), abs3=abs(v) ** 3)


@_entry_law
def gaussian_entry(mean: float, var: float) -> EntrySpec:
    mean, var = float(mean), float(var)
    if var < 0:
        raise ModelError("variance must be nonnegative")
    if var == 0:
        return constant_entry(mean)
    sd = math.sqrt(var)
    m1, m3 = _abs_moments_gaussian(mean, sd)
    return EntrySpec(_FAM_GAUSSIAN, mean, sd, mean=mean, var=var, abs1=m1, abs3=m3)


@_entry_law
def rademacher_entry(mean: float, scale: float) -> EntrySpec:
    """X = mean + scale * R with R = +-1 equally likely."""
    mean, scale = float(mean), float(scale)
    m1 = 0.5 * (abs(mean + scale) + abs(mean - scale))
    m3 = 0.5 * (abs(mean + scale) ** 3 + abs(mean - scale) ** 3)
    return EntrySpec(
        _FAM_RADEMACHER, mean, scale, mean=mean, var=scale**2, abs1=m1, abs3=m3
    )


@_entry_law
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
        # Rows whose entry law is the same in every column: their pick
        # X_{i,pi(i)} has that law whatever pi is, so the Y sampler draws
        # it without pi.  Row reductions of the law arrays make no (n, n)
        # temporary.
        self._flat_row = np.logical_and.reduce(
            [a.min(axis=1) == a.max(axis=1)
             for a in (self._gc, self._gvar, self._q, self._lo, self._hi)])
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
        """Model of a model file's array object.  A field that its preset,
        or an entry's law, does not read is refused, and so is a
        deterministic preset's n that differs from its matrix's."""
        preset = d.get("preset")
        if preset is not None:
            if not isinstance(preset, str) or preset not in _PRESET_FIELDS:
                raise ModelError("unknown preset %r" % preset)
            _refuse_unread(d, _PRESET_FIELDS[preset], "preset %r" % preset)
        if preset == "iid-gaussian":
            return cls.iid_gaussian(int(d["n"]))
        if preset == "iid-rademacher":
            return cls.iid_rademacher(int(d["n"]), float(d.get("scale", 1.0)))
        if preset == "deterministic":
            model = cls.deterministic(d.get("matrix"))
            if "n" in d and int(d["n"]) != model.n:
                raise ModelError("n = %r does not match the %d x %d matrix"
                                 % (d["n"], model.n, model.n))
            return model
        _refuse_unread(d, ("type", "n", "entries"), "an entries model")
        n = int(d["n"])
        ids = {constant_entry(0.0): 0}
        index = _constant_index(n)
        seen: dict = {}
        for pos, item in enumerate(d["entries"], 1):
            # a coordinate reads as n does: 2.0 is 2, and 1.7 is refused
            for key in ("i", "j"):
                if not float(item[key]).is_integer():
                    raise ModelError("entry %d: %s = %r is not an integer" % (pos, key, item[key]))
            i, j = int(item["i"]) - 1, int(item["j"]) - 1
            if not (0 <= i < n and 0 <= j < n):
                raise ModelError("entry (%d, %d) outside 1..%d" % (i + 1, j + 1, n))
            if (i, j) in seen:
                raise ModelError("entry %d: (%d, %d) is already given by entry %d"
                                 % (pos, i + 1, j + 1, seen[i, j]))
            seen[i, j] = pos
            dist = item["dist"]
            if not isinstance(dist, str) or dist not in _ENTRY_LAWS:
                raise ModelError("unknown dist %r" % dist)
            law, fields = _ENTRY_LAWS[dist]
            _refuse_unread(item, ("i", "j", "dist") + fields, "entry %d (%s)" % (pos, dist))
            e = law(*(item.get(f, 0.0) if f == "mean" else item[f] for f in fields))
            index[i, j] = ids.setdefault(e, len(ids))
        return cls(list(ids), index)


# the fields a model file's array object may hold, by preset
_PRESET_FIELDS = {
    "iid-gaussian": ("type", "preset", "n"),
    "iid-rademacher": ("type", "preset", "n", "scale"),
    "deterministic": ("type", "preset", "n", "matrix"),
}
# each entry law's helper and the fields it reads, in argument order; a
# missing mean is 0
_ENTRY_LAWS = {
    "constant": (constant_entry, ("value",)),
    "gaussian": (gaussian_entry, ("mean", "var")),
    "rademacher-shifted": (rademacher_entry, ("mean", "scale")),
    "two-point": (two_point_entry, ("x1", "p1", "x2")),
}


def _refuse_unread(d: dict, fields: tuple, what: str) -> None:
    """ModelError naming the fields of d outside `fields`, which `what` reads."""
    unread = sorted(set(d) - set(fields))
    if unread:
        raise ModelError("%s takes no field %s" % (what, ", ".join(map(repr, unread))))


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


def _ends(rows: np.ndarray) -> np.ndarray:
    """The sorted distinct rows > 0; np.unique here would import numpy.ma."""
    return np.flatnonzero(np.bincount(rows)[1:]) + 1


def _runs(starts: np.ndarray, ends: np.ndarray):
    """Runs of the rows 0..m-1, m = ends[-1] (ends as _block_sums takes
    them): a run starts where the bool array `starts` (length m, starts[0]
    set) is set and after every end but the last, so no run straddles an
    end.  Returns each run's first row, its length, and the index of the
    first run of each block (e_{a-1}, e_a]."""
    m = int(ends[-1])
    starts = starts.copy()
    starts[ends[:-1]] = True
    first = np.flatnonzero(starts)
    return first, np.diff(np.append(first, m)), np.searchsorted(first, np.append(0, ends[:-1]))


def _half_binomial(rng: np.random.Generator, b: np.ndarray, shape) -> np.ndarray:
    """(len(b),) + shape int64 draws of K_j ~ Binomial(b_j, 1/2): the
    popcount of b_j random bits.  Each draw takes ceil(max(b) / 64) raw
    64-bit words of the bit generator, word w masked to its first
    min(64, b_j - 64 w) bits (none once b_j is spent); the words are drawn
    one (len(b),) + shape plane at a time, w outer."""
    k = np.zeros((b.size,) + tuple(shape), dtype=np.int64)
    lead = (-1,) + (1,) * len(shape)
    for w in range(-(-int(b.max()) // 64)):
        bits = np.clip(b - 64 * w, 0, 64).tolist()
        mask = np.array([(1 << x) - 1 for x in bits], dtype=np.uint64).reshape(lead)
        words = rng.bit_generator.random_raw(k.size).reshape(k.shape)
        k += np.bitwise_count(np.bitwise_and(words, mask, out=words))
    return k


def _low_counts(rng: np.random.Generator, b: np.ndarray, q, spread, shape) -> np.ndarray:
    """(len(b),) + shape draws of K ~ Binomial(b_j, q), the number of low
    values in a run of b_j two-point draws; q and spread (low minus high
    value) broadcast against that shape.  A count where spread is 0 is
    never read, so when every other q is 1/2 the counts are popcounts
    (_half_binomial); otherwise they are rng.binomial's."""
    if ((q == 0.5) | (spread == 0)).all():
        return _half_binomial(rng, b, shape)
    return rng.binomial(b.reshape((-1,) + (1,) * len(shape)), q, (b.size,) + tuple(shape))


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
    model: ArrayModel, rng: np.random.Generator, count: int
) -> CombinatorialRealization:
    """count (X, pi) draws stacked on a leading trial axis: every X
    entrywise, then every pi uniform (Fisher-Yates on each row); at
    count = 1 pi is rng.permutation(n) bit for bit."""
    x = _sample_full(model, rng, count)
    pi = rng.permuted(np.tile(np.arange(model.n), (count, 1)), axis=1)
    return CombinatorialRealization(model, x, pi, _path_from_diag(model, x, pi))


def pair_moves(real: CombinatorialRealization, rows, h) -> tuple[np.ndarray, np.ndarray]:
    """Every exchangeable pair (Y, Y') of a realization or a stack of them:
    the (..., pairs) values sum_a h[..., a, 0] (Y - Y')(rows[a]/n), and
    each pair's probability given Y, 1/(n(n-1)).

    Y' swaps pi(i) and pi(j) for a uniform ordered pair of distinct rows;
    the pairs are the n(n-1) of them, row major.  The swap moves Y by
    u_ij = X_{i,pi(i)} - X_{i,pi(j)} from row i+1 on and by u_ji from row
    j+1 on: the value is (c_i u_ij + c_j u_ji)/s_n, c_i = sum_a h_a
    1[i+1 <= rows[a]].  The covectors h, (..., len(rows), 1), broadcast
    against the realization's leading axes: unit covectors on an extra
    leading axis give the moves."""
    n = real.n
    c = np.asarray(h)[..., 0] @ (np.arange(1, n + 1)[:, None] <= rows).T  # (..., n)
    u = np.take_along_axis(real.x, real.pi[..., None, :], axis=-1)  # X_{i, pi(j)}
    np.subtract(_picks(real.x, real.pi)[..., :, None], u, out=u)
    moves = c[..., :, None] * u
    moves += c[..., None, :] * u.swapaxes(-1, -2)
    del u
    # the off-diagonal entries, row major: past entry (0, 0) each run of
    # n + 1 entries ends on a diagonal one
    lead = moves.shape[:-2]
    runs = moves.reshape(lead + (n * n,))[..., 1:].reshape(lead + (n - 1, n + 1))
    out = runs[..., :n].reshape(lead + (n * (n - 1),))
    out /= real.model.s_n
    return out, np.broadcast_to(1.0 / (n * (n - 1)), real.pi.shape[:-1] + out.shape[-1:])


def regression_residual(
    real: CombinatorialRealization, funcs: Sequence[CylinderFunctional]
) -> np.ndarray:
    """(len(funcs), ...) residuals |LHS - RHS| of the exchangeable-pair
    linear regression identity, for a realization or a stack of them, one
    row per functional.

    LHS = E^Y Df(Y)[Y - Y'] is the sum of ``pair_moves`` with the
    covectors g_a of f's gradient, weighted by the pairs' probabilities;
    RHS is (2/(n-1)) (Df(Y)[Y] - (1/(n s_n)) sum_{i,j} Df(Y)[X_{i,pi(j)} 1_[i/n,1]]).
    Both sides are exact given the realization (the pair average is a
    finite sum and Df(Y)[.] is linear), so the residual is roundoff only.
    """
    n, s, lead = real.n, real.model.s_n, real.values.shape[:-2]
    row_prefix = np.zeros(lead + (n + 1,))
    np.cumsum(real.x.sum(axis=-1), axis=-1, out=row_prefix[..., 1:])

    # one call per functional, so its (..., n, n) arrays are freed before
    # the next functional's are built; a gradient past the float range
    # gives a non-finite residual, which the check reports, on any thread
    def residual(f: CylinderFunctional) -> np.ndarray:
        cuts = f.rows(n)
        x = real.values[..., cuts, 0]
        grads = f.grad_stacked(x)
        with np.errstate(over="ignore", invalid="ignore"):
            moves, prob = pair_moves(real, cuts, grads[..., None])
            moves *= prob
            df_y = np.einsum("...a,...a->...", grads, x)
            correction = np.einsum("...a,...a->...", grads, row_prefix[..., cuts]) / (n * s)
            return np.abs(moves.sum(axis=-1) - 2.0 / (n - 1) * (df_y - correction))

    return np.array([residual(f) for f in funcs]).reshape((len(funcs),) + lead)


def zhat_cov_matrix(model: ArrayModel) -> np.ndarray:
    n = model.n
    out = -(model.c @ model.c.T) / (n * (n - 1))
    np.fill_diagonal(out, model.abs2.sum(axis=1) / n)
    return out


def _box_sums(c: np.ndarray, d: np.ndarray, w: float, rows: np.ndarray) -> np.ndarray:
    """(r, r) sums over the index boxes i <= k_s, j <= k_t, at r sorted
    distinct rows k, of the matrix w c_i.c_j + 1[i = j] d_i (c_i row i of
    c): w C_{k_s}.C_{k_t} + D_{min(k_s, k_t)}, from the prefix row sums
    C_k = sum_{i <= k} c_i and the cumulative diagonal D_k = sum_{i <= k} d_i.
    O(mn + r^2 n), m = max(rows).  Each dot product is one pairwise sum over
    the columns, so a box's value does not depend on the other rows; it is
    formed once, for k_t >= k_s, and mirrored."""
    m = int(rows[-1]) if rows.size else 0
    prefix = np.zeros((m + 1, c.shape[1]))
    np.cumsum(c[:m], axis=0, out=prefix[1:])
    diag = np.zeros(m + 1)
    np.cumsum(d[:m], out=diag[1:])
    at = prefix[rows]
    dots = np.empty((rows.size, rows.size))
    for i, row in enumerate(at):
        dots[i, i:] = dots[i:, i] = (row * at[i:]).sum(axis=1)
    return w * dots + diag[np.minimum.outer(rows, rows)]


def prelimit_cov(model: ArrayModel, times: Sequence) -> np.ndarray:
    """(k, k) closed-form Cov(D_n(s), D_n(t)) over the times: the Zhat
    covariance matrix summed over the index box of their rows floor(n t),
    over s_n^2.  Off its diagonal that matrix is -c_i.c_j / (n(n-1)), so
    _box_sums gives each pair of distinct rows once, and they are gathered
    to the times."""
    n, c = model.n, model.c
    rows, at = np.unique(time_rows(n, [as_time(t) for t in times]), return_inverse=True)
    d = model.abs2.sum(axis=1) / n + (c * c).sum(axis=1) / (n * (n - 1))
    return _box_sums(c, d, -1.0 / (n * (n - 1)), rows)[np.ix_(at, at)] / s_n_squared(model)


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
                      with K ~ Bin(b, q) the number of lo values
                      (_low_counts: popcounts where q = 1/2).
    Rows after the last end enter only through the column sums in Zbar,
    which take one N(0, n - e_last) normal per column.  When every run is
    one row (b = 1) this is the entrywise computation, with one uniform per
    two-point entry.  Per-run variates are laid out runs outer, samples
    inner, as in the Y and eps3 samplers.

    When every row up to e_last is flat (ArrayModel._flat_row) with no
    two-point part and mean 0, the blocks come from _wishart_block_sums
    instead, at O(r^2) variates a sample for the r <= n runs.
    """
    n = model.n
    if not ends.size:
        return np.zeros((size, 0))
    m = int(ends[-1])
    first, b, block_first = _runs(model._run_start[:m], ends)
    r = first.size
    if model._flat_row[:m].all() and not (
            model._gc[:m, 0].any() or model._lo[:m, 0].any() or model._hi[:m, 0].any()):
        out = _wishart_block_sums(rng, size, n, b, model._gvar[first, 0], block_first)
        out /= math.sqrt(n - 1)
        return out
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
            k_lo = _low_counts(rng, b, q, spread[:, None], (s, n))
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


def _wishart_block_sums(
    rng: np.random.Generator, size: int, n: int, b: np.ndarray, var: np.ndarray,
    block_first: np.ndarray,
) -> np.ndarray:
    """(size, len(block_first)) block sums of sqrt(n-1) Zhat, as _block_sums
    draws them, for r = len(b) <= n runs of b_R flat rows with per-run
    variance var_R and zero means, blocks starting at runs block_first.

    The run sums U_Rl = sqrt(b_R) E_Rl have columns E_l iid N(0, I - beta
    beta^T), beta_R = sqrt(b_R/n), and run R adds N(0, var_R (||E_R||^2 +
    chi^2_{n(b_R-1)})).  The ||E_R||^2 are the diagonal of a
    Wishart_r(I - beta beta^T, n) matrix: the squared norms of the rows of
    M T, with M = I - c beta beta^T the symmetric root of I - beta beta^T
    (c = (1 - sqrt(1 - m/n))/(m/n), m = sum b; at r = n, c = 1 and M is
    the centring projection) and T the lower-triangular Bartlett factor,
    T_kk^2 ~ chi^2_{n-k+1} and T_kj ~ N(0, 1) for k > j.
    Per sub-block of samples the draws are T's r(r-1)/2 normals (row k,
    then column j < k, outer), its r diagonal chi-squares (rows outer), one
    chi-square per run of b > 1 (runs outer) and one normal per block
    (blocks outer), each with samples inner: O(r^2) variates a sample.
    """
    r = b.size
    beta = np.sqrt(b / n)
    c = 1.0 / (1.0 + math.sqrt(1.0 - b.sum() / n))  # the form above, without cancellation
    diag = np.arange(r)
    multi = np.flatnonzero(b > 1)
    out = np.empty((size, block_first.size))
    for lo, hi in _blocks(size, r, r):
        s = hi - lo
        t = np.zeros((r, r, s))
        for k in range(1, r):
            rng.standard_normal(out=t[k, :k])
        t[diag, diag] = np.sqrt(rng.chisquare((n - diag)[:, None], (r, s)))
        # ||T_R - c beta_R w||^2 expanded, w = beta^T T: no second (r, r, s) plane
        w = (beta @ t.reshape(r, -1)).reshape(r, s)
        norm = np.einsum("rjs,rjs->rs", t, t)
        norm -= (2.0 * c * beta)[:, None] * np.einsum("rjs,js->rs", t, w)
        norm += ((c * beta) ** 2)[:, None] * np.einsum("js,js->s", w, w)
        np.maximum(norm, 0.0, out=norm)  # rounding can leave a norm near 0 below it
        if multi.size:
            norm[multi] += rng.chisquare(n * (b[multi, None] - 1), (multi.size, s))
        norm *= var[:, None]
        if r > block_first.size:
            norm = np.add.reduceat(norm, block_first, axis=0)
        out[lo:hi] = (np.sqrt(norm) * rng.standard_normal((block_first.size, s))).T
    return out


def sample_zhat_values(model: ArrayModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, n) draws of (Zhat_1, ..., Zhat_n)."""
    return _block_sums(model, rng, size, np.arange(1, model.n + 1))


def covariance_identities(model: ArrayModel, times: Sequence, cov: np.ndarray, note: str,
                          tol: float, seed: SeedSpec) -> list[tuple]:
    """verify-covariance's closed-form checks: none for the array."""
    return []


def increment_cov_check(model: ArrayModel) -> tuple:
    """verify-covariance's Monte Carlo check of the increments, as (name,
    sample, cov): zhat_cov_mc, Zhat's draws against zhat_cov_matrix.  Zhat
    is in units of 2^e, the least power of two above s_n: exact, so no |z|
    changes, and its products' squared deviations stay finite at any entry
    scale (unscaled, they overflow from entries near 1e76)."""
    unit = math.ldexp(1.0, -math.frexp(model.s_n)[1])
    return ("zhat_cov_mc", lambda rng, size: unit * sample_zhat_values(model, rng, size),
            zhat_cov_matrix(model) * (unit * unit))


def sample_dn_values(
    model: ArrayModel, rng: np.random.Generator, size: int, cuts=None
) -> np.ndarray:
    """(size, len(cuts)) values of D_n at t = k/n for k in cuts (default:
    every k = 0..n); only the sums of Zhat between consecutive cuts are
    drawn."""
    rows, _ = grid_rows(model.n, cuts)
    ends = _ends(rows)
    sums = _block_sums(model, rng, size, ends)
    return _at_rows(sums, np.searchsorted(ends, rows, side="right"), model.s_n)


def sample_y_values(
    model: ArrayModel, rng: np.random.Generator, size: int, cuts=None
) -> np.ndarray:
    """(size, len(cuts)) values of Y_n at t = k/n for k in cuts (default:
    every k = 0..n); only rows up to m = max(cuts) are drawn.

    The rows split into runs as in _block_sums, and every row not in
    ArrayModel._flat_row is a run of its own.  A flat row's pick has the
    row's law whatever pi is, so a run of b flat rows (all of one law)
    adds one draw of its sum: N(b gc, b gvar) plus lo K + hi (b - K), with
    K ~ Bin(b, q) from _low_counts.  Every other row takes its pick
    X_{i,pi(i)} through pi, which is drawn only if such a row is <= m.
    Samples are filled in sub-blocks whose (block, n) planes (pi's, or
    (block, runs) without pi) take at most _PLANE_BYTES / 2; per sub-block
    the draws are pi's uniforms, the picks (as _draw takes them, rows
    outer), then the runs' normals and counts.
    """
    n = model.n
    rows, _ = grid_rows(n, cuts)
    ends = _ends(rows)
    if not ends.size:
        return np.zeros((size, rows.size))
    m = ends[-1]
    first, b, _ = _runs(model._run_start[:m] | ~model._flat_row[:m], ends)
    at = np.searchsorted(first + b, rows, side="right")
    flat = model._flat_row[first]
    picked = first[~flat]
    # the law of each run of flat rows, read in its first column
    gc, gvar, q, lo, hi = (a[first[flat], 0] for a in
                           (model._gc, model._gvar, model._q, model._lo, model._hi))
    b = b[flat]
    out = np.empty((size, rows.size))
    for start, stop in _blocks(size, 2, n if picked.size else first.size):
        s = stop - start
        steps = np.empty((s, first.size))
        if picked.size:
            pi = np.argsort(rng.random((s, n)), axis=1)[:, picked]
            steps[:, ~flat] = _draw(model, rng, (picked.size, s), (picked[:, None], pi.T)).T
        if b.size:
            x = np.repeat((b * gc)[:, None], s, axis=1)
            if gvar.any():
                x += np.sqrt(b * gvar)[:, None] * rng.standard_normal((b.size, s))
            if (lo != hi).any():
                k = _low_counts(rng, b, q[:, None], (lo - hi)[:, None], (s,))
                x += (lo - hi)[:, None] * k + (b * hi)[:, None]
            steps[:, flat] = x.T
        out[start:stop] = _at_rows(steps, at, model.s_n)
    return out


def pair_norm_stats(model: ArrayModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draws of ||(Y-Y') Lambda_n|| * ||Y-Y'||^2 with Lambda_n = (n-1)/4.

    Only the four affected entries matter: with rows (I,J) and columns
    (pi(I), pi(J)) uniform ordered distinct pairs, Y-Y' jumps by
    u = X_{I pi(I)} - X_{I pi(J)} at I/n and v = X_{J pi(J)} - X_{J pi(I)}
    at J/n, so the sup norm is max(|first jump alone|, |u+v|)/s_n.  Each
    ordered pair is a uniform index below n and a uniform index below n - 1
    that steps past the first.
    """
    n = model.n
    i_, j_, k_, l_ = (rng.integers(0, n - shift, size) for shift in (0, 1, 0, 1))
    j_ += j_ >= i_
    l_ += l_ >= k_
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
    entry by entry.  When every row up to m is flat (ArrayModel._flat_row)
    no pi is drawn: a flat row's columns are iid and pi is independent of
    them, so its (pick, row sum) has the same joint law with the pick read
    in column 0, and the law arrays are read there as (m, 1) columns.
    """
    n, s = model.n, model.s_n
    rows, m = grid_rows(n, f.rows(n))
    flat = model._flat_row[:m].all()
    row_c = model._gc[:m].sum(axis=1)[:, None]
    row_var = model._gvar[:m].sum(axis=1)[:, None]

    def prefix_at_rows(x: np.ndarray) -> np.ndarray:
        """(block, k) sums of the (m, block) rows x below the functional's rows."""
        grid = np.zeros((m + 1, x.shape[1]))
        np.cumsum(x, axis=0, out=grid[1:])
        return grid[rows].T

    out = np.empty(size)
    for lo, hi in _blocks(size, m, n):
        b = hi - lo
        if flat:
            pi = np.zeros((m, 1), dtype=np.intp)
        else:
            pi = np.argsort(rng.random((b, n)), axis=1)[:, :m].T
        idx = (np.arange(m)[:, None], pi)
        picks = model._gc[idx]  # (m, 1) or (m, b), as pi
        row_sums = np.repeat(row_c, b, axis=1)
        if model._has_gauss:
            pick_gauss = model._gsd[idx] * rng.standard_normal((m, b))
            rest_sd = np.sqrt(np.maximum(row_var - model._gvar[idx], 0.0))
            picks = picks + pick_gauss
            row_sums += pick_gauss + rest_sd * rng.standard_normal((m, b))
        if model._has_discrete:
            x = _two_point(model, rng, (m, b, n), np.s_[:m, None])
            picks = picks + np.take_along_axis(x, pi[:, :, None], axis=2)[:, :, 0]
            row_sums += x.sum(axis=2)
        grads = f.grad_stacked(prefix_at_rows(np.broadcast_to(picks, (m, b))) / s)  # dim 1
        out[lo:hi] = np.einsum("sk,sk->s", grads, prefix_at_rows(row_sums)) / (n * s)
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


def bound_prelimit(model: ArrayModel, gnorm: float) -> float:
    """Pre-limit distance bound: five-index sum + 2|g|/sqrt(n) + final
    variance term, |g| the M1 norm."""
    return bound_prelimit_distance_report(model, gnorm)["total"]


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


def bound_table(model: ArrayModel, gnorm: float) -> dict:
    """bound's named bounds at |g| = gnorm, in report order: every term of
    bound_prelimit_distance_report, then bound_beta3 at the model's largest
    third absolute moment."""
    table = bound_prelimit_distance_report(model, gnorm)
    table["simplified_beta3"] = bound_beta3(
        model.n, model.s_n, float(model.abs3.max()), model.c, float(model.sigma2.sum()), gnorm)
    return table
