"""Cylinder test functionals g(w) = phi(w(t_1), ..., w(t_k)).

A cylinder functional touches the path only through its values at finitely
many times, so its Frechet derivatives reduce to the gradient and Hessian
of the finite-dimensional base map phi: R^(k*p) -> R:

    Dg(w)[h]        = sum_a <grad_a phi(x), h(t_a)>,
    D^2g(w)[h1,h2]  = sum_{a,b} h1(t_a)^T H_ab(x) h2(t_b),

with x the stacked vector (w(t_1), ..., w(t_k)), shape (k*p,).  That vector,
optionally with leading batch axes, is the one argument every evaluation
takes: a grid path's rows ``rows(n)``, flattened, or a target's draws.

Built-in bases (sine, cosine, tanh products, linear evaluations) carry
hand-certified sup constants, from which sound upper bounds for the
weighted functional norms are assembled.  The bounds are conservative by
design: every distance bound downstream is monotone increasing in the
norm, so an upper bound preserves validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .paths import as_time, time_rows

__all__ = [
    "FunctionalError",
    "UnsupportedFunctionalError",
    "NormCertificate",
    "NormBound",
    "CylinderFunctional",
    "norm_upper_bound",
    "sin_cylinder",
    "cos_cylinder",
    "tanh_product",
    "linear_cylinder",
    "numeric_cylinder",
    "parse_functional",
    "certified_library",
    "FUNCTIONAL_SPEC_HELP",
    "validate_derivatives",
]

# max over r >= 0 of r/(1+r^3), attained at r = 2^(-1/3)
_LIN_WEIGHT_SUP = 2.0 ** (2.0 / 3.0) / 3.0


class FunctionalError(ValueError):
    pass


class UnsupportedFunctionalError(FunctionalError):
    """Functional lacks the certified sup bounds needed for a norm class."""


@dataclass(frozen=True)
class NormCertificate:
    """Hand-certified sup constants for a cylinder base.

    sup_abs            -- sup |phi|, or None if phi is unbounded
    sup_abs_over_cubic -- a bound for sup |phi(x)| / (1 + max_a |x_a|^3)
    grad_block_sups    -- per time block a, a bound for sup |grad_a phi|_2
    hess_block_sups    -- (k,k) bounds for sup of the operator norm of H_ab
    hess_lipschitz     -- Lipschitz constant of the full phi-Hessian in
                          operator norm w.r.t. Euclidean distance on R^(k*p)
    """

    sup_abs: float | None
    sup_abs_over_cubic: float | None
    grad_block_sups: tuple
    hess_block_sups: tuple
    hess_lipschitz: float


@dataclass(frozen=True)
class NormBound:
    norm_class: str  # "M0" | "M1" | "M2" | "M"
    value: float


class CylinderFunctional:
    """Smooth functional of finitely many path evaluations.

    Parameters
    ----------
    dim : int
        Path dimension p.
    times : sequence of Fraction
        Strictly increasing evaluation times in [0,1].
    base : object
        Smooth map with vectorized ``value(x)``, ``grad(x)``, ``hess(x)``
        over a trailing axis of length k*p, and optionally a
        ``certificate`` attribute (NormCertificate).
    """

    def __init__(self, dim: int, times: Sequence, base, label: str = "") -> None:
        ts = tuple(as_time(t) for t in times)
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise FunctionalError("times must be strictly increasing")
        if not ts:
            raise FunctionalError("need at least one evaluation time")
        self.dim = dim
        self.times = ts
        self.k = len(ts)
        self.base = base
        self.label = label or type(base).__name__

    @property
    def n_args(self) -> int:
        return self.k * self.dim

    def rows(self, n: int) -> np.ndarray:
        """Rows floor(n t_a) of a grid path's (n+1, dim) values that the
        functional reads; the rows' values, flattened, are its argument."""
        return time_rows(n, self.times)

    # evaluation on stacked arguments x, shape (..., k*dim)
    def value_stacked(self, x: np.ndarray) -> np.ndarray:
        return self.base.value(x)

    def grad_stacked(self, x: np.ndarray) -> np.ndarray:
        return self.base.grad(x)

    def hess_stacked(self, x: np.ndarray) -> np.ndarray:
        return self.base.hess(x)

    def certificate(self) -> NormCertificate | None:
        return getattr(self.base, "certificate", None)

    def __repr__(self) -> str:
        return "CylinderFunctional(%s, dim=%d, k=%d)" % (self.label, self.dim, self.k)


def norm_upper_bound(g: CylinderFunctional, norm_class: str) -> NormBound:
    """Sound upper bound for the functional norm of the given class.

    All four classes share the derivative terms

        sum_a sup|grad_a phi|_2  +  sum_{a,b} sup||H_ab||_op  +  k^(3/2) L_H,

    where the last term dominates the Hessian-Lipschitz quotient: for
    |delta| the Euclidean length of the stacked perturbation,
    |delta| <= sqrt(k) ||h|| and the quadratic form loses another factor
    k from the stacked unit direction.  The zeroth-order term is sup|phi|
    for M0 and the certified sup of |phi|/(1+||w||^3) otherwise; the
    (1+||w||)-type weights in M1/M2/M are dropped (bounds stay sound).
    """
    cert = g.certificate()
    if cert is None:
        raise UnsupportedFunctionalError(
            "%s has no certified sup bounds" % g.label
        )
    if norm_class not in ("M0", "M1", "M2", "M"):
        raise FunctionalError("unknown norm class %r" % norm_class)
    if norm_class == "M0":
        value_term = cert.sup_abs
    else:
        value_term = cert.sup_abs_over_cubic
    if value_term is None:
        raise UnsupportedFunctionalError(
            "%s lacks the sup bound required for %s" % (g.label, norm_class)
        )
    deriv = float(np.sum(cert.grad_block_sups))
    hess = float(np.sum(cert.hess_block_sups))
    lip = g.k ** 1.5 * cert.hess_lipschitz
    return NormBound(norm_class, float(value_term) + deriv + hess + lip)


# ---------------------------------------------------------------------------
# built-in bases


class _TrigBase:
    """phi(x) = fn(x[idx]) for fn in {sin, cos}."""

    def __init__(self, fn: str, idx: int, n_args: int):
        self.fn = fn
        self.idx = idx
        self.n_args = n_args
        self.certificate = None  # set by factory

    def value(self, x):
        u = np.asarray(x)[..., self.idx]
        return np.sin(u) if self.fn == "sin" else np.cos(u)

    def grad(self, x):
        x = np.asarray(x)
        u = x[..., self.idx]
        out = np.zeros_like(x)
        out[..., self.idx] = np.cos(u) if self.fn == "sin" else -np.sin(u)
        return out

    def hess(self, x):
        x = np.asarray(x)
        u = x[..., self.idx]
        out = np.zeros(x.shape + (self.n_args,))
        out[..., self.idx, self.idx] = -np.sin(u) if self.fn == "sin" else -np.cos(u)
        return out


class _TanhProdBase:
    """phi(x) = prod_m tanh(x[idx_m]) over distinct flat indices."""

    def __init__(self, indices: tuple, n_args: int):
        if len(set(indices)) != len(indices):
            raise FunctionalError("tanh product factors must be distinct")
        self.indices = tuple(indices)
        self.n_args = n_args
        self.certificate = None

    def value(self, x):
        x = np.asarray(x)
        out = np.ones(x.shape[:-1])
        for i in self.indices:
            out = out * np.tanh(x[..., i])
        return out

    def grad(self, x):
        x = np.asarray(x)
        t = np.tanh(x[..., self.indices])            # (..., m)
        out = np.zeros_like(x)
        for pos, i in enumerate(self.indices):
            others = np.prod(np.delete(t, pos, axis=-1), axis=-1)
            out[..., i] = (1.0 - t[..., pos] ** 2) * others
        return out

    def hess(self, x):
        x = np.asarray(x)
        t = np.tanh(x[..., self.indices])
        sech2 = 1.0 - t**2
        out = np.zeros(x.shape + (self.n_args,))
        m = len(self.indices)
        for a in range(m):
            for b in range(m):
                rest = np.prod(
                    np.delete(t, [a, b] if a != b else [a], axis=-1), axis=-1
                )
                ia, ib = self.indices[a], self.indices[b]
                if a == b:
                    out[..., ia, ia] = -2.0 * t[..., a] * sech2[..., a] * rest
                else:
                    out[..., ia, ib] = sech2[..., a] * sech2[..., b] * rest
        return out


class _LinearBase:
    """phi(x) = sum_f weights[f] * x[f]."""

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)
        self.n_args = self.weights.size
        self.certificate = None

    def value(self, x):
        return np.asarray(x) @ self.weights

    def grad(self, x):
        x = np.asarray(x)
        return np.broadcast_to(self.weights, x.shape).copy()

    def hess(self, x):
        x = np.asarray(x)
        return np.zeros(x.shape + (self.n_args,))


class _NumericBase:
    """Base defined by a vectorized callable; derivatives by central FD.

    No certificate: norm bounds are unsupported for numeric bases.
    """

    def __init__(self, value_fn: Callable[[np.ndarray], np.ndarray], n_args: int, step: float = 1e-4):
        self.value_fn = value_fn
        self.n_args = n_args
        self.step = step

    def value(self, x):
        return self.value_fn(np.asarray(x, dtype=float))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        h = self.step
        out = np.empty(x.shape)
        for i in range(self.n_args):
            e = np.zeros(self.n_args)
            e[i] = h
            out[..., i] = (self.value_fn(x + e) - self.value_fn(x - e)) / (2 * h)
        return out

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        h = self.step
        out = np.empty(x.shape + (self.n_args,))
        f0 = self.value_fn(x)
        for i in range(self.n_args):
            ei = np.zeros(self.n_args)
            ei[i] = h
            out[..., i, i] = (
                self.value_fn(x + ei) - 2 * f0 + self.value_fn(x - ei)
            ) / h**2
            for j in range(i + 1, self.n_args):
                ej = np.zeros(self.n_args)
                ej[j] = h
                mixed = (
                    self.value_fn(x + ei + ej)
                    - self.value_fn(x + ei - ej)
                    - self.value_fn(x - ei + ej)
                    + self.value_fn(x - ei - ej)
                ) / (4 * h**2)
                out[..., i, j] = mixed
                out[..., j, i] = mixed
        return out


# ---------------------------------------------------------------------------
# factories


def _single_site_certificate(k: int, block: int, d0: float, d1: float, d2: float, d3: float) -> NormCertificate:
    grad = [0.0] * k
    grad[block] = d1
    hess = [[0.0] * k for _ in range(k)]
    hess[block][block] = d2
    return NormCertificate(
        sup_abs=d0,
        sup_abs_over_cubic=d0,
        grad_block_sups=tuple(grad),
        hess_block_sups=tuple(tuple(r) for r in hess),
        hess_lipschitz=d3,
    )


def _coord_index(coord: int, dim: int) -> int:
    """0-based index of a 1-based path coordinate, which must lie in 1..dim."""
    if not 1 <= coord <= dim:
        raise FunctionalError("coord %d outside 1..%d" % (coord, dim))
    return coord - 1


def sin_cylinder(coord: int, t, dim: int = 1) -> CylinderFunctional:
    """g(w) = sin(w^(coord)(t)); all sup constants equal 1."""
    t = as_time(t)
    base = _TrigBase("sin", _coord_index(coord, dim), dim)
    base.certificate = _single_site_certificate(1, 0, 1.0, 1.0, 1.0, 1.0)
    return CylinderFunctional(dim, [t], base, label="sin:coord=%d,t=%s" % (coord, t))


def cos_cylinder(coord: int, t, dim: int = 1) -> CylinderFunctional:
    """g(w) = cos(w^(coord)(t))."""
    t = as_time(t)
    base = _TrigBase("cos", _coord_index(coord, dim), dim)
    base.certificate = _single_site_certificate(1, 0, 1.0, 1.0, 1.0, 1.0)
    return CylinderFunctional(dim, [t], base, label="cos:coord=%d,t=%s" % (coord, t))


def tanh_product(coords: Sequence[int], times: Sequence, dim: int = 1) -> CylinderFunctional:
    """g(w) = prod_m tanh(w^(coords[m])(times[m])).

    Certified constants for a product of m bounded factors with
    |tanh| <= 1, |tanh'| <= 1, |tanh''| <= 4/(3 sqrt 3), |tanh'''| <= 2:
    each gradient block holds n_a factor entries of size <= 1, each
    Hessian block has operator norm <= sqrt(n_a n_b), and the Hessian is
    2 m^(3/2)-Lipschitz (third-derivative form summed over factor triples
    against a unit stacked direction).
    """
    coords = tuple(int(c) for c in coords)
    raw_times = tuple(as_time(t) for t in times)
    if len(coords) != len(raw_times):
        raise FunctionalError("coords and times must pair up")
    uniq_times = tuple(sorted(set(raw_times)))
    k, m = len(uniq_times), len(coords)
    indices = []
    for c, t in zip(coords, raw_times):
        indices.append(uniq_times.index(t) * dim + _coord_index(c, dim))
    base = _TanhProdBase(tuple(indices), k * dim)

    counts = [0] * k
    for c, t in zip(coords, raw_times):
        counts[uniq_times.index(t)] += 1
    grad = tuple(np.sqrt(c) for c in counts)
    hess = tuple(
        tuple(np.sqrt(ca * cb) for cb in counts) for ca in counts
    )
    base.certificate = NormCertificate(
        sup_abs=1.0,
        sup_abs_over_cubic=1.0,
        grad_block_sups=grad,
        hess_block_sups=hess,
        hess_lipschitz=2.0 * m**1.5,
    )
    label = "tanhprod:coords=%s,t=%s" % (
        ",".join(map(str, coords)),
        ",".join(map(str, raw_times)),
    )
    return CylinderFunctional(dim, uniq_times, base, label=label)


def linear_cylinder(
    coords: Sequence[int], times: Sequence, weights: Sequence[float] | None = None, dim: int = 1
) -> CylinderFunctional:
    """g(w) = sum_m weights[m] * w^(coords[m])(times[m]).

    Unbounded, so M0 is unsupported; the cubic-weighted sup uses
    |g(w)| <= (sum|weights|) ||w|| and max_r r/(1+r^3) = 2^(2/3)/3.
    """
    coords = tuple(int(c) for c in coords)
    raw_times = tuple(as_time(t) for t in times)
    if weights is None:
        weights = [1.0] * len(coords)
    weights = tuple(float(wt) for wt in weights)
    if not len(coords) == len(raw_times) == len(weights):
        raise FunctionalError("coords, times, weights must pair up")
    uniq_times = tuple(sorted(set(raw_times)))
    k = len(uniq_times)
    wvec = np.zeros(k * dim)
    for c, t, wt in zip(coords, raw_times, weights):
        wvec[uniq_times.index(t) * dim + _coord_index(c, dim)] += wt
    base = _LinearBase(wvec)
    blocks = wvec.reshape(k, dim)
    base.certificate = NormCertificate(
        sup_abs=None,
        sup_abs_over_cubic=_LIN_WEIGHT_SUP * float(np.sum(np.abs(wvec))),
        grad_block_sups=tuple(float(np.linalg.norm(b)) for b in blocks),
        hess_block_sups=tuple(tuple(0.0 for _ in range(k)) for _ in range(k)),
        hess_lipschitz=0.0,
    )
    label = "lin:coords=%s,t=%s" % (
        ",".join(map(str, coords)),
        ",".join(map(str, raw_times)),
    )
    return CylinderFunctional(dim, uniq_times, base, label=label)


def numeric_cylinder(
    value_fn: Callable[[np.ndarray], np.ndarray],
    times: Sequence,
    dim: int = 1,
    step: float = 1e-4,
    label: str = "numeric",
) -> CylinderFunctional:
    """Cylinder functional from a vectorized callable; FD derivatives."""
    ts = tuple(as_time(t) for t in times)
    base = _NumericBase(value_fn, len(ts) * dim, step=step)
    return CylinderFunctional(dim, ts, base, label=label)


# ---------------------------------------------------------------------------
# CLI mini-language

FUNCTIONAL_SPEC_HELP = """\
functional specs:
  sin:coord=C,t=T          sine of coordinate C at time T
  cos:coord=C,t=T          cosine of coordinate C at time T
  tanhprod:coords=C1,..,t=T1,..   product of tanh factors
  lin:coords=C1,..,t=T1,..[,w=W1,..]  linear combination of evaluations
times are exact rationals, e.g. t=1/2; coordinates are 1-based."""


def _parse_kv(body: str) -> dict:
    out: dict[str, list[str]] = {}
    key = None
    for tok in body.split(","):
        if "=" in tok:
            key, v = tok.split("=", 1)
            key = key.strip()
            out[key] = [v.strip()]
        else:
            if key is None:
                raise FunctionalError("malformed functional spec near %r" % tok)
            out[key].append(tok.strip())
    return out


def parse_functional(spec: str, dim: int) -> CylinderFunctional:
    """Parse a functional mini-language spec (see FUNCTIONAL_SPEC_HELP)."""
    if ":" not in spec:
        raise FunctionalError("functional spec needs 'name:args', got %r" % spec)
    name, body = spec.split(":", 1)
    kv = _parse_kv(body)
    try:
        if name == "sin":
            return sin_cylinder(int(kv["coord"][0]), Fraction(kv["t"][0]), dim)
        if name == "cos":
            return cos_cylinder(int(kv["coord"][0]), Fraction(kv["t"][0]), dim)
        if name == "tanhprod":
            coords = [int(c) for c in kv["coords"]]
            times = [Fraction(t) for t in kv["t"]]
            return tanh_product(coords, times, dim)
        if name == "lin":
            coords = [int(c) for c in kv.get("coords", kv.get("coord", []))]
            times = [Fraction(t) for t in kv["t"]]
            weights = [float(x) for x in kv["w"]] if "w" in kv else None
            return linear_cylinder(coords, times, weights, dim)
    except KeyError as exc:
        raise FunctionalError("spec %r missing field %s" % (spec, exc)) from exc
    raise FunctionalError("unknown functional %r" % name)


def certified_library(dim: int) -> list[CylinderFunctional]:
    """Default certified functionals used by the verification commands."""
    c2 = 2 if dim >= 2 else 1
    return [
        sin_cylinder(1, 1, dim),
        cos_cylinder(1, Fraction(1, 2), dim),
        tanh_product([1], [Fraction(3, 4)], dim),
        tanh_product([1, c2], [Fraction(1, 2), 1], dim),
        linear_cylinder([1], [1], None, dim),
    ]


# ---------------------------------------------------------------------------
# derivative validation (the CylinderFunctional type invariants)


def validate_derivatives(
    g: CylinderFunctional,
    rng: np.random.Generator,
    trials: int = 20,
    grad_rtol: float = 1e-6,
    hess_rtol: float = 1e-5,
) -> None:
    """Check the supplied gradient/Hessian against finite differences.

    Raises FunctionalError on disagreement; also enforces H_ab = H_ba^T
    via the symmetry of the full stacked Hessian.
    """
    n = g.n_args
    h = 1e-5
    for _ in range(trials):
        x = rng.standard_normal(n)
        grad = g.base.grad(x)
        hess = g.base.hess(x)
        if not np.allclose(hess, np.swapaxes(hess, -1, -2), atol=1e-12):
            raise FunctionalError("%s: Hessian not symmetric" % g.label)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd_g = (g.base.value(x + e) - g.base.value(x - e)) / (2 * h)
            if abs(fd_g - grad[i]) > grad_rtol * max(1.0, abs(grad[i])):
                raise FunctionalError(
                    "%s: gradient[%d] %.3e vs FD %.3e" % (g.label, i, grad[i], fd_g)
                )
            fd_H = (g.base.grad(x + e) - g.base.grad(x - e)) / (2 * h)
            if np.max(np.abs(fd_H - hess[i])) > hess_rtol * max(1.0, np.max(np.abs(hess[i]))):
                raise FunctionalError("%s: Hessian row %d off" % (g.label, i))
