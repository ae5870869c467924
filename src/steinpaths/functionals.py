"""Cylinder test functionals g(w) = phi(w(t_1), ..., w(t_k)).

A cylinder functional touches the path only through its values at finitely
many times, so its Frechet derivatives reduce to the gradient and Hessian
of the finite-dimensional base map phi: R^(k*p) -> R:

    Dg(w)[h]        = sum_a <grad_a phi(x), h(t_a)>,
    D^2g(w)[h1,h2]  = sum_{a,b} h1(t_a)^T H_ab(x) h2(t_b),

with x the stacked vector (w(t_1), ..., w(t_k)), shape (k*p,).  That vector,
optionally with leading batch axes, is the one argument every evaluation
takes: a grid path's rows ``rows(n)``, flattened, or a target's draws.

Built-in bases carry hand-certified sup constants, from which sound upper
bounds for the weighted functional norms are assembled.  Sine, cosine and
linear evaluations are one linear form f(x . a), certified by one rule
from a and the sups of f's derivatives; tanh products are the other base.
The bounds are conservative by design: every distance bound downstream is
monotone increasing in the norm, so an upper bound preserves validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .paths import as_time, time_rows

__all__ = [
    "FunctionalError",
    "UnsupportedFunctionalError",
    "NormCertificate",
    "CylinderFunctional",
    "norm_upper_bound",
    "sin_cylinder",
    "cos_cylinder",
    "tanh_product",
    "linear_cylinder",
    "parse_functional",
    "certified_library",
    "FUNCTIONAL_SPEC_HELP",
]

# max over r >= 0 of r/(1+r^3), attained at r = 2^(-1/3)
_LIN_WEIGHT_SUP = 2.0 ** (2.0 / 3.0) / 3.0


class FunctionalError(ValueError):
    pass


class UnsupportedFunctionalError(FunctionalError):
    """Functional lacks the certified sup bounds that norm_upper_bound needs."""


@dataclass(frozen=True)
class NormCertificate:
    """Hand-certified sup constants for a cylinder base.

    sup_abs_over_cubic -- a bound for sup |phi(x)| / (1 + max_a |x_a|^3)
    grad_block_sups    -- per time block a, a bound for sup |grad_a phi|_2
    hess_block_sups    -- (k,k) bounds for sup of the operator norm of H_ab
    hess_lipschitz     -- Lipschitz constant of the full phi-Hessian in
                          operator norm w.r.t. Euclidean distance on R^(k*p)
    """

    sup_abs_over_cubic: float
    grad_block_sups: tuple
    hess_block_sups: tuple
    hess_lipschitz: float


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
    label : str
        The functional's name in reports and error messages.
    """

    def __init__(self, dim: int, times: Sequence, base, label: str) -> None:
        ts = tuple(as_time(t) for t in times)
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise FunctionalError("times must be strictly increasing")
        if not ts:
            raise FunctionalError("need at least one evaluation time")
        self.dim = dim
        self.times = ts
        self.k = len(ts)
        self.base = base
        self.label = label

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


def norm_upper_bound(g: CylinderFunctional) -> float:
    """Sound upper bound for |g| in each of the paper's norms M, M1 and M2:

        sup|phi|/(1+||w||^3)  +  sum_a sup|grad_a phi|_2
            +  sum_{a,b} sup||H_ab||_op  +  k^(3/2) L_H,

    where the last term dominates the Hessian-Lipschitz quotient: for
    |delta| the Euclidean length of the stacked perturbation,
    |delta| <= sqrt(k) ||h|| and the quadratic form loses another factor
    k from the stacked unit direction.  The (1+||w||)-type weights that
    tell M1, M2 and M apart are dropped (bounds stay sound), so one bound
    serves all three.  A functional without a certificate is refused.
    """
    cert = g.certificate()
    if cert is None:
        raise UnsupportedFunctionalError(
            "%s has no certified sup bounds" % g.label
        )
    deriv = float(np.sum(cert.grad_block_sups))
    hess = float(np.sum(cert.hess_block_sups))
    lip = g.k ** 1.5 * cert.hess_lipschitz
    return float(cert.sup_abs_over_cubic) + deriv + hess + lip


# ---------------------------------------------------------------------------
# built-in bases


class _LinearFormBase:
    """phi(x) = f(x . a) for a weight vector a, given fns = (f, f', f'').

    kappa is the constant in E f(y + tau Z) = f(y) exp(-kappa tau^2 / 2),
    Z standard normal, which ou_stein's closed-form Stein solution reads:
    1 for sin and cos, 0 for lin, None for an f that has none.
    """

    def __init__(self, a: np.ndarray, fns: tuple, certificate: NormCertificate | None,
                 kappa: float | None = None):
        self.a = a
        self.fn, self.dfn, self.d2fn = fns
        self.certificate = certificate
        self.kappa = kappa

    def value(self, x):
        return self.fn(np.asarray(x) @ self.a)

    def grad(self, x):
        return self.dfn(np.asarray(x) @ self.a)[..., None] * self.a

    def hess(self, x):
        # scale a before the outer product: a a^T alone overflows at large a
        return (self.d2fn(np.asarray(x) @ self.a)[..., None] * self.a)[..., None] * self.a


class _TanhProdBase:
    """phi(x) = prod_m tanh(x[idx_m]) over distinct flat indices."""

    def __init__(self, indices: tuple, n_args: int, certificate: NormCertificate):
        if len(set(indices)) != len(indices):
            raise FunctionalError("tanh product factors must be distinct")
        self.indices = tuple(indices)
        self.n_args = n_args
        self.certificate = certificate

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


# ---------------------------------------------------------------------------
# factories


def _linear_form(label: str, times: Sequence, dim: int, a: np.ndarray, fns: tuple,
                 sups: tuple, kappa: float) -> CylinderFunctional:
    """g = f(x . a) on the stacked argument x at `times`, fns = (f, f', f''),
    with f's kappa (see _LinearFormBase).

    sups = (the cubic-weighted sup, sup|f'|, sup|f''|, sup|f'''|)
    certify g by one rule: block b's gradient by sup|f'| |a_b|, H_bc by
    sup|f''| |a_b| |a_c| and the Hessian's Lipschitz constant by
    sup|f'''| |a|^3.  Each norm is math.hypot's, which scales its terms,
    so it is finite wherever its value is: |(1e300, -1e300)| is
    sqrt(2) 1e300, where a sum of squares overflows from 1.3e154.  A zero
    derivative sup gives exactly 0.0, never the 0 * inf of a product of
    norms that overflows.
    """
    sup_cubic, d1, d2, d3 = sups
    norms = [math.hypot(*b) for b in a.reshape(len(times), dim)]
    return CylinderFunctional(dim, times, _LinearFormBase(a, fns, NormCertificate(
        sup_abs_over_cubic=sup_cubic,
        grad_block_sups=tuple(d1 * nb for nb in norms),
        hess_block_sups=tuple(tuple(0.0 if d2 == 0 else d2 * nb * nc for nc in norms)
                              for nb in norms),
        hess_lipschitz=0.0 if d3 == 0 else d3 * math.hypot(*a) ** 3,
    ), kappa), label)


def _coord_index(coord: int, dim: int) -> int:
    """0-based index of a 1-based path coordinate, which must lie in 1..dim."""
    if not 1 <= coord <= dim:
        raise FunctionalError("coord %d outside 1..%d" % (coord, dim))
    return coord - 1


def _trig_cylinder(name: str, fns: tuple, coord: int, t, dim: int) -> CylinderFunctional:
    t = as_time(t)
    a = np.eye(dim)[_coord_index(coord, dim)]
    # sin, cos and their first three derivatives are bounded by 1
    return _linear_form("%s:coord=%d,t=%s" % (name, coord, t), [t], dim, a, fns, (1.0,) * 4, 1.0)


def sin_cylinder(coord: int, t, dim: int = 1) -> CylinderFunctional:
    """g(w) = sin(w^(coord)(t)); all sup constants equal 1."""
    return _trig_cylinder("sin", (np.sin, np.cos, lambda u: -np.sin(u)), coord, t, dim)


def cos_cylinder(coord: int, t, dim: int = 1) -> CylinderFunctional:
    """g(w) = cos(w^(coord)(t))."""
    return _trig_cylinder("cos", (np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u)),
                          coord, t, dim)


def _sites(name: str, coords: Sequence[int], times: Sequence, dim: int):
    """Label, sorted distinct times and stacked-argument indices of the
    sites (coords[m], times[m]) that a `name` functional reads."""
    coords = tuple(int(c) for c in coords)
    raw_times = tuple(as_time(t) for t in times)
    if len(coords) != len(raw_times):
        raise FunctionalError("coords and times must pair up")
    uniq_times = tuple(sorted(set(raw_times)))
    indices = [uniq_times.index(t) * dim + _coord_index(c, dim) for c, t in zip(coords, raw_times)]
    label = "%s:coords=%s,t=%s" % (name, ",".join(map(str, coords)),
                                   ",".join(map(str, raw_times)))
    return label, uniq_times, indices


def tanh_product(coords: Sequence[int], times: Sequence, dim: int = 1) -> CylinderFunctional:
    """g(w) = prod_m tanh(w^(coords[m])(times[m])).

    Certified constants for a product of m bounded factors with
    |tanh| <= 1, |tanh'| <= 1, |tanh''| <= 4/(3 sqrt 3), |tanh'''| <= 2:
    each gradient block holds n_a factor entries of size <= 1, each
    Hessian block has operator norm <= sqrt(n_a n_b), and the Hessian is
    2 m^(3/2)-Lipschitz (third-derivative form summed over factor triples
    against a unit stacked direction).
    """
    label, uniq_times, indices = _sites("tanhprod", coords, times, dim)
    k, m = len(uniq_times), len(indices)
    counts = [0] * k  # n_a, the factors at time a
    for i in indices:
        counts[i // dim] += 1
    grad = tuple(np.sqrt(c) for c in counts)
    hess = tuple(
        tuple(np.sqrt(ca * cb) for cb in counts) for ca in counts
    )
    base = _TanhProdBase(tuple(indices), k * dim, NormCertificate(
        sup_abs_over_cubic=1.0,
        grad_block_sups=grad,
        hess_block_sups=hess,
        hess_lipschitz=2.0 * m**1.5,
    ))
    return CylinderFunctional(dim, uniq_times, base, label=label)


def linear_cylinder(
    coords: Sequence[int], times: Sequence, weights: Sequence[float] | None = None, dim: int = 1
) -> CylinderFunctional:
    """g(w) = sum_m weights[m] * w^(coords[m])(times[m]).

    The cubic-weighted sup uses |g(w)| <= (sum|weights|) ||w|| and
    max_r r/(1+r^3) = 2^(2/3)/3.  The weights of one site add up, and a
    sum that is not finite is a FunctionalError that names field 'w'.
    """
    label, uniq_times, indices = _sites("lin", coords, times, dim)
    if weights is None:
        weights = [1.0] * len(indices)
    else:
        # given weights are part of the label, in the fewest digits that read
        # back as the same floats
        weights = [float(wt) for wt in weights]
        label += ",w=" + ",".join(repr(wt).removesuffix(".0") for wt in weights)
    if len(weights) != len(indices):
        raise FunctionalError("coords and weights must pair up")
    wvec = np.zeros(len(uniq_times) * dim)
    with np.errstate(over="ignore"):
        for i, wt in zip(indices, weights):
            wvec[i] += wt
    if not np.isfinite(wvec).all():
        raise FunctionalError("%s: field 'w': the weights at one site do not sum to a "
                              "finite value" % label)
    with np.errstate(over="ignore"):  # a sum past the float range is an inf sup
        sup = _LIN_WEIGHT_SUP * float(np.sum(np.abs(wvec)))
    return _linear_form(label, uniq_times, dim, wvec, (lambda u: u, np.ones_like, np.zeros_like),
                        (sup, 1.0, 0.0, 0.0), 0.0)


# ---------------------------------------------------------------------------
# CLI mini-language

FUNCTIONAL_SPEC_HELP = """\
functional specs:
  sin:coord=C,t=T          sine of coordinate C at time T
  cos:coord=C,t=T          cosine of coordinate C at time T
  tanhprod:coords=C1,..,t=T1,..   product of tanh factors
  lin:coords=C1,..,t=T1,..[,w=W1,..]  linear combination of evaluations
times are exact rationals, e.g. t=1/2; coordinates are 1-based."""


# the fields each functional takes; sin and cos take one value per field
_SPEC_FIELDS = {"sin": ("coord", "t"), "cos": ("coord", "t"),
                "tanhprod": ("coords", "t"), "lin": ("coords", "t", "w")}


def _parse_kv(body: str, alias: dict) -> dict:
    out: dict[str, list[str]] = {}
    key = None
    for tok in body.split(","):
        if "=" in tok:
            key, v = tok.split("=", 1)
            key = alias.get(key.strip(), key.strip())
            if key in out:
                raise FunctionalError("field %r given twice" % key)
            out[key] = [v.strip()]
        else:
            if key is None:
                raise FunctionalError("malformed functional spec near %r" % tok)
            out[key].append(tok.strip())
    return out


def _finite_float(v: str) -> float:
    x = float(v)
    if not np.isfinite(x):
        raise ValueError("%r is not finite" % v)
    return x


def parse_functional(spec: str, dim: int) -> CylinderFunctional:
    """Parse a functional mini-language spec (see FUNCTIONAL_SPEC_HELP).

    A field the functional does not take, a second value of a sin or cos
    field and a value that does not parse (or a time outside [0,1], or a
    weight, or the sum of a lin site's weights, that is not finite) are
    each a FunctionalError that names the field."""
    if ":" not in spec:
        raise FunctionalError("functional spec needs 'name:args', got %r" % spec)
    name, body = spec.split(":", 1)
    if name not in _SPEC_FIELDS:
        raise FunctionalError("unknown functional %r" % name)
    # lin also reads coords under the alias coord
    kv = _parse_kv(body, {"coord": "coords"} if name == "lin" else {})
    for key, values in kv.items():
        if key not in _SPEC_FIELDS[name]:
            raise FunctionalError("spec %r: %s takes no field %r" % (spec, name, key))
        if len(values) > 1 and name in ("sin", "cos"):
            raise FunctionalError("spec %r: field %r takes one value" % (spec, key))

    def field(key, parse):
        if key not in kv:
            raise FunctionalError("spec %r missing field %r" % (spec, key))
        try:
            return [parse(v) for v in kv[key]]
        except (ValueError, ZeroDivisionError) as exc:  # PathError is a ValueError
            raise FunctionalError("spec %r: field %r: %s" % (spec, key, exc)) from exc

    if name == "tanhprod":
        return tanh_product(field("coords", int), field("t", as_time), dim)
    if name == "lin":
        weights = field("w", _finite_float) if "w" in kv else None
        return linear_cylinder(field("coords", int), field("t", as_time), weights, dim)
    (coord,), (t,) = field("coord", int), field("t", as_time)
    return (sin_cylinder if name == "sin" else cos_cylinder)(coord, t, dim)


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

