"""Ornstein-Uhlenbeck operator layer for the pre-limiting targets.

Given a target law D (the pre-limit D_n of a graph or array model), the
transition operator of the associated stationary evolution is the
Gaussian interpolation

    (T_u g)(w) = E g(w e^{-u} + sqrt(1 - e^{-2u}) D),

its generator on cylinder test functionals is

    A f(w) = -Df(w)[w] + E D^2 f(w)[D, D],

and the centered equation A f = g - E g(D) is solved by
f = -int_0^inf T_u (g - E g(D)) du, computed after substituting
v = e^{-u} by fixed-order quadrature on (0, 1].

A cylinder functional reads a path only at its k times, so every
function here takes the path as the stacked argument x = (w(t_1), ...,
w(t_k)) of shape (k*dim,): for a grid path, its rows ``g.rows(n)``
flattened.  An argument of any other shape raises ``FunctionalError``.
The target enters through its values at the same times, so the
expectation in the generator's second term is the exact trace
contraction of the Hessian blocks against the closed-form grid
covariance: no Monte Carlo enters the second term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import combinatorial as comb
from . import graph as gr
from .functionals import CylinderFunctional, FunctionalError
from .mc import McEstimate, SeedSpec, from_values, mc_run, mc_run_vector
from .paths import time_rows

__all__ = [
    "family",
    "TargetLaw",
    "mehler_apply",
    "mehler_two_step",
    "generator_apply",
    "stein_identity_residual",
    "solve_phi",
    "make_phi_cylinder",
    "stein_selfconsistency",
    "epsilon1_combinatorial",
    "epsilon1_graph",
    "epsilon3_estimate",
]


def family(model):
    """The family module of a model: ``graph`` for a ``GraphModel`` and
    ``combinatorial`` for an ``ArrayModel``, with one contract (see README)."""
    if isinstance(model, gr.GraphModel):
        return gr
    if isinstance(model, comb.ArrayModel):
        return comb
    raise TypeError("unsupported model type %r" % type(model).__name__)


@dataclass(frozen=True)
class TargetLaw:
    """The pre-limit target D_n of a model (a ``GraphModel`` or an
    ``ArrayModel``): draws at a functional's times and their closed-form
    covariance, both read from the model's own family module."""

    model: gr.GraphModel | comb.ArrayModel

    @property
    def n(self) -> int:
        return self.model.n

    def sample_at(
        self, rng: np.random.Generator, size: int, times: Sequence[Fraction]
    ) -> np.ndarray:
        """(size, k*dim) draws of D at the given times, stacked as a
        cylinder functional reads them."""
        rows = time_rows(self.n, times)
        return family(self.model).sample_dn_values(self.model, rng, size, rows).reshape(size, -1)

    def cov_matrix(self, times: Sequence[Fraction]) -> np.ndarray:
        """(k*dim, k*dim) covariance of the stacked evaluations."""
        return family(self.model).prelimit_cov(self.model, times)

    def mean_g(
        self, g: CylinderFunctional, samples: int, seed: SeedSpec, workers: int = 1
    ) -> McEstimate:
        """Monte Carlo estimate of E g(D)."""

        def sampler(rng, size):
            return g.value_stacked(self.sample_at(rng, size, g.times))

        return mc_run(sampler, samples, seed, workers=workers)


# ---------------------------------------------------------------------------
# semigroup and generator


def _argument(g: CylinderFunctional, x) -> np.ndarray:
    """x as a float vector of g's argument length k*dim."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n_args,):
        raise FunctionalError(
            "%s takes %d stacked values, got shape %s" % (g.label, g.n_args, x.shape)
        )
    return x


def mehler_apply(
    g: CylinderFunctional,
    x: np.ndarray,
    u: float,
    law: TargetLaw,
    inner_samples: int,
    seed: SeedSpec,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo estimate of (T_u g)(w), w read as its stacked argument x.

    At u = 0 the mixing factor vanishes identically, so every draw
    evaluates g(w) and the estimator is exact with zero variance.
    """
    x = _argument(g, x)
    if u < 0:
        raise ValueError("the semigroup parameter must be nonnegative")
    if u == 0.0:
        # the mixing factor is identically zero: exact, zero variance
        mean = float(g.value_stacked(x))
        return McEstimate(count=inner_samples, mean=mean, m2=0.0)
    decay = math.exp(-u)
    beta = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * u)))

    def sampler(rng, size):
        return g.value_stacked(decay * x + beta * law.sample_at(rng, size, g.times))

    return mc_run(sampler, inner_samples, seed, workers=workers)


def mehler_two_step(
    g: CylinderFunctional,
    x: np.ndarray,
    u: float,
    v: float,
    law: TargetLaw,
    inner_samples: int,
    seed: SeedSpec,
) -> McEstimate:
    """Unbiased estimator of (T_u T_v g)(w) with one fresh inner draw per
    outer draw; its mean equals (T_{u+v} g)(w) by the semigroup property."""
    x = _argument(g, x)
    du, dv = math.exp(-u), math.exp(-v)
    bu = math.sqrt(max(0.0, 1.0 - du * du))
    bv = math.sqrt(max(0.0, 1.0 - dv * dv))

    def sampler(rng, size):
        d1 = law.sample_at(rng, size, g.times)
        d2 = law.sample_at(rng, size, g.times)
        return g.value_stacked(du * dv * x + dv * bu * d1 + bv * d2)

    return mc_run(sampler, inner_samples, seed)


def _generator_values(f: CylinderFunctional, x: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """A f at each row of the stacked arguments x, shape (s, k*dim), with
    cov the covariance matrix of the stacked evaluations."""
    first = -np.einsum("si,si->s", f.grad_stacked(x), x)
    return first + np.einsum("sij,ij->s", f.hess_stacked(x), cov)


def generator_apply(
    f: CylinderFunctional, x: np.ndarray, law: TargetLaw
) -> float:
    """A f(w) = -Df(w)[w] + sum_ab trace(H_ab(w)^T Cov(D(t_a), D(t_b))).

    Deterministic: the second term contracts the Hessian against the
    closed-form covariance matrix of the stacked evaluations.
    """
    x = _argument(f, x)
    return float(_generator_values(f, x[None], law.cov_matrix(f.times))[0])


def stein_identity_residual(
    f: CylinderFunctional,
    law: TargetLaw,
    samples: int,
    seed: SeedSpec,
    scale: float = 1.0,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo mean of A f(scale * D); zero in expectation when
    scale = 1 (stationarity).  scale != 1 is the negative control."""
    cov = law.cov_matrix(f.times)

    def sampler(rng, size):
        return _generator_values(f, scale * law.sample_at(rng, size, f.times), cov)

    return mc_run(sampler, samples, seed, workers=workers)


# ---------------------------------------------------------------------------
# Stein-equation solution


_GL_PANELS = 8  # panels of the composite Gauss-Legendre rule on (0, 1]


def _gauss_legendre_01(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on (0, 1] with n_nodes total nodes."""
    per = max(1, n_nodes // _GL_PANELS)
    base_x, base_w = np.polynomial.legendre.leggauss(per)
    nodes, weights = [], []
    edges = np.linspace(0.0, 1.0, _GL_PANELS + 1)
    for lo, hi in zip(edges, edges[1:]):
        nodes.append(0.5 * (hi - lo) * base_x + 0.5 * (hi + lo))
        weights.append(0.5 * (hi - lo) * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _phi_sample_values(
    g: CylinderFunctional,
    x: np.ndarray,
    d_flat: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Per-sample values of -sum_q (w_q/v_q)(g(x v_q + b_q D_s) - g(D_s))
    over the rows D_s of d_flat; points x shaped (..., 1, k*dim) give one
    row of values per point.

    Centering with the same draw D_s (instead of a separately estimated
    E g(D)) keeps every summand bounded as v_q -> 0: the difference
    vanishes exactly at v = 0, so no 1/v amplification of sampling noise
    enters.  The estimator stays unbiased by linearity.
    """
    g_at_d = g.value_stacked(d_flat)
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], d_flat.shape[:-1]))
    for v, wt in zip(nodes, weights):
        b = math.sqrt(max(0.0, 1.0 - v * v))
        out -= (wt / v) * (g.value_stacked(v * x + b * d_flat) - g_at_d)
    return out


def solve_phi(
    g: CylinderFunctional,
    x: np.ndarray,
    law: TargetLaw,
    quad_points: int = 64,
    inner_samples: int = 4096,
    seed: SeedSpec = SeedSpec(0),
) -> tuple[McEstimate, float]:
    """Estimate phi(g)(w) = -int_0^1 E[(g - E g(D))(w v + sqrt(1-v^2) D)] dv/v.

    Returns (estimate, quadrature_error_estimate); the latter is a
    node-halving comparison on the same draws.
    """
    x = _argument(g, x)
    nodes, weights = _gauss_legendre_01(quad_points)
    half_nodes, half_weights = _gauss_legendre_01(max(8, quad_points // 2))

    def sampler(rng, size):
        d_flat = law.sample_at(rng, size, g.times)
        return np.stack([
            _phi_sample_values(g, x, d_flat, nodes, weights),
            _phi_sample_values(g, x, d_flat, half_nodes, half_weights),
        ]).T  # column-major: one contiguous run per column

    est, est_half = mc_run_vector(sampler, inner_samples, seed)
    return est, abs(est.mean - est_half.mean)


class _PhiBase:
    """phi(g) and its exact derivatives, by one quadrature rule over one
    frozen set of target draws D_s (the rows of d_flat).  With
    b_q = sqrt(1 - v_q^2), the chain rule's factor v_q cancels one 1/v_q:

        phi(x)         = -sum_q (w_q/v_q) mean_s [g(v_q x + b_q D_s) - g(D_s)],
        grad phi(x)    = -sum_q w_q mean_s grad g(v_q x + b_q D_s),
        hess phi(x)    = -sum_q w_q v_q mean_s hess g(v_q x + b_q D_s).

    It has no certificate, so norm_upper_bound refuses phi(g).
    """

    def __init__(self, g: CylinderFunctional, d_flat: np.ndarray, nodes, weights):
        self.g, self.d_flat, self.nodes, self.weights = g, d_flat, nodes, weights

    def value(self, x):
        x = np.asarray(x, dtype=float)[..., None, :]
        return _phi_sample_values(self.g, x, self.d_flat, self.nodes, self.weights).mean(axis=-1)

    def _derivative(self, deriv, order: int, x):
        """-sum_q w_q v_q^(order-1) mean_s deriv(v_q x + b_q D_s)."""
        x = np.asarray(x, dtype=float)[..., None, :]
        draws = x.ndim - 2  # the axis of the draws D_s in deriv's output
        out = 0.0
        for v, wt in zip(self.nodes, self.weights):
            b = math.sqrt(max(0.0, 1.0 - v * v))
            out = out - wt * v ** (order - 1) * deriv(v * x + b * self.d_flat).mean(axis=draws)
        return out

    def grad(self, x):
        return self._derivative(self.g.grad_stacked, 1, x)

    def hess(self, x):
        return self._derivative(self.g.hess_stacked, 2, x)


def make_phi_cylinder(
    g: CylinderFunctional,
    law: TargetLaw,
    quad_points: int = 64,
    inner_samples: int = 4096,
    seed: SeedSpec = SeedSpec(0),
) -> CylinderFunctional:
    """phi(g) as a cylinder functional on g's own times.

    The semigroup maps cylinders to cylinders over the same time set, and
    differentiates under the integral: phi's gradient and Hessian are
    quadratures of g's, on the same nodes and the same frozen target
    draws as phi (see _PhiBase).  Per-draw centering keeps the v -> 0
    nodes of phi noise-free; its derivatives need none, since the chain
    rule's v_q cancels the 1/v_q.
    """
    nodes, weights = _gauss_legendre_01(quad_points)
    d_flat = law.sample_at(seed.child(1).rng(), inner_samples, g.times)
    base = _PhiBase(g, d_flat, nodes, weights)
    return CylinderFunctional(g.dim, g.times, base, label="phi(%s)" % g.label)


def stein_selfconsistency(
    g: CylinderFunctional,
    x: np.ndarray,
    law: TargetLaw,
    quad_points: int = 64,
    inner_samples: int = 32768,
    seed: SeedSpec = SeedSpec(0),
    groups: int = 8,
) -> dict:
    """Check A phi(g)(w) against g(w) - E g(D).

    phi is rebuilt on independent sample groups; the spread of the group
    generator values gives the Monte Carlo part of the tolerance, and a
    node-halving run on the first group gives the quadrature part.
    """
    x = _argument(g, x)
    per_group = inner_samples // groups
    lhs_vals = []
    for grp in range(groups):
        phi_hat = make_phi_cylinder(
            g, law, quad_points, per_group, seed.child(10 + grp)
        )
        lhs_vals.append(generator_apply(phi_hat, x, law))
    phi_half = make_phi_cylinder(
        g, law, max(8, quad_points // 2), per_group, seed.child(10)
    )
    quad_err = abs(generator_apply(phi_half, x, law) - lhs_vals[0])
    lhs = from_values(np.array(lhs_vals))
    gbar = law.mean_g(g, max(inner_samples, 4096), seed.child(0))
    rhs = float(g.value_stacked(x)) - gbar.mean
    tolerance = 5.0 * lhs.stderr + 5.0 * gbar.stderr + quad_err + 1e-4
    return {
        "lhs": lhs.mean,
        "rhs": rhs,
        "gap": abs(lhs.mean - rhs),
        "tolerance": tolerance,
        "quad_error": quad_err,
        "pass": abs(lhs.mean - rhs) <= tolerance,
    }


# ---------------------------------------------------------------------------
# epsilon estimators for the abstract bound


def _epsilon1(model, gnorm: float, samples: int, seed: SeedSpec) -> McEstimate:
    """(|g|/6) E ||(Y-Y') Lambda_n|| ||Y-Y'||^2 from the family's pair statistic."""
    stats = family(model).pair_norm_stats
    return mc_run(lambda rng, size: gnorm / 6.0 * stats(model, rng, size), samples, seed)


# the model picks its family, so one function serves both names
epsilon1_combinatorial = epsilon1_graph = _epsilon1


def epsilon3_estimate(model, f: CylinderFunctional, samples: int, seed: SeedSpec) -> McEstimate:
    """E R_f from the family's draws of R_f: zeros for the graph pair; for
    the array model, the tower property turns the conditional means into
    plain draws of (1/(n s_n)) sum_ij Df(Y)[X_{i,pi(j)} 1_[i/n,1]]."""
    draws = family(model).eps3_values
    return mc_run(lambda rng, size: draws(model, f, rng, size), samples, seed)
