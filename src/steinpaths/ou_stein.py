"""Ornstein-Uhlenbeck operator layer for the pre-limiting targets.

The target of a model is its pre-limit D, read through ``TargetLaw``: draws
of D at a functional's times and Sigma, their closed-form covariance.  The
Ornstein-Uhlenbeck generator whose stationary law is N(0, Sigma) acts on a
cylinder functional as

    A f(x) = -grad f(x) . x + tr(hess f(x) Sigma),

with x the stacked argument (w(t_1), ..., w(t_k)) of shape (k*dim,): for a
grid path, the rows ``f.rows(n)`` flattened.  The trace is contracted
against the closed-form covariance, so no Monte Carlo enters it.

``stein_identity_residual`` estimates E A f(D), which is zero where D is
Gaussian: for the graph and for arrays of constant entries.  A
random-entry array's D is a Gaussian mixture (README), and there the mean
of an even f is biased.

``stein_solution`` solves the Stein equation A phi = g - E g(N), with
N ~ N(0, Sigma), in closed form for a linear form g = f(a . x): phi is a
linear form in a . x again, given by three one-dimensional quadratures.

The epsilon estimators of the abstract bound read the model's family
module for its pair statistic and its draws of R_f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import combinatorial as comb
from . import graph as gr
from .functionals import (
    CylinderFunctional,
    FunctionalError,
    UnsupportedFunctionalError,
    _LinearFormBase,
)
from .mc import McEstimate, SeedSpec, mc_run
from .paths import time_rows

__all__ = [
    "family",
    "TargetLaw",
    "stein_identity_residual",
    "stein_solution",
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


# ---------------------------------------------------------------------------
# generator


def _generator_values(f: CylinderFunctional, x: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """A f at each row of the stacked arguments x, shape (s, k*dim), with
    cov the covariance matrix of the stacked evaluations."""
    first = -np.einsum("si,si->s", f.grad_stacked(x), x)
    return first + np.einsum("sij,ij->s", f.hess_stacked(x), cov)


def stein_identity_residual(
    f: CylinderFunctional,
    law: TargetLaw,
    samples: int,
    seed: SeedSpec,
    scale: float = 1.0,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo mean of A f(scale * D).  At scale = 1 it is zero in
    expectation where D is Gaussian, since N(0, Sigma) is A's stationary
    law; a random-entry array's D is a Gaussian mixture, where it need not
    be.  scale != 1 is the negative control."""
    cov = law.cov_matrix(f.times)

    def sampler(rng, size):
        return _generator_values(f, scale * law.sample_at(rng, size, f.times), cov)

    return mc_run(sampler, samples, seed, workers=workers)


# ---------------------------------------------------------------------------
# Stein-equation solution


_GL_PANELS = 8  # panels of the Gauss-Legendre rule on (0, 1], 8 nodes each


def _gauss_legendre_01() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-node composite Gauss-Legendre rule on
    (0, 1]: 8 equal panels of 8 nodes each."""
    base_x, base_w = np.polynomial.legendre.leggauss(_GL_PANELS)
    half = 0.5 / _GL_PANELS
    mids = (np.arange(_GL_PANELS) + 0.5) / _GL_PANELS
    return (mids[:, None] + half * base_x).ravel(), np.tile(half * base_w, _GL_PANELS)


def stein_solution(g: CylinderFunctional, cov: np.ndarray) -> CylinderFunctional:
    """phi with A phi = g - E g(N), N ~ N(0, cov), as a cylinder functional
    on g's times; cov is the (k*dim, k*dim) covariance of the stacked
    evaluations, for a target law ``law.cov_matrix(g.times)``.

    g must be a linear form f(a . x) of sin, cos or lin, whose base records
    kappa, the constant in E f(y + tau Z) = f(y) exp(-kappa tau^2 / 2): 1
    for sin and cos, 0 for lin.  With s = a . x, sigma^2 = a' cov a and
    e(v) = exp(-kappa (1 - v^2) sigma^2 / 2), phi(x) = F(s), where over
    v in (0, 1]

        F(s)   = -int [f(vs) e(v) - f(0) e(0)] dv / v,
        F'(s)  = -int f'(vs) e(v) dv,
        F''(s) = -int v f''(vs) e(v) dv.

    As f'' = -kappa f, A phi = -F'(s) s + F''(s) sigma^2 is the integral of
    d/dv [f(vs) e(v)], that is g(x) - f(0) e(0), and E g(N) = f(0) e(0).
    The 64-node rule holds A phi to g - E g(N) within 1e-12 for
    |a . x| <= 20.  phi has no certificate, so norm_upper_bound refuses it.
    A g other than sin, cos or lin, such as tanhprod or a phi, has no kappa
    and raises UnsupportedFunctionalError; a cov of another shape raises
    FunctionalError.
    """
    kappa = getattr(g.base, "kappa", None)
    if kappa is None:
        raise UnsupportedFunctionalError(
            "%s is not a sin, cos or lin form, so it has no closed-form Stein solution" % g.label
        )
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (g.n_args, g.n_args):
        raise FunctionalError("%s takes a (%d, %d) covariance, got shape %s"
                              % (g.label, g.n_args, g.n_args, cov.shape))
    a, f, df, d2f = g.base.a, g.base.fn, g.base.dfn, g.base.d2fn
    nodes, weights = _gauss_legendre_01()
    # kappa sigma^2, with a lin form's 0 kept even where sigma^2 overflows
    k_sigma2 = kappa * float(a @ cov @ a) if kappa else 0.0
    e = np.exp(-0.5 * k_sigma2 * (1.0 - nodes * nodes))
    centre = float(f(0.0)) * math.exp(-0.5 * k_sigma2) * float(np.sum(weights / nodes))

    def quad(fn, s, wts):
        """sum_q wts_q fn(v_q s) at each s."""
        return fn(np.multiply.outer(s, nodes)) @ wts

    fns = (
        lambda s: centre - quad(f, s, weights * e / nodes),
        lambda s: -quad(df, s, weights * e),
        lambda s: -quad(d2f, s, weights * e * nodes),
    )
    return CylinderFunctional(g.dim, g.times, _LinearFormBase(a, fns, None), "phi(%s)" % g.label)


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
