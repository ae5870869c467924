"""Slow reference implementations that pin the package's fast paths.

Nothing in ``steinpaths`` calls these; the tests import them from here:

* ``moments_tv_exact`` and ``DirectGaussianOracle`` for ``graph``: the
  exact means of T_n, V_n and a small-n pre-limit sampler built from the
  Gaussian family's covariance table;
* ``zhat_cov`` and ``_five_index_sum_naive`` for ``combinatorial``: one
  closed-form Zhat covariance entry and the literal five-index loop;
* ``validate_derivatives`` for ``functionals``: a functional's gradient
  and Hessian against finite differences;
* ``stein_solution_mc`` and ``stein_equation_residual`` for ``ou_stein``:
  Monte Carlo estimates of the Stein solution and its derivatives from
  frozen draws of the target D, which pin ``stein_solution``'s closed form
  where D is Gaussian, and the residual of the Stein equation itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from steinpaths.combinatorial import ArrayModel, ModelError
from steinpaths.functionals import CylinderFunctional, FunctionalError
from steinpaths.graph import GraphModel, GraphModelError, _binom2, _binom3
from steinpaths.mc import McEstimate, from_values
from steinpaths.ou_stein import _gauss_legendre_01, _generator_values
from steinpaths.paths import as_time


# ---------------------------------------------------------------------------
# graph


def moments_tv_exact(model: GraphModel, t) -> tuple[Fraction, Fraction]:
    """Exact (E T_n(t), E V_n(t)) in rational arithmetic."""
    n = model.n
    m = int(n * as_time(t))
    p = Fraction(model.p)
    et = Fraction(m - 2, 1) * _binom2(m) * p / n**2
    ev = 3 * _binom3(m) * p**2 / Fraction(n**2)
    return et, ev


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
# combinatorial


def zhat_cov(model: ArrayModel, i: int, j: int) -> float:
    """Closed-form Cov(Zhat_i, Zhat_j); i, j are 1-based."""
    n = model.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ModelError("indices outside 1..n")
    if i == j:
        return float(model.abs2[i - 1].sum()) / n
    return -float((model.c[i - 1] * model.c[j - 1]).sum()) / (n * (n - 1))


def _five_index_sum_naive(model: ArrayModel) -> float:
    """Literal five nested loops over the ten summand families."""
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


# ---------------------------------------------------------------------------
# functionals: derivative validation (the CylinderFunctional type invariants)


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


# ---------------------------------------------------------------------------
# ou_stein: the Stein solution by Monte Carlo


def stein_solution_mc(g: CylinderFunctional, x: np.ndarray,
                      d_flat: np.ndarray) -> list[McEstimate]:
    """Estimates of phi(g)(x), of each entry of grad phi(g)(x) and of each
    entry of hess phi(g)(x), in that order, for phi(g) =
    -int_0^1 E[g(v x + b D) - g(D)] dv/v with b = sqrt(1 - v^2): the
    Stein solution against the law of D, which equals ``stein_solution``'s
    against N(0, Sigma) where D is Gaussian.

    Each row D_s of d_flat gives one draw of each entry, by the 64-node
    rule of ``stein_solution``.  With y_q = v_q x + b_q D_s, the chain
    rule's factor v_q cancels one 1/v_q:

        phi    ~ -sum_q (w_q/v_q) [g(y_q) - g(D_s)],
        grad   ~ -sum_q w_q grad g(y_q),
        hess   ~ -sum_q w_q v_q hess g(y_q).

    Centering with the same draw D_s keeps every summand bounded as
    v_q -> 0, and the estimator stays unbiased by linearity.
    """
    nodes, weights = _gauss_legendre_01()
    g_at_d = g.value_stacked(d_flat)
    value, grad, hess = 0.0, 0.0, 0.0
    for v, wt in zip(nodes, weights):
        y = v * x + math.sqrt(1.0 - v * v) * d_flat
        value = value - (wt / v) * (g.value_stacked(y) - g_at_d)
        grad = grad - wt * g.grad_stacked(y)
        hess = hess - wt * v * g.hess_stacked(y)
    draws = np.column_stack([value, grad, hess.reshape(len(d_flat), -1)])
    return [from_values(column) for column in draws.T]


def stein_equation_residual(phi: CylinderFunctional, g: CylinderFunctional, x: np.ndarray,
                            cov: np.ndarray) -> np.ndarray:
    """|A phi - (g - E g(N))| at each row of the stacked arguments x, with
    N ~ N(0, cov) and g a linear form f(a . x).  E g(N) = E f(sigma Z),
    sigma^2 = a' cov a, comes from g's own values at 40 Gauss-Hermite
    nodes, which is exact to rounding for sin, cos and lin at sigma <= 2."""
    a = g.base.a
    z, w = np.polynomial.hermite_e.hermegauss(40)
    sigma = math.sqrt(float(a @ cov @ a))
    mean = g.value_stacked(np.outer(sigma * z, a / (a @ a))) @ w / math.sqrt(2.0 * math.pi)
    return np.abs(_generator_values(phi, x, cov) - (g.value_stacked(x) - mean))
