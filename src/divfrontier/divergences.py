"""Closed-form divergence evaluations.

Discrete Renyi divergences of any order (including the 0, 1 and infinity
limits), Gaussian Renyi/KL in closed form from one whitened pair as
per-axis sums, and exponential-family KL as a Bregman divergence of the
log-partition function.

Conventions: 0^a = 0 for a > 0 and 0*log(0/q) = 0, so zero-mass entries
never contribute; a support violation is detected explicitly and returns
+inf, which is a first-class value here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    EQUALITY_TOL,
    Alpha,
    GaussianParams,
    Histogram,
    check_same_dim,
    check_same_length,
)
from .errors import DivergenceUndefinedError, ParameterError

INF = float("inf")


@dataclass(frozen=True)
class ExpFamilySpec:
    """An exponential family given by its log-partition function A.

    ``grad_log_partition`` maps natural to mean parameters and
    ``inv_grad_log_partition`` is its inverse (the two Legendre-dual
    coordinate maps); they must round-trip within 1e-8 on the valid domain.
    """

    log_partition: Callable[[np.ndarray], float]
    grad_log_partition: Callable[[np.ndarray], np.ndarray]
    inv_grad_log_partition: Callable[[np.ndarray], np.ndarray]
    param_dim: int


def logsumexp(x, axis=None):
    """log(sum(exp(x))) over ``axis`` (all entries if None).

    Shifted by the maximum so that terms near +-700 neither overflow nor
    underflow; a row whose terms are all -inf gives -inf.
    """
    x = np.asarray(x, dtype=float)
    top = np.max(x, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - top), axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis)[()]


def _clip_nonneg(value):
    # divergences are nonnegative; absorb float rounding of exact zeros, elementwise (a scalar gives a float)
    out = np.where((value > -1e-12) & (value < 0.0), 0.0, value)
    return out if out.ndim else float(out)


def renyi_rows(x: np.ndarray, y: np.ndarray, alpha: Alpha) -> np.ndarray:
    """D_alpha(x_i || y_i) for each row i of the broadcast arrays x and y.

    Rows are histograms. At finite orders the value is 0 for rows within
    EQUALITY_TOL total variation; at alpha = infinity only equal rows give 0,
    since a tiny x_j inside that band can still carry a large log-ratio. The
    value is +inf where a zero of y_i meets x_i's support at order >= 1, or
    where the supports are disjoint. Finite orders use a max-shifted
    log-sum-exp so that very large alpha (up to ~1e4) stays in range;
    alpha = 0 is -log of y_i's mass on x_i's support.
    """
    x, y = np.atleast_2d(x, y)
    xsupp = x > 0
    # terms off x's support are masked out. On it, a zero of y gives a +inf
    # term at orders >= 1 (a support violation) and a -inf one below 1, where
    # a row without shared support sums to -inf and 1/(a - 1) < 0 makes it +inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_x, log_y = np.log(x), np.log(y)
        if alpha.is_zero:
            out = -np.log(np.where(xsupp, y, 0.0).sum(axis=1))
        elif alpha.is_one:
            out = np.where(xsupp, x * (log_x - log_y), 0.0).sum(axis=1)
        elif alpha.is_infinity:
            out = np.where(xsupp, log_x - log_y, -INF).max(axis=1)
        else:
            a = alpha.value
            terms = np.where(xsupp, a * log_x + (1.0 - a) * log_y, -INF)
            out = logsumexp(terms, axis=1) / (a - 1.0)
    out = _clip_nonneg(out)
    if not alpha.is_infinity:
        out[0.5 * np.abs(x - y).sum(axis=1) <= EQUALITY_TOL] = 0.0
    return out


def renyi_discrete(p: Histogram, q: Histogram, alpha: Alpha) -> float:
    """Renyi divergence D_alpha(p || q) for any order tag."""
    check_same_length(p, q)
    return float(renyi_rows(p.probs, q.probs, alpha)[0])


def kl_discrete(p: Histogram, q: Histogram) -> float:
    """KL divergence sum p_i log(p_i / q_i); +inf on support violation."""
    return renyi_discrete(p, q, Alpha.one())


def funk_metric(p: Histogram, q: Histogram) -> float:
    """Funk weak metric on the simplex, log max_i p_i/q_i; equals D_inf."""
    return renyi_discrete(p, q, Alpha.infinity())


def _whitened_pair(P: GaussianParams, Q: GaussianParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis variances t, s and squared mean offset d2 of P and Q in one basis.

    Whitening Sigma_P + Sigma_Q and one eigendecomposition map P to
    N(a, diag t) and Q to N(b, diag s), with t, s in (0, 1] and
    d2 = (a - b)^2. Every divergence is invariant under this affine map, so
    each closed form is a sum over axes. Covariances singular to working
    precision leave some t or s at or below 0 and raise ParameterError.
    """
    check_same_dim(P, Q)
    chol = np.linalg.cholesky(P.cov + Q.cov)
    wp, wq = (np.linalg.solve(chol, np.linalg.solve(chol, cov).T) for cov in (P.cov, Q.cov))
    u = np.linalg.eigh(0.5 * (wp + wp.T))[1]
    # both Rayleigh quotients, since 1 - t loses a tiny s
    t, s = (np.einsum("ij,ij->j", u, w @ u) for w in (wp, wq))
    if not (np.all(t > 0.0) and np.all(s > 0.0)):
        raise ParameterError("covariances are singular to working precision")
    with np.errstate(over="ignore"):  # an offset beyond sqrt(float max) makes the divergences inf
        d2 = (u.T @ np.linalg.solve(chol, P.mean - Q.mean)) ** 2
    return t, s, d2


def _kl_axes(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """KL(N(a, diag u) || N(b, diag v)) summed over the last axis, from
    r = v / u and m = (a - b)^2 / v on each axis."""
    return 0.5 * (1.0 / r - 1.0 + np.log(r) + m).sum(axis=-1)


def kl_gaussian(P: GaussianParams, Q: GaussianParams) -> float:
    """Closed-form KL divergence between multivariate Gaussians."""
    t, s, d2 = _whitened_pair(P, Q)
    return _clip_nonneg(_kl_axes(s / t, d2 / s))


def renyi_gaussian(P: GaussianParams, Q: GaussianParams, alpha: Alpha) -> float:
    """Closed-form Gaussian Renyi divergence.

    For finite alpha the interpolated covariance
    ``alpha*Sigma_Q + (1-alpha)*Sigma_P`` must be positive definite;
    otherwise the closed form does not exist and
    :class:`DivergenceUndefinedError` is raised (distinct from +inf).
    alpha = inf is the supremum of log(p/q), available in 1-D only.
    """
    check_same_dim(P, Q)
    if alpha.is_one:
        return kl_gaussian(P, Q)
    if alpha.is_zero:
        return 0.0  # Gaussians have full support
    if alpha.is_infinity and P.dim != 1:
        raise DivergenceUndefinedError("alpha=inf Gaussian divergence is only available in 1-D")
    t, s, d2 = _whitened_pair(P, Q)
    r = s / t
    if alpha.is_infinity:
        # log(p/q) is a quadratic, concave with its vertex at this value iff t < s
        if t[0] >= s[0]:
            return 0.0 if t[0] == s[0] and d2[0] == 0.0 else INF
        return _clip_nonneg(0.5 * np.log(r[0]) + d2[0] / (2.0 * (s[0] - t[0])))
    a = alpha.value
    # the interpolated covariance is diag(t * (1 + a (r - 1))) on these axes
    k = a * (r - 1.0)
    if not np.all(k > -1.0):
        raise DivergenceUndefinedError(
            f"interpolated covariance alpha*Sigma_Q + (1-alpha)*Sigma_P is not positive definite for alpha={a}"
        )
    value = np.sum(a * d2 / (2.0 * t * (1.0 + k))) - np.sum(np.log1p(k) - a * np.log(r)) / (2.0 * (a - 1.0))
    return _clip_nonneg(value)


def bregman_kl(theta: np.ndarray, theta_prime: np.ndarray, fam: ExpFamilySpec) -> float:
    """KL between family members as the Bregman divergence of A:
    A(theta') - A(theta) - grad A(theta) . (theta' - theta).
    """
    theta = np.asarray(theta, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    if theta.shape != (fam.param_dim,) or theta_prime.shape != (fam.param_dim,):
        raise ParameterError(
            f"natural parameters must be vectors of length {fam.param_dim}"
        )
    grad = fam.grad_log_partition(theta)
    value = (
        fam.log_partition(theta_prime)
        - fam.log_partition(theta)
        - float(np.dot(grad, theta_prime - theta))
    )
    return _clip_nonneg(value)
