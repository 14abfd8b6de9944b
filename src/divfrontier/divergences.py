"""Closed-form divergence evaluations.

Discrete Renyi divergences of any order (including the 0, 1 and infinity
limits), Gaussian Renyi/KL in closed form, and exponential-family KL as a
Bregman divergence of the log-partition function.

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


def _clip_nonneg(value: float) -> float:
    # divergences are nonnegative; absorb float rounding of exact zeros
    return 0.0 if -1e-12 < value < 0.0 else value


def renyi_rows(x: np.ndarray, y: np.ndarray, alpha: Alpha) -> np.ndarray:
    """D_alpha(x_i || y_i) for each row i of the broadcast arrays x and y.

    Rows are histograms. The value is 0 for rows within EQUALITY_TOL total
    variation and +inf where a zero of y_i meets x_i's support at order
    >= 1, or where the supports are disjoint. Finite orders use a
    max-shifted log-sum-exp so that very large alpha (up to ~1e4) stays in
    range; alpha = 0 is -log of y_i's mass on x_i's support.
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
    # divergences are nonnegative; absorb float rounding of exact zeros
    out[(out > -1e-12) & (out < 0.0)] = 0.0
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


def _chol_logdet(cov: np.ndarray) -> float:
    chol = np.linalg.cholesky(cov)
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def kl_gaussian(P: GaussianParams, Q: GaussianParams) -> float:
    """Closed-form KL divergence between multivariate Gaussians."""
    check_same_dim(P, Q)
    d = P.dim
    delta = P.mean - Q.mean
    chol_q = np.linalg.cholesky(Q.cov)
    solve = np.linalg.solve
    # tr(Sigma_Q^-1 Sigma_P) via two triangular solves
    half = solve(chol_q, P.cov)
    trace = float(np.trace(solve(chol_q, half.T).T))
    maha = float(np.sum(solve(chol_q, delta) ** 2))
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(chol_q))))
    logdet_p = _chol_logdet(P.cov)
    return _clip_nonneg(0.5 * (trace + maha - d + logdet_q - logdet_p))


def _gaussian_sup_log_ratio_1d(P: GaussianParams, Q: GaussianParams) -> float:
    """sup_x log(p(x)/q(x)) for 1-D Gaussians; finite iff var_P < var_Q."""
    mu_p, var_p = float(P.mean[0]), float(P.cov[0, 0])
    mu_q, var_q = float(Q.mean[0]), float(Q.cov[0, 0])
    if var_p > var_q:
        return INF
    if var_p == var_q:
        return 0.0 if mu_p == mu_q else INF
    # log ratio is a concave quadratic A x^2 + B x + C; maximum C - B^2/(4A)
    A = 0.5 / var_q - 0.5 / var_p
    B = mu_p / var_p - mu_q / var_q
    C = (
        0.5 * np.log(var_q / var_p)
        + 0.5 * mu_q**2 / var_q
        - 0.5 * mu_p**2 / var_p
    )
    return _clip_nonneg(float(C - B * B / (4.0 * A)))


def renyi_gaussian(P: GaussianParams, Q: GaussianParams, alpha: Alpha) -> float:
    """Closed-form Gaussian Renyi divergence.

    For finite alpha the interpolated covariance
    ``alpha*Sigma_Q + (1-alpha)*Sigma_P`` must be positive definite;
    otherwise the closed form does not exist and
    :class:`DivergenceUndefinedError` is raised (distinct from +inf).
    """
    check_same_dim(P, Q)
    if alpha.is_one:
        return kl_gaussian(P, Q)
    if alpha.is_zero:
        return 0.0  # Gaussians have full support
    if alpha.is_infinity:
        if P.dim != 1:
            raise DivergenceUndefinedError(
                "alpha=inf Gaussian divergence is only available in 1-D"
            )
        return _gaussian_sup_log_ratio_1d(P, Q)
    a = alpha.value
    sigma_a = a * Q.cov + (1.0 - a) * P.cov
    try:
        chol_a = np.linalg.cholesky(sigma_a)
    except np.linalg.LinAlgError:
        raise DivergenceUndefinedError(
            f"interpolated covariance alpha*Sigma_Q + (1-alpha)*Sigma_P is not "
            f"positive definite for alpha={a}"
        ) from None
    delta = P.mean - Q.mean
    maha = float(np.sum(np.linalg.solve(chol_a, delta) ** 2))
    logdet_a = 2.0 * float(np.sum(np.log(np.diag(chol_a))))
    logdet_p = _chol_logdet(P.cov)
    logdet_q = _chol_logdet(Q.cov)
    value = 0.5 * a * maha - (
        logdet_a - (1.0 - a) * logdet_p - a * logdet_q
    ) / (2.0 * (a - 1.0))
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
