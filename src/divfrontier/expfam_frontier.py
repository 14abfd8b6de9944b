"""Exponential families and their KL (alpha = 1) frontiers.

A family is given by its log-partition A (:class:`ExpFamilySpec`). Its two
coordinate systems are the natural parameters theta and the mean parameters
eta = grad A(theta), and KL between members is the Bregman divergence of A
(:func:`bregman_kl`). The Gaussian family packs theta as
(Sigma^-1 mu, vec(-1/2 Sigma^-1)) with the full symmetric matrix stored
row-major, so a d-dimensional Gaussian has param_dim d + d*d; the Bernoulli
family (A(theta) = log(1 + e^theta)) is a second, scalar test family.

The exclusive path interpolates linearly in natural coordinates; the
inclusive path interpolates in moment coordinates and maps back through
the inverse gradient of the log-partition. Both paths reach theta_P at
lambda = 1 and theta_Q at lambda = 0 (this orientation is normalized only
in CSV output, see :mod:`divfrontier.io`). :func:`frontier_kl` and
:func:`kl_endpoints` evaluate Gaussians in closed form from one whitened
pair, as per-axis sums; in 1-D, :func:`kl_endpoints` works from the raw
variances instead (see :func:`divergences._kl_1d`), and so does
:func:`frontier_kl` for variances beyond float range of each other (see
:func:`divergences._far_1d`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discrete_frontier import EXCLUSIVE, INCLUSIVE, FrontierCurve, _check_grid_size, _check_lambda_unit, _check_side
from .discrete_frontier import _pareto_filter_triples, _row_blocks
from .distributions import Alpha, GaussianParams
from .divergences import INF, _clip_nonneg, _far_1d, _kl_1d, _kl_axes, _whitened_pair
from .errors import ParameterError


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


@dataclass(frozen=True)
class NaturalParams:
    """Natural parameter vector theta of an exponential family."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1 or not np.all(np.isfinite(theta)):
            raise ParameterError("natural parameters must be a finite vector")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class MomentParams:
    """Mean parameter vector eta = grad A(theta)."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 1 or not np.all(np.isfinite(eta)):
            raise ParameterError("moment parameters must be a finite vector")
        eta.setflags(write=False)
        object.__setattr__(self, "eta", eta)


def _unpack_gaussian_theta(theta: np.ndarray, d: int):
    theta1 = theta[:d]
    theta2 = theta[d:].reshape(d, d)
    theta2 = 0.5 * (theta2 + theta2.T)
    return theta1, theta2


def _gaussian_dim(param_dim: int) -> int:
    # param_dim = d + d^2
    d = int(round((np.sqrt(1 + 4 * param_dim) - 1) / 2))
    if d + d * d != param_dim:
        raise ParameterError(f"{param_dim} is not a Gaussian natural-parameter length")
    return d


def gaussian_to_natural(g: GaussianParams) -> NaturalParams:
    """theta = (Sigma^-1 mu, vec(-1/2 Sigma^-1))."""
    prec = np.linalg.inv(g.cov)
    prec = 0.5 * (prec + prec.T)
    return NaturalParams(np.concatenate([prec @ g.mean, (-0.5 * prec).ravel()]))


def natural_to_gaussian(theta: NaturalParams) -> GaussianParams:
    """Inverse of :func:`gaussian_to_natural`; a precision -2 Theta2 that is
    not positive definite raises ParameterError."""
    d = _gaussian_dim(theta.theta.size)
    theta1, theta2 = _unpack_gaussian_theta(theta.theta, d)
    try:
        cov = np.linalg.inv(-2.0 * theta2)
    except np.linalg.LinAlgError as exc:
        raise ParameterError("natural parameters give a singular precision") from exc
    cov = 0.5 * (cov + cov.T)
    return GaussianParams(cov @ theta1, cov)


def gaussian_family(d: int) -> ExpFamilySpec:
    """The d-dimensional Gaussian exponential family, with eta = (mu, vec of
    the second moment Sigma + mu mu').

    A(theta) = 1/2 mu' Prec mu - 1/2 logdet(Prec) + d/2 log(2 pi) with
    Prec = -2 Theta2 and mu = Prec^-1 theta1, computed via Cholesky. The
    coordinate maps go through :class:`GaussianParams`, so a theta or eta
    outside the family raises ParameterError, as A does.
    """

    def log_partition(theta: np.ndarray) -> float:
        theta1, theta2 = _unpack_gaussian_theta(theta, d)
        try:
            chol = np.linalg.cholesky(-2.0 * theta2)
        except np.linalg.LinAlgError as exc:
            raise ParameterError("natural parameters give a precision that is not positive definite") from exc
        half = np.linalg.solve(chol, theta1)
        logdet_prec = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return 0.5 * float(np.dot(half, half)) - 0.5 * logdet_prec + 0.5 * d * np.log(2.0 * np.pi)

    def grad_log_partition(theta: np.ndarray) -> np.ndarray:
        g = natural_to_gaussian(NaturalParams(theta))
        return np.concatenate([g.mean, (g.cov + np.outer(g.mean, g.mean)).ravel()])

    def inv_grad_log_partition(eta: np.ndarray) -> np.ndarray:
        mean = eta[:d]
        return gaussian_to_natural(GaussianParams(mean, eta[d:].reshape(d, d) - np.outer(mean, mean))).theta

    return ExpFamilySpec(log_partition, grad_log_partition, inv_grad_log_partition, d + d * d)


def bernoulli_family() -> ExpFamilySpec:
    """Bernoulli family with success log-odds theta."""

    def log_partition(theta: np.ndarray) -> float:
        return float(np.logaddexp(0.0, theta[0]))

    def grad_log_partition(theta: np.ndarray) -> np.ndarray:
        return np.array([1.0 / (1.0 + np.exp(-theta[0]))])

    def inv_grad_log_partition(eta: np.ndarray) -> np.ndarray:
        p = eta[0]
        if not 0.0 < p < 1.0:
            raise ParameterError("Bernoulli moment parameter must be in (0,1)")
        return np.array([np.log(p) - np.log1p(-p)])

    return ExpFamilySpec(log_partition, grad_log_partition, inv_grad_log_partition, 1)


def natural_to_moment(theta: NaturalParams, fam: ExpFamilySpec) -> MomentParams:
    """eta = grad A(theta)."""
    return MomentParams(fam.grad_log_partition(theta.theta))


def moment_to_natural(eta: MomentParams, fam: ExpFamilySpec) -> NaturalParams:
    """theta = (grad A)^-1(eta)."""
    return NaturalParams(fam.inv_grad_log_partition(eta.eta))


def bregman_kl(theta: np.ndarray, theta_prime: np.ndarray, fam: ExpFamilySpec) -> float:
    """KL between family members as the Bregman divergence of A:
    A(theta') - A(theta) - grad A(theta) . (theta' - theta).
    """
    theta = np.asarray(theta, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    if theta.shape != (fam.param_dim,) or theta_prime.shape != (fam.param_dim,):
        raise ParameterError(f"natural parameters must be vectors of length {fam.param_dim}")
    grad = fam.grad_log_partition(theta)
    value = fam.log_partition(theta_prime) - fam.log_partition(theta) - float(np.dot(grad, theta_prime - theta))
    return _clip_nonneg(value)


def expfam_curve_point(
    theta_p: NaturalParams,
    theta_q: NaturalParams,
    side: str,
    lam: float,
    fam: ExpFamilySpec,
) -> NaturalParams:
    """Barycentric path point in the family: natural-coordinate line
    (exclusive) or moment-coordinate line pulled back (inclusive)."""
    _check_side(side)
    _check_lambda_unit(lam)
    tp, tq = theta_p.theta, theta_q.theta
    if tp.shape != (fam.param_dim,) or tq.shape != (fam.param_dim,):
        raise ParameterError(f"natural parameters must have length {fam.param_dim}")
    if side == EXCLUSIVE:
        return NaturalParams(lam * tp + (1.0 - lam) * tq)
    eta = lam * fam.grad_log_partition(tp) + (1.0 - lam) * fam.grad_log_partition(tq)
    return NaturalParams(fam.inv_grad_log_partition(eta))


def frontier_kl(
    P: GaussianParams, Q: GaussianParams, side: str, grid_size: int = 201
) -> FrontierCurve:
    """KL frontier between Gaussians on ``grid_size`` uniform lambdas.

    Points are (lambda, div_p, div_q): exclusive uses
    (KL(gamma||P), KL(gamma||Q)), inclusive (KL(P||gamma), KL(Q||gamma)).
    Whitening Sigma_P + Sigma_Q and one eigendecomposition give P ~ N(a, diag t)
    and Q ~ N(b, diag s) with t, s in (0, 1]. An exclusive point then has
    precision lambda/t + (1-lambda)/s, so each KL is a sum of d 1-D KLs; an
    inclusive point adds lambda(1-lambda)(a-b)(a-b)' to a diagonal
    covariance, handled by the determinant lemma and Sherman-Morrison.
    1-D variances more than e^690 apart, which whitening would underflow,
    take the same losses in logs (_frontier_far_1d).
    """
    _check_side(side)
    _check_grid_size(grid_size)
    far = _far_1d(P, Q)
    ends = FrontierCurve(((0.0, INF, 0.0), (1.0, 0.0, INF)), side, Alpha.one())
    lams = np.linspace(0.0, 1.0, grid_size)
    if far is not None:
        if not np.isfinite(far[2]):
            return ends
        div_p, div_q = _frontier_far_1d(*far, lams, side)
        return FrontierCurve(_pareto_filter_triples(list(zip(lams.tolist(), div_p, div_q))), side, Alpha.one())
    t, s, d2 = _whitened_pair(P, Q)
    if not np.isfinite(d2.sum()):
        # the squared mean offset overflows, so 0 * inf would make NaN of
        # the exact ends and the interior losses are out of float range
        return ends
    divs = []
    for block in _row_blocks(lams, t.size):
        lam, mu = block[:, None], 1.0 - block[:, None]
        # KL = (sum over axes of 1/r - 1 + log r + m, plus log k) / 2; each r is
        # exactly 1 at its own end, so the vanishing coordinate is exactly 0 there
        if side == EXCLUSIVE:
            r_p, r_q = lam + mu * (t / s), lam * (s / t) + mu  # precision times t, s
            shift = d2 / (r_p * r_q)  # (mean - a)^2 / t = mu^2 shift / s
            m_p, m_q, log_k = mu * mu * shift / s, lam * lam * shift / t, 0.0
        else:
            var, c = lam * t + mu * s, lam * mu  # covariance diag(var) + c (a-b)(a-b)'
            r_p, r_q = lam + mu * (s / t), lam * (t / s) + mu  # var / t, var / s
            c_s0 = c * (d2 / var).sum(axis=1, keepdims=True)  # k = 1 + c_s0 by the determinant lemma
            m_p, m_q = (d2 / var * (w * w - c / r) / (1.0 + c_s0) for w, r in ((mu, r_p), (lam, r_q)))
            log_k = np.log1p(c_s0[:, 0])
        divs.append([_clip_nonneg(_kl_axes(r, m) + 0.5 * log_k) for r, m in ((r_p, m_p), (r_q, m_q))])
    div_p, div_q = (np.concatenate(d).tolist() for d in zip(*divs))
    return FrontierCurve(_pareto_filter_triples(list(zip(lams.tolist(), div_p, div_q))), side, Alpha.one())


def _frontier_far_1d(vp: float, vq: float, delta: float, lams: np.ndarray, side: str) -> tuple[list, list]:
    """frontier_kl's two losses for 1-D Gaussians whose variances are beyond
    float range of each other (see divergences._far_1d), in logs.

    Exclusive: the precision times var_P and var_Q is r_p = lam + mu var_P/var_Q
    and r_q = lam var_Q/var_P + mu, each KL is (1/r - 1 + log r + m)/2 with
    m_p = mu^2 delta^2 / (var_Q r_p r_q) and m_q = lam^2 delta^2 / (var_P r_p r_q).
    Inclusive: gamma has variance v = lam var_P + mu var_Q + lam mu delta^2, and
    KL(P || gamma) = (var_P/v - 1 - log(var_P/v) + mu^2 delta^2 / v)/2, Q alike.
    Each log is a log-sum-exp of the terms' logs, so no ratio leaves float
    range; at its own end each loss is exactly 0.
    """
    lp, lq = np.log(vp), np.log(vq)
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf and exp of it 0; far values are inf
        log_lam, log_mu, log_d2 = np.log(lams), np.log(1.0 - lams), 2.0 * np.log(delta)
        if side == EXCLUSIVE:
            log_rp, log_rq = np.logaddexp(log_lam, log_mu + lp - lq), np.logaddexp(log_lam + lq - lp, log_mu)
            shift = log_d2 - log_rp - log_rq
            terms = ((-log_rp, 2.0 * log_mu + shift - lq), (-log_rq, 2.0 * log_lam + shift - lp))
        else:
            log_v = np.logaddexp(np.logaddexp(log_lam + lp, log_mu + lq), log_lam + log_mu + log_d2)
            terms = ((lp - log_v, 2.0 * log_mu + log_d2 - log_v), (lq - log_v, 2.0 * log_lam + log_d2 - log_v))
        # (x - 1 - log x + m) / 2 from log x and log m
        return tuple(_clip_nonneg(0.5 * (np.exp(x) - 1.0 - x + np.exp(m))).tolist() for x, m in terms)


def kl_endpoints(P: GaussianParams, Q: GaussianParams) -> tuple[float, float]:
    """The two frontier endpoints as (precision_loss, recall_loss) =
    (KL(Q||P), KL(P||Q)).

    KL(Q||P) is sensitive to Q placing mass where P has little (precision),
    KL(P||Q) to Q failing to cover P (recall).
    """
    if P.dim == Q.dim == 1:
        return _kl_1d(Q, P), _kl_1d(P, Q)
    t, s, d2 = _whitened_pair(P, Q)  # one whitening for both directions
    return _clip_nonneg(_kl_axes(t / s, d2 / t)), _clip_nonneg(_kl_axes(s / t, d2 / s))
