"""KL (alpha = 1) frontiers within an exponential family.

The exclusive path interpolates linearly in natural coordinates; the
inclusive path interpolates in moment coordinates and maps back through
the inverse gradient of the log-partition. Both paths reach theta_P at
lambda = 1 and theta_Q at lambda = 0 (this orientation is normalized only
in CSV output, see :mod:`divfrontier.io`). :func:`frontier_kl` and
:func:`kl_endpoints` evaluate Gaussians in closed form from one whitened
pair, as per-axis sums.
"""
from __future__ import annotations

import numpy as np

from .discrete_frontier import EXCLUSIVE, INCLUSIVE, FrontierCurve, _check_grid_size, _check_lambda_unit, _check_side
from .discrete_frontier import _pareto_filter_triples, _row_blocks
from .distributions import Alpha, GaussianParams
from .divergences import INF, ExpFamilySpec, _clip_nonneg, _kl_axes, _whitened_pair
from .errors import ParameterError
from .expfamily import NaturalParams


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
    """
    _check_side(side)
    _check_grid_size(grid_size)
    t, s, d2 = _whitened_pair(P, Q)
    if not np.isfinite(d2.sum()):
        # the squared mean offset overflows, so 0 * inf would make NaN of
        # the exact ends and the interior losses are out of float range
        return FrontierCurve(((0.0, INF, 0.0), (1.0, 0.0, INF)), side, Alpha.one())
    lams = np.linspace(0.0, 1.0, grid_size)
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


def kl_endpoints(P: GaussianParams, Q: GaussianParams) -> tuple[float, float]:
    """The two frontier endpoints as (precision_loss, recall_loss) =
    (KL(Q||P), KL(P||Q)).

    KL(Q||P) is sensitive to Q placing mass where P has little (precision),
    KL(P||Q) to Q failing to cover P (recall).
    """
    t, s, d2 = _whitened_pair(P, Q)  # one whitening for both directions
    return _clip_nonneg(_kl_axes(t / s, d2 / t)), _clip_nonneg(_kl_axes(s / t, d2 / s))
