"""Closed-form divergence evaluations.

Discrete Renyi divergences of any order (including the 0, 1 and infinity
limits) and Gaussian Renyi/KL in closed form from one whitened pair as
per-axis sums.

Conventions: 0^a = 0 for a > 0 and 0*log(0/q) = 0, so zero-mass entries
never contribute; a support violation is detected explicitly and returns
+inf, which is a first-class value here.
"""
from __future__ import annotations

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
FAR_LOG_RATIO = 690.0  # 1-D variances more than e^690 (~1e300) apart are worked in logs


def logsumexp(x, axis=None):
    """log(sum(exp(x))) over ``axis`` (all entries if None).

    Shifted by the maximum so that terms near +-700 neither overflow nor
    underflow; a row whose terms are all -inf gives -inf.
    """
    return _logsumexp_in_place(np.array(x, dtype=float), axis)


def _logsumexp_in_place(x: np.ndarray, axis):
    """logsumexp of a float array, which is overwritten by exp(x - max)."""
    top = x.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    x -= top
    np.exp(x, out=x)
    with np.errstate(divide="ignore"):
        out = np.log(x.sum(axis=axis, keepdims=True)) + top
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

    The terms are built in place in one working array t of the broadcast
    shape: the log of x (of y, if only y has many rows) is written into t
    and the other operand's log term is added to it (a * log x +
    (1 - a) * log y at finite orders, in either order, since IEEE addition
    commutes; log x - log y, times x at order 1). Entries off x's support
    are set by assignment, only where x has a zero. Row sums depend on
    layout: from 8 bins NumPy adds a C-order row pairwise and the rows of an
    F-order array in sequence. So t is laid out as NumPy lays out x - y,
    and each value is the one the whole-array expressions would give.

    The total-variation check measures only candidate rows: a row can have
    0.5 * sum_j |x_j - y_j| <= EQUALITY_TOL only if 0.5 * |x_0 - y_0| is,
    because a rounded sum of nonnegative terms is never below any of its
    terms. The candidates are summed in t's order (in sequence, by a
    cumulative sum, where t is F-order), so no row's verdict changes.
    """
    x, y = np.atleast_2d(x, y)
    xsupp = x > 0
    t = np.nditer((x, y, None), ["zerosize_ok"], op_dtypes=(None, None, float)).operands[2]  # laid out as x - y
    many, one = (x, y) if x.shape == t.shape else (y, x)
    # terms off x's support are masked out. On it, a zero of y gives a +inf
    # term at orders >= 1 (a support violation) and a -inf one below 1, where
    # a row without shared support sums to -inf and 1/(a - 1) < 0 makes it +inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if alpha.is_zero:
            np.copyto(t, y)
        else:
            np.log(many, out=t)
            log_one = np.log(one)
            if not (alpha.is_one or alpha.is_infinity):
                a = alpha.value
                a_many, a_one = (a, 1.0 - a) if many is x else (1.0 - a, a)
                t *= a_many
                t += a_one * log_one
            elif many is x:
                t -= log_one
            else:
                np.subtract(log_one, t, out=t)
            if alpha.is_one:
                t *= x
        if not xsupp.all():
            np.copyto(t, 0.0 if alpha.is_zero or alpha.is_one else -INF, where=~xsupp)
        if alpha.is_zero:
            out = -np.log(t.sum(axis=1))
        elif alpha.is_one:
            out = t.sum(axis=1)
        elif alpha.is_infinity:
            out = t.max(axis=1)
        else:
            out = _logsumexp_in_place(t, axis=1) / (a - 1.0)
    out = _clip_nonneg(out)
    if not alpha.is_infinity:
        rows = (0.5 * np.abs(x[:, 0] - y[:, 0]) <= EQUALITY_TOL).nonzero()[0]
        if rows.size:
            # mode "clip" gives a single-row operand's row to every candidate
            d = np.abs(x.take(rows, axis=0, mode="clip") - y.take(rows, axis=0, mode="clip"))
            tv = d.sum(axis=1) if t.flags.c_contiguous else np.cumsum(d, axis=1)[:, -1]
            out[rows[0.5 * tv <= EQUALITY_TOL]] = 0.0
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
    # quarter, then double: exact scalings that keep a sum above ~9e307 finite
    chol = 2.0 * np.linalg.cholesky(0.25 * P.cov + 0.25 * Q.cov)
    wp, wq = (np.linalg.solve(chol, np.linalg.solve(chol, cov).T) for cov in (P.cov, Q.cov))
    u = np.linalg.eigh(0.5 * (wp + wp.T))[1]
    # both Rayleigh quotients, since 1 - t loses a tiny s
    t, s = (np.einsum("ij,ij->j", u, w @ u) for w in (wp, wq))
    if not (np.all(t > 0.0) and np.all(s > 0.0)):
        raise ParameterError("covariances are singular to working precision")
    with np.errstate(over="ignore"):  # an offset beyond sqrt(float max) makes the divergences inf
        d2 = (u.T @ np.linalg.solve(chol, P.mean - Q.mean)) ** 2
    return t, s, d2


def _far_1d(P: GaussianParams, Q: GaussianParams) -> tuple[float, float, float] | None:
    """(var_P, var_Q, |mean_P - mean_Q|) for 1-D Gaussians whose variances
    are more than e^FAR_LOG_RATIO apart, else None.

    Whitening such a pair leaves the smaller variance below float range, so
    the 1-D closed forms for them work from the raw variances, their logs
    and the raw offset, as _kl_1d and the alpha = inf path do.
    """
    if not P.dim == Q.dim == 1:
        return None
    (vp,), (vq,) = P.cov[0], Q.cov[0]
    if abs(np.log(vq) - np.log(vp)) <= FAR_LOG_RATIO:
        return None
    with np.errstate(over="ignore"):  # an offset beyond float range is inf
        return float(vp), float(vq), float(abs(P.mean[0] - Q.mean[0]))


def _kl_axes(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """KL(N(a, diag u) || N(b, diag v)) summed over the last axis, from
    r = v / u and m = (a - b)^2 / v on each axis."""
    return 0.5 * (1.0 / r - 1.0 + np.log(r) + m).sum(axis=-1)


def _kl_1d(P: GaussianParams, Q: GaussianParams) -> float:
    """KL(P || Q) for 1-D Gaussians from the raw variances and mean offset.

    KL = (r - 1 - log r + delta^2 / var_Q) / 2 with r = var_P / var_Q. For
    close variances the gap var_P - var_Q is exact (Sterbenz), and a short
    series keeps the digits of r - 1 - log r that subtraction would cancel;
    for far ones log r is a difference of logs, so variances beyond float
    range of each other give a finite value or inf, not an underflow.
    """
    (vp,), (vq,) = P.cov[0], Q.cov[0]
    with np.errstate(over="ignore"):  # a value beyond float range is inf
        delta = abs(P.mean[0] - Q.mean[0])
        if 0.5 * vq <= vp <= 2.0 * vq:
            x = (vp - vq) / vq  # r - 1, and r - 1 - log r = x - log1p(x)
            if abs(x) < 1e-3:  # the series to x^6; the next term is below 3e-16 of the sum
                gap = x * x * (1 / 2 - x * (1 / 3 - x * (1 / 4 - x * (1 / 5 - x / 6))))
            else:
                gap = x - np.log1p(x)
        else:
            gap = vp / vq - 1.0 - (np.log(vp) - np.log(vq))
        return float(0.5 * (gap + delta * (delta / vq)))


def kl_gaussian(P: GaussianParams, Q: GaussianParams) -> float:
    """Closed-form KL divergence between multivariate Gaussians."""
    if P.dim == Q.dim == 1:
        return _kl_1d(P, Q)
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
    if alpha.is_infinity:
        if P.dim != 1:
            raise DivergenceUndefinedError("alpha=inf Gaussian divergence is only available in 1-D")
        # log(p/q) is a quadratic, concave with its vertex at this value iff
        # var_P < var_Q; the raw gap var_Q - var_P is exact for close variances
        # (Sterbenz), where the whitened gap s - t keeps few of its digits
        (vp,), (vq,) = P.cov[0], Q.cov[0]
        with np.errstate(over="ignore"):  # a value beyond float range is inf
            delta = abs(P.mean[0] - Q.mean[0])
            if vp >= vq:
                return 0.0 if vp == vq and delta == 0.0 else INF
            # log(var_Q / var_P), neither cancelling for close variances nor overflowing for far ones
            log_r = np.log1p((vq - vp) / vp) if vq < 2.0 * vp else np.log(vq) - np.log(vp)
            return _clip_nonneg(0.5 * log_r + 0.5 * delta * (delta / (vq - vp)))
    a = alpha.value
    far = _far_1d(P, Q)
    if far is not None:
        return _renyi_far_1d(*far, a)
    t, s, d2 = _whitened_pair(P, Q)
    r = s / t
    # the interpolated covariance is diag(t * (1 + a (r - 1))) on these axes
    k = a * (r - 1.0)
    if not np.all(k > -1.0):
        raise DivergenceUndefinedError(
            f"interpolated covariance alpha*Sigma_Q + (1-alpha)*Sigma_P is not positive definite for alpha={a}"
        )
    value = np.sum(a * d2 / (2.0 * t * (1.0 + k))) - np.sum(np.log1p(k) - a * np.log(r)) / (2.0 * (a - 1.0))
    return _clip_nonneg(value)


def _renyi_far_1d(vp: float, vq: float, delta: float, a: float) -> float:
    """D_a(P || Q) for 1-D Gaussians from _far_1d's variances and offset.

    With r = var_Q / var_P and k = a (r - 1) this is the whitened form,
    a delta^2 / (2 var_P (1 + k)) - (log(1 + k) - a log r) / (2 (a - 1)),
    where 1 + k = w max(r, 1) and var_P (1 + k) = w max(var_P, var_Q):
    w = a + (1 - a) / r for r > 1, and 1 - a + a r below.
    """
    log_r = float(np.log(vq) - np.log(vp))
    w = a + (1.0 - a) * np.exp(-log_r) if log_r > 0 else 1.0 - a + a * np.exp(log_r)
    if not w > 0.0:
        raise DivergenceUndefinedError(
            f"interpolated covariance alpha*Sigma_Q + (1-alpha)*Sigma_P is not positive definite for alpha={a}"
        )
    log_1k = np.log(w) + max(log_r, 0.0)
    with np.errstate(over="ignore"):  # an offset term beyond float range is inf
        maha = delta * (delta / max(vp, vq)) / w
        return _clip_nonneg(0.5 * a * maha - (log_1k - a * log_r) / (2.0 * (a - 1.0)))
