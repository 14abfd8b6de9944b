"""Brute-force certification of the closed-form frontiers.

Exhaustive simplex-grid sweeps approximate the realizable region directly
from its definition, a quadratic scan checks Pareto filtering, and
quadrature / Monte-Carlo estimators check the Gaussian closed forms. The
oracle ships with the library (not test-only) so results can be certified
on user inputs via the ``oracle-check`` CLI command.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete_frontier import EXCLUSIVE, INCLUSIVE, FrontierCurve, _check_side, _row_blocks, pareto_filter
from .distributions import Alpha, GaussianParams, Histogram, check_same_length
from .divergences import renyi_rows
from .errors import ParameterError

GRID_SMOOTHING = 1e-12  # applied to grid points only, so boundary bins stay finite
# Largest simplex grid enumerate_simplex builds, in entries (points x bins):
# the oracle holds the grid itself in floats (and evaluates it in blocks),
# so its memory grows with the entries, not with the points alone.
MAX_SIMPLEX_ENTRIES = 2_000_000


@dataclass(frozen=True)
class SimplexGrid:
    """All histograms with entries i/m on the (n-1)-simplex.

    ``points`` is held bins-major (Fortran order): each bin's column is
    contiguous, so row-wise kernels over the grid sweep long columns
    instead of n-wide rows.
    """

    n: int
    m: int
    points: np.ndarray  # shape (count, n), rows sum to 1, Fortran order

    @property
    def count(self) -> int:
        return self.points.shape[0]


def enumerate_simplex(n: int, m: int) -> SimplexGrid:
    """Exhaustive, lexicographically ordered grid; binomial(m+n-1, n-1) points,
    held bins-major (see SimplexGrid)."""
    if n < 2 or m < 1:
        raise ParameterError("need n >= 2 and m >= 1")
    # the count C(m+n-1, k), k = min(n-1, m), is at least 2**k, so a k past
    # the cap's bit length is over it without computing a huge binomial
    k = min(n - 1, m)
    if k >= MAX_SIMPLEX_ENTRIES.bit_length() or math.comb(m + n - 1, k) * n > MAX_SIMPLEX_ENTRIES:
        raise ParameterError(f"simplex grid n={n}, m={m} exceeds {MAX_SIMPLEX_ENTRIES} entries; lower m")
    # grow prefixes one entry at a time, keeping only each prefix's parent,
    # last entry and sum, so building costs O(count x n), not O(count x n^2)
    sums, steps = np.zeros(1, dtype=np.int64), []
    for _ in range(n - 1):
        # every prefix gets one child per value 0..(m - prefix sum) of its next entry
        free = m - sums + 1
        parent = np.repeat(np.arange(len(sums)), free)
        nxt = np.arange(len(parent)) - np.repeat(np.cumsum(free) - free, free)
        sums = sums[parent] + nxt
        steps.append((parent, nxt))
    points = np.empty((len(sums), n), order="F")  # filled, and later read, a column at a time
    points[:, -1] = m - sums
    row = np.arange(len(sums))
    for j in range(n - 2, -1, -1):  # walk each full row back through its prefixes
        parent, nxt = steps[j]
        points[:, j] = nxt[row]
        row = parent[row]
    points /= m
    return SimplexGrid(n=n, m=m, points=points)


def realizable_pairs(
    p: Histogram, q: Histogram, alpha: Alpha, side: str, grid: SimplexGrid
) -> np.ndarray:
    """Divergence pairs (div_p, div_q) at every smoothed grid point.

    The grid is evaluated in row blocks of _BLOCK_ENTRIES entries (see
    _row_blocks), so each block's arrays stay in cache: a block of
    grid.points is smoothed and normalised in place, keeping its bins-major
    layout, and both columns of the (count, 2) result are written from it.
    A block has at least two rows, so that NumPy adds each row in sequence
    as it does over the whole bins-major grid (a single row is summed
    pairwise from 8 bins); every value is the one the whole grid gives.
    """
    _check_side(side)
    check_same_length(p, q)
    if grid.n != len(p):
        raise ParameterError(f"grid dimension {grid.n} does not match histograms of length {len(p)}")
    pv = p.probs + GRID_SMOOTHING
    pv = pv / pv.sum()
    qv = q.probs + GRID_SMOOTHING
    qv = qv / qv.sum()
    out = np.empty((grid.count, 2))
    for rows in _row_blocks(range(grid.count), grid.n):
        stop = max(rows.stop, min(rows.start + 2, grid.count))  # a lone row is evaluated with a neighbour
        start = min(rows.start, stop - 2)
        R = grid.points[start:stop] + GRID_SMOOTHING
        R /= R.sum(axis=1, keepdims=True)
        if side == EXCLUSIVE:
            out[start:stop, 0], out[start:stop, 1] = renyi_rows(R, pv, alpha), renyi_rows(R, qv, alpha)
        else:
            out[start:stop, 0], out[start:stop, 1] = renyi_rows(pv, R, alpha), renyi_rows(qv, R, alpha)
    return out


def brute_force_frontier(
    p: Histogram, q: Histogram, alpha: Alpha, side: str, grid: SimplexGrid
) -> list[tuple[float, float]]:
    """Pareto-minimal divergence pairs over the exhaustive simplex grid."""
    return pareto_filter(realizable_pairs(p, q, alpha, side, grid))


def max_dominance_violation(
    curve_points: list[tuple[float, float]] | np.ndarray, grid_pairs: np.ndarray
) -> float:
    """Largest margin by which any grid point beats a curve point in both
    coordinates simultaneously (0 if none dominates at all)."""
    C = np.asarray(curve_points, dtype=float).reshape(-1, 2)
    block_max = [
        np.minimum(c[:, None, 0] - grid_pairs[None, :, 0], c[:, None, 1] - grid_pairs[None, :, 1]).max(initial=0.0)
        for c in _row_blocks(C, len(grid_pairs))
    ]
    return float(np.max(block_max, initial=0.0))


def hausdorff_linf(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Symmetric Hausdorff distance under the max-coordinate point metric."""
    B = np.asarray(b)
    row_max, col_min = [], np.inf
    for block in _row_blocks(np.asarray(a), len(B)):
        d = np.maximum(np.abs(block[:, None, 0] - B[None, :, 0]), np.abs(block[:, None, 1] - B[None, :, 1]))
        row_max.append(d.min(axis=1).max())
        col_min = np.minimum(col_min, d.min(axis=0))
    return float(max(np.max(row_max), col_min.max()))


def certify_frontier(
    p: Histogram,
    q: Histogram,
    alpha: Alpha,
    side: str,
    curve: FrontierCurve,
    m: int = 60,
) -> dict:
    """Certify a closed-form frontier curve against the m-denominator grid.

    Returns a verdict dict with the worst dominance margin (tolerance 2/m)
    and the Hausdorff distance to the grid frontier (tolerance 5/m). It also
    reports curve_max_step, the largest L-infinity gap between consecutive
    finite curve points: a Hausdorff distance below it can come from how
    coarsely the curve is sampled rather than from a wrong closed form.
    """
    grid = enumerate_simplex(len(p), m)
    oracle_front = brute_force_frontier(p, q, alpha, side, grid)
    curve_pairs = np.asarray(curve.points, dtype=float).reshape(-1, 3)[:, 1:]
    finite = curve_pairs[np.isfinite(curve_pairs).all(axis=1)]
    # every grid pair the filter drops is strictly beaten in both
    # coordinates by a kept one, so the front gives the same worst margin
    violation = max_dominance_violation(finite, np.array(oracle_front))
    hausdorff = hausdorff_linf(finite, oracle_front) if len(finite) else float("inf")
    return {
        "max_dominance_violation": violation,
        "hausdorff_distance": hausdorff,
        "curve_max_step": float(np.abs(np.diff(finite, axis=0)).max(initial=0.0)),
        "pass": bool(violation <= 2.0 / m and hausdorff <= 5.0 / m),
    }


def divergence_quadrature(
    P: GaussianParams,
    Q: GaussianParams,
    alpha: Alpha,
    mc_samples: int = 10**6,
    seed: int = 0,
) -> tuple[float, float]:
    """Numerical Renyi divergence between Gaussian densities.

    1-D uses adaptive quadrature, d >= 2 Monte Carlo with P-samples.
    Returns (value, error_estimate).
    """
    if P.dim != Q.dim:
        raise ParameterError("dimension mismatch")
    if alpha.is_zero:
        return 0.0, 0.0
    if P.dim == 1:
        return _quadrature_1d(P, Q, alpha)
    return _monte_carlo(P, Q, alpha, mc_samples, seed)


def _log_density_1d(x, mu, var):
    return -0.5 * (x - mu) ** 2 / var - 0.5 * np.log(2.0 * np.pi * var)


def _quadrature_1d(P: GaussianParams, Q: GaussianParams, alpha: Alpha):
    from scipy.integrate import quad

    mu_p, var_p = float(P.mean[0]), float(P.cov[0, 0])
    mu_q, var_q = float(Q.mean[0]), float(Q.cov[0, 0])
    span = 12.0 * max(np.sqrt(var_p), np.sqrt(var_q))
    lo = min(mu_p, mu_q) - span
    hi = max(mu_p, mu_q) + span
    if alpha.is_one:
        def integrand(x):
            lp = _log_density_1d(x, mu_p, var_p)
            lq = _log_density_1d(x, mu_q, var_q)
            return np.exp(lp) * (lp - lq)

        value, err = quad(integrand, lo, hi, limit=800, epsabs=1e-12, epsrel=1e-12)
        return float(value), float(err)
    if alpha.is_infinity:
        xs = np.linspace(lo, hi, 2_000_001)
        ratio = _log_density_1d(xs, mu_p, var_p) - _log_density_1d(xs, mu_q, var_q)
        return float(np.max(ratio)), float((hi - lo) / 2e6)
    a = alpha.value

    def integrand(x):
        lp = _log_density_1d(x, mu_p, var_p)
        lq = _log_density_1d(x, mu_q, var_q)
        return np.exp(a * lp + (1.0 - a) * lq)

    # the integrand is an exponentially tilted Gaussian whose peak can sit
    # far from both means for large alpha; widen the range around it
    prec_eff = a / var_p + (1.0 - a) / var_q
    if prec_eff > 0:
        x_star = (a * mu_p / var_p + (1.0 - a) * mu_q / var_q) / prec_eff
        sd_eff = np.sqrt(1.0 / prec_eff)
        lo = min(lo, x_star - 40.0 * sd_eff)
        hi = max(hi, x_star + 40.0 * sd_eff)
    integral, err = quad(
        integrand, lo, hi, limit=800, epsabs=1e-13, epsrel=1e-12,
        points=[mu_p, mu_q],
    )
    if integral <= 0:
        return float("inf"), float("inf")
    value = np.log(integral) / (a - 1.0)
    return float(value), float(err / integral / abs(a - 1.0))


def _log_density_nd(x: np.ndarray, g: GaussianParams) -> np.ndarray:
    chol = np.linalg.cholesky(g.cov)
    diff = np.linalg.solve(chol, (x - g.mean).T)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * np.sum(diff**2, axis=0) - 0.5 * (g.dim * np.log(2.0 * np.pi) + logdet)


def _monte_carlo(P: GaussianParams, Q: GaussianParams, alpha: Alpha, n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.multivariate_normal(P.mean, P.cov, size=n)
    log_ratio = _log_density_nd(x, P) - _log_density_nd(x, Q)
    if alpha.is_one:
        value = float(np.mean(log_ratio))
        err = float(np.std(log_ratio, ddof=1) / np.sqrt(n))
        return value, err
    if alpha.is_infinity:
        raise ParameterError("Monte-Carlo estimation of D_inf is not supported")
    a = alpha.value
    w = np.exp((a - 1.0) * log_ratio)
    mean_w = float(np.mean(w))
    err_w = float(np.std(w, ddof=1) / np.sqrt(n))
    value = float(np.log(mean_w) / (a - 1.0))
    err = err_w / mean_w / abs(a - 1.0)  # delta method
    return value, err
