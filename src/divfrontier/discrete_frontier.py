"""Divergence frontiers for histograms.

The frontier between p and q is traced by a closed-form barycentric path
gamma(lambda) on the simplex; evaluating the order-alpha divergences from
each path point to p and to q yields the Pareto-minimal set of
(loss-of-recall, loss-of-precision) pairs. The alpha = infinity exclusive
frontier is parameterized by the geodesic of the Funk weak metric and maps
onto the classic precision-recall set by componentwise exp-negation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import Alpha, Histogram, check_same_length, require_alpha
from .divergences import renyi_rows
from .errors import ParameterError, require_integers

EXCLUSIVE = "exclusive"
INCLUSIVE = "inclusive"
_SIDES = (EXCLUSIVE, INCLUSIVE)
MAX_GRID_SIZE = 10_000  # largest lambda grid a frontier accepts; its memory is bounded by the blocks
# entries of one (lambda rows x n or d), (grid rows x n) or (curve x front) block:
# a float block is 512 KiB, so the few arrays a kernel keeps live on it fit a
# 2 MiB per-core L2 cache
_BLOCK_ENTRIES = 1 << 16
_PREFILTER_MIN = 1024  # pareto_filter prunes inputs of this many points by a sample's front first


@dataclass(frozen=True)
class FrontierCurve:
    """Ordered (lambda, div_p, div_q) triples along a frontier.

    div_p is the divergence coordinate involving p (loss of recall) and
    div_q the one involving q (loss of precision).
    """

    points: tuple[tuple[float, float, float], ...]
    side: str
    alpha: Alpha


@dataclass(frozen=True)
class PRDCurve:
    """Pareto-maximal (precision, recall) pairs in [0,1]^2."""

    points: tuple[tuple[float, float], ...]


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise ParameterError(f"side must be one of {_SIDES}, got {side!r}")


def _check_grid_size(grid_size: int) -> None:
    require_integers(grid_size=grid_size)
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise ParameterError(f"grid_size must be in [2, {MAX_GRID_SIZE}], got {grid_size}")


def _check_lambda_unit(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must be in [0,1], got {lam}")


def _row_blocks(rows: np.ndarray, width: int):
    """Consecutive slices of rows, each small enough that a (block x width) array
    stays within _BLOCK_ENTRIES, so memory does not grow with the rows."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return (rows[i : i + step] for i in range(0, len(rows), step))


def _power_mean_rows(pv: np.ndarray, qv: np.ndarray, e: float, lams: np.ndarray) -> np.ndarray:
    """Unnormalised points on the barycentric path whose entries are power
    means of order e, one row per lambda in [0, 1]:
    gamma_i proportional to (lam*q_i^e + (1-lam)*p_i^e)^(1/e).

    Order 0 is the geometric mean q_i^lam * p_i^(1-lam) and order 1 the
    arithmetic mean; the rows at lambda 0 and 1 are p and q. For e <= 0 a
    zero in either p_i or q_i forces gamma_i = 0 on the open interval
    (continuity limit of the formula); for e > 0 only a zero in both does.
    """
    lam = lams[:, None]
    if e == 1.0:  # exactly p and q at lambda 0 and 1
        return lam * qv + (1.0 - lam) * pv
    rows = np.where(lam == 0.0, pv, qv)  # the ends; rows inside (0, 1) are filled below
    inner = (lams > 0.0) & (lams < 1.0)
    live = (pv > 0) & (qv > 0) if e <= 0.0 else (pv > 0) | (qv > 0)
    if np.any(inner) and not np.any(live):
        raise ParameterError("barycentric path point has empty support")
    with np.errstate(divide="ignore"):  # for e > 0 a live entry may be 0 in one of p, q
        log_p, log_q = np.log(pv[live]), np.log(qv[live])
    lam = lam[inner]
    if e == 0.0:
        log_w = lam * log_q + (1.0 - lam) * log_p
    else:
        log_w = np.logaddexp(np.log(lam) + e * log_q, np.log1p(-lam) + e * log_p) / e
    rows[inner] = 0.0
    rows[np.ix_(inner, live)] = np.exp(log_w - log_w.max(axis=1, keepdims=True, initial=-np.inf))
    return rows


def _power_mean_point(p: Histogram, q: Histogram, e: float, lam: float) -> Histogram:
    """The power-mean path point of order e at one lambda in [0, 1]."""
    check_same_length(p, q)
    _check_lambda_unit(lam)
    return Histogram(_power_mean_rows(p.probs, q.probs, e, np.array([lam], dtype=float))[0])


def exclusive_curve_point(p: Histogram, q: Histogram, alpha: Alpha, lam: float) -> Histogram:
    """Point on the exclusive barycentric path, the power mean of order 1-a:
    gamma_i proportional to (lam*q_i^(1-a) + (1-lam)*p_i^(1-a))^(1/(1-a))."""
    require_alpha(alpha)
    if not alpha.is_finite:
        raise ParameterError(
            "exclusive_curve_point needs a finite alpha != 1; use kl_curve_point "
            "or infinity_geodesic_point for the limits"
        )
    return _power_mean_point(p, q, 1.0 - alpha.value, lam)


def inclusive_curve_point(p: Histogram, q: Histogram, alpha: Alpha, lam: float) -> Histogram:
    """Point on the inclusive path, the power mean of order a:
    gamma_i proportional to (lam*q_i^a + (1-lam)*p_i^a)^(1/a)."""
    require_alpha(alpha)
    if not alpha.is_finite:
        raise ParameterError(
            "inclusive_curve_point needs a finite alpha != 1; use kl_curve_point "
            "for the alpha=1 limit"
        )
    return _power_mean_point(p, q, alpha.value, lam)


def kl_curve_point(p: Histogram, q: Histogram, side: str, lam: float) -> Histogram:
    """alpha = 1 limits of the paths: normalized geometric mixture
    (exclusive, order 0) or arithmetic mixture (inclusive, order 1)."""
    _check_side(side)
    return _power_mean_point(p, q, 1.0 if side == INCLUSIVE else 0.0, lam)


def _ratio_domain(p: Histogram, q: Histogram) -> tuple[float, float]:
    """[min, max] of the finite ratios q_i/p_i over p's support. A ratio
    overflows only for a subnormal p_i; leaving it out keeps the lambda grid
    finite, and p's largest entry (>= 1/n) always gives a finite one."""
    pv, qv = p.probs, q.probs
    mask = pv > 0
    with np.errstate(over="ignore"):
        ratios = qv[mask] / pv[mask]
    ratios = ratios[np.isfinite(ratios)]
    return float(ratios.min()), float(ratios.max())


def _geodesic_rows(pv: np.ndarray, qv: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Unnormalised points on the Funk-metric geodesic, one row per lambda:
    gamma_i proportional to min(p_i, q_i/lambda), and p at lambda = 0."""
    # the row at lambda 0 is p, not q/0; a q_i/lambda that overflows is inf,
    # and the min then takes p_i, which is what the exact ratio gives
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(lams[:, None] > 0.0, np.minimum(pv, qv / lams[:, None]), pv)


def infinity_geodesic_point(p: Histogram, q: Histogram, lam: float) -> Histogram:
    """Point on the Funk-metric geodesic,
    gamma_i proportional to min(p_i, q_i/lambda),
    lambda in [min_i q_i/p_i, max_i q_i/p_i] over the support of p."""
    check_same_length(p, q)
    lo, hi = _ratio_domain(p, q)
    if not lo - 1e-12 <= lam <= hi + 1e-12:
        raise ParameterError(f"lambda={lam} outside geodesic domain [{lo}, {hi}]")
    return Histogram(_geodesic_rows(p.probs, q.probs, np.array([lam], dtype=float))[0])


def pareto_filter(points: Sequence[tuple[float, float]] | np.ndarray) -> list[tuple[float, float]]:
    """Remove points strictly dominated in both coordinates (minimization).

    Output is sorted ascending by first coordinate (ties by second) and
    deduplicated on exact ties of both coordinates. Points are (x, y) pairs,
    infinities allowed; other input, NaN included, raises ParameterError.

    From _PREFILTER_MIN points on, the front of a strided sample first drops
    every point that one of its points beats strictly in both coordinates.
    That cannot change the output. Such a point would be dropped anyway, and
    its dominator, which no sample point beats, stays and beats everything
    the dropped point beats, so no running minimum moves. The kept points
    keep their input order, so exact ties resolve as before.
    """
    return list(map(tuple, _pareto_front(_point_array(points)).tolist()))


def _point_array(points) -> np.ndarray:
    """points as an (N, 2) float array, (0, 2) when empty; ragged or
    wrong-shaped input, or a NaN coordinate, raises ParameterError."""
    try:
        xy = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"points must be (x, y) pairs of numbers: {exc}") from exc
    xy = xy.reshape(0, 2) if xy.size == 0 else xy
    if xy.ndim != 2 or xy.shape[1] != 2 or np.isnan(xy).any():
        raise ParameterError(f"points must be (x, y) pairs without NaN, got an array of shape {xy.shape}")
    return xy


def _pareto_front(xy: np.ndarray) -> np.ndarray:
    """pareto_filter's output rows as an array, the prefilter included."""
    if xy.shape[0] >= _PREFILTER_MIN:
        front = _pareto_front(xy[:: xy.shape[0] // (_PREFILTER_MIN // 2)])
        # the least y among front points of strictly smaller x, where there is one
        below = np.searchsorted(front[:, 0], xy[:, 0])
        least_y = np.concatenate([[np.inf], np.minimum.accumulate(front[:, 1])])[below]
        xy = xy[~(least_y < xy[:, 1])]
    if xy.shape[0] == 0:
        return xy
    s = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
    s = s[np.concatenate([[True], np.any(s[1:] != s[:-1], axis=1)])]
    # keep a point unless its y is above the min y over strictly smaller x,
    # which is the running min of y read at the first point of its x run
    best = np.minimum.accumulate(np.concatenate([[np.inf], s[:-1, 1]]))
    first = np.concatenate([[True], s[1:, 0] != s[:-1, 0]])
    run_start = np.maximum.accumulate(np.where(first, np.arange(s.shape[0]), 0))
    return s[~(s[:, 1] > best[run_start])]


def _traced_curve(lams: np.ndarray, width: int, pairs_of, side: str, alpha: Alpha) -> FrontierCurve:
    """The curve of the (lambda, div_p, div_q) triples whose pair pareto_filter
    keeps, each pair at its first lambda, in lambda order; pairs_of gives the
    (div_p, div_q) arrays of each block of _row_blocks(lams, width)."""
    xy = np.column_stack([np.concatenate(c) for c in zip(*map(pairs_of, _row_blocks(lams, width)))])
    # one complex value per (x, y) row sorts and compares as the pair does
    # (-0.0 equal to 0.0), so the sorted front pairs are found among the
    # sorted distinct pairs, each with its first row
    front = np.array(pareto_filter(xy), dtype=float).view(complex)[:, 0]
    pairs, first = np.unique(xy.view(complex)[:, 0], return_index=True)
    keep = np.sort(first[np.searchsorted(pairs, front)])
    return FrontierCurve(tuple(zip(lams[keep].tolist(), *xy[keep].T.tolist())), side, alpha)


def _geometric_lambda_grid(lo: float, hi: float, grid_size: int) -> np.ndarray:
    """Log-uniform grid over the geodesic ratio domain [lo, hi].

    A zero lower end (q vanishing somewhere on p's support) cannot be
    placed on a log grid, so it is prepended to a log grid anchored at a
    small positive ratio.
    """
    if hi <= 0.0:
        return np.array([0.0])
    if lo == hi:
        return np.array([lo])
    if lo > 0.0:
        return np.geomspace(lo, hi, grid_size)
    inner = np.geomspace(hi * 1e-9, hi, grid_size - 1)
    return np.concatenate([[0.0], inner])


def frontier(
    p: Histogram, q: Histogram, alpha: Alpha, side: str, grid_size: int = 201
) -> FrontierCurve:
    """Closed-form divergence frontier sampled on a lambda grid and
    Pareto-filtered.

    Exclusive points are (D_a(gamma||p), D_a(gamma||q)); inclusive points
    are (D_a(p||gamma), D_a(q||gamma)). alpha = infinity dispatches to the
    geodesic parameterization (exclusive side only).
    """
    require_alpha(alpha)
    _check_side(side)
    check_same_length(p, q)
    _check_grid_size(grid_size)
    if alpha.is_zero:
        raise ParameterError(
            "alpha=0 frontiers degenerate to support overlap; use the kNN "
            "support metrics in the estimation module"
        )
    pv, qv = p.probs, q.probs
    if alpha.is_infinity:
        if side != EXCLUSIVE:
            raise ParameterError("alpha=inf frontiers are only defined exclusively")
        lams = _geometric_lambda_grid(*_ratio_domain(p, q), grid_size)
    else:
        lams = np.linspace(0.0, 1.0, grid_size)
        e = alpha.value if side == INCLUSIVE else 1.0 - alpha.value

    def pairs_of(block):
        W = _geodesic_rows(pv, qv, block) if alpha.is_infinity else _power_mean_rows(pv, qv, e, block)
        G = np.stack([Histogram(w).probs for w in W])  # each row normalised as a Histogram
        if side == EXCLUSIVE:
            return renyi_rows(G, pv, alpha), renyi_rows(G, qv, alpha)
        return renyi_rows(pv, G, alpha), renyi_rows(qv, G, alpha)

    return _traced_curve(lams, len(p), pairs_of, side, alpha)


def _prd_curve(pairs) -> PRDCurve:
    """Pareto-maximal (precision, recall) pairs, sorted by recall.

    A pair with a zero coordinate becomes (0, 0): an infinite divergence
    means no shared component realizes it, and only (0, 0) is in the
    precision-recall set by convention. (0, 0) is always added, so the
    curve is never empty.
    """
    xy = np.array(pairs, dtype=float).reshape(-1, 2)
    xy[np.any(xy == 0.0, axis=1)] = 0.0
    front = pareto_filter(-np.vstack([xy, [[0.0, 0.0]]]))
    return PRDCurve(tuple(sorted(((-x, -y) for x, y in front), key=lambda t: (t[1], t[0]))))


def prd_from_infinity_frontier(curve: FrontierCurve) -> PRDCurve:
    """Map the alpha = inf exclusive frontier to precision-recall pairs.

    A frontier pair (div_p, div_q) becomes precision exp(-div_q) and
    recall exp(-div_p).
    """
    if not (curve.alpha.is_infinity and curve.side == EXCLUSIVE):
        raise ParameterError("PRD mapping needs an alpha=inf exclusive frontier")
    divs = np.asarray(curve.points, dtype=float).reshape(-1, 3)[:, [2, 1]]
    return _prd_curve(np.exp(-divs))


def prd_reference(p: Histogram, q: Histogram, grid_size: int = 201) -> PRDCurve:
    """Independent precision-recall construction from the mixture
    definition: for a ratio lambda the maximal achievable pair is
    precision sum_i min(lambda*p_i, q_i), recall sum_i min(p_i, q_i/lambda).
    Serves as the oracle for :func:`prd_from_infinity_frontier`.
    """
    check_same_length(p, q)
    _check_grid_size(grid_size)
    pv, qv = p.probs, q.probs
    lo, hi = _ratio_domain(p, q)
    lams = _geometric_lambda_grid(lo, hi, grid_size)
    pairs = []
    for lam in lams:
        precision = float(np.minimum(lam * pv, qv).sum())
        if lam > 0.0:
            with np.errstate(divide="ignore"):
                recall = float(np.minimum(pv, qv / lam).sum())
        else:
            recall = float(pv[qv > 0].sum())  # lam -> 0: all q-supported mass of p
        pairs.append((precision, recall))
    return _prd_curve(pairs)
