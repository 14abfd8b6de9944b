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

from .distributions import Alpha, Histogram, check_same_length
from .divergences import renyi_rows
from .errors import ParameterError

EXCLUSIVE = "exclusive"
INCLUSIVE = "inclusive"
_SIDES = (EXCLUSIVE, INCLUSIVE)


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


def _check_lambda_unit(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lambda must be in [0,1], got {lam}")


def _log_mix(log_a: np.ndarray, log_b: np.ndarray, lam: float) -> np.ndarray:
    """log(lam*exp(log_a) + (1-lam)*exp(log_b)), elementwise, -inf safe."""
    with np.errstate(divide="ignore"):
        return np.logaddexp(np.log(lam) + log_a, np.log1p(-lam) + log_b)


def _normalize_from_log(log_w: np.ndarray, zero_mask: np.ndarray) -> Histogram:
    """Histogram proportional to exp(log_w), with zero_mask entries pinned to 0."""
    w = np.zeros(log_w.shape[0])
    live = ~zero_mask
    if not np.any(live):
        raise ParameterError("barycentric path point has empty support")
    shifted = log_w[live] - np.max(log_w[live])
    w[live] = np.exp(shifted)
    return Histogram(w)


def exclusive_curve_point(p: Histogram, q: Histogram, alpha: Alpha, lam: float) -> Histogram:
    """Point on the exclusive barycentric path,
    gamma_i proportional to (lam*q_i^(1-a) + (1-lam)*p_i^(1-a))^(1/(1-a)).

    For a > 1 the exponent 1-a is negative, so a zero in either p_i or q_i
    forces gamma_i = 0 on the open interval (continuity limit of the formula).
    """
    if not alpha.is_finite:
        raise ParameterError(
            "exclusive_curve_point needs a finite alpha != 1; use kl_curve_point "
            "or infinity_geodesic_point for the limits"
        )
    check_same_length(p, q)
    _check_lambda_unit(lam)
    if lam == 0.0:
        return Histogram(p.probs)
    if lam == 1.0:
        return Histogram(q.probs)
    a = alpha.value
    e = 1.0 - a
    pv, qv = p.probs, q.probs
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(pv), np.log(qv)
    if a < 1:
        zero = (pv == 0) & (qv == 0)
    else:
        zero = (pv == 0) | (qv == 0)
    log_w = _log_mix(e * log_q, e * log_p, lam) / e
    return _normalize_from_log(log_w, zero)


def inclusive_curve_point(p: Histogram, q: Histogram, alpha: Alpha, lam: float) -> Histogram:
    """Point on the inclusive path,
    gamma_i proportional to (lam*q_i^a + (1-lam)*p_i^a)^(1/a)."""
    if not alpha.is_finite:
        raise ParameterError(
            "inclusive_curve_point needs a finite alpha != 1; use kl_curve_point "
            "for the alpha=1 limit"
        )
    check_same_length(p, q)
    _check_lambda_unit(lam)
    if lam == 0.0:
        return Histogram(p.probs)
    if lam == 1.0:
        return Histogram(q.probs)
    a = alpha.value
    pv, qv = p.probs, q.probs
    zero = (pv == 0) & (qv == 0)
    with np.errstate(divide="ignore"):
        log_w = _log_mix(a * np.log(qv), a * np.log(pv), lam) / a
    return _normalize_from_log(log_w, zero)


def kl_curve_point(p: Histogram, q: Histogram, side: str, lam: float) -> Histogram:
    """alpha = 1 limits of the paths: normalized geometric mixture
    (exclusive) or arithmetic mixture (inclusive)."""
    _check_side(side)
    check_same_length(p, q)
    _check_lambda_unit(lam)
    if lam == 0.0:
        return Histogram(p.probs)
    if lam == 1.0:
        return Histogram(q.probs)
    pv, qv = p.probs, q.probs
    if side == INCLUSIVE:
        return Histogram(lam * qv + (1.0 - lam) * pv)
    zero = (pv == 0) | (qv == 0)
    with np.errstate(divide="ignore"):
        log_w = lam * np.log(qv) + (1.0 - lam) * np.log(pv)
    return _normalize_from_log(log_w, zero)


def _ratio_domain(p: Histogram, q: Histogram) -> tuple[float, float]:
    pv, qv = p.probs, q.probs
    mask = pv > 0
    ratios = qv[mask] / pv[mask]
    return float(ratios.min()), float(ratios.max())


def infinity_geodesic_point(p: Histogram, q: Histogram, lam: float) -> Histogram:
    """Point on the Funk-metric geodesic,
    gamma_i proportional to min(p_i, q_i/lambda),
    lambda in [min_i q_i/p_i, max_i q_i/p_i] over the support of p."""
    check_same_length(p, q)
    lo, hi = _ratio_domain(p, q)
    if not lo - 1e-12 <= lam <= hi + 1e-12:
        raise ParameterError(f"lambda={lam} outside geodesic domain [{lo}, {hi}]")
    pv, qv = p.probs, q.probs
    if lam <= 0.0:
        return Histogram(pv)
    with np.errstate(divide="ignore"):
        w = np.minimum(pv, qv / lam)
    return Histogram(w)


def pareto_filter(points: Sequence[tuple[float, float]] | np.ndarray) -> list[tuple[float, float]]:
    """Remove points strictly dominated in both coordinates (minimization).

    Output is sorted ascending by first coordinate (ties by second) and
    deduplicated on exact ties of both coordinates.
    """
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    if xy.shape[0] == 0:
        return []
    s = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
    s = s[np.concatenate([[True], np.any(s[1:] != s[:-1], axis=1)])]
    # keep a point unless its y is above the min y over strictly smaller x,
    # which is the running min of y read at the first point of its x run
    best = np.minimum.accumulate(np.concatenate([[np.inf], s[:-1, 1]]))
    first = np.concatenate([[True], s[1:, 0] != s[:-1, 0]])
    run_start = np.maximum.accumulate(np.where(first, np.arange(s.shape[0]), 0))
    return list(map(tuple, s[~(s[:, 1] > best[run_start])].tolist()))


def _pareto_filter_triples(
    triples: list[tuple[float, float, float]]
) -> tuple[tuple[float, float, float], ...]:
    """Pareto-filter (lam, x, y) triples on their (x, y) coordinates."""
    survivors = set(pareto_filter([(x, y) for _, x, y in triples]))
    seen: set[tuple[float, float]] = set()
    out = []
    for lam, x, y in triples:
        key = (float(x), float(y))
        if key in survivors and key not in seen:
            seen.add(key)
            out.append((float(lam), float(x), float(y)))
    return tuple(out)


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
    _check_side(side)
    check_same_length(p, q)
    if grid_size < 2:
        raise ParameterError("grid_size must be >= 2")
    if alpha.is_zero:
        raise ParameterError(
            "alpha=0 frontiers degenerate to support overlap; use the kNN "
            "support metrics in the estimation module"
        )
    if alpha.is_infinity:
        if side != EXCLUSIVE:
            raise ParameterError("alpha=inf frontiers are only defined exclusively")
        lo, hi = _ratio_domain(p, q)
        lams = _geometric_lambda_grid(lo, hi, grid_size)
        gammas = [infinity_geodesic_point(p, q, lam) for lam in lams]
    else:
        lams = np.linspace(0.0, 1.0, grid_size)
        if alpha.is_one:
            gammas = [kl_curve_point(p, q, side, lam) for lam in lams]
        elif side == EXCLUSIVE:
            gammas = [exclusive_curve_point(p, q, alpha, lam) for lam in lams]
        else:
            gammas = [inclusive_curve_point(p, q, alpha, lam) for lam in lams]
    G = np.stack([g.probs for g in gammas])
    if side == EXCLUSIVE:
        div_p, div_q = renyi_rows(G, p.probs, alpha), renyi_rows(G, q.probs, alpha)
    else:
        div_p, div_q = renyi_rows(p.probs, G, alpha), renyi_rows(q.probs, G, alpha)
    triples = list(zip(lams.tolist(), div_p.tolist(), div_q.tolist()))
    return FrontierCurve(_pareto_filter_triples(triples), side, alpha)


def _pareto_max(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Maximal points (no other strictly larger in both coordinates)."""
    flipped = pareto_filter([(-x, -y) for x, y in points])
    return sorted((-x, -y) for x, y in flipped)


def prd_from_infinity_frontier(curve: FrontierCurve) -> PRDCurve:
    """Map the alpha = inf exclusive frontier to precision-recall pairs.

    A frontier pair (div_p, div_q) becomes precision exp(-div_q) and
    recall exp(-div_p).
    """
    if not (curve.alpha.is_infinity and curve.side == EXCLUSIVE):
        raise ParameterError("PRD mapping needs an alpha=inf exclusive frontier")
    pairs = []
    for _, div_p, div_q in curve.points:
        precision = float(np.exp(-div_q))
        recall = float(np.exp(-div_p))
        if precision == 0.0 or recall == 0.0:
            # an infinite divergence means no shared component realizes the
            # pair; only (0,0) is in the precision-recall set by convention
            pairs.append((0.0, 0.0))
        else:
            pairs.append((precision, recall))
    if not pairs:
        pairs = [(0.0, 0.0)]
    pts = _pareto_max(pairs)
    # report as (precision, recall), sorted by recall ascending
    return PRDCurve(tuple(sorted(pts, key=lambda t: (t[1], t[0]))))


def prd_reference(p: Histogram, q: Histogram, grid_size: int = 201) -> PRDCurve:
    """Independent precision-recall construction from the mixture
    definition: for a ratio lambda the maximal achievable pair is
    precision sum_i min(lambda*p_i, q_i), recall sum_i min(p_i, q_i/lambda).
    Serves as the oracle for :func:`prd_from_infinity_frontier`.
    """
    check_same_length(p, q)
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
        if precision == 0.0 or recall == 0.0:
            pairs.append((0.0, 0.0))  # only (0,0) is realizable at a zero coordinate
        else:
            pairs.append((precision, recall))
    pairs.append((0.0, 0.0))
    pts = _pareto_max(pairs)
    return PRDCurve(tuple(sorted(pts, key=lambda t: (t[1], t[0]))))
