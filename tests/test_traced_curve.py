"""The curve builder shared by frontier and frontier_kl.

Both frontiers must give the points of the drivers they replaced, frozen
below: a block loop of their own, Python lists, and a dict-based Pareto
selection. The kernels (path rows, renyi_rows, the per-axis KL) are shared,
so a difference can come only from the driver or the selection.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divfrontier import EXCLUSIVE, INCLUSIVE, Alpha, GaussianParams, Histogram, frontier, frontier_kl, pareto_filter
from divfrontier.discrete_frontier import (
    FrontierCurve,
    _geodesic_rows,
    _geometric_lambda_grid,
    _power_mean_rows,
    _ratio_domain,
    _row_blocks,
    _traced_curve,
)
from divfrontier.divergences import INF, _clip_nonneg, _far_1d, _kl_axes, _whitened_pair, renyi_rows
from divfrontier.expfam_frontier import _frontier_far_1d
from tests.conftest import conditioned_gaussian, pareto_filter_triples_loop, rows_per_block
from tests.test_discrete_frontier import EQUIVALENCE_PAIRS, outcome


def frozen_pareto_filter_triples(triples):
    """The Pareto selection both frontiers used before the builder."""
    first = {}
    for triple in triples:
        first.setdefault(triple[1:], triple)
    survivors = set(pareto_filter(list(first)))
    return tuple(triple for key, triple in first.items() if key in survivors)


def frozen_frontier(p, q, alpha, side, grid_size):
    """frontier's points before the builder (argument checks left out)."""
    if alpha.is_infinity:
        lams = _geometric_lambda_grid(*_ratio_domain(p, q), grid_size)
    else:
        lams = np.linspace(0.0, 1.0, grid_size)
        e = alpha.value if side == INCLUSIVE else 1.0 - alpha.value
    divs = []
    for lam in _row_blocks(lams, len(p)):
        W = _geodesic_rows(p.probs, q.probs, lam) if alpha.is_infinity else _power_mean_rows(p.probs, q.probs, e, lam)
        G = np.stack([Histogram(w).probs for w in W])
        if side == EXCLUSIVE:
            divs.append((renyi_rows(G, p.probs, alpha), renyi_rows(G, q.probs, alpha)))
        else:
            divs.append((renyi_rows(p.probs, G, alpha), renyi_rows(q.probs, G, alpha)))
    div_p, div_q = (np.concatenate(d).tolist() for d in zip(*divs))
    return frozen_pareto_filter_triples(list(zip(lams.tolist(), div_p, div_q)))


def frozen_frontier_kl(P, Q, side, grid_size):
    """frontier_kl's points before the builder (argument checks left out)."""
    far = _far_1d(P, Q)
    ends = ((0.0, INF, 0.0), (1.0, 0.0, INF))
    lams = np.linspace(0.0, 1.0, grid_size)
    if far is not None:
        if not np.isfinite(far[2]):
            return ends
        div_p, div_q = (d.tolist() for d in _frontier_far_1d(*far, lams, side))
        return frozen_pareto_filter_triples(list(zip(lams.tolist(), div_p, div_q)))
    t, s, d2 = _whitened_pair(P, Q)
    if not np.isfinite(d2.sum()):
        return ends
    divs = []
    for block in _row_blocks(lams, t.size):
        lam, mu = block[:, None], 1.0 - block[:, None]
        if side == EXCLUSIVE:
            r_p, r_q = lam + mu * (t / s), lam * (s / t) + mu
            shift = d2 / (r_p * r_q)
            m_p, m_q, log_k = mu * mu * shift / s, lam * lam * shift / t, 0.0
        else:
            var, c = lam * t + mu * s, lam * mu
            r_p, r_q = lam + mu * (s / t), lam * (t / s) + mu
            c_s0 = c * (d2 / var).sum(axis=1, keepdims=True)
            m_p, m_q = (d2 / var * (w * w - c / r) / (1.0 + c_s0) for w, r in ((mu, r_p), (lam, r_q)))
            log_k = np.log1p(c_s0[:, 0])
        divs.append([_clip_nonneg(_kl_axes(r, m) + 0.5 * log_k) for r, m in ((r_p, m_p), (r_q, m_q))])
    div_p, div_q = (np.concatenate(d).tolist() for d in zip(*divs))
    return frozen_pareto_filter_triples(list(zip(lams.tolist(), div_p, div_q)))


ALPHAS = [Alpha.parse(a) for a in ("1e-3", "0.5", "1", "2", "1e4", "inf")]
ROWS_PER_BLOCK = [None, 1, 7]  # the default block, one row per block, and ragged blocks


@pytest.mark.parametrize("name, pv, qv", EQUIVALENCE_PAIRS, ids=[c[0] for c in EQUIVALENCE_PAIRS])
def test_frontier_points_equal_the_frozen_driver(name, pv, qv):
    p, q = Histogram(pv), Histogram(qv)
    for alpha in ALPHAS:
        for side in (EXCLUSIVE,) if alpha.is_infinity else (EXCLUSIVE, INCLUSIVE):
            for grid_size in (2, 201):
                # a path without admissible interior points raises alike on both
                want = repr(outcome(frozen_frontier, p, q, alpha, side, grid_size))
                for rows in ROWS_PER_BLOCK:
                    with rows_per_block(rows, len(p)):
                        got = outcome(lambda: frontier(p, q, alpha, side, grid_size).points)
                    # repr tells -0.0 from 0.0
                    assert repr(got) == want, (str(alpha), side, grid_size, rows)


def gaussian_pairs():
    """(name, P, Q): conditioned pairs in d = 1, 3, 8, 64, equal covariances,
    1-D variances 1e-300 and 1e300 (the far branch), and an offset whose
    square overflows."""
    rng = np.random.default_rng(27)
    out = [(f"cond{c:g}-{d}", conditioned_gaussian(rng, d, c), conditioned_gaussian(rng, d, c))
           for d in (1, 3, 8, 64) for c in (1.0, 1e8)]
    P = conditioned_gaussian(rng, 4, 1e4)
    out.append(("equal-cov-4", P, GaussianParams(P.mean + 1.0, P.cov)))
    for mean in (0.0, 3.0, 1e200):
        out.append((f"far-{mean:g}", GaussianParams([0.0], [[1e-300]]), GaussianParams([mean], [[1e300]])))
    out.append(("far-swapped", GaussianParams([1.0], [[1e300]]), GaussianParams([0.0], [[1e-300]])))
    for d in (1, 3):
        out.append((f"offset-overflow-{d}", GaussianParams(np.full(d, 1e160), np.eye(d)),
                    GaussianParams(np.full(d, -1e160), np.eye(d))))
    return out


GAUSSIAN_PAIRS = gaussian_pairs()


@pytest.mark.parametrize("name, P, Q", GAUSSIAN_PAIRS, ids=[c[0] for c in GAUSSIAN_PAIRS])
def test_frontier_kl_points_equal_the_frozen_driver(name, P, Q):
    for side in (EXCLUSIVE, INCLUSIVE):
        for grid_size in (2, 201):
            want = repr(frozen_frontier_kl(P, Q, side, grid_size))
            for rows in ROWS_PER_BLOCK:
                with rows_per_block(rows, P.dim):
                    curve = frontier_kl(P, Q, side, grid_size)
                assert repr(curve.points) == want, (side, grid_size, rows)


# mostly few distinct coordinates, so duplicates, ties and signed zeros are common
triple_coords = st.sampled_from([0.0, -0.0, 1.0, 2.0, float("inf"), -float("inf")]) | st.floats(allow_nan=False)


@given(
    st.lists(st.tuples(st.floats(0.0, 1.0), triple_coords, triple_coords), min_size=1, max_size=40),
    st.sampled_from(ROWS_PER_BLOCK),
)
@settings(max_examples=300)
def test_traced_curve_matches_the_loop(triples, rows):
    lams, xs, ys = (np.array(c) for c in zip(*triples))

    def pairs_of(block):  # the block holds positions into the triples
        at = block.astype(int)
        return xs[at], ys[at]

    with rows_per_block(rows, 1):
        curve = _traced_curve(np.arange(len(triples), dtype=float), 1, pairs_of, EXCLUSIVE, Alpha.finite(2))
    assert isinstance(curve, FrontierCurve) and curve.side == EXCLUSIVE and curve.alpha == Alpha.finite(2)
    got = tuple((float(lams[int(i)]), x, y) for i, x, y in curve.points)
    assert repr(got) == repr(pareto_filter_triples_loop(triples))
    assert repr(got) == repr(frozen_pareto_filter_triples(triples))
