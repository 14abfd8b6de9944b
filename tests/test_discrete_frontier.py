import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divfrontier import (
    EXCLUSIVE,
    INCLUSIVE,
    Alpha,
    GaussianParams,
    Histogram,
    ParameterError,
    exclusive_curve_point,
    frontier,
    frontier_kl,
    funk_metric,
    inclusive_curve_point,
    infinity_geodesic_point,
    kl_curve_point,
    kl_discrete,
    pareto_filter,
    prd_from_infinity_frontier,
    prd_reference,
    renyi_discrete,
)
from divfrontier.discrete_frontier import (
    MAX_GRID_SIZE,
    _check_lambda_unit,
    _check_side,
    _geodesic_rows,
    _geometric_lambda_grid,
    _power_mean_rows,
    _ratio_domain,
)
from divfrontier.distributions import check_same_length
from divfrontier.divergences import renyi_rows
from tests.conftest import pareto_filter_triples_loop, random_histogram, rows_per_block

P = Histogram([0.5, 0.5])
Q = Histogram([0.25, 0.75])


def simplex_grid_2(steps=200000):
    """Fine grid on the 1-simplex, kept off the boundary."""
    t = np.linspace(1e-9, 1 - 1e-9, steps)
    return np.stack([t, 1 - t], axis=1)


class TestExclusiveCurvePoint:
    def test_endpoints(self):
        np.testing.assert_array_equal(
            exclusive_curve_point(P, Q, Alpha.finite(2), 0.0).probs, P.probs
        )
        np.testing.assert_array_equal(
            exclusive_curve_point(P, Q, Alpha.finite(2), 1.0).probs, Q.probs
        )

    def test_harmonic_midpoint(self):
        # (0.5*q_i^-1 + 0.5*p_i^-1)^-1 = (1/3, 3/5); normalized (5/14, 9/14)
        got = exclusive_curve_point(P, Q, Alpha.finite(2), 0.5)
        np.testing.assert_allclose(got.probs, [5 / 14, 9 / 14], atol=1e-12)

    def test_midpoint_matches_scalarized_minimum(self):
        # grid minimization of the alpha-divergence scalarization
        # 0.5 * sum r^2/q + 0.5 * sum r^2/p, the barycenter objective
        R = simplex_grid_2()
        obj = 0.5 * np.sum(R**2 / Q.probs, axis=1) + 0.5 * np.sum(R**2 / P.probs, axis=1)
        best = R[np.argmin(obj)]
        got = exclusive_curve_point(P, Q, Alpha.finite(2), 0.5)
        np.testing.assert_allclose(got.probs, best, atol=1e-4)

    def test_rejects_limit_tags(self):
        for alpha in (Alpha.one(), Alpha.infinity(), Alpha.zero()):
            with pytest.raises(ParameterError):
                exclusive_curve_point(P, Q, alpha, 0.5)

    def test_zero_entry_forced_to_zero_for_large_alpha(self):
        p = Histogram([0.5, 0.5, 0.0])
        q = Histogram([0.2, 0.3, 0.5])
        g = exclusive_curve_point(p, q, Alpha.finite(2), 0.3)
        assert g.probs[2] == 0.0


class TestInclusiveCurvePoint:
    def test_endpoints(self):
        np.testing.assert_array_equal(inclusive_curve_point(P, Q, Alpha.finite(2), 0.0).probs, P.probs)
        np.testing.assert_array_equal(inclusive_curve_point(P, Q, Alpha.finite(2), 1.0).probs, Q.probs)

    def test_quadratic_midpoint(self):
        expected = np.sqrt(0.5 * Q.probs**2 + 0.5 * P.probs**2)
        expected /= expected.sum()
        got = inclusive_curve_point(P, Q, Alpha.finite(2), 0.5)
        np.testing.assert_allclose(got.probs, expected, atol=1e-12)

    def test_midpoint_not_dominated_on_grid(self):
        g = inclusive_curve_point(P, Q, Alpha.finite(2), 0.5)
        a = Alpha.finite(2)
        gx = renyi_discrete(P, g, a)
        gy = renyi_discrete(Q, g, a)
        R = simplex_grid_2(20000)
        for r in R[:: 200]:
            h = Histogram(r)
            assert not (
                renyi_discrete(P, h, a) < gx - 1e-9 and renyi_discrete(Q, h, a) < gy - 1e-9
            )


class TestKLCurvePoint:
    def test_endpoints(self):
        for side in (EXCLUSIVE, INCLUSIVE):
            np.testing.assert_array_equal(kl_curve_point(P, Q, side, 0.0).probs, P.probs)
            np.testing.assert_array_equal(kl_curve_point(P, Q, side, 1.0).probs, Q.probs)

    def test_arithmetic_midpoint_inclusive(self):
        got = kl_curve_point(P, Q, INCLUSIVE, 0.5)
        np.testing.assert_allclose(got.probs, [0.375, 0.625], atol=1e-15)

    def test_geometric_midpoint_exclusive(self):
        raw = np.sqrt(P.probs * Q.probs)
        expected = raw / raw.sum()
        got = kl_curve_point(P, Q, EXCLUSIVE, 0.5)
        np.testing.assert_allclose(got.probs, expected, atol=1e-12)
        np.testing.assert_allclose(got.probs, [0.3660, 0.6340], atol=1e-4)

    def test_exclusive_minimizes_scalarized_kl(self):
        lam = 0.5
        R = simplex_grid_2()
        obj = lam * np.sum(
            R * (np.log(R) - np.log(Q.probs)), axis=1
        ) + (1 - lam) * np.sum(R * (np.log(R) - np.log(P.probs)), axis=1)
        best = R[np.argmin(obj)]
        got = kl_curve_point(P, Q, EXCLUSIVE, lam)
        np.testing.assert_allclose(got.probs, best, atol=1e-4)


class TestInfinityGeodesic:
    def test_endpoints_at_ratio_extremes(self, rng):
        for _ in range(10):
            p = random_histogram(rng, 6, floor=0.01)
            q = random_histogram(rng, 6, floor=0.01)
            ratios = q.probs / p.probs
            np.testing.assert_allclose(
                infinity_geodesic_point(p, q, float(ratios.min())).probs, p.probs, atol=1e-12
            )
            np.testing.assert_allclose(
                infinity_geodesic_point(p, q, float(ratios.max())).probs, q.probs, atol=1e-12
            )

    def test_frozen_midpoint(self):
        got = infinity_geodesic_point(P, Q, 1.0)
        np.testing.assert_allclose(got.probs, [1 / 3, 2 / 3], atol=1e-15)

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            infinity_geodesic_point(P, Q, 5.0)

    def test_subnormal_lambda_overflowing_a_ratio_gives_p(self):
        # q_i / lambda overflows for lambda = 5e-309; the min with p_i is p_i
        p = Histogram(np.array([1.0, 0.0, 0.0, 0.0]))
        q = Histogram(np.array([5e-309, 0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(infinity_geodesic_point(p, q, 5e-309).probs, p.probs)
        curve = frontier(p, q, Alpha.infinity(), EXCLUSIVE, 2)
        assert [pt[0] for pt in curve.points] == [5e-309]

    def test_geodesity(self, rng):
        # F(p,q) = F(p,gamma) + F(gamma,q) along the whole curve
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = random_histogram(rng, n, floor=0.005)
            q = random_histogram(rng, n, floor=0.005)
            ratios = q.probs / p.probs
            total = funk_metric(p, q)
            for lam in np.geomspace(ratios.min(), ratios.max(), 201):
                g = infinity_geodesic_point(p, q, float(lam))
                gap = abs(total - funk_metric(p, g) - funk_metric(g, q))
                worst = max(worst, gap)
        assert worst <= 1e-9


class TestParetoFilter:
    def test_singleton(self):
        assert pareto_filter([(1.0, 1.0)]) == [(1.0, 1.0)]

    def test_dominated_removed(self):
        pts = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0), (2.0, 2.0)]
        assert pareto_filter(pts) == [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]

    def test_duplicates_removed(self):
        assert pareto_filter([(1.0, 1.0), (1.0, 1.0)]) == [(1.0, 1.0)]

    def test_equal_coordinate_not_dominating(self):
        # strict dominance needs both coordinates strictly smaller
        assert pareto_filter([(1.0, 1.0), (1.0, 2.0)]) == [(1.0, 1.0), (1.0, 2.0)]

    @pytest.mark.parametrize("bad", [[(1, 2), (3,)], [(0, 1, 2)], [1.0, 2.0], [[(1, 2)]], [("a", 1)], 5.0])
    def test_ragged_or_wrong_shaped_points_are_refused(self, bad):
        with pytest.raises(ParameterError, match="points must be"):
            pareto_filter(bad)

    @pytest.mark.parametrize("pts", [[(0.0, np.nan), (1.0, 1.0), (2.0, 2.0)], [(np.nan, 0.0)]])
    def test_a_nan_coordinate_is_refused(self, pts):
        # a NaN y stopped the running minimum: (2, 2) was kept, though (1, 1) dominates it
        with pytest.raises(ParameterError, match="NaN"):
            pareto_filter(pts)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
                lambda t: (float(t[0]), float(t[1]))
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_matches_quadratic_scan(self, pts):
        brute = sorted(
            {
                (x, y)
                for x, y in pts
                if not any(ox < x and oy < y for ox, oy in pts)
            }
        )
        assert pareto_filter(pts) == brute


class TestFrontier:
    def test_equal_inputs_collapse(self):
        curve = frontier(P, P, Alpha.finite(2), EXCLUSIVE, 51)
        pairs = {(x, y) for _, x, y in curve.points}
        assert pairs == {(0.0, 0.0)}

    def test_disjoint_support_interior_is_finite_for_small_alpha(self):
        # order 1/2 divergences stay finite whenever supports overlap, so
        # only the curve endpoints (gamma = p or q exactly) blow up
        p = Histogram([1.0, 0.0])
        q = Histogram([0.0, 1.0])
        a = Alpha.finite(0.5)
        curve = frontier(p, q, a, EXCLUSIVE, 21)
        assert renyi_discrete(p, q, a) == float("inf")
        interior = [(x, y) for lam, x, y in curve.points if 0.0 < lam < 1.0]
        assert interior and all(np.isfinite(x) and np.isfinite(y) for x, y in interior)

    def test_disjoint_support_large_alpha_path_undefined(self):
        # above order 1 the barycenter inherits the zeros of both inputs,
        # so disjoint supports leave no admissible path point
        p = Histogram([1.0, 0.0])
        q = Histogram([0.0, 1.0])
        with pytest.raises(ParameterError):
            frontier(p, q, Alpha.finite(2), EXCLUSIVE, 21)

    @pytest.mark.parametrize("alpha", [Alpha.finite(0.5), Alpha.one(), Alpha.finite(2)])
    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    def test_endpoint_identities(self, alpha, side, rng):
        p = random_histogram(rng, 4, floor=0.02)
        q = random_histogram(rng, 4, floor=0.02)
        curve = frontier(p, q, alpha, side, 101)
        if side == EXCLUSIVE:
            dp = renyi_discrete(q, p, alpha)  # at gamma=q
            dq = renyi_discrete(p, q, alpha)  # at gamma=p
        else:
            dp = renyi_discrete(p, q, alpha)
            dq = renyi_discrete(q, p, alpha)
        xs = [(x, y) for _, x, y in curve.points]
        assert any(x <= 1e-9 and abs(y - dq) <= 1e-9 for x, y in xs)
        assert any(y <= 1e-9 and abs(x - dp) <= 1e-9 for x, y in xs)

    def test_no_strict_domination_within_curve(self, rng):
        p = random_histogram(rng, 5, floor=0.02)
        q = random_histogram(rng, 5, floor=0.02)
        curve = frontier(p, q, Alpha.finite(2), EXCLUSIVE, 101)
        pts = [(x, y) for _, x, y in curve.points]
        for i, (x, y) in enumerate(pts):
            assert not any(ox < x and oy < y for ox, oy in pts)

    def test_alpha_zero_unsupported(self):
        with pytest.raises(ParameterError):
            frontier(P, Q, Alpha.zero(), EXCLUSIVE, 11)

    def test_inclusive_infinity_unsupported(self):
        with pytest.raises(ParameterError):
            frontier(P, Q, Alpha.infinity(), INCLUSIVE, 11)

    def test_infinity_dispatches_to_geodesic(self):
        curve = frontier(P, Q, Alpha.infinity(), EXCLUSIVE, 51)
        lams = [lam for lam, _, _ in curve.points]
        ratios = Q.probs / P.probs
        assert min(lams) == pytest.approx(ratios.min())
        assert max(lams) == pytest.approx(ratios.max())

    @pytest.mark.parametrize("grid_size", [1, MAX_GRID_SIZE + 1, 2**32, 2**63])
    def test_grid_size_outside_the_cap_is_rejected(self, grid_size):
        # raised before any lambda grid is allocated
        for alpha, side in ((Alpha.finite(2), EXCLUSIVE), (Alpha.one(), INCLUSIVE), (Alpha.infinity(), EXCLUSIVE)):
            with pytest.raises(ParameterError, match="grid_size"):
                frontier(P, Q, alpha, side, grid_size)
        with pytest.raises(ParameterError, match="grid_size"):
            prd_reference(P, Q, grid_size)

    @pytest.mark.parametrize("grid_size", [2.5, 51.0, True, np.float64(51.0)])
    def test_grid_size_must_be_an_integer(self, grid_size):
        with pytest.raises(ParameterError, match="grid_size must be an integer"):
            frontier(P, Q, Alpha.finite(2), EXCLUSIVE, grid_size)
        with pytest.raises(ParameterError, match="grid_size must be an integer"):
            prd_reference(P, Q, grid_size)
        g = GaussianParams([0.0], [[1.0]])
        with pytest.raises(ParameterError, match="grid_size must be an integer"):
            frontier_kl(g, g, EXCLUSIVE, grid_size)

    def test_grid_size_at_the_cap_runs(self):
        assert frontier(P, Q, Alpha.one(), EXCLUSIVE, MAX_GRID_SIZE).points

    def test_ratio_overflow_keeps_a_finite_lambda_grid(self):
        # normalised p_0 = 1e-310 is subnormal, so q_0/p_0 overflows
        p, q = Histogram([1e-300, 1e10]), Histogram([0.5, 0.5])
        lo, hi = _ratio_domain(p, q)
        assert np.isfinite([lo, hi]).all()
        got = prd_from_infinity_frontier(frontier(p, q, Alpha.infinity(), EXCLUSIVE, 201)).points
        ref = prd_reference(p, q, 201).points
        assert len(got) == len(ref)
        for (a1, b1), (a2, b2) in zip(got, ref):
            assert abs(a1 - a2) <= 1e-9 and abs(b1 - b2) <= 1e-9


class TestPRD:
    def test_equal_inputs_contain_perfect_point(self):
        curve = frontier(P, P, Alpha.infinity(), EXCLUSIVE, 51)
        assert (1.0, 1.0) in prd_from_infinity_frontier(curve).points
        assert (1.0, 1.0) in prd_reference(P, P, 51).points

    def test_disjoint_supports(self):
        p = Histogram([1.0, 0.0])
        q = Histogram([0.0, 1.0])
        curve = frontier(p, q, Alpha.infinity(), EXCLUSIVE, 51)
        assert prd_from_infinity_frontier(curve).points == ((0.0, 0.0),)
        assert prd_reference(p, q, 51).points == ((0.0, 0.0),)

    def test_matches_reference_on_fixture(self):
        curve = frontier(P, Q, Alpha.infinity(), EXCLUSIVE, 101)
        got = prd_from_infinity_frontier(curve).points
        ref = prd_reference(P, Q, 101).points
        assert len(got) == len(ref)
        for (a1, b1), (a2, b2) in zip(got, ref):
            assert abs(a1 - a2) <= 1e-9 and abs(b1 - b2) <= 1e-9

    @pytest.mark.parametrize("tiny", [1e-14, 1e-12, 1e-300])
    def test_tiny_mass_matches_reference(self, tiny):
        # the geodesic point differs from p only on the tiny bin, so it lies
        # within 1e-12 total variation of p, yet D_inf to p is log(gamma_0/p_0) > 0
        p, q = Histogram([tiny, 1.0]), Histogram([0.5, 0.5])
        got = prd_from_infinity_frontier(frontier(p, q, Alpha.infinity(), EXCLUSIVE, 201)).points
        ref = prd_reference(p, q, 201).points
        assert len(got) == len(ref)
        for (a1, b1), (a2, b2) in zip(got, ref):
            assert abs(a1 - a2) <= 1e-9 and abs(b1 - b2) <= 1e-9

    def test_matches_reference_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            p = random_histogram(rng, n)
            q = random_histogram(rng, n)
            curve = frontier(p, q, Alpha.infinity(), EXCLUSIVE, 101)
            got = prd_from_infinity_frontier(curve).points
            ref = prd_reference(p, q, 101).points
            assert len(got) == len(ref)
            for (a1, b1), (a2, b2) in zip(got, ref):
                assert abs(a1 - a2) <= 1e-9 and abs(b1 - b2) <= 1e-9

    def test_subset_support_reaches_full_precision_at_half_recall(self):
        # q uniform on the first half of p's support
        p = Histogram(np.ones(10))
        q = Histogram(np.concatenate([np.ones(5), np.zeros(5)]))
        prd = prd_reference(p, q, 201)
        best_precision = max(prec for prec, _ in prd.points)
        assert best_precision == pytest.approx(1.0, abs=1e-12)
        recalls = [rec for prec, rec in prd.points if prec == best_precision]
        assert max(recalls) == pytest.approx(0.5, abs=1e-12)
        curve = frontier(p, q, Alpha.infinity(), EXCLUSIVE, 201)
        image = prd_from_infinity_frontier(curve)
        assert any(
            prec == pytest.approx(1.0, abs=1e-9) and rec == pytest.approx(0.5, abs=1e-9)
            for prec, rec in image.points
        )

    def test_all_coordinates_in_unit_square(self, rng):
        p = random_histogram(rng, 6)
        q = random_histogram(rng, 6)
        prd = prd_from_infinity_frontier(frontier(p, q, Alpha.infinity(), EXCLUSIVE, 101))
        for prec, rec in prd.points:
            assert 0.0 <= prec <= 1.0 and 0.0 <= rec <= 1.0


# The per-order path functions, frontier dispatch and PRD loops as they were
# before every finite-order path became one power-mean function, and the
# per-lambda geodesic as it was before the paths went in lambda row blocks;
# the equivalence tests below require the package to match them bit for bit.


def _ref_log_mix(log_a, log_b, lam):
    with np.errstate(divide="ignore"):
        return np.logaddexp(np.log(lam) + log_a, np.log1p(-lam) + log_b)


def _ref_normalize_from_log(log_w, zero_mask):
    w = np.zeros(log_w.shape[0])
    live = ~zero_mask
    if not np.any(live):
        raise ParameterError("barycentric path point has empty support")
    shifted = log_w[live] - np.max(log_w[live])
    w[live] = np.exp(shifted)
    return Histogram(w)


def ref_exclusive_curve_point(p, q, alpha, lam):
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
    log_w = _ref_log_mix(e * log_q, e * log_p, lam) / e
    return _ref_normalize_from_log(log_w, zero)


def ref_inclusive_curve_point(p, q, alpha, lam):
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
        log_w = _ref_log_mix(a * np.log(qv), a * np.log(pv), lam) / a
    return _ref_normalize_from_log(log_w, zero)


def ref_kl_curve_point(p, q, side, lam):
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
    return _ref_normalize_from_log(log_w, zero)


def ref_finite_frontier(p, q, alpha, side, grid_size):
    """The finite-alpha branch of frontier(), dispatching on order and side."""
    lams = np.linspace(0.0, 1.0, grid_size)
    if alpha.is_one:
        gammas = [ref_kl_curve_point(p, q, side, lam) for lam in lams]
    elif side == EXCLUSIVE:
        gammas = [ref_exclusive_curve_point(p, q, alpha, lam) for lam in lams]
    else:
        gammas = [ref_inclusive_curve_point(p, q, alpha, lam) for lam in lams]
    G = np.stack([g.probs for g in gammas])
    if side == EXCLUSIVE:
        div_p, div_q = renyi_rows(G, p.probs, alpha), renyi_rows(G, q.probs, alpha)
    else:
        div_p, div_q = renyi_rows(p.probs, G, alpha), renyi_rows(q.probs, G, alpha)
    return pareto_filter_triples_loop(list(zip(lams.tolist(), div_p.tolist(), div_q.tolist())))


def ref_infinity_geodesic_point(p, q, lam):
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


def ref_frontier(p, q, alpha, side, grid_size):
    """frontier() as one path point per lambda, every path stacked at once."""
    if not alpha.is_infinity:
        return ref_finite_frontier(p, q, alpha, side, grid_size)
    if side != EXCLUSIVE:
        raise ParameterError("alpha=inf frontiers are only defined exclusively")
    lams = _geometric_lambda_grid(*_ratio_domain(p, q), grid_size)
    G = np.stack([ref_infinity_geodesic_point(p, q, lam).probs for lam in lams])
    div_p, div_q = renyi_rows(G, p.probs, alpha), renyi_rows(G, q.probs, alpha)
    return pareto_filter_triples_loop(list(zip(lams.tolist(), div_p.tolist(), div_q.tolist())))


def _ref_pareto_max(points):
    flipped = pareto_filter([(-x, -y) for x, y in points])
    return sorted((-x, -y) for x, y in flipped)


def ref_prd_from_infinity_frontier(curve):
    pairs = []
    for _, div_p, div_q in curve.points:
        precision = float(np.exp(-div_q))
        recall = float(np.exp(-div_p))
        if precision == 0.0 or recall == 0.0:
            pairs.append((0.0, 0.0))
        else:
            pairs.append((precision, recall))
    if not pairs:
        pairs = [(0.0, 0.0)]
    pts = _ref_pareto_max(pairs)
    return tuple(sorted(pts, key=lambda t: (t[1], t[0])))


def ref_prd_reference(p, q, grid_size):
    pv, qv = p.probs, q.probs
    lams = _geometric_lambda_grid(*_ratio_domain(p, q), grid_size)
    pairs = []
    for lam in lams:
        precision = float(np.minimum(lam * pv, qv).sum())
        if lam > 0.0:
            with np.errstate(divide="ignore"):
                recall = float(np.minimum(pv, qv / lam).sum())
        else:
            recall = float(pv[qv > 0].sum())
        if precision == 0.0 or recall == 0.0:
            pairs.append((0.0, 0.0))
        else:
            pairs.append((precision, recall))
    pairs.append((0.0, 0.0))
    pts = _ref_pareto_max(pairs)
    return tuple(sorted(pts, key=lambda t: (t[1], t[0])))


def equivalence_pairs():
    """(name, p, q) raw vectors: dense, near-zero masses, zero bins in p, in
    q and in both, disjoint supports, and identical or nearly equal pairs."""
    rng = np.random.default_rng(2024)
    out = []
    for n in (2, 8, 64):
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        tiny_p, tiny_q = p.copy(), q.copy()
        tiny_p[0], tiny_q[-1] = 1e-300, 1e-300
        zero_p, zero_q = p.copy(), q.copy()
        zero_p[: max(1, n // 4)] = 0.0
        zero_q[-max(1, n // 4):] = 0.0
        zero_both_p, zero_both_q = zero_p.copy(), q.copy()
        zero_both_q[0] = 0.0
        if n > 2:
            zero_both_p[-1] = zero_both_q[1] = 0.0
        half = max(1, n // 2)
        disjoint_p = np.where(np.arange(n) < half, p, 0.0)
        disjoint_q = np.where(np.arange(n) < half, 0.0, q)
        near = p.copy()
        near[0] += 5e-13
        near[-1] -= 5e-13
        out += [
            (f"dense-{n}", p, q),
            (f"tiny-{n}", tiny_p, tiny_q),
            (f"zero-p-{n}", zero_p, q),
            (f"zero-q-{n}", p, zero_q),
            (f"zero-both-{n}", zero_both_p, zero_both_q),
            (f"disjoint-{n}", disjoint_p, disjoint_q),
            (f"identical-{n}", p, p.copy()),
            (f"near-{n}", p, near),
        ]
    return out


EQUIVALENCE_PAIRS = equivalence_pairs()
EQUIVALENCE_ALPHAS = [Alpha.parse(a) for a in ("1e-3", "0.5", "1", "2", "1e4", "inf")]
PATH_LAMBDAS = [0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0]
ROWS_PER_BLOCK = [None, 1, 7]  # the default block, one row per block, and ragged blocks


def outcome(fn, *args):
    """A call's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed: both sides must raise alike
        return (type(exc), str(exc))


def same_point(got, want) -> bool:
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    return got.probs.dtype == want.probs.dtype and np.array_equal(got.probs, want.probs)


class TestPowerMeanEquivalence:
    @pytest.mark.parametrize("name, pv, qv", EQUIVALENCE_PAIRS, ids=[c[0] for c in EQUIVALENCE_PAIRS])
    def test_path_points_bit_identical(self, name, pv, qv):
        p, q = Histogram(pv), Histogram(qv)
        for lam in PATH_LAMBDAS + [-0.1, 1.5, float("nan")]:
            for side in (EXCLUSIVE, INCLUSIVE, "both"):
                got = outcome(kl_curve_point, p, q, side, lam)
                assert same_point(got, outcome(ref_kl_curve_point, p, q, side, lam)), (side, lam)
            for alpha in EQUIVALENCE_ALPHAS + [Alpha.zero()]:
                for fn, ref in (
                    (exclusive_curve_point, ref_exclusive_curve_point),
                    (inclusive_curve_point, ref_inclusive_curve_point),
                ):
                    got = outcome(fn, p, q, alpha, lam)
                    assert same_point(got, outcome(ref, p, q, alpha, lam)), (fn.__name__, str(alpha), lam)

    def test_length_mismatch_errors_unchanged(self):
        p, q = Histogram([0.5, 0.5]), Histogram([0.2, 0.3, 0.5])
        for lam in (0.0, 0.5, 2.0):
            assert outcome(kl_curve_point, p, q, EXCLUSIVE, lam) == outcome(ref_kl_curve_point, p, q, EXCLUSIVE, lam)
            for alpha in (Alpha.finite(2), Alpha.one()):
                assert outcome(exclusive_curve_point, p, q, alpha, lam) == outcome(
                    ref_exclusive_curve_point, p, q, alpha, lam
                )
                assert outcome(inclusive_curve_point, p, q, alpha, lam) == outcome(
                    ref_inclusive_curve_point, p, q, alpha, lam
                )

    @pytest.mark.parametrize("name, pv, qv", EQUIVALENCE_PAIRS, ids=[c[0] for c in EQUIVALENCE_PAIRS])
    def test_frontiers_and_prd_identical(self, name, pv, qv):
        p, q = Histogram(pv), Histogram(qv)
        for grid_size in (2, 51, 201):
            for side in (EXCLUSIVE, INCLUSIVE):
                for alpha in EQUIVALENCE_ALPHAS:
                    want = outcome(ref_frontier, p, q, alpha, side, grid_size)
                    for rows in ROWS_PER_BLOCK:
                        with rows_per_block(rows, len(p)):
                            got = outcome(lambda: frontier(p, q, alpha, side, grid_size).points)
                        # repr tells -0.0 from 0.0
                        assert repr(got) == repr(want), (grid_size, side, str(alpha), rows)
            curve = frontier(p, q, Alpha.infinity(), EXCLUSIVE, grid_size)
            got = prd_from_infinity_frontier(curve).points
            assert repr(got) == repr(ref_prd_from_infinity_frontier(curve))
            assert repr(prd_reference(p, q, grid_size).points) == repr(ref_prd_reference(p, q, grid_size))



class TestRowBlocks:
    @pytest.mark.parametrize("name, pv, qv", EQUIVALENCE_PAIRS, ids=[c[0] for c in EQUIVALENCE_PAIRS])
    def test_geodesic_points_bit_identical(self, name, pv, qv):
        p, q = Histogram(pv), Histogram(qv)
        lo, hi = _ratio_domain(p, q)
        lams = _geometric_lambda_grid(lo, hi, 51).tolist() + [lo - 1e-13, hi + 1e-13, -1.0, 2 * hi + 1, float("nan")]
        for lam in lams:
            got = outcome(infinity_geodesic_point, p, q, lam)
            assert same_point(got, outcome(ref_infinity_geodesic_point, p, q, lam)), lam

    @pytest.mark.parametrize("name, pv, qv", EQUIVALENCE_PAIRS, ids=[c[0] for c in EQUIVALENCE_PAIRS])
    def test_row_functions_warn_nothing_and_end_at_p_and_q(self, name, pv, qv):
        p, q = Histogram(pv), Histogram(qv)
        pv, qv = p.probs, q.probs
        lams = np.array(sorted(set(PATH_LAMBDAS) | set(np.linspace(0.0, 1.0, 51).tolist())))
        orders = {0.0, 1.0} | {e for a in EQUIVALENCE_ALPHAS if a.is_finite for e in (a.value, 1.0 - a.value)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in sorted(orders):
                rows = outcome(_power_mean_rows, pv, qv, e, lams)
                if isinstance(rows, tuple):  # a path without admissible interior points
                    assert rows == (ParameterError, "barycentric path point has empty support")
                    continue
                assert np.array_equal(rows[0], pv) and np.array_equal(rows[-1], qv)
                assert np.isfinite(rows).all() and (rows.sum(axis=1) > 0).all()
            geo = _geodesic_rows(pv, qv, _geometric_lambda_grid(*_ratio_domain(p, q), 201))
            assert np.isfinite(geo).all() and (geo.sum(axis=1) > 0).all()
            assert np.array_equal(_geodesic_rows(pv, qv, np.array([0.0]))[0], pv)

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    def test_memory_is_bounded_by_the_blocks(self, side):
        # a (grid x bins) float array alone would be 108 MiB here
        rng = np.random.default_rng(1414)
        p, q = Histogram(rng.dirichlet(np.ones(1414))), Histogram(rng.dirichlet(np.ones(1414)))
        tracemalloc.start()
        try:
            curve = frontier(p, q, Alpha.finite(2), side, MAX_GRID_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve.points) > 1
        assert peak <= 64 * 2**20
