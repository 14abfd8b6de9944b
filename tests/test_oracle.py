import dataclasses
import math
from itertools import combinations

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
    brute_force_frontier,
    certify_frontier,
    divergence_quadrature,
    enumerate_simplex,
    frontier,
    hausdorff_linf,
    kl_gaussian,
    max_dominance_violation,
    pareto_filter,
    realizable_pairs,
    renyi_gaussian,
)

INF = float("inf")


def _loop_pareto_filter(points):
    """pareto_filter before it worked on arrays."""
    uniq = sorted(set((float(x), float(y)) for x, y in points))
    kept = []
    best_y_before = np.inf
    i = 0
    while i < len(uniq):
        j = i
        while j < len(uniq) and uniq[j][0] == uniq[i][0]:
            j += 1
        group = uniq[i:j]
        kept.extend(pt for pt in group if not pt[1] > best_y_before)
        best_y_before = min(best_y_before, min(pt[1] for pt in group))
        i = j
    return kept


def _combinations_simplex(n, m):
    """enumerate_simplex's points before the repeat/cumsum construction."""
    points = np.empty((math.comb(m + n - 1, n - 1), n))
    for row, bars in enumerate(combinations(range(m + n - 1), n - 1)):
        prev = -1
        for j, b in enumerate(bars):
            points[row, j] = b - prev - 1
            prev = b
        points[row, n - 1] = m + n - 2 - prev
    return points / m


def _signs(points):
    # tells -0.0 from 0.0, which == does not
    return [tuple(math.copysign(1.0, c) for c in pt) for pt in points]


class TestEnumerateSimplex:
    @pytest.mark.parametrize("n,m,count", [(2, 2, 3), (3, 4, 15), (4, 10, 286)])
    def test_counts(self, n, m, count):
        grid = enumerate_simplex(n, m)
        assert grid.count == count == math.comb(m + n - 1, n - 1)

    def test_rows_sum_to_one_with_m_denominator(self):
        grid = enumerate_simplex(3, 6)
        np.testing.assert_allclose(grid.points.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(grid.points * 6, np.round(grid.points * 6), atol=1e-9)

    def test_no_duplicates_and_lexicographic(self):
        grid = enumerate_simplex(3, 60)
        assert grid.count == 1891
        rows = [tuple(r) for r in np.round(grid.points * 60).astype(int)]
        assert len(set(rows)) == grid.count
        assert rows == sorted(rows)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            enumerate_simplex(1, 5)
        with pytest.raises(ParameterError):
            enumerate_simplex(3, 0)

    @pytest.mark.parametrize("n,m", [(2, 7), (3, 12), (4, 9), (5, 6), (2, 1), (6, 1)])
    def test_matches_the_combinations_construction_in_order(self, n, m):
        grid = enumerate_simplex(n, m)
        assert (grid.n, grid.m) == (n, m)
        assert np.array_equal(grid.points, _combinations_simplex(n, m))


coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, 1e-300, INF, -INF]),
    st.floats(allow_nan=False, allow_infinity=True),
)


class TestParetoFilterArrays:
    @given(st.lists(st.tuples(coordinates, coordinates), max_size=40))
    @settings(max_examples=300)
    def test_equals_the_loop_filter(self, pts):
        want = _loop_pareto_filter(pts)
        for given_as in (pts, np.array(pts, dtype=float).reshape(-1, 2)):
            got = pareto_filter(given_as)
            assert got == want
            assert _signs(got) == _signs(want)
            assert all(type(c) is float for pt in got for c in pt)

    def test_empty(self):
        assert pareto_filter([]) == [] == pareto_filter(np.empty((0, 2)))


class TestBruteForceFrontier:
    def test_equal_inputs_collapse_to_origin(self):
        p = Histogram([0.5, 0.5])
        grid = enumerate_simplex(2, 40)
        front = brute_force_frontier(p, p, Alpha.finite(2), EXCLUSIVE, grid)
        assert len(front) == 1
        x, y = front[0]
        # smoothing keeps the minimum within grid resolution of (0, 0)
        assert x <= 1e-3 and y <= 1e-3

    def test_dimension_check(self):
        p = Histogram([0.5, 0.5])
        q = Histogram([0.3, 0.3, 0.4])
        with pytest.raises(Exception):
            realizable_pairs(p, q, Alpha.one(), EXCLUSIVE, enumerate_simplex(2, 10))

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    def test_matches_closed_form_curve(self, side):
        p = Histogram([0.6, 0.4])
        q = Histogram([0.2, 0.8])
        alpha = Alpha.finite(2)
        grid = enumerate_simplex(2, 200)
        oracle = brute_force_frontier(p, q, alpha, side, grid)
        curve = frontier(p, q, alpha, side, 201)
        pts = [(x, y) for _, x, y in curve.points if np.isfinite(x) and np.isfinite(y)]
        assert hausdorff_linf(pts, oracle) <= 5.0 / 200


class TestDominanceAndHausdorff:
    def test_no_violation_when_undominated(self):
        pairs = np.array([[1.0, 1.0], [2.0, 0.5]])
        assert max_dominance_violation([(0.5, 0.5)], pairs) == 0.0

    def test_no_curve_points_no_violation(self):
        assert max_dominance_violation([], np.array([[0.2, 0.3]])) == 0.0

    def test_violation_margin(self):
        pairs = np.array([[0.2, 0.3]])
        # grid point beats (1.0, 0.5) by min(0.8, 0.2) = 0.2
        assert max_dominance_violation([(1.0, 0.5)], pairs) == pytest.approx(0.2)

    def test_hausdorff_frozen(self):
        a = [(0.0, 0.0), (1.0, 1.0)]
        b = [(0.0, 0.5), (1.0, 1.0)]
        assert hausdorff_linf(a, b) == pytest.approx(0.5)
        assert hausdorff_linf(a, a) == 0.0


def former_max_dominance_violation(curve_points, grid_pairs):
    """max_dominance_violation before the broadcast: one pass per curve point."""
    worst = 0.0
    for cx, cy in curve_points:
        margins = np.minimum(cx - grid_pairs[:, 0], cy - grid_pairs[:, 1])
        worst = max(worst, float(margins.max()))
    return worst


class TestDominanceAgainstTheFront:
    @pytest.mark.parametrize("seed", range(6))
    def test_front_gives_the_same_violation_as_the_grid(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 4
        p, q = Histogram(rng.uniform(0.15, 1.0, n)), Histogram(rng.uniform(0.15, 1.0, n))
        grid = enumerate_simplex(n, 12)
        for alpha in (Alpha.finite(0.5), Alpha.one(), Alpha.finite(2)):
            for side in (EXCLUSIVE, INCLUSIVE):
                pairs = realizable_pairs(p, q, alpha, side, grid)
                front = np.array(brute_force_frontier(p, q, alpha, side, grid))
                curve = frontier(p, q, alpha, side, 41)
                # also pushed into the realizable region, so that margins are positive
                for shift in (0.0, 0.02, 0.2):
                    moved = dataclasses.replace(
                        curve, points=tuple((lam, x + shift, y + shift) for lam, x, y in curve.points)
                    )
                    pts = [(x, y) for _, x, y in moved.points if np.isfinite(x) and np.isfinite(y)]
                    want = max_dominance_violation(pts, pairs)
                    assert want == former_max_dominance_violation(pts, pairs)
                    assert max_dominance_violation(pts, front) == want
                    verdict = certify_frontier(p, q, alpha, side, moved, m=12)
                    assert verdict["max_dominance_violation"] == want


class TestCertifyFrontier:
    def test_closed_form_passes(self):
        p = Histogram([0.5, 0.3, 0.2])
        q = Histogram([0.2, 0.3, 0.5])
        for alpha in (Alpha.finite(0.5), Alpha.one(), Alpha.finite(2)):
            for side in (EXCLUSIVE, INCLUSIVE):
                curve = frontier(p, q, alpha, side, 201)
                verdict = certify_frontier(p, q, alpha, side, curve, m=40)
                assert verdict["pass"], verdict

    def test_shifted_curve_fails(self):
        p = Histogram([0.5, 0.3, 0.2])
        q = Histogram([0.2, 0.3, 0.5])
        alpha = Alpha.finite(2)
        good = frontier(p, q, alpha, EXCLUSIVE, 201)
        shifted = dataclasses.replace(
            good, points=tuple((lam, x + 0.5, y + 0.5) for lam, x, y in good.points)
        )
        verdict = certify_frontier(p, q, alpha, EXCLUSIVE, shifted, m=40)
        assert not verdict["pass"]
        assert verdict["hausdorff_distance"] > 5.0 / 40
        # points pushed away from the origin sit strictly inside the
        # realizable region, so the dominance check fires too
        assert verdict["max_dominance_violation"] > 2.0 / 40


class TestDivergenceQuadrature:
    def test_identity(self):
        g = GaussianParams([0.0], [[1.0]])
        value, err = divergence_quadrature(g, g, Alpha.finite(0.5))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_kl_1d(self):
        P = GaussianParams([1.0], [[1.0]])
        Q = GaussianParams([0.0], [[1.0]])
        value, _ = divergence_quadrature(P, Q, Alpha.one())
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_renyi_half_frozen(self):
        P = GaussianParams([1.0], [[1.0]])
        Q = GaussianParams([0.0], [[1.0]])
        # D_0.5 between unit-variance Gaussians: alpha/2 * delta^2 = 0.25
        value, _ = divergence_quadrature(P, Q, Alpha.finite(0.5))
        assert value == pytest.approx(0.25, abs=1e-9)

    def test_infinity_1d(self):
        P = GaussianParams([0.0], [[0.5]])
        Q = GaussianParams([0.0], [[1.0]])
        value, err = divergence_quadrature(P, Q, Alpha.infinity())
        assert value == pytest.approx(renyi_gaussian(P, Q, Alpha.infinity()), abs=1e-6)

    def test_monte_carlo_matches_kl_2d(self):
        P = GaussianParams([0.0, 0.0], np.eye(2))
        Q = GaussianParams([1.0, 0.0], np.eye(2))
        value, err = divergence_quadrature(P, Q, Alpha.one(), mc_samples=400_000, seed=1)
        assert abs(value - kl_gaussian(P, Q)) <= 4 * err

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            divergence_quadrature(
                GaussianParams([0.0], [[1.0]]), GaussianParams([0.0, 0.0], np.eye(2)), Alpha.one()
            )
