import dataclasses
import math
import tracemalloc
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
from divfrontier import discrete_frontier as frontier_module
from divfrontier import oracle as oracle_module
from divfrontier.oracle import MAX_SIMPLEX_ENTRIES

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

    # (1413, 2) and (20000, 1) have under a million points but billions of entries
    @pytest.mark.parametrize(
        "n,m", [(2, 2**40), (10, 60), (3, 1413), (1413, 2), (20000, 1), (21, 20), (2**40, 1), (2**40, 2**40)]
    )
    def test_grid_beyond_the_cap_raises_without_allocating(self, n, m):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="exceeds"):
                enumerate_simplex(n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_at_the_cap_is_built(self):
        assert enumerate_simplex(2, MAX_SIMPLEX_ENTRIES // 2 - 1).points.size == MAX_SIMPLEX_ENTRIES
        with pytest.raises(ParameterError, match="exceeds"):
            enumerate_simplex(2, MAX_SIMPLEX_ENTRIES // 2)
        assert enumerate_simplex(1414, 1).points.size == 1414**2 <= MAX_SIMPLEX_ENTRIES

    def test_cap_agrees_with_the_binomial(self, monkeypatch):
        # a small cap puts both the bit-length shortcut and math.comb to work
        monkeypatch.setattr(oracle_module, "MAX_SIMPLEX_ENTRIES", 1000)
        for n in range(2, 26):
            for m in range(1, 30):
                if math.comb(m + n - 1, n - 1) * n > 1000:
                    with pytest.raises(ParameterError):
                        enumerate_simplex(n, m)
                else:
                    assert enumerate_simplex(n, m).count == math.comb(m + n - 1, n - 1)

    @pytest.mark.parametrize("n,m", [(2, 7), (3, 12), (4, 9), (5, 6), (2, 1), (6, 1), (30, 2), (50, 1)])
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


def broadcast_max_dominance_violation(curve_points, grid_pairs):
    """max_dominance_violation before it worked in blocks: one (curve x grid) array."""
    C = np.asarray(curve_points, dtype=float).reshape(-1, 2)
    margins = np.minimum(C[:, None, 0] - grid_pairs[None, :, 0], C[:, None, 1] - grid_pairs[None, :, 1])
    return float(margins.max(initial=0.0))


def broadcast_hausdorff_linf(a, b):
    """hausdorff_linf before it worked in blocks: one (a x b) distance array."""
    A = np.asarray(a)
    B = np.asarray(b)
    d = np.maximum(np.abs(A[:, None, 0] - B[None, :, 0]), np.abs(A[:, None, 1] - B[None, :, 1]))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _same(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


class TestBlockedMeasures:
    @given(
        curve=st.lists(st.tuples(coordinates, coordinates), max_size=12),
        front=st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=12),
        block=st.integers(1, 40),
    )
    @settings(max_examples=300)
    def test_equal_the_broadcast(self, curve, front, block):
        # block entries from 1 (one curve row per block) up to more than the
        # whole array, so both one block and many are compared
        F = np.array(front, dtype=float)
        saved = frontier_module._BLOCK_ENTRIES  # the oracle blocks through discrete_frontier._row_blocks
        frontier_module._BLOCK_ENTRIES = block
        try:
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 - -1e308
                assert _same(max_dominance_violation(curve, F), broadcast_max_dominance_violation(curve, F))
                if curve:
                    assert _same(hausdorff_linf(curve, front), broadcast_hausdorff_linf(curve, front))
        finally:
            frontier_module._BLOCK_ENTRIES = saved


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
