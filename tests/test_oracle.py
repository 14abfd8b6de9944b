import dataclasses
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from divfrontier.divergences import renyi_rows
from divfrontier.oracle import GRID_SMOOTHING, MAX_SIMPLEX_ENTRIES
from tests.conftest import frozen_renyi_rows, rows_per_block

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


def _lexsort_pareto_filter(points):
    """pareto_filter before it pruned large inputs by a sample's front."""
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    if xy.shape[0] == 0:
        return []
    s = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
    s = s[np.concatenate([[True], np.any(s[1:] != s[:-1], axis=1)])]
    best = np.minimum.accumulate(np.concatenate([[np.inf], s[:-1, 1]]))
    first = np.concatenate([[True], s[1:, 0] != s[:-1, 0]])
    run_start = np.maximum.accumulate(np.where(first, np.arange(s.shape[0]), 0))
    return list(map(tuple, s[~(s[:, 1] > best[run_start])].tolist()))


def _row_major_realizable_pairs(p, q, alpha, side, grid):
    """realizable_pairs before the grid was held bins-major: the same
    arithmetic on a C-order copy of the grid."""
    R = np.ascontiguousarray(grid.points) + GRID_SMOOTHING
    R = R / R.sum(axis=1, keepdims=True)
    pv = p.probs + GRID_SMOOTHING
    pv = pv / pv.sum()
    qv = q.probs + GRID_SMOOTHING
    qv = qv / qv.sum()
    if side == EXCLUSIVE:
        return np.column_stack([renyi_rows(R, pv, alpha), renyi_rows(R, qv, alpha)])
    return np.column_stack([renyi_rows(pv, R, alpha), renyi_rows(qv, R, alpha)])


def _whole_grid_realizable_pairs(p, q, alpha, side, grid):
    """realizable_pairs before it worked in row blocks: the whole bins-major
    grid smoothed at once, through the kernel before it worked in place."""
    R = grid.points + GRID_SMOOTHING
    R = R / R.sum(axis=1, keepdims=True)
    pv = p.probs + GRID_SMOOTHING
    pv = pv / pv.sum()
    qv = q.probs + GRID_SMOOTHING
    qv = qv / qv.sum()
    if side == EXCLUSIVE:
        return np.column_stack([frozen_renyi_rows(R, pv, alpha), frozen_renyi_rows(R, qv, alpha)])
    return np.column_stack([frozen_renyi_rows(pv, R, alpha), frozen_renyi_rows(qv, R, alpha)])


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


def _walk_back_simplex(n, m):
    """enumerate_simplex's points before it was built level by level: each
    prefix keeps its parent, and every full row is walked back through its
    prefixes, one gather per level."""
    sums, steps = np.zeros(1, dtype=np.int64), []
    for _ in range(n - 1):
        free = m - sums + 1
        parent = np.repeat(np.arange(len(sums)), free)
        nxt = np.arange(len(parent)) - np.repeat(np.cumsum(free) - free, free)
        sums = sums[parent] + nxt
        steps.append((parent, nxt))
    points = np.empty((len(sums), n), order="F")
    points[:, -1] = m - sums
    row = np.arange(len(sums))
    for j in range(n - 2, -1, -1):
        parent, nxt = steps[j]
        points[:, j] = nxt[row]
        row = parent[row]
    points /= m
    return points


def _same_grid(n, m):
    got, want = enumerate_simplex(n, m).points, _walk_back_simplex(n, m)
    assert got.dtype == np.float64 and got.flags.f_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("n,m", [(3, 2.0), (3.0, 2), (3, True), (True, 3), (3, np.True_), (3, "4"), (3, None)])
    def test_arguments_must_be_integers(self, n, m):
        with pytest.raises(ParameterError, match="integers"):
            enumerate_simplex(n, m)

    def test_numpy_integers_are_accepted(self):  # pins the behaviour before the integer check
        grid = enumerate_simplex(np.int64(3), np.uint8(4))
        assert (grid.n, grid.m, grid.count) == (3, 4, 15)
        assert grid.points.tobytes() == enumerate_simplex(3, 4).points.tobytes()

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
        assert grid.points.flags.f_contiguous


class TestLevelByLevelGrid:
    """enumerate_simplex against the walk-back construction it replaces,
    byte for byte. The equality tests pin the grid as it was built before."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 60), m=st.integers(1, 60))
    @example(n=2, m=1)
    @example(n=2, m=60)
    @example(n=60, m=1)
    def test_equals_the_walk_back_under_a_small_cap(self, n, m):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "MAX_SIMPLEX_ENTRIES", 20_000)
            if math.comb(m + n - 1, n - 1) * n > 20_000:
                with pytest.raises(ParameterError, match="exceeds"):
                    enumerate_simplex(n, m)
            else:
                _same_grid(n, m)

    @pytest.mark.parametrize("n,m", [(2, 999_999), (1414, 1), (8, 12), (12, 6), (5, 40)])
    def test_equals_the_walk_back_on_edge_shapes(self, n, m):
        _same_grid(n, m)

    def test_memory_of_the_longest_two_bin_grid(self):
        # tracemalloc peak: 53.4 MiB for the walk-back construction, 23.0 MiB
        # level by level (the 15.3 MiB grid and one int64 column)
        tracemalloc.start()
        try:
            grid = enumerate_simplex(2, 999_999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * grid.points.nbytes, peak


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


# few distinct values, so that exact ties in x, in y and in both are common
tie_values = st.lists(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -3.0, 1e-300, INF, -INF]) | st.floats(-4.0, 4.0), min_size=1, max_size=8
)


class TestParetoPrefilter:
    """Inputs of 1024 points or more are first pruned by the front of a
    strided sample; the output must not change."""

    @given(
        n=st.integers(1024, 3000),
        values=tie_values,
        on_front=st.floats(0.0, 1.0),
        nans=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_filters_it_replaces(self, n, values, on_front, nans, seed):
        rng = np.random.default_rng(seed)
        vals = np.sort(np.array(values))
        i = rng.integers(0, len(vals), n)
        # a share of the points on an anti-diagonal, which keeps them on the front
        j = np.where(rng.random(n) < on_front, len(vals) - 1 - i, rng.integers(0, len(vals), n))
        xy = np.column_stack([vals[i], vals[j]])
        xy.flat[rng.integers(0, xy.size, nans)] = np.nan
        for given_as in (list(map(tuple, xy.tolist())), xy):
            if np.isnan(xy).any():  # the filter refuses NaN, prefiltered or not
                with pytest.raises(ParameterError, match="NaN"):
                    pareto_filter(given_as)
                continue
            got = pareto_filter(given_as)
            # repr tells -0.0 from 0.0, which == does not
            assert repr(got) == repr(_lexsort_pareto_filter(xy))
            assert all(type(c) is float for pt in got for c in pt)
            assert got == _loop_pareto_filter(xy.tolist())
            assert _signs(got) == _signs(_loop_pareto_filter(xy.tolist()))

    def test_oracle_grid_with_most_points_on_the_front(self):
        p, q = Histogram([0.05, 0.95]), Histogram([0.95, 0.05])
        pairs = realizable_pairs(p, q, Alpha.finite(2), EXCLUSIVE, enumerate_simplex(2, 20_000))
        got = pareto_filter(pairs)
        assert got == _loop_pareto_filter(pairs) == _lexsort_pareto_filter(pairs)
        assert len(got) > 0.8 * len(pairs)


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


def _grid_histograms(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n))
    p[0] = 0.0  # a zero bin, smoothed like the grid
    return Histogram(p / p.sum()), Histogram(rng.dirichlet(np.ones(n)))


GRID_ALPHAS = (Alpha.finite(0.5), Alpha.one(), Alpha.finite(2))


class TestBinsMajorGrid:
    """realizable_pairs on the bins-major grid against the row-major code."""

    # up to 7 bins NumPy adds a row's entries in order in either layout
    @pytest.mark.parametrize("n,m", [(2, 300), (3, 40), (4, 16), (5, 10), (6, 8), (7, 6)])
    def test_bit_identical_up_to_seven_bins(self, n, m):
        p, q = _grid_histograms(n, n)
        grid = enumerate_simplex(n, m)
        for alpha in GRID_ALPHAS:
            for side in (EXCLUSIVE, INCLUSIVE):
                got = realizable_pairs(p, q, alpha, side, grid)
                want = _row_major_realizable_pairs(p, q, alpha, side, grid)
                assert got.tobytes() == want.tobytes()
                front = _lexsort_pareto_filter(want)
                assert brute_force_frontier(p, q, alpha, side, grid) == front
                curve = frontier(p, q, alpha, side, 41)
                finite = [(x, y) for _, x, y in curve.points if np.isfinite(x) and np.isfinite(y)]
                violation = max_dominance_violation(finite, np.array(front))
                hausdorff = hausdorff_linf(finite, front)
                steps = [max(abs(x1 - x0), abs(y1 - y0)) for (x0, y0), (x1, y1) in zip(finite, finite[1:])]
                assert certify_frontier(p, q, alpha, side, curve, m) == {
                    "max_dominance_violation": violation,
                    "hausdorff_distance": hausdorff,
                    "curve_max_step": max(steps, default=0.0),
                    "pass": bool(violation <= 2.0 / m and hausdorff <= 5.0 / m),
                }

    # from 8 bins a row sum runs in order instead of pairwise
    @pytest.mark.parametrize("n,m", [(8, 6), (12, 4), (40, 2), (1414, 1)])
    def test_within_1e_12_relative_from_eight_bins(self, n, m):
        p, q = _grid_histograms(n, n)
        grid = enumerate_simplex(n, m)
        for alpha in GRID_ALPHAS:
            for side in (EXCLUSIVE, INCLUSIVE):
                got = realizable_pairs(p, q, alpha, side, grid)
                want = _row_major_realizable_pairs(p, q, alpha, side, grid)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


BLOCK_ALPHAS = [Alpha.parse(a) for a in ("1e-3", "0.5", "1", "2", "1e4", "inf")]


class TestGridBlocks:
    """realizable_pairs in row blocks against the whole-grid code it replaced;
    the equality tests pin that code's values byte for byte."""

    @pytest.mark.parametrize("n,m", [(2, 300), (3, 40), (5, 10), (7, 6), (8, 6), (12, 4), (40, 2), (1414, 1)])
    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1-row", "7-row"])
    def test_bit_identical_to_the_whole_grid(self, n, m, rows):
        p, q = _grid_histograms(n, n)
        probs = q.probs.copy()
        probs[-1] = 0.0  # a zero in q as well as in p
        q = Histogram(probs / probs.sum())
        grid = enumerate_simplex(n, m)
        for alpha in BLOCK_ALPHAS:
            for side in (EXCLUSIVE, INCLUSIVE):
                want = _whole_grid_realizable_pairs(p, q, alpha, side, grid)
                with rows_per_block(rows, n):
                    got = realizable_pairs(p, q, alpha, side, grid)
                assert got.tobytes() == want.tobytes(), (alpha, side)

    def test_memory_of_one_call_on_the_benchmark_grid(self):
        # the whole-grid code peaked at 22-29 MiB here (21.8 at alpha = inf,
        # 28.6 at finite alpha); the blocks hold the 2.1 MiB result and one
        # block's arrays
        rng = np.random.default_rng(5)
        p, q = Histogram(rng.uniform(0.15, 1.0, 5)), Histogram(rng.uniform(0.15, 1.0, 5))
        grid = enumerate_simplex(5, 40)
        for alpha in BLOCK_ALPHAS:
            for side in (EXCLUSIVE, INCLUSIVE):
                tracemalloc.start()
                try:
                    realizable_pairs(p, q, alpha, side, grid)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 6 * 2**20, (alpha, side, peak)


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

    @pytest.mark.parametrize("bad", [[(0, 1, 2)], [(0, 1, 2), (3, 4, 5)], [(0, 1), (2,)], [(0.0, math.nan)], [0.5]])
    def test_point_sets_that_are_not_pairs_are_refused(self, bad):
        # three-column points read 0.0 between themselves in hausdorff_linf,
        # and two of them were read as three pairs by the dominance margin
        for a, b in ((bad, [(0.0, 1.0)]), ([(0.0, 1.0)], bad), (bad, bad)):
            for measure in (hausdorff_linf, max_dominance_violation):
                with pytest.raises(ParameterError, match="points must"):
                    measure(a, b)


class TestHausdorffOfEmptySets:
    @pytest.mark.parametrize("empty", [[], np.empty((0, 2))])
    def test_one_empty_set_is_infinitely_far(self, empty):
        pts = [(0.1, 0.2), (0.3, 0.0)]
        assert hausdorff_linf(empty, pts) == INF
        assert hausdorff_linf(pts, empty) == INF

    def test_two_empty_sets_are_at_distance_zero(self):
        assert hausdorff_linf([], []) == 0.0
        assert hausdorff_linf(np.empty((0, 2)), []) == 0.0


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

    def test_curve_max_step_bounds_a_sampling_failure(self):
        # a correct curve fails at a large m: the Hausdorff distance is within
        # the curve's own largest step, so the failure comes from sampling
        p, q, alpha = Histogram([0.3, 0.7]), Histogram([0.6, 0.4]), Alpha.finite(2)
        curve = frontier(p, q, alpha, INCLUSIVE, 201)
        verdict = certify_frontier(p, q, alpha, INCLUSIVE, curve, m=100_000)
        assert not verdict["pass"]
        assert verdict["max_dominance_violation"] <= 2.0 / 100_000
        assert 5.0 / 100_000 < verdict["hausdorff_distance"] <= verdict["curve_max_step"]
        finite = np.array([(x, y) for _, x, y in curve.points if np.isfinite(x) and np.isfinite(y)])
        assert verdict["curve_max_step"] == np.abs(np.diff(finite, axis=0)).max()

    def test_curve_max_step_of_a_single_point_is_zero(self):
        p, q, alpha = Histogram([0.5, 0.5]), Histogram([0.5, 0.5]), Alpha.finite(2)
        curve = frontier(p, q, alpha, EXCLUSIVE, 21)
        assert len(curve.points) == 1
        verdict = certify_frontier(p, q, alpha, EXCLUSIVE, curve, m=10)
        assert verdict["curve_max_step"] == 0.0 and verdict["pass"]

    @pytest.mark.parametrize(
        "side,alpha,m,match",
        [
            (INCLUSIVE, Alpha.finite(2), 10, "exclusive side, not the inclusive side"),
            (INCLUSIVE, Alpha.finite(2), 40, "exclusive side, not the inclusive side"),
            (EXCLUSIVE, Alpha.finite(0.5), 10, "alpha=2.0, not alpha=0.5"),
        ],
    )
    def test_refuses_a_curve_traced_for_another_side_or_order(self, side, alpha, m, match):
        # each of these read "pass": true before the curve's tags were checked
        p, q = Histogram([0.3, 0.7]), Histogram([0.6, 0.4])
        curve = frontier(p, q, Alpha.finite(2), EXCLUSIVE, 201)
        with pytest.raises(ParameterError, match=match):
            certify_frontier(p, q, alpha, side, curve, m=m)

    def test_m_must_be_an_integer(self):
        p, q, alpha = Histogram([0.3, 0.7]), Histogram([0.6, 0.4]), Alpha.finite(2)
        curve = frontier(p, q, alpha, EXCLUSIVE, 21)
        with pytest.raises(ParameterError, match="integers"):
            certify_frontier(p, q, alpha, EXCLUSIVE, curve, m=10.5)

    def test_a_curve_without_finite_points_is_infinitely_far(self):  # pins the verdict before the empty-set rule
        p, q, alpha = Histogram([0.3, 0.7]), Histogram([0.6, 0.4]), Alpha.finite(2)
        curve = dataclasses.replace(frontier(p, q, alpha, EXCLUSIVE, 21), points=((0.0, INF, 0.0), (1.0, 0.0, INF)))
        verdict = certify_frontier(p, q, alpha, EXCLUSIVE, curve, m=10)
        assert verdict["hausdorff_distance"] == INF and not verdict["pass"]

    def test_filters_the_grid_once_through_the_brute_force_frontier(self, monkeypatch):
        p, q, alpha = Histogram([0.5, 0.3, 0.2]), Histogram([0.2, 0.3, 0.5]), Alpha.finite(2)
        curve = frontier(p, q, alpha, EXCLUSIVE, 201)
        calls = {"brute_force_frontier": [], "pareto_filter": []}
        for name, log in calls.items():
            real = getattr(oracle_module, name)
            monkeypatch.setattr(oracle_module, name, lambda *args, _real=real, _log=log: _log.append(1) or _real(*args))
        verdict = certify_frontier(p, q, alpha, EXCLUSIVE, curve, m=40)
        assert verdict["pass"] and calls == {"brute_force_frontier": [1], "pareto_filter": [1]}


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
