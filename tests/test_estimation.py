import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from divfrontier import estimation
from divfrontier import (
    GaussianParams,
    Histogram,
    InsufficientDataError,
    ParameterError,
    PipelineConfig,
    evaluate_pipeline,
    fit_gaussian,
    histograms_equal,
    kl_gaussian,
    knn_support_metrics,
    quantize,
)


class TestFitGaussian:
    def test_matches_sample_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 2))
        g = fit_gaussian(x)
        np.testing.assert_allclose(g.mean, x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(g.cov, np.cov(x.T, ddof=1), atol=1e-12)

    def test_converges_to_truth(self):
        rng = np.random.default_rng(3)
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        x = rng.multivariate_normal(mean, cov, size=200_000)
        g = fit_gaussian(x)
        np.testing.assert_allclose(g.mean, mean, atol=0.02)
        np.testing.assert_allclose(g.cov, cov, atol=0.03)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_gaussian(np.zeros((1, 2)))

    def test_degenerate_without_ridge(self):
        # all samples on a line: rank-deficient covariance
        x = np.stack([np.linspace(0, 1, 50), np.linspace(0, 1, 50)], axis=1)
        with pytest.raises(InsufficientDataError):
            fit_gaussian(x)
        g = fit_gaussian(x, ridge=1e-6)
        assert g.dim == 2

    def test_negative_ridge_rejected(self):
        with pytest.raises(ParameterError):
            fit_gaussian(np.random.default_rng(0).normal(size=(10, 1)), ridge=-1.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 2))
        shift = np.array([10.0, -4.0])
        g0 = fit_gaussian(x)
        g1 = fit_gaussian(x + shift)
        np.testing.assert_allclose(g1.mean, g0.mean + shift, atol=1e-9)
        np.testing.assert_allclose(g1.cov, g0.cov, atol=1e-9)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 1))
        g0 = fit_gaussian(x)
        g3 = fit_gaussian(3.0 * x)
        np.testing.assert_allclose(g3.mean, 3.0 * g0.mean, atol=1e-9)
        np.testing.assert_allclose(g3.cov, 9.0 * g0.cov, atol=1e-9)

    def test_one_dimensional_input_vector(self):
        g = fit_gaussian([0.0, 1.0, 2.0, 3.0])
        assert g.dim == 1
        assert g.mean[0] == pytest.approx(1.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            fit_gaussian([[0.0], [np.inf]])


class TestQuantize:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        xp = rng.normal(size=(200, 2))
        xq = rng.normal(size=(200, 2)) + 1.0
        h1p, h1q, m1 = quantize(xp, xq, k=5, seed=3)
        h2p, h2q, m2 = quantize(xp, xq, k=5, seed=3)
        np.testing.assert_array_equal(h1p.probs, h2p.probs)
        np.testing.assert_array_equal(h1q.probs, h2q.probs)
        np.testing.assert_array_equal(m1.centers, m2.centers)

    def test_identical_inputs_give_equal_histograms(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(300, 2))
        hp, hq, _ = quantize(x, x, k=8, seed=0)
        assert histograms_equal(hp, hq)

    def test_separated_blobs(self):
        # two far-apart blobs, one per sample set: each histogram should
        # concentrate nearly all mass on its own cluster
        rng = np.random.default_rng(13)
        xp = rng.normal(size=(200, 2)) * 0.1
        xq = rng.normal(size=(200, 2)) * 0.1 + 50.0
        hp, hq, model = quantize(xp, xq, k=2, seed=0)
        assert hp.probs.max() > 0.999
        assert hq.probs.max() > 0.999
        assert np.argmax(hp.probs) != np.argmax(hq.probs)
        assert model.k == 2

    def test_histogram_length_and_smoothing(self):
        rng = np.random.default_rng(14)
        xp = rng.normal(size=(50, 1))
        xq = rng.normal(size=(50, 1))
        hp, hq, _ = quantize(xp, xq, k=10, seed=0)
        assert len(hp) == 10 and len(hq) == 10
        assert np.all(hp.probs > 0) and np.all(hq.probs > 0)

    def test_parameter_validation(self):
        x = np.zeros((5, 1))
        with pytest.raises(ParameterError):
            quantize(x, x, k=1)
        with pytest.raises(ParameterError):
            quantize(x, x, k=11)
        with pytest.raises(ParameterError):
            quantize(np.zeros((5, 1)), np.zeros((5, 2)), k=2)
        with pytest.raises(ParameterError, match="seed"):
            quantize(x, x, k=2, seed=-1)


class TestKnnSupportMetrics:
    def test_identical_sets(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(200, 2))
        precision, recall = knn_support_metrics(x, x, k=3)
        assert precision == 1.0 and recall == 1.0
        assert type(precision) is float and type(recall) is float

    def test_points_repeated_beyond_k(self):
        # every ball has radius 0 and holds exactly the copies of its point
        points = np.random.default_rng(25).normal(size=(4, 3))
        xp = np.repeat(points[:3], 400, axis=0)
        xq = np.repeat(points[1:], 300, axis=0)
        assert knn_support_metrics(xp, xq, k=3) == (2 / 3, 2 / 3)

    def test_disjoint_far_blobs(self):
        rng = np.random.default_rng(22)
        xp = rng.normal(size=(300, 2))
        xq = rng.normal(size=(300, 2)) + 100.0
        precision, recall = knn_support_metrics(xp, xq, k=3)
        assert precision <= 0.01 and recall <= 0.01

    def test_swap_symmetry(self):
        rng = np.random.default_rng(23)
        xp = rng.normal(size=(150, 2))
        xq = rng.normal(size=(150, 2)) * 0.5
        p1, r1 = knn_support_metrics(xp, xq, k=3)
        p2, r2 = knn_support_metrics(xq, xp, k=3)
        assert p1 == r2 and r1 == p2

    def test_subset_support(self):
        # Q concentrated inside P's support: precision high, recall partial
        rng = np.random.default_rng(24)
        xp = rng.uniform(-1, 1, size=(2000, 2))
        xq = rng.uniform(-0.2, 0.2, size=(2000, 2))
        precision, recall = knn_support_metrics(xp, xq, k=3)
        assert precision > 0.95
        assert recall < 0.5

    def test_k_validation(self):
        x = np.zeros((5, 1))
        with pytest.raises(ParameterError):
            knn_support_metrics(x, x, k=0)
        with pytest.raises(ParameterError):
            knn_support_metrics(x, x, k=5)


def test_zero_width_samples_rejected():
    x = np.zeros((10, 0))
    with pytest.raises(ParameterError):
        knn_support_metrics(x, x, k=3)
    with pytest.raises(ParameterError):
        quantize(x, x, k=2)


# Reference implementations: the explicit difference forms the blocked
# squared-distance kernel replaced. Labels, centers and coverage must match
# them exactly.

def lloyd_reference(samples, centers, max_iter=300, tol=1e-6):
    prev_inertia = np.inf
    for _ in range(max_iter):
        d2 = ((samples[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(samples.shape[0]), labels].sum())
        for j in range(centers.shape[0]):
            members = samples[labels == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
        if prev_inertia < np.inf and prev_inertia > 0:
            if abs(prev_inertia - inertia) / prev_inertia < tol:
                break
        prev_inertia = inertia
    return centers, labels


def assign_reference(samples, centers):
    return np.argmin(((samples[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)


# The nearest-center kernel and Lloyd loop that the center-major kernel
# replaced, frozen: row-major product blocks, argmin over each row, and the
# tie band recomputed on every call. _lloyd must reproduce their centers,
# labels and iteration counts bit for bit.

def _frozen_sqdist(x, c):
    d2 = x @ c.T
    d2 *= -2.0
    d2 += (x * x).sum(axis=1)[:, None]
    d2 += (c * c).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _frozen_nearest(x, c):
    d2 = _frozen_sqdist(x, c)
    labels = d2.argmin(axis=1)
    best = d2[np.arange(x.shape[0]), labels]
    band = 1e-9 * float((x * x).sum(axis=1).max() + (c * c).sum(axis=1).max())
    close = d2 <= (best + band)[:, None]
    if np.count_nonzero(close) > x.shape[0]:
        for i in np.flatnonzero(np.count_nonzero(close, axis=1) > 1):
            labels[i] = ((x[i] - c) ** 2).sum(axis=1).argmin()
    return labels, best


def frozen_lloyd(samples, centers, tol=1e-6):
    """Returns the centers, the labels, the number of iterations, whether
    the inertia rule stopped them, and the product-form inertia of each."""
    k = centers.shape[0]
    columns = np.ascontiguousarray(samples.T)
    prev_inertia = np.inf
    inertias = []
    for iterations in range(1, 301):
        labels, best = _frozen_nearest(samples, centers)
        inertia = float(best.sum())
        inertias.append(inertia)
        counts = np.bincount(labels, minlength=k)
        sums = np.column_stack([np.bincount(labels, weights=col, minlength=k) for col in columns])
        live = counts > 0
        centers[live] = sums[live] / counts[live, None]
        if prev_inertia < np.inf and prev_inertia > 0:
            if abs(prev_inertia - inertia) / prev_inertia < tol:
                return centers, labels, iterations, True, inertias
        prev_inertia = inertia
    return centers, labels, iterations, False, inertias


def frozen_kmeans_pp_init(samples, k, rng):
    """_kmeans_pp_init before it read the samples as columns: row-wise sums."""
    n = samples.shape[0]
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    d2 = ((samples - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = samples[rng.integers(n)]
        else:
            centers[j] = samples[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((samples - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans_pp_init(pooled, k):
    return estimation._kmeans_pp_init(np.ascontiguousarray(pooled.T), k, np.random.default_rng(3))


def lloyd(pooled, init):
    """_lloyd on a copy of the initial centers."""
    return estimation._lloyd(pooled, np.ascontiguousarray(pooled.T), init.copy())


def assert_lloyd_matches_frozen(pooled, k, tol=1e-6):
    # the iteration count is the one _lloyd returns: its bounded passes are
    # not one full pass per iteration, so counting passes would not give it
    init = kmeans_pp_init(pooled, k)
    centers, labels, iterations, converged = lloyd(pooled, init)
    want_centers, want_labels, want_iterations, want_converged, _ = frozen_lloyd(pooled, init.copy(), tol)
    assert np.array_equal(centers, want_centers)
    assert np.array_equal(labels, want_labels)
    assert (iterations, converged) == (want_iterations, want_converged)


def fraction_covered(anchors, queries, k):
    """Coverage through the k-d trees or product blocks knn_support_metrics uses."""
    radii = estimation._knn_radii(anchors, k, estimation._kd_tree(anchors))
    return estimation._fraction_covered(anchors, radii, queries, estimation._kd_tree(queries))


def fraction_covered_reference(anchors, queries, k):
    tree = cKDTree(anchors)
    radii = tree.query(anchors, k=k + 1)[0][:, -1]
    rmax = float(radii.max())
    covered = 0
    for x in queries:
        idx = tree.query_ball_point(x, rmax)
        if idx:
            d = np.sqrt(((anchors[idx] - x) ** 2).sum(axis=1))
            if np.any(d <= radii[idx]):
                covered += 1
    return covered / queries.shape[0]


def _gaussian_d64():
    rng = np.random.default_rng(41)
    return rng.normal(size=(300, 64)), 0.8 * rng.normal(size=(300, 64)) + 0.3


def _modes_d4():
    rng = np.random.default_rng(42)
    layout = 6.0 * rng.normal(size=(10, 4))
    p = layout[rng.integers(10, size=1500)] + rng.normal(size=(1500, 4))
    q = layout[rng.integers(7, size=1500)] + 0.7 * rng.normal(size=(1500, 4))
    return p, q


def _lattice_ties():
    # edge anchors of a 6x6 lattice have 3rd-neighbour radius exactly 1, and
    # the queries one step outside the edge sit exactly on that radius
    grid = np.arange(-2.0, 8.0)
    queries = np.array([(a, b) for a in grid for b in grid])
    anchors = queries[(queries >= 0).all(axis=1) & (queries <= 5).all(axis=1)]
    return anchors, queries


def _duplicated_rows():
    # every row 5 times, so the 3rd-neighbour radius is 0
    rng = np.random.default_rng(43)
    p = np.repeat(rng.normal(size=(40, 3)), 5, axis=0)
    q = np.vstack([p[::7], rng.normal(size=(60, 3))])
    return p, q


def _shared_rows():
    rng = np.random.default_rng(44)
    p = rng.normal(size=(200, 8))
    q = np.vstack([p[:80], rng.normal(size=(120, 8)) + 0.5])
    return p, q


def _identical():
    return np.full((50, 3), 0.1), np.full((40, 3), 0.1)


def _one_dimensional():
    rng = np.random.default_rng(45)
    return rng.normal(size=(300, 1)), rng.normal(size=(300, 1)) * 2.0 + 0.5


def _permuted_offsets():
    # anchors in far-apart pairs (a, a + v), queries at a + v with the
    # coordinates of v permuted: each query lies on a 1-NN radius in exact
    # arithmetic, and only the summation order decides whether it is inside
    rng = np.random.default_rng(48)
    base = 100.0 * rng.normal(size=(30, 11))
    offsets = rng.normal(size=(30, 11))
    queries = base + np.stack([row[rng.permutation(11)] for row in offsets])
    return np.vstack([base, base + offsets]), queries


def _all_in_band():
    # at |x| ~ 1e8 the tie band (~4e7) holds every squared distance between
    # these unit-spread points, so every decision falls to the difference form
    rng = np.random.default_rng(47)
    return rng.normal(size=(150, 2)) + 1e8, rng.normal(size=(150, 2)) + 1e8


def _padded(fixture, scale=1.0, shift=0.0):
    """The fixture zero-padded to d=16, above KD_TREE_MAX_DIM, so its kNN
    radii come from distance blocks; optionally scaled and shifted."""

    def make():
        return tuple(
            np.hstack([x, np.zeros((x.shape[0], 16 - x.shape[1]))]) * scale + shift for x in fixture()
        )

    return make


EQUIVALENCE_FIXTURES = {
    "gaussian-d64": _gaussian_d64,
    "modes-d4": _modes_d4,
    "lattice-ties": _lattice_ties,
    "duplicated-rows": _duplicated_rows,
    "shared-rows": _shared_rows,
    "identical": _identical,
    "d1": _one_dimensional,
    "permuted-offsets": _permuted_offsets,
    "lattice-ties-d16": _padded(_lattice_ties),
    "duplicated-rows-d16": _padded(_duplicated_rows),
    "shared-rows-d16": _padded(_shared_rows),
    "identical-d16": _padded(_identical),
    "d1-d16": _padded(_one_dimensional),
    # |x|^2 ~ 1e9 puts the product form's rounding near 1e-6, against lattice
    # steps of 1e6 and queries exactly on the radius
    "lattice-ties-d16-scaled": _padded(_lattice_ties, scale=1e3, shift=7e3),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_FIXTURES))
class TestDistanceKernelEquivalence:
    def test_lloyd_and_assign_match_difference_form(self, name):
        p, q = EQUIVALENCE_FIXTURES[name]()
        pooled = np.vstack([p, q])
        for k in (2, 7):
            init = kmeans_pp_init(pooled, k)
            centers, labels = lloyd(pooled, init)[:2]
            want_centers, want_labels = lloyd_reference(pooled, init.copy())
            assert np.array_equal(labels, want_labels)
            if pooled.shape[1] > 1:
                assert np.array_equal(centers, want_centers)
            else:
                # at d = 1 NumPy's mean sums pairwise, bincount in sample order
                tol = pooled.shape[0] * np.finfo(float).eps * np.abs(pooled).max()
                np.testing.assert_allclose(centers, want_centers, rtol=0, atol=tol)
            model = estimation.QuantizationModel(centers=centers, k=k, seed=3)
            for x in (p, q):
                assert np.array_equal(model.assign(x), assign_reference(x, centers))

    def test_coverage_matches_ball_query(self, name):
        p, q = EQUIVALENCE_FIXTURES[name]()
        for anchors, queries in ((p, q), (q, p), (p, p)):
            for k in (1, 3):
                got = fraction_covered(anchors, queries, k)
                assert got == fraction_covered_reference(anchors, queries, k)

    def test_coverage_with_ragged_blocks(self, name, monkeypatch):
        # 997 entries split the Lloyd column blocks, the product blocks and
        # the anchor blocks of the k-d path into ragged pieces
        p, q = EQUIVALENCE_FIXTURES[name]()
        want = fraction_covered_reference(p, q, 3)
        monkeypatch.setattr(estimation, "BLOCK_ENTRIES", 997)
        for max_dim in (0, 1000):  # product blocks, then k-d candidate pairs
            monkeypatch.setattr(estimation, "KD_TREE_MAX_DIM", max_dim)
            assert fraction_covered(p, q, 3) == want
        assert_lloyd_matches_frozen(np.vstack([p, q]), 7)


# the product form's inertia is not the difference form's here, so this
# fixture is checked against the frozen kernel only
FROZEN_FIXTURES = {**EQUIVALENCE_FIXTURES, "all-in-band-d2": _all_in_band}


@pytest.mark.parametrize("name", sorted(FROZEN_FIXTURES))
def test_lloyd_matches_frozen_kernel(name):
    p, q = FROZEN_FIXTURES[name]()
    for k in (2, 7, 20):
        assert_lloyd_matches_frozen(np.vstack([p, q]), k)


def _bench_modes(d, rng):
    # shaped like the embed-modes-d4 benchmark: 10 modes, P from all, Q from 7
    layout = 6.0 * np.random.default_rng(7).normal(size=(10, d))
    p = layout[rng.integers(10, size=10_000)] + rng.normal(size=(10_000, d))
    q = layout[rng.integers(7, size=10_000)] + 0.7 * rng.normal(size=(10_000, d))
    return p, q


def _bench_gaussian(d, rng):
    # shaped like the embed-d64 benchmark
    return rng.normal(size=(2000, d)), 0.8 * rng.normal(size=(2000, d)) + 0.3


@pytest.mark.parametrize("bench", [_bench_modes, _bench_gaussian])
@pytest.mark.parametrize("seed", [1, 2])
def test_lloyd_matches_frozen_on_benchmark_shaped_inputs(bench, seed):
    p, q = bench(4 if bench is _bench_modes else 64, np.random.default_rng(seed))
    assert_lloyd_matches_frozen(np.vstack([p, q]), 20)


def _widened(x, d):
    """The rows of x over d columns: column j is column j % x.shape[1],
    scaled and shifted by j, so duplicates and shared rows stay so."""
    j = np.arange(d)
    return x[:, j % x.shape[1]] * (1.0 + j / 7.0) + j


# (x - c)^2 added column by column equals NumPy's row sum up to d = 7; from
# d = 8 the row sum is pairwise and may differ in the last bits, and these
# check that no draw of k-means++ moves on the fixtures and benchmark shapes
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64])
def test_kmeans_pp_init_matches_frozen(d):
    inputs = [np.vstack(make()) for make in EQUIVALENCE_FIXTURES.values()]
    inputs += [np.vstack(bench(d, np.random.default_rng(5))) for bench in (_bench_modes, _bench_gaussian)]
    for x in inputs:
        x = _widened(x, d)
        for k in (2, 7, 20):
            got = kmeans_pp_init(x, k)
            assert np.array_equal(got, frozen_kmeans_pp_init(x, k, np.random.default_rng(3)))


@pytest.mark.parametrize("name", ["modes-d4", "shared-rows", "d1", "lattice-ties-d16-scaled"])
def test_stop_decisions_at_the_tolerance_edge(name, monkeypatch):
    # With LLOYD_TOL at the product-form relative change of an iteration,
    # the rule goes on there; one ulp above it, the rule stops there. The
    # cluster-sum inertia of the bounded passes rounds otherwise, so these
    # decisions are kept only by falling back to full passes where its
    # error bound straddles the tolerance. Deciding from the cluster sums
    # alone stops early or late on these fixtures.
    pooled = np.vstack(EQUIVALENCE_FIXTURES[name]())
    k = 7
    inertias = frozen_lloyd(pooled, kmeans_pp_init(pooled, k))[4]
    for prev, cur in zip(inertias, inertias[1:]):
        change = abs(prev - cur) / prev
        for tol in (change, np.nextafter(change, 1.0)):
            monkeypatch.setattr(estimation, "LLOYD_TOL", tol)
            assert_lloyd_matches_frozen(pooled, k, tol)


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("name", ["modes-d4", "d1", "lattice-ties"])
def test_skipped_samples_have_one_center_in_the_band(name, offset, monkeypatch):
    # The bounds skip a sample only when a full pass would find its own
    # center alone in the tie band, so its label cannot change. At an
    # offset of 1e4 the band (~0.2 in squared distance) is near the spread,
    # and a bound gap above 0 but below the margin does not imply it.
    pooled = np.vstack(EQUIVALENCE_FIXTURES[name]()) + offset
    skipped = []
    measure = estimation._NearestCenter.__call__

    def checked(self, centers, rows=None, runner_up=False):
        if rows is not None:
            full_labels, _, second = measure(self, centers, runner_up=True)
            rest = np.setdiff1d(np.arange(self.samples.shape[0]), rows)
            skipped.append(rest.size)
            assert np.all(second[rest] > 0.0)
        return measure(self, centers, rows, runner_up)

    monkeypatch.setattr(estimation._NearestCenter, "__call__", checked)
    for k in (2, 7, 20):
        lloyd(pooled, kmeans_pp_init(pooled, k))
    assert sum(skipped) > 0


@pytest.mark.parametrize("name", sorted(FROZEN_FIXTURES))
def test_nearest_center_rows_and_lower_bounds(name):
    pooled = np.vstack(FROZEN_FIXTURES[name]())
    for k in (2, 7):
        centers = kmeans_pp_init(pooled, k)
        nearest = estimation._NearestCenter(pooled, k)
        labels, best, second = nearest(centers, runner_up=True)
        plain = nearest(centers)
        assert np.array_equal(labels, plain[0]) and np.array_equal(best, plain[1]) and plain[2] is None
        # measuring some rows gives their labels and bounds of a full pass
        rows = np.flatnonzero(np.arange(pooled.shape[0]) % 3 == 1)
        some = nearest(centers, rows, runner_up=True)
        assert np.array_equal(some[0], labels[rows])
        # the runner-up is a lower bound on every other center's squared
        # distance, to within the product form's rounding
        explicit = ((pooled[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        explicit[np.arange(pooled.shape[0]), labels] = np.inf
        slack = 1e-12 * ((pooled * pooled).sum(axis=1).max() + (centers * centers).sum(axis=1).max())
        assert np.all(second <= explicit.min(axis=1) + slack)
        assert np.all(second >= 0.0)


@pytest.mark.parametrize("name", ["gaussian-d64", "modes-d4"])
def test_coverage_equal_on_both_radius_paths(name, monkeypatch):
    p, q = EQUIVALENCE_FIXTURES[name]()
    tree_radii = cKDTree(p).query(p, k=4)[0][:, -1]
    for max_dim in (0, 1000):  # distance blocks, then the k-d tree
        monkeypatch.setattr(estimation, "KD_TREE_MAX_DIM", max_dim)
        # the k-d tree sums in a different order, so radii may differ in the last bit
        np.testing.assert_allclose(
            estimation._knn_radii(p, 3, estimation._kd_tree(p)), tree_radii, rtol=1e-15, atol=0
        )
        for anchors, queries in ((p, q), (q, p)):
            assert fraction_covered(anchors, queries, 3) == fraction_covered_reference(
                anchors, queries, 3
            )


@pytest.mark.parametrize("name", ["duplicated-rows", "duplicated-rows-d16"])
@pytest.mark.parametrize("max_dim", [0, 1000])
def test_duplicated_rows_have_radius_zero(name, max_dim, monkeypatch):
    p, _ = EQUIVALENCE_FIXTURES[name]()
    monkeypatch.setattr(estimation, "KD_TREE_MAX_DIM", max_dim)
    tree = estimation._kd_tree(p)
    for k in (1, 3, 4):  # every row has 4 copies besides itself
        assert np.all(estimation._knn_radii(p, k, tree) == 0.0)
    assert np.all(estimation._knn_radii(p, 5, tree) > 0.0)


def test_exact_duplicates_above_the_tree_dimension_measure_linear_work(monkeypatch):
    # 4000 copies of one row in d = 16: every radius is 0 and every query is
    # in the tie band. Each crowded row and each query was measured against
    # all 4000 rows in turn (32 M explicit distances per side, 6 s in all);
    # a zero radius now settles a row's copies, and the copies share one
    # ball. The explicit difference form ends in np.sqrt, so counting the
    # entries that estimation passes to it counts the distances measured.
    n = 4000
    x = np.tile(np.linspace(-1.0, 2.0, 16), (n, 1))
    want = fraction_covered_reference(x, x, 3)
    measured = []

    def counting_sqrt(a, *args, **kwargs):
        measured.append(np.size(a))
        return np.sqrt(a, *args, **kwargs)

    counting_np = types.SimpleNamespace(**{name: getattr(np, name) for name in dir(np) if not name.startswith("__")})
    counting_np.sqrt = counting_sqrt
    monkeypatch.setattr(estimation, "np", counting_np)
    assert knn_support_metrics(x, x, 3) == (want, want) == (1.0, 1.0)
    # per side: one radius per row from the block, one crowded row measured
    # against all rows, and every query against the single kept anchor
    assert 0 < sum(measured) <= 2 * 4 * n, sum(measured)


def test_block_radii_settle_near_ties_by_difference_form(monkeypatch):
    # clusters whose internal distances (~1e-6) are far below the product
    # form's rounding at |x| ~ 4e4: every cluster member sits in the tie band
    rng = np.random.default_rng(46)
    centers = 1e4 + rng.normal(size=(20, 16))
    anchors = np.repeat(centers, 10, axis=0) + 1e-6 * rng.normal(size=(200, 16))
    monkeypatch.setattr(estimation, "KD_TREE_MAX_DIM", 0)
    for k in (1, 3, 8):
        want = cKDTree(anchors).query(anchors, k=k + 1)[0][:, -1]
        np.testing.assert_allclose(estimation._knn_radii(anchors, k, None), want, rtol=1e-12, atol=0)


class TestPipeline:
    def test_identical_inputs(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(400, 2))
        report = evaluate_pipeline(x, x, PipelineConfig(k_clusters=6, grid_size=51))
        assert report.precision_loss == pytest.approx(0.0, abs=1e-12)
        assert report.recall_loss == pytest.approx(0.0, abs=1e-12)
        assert report.knn_precision == 1.0 and report.knn_recall == 1.0
        assert histograms_equal(report.histogram_p, report.histogram_q)
        assert (1.0, 1.0) in report.prd.points

    def test_shifted_inputs(self):
        rng = np.random.default_rng(32)
        xp = rng.normal(size=(1000, 2))
        xq = rng.normal(size=(1000, 2)) + np.array([1.5, 0.0])
        report = evaluate_pipeline(xp, xq, PipelineConfig(k_clusters=10, grid_size=101))
        assert report.precision_loss > 0.5
        assert report.recall_loss > 0.5
        # Gaussian endpoints agree with refitting by hand
        g_p = fit_gaussian(xp, 1e-6)
        g_q = fit_gaussian(xq, 1e-6)
        assert report.precision_loss == pytest.approx(kl_gaussian(g_q, g_p), abs=1e-12)
        assert report.recall_loss == pytest.approx(kl_gaussian(g_p, g_q), abs=1e-12)
        assert set(report.discrete_frontiers) == {"1", "inf"}
        for prec, rec in report.prd.points:
            assert 0.0 <= prec <= 1.0 and 0.0 <= rec <= 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        xp = rng.normal(size=(300, 2))
        xq = rng.normal(size=(300, 2)) * 1.3
        r1 = evaluate_pipeline(xp, xq, PipelineConfig(k_clusters=5, grid_size=51, seed=7))
        r2 = evaluate_pipeline(xp, xq, PipelineConfig(k_clusters=5, grid_size=51, seed=7))
        np.testing.assert_array_equal(r1.histogram_p.probs, r2.histogram_p.probs)
        assert r1.prd.points == r2.prd.points


# Property tests against the definitions, on inputs hypothesis draws: rows on
# a lattice of step 1/4 (so every difference and sum of squares below is
# exact, and ties are exact ties), duplicated rows, rows shared between P
# and Q, an optional offset of 1e8 (where the product form's tie band holds
# every distance), and d across the k-d tree's limit. Sizes are capped only
# to bound run time: at most 40 rows per set. The assign and kNN tests pin
# behaviour that Lloyd's bounds do not touch.

PROPERTY_DIMS = (1, 4, 12, 13, 64)


@st.composite
def sample_pairs(draw):
    d = draw(st.sampled_from(PROPERTY_DIMS))
    lattice = st.integers(-12, 12).map(lambda v: v / 4.0)
    distinct = draw(st.lists(st.lists(lattice, min_size=d, max_size=d), min_size=1, max_size=12))
    rows = np.array(distinct)
    pick = st.lists(st.integers(0, len(distinct) - 1), min_size=5, max_size=40)
    p, q = rows[draw(pick)], rows[draw(pick)]  # repeated indices duplicate rows; both sets share rows
    offset = draw(st.sampled_from([0.0, 1e8]))
    return p + offset, q + offset


def knn_reference(samples_p, samples_q, k):
    """knn_support_metrics by its definition, with every distance measured
    by the explicit difference form: O(n^2)."""

    def dist(a, b):
        return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))

    def covered(anchors, queries):
        radii = np.sort(dist(anchors, anchors), axis=1)[:, k]  # index 0 is the anchor itself
        return np.count_nonzero((dist(queries, anchors) <= radii[None, :]).any(axis=1)) / queries.shape[0]

    return covered(samples_p, samples_q), covered(samples_q, samples_p)


@given(pair=sample_pairs(), k=st.integers(2, 5), seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_assign_is_the_explicit_argmin(pair, k, seed):
    p, q = pair
    _, _, model = quantize(p, q, k, seed)
    for x in (p, q):
        # np.argmin takes the lowest index on ties
        assert np.array_equal(model.assign(x), assign_reference(x, model.centers))


@given(pair=sample_pairs(), k=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_lloyd_is_the_frozen_lloyd(pair, k):
    pooled = np.vstack(pair)
    assume(k <= pooled.shape[0])
    assert_lloyd_matches_frozen(pooled, k)


@given(pair=sample_pairs(), k=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_knn_support_metrics_by_definition(pair, k):
    p, q = pair
    assume(k < min(p.shape[0], q.shape[0]))
    assert knn_support_metrics(p, q, k) == knn_reference(p, q, k)
