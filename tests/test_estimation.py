import types

import numpy as np
import pytest
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


def frozen_lloyd(samples, centers):
    """Returns the centers, the labels and the number of iterations."""
    k = centers.shape[0]
    columns = np.ascontiguousarray(samples.T)
    prev_inertia = np.inf
    for iterations in range(1, 301):
        labels, best = _frozen_nearest(samples, centers)
        inertia = float(best.sum())
        counts = np.bincount(labels, minlength=k)
        sums = np.column_stack([np.bincount(labels, weights=col, minlength=k) for col in columns])
        live = counts > 0
        centers[live] = sums[live] / counts[live, None]
        if prev_inertia < np.inf and prev_inertia > 0:
            if abs(prev_inertia - inertia) / prev_inertia < 1e-6:
                break
        prev_inertia = inertia
    return centers, labels, iterations


def assert_lloyd_matches_frozen(pooled, k, monkeypatch):
    calls = []

    class CountingNearest(estimation._NearestCenter):
        def __call__(self, centers):
            calls.append(1)
            return super().__call__(centers)

    monkeypatch.setattr(estimation, "_NearestCenter", CountingNearest)
    init = estimation._kmeans_pp_init(pooled, k, np.random.default_rng(3))
    centers, labels = estimation._lloyd(pooled, init.copy())
    want_centers, want_labels, want_iterations = frozen_lloyd(pooled, init.copy())
    assert np.array_equal(centers, want_centers)
    assert np.array_equal(labels, want_labels)
    assert len(calls) == want_iterations


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
            init = estimation._kmeans_pp_init(pooled, k, np.random.default_rng(3))
            centers, labels = estimation._lloyd(pooled, init.copy())
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
        assert_lloyd_matches_frozen(np.vstack([p, q]), 7, monkeypatch)


# the product form's inertia is not the difference form's here, so this
# fixture is checked against the frozen kernel only
FROZEN_FIXTURES = {**EQUIVALENCE_FIXTURES, "all-in-band-d2": _all_in_band}


@pytest.mark.parametrize("name", sorted(FROZEN_FIXTURES))
def test_lloyd_matches_frozen_kernel(name, monkeypatch):
    p, q = FROZEN_FIXTURES[name]()
    for k in (2, 7, 20):
        assert_lloyd_matches_frozen(np.vstack([p, q]), k, monkeypatch)


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
