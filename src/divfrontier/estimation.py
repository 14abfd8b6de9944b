"""From sample embeddings to distributions.

Implements the two practical evaluation recipes: fit Gaussians to each
sample set and read off the KL frontier/endpoints, or pool the samples,
quantize with k-means, and compare the cluster-assignment histograms. The
k-nearest-neighbour support metrics cover the alpha -> 0 limiting case.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discrete_frontier import (
    EXCLUSIVE,
    FrontierCurve,
    PRDCurve,
    frontier,
    prd_from_infinity_frontier,
)
from .distributions import Alpha, GaussianParams, Histogram
from .errors import InsufficientDataError, ParameterError
from .expfam_frontier import frontier_kl, kl_endpoints

SMOOTHING_EPS = 1e-10  # additive smoothing for quantized histograms
BLOCK_ENTRIES = 250_000  # cap on a query x anchor distance block (~2 MB of float64)
KD_TREE_MAX_DIM = 12  # kNN radii from a k-d tree up to this dimension, distance blocks above


def as_sample_matrix(samples) -> np.ndarray:
    """Validate an n x d matrix of finite embedding vectors."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ParameterError("samples must be an n x d matrix with n >= 1 and d >= 1")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("samples must be finite")
    return arr


def _sqdist(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and of c.

    One matrix product, |x|^2 - 2 x.c + |c|^2, clamped at 0. Its rounding
    error is about d * 2^-53 * (|x|^2 + |c|^2).
    """
    d2 = x @ c.T
    # in place, and in the order (|x|^2 - 2 x.c) + |c|^2
    d2 *= -2.0
    d2 += (x * x).sum(axis=1)[:, None]
    d2 += (c * c).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _tie_band(x: np.ndarray, c: np.ndarray) -> float:
    """Gap below which _sqdist's rounding could flip a comparison. It is far
    above that rounding error, so every decision outside the band is exact;
    decisions inside it are left to the explicit difference form."""
    return 1e-9 * float((x * x).sum(axis=1).max() + (c * c).sum(axis=1).max())


def _nearest(x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the nearest row of c for each row of x, and its squared distance.

    Rows whose two smallest distances lie within the tie band are settled
    by the explicit difference form, so the labels are those of an exact
    argmin: the lowest index on ties.
    """
    d2 = _sqdist(x, c)
    labels = d2.argmin(axis=1)
    best = d2[np.arange(x.shape[0]), labels]
    close = d2 <= (best + _tie_band(x, c))[:, None]
    # every row has its own minimum close; count per row only if some has more
    if np.count_nonzero(close) > x.shape[0]:
        for i in np.flatnonzero(np.count_nonzero(close, axis=1) > 1):
            labels[i] = ((x[i] - c) ** 2).sum(axis=1).argmin()
    return labels, best


@dataclass(frozen=True)
class QuantizationModel:
    """Fitted k-means centers shared by both sample sets."""

    centers: np.ndarray
    k: int
    seed: int

    def assign(self, samples) -> np.ndarray:
        return _nearest(as_sample_matrix(samples), self.centers)[0]


def fit_gaussian(samples, ridge: float = 0.0) -> GaussianParams:
    """Sample mean and covariance with ridge*I added to the covariance."""
    samples = as_sample_matrix(samples)
    n = samples.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples to fit a Gaussian, got {n}")
    if not 0 <= ridge < np.inf:
        raise ParameterError(f"ridge must be finite and nonnegative, got {ridge}")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1) + ridge * np.eye(samples.shape[1])
    try:
        return GaussianParams(mean, cov)
    except ParameterError as exc:
        raise InsufficientDataError(
            "sample covariance is not positive definite; increase ridge or add samples"
        ) from exc


def _kmeans_pp_init(samples: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def _lloyd(samples: np.ndarray, centers: np.ndarray, max_iter: int = 300, tol: float = 1e-6):
    """Lloyd iterations until the relative inertia change drops below tol."""
    k = centers.shape[0]
    columns = np.ascontiguousarray(samples.T)
    prev_inertia = np.inf
    for _ in range(max_iter):
        labels, best = _nearest(samples, centers)
        inertia = float(best.sum())
        # bincount adds each cluster's rows in sample order, as a per-cluster
        # mean over axis 0 does for d >= 2; empty clusters keep their center
        counts = np.bincount(labels, minlength=k)
        sums = np.column_stack([np.bincount(labels, weights=col, minlength=k) for col in columns])
        live = counts > 0
        centers[live] = sums[live] / counts[live, None]
        if prev_inertia < np.inf and prev_inertia > 0:
            if abs(prev_inertia - inertia) / prev_inertia < tol:
                break
        prev_inertia = inertia
    return centers, labels


def quantize(
    samples_p, samples_q, k: int, seed: int = 0
) -> tuple[Histogram, Histogram, QuantizationModel]:
    """k-means on the pooled samples, then per-set assignment histograms.

    Both histograms share the fitted bins; counts receive additive
    smoothing eps = 1e-10 before normalization so downstream divergences
    stay finite on empty bins.
    """
    samples_p = as_sample_matrix(samples_p)
    samples_q = as_sample_matrix(samples_q)
    if samples_p.shape[1] != samples_q.shape[1]:
        raise ParameterError("sample sets must share the embedding dimension")
    pooled = np.vstack([samples_p, samples_q])
    if k < 2:
        raise ParameterError("k must be >= 2")
    if k > pooled.shape[0]:
        raise ParameterError(f"k={k} exceeds combined sample count {pooled.shape[0]}")
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(pooled, k, rng)
    centers, _ = _lloyd(pooled, centers)
    model = QuantizationModel(centers=centers, k=k, seed=seed)
    hist_p = np.bincount(model.assign(samples_p), minlength=k) + SMOOTHING_EPS
    hist_q = np.bincount(model.assign(samples_q), minlength=k) + SMOOTHING_EPS
    return Histogram(hist_p), Histogram(hist_q), model


def knn_support_metrics(samples_p, samples_q, k: int = 3) -> tuple[float, float]:
    """Support-overlap precision and recall via k-NN balls.

    Precision: fraction of Q samples inside the union of balls centered at
    the P samples with radius the distance to the k-th nearest neighbour
    within P. Recall: the same with roles swapped.
    """
    samples_p = as_sample_matrix(samples_p)
    samples_q = as_sample_matrix(samples_q)
    if samples_p.shape[1] != samples_q.shape[1]:
        raise ParameterError("sample sets must share the embedding dimension")
    if k < 1:
        raise ParameterError("k must be >= 1")
    for name, s in (("P", samples_p), ("Q", samples_q)):
        if k >= s.shape[0]:
            raise ParameterError(f"k={k} must be smaller than the {name} sample count {s.shape[0]}")
    precision = _fraction_covered(samples_p, samples_q, k)
    recall = _fraction_covered(samples_q, samples_p, k)
    return precision, recall


def _knn_radii(anchors: np.ndarray, k: int) -> np.ndarray:
    """Distance from each anchor to its k-th nearest neighbour among the others.

    Each anchor is its own nearest neighbour, so this is the (k+1)-th
    smallest distance. Above KD_TREE_MAX_DIM the k+1 smallest entries of
    each blocked _sqdist row are measured again by the explicit difference
    form; a row with more than k+1 entries within the tie band of its
    (k+1)-th measures every entry in the band instead.
    """
    n, d = anchors.shape
    if d <= KD_TREE_MAX_DIM:
        from scipy.spatial import cKDTree

        return cKDTree(anchors).query(anchors, k=k + 1)[0][:, -1]
    band = _tie_band(anchors, anchors)
    rows = max(1, BLOCK_ENTRIES // n)
    radii = np.empty(n)
    for start in range(0, n, rows):
        block = anchors[start:start + rows]
        d2 = _sqdist(block, anchors)
        nearest = np.argpartition(d2, k, axis=1)[:, :k + 1]
        diff = anchors[nearest] - block[:, None, :]
        radii[start:start + rows] = np.sqrt((diff * diff).sum(axis=2).max(axis=1))
        kth = d2[np.arange(block.shape[0]), nearest[:, k]]
        crowded = np.count_nonzero(d2 <= (kth + band)[:, None], axis=1) > k + 1
        for i in np.flatnonzero(crowded):
            near = anchors[d2[i] <= kth[i] + band]
            dist = np.sqrt(((near - block[i]) ** 2).sum(axis=1))
            radii[start + i] = np.partition(dist, k)[k]
    return radii


def _fraction_covered(anchors: np.ndarray, queries: np.ndarray, k: int) -> float:
    radii = _knn_radii(anchors, k)
    # min_a |x - a|^2 - r_a^2 = |x|^2 + min_a(-2 x.a + |a|^2 - r_a^2): one product
    # of the queries, padded with ones, against the anchors lifted by that offset
    lifted = np.hstack([-2.0 * anchors, ((anchors * anchors).sum(axis=1) - radii**2)[:, None]]).T
    padded = np.hstack([queries, np.ones((queries.shape[0], 1))])
    sq_norms = (queries * queries).sum(axis=1)
    band = _tie_band(queries, anchors)
    rows = max(1, BLOCK_ENTRIES // anchors.shape[0])
    covered = 0
    for start in range(0, queries.shape[0], rows):
        stop = start + rows
        margin = (padded[start:stop] @ lifted).min(axis=1) + sq_norms[start:stop]
        # near-ties are settled by the explicit difference form
        unsure = np.abs(margin) <= band
        covered += int(np.count_nonzero(margin[~unsure] <= 0))
        for x in queries[start:stop][unsure]:
            covered += int(np.any(np.sqrt(((anchors - x) ** 2).sum(axis=1)) <= radii))
    return covered / queries.shape[0]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the full evaluation pipeline; defaults match the CLI."""

    k_clusters: int = 20
    knn_k: int = 3
    ridge: float = 1e-6
    alphas: tuple[Alpha, ...] = (Alpha.one(), Alpha.infinity())
    grid_size: int = 201
    seed: int = 0


@dataclass(frozen=True)
class PipelineReport:
    """Everything the two evaluation strategies produce for one sample pair."""

    gaussian_p: GaussianParams
    gaussian_q: GaussianParams
    precision_loss: float
    recall_loss: float
    kl_frontier: FrontierCurve
    histogram_p: Histogram
    histogram_q: Histogram
    discrete_frontiers: dict = field(default_factory=dict)  # str(alpha) -> FrontierCurve
    prd: PRDCurve | None = None
    knn_precision: float = 0.0
    knn_recall: float = 0.0


def evaluate_pipeline(samples_p, samples_q, config: PipelineConfig = PipelineConfig()) -> PipelineReport:
    """Run both evaluation strategies end to end; deterministic given the seed."""
    samples_p = as_sample_matrix(samples_p)
    samples_q = as_sample_matrix(samples_q)
    g_p = fit_gaussian(samples_p, config.ridge)
    g_q = fit_gaussian(samples_q, config.ridge)
    precision_loss, recall_loss = kl_endpoints(g_p, g_q)
    kl_curve = frontier_kl(g_p, g_q, EXCLUSIVE, config.grid_size)
    hist_p, hist_q, _ = quantize(samples_p, samples_q, config.k_clusters, config.seed)
    curves = {}
    for alpha in config.alphas:
        if alpha.is_zero:
            continue
        side = EXCLUSIVE
        curves[str(alpha)] = frontier(hist_p, hist_q, alpha, side, config.grid_size)
    inf_curve = curves.get("inf") or frontier(
        hist_p, hist_q, Alpha.infinity(), EXCLUSIVE, config.grid_size
    )
    prd = prd_from_infinity_frontier(inf_curve)
    knn_precision, knn_recall = knn_support_metrics(samples_p, samples_q, config.knn_k)
    return PipelineReport(
        gaussian_p=g_p,
        gaussian_q=g_q,
        precision_loss=precision_loss,
        recall_loss=recall_loss,
        kl_frontier=kl_curve,
        histogram_p=hist_p,
        histogram_q=hist_q,
        discrete_frontiers=curves,
        prd=prd,
        knn_precision=knn_precision,
        knn_recall=knn_recall,
    )
