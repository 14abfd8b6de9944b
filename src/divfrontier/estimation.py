"""From sample embeddings to distributions.

Implements the two practical evaluation recipes: fit Gaussians to each
sample set and read off the KL frontier/endpoints, or pool the samples,
quantize with k-means, and compare the cluster-assignment histograms. The
k-nearest-neighbour support metrics cover the alpha -> 0 limiting case.

Distances come in blocks of at most BLOCK_ENTRIES entries from the product
|x|^2 - 2 x.c + |c|^2, center-major for k-means, and less the row's |x|^2
(the lifted product) for kNN; decisions within its rounding fall to the
explicit difference form, so labels, radii and coverage are exact. Lloyd
measures again only the samples whose Hamerly bounds (upper on the own
center, lower on the others) come within a margin above that rounding; its
stop rule reads the inertia from the cluster sums when a proven error bound
cannot flip the decision, and from full passes when it can (see _lloyd). Up
to KD_TREE_MAX_DIM, each sample set's k-d tree gives its kNN radii and the
other set's candidate pairs, which are measured explicitly; between quarters
of the anchors, the search drops the queries already covered.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .discrete_frontier import (
    EXCLUSIVE,
    FrontierCurve,
    PRDCurve,
    _check_grid_size,
    frontier,
    prd_from_infinity_frontier,
)
from .distributions import Alpha, GaussianParams, Histogram, require_alpha, require_distinct_orders
from .errors import InsufficientDataError, ParameterError, require_integers
from .expfam_frontier import frontier_kl, kl_endpoints

SMOOTHING_EPS = 1e-10  # additive smoothing for quantized histograms
LLOYD_MAX_ITER = 300  # Lloyd stops after this many iterations,
LLOYD_TOL = 1e-6  # or once the relative inertia change drops below this
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


def _tie_band(x_sq_max, c_sq_max) -> float:
    """Gap below which a product form's rounding, about
    d * 2^-53 * (|x|^2 + |c|^2), could flip a comparison, from the largest
    squared norms of the rows of x and of c. It is far above that rounding,
    so every decision outside the band is exact; decisions inside it are
    left to the explicit difference form."""
    return 1e-9 * float(x_sq_max + c_sq_max)


class _NearestCenter:
    """Index of the nearest of k centers for each row of a fixed sample
    matrix, and its squared distance.

    |x|^2 and its maximum are computed once per sample matrix. Distances
    are laid out center-major, in (k, w) blocks of at most BLOCK_ENTRIES
    entries in one reused buffer, so the minimum over the centers runs
    along the long axis. Columns with more than one entry within the tie
    band of their minimum are settled by the explicit difference form, so
    the labels are those of an exact argmin: the lowest index on ties. The
    squared distance is the product form's minimum, clamped at 0; only it,
    and so Lloyd's inertia, sees the product's rounding.

    A call may measure only the given rows; the band is still that of the
    whole matrix. With ``runner_up`` it also returns, per row, the smallest
    squared distance outside the band, or 0 where the band holds more than
    one entry: Lloyd's lower bounds. The two smallest entries of each
    column are kept while sweeping the centers, a few vector operations per
    center.
    """

    def __init__(self, samples: np.ndarray, k: int):
        self.samples = samples
        self.sq = (samples * samples).sum(axis=1)
        self.sq_max = self.sq.max()
        self.width = min(samples.shape[0], max(1, BLOCK_ENTRIES // k))
        self.block = np.empty(k * self.width)
        # against a 0/1 column: the index of its one 1, and the number of 1s
        self.tally = np.vstack([np.arange(k), np.ones(k)])

    def __call__(self, centers: np.ndarray, rows: np.ndarray | None = None, runner_up: bool = False):
        k = centers.shape[0]
        n = self.samples.shape[0] if rows is None else rows.size
        cc = (centers * centers).sum(axis=1)
        band = _tie_band(self.sq_max, cc.max())
        cc = cc[:, None]
        labels = np.empty(n, dtype=np.intp)
        best = np.empty(n)
        second = np.empty(n) if runner_up else None
        for start in range(0, n, self.width):
            stop = min(start + self.width, n)
            at = slice(start, stop) if rows is None else rows[start:stop]
            a = self.block[:k * (stop - start)].reshape(k, -1)
            # the samples as a transposed view; with a contiguous copy BLAS
            # rounds many more entries unlike the row-major product form
            # (gathered rows round otherwise too, but give only bounds)
            np.matmul(centers, self.samples[at].T, out=a)
            a *= -2.0
            a += self.sq[at]
            a += cc
            if runner_up:  # the two smallest entries of each column, center by center
                low, low2, high = a[0].copy(), np.full(a.shape[1], np.inf), np.empty(a.shape[1])
                for row in a[1:]:
                    np.minimum(low2, np.maximum(low, row, out=high), out=low2)
                    np.minimum(low, row, out=low)
            else:
                low = a.min(axis=0)
            low = np.maximum(low, 0.0, out=best[start:stop])
            top = low + band
            if runner_up:  # the band holds one entry exactly where the second is above it
                second[start:stop] = np.where(low2 > top, low2, 0.0)
            close = np.less_equal(a, top, out=a)  # 1.0 within the band, in place
            index, count = self.tally @ close
            labels[start:stop] = index
            for j in np.flatnonzero(count > 1):
                row = start + j if rows is None else rows[start + j]
                labels[start + j] = ((self.samples[row] - centers) ** 2).sum(axis=1).argmin()
        return labels, best, second


@dataclass(frozen=True)
class QuantizationModel:
    """Fitted k-means centers shared by both sample sets."""

    centers: np.ndarray
    k: int
    seed: int

    def assign(self, samples) -> np.ndarray:
        return _NearestCenter(as_sample_matrix(samples), self.k)(self.centers)[0]


def fit_gaussian(samples, ridge: float = 0.0) -> GaussianParams:
    """Sample mean and covariance with ridge*I added to the covariance."""
    samples = as_sample_matrix(samples)
    n = samples.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples to fit a Gaussian, got {n}")
    _check_ridge(ridge)
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1) + ridge * np.eye(samples.shape[1])
    try:
        return GaussianParams(mean, cov)
    except ParameterError as exc:
        raise InsufficientDataError(
            "sample covariance is not positive definite; increase ridge or add samples"
        ) from exc


def _check_ridge(ridge) -> None:
    if not (isinstance(ridge, (int, float, np.integer, np.floating)) and 0 <= ridge < np.inf):
        raise ParameterError(f"ridge must be finite and nonnegative, got {ridge}")


def _kmeans_pp_init(columns: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding over the samples held as d x n columns.

    Each squared distance adds (x_j - c_j)^2 over the coordinates in order,
    one long vector operation per coordinate. Up to d = 7 these are the
    sums of a row-wise (x - c)^2 sum; from d = 8 NumPy sums a row pairwise,
    so they may differ from it in the last bits.
    """
    d, n = columns.shape
    centers = np.empty((k, d))

    def sqdist(c):
        d2 = (columns[0] - c[0]) ** 2
        for column, cj in zip(columns[1:], c[1:]):
            d2 += (column - cj) ** 2
        return d2

    centers[0] = columns[:, rng.integers(n)]
    d2 = sqdist(centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = columns[:, rng.integers(n)]
        else:
            centers[j] = columns[:, rng.choice(n, p=d2 / total)]
        np.minimum(d2, sqdist(centers[j]), out=d2)
    return centers


def _lloyd(samples: np.ndarray, columns: np.ndarray, centers: np.ndarray):
    """Lloyd iterations until the relative inertia change drops below LLOYD_TOL.

    Returns the centers after the last update, the labels of the last
    assignment, the number of iterations, and whether the inertia rule
    stopped them before LLOYD_MAX_ITER: all as if every iteration assigned
    every sample by a full _NearestCenter pass. The passes measure fewer
    samples, by Hamerly's bounds ("Making k-means even faster", 2010):

    - Each sample keeps an upper bound u on the distance to its own center
      and a lower bound l on the distance to every other center, set when
      it is measured (l = 0 if its band held two centers). After an
      update, u grows by its center's move and l shrinks by the largest.
    - A sample is skipped only if l - u > 2 sqrt(band) + 1e-150, the band
      being the largest tie band so far. Its squared distances then differ
      by more than the band plus twice the product's rounding, which
      _tie_band puts far below the band, so a full pass would find its
      center alone in the band. The 1e-150 covers subnormal rounding.
    - When more than half the samples are to be measured, all are.
    - After a partial pass the inertia comes from the update's cluster
      sums, sum |x|^2 - 2 c.S + n_c |c|^2, which rounds unlike the
      product-form minimum the stop rule is stated in (as in perfbench's
      reference). The rule is read from it only when every product-form
      inertia within _inertia_error of it gives the same decision, and
      otherwise from full passes at the current and previous centers.
    """
    n, d = samples.shape
    k = centers.shape[0]
    nearest = _NearestCenter(samples, k)
    labels, best, second = nearest(centers, runner_up=True)
    upper, lower = np.sqrt(best), np.sqrt(second)
    inertia, error = float(best.sum()), 0.0  # a full pass gives the product form itself
    sums = np.empty((k, d))
    band = 0.0
    assigned = previous = None
    for iterations in range(1, LLOYD_MAX_ITER + 1):
        cc = (centers * centers).sum(axis=1)
        band = max(band, _tie_band(nearest.sq_max, cc.max()))
        if iterations > 1:
            unsure = np.flatnonzero(~(lower - upper > 2.0 * np.sqrt(band) + 1e-150))
            if 2 * unsure.size > n:
                labels, best, second = nearest(centers, runner_up=True)
                upper, lower = np.sqrt(best), np.sqrt(second)
                inertia, error = float(best.sum()), 0.0
            else:
                labels[unsure], best, second = nearest(centers, unsure, runner_up=True)
                upper[unsure], lower[unsure] = np.sqrt(best), np.sqrt(second)
                inertia = None
        # bincount adds each cluster's rows in sample order, as a per-cluster
        # mean over axis 0 does for d >= 2; empty clusters keep their center
        counts = np.bincount(labels, minlength=k)
        for j, col in enumerate(columns):
            sums[:, j] = np.bincount(labels, weights=col, minlength=k)
        if inertia is None:
            sq_sums = np.bincount(labels, weights=nearest.sq, minlength=k)
            with np.errstate(over="ignore", invalid="ignore"):  # a value out of range sends the rule to full passes
                inertia = float((sq_sums - 2.0 * (centers * sums).sum(axis=1) + counts * cc).sum())
                error = _inertia_error(n, d, k, sq_sums.sum() + n * cc.max())
        previous, assigned = assigned, centers.copy()
        live = counts > 0
        centers[live] = sums[live] / counts[live, None]
        if iterations > 1:
            stop = _stop_rule(prev_inertia, prev_error, inertia, error)
            if stop is None:
                if prev_error:
                    prev_inertia = float(nearest(previous)[1].sum())
                if error:
                    inertia, error = float(nearest(assigned)[1].sum()), 0.0
                stop = _stop_rule(prev_inertia, 0.0, inertia, 0.0)
            if stop:
                return centers, labels, iterations, True
        prev_inertia, prev_error = inertia, error
        with np.errstate(over="ignore", invalid="ignore"):
            moves = np.sqrt(((centers - assigned) ** 2).sum(axis=1))
            upper += np.take(moves, labels)
            lower -= moves.max()
    return centers, labels, LLOYD_MAX_ITER, False


def _inertia_error(n: int, d: int, k: int, norms: float) -> float:
    """Bound on |I - J| between the product-form inertia I (the sum of n
    clamped row minima) and the cluster-sum inertia J, from
    norms = sum_i |x_i|^2 + n max_c |c|^2 >= sum_i (|x_i|^2 + |c_(label i)|^2).

    With u = 2^-53 and gamma_m = m u / (1 - m u), to first order: a product
    entry is within 2 (d + 2) u (|x|^2 + |c|^2) of its squared distance,
    and a label settled by the explicit form moves its row minimum by at
    most twice that, so I is within 6 gamma_(n+d+2) norms of the exact
    inertia of the labels. J, through cluster sums of up to n terms,
    d-term dot products and a k-term sum, is within 9 gamma_(n+d+k+3) norms
    of it. The bound doubles the sum, and adds n d 2^-1074 to the norms
    for subnormal rounding.
    """
    eps = np.finfo(float).eps  # 2^-52
    return 16.0 * (n + d + k + 3) * eps * (norms + n * d * np.finfo(float).tiny)


def _stop_rule(prev: float, prev_error: float, inertia: float, error: float) -> bool | None:
    """Lloyd's rule, "the relative inertia change is below LLOYD_TOL", on
    product-form inertias known to within the given errors: True or False
    when every pair within them gives that answer, else None."""
    if prev_error == error == 0.0:
        return bool(0 < prev < np.inf and abs(prev - inertia) / prev < LLOYD_TOL)
    if not (np.isfinite(prev + inertia + prev_error + error) and prev > prev_error):
        return None
    gap, slack = abs(prev - inertia), prev_error + error
    # 1e-9 relative covers the rounding of these two quotients and the rule's own
    if (gap + slack) / (prev - prev_error) < LLOYD_TOL * (1 - 1e-9):
        return True
    if (gap - slack) / (prev + prev_error) > LLOYD_TOL * (1 + 1e-9):
        return False
    return None


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
    require_integers(k=k, seed=seed)
    if k < 2:
        raise ParameterError("k must be >= 2")
    _check_cluster_count(k, pooled.shape[0])
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    columns = np.ascontiguousarray(pooled.T)
    centers = _kmeans_pp_init(columns, k, np.random.default_rng(seed))
    centers = _lloyd(pooled, columns, centers)[0]
    model = QuantizationModel(centers=centers, k=k, seed=seed)
    hist_p = np.bincount(model.assign(samples_p), minlength=k) + SMOOTHING_EPS
    hist_q = np.bincount(model.assign(samples_q), minlength=k) + SMOOTHING_EPS
    return Histogram(hist_p), Histogram(hist_q), model


def _check_cluster_count(k: int, pooled: int) -> None:
    if k > pooled:
        raise ParameterError(f"k={k} exceeds combined sample count {pooled}")


def _check_neighbour_count(k: int, samples_p: np.ndarray, samples_q: np.ndarray) -> None:
    for name, s in (("P", samples_p), ("Q", samples_q)):
        if k >= s.shape[0]:
            raise ParameterError(f"k={k} must be smaller than the {name} sample count {s.shape[0]}")


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
    require_integers(k=k)
    if k < 1:
        raise ParameterError("k must be >= 1")
    _check_neighbour_count(k, samples_p, samples_q)
    tree_p, tree_q = _kd_tree(samples_p), _kd_tree(samples_q)
    radii_p = _knn_radii(samples_p, k, tree_p)
    radii_q = _knn_radii(samples_q, k, tree_q)
    precision = _fraction_covered(samples_p, radii_p, samples_q, tree_q)
    recall = _fraction_covered(samples_q, radii_q, samples_p, tree_p)
    return precision, recall


def _kd_tree(samples: np.ndarray):
    """A k-d tree over the samples up to KD_TREE_MAX_DIM, None above.

    Its leaves hold up to 64 samples, against SciPy's 16. In process, on 2 x
    10 000 rows at d = 4, knn_support_metrics took 123 / 101 / 97 / 97 ms at
    leaf sizes 16 / 32 / 64 / 128 on a 10-mode mixture and 126 / 108 / 104 /
    110 ms on Gaussians; at d = 8 and 12 (n = 2000) the larger leaves won too.
    The radii are bit-identical to a leaf-16 tree's (tests compare them).
    """
    if samples.shape[1] > KD_TREE_MAX_DIM:
        return None
    from scipy.spatial import cKDTree

    return cKDTree(samples, leafsize=64)


def _knn_radii(anchors: np.ndarray, k: int, tree) -> np.ndarray:
    """Distance from each anchor to its k-th nearest neighbour among the others.

    Each anchor is its own nearest neighbour, so this is the (k+1)-th
    smallest distance, read from the anchors' k-d tree if there is one.
    Without one, the k+1 smallest entries of each lifted-product row (its
    squared distances less |x|^2) are measured again by the explicit
    difference form; a row with more than k+1 entries within the tie band of
    its (k+1)-th measures every entry in the band instead.
    """
    if tree is not None:
        return tree.query(anchors, k=k + 1)[0][:, -1]
    sq = (anchors * anchors).sum(axis=1)
    band = _tie_band(sq.max(), sq.max())
    radii = np.empty(anchors.shape[0])
    settled = np.zeros(anchors.shape[0], dtype=bool)  # exact copies of a crowded row found at radius 0
    for start, stop, lifted in _lifted_products(anchors, anchors, sq):
        block = anchors[start:stop]
        nearest = np.argpartition(lifted, k, axis=1)[:, :k + 1]
        diff = anchors[nearest] - block[:, None, :]
        radii[start:stop] = np.sqrt((diff * diff).sum(axis=2).max(axis=1))
        kth = lifted[np.arange(stop - start), nearest[:, k]]
        crowded = np.count_nonzero(lifted <= (kth + band)[:, None], axis=1) > k + 1
        for i in np.flatnonzero(crowded):
            if settled[start + i]:  # its distances are its copy's, so its radius is 0 too
                radii[start + i] = 0.0
                continue
            near = anchors[lifted[i] <= kth[i] + band]
            dist = np.sqrt(((near - block[i]) ** 2).sum(axis=1))
            radii[start + i] = np.partition(dist, k)[k]
            if radii[start + i] == 0.0:
                settled |= (anchors == block[i]).all(axis=1)
    return radii


def _fraction_covered(anchors: np.ndarray, radii: np.ndarray, queries: np.ndarray, query_tree) -> float:
    """Fraction of the queries within radii[a] of some anchor a, as the
    explicit difference form decides it.

    With a k-d tree over the queries, each block of anchors asks it for the
    queries within its radii widened by 1e-6 relative, far more than the
    tree's rounding, so no pair the explicit form passes is missed; every
    candidate pair is then measured by the explicit form. A covered query
    stays covered, so the anchors go in quarters, and before each quarter,
    once the uncovered queries fall below 4/5 of those the tree holds, the
    tree is rebuilt over them alone; the search ends when none is left. A
    block holds BLOCK_ENTRIES // (queries the tree holds) anchors, so it
    measures at most BLOCK_ENTRIES pairs or one anchor's. Without one, the
    lifted products give the sign of min_a |x - a|^2 - r_a^2, which is
    exact outside the tie band; queries inside it are measured explicitly.
    """
    # an anchor repeated more than k times has radius 0, and its copies
    # have one ball between them: only the first copy is kept
    zero = np.flatnonzero(radii == 0.0)
    if zero.size:
        later = np.setdiff1d(zero, zero[np.unique(anchors[zero], axis=0, return_index=True)[1]])
        anchors, radii = np.delete(anchors, later, axis=0), np.delete(radii, later)
    if query_tree is not None:
        covered = np.zeros(queries.shape[0], dtype=bool)
        reach = radii * (1.0 + 1e-6)
        held = np.arange(queries.shape[0])  # the queries query_tree holds
        quarters = [anchors.shape[0] * i // 4 for i in range(5)]
        for lo, hi in zip(quarters, quarters[1:]):
            left = held[~covered[held]]
            if left.size == 0:
                break
            if left.size < 0.8 * held.size:
                held, query_tree = left, _kd_tree(queries[left])
            rows = max(1, BLOCK_ENTRIES // held.size)
            for start in range(lo, hi, rows):
                stop = min(start + rows, hi)
                found = query_tree.query_ball_point(anchors[start:stop], reach[start:stop], return_sorted=False)
                counts = np.fromiter(map(len, found), np.intp, len(found))
                near = held[np.fromiter(chain.from_iterable(found), np.intp, counts.sum())]
                owner = np.repeat(np.arange(start, stop), counts)
                diff = anchors[owner]  # in place: one (pairs, d) buffer per block
                diff -= queries[near]
                diff *= diff
                covered[near[np.sqrt(diff.sum(axis=1)) <= radii[owner]]] = True
        return int(np.count_nonzero(covered)) / queries.shape[0]
    # min_a |x - a|^2 - r_a^2 is |x|^2 plus a row minimum of the lifted product
    anchor_sq = (anchors * anchors).sum(axis=1)
    sq_norms = (queries * queries).sum(axis=1)
    band = _tie_band(sq_norms.max(), anchor_sq.max())
    covered = 0
    for start, stop, lifted in _lifted_products(queries, anchors, anchor_sq - radii**2):
        margin = lifted.min(axis=1) + sq_norms[start:stop]
        unsure = np.abs(margin) <= band
        covered += int(np.count_nonzero(margin[~unsure] <= 0))
        for x in queries[start:stop][unsure]:
            covered += int(np.any(np.sqrt(((anchors - x) ** 2).sum(axis=1)) <= radii))
    return covered / queries.shape[0]


def _lifted_products(queries: np.ndarray, anchors: np.ndarray, lift: np.ndarray):
    """Blocks (start, stop, block) of whole rows of the lifted product
    lift_a - 2 x.a of the queries x and anchors a, of at most BLOCK_ENTRIES
    entries or one row: the block's queries, padded with a 1, times the anchors
    lifted to the columns [-2 a; lift_a]. With lift_a = |a|^2 - c_a, a row is
    |x - a|^2 - c_a less |x|^2, so it orders and spaces the anchors alike."""
    n, d = queries.shape
    lifted = np.hstack([-2.0 * anchors, lift[:, None]]).T
    rows = max(1, BLOCK_ENTRIES // anchors.shape[0])
    padded = np.ones((min(rows, n), d + 1))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        padded[:stop - start, :d] = queries[start:stop]
        yield start, stop, padded[:stop - start] @ lifted


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the full evaluation pipeline; defaults match the CLI."""

    k_clusters: int = 20
    knn_k: int = 3
    ridge: float = 1e-6
    alphas: tuple[Alpha, ...] = (Alpha.one(), Alpha.infinity())
    grid_size: int = 201
    seed: int = 0

    def __post_init__(self):
        require_integers(k_clusters=self.k_clusters, knn_k=self.knn_k, grid_size=self.grid_size, seed=self.seed)
        for name, least in (("k_clusters", 2), ("knn_k", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ParameterError(f"{name} must be >= {least}, got {getattr(self, name)}")
        _check_grid_size(self.grid_size)
        _check_ridge(self.ridge)
        if not isinstance(self.alphas, tuple):
            raise ParameterError(f"alphas must be a tuple of Alpha, got {self.alphas!r}")
        for alpha in self.alphas:
            require_alpha(alpha)
        require_distinct_orders(self.alphas, "config field 'alphas'")


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
    # the config checked its own fields; the sample counts are known only here
    _check_cluster_count(config.k_clusters, samples_p.shape[0] + samples_q.shape[0])
    _check_neighbour_count(config.knn_k, samples_p, samples_q)
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
