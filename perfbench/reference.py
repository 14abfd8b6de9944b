"""Independent reference computations that the benchmark checks outputs against.

Each function restates, in vectorised NumPy, what the package computed when
the benchmark was defined: the pooled k-means recipe and the k-NN support
metric (reproduced exactly, so histograms and coverage fractions compare
with ==), Gaussian fits and KL, the closed-form discrete Renyi frontier
paths with the package's support conventions, and the Gaussian KL frontier
by simultaneous diagonalisation. None of it imports ``divfrontier``, so a
change to the package cannot move its own reference.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import logsumexp

SMOOTHING_EPS = 1e-10  # additive smoothing of quantized histograms
EQUALITY_TOL = 1e-12  # total variation below which two histograms count as equal
BLOCK_ENTRIES = 2_000_000  # distance-block size cap, keeps reference memory ~16 MB
GRID_SMOOTHING = 1e-12  # the oracle smooths grid points and endpoints by this
TOL = 1e-9  # relative (absolute below 1) tolerance of every float comparison
INF = float("inf")


# ---------------------------------------------------------------- estimation

def _sqdist(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    d2 = (x * x).sum(axis=1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0)


def _argmin_rows(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    return _sqdist(x, c).argmin(axis=1)


def quantize_counts(p: np.ndarray, q: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Cluster counts of P and Q under k-means++ and Lloyd on the pooled set.

    Same random draws, stopping rule (relative inertia change < 1e-6, at
    most 300 iterations) and center updates as the recipe; distances come
    from one matrix product instead of a broadcast difference.
    """
    x = np.vstack([p, q])
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        centers[j] = x[rng.integers(n)] if total <= 0 else x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    prev = INF
    rows = np.arange(n)
    for _ in range(300):
        dist = _sqdist(x, centers)
        labels = dist.argmin(axis=1)
        inertia = float(dist[rows, labels].sum())
        counts = np.bincount(labels, minlength=k)
        sums = np.column_stack([np.bincount(labels, weights=col, minlength=k) for col in x.T])
        live = counts > 0
        centers[live] = sums[live] / counts[live, None]
        if 0 < prev < INF and abs(prev - inertia) / prev < 1e-6:
            break
        prev = inertia
    return (
        np.bincount(_argmin_rows(p, centers), minlength=k),
        np.bincount(_argmin_rows(q, centers), minlength=k),
    )


def smoothed_histogram(counts: np.ndarray) -> np.ndarray:
    h = counts + SMOOTHING_EPS
    return h / h.sum()


def fraction_covered(anchors: np.ndarray, queries: np.ndarray, k: int) -> float:
    """Share of queries inside some anchor's ball of radius its k-th
    neighbour distance (the anchor itself excluded)."""
    radii = cKDTree(anchors).query(anchors, k=k + 1)[0][:, -1]
    # min over anchors of |x - a|^2 - r_a^2 is |x|^2 + min(-2 x.a + |a|^2 - r_a^2):
    # one matrix product against anchors augmented by that last column
    augmented = np.hstack([-2.0 * anchors, ((anchors**2).sum(axis=1) - radii**2)[:, None]])
    scale = float((anchors**2).sum(axis=1).max() + (queries**2).sum(axis=1).max())
    rows = max(1, BLOCK_ENTRIES // anchors.shape[0])
    covered = 0
    for start in range(0, queries.shape[0], rows):
        block = queries[start:start + rows]
        ones = np.ones((block.shape[0], 1))
        margin = (np.hstack([block, ones]) @ augmented.T).min(axis=1) + (block**2).sum(axis=1)
        # the product form is off by ~1e-16 * scale; settle the rare
        # near-ties with the explicit difference form the recipe uses
        unsure = np.abs(margin) <= 1e-9 * scale
        covered += int(np.count_nonzero(margin[~unsure] <= 0))
        for x in block[unsure]:
            covered += int(np.any(np.sqrt(((anchors - x) ** 2).sum(axis=1)) <= radii))
    return covered / queries.shape[0]


def fit_gaussian(samples: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (samples.shape[0] - 1) + ridge * np.eye(samples.shape[1])
    return mean, cov


def kl_gaussian(mp, cp, mq, cq) -> float:
    """KL(N(mp, cp) || N(mq, cq))."""
    d = mp.size
    inv_q = np.linalg.inv(cq)
    delta = mq - mp
    logdet_p = np.linalg.slogdet(cp)[1]
    logdet_q = np.linalg.slogdet(cq)[1]
    return 0.5 * float(np.trace(inv_q @ cp) + delta @ inv_q @ delta - d + logdet_q - logdet_p)


# ------------------------------------------------------- discrete frontiers

def ratio_domain(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    ratios = q[p > 0] / p[p > 0]
    return float(ratios.min()), float(ratios.max())


def lambda_grid(p, q, alpha: float, grid_size: int) -> np.ndarray:
    """The lambda values the closed form is sampled at."""
    if alpha != INF:
        return np.linspace(0.0, 1.0, grid_size)
    lo, hi = ratio_domain(p, q)
    if hi <= 0.0:
        return np.array([0.0])
    if lo == hi:
        return np.array([lo])
    if lo > 0.0:
        return np.geomspace(lo, hi, grid_size)
    return np.concatenate([[0.0], np.geomspace(hi * 1e-9, hi, grid_size - 1)])


def _normalize_log_rows(log_w: np.ndarray, zero: np.ndarray) -> np.ndarray:
    log_w = np.where(zero[None, :], -INF, log_w)
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def path_points(p, q, alpha: float, side: str, lams) -> np.ndarray:
    """Rows gamma(lambda) of the barycentric path (or the Funk geodesic at
    alpha = inf), normalised, one row per lambda."""
    lams = np.asarray(lams, dtype=float)
    lam = lams[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(p), np.log(q)
        if alpha == INF:
            w = np.where(lam > 0.0, np.minimum(p[None, :], q[None, :] / np.where(lam > 0, lam, 1.0)), p[None, :])
            rows = w / w.sum(axis=1, keepdims=True)
        elif alpha == 1.0 and side == "inclusive":
            w = lam * q[None, :] + (1.0 - lam) * p[None, :]
            rows = w / w.sum(axis=1, keepdims=True)
        elif alpha == 1.0:
            rows = _normalize_log_rows(lam * log_q + (1.0 - lam) * log_p, (p == 0) | (q == 0))
        elif side == "exclusive":
            e = 1.0 - alpha
            zero = ((p == 0) & (q == 0)) if alpha < 1 else ((p == 0) | (q == 0))
            log_w = np.logaddexp(np.log(lam) + e * log_q, np.log1p(-lam) + e * log_p) / e
            rows = _normalize_log_rows(log_w, zero)
        else:
            log_w = np.logaddexp(np.log(lam) + alpha * log_q, np.log1p(-lam) + alpha * log_p) / alpha
            rows = _normalize_log_rows(log_w, (p == 0) & (q == 0))
    if alpha != INF:
        rows[lams == 0.0] = p / p.sum()
        rows[lams == 1.0] = q / q.sum()
    return rows


def renyi_rows(x: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """D_alpha(x_i || y_i) row by row, with the package's conventions:
    0 for histograms within 1e-12 total variation, +inf on a support
    violation, 0 log 0 = 0, tiny negative rounding clipped to 0."""
    x, y = np.broadcast_arrays(np.atleast_2d(x), np.atleast_2d(y))
    xsupp = x > 0
    # below order 1 a zero of y on x's support does not make D infinite
    violated = np.any(xsupp & (y == 0), axis=1) & (alpha >= 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(x) - np.log(y)
        if alpha == 1.0:
            out = np.where(xsupp, x * log_ratio, 0.0).sum(axis=1)
        elif alpha == INF:
            out = np.where(xsupp, log_ratio, -INF).max(axis=1)
        else:
            both = xsupp & (y > 0)
            terms = np.where(both, alpha * np.log(x) + (1.0 - alpha) * np.log(y), -INF)
            out = logsumexp(terms, axis=1) / (alpha - 1.0)
            out[~np.any(both, axis=1)] = INF
    out[violated] = INF
    out[(out < 0.0) & (out > -1e-12)] = 0.0
    out[0.5 * np.abs(x - y).sum(axis=1) <= EQUALITY_TOL] = 0.0
    return out


def discrete_frontier_values(p, q, alpha: float, side: str, lams) -> np.ndarray:
    """(div_p, div_q) at each lambda, before Pareto filtering."""
    g = path_points(p, q, alpha, side, lams)
    pn, qn = p / p.sum(), q / q.sum()
    if side == "exclusive":
        return np.column_stack([renyi_rows(g, pn, alpha), renyi_rows(g, qn, alpha)])
    return np.column_stack([renyi_rows(pn, g, alpha), renyi_rows(qn, g, alpha)])


# ---------------------------------------------------------- Gaussian frontier

def gaussian_kl_frontier_values(mp, cp, mq, cq, side: str, lams) -> np.ndarray:
    """(div_p, div_q) along the Gaussian KL path, lambda = 1 at P.

    One whitening by Sigma_Q and one eigendecomposition put both endpoints
    in a basis where they are diagonal; every path point is then a sum of
    d scalar terms (plus a rank-one term on the inclusive side).
    """
    chol = np.linalg.cholesky(cq)
    whitened = np.linalg.solve(chol, np.linalg.solve(chol, cp).T)
    sig, u = np.linalg.eigh(0.5 * (whitened + whitened.T))
    a = u.T @ np.linalg.solve(chol, mp)
    b = u.T @ np.linalg.solve(chol, mq)
    lam = np.asarray(lams, dtype=float)[:, None]
    d = sig.size
    if side == "exclusive":
        prec = lam / sig + (1.0 - lam)
        var = 1.0 / prec
        mean = (lam * a / sig + (1.0 - lam) * b) / prec
        div_p = 0.5 * (var / sig + (mean - a) ** 2 / sig - 1.0 + np.log(sig * prec)).sum(axis=1)
        div_q = 0.5 * (var + (mean - b) ** 2 - 1.0 + np.log(prec)).sum(axis=1)
        return np.column_stack([div_p, div_q])
    diag = lam * sig + (1.0 - lam)
    c = (lam * (1.0 - lam))[:, 0]
    du = a - b
    s0 = (du**2 / diag).sum(axis=1)
    k = 1.0 + c * s0
    logdet = np.log(diag).sum(axis=1) + np.log(k)
    w2 = du**2 / diag**2
    l1 = lam[:, 0]
    div_p = 0.5 * (
        (sig / diag).sum(axis=1) - c * (sig * w2).sum(axis=1) / k
        + (1.0 - l1) ** 2 * s0 / k - d + logdet - np.log(sig).sum()
    )
    div_q = 0.5 * ((1.0 / diag).sum(axis=1) - c * w2.sum(axis=1) / k + l1**2 * s0 / k - d + logdet)
    return np.column_stack([div_p, div_q])


# -------------------------------------------------------------------- oracle

def simplex_grid(n: int, m: int) -> np.ndarray:
    """Every histogram with entries i/m on the (n-1)-simplex, one per row."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n - 1):
        free = m - rows.sum(axis=1) + 1  # choices for the next entry
        nxt = np.arange(free.sum()) - np.repeat(np.cumsum(free) - free, free)
        rows = np.column_stack([np.repeat(rows, free, axis=0), nxt])
    return np.column_stack([rows, m - rows.sum(axis=1)]) / m


def _smoothed(rows: np.ndarray) -> np.ndarray:
    rows = rows + GRID_SMOOTHING
    return rows / rows.sum(axis=-1, keepdims=True)


def grid_front(p, q, alpha: float, side: str, m: int) -> np.ndarray:
    """Pareto front of (div_p, div_q) over the smoothed m-grid, as the oracle
    defines it; every grid point is weakly dominated by a point of it."""
    r = _smoothed(simplex_grid(p.size, m))
    pv, qv = _smoothed(p / p.sum()), _smoothed(q / q.sum())
    if side == "exclusive":
        pairs = np.column_stack([renyi_rows(r, pv, alpha), renyi_rows(r, qv, alpha)])
    else:
        pairs = np.column_stack([renyi_rows(pv, r, alpha), renyi_rows(qv, r, alpha)])
    return pareto_min(pairs)


def certify_numbers(curve_xy, front: np.ndarray) -> tuple[float, float]:
    """(largest margin by which a front point beats a finite curve point in
    both coordinates, at least 0; L-inf Hausdorff distance between them)."""
    xy = np.asarray(curve_xy, dtype=float).reshape(-1, 2)
    xy = xy[np.isfinite(xy).all(axis=1)]
    if xy.shape[0] == 0:
        return 0.0, INF
    margins = np.minimum(xy[:, None, 0] - front[None, :, 0], xy[:, None, 1] - front[None, :, 1])
    return max(0.0, float(margins.max())), hausdorff_linf(xy, front)


# ------------------------------------------------------------- comparisons

def close(a, b) -> np.ndarray:
    """Elementwise |a - b| <= TOL * max(1, |b|); infinities must agree."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        near = np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b))
    return both_inf | near


def pareto_min(xy: np.ndarray) -> np.ndarray:
    """Rows of xy not strictly dominated in both coordinates."""
    s = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
    # min y over all earlier rows, read at the first row of each equal-x run
    best = np.minimum.accumulate(np.concatenate([[INF], s[:-1, 1]]))
    first = np.concatenate([[True], s[1:, 0] != s[:-1, 0]])
    run_start = np.maximum.accumulate(np.where(first, np.arange(len(s)), 0))
    return s[~(s[:, 1] > best[run_start])]


def curve_mismatch(points, reference_at, ref_lams) -> str | None:
    """Why a frontier's (lambda, x, y) points differ from the reference, or None.

    Every point must lie on the reference path at its own lambda; every
    point of the reference grid's Pareto front must be matched by a point
    of the curve; no curve point may be dominated by a reference point by
    more than TOL in both coordinates.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        return "empty curve"
    expected = reference_at(pts[:, 0])
    bad = ~(close(pts[:, 1], expected[:, 0]) & close(pts[:, 2], expected[:, 1]))
    if bad.any():
        i = int(np.argmax(bad))
        return f"point at lambda={pts[i, 0]!r} is {tuple(pts[i, 1:])}, reference {tuple(expected[i])}"
    front = pareto_min(reference_at(np.asarray(ref_lams)))
    hit = close(pts[None, :, 1], front[:, None, 0]) & close(pts[None, :, 2], front[:, None, 1])
    if not hit.any(axis=1).all():
        return f"reference frontier point {tuple(front[np.argmin(hit.any(axis=1))])} missing from the curve"
    finite = front[np.isfinite(front).all(axis=1)]
    slack = TOL * np.maximum(1.0, np.abs(finite))
    beaten = ((finite[None, :, 0] + slack[None, :, 0] < pts[:, None, 1])
              & (finite[None, :, 1] + slack[None, :, 1] < pts[:, None, 2])).any(axis=1)
    if beaten.any():
        return f"curve point {tuple(pts[np.argmax(beaten), 1:])} is dominated by the reference frontier"
    return None


def hausdorff_linf(a, b) -> float:
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    d = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]), np.abs(a[:, None, 1] - b[None, :, 1]))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
