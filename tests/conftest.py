import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from divfrontier import GaussianParams, Histogram, discrete_frontier, pareto_filter

# On a failing example the hypothesis plugin imports this module, which pulls
# in libcst, whose import warns; under filterwarnings = error that warning
# would end the run with INTERNALERROR and lose the falsifying example.
# Imported once here, that import has already happened.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def random_histogram(rng, n, floor=0.0):
    """Dirichlet draw, optionally floored away from the simplex boundary."""
    probs = rng.dirichlet(np.ones(n))
    if floor > 0:
        probs = probs + floor
    return Histogram(probs)


def random_gaussian(rng, d, mean_scale=1.0):
    mean = rng.uniform(-mean_scale, mean_scale, d)
    a = rng.uniform(-1.0, 1.0, (d, d))
    cov = a @ a.T + 0.3 * np.eye(d)
    return GaussianParams(mean, cov)


def conditioned_gaussian(rng, d, cond):
    """Normal mean; covariance eigenvalues log-spaced over [1/cond, 1] in a random basis."""
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    cov = (basis * np.geomspace(1.0, 1.0 / cond, d)) @ basis.T
    return GaussianParams(rng.standard_normal(d), 0.5 * (cov + cov.T))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pareto_filter_triples_loop(triples):
    """discrete_frontier._pareto_filter_triples as a set and a loop: the first
    triple of each Pareto-surviving (x, y) pair, in input order."""
    survivors = set(pareto_filter([(x, y) for _, x, y in triples]))
    seen = set()
    out = []
    for lam, x, y in triples:
        key = (float(x), float(y))
        if key in survivors and key not in seen:
            seen.add(key)
            out.append((float(lam), float(x), float(y)))
    return tuple(out)


@contextmanager
def rows_per_block(rows, width):
    """Set the frontier block size to ``rows`` rows of ``width`` entries, or
    leave the default for None, and restore it afterwards."""
    saved = discrete_frontier._BLOCK_ENTRIES
    discrete_frontier._BLOCK_ENTRIES = saved if rows is None else rows * width
    try:
        yield
    finally:
        discrete_frontier._BLOCK_ENTRIES = saved


def _frozen_logsumexp(x, axis=None):
    x = np.asarray(x, dtype=float)
    top = np.max(x, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - top), axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis)[()]


def frozen_renyi_rows(x, y, alpha):
    """divergences.renyi_rows before it worked in place: one temporary per
    step, and the total-variation check over every row of the broadcast x - y."""
    x, y = np.atleast_2d(x, y)
    xsupp = x > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_x, log_y = np.log(x), np.log(y)
        if alpha.is_zero:
            out = -np.log(np.where(xsupp, y, 0.0).sum(axis=1))
        elif alpha.is_one:
            out = np.where(xsupp, x * (log_x - log_y), 0.0).sum(axis=1)
        elif alpha.is_infinity:
            out = np.where(xsupp, log_x - log_y, -np.inf).max(axis=1)
        else:
            a = alpha.value
            terms = np.where(xsupp, a * log_x + (1.0 - a) * log_y, -np.inf)
            out = _frozen_logsumexp(terms, axis=1) / (a - 1.0)
    out = np.where((out > -1e-12) & (out < 0.0), 0.0, out)
    if not alpha.is_infinity:
        out[0.5 * np.abs(x - y).sum(axis=1) <= 1e-12] = 0.0
    return out
