from contextlib import contextmanager

import numpy as np
import pytest

from divfrontier import GaussianParams, Histogram, discrete_frontier, pareto_filter


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
