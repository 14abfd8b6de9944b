import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divfrontier import (
    Alpha,
    DimensionError,
    DivergenceUndefinedError,
    GaussianParams,
    Histogram,
    bernoulli_family,
    bregman_kl,
    divergence_quadrature,
    frontier_kl,
    funk_metric,
    gaussian_family,
    gaussian_to_natural,
    kl_discrete,
    kl_endpoints,
    kl_gaussian,
    renyi_discrete,
    renyi_gaussian,
)
from divfrontier.divergences import _clip_nonneg as clip_nonneg
from divfrontier import divergences
from divfrontier.divergences import _whitened_pair, logsumexp, renyi_rows
from divfrontier.distributions import EQUALITY_TOL
from tests.conftest import conditioned_gaussian, frozen_renyi_rows, random_gaussian, random_histogram

INF = float("inf")

P_HALF = Histogram([0.5, 0.5])
Q_QUARTER = Histogram([0.25, 0.75])

histogram_pairs = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
    )
)


class TestRenyiDiscrete:
    def test_identity_any_alpha(self):
        for alpha in (Alpha.zero(), Alpha.finite(0.5), Alpha.one(), Alpha.finite(3), Alpha.infinity()):
            assert renyi_discrete(P_HALF, P_HALF, alpha) == 0.0

    def test_alpha_two(self):
        # direct summation oracle: log sum p_i^2 / q_i = log(4/3)
        oracle = np.log(sum(p * p / q for p, q in zip([0.5, 0.5], [0.25, 0.75])))
        got = renyi_discrete(P_HALF, Q_QUARTER, Alpha.finite(2))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.28768, abs=1e-5)

    def test_alpha_infinity(self):
        # max-ratio oracle
        oracle = np.log(max(0.5 / 0.25, 0.5 / 0.75))
        got = renyi_discrete(P_HALF, Q_QUARTER, Alpha.infinity())
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(np.log(2), abs=1e-12)

    def test_disjoint_support_half(self):
        assert renyi_discrete(Histogram([1, 0]), Histogram([0, 1]), Alpha.finite(0.5)) == INF

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            renyi_discrete(P_HALF, Histogram([1, 1, 1]), Alpha.one())

    def test_alpha_zero_is_support_mass(self):
        p = Histogram([0.5, 0.5, 0.0])
        q = Histogram([0.25, 0.25, 0.5])
        assert renyi_discrete(p, q, Alpha.zero()) == pytest.approx(-np.log(0.5), abs=1e-12)

    def test_support_violation_large_alpha(self):
        p = Histogram([0.5, 0.5])
        q = Histogram([1.0, 0.0])
        for alpha in (Alpha.finite(2), Alpha.one(), Alpha.infinity()):
            assert renyi_discrete(p, q, alpha) == INF

    @given(histogram_pairs)
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, pair):
        p = Histogram(np.array(pair[0]))
        q = Histogram(np.array(pair[1]))
        for alpha in (Alpha.finite(0.5), Alpha.one(), Alpha.finite(2), Alpha.infinity()):
            d = renyi_discrete(p, q, alpha)
            assert d >= 0.0
            if 0.5 * np.abs(p.probs - q.probs).sum() > 1e-6:
                assert d > 0.0
        assert renyi_discrete(p, p, Alpha.finite(2)) <= 1e-12

    @given(histogram_pairs)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_alpha(self, pair):
        p = Histogram(np.array(pair[0]))
        q = Histogram(np.array(pair[1]))
        grid = [Alpha.finite(a) for a in (0.1, 0.5, 0.9, 1.5, 2, 5, 20, 100)]
        alphas = [Alpha.zero()] + grid[:2] + [Alpha.one()] + grid[3:] + [Alpha.infinity()]
        values = [renyi_discrete(p, q, a) for a in alphas]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-10

    def test_large_alpha_no_overflow(self):
        p = random_histogram(np.random.default_rng(1), 8, floor=0.01)
        q = random_histogram(np.random.default_rng(2), 8, floor=0.01)
        d = renyi_discrete(p, q, Alpha.finite(1e4))
        assert np.isfinite(d)


class TestLimitConsistency:
    def setup_method(self):
        rng = np.random.default_rng(99)
        self.pairs = [
            (random_histogram(rng, n, floor=0.01), random_histogram(rng, n, floor=0.01))
            for n in (2, 4, 8)
        ]

    def test_near_one_matches_kl(self):
        for p, q in self.pairs:
            kl = kl_discrete(p, q)
            for a in (1 - 1e-4, 1 + 1e-4):
                assert renyi_discrete(p, q, Alpha.finite(a)) == pytest.approx(kl, abs=1e-3)

    def test_near_infinity_matches_funk(self):
        for p, q in self.pairs:
            got = renyi_discrete(p, q, Alpha.finite(1e4))
            assert got == pytest.approx(funk_metric(p, q), abs=1e-3)

    def test_near_zero_matches_support_mass(self):
        for p, q in self.pairs:
            # full-support p, so -log q(supp(p)) = 0
            assert renyi_discrete(p, q, Alpha.finite(1e-4)) == pytest.approx(0.0, abs=1e-3)


class TestKLDiscrete:
    def test_identity(self):
        assert kl_discrete(P_HALF, P_HALF) == 0.0

    def test_frozen_value(self):
        oracle = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        assert kl_discrete(P_HALF, Q_QUARTER) == pytest.approx(oracle, abs=1e-12)
        assert kl_discrete(P_HALF, Q_QUARTER) == pytest.approx(0.14384, abs=1e-5)

    def test_support_violation(self):
        assert kl_discrete(P_HALF, Histogram([1, 0])) == INF

    def test_zero_entry_convention(self):
        # 0 * log(0/q) = 0
        p = Histogram([1.0, 0.0])
        q = Histogram([0.5, 0.5])
        assert kl_discrete(p, q) == pytest.approx(np.log(2), abs=1e-12)


class TestGaussianDivergences:
    def test_identical(self):
        g = GaussianParams(np.zeros(2), np.eye(2))
        assert renyi_gaussian(g, g, Alpha.finite(0.7)) == 0.0
        assert kl_gaussian(g, g) == 0.0

    def test_renyi_half_matches_quadrature(self):
        P = GaussianParams([1.0], [[1.0]])
        Q = GaussianParams([0.0], [[1.0]])
        value, _ = divergence_quadrature(P, Q, Alpha.finite(0.5))
        assert renyi_gaussian(P, Q, Alpha.finite(0.5)) == pytest.approx(value, abs=1e-6)

    def test_non_pd_interpolation_is_undefined(self):
        P = GaussianParams([0.0], [[4.0]])
        Q = GaussianParams([0.0], [[1.0]])
        # alpha*var_Q + (1-alpha)*var_P = 2 - 4 = -2
        with pytest.raises(DivergenceUndefinedError):
            renyi_gaussian(P, Q, Alpha.finite(2))

    def test_kl_mean_shift(self):
        P = GaussianParams([1.0], [[1.0]])
        Q = GaussianParams([0.0], [[1.0]])
        assert kl_gaussian(P, Q) == pytest.approx(0.5, abs=1e-12)

    def test_kl_variance(self):
        P = GaussianParams([0.0], [[0.25]])
        Q = GaussianParams([0.0], [[1.0]])
        expected = 0.5 * (0.25 - 1 - np.log(0.25))
        assert kl_gaussian(P, Q) == pytest.approx(expected, abs=1e-12)
        assert kl_gaussian(P, Q) == pytest.approx(0.31815, abs=1e-5)

    def test_infinity_1d(self):
        narrow = GaussianParams([0.0], [[0.5]])
        wide = GaussianParams([0.2], [[1.5]])
        d = renyi_gaussian(narrow, wide, Alpha.infinity())
        xs = np.linspace(-40, 40, 400001)

        def logpdf(x, g):
            return -0.5 * (x - g.mean[0]) ** 2 / g.cov[0, 0] - 0.5 * np.log(
                2 * np.pi * g.cov[0, 0]
            )

        assert d == pytest.approx(np.max(logpdf(xs, narrow) - logpdf(xs, wide)), abs=1e-8)
        # equal variances, different means: supremum ratio diverges
        assert renyi_gaussian(
            GaussianParams([1.0], [[1.0]]), GaussianParams([0.0], [[1.0]]), Alpha.infinity()
        ) == INF
        assert renyi_gaussian(wide, narrow, Alpha.infinity()) == INF

    def test_closed_form_matches_quadrature_1d(self, rng):
        worst = 0.0
        for _ in range(50):
            mu = rng.uniform(-1, 1, 2)
            var_q = rng.uniform(0.8, 1.2)
            var_p = var_q * rng.uniform(0.5, 1.1)
            P = GaussianParams([mu[0]], [[var_p]])
            Q = GaussianParams([mu[1]], [[var_q]])
            for a in (0.3, 0.5, 2.0, 5.0):
                value, err = divergence_quadrature(P, Q, Alpha.finite(a))
                worst = max(worst, abs(renyi_gaussian(P, Q, Alpha.finite(a)) - value))
        assert worst <= 1e-6

    def test_closed_form_matches_monte_carlo_2d(self, rng):
        P = random_gaussian(rng, 2)
        Q = random_gaussian(rng, 2)
        for alpha in (Alpha.finite(0.5), Alpha.one()):
            value, err = divergence_quadrature(P, Q, alpha, mc_samples=10**6, seed=5)
            closed = renyi_gaussian(P, Q, alpha)
            assert abs(closed - value) <= 3 * err

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kl_gaussian(GaussianParams([0.0], [[1.0]]), GaussianParams(np.zeros(2), np.eye(2)))


class TestBregmanKL:
    def test_identity(self):
        fam = bernoulli_family()
        assert bregman_kl(np.array([0.3]), np.array([0.3]), fam) == 0.0

    def test_gaussian_cross_check(self):
        fam = gaussian_family(1)
        tp = gaussian_to_natural(GaussianParams([1.0], [[1.0]]))
        tq = gaussian_to_natural(GaussianParams([0.0], [[1.0]]))
        assert bregman_kl(tp.theta, tq.theta, fam) == pytest.approx(0.5, abs=1e-9)

    def test_bernoulli_cross_check(self):
        fam = bernoulli_family()
        # theta = 0 -> (0.5, 0.5); theta = log 3 -> (0.75, 0.25)
        got = bregman_kl(np.array([0.0]), np.array([np.log(3)]), fam)
        expected = kl_discrete(Histogram([0.5, 0.5]), Histogram([0.75, 0.25]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.14384, abs=1e-5)

    def test_matches_kl_gaussian_random(self, rng):
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 4))
            P = random_gaussian(rng, d)
            Q = random_gaussian(rng, d)
            fam = gaussian_family(d)
            b = bregman_kl(gaussian_to_natural(P).theta, gaussian_to_natural(Q).theta, fam)
            worst = max(worst, abs(b - kl_gaussian(P, Q)))
        assert worst <= 1e-9


class TestFunkMetric:
    def test_identity(self):
        assert funk_metric(P_HALF, P_HALF) == 0.0

    def test_frozen_value(self):
        assert funk_metric(P_HALF, Q_QUARTER) == pytest.approx(np.log(2), abs=1e-12)

    def test_equals_renyi_infinity(self, rng):
        for _ in range(20):
            p = random_histogram(rng, 5)
            q = random_histogram(rng, 5)
            assert funk_metric(p, q) == renyi_discrete(p, q, Alpha.infinity())


class TestLogSumExp:
    """The NumPy helper against scipy's logsumexp, which it replaced."""

    CASES = {
        "large": [[1000.0, 999.0, -5.0], [709.0, 710.0, 700.0]],
        "tiny": [[-1000.0, -1001.0, -1e4], [1e-300, -1e-300, 5e-324]],
        "some-neg-inf": [[-INF, 0.0, -3.0], [-INF, -INF, -745.0]],
        "all-neg-inf": [[-INF, -INF, -INF], [-INF, -INF, -INF]],
        "alpha-1e4": [[1e4 * np.log(0.3) - 9999 * np.log(0.7), 1e4 * np.log(0.7) - 9999 * np.log(0.3), -INF]] * 2,
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_scipy(self, name):
        from scipy.special import logsumexp as scipy_logsumexp

        x = np.array(self.CASES[name])
        for axis in (None, 0, 1):
            got = logsumexp(x, axis=axis)
            want = scipy_logsumexp(x, axis=axis)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)
            assert np.shape(got) == np.shape(want)

    def test_all_neg_inf_row_without_warning(self):
        with np.errstate(all="raise"):
            assert logsumexp([-INF, -INF]) == -INF
            np.testing.assert_array_equal(logsumexp([[-INF, -INF], [0.0, 0.0]], axis=1), [-INF, np.log(2)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    def test_random_terms(self, terms):
        from scipy.special import logsumexp as scipy_logsumexp

        assert logsumexp(terms) == pytest.approx(float(scipy_logsumexp(terms)), rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# renyi_rows against the implementations it replaced

def _clip_nonneg(value):
    return 0.0 if -1e-12 < value < 0.0 else value


def test_clip_nonneg_matches_the_scalar_clip():
    values = [-1.0, -1e-12, -5e-13, -5e-324, -0.0, 0.0, 5e-13, 1.0, INF, -INF, float("nan")]
    for v in values:
        got = clip_nonneg(v)
        assert type(got) is float and repr(got) == repr(_clip_nonneg(v))
        assert repr(clip_nonneg(np.float64(v))) == repr(_clip_nonneg(v))
    assert repr(clip_nonneg(np.array(values)).tolist()) == repr([_clip_nonneg(v) for v in values])


def _scalar_kl(pv, qv):
    """kl_discrete before renyi_rows, on normalized probability vectors."""
    if 0.5 * np.abs(pv - qv).sum() <= 1e-12:
        return 0.0
    mask = pv > 0
    if np.any(qv[mask] == 0):
        return INF
    return _clip_nonneg(float(np.sum(pv[mask] * (np.log(pv[mask]) - np.log(qv[mask])))))


def _scalar_renyi(pv, qv, alpha):
    """renyi_discrete before renyi_rows, except at alpha = inf: there rows
    within 1e-12 total variation get the exact max log-ratio, not 0."""
    if not alpha.is_infinity and 0.5 * np.abs(pv - qv).sum() <= 1e-12:
        return 0.0
    if alpha.is_one:
        return _scalar_kl(pv, qv)
    if alpha.is_zero:
        mass = float(qv[pv > 0].sum())
        return INF if mass <= 0 else _clip_nonneg(-float(np.log(mass)))
    psupp = pv > 0
    if alpha.is_infinity:
        if np.any(qv[psupp] == 0):
            return INF
        return _clip_nonneg(float(np.max(np.log(pv[psupp]) - np.log(qv[psupp]))))
    a = alpha.value
    if a > 1 and np.any(qv[psupp] == 0):
        return INF
    both = psupp & (qv > 0)
    if not np.any(both):
        return INF
    terms = a * np.log(pv[both]) + (1.0 - a) * np.log(qv[both])
    return _clip_nonneg(float(logsumexp(terms)) / (a - 1.0))


def _oracle_rows(R, v, alpha):
    """The oracle's former D_alpha(r || v) over full-support rows r of R."""
    log_r, log_v = np.log(R), np.log(v)[None, :]
    if alpha.is_one:
        return np.sum(R * (log_r - log_v), axis=1)
    if alpha.is_infinity:
        return np.max(log_r - log_v, axis=1)
    if alpha.is_zero:
        return np.zeros(R.shape[0])
    a = alpha.value
    return logsumexp(a * log_r + (1.0 - a) * log_v, axis=1) / (a - 1.0)


def _oracle_rows_swapped(R, v, alpha):
    """The oracle's former D_alpha(v || r) over full-support rows r of R."""
    log_r, log_v = np.log(R), np.log(v)[None, :]
    if alpha.is_one:
        return np.sum(v[None, :] * (log_v - log_r), axis=1)
    if alpha.is_infinity:
        return np.max(log_v - log_r, axis=1)
    if alpha.is_zero:
        return np.zeros(R.shape[0])
    a = alpha.value
    return logsumexp(a * log_v + (1.0 - a) * log_r, axis=1) / (a - 1.0)


ROW_ALPHAS = [Alpha.parse(a) for a in ("0", "1e-3", "0.5", "1", "2", "1e4", "inf")]


def _row_fixtures(n):
    """(p, q) histogram rows of length n: random, masses near 1e-300, zero
    bins in p, in q and in both, disjoint supports, and pairs equal within
    1e-12 total variation."""
    rng = np.random.default_rng(n)
    pairs = [(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))) for _ in range(4)]
    p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    tiny_p, tiny_q = p.copy(), q.copy()
    tiny_p[0], tiny_q[-1] = 1e-300, 1e-300
    pairs += [(tiny_p, q), (p, tiny_q), (tiny_p, tiny_q)]
    zero_p, zero_q = p.copy(), q.copy()
    zero_p[: max(1, n // 4)] = 0.0
    zero_q[-max(1, n // 4):] = 0.0
    pairs += [(zero_p, q), (p, zero_q), (zero_p, zero_q)]
    half = n // 2
    disjoint_p = np.concatenate([rng.uniform(0.1, 1, half), np.zeros(n - half)])
    disjoint_q = np.concatenate([np.zeros(half), rng.uniform(0.1, 1, n - half)])
    pairs += [(disjoint_p, disjoint_q)]
    near = p.copy()
    near[0] += 4e-13
    near[1] -= 4e-13
    pairs += [(p, near), (p, p), (zero_p, zero_p)]
    P = np.array([Histogram(a).probs for a, _ in pairs])
    Q = np.array([Histogram(b).probs for _, b in pairs])
    return P, Q


def _assert_same(got, want):
    want = np.asarray(want, dtype=float)
    assert np.array_equal(np.isinf(got), np.isinf(want)), (got, want)
    finite = ~np.isinf(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * np.abs(want[finite])), (got, want)


class TestRenyiRows:
    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("alpha", ROW_ALPHAS, ids=str)
    def test_matches_the_scalar_bodies_in_both_orders(self, n, alpha):
        P, Q = _row_fixtures(n)
        for X, Y in ((P, Q), (Q, P)):
            got = renyi_rows(X, Y, alpha)
            _assert_same(got, [_scalar_renyi(x, y, alpha) for x, y in zip(X, Y)])
            if alpha.is_one:
                _assert_same(got, [_scalar_kl(x, y) for x, y in zip(X, Y)])
            equal = 0.5 * np.abs(X - Y).sum(axis=1) <= 1e-12
            assert equal.sum() == 3
            # at alpha = inf only (p, p) and (zero_p, zero_p) are 0; (p, near) is not
            zero = np.all(X == Y, axis=1) if alpha.is_infinity else equal
            assert zero.sum() == (2 if alpha.is_infinity else 3) and np.all(got[zero] == 0.0)

    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("alpha", ROW_ALPHAS, ids=str)
    def test_one_row_broadcasts_against_many(self, n, alpha):
        P, Q = _row_fixtures(n)
        for i in range(P.shape[0]):
            _assert_same(renyi_rows(P, Q[i], alpha), renyi_rows(P, np.tile(Q[i], (P.shape[0], 1)), alpha))
            _assert_same(renyi_rows(P[i], Q, alpha), [renyi_rows(P[i], q, alpha)[0] for q in Q])

    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("alpha", ROW_ALPHAS, ids=str)
    def test_matches_the_former_oracle_rows(self, n, alpha):
        # the oracle's rows are smoothed grid points, so all have full support
        rng = np.random.default_rng(100 + n)
        R = rng.dirichlet(np.ones(n), size=50) + 1e-12
        R = R / R.sum(axis=1, keepdims=True)
        for v in (rng.dirichlet(np.ones(n)), np.full(n, 1.0 / n)):
            got, swapped = renyi_rows(R, v, alpha), renyi_rows(v, R, alpha)
            if alpha.is_zero:
                # the former rows returned an exact 0 at order 0 where the kernel
                # takes -log of a mass that sums to 1 within rounding
                assert np.all(np.abs(got) <= 1e-15) and np.all(np.abs(swapped) <= 1e-15)
                continue
            _assert_same(got, _oracle_rows(R, v, alpha))
            _assert_same(swapped, _oracle_rows_swapped(R, v, alpha))

    def test_renyi_discrete_is_one_row(self):
        P, Q = _row_fixtures(8)
        for p, q in zip(P, Q):
            hp, hq = Histogram(p), Histogram(q)
            for alpha in ROW_ALPHAS:
                assert renyi_discrete(hp, hq, alpha) == renyi_rows(hp.probs, hq.probs, alpha)[0]
            assert kl_discrete(hp, hq) == renyi_discrete(hp, hq, Alpha.one())


# ---------------------------------------------------------------------------
# the in-place renyi_rows against the kernel it replaced, byte for byte

KERNEL_VALUES = st.sampled_from([0.0, 1e-300, 5e-324, 2.5e-310]) | st.floats(1e-3, 1.0)


@st.composite
def kernel_operands(draw):
    """(x, y) histogram rows for renyi_rows: one row against many, many
    against one or many against many, each operand C- or F-order and read-only.
    Entries include zeros, 1e-300 and subnormals; supports may be disjoint,
    and rows may repeat the other operand's first row."""
    n = draw(st.integers(1, 12))
    many = draw(st.integers(2, 6))
    kx, ky = draw(st.sampled_from([(1, many), (many, 1), (many, many)]))

    def rows(k):
        a = np.array(draw(st.lists(st.lists(KERNEL_VALUES, min_size=n, max_size=n), min_size=k, max_size=k)))
        a[a.sum(axis=1) == 0.0, 0] = 1.0
        return a

    x, y = rows(kx), rows(ky)
    if draw(st.booleans()):  # disjoint supports where a row keeps some mass
        off = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        x[:, off], y[:, ~off] = 0.0, 0.0
        x[x.sum(axis=1) == 0.0, 0] = 1.0
        y[y.sum(axis=1) == 0.0, -1] = 1.0
    if draw(st.booleans()):
        y[0] = x[0]
    out = []
    for a in (x / x.sum(axis=1, keepdims=True), y / y.sum(axis=1, keepdims=True)):
        a = np.array(a, order=draw(st.sampled_from("CF")))
        a.flags.writeable = False
        out.append(a)
    return tuple(out)


class TestInPlaceKernel:
    """renyi_rows against frozen_renyi_rows, the kernel before it worked in
    place; these pin that kernel's values byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_operands())
    def test_byte_identical_to_the_former_kernel(self, operands):
        x, y = operands
        before = x.tobytes(), y.tobytes()
        for alpha in ROW_ALPHAS:
            assert renyi_rows(x, y, alpha).tobytes() == frozen_renyi_rows(x, y, alpha).tobytes(), alpha
        assert (x.tobytes(), y.tobytes()) == before

    @pytest.mark.parametrize("n", [9, 12, 40])
    def test_many_against_many_in_every_pair_of_layouts(self, n):
        # x - y of a C- and an F-order operand is C-order, so the rows are summed pairwise
        rng = np.random.default_rng(n)
        X, Y = rng.dirichlet(np.ones(n), size=50), rng.dirichlet(np.ones(n), size=50)
        Y[:5] = X[:5]
        for ox, oy in ("CC", "CF", "FC", "FF"):
            x, y = np.array(X, order=ox), np.array(Y, order=oy)
            for alpha in ROW_ALPHAS:
                assert renyi_rows(x, y, alpha).tobytes() == frozen_renyi_rows(x, y, alpha).tobytes(), (ox, oy, alpha)

    def test_histogram_probs_are_read_only_inputs(self):
        P, Q = _row_fixtures(8)
        for p, q in zip(P, Q):
            hp, hq = Histogram(p), Histogram(q)
            assert not hp.probs.flags.writeable
            for alpha in ROW_ALPHAS:
                assert renyi_rows(hp.probs, hq.probs, alpha).tobytes() == frozen_renyi_rows(hp.probs, hq.probs, alpha).tobytes()

    @pytest.mark.parametrize("n", [8, 12, 16, 40])
    def test_total_variation_at_the_tolerance_in_both_layouts(self, n):
        X, Y = _tolerance_edge_rows(n)
        sums = {order: np.array(X - Y, order=order).sum(axis=1) for order in "CF"}
        # some rows are at or under the tolerance in one summation order and over it in the other
        assert np.any((sums["C"] <= 2 * EQUALITY_TOL) != (sums["F"] <= 2 * EQUALITY_TOL))
        for order in "CF":
            x, y = np.array(X, order=order), np.array(Y, order=order)
            for alpha in ROW_ALPHAS:
                if alpha.is_infinity:
                    continue
                want = frozen_renyi_rows(x, y, alpha)
                assert renyi_rows(x, y, alpha).tobytes() == want.tobytes(), (order, alpha)
                assert renyi_rows(x, y[:1], alpha).tobytes() == frozen_renyi_rows(x, y[:1], alpha).tobytes()
                assert np.array_equal(want == 0.0, sums[order] <= 2 * EQUALITY_TOL)


def _tolerance_edge_rows(n):
    """(x, y) rows of length n whose total variation, as summed in C order
    (pairwise from 8 bins) or in F order (in sequence), is one ulp below,
    exactly at and one ulp above EQUALITY_TOL, from 16 draws.

    |x - y| is exactly the tiny entries of x: y is 0 there, and both put 0.5
    on the last bin. The second-last entry is moved a float at a time to
    each target; a draw whose sum steps over a target is skipped."""
    target_sum = 2 * EQUALITY_TOL
    targets = (np.nextafter(target_sum, 0.0), target_sum, np.nextafter(target_sum, 1.0))
    sums = [lambda d, order=order: np.array([d, d], order=order).sum(axis=1)[0] for order in "CF"]
    X, seed = [], 0
    while len(X) < 16 * len(sums) * len(targets):
        tiny = np.zeros(n)
        tiny[:-1] = np.random.default_rng(seed).uniform(0.5, 1.0, n - 1) * target_sum / (n - 1)
        seed += 1
        rows = [_with_row_sum(tiny, row_sum, target) for row_sum in sums for target in targets]
        if all(d is not None for d in rows):
            X += [d + np.eye(n)[-1] * 0.5 for d in rows]
    X = np.array(X)
    Y = np.zeros_like(X)
    Y[:, -1] = 0.5
    return X, Y


def _with_row_sum(tiny, row_sum, target):
    """tiny with its second-last entry set so that row_sum gives target, or
    None if no float there does (the sum is monotone in that entry)."""
    d = tiny.copy()
    d[-2] = 0.0
    d[-2] = target - row_sum(d)
    while row_sum(d) >= target:
        d[-2] = np.nextafter(d[-2], 0.0)
    while row_sum(d) < target:
        d[-2] = np.nextafter(d[-2], np.inf)
    return d if row_sum(d) == target else None


# ---------------------------------------------------------------------------
# Gaussian closed forms against the implementations the whitened pair
# replaced, and against 50-digit mpmath values


def _former_chol_logdet(cov):
    chol = np.linalg.cholesky(cov)
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def former_kl_gaussian(P, Q):
    """kl_gaussian before the whitened pair: a Cholesky factor of Sigma_Q
    and triangular solves for the trace and the Mahalanobis term."""
    d = P.dim
    delta = P.mean - Q.mean
    chol_q = np.linalg.cholesky(Q.cov)
    half = np.linalg.solve(chol_q, P.cov)
    trace = float(np.trace(np.linalg.solve(chol_q, half.T).T))
    maha = float(np.sum(np.linalg.solve(chol_q, delta) ** 2))
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(chol_q))))
    return _clip_nonneg(0.5 * (trace + maha - d + logdet_q - _former_chol_logdet(P.cov)))


def former_sup_log_ratio_1d(P, Q):
    """1-D D_inf before the whitened pair: the vertex of the log-ratio quadratic."""
    mu_p, var_p = float(P.mean[0]), float(P.cov[0, 0])
    mu_q, var_q = float(Q.mean[0]), float(Q.cov[0, 0])
    if var_p > var_q:
        return INF
    if var_p == var_q:
        return 0.0 if mu_p == mu_q else INF
    A = 0.5 / var_q - 0.5 / var_p
    B = mu_p / var_p - mu_q / var_q
    C = 0.5 * np.log(var_q / var_p) + 0.5 * mu_q**2 / var_q - 0.5 * mu_p**2 / var_p
    return _clip_nonneg(float(C - B * B / (4.0 * A)))


def former_renyi_gaussian(P, Q, alpha):
    """renyi_gaussian before the whitened pair: a Cholesky factor of the
    interpolated covariance and three log-determinants."""
    if alpha.is_one:
        return former_kl_gaussian(P, Q)
    if alpha.is_zero:
        return 0.0
    if alpha.is_infinity:
        if P.dim != 1:
            raise DivergenceUndefinedError("alpha=inf Gaussian divergence is only available in 1-D")
        return former_sup_log_ratio_1d(P, Q)
    a = alpha.value
    try:
        chol_a = np.linalg.cholesky(a * Q.cov + (1.0 - a) * P.cov)
    except np.linalg.LinAlgError:
        raise DivergenceUndefinedError("interpolated covariance is not positive definite") from None
    maha = float(np.sum(np.linalg.solve(chol_a, P.mean - Q.mean) ** 2))
    logdet_a = 2.0 * float(np.sum(np.log(np.diag(chol_a))))
    value = 0.5 * a * maha - (
        logdet_a - (1.0 - a) * _former_chol_logdet(P.cov) - a * _former_chol_logdet(Q.cov)
    ) / (2.0 * (a - 1.0))
    return _clip_nonneg(value)


def _mp_cholesky(A):
    """Lower Cholesky factor of a symmetric mpf matrix (lists of rows), or
    None where a pivot is not positive, i.e. A is not positive definite."""
    d = len(A)
    L = [[mpmath.mpf(0)] * d for _ in range(d)]
    for j in range(d):
        row_j = L[j][:j]
        pivot = A[j][j] - mpmath.fdot(row_j, row_j)
        if pivot <= 0:
            return None
        L[j][j] = mpmath.sqrt(pivot)
        for i in range(j + 1, d):
            L[i][j] = (A[i][j] - mpmath.fdot(L[i][:j], row_j)) / L[j][j]
    return L


def _mp_solve_lower(L, b, start=0):
    """x with L x = b, for b zero above index ``start``."""
    x = [mpmath.mpf(0)] * len(b)
    for i in range(start, len(b)):
        x[i] = (b[i] - mpmath.fdot(L[i][start:i], x[start:i])) / L[i][i]
    return x


def _mp_logdet(L):
    return 2 * mpmath.fsum(mpmath.log(L[i][i]) for i in range(len(L)))


def mp_gaussian_renyi(P, Q, alphas):
    """D_alpha(P || Q) for each order, in 50-digit arithmetic from the float
    parameters; None where the interpolated covariance is not positive
    definite. alpha = inf is for 1-D only."""
    with mpmath.workdps(50):
        d = P.dim
        cp, cq = ([[mpmath.mpf(float(v)) for v in row] for row in g.cov] for g in (P, Q))
        delta = [mpmath.mpf(float(a)) - mpmath.mpf(float(b)) for a, b in zip(P.mean, Q.mean)]
        lp, lq = _mp_cholesky(cp), _mp_cholesky(cq)
        logdet_p, logdet_q = _mp_logdet(lp), _mp_logdet(lq)
        out = []
        for alpha in alphas:
            if alpha.is_zero:
                out.append(mpmath.mpf(0))
            elif alpha.is_infinity:
                vp, vq = cp[0][0], cq[0][0]
                if vp >= vq:
                    out.append(mpmath.mpf(0) if vp == vq and delta[0] == 0 else mpmath.inf)
                else:
                    out.append(mpmath.log(vq / vp) / 2 + delta[0] ** 2 / (2 * (vq - vp)))
            elif alpha.is_one:
                # tr(Sigma_Q^-1 Sigma_P) = |L_Q^-1 L_P|_F^2, column by column
                trace = mpmath.fsum(
                    mpmath.fsum(x**2 for x in _mp_solve_lower(lq, [lp[i][k] for i in range(d)], k))
                    for k in range(d)
                )
                maha = mpmath.fsum(x**2 for x in _mp_solve_lower(lq, delta))
                out.append((trace + maha - d + logdet_q - logdet_p) / 2)
            else:
                a = mpmath.mpf(alpha.value)
                la = _mp_cholesky([[a * x + (1 - a) * y for x, y in zip(rq, rp)] for rq, rp in zip(cq, cp)])
                if la is None:
                    out.append(None)
                    continue
                maha = mpmath.fsum(x**2 for x in _mp_solve_lower(la, delta))
                out.append(a * maha / 2 - (_mp_logdet(la) - (1 - a) * logdet_p - a * logdet_q) / (2 * (a - 1)))
        return out


def mp_frontier_kl_point(P, Q, side, lam):
    """The two losses of 1-D frontier_kl at lam, in 50-digit arithmetic:
    exclusive (KL(g || P), KL(g || Q)) for g of precision lam/var_P + (1-lam)/var_Q,
    inclusive (KL(P || g), KL(Q || g)) for g with the mixture's mean and variance."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(float(P.mean[0])), mpmath.mpf(float(Q.mean[0]))
        vp, vq = mpmath.mpf(float(P.cov[0, 0])), mpmath.mpf(float(Q.cov[0, 0]))
        lam = mpmath.mpf(lam)
        mu = 1 - lam

        def kl(m1, v1, m2, v2):
            return (v1 / v2 - 1 - mpmath.log(v1 / v2) + (m1 - m2) ** 2 / v2) / 2

        if side == "exclusive":
            if lam == 0 or mu == 0:
                g = (b, vq) if lam == 0 else (a, vp)
            else:
                prec = lam / vp + mu / vq
                g = ((lam * a / vp + mu * b / vq) / prec, 1 / prec)
            return kl(*g, a, vp), kl(*g, b, vq)
        g = (lam * a + mu * b, lam * vp + mu * vq + lam * mu * (a - b) ** 2)
        return kl(a, vp, *g), kl(b, vq, *g)


def gaussian_equivalence_pair(d, kind):
    """(P, Q, cond) for one fixture: random pairs at three conditionings,
    a shared covariance, Sigma_Q a multiple of Sigma_P (on either side of
    alpha = 2's definedness edge, 1 + 2 (r - 1) > 0), one Gaussian twice,
    and 1-D variances one ulp apart."""
    rng = np.random.default_rng([d, len(kind)])
    if kind == "equal-cov":
        P = conditioned_gaussian(rng, d, 1e4)
        return P, GaussianParams(P.mean + 1.0, P.cov), 1e4
    if kind.startswith("scaled"):
        P = conditioned_gaussian(rng, d, 1e4)
        return P, GaussianParams(P.mean + 0.5, float(kind[6:]) * P.cov), 1e4
    if kind == "identical":
        P = conditioned_gaussian(rng, d, 1e4)
        return P, P, 1e4
    if kind.startswith("ulp"):
        shift = 0.0 if kind == "ulp" else 1.0
        return GaussianParams([0.0], [[0.3]]), GaussianParams([shift], [[np.nextafter(0.3, 1.0)]]), 1.0
    cond = float(kind[4:])
    return conditioned_gaussian(rng, d, cond), conditioned_gaussian(rng, d, cond), cond


GAUSSIAN_EQUIVALENCE_CASES = [(d, f"cond{c}") for d in (1, 2, 8, 64, 128) for c in ("1", "1e4", "1e8")] + [
    (2, "equal-cov"),
    (64, "equal-cov"),
    (1, "scaled0.45"),
    (8, "scaled0.45"),
    (1, "scaled0.55"),
    (8, "scaled2.2"),
    (8, "identical"),
    (64, "identical"),
    (1, "ulp"),
    (1, "ulp-shift"),
]
# 50-digit Cholesky factors take ~4 s per d = 128 fixture, so only the worst
# conditioned one runs there, and only d <= 8 runs in both directions
MPMATH_CASES = [c for c in GAUSSIAN_EQUIVALENCE_CASES if c[0] < 128 or c[1] == "cond1e8"]
GAUSSIAN_ALPHAS = [Alpha.parse(a) for a in ("1e-3", "0.5", "1", "2", "1e4", "inf", "0")]


def _outcome(fn, *args):
    """A call's result, or the type of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed: both sides must raise alike
        return type(exc)


def _within(got, want, P, Q, alpha, rtol, cond=1.0):
    """|got - want| <= tol * max(1, |want|), values near 0 being differences
    of O(1) terms. tol is rtol plus what rounding the inputs by eps moves the
    exact value: about alpha * d * eps for D_alpha, where alpha amplifies a
    change in either covariance, and eps (var_P + var_Q) / |var_Q - var_P|
    for 1-D D_inf, which divides by the variance gap. For alpha > 1 the
    former code formed alpha*Sigma_Q + (1-alpha)*Sigma_P, cancelling terms
    alpha times its size, and its inverse multiplies that rounding by up to
    the condition number ``cond``."""
    eps = np.finfo(float).eps
    if alpha.is_infinity:
        vp, vq = P.cov[0, 0], Q.cov[0, 0]
        tol = rtol + (eps * (vp + vq) / abs(vq - vp) if vp != vq else 0.0)
    else:
        a = alpha.value if alpha.is_finite else 1.0
        tol = rtol + 4 * P.dim * eps * a * (cond if a > 1 else 1.0)
    return abs(got - want) <= tol * max(1, abs(want))


class TestGaussianWhitenedEquivalence:
    @pytest.mark.parametrize("d,kind", GAUSSIAN_EQUIVALENCE_CASES)
    def test_matches_the_former_closed_forms(self, d, kind):
        P, Q, cond = gaussian_equivalence_pair(d, kind)
        rtol = 1e-12 if cond <= 1e4 else 1e-7
        for A, B in ((P, Q), (Q, P)):
            for alpha in GAUSSIAN_ALPHAS:
                got, want = _outcome(renyi_gaussian, A, B, alpha), _outcome(former_renyi_gaussian, A, B, alpha)
                if isinstance(want, type) or want == INF:
                    assert got == want, str(alpha)
                else:
                    assert _within(got, want, A, B, alpha, rtol, cond), (str(alpha), got, want)
            assert kl_gaussian(A, B) == renyi_gaussian(A, B, Alpha.one())
        # one whitening serves both directions
        for got, (A, B) in zip(kl_endpoints(P, Q), ((Q, P), (P, Q))):
            assert _within(got, former_kl_gaussian(A, B), A, B, Alpha.one(), rtol, cond)

    @pytest.mark.parametrize("d,kind", MPMATH_CASES)
    def test_matches_mpmath(self, d, kind):
        P, Q, cond = gaussian_equivalence_pair(d, kind)
        rtol = 1e-12 if cond <= 1e4 else 1e-8
        alphas = [a for a in GAUSSIAN_ALPHAS if d == 1 or not a.is_infinity]
        for A, B in ((P, Q), (Q, P)) if d <= 8 else ((P, Q),):
            for alpha, want in zip(alphas, mp_gaussian_renyi(A, B, alphas)):
                got = _outcome(renyi_gaussian, A, B, alpha)
                if want is None:
                    assert got is DivergenceUndefinedError, str(alpha)
                elif want == mpmath.inf:
                    assert got == INF, str(alpha)
                else:
                    assert _within(got, float(want), A, B, alpha, rtol), (str(alpha), got, float(want))

    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_identical_inputs_give_exact_zero(self, d):
        P = gaussian_equivalence_pair(d, "identical")[0]
        assert kl_endpoints(P, P) == (0.0, 0.0)
        for alpha in GAUSSIAN_ALPHAS:
            if d == 1 or not alpha.is_infinity:
                assert renyi_gaussian(P, P, alpha) == 0.0, str(alpha)

    @pytest.mark.parametrize("d,kind", GAUSSIAN_EQUIVALENCE_CASES)
    def test_whitened_pair_is_the_former_frontier_kl_whitening(self, d, kind):
        # frontier_kl's lambda-grid arithmetic is unchanged (it now halves
        # each term of a sum before adding, which is exact), so equal bits
        # here give the same curve points
        P, Q, _ = gaussian_equivalence_pair(d, kind)
        chol = np.linalg.cholesky(P.cov + Q.cov)
        wp, wq = (np.linalg.solve(chol, np.linalg.solve(chol, cov).T) for cov in (P.cov, Q.cov))
        u = np.linalg.eigh(0.5 * (wp + wp.T))[1]
        t, s = (np.einsum("ij,ij->j", u, w @ u) for w in (wp, wq))
        d2 = (u.T @ np.linalg.solve(chol, P.mean - Q.mean)) ** 2
        got = _whitened_pair(P, Q)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in (t, s, d2)]


# 1-D pairs for D_inf beyond the equivalence fixtures: close, moderate and
# far variances (a ratio of 1e600 overflows var_Q / var_P), both orders
INFINITY_1D_PAIRS = [
    ((0.0, 0.3), (1.0, float(np.nextafter(0.3, 1.0)))),
    ((0.0, 0.3), (0.0, float(np.nextafter(0.3, 1.0)))),
    ((0.0, 1.0), (0.3, 1.99)),
    ((0.0, 1.0), (0.3, 2.5)),
    ((-2.0, 1e-10), (0.3, 7e250)),
    ((0.0, 1e-300), (1.0, 1e300)),
    ((5.0, 1e300), (-5.0, 1.7e308)),
]


class TestGaussianInfinityRawVariances:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("pair", INFINITY_1D_PAIRS)
    def test_matches_mpmath_to_1e12(self, pair):
        # the whitened gap s - t kept ~1 digit on the close pairs: 5.0e15 for 9.007e15
        P, Q = (GaussianParams([m], [[v]]) for m, v in pair)
        for A, B in ((P, Q), (Q, P)):
            got = renyi_gaussian(A, B, Alpha.infinity())
            want = mp_gaussian_renyi(A, B, [Alpha.infinity()])[0]
            if want == 0 or want == mpmath.inf:
                assert got == want
            else:
                assert abs(got - float(want)) <= 1e-12 * float(want), (got, float(want))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("pair", INFINITY_1D_PAIRS)
    def test_kl_matches_mpmath_to_1e12(self, pair):
        # whitening underflowed t = 1e-600 and refused the 1e-300/1e300 pair as singular
        P, Q = (GaussianParams([m], [[v]]) for m, v in pair)
        endpoints = kl_endpoints(P, Q)
        for A, B, from_endpoints in ((P, Q, endpoints[1]), (Q, P, endpoints[0])):
            got = kl_gaussian(A, B)
            assert got == from_endpoints
            want = mp_gaussian_renyi(A, B, [Alpha.one()])[0]
            if float(want) == INF:
                assert got == INF
            else:
                assert abs(got - float(want)) <= 1e-12 * float(want), (got, float(want))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("pair", INFINITY_1D_PAIRS)
    def test_finite_alpha_matches_mpmath(self, pair):
        # whitening refused the 1e-300/1e300 pair as singular at every finite
        # alpha; on the other pairs this pins the whitened path's accuracy
        P, Q = (GaussianParams([m], [[v]]) for m, v in pair)
        alphas = [Alpha.parse(a) for a in ("1e-3", "0.5", "2", "1e4")]
        for A, B in ((P, Q), (Q, P)):
            for alpha, want in zip(alphas, mp_gaussian_renyi(A, B, alphas)):
                got = _outcome(renyi_gaussian, A, B, alpha)
                if want is None:
                    assert got is DivergenceUndefinedError, str(alpha)
                else:
                    assert _within(got, float(want), A, B, alpha, 1e-12), (str(alpha), got, float(want))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("pair", INFINITY_1D_PAIRS)
    @pytest.mark.parametrize("side", ["exclusive", "inclusive"])
    def test_frontier_kl_matches_mpmath(self, pair, side):
        # as above: the far pair raised, the others pin the whitened path
        P, Q = (GaussianParams([m], [[v]]) for m, v in pair)
        for A, B in ((P, Q), (Q, P)):
            curve = frontier_kl(A, B, side, 11)
            for lam, got_p, got_q in curve.points:
                for got, want in zip((got_p, got_q), mp_frontier_kl_point(A, B, side, lam)):
                    if float(want) == INF:  # beyond float range
                        assert got == INF
                    else:
                        assert abs(got - float(want)) <= 1e-12 * max(1.0, float(want)), (lam, got, float(want))

    @pytest.mark.parametrize("pair", [((0.0, 1.0), (0.3, 7.0)), ((1.0, 5.0), (-2.0, 0.01)), ((3.0, 2.0), (3.0, 1e9))])
    def test_far_forms_agree_with_the_whitened_ones(self, pair, monkeypatch):
        # the log forms for variances beyond float range of each other, used
        # here on ratios the whitened pair handles too
        P, Q = (GaussianParams([m], [[v]]) for m, v in pair)
        alphas = [Alpha.parse(a) for a in ("1e-3", "0.5", "2", "1e4")]
        want = [frontier_kl(P, Q, side, 101).points for side in ("exclusive", "inclusive")]
        want_renyi = [_outcome(renyi_gaussian, P, Q, alpha) for alpha in alphas]
        monkeypatch.setattr(divergences, "FAR_LOG_RATIO", 0.5)
        assert divergences._far_1d(P, Q) is not None
        for side, points in zip(("exclusive", "inclusive"), want):
            got = frontier_kl(P, Q, side, 101).points
            assert [g[0] for g in got] == [w[0] for w in points]
            for g, w in zip(got, points):
                assert g[1:] == pytest.approx(w[1:], rel=1e-13, abs=1e-15)
        for alpha, w in zip(alphas, want_renyi):
            got = _outcome(renyi_gaussian, P, Q, alpha)
            assert got == w if isinstance(w, type) else got == pytest.approx(w, rel=1e-13, abs=1e-15)

    def test_kl_beyond_float_range_of_each_other(self):
        P, Q = GaussianParams([0.0], [[1e-300]]), GaussianParams([1.0], [[1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kl_endpoints(P, Q) == (INF, kl_gaussian(P, Q))
            assert kl_gaussian(P, Q) == pytest.approx(690.2755278982137, rel=1e-15)

    @pytest.mark.parametrize(
        "pair", [((-1e308, 1.0), (1e308, 2.0)), ((0.0, 1e-300), (1e200, 1.0)), ((0.0, 1e-300), (1e10, 2e-300))]
    )
    def test_out_of_range_is_inf_without_warning(self, pair):
        P, Q = (GaussianParams([m], [[v]]) for m, v in pair)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert renyi_gaussian(P, Q, Alpha.infinity()) == INF


def test_whitened_pair_near_float_max():
    # Sigma_P + Sigma_Q overflowed to inf, and the pair was refused as singular
    G = GaussianParams([0.0], [[1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kl_gaussian(G, G) == 0.0 and kl_endpoints(G, G) == (0.0, 0.0)
        # KL is invariant under scaling both covariances and the offset together
        S, m = np.array([[1.7, 1.0], [1.0, 1.7]]), np.array([1e10, -1e10])
        want = kl_gaussian(GaussianParams(m * 1e-154, S), GaussianParams([0.0, 0.0], S))
        got = kl_gaussian(GaussianParams(m, 1e308 * S), GaussianParams([0.0, 0.0], 1e308 * S))
        assert got == pytest.approx(want, rel=1e-12)
