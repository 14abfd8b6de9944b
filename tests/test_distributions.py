import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from divfrontier import Alpha, GaussianParams, Histogram, ParameterError, histograms_equal
from divfrontier.errors import DimensionError


class TestHistogram:
    def test_normalizes(self):
        h = Histogram([2.0, 2.0])
        np.testing.assert_allclose(h.probs, [0.5, 0.5])

    def test_normalizes_when_total_overflows(self):
        np.testing.assert_array_equal(Histogram([1e308, 1e308]).probs, [0.5, 0.5])
        np.testing.assert_array_equal(Histogram([1.7e308, 1.7e308, 0.0]).probs, [0.5, 0.5, 0.0])

    def test_sum_within_tolerance(self):
        h = Histogram([0.3, 0.3, 0.7])
        assert abs(h.probs.sum() - 1.0) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            Histogram([0.5, -0.1, 0.6])

    def test_rejects_zero_mass(self):
        with pytest.raises(ParameterError):
            Histogram([0.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            Histogram([1.0, float("nan")])

    def test_immutable(self):
        h = Histogram([1.0, 1.0])
        with pytest.raises(ValueError):
            h.probs[0] = 0.9

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=20,
        ).filter(lambda xs: sum(xs) > 0)
    )
    def test_always_normalized(self, xs):
        h = Histogram(np.array(xs))
        assert abs(h.probs.sum() - 1.0) <= 1e-12
        assert np.all(h.probs >= 0)

    def test_equality_tolerance(self):
        p = Histogram([0.5, 0.5])
        q = Histogram([0.5 + 1e-13, 0.5 - 1e-13])
        assert histograms_equal(p, q)
        assert not histograms_equal(p, Histogram([0.6, 0.4]))


class TestAlpha:
    def test_tags_are_distinct(self):
        assert Alpha.zero().is_zero
        assert Alpha.one().is_one
        assert Alpha.infinity().is_infinity
        assert Alpha.finite(2.0).is_finite

    def test_finite_rejects_one_and_nonpositive(self):
        for bad in (1.0, 0.0, -2.0):
            with pytest.raises(ParameterError):
                Alpha.finite(bad)

    @pytest.mark.parametrize(
        "text,expected",
        [("0", "zero"), ("1", "one"), ("inf", "infinity"), ("2.5", "finite"), ("0.5", "finite")],
    )
    def test_parse(self, text, expected):
        assert Alpha.parse(text).kind == expected

    def test_parse_garbage(self):
        with pytest.raises(ParameterError):
            Alpha.parse("banana")


class TestGaussianParams:
    def test_basic(self):
        g = GaussianParams([0.0, 1.0], np.eye(2))
        assert g.dim == 2

    def test_rejects_asymmetric(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ParameterError):
            GaussianParams([0.0, 0.0], cov)

    def test_symmetrizes_within_tolerance(self):
        cov = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        g = GaussianParams([0.0, 0.0], cov)
        assert np.array_equal(g.cov, g.cov.T)

    def test_symmetrizing_keeps_the_parent_bits(self, rng):
        # 0.5 * cov + 0.5 * cov.T equals 0.5 * (cov + cov.T) outside the subnormal range
        for scale in (1e-300, 1e-3, 1.0, 1e3):
            a = rng.standard_normal((6, 6))
            cov = scale * (a @ a.T + np.eye(6))
            cov[0, 1] = np.nextafter(cov[0, 1], np.inf)
            assert np.array_equal(GaussianParams(np.zeros(6), cov).cov, 0.5 * (cov + cov.T))

    def test_covariance_near_float_max_stays_finite(self):
        # 0.5 * (cov + cov.T) would overflow these entries to inf
        cov = np.array([[1.7e308, 1e308], [1e308, 1.7e308]])
        g = GaussianParams([0.0, 0.0], cov)
        assert np.array_equal(g.cov, cov)

    def test_rejects_non_pd(self):
        with pytest.raises(ParameterError):
            GaussianParams([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionError):
            GaussianParams([0.0, 0.0], np.eye(3))
