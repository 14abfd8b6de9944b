import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import divfrontier as df
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

    @pytest.mark.parametrize("bad", ["ab", [1, "x"], [[1.0], [1.0, 2.0]], object()])
    def test_rejects_what_is_not_numbers(self, bad):
        with pytest.raises(ParameterError):
            Histogram(bad)

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

    def test_normalizes_an_overflowing_total_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(Histogram([1e308, 1e308]).probs, [0.5, 0.5])

    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e6), st.floats(1e300, 1.7976931348623157e308)),
            min_size=1,
            max_size=20,
        ).filter(any)
    )
    def test_bits_match_the_sum_first_normalisation(self, xs):
        # the former constructor: always sum first, and scale by the maximum
        # only when that sum overflowed
        probs = np.array(xs, dtype=float)
        with np.errstate(over="ignore"):
            if math.isinf(probs.sum()):
                probs = probs / probs.max()
        assert Histogram(xs).probs.tobytes() == (probs / probs.sum()).tobytes()

    @pytest.mark.parametrize(
        "xs,message",
        [
            ([1.0, float("nan")], "finite"),
            ([-1.0, float("inf")], "finite"),
            ([float("-inf"), 1.0], "finite"),
            ([-1.0, 2.0], "nonnegative"),
            ([0.0, -0.0], "positive total mass"),
        ],
    )
    def test_checks_in_order(self, xs, message):
        with pytest.raises(ParameterError, match=message):
            Histogram(xs)

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

    def test_one_number(self):
        assert [Alpha.zero().value, Alpha.one().value, Alpha.infinity().value] == [0.0, 1.0, math.inf]
        assert Alpha.parse("2") == Alpha.finite(2.0) == Alpha(2.0) and Alpha.parse("oo") == Alpha.infinity()
        assert Alpha(2).kind == "finite" and isinstance(Alpha(2).value, float)
        with pytest.raises(TypeError):
            Alpha("finite", 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, -math.inf, "banana", None, "nan", "-1", "-inf"])
    def test_rejects_what_is_not_in_zero_to_infinity(self, bad):
        with pytest.raises(ParameterError):
            Alpha(bad)
        with pytest.raises(ParameterError):
            Alpha.parse(bad)

    @pytest.mark.parametrize(
        "text,expected",
        [("0", "0"), ("1", "1"), ("inf", "inf"), ("2", "2.0"), ("0.5", "0.5"), ("1e4", "10000.0"), ("1e-3", "0.001")],
    )
    def test_str_names_outputs(self, text, expected):
        # manifests and frontier_alpha<str>.csv names use this text
        assert str(Alpha.parse(text)) == expected


H = Histogram([0.5, 0.5])
G = GaussianParams([0.0], [[1.0]])
TAKES_AN_ORDER = {
    "frontier": lambda a: df.frontier(H, H, a, "exclusive", 11),
    "exclusive_curve_point": lambda a: df.exclusive_curve_point(H, H, a, 0.5),
    "inclusive_curve_point": lambda a: df.inclusive_curve_point(H, H, a, 0.5),
    "renyi_discrete": lambda a: df.renyi_discrete(H, H, a),
    "renyi_gaussian": lambda a: df.renyi_gaussian(G, G, a),
    "certify_frontier": lambda a: df.oracle.certify_frontier(
        H, H, a, "exclusive", df.frontier(H, H, Alpha(2.0), "exclusive", 11), m=4
    ),
    "realizable_pairs": lambda a: df.oracle.realizable_pairs(H, H, a, "exclusive", df.oracle.enumerate_simplex(2, 4)),
    "divergence_quadrature": lambda a: df.oracle.divergence_quadrature(G, G, a),
}


@pytest.mark.parametrize("name", sorted(TAKES_AN_ORDER))
@pytest.mark.parametrize("order", [2.0, "2", 2, None])
def test_an_order_that_is_not_an_alpha_is_refused(name, order):
    # a float gave a raw AttributeError; certify_frontier said
    # "curve was traced for alpha=2.0, not alpha=2.0"
    with pytest.raises(ParameterError, match=r"Alpha\.parse"):
        TAKES_AN_ORDER[name](order)
    TAKES_AN_ORDER[name](Alpha(2.0))


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
