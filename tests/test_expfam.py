import tracemalloc

import numpy as np
import pytest

from divfrontier import (
    EXCLUSIVE,
    INCLUSIVE,
    Alpha,
    GaussianParams,
    MomentParams,
    NaturalParams,
    ParameterError,
    bernoulli_family,
    bregman_kl,
    expfam_curve_point,
    fit_gaussian,
    frontier_kl,
    gaussian_family,
    gaussian_to_natural,
    kl_endpoints,
    kl_gaussian,
    moment_to_natural,
    natural_to_gaussian,
    natural_to_moment,
    renyi_gaussian,
)
from divfrontier.discrete_frontier import MAX_GRID_SIZE, _pareto_filter_triples
from divfrontier.divergences import _kl_axes, _whitened_pair
from tests.conftest import conditioned_gaussian, pareto_filter_triples_loop, random_gaussian, rows_per_block


def former_gaussian_maps(d):
    """The Gaussian family's gradient and inverse gradient as they were
    written before they went through GaussianParams."""

    def unpack(theta):
        theta2 = theta[d:].reshape(d, d)
        return theta[:d], 0.5 * (theta2 + theta2.T)

    def grad(theta):
        theta1, theta2 = unpack(theta)
        cov = np.linalg.inv(-2.0 * theta2)
        mean = cov @ theta1
        return np.concatenate([mean, (cov + np.outer(mean, mean)).ravel()])

    def inv_grad(eta):
        mean = eta[:d]
        cov = eta[d:].reshape(d, d) - np.outer(mean, mean)
        prec = np.linalg.inv(0.5 * (cov + cov.T))
        prec = 0.5 * (prec + prec.T)
        return np.concatenate([prec @ mean, (-0.5 * prec).ravel()])

    return grad, inv_grad


class TestParameterMaps:
    def test_standard_normal_coordinates(self):
        theta = gaussian_to_natural(GaussianParams([1.0], [[1.0]]))
        np.testing.assert_allclose(theta.theta, [1.0, -0.5], atol=1e-12)
        fam = gaussian_family(1)
        eta = natural_to_moment(theta, fam)
        # mean 1, second moment var + mean^2 = 2
        np.testing.assert_allclose(eta.eta, [1.0, 2.0], atol=1e-12)

    def test_gaussian_round_trip(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 4))
            g = random_gaussian(rng, d)
            back = natural_to_gaussian(gaussian_to_natural(g))
            np.testing.assert_allclose(back.mean, g.mean, atol=1e-9)
            np.testing.assert_allclose(back.cov, g.cov, atol=1e-9)

    def test_natural_moment_round_trip(self, rng):
        fam = gaussian_family(2)
        for _ in range(30):
            theta = gaussian_to_natural(random_gaussian(rng, 2))
            back = moment_to_natural(natural_to_moment(theta, fam), fam)
            np.testing.assert_allclose(back.theta, theta.theta, atol=1e-8)

    def test_bernoulli_round_trip(self):
        fam = bernoulli_family()
        for t in (-3.0, -0.5, 0.0, 0.7, 4.0):
            theta = NaturalParams([t])
            back = moment_to_natural(natural_to_moment(theta, fam), fam)
            np.testing.assert_allclose(back.theta, theta.theta, atol=1e-9)

    def test_bernoulli_moment_domain(self):
        fam = bernoulli_family()
        with pytest.raises(ParameterError):
            moment_to_natural(MomentParams([1.5]), fam)

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            NaturalParams([np.nan])

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("cond", [None, 1e4, 1e8])
    def test_gaussian_maps_match_the_former_closures(self, d, cond):
        # the maps now go through natural_to_gaussian and gaussian_to_natural;
        # the mean comes from the symmetrised covariance, where the former
        # gradient used the raw inverse, so it moves by about cond * eps
        grad, inv_grad = former_gaussian_maps(d)
        fam = gaussian_family(d)
        rng = np.random.default_rng([d, 0 if cond is None else int(np.log10(cond))])
        for _ in range(20):
            g = random_gaussian(rng, d) if cond is None else conditioned_gaussian(rng, d, cond)
            theta = gaussian_to_natural(g).theta
            want = grad(theta)
            got = fam.grad_log_partition(theta)
            tol = 4 * d * np.finfo(float).eps * (10.0 if cond is None else cond)
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
            assert fam.inv_grad_log_partition(want).tobytes() == inv_grad(want).tobytes()

    @pytest.mark.parametrize(
        "theta", [[0.0, 0.5], [0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0, -1.0], [0.0, 0.0, -0.5, -1.0, -1.0, -0.5]]
    )
    def test_theta_outside_the_family_raises(self, theta):
        # a precision -2 Theta2 that is indefinite or singular
        d = 1 if len(theta) == 2 else 2
        with pytest.raises(ParameterError):
            natural_to_moment(NaturalParams(theta), gaussian_family(d))
        with pytest.raises(ParameterError):
            natural_to_gaussian(NaturalParams(theta))
        with pytest.raises(ParameterError):
            gaussian_family(d).log_partition(np.asarray(theta))

    def test_bregman_kl_to_a_theta_outside_the_family_raises(self):
        # the log-partition's Cholesky factor of -2 Theta2 = [[-1]] once escaped as LinAlgError
        with pytest.raises(ParameterError):
            bregman_kl(np.array([0.0, -0.5]), np.array([0.0, 0.5]), gaussian_family(1))

    @pytest.mark.parametrize("eta", [[1.0, 0.5], [1.0, 1.0], [0.0, 0.0, 1.0, 2.0, 2.0, 1.0]])
    def test_eta_outside_the_family_raises(self, eta):
        # a covariance second moment - mean mean' that is negative, zero or indefinite
        d = 1 if len(eta) == 2 else 2
        with pytest.raises(ParameterError):
            moment_to_natural(MomentParams(eta), gaussian_family(d))


class TestCurvePoint:
    def test_endpoints(self, rng):
        fam = gaussian_family(2)
        tp = gaussian_to_natural(random_gaussian(rng, 2))
        tq = gaussian_to_natural(random_gaussian(rng, 2))
        for side in (EXCLUSIVE, INCLUSIVE):
            np.testing.assert_allclose(
                expfam_curve_point(tp, tq, side, 1.0, fam).theta, tp.theta, atol=1e-9
            )
            np.testing.assert_allclose(
                expfam_curve_point(tp, tq, side, 0.0, fam).theta, tq.theta, atol=1e-9
            )

    def test_exclusive_midpoint_interpolates_means(self):
        fam = gaussian_family(1)
        tp = gaussian_to_natural(GaussianParams([0.0], [[1.0]]))
        tq = gaussian_to_natural(GaussianParams([2.0], [[1.0]]))
        mid = natural_to_gaussian(expfam_curve_point(tp, tq, EXCLUSIVE, 0.5, fam))
        np.testing.assert_allclose(mid.mean, [1.0], atol=1e-12)
        np.testing.assert_allclose(mid.cov, [[1.0]], atol=1e-12)

    def test_inclusive_midpoint_interpolates_moments(self):
        fam = gaussian_family(1)
        tp = gaussian_to_natural(GaussianParams([0.0], [[1.0]]))
        tq = gaussian_to_natural(GaussianParams([0.0], [[4.0]]))
        mid = natural_to_gaussian(expfam_curve_point(tp, tq, INCLUSIVE, 0.5, fam))
        np.testing.assert_allclose(mid.cov, [[2.5]], atol=1e-12)

    def test_lambda_domain(self):
        fam = gaussian_family(1)
        t = gaussian_to_natural(GaussianParams([0.0], [[1.0]]))
        with pytest.raises(ParameterError):
            expfam_curve_point(t, t, EXCLUSIVE, 1.5, fam)

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    def test_scalarization_optimality(self, side, rng):
        # the path point must beat 10^4 random natural-parameter
        # perturbations on the weighted objective it is claimed to minimize
        fam = gaussian_family(1)
        tp = gaussian_to_natural(GaussianParams([0.0], [[1.0]]))
        tq = gaussian_to_natural(GaussianParams([1.5], [[0.6]]))
        lam = 0.3
        gamma = expfam_curve_point(tp, tq, side, lam, fam)

        def objective(theta):
            if side == EXCLUSIVE:
                return lam * bregman_kl(theta, tp.theta, fam) + (1 - lam) * bregman_kl(
                    theta, tq.theta, fam
                )
            return lam * bregman_kl(tp.theta, theta, fam) + (1 - lam) * bregman_kl(
                tq.theta, theta, fam
            )

        base = objective(gamma.theta)
        for _ in range(10_000):
            cand = gamma.theta + rng.normal(0, 0.2, 2)
            if cand[1] >= -1e-3:  # precision must stay positive
                continue
            assert objective(cand) >= base - 1e-10


class TestFrontierKL:
    def test_endpoints_match_closed_form(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            P = random_gaussian(rng, d)
            Q = random_gaussian(rng, d)
            curve = frontier_kl(P, Q, EXCLUSIVE, 51)
            pts = [(x, y) for _, x, y in curve.points]
            prec_loss, rec_loss = kl_endpoints(P, Q)
            assert any(abs(x - prec_loss) <= 1e-9 and y <= 1e-9 for x, y in pts)
            assert any(x <= 1e-9 and abs(y - rec_loss) <= 1e-9 for x, y in pts)

    def test_kl_endpoints_orientation(self):
        P = GaussianParams([0.0], [[1.0]])
        Q = GaussianParams([0.0], [[4.0]])
        prec_loss, rec_loss = kl_endpoints(P, Q)
        assert prec_loss == pytest.approx(kl_gaussian(Q, P), abs=1e-12)
        assert rec_loss == pytest.approx(kl_gaussian(P, Q), abs=1e-12)
        # wide Q covers P (good recall) but wastes mass (poor precision)
        assert prec_loss > rec_loss

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_identical_inputs_collapse(self, d, side, rng):
        g = random_gaussian(rng, d)
        assert frontier_kl(g, g, side, 201).points == ((0.0, 0.0, 0.0),)

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    def test_curve_is_monotone_tradeoff(self, side):
        P = GaussianParams([0.0], [[1.0]])
        Q = GaussianParams([2.0], [[2.0]])
        curve = frontier_kl(P, Q, side, 101)
        pts = [(x, y) for _, x, y in curve.points]
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        assert xs == sorted(xs, reverse=True)
        assert ys == sorted(ys)

    def test_no_dominating_gaussian_on_dense_grid(self):
        # 200 x 200 mean/variance sweep of 1-D Gaussians cannot strictly
        # dominate any exclusive frontier point
        P = GaussianParams([0.0], [[1.0]])
        Q = GaussianParams([1.0], [[0.5]])
        curve = frontier_kl(P, Q, EXCLUSIVE, 41)
        means = np.linspace(-2.0, 3.0, 200)
        variances = np.linspace(0.05, 3.0, 200)
        mu, var = np.meshgrid(means, variances)
        mu = mu.ravel()
        var = var.ravel()

        def kl_rows(mu_b, var_b):
            return 0.5 * (var / var_b + (mu - mu_b) ** 2 / var_b - 1.0 + np.log(var_b / var))

        to_p = kl_rows(0.0, 1.0)
        to_q = kl_rows(1.0, 0.5)
        for _, cx, cy in curve.points:
            dominates = (to_p < cx - 1e-9) & (to_q < cy - 1e-9)
            assert not np.any(dominates)


def frontier_kl_loop(P, Q, side, grid_size):
    """The frontier_kl the closed form replaced: one path point and two
    Bregman divergences of the packed natural parameters per lambda."""
    fam = gaussian_family(P.dim)
    tp, tq = gaussian_to_natural(P), gaussian_to_natural(Q)
    triples = []
    for lam in np.linspace(0.0, 1.0, grid_size):
        gamma = expfam_curve_point(tp, tq, side, float(lam), fam)
        if side == EXCLUSIVE:
            pair = bregman_kl(gamma.theta, tp.theta, fam), bregman_kl(gamma.theta, tq.theta, fam)
        else:
            pair = bregman_kl(tp.theta, gamma.theta, fam), bregman_kl(tq.theta, gamma.theta, fam)
        triples.append((float(lam), *pair))
    return _pareto_filter_triples(triples)


def equivalence_pair(d, kind):
    """(P, Q, rtol) for one fixture of the closed-form equivalence test."""
    rng = np.random.default_rng(EQUIVALENCE_CASES.index((d, kind)))
    if kind.startswith("ridge"):  # pipeline fits with d > n samples, as in evaluate_pipeline
        n = int(kind[5:])
        fits = [fit_gaussian(scale * rng.standard_normal((n, d)) + shift, 1e-6) for scale, shift in ((1, 0), (0.7, 0.2))]
        return (*fits, 1e-7)
    if kind == "equal-cov":
        P = conditioned_gaussian(rng, d, 1e4)
        return P, GaussianParams(P.mean + 1.0, P.cov), 1e-10
    cond = float(kind[4:])
    P, Q = conditioned_gaussian(rng, d, cond), conditioned_gaussian(rng, d, cond)
    return P, Q, 1e-10 if cond <= 1e4 else 1e-7


EQUIVALENCE_CASES = [
    (d, kind) for d in (1, 2, 8, 64, 128) for kind in ("cond1", "cond1e4", "cond1e8", "equal-cov")
] + [(40, "ridge10"), (64, "ridge5")]


def frontier_kl_one_pass(P, Q, side, grid_size):
    """frontier_kl's points before it worked in lambda blocks: one pass of
    (grid x d) arrays over the whole grid."""
    t, s, d2 = _whitened_pair(P, Q)
    if not np.isfinite(d2.sum()):
        return ((0.0, float("inf"), 0.0), (1.0, 0.0, float("inf")))
    lams = np.linspace(0.0, 1.0, grid_size)
    lam, mu = lams[:, None], 1.0 - lams[:, None]
    if side == EXCLUSIVE:
        r_p, r_q = lam + mu * (t / s), lam * (s / t) + mu
        shift = d2 / (r_p * r_q)
        m_p, m_q, log_k = mu * mu * shift / s, lam * lam * shift / t, 0.0
    else:
        var, c = lam * t + mu * s, lam * mu
        r_p, r_q = lam + mu * (s / t), lam * (t / s) + mu
        c_s0 = c * (d2 / var).sum(axis=1, keepdims=True)
        m_p, m_q = (d2 / var * (w * w - c / r) / (1.0 + c_s0) for w, r in ((mu, r_p), (lam, r_q)))
        log_k = np.log1p(c_s0[:, 0])

    def kl(r, m):
        return [0.0 if -1e-12 < v < 0.0 else v for v in (_kl_axes(r, m) + 0.5 * log_k).tolist()]

    return pareto_filter_triples_loop(list(zip(lams.tolist(), kl(r_p, m_p), kl(r_q, m_q))))


class TestFrontierKLClosedForm:
    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    @pytest.mark.parametrize("d,kind", EQUIVALENCE_CASES)
    def test_blocks_match_the_one_pass(self, d, kind, side):
        P, Q, _ = equivalence_pair(d, kind)
        for grid_size in (2, 51, 201):
            want = repr(frontier_kl_one_pass(P, Q, side, grid_size))
            for rows in (None, 1, 7):  # the default block, one row per block, and ragged blocks
                with rows_per_block(rows, d):
                    assert repr(frontier_kl(P, Q, side, grid_size).points) == want, (grid_size, rows)

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    def test_memory_is_bounded_by_the_blocks(self, side):
        # a (grid x d) float array alone would be 39 MiB here
        P, Q = (random_gaussian(np.random.default_rng(seed), 512) for seed in (1, 2))
        tracemalloc.start()
        try:
            curve = frontier_kl(P, Q, side, MAX_GRID_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve.points) > 1
        assert peak <= 96 * 2**20

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    @pytest.mark.parametrize("d,kind", EQUIVALENCE_CASES)
    def test_matches_bregman_loop(self, d, kind, side):
        P, Q, rtol = equivalence_pair(d, kind)
        got = np.asarray(frontier_kl(P, Q, side, 51).points)
        want = np.asarray(frontier_kl_loop(P, Q, side, 51))
        assert got.shape == want.shape
        assert got[:, 0].tolist() == want[:, 0].tolist()
        # error relative to the point's larger coordinate: the loop's Bregman
        # differences lose about eps |A(theta)| in both, and at cond 1e8 leave
        # ~1e-7 where the closed form gives the exact 0 of an endpoint
        scale = np.maximum(1.0, np.abs(want[:, 1:]).max(axis=1))
        assert np.max(np.abs(got[:, 1:] - want[:, 1:]).max(axis=1) / scale) <= rtol

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    def test_diagonal_pair_is_a_sum_of_1d_kls(self, side):
        # variance ratios of 1e12 both ways: s must be its own Rayleigh
        # quotient, since 1 - t keeps only ~4 digits of s = 1e-12
        mp, vp = np.array([0.0, 0.0, 1.0, 0.0]), np.array([1.0, 1e-12, 3.0, 1e-6])
        mq, vq = np.array([0.5, 0.0, 1.0, 0.0]), np.array([1e-12, 1.0, 2.0, 3e-6])

        def kl_sum(a, b):  # a and b as (means, variances), one 1-D KL per axis
            return sum(kl_gaussian(GaussianParams([m1], [[v1]]), GaussianParams([m2], [[v2]])) for m1, v1, m2, v2 in zip(*a, *b))

        curve = frontier_kl(GaussianParams(mp, np.diag(vp)), GaussianParams(mq, np.diag(vq)), side, 51)
        assert [lam for lam, _, _ in curve.points] == np.linspace(0.0, 1.0, 51).tolist()
        for lam, div_p, div_q in curve.points:
            if side == EXCLUSIVE:
                prec = lam / vp + (1 - lam) / vq
                gamma = (lam * mp / vp + (1 - lam) * mq / vq) / prec, 1.0 / prec
                want = kl_sum(gamma, (mp, vp)), kl_sum(gamma, (mq, vq))
            else:  # the mean offset lies on one axis, so the path stays diagonal
                gamma = lam * mp + (1 - lam) * mq, lam * vp + (1 - lam) * vq + lam * (1 - lam) * (mp - mq) ** 2
                want = kl_sum((mp, vp), gamma), kl_sum((mq, vq), gamma)
            assert max(abs(div_p - want[0]), abs(div_q - want[1])) <= 1e-12 * max(1.0, *want)

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    @pytest.mark.parametrize("d", [1, 16, 128])
    def test_endpoints_are_kl_gaussian(self, d, side, rng):
        P, Q = random_gaussian(rng, d), random_gaussian(rng, d)
        (lam0, x0, y0), *_, (lam1, x1, y1) = frontier_kl(P, Q, side, 201).points
        assert (lam0, lam1) == (0.0, 1.0)  # lambda = 0 is Q, lambda = 1 is P
        assert y0 <= 1e-12 and x1 <= 1e-12
        if side == EXCLUSIVE:
            want0, want1 = kl_gaussian(Q, P), kl_gaussian(P, Q)
        else:
            want0, want1 = kl_gaussian(P, Q), kl_gaussian(Q, P)
        assert x0 == pytest.approx(want0, rel=1e-12, abs=0.0)
        assert y1 == pytest.approx(want1, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    @pytest.mark.parametrize("d", [1, 3])
    def test_overflowing_mean_offset_gives_the_two_ends(self, d, side):
        # the whitened offset is finite, its square is not
        P, Q = GaussianParams(np.full(d, 1e160), np.eye(d)), GaussianParams(np.full(d, -1e160), np.eye(d))
        inf = float("inf")
        assert frontier_kl(P, Q, side, 21).points == ((0.0, inf, 0.0), (1.0, 0.0, inf))
        assert kl_endpoints(P, Q) == (inf, inf)

    def test_grid_size_outside_the_cap_is_rejected(self):
        g = GaussianParams([0.0], [[1.0]])
        for grid_size in (1, MAX_GRID_SIZE + 1, 2**63):
            with pytest.raises(ParameterError, match="grid_size"):
                frontier_kl(g, g, EXCLUSIVE, grid_size)

    @pytest.mark.parametrize("side", [EXCLUSIVE, INCLUSIVE])
    def test_near_singular_covariances_give_valid_points_or_parameter_error(self, side, rng):
        # eigenvalues down to 1e-19 pass GaussianParams' Cholesky check but
        # can leave a whitened variance at or below 0 after rounding
        for _ in range(300):
            covs = []
            for _ in range(2):
                basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
                cov = (basis * np.array([1.0, 1e-8, 10 ** rng.uniform(-19, -15)])) @ basis.T
                covs.append(0.5 * (cov + cov.T))
            try:
                P, Q = (GaussianParams(rng.standard_normal(3), cov) for cov in covs)
            except ParameterError:
                continue
            # the closed forms share frontier_kl's whitening and its check
            results = {
                "frontier_kl": lambda: np.asarray(frontier_kl(P, Q, side, 11).points),
                "kl_gaussian": lambda: kl_gaussian(P, Q),
                "renyi_gaussian": lambda: renyi_gaussian(P, Q, Alpha.finite(0.5)),
                "kl_endpoints": lambda: kl_endpoints(P, Q),
            }
            for name, result in results.items():
                try:
                    values = np.asarray(result())
                except ParameterError:
                    continue
                assert np.all(np.isfinite(values)) and np.all(values >= 0.0), name


class TestBregmanDuality:
    def test_dual_divergence_swaps_arguments(self, rng):
        # B_A(t || t') equals the Bregman divergence of the convex
        # conjugate A* evaluated at the swapped dual coordinates
        fam = gaussian_family(1)

        def conjugate(eta):
            theta = fam.inv_grad_log_partition(eta)
            return float(np.dot(theta, eta)) - fam.log_partition(theta)

        for _ in range(25):
            t1 = gaussian_to_natural(random_gaussian(rng, 1)).theta
            t2 = gaussian_to_natural(random_gaussian(rng, 1)).theta
            e1 = fam.grad_log_partition(t1)
            e2 = fam.grad_log_partition(t2)
            primal = bregman_kl(t1, t2, fam)
            dual = conjugate(e1) - conjugate(e2) - float(np.dot(t2, e1 - e2))
            assert primal == pytest.approx(dual, abs=1e-8)


class TestAlphaProfile:
    def test_divergence_increases_with_alpha(self):
        P = GaussianParams([0.0], [[1.0]])
        for sigma2 in (0.4, 0.8, 1.5):
            Q = GaussianParams([0.3], [[sigma2]])
            alphas = [Alpha.finite(a) for a in (0.2, 0.5, 0.9)] + [Alpha.one()]
            if sigma2 > 1.0:  # interpolated variance stays positive
                alphas += [Alpha.finite(a) for a in (2.0, 5.0)]
            values = [renyi_gaussian(P, Q, a) for a in alphas]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-10

    def test_profile_minimized_at_matching_variance(self):
        # for fixed alpha the divergence is smallest when Q matches P
        P = GaussianParams([0.0], [[1.0]])
        sigmas = np.linspace(0.5, 2.0, 31)
        vals = [
            renyi_gaussian(P, GaussianParams([0.0], [[s**2]]), Alpha.finite(0.5))
            for s in sigmas
        ]
        best = sigmas[int(np.argmin(vals))]
        assert best == pytest.approx(1.0, abs=0.06)
        # and decreases toward the minimum from both sides
        k = int(np.argmin(vals))
        assert all(a >= b for a, b in zip(vals[:k], vals[1 : k + 1]))
        assert all(a <= b for a, b in zip(vals[k:], vals[k + 1 :]))
