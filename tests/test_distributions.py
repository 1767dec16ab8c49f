"""Distribution tests against quadrature, sampling, and dense-matrix KL oracles."""

import numpy as np
import pytest
from conftest import chol_params, quad_std
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import IntegrationWarning
from scipy.special import ndtr

from oximap.analysis import marginal_std
from oximap.distributions import (
    PARAM_OFFSET,
    PARAM_SCALE,
    ScaledLogitNormal,
    forward_transform,
    inverse_transform,
    kl_analytic,
    kl_monte_carlo,
    truncated_normal_sample,
)

BOX_LO = PARAM_OFFSET
BOX_HI = PARAM_OFFSET + PARAM_SCALE


def box_quadrature(fn, n=400):
    """Midpoint rule of fn(y) over the open parameter box."""
    e0 = (np.arange(n) + 0.5) / n * PARAM_SCALE[0] + PARAM_OFFSET[0]
    e1 = (np.arange(n) + 0.5) / n * PARAM_SCALE[1] + PARAM_OFFSET[1]
    g0, g1 = np.meshgrid(e0, e1, indexing="ij")
    y = np.stack([g0, g1], axis=-1)
    cell = (PARAM_SCALE[0] / n) * (PARAM_SCALE[1] / n)
    return fn(y) * cell


def dense_gaussian_kl(mu_q, lq, mu_p, lp):
    """KL between two Gaussians via explicit covariance algebra."""
    sq = lq @ lq.T
    sp = lp @ lp.T
    sp_inv = np.linalg.inv(sp)
    d = mu_q - mu_p
    return 0.5 * (
        np.trace(sp_inv @ sq)
        + d @ sp_inv @ d
        - 2.0
        + np.linalg.slogdet(sp)[1]
        - np.linalg.slogdet(sq)[1]
    )


class TestTransforms:
    def test_reference_logits(self):
        beta = inverse_transform(np.array([0.40, 0.025]))
        assert_allclose(beta, [-0.251314, -2.442347], rtol=1e-5)

    def test_forward_range(self):
        # +-30 keeps the strict inequality representable in float64
        beta = np.array([[-30.0, 30.0], [0.0, 0.0], [30.0, -30.0]])
        y = forward_transform(beta)
        assert np.all(y > BOX_LO) and np.all(y < BOX_HI)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_round_trip(self, b0, b1):
        beta = np.array([b0, b1])
        assert_allclose(inverse_transform(forward_transform(beta)), beta, rtol=1e-9, atol=1e-9)

    def test_out_of_support_names_component(self):
        with pytest.raises(ValueError, match="oef"):
            inverse_transform(np.array([0.05, 0.1]))
        with pytest.raises(ValueError, match="dbv"):
            inverse_transform(np.array([0.4, 0.301]))
        with pytest.raises(ValueError, match="oef"):
            inverse_transform(np.array([0.9, 0.1]))


class TestScaledLogitNormal:
    def test_validation(self):
        with pytest.raises(ValueError, match="mu must have trailing length 2"):
            ScaledLogitNormal(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match="sigma_l_params must have trailing length 2 or 3"):
            ScaledLogitNormal(np.zeros(2), np.zeros(4))
        # a (2, 2) matrix reads as two rows of diagonal params, so a lone mu refuses it
        with pytest.raises(ValueError, match="leading axes"):
            ScaledLogitNormal(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="leading axes"):
            ScaledLogitNormal(np.zeros((4, 2)), np.zeros((3, 3)))
        for width in (2, 3):
            d = ScaledLogitNormal(np.zeros((4, 2)), np.zeros((4, width)))
            assert d.sigma_l_params.shape == (4, width)

    def test_density_normalizes(self):
        d = ScaledLogitNormal(np.zeros(2), chol_params(np.eye(2)))
        total = box_quadrature(lambda y: np.exp(d.log_prob(y))).sum()
        assert abs(total - 1.0) < 1e-3

    def test_density_normalizes_correlated(self):
        d = ScaledLogitNormal(np.array([0.1, -0.3]), chol_params([[0.8, 0.0], [0.3, 0.6]]))
        total = box_quadrature(lambda y: np.exp(d.log_prob(y))).sum()
        assert abs(total - 1.0) < 1e-3

    def test_log_prob_against_gaussian_oracle(self):
        mu = np.array([0.2, -0.5])
        chol = np.array([[0.7, 0.0], [0.2, 0.5]])
        d = ScaledLogitNormal(mu, chol_params(chol))
        base = stats.multivariate_normal(mean=mu, cov=chol @ chol.T)
        for y in ([0.4, 0.025], [0.2, 0.1], [0.7, 0.01]):
            y = np.array(y)
            beta = inverse_transform(y)
            yhat = (y - PARAM_OFFSET) / PARAM_SCALE
            jac = np.sum(np.log(PARAM_SCALE * yhat * (1 - yhat)))
            assert_allclose(d.log_prob(y), base.logpdf(beta) - jac, rtol=1e-10)

    def test_samples_inside_open_box(self, rng):
        d = ScaledLogitNormal(np.zeros(2), chol_params(3.0 * np.eye(2)))
        y = d.sample(rng, 10000)
        assert y.shape == (10000, 2)
        assert np.all(y > BOX_LO) and np.all(y < BOX_HI)

    def test_transform_noise_at_zero_is_mode_map(self):
        mu = np.array([-0.25, -2.44])
        d = ScaledLogitNormal(mu, chol_params(np.eye(2)))
        assert_allclose(d.transform_noise(np.zeros(2)), forward_transform(mu), rtol=1e-12)

    def test_sampling_matches_density_chi_square(self, rng):
        d = ScaledLogitNormal(np.array([0.1, -0.3]), chol_params([[0.8, 0.0], [0.3, 0.6]]))
        n_draws = 200000
        y = d.sample(rng, n_draws)
        n_cells = 20
        counts, _, _ = np.histogram2d(
            y[:, 0], y[:, 1], bins=n_cells, range=[(BOX_LO[0], BOX_HI[0]), (BOX_LO[1], BOX_HI[1])]
        )
        fine = 8
        probs = box_quadrature(lambda yy: np.exp(d.log_prob(yy)), n=n_cells * fine)
        probs = probs.reshape(n_cells, fine, n_cells, fine).sum(axis=(1, 3))
        keep = probs * n_draws >= 10
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(probs[keep], 1.0 - probs[keep].sum()) * n_draws
        chi2 = np.sum((obs - exp) ** 2 / exp)
        assert chi2 < stats.chi2.ppf(0.999, len(obs) - 1)

    def test_batched_log_prob_shape(self, rng):
        mu = rng.normal(size=(4, 2))
        chol = np.tile(np.eye(2), (4, 1, 1))
        d = ScaledLogitNormal(mu, chol_params(chol))
        y = np.full((4, 2), [0.4, 0.025])
        assert d.log_prob(y).shape == (4,)


class TestKL:
    def test_self_kl_is_zero(self):
        d = ScaledLogitNormal(np.array([0.3, -1.0]), chol_params([[0.5, 0.0], [0.1, 0.8]]))
        assert kl_analytic(d, d) == 0.0

    def test_unit_shift_reference(self):
        q = ScaledLogitNormal(np.array([1.0, 0.0]), chol_params(np.eye(2)))
        p = ScaledLogitNormal(np.zeros(2), chol_params(np.eye(2)))
        assert_allclose(kl_analytic(q, p), 0.5, rtol=1e-14)

    def test_against_dense_matrix_oracle(self, rng):
        for _ in range(20):
            mu_q = rng.normal(size=2)
            mu_p = rng.normal(size=2)
            lq = np.tril(rng.normal(size=(2, 2)))
            lp = np.tril(rng.normal(size=(2, 2)))
            lq[[0, 1], [0, 1]] = np.exp(rng.normal(size=2) * 0.5)
            lp[[0, 1], [0, 1]] = np.exp(rng.normal(size=2) * 0.5)
            q = ScaledLogitNormal(mu_q, chol_params(lq))
            p = ScaledLogitNormal(mu_p, chol_params(lp))
            assert_allclose(kl_analytic(q, p), dense_gaussian_kl(mu_q, lq, mu_p, lp), rtol=1e-10)

    def test_never_negative(self, rng):
        for _ in range(200):
            mu = rng.normal(size=2) * 0.01
            lq = np.array([[1.0 + 1e-9 * rng.normal(), 0.0], [1e-9 * rng.normal(), 1.0]])
            q = ScaledLogitNormal(mu * 1e-6, chol_params(lq))
            p = ScaledLogitNormal(np.zeros(2), chol_params(np.eye(2)))
            assert kl_analytic(q, p) >= 0.0

    def test_batched(self, rng):
        mu_q = rng.normal(size=(5, 2))
        chol = np.tile(np.eye(2), (5, 1, 1))
        q = ScaledLogitNormal(mu_q, chol_params(chol))
        p = ScaledLogitNormal(np.zeros((5, 2)), chol_params(chol))
        kl = kl_analytic(q, p)
        assert kl.shape == (5,)
        assert_allclose(kl, 0.5 * (mu_q**2).sum(axis=-1), rtol=1e-12)

    def test_monte_carlo_within_sampling_error(self, rng):
        q = ScaledLogitNormal(np.array([0.8, -0.5]), chol_params([[0.9, 0.0], [0.2, 0.7]]))
        p = ScaledLogitNormal(np.array([-0.4, 0.6]), chol_params([[0.6, 0.0], [-0.1, 1.1]]))
        exact = kl_analytic(q, p)
        n = 100000
        y = q.sample(rng, n)
        g = q.log_prob(y) - p.log_prob(y)
        sem = g.std(ddof=1) / np.sqrt(n)
        est = kl_monte_carlo(q, p, np.random.default_rng(7), n)
        assert abs(est - exact) < 5 * sem
        assert abs(est - exact) / exact < 0.02

    def test_monte_carlo_error_shrinks(self):
        q = ScaledLogitNormal(np.array([0.8, -0.5]), chol_params([[0.9, 0.0], [0.2, 0.7]]))
        p = ScaledLogitNormal(np.zeros(2), chol_params(np.eye(2)))
        exact = kl_analytic(q, p)
        errs = {}
        for n in (1000, 100000):
            vals = [
                abs(kl_monte_carlo(q, p, np.random.default_rng(100 + k), n) - exact)
                for k in range(8)
            ]
            errs[n] = np.mean(vals)
        assert errs[100000] < errs[1000] / 3.0


def dense_factor(params):
    """The lower-triangular L that params (log l00, log l11[, l10]) encode."""
    l10 = params[2] if len(params) == 3 else 0.0
    return np.array([[np.exp(params[0]), 0.0], [l10, np.exp(params[1])]])


def posterior(width):
    """A logit mean and factor params of the given width."""
    return st.tuples(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        st.tuples(st.floats(-2, 1), st.floats(-2, 1), st.floats(-2, 2)).map(lambda t: t[:width]),
    )


class TestOneLayout:
    """Every reader of the encoder's layout against oracles built from the
    dense factor L it encodes."""

    @pytest.mark.filterwarnings("ignore", category=IntegrationWarning)
    @settings(max_examples=40)
    @given(
        qp=st.sampled_from([2, 3]).flatmap(lambda w: st.tuples(posterior(w), posterior(w))),
        z=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    )
    def test_readers_match_dense_oracles(self, qp, z):
        (mu_q, pq), (mu_p, pp) = (tuple(np.array(v) for v in d) for d in qp)
        lq, lp = dense_factor(pq), dense_factor(pp)
        q, p = ScaledLogitNormal(mu_q, pq), ScaledLogitNormal(mu_p, pp)
        assert_allclose(kl_analytic(q, p), dense_gaussian_kl(mu_q, lq, mu_p, lp), rtol=1e-9, atol=1e-12)

        z = np.array(z)
        y = forward_transform(mu_q + lq @ z)
        assert_allclose(q.transform_noise(z), y, rtol=1e-12)

        beta = inverse_transform(y)
        yhat = (y - PARAM_OFFSET) / PARAM_SCALE
        jac = np.sum(np.log(PARAM_SCALE * yhat * (1 - yhat)))
        base = stats.multivariate_normal(mean=mu_q, cov=lq @ lq.T)
        assert_allclose(q.log_prob(y), base.logpdf(beta) - jac, rtol=1e-10)

        scale = np.sqrt(np.diag(lq @ lq.T))
        ref = [quad_std(mu_q[k], scale[k], k) for k in (0, 1)]
        assert_allclose(marginal_std(q), ref, rtol=1e-6, atol=0)


class TestTruncatedNormal:
    def test_bounds_strict(self, rng):
        x = truncated_normal_sample(0.4, 0.5, 0.05, 0.85, rng, size=20000)
        assert np.all(x > 0.05) and np.all(x < 0.85)

    def test_std_zero_collapses(self, rng):
        x = truncated_normal_sample(0.4, 0.0, 0.05, 0.85, rng, size=5)
        assert np.all(x == 0.4)
        assert np.all(truncated_normal_sample(2.0, 0.0, 0.05, 0.85, rng, size=3) < 0.85)

    def test_ks_against_analytic_cdf(self):
        cases = [(0.40, 0.20, 0.05, 0.85), (0.60, 0.10, 0.05, 0.85), (0.025, 0.02, 0.001, 0.301)]
        for mean, std, lo, hi in cases:
            x = truncated_normal_sample(mean, std, lo, hi, np.random.default_rng(11), size=20000)
            za, zb = (lo - mean) / std, (hi - mean) / std
            cdf = lambda v: (ndtr((v - mean) / std) - ndtr(za)) / (ndtr(zb) - ndtr(za))
            assert stats.kstest(x, cdf).pvalue > 1e-3

    def test_matches_rejection_oracle(self, rng):
        mean, std, lo, hi = 0.35, 0.25, 0.05, 0.85
        x = truncated_normal_sample(mean, std, lo, hi, np.random.default_rng(3), size=15000)
        raw = rng.normal(mean, std, size=200000)
        ref = raw[(raw > lo) & (raw < hi)]
        assert stats.ks_2samp(x, ref).pvalue > 1e-3

    def test_far_outside_mean_concentrates_at_near_bound(self, rng):
        low_side = truncated_normal_sample(-1.5, 0.1, 0.0, 1.0, rng, size=2000)
        assert np.all(low_side > 0.0) and np.quantile(low_side, 0.99) < 0.05
        high_side = truncated_normal_sample(2.5, 0.1, 0.0, 1.0, rng, size=2000)
        assert np.all(high_side < 1.0) and np.quantile(high_side, 0.01) > 0.95

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError, match="low"):
            truncated_normal_sample(0.4, 0.1, 0.9, 0.1, rng, size=1)
        with pytest.raises(ValueError, match="std"):
            truncated_normal_sample(0.4, -0.1, 0.0, 1.0, rng, size=1)
