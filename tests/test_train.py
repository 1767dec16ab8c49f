"""Training-stage tests: losses against density oracles, closed-form ELBO cases,
total-variation hand values, and end-to-end recovery at unit scale."""

import tracemalloc

import numpy as np
import pytest
from conftest import (
    chol_params,
    composed_cholesky,
    composed_expected_loglik,
    composed_kl,
    composed_loss,
    composed_tv,
    head_slices,
    loglik_term_sizes,
    loss_node,
    loss_term_sizes,
    named_gradients,
    tape_nodes,
)
from numpy.testing import assert_allclose
from scipy import stats

from oximap import autodiff as ad
from oximap import train
from oximap.distributions import (
    PARAM_OFFSET,
    PARAM_SCALE,
    ScaledLogitNormal,
    forward_transform,
    inverse_transform,
    kl_monte_carlo,
)
from oximap.nnet import (
    SIGMA_IM_FLOOR,
    NetworkConfig,
    VoxelPrediction,
    collect_gradients,
    encoder_forward,
    extend_weights,
    init_weights,
    prediction_to_distribution,
)
from oximap.physics import (
    AcquisitionProtocol,
    ForwardModelConfig,
    PhysioConstants,
    normalized_model_signal,
    normalized_model_signal_t,
)
from oximap.synthgen import (
    PRIOR_PRESETS,
    NoiseProfile,
    ParamPriorConfig,
    PriorSpec,
    SynthDataset,
    generate_dataset,
    make_phantom,
)
from oximap.train import (
    MetricsLog,
    PriorMaps,
    TrainingConfig,
    compute_prior_maps,
    elbo_loss,
    pretrain_loss,
    run_finetuning,
    run_pretraining,
    tv_loss,
)
from oximap.volume import Volume4D, normalize_volume, planes_first

FWD1 = ForwardModelConfig(variant="asymptotic", compartments=1)
NOISELESS = NoiseProfile(snr_low=1e300, snr_high=1e300)
MID_RANGE = ParamPriorConfig(PriorSpec("uniform", 0.25, 0.55), PriorSpec("uniform", 0.01, 0.05))


@pytest.fixture(scope="module")
def proto_m():
    return AcquisitionProtocol()


@pytest.fixture(scope="module")
def constants_m():
    return PhysioConstants()


@pytest.fixture(scope="module")
def noisy_dataset(proto_m, constants_m):
    return generate_dataset(3000, PRIOR_PRESETS["normal"], proto_m, constants_m, FWD1,
                            NoiseProfile(), np.random.default_rng(100))


@pytest.fixture(scope="module")
def theta16(noisy_dataset):
    cfg = NetworkConfig(n_blocks=2, width=16)
    tc = TrainingConfig.pretrain_defaults(iterations=300, batch_size=128, seed=5)
    return run_pretraining(cfg, tc, noisy_dataset)


@pytest.fixture(scope="module")
def theta_clean(proto_m, constants_m):
    ds = generate_dataset(4000, MID_RANGE, proto_m, constants_m, FWD1, NOISELESS,
                          np.random.default_rng(100))
    cfg = NetworkConfig(n_blocks=2, width=24)
    tc = TrainingConfig.pretrain_defaults(iterations=800, batch_size=256, seed=5)
    return run_pretraining(cfg, tc, ds)


@pytest.fixture(scope="module")
def phantom_vol(proto_m, constants_m):
    ph = make_phantom((16, 16, 2), (0.4, 0.025), proto_m, constants_m, FWD1, 60.0,
                      np.random.default_rng(55))
    vol, dropped = normalize_volume(ph, proto_m)
    assert dropped == 0
    return vol


@pytest.fixture(scope="module")
def theta16_full(proto_m, constants_m):
    ds = generate_dataset(3000, PRIOR_PRESETS["uniform"], proto_m, constants_m, FWD1,
                          NoiseProfile(), np.random.default_rng(100))
    cfg = NetworkConfig(n_blocks=2, width=16, covariance_mode="full")
    tc = TrainingConfig.pretrain_defaults(iterations=300, batch_size=128, seed=5)
    return run_pretraining(cfg, tc, ds)


@pytest.fixture(scope="module")
def high_dbv_vol(proto_m, constants_m):
    ph = make_phantom((16, 16, 2), (0.55, 0.15), proto_m, constants_m, FWD1, 150.0,
                      np.random.default_rng(55))
    vol, _ = normalize_volume(ph, proto_m)
    return vol


def logged_losses(path):
    return [float(line.split("\t")[1]) for line in path.read_text().strip().split("\n")[1:]]


@pytest.fixture(scope="module")
def phantom_priors(theta16, phantom_vol):
    return compute_prior_maps(theta16, phantom_vol)


def const_net(n_t, mu_b, cov_b, noise_b, cov_mode="diagonal"):
    """Network with all weights zero: outputs equal the head biases exactly."""
    cfg = NetworkConfig(n_blocks=1, width=4, covariance_mode=cov_mode)
    w = init_weights(cfg, n_t, np.random.default_rng(0))
    for t in w.tensors.values():
        t.data[...] = 0.0
    w.tensors["mu.b"].data[...] = mu_b
    w.tensors["cov.b"].data[...] = cov_b
    w.tensors["noise.b"].data[...] = noise_b
    return w


class TestTrainingConfig:
    def test_stage_defaults(self):
        p = TrainingConfig.pretrain_defaults()
        assert (p.iterations, p.batch_size, p.lr) == (1400, 512, 2e-3)
        assert p.weight_decay == 2e-4
        f = TrainingConfig.finetune_defaults()
        assert (f.iterations, f.batch_size, f.lr) == (4000, 38, 5e-3)
        assert f.n_samples_elbo == 4 and f.tv_lambda == 5.0 and f.crop_xy == 25

    def test_overrides(self):
        p = TrainingConfig.pretrain_defaults(iterations=10, seed=9)
        assert p.iterations == 10 and p.seed == 9

    def test_validation(self):
        with pytest.raises(TypeError, match="stage"):
            TrainingConfig.pretrain_defaults(stage="pretrain")
        with pytest.raises(ValueError, match="iterations"):
            TrainingConfig.pretrain_defaults(iterations=0)
        with pytest.raises(ValueError, match="lr"):
            TrainingConfig.pretrain_defaults(lr=0.0)
        with pytest.raises(ValueError, match="weight_decay"):
            TrainingConfig.pretrain_defaults(weight_decay=-1e-4)
        with pytest.raises(ValueError, match="tv_lambda"):
            TrainingConfig.finetune_defaults(tv_lambda=-0.5)


class TestMetricsLog:
    def test_writes_rows(self, tmp_path):
        path = tmp_path / "m.tsv"
        with MetricsLog(path) as log:
            log.write(0, 1.5, kl=0.25, loglik=-1.25, tv=0.01, lr=2e-3)
            log.write(1, 1.25)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step\tloss\tkl\tloglik\ttv\tlr\tstep_ms"
        first = lines[1].split("\t")
        assert first[0] == "0" and float(first[1]) == 1.5 and float(first[5]) == 2e-3
        assert lines[2].split("\t")[2] == "nan"

    def test_none_path_is_noop(self):
        with MetricsLog(None) as log:
            log.write(0, 1.0)  # must not raise


class TestStepTimeColumn:
    """Both stages log each step's wall time as a last column; every other
    column is the same bytes on a rerun with the same seed."""

    @staticmethod
    def columns(path):
        lines = path.read_text().strip().split("\n")
        assert lines[0] == MetricsLog.HEADER and lines[0].endswith("\tstep_ms")
        rows = [line.split("\t") for line in lines[1:]]
        assert all(len(r) == 7 for r in rows)
        return [r[:-1] for r in rows], np.array([float(r[-1]) for r in rows])

    def check(self, run, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run(a)
        run(b)
        (rows_a, ms_a), (rows_b, ms_b) = self.columns(a), self.columns(b)
        assert rows_a == rows_b
        assert np.all(np.isfinite(ms_a)) and np.all(ms_a > 0) and np.all(ms_b > 0)
        return rows_a

    def test_pretraining(self, tmp_path, noisy_dataset):
        tc = TrainingConfig.pretrain_defaults(iterations=5, batch_size=16, seed=3)
        rows = self.check(lambda path: run_pretraining(NetworkConfig(n_blocks=1, width=8), tc,
                                                       noisy_dataset, metrics_path=path), tmp_path)
        assert len(rows) == 5 and all(r[2:5] == ["nan"] * 3 for r in rows)

    def test_finetuning(self, tmp_path, theta16, phantom_vol, proto_m, constants_m):
        cfg = TrainingConfig.finetune_defaults(iterations=3, batch_size=1, crop_xy=8, n_samples_elbo=1)
        gated = NetworkConfig(n_blocks=2, width=16, spatial_mode="gated-residual")
        rows = self.check(lambda path: run_finetuning(theta16, gated, cfg, [phantom_vol], proto_m,
                                                      constants_m, FWD1, metrics_path=path), tmp_path)
        assert len(rows) == 3 and all(np.isfinite([float(v) for v in r[1:]]).all() for r in rows)


class TestPriorMaps:
    def test_validation(self):
        mask = np.ones((3, 3, 2), dtype=bool)
        mask[0, 0, 0] = False
        n = 17
        mu = np.zeros((n, 2))
        params = chol_params(np.broadcast_to(np.eye(2), (n, 2, 2)))
        PriorMaps(mu, params, mask)  # valid
        PriorMaps(mu, params[..., :2], mask)  # valid: a diagonal factor
        PriorMaps(mu[:0], params[:0], np.zeros((2, 2, 1), dtype=bool))  # valid: no masked voxel
        # the parent class's shape checks
        with pytest.raises(ValueError, match="mu"):
            PriorMaps(np.zeros((n, 3)), params, mask)
        with pytest.raises(ValueError, match="sigma_l_params"):
            PriorMaps(mu, np.zeros((n, 4)), mask)
        with pytest.raises(ValueError, match="leading axes"):
            PriorMaps(mu, params[:-1], mask)
        # one row per masked voxel of a 3-D mask
        with pytest.raises(ValueError, match="one row per masked voxel"):
            PriorMaps(mu[:-1], params[:-1], mask)
        with pytest.raises(ValueError, match="one row per masked voxel"):
            PriorMaps(mu, params, np.ones((3, 3, 2), dtype=bool))
        with pytest.raises(ValueError, match="one row per masked voxel"):
            PriorMaps(mu, params, np.ones((n, 1), dtype=bool))
        with pytest.raises(ValueError, match="one row per masked voxel"):
            PriorMaps(mu.reshape(1, n, 2), params.reshape(1, n, 3), mask)
        # all rows finite
        bad_mu = mu.copy()
        bad_mu[-1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PriorMaps(bad_mu, params, mask)
        bad = params.copy()
        bad[0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            PriorMaps(mu, bad, mask)


class TestPretrainLoss:
    @pytest.mark.parametrize("mode", ["diagonal", "full"])
    def test_matches_distribution_density(self, mode, rng):
        cfg = NetworkConfig(n_blocks=2, width=8, covariance_mode=mode)
        w = init_weights(cfg, 11, np.random.default_rng(1))
        x = rng.normal(-0.1, 0.05, (32, 11))
        y = np.column_stack([rng.uniform(0.2, 0.6, 32), rng.uniform(0.01, 0.1, 32)])
        pred = encoder_forward(w, ad.Tensor(x))
        loss = pretrain_loss(pred, y)
        dist = prediction_to_distribution(pred, mode)
        assert_allclose(float(loss.data), -dist.log_prob(y).mean(), rtol=1e-10)

    @pytest.mark.parametrize("mode", ["diagonal", "full"])
    def test_node_gradient_by_central_differences(self, mode, rng):
        # every column of a float64 heads tensor: the mean, the covariance
        # factor and the noise levels, which the loss does not read and
        # whose gradient is zero
        k, n, n_t = (3 if mode == "full" else 2), 5, 4
        heads = np.concatenate([rng.normal(0.0, 1.0, (n, 2)), rng.normal(-0.5, 0.4, (n, 2)),
                                rng.normal(0.0, 0.5, (n, k - 2)), rng.normal(-3.0, 0.5, (n, n_t))], axis=-1)
        y = np.column_stack([rng.uniform(0.2, 0.6, n), rng.uniform(0.01, 0.1, n)])
        loss = lambda a: pretrain_loss(VoxelPrediction(ad.Tensor(a), k), y)
        out = loss(heads)
        ad.backward(out)
        (node,) = out._parents
        assert not node.grad[:, 2 + k :].any()
        for ix in np.ndindex(heads.shape):
            step = 1e-6 * max(1.0, abs(heads[ix]))
            vals = []
            for sign in (1.0, -1.0):
                shifted = heads.copy()
                shifted[ix] += sign * step
                vals.append(float(loss(shifted).data))
            fd = (vals[0] - vals[1]) / (2.0 * step)
            assert abs(fd - node.grad[ix]) <= 1e-7 * max(1.0, abs(node.grad[ix])), (ix, fd, node.grad[ix])

    def test_tissue_params_scalar(self):
        w = const_net(5, [0.1, -2.0], [-0.5, -0.7], -3.0)
        pred = encoder_forward(w, ad.Tensor(np.zeros(5)))
        a = pretrain_loss(pred, (0.4, 0.025))
        b = pretrain_loss(pred, np.array([0.4, 0.025]))
        assert_allclose(float(a.data), float(b.data), rtol=0, atol=0)

    def test_truth_outside_support_errors(self):
        w = const_net(5, [0.0, 0.0], [0.0, 0.0], -3.0)
        pred = encoder_forward(w, ad.Tensor(np.zeros(5)))
        with pytest.raises(ValueError, match="oef"):
            pretrain_loss(pred, np.array([0.9, 0.025]))

    def test_diagonal_equals_full_with_zero_offdiagonal(self, rng):
        cfg = NetworkConfig(n_blocks=1, width=8)
        w = init_weights(cfg, 11, np.random.default_rng(2))
        x = rng.normal(-0.1, 0.05, (16, 11))
        y = np.column_stack([rng.uniform(0.2, 0.6, 16), rng.uniform(0.01, 0.1, 16)])
        pred = encoder_forward(w, ad.Tensor(x))
        heads = pred.heads.data
        full = np.concatenate([heads[:, :4], np.zeros((16, 1)), heads[:, 4:]], axis=-1)
        pred_full = VoxelPrediction(ad.Tensor(full), 3)
        a = pretrain_loss(pred, y)
        b = pretrain_loss(pred_full, y)
        assert_allclose(float(a.data), float(b.data), rtol=0, atol=1e-14)

    def test_proper_scoring_centered_minimum(self):
        truth = np.array([0.4, 0.025])
        beta = inverse_transform(truth)
        sigma = np.array([-1.0, -1.0])

        def loss_at(shift):
            pred = VoxelPrediction(ad.Tensor(np.concatenate([beta + shift, sigma, np.zeros(1)])), 2)
            return float(pretrain_loss(pred, truth).data)

        center = loss_at(np.zeros(2))
        for delta in [0.3, 1.0]:
            for direction in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]:
                assert loss_at(delta * np.array(direction, dtype=float)) > center


class TestRunPretraining:
    def test_empty_dataset_error(self):
        cfg = NetworkConfig(n_blocks=1, width=4)
        empty = SynthDataset(np.empty((0, 11)), np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError, match="empty"):
            run_pretraining(cfg, TrainingConfig.pretrain_defaults(), empty)

    def test_truth_outside_the_box_stops_before_the_first_step(self, tmp_path, noisy_dataset):
        # every training row's truth is read into logit space once, up front;
        # the dataset checks its truths when built, so this one is edited after
        bad = SynthDataset(noisy_dataset.signals, noisy_dataset.truths.copy(), noisy_dataset.snrs)
        bad.truths[:, 0] = 0.9
        path = tmp_path / "m.tsv"
        with pytest.raises(ValueError, match="oef"):
            run_pretraining(NetworkConfig(n_blocks=1, width=8),
                            TrainingConfig.pretrain_defaults(iterations=3, batch_size=8), bad,
                            metrics_path=path)
        assert not path.exists()

    def test_seed_determinism(self, noisy_dataset):
        cfg = NetworkConfig(n_blocks=1, width=8)
        tc = TrainingConfig.pretrain_defaults(iterations=30, batch_size=32, seed=7)
        a = run_pretraining(cfg, tc, noisy_dataset)
        b = run_pretraining(cfg, tc, noisy_dataset)
        for k in a.tensors:
            assert a.tensors[k].data.tobytes() == b.tensors[k].data.tobytes()

    def test_init_drawn_from_seeded_generator(self, noisy_dataset):
        # with a vanishing lr the returned weights are the untouched init,
        # which must equal init_weights under the same fresh generator
        cfg = NetworkConfig(n_blocks=1, width=8)
        tc = TrainingConfig.pretrain_defaults(
            iterations=1, batch_size=4, lr=1e-300, weight_decay=0.0, seed=13,
        )
        theta = run_pretraining(cfg, tc, noisy_dataset)
        ref = init_weights(cfg, 11, np.random.default_rng(13))
        for k in theta.tensors:
            assert_allclose(theta.tensors[k].data, ref.tensors[k].data, rtol=0, atol=1e-200)

    def test_training_reduces_heldout_loss(self, theta16, proto_m, constants_m):
        ev = generate_dataset(600, PRIOR_PRESETS["normal"], proto_m, constants_m, FWD1,
                              NoiseProfile(), np.random.default_rng(200))
        fresh = init_weights(NetworkConfig(n_blocks=2, width=16), proto_m.n_t,
                             np.random.default_rng(5))
        with ad.recording_off():
            trained, untrained = [
                float(pretrain_loss(encoder_forward(w, ad.Tensor(ev.signals)), ev.truths).data)
                for w in (theta16, fresh)
            ]
        assert trained < untrained

    def test_noiseless_midrange_recovery(self, theta_clean, proto_m, constants_m):
        ev = generate_dataset(400, MID_RANGE, proto_m, constants_m, FWD1, NOISELESS,
                              np.random.default_rng(200))
        pred = encoder_forward(theta_clean, ad.Tensor(ev.signals))
        pts = forward_transform(prediction_to_distribution(pred, "diagonal").mu)
        assert np.abs(pts[:, 0] - ev.truths[:, 0]).mean() < 0.05
        assert np.abs(pts[:, 1] - ev.truths[:, 1]).mean() < 0.01

    def test_posterior_beats_population_prior(self, theta16, proto_m, constants_m):
        # on SNR=100 rows, the learned per-voxel posterior must localize the
        # truth better than the population prior density does
        ev = generate_dataset(800, PRIOR_PRESETS["normal"], proto_m, constants_m, FWD1,
                              NoiseProfile(snr_low=100.0, snr_high=100.0),
                              np.random.default_rng(300))
        pred = encoder_forward(theta16, ad.Tensor(ev.signals))
        lp_post = prediction_to_distribution(pred, "diagonal").log_prob(ev.truths).mean()
        a, b = (0.05 - 0.40) / 0.20, (0.85 - 0.40) / 0.20
        a2, b2 = (0.001 - 0.025) / 0.02, (0.301 - 0.025) / 0.02
        lp_prior = (
            stats.truncnorm(a, b, loc=0.40, scale=0.20).logpdf(ev.truths[:, 0])
            + stats.truncnorm(a2, b2, loc=0.025, scale=0.02).logpdf(ev.truths[:, 1])
        ).mean()
        assert lp_post > lp_prior

    def test_nonfinite_loss_aborts_with_iteration(self):
        nan_rows = SynthDataset(np.full((64, 11), np.nan), np.full((64, 2), 0.1), np.full(64, 60.0))
        cfg = NetworkConfig(n_blocks=1, width=4)
        tc = TrainingConfig.pretrain_defaults(iterations=5, batch_size=8, seed=0)
        with pytest.raises(RuntimeError, match="non-finite loss at iteration 0"):
            run_pretraining(cfg, tc, nan_rows)


class TestComputePriorMaps:
    def test_identical_voxels_identical_priors(self, theta16, rng):
        row = rng.normal(-0.1, 0.05, 11)
        data = np.tile(row, (2, 3, 2, 1))
        pm = compute_prior_maps(theta16, Volume4D(data))
        assert pm.mu.shape == (12, 2)
        assert np.all(pm.mu == pm.mu[0])
        assert np.all(pm.sigma_l_params == pm.sigma_l_params[0])

    def test_only_masked_voxels_get_rows(self, theta16, rng):
        data = rng.normal(-0.1, 0.05, (3, 3, 1, 11))
        mask = np.zeros((3, 3, 1), dtype=bool)
        mask[1, 1, 0] = True
        pm = compute_prior_maps(theta16, Volume4D(data, mask))
        assert pm.mu.shape == (1, 2) and pm.sigma_l_params.shape == (1, 2)
        # the priors come from a float32 copy of the network
        with ad.recording_off():
            pred = encoder_forward(theta16.astype(np.float32), ad.Tensor(data[1, 1, 0][None]))
        assert np.array_equal(pm.mu, pred.mu_l)
        assert np.array_equal(pm.sigma_l_params, pred.sigma_l_params)
        empty = compute_prior_maps(theta16, Volume4D(data, np.zeros_like(mask)))
        assert empty.mu.shape == (0, 2) and empty.sigma_l_params.shape == (0, 2)

    def test_clean_voxel_prior_matches_truth(self, theta_clean, proto_m, constants_m):
        ph = make_phantom((2, 1, 1), (0.4, 0.025), proto_m, constants_m, FWD1, None, None)
        vol, _ = normalize_volume(ph, proto_m)
        pm = compute_prior_maps(theta_clean, vol)
        pt = forward_transform(pm.mu[0])
        assert abs(pt[0] - 0.4) < 0.05
        assert abs(pt[1] - 0.025) < 0.01

    def test_requires_voxelwise_network(self, theta16, phantom_vol):
        gated = extend_weights(theta16, np.random.default_rng(0))
        with pytest.raises(ValueError, match="voxelwise"):
            compute_prior_maps(gated, phantom_vol)


class TestElboLoss:
    def test_decomposes_into_kl_minus_loglik(self, theta16, phantom_vol, phantom_priors,
                                              proto_m, constants_m):
        cfg = TrainingConfig.finetune_defaults(n_samples_elbo=2)
        loss, parts = elbo_loss(theta16, phantom_vol, phantom_priors, proto_m, constants_m,
                                FWD1, cfg, np.random.default_rng(1), return_parts=True)
        assert_allclose(float(loss.data), parts["kl"] - parts["loglik"], rtol=1e-10)

    def test_q_equals_prior_zero_kl(self, theta16, phantom_vol, phantom_priors,
                                    proto_m, constants_m):
        # psi == theta makes q identical to the prior: the KL term vanishes and
        # the loss reduces to the negative expected log-likelihood alone
        cfg = TrainingConfig.finetune_defaults(n_samples_elbo=2)
        loss, parts = elbo_loss(theta16.astype(np.float64), phantom_vol, phantom_priors, proto_m,
                                constants_m, FWD1, cfg, np.random.default_rng(2),
                                return_parts=True)
        assert 0.0 <= parts["kl"] < 1e-12
        assert_allclose(float(loss.data), -parts["loglik"], rtol=1e-12)

    def test_kl_nonnegative_for_fresh_network(self, phantom_vol, phantom_priors,
                                              proto_m, constants_m):
        fresh = init_weights(NetworkConfig(n_blocks=2, width=16), proto_m.n_t,
                             np.random.default_rng(99))
        cfg = TrainingConfig.finetune_defaults(n_samples_elbo=1)
        _, parts = elbo_loss(fresh, phantom_vol, phantom_priors, proto_m, constants_m,
                             FWD1, cfg, np.random.default_rng(3), return_parts=True)
        assert parts["kl"] >= 0.0

    def _delta_setup(self, proto_m, constants_m, noise_b):
        """Clean phantom plus a network/prior pair concentrated at the truth."""
        truth = np.array([0.4, 0.025])
        ph = make_phantom((4, 4, 1), tuple(truth), proto_m, constants_m, FWD1, None, None)
        vol, _ = normalize_volume(ph, proto_m)
        beta = inverse_transform(truth)
        w = const_net(proto_m.n_t, beta, -20.0, noise_b)
        mu = np.broadcast_to(beta, (16, 2)).copy()
        chol = np.zeros((16, 2, 2))
        chol[..., 0, 0] = np.exp(-20.0)
        chol[..., 1, 1] = np.exp(-20.0)
        priors = PriorMaps(mu, chol_params(chol), vol.mask)
        return w, vol, priors

    def test_huge_sigma_im_reduces_to_normalization(self, proto_m, constants_m):
        w, vol, priors = self._delta_setup(proto_m, constants_m, np.log(1e6))
        cfg = TrainingConfig.finetune_defaults(n_samples_elbo=2)
        loss = elbo_loss(w, vol, priors, proto_m, constants_m, FWD1, cfg,
                         np.random.default_rng(4))
        expect = proto_m.n_t * (0.5 * np.log(2 * np.pi) + np.log(1e6))
        assert_allclose(float(loss.data), expect, rtol=1e-9)

    def test_clean_voxel_gaussian_maximum(self, proto_m, constants_m):
        # q concentrated at the truth on clean data leaves zero residual, so
        # the per-tau log-likelihood sits at the Gaussian maximum exactly
        w, vol, priors = self._delta_setup(proto_m, constants_m, np.log(0.01))
        cfg = TrainingConfig.finetune_defaults(n_samples_elbo=2)
        loss = elbo_loss(w, vol, priors, proto_m, constants_m, FWD1, cfg,
                         np.random.default_rng(5))
        expect = proto_m.n_t * (0.5 * np.log(2 * np.pi) + np.log(0.01))
        assert_allclose(float(loss.data), expect, rtol=1e-6)

    def test_sample_count_consistency(self, theta16, phantom_vol, phantom_priors,
                                      proto_m, constants_m):
        singles = []
        for s in range(24):
            cfg1 = TrainingConfig.finetune_defaults(n_samples_elbo=1)
            singles.append(float(elbo_loss(
                theta16, phantom_vol, phantom_priors, proto_m, constants_m, FWD1,
                cfg1, np.random.default_rng(1000 + s)).data))
        singles = np.array(singles)
        cfg64 = TrainingConfig.finetune_defaults(n_samples_elbo=64)
        l64 = float(elbo_loss(theta16, phantom_vol, phantom_priors, proto_m, constants_m,
                              FWD1, cfg64, np.random.default_rng(77)).data)
        se = singles.std(ddof=1) / np.sqrt(singles.size)
        assert abs(l64 - singles.mean()) < 5.0 * se

    def test_sampled_kl_matches_analytic(self, theta16, phantom_vol, phantom_priors,
                                         proto_m, constants_m):
        # the training loss's analytic KL against a Monte-Carlo estimate of
        # KL(q || prior) from the detached distributions' log-densities
        shifted = PriorMaps(
            phantom_priors.mu + 0.25, phantom_priors.sigma_l_params, phantom_priors.mask
        )
        cfg = TrainingConfig.finetune_defaults(n_samples_elbo=1)
        _, parts = elbo_loss(theta16, phantom_vol, shifted, proto_m, constants_m,
                             FWD1, cfg, np.random.default_rng(5), return_parts=True)
        rows = planes_first(phantom_vol.data)[planes_first(phantom_vol.mask)]
        q = prediction_to_distribution(encoder_forward(theta16, ad.Tensor(rows)), "diagonal")
        p = ScaledLogitNormal(shifted.mu, shifted.sigma_l_params)
        sampled = kl_monte_carlo(q, p, np.random.default_rng(5), 400).mean()
        assert parts["kl"] > 0.01
        assert abs(sampled - parts["kl"]) / parts["kl"] < 0.05

    def test_misaligned_priors_error(self, theta16, phantom_vol, phantom_priors,
                                     proto_m, constants_m):
        # a valid prior for another mask: the row of voxel (0, 0, 0) dropped
        other_mask = phantom_priors.mask.copy()
        other_mask[0, 0, 0] = False
        bad = PriorMaps(phantom_priors.mu[1:], phantom_priors.sigma_l_params[1:], other_mask)
        cfg = TrainingConfig.finetune_defaults()
        with pytest.raises(ValueError, match="aligned"):
            elbo_loss(theta16, phantom_vol, bad, proto_m, constants_m, FWD1, cfg,
                      np.random.default_rng(0))

    def test_empty_mask_error(self, theta16, proto_m, constants_m):
        vol = Volume4D(np.zeros((4, 4, 1, 11)), np.zeros((4, 4, 1), dtype=bool))
        priors = compute_prior_maps(theta16, vol)
        cfg = TrainingConfig.finetune_defaults()
        with pytest.raises(ValueError, match="masked"):
            elbo_loss(theta16, vol, priors, proto_m, constants_m, FWD1, cfg,
                      np.random.default_rng(0))


class TestTvLoss:
    def test_checkerboard_hand_value(self):
        maps = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(2, 2, 1)
        assert tv_loss(maps) == 2.0

    def test_constant_map_zero(self):
        assert tv_loss(np.full((4, 5, 3), 0.7)) == 0.0

    def test_z_only_variation_zero(self):
        maps = np.zeros((4, 4, 3))
        maps[..., 1] = 1.0
        maps[..., 2] = 5.0
        assert tv_loss(maps) == 0.0

    def test_channels_sum(self):
        one = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(2, 2, 1, 1)
        two = np.concatenate([one, one], axis=-1)
        assert tv_loss(two) == 4.0

    def test_mask_drops_unpaired_differences(self):
        maps = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(2, 2, 1)
        mask = np.array([[True, False], [True, False]]).reshape(2, 2, 1)
        # only the x-difference between the two masked voxels survives
        assert tv_loss(maps, mask) == 1.0

    def test_3d_equals_single_channel_4d(self, rng):
        maps = rng.normal(size=(5, 6, 2))
        a = tv_loss(maps)
        b = tv_loss(maps[..., None])
        assert a == b

    def test_bad_rank_errors(self):
        with pytest.raises(ValueError, match="shape"):
            tv_loss(np.zeros((3, 3)))

    def test_gradient_matches_finite_differences(self, rng):
        # the gradient the loss node applies, on plane-major maps
        maps = rng.normal(size=(4, 4, 2))  # continuous values: no |x| ties
        _, grad = train._tv_planes(np.moveaxis(maps, 2, 0)[..., None], np.ones((2, 4, 4), bool))
        grad = np.moveaxis(grad[..., 0], 0, 2)
        for _ in range(6):
            idx = tuple(rng.integers(s) for s in maps.shape)
            h = 1e-6
            up = maps.copy()
            up[idx] += h
            dn = maps.copy()
            dn[idx] -= h
            fd = (tv_loss(up) - tv_loss(dn)) / (2 * h)
            assert_allclose(grad[idx], fd, rtol=1e-6, atol=1e-9)

    def test_thin_grid_is_zero(self):
        assert tv_loss(np.zeros((1, 5, 2))) == 0.0


class TestRunFinetuning:
    GATED = NetworkConfig(n_blocks=2, width=16, spatial_mode="gated-residual")

    def small_cfg(self, **kw):
        base = dict(iterations=12, batch_size=4, crop_xy=8, n_samples_elbo=1, seed=3)
        base.update(kw)
        return TrainingConfig.finetune_defaults(**base)

    def test_input_errors(self, theta16, phantom_vol, proto_m, constants_m):
        with pytest.raises(ValueError, match="volumes"):
            run_finetuning(theta16, self.GATED, self.small_cfg(), [], proto_m,
                           constants_m, FWD1)
        wrong = NetworkConfig(n_blocks=2, width=32, spatial_mode="gated-residual")
        with pytest.raises(ValueError, match="width"):
            run_finetuning(theta16, wrong, self.small_cfg(), [phantom_vol], proto_m,
                           constants_m, FWD1)

    def test_unmaskable_volume_error(self, theta16, proto_m, constants_m):
        vol = Volume4D(np.zeros((10, 10, 1, 11)), np.zeros((10, 10, 1), dtype=bool))
        with pytest.raises(ValueError, match="volume 0"):
            run_finetuning(theta16, self.GATED, self.small_cfg(), [vol], proto_m,
                           constants_m, FWD1)

    def test_seed_determinism_and_gated_output(self, theta16, phantom_vol,
                                               proto_m, constants_m):
        a = run_finetuning(theta16, self.GATED, self.small_cfg(), [phantom_vol],
                           proto_m, constants_m, FWD1)
        b = run_finetuning(theta16, self.GATED, self.small_cfg(), [phantom_vol],
                           proto_m, constants_m, FWD1)
        assert a.config.spatial_mode == "gated-residual"
        assert "block0.conv.w" in a.tensors
        for k in a.tensors:
            assert a.tensors[k].data.tobytes() == b.tensors[k].data.tobytes()

    def test_voxelwise_mode_stays_voxelwise(self, theta16, phantom_vol,
                                            proto_m, constants_m):
        vox = NetworkConfig(n_blocks=2, width=16)
        psi = run_finetuning(theta16, vox, self.small_cfg(), [phantom_vol],
                             proto_m, constants_m, FWD1)
        assert psi.config.spatial_mode == "voxelwise"
        assert set(psi.tensors) == set(theta16.tensors)

    def test_elbo_improves_from_initialization(self, theta16, phantom_vol,
                                               proto_m, constants_m):
        cfg = self.small_cfg(iterations=80, tv_lambda=1.0)
        psi = run_finetuning(theta16, self.GATED, cfg, [phantom_vol], proto_m,
                             constants_m, FWD1)
        psi0 = extend_weights(theta16, np.random.default_rng(cfg.seed))
        priors = compute_prior_maps(theta16, phantom_vol)
        eval_cfg = TrainingConfig.finetune_defaults(n_samples_elbo=8)
        l0 = float(elbo_loss(psi0, phantom_vol, priors, proto_m, constants_m, FWD1,
                             eval_cfg, np.random.default_rng(11)).data)
        l1 = float(elbo_loss(psi, phantom_vol, priors, proto_m, constants_m, FWD1,
                             eval_cfg, np.random.default_rng(11)).data)
        assert l1 < l0

    def test_tv_penalty_smooths_oef_map(self, theta16, phantom_vol, proto_m, constants_m):
        tvs = {}
        for lam in (0.0, 5.0):
            cfg = self.small_cfg(iterations=80, tv_lambda=lam)
            psi = run_finetuning(theta16, self.GATED, cfg, [phantom_vol], proto_m,
                                 constants_m, FWD1)
            x4 = np.moveaxis(phantom_vol.data, 2, 0)
            pred = encoder_forward(psi, ad.Tensor(x4))
            mu = prediction_to_distribution(pred, "diagonal").mu
            oef = np.moveaxis(forward_transform(mu)[..., 0], 0, 2)
            tvs[lam] = tv_loss(oef, phantom_vol.mask)
        assert tvs[5.0] < tvs[0.0]

    @pytest.mark.parametrize("theta_name, vol_name, cov, overrides", [
        ("theta16_full", "high_dbv_vol", "full", dict(iterations=20, seed=0)),
        ("theta16", "phantom_vol", "diagonal", dict(iterations=200, lr=0.1)),
    ], ids=["full-default-lr", "diagonal-lr0.1"])
    def test_runs_past_adams_first_step(self, theta_name, vol_name, cov, overrides, request,
                                        tmp_path, proto_m, constants_m):
        # Adam's first update moves every weight by +-lr and lifts the loss far
        # above its first value for a step; the run goes on and ends below it
        gated = NetworkConfig(n_blocks=2, width=16, spatial_mode="gated-residual",
                              covariance_mode=cov)
        cfg = self.small_cfg(**overrides)
        path = tmp_path / "ft.tsv"
        psi = run_finetuning(request.getfixturevalue(theta_name), gated, cfg,
                             [request.getfixturevalue(vol_name)], proto_m, constants_m, FWD1,
                             metrics_path=path)
        losses = logged_losses(path)
        assert len(losses) == cfg.iterations
        assert losses[1] - losses[0] > 10.0 * abs(losses[0])
        assert losses[-1] < losses[0]
        assert all(np.isfinite(t.data).all() for t in psi.tensors.values())

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @pytest.mark.parametrize("fwd", [FWD1, ForwardModelConfig()], ids=["asymptotic", "full"])
    def test_non_finite_loss_stops(self, fwd, theta16, phantom_vol, proto_m, constants_m):
        cfg = self.small_cfg(lr=1.0)
        with pytest.raises(RuntimeError, match="non-finite loss at iteration 1$"):
            run_finetuning(theta16, self.GATED, cfg, [phantom_vol], proto_m, constants_m, fwd)

    def test_metrics_file(self, tmp_path, theta16, phantom_vol, proto_m, constants_m):
        path = tmp_path / "ft.tsv"
        cfg = self.small_cfg(iterations=10)
        run_finetuning(theta16, self.GATED, cfg, [phantom_vol], proto_m, constants_m,
                       FWD1, metrics_path=path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == MetricsLog.HEADER
        assert len(lines) == 11
        first = lines[1].split("\t")
        last = lines[-1].split("\t")
        assert len(first) == 7
        assert_allclose(float(first[5]), cfg.lr, rtol=1e-9)
        assert float(last[5]) < cfg.lr
        # kl, loglik, and tv columns are populated during fine-tuning
        assert np.isfinite([float(v) for v in first[1:5]]).all()


class TestPretrainPrecision:
    # a float32 pretrain_loss against the float64 one on one batch of 256
    # noisy_dataset rows, for a width-16 network pretrained 60 steps of 64
    # rows. Measured over seeds 0-11 per covariance mode: relative loss gap
    # at most 3.2e-8, and per-tensor gradient gap at most 8.1e-6 of the
    # tensor's largest float64 entry. The bounds leave about 6x room.
    LOSS_RTOL = 2e-7
    GRAD_RTOL = 5e-5

    @pytest.mark.parametrize("cov", ["diagonal", "full"])
    def test_float32_loss_matches_float64(self, cov, noisy_dataset):
        tc = TrainingConfig.pretrain_defaults(iterations=60, batch_size=64, seed=7)
        theta = run_pretraining(NetworkConfig(width=16, covariance_mode=cov), tc, noisy_dataset)
        rows = np.random.default_rng(7).integers(0, noisy_dataset.n, 256)
        runs = {}
        for dtype in (np.float64, np.float32):
            w = theta.astype(dtype)
            pred = encoder_forward(w, ad.Tensor(noisy_dataset.signals[rows]))
            loss = pretrain_loss(pred, noisy_dataset.truths[rows])
            runs[dtype] = float(loss.data), named_gradients(w, loss)
        (loss64, grads64), (loss32, grads32) = runs[np.float64], runs[np.float32]
        assert abs(loss32 - loss64) <= self.LOSS_RTOL * abs(loss64)
        for name, g in grads64.items():
            assert grads32[name].dtype == np.float32
            assert np.abs(grads32[name] - g).max() <= self.GRAD_RTOL * np.abs(g).max(), name

    def test_pretraining_runs_float32_on_float64_master_weights(self, noisy_dataset, monkeypatch):
        step_dtypes, update_dtypes, average_dtypes = [], [], []
        collect, update, average = train.collect_gradients, train.adamw_step, train.swa_update

        def collect_spy(weights, loss):
            grad = collect(weights, loss)
            step_dtypes.extend(a.dtype for a in (*weights.arrays().values(), grad))
            return grad

        def update_spy(weights, state, grad, lr, weight_decay):
            update_dtypes.extend(a.dtype for a in (weights, state.m, state.v, grad))
            return update(weights, state, grad, lr, weight_decay)

        def average_spy(avg, current, k):
            average_dtypes.extend(a.dtype for a in (avg, current))
            return average(avg, current, k)

        monkeypatch.setattr(train, "collect_gradients", collect_spy)
        monkeypatch.setattr(train, "adamw_step", update_spy)
        monkeypatch.setattr(train, "swa_update", average_spy)
        tc = TrainingConfig.pretrain_defaults(iterations=4, batch_size=8)
        theta = run_pretraining(NetworkConfig(n_blocks=1, width=8), tc, noisy_dataset)
        n = len(theta.tensors)
        # four steps, the last two averaged; the optimizer sees flat vectors
        assert (len(step_dtypes), len(update_dtypes), len(average_dtypes)) == (4 * (n + 1), 4 * 4, 2 * 2)
        assert set(step_dtypes) == {np.dtype(np.float32)}
        assert set(update_dtypes) == set(average_dtypes) == {np.dtype(np.float64)}
        assert all(t.data.dtype == np.float64 for t in theta.tensors.values())


class TestFinetunePrecision:
    # the float32 step against the float64 one on the same draws. Measured
    # over 10 seeds per mode, both forward-model variants: relative loss gap
    # at most 1.7e-7, and per-tensor gradient gap at most 7.7e-6 of the
    # tensor's largest float64 entry. The bounds leave about 6x room.
    LOSS_RTOL = 1e-6
    GRAD_RTOL = 5e-5

    @pytest.mark.parametrize("cov", ["diagonal", "full"])
    def test_float32_step_matches_float64(self, cov, proto_m, constants_m):
        rng = np.random.default_rng(7)
        fwd = ForwardModelConfig()
        mask = np.ones((12, 12, 2), bool)
        mask[:3, :5, 0] = False
        raw = make_phantom(mask.shape, (0.4, 0.025), proto_m, constants_m, fwd, 60.0, rng, mask)
        vol, _ = normalize_volume(raw, proto_m)
        theta = init_weights(NetworkConfig(width=16, covariance_mode=cov), proto_m.n_t, rng)
        psi = extend_weights(theta, rng)
        for b in range(2):
            gate_w = psi.tensors[f"block{b}.gate.w"].data
            gate_w[:] = rng.normal(0.0, 0.3, gate_w.shape)
        priors = compute_prior_maps(theta, vol)
        cfg = TrainingConfig.finetune_defaults(n_samples_elbo=2)
        runs = {}
        for dtype in (np.float64, np.float32):
            w = psi.astype(dtype)
            loss = elbo_loss(w, vol, priors, proto_m, constants_m, fwd, cfg, np.random.default_rng(1))
            runs[dtype] = float(loss.data), named_gradients(w, loss)
        (loss64, grads64), (loss32, grads32) = runs[np.float64], runs[np.float32]
        assert abs(loss32 - loss64) <= self.LOSS_RTOL * abs(loss64)
        for name, g in grads64.items():
            assert grads32[name].dtype == np.float32
            assert np.abs(grads32[name] - g).max() <= self.GRAD_RTOL * np.abs(g).max(), name

    def test_step_runs_float32_on_float64_master_weights(self, theta16, phantom_vol, proto_m,
                                                         constants_m, monkeypatch):
        step_dtypes, update_dtypes = [], []
        collect, update = train.collect_gradients, train.adamw_step

        def collect_spy(weights, loss):
            grad = collect(weights, loss)
            step_dtypes.extend(a.dtype for a in (*weights.arrays().values(), grad))
            return grad

        def update_spy(weights, state, grad, lr, weight_decay):
            update_dtypes.extend(a.dtype for a in (weights, state.m, state.v, grad))
            return update(weights, state, grad, lr, weight_decay)

        monkeypatch.setattr(train, "collect_gradients", collect_spy)
        monkeypatch.setattr(train, "adamw_step", update_spy)
        cfg = TrainingConfig.finetune_defaults(iterations=2, batch_size=2, crop_xy=8,
                                               n_samples_elbo=1)
        gated = NetworkConfig(n_blocks=2, width=16, spatial_mode="gated-residual")
        psi = run_finetuning(theta16, gated, cfg, [phantom_vol], proto_m, constants_m, FWD1)
        n = len(psi.tensors)
        # two steps; the optimizer sees flat vectors
        assert (len(step_dtypes), len(update_dtypes)) == (2 * (n + 1), 2 * 4)
        assert set(step_dtypes) == {np.dtype(np.float32)}
        assert set(update_dtypes) == {np.dtype(np.float64)}
        assert all(t.data.dtype == np.float64 for t in psi.tensors.values())


VARIANTS = [ForwardModelConfig(variant=v, compartments=n) for v in ("full", "asymptotic") for n in (1, 2)]


def likelihood_inputs(rng, proto, n=300):
    """Normalized rows, per-tau log noise levels with a stretch of voxels
    floored at SIGMA_IM_FLOOR, and draws of (oef, dbv) inside the box."""
    x = rng.normal(-0.1, 0.05, (n, proto.n_t))
    log_sigma = rng.normal(np.log(0.03), 0.5, (n, proto.n_t))
    log_sigma[: n // 10] = np.log(SIGMA_IM_FLOOR) - 3.0
    return x, log_sigma, rng.uniform(0.05, 0.9, n), rng.uniform(0.005, 0.15, n)


def posterior_rows(rng, n, cov):
    """Logit means and factors in the layout of cholesky_entries, whose
    draws stay well inside the box."""
    return rng.normal(0.0, 0.5, (n, 2)), rng.normal(-1.0, 0.2, (n, 3 if cov == "full" else 2))


def composed_run(x, log_sigma, mu0, p0, noise, model_args, g=None):
    """The composed oracle on the given draws' noise: its value and the
    gradients of sum(g * value) in mu, the factor layout and the log noise
    levels."""
    mu, p, ls = ad.Tensor(mu0.copy()), ad.Tensor(p0.copy()), ad.Tensor(log_sigma.copy())
    ll = composed_expected_loglik(x, ls, mu, *composed_cholesky(p), noise, *model_args)
    ad.backward(ad.tsum(ll if g is None else ll * g))
    return ll.data, mu.grad, p.grad, ls.grad


def loglik_runs(x, log_sigma, mu, p, model_args, n, g=None):
    """expected_loglik and its composed oracle on the same n draws, each as
    composed_run returns it, and the draws' noise."""
    ll, *grads = train.expected_loglik(x, log_sigma, mu, p,
                                       lambda o, d: normalized_model_signal_t(o, d, *model_args),
                                       np.random.default_rng(5), n)
    g = np.ones(ll.shape) if g is None else g
    draws = np.random.default_rng(5)
    noise = [draws.standard_normal(mu.shape) for _ in range(n)]
    return ((ll, *(g[:, None] * d for d in grads)), composed_run(x, log_sigma, mu, p, noise, model_args, g),
            noise)


def held_arrays(node):
    """The arrays a node keeps: its value and the arrays in its vjp's closure."""
    cells = node._vjp.__closure__ or () if node._vjp is not None else ()
    return [node.data] + [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


def gated_step_inputs(proto, grid, mask=None, width=8):
    """A float32 gated network with open gates, a batch on grid with its mask
    (all voxels by default) and prior rows for the masked voxels."""
    rng = np.random.default_rng(4)
    cfg = NetworkConfig(width=width, covariance_mode="full")
    psi = extend_weights(init_weights(cfg, proto.n_t, rng), rng)
    for b in range(cfg.n_blocks):
        gate_w = psi.tensors[f"block{b}.gate.w"].data
        gate_w[:] = rng.normal(0.0, 0.3, gate_w.shape)
    mask = np.ones(grid, bool) if mask is None else mask
    n = int(mask.sum())
    prior_mu = rng.normal(0.0, 1.0, (n, 2))
    prior_params = rng.normal(0.0, 0.3, (n, 3))
    x = rng.normal(-0.1, 0.05, grid + (proto.n_t,))
    return psi.astype(np.float32), x, mask, prior_mu, prior_params


class TestLikelihoodNode:
    # expected_loglik's value and its row gradients, which apply the model's
    # partials, the likelihood's gradient, the box map's slope and L z,
    # against the same mean over draws composed of elementary tape ops

    @pytest.mark.parametrize("fwd", VARIANTS, ids=lambda f: f"{f.variant}-{f.compartments}")
    def test_gradients_match_the_composed_oracle(self, fwd, proto_m, constants_m):
        # the gradients in mu and the factor are held to 1e-12 of the sum of
        # the draws' magnitudes, the oracle run one draw at a time: that is
        # |oracle| for one draw, and for several wherever the draws' terms
        # share a sign. The log-sigma gradient sums res^2 and -1 per draw,
        # which cancel near res^2 = 1, so it is held to 1e-12 of the size
        # of those terms (loglik_term_sizes)
        rng = np.random.default_rng(11)
        x, log_sigma, _, _ = likelihood_inputs(rng, proto_m)
        g = rng.normal(size=x.shape[0])
        args = (proto_m, constants_m, fwd)
        for cov in ("diagonal", "full"):
            mu, p = posterior_rows(rng, x.shape[0], cov)
            for n in (1, 3):
                (ll, *grads), (ll_ref, *grads_ref), noise = loglik_runs(x, log_sigma, mu, p, args, n, g)
                assert ll.tobytes() == ll_ref.tobytes(), (cov, n)
                per_draw = [composed_run(x, log_sigma, mu, p, [z], args, g / n)[1:] for z in noise]
                sizes = loglik_term_sizes(x, log_sigma, mu, p, noise, args)
                for k, (got, ref) in enumerate(zip(grads, grads_ref)):
                    scale = sum(np.abs(d[k]) for d in per_draw) if k < 2 else np.abs(g)[:, None] * sizes[k]
                    worst = np.max(np.abs(got - ref) / np.where(scale > 0, scale, 1.0))
                    assert np.all(np.abs(got - ref) <= 1e-12 * scale), (cov, n, k, worst)
                floor = np.exp(log_sigma) <= SIGMA_IM_FLOOR
                assert floor.any() and not np.any(grads[2][floor])

    @pytest.mark.parametrize("cov", ["diagonal", "full"])
    def test_expected_loglik_matches_the_composed_draws(self, cov, proto_m, constants_m):
        # three draws: same value bytes, the gradients of mu, the factor and
        # the noise head within 1e-12 of the size of the terms summed into
        # each (loglik_term_sizes)
        rng = np.random.default_rng(12)
        x, log_sigma, _, _ = likelihood_inputs(rng, proto_m)
        mu, p = posterior_rows(rng, x.shape[0], cov)
        args = (proto_m, constants_m, ForwardModelConfig())
        (ll, *grads), (ll_ref, *grads_ref), noise = loglik_runs(x, log_sigma, mu, p, args, 3)
        assert ll.tobytes() == ll_ref.tobytes()
        for got, ref, size in zip(grads, grads_ref, loglik_term_sizes(x, log_sigma, mu, p, noise, args)):
            assert np.all(np.abs(got - ref) <= 1e-12 * size)

    @pytest.mark.parametrize("fwd", VARIANTS, ids=lambda f: f"{f.variant}-{f.compartments}")
    def test_nan_oef_stays_in_its_row(self, fwd, proto_m, constants_m):
        # a diverged OEF logit must reach the non-finite-loss check, and only
        # its own row's value and gradients turn NaN
        rng = np.random.default_rng(13)
        x, log_sigma, _, _ = likelihood_inputs(rng, proto_m, n=6)
        mu, p = posterior_rows(rng, 6, "full")
        bad = mu.copy()
        bad[2, 0] = np.nan
        runs = [loglik_runs(x, log_sigma, m, p, (proto_m, constants_m, fwd), 3)[0]
                for m in (mu, bad)]
        keep = [0, 1, 3, 4, 5]
        for clean, got in zip(*runs):
            assert np.all(np.isnan(got[2]))
            assert got[keep].tobytes() == clean[keep].tobytes()
        assert not np.isfinite(runs[1][0].sum())

    def test_one_node_on_sigma_for_any_draw_count(self, proto_m, constants_m):
        # the tape of the step's loss: the loss node is the one node on the
        # heads, and the same nodes and the same (masked voxels, taus)
        # arrays are held for 1 and 3 draws
        mask = np.ones((2, 7, 6), bool)
        mask[0, :3, :2] = False
        psi, x, mask, prior_mu, prior_params = gated_step_inputs(proto_m, mask.shape, mask)
        shape = (int(mask.sum()), proto_m.n_t)
        counts = {}
        for n_draws in (1, 3):
            cfg = TrainingConfig.finetune_defaults(n_samples_elbo=n_draws)
            loss = train._elbo_core(psi, x, mask, prior_mu, prior_params, proto_m, constants_m,
                                    ForwardModelConfig(), cfg, cfg.tv_lambda, np.random.default_rng(1))[0]
            nodes = tape_nodes(loss)
            (heads,) = loss._parents
            assert heads.data.shape == mask.shape + (2 + 3 + proto_m.n_t,)
            assert [n for n in nodes if any(p is heads for p in n._parents)] == [loss]
            held = {id(a) for n in nodes for a in held_arrays(n)
                    if a.shape == shape and a.dtype == np.float64}
            counts[n_draws] = (len(nodes), len(held))
        assert counts[1] == counts[3], counts

    def test_tape_memory_does_not_grow_with_the_draws(self, constants_m):
        # the tracemalloc peak of a step's ELBO and backward, 2 against 8
        # draws, per added draw, measured at two tau counts: the part that
        # scales with them is counted in (masked voxels, taus) float64
        # arrays, the rest in (masked voxels,) float64 vectors. Measured:
        # 0 and 0; a tape node per draw held 1.0 and about 18.
        fwd = ForwardModelConfig()

        def growth(proto):
            psi, x, mask, prior_mu, prior_params = gated_step_inputs(proto, (4, 25, 25))

            def peak(n_draws):
                cfg = TrainingConfig.finetune_defaults(n_samples_elbo=n_draws)
                tracemalloc.start()
                try:
                    loss = train._elbo_core(psi, x, mask, prior_mu, prior_params, proto,
                                            constants_m, fwd, cfg, 0.0, np.random.default_rng(1))[0]
                    collect_gradients(psi, loss)
                    del loss
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

            peak(1)  # the kernel table and any lazy set-up, outside the measure
            return (peak(8) - peak(2)) / 6 / (mask.sum() * 8)  # float64 vectors per draw

        short = AcquisitionProtocol()
        long = AcquisitionProtocol(tau=tuple(np.round(np.arange(-16, 72, 4) * 1e-3, 6)))
        grow_short = growth(short)
        per_tau = (growth(long) - grow_short) / (long.n_t - short.n_t)
        per_row = grow_short - per_tau * short.n_t
        assert per_tau <= 0.25 and per_row <= 3.0, (per_tau, per_row)


def loss_inputs(proto, constants, cov, partial):
    """Float64 heads (mu_l, sigma_l_params, log_sigma_im side by side, as
    the encoder's heads tensor holds them) on a (2, 3, 4) plane grid, rows
    x, a mask (every voxel, or all but three) and prior rows of its voxels.
    The first masked row's diagonal is its prior's times exp(5e-9): both of
    its KL log groups round to 0 and are clamped, while m^2 - 1 is 1e-8;
    voxels (0, 1, 1) and (0, 1, 2) share their mean logits, a tied TV
    difference; the noise levels of voxel (1, 1, 1) are floored, and its
    row is the model signal at its mean under a narrow factor, so its
    residuals stay small."""
    rng = np.random.default_rng(21)
    grid, k = (2, 3, 4), 3 if cov == "full" else 2
    mask = np.ones(grid, bool)
    if partial:
        mask[0, 0, :2] = mask[1, 2, 3] = False
    mu_l = rng.normal(0.0, 0.5, grid + (2,))
    mu_l[0, 1, 2] = mu_l[0, 1, 1]
    p = np.concatenate([rng.normal(-1.0, 0.2, grid + (2,)), rng.normal(0.0, 0.3, grid + (k - 2,))], axis=-1)
    log_sigma = rng.normal(np.log(0.03), 0.3, grid + (proto.n_t,))
    x = rng.normal(-0.1, 0.05, grid + (proto.n_t,))
    log_sigma[1, 1, 1] = np.log(SIGMA_IM_FLOOR) - 3.0
    p[1, 1, 1, :2] = -8.0
    x[1, 1, 1] = normalized_model_signal(*forward_transform(mu_l[1, 1, 1]), proto, constants, ForwardModelConfig())
    n = int(mask.sum())
    prior_mu = rng.normal(0.0, 1.0, (n, 2))
    prior_params = np.concatenate([rng.normal(-0.8, 0.3, (n, 2)), rng.normal(0.0, 0.3, (n, k - 2))], axis=-1)
    prior_params[0, :2] = -1.0, -1.1
    p[tuple(np.argwhere(mask)[0])][:2] = prior_params[0, :2] + 5e-9
    return np.concatenate([mu_l, p, log_sigma], axis=-1), x, mask, prior_mu, prior_params


LOSS_CASES = [(cov, partial, lam) for cov in ("diagonal", "full") for partial in (False, True) for lam in (0.0, 5.0)]


def loss_case_id(case):
    cov, partial, lam = case
    return f"{cov}-{'partial' if partial else 'full'}-mask-tv{lam:g}"


class TestLossNode:
    # the fine-tune loss past the encoder is one tape node on the heads
    # tensor: its value, its closed-form gradient and its place on the tape

    @pytest.mark.parametrize("case", LOSS_CASES, ids=loss_case_id)
    def test_gradients_match_central_differences(self, case, proto_m, constants_m):
        # every element of the heads, float64, the draws replayed on both
        # sides; a clamped log group, a tied difference and the floor have
        # zero slope on both sides of the step, as the node's gradient
        cov, partial, lam = case
        heads, x, mask, prior_mu, prior_params = loss_inputs(proto_m, constants_m, cov, partial)
        args = (proto_m, constants_m, ForwardModelConfig())
        loss = lambda a: loss_node(ad.Tensor(a), x, mask, prior_mu, prior_params, args, 2, lam, 3)[0]

        out = loss(heads)
        ad.backward(out)
        grad = out._parents[0].grad
        for ix in np.ndindex(heads.shape):
            step = 1e-5 * max(1.0, abs(heads[ix]))
            vals = []
            for sign in (1.0, -1.0):
                shifted = heads.copy()
                shifted[ix] += sign * step
                vals.append(float(loss(shifted).data))
            fd = (vals[0] - vals[1]) / (2.0 * step)
            assert abs(fd - grad[ix]) <= 1e-6 * max(1.0, abs(grad[ix])), (ix, fd, grad[ix])

    @pytest.mark.parametrize("case", LOSS_CASES, ids=loss_case_id)
    def test_matches_the_composed_oracle(self, case, proto_m, constants_m):
        # the value and its parts byte-equal, the gradients within 1e-12 of
        # the size of the terms summed into each element (loss_term_sizes)
        cov, partial, lam = case
        heads, x, mask, prior_mu, prior_params = loss_inputs(proto_m, constants_m, cov, partial)
        n_cov = 3 if cov == "full" else 2
        args = (proto_m, constants_m, ForwardModelConfig())
        node_heads, ref_heads = ad.Tensor(heads), ad.Tensor(heads)
        loss, kl_mean, ll_mean, tv = loss_node(node_heads, x, mask, prior_mu, prior_params, args, 3, lam, 4)
        draws = np.random.default_rng(4)
        noise = [draws.standard_normal((int(mask.sum()), 2)) for _ in range(3)]
        ref = composed_loss(head_slices(ref_heads, n_cov), x, mask, prior_mu, prior_params, noise, args, lam)
        assert loss.data.tobytes() == ref.data.tobytes()
        parts = np.split(heads, [2, 2 + n_cov], axis=-1)
        assert tv == composed_tv(ad.Tensor(parts[0]), mask).data
        ref_kl = composed_kl(*(ad.Tensor(a[mask]) for a in parts[:2]), prior_mu, prior_params)
        assert kl_mean == ad.tsum(ref_kl).data * (1.0 / mask.sum())
        assert loss.data == (kl_mean - ll_mean + lam * tv if lam else kl_mean - ll_mean)
        ad.backward(loss)
        ad.backward(ref)
        size = np.concatenate(loss_term_sizes(parts, x, mask, prior_mu, prior_params, noise, args, lam), axis=-1)
        assert np.all(np.abs(node_heads.grad - ref_heads.grad) <= 1e-12 * size)
        assert not np.any(node_heads.grad[1, 1, 1, 2 + n_cov :])

    def test_a_finetune_step_records_four_tape_nodes(self, theta16, phantom_vol, proto_m,
                                                      constants_m, monkeypatch):
        # two gated blocks, the heads and the loss node on them
        seen = []

        def grab(weights, loss):
            seen.append(loss)
            return collect_gradients(weights, loss)

        monkeypatch.setattr(train, "collect_gradients", grab)
        cfg = TrainingConfig.finetune_defaults(iterations=1, batch_size=2, crop_xy=8, n_samples_elbo=2)
        gated = NetworkConfig(n_blocks=2, width=16, spatial_mode="gated-residual")
        run_finetuning(theta16, gated, cfg, [phantom_vol], proto_m, constants_m, FWD1)
        (loss,) = seen
        inner = [n for n in tape_nodes(loss) if n._parents]
        assert len(inner) == 4
        (heads,) = loss._parents
        assert heads.data.shape[-1] == 2 + 2 + proto_m.n_t


class TestFullMaskRows:
    def test_full_mask_takes_views_with_identical_results(self, proto_m, constants_m,
                                                          monkeypatch):
        # every voxel masked: the rows are a reshape of the grid and back,
        # views of a contiguous array, and the loss and gradients are
        # byte-identical to gathering the rows by the mask and scattering
        # them back
        psi, x, mask, prior_mu, prior_params = gated_step_inputs(proto_m, (3, 6, 5))
        cfg = TrainingConfig.finetune_defaults(n_samples_elbo=2)
        rows = train._masked_rows(x, mask)
        assert np.shares_memory(rows, x) and np.shares_memory(train._grid_rows(rows, mask), x)

        def step():
            loss = train._elbo_core(psi, x, mask, prior_mu, prior_params, proto_m, constants_m,
                                    ForwardModelConfig(), cfg, cfg.tv_lambda, np.random.default_rng(1))[0]
            return loss.data.tobytes(), named_gradients(psi, loss)

        def scatter(rows, m):
            out = np.zeros(m.shape + rows.shape[-1:])
            out[m] = rows
            return out

        loss, grads = step()
        monkeypatch.setattr(train, "_masked_rows", lambda a, m: a[m])
        monkeypatch.setattr(train, "_grid_rows", scatter)
        loss_ref, grads_ref = step()
        assert loss == loss_ref
        for name, g in grads_ref.items():
            assert grads[name].tobytes() == g.tobytes(), name
