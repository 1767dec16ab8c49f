"""Map-making and statistics tests: the per-voxel ELBO map against the
training loss (dual route), masked-only evaluation against a full-grid
reference, encoder passes that only read values keeping no tape, WLS
self-inversion on matched data, region summaries, and paired t-statistics
against scipy."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from conftest import (
    chol_params,
    composed_cholesky,
    composed_expected_loglik,
    composed_kl,
    head_slices,
    loss_node,
    loss_term_sizes,
    quad_std,
)
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import IntegrationWarning

from oximap import analysis, train
from oximap import autodiff as ad
from oximap.analysis import (
    MAP_FIELDS,
    InferenceConfig,
    ParamMaps,
    elbo_map,
    infer_maps,
    marginal_std,
    paired_tstat,
    region_stats,
    wls_fit,
)
from oximap.distributions import (
    ScaledLogitNormal,
    cholesky_entries,
    forward_transform,
    kl_analytic,
    neg_log_density,
)
from oximap.nnet import (
    NetworkConfig,
    encoder_forward,
    extend_weights,
    init_weights,
    load_checkpoint,
    prediction_to_distribution,
    save_checkpoint,
)
from oximap.physics import (
    AcquisitionProtocol,
    ForwardModelConfig,
    PhysioConstants,
    delta_omega,
    normalized_model_signal,
)
from oximap.synthgen import PRIOR_PRESETS, NoiseProfile, generate_dataset, make_phantom
from oximap.train import (
    TrainingConfig,
    compute_prior_maps,
    elbo_loss,
    run_pretraining,
    tv_loss,
)
from oximap.volume import Volume4D, normalize_volume

FWD1 = ForwardModelConfig(variant="asymptotic", compartments=1)


@pytest.fixture(scope="module")
def proto_m():
    return AcquisitionProtocol()


@pytest.fixture(scope="module")
def constants_m():
    return PhysioConstants()


@pytest.fixture(scope="module")
def theta16(proto_m, constants_m):
    ds = generate_dataset(3000, PRIOR_PRESETS["normal"], proto_m, constants_m, FWD1,
                          NoiseProfile(), np.random.default_rng(100))
    cfg = NetworkConfig(n_blocks=2, width=16)
    tc = TrainingConfig.pretrain_defaults(iterations=300, batch_size=128, seed=5)
    return run_pretraining(cfg, tc, ds)


@pytest.fixture(scope="module")
def phantom_vol(proto_m, constants_m):
    ph = make_phantom((16, 16, 2), (0.4, 0.025), proto_m, constants_m, FWD1, 60.0,
                      np.random.default_rng(55))
    vol, _ = normalize_volume(ph, proto_m)
    return vol


@pytest.fixture(scope="module")
def phantom_priors(theta16, phantom_vol):
    return compute_prior_maps(theta16, phantom_vol)


def tiny_maps(oef, dbv=None, elbo=None, mask=None, source="vi"):
    """Hand-built ParamMaps over the shape of `oef` for statistics tests."""
    oef = np.asarray(oef, dtype=np.float64)
    dbv = np.full(oef.shape, 0.03) if dbv is None else np.asarray(dbv, float)
    elbo = np.zeros(oef.shape) if elbo is None else np.asarray(elbo, float)
    mask = np.ones(oef.shape, bool) if mask is None else mask
    return ParamMaps(
        oef_point=oef, dbv_point=dbv, r2p_point=np.zeros(oef.shape),
        oef_std=np.zeros(oef.shape), dbv_std=np.zeros(oef.shape),
        elbo=elbo, source=source, mask=mask,
    )


class TestParamMaps:
    def test_validation(self):
        with pytest.raises(ValueError, match="source"):
            tiny_maps(np.zeros((2, 2, 1)), source="guess")
        with pytest.raises(ValueError, match="grid"):
            ParamMaps(
                oef_point=np.zeros((2, 2, 2)), dbv_point=np.zeros((2, 2, 1)),
                r2p_point=np.zeros((2, 2, 1)), oef_std=np.zeros((2, 2, 1)),
                dbv_std=np.zeros((2, 2, 1)), elbo=np.zeros((2, 2, 1)),
                source="vi", mask=np.ones((2, 2, 1), bool),
            )
        bad_std = np.zeros((2, 2, 1))
        bad_std[0, 0, 0] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            ParamMaps(
                oef_point=np.zeros((2, 2, 1)), dbv_point=np.zeros((2, 2, 1)),
                r2p_point=np.zeros((2, 2, 1)), oef_std=bad_std,
                dbv_std=np.zeros((2, 2, 1)), elbo=np.zeros((2, 2, 1)),
                source="vi", mask=np.ones((2, 2, 1), bool),
            )

    def test_inference_config_validation(self):
        with pytest.raises(ValueError, match="n_elbo_samples"):
            InferenceConfig(n_elbo_samples=0)
        with pytest.raises(ValueError, match="source"):
            InferenceConfig(source="mle")


class TestElboMap:
    @pytest.mark.parametrize("cov", ["diagonal", "full"])
    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_masked_mean_equals_negative_training_loss(
        self, theta16, phantom_vol, phantom_priors, proto_m, constants_m, n, cov
    ):
        # the map route (no tape) and the training route (autodiff tape)
        # must agree exactly when driven by identical generator draws; the
        # map runs a float32 copy of the network, as a fine-tune step does;
        # the fresh full-covariance network meets theta16's priors, so its KL is not zero
        net = theta16 if cov == "diagonal" else init_weights(
            NetworkConfig(n_blocks=2, width=16, covariance_mode=cov), proto_m.n_t,
            np.random.default_rng(1))
        m = elbo_map(net, phantom_vol, phantom_priors, proto_m, constants_m,
                     FWD1, np.random.default_rng(7), n_samples=n)
        cfg = TrainingConfig.finetune_defaults(n_samples_elbo=n)
        loss = float(elbo_loss(net.astype(np.float32), phantom_vol, phantom_priors, proto_m,
                               constants_m, FWD1, cfg, np.random.default_rng(7)).data)
        assert abs(np.nanmean(m[phantom_vol.mask]) + loss) < 1e-8

    def test_nan_outside_mask(self, theta16, proto_m, constants_m, rng):
        data = rng.normal(-0.1, 0.05, (4, 4, 1, 11))
        mask = np.zeros((4, 4, 1), bool)
        mask[1:3, 1:3, 0] = True
        vol = Volume4D(data, mask)
        priors = compute_prior_maps(theta16, vol)
        m = elbo_map(theta16, vol, priors, proto_m, constants_m, FWD1,
                     np.random.default_rng(0), 4)
        assert np.isnan(m[~mask]).all()
        assert np.isfinite(m[mask]).all()

    @pytest.mark.parametrize("fwd", [ForwardModelConfig(), FWD1], ids=["full", "asymptotic"])
    def test_empty_mask_gives_all_nan(self, theta16, proto_m, constants_m, fwd):
        # zero masked rows run the same code as any other count
        vol = Volume4D(np.zeros((3, 3, 2, 11)), np.zeros((3, 3, 2), bool))
        m = elbo_map(theta16, vol, compute_prior_maps(theta16, vol), proto_m, constants_m, fwd,
                     np.random.default_rng(0), 4)
        assert m.shape == vol.grid_shape and np.isnan(m).all()

    def test_artifact_voxels_score_low(self, theta16, phantom_vol, proto_m, constants_m):
        rng = np.random.default_rng(3)
        data = phantom_vol.data.copy()
        art = np.zeros(phantom_vol.grid_shape, bool)
        art[2:6, 2:6, 0] = True
        data[art] += rng.normal(0.0, 0.3, (int(art.sum()), proto_m.n_t))
        vol = Volume4D(data, phantom_vol.mask)
        priors = compute_prior_maps(theta16, vol)
        m = elbo_map(theta16, vol, priors, proto_m, constants_m, FWD1,
                     np.random.default_rng(7), 16)
        clean = m[vol.mask & ~art]
        assert m[art].mean() < clean.mean() - 2.0 * clean.std()

    def test_more_samples_stabilize_the_mean(self, theta16, phantom_vol, phantom_priors,
                                             proto_m, constants_m):
        def mean_at(n, seed):
            m = elbo_map(theta16, phantom_vol, phantom_priors, proto_m, constants_m,
                         FWD1, np.random.default_rng(seed), n)
            return np.nanmean(m[phantom_vol.mask])

        d16 = abs(mean_at(16, 10) - mean_at(16, 11))
        d128 = abs(mean_at(128, 10) - mean_at(128, 11))
        assert d128 < d16

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_draw(self, theta16, phantom_vol, phantom_priors,
                                         proto_m, constants_m, n):
        with pytest.raises(ValueError, match="n_samples"):
            elbo_map(theta16, phantom_vol, phantom_priors, proto_m, constants_m, FWD1,
                     np.random.default_rng(0), n)

    def test_misaligned_priors_error(self, theta16, phantom_vol, phantom_priors,
                                     proto_m, constants_m):
        from oximap.train import PriorMaps

        # a valid prior for another mask: the row of voxel (0, 0, 0) dropped
        bad_mask = phantom_priors.mask.copy()
        bad_mask[0, 0, 0] = False
        bad = PriorMaps(phantom_priors.mu[1:], phantom_priors.sigma_l_params[1:], bad_mask)
        with pytest.raises(ValueError, match="aligned"):
            elbo_map(theta16, phantom_vol, bad, proto_m, constants_m, FWD1,
                     np.random.default_rng(0))


class TestInferMaps:
    def test_point_maps_transform_the_logit_mean(self, theta16, phantom_vol, constants_m,
                                                 proto_m):
        cfg = InferenceConfig(forward=FWD1, n_elbo_samples=2)
        maps = infer_maps(theta16, phantom_vol, cfg)
        x = np.moveaxis(phantom_vol.data, 2, 0)
        # the maps come from a float32 copy of the network
        pred = encoder_forward(theta16.astype(np.float32), ad.Tensor(x))
        mu = prediction_to_distribution(pred, "diagonal").mu
        point = np.moveaxis(forward_transform(mu), 0, 2)
        mask = phantom_vol.mask
        assert_allclose(maps.oef_point[mask], point[..., 0][mask], rtol=0, atol=0)
        assert_allclose(maps.dbv_point[mask], point[..., 1][mask], rtol=0, atol=0)
        r2p = point[..., 1] * delta_omega(point[..., 0], constants_m, proto_m.b0)
        assert_allclose(maps.r2p_point[mask], r2p[mask], rtol=1e-12)

    def test_std_and_mc_maps(self, theta16, phantom_vol):
        cfg = InferenceConfig(forward=FWD1, n_elbo_samples=2)
        maps = infer_maps(theta16, phantom_vol, cfg)
        mask = phantom_vol.mask
        assert (maps.oef_std[mask] > 0).all()
        assert (maps.dbv_std[mask] > 0).all()
        assert np.isfinite(maps.elbo[mask]).all()
        std = marginal_std(analysis._masked_posterior(theta16, phantom_vol)[0])
        assert np.array_equal(maps.oef_std, analysis._scatter(std[:, 0], phantom_vol), equal_nan=True)
        assert np.array_equal(maps.dbv_std, analysis._scatter(std[:, 1], phantom_vol), equal_nan=True)

    def test_seed_determinism(self, theta16, phantom_vol):
        cfg = InferenceConfig(forward=FWD1, n_elbo_samples=2, seed=9)
        a = infer_maps(theta16, phantom_vol, cfg)
        b = infer_maps(theta16, phantom_vol, cfg)
        assert a.oef_std[phantom_vol.mask].tobytes() == b.oef_std[phantom_vol.mask].tobytes()
        assert a.elbo[phantom_vol.mask].tobytes() == b.elbo[phantom_vol.mask].tobytes()

    def test_empty_mask_gives_all_nan(self, theta16):
        vol = Volume4D(np.zeros((3, 3, 1, 11)), np.zeros((3, 3, 1), bool))
        maps = infer_maps(theta16, vol, InferenceConfig(forward=FWD1))
        for arr in (maps.oef_point, maps.dbv_point, maps.r2p_point, maps.oef_std,
                    maps.dbv_std, maps.elbo):
            assert np.isnan(arr).all()

    def test_gated_network_needs_prior_weights(self, theta16, phantom_vol):
        psi = extend_weights(theta16, np.random.default_rng(0))
        cfg = InferenceConfig(forward=FWD1, n_elbo_samples=2)
        with pytest.raises(ValueError, match="prior_weights"):
            infer_maps(psi, phantom_vol, cfg)
        ok = InferenceConfig(forward=FWD1, n_elbo_samples=2,
                             prior_weights=theta16, source="vi+tv")
        maps = infer_maps(psi, phantom_vol, ok)
        assert maps.source == "vi+tv"
        assert np.isfinite(maps.elbo[phantom_vol.mask]).all()

    def test_recovers_phantom_truth(self, theta16, phantom_vol):
        maps = infer_maps(theta16, phantom_vol, InferenceConfig(forward=FWD1,
                                                                n_elbo_samples=2))
        assert abs(np.nanmean(maps.oef_point) - 0.4) < 0.07
        assert abs(np.nanmean(maps.dbv_point) - 0.025) < 0.01

    def test_checkpoint_round_trip_gives_identical_maps(self, theta16, phantom_vol, tmp_path):
        # checkpoints store float32 and every library encoder pass runs a
        # float32 copy, so a network and its reloaded checkpoint agree bit for bit
        psi = extend_weights(theta16, np.random.default_rng(3))
        for b in range(2):
            gate_w = psi.tensors[f"block{b}.gate.w"].data
            gate_w[:] = np.random.default_rng(b).normal(0.0, 0.3, gate_w.shape)
        nets = {}
        for name, w in (("theta", theta16), ("psi", psi)):
            save_checkpoint(w, tmp_path / f"{name}.ckpt")
            nets[name] = load_checkpoint(tmp_path / f"{name}.ckpt")
        before = compute_prior_maps(theta16, phantom_vol)
        after = compute_prior_maps(nets["theta"], phantom_vol)
        assert before.mu.tobytes() == after.mu.tobytes()
        assert before.sigma_l_params.tobytes() == after.sigma_l_params.tobytes()
        maps = [
            infer_maps(p, phantom_vol, InferenceConfig(forward=FWD1, n_elbo_samples=2, prior_weights=t))
            for p, t in ((psi, theta16), (nets["psi"], nets["theta"]))
        ]
        for attr in MAP_FIELDS.values():
            assert getattr(maps[0], attr).tobytes() == getattr(maps[1], attr).tobytes(), attr


def std_grid():
    """Logit means in [-8, 8] and logit stds in [1e-3, 8], the oef mean
    mirrored for dbv; the dbv scale is split over l10 and l11, so the
    full-covariance path is exercised. Returns (mu, s, distribution)."""
    mu, s = (g.ravel() for g in np.meshgrid(np.linspace(-8, 8, 9), np.geomspace(1e-3, 8, 9)))
    chol = np.zeros(s.shape + (2, 2))
    chol[:, 0, 0] = s
    chol[:, 1, 0] = 0.6 * s
    chol[:, 1, 1] = 0.8 * s
    return mu, s, ScaledLogitNormal(np.stack([mu, -mu], axis=-1), chol_params(chol))


class TestMarginalStd:
    @pytest.mark.filterwarnings("ignore", category=IntegrationWarning)
    def test_matches_adaptive_quadrature(self):
        mu, s, dist = std_grid()
        ref = np.array([[quad_std(m, v, 0), quad_std(-m, v, 1)] for m, v in zip(mu, s)])
        assert_allclose(marginal_std(dist), ref, rtol=1e-6, atol=0)

    def test_tanh_form_matches_the_box_map_rule(self):
        # the same nodes and weights through forward_transform, the box map
        # itself: only the rounding of the logistic's tanh form may differ
        # (the dbv scale hypot(0.6 s, 0.8 s) is s up to rounding)
        mu, s, dist = std_grid()
        scale = np.stack([s, s], axis=-1)
        beta = np.stack([mu, -mu], axis=-1)[..., None] + scale[..., None] * analysis._STD_NODES
        y = forward_transform(beta.swapaxes(1, 2)).swapaxes(1, 2)
        y -= (y @ analysis._STD_WEIGHTS)[..., None]
        ref = np.sqrt((y * y) @ analysis._STD_WEIGHTS)
        assert_allclose(marginal_std(dist), ref, rtol=1e-10, atol=0)

    def test_one_block_holds_one_node_array(self):
        n = 1631
        chol = np.zeros((n, 2, 2))
        chol[:, 0, 0] = chol[:, 1, 1] = 0.5
        dist = ScaledLogitNormal(np.random.default_rng(0).normal(0.0, 1.0, (n, 2)), chol_params(chol))
        tracemalloc.start()
        try:
            marginal_std(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        node_array = n * 2 * analysis._STD_NODES.size * 8
        assert n <= analysis.STD_BLOCK
        assert peak <= 1.25 * node_array, (peak, node_array)

    @settings(max_examples=25)
    @given(
        mu=st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
        l00=st.floats(0.02, 3.0),
        l10=st.floats(-3.0, 3.0),
        l11=st.floats(0.02, 3.0),
        angle=st.floats(0.05, 1.5),
    )
    def test_agrees_with_draws_and_reads_dbv_through_hypot(self, mu, l00, l10, l11, angle):
        dist = ScaledLogitNormal(mu, chol_params([[l00, 0.0], [l10, l11]]))
        std = marginal_std(dist)
        h = np.hypot(l10, l11)
        turned = ScaledLogitNormal(mu, chol_params([[l00, 0.0], [h * np.cos(angle), h * np.sin(angle)]]))
        assert_allclose(marginal_std(turned), std, rtol=1e-12)
        n = 40_000
        y = dist.sample(np.random.default_rng(0), n)
        c = y - y.mean(axis=0)
        var = (c * c).mean(axis=0)
        # standard error of a sample std: sqrt(m4 - var^2) / (2 std sqrt(n))
        se = np.sqrt(((c**4).mean(axis=0) - var**2) / n) / (2.0 * np.sqrt(var))
        assert np.all(np.abs(y.std(axis=0, ddof=1) - std) <= 5.0 * se), (std, se)

    def test_memory_does_not_grow_with_the_voxel_count(self):
        def peak(n):
            chol = np.zeros((n, 2, 2))
            chol[:, 0, 0] = chol[:, 1, 1] = 0.5
            dist = ScaledLogitNormal(np.random.default_rng(0).normal(0.0, 1.0, (n, 2)), chol_params(chol))
            tracemalloc.start()
            try:
                marginal_std(dist)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # only per-voxel arrays grow with n: the (n, 2) scales and result and
        # the two diagonal entries of L, 48 bytes a voxel
        small, large = peak(2 * analysis.STD_BLOCK), peak(8 * analysis.STD_BLOCK)
        assert large < 1.1 * small, (small, large)


def full_grid_loss(heads, x, mask, prior_mu, prior_params, proto, constants, fwd, n_draws, rng):
    """Reference negative ELBO on the head tensors (mu_l, sigma_l_params,
    log_sigma_im): every grid voxel goes through the KL, the draws, the
    forward model and the composed likelihood, then a 0/1 mask weights the
    sums. Same generator calls as the training loss: each draw's noise per
    masked row, and none off the mask. Returns the loss and the draws'
    noise on the masked rows."""
    mu, p, log_sigma = heads
    kl = composed_kl(mu, p, prior_mu, prior_params)
    noise = []
    for _ in range(n_draws):
        z = np.zeros(mask.shape + (2,))
        z[mask] = rng.standard_normal((int(mask.sum()), 2))
        noise.append(z)
    ll = composed_expected_loglik(x, log_sigma, mu, *composed_cholesky(p), noise, proto, constants, fwd)
    w = mask.astype(np.float64) / mask.sum()
    return ad.tsum(kl * w) - ad.tsum(ll * w), [z[mask] for z in noise]


GRID = (2, 4, 4)  # planes, h, w
N_VOX = int(np.prod(GRID))


class TestMaskedOnlyEvaluation:
    @settings(max_examples=30)
    @given(
        bits=st.lists(st.booleans(), min_size=N_VOX, max_size=N_VOX).filter(any),
        cov=st.sampled_from(["diagonal", "full"]),
        spatial=st.sampled_from(["voxelwise", "gated-residual"]),
    )
    @example(bits=[False] * 5 + [True] + [False] * (N_VOX - 6), cov="full", spatial="gated-residual")
    @example(bits=[True] * N_VOX, cov="diagonal", spatial="gated-residual")
    def test_training_loss_and_gradients_match_full_grid(self, proto_m, constants_m, bits,
                                                         cov, spatial):
        mask = np.array(bits).reshape(GRID)
        rng = np.random.default_rng(sum(bits))
        psi = init_weights(NetworkConfig(n_blocks=1, width=6, covariance_mode=cov),
                           proto_m.n_t, rng)
        if spatial == "gated-residual":
            psi = extend_weights(psi, rng)
        x = rng.normal(-0.1, 0.05, GRID + (proto_m.n_t,))
        prior_mu = rng.normal(0.0, 1.0, GRID + (2,))
        prior_chol = np.zeros(GRID + (2, 2))
        prior_chol[..., 0, 0] = np.exp(rng.normal(0.0, 0.3, GRID))
        prior_chol[..., 1, 0] = rng.normal(0.0, 0.3, GRID)
        prior_chol[..., 1, 1] = np.exp(rng.normal(0.0, 0.3, GRID))
        prior_params = chol_params(prior_chol)
        args = (proto_m, constants_m, ForwardModelConfig())
        # the loss node's gradients in the heads; the encoder's vjp maps
        # them to the weights alike on both sides
        with ad.recording_off():
            pred = encoder_forward(psi, ad.Tensor(x))
        node_heads, ref_heads = ad.Tensor(pred.heads.data), ad.Tensor(pred.heads.data)
        loss = loss_node(node_heads, x, mask, prior_mu[mask], prior_params[mask], args, 2, 0.0, 3)[0]
        ref, noise = full_grid_loss(head_slices(ref_heads, pred.n_cov), x, mask, prior_mu, prior_params,
                                    *args, 2, np.random.default_rng(3))
        ad.backward(loss)
        ad.backward(ref)
        assert_allclose(loss.data, ref.data, rtol=1e-12)
        heads = (pred.mu_l, pred.sigma_l_params, pred.log_sigma_im)
        sizes = loss_term_sizes(heads, x, mask, prior_mu[mask], prior_params[mask], noise, args, 0.0)
        ends = np.cumsum([0] + [h.shape[-1] for h in heads])
        for a, e, size, name in zip(ends, ends[1:], sizes, ("mu", "p", "log sigma")):
            got, want = node_heads.grad[..., a:e], ref_heads.grad[..., a:e]
            assert np.all(np.abs(got - want) <= 1e-12 * size), name

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**16))
    def test_maps_ignore_data_outside_the_mask(self, theta16, phantom_vol, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(phantom_vol.grid_shape) < 0.5
        mask[0, 0, 0] = True
        other = phantom_vol.data.copy()
        other[~mask] = rng.normal(-0.2, 0.1, (int((~mask).sum()), other.shape[-1]))
        cfg = InferenceConfig(forward=FWD1, n_elbo_samples=2, seed=seed)
        a = infer_maps(theta16, Volume4D(phantom_vol.data, mask), cfg)
        b = infer_maps(theta16, Volume4D(other, mask), cfg)
        for name in ("oef_point", "dbv_point", "oef_std", "dbv_std", "elbo"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
            assert np.isnan(getattr(a, name)[~mask]).all(), name


class TestOneVoxelOrder:
    @settings(max_examples=30)
    @given(
        bits=st.lists(st.booleans(), min_size=N_VOX, max_size=N_VOX),
        cov=st.sampled_from(["diagonal", "full"]),
    )
    @example(bits=[False] * N_VOX, cov="full")
    @example(bits=[True] * N_VOX, cov="diagonal")
    @example(bits=[False] * 5 + [True] + [False] * (N_VOX - 6), cov="full")
    def test_prior_rows_are_the_posterior_rows(self, proto_m, bits, cov):
        # the frozen network's priors and a voxelwise network's posterior
        # have one row per masked voxel in one order: the encoder runs on the
        # rows for one and on the plane grid for the other, so the values
        # may differ in the last bits, but a permuted row would not pass
        mask = np.array(bits).reshape(4, 4, 2)  # (h, w, d): plane-major differs from C order
        rng = np.random.default_rng(sum(bits))
        theta = init_weights(NetworkConfig(n_blocks=1, width=6, covariance_mode=cov),
                             proto_m.n_t, rng)
        vol = Volume4D(rng.normal(-0.1, 0.05, mask.shape + (proto_m.n_t,)), mask)
        priors = compute_prior_maps(theta, vol)
        post, _ = analysis._masked_posterior(theta, vol)
        assert priors.mu.shape == post.mu.shape == (int(mask.sum()), 2)
        assert_allclose(priors.mu, post.mu, rtol=1e-12, atol=0)
        assert_allclose(priors.sigma_l_params, post.sigma_l_params, rtol=1e-12, atol=0)


class TestDetachedEncoderPasses:
    def test_value_only_passes_keep_no_tape(self, theta16, phantom_vol, monkeypatch):
        # prior maps, the pretraining loss evaluation and the inference
        # posterior only read the encoder's values: its outputs keep no graph
        preds = []

        def record(module):
            original = module.encoder_forward

            def wrapped(*args, **kwargs):
                pred = original(*args, **kwargs)
                preds.append((module.__name__, pred))
                return pred

            monkeypatch.setattr(module, "encoder_forward", wrapped)

        record(train)
        record(analysis)
        compute_prior_maps(theta16, phantom_vol)
        rows = phantom_vol.data[phantom_vol.mask]
        with ad.recording_off():
            train.pretrain_loss(train.encoder_forward(theta16, ad.Tensor(rows)),
                                np.tile([0.4, 0.025], (rows.shape[0], 1)))
        psi = extend_weights(theta16, np.random.default_rng(0))
        infer_maps(psi, phantom_vol, InferenceConfig(forward=FWD1, n_elbo_samples=1,
                                                     prior_weights=theta16))
        names = [name for name, _ in preds]
        assert names.count("oximap.train") == 3 and names.count("oximap.analysis") == 1
        for name, pred in preds:
            assert pred.heads._parents == (), name


    def test_voxelwise_network_without_priors_runs_the_encoder_once(
        self, theta16, phantom_vol, proto_m, constants_m, monkeypatch
    ):
        # a voxelwise network is its own prior: the ELBO map reuses the
        # posterior, and the maps equal those of the explicit prior-map pass
        mask = phantom_vol.mask.copy()
        mask[:3, :, 0] = False
        mask[7, 9, 1] = False
        vol = Volume4D(phantom_vol.data, mask)
        cfg = InferenceConfig(forward=FWD1, n_elbo_samples=3, seed=4)
        calls = []
        for module in (train, analysis):
            original = module.encoder_forward

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "encoder_forward", counted)
        maps = infer_maps(theta16, vol, cfg)
        assert len(calls) == 1
        monkeypatch.undo()
        explicit = elbo_map(theta16, vol, compute_prior_maps(theta16, vol), proto_m,
                            constants_m, FWD1, np.random.default_rng(cfg.seed + 1), 3)
        assert np.array_equal(np.isnan(maps.elbo), ~mask)
        assert_allclose(maps.elbo[mask], explicit[mask], rtol=0, atol=1e-12)


class TestArrayCodePastTheEncoder:
    def test_makes_no_tensor(self, proto_m, constants_m, monkeypatch):
        # the box map, the factor's read-out, the log-density with and
        # without its gradients, the KL, the std maps, the likelihood
        # without partials and the TV take and give arrays: none of them
        # builds a tape tensor, even with recording on
        rng = np.random.default_rng(0)
        mu = rng.normal(0.0, 1.0, (6, 2))
        dists = [ScaledLogitNormal(mu, rng.normal(-1.0, 0.3, (6, k))) for k in (2, 3)]
        x = rng.normal(-0.1, 0.05, (6, proto_m.n_t))
        log_sigma = rng.normal(np.log(0.03), 0.3, (6, proto_m.n_t))
        maps = rng.normal(size=(4, 5, 2, 2))
        y = forward_transform(rng.normal(0.0, 1.0, (6, 2)))
        made = []
        init = ad.Tensor.__init__

        def spy(self, *args, **kwargs):
            made.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", spy)
        assert ad.recording()
        forward_transform(mu)
        for q in dists:
            cholesky_entries(q.sigma_l_params)
            q.log_prob(y)
            neg_log_density(q.mu, q.sigma_l_params, y, True)
            marginal_std(q)
            for p in dists:
                kl_analytic(q, p)
            train.expected_loglik(
                x, log_sigma, q.mu, q.sigma_l_params,
                lambda oef, dbv: (normalized_model_signal(oef, dbv, proto_m, constants_m, FWD1), None),
                np.random.default_rng(1), 2,
            )
        tv_loss(maps, maps[..., 0] > 0)
        assert made == []
        ad.exp(mu)  # the spy sees the tensors a tape op makes
        assert made


class TestWlsFit:
    def test_inverts_matched_clean_data_exactly(self, proto_m, constants_m):
        ph = make_phantom((6, 6, 1), (0.4, 0.03), proto_m, constants_m, FWD1, None, None)
        vol, _ = normalize_volume(ph, proto_m)
        maps = wls_fit(vol, proto_m, constants_m)
        mask = vol.mask
        assert np.abs(maps.oef_point[mask] - 0.4).max() < 1e-6
        assert np.abs(maps.dbv_point[mask] - 0.03).max() < 1e-6
        dw1 = delta_omega(1.0, constants_m, proto_m.b0)
        assert_allclose(maps.r2p_point[mask],
                        maps.oef_point[mask] * maps.dbv_point[mask] * dw1, rtol=1e-9)
        assert maps.source == "wls"
        assert np.isnan(maps.elbo[mask]).all()

    def test_exact_above_cutoff_oef_too(self, proto_m, constants_m):
        # truth above the nominal cutoff OEF shortens the transition time, so
        # every selected tau still lies in the linear regime
        ph = make_phantom((2, 2, 1), (0.55, 0.04), proto_m, constants_m, FWD1, None, None)
        vol, _ = normalize_volume(ph, proto_m)
        maps = wls_fit(vol, proto_m, constants_m)
        assert np.abs(maps.oef_point[vol.mask] - 0.55).max() < 1e-6

    def test_biased_but_plausible_on_richer_model(self, proto_m, constants_m):
        full = ForwardModelConfig()
        ph = make_phantom((6, 6, 1), (0.4, 0.03), proto_m, constants_m, full, None, None)
        vol, _ = normalize_volume(ph, proto_m)
        maps = wls_fit(vol, proto_m, constants_m)
        vals = maps.oef_point[vol.mask]
        assert np.isfinite(vals).all()
        bias = abs(vals.mean() - 0.4)
        assert 1e-4 < bias < 0.1

    def test_too_few_long_taus_error(self, constants_m):
        # t_c at the cutoff OEF is 12.4 ms: only 16 and 24 ms are long
        short = AcquisitionProtocol(tau=(-0.008, 0.0, 0.008, 0.016, 0.024))
        ph = make_phantom((2, 2, 1), (0.4, 0.03), short, constants_m, FWD1, None, None)
        vol, _ = normalize_volume(ph, short)
        with pytest.raises(ValueError, match="have 2"):
            wls_fit(vol, short, constants_m)

    def test_negative_intercept_flags_oef_only(self, proto_m):
        row = -0.02 + 0.5 * np.abs(proto_m.tau_array)
        data = np.tile(row, (2, 1, 1, 1))
        maps = wls_fit(Volume4D(data), proto_m, PhysioConstants())
        assert np.isnan(maps.oef_point[0, 0, 0])
        assert_allclose(maps.dbv_point[0, 0, 0], -0.02, atol=1e-12)
        assert_allclose(maps.r2p_point[0, 0, 0], -0.5, atol=1e-12)

    def test_unphysical_oef_flagged(self, proto_m, constants_m):
        # a very steep decay implies OEF far above 1 at a tiny intercept
        row = 0.001 - 3.0 * np.abs(proto_m.tau_array)
        data = np.tile(row, (1, 1, 1, 1))
        maps = wls_fit(Volume4D(data), proto_m, constants_m)
        assert np.isnan(maps.oef_point[0, 0, 0])

    def test_empty_mask(self, proto_m, constants_m):
        vol = Volume4D(np.zeros((2, 2, 1, 11)), np.zeros((2, 2, 1), bool))
        maps = wls_fit(vol, proto_m, constants_m)
        assert np.isnan(maps.oef_point).all()


class TestRegionStats:
    def test_two_voxel_hand_values(self):
        oef = np.array([0.3, 0.5]).reshape(2, 1, 1)
        dbv = np.array([0.02, 0.04]).reshape(2, 1, 1)
        maps = tiny_maps(oef, dbv)
        out = region_stats(maps, np.ones((2, 1, 1), bool))
        mean, std, n = out["oef"]
        assert_allclose(mean, 0.4, rtol=0, atol=1e-15)
        assert_allclose(std, 0.1, rtol=0, atol=1e-15)
        assert n == 2
        assert_allclose(out["dbv"][0], 0.03, atol=1e-15)

    def test_constant_field_zero_std(self):
        maps = tiny_maps(np.full((3, 3, 1), 0.42))
        mean, std, n = region_stats(maps, np.ones((3, 3, 1), bool))["oef"]
        assert std == 0.0 and n == 9
        assert_allclose(mean, 0.42, atol=1e-15)

    def test_region_intersects_mask_and_skips_nonfinite(self):
        oef = np.array([0.3, 0.5, np.nan, 0.9]).reshape(4, 1, 1)
        mask = np.array([True, True, True, False]).reshape(4, 1, 1)
        maps = tiny_maps(oef, mask=mask)
        out = region_stats(maps, np.ones((4, 1, 1), bool))
        mean, _, n = out["oef"]
        assert n == 2  # the NaN voxel and the unmasked voxel both drop
        assert_allclose(mean, 0.4, atol=1e-15)

    def test_all_nan_field_reports_zero_count(self):
        maps = tiny_maps(np.full((2, 1, 1), 0.4), elbo=np.full((2, 1, 1), np.nan))
        mean, std, n = region_stats(maps, np.ones((2, 1, 1), bool))["elbo"]
        assert np.isnan(mean) and np.isnan(std) and n == 0

    def test_empty_region_error(self):
        maps = tiny_maps(np.full((2, 1, 1), 0.4))
        with pytest.raises(ValueError, match="no masked voxels"):
            region_stats(maps, np.zeros((2, 1, 1), bool))

    def test_region_shape_error(self):
        maps = tiny_maps(np.full((2, 1, 1), 0.4))
        with pytest.raises(ValueError, match="grid"):
            region_stats(maps, np.ones((3, 1, 1), bool))


class TestPairedTstat:
    def test_matches_scipy(self, rng):
        a = [rng.normal(0.4, 0.05, (3, 3, 2)) for _ in range(3)]
        b = [x - rng.normal(0.02, 0.01, (3, 3, 2)) for x in a]
        t = paired_tstat(a, b, smoothing_fwhm_mm=0.0)
        ref = stats.ttest_rel(np.stack(a).reshape(3, -1),
                              np.stack(b).reshape(3, -1), axis=0)
        assert_allclose(t, ref.statistic.reshape(3, 3, 2), rtol=1e-10)

    def test_identical_conditions_give_zero(self, rng):
        a = [rng.normal(size=(2, 2, 1)) for _ in range(3)]
        t = paired_tstat(a, [x.copy() for x in a], smoothing_fwhm_mm=0.0)
        assert np.all(t == 0.0)

    def test_constant_shift_is_signed_infinity(self, rng):
        # integer-valued maps keep the per-subject difference bitwise constant
        a = [rng.integers(0, 100, (2, 2, 1)).astype(float) for _ in range(3)]
        b = [x - 1.0 for x in a]
        t = paired_tstat(a, b, smoothing_fwhm_mm=0.0)
        assert np.all(np.isposinf(t))
        assert np.all(np.isneginf(paired_tstat(b, a, smoothing_fwhm_mm=0.0)))

    def test_smoothing_is_in_plane_only(self):
        zmap = np.zeros((4, 4, 3))
        zmap[..., 1] = 1.0
        zmap[..., 2] = 3.0
        a = [zmap + k * 0.1 for k in range(3)]
        b = [zmap - k * 0.05 for k in range(3)]
        t0 = paired_tstat(a, b, smoothing_fwhm_mm=0.0)
        t6 = paired_tstat(a, b, smoothing_fwhm_mm=6.0)
        assert_allclose(t0, t6, rtol=0, atol=1e-12)

    def test_smoothing_changes_in_plane_maps(self, rng):
        a = [rng.normal(size=(8, 8, 1)) for _ in range(3)]
        b = [rng.normal(size=(8, 8, 1)) for _ in range(3)]
        t0 = paired_tstat(a, b, smoothing_fwhm_mm=0.0)
        t6 = paired_tstat(a, b, smoothing_fwhm_mm=6.0)
        assert np.abs(t0 - t6).max() > 0.1

    @given(st.integers(0, 2**32 - 1))
    def test_smoothing_ignores_values_outside_the_mask(self, seed):
        # maps are NaN (or otherwise non-finite) outside the mask; smoothing
        # must neither spread those values inward nor depend on which they are
        rng = np.random.default_rng(seed)
        mask = rng.random((14, 14, 2)) < 0.7
        inside = rng.normal(0.4, 0.05, (2, 3) + mask.shape)
        junk = np.array([np.nan, np.inf, -np.inf])[rng.integers(0, 3, inside.shape)]

        def conditions(outside):
            return [[np.where(mask, v, o) for v, o in zip(inside[c], outside[c])] for c in (0, 1)]

        t = paired_tstat(*conditions(np.full(inside.shape, np.nan)))
        t2 = paired_tstat(*conditions(junk))
        assert np.all(np.isfinite(t[mask]))
        assert np.array_equal(t[mask], t2[mask])
        assert np.all(np.isnan(t[~mask]))

    def test_errors(self, rng):
        a = [rng.normal(size=(2, 2, 1)) for _ in range(2)]
        with pytest.raises(ValueError, match="same number"):
            paired_tstat(a, a[:1])
        with pytest.raises(ValueError, match="at least 2"):
            paired_tstat(a[:1], a[:1])
        with pytest.raises(ValueError, match="grid"):
            paired_tstat(a, [rng.normal(size=(3, 2, 1)) for _ in range(2)])

    @pytest.mark.parametrize("fwhm", [-3.0, -1e-9, np.nan, np.inf])
    def test_rejects_a_negative_or_nonfinite_fwhm(self, rng, fwhm):
        # only 0 disables smoothing; a negative or NaN width used to skip it silently
        a = [rng.normal(size=(4, 4, 1)) for _ in range(2)]
        with pytest.raises(ValueError, match="FWHM"):
            paired_tstat(a, a, smoothing_fwhm_mm=fwhm)
