"""Synthetic-data tests against distribution, moment, and forward-model oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from oximap.distributions import PARAM_OFFSET, PARAM_SCALE, truncated_normal_sample
from oximap.physics import (
    ForwardModelConfig,
    delta_omega,
    dephasing_integral_t,
    normalized_model_signal,
    total_signal,
)
from oximap.synthgen import (
    DATASET_MAGIC,
    LANE_SIZE,
    DatasetFormatError,
    NoiseProfile,
    ParamPriorConfig,
    PriorSpec,
    PRIOR_PRESETS,
    SynthDataset,
    add_noise,
    generate_dataset,
    load_dataset,
    make_phantom,
    save_dataset,
)


def truncnorm_oracle(mean, std, low, high):
    a, b = (low - mean) / std, (high - mean) / std
    return stats.truncnorm(a, b, loc=mean, scale=std)


class TestPriorSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            PriorSpec("gamma", 0.1, 0.2)
        with pytest.raises(ValueError, match="low"):
            PriorSpec("truncated-normal", 0.2, 0.2, 0.3, 0.1)
        with pytest.raises(ValueError, match="std"):
            PriorSpec("truncated-normal", 0.1, 0.2, 0.3, 0.0)
        with pytest.raises(ValueError, match="low"):
            PriorSpec("uniform", 0.3, 0.2)

    def test_truncated_normal_delegates(self):
        spec = PriorSpec("truncated-normal", 0.05, 0.85, 0.40, 0.20)
        a = spec.sample(np.random.default_rng(3), 1000)
        b = truncated_normal_sample(0.40, 0.20, 0.05, 0.85, np.random.default_rng(3), size=1000)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_uniform_bounds_and_ks(self):
        spec = PriorSpec("uniform", 0.05, 0.80)
        x = spec.sample(np.random.default_rng(5), 100_000)
        assert x.min() > 0.05 and x.max() < 0.80
        p = stats.kstest(x, stats.uniform(0.05, 0.75).cdf).pvalue
        assert p > 1e-3

    def test_zero_width_uniform(self):
        spec = PriorSpec("uniform", 0.3, 0.3)
        assert np.all(spec.sample(np.random.default_rng(0), 50) == 0.3)


class TestParamPriorConfig:
    def test_range_escape_errors(self):
        good = PriorSpec("uniform", 0.1, 0.2)
        with pytest.raises(ValueError, match="oef"):
            ParamPriorConfig(PriorSpec("uniform", 0.04, 0.2), good)
        with pytest.raises(ValueError, match="oef"):
            ParamPriorConfig(PriorSpec("uniform", 0.1, 0.86), good)
        with pytest.raises(ValueError, match="dbv"):
            ParamPriorConfig(good, PriorSpec("uniform", 0.0005, 0.2))
        with pytest.raises(ValueError, match="dbv"):
            ParamPriorConfig(good, PriorSpec("uniform", 0.1, 0.32))

    def test_presets_cover_support(self):
        lo, hi = PARAM_OFFSET, PARAM_OFFSET + PARAM_SCALE
        for name, cfg in PRIOR_PRESETS.items():
            for i, spec in enumerate((cfg.oef, cfg.dbv)):
                assert spec.low >= lo[i] and spec.high <= hi[i], name

    def test_preset_values(self):
        n = PRIOR_PRESETS["normal"]
        assert (n.oef.mean, n.oef.std) == (0.40, 0.20)
        assert (n.dbv.mean, n.dbv.std) == (0.025, 0.02)
        w = PRIOR_PRESETS["normal-wide"]
        assert (w.oef.std, w.dbv.std) == (0.30, 0.03)
        nn = PRIOR_PRESETS["normal-narrow"]
        assert (nn.oef.std, nn.dbv.std) == (0.10, 0.01)
        u = PRIOR_PRESETS["uniform"]
        assert u.oef.kind == "uniform" and (u.oef.low, u.oef.high) == (0.05, 0.80)
        assert u.dbv.kind == "uniform" and (u.dbv.low, u.dbv.high) == (0.003, 0.25)

    def test_normal_preset_moments_match_truncnorm_oracle(self):
        # asymmetric truncation to the support shifts the mean above the
        # nominal 0.40; the honest reference is the truncated-normal moment
        draws = PRIOR_PRESETS["normal"].sample(np.random.default_rng(11), 100_000)
        oef_tn = truncnorm_oracle(0.40, 0.20, 0.05, 0.85)
        dbv_tn = truncnorm_oracle(0.025, 0.02, 0.001, 0.301)
        assert abs(draws[:, 0].mean() - oef_tn.mean()) < 3.5 * oef_tn.std() / np.sqrt(100_000)
        assert abs(draws[:, 1].mean() - dbv_tn.mean()) < 3.5 * dbv_tn.std() / np.sqrt(100_000)

    def test_population_ks_against_inverse_cdf_oracle(self):
        draws = PRIOR_PRESETS["normal"].sample(np.random.default_rng(2), 100_000)
        assert stats.kstest(draws[:, 0], truncnorm_oracle(0.40, 0.20, 0.05, 0.85).cdf).pvalue > 1e-3
        assert stats.kstest(draws[:, 1], truncnorm_oracle(0.025, 0.02, 0.001, 0.301).cdf).pvalue > 1e-3


class TestNoiseProfile:
    def test_validation(self):
        with pytest.raises(ValueError, match="snr"):
            NoiseProfile(snr_low=0.0, snr_high=10.0)
        with pytest.raises(ValueError, match="snr"):
            NoiseProfile(snr_low=50.0, snr_high=20.0)


class TestAddNoise:
    def test_infinite_snr_is_exact(self, proto, constants):
        clean = total_signal((0.4, 0.025), proto, constants, ForwardModelConfig())
        out = add_noise(clean, np.inf, NoiseProfile(), proto, np.random.default_rng(0))
        assert np.array_equal(out, clean)

    def test_mc_sigma_flat_profile(self, proto, constants):
        clean = total_signal((0.4, 0.025), proto, constants, ForwardModelConfig())
        rows = np.broadcast_to(clean, (100_000, proto.n_t))
        out = add_noise(rows, np.full(100_000, 100.0), NoiseProfile(), proto,
                        np.random.default_rng(5))
        rel_std = ((out - clean) / clean[proto.se_index]).std(axis=0)
        assert_allclose(rel_std, 0.01, rtol=0.02)

    def test_log_se_noise_is_inverse_snr(self, proto, constants):
        # first-order: log(noisy_se / clean_se) has std 1/snr
        clean = total_signal((0.4, 0.025), proto, constants, ForwardModelConfig())
        rows = np.broadcast_to(clean, (100_000, proto.n_t))
        out = add_noise(rows, np.full(100_000, 100.0), NoiseProfile(), proto,
                        np.random.default_rng(7))
        log_se = np.log(out[:, proto.se_index] / clean[proto.se_index])
        assert abs(log_se.std() * 100.0 - 1.0) < 0.1

    def test_precondition_errors(self, proto, constants):
        clean = total_signal((0.4, 0.025), proto, constants, ForwardModelConfig())
        with pytest.raises(ValueError, match="snr"):
            add_noise(clean, 0.0, NoiseProfile(), proto, np.random.default_rng(0))
        bad = clean.copy()
        bad[proto.se_index] = 0.0
        with pytest.raises(ValueError, match="spin-echo"):
            add_noise(bad, 50.0, NoiseProfile(), proto, np.random.default_rng(0))


class TestSynthDataset:
    def test_row_count_validation(self):
        with pytest.raises(ValueError, match="row count"):
            SynthDataset(np.zeros((3, 5)), np.full((2, 2), 0.1), np.full(3, 60.0))
        with pytest.raises(ValueError, match="row count"):
            SynthDataset(np.zeros((3, 5)), np.full((3, 2), 0.1), np.full(2, 60.0))

    def test_support_validation(self):
        truths = np.array([[0.4, 0.025], [0.05, 0.025]])  # second row on the boundary
        with pytest.raises(ValueError, match="support"):
            SynthDataset(np.zeros((2, 5)), truths, np.full(2, 60.0))


class TestGenerateDataset:
    def test_empty(self, proto, constants):
        ds = generate_dataset(0, PRIOR_PRESETS["normal"], proto, constants,
                              ForwardModelConfig(), NoiseProfile(), np.random.default_rng(0))
        assert ds.n == 0 and ds.signals.shape == (0, proto.n_t)
        with pytest.raises(ValueError, match="non-negative"):
            generate_dataset(-1, PRIOR_PRESETS["normal"], proto, constants,
                             ForwardModelConfig(), NoiseProfile(), np.random.default_rng(0))

    def test_seed_determinism_byte_identical(self, proto, constants):
        args = (PRIOR_PRESETS["normal"], proto, constants, ForwardModelConfig(), NoiseProfile())
        a = generate_dataset(300, *args, np.random.default_rng(123))
        b = generate_dataset(300, *args, np.random.default_rng(123))
        assert a.signals.tobytes() == b.signals.tobytes()
        assert a.truths.tobytes() == b.truths.tobytes()
        assert a.snrs.tobytes() == b.snrs.tobytes()

    def test_lane_streams_are_independent(self, proto, constants):
        # rows are deterministic by index: extending the dataset must not
        # change the rows that earlier lanes produced
        args = (PRIOR_PRESETS["normal"], proto, constants, ForwardModelConfig(), NoiseProfile())
        small = generate_dataset(LANE_SIZE, *args, np.random.default_rng(9))
        big = generate_dataset(LANE_SIZE + 50, *args, np.random.default_rng(9))
        assert np.array_equal(small.signals, big.signals[:LANE_SIZE])
        assert np.array_equal(small.truths, big.truths[:LANE_SIZE])

    def test_se_channel_exactly_zero(self, proto, constants):
        ds = generate_dataset(200, PRIOR_PRESETS["normal"], proto, constants,
                              ForwardModelConfig(), NoiseProfile(), np.random.default_rng(4))
        assert np.all(ds.signals[:, proto.se_index] == 0.0)
        assert np.all(ds.snrs >= 50.0) and np.all(ds.snrs <= 120.0)

    def test_noiseless_rows_match_forward_model(self, proto, constants):
        # with vanishing noise the normalized signal is exactly -dbv * I(dw, tau)
        fwd1 = ForwardModelConfig(compartments=1)
        ds = generate_dataset(64, PRIOR_PRESETS["normal"], proto, constants, fwd1,
                              NoiseProfile(snr_low=1e300, snr_high=1e300),
                              np.random.default_rng(3))
        dw = delta_omega(ds.truths[:, 0], constants, proto.b0)
        ref = -ds.truths[:, 1:2] * dephasing_integral_t(dw[:, None] * np.abs(proto.tau_array), slope=False)[0]
        assert_allclose(ds.signals, ref, rtol=0, atol=1e-14)
        ref2 = normalized_model_signal(ds.truths[:, 0], ds.truths[:, 1], proto, constants, fwd1)
        assert_allclose(ds.signals, ref2, rtol=0, atol=1e-14)

    def test_excessive_rejection_aborts(self, proto, constants):
        with pytest.raises(ValueError, match="implausible"):
            generate_dataset(256, PRIOR_PRESETS["normal"], proto, constants,
                             ForwardModelConfig(), NoiseProfile(snr_low=2.0, snr_high=2.0),
                             np.random.default_rng(0))

    def test_truths_distribution_survives_pipeline(self, proto, constants):
        # at realistic SNR nothing is rejected, so truths match the prior by KS
        ds = generate_dataset(100_000, PRIOR_PRESETS["normal"], proto, constants,
                              ForwardModelConfig(), NoiseProfile(), np.random.default_rng(1))
        assert ds.n_rejected == 0
        p_oef = stats.kstest(ds.truths[:, 0], truncnorm_oracle(0.40, 0.20, 0.05, 0.85).cdf).pvalue
        p_dbv = stats.kstest(ds.truths[:, 1], truncnorm_oracle(0.025, 0.02, 0.001, 0.301).cdf).pvalue
        assert p_oef > 1e-3 and p_dbv > 1e-3


class TestMakePhantom:
    def test_clean_equals_forward_model(self, proto, constants):
        fwd = ForwardModelConfig()
        ph = make_phantom((4, 4, 2), (0.4, 0.025), proto, constants, fwd, None, None)
        ref = total_signal(
            (np.full((4, 4, 2), 0.4), np.full((4, 4, 2), 0.025)), proto, constants, fwd
        )
        assert np.array_equal(ph.data, ref)
        assert ph.mask.all()

    def test_noisy_needs_rng(self, proto, constants):
        with pytest.raises(ValueError, match="rng"):
            make_phantom((4, 4, 2), (0.4, 0.025), proto, constants,
                         ForwardModelConfig(), 60.0, None)

    def test_noisy_phantom_noise_scale(self, proto, constants):
        fwd = ForwardModelConfig()
        clean = make_phantom((24, 24, 4), (0.4, 0.025), proto, constants, fwd, None, None)
        noisy = make_phantom((24, 24, 4), (0.4, 0.025), proto, constants, fwd, 60.0,
                             np.random.default_rng(8))
        resid = (noisy.data - clean.data) / clean.data[0, 0, 0, proto.se_index]
        assert_allclose(resid.std(), 1.0 / 60.0, rtol=0.05)

    def test_mask_passthrough(self, proto, constants):
        mask = np.zeros((4, 4, 2), dtype=bool)
        mask[1:3, 1:3] = True
        ph = make_phantom((4, 4, 2), (0.4, 0.025), proto, constants,
                          ForwardModelConfig(), None, None, mask=mask)
        assert np.array_equal(ph.mask, mask)


class TestDatasetContainer:
    def make_ds(self, proto, constants, n=100):
        return generate_dataset(n, PRIOR_PRESETS["normal"], proto, constants,
                                ForwardModelConfig(), NoiseProfile(), np.random.default_rng(6))

    def test_round_trip_at_float32_precision(self, tmp_path, proto, constants):
        ds = self.make_ds(proto, constants)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.n == ds.n
        assert_allclose(back.signals, ds.signals, rtol=1e-6, atol=1e-7)
        assert_allclose(back.truths, ds.truths, rtol=1e-6, atol=0)
        assert_allclose(back.snrs, ds.snrs, rtol=1e-6, atol=0)
        assert back.n_rejected == 0  # rejection count is not persisted

    def test_round_trip_is_idempotent(self, tmp_path, proto, constants):
        # once stored at 32-bit precision, a second trip is byte-identical
        ds = self.make_ds(proto, constants, n=50)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_boundary_truth_is_clamped_inside_support(self, tmp_path):
        # float32 rounding pushes a near-boundary truth outside the open box;
        # the loader must clamp it back in rather than reject the file
        oef = np.nextafter(0.85, 0.0)  # rounds up to 0.85000002 in float32
        ds = SynthDataset(np.zeros((1, 3)), np.array([[oef, 0.025]]), np.array([60.0]))
        path = tmp_path / "edge.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.truths[0, 0] < (PARAM_OFFSET + PARAM_SCALE)[0]

    def test_error_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"OXID")
        with pytest.raises(DatasetFormatError, match="truncated"):
            load_dataset(path)

    def test_error_bad_magic(self, tmp_path, proto, constants):
        ds = self.make_ds(proto, constants, n=10)
        path = tmp_path / "bad.bin"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTADSET"
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(path)

    def test_error_bad_version(self, tmp_path, proto, constants):
        ds = self.make_ds(proto, constants, n=10)
        path = tmp_path / "ver.bin"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="version"):
            load_dataset(path)

    def test_error_truncated_body(self, tmp_path, proto, constants):
        ds = self.make_ds(proto, constants, n=10)
        path = tmp_path / "cut.bin"
        save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 8])
        with pytest.raises(DatasetFormatError, match="truncated"):
            load_dataset(path)

    def test_error_bytes_after_the_data(self, tmp_path, proto, constants):
        path = tmp_path / "long.bin"
        save_dataset(self.make_ds(proto, constants, n=10), path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(DatasetFormatError, match="4 bytes after"):
            load_dataset(path)

    def test_error_zero_taus(self, tmp_path):
        # rows of no tau samples cannot be trained on: the loader rejects
        # them as a checkpoint's n_t of 0 is rejected
        path = tmp_path / "no_taus.bin"
        save_dataset(SynthDataset(np.zeros((3, 0)), np.tile([0.4, 0.025], (3, 1)), np.full(3, 60.0)), path)
        with pytest.raises(DatasetFormatError, match="n_t 0"):
            load_dataset(path)

    def test_magic_value(self):
        assert DATASET_MAGIC == b"OXIDSET1"
