"""The benchmark's workloads: inputs built from a seed, one unit op each,
and the check every op's output must pass.

Ops call oximap through module attributes (`train.run_finetuning`, not a
name bound at import), so the tracer's wrappers see the calls.

Sizes are scaled so that one op takes well under a second on one core:
the benchmark needs tens of ops per run for its medians and tail, and the
whole run set must fit its time budget. What each size stands for, and
what was left out, is recorded in RESULTS.md.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from oximap import analysis, nnet, physics, synthgen, train
from oximap import autodiff as ad
from oximap.distributions import forward_transform
from oximap.volume import Volume4D, normalize_volume, valid_crop_corners

PROTO = physics.AcquisitionProtocol()
CONST = physics.PhysioConstants()
FULL = physics.ForwardModelConfig()
ASYM1 = physics.ForwardModelConfig(variant="asymptotic", compartments=1)
VOXELWISE = nnet.NetworkConfig()
GATED = nnet.NetworkConfig(spatial_mode="gated-residual")
SNR = 60.0
# acceptance criterion 04's held-out box and recovery bounds; the pretraining
# recipe below meets them, the default population prior at these sizes does not
MID_RANGE = synthgen.ParamPriorConfig(
    oef=synthgen.PriorSpec("uniform", low=0.30, high=0.50),
    dbv=synthgen.PriorSpec("uniform", low=0.015, high=0.05),
)
MAE_BOUND_OEF = 0.05
MAE_BOUND_DBV = 0.01
# the pretrained network is part of the system under test, like a shipped
# checkpoint: it is rebuilt in every set-up but does not vary with --seed,
# so accuracy and op cost differ between seeds only through the inputs
THETA_SEED = 20220311
# smooth OEF/DBV fields of the brain-like volume: (kx, ky, phase) per wave.
# They are fixed, so --seed changes only the noise and the accuracy metrics
# do not swing with how far a random field happens to sit from the prior mean
_OEF_WAVES = ((1.3, 2.1, 0.4), (2.7, 1.1, 2.2), (1.9, 2.9, 4.1))
_DBV_WAVES = ((2.2, 1.4, 1.0), (1.2, 2.6, 3.3), (2.9, 2.0, 5.2))


# input sizes; what each stands for is in RESULTS.md
BRAIN_GRID = (32, 32, 4)
PHANTOM_GRID = (32, 32, 8)
CROP = 25
BATCH = 1
INFER_ELBO_SAMPLES = 4
SYNTH_ROWS = 5000
PRETRAIN_ITERATIONS = 100
PRETRAIN_BATCH = 512
HELDOUT_ROWS = 4000


def _weights_arrays(w: nnet.EncoderWeights, prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}/{k}": t.data for k, t in w.tensors.items()}


def _weights_from(arrays, prefix: str, cfg: nnet.NetworkConfig) -> nnet.EncoderWeights:
    head = prefix + "/"
    tensors = {k[len(head):]: ad.Tensor(np.array(v)) for k, v in arrays.items() if k.startswith(head)}
    return nnet.EncoderWeights(cfg, PROTO.n_t, tensors)


def _weights_finite(w: nnet.EncoderWeights) -> bool:
    return all(np.all(np.isfinite(t.data)) for t in w.tensors.values())


def pretrain(rng: np.random.Generator, train_seed: int) -> nnet.EncoderWeights:
    """Synthesize a training set and pretrain a voxelwise encoder on it.

    This is both the pretrain-synth op and, with THETA_SEED, the pretrained
    network the other workloads start from.
    """
    ds = synthgen.generate_dataset(
        SYNTH_ROWS, MID_RANGE, PROTO, CONST, FULL, synthgen.NoiseProfile(), rng
    )
    cfg = train.TrainingConfig.pretrain_defaults(
        iterations=PRETRAIN_ITERATIONS, batch_size=PRETRAIN_BATCH, seed=train_seed
    )
    return train.run_pretraining(VOXELWISE, cfg, ds)


def brain_volume(grid, rng: np.random.Generator):
    """Brain-like normalized volume: an ellipsoidal mask covering about 40%
    of the grid, smoothly varying OEF/DBV inside criterion 04's box, and
    noise at SNR 60 drawn from `rng`.

    Returns the volume and its true OEF map.
    """
    h, w, d = grid
    x, y, z = np.meshgrid(*(np.linspace(-1.0, 1.0, n) for n in (h, w, d)), indexing="ij")
    mask = (x / 0.95) ** 2 + (y / 0.85) ** 2 + (z / 1.3) ** 2 <= 1.0

    def smooth_field(waves):
        return sum(np.cos(kx * x + ky * y + p) for kx, ky, p in waves) / 3.0

    oef = 0.40 + 0.08 * smooth_field(_OEF_WAVES)
    dbv = 0.03 + 0.015 * smooth_field(_DBV_WAVES)
    raw = synthgen.make_phantom(grid, (oef, dbv), PROTO, CONST, FULL, SNR, rng, mask)
    vol, _ = normalize_volume(raw, PROTO)
    return vol, oef


def readme_phantom(grid, rng: np.random.Generator) -> Volume4D:
    """The README's phantom: full mask, OEF 0.4, DBV 0.025, SNR 60.

    The parameters are uniform, so the clean full-model signal of one voxel
    is broadcast over the grid before per-voxel noise is added.
    """
    clean = synthgen.total_signal((np.array(0.40), np.array(0.025)), PROTO, CONST, FULL)
    clean = np.broadcast_to(clean, tuple(grid) + (PROTO.n_t,))
    prof = synthgen.NoiseProfile(snr_low=SNR, snr_high=SNR)
    raw = Volume4D(synthgen.add_noise(clean, np.full(grid, SNR), prof, PROTO, rng))
    vol, _ = normalize_volume(raw, PROTO)
    return vol


class Workload:
    """One named workload. `build` is the set-up; `prepare` loads what it
    built and sets `work_per_op`; `op(k)` is the timed unit op; `check`
    validates its output and `score` measures its accuracy."""

    name = ""
    work_per_op = 0.0

    def __init__(self, workdir: Path | str = "."):
        self.workdir = Path(workdir)

    def build(self, seed: int) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def prepare(self, arrays) -> None:
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def check(self, out, k: int) -> str | None:
        """Why the output of op k is wrong, or None when it passes."""
        raise NotImplementedError

    def score(self, out, k: int) -> tuple[float, float]:
        """(OEF mean absolute error, minus the mean ELBO) of op k's output."""
        raise NotImplementedError


class FinetuneBrain(Workload):
    """One gated-residual fine-tune step with the full 2-compartment model
    on the brain-like volume."""

    name = "finetune-brain"
    forward = FULL

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        vol, oef = brain_volume(BRAIN_GRID, rng)
        theta = pretrain(np.random.default_rng(THETA_SEED), THETA_SEED)
        return {"data": vol.data, "mask": vol.mask, "oef": oef, **_weights_arrays(theta, "theta")}

    def prepare(self, arrays):
        self.vol = Volume4D(arrays["data"], arrays["mask"])
        self.true_oef = np.asarray(arrays["oef"])
        self.theta = _weights_from(arrays, "theta", VOXELWISE)
        self.tsv = self.workdir / "finetune.tsv"
        self.ckpt = self.workdir / "finetune.ckpt"
        # crops are drawn uniformly over valid corners, so the expected masked
        # voxels of a step is the batch times the mean over those corners
        corners = valid_crop_corners(self.vol, CROP)
        masked = [self.vol.mask[x0 : x0 + CROP, y0 : y0 + CROP].sum() for x0, y0 in corners]
        self.work_per_op = BATCH * float(np.mean(masked))

    def op(self, k):
        cfg = train.TrainingConfig.finetune_defaults(
            iterations=1, batch_size=BATCH, crop_xy=CROP, seed=k
        )
        return train.run_finetuning(
            self.theta, GATED, cfg, [self.vol], PROTO, CONST, self.forward, metrics_path=self.tsv
        )

    def _step_log(self):
        with open(self.tsv, encoding="utf-8") as fh:
            return list(csv.DictReader(fh, delimiter="\t"))

    def check(self, psi, k):
        rows = self._step_log()
        if len(rows) != 1:
            return f"metrics log has {len(rows)} steps, expected 1"
        loss, kl, loglik = (float(rows[0][c]) for c in ("loss", "kl", "loglik"))
        if not np.all(np.isfinite([loss, kl, loglik])):
            return f"non-finite step loss {loss} (kl {kl}, loglik {loglik})"
        if not _weights_finite(psi):
            return "non-finite fine-tuned weights"
        nnet.save_checkpoint(psi, self.ckpt)
        back = nnet.load_checkpoint(self.ckpt)
        if back.config != psi.config or back.n_t != psi.n_t or back.tensors.keys() != psi.tensors.keys():
            return "checkpoint round trip changed the network layout"
        for name, t in psi.tensors.items():
            if not np.array_equal(back.tensors[name].data, t.data.astype(np.float32)):
                return f"checkpoint round trip changed tensor {name!r}"
        return None

    def score(self, psi, k):
        step = self._step_log()[0]
        x = np.ascontiguousarray(np.moveaxis(self.vol.data, 2, 0))
        dist = nnet.prediction_to_distribution(nnet.encoder_forward(psi, ad.Tensor(x)), psi.config.covariance_mode)
        est = np.moveaxis(forward_transform(dist.mu)[..., 0], 0, 2)
        mae = float(np.abs(est - self.true_oef)[self.vol.mask].mean())
        return mae, float(step["kl"]) - float(step["loglik"])


class FinetuneAsym(FinetuneBrain):
    """The same step on the README phantom with the asymptotic
    1-compartment model: no kernel calls, no out-of-mask voxels."""

    name = "finetune-asym"
    forward = ASYM1

    def build(self, seed):
        rng = np.random.default_rng([seed, 2])
        vol = readme_phantom(PHANTOM_GRID, rng)
        theta = pretrain(np.random.default_rng(THETA_SEED), THETA_SEED)
        oef = np.full(vol.grid_shape, 0.40)
        return {"data": vol.data, "mask": vol.mask, "oef": oef, **_weights_arrays(theta, "theta")}


class InferBrain(Workload):
    """infer_maps with a gated-residual network, then wls_fit, on the
    brain-like volume."""

    name = "infer-brain"

    def build(self, seed):
        rng = np.random.default_rng([seed, 3])
        vol, oef = brain_volume(BRAIN_GRID, rng)
        theta = pretrain(np.random.default_rng(THETA_SEED), THETA_SEED)
        psi = nnet.extend_weights(theta, np.random.default_rng(THETA_SEED))
        return {
            "data": vol.data,
            "mask": vol.mask,
            "oef": oef,
            **_weights_arrays(theta, "theta"),
            **_weights_arrays(psi, "psi"),
        }

    def prepare(self, arrays):
        self.vol = Volume4D(arrays["data"], arrays["mask"])
        self.true_oef = np.asarray(arrays["oef"])
        self.theta = _weights_from(arrays, "theta", VOXELWISE)
        self.psi = _weights_from(arrays, "psi", GATED)
        self.work_per_op = float(self.vol.n_masked)

    def op(self, k):
        cfg = analysis.InferenceConfig(
            n_elbo_samples=INFER_ELBO_SAMPLES,
            seed=k,
            source="vi+tv",
            prior_weights=self.theta,
        )
        maps = analysis.infer_maps(self.psi, self.vol, cfg)
        wls = analysis.wls_fit(self.vol, PROTO, CONST)
        return maps, wls

    def check(self, out, k):
        maps, wls = out
        m = self.vol.mask
        for name in ("oef_point", "dbv_point", "r2p_point", "oef_std", "dbv_std", "elbo"):
            arr = getattr(maps, name)
            if not np.all(np.isfinite(arr[m])):
                return f"{name} is not finite on the mask"
            if not np.all(np.isnan(arr[~m])):
                return f"{name} is not NaN off the mask"
        if np.any(maps.oef_std[m] < 0) or np.any(maps.dbv_std[m] < 0):
            return "negative posterior std"
        for name in ("oef_point", "dbv_point", "r2p_point"):
            arr = getattr(wls, name)
            if not np.all(np.isnan(arr[~m])):
                return f"WLS {name} is not NaN off the mask"
            if np.any(np.isinf(arr[m])):
                return f"WLS {name} is infinite on the mask"
        return None

    def score(self, out, k):
        maps, _ = out
        m = self.vol.mask
        return float(np.abs(maps.oef_point[m] - self.true_oef[m]).mean()), -float(maps.elbo[m].mean())


class PretrainSynth(Workload):
    """generate_dataset then run_pretraining (SWA on), scored on held-out rows.

    --seed draws the held-out rows; op k draws its training set from k, so
    every run trains the same sequence of networks and the scores differ
    between seeds only through the held-out rows.
    """

    name = "pretrain-synth"

    def build(self, seed):
        rng = np.random.default_rng([seed, 4])
        held = synthgen.generate_dataset(
            HELDOUT_ROWS, MID_RANGE, PROTO, CONST, FULL, synthgen.NoiseProfile(), rng
        )
        return {"signals": held.signals, "truths": held.truths}

    def prepare(self, arrays):
        self.signals = np.asarray(arrays["signals"])
        self.truths = np.asarray(arrays["truths"])
        self.held_vol = Volume4D(self.signals[:, None, None, :])
        self.work_per_op = float(SYNTH_ROWS)

    def op(self, k):
        return pretrain(np.random.default_rng([5, k]), k)

    def _held_out_mae(self, theta):
        pred = nnet.encoder_forward(theta, ad.Tensor(self.signals))
        est = forward_transform(nnet.prediction_to_distribution(pred, theta.config.covariance_mode).mu)
        return np.abs(est - self.truths).mean(axis=0)

    def check(self, theta, k):
        if not _weights_finite(theta):
            return "non-finite pretrained weights"
        mae_oef, mae_dbv = self._held_out_mae(theta)
        if not (mae_oef < MAE_BOUND_OEF and mae_dbv < MAE_BOUND_DBV):
            return f"held-out MAE oef {mae_oef:.4f} dbv {mae_dbv:.4f} above bounds"
        return None

    def score(self, theta, k):
        # a voxelwise network is its own prior, as in infer_maps, so this ELBO
        # is the expected held-out log-likelihood under the predicted posterior;
        # one draw per row, since the spread between rows dwarfs the draw noise
        priors = train.compute_prior_maps(theta, self.held_vol)
        elbo = analysis.elbo_map(
            theta, self.held_vol, priors, PROTO, CONST, FULL, np.random.default_rng(k), 1
        )
        return float(self._held_out_mae(theta)[0]), -float(elbo.mean())


WORKLOADS = {w.name: w for w in (FinetuneBrain, FinetuneAsym, InferBrain, PretrainSynth)}
