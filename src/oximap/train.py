"""Two-stage training: supervised pretraining on synthetic voxels, then
amortized variational fine-tuning on masked image volumes.

Pretraining maximizes the predicted-distribution log-density of known
synthetic truths (AdamW, stochastic weight averaging over the second
half). Fine-tuning minimizes a Monte-Carlo negative ELBO — KL of
the predicted posterior against per-voxel priors from the frozen
pretrained network, minus the expected diagonal-Gaussian log-likelihood
of the normalized signals under the biophysical forward model — plus a
weighted in-plane total-variation penalty on the transformed mean maps,
with learning rate and weight decay linearly annealed by a factor of 100.

Both stages keep the weights, AdamW moments and the SWA average in
float64 and run each step's encoder on a nnet.COMPUTE_DTYPE (float32)
copy, whose gradients are cast back to float64 for the update; the loss
past the encoder's heads is float64. The prior maps' detached pass runs
on such a copy too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .distributions import (
    LOG_2PI,
    ScaledLogitNormal,
    cholesky_entries,
    kl_cholesky,
    neg_log_density,
    reparameterize,
    to_box,
)
from .nnet import (
    COMPUTE_DTYPE,
    SIGMA_IM_FLOOR,
    AdamWState,
    EncoderWeights,
    NetworkConfig,
    VoxelPrediction,
    adamw_step,
    collect_gradients,
    encoder_forward,
    extend_weights,
    init_weights,
    lr_schedule,
    prediction_to_distribution,
    swa_update,
)
from .physics import (
    AcquisitionProtocol,
    ForwardModelConfig,
    PhysioConstants,
    normalized_model_signal_t,
)
from .synthgen import SynthDataset
from .volume import Volume4D, planes_first, valid_crop_corners

# share of the synthetic rows pretraining holds out as a validation split
VAL_FRACTION = 0.1


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of a training stage; pretraining reads these alone."""

    iterations: int
    batch_size: int
    lr: float
    weight_decay: float = 2e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")

    @staticmethod
    def pretrain_defaults(**overrides) -> "TrainingConfig":
        return TrainingConfig(**{"iterations": 1400, "batch_size": 512, "lr": 2e-3, **overrides})

    @staticmethod
    def finetune_defaults(**overrides) -> "FinetuneConfig":
        return FinetuneConfig(**{"iterations": 4000, "batch_size": 38, "lr": 5e-3, **overrides})


@dataclass(frozen=True)
class FinetuneConfig(TrainingConfig):
    """Fine-tuning's hyperparameters: a training stage's, plus the ELBO's
    draws per step, the total-variation weight and the in-plane crop size."""

    n_samples_elbo: int = 4
    tv_lambda: float = 5.0
    crop_xy: int = 25

    def __post_init__(self):
        super().__post_init__()
        for name in ("n_samples_elbo", "crop_xy"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.tv_lambda < 0:
            raise ValueError("tv_lambda must be >= 0")


class MetricsLog:
    """Tab-separated training log: one header line, then one row per step;
    a path of None writes nothing."""

    HEADER = "step\tloss\tkl\tloglik\ttv\tlr"

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8") if path is not None else None
        if self._fh is not None:
            self._fh.write(self.HEADER + "\n")

    def write(self, step, loss, kl=np.nan, loglik=np.nan, tv=np.nan, lr=np.nan):
        if self._fh is None:
            return
        row = "\t".join(f"{float(v):.10g}" for v in (loss, kl, loglik, tv, lr))
        self._fh.write(f"{int(step)}\t{row}\n")

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class PriorMaps(ScaledLogitNormal):
    """Per-voxel logit-space priors of a volume: a ScaledLogitNormal with one
    row per masked voxel of `mask`, in planes_first(mask) order, the order
    of the posterior rows that the training loss and the ELBO map read."""

    mask: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 3 or self.mu.shape != (int(self.mask.sum()), 2):
            raise ValueError("priors need one row per masked voxel of a 3-D mask")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.sigma_l_params))):
            raise ValueError("prior rows must be finite")


# pretraining ---------------------------------------------------------


def pretrain_loss(pred: VoxelPrediction, truth) -> ad.Tensor:
    """Mean negative log-density of the true (oef, dbv) under the prediction.

    `truth` is an array (..., 2) matching the prediction's leading shape;
    values must lie strictly inside the parameter box.
    """
    return ad.tmean(neg_log_density(pred.mu_l, pred.sigma_l_params, truth))


def run_pretraining(
    net_cfg: NetworkConfig,
    train_cfg: TrainingConfig,
    dataset: SynthDataset,
    metrics_path=None,
) -> EncoderWeights:
    """Supervised pretraining on a synthetic dataset; returns the voxelwise
    network averaged (SWA) over the second half of the iterations.

    The returned weights are initialized from the first draws of
    default_rng(train_cfg.seed), so the starting network is reproducible
    with init_weights under the same generator.

    Each step runs the encoder on a COMPUTE_DTYPE copy of the float64
    weights, as fine-tuning does; the returned network is float64.
    """
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(train_cfg.seed)
    n_t = dataset.signals.shape[1]
    theta = init_weights(net_cfg, n_t, rng)
    opt = AdamWState.for_weights(theta)

    # the first n_val rows of the permutation are the held-out validation split;
    # VAL_FRACTION < 0.5, so at least one row is left to train on
    perm = rng.permutation(dataset.n)
    n_val = int(round(VAL_FRACTION * dataset.n))
    train_rows = perm[n_val:]

    swa_avg = {k: np.zeros_like(t.data) for k, t in theta.tensors.items()}
    swa_count = 0
    with MetricsLog(metrics_path) as log:
        for i in range(train_cfg.iterations):
            rows = train_rows[rng.integers(0, train_rows.size, train_cfg.batch_size)]
            step_theta = theta.astype(COMPUTE_DTYPE)
            pred = encoder_forward(step_theta, ad.Tensor(dataset.signals[rows]))
            loss = pretrain_loss(pred, dataset.truths[rows])
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise RuntimeError(f"non-finite loss at iteration {i}")
            grads = {k: g.astype(np.float64) for k, g in collect_gradients(step_theta, loss).items()}
            adamw_step(theta, opt, grads, train_cfg.lr, train_cfg.weight_decay)
            if (i + 1) > train_cfg.iterations // 2:
                swa_count += 1
                swa_update(swa_avg, theta, swa_count)
            log.write(i, loss_val, lr=train_cfg.lr)

    # iterations >= 1, so the second half holds at least the last step
    theta = EncoderWeights(net_cfg, n_t, {k: ad.Tensor(v) for k, v in swa_avg.items()})
    # fail loudly if training left the weights unusable
    if not all(np.all(np.isfinite(t.data)) for t in theta.tensors.values()):
        raise RuntimeError("non-finite weights after pretraining")
    return theta


# adaptive priors ------------------------------------------------------


def compute_prior_maps(theta: EncoderWeights, vol: Volume4D) -> PriorMaps:
    """Frozen-network priors of a volume's masked voxels, one row each in
    planes_first(vol.mask) order; an empty mask gives zero rows. The
    encoder runs on a COMPUTE_DTYPE copy of theta."""
    if theta.config.spatial_mode != "voxelwise":
        raise ValueError("prior maps require a voxelwise (pretrained) network")
    rows = planes_first(vol.data)[planes_first(vol.mask)]
    with ad.recording_off():
        pred = encoder_forward(theta.astype(COMPUTE_DTYPE), ad.Tensor(rows))
    dist = prediction_to_distribution(pred, theta.config.covariance_mode)
    return PriorMaps(dist.mu, dist.sigma_l_params, vol.mask.copy())


# negative ELBO --------------------------------------------------------


def _draw_loglik(x, s, parts, oef, dbv, sigma, log_norm):
    """One draw's per-voxel diagonal-Gaussian log-likelihood of the normalized
    signals x, summed over tau, given the model signal s (overwritten) and
    its partials parts = (d/d oef, d/d dbv), or None off the tape.

    With partials it is one tape node on (oef, dbv, sigma): the partials are
    contracted with the likelihood's gradient q = (x - s) / sigma^2 at once,
    so the node keeps a_oef = sum_t q d_oef, a_dbv = sum_t q d_dbv and, in
    the residual's buffer, w = (res^2 - 1) / sigma, where -1/sigma is
    log_norm's share; the partials and every other temporary are freed.
    """
    res = np.subtract(x, s, out=s)
    res /= sigma.data
    half = res * res
    half *= 0.5
    ll = np.subtract(log_norm, half, out=half).sum(axis=-1)
    if parts is None:
        return ad.Tensor(ll)
    q = np.divide(res, sigma.data, out=half)
    a_oef, a_dbv = (np.einsum("...t,...t->...", q, p) for p in parts)
    w = res
    w *= res
    w -= 1.0
    w /= sigma.data
    return ad.custom(ll, (oef, dbv, sigma), lambda g: (g * a_oef, g * a_dbv, g[..., None] * w))


def expected_loglik(x, log_sigma_im, mu, chol, mask, model, rng, n):
    """Mean over n reparameterized draws of the per-voxel diagonal-Gaussian
    log-likelihood of the masked rows x, summed over tau, given the per-tau
    log noise levels log_sigma_im and mu, whose factor chol is what
    cholesky_entries returns.

    model(oef, dbv) takes the draw's arrays and returns a fresh model signal
    with its partials in oef and dbv, or with None in their place off the
    tape; each draw is then one tape node on (oef, dbv, sigma). The noise
    std sigma is exp(log_sigma_im) floored at SIGMA_IM_FLOOR, evaluated once,
    not per draw. Each draw's noise is drawn on mask's whole grid and
    gathered to its masked rows, so generators seeded alike replay the same
    draws. The training loss runs it on the tape, the ELBO map under
    ad.recording_off().
    """
    sigma = ad.clip_min(ad.exp(log_sigma_im), SIGMA_IM_FLOOR)
    log_norm = -0.5 * LOG_2PI - np.log(sigma.data)
    acc = None
    for _ in range(n):
        z = rng.standard_normal(mask.shape + (2,))[mask]
        oef, dbv = reparameterize(mu, *chol[:3], z)
        # no name here holds the signal or its partials: they are freed with the draw
        ll = _draw_loglik(x, *model(oef.data, dbv.data), oef, dbv, sigma, log_norm)
        acc = ll if acc is None else acc + ll
    return acc * (1.0 / n)


def _masked_rows(a, mask):
    """The rows of a (planes, h, w, k) array or tape tensor at mask's voxels,
    in C order. When every voxel is masked they are a reshape view, so no
    gather copies them and no vjp scatters their gradient into a zero grid."""
    if not mask.all():
        return a[mask]
    shape = (mask.size, a.shape[-1])
    return ad.reshape(a, shape) if isinstance(a, ad.Tensor) else a.reshape(shape)


def _elbo_core(psi, x_arr, mask_arr, prior_mu, prior_params, proto, constants, fwd_cfg, cfg, rng):
    """Negative-ELBO graph on plane-major arrays (planes, h, w, ...), against
    the prior rows prior_mu and prior_params of mask_arr's voxels, in order.

    The encoder runs on the whole grid, since the gated conv reads
    neighbours; the KL and expected_loglik run on the masked voxels only,
    taken by _masked_rows on the tape so the gradient flows back.

    Returns (loss, kl_mean, loglik_mean, mean_maps) where mean_maps is the
    tape tensor of transformed posterior means, shape (planes, h, w, 2).
    """
    n_masked = int(mask_arr.sum())
    if n_masked == 0:
        raise ValueError("batch contains no masked voxels")
    pred = encoder_forward(psi, ad.Tensor(x_arr))
    mu_m = _masked_rows(pred.mu_l, mask_arr)
    chol = cholesky_entries(_masked_rows(pred.sigma_l_params, mask_arr))
    kl_vox = kl_cholesky(mu_m, *chol, prior_mu, prior_params)
    ll_vox = expected_loglik(
        _masked_rows(x_arr, mask_arr), _masked_rows(pred.log_sigma_im, mask_arr), mu_m, chol,
        mask_arr, lambda oef, dbv: normalized_model_signal_t(oef, dbv, proto, constants, fwd_cfg),
        rng, cfg.n_samples_elbo,
    )

    inv = 1.0 / n_masked
    kl_mean = ad.tsum(kl_vox) * inv
    ll_mean = ad.tsum(ll_vox) * inv
    loss = kl_mean - ll_mean
    return loss, kl_mean, ll_mean, to_box(pred.mu_l)


def elbo_loss(
    psi: EncoderWeights,
    batch: Volume4D,
    priors: PriorMaps,
    proto: AcquisitionProtocol,
    constants: PhysioConstants,
    fwd_cfg: ForwardModelConfig,
    cfg: FinetuneConfig,
    rng: np.random.Generator,
    return_parts: bool = False,
):
    """Monte-Carlo negative ELBO of a normalized volume (or crop), averaged
    over its masked voxels: mean KL(q || prior) minus the mean over
    n_samples_elbo reparameterized draws of the diagonal-Gaussian signal
    log-likelihood. Differentiable w.r.t. the network weights. The priors'
    rows are the batch's masked voxels, as compute_prior_maps gives them.

    With return_parts, also returns {"kl", "loglik"} as floats; the loss
    equals kl - loglik exactly.
    """
    if not np.array_equal(priors.mask, batch.mask):
        raise ValueError("priors are not aligned with the batch grid and mask")
    loss, kl_mean, ll_mean, _ = _elbo_core(
        psi,
        planes_first(batch.data),
        planes_first(batch.mask),
        priors.mu,
        priors.sigma_l_params,
        proto,
        constants,
        fwd_cfg,
        cfg,
        rng,
    )
    if return_parts:
        return loss, {"kl": float(kl_mean.data), "loglik": float(ll_mean.data)}
    return loss


# total variation ------------------------------------------------------


def _tv_planes(maps_t, mask=None):
    """Mean absolute in-plane forward differences of (planes, h, w, c) maps.

    Both difference directions are evaluated on the shared (h-1) x (w-1)
    interior and normalized by planes * (h-1) * (w-1); channels are summed.
    With a mask, a difference contributes only when both voxels are masked
    (the normalizer is unchanged, so edge voxels are penalized less).
    """
    n_planes, h, w = maps_t.data.shape[:3]
    if h < 2 or w < 2:
        return ad.as_tensor(0.0)
    dx = maps_t[:, :-1, :-1, :] - maps_t[:, 1:, :-1, :]
    dy = maps_t[:, :-1, :-1, :] - maps_t[:, :-1, 1:, :]
    adx = ad.absval(dx)
    ady = ad.absval(dy)
    if mask is not None:
        core = mask[:, :-1, :-1]
        wx = (core & mask[:, 1:, :-1]).astype(np.float64)[..., None]
        wy = (core & mask[:, :-1, 1:]).astype(np.float64)[..., None]
        adx = adx * wx
        ady = ady * wy
    norm = 1.0 / (n_planes * (h - 1) * (w - 1))
    return (ad.tsum(adx) + ad.tsum(ady)) * norm


def tv_loss(mean_maps, mask=None):
    """In-plane total variation of parameter maps on an (h, w, d) grid.

    Accepts (h, w, d) or (h, w, d, channels) arrays or tape tensors; only
    x/y neighbor differences enter, never z. Returns a tape scalar.
    """
    t = ad.as_tensor(mean_maps)
    if t.data.ndim == 3:
        t = ad.reshape(t, t.data.shape + (1,))
    if t.data.ndim != 4:
        raise ValueError("mean_maps must have shape (h, w, d) or (h, w, d, channels)")
    t = ad.transpose(t, (2, 0, 1, 3))
    m = None if mask is None else np.moveaxis(np.asarray(mask, dtype=bool), 2, 0)
    return _tv_planes(t, m)


# fine-tuning ----------------------------------------------------------


def _check_finetune_compat(theta: EncoderWeights, net_cfg: NetworkConfig):
    base = theta.config
    if (
        net_cfg.n_blocks != base.n_blocks
        or net_cfg.width != base.width
        or net_cfg.covariance_mode != base.covariance_mode
    ):
        raise ValueError(
            "fine-tune network must keep the pretrained depth, width, and covariance mode"
        )


def run_finetuning(
    theta: EncoderWeights,
    net_cfg: NetworkConfig,
    train_cfg: FinetuneConfig,
    vols: list,
    proto: AcquisitionProtocol,
    constants: PhysioConstants,
    fwd_cfg: ForwardModelConfig,
    metrics_path=None,
) -> EncoderWeights:
    """Variational fine-tuning on normalized volumes; returns the adapted
    network (gated-residual extension of theta unless net_cfg stays
    voxelwise).

    Each step draws batch_size random in-plane crops (all slices kept),
    evaluates the negative ELBO against frozen-theta priors plus
    tv_lambda times the total variation of the transformed mean maps, and
    applies AdamW with both learning rate and weight decay linearly
    decayed to 1/100 of their starting values.

    The weights and AdamW moments are kept in float64. Each step runs the
    encoder on a COMPUTE_DTYPE copy of the weights; the loss past the
    encoder's heads is float64, and the copy's gradients are cast back to
    float64 for the update. The returned network is float64.

    Only a fault stops the run early: a non-finite loss or gradient.
    """
    if not vols:
        raise ValueError("no volumes to fine-tune on")
    _check_finetune_compat(theta, net_cfg)
    rng = np.random.default_rng(train_cfg.seed)

    if net_cfg.spatial_mode == "gated-residual":
        psi = extend_weights(theta, rng)
        psi = EncoderWeights(net_cfg, psi.n_t, psi.tensors)
    else:
        psi = theta.astype(np.float64)

    size = train_cfg.crop_xy
    planes = []
    for k, vol in enumerate(vols):
        corners = valid_crop_corners(vol, size)
        if corners.shape[0] == 0:
            raise ValueError(f"volume {k} has no crop position containing a masked voxel")
        # the priors' mu and params side by side on the plane-major grid, so
        # a crop of it holds the prior rows of the crop's masked voxels
        priors = compute_prior_maps(theta, vol)
        mask = planes_first(vol.mask)
        prior = np.zeros(mask.shape + (2 + priors.sigma_l_params.shape[-1],))
        prior[mask] = np.concatenate([priors.mu, priors.sigma_l_params], axis=-1)
        planes.append({"x": planes_first(vol.data), "mask": mask, "prior": prior, "corners": corners})

    opt = AdamWState.for_weights(psi)
    with MetricsLog(metrics_path) as log:
        for i in range(train_cfg.iterations):
            xs, masks, prior_crops = [], [], []
            for _ in range(train_cfg.batch_size):
                v = planes[rng.integers(len(planes))]
                x0, y0 = v["corners"][rng.integers(v["corners"].shape[0])]
                sx = slice(x0, x0 + size)
                sy = slice(y0, y0 + size)
                xs.append(v["x"][:, sx, sy])
                masks.append(v["mask"][:, sx, sy])
                prior_crops.append(v["prior"][:, sx, sy])
            x_arr = np.concatenate(xs, axis=0)
            mask_arr = np.concatenate(masks, axis=0)
            prior_rows = np.concatenate(prior_crops, axis=0)[mask_arr]

            step_psi = psi.astype(COMPUTE_DTYPE)
            elbo, kl_mean, ll_mean, mean_maps = _elbo_core(
                step_psi, x_arr, mask_arr, prior_rows[:, :2], prior_rows[:, 2:],
                proto, constants, fwd_cfg, train_cfg, rng,
            )
            tv = _tv_planes(mean_maps, mask_arr)
            loss = elbo + train_cfg.tv_lambda * tv if train_cfg.tv_lambda else elbo
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise RuntimeError(f"non-finite loss at iteration {i}")
            grads = {k: g.astype(np.float64) for k, g in collect_gradients(step_psi, loss).items()}
            lr_i = lr_schedule(i, train_cfg.iterations, train_cfg.lr)
            wd_i = lr_schedule(i, train_cfg.iterations, train_cfg.weight_decay)
            adamw_step(psi, opt, grads, lr_i, wd_i)
            log.write(
                i,
                loss_val,
                kl=float(kl_mean.data),
                loglik=float(ll_mean.data),
                tv=float(tv.data),
                lr=lr_i,
            )
    return psi
