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

Both stages keep the weights, the gradient, the AdamW moments and the SWA
average each in one flat float64 vector and run each step's encoder on a
nnet.COMPUTE_DTYPE (float32) copy of it, made by one cast, whose gradient
vector is cast back to float64 for the update; the loss past the encoder's
heads is float64. The prior maps' detached pass runs on such a copy too.
Each step's wall time goes into the metrics log's step_ms column.

Past the encoder's heads each stage's loss is array code that returns its
value and its closed-form row gradients, recorded on the tape as one node
on the heads tensor: the mean log-density of the truths in pretraining
(pretrain_loss), and in fine-tuning the KL, the Monte-Carlo likelihood,
the masked means and the TV together (_elbo_core). The ELBO map runs the
same KL and likelihood bodies on their own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .distributions import (
    LOG_2PI,
    BoxLogits,
    ScaledLogitNormal,
    box_logits,
    box_slope,
    cholesky_entries,
    forward_transform,
    kl_cholesky,
    neg_log_density,
    reparameterize,
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
    a path of None writes nothing. step_ms is the wall time since the
    previous row, or since the log was opened for the first."""

    HEADER = "step\tloss\tkl\tloglik\ttv\tlr\tstep_ms"

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8") if path is not None else None
        if self._fh is not None:
            self._fh.write(self.HEADER + "\n")
        self._last = time.perf_counter()

    def write(self, step, loss, kl=np.nan, loglik=np.nan, tv=np.nan, lr=np.nan):
        now = time.perf_counter()
        step_ms, self._last = 1e3 * (now - self._last), now
        if self._fh is None:
            return
        row = "\t".join(f"{float(v):.10g}" for v in (loss, kl, loglik, tv, lr, step_ms))
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
    """Mean negative log-density of the true (oef, dbv) under the prediction,
    as one tape node on its heads; the noise columns get zero gradient.

    `truth` is an array (..., 2) matching the prediction's leading shape,
    or its BoxLogits; values must lie strictly inside the parameter box.
    """
    nll, d_mu, d_p = neg_log_density(pred.mu_l, pred.sigma_l_params, truth, True)
    inv = 1.0 / nll.size

    def vjp(g):
        c = (g * inv)[..., None]
        d_heads = np.zeros(pred.heads.shape)
        d_heads[..., :2] = c * d_mu
        d_heads[..., 2 : 2 + pred.n_cov] = c * d_p
        return (d_heads,)

    return ad.custom(nll.sum() * inv, (pred.heads,), vjp)


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
    weights, as fine-tuning does; the returned network is float64. The
    weights, AdamW moments, SWA mean and gradient are each one flat float64
    vector (EncoderWeights.flatten). Raises ValueError before the first
    step if a training row's truth leaves the open box.
    """
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(train_cfg.seed)
    n_t = dataset.signals.shape[1]
    theta = init_weights(net_cfg, n_t, rng)
    master = theta.flatten(np.float64)
    opt = AdamWState.for_weights(master)

    # the first n_val rows of the permutation are the held-out validation split;
    # VAL_FRACTION < 0.5, so at least one row is left to train on
    perm = rng.permutation(dataset.n)
    n_val = int(round(VAL_FRACTION * dataset.n))
    train_rows = perm[n_val:]
    truths = box_logits(dataset.truths[train_rows])

    swa_avg = np.zeros_like(master)
    swa_count = 0
    with MetricsLog(metrics_path) as log:
        for i in range(train_cfg.iterations):
            pick = rng.integers(0, train_rows.size, train_cfg.batch_size)
            step_theta = theta.on_flat(master.astype(COMPUTE_DTYPE))
            pred = encoder_forward(step_theta, dataset.signals[train_rows[pick]])
            loss = pretrain_loss(pred, BoxLogits(truths.beta[pick], truths.log_jac[pick]))
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise RuntimeError(f"non-finite loss at iteration {i}")
            grad = collect_gradients(step_theta, loss).astype(np.float64)
            del pred, loss  # the step's tape, freed before the next step records its own
            adamw_step(master, opt, grad, train_cfg.lr, train_cfg.weight_decay)
            if (i + 1) > train_cfg.iterations // 2:
                swa_count += 1
                swa_update(swa_avg, master, swa_count)
            log.write(i, loss_val, lr=train_cfg.lr)

    # iterations >= 1, so the second half holds at least the last step;
    # fail loudly if training left the weights unusable
    if not np.isfinite(swa_avg).all():
        raise RuntimeError("non-finite weights after pretraining")
    return theta.on_flat(swa_avg)


# adaptive priors ------------------------------------------------------


# rows per block of a detached voxelwise pass: the prior maps' encoder and
# analysis.marginal_std take this many voxels at a time, so their working
# memory does not grow with the volume
ROW_BLOCK = 4096


def compute_prior_maps(theta: EncoderWeights, vol: Volume4D) -> PriorMaps:
    """Frozen-network priors of a volume's masked voxels, one row each in
    planes_first(vol.mask) order; an empty mask gives zero rows. The
    encoder runs on a COMPUTE_DTYPE copy of theta, on at most ROW_BLOCK
    masked rows of one plane at a time."""
    if theta.config.spatial_mode != "voxelwise":
        raise ValueError("prior maps require a voxelwise (pretrained) network")
    net = theta.astype(COMPUTE_DTYPE)
    n_dist = 2 + theta.config.n_cov_params  # the mean and covariance columns of the heads
    rows_out = np.empty((int(vol.mask.sum()), n_dist))
    start = 0
    with ad.recording_off():
        for p in range(vol.grid_shape[2]):
            rows = vol.data[:, :, p][vol.mask[:, :, p]]
            for b in range(0, len(rows), ROW_BLOCK):
                heads = encoder_forward(net, rows[b : b + ROW_BLOCK]).heads.data
                rows_out[start : start + len(heads)] = heads[:, :n_dist]
                start += len(heads)
    return PriorMaps(rows_out[:, :2], rows_out[:, 2:], vol.mask.copy())


# negative ELBO --------------------------------------------------------


def expected_loglik(x, log_sigma_im, mu, p, model, rng, n):
    """Mean over n reparameterized draws of the per-voxel diagonal-Gaussian
    log-likelihood of the rows x, summed over tau, given their per-tau log
    noise levels log_sigma_im (sigma, floored at SIGMA_IM_FLOOR) and the
    posterior rows mu and p (a factor in the layout of cholesky_entries).

    Each draw's noise is drawn per row, so generators seeded alike replay
    the same draws. model(oef, dbv) returns a fresh model signal and its
    partials in oef and dbv, or None for them. The result is ll, one value
    per row, and with partials also its row gradients in mu, p and
    log_sigma_im: each draw adds the partials' contraction with the
    likelihood's gradient, through the box map's slope and L z, into
    per-row sums, and res^2 - 1 into one (rows, taus) array.
    """
    noise_sd = np.exp(log_sigma_im)
    sigma = np.maximum(noise_sd, SIGMA_IM_FLOOR)
    log_norm = -0.5 * LOG_2PI - np.log(sigma)
    l00, l10, l11 = cholesky_entries(p)
    acc = sums = None
    for _ in range(n):
        z = rng.standard_normal(mu.shape)
        y = reparameterize(mu, l00, l10, l11, z)
        res, parts = model(y[..., 0], y[..., 1])
        np.subtract(x, res, out=res)
        res /= sigma
        q = res * res
        q *= 0.5
        ll = np.subtract(log_norm, q, out=q).sum(axis=-1)
        acc = ll if acc is None else acc + ll
        if parts is not None:
            np.divide(res, sigma, out=q)
            # d ll / d (mu + L z), then its products with z for L's entries
            c = np.stack([np.einsum("...t,...t->...", q, d) for d in parts], axis=-1) * box_slope(y)
            res *= res
            res -= 1.0
            terms = (c, c[..., :, None] * z[..., None, :], res)
            sums = terms if sums is None else [np.add(t, u, out=t) for t, u in zip(sums, terms)]
        del res, parts, q  # freed before the next draw's model call
    inv = 1.0 / n
    ll = acc * inv
    if sums is None:
        return ll
    g_mu, g_l, w = sums
    # the factor's diagonal through exp, then l10
    cols = [g_l[..., 0, 0] * l00, g_l[..., 1, 1] * l11]
    if p.shape[-1] == 3:
        cols.append(g_l[..., 1, 0])
    # d ll / d log sigma: the sum of res^2 - 1 where sigma is not floored
    w *= noise_sd > SIGMA_IM_FLOOR
    return ll, g_mu * inv, np.stack(cols, axis=-1) * inv, w * inv


def _masked_rows(a, mask):
    """The rows of a (planes, h, w, k) array at mask's voxels, in C order.
    When every voxel is masked they are a reshape, with no gather."""
    return a.reshape(mask.size, a.shape[-1]) if mask.all() else a[mask]


def _grid_rows(rows, mask):
    """The inverse of _masked_rows: (rows, k) values on mask's grid, zero
    off the mask."""
    if mask.all():
        return rows.reshape(mask.shape + rows.shape[-1:])
    out = np.zeros(mask.shape + rows.shape[-1:])
    out[mask] = rows
    return out


def _elbo_core(psi, x_arr, mask_arr, prior_mu, prior_params, proto, constants, fwd_cfg, cfg, tv_lambda, rng):
    """Negative ELBO plus tv_lambda times the TV of the transformed mean
    maps, on plane-major arrays (planes, h, w, ...), against the prior rows
    prior_mu and prior_params of mask_arr's voxels, in order. Returns
    (loss, kl_mean, loglik_mean, tv), the last three floats.

    The encoder runs on the whole grid, since the gated conv reads
    neighbours. Past its heads all is array code, the KL and
    expected_loglik on the masked voxels only, and the loss is one tape
    node on the heads tensor: its vjp applies their closed-form gradients
    and puts the rows back on the grid.
    """
    n_masked = int(mask_arr.sum())
    if n_masked == 0:
        raise ValueError("batch contains no masked voxels")
    pred = encoder_forward(psi, x_arr)
    mu_l = pred.mu_l
    mu, q = _masked_rows(mu_l, mask_arr), _masked_rows(pred.sigma_l_params, mask_arr)
    kl, kl_mu, kl_q = kl_cholesky(mu, q, prior_mu, prior_params, True)
    ll, ll_mu, ll_q, ll_sigma = expected_loglik(
        _masked_rows(x_arr, mask_arr), _masked_rows(pred.log_sigma_im, mask_arr), mu, q,
        lambda oef, dbv: normalized_model_signal_t(oef, dbv, proto, constants, fwd_cfg),
        rng, cfg.n_samples_elbo,
    )
    inv = 1.0 / n_masked
    kl_mean = kl.sum() * inv
    ll_mean = ll.sum() * inv
    loss = kl_mean - ll_mean
    box = forward_transform(mu_l)
    tv, tv_grad = _tv_planes(box, mask_arr)
    if tv_lambda:
        loss = loss + tv_lambda * tv
        tv_grad *= box_slope(box)  # now in the mean logits
    d_mu, d_q = kl_mu - ll_mu, kl_q - ll_q

    def vjp(g):
        c = g * inv
        d_heads = _grid_rows(np.concatenate([d_mu * c, d_q * c, ll_sigma * -c], axis=-1), mask_arr)
        if tv_lambda:
            d_heads[..., :2] += (g * tv_lambda) * tv_grad
        return (d_heads,)

    return ad.custom(loss, (pred.heads,), vjp), float(kl_mean), float(ll_mean), tv


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
    log-likelihood, as one tape node. Differentiable w.r.t. the network
    weights. The priors' rows are the batch's masked voxels, as
    compute_prior_maps gives them.

    With return_parts, also returns {"kl", "loglik"} as floats; the loss
    equals kl - loglik exactly.
    """
    if not np.array_equal(priors.mask, batch.mask):
        raise ValueError("priors are not aligned with the batch grid and mask")
    loss, kl_mean, ll_mean, _ = _elbo_core(
        psi, planes_first(batch.data), planes_first(batch.mask), priors.mu, priors.sigma_l_params,
        proto, constants, fwd_cfg, cfg, 0.0, rng,
    )
    if return_parts:
        return loss, {"kl": kl_mean, "loglik": ll_mean}
    return loss


# total variation ------------------------------------------------------


def _tv_planes(maps, mask):
    """Mean absolute in-plane forward differences of (planes, h, w, c) maps,
    and its gradient in the maps.

    Both difference directions are evaluated on the shared (h-1) x (w-1)
    interior and normalized by planes * (h-1) * (w-1); channels are summed.
    A difference contributes only when both voxels are masked (the
    normalizer is unchanged, so edge voxels are penalized less); a tied
    difference gets zero gradient, as |x| at 0.
    """
    n_planes, h, w = maps.shape[:3]
    d_maps = np.zeros(maps.shape)
    if h < 2 or w < 2:
        return 0.0, d_maps
    norm = 1.0 / (n_planes * (h - 1) * (w - 1))
    core = mask[:, :-1, :-1]
    wx = (core & mask[:, 1:, :-1]).astype(np.float64)[..., None]
    wy = (core & mask[:, :-1, 1:]).astype(np.float64)[..., None]
    dx = maps[:, :-1, :-1] - maps[:, 1:, :-1]
    dy = maps[:, :-1, :-1] - maps[:, :-1, 1:]
    tv = float(((np.abs(dx) * wx).sum() + (np.abs(dy) * wy).sum()) * norm)
    sx, sy = np.sign(dx) * (wx * norm), np.sign(dy) * (wy * norm)
    d_maps[:, :-1, :-1] += sx + sy
    d_maps[:, 1:, :-1] -= sx
    d_maps[:, :-1, 1:] -= sy
    return tv, d_maps


def tv_loss(mean_maps, mask=None):
    """In-plane total variation of parameter maps on an (h, w, d) grid,
    (h, w, d) or (h, w, d, channels), as a float; only x/y neighbor
    differences enter, never z."""
    maps = np.asarray(mean_maps, dtype=np.float64)
    if maps.ndim == 3:
        maps = maps[..., None]
    if maps.ndim != 4:
        raise ValueError("mean_maps must have shape (h, w, d) or (h, w, d, channels)")
    mask = np.ones(maps.shape[:3], bool) if mask is None else np.asarray(mask, dtype=bool)
    return _tv_planes(np.moveaxis(maps, 2, 0), np.moveaxis(mask, 2, 0))[0]


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

    The weights and AdamW moments are each one flat float64 vector. Each
    step runs the encoder on a COMPUTE_DTYPE copy of the weights; the loss
    past the encoder's heads is float64, and the copy's gradient vector is
    cast back to float64 for the update. The returned network is float64.

    Only a fault stops the run early: a non-finite loss or gradient.
    """
    if not vols:
        raise ValueError("no volumes to fine-tune on")
    _check_finetune_compat(theta, net_cfg)
    rng = np.random.default_rng(train_cfg.seed)

    if net_cfg.spatial_mode == "gated-residual":
        psi = EncoderWeights(net_cfg, theta.n_t, extend_weights(theta, rng).tensors)
    else:
        psi = theta
    master = psi.flatten(np.float64)
    psi = psi.on_flat(master)

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

    opt = AdamWState.for_weights(master)
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

            step_psi = psi.on_flat(master.astype(COMPUTE_DTYPE))
            loss, kl_mean, ll_mean, tv = _elbo_core(
                step_psi, x_arr, mask_arr, prior_rows[:, :2], prior_rows[:, 2:],
                proto, constants, fwd_cfg, train_cfg, train_cfg.tv_lambda, rng,
            )
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise RuntimeError(f"non-finite loss at iteration {i}")
            grad = collect_gradients(step_psi, loss).astype(np.float64)
            del loss  # the step's tape, freed before the next step records its own
            lr_i = lr_schedule(i, train_cfg.iterations, train_cfg.lr)
            wd_i = lr_schedule(i, train_cfg.iterations, train_cfg.weight_decay)
            adamw_step(master, opt, grad, lr_i, wd_i)
            log.write(i, loss_val, kl=kl_mean, loglik=ll_mean, tv=tv, lr=lr_i)
    return psi
