"""Map-making and statistics: apply trained networks to volumes, compute
WLS baseline fits, per-voxel ELBO maps, region summaries, and paired
voxelwise t-statistics.

The learned point estimate is the transformed logit-space mean f(mu_l),
i.e. the distribution median; standard deviations are the exact marginal
standard deviations of each voxel's posterior, from a fixed quadrature with
no draws. All per-voxel quantities are NaN outside the mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from . import autodiff as ad
from .distributions import PARAM_SCALE, ScaledLogitNormal, cholesky_entries, forward_transform, kl_analytic
from .nnet import COMPUTE_DTYPE, EncoderWeights, encoder_forward, prediction_to_distribution
from .physics import (
    AcquisitionProtocol,
    ForwardModelConfig,
    PhysioConstants,
    characteristic_time,
    delta_omega,
    normalized_model_signal,
    r2_prime,
)
from .train import ROW_BLOCK, PriorMaps, compute_prior_maps, expected_loglik
from .volume import DEFAULT_VOXEL_SIZE_MM, Volume4D, planes_first

MAP_SOURCES = ("wls", "synth", "vi", "vi+tv")

# wls_fit fits the long-tau regime of this OEF and flags OEF above WLS_MAX_OEF
WLS_CUTOFF_OEF = 0.4
WLS_MAX_OEF = 1.0

# the per-voxel maps every source fills: map name -> ParamMaps attribute
MAP_FIELDS = {
    "oef": "oef_point",
    "dbv": "dbv_point",
    "r2p": "r2p_point",
    "oef_std": "oef_std",
    "dbv_std": "dbv_std",
    "elbo": "elbo",
}


@dataclass
class ParamMaps:
    """Per-voxel parameter maps on an (h, w, d) grid; NaN outside the mask.

    Point maps are medians (f of the logit mean) for learned sources and
    direct fit values for WLS. `elbo` is in nats, higher meaning better
    explained; WLS carries no ELBO (all NaN).
    """

    oef_point: np.ndarray
    dbv_point: np.ndarray
    r2p_point: np.ndarray
    oef_std: np.ndarray
    dbv_std: np.ndarray
    elbo: np.ndarray
    source: str
    mask: np.ndarray

    def __post_init__(self):
        if self.source not in MAP_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        self.mask = np.asarray(self.mask, dtype=bool)
        grid = self.mask.shape
        for name in MAP_FIELDS.values():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != grid:
                raise ValueError(f"{name} must match the mask grid {grid}")
            setattr(self, name, arr)
        for name in ("oef_std", "dbv_std"):
            vals = getattr(self, name)[self.mask]
            if np.any(vals[np.isfinite(vals)] < 0):
                raise ValueError(f"{name} must be nonnegative")

    @property
    def grid_shape(self):
        return self.mask.shape


@dataclass(frozen=True)
class InferenceConfig:
    """Everything infer_maps needs beyond the network and the volume."""

    protocol: AcquisitionProtocol = field(default_factory=AcquisitionProtocol)
    constants: PhysioConstants = field(default_factory=PhysioConstants)
    forward: ForwardModelConfig = field(default_factory=ForwardModelConfig)
    n_elbo_samples: int = 32
    seed: int = 0
    source: str = "vi"
    prior_weights: EncoderWeights | None = None

    def __post_init__(self):
        if self.n_elbo_samples < 1:
            raise ValueError("n_elbo_samples must be >= 1")
        if self.source not in MAP_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")


# marginal_std's rule: trapezoid nodes z = k/8, |k| <= 64, with normalised
# standard-normal weights, applied to ROW_BLOCK voxels at a time
_STD_NODES = np.arange(-64, 65) / 8.0
_STD_WEIGHTS = np.exp(-0.5 * _STD_NODES**2)
_STD_WEIGHTS /= _STD_WEIGHTS.sum()


def marginal_std(dist: ScaledLogitNormal) -> np.ndarray:
    """Exact marginal standard deviations (..., 2) of (oef, dbv) under dist.

    Each marginal is a one-dimensional scaled logit-normal: oef = f(mu0 +
    l00 z) and dbv = f(mu1 + hypot(l10, l11) z) with z standard normal. A
    trapezoid rule in z with step 1/8 on |z| <= 8 gives the mean, then the
    centred second moment, with no draws; it converges geometrically for
    these smooth integrands (relative error below 1e-6 for logit means in
    [-8, 8] and logit stds up to 8). The rule runs on the tanh form of the
    logistic, logistic(b) = (1 + tanh(b / 2)) / 2: the box map's offset and
    the 1/2 shift drop out of a centred moment, and its scale times 1/2
    multiplies the std once at the end. The voxels are taken ROW_BLOCK at a
    time, one array per block built in place, so the working memory does
    not grow with their number.
    """
    l00, l10, l11 = cholesky_entries(dist.sigma_l_params)
    mu = dist.mu.reshape(-1, 2)
    scale = np.stack([l00, np.hypot(l10, l11)], axis=-1).reshape(-1, 2)
    out = np.empty_like(mu)
    for b in range(0, mu.shape[0], ROW_BLOCK):
        blk = slice(b, b + ROW_BLOCK)
        # (voxel, component, node): the nodes run along contiguous rows, so
        # the weighted sums are matrix-vector products
        y = (0.5 * scale[blk, :, None]) * _STD_NODES
        y += 0.5 * mu[blk, :, None]
        np.tanh(y, out=y)
        y -= (y @ _STD_WEIGHTS)[..., None]
        y *= y
        out[blk] = np.sqrt(y @ _STD_WEIGHTS)
    out *= 0.5 * PARAM_SCALE
    return out.reshape(dist.mu.shape)


def _masked_posterior(weights: EncoderWeights, vol: Volume4D):
    """Detached posterior at the masked voxels: (distribution, log_sigma_im)
    with one row per voxel of planes_first(vol.mask), in plane-major order.
    The encoder runs on a COMPUTE_DTYPE copy of the weights, on the whole
    grid, since the gated conv reads neighbours."""
    m = planes_first(vol.mask)
    with ad.recording_off():
        pred = encoder_forward(weights.astype(COMPUTE_DTYPE), planes_first(vol.data))
    dist = prediction_to_distribution(pred, weights.config.covariance_mode)
    return ScaledLogitNormal(dist.mu[m], dist.sigma_l_params[m]), pred.log_sigma_im[m]


def _scatter(vals: np.ndarray, vol: Volume4D) -> np.ndarray:
    """(h, w, d, ...) array holding per-voxel values given in plane-major
    mask order; NaN outside the mask."""
    m = planes_first(vol.mask)
    planes = np.full(m.shape + vals.shape[1:], np.nan)
    planes[m] = vals
    return np.ascontiguousarray(np.moveaxis(planes, 0, 2))


def elbo_map(
    weights: EncoderWeights,
    vol: Volume4D,
    priors: PriorMaps,
    proto: AcquisitionProtocol,
    constants: PhysioConstants,
    fwd_cfg: ForwardModelConfig,
    rng: np.random.Generator,
    n_samples: int = 32,
    *,
    _posterior=None,
) -> np.ndarray:
    """Per-voxel ELBO in nats (higher = better explained); NaN outside the
    mask.

    Analytic KL against the priors (one row per masked voxel, as from
    compute_prior_maps) plus the expected_loglik of n_samples >= 1 draws,
    the code the training loss runs, here given the model signal without
    partials: a generator seeded like the training loss
    replays its draws, and the masked mean of this map equals minus the
    training loss on the same inputs. `_posterior` passes in the posterior
    infer_maps has already computed, so the encoder runs once.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not np.array_equal(priors.mask, vol.mask):
        raise ValueError("priors are not aligned with the volume grid and mask")
    dist, log_sigma = _masked_posterior(weights, vol) if _posterior is None else _posterior
    ll_vox = expected_loglik(
        planes_first(vol.data)[planes_first(vol.mask)], log_sigma, dist.mu, dist.sigma_l_params,
        lambda oef, dbv: (normalized_model_signal(oef, dbv, proto, constants, fwd_cfg), None),
        rng, n_samples,
    )
    return _scatter(ll_vox - kl_analytic(dist, priors), vol)


def infer_maps(weights: EncoderWeights, vol: Volume4D, cfg: InferenceConfig) -> ParamMaps:
    """Apply a trained network to a normalized volume.

    The encoder runs once, on the whole grid; everything after it runs on
    the masked voxels only. Point maps are the transformed logit means; std
    maps are the exact marginal posterior stds of marginal_std, with no
    draws; R2' is the deterministic map DBV * delta_omega(OEF) of the point
    estimates; the ELBO map reuses the same posterior, against priors from
    cfg.prior_weights. A voxelwise network with no prior network given is
    its own prior, so its posterior serves as the priors too and the
    encoder still runs once.
    """
    dist, log_sigma = _masked_posterior(weights, vol)
    point = forward_transform(dist.mu)
    std = marginal_std(dist)
    r2p = r2_prime((point[:, 0], point[:, 1]), cfg.constants, cfg.protocol.b0)

    if cfg.prior_weights is not None:
        priors = compute_prior_maps(cfg.prior_weights, vol)
    elif weights.config.spatial_mode != "voxelwise":
        raise ValueError("a gated-residual network needs prior_weights for the ELBO map")
    else:
        # a voxelwise network is its own prior: the posterior already computed
        priors = PriorMaps(dist.mu, dist.sigma_l_params, vol.mask)
    elbo = elbo_map(
        weights,
        vol,
        priors,
        cfg.protocol,
        cfg.constants,
        cfg.forward,
        np.random.default_rng(cfg.seed + 1),
        cfg.n_elbo_samples,
        _posterior=(dist, log_sigma),
    )
    return ParamMaps(
        oef_point=_scatter(point[:, 0], vol),
        dbv_point=_scatter(point[:, 1], vol),
        r2p_point=_scatter(r2p, vol),
        oef_std=_scatter(std[:, 0], vol),
        dbv_std=_scatter(std[:, 1], vol),
        elbo=elbo,
        source=cfg.source,
        mask=vol.mask.copy(),
    )


# WLS baseline ---------------------------------------------------------


def wls_fit(
    vol: Volume4D,
    proto: AcquisitionProtocol,
    constants: PhysioConstants,
) -> ParamMaps:
    """Weighted least-squares baseline on normalized log-ratio signals.

    Per voxel, regress the normalized signal on |tau| over the long-tau
    regime (|tau| >= the characteristic time at WLS_CUTOFF_OEF), with weights
    proportional to the squared raw signal exp(2 s*): the intercept is the
    DBV estimate zeta, the slope is -R2', and OEF = R2' / (zeta *
    delta_omega(1)). Voxels with zeta <= 0 or OEF outside (0, WLS_MAX_OEF]
    get NaN OEF (flagged, so they drop out of statistics).
    """
    tc = characteristic_time(delta_omega(WLS_CUTOFF_OEF, constants, proto.b0))
    taus = proto.tau_array
    sel = np.abs(taus) >= tc
    if sel.sum() < 3:
        raise ValueError(
            f"need >= 3 tau points with |tau| >= {tc:.4g}s for the WLS fit, have {int(sel.sum())}"
        )
    tsel = np.abs(taus[sel])

    s = planes_first(vol.data)[planes_first(vol.mask)][:, sel]  # (n, k) normalized log signals
    w = np.exp(2.0 * s)  # weights ~ squared raw signal
    # weighted linear fit s = zeta - r2p * |tau| per row
    sw = w.sum(axis=1)
    mx = (w * tsel).sum(axis=1) / sw
    my = (w * s).sum(axis=1) / sw
    cxx = (w * (tsel - mx[:, None]) ** 2).sum(axis=1)
    cxy = (w * (tsel - mx[:, None]) * (s - my[:, None])).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = cxy / cxx
    r2p = -slope
    zeta = my - slope * mx
    with np.errstate(divide="ignore", invalid="ignore"):
        oef = r2p / (zeta * delta_omega(1.0, constants, proto.b0))
    bad = ~(zeta > 0) | ~(oef > 0) | (oef > WLS_MAX_OEF) | ~np.isfinite(oef)
    oef = np.where(bad, np.nan, oef)

    zero = np.zeros(oef.shape)
    return ParamMaps(
        oef_point=_scatter(oef, vol),
        dbv_point=_scatter(zeta, vol),
        r2p_point=_scatter(r2p, vol),
        oef_std=_scatter(zero, vol),
        dbv_std=_scatter(zero, vol),
        elbo=np.full(vol.grid_shape, np.nan),
        source="wls",
        mask=vol.mask.copy(),
    )


# statistics -----------------------------------------------------------

_STAT_FIELDS = {name: attr for name, attr in MAP_FIELDS.items() if not name.endswith("_std")}


def region_stats(maps: ParamMaps, region_mask: np.ndarray) -> dict:
    """Mean and standard deviation of OEF, DBV, R2', and ELBO over a region.

    The region is intersected with the map mask; non-finite voxels (e.g.
    flagged WLS OEF) are excluded per field. Returns
    {name: (mean, std, n)}; a field with no finite voxels reports NaNs.
    """
    region_mask = np.asarray(region_mask, dtype=bool)
    if region_mask.shape != maps.grid_shape:
        raise ValueError("region mask must match the map grid")
    joint = region_mask & maps.mask
    if not joint.any():
        raise ValueError("region contains no masked voxels")
    out = {}
    for name, attr in _STAT_FIELDS.items():
        vals = getattr(maps, attr)[joint]
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            out[name] = (np.nan, np.nan, 0)
        else:
            out[name] = (float(vals.mean()), float(vals.std()), int(vals.size))
    return out


def paired_tstat(
    maps_a,
    maps_b,
    smoothing_fwhm_mm: float = 6.0,
    voxel_size_mm=DEFAULT_VOXEL_SIZE_MM,
) -> np.ndarray:
    """Voxelwise paired t-statistic between two co-registered conditions.

    Each list entry is one subject's 3-D map. Maps are optionally smoothed
    with an in-plane Gaussian (FWHM in mm, converted to voxels with
    voxel_size_mm; 0 disables, and a negative or non-finite FWHM is an
    error), then t = mean(diff) / (std(diff)/sqrt(n))
    with the 0/0 case defined as 0. Uncorrected.

    Smoothing is normalized convolution (Knutsson & Westin, CVPR 1993):
    the Gaussian of v * w divided by the Gaussian of w, with w = 1 on finite
    voxels and 0 elsewhere. The NaNs outside a mask therefore never reach
    the voxels inside it, and voxels with w = 0 stay NaN.
    """
    if len(maps_a) != len(maps_b):
        raise ValueError("conditions must have the same number of subjects")
    n = len(maps_a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 subjects")
    arrs_a = [np.asarray(m, dtype=np.float64) for m in maps_a]
    arrs_b = [np.asarray(m, dtype=np.float64) for m in maps_b]
    grid = arrs_a[0].shape
    for arr in arrs_a + arrs_b:
        if arr.shape != grid:
            raise ValueError("all maps must share one grid")

    if not (np.isfinite(smoothing_fwhm_mm) and smoothing_fwhm_mm >= 0):
        raise ValueError(f"smoothing FWHM must be finite and >= 0 mm, got {smoothing_fwhm_mm}")
    if smoothing_fwhm_mm > 0:
        sigma_mm = smoothing_fwhm_mm / np.sqrt(8.0 * np.log(2.0))
        sig = (sigma_mm / voxel_size_mm[0], sigma_mm / voxel_size_mm[1], 0.0)

        def smooth(v):
            w = np.isfinite(v)
            num = gaussian_filter(np.where(w, v, 0.0), sigma=sig)
            den = gaussian_filter(w.astype(np.float64), sigma=sig)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(w, num / den, np.nan)

        arrs_a = [smooth(a) for a in arrs_a]
        arrs_b = [smooth(b) for b in arrs_b]

    diff = np.stack(arrs_a, axis=0) - np.stack(arrs_b, axis=0)
    mean = diff.mean(axis=0)
    sd = diff.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = mean / (sd / np.sqrt(n))
    # 0/0 is a genuine no-difference voxel; mean/0 keeps its signed infinity
    return np.where((sd == 0) & (mean == 0), 0.0, t)
