"""Scaled logit-normal distribution over (oef, dbv) and its KL machinery.

A 2-d Gaussian with mean mu and lower-triangular Cholesky factor L lives in
logit space; the box map f(beta) = PARAM_SCALE * logistic(beta) + PARAM_OFFSET
confines it to the fixed open box (0.05, 0.85) x (0.001, 0.301). The density
follows by the change of variables, whose exact log-Jacobian is
  -sum_i log(PARAM_SCALE_i * yhat_i * (1 - yhat_i)),   yhat = (y - PARAM_OFFSET) / PARAM_SCALE.

Two such distributions share the box, so their KL divergence equals the
Gaussian KL of their bases, which is available in closed form; a Monte
Carlo estimate is kept as a cross-check.

The box map, the reparameterized draw, the log-density, the Cholesky
read-out of the encoder's covariance head and the KL each have one body
that takes arrays or tape tensors: training runs them on the tape, analysis
under ad.recording_off().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import autodiff as ad

PARAM_SCALE = np.array([0.8, 0.3])
PARAM_OFFSET = np.array([0.05, 0.001])
PARAM_NAMES = ("oef", "dbv")

LOG_2PI = float(np.log(2.0 * np.pi))


def to_box(beta):
    """The box map PARAM_SCALE * logistic(beta) + PARAM_OFFSET over a
    trailing (oef, dbv) axis; an array or tape tensor in, a tape tensor out."""
    return PARAM_SCALE * ad.logistic(beta) + PARAM_OFFSET


def forward_transform(beta):
    """Map logit-space coordinates into the open parameter box (arrays)."""
    with ad.recording_off():
        return to_box(np.asarray(beta, dtype=np.float64)).data


def inverse_transform(y):
    """Logits of box coordinates; raises if any component leaves the open box."""
    y = np.asarray(y, dtype=np.float64)
    yhat = (y - PARAM_OFFSET) / PARAM_SCALE
    bad = np.nonzero(~((yhat > 0.0) & (yhat < 1.0)))
    if bad[0].size:
        first = tuple(int(b[0]) for b in bad)
        k = first[-1]
        lo, hi = PARAM_OFFSET[k], PARAM_OFFSET[k] + PARAM_SCALE[k]
        value = np.broadcast_to(y, yhat.shape)[first]
        raise ValueError(f"{PARAM_NAMES[k]} value {value} outside the open support ({lo}, {hi})")
    return np.log(yhat) - np.log1p(-yhat)


def cholesky_entries(p):
    """Read the Cholesky factor L = [[l00, 0], [l10, l11]] out of the
    encoder's covariance layout p = (log l00, log l11[, l10]) on a trailing
    axis; a width of 2 means a diagonal factor (l10 = 0).

    p may be an array or a tape tensor. Returns (l00, l10, l11, log l00,
    log l11); the logs are the entries of p itself, so they stay exact.
    """
    log_l00 = p[..., 0]
    log_l11 = p[..., 1]
    l00 = ad.exp(log_l00)
    l11 = ad.exp(log_l11)
    l10 = p[..., 2] if p.shape[-1] == 3 else 0.0
    return l00, l10, l11, log_l00, log_l11


def neg_log_density(mu, p, y):
    """Exact -log q(y) at box coordinates y (..., 2) of the scaled
    logit-normal with logit mean mu and Cholesky factor p in the layout of
    cholesky_entries; broadcasts over leading axes.

    mu and p may be arrays or tape tensors; the result is a tape tensor.
    Raises if y leaves the open box.
    """
    y = np.asarray(y, dtype=np.float64)
    beta = inverse_transform(y)
    yhat = (y - PARAM_OFFSET) / PARAM_SCALE
    log_jac = np.log(PARAM_SCALE * yhat * (1.0 - yhat)).sum(axis=-1)

    q0 = p[..., 0]
    q1 = p[..., 1]
    r0 = ad.as_tensor(beta[..., 0]) - mu[..., 0]
    r1 = ad.as_tensor(beta[..., 1]) - mu[..., 1]
    w0 = r0 * ad.exp(-q0)
    if p.shape[-1] == 3:
        w1 = (r1 - p[..., 2] * w0) * ad.exp(-q1)
    else:
        w1 = r1 * ad.exp(-q1)
    return LOG_2PI + q0 + q1 + 0.5 * (w0 * w0 + w1 * w1) + log_jac


@dataclass
class ScaledLogitNormal:
    """Distribution over the (oef, dbv) box, parameterized in logit space.

    mu (..., 2) is the logit-space mean and sigma_l_params (..., 2|3) its
    Cholesky factor in the encoder's layout (log l00, log l11[, l10]), read
    by cholesky_entries: width 2 is a diagonal factor, width 3 a full one.
    Every such layout is a lower-triangular factor with a positive diagonal.
    """

    mu: np.ndarray
    sigma_l_params: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma_l_params = np.asarray(self.sigma_l_params, dtype=np.float64)
        if self.mu.shape[-1:] != (2,):
            raise ValueError("mu must have trailing length 2")
        if self.sigma_l_params.shape[-1:] not in ((2,), (3,)):
            raise ValueError("sigma_l_params must have trailing length 2 or 3")
        if self.sigma_l_params.shape[:-1] != self.mu.shape[:-1]:
            raise ValueError("mu and sigma_l_params must share their leading axes")

    def log_prob(self, y):
        """Exact log-density at box coordinates y (broadcast over leading axes)."""
        with ad.recording_off():
            return -neg_log_density(self.mu, self.sigma_l_params, y).data

    def sample(self, rng: np.random.Generator, n: int):
        """n reparameterized draws f(mu + L z), z standard normal, on a new leading axis."""
        return self.transform_noise(rng.standard_normal((n,) + self.mu.shape))

    def transform_noise(self, z):
        """Push given standard-normal noise through the reparameterization."""
        z = np.asarray(z, dtype=np.float64)
        with ad.recording_off():
            l00, l10, l11, _, _ = cholesky_entries(self.sigma_l_params)
            y0, y1 = reparameterize(self.mu, l00, l10, l11, z)
        return np.stack([y0.data, y1.data], axis=-1)


def reparameterize(mu, l00, l10, l11, z):
    """The reparameterized draw y = to_box(mu + L z), per component.

    L = [[l00, 0], [l10, l11]] and z is standard-normal noise with a
    trailing axis of 2. mu and the entries of L may be arrays or tape
    tensors; returns the two box coordinates (oef, dbv) as tape tensors.
    """
    b0 = mu[..., 0] + l00 * z[..., 0]
    b1 = mu[..., 1] + l10 * z[..., 0] + l11 * z[..., 1]
    # the box map per component: stacking b0 and b1 for to_box would copy
    # every draw once more and add two tape nodes per training draw
    return (
        PARAM_SCALE[0] * ad.logistic(b0) + PARAM_OFFSET[0],
        PARAM_SCALE[1] * ad.logistic(b1) + PARAM_OFFSET[1],
    )


def kl_cholesky(mu_q, l00, l10, l11, log_l00, log_l11, mu_p, p_params):
    """Closed-form KL(q || p) of two bivariate Gaussians, from q's Cholesky entries.

    q has mean mu_q and factor [[l00, 0], [l10, l11]], with the logs of its
    diagonal passed exactly; p has mean mu_p and factor p_params, an array in
    the layout of cholesky_entries. q's inputs may be arrays or tape tensors;
    the result is a tape tensor. Grouped as
    0.5 * [(m00^2-1-2 log m00) + (m11^2-1-2 log m11) + m10^2 + |w|^2]
    with M = Lp^-1 Lq and w = Lp^-1 (mu_q - mu_p); each log group is clamped
    at zero so rounding can never produce a negative KL.
    """
    with ad.recording_off():
        a, b, cc, log_a, log_cc = cholesky_entries(p_params)
    m00 = l00 / a
    m10 = (l10 - b * m00) / cc
    m11 = l11 / cc
    w0 = (mu_q[..., 0] - mu_p[..., 0]) / a
    w1 = (mu_q[..., 1] - mu_p[..., 1] - b * w0) / cc
    t00 = ad.clip_min(m00 * m00 - 1.0 - 2.0 * (log_l00 - log_a), 0.0)
    t11 = ad.clip_min(m11 * m11 - 1.0 - 2.0 * (log_l11 - log_cc), 0.0)
    return 0.5 * (t00 + t11 + m10 * m10 + w0 * w0 + w1 * w1)


def kl_analytic(q: ScaledLogitNormal, p: ScaledLogitNormal):
    """Closed-form KL(q || p); exact because the box transform is shared."""
    with ad.recording_off():
        l00, l10, l11, log_l00, log_l11 = cholesky_entries(q.sigma_l_params)
        return kl_cholesky(q.mu, l00, l10, l11, log_l00, log_l11, p.mu, p.sigma_l_params).data


def kl_monte_carlo(q: ScaledLogitNormal, p: ScaledLogitNormal, rng: np.random.Generator, n: int):
    """Sample estimate mean[log q(y) - log p(y)] over n draws from q."""
    y = q.sample(rng, n)
    return np.mean(q.log_prob(y) - p.log_prob(y), axis=0)


def truncated_normal_sample(mean, std, low, high, rng: np.random.Generator, size):
    """Inverse-CDF sampling of a normal restricted to (low, high).

    std = 0 collapses to the clamped mean. Results are nudged strictly
    inside the interval so downstream logit transforms stay finite.

    When the interval sits above the mean the problem is reflected first:
    the normal CDF saturates at 1.0 long before it underflows at 0.0, so
    the left tail is the numerically safe one.
    """
    if not low < high:
        raise ValueError("low must be smaller than high")
    if std < 0:
        raise ValueError("std must be non-negative")
    inner_lo = np.nextafter(low, high)
    inner_hi = np.nextafter(high, low)
    if std == 0:
        return np.full(size, min(max(mean, inner_lo), inner_hi))
    flip = mean < 0.5 * (low + high)
    if flip:
        mean, low, high = -mean, -high, -low
    ua = ndtr((low - mean) / std)
    ub = ndtr((high - mean) / std)
    u01 = rng.random(size)
    u01 = np.maximum(u01, np.finfo(np.float64).tiny)
    x = mean + std * ndtri(ua + (ub - ua) * u01)
    if flip:
        x = -x
    return np.clip(x, inner_lo, inner_hi)
