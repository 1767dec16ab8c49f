"""Scaled logit-normal distribution over (oef, dbv) and its KL machinery.

A 2-d Gaussian with mean mu and lower-triangular Cholesky factor L lives in
logit space; the box map f(beta) = PARAM_SCALE * logistic(beta) + PARAM_OFFSET
confines it to the fixed open box (0.05, 0.85) x (0.001, 0.301). The density
follows by the change of variables, whose exact log-Jacobian is
  -sum_i log(PARAM_SCALE_i * yhat_i * (1 - yhat_i)),   yhat = (y - PARAM_OFFSET) / PARAM_SCALE.

Two such distributions share the box, so their KL divergence equals the
Gaussian KL of their bases, which is available in closed form; a Monte
Carlo estimate is kept as a cross-check.

The box map, the Cholesky read-out of the encoder's covariance head, the
log-density and the KL are array code, shared by training and analysis:
the log-density and KL bodies also return their closed-form gradients,
which each training stage's one loss node applies. The reparameterized
draw and the box map's slope take arrays, in training too, where the loss
node carries their gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit, ndtr, ndtri

PARAM_SCALE = np.array([0.8, 0.3])
PARAM_OFFSET = np.array([0.05, 0.001])
PARAM_NAMES = ("oef", "dbv")

LOG_2PI = float(np.log(2.0 * np.pi))


def forward_transform(beta):
    """The box map PARAM_SCALE * logistic(beta) + PARAM_OFFSET over a
    trailing (oef, dbv) axis: logit-space coordinates into the open
    parameter box."""
    return PARAM_SCALE * expit(np.asarray(beta, dtype=np.float64)) + PARAM_OFFSET


def box_slope(y):
    """The box map's slope d y / d beta = PARAM_SCALE * yhat * (1 - yhat) at
    box coordinates y (..., 2), yhat = (y - PARAM_OFFSET) / PARAM_SCALE."""
    yhat = (y - PARAM_OFFSET) / PARAM_SCALE
    return PARAM_SCALE * yhat * (1.0 - yhat)


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
    axis: the arrays (l00, l10, l11). A width of 2 means a diagonal factor,
    whose l10 is the number 0.0."""
    l10 = p[..., 2] if p.shape[-1] == 3 else 0.0
    return np.exp(p[..., 0]), l10, np.exp(p[..., 1])


class BoxLogits(NamedTuple):
    """Box coordinates as the log-density reads them: their logits beta
    (..., 2) and the log-Jacobian log|dy/dbeta| summed over (oef, dbv)."""

    beta: np.ndarray
    log_jac: np.ndarray


def box_logits(y) -> BoxLogits:
    """The BoxLogits of box coordinates y (..., 2); raises if y leaves the open box."""
    y = np.asarray(y, dtype=np.float64)
    return BoxLogits(inverse_transform(y), np.log(box_slope(y)).sum(axis=-1))


def neg_log_density(mu, p, y, grad):
    """Exact -log q(y) at box coordinates y (..., 2) of the scaled
    logit-normal with logit mean mu and Cholesky factor p in the layout of
    cholesky_entries, one value per row; broadcasts over leading axes.

    y may also be the BoxLogits of the coordinates, computed once for
    reuse. Returns nll, or with grad (nll, d nll / d mu, d nll / d p), the
    gradients row by row, shaped like mu and p. Raises if y leaves the
    open box.
    """
    beta, log_jac = y if isinstance(y, BoxLogits) else box_logits(y)
    full = p.shape[-1] == 3
    # whitened residuals w = L^-1 (beta - mu), L = [[e^p0, 0], [l10, e^p1]]
    e0 = np.exp(-p[..., 0])
    e1 = np.exp(-p[..., 1])
    w0 = (beta[..., 0] - mu[..., 0]) * e0
    r1 = beta[..., 1] - mu[..., 1]
    w1 = (r1 - p[..., 2] * w0 if full else r1) * e1
    nll = LOG_2PI + p[..., 0] + p[..., 1] + 0.5 * (w0 * w0 + w1 * w1) + log_jac
    if not grad:
        return nll
    # d/dw0 through w0 itself and, on a full factor, through w1
    a0 = w0 - w1 * p[..., 2] * e1 if full else w0
    cols = [1.0 - a0 * w0, 1.0 - w1 * w1] + ([-w1 * w0 * e1] if full else [])
    return nll, np.stack([-a0 * e0, -w1 * e1], axis=-1), np.stack(cols, axis=-1)


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
        return -neg_log_density(self.mu, self.sigma_l_params, y, False)

    def sample(self, rng: np.random.Generator, n: int):
        """n reparameterized draws f(mu + L z), z standard normal, on a new leading axis."""
        z = rng.standard_normal((n,) + self.mu.shape)
        return reparameterize(self.mu, *cholesky_entries(self.sigma_l_params), z)


def reparameterize(mu, l00, l10, l11, z):
    """The reparameterized draw y = forward_transform(mu + L z): box
    coordinates (..., 2) of standard-normal noise z (..., 2), with
    L = [[l00, 0], [l10, l11]] given by its entries."""
    beta = np.stack([mu[..., 0] + l00 * z[..., 0], mu[..., 1] + l10 * z[..., 0] + l11 * z[..., 1]], axis=-1)
    return forward_transform(beta)


def kl_cholesky(mu_q, q, mu_p, p, grad):
    """Closed-form KL(q || p) of two bivariate Gaussians, one per row, and
    with grad also its gradients in mu_q and q.

    Each has a mean and a factor in the layout of cholesky_entries. Grouped
    as 0.5 * [(m00^2-1-2 log m00) + (m11^2-1-2 log m11) + m10^2 + |w|^2]
    with M = Lp^-1 Lq and w = Lp^-1 (mu_q - mu_p); each log group is
    clamped at zero so rounding can never produce a negative KL, and gets
    zero gradient where it is <= 0. Returns kl, or (kl, d kl / d mu_q,
    d kl / d q) with the gradients row by row, shaped like mu_q and q.
    """
    l00, l10, l11 = cholesky_entries(q)
    a, b, cc = cholesky_entries(p)
    m00 = l00 / a
    m10 = (l10 - b * m00) / cc
    m11 = l11 / cc
    w0 = (mu_q[..., 0] - mu_p[..., 0]) / a
    w1 = (mu_q[..., 1] - mu_p[..., 1] - b * w0) / cc
    x00 = m00 * m00 - 1.0 - 2.0 * (q[..., 0] - p[..., 0])
    x11 = m11 * m11 - 1.0 - 2.0 * (q[..., 1] - p[..., 1])
    kl = 0.5 * (np.maximum(x00, 0.0) + np.maximum(x11, 0.0) + m10 * m10 + w0 * w0 + w1 * w1)
    if not grad:
        return kl
    g_w1 = w1 / cc
    g_m10 = m10 / cc
    # in the layout's logs d m00 / d log l00 = m00, and so for m11
    cols = [(m00 * m00 - 1.0) * (x00 > 0.0) - b * g_m10 * m00, (m11 * m11 - 1.0) * (x11 > 0.0)]
    if q.shape[-1] == 3:
        cols.append(g_m10)
    return kl, np.stack([(w0 - b * g_w1) / a, g_w1], axis=-1), np.stack(cols, axis=-1)


def kl_analytic(q: ScaledLogitNormal, p: ScaledLogitNormal):
    """Closed-form KL(q || p); exact because the box transform is shared."""
    return kl_cholesky(q.mu, q.sigma_l_params, p.mu, p.sigma_l_params, False)


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
