import math
import os
from contextlib import contextmanager
from unittest import mock

# Pin BLAS to one thread before NumPy loads, as `import oximap` does, so the
# tests run at the documented thread count; a value the environment sets wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS_ASKED = {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ}
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np

# threads of this process once NumPy and its BLAS are loaded; None without /proc
TASKS_AFTER_NUMPY = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None

import pytest
from hypothesis import settings
from scipy.integrate import quad
from scipy.special import expit

from oximap import autodiff as ad
from oximap import train
from oximap.distributions import (
    LOG_2PI,
    PARAM_OFFSET,
    PARAM_SCALE,
    box_slope,
    cholesky_entries,
    forward_transform,
    reparameterize,
)
from oximap.nnet import SIGMA_IM_FLOOR, VoxelPrediction, collect_gradients
from oximap.physics import AcquisitionProtocol, PhysioConstants, normalized_model_signal_t

settings.register_profile("pkg", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("pkg")


@pytest.fixture(scope="session")
def proto():
    return AcquisitionProtocol()


@pytest.fixture(scope="session")
def constants():
    return PhysioConstants()


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def chol_params(L):
    """The encoder's covariance layout (log l00, log l11, l10) of
    lower-triangular factors L (..., 2, 2), as ScaledLogitNormal and
    PriorMaps hold a factor."""
    L = np.asarray(L, dtype=np.float64)
    assert np.all(L[..., 0, 1] == 0.0), "L must be lower triangular"
    return np.stack([np.log(L[..., 0, 0]), np.log(L[..., 1, 1]), L[..., 1, 0]], axis=-1)


def quad_std(mu, s, k):
    """Std of PARAM_SCALE[k] * logistic(mu + s z) + PARAM_OFFSET[k], z standard
    normal, by adaptive quadrature: the mean, then the centred second moment."""
    def f(z):
        return PARAM_SCALE[k] * expit(mu + s * z) + PARAM_OFFSET[k]

    def pdf(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    kw = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    mean = quad(lambda z: f(z) * pdf(z), -np.inf, np.inf, **kw)[0]
    var = quad(lambda z: (f(z) - mean) ** 2 * pdf(z), -np.inf, np.inf, **kw)[0]
    return np.sqrt(var)


def model_node(oef, dbv, proto, constants, fwd):
    """The model signal as a tape node on the draw (oef, dbv), whose vjp
    contracts the closed-form partials with the cotangent."""
    s, (d_oef, d_dbv) = normalized_model_signal_t(oef.data, dbv.data, proto, constants, fwd)
    return ad.custom(s, (oef, dbv), lambda g: ((g * d_oef).sum(-1), (g * d_dbv).sum(-1)))


def signal_loglik(x, log_sigma_im):
    """The per-voxel diagonal-Gaussian log-likelihood of x summed over tau,
    composed of elementary tape ops, as a function of the model signal: the
    oracle of the loss's likelihood node. The noise std is exp(log_sigma_im)
    floored at SIGMA_IM_FLOOR."""
    sigma = ad.clip_min(ad.exp(log_sigma_im), SIGMA_IM_FLOOR)
    log_norm = -0.5 * LOG_2PI - ad.log(sigma)

    def loglik(s_model):
        res = (x - s_model) / sigma
        return ad.tsum(log_norm - 0.5 * (res * res), axis=-1)

    return loglik


def col(t, k):
    """Column k of a tensor's trailing axis, as a tape slice."""
    return ad.getitem(t, (..., k))


def head_slices(heads, n_cov):
    """The three heads (mu_l, sigma_l_params, log_sigma_im) of a heads
    tensor with n_cov covariance columns, as tape slices of its columns:
    what losses composed of generic tape ops read."""
    ends = (0, 2, 2 + n_cov, heads.shape[-1])
    return tuple(ad.getitem(heads, (..., slice(a, e))) for a, e in zip(ends, ends[1:]))


def composed_expected_loglik(x, log_sigma_im, mu, l00, l10, l11, noise, proto, constants, fwd):
    """The oracle of train.expected_loglik, composed of elementary tape ops:
    the mean of signal_loglik over the draws forward_transform(mu + L z), one per
    standard-normal array z in noise, with L = [[l00, 0], [l10, l11]]."""
    loglik, acc = signal_loglik(x, log_sigma_im), None
    for z in noise:
        b0 = col(mu, 0) + l00 * z[..., 0]
        b1 = col(mu, 1) + l10 * z[..., 0] + l11 * z[..., 1]
        oef = PARAM_SCALE[0] * ad.logistic(b0) + PARAM_OFFSET[0]
        dbv = PARAM_SCALE[1] * ad.logistic(b1) + PARAM_OFFSET[1]
        term = loglik(model_node(oef, dbv, proto, constants, fwd))
        acc = term if acc is None else acc + term
    return acc * (1.0 / len(noise))


def composed_cholesky(p):
    """The factor's entries (l00, l10, l11) of the layout p as tape ops;
    a diagonal factor's l10 is the number 0.0."""
    return ad.exp(col(p, 0)), col(p, 2) if p.shape[-1] == 3 else 0.0, ad.exp(col(p, 1))


def composed_kl(mu, p, prior_mu, prior_params):
    """The oracle of distributions.kl_cholesky's value, row by row, composed
    of elementary tape ops on (mu, p): the same grouping, each log group
    through clip_min."""
    l00, l10, l11 = composed_cholesky(p)
    a, b, cc = cholesky_entries(prior_params)
    m00 = l00 / a
    m10 = (l10 - b * m00) / cc
    m11 = l11 / cc
    w0 = (col(mu, 0) - prior_mu[..., 0]) / a
    w1 = (col(mu, 1) - prior_mu[..., 1] - b * w0) / cc
    t00 = ad.clip_min(m00 * m00 - 1.0 - 2.0 * (col(p, 0) - prior_params[..., 0]), 0.0)
    t11 = ad.clip_min(m11 * m11 - 1.0 - 2.0 * (col(p, 1) - prior_params[..., 1]), 0.0)
    return 0.5 * (t00 + t11 + m10 * m10 + w0 * w0 + w1 * w1)


def _tv_weights(mask):
    """The 0/1 weights of the x and y differences of plane-major maps on
    the (h-1) x (w-1) interior: 1 where both voxels are masked."""
    core = mask[:, :-1, :-1]
    wx = (core & mask[:, 1:, :-1]).astype(np.float64)[..., None]
    wy = (core & mask[:, :-1, 1:]).astype(np.float64)[..., None]
    return wx, wy


def composed_tv(mu_l, mask):
    """The oracle of the fine-tune loss's TV, composed of elementary tape
    ops: the box map, the masked forward differences through absval and
    their normalized sum."""
    box = PARAM_SCALE * ad.logistic(mu_l) + PARAM_OFFSET
    n_planes, h, w = mask.shape
    wx, wy = _tv_weights(mask)
    core = ad.getitem(box, np.s_[:, :-1, :-1])
    adx = ad.absval(core - ad.getitem(box, np.s_[:, 1:, :-1])) * wx
    ady = ad.absval(core - ad.getitem(box, np.s_[:, :-1, 1:])) * wy
    return (ad.tsum(adx) + ad.tsum(ady)) * (1.0 / (n_planes * (h - 1) * (w - 1)))


def composed_loss(heads, x, mask, prior_mu, prior_params, noise, model_args, tv_lambda):
    """The oracle of the fine-tune loss node (train._elbo_core past the
    encoder), composed of elementary tape ops on the head tensors (mu_l,
    sigma_l_params, log_sigma_im), each (planes, h, w, k): mean KL minus
    mean expected log-likelihood over mask's voxels, plus tv_lambda times
    the TV. noise holds one standard-normal (masked voxels, 2) array per
    draw."""
    mu, p, log_sigma = (ad.getitem(t, mask) for t in heads)
    inv = 1.0 / int(mask.sum())
    kl = composed_kl(mu, p, prior_mu, prior_params)
    ll = composed_expected_loglik(x[mask], log_sigma, mu, *composed_cholesky(p), noise, *model_args)
    loss = ad.tsum(kl) * inv - ad.tsum(ll) * inv
    return loss + tv_lambda * composed_tv(heads[0], mask) if tv_lambda else loss


def loss_node(heads, x, mask, prior_mu, prior_params, model_args, n_draws, tv_lambda, seed):
    """train._elbo_core on a given heads tensor (planes, h, w, 2 + k + taus)
    in place of the encoder's, its draws from default_rng(seed): (loss,
    kl_mean, loglik_mean, tv)."""
    cfg = train.TrainingConfig.finetune_defaults(n_samples_elbo=n_draws)
    pred = VoxelPrediction(heads, heads.shape[-1] - 2 - x.shape[-1])
    with mock.patch.object(train, "encoder_forward", lambda psi, x_arr: pred):
        return train._elbo_core(None, x, mask, prior_mu, prior_params, *model_args, cfg, tv_lambda,
                                np.random.default_rng(seed))


def kl_term_sizes(mu, p, prior_mu, prior_params):
    """Per row, the size of the terms summed into kl_cholesky's gradients in
    mu and p: the same sums over absolute values, a clamped log group's
    terms dropped."""
    l00, l10, l11 = cholesky_entries(p)
    a, b, cc = cholesky_entries(prior_params)
    m00 = l00 / a
    m10 = np.abs((l10 - b * m00) / cc)
    m11 = l11 / cc
    w0 = (mu[..., 0] - prior_mu[..., 0]) / a
    w1 = np.abs((mu[..., 1] - prior_mu[..., 1] - b * w0) / cc)
    on00 = m00 * m00 - 1.0 - 2.0 * (p[..., 0] - prior_params[..., 0]) > 0.0
    on11 = m11 * m11 - 1.0 - 2.0 * (p[..., 1] - prior_params[..., 1]) > 0.0
    b = np.abs(b)
    size_mu = np.stack([(np.abs(w0) + b * w1 / cc) / a, w1 / cc], axis=-1)
    cols = [(m00 * m00 + 1.0) * on00 + b * m10 / cc * m00, (m11 * m11 + 1.0) * on11]
    if p.shape[-1] == 3:
        cols.append(m10 / cc)
    return size_mu, np.stack(cols, axis=-1)


def loglik_term_sizes(x, log_sigma_im, mu, p, noise, model_args):
    """Per row, the size of the terms summed into train.expected_loglik's
    gradients in mu, p and log_sigma_im on the given draws' noise: per draw
    and tau, |d ll / d s| times the model's partial, through the box map's
    slope and |z|, and res^2 + 1 for log sigma, meaned over the draws."""
    noise_sd = np.exp(log_sigma_im)
    sigma = np.maximum(noise_sd, SIGMA_IM_FLOOR)
    l00, l10, l11 = cholesky_entries(p)
    size_mu, size_l, size_ls = 0.0, 0.0, 0.0
    for z in noise:
        y = reparameterize(mu, l00, l10, l11, z)
        s, parts = normalized_model_signal_t(y[..., 0], y[..., 1], *model_args)
        res = (x - s) / sigma
        c = np.stack([np.abs(res / sigma * d).sum(axis=-1) for d in parts], axis=-1) * box_slope(y)
        size_mu = size_mu + c
        size_l = size_l + c[..., :, None] * np.abs(z)[..., None, :]
        size_ls = size_ls + (res * res + 1.0) * (noise_sd > SIGMA_IM_FLOOR)
    cols = [size_l[..., 0, 0] * l00, size_l[..., 1, 1] * l11]
    if p.shape[-1] == 3:
        cols.append(size_l[..., 1, 0])
    n = len(noise)
    return size_mu / n, np.stack(cols, axis=-1) / n, size_ls / n


def loss_term_sizes(heads, x, mask, prior_mu, prior_params, noise, model_args, tv_lambda):
    """Per element, the size of the terms summed into the loss node's
    gradients in its three heads (arrays, as composed_loss takes them as
    tensors): the KL's and every draw's terms over the masked voxels and,
    with tv_lambda, the TV's differences through the box map's slope."""
    mu_l, p, log_sigma = heads
    inv = 1.0 / int(mask.sum())
    kl_mu, kl_p = kl_term_sizes(mu_l[mask], p[mask], prior_mu, prior_params)
    ll_mu, ll_p, ll_ls = loglik_term_sizes(x[mask], log_sigma[mask], mu_l[mask], p[mask], noise, model_args)
    sizes = [np.zeros(h.shape) for h in heads]
    for size, rows in zip(sizes, (kl_mu + ll_mu, kl_p + ll_p, ll_ls)):
        size[mask] = rows * inv
    if tv_lambda:
        n_planes, h, w = mask.shape
        wx, wy = _tv_weights(mask)
        count = np.zeros(mu_l.shape)
        count[:, :-1, :-1] += wx + wy
        count[:, 1:, :-1] += wx
        count[:, :-1, 1:] += wy
        slope = box_slope(forward_transform(mu_l))
        sizes[0] += abs(tv_lambda) / (n_planes * (h - 1) * (w - 1)) * count * slope
    return sizes


def named_gradients(weights, loss):
    """collect_gradients's flat gradient as a name -> array dict, each array
    a view in the weights' dtype and shape."""
    return weights.on_flat(collect_gradients(weights, loss)).arrays()


def tape_nodes(*outs):
    """Every node reachable from outs, each once."""
    nodes, stack = {}, list(outs)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


@contextmanager
def usable_cpus(n):
    """Let the gated block nodes see n usable CPUs: with one their two
    halves run one after the other on the calling thread, with two or more
    on two threads."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n))):
        yield
