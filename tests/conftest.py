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
from oximap.distributions import LOG_2PI, PARAM_OFFSET, PARAM_SCALE
from oximap.nnet import SIGMA_IM_FLOOR, collect_gradients
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


def composed_expected_loglik(x, log_sigma_im, mu, l00, l10, l11, noise, proto, constants, fwd):
    """The oracle of train.expected_loglik, composed of elementary tape ops:
    the mean of signal_loglik over the draws to_box(mu + L z), one per
    standard-normal array z in noise, with L = [[l00, 0], [l10, l11]]."""
    loglik, acc = signal_loglik(x, log_sigma_im), None
    for z in noise:
        b0 = mu[..., 0] + l00 * z[..., 0]
        b1 = mu[..., 1] + l10 * z[..., 0] + l11 * z[..., 1]
        oef = PARAM_SCALE[0] * ad.logistic(b0) + PARAM_OFFSET[0]
        dbv = PARAM_SCALE[1] * ad.logistic(b1) + PARAM_OFFSET[1]
        term = loglik(model_node(oef, dbv, proto, constants, fwd))
        acc = term if acc is None else acc + term
    return acc * (1.0 / len(noise))


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
