import math
import os

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

from oximap.distributions import PARAM_OFFSET, PARAM_SCALE
from oximap.physics import AcquisitionProtocol, PhysioConstants

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
