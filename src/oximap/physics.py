"""Forward signal models for asymmetric spin-echo (ASE) qBOLD MRI.

The tissue model attenuates the spin-echo signal by exp(-dbv * I(dw * tau))
where I is the reversible-dephasing integral of the static dephasing regime
and dw is the characteristic frequency set by deoxygenated blood. A cheaper
two-regime approximation (quadratic near the spin echo, linear from
|tau| = TC_FACTOR / dw on) and an optional intravascular blood compartment
complete the model family. The spin echo is the one zero tau of the
acquisition's schedule.

All signal functions broadcast over leading axes of oef/dbv arrays and
return arrays whose trailing axis runs over the acquisition's tau offsets.
The model is written once, on arrays (_model), with closed-form partials in
oef and dbv: the plain-array functions return its signal, and
normalized_model_signal_t the signal with its partials, which the ELBO's one
likelihood node contracts with the likelihood's gradient; so training and
analysis evaluate the same arithmetic.
I and dI/da are read from a table built by static_dephasing_integral's rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import j0, j1

DEFAULT_TAUS = tuple(np.round(np.arange(-16, 65, 8) * 1e-3, 6))


@dataclass(frozen=True)
class AcquisitionProtocol:
    """Tau schedule and timing of one ASE acquisition. Times in seconds, field in tesla."""

    tau: tuple[float, ...] = DEFAULT_TAUS
    te: float = 0.074
    tr: float = 3.0
    ti: float = 1.21
    b0: float = 3.0

    def __post_init__(self):
        zeros = [i for i, t in enumerate(self.tau) if t == 0.0]
        if len(zeros) != 1:
            raise ValueError(f"exactly one tau must be 0 (the spin echo); zeros found at {zeros}")
        for name in ("te", "tr", "ti", "b0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.ti >= self.tr:
            raise ValueError("ti must be smaller than tr")

    @property
    def n_t(self) -> int:
        return len(self.tau)

    @property
    def se_index(self) -> int:
        """Position of the spin echo: the one zero tau."""
        return self.tau.index(0.0)

    @property
    def tau_array(self) -> np.ndarray:
        return np.asarray(self.tau, dtype=np.float64)


@dataclass(frozen=True)
class PhysioConstants:
    """Physiological and hardware constants of the signal model.

    r2_blood is an implementation default, exposed here because no single
    agreed value exists for it at 3 T.
    """

    hct: float = 0.34
    delta_chi0: float = 2.64e-7
    gamma: float = 2.675e8
    r2_tissue: float = 11.5
    blood_spin_density: float = 0.775
    t1_blood: float = 1.58
    vessel_radius_um: float = 2.6
    blood_diffusivity_um2_per_ms: float = 2.0
    r2_blood: float = 31.1

    def __post_init__(self):
        for name in (
            "hct",
            "delta_chi0",
            "gamma",
            "r2_tissue",
            "blood_spin_density",
            "t1_blood",
            "vessel_radius_um",
            "blood_diffusivity_um2_per_ms",
            "r2_blood",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0 < self.hct < 1):
            raise ValueError("hct must lie in (0, 1)")

    @property
    def diffusion_time(self) -> float:
        """Characteristic diffusion time across a vessel radius, in seconds."""
        return (self.vessel_radius_um**2 / self.blood_diffusivity_um2_per_ms) * 1e-3


@dataclass(frozen=True)
class ForwardModelConfig:
    """Which member of the signal-model family to evaluate."""

    variant: str = "full"
    compartments: int = 2

    def __post_init__(self):
        if self.variant not in ("full", "asymptotic"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.compartments not in (1, 2):
            raise ValueError("compartments must be 1 or 2")


def delta_omega(oef, c: PhysioConstants, b0: float):
    """Characteristic dephasing frequency (rad/s): gamma * (4/3) pi * dchi0 * hct * oef * b0."""
    oef = np.asarray(oef, dtype=np.float64)
    if np.any(oef < 0):
        raise ValueError("oef must be non-negative")
    return c.gamma * (4.0 / 3.0) * np.pi * c.delta_chi0 * c.hct * oef * b0


# the crossover of the two-regime approximation sits at tau = TC_FACTOR / dw
TC_FACTOR = 1.5


def characteristic_time(dw):
    """Transition time TC_FACTOR / dw between the quadratic and linear dephasing regimes.

    dw == 0 has no transition; infinity is returned so that every tau
    falls in the short regime.
    """
    dw = np.asarray(dw, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.where(dw == 0.0, np.inf, TC_FACTOR / dw)


def one_minus_j0(x):
    """1 - J0(x), switching to the power series below |x| = 0.01 to avoid cancellation."""
    x = np.asarray(x, dtype=np.float64)
    x2 = x * x
    series = x2 / 4.0 - x2 * x2 / 64.0 + x2 * x2 * x2 / 2304.0
    with np.errstate(invalid="ignore"):
        direct = 1.0 - j0(x)
    return np.where(np.abs(x) < 1e-2, series, direct)


@lru_cache(maxsize=8)
def _quad_rule(n_intervals: int):
    """Composite-Simpson rule for the dephasing integral.

    The integrand over u in [0, 1] carries a sqrt(1-u) endpoint factor, so
    Simpson is applied after substituting u = 1 - v^2 (the transformed
    integrand is analytic on the whole interval). Returns the interior
    u nodes, their combined weights, and the weight of the u -> 0 endpoint
    whose sample is the analytic limit 2 * (3/8) a^2 of the transformed
    integrand (the substitution's Jacobian contributes the factor 2).
    """
    n = n_intervals
    v = np.linspace(0.0, 1.0, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= 3.0 * n
    vm = v[1:-1]
    u = 1.0 - vm * vm
    # 2 v (2+u) sqrt(1-u) / (3 u^2) with sqrt(1-u) = v
    prefactor = 2.0 * vm * vm * (2.0 + u) / (3.0 * u * u)
    return u, w[1:-1] * prefactor, w[-1]


def _integral_core(a, n_intervals):
    u, cw, w_end = _quad_rule(n_intervals)
    a = np.asarray(a, dtype=np.float64)
    args = 1.5 * a.reshape(-1, 1) * u
    # v = 1 endpoint: transformed integrand tends to 2 * (3/8) a^2
    return (one_minus_j0(args) @ cw).reshape(a.shape) + w_end * 0.75 * a * a


def _integral_core_dda(a, n_intervals):
    u, cw, w_end = _quad_rule(n_intervals)
    a = np.asarray(a, dtype=np.float64)
    args = 1.5 * a.reshape(-1, 1) * u
    return (j1(args) @ (cw * 1.5 * u)).reshape(a.shape) + w_end * 1.5 * a


def static_dephasing_integral(dw, tau, n_intervals: int = 64):
    """Reversible-dephasing attenuation integral I(dw * tau).

    I = integral over u in (0, 1] of (2+u) sqrt(1-u) / (3 u^2) * (1 - J0(1.5 dw tau u)),
    even in tau, zero at tau = 0, evaluated by composite Simpson (see _quad_rule).
    """
    if n_intervals < 2 or n_intervals % 2:
        raise ValueError("n_intervals must be an even number >= 2")
    a = np.asarray(dw, dtype=np.float64) * np.asarray(tau, dtype=np.float64)
    return _integral_core(a, n_intervals)


# The forward model reads I from a table: nodes every 1/32 in |a|, cubic Hermite
# pieces between them. It covers |a| <= 32 and doubles as arguments need, up to 256.
_NODES_PER_UNIT = 32
_FIRST_EXTENT, _MAX_EXTENT = 32, 256


@lru_cache(maxsize=None)
def _kernel_table(extent: int) -> np.ndarray:
    """Hermite coefficients (4, 32 * extent) of I in the offset t in [0, 1] of each node interval.

    I and dI/da at the nodes in (m - 1, m] come from Simpson's rule with 32 (m + 1) panels: its
    error grows like (a / panels)^4, which this holds near 3e-8. A node's value thus depends on
    its own a only, never on how far the table reaches.
    """
    n = _NODES_PER_UNIT
    y, d = [np.zeros(1)], [np.zeros(1)]  # I(0) = I'(0) = 0 exactly
    for m in range(1, extent + 1):
        a = np.arange(n * (m - 1) + 1, n * m + 1) / n
        y.append(_integral_core(a, 32 * (m + 1)))
        d.append(_integral_core_dda(a, 32 * (m + 1)) / n)
    y, d = np.concatenate(y), np.concatenate(d)
    step = np.diff(y)
    return np.stack([y[:-1], d[:-1], 3.0 * step - 2.0 * d[:-1] - d[1:], d[:-1] + d[1:] - 2.0 * step])


# keeps its tape-era name: the benchmark's tracer wraps physics.dephasing_integral_t
def dephasing_integral_t(a, slope: bool):
    """The model's read of the kernel table: I(a) and, with slope=True, dI/da of
    that same interpolant (else None), both from one lookup of each argument's
    node interval."""
    x = np.abs(a) * _NODES_PER_UNIT
    top = np.fmax.reduce(x, axis=None, initial=0.0) / _NODES_PER_UNIT
    extent = _FIRST_EXTENT
    while extent < top and extent <= _MAX_EXTENT:
        extent *= 2
    if extent > _MAX_EXTENT:
        raise ValueError(f"|dw * tau| = {top:.6g} lies beyond the dephasing table's range [0, {_MAX_EXTENT}]")
    coef = _kernel_table(extent)
    # a NaN argument gets some clipped index and stays NaN through t
    with np.errstate(invalid="ignore"):
        k = np.minimum(x, coef.shape[1] - 1).astype(np.intp)
    t = x - k
    c0, c1, c2, c3 = (np.take(row, k, mode="clip") for row in coef)
    value = c0 + t * (c1 + t * (c2 + t * c3))
    if not slope:
        return value, None
    return value, (c1 + t * (2.0 * c2 + 3.0 * t * c3)) * _NODES_PER_UNIT * np.sign(a)


def mean_square_inhomogeneity(c: PhysioConstants, b0: float):
    """Mean squared field inhomogeneity around randomly packed spheres: (4/45) hct (1-hct) (dchi0 b0)^2."""
    return (4.0 / 45.0) * c.hct * (1.0 - c.hct) * (c.delta_chi0 * b0) ** 2


def steady_state_magnetization(tr: float, ti: float, t1_blood: float):
    """Longitudinal blood magnetization under the inversion-prepared steady state."""
    return 1.0 - (2.0 - np.exp(-(tr - ti) / t1_blood)) * np.exp(-ti / t1_blood)


def blood_signal(proto: AcquisitionProtocol, c: PhysioConstants) -> np.ndarray:
    """Motional-narrowing signal of the blood compartment, one value per tau.

    Depends on the protocol and constants only; in this model family the
    blood compartment does not vary with oef.
    """
    taus = proto.tau_array
    td = c.diffusion_time
    arg_plus = 0.5 + (proto.te + taus) / td
    arg_minus = 0.25 + (proto.te - taus) / td
    for name, arg in (("te+tau", arg_plus), ("te-tau", arg_minus)):
        bad = np.nonzero(arg < 0)[0]
        if bad.size:
            raise ValueError(
                f"blood signal undefined: sqrt argument {name} negative at tau index {bad[0]}"
            )
    g0 = mean_square_inhomogeneity(c, proto.b0)
    bracket = (
        proto.te / td
        + np.sqrt(0.25 + proto.te / td)
        + 1.5
        - 2.0 * np.sqrt(arg_plus)
        - 2.0 * np.sqrt(arg_minus)
    )
    return np.exp(-c.r2_blood * proto.te) * np.exp(-(c.gamma**2 / 2.0) * g0 * td * td * bracket)


def blood_volume_weight(dbv, proto: AcquisitionProtocol, c: PhysioConstants):
    """Effective blood signal fraction: steady-state magnetization * spin density * dbv
    (a number or an array)."""
    mb = steady_state_magnetization(proto.tr, proto.ti, c.t1_blood)
    return float(mb * c.blood_spin_density) * dbv


def r2_prime(p, c: PhysioConstants, b0: float):
    """Reversible relaxation rate dbv * delta_omega(oef)."""
    oef, dbv = _params(p)
    return dbv * delta_omega(oef, c, b0)


def normalize_signal(s, proto: AcquisitionProtocol) -> np.ndarray:
    """Log signal relative to the spin echo: log(s_i / s_se).

    The one spin-echo log-ratio of signal arrays: normalize_volume and the
    synthetic-data generator call it on the rows they keep. Raises on any
    non-positive sample, identifying the offending tau index, since such a
    voxel cannot be log-normalized.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape[-1] != proto.n_t:
        raise ValueError(f"signal has {s.shape[-1]} samples, protocol has {proto.n_t}")
    bad = np.nonzero(~(s > 0))
    if bad[0].size:
        first = tuple(int(b[0]) for b in bad)
        raise ValueError(
            f"non-positive signal value {s[first]} at tau index {first[-1]}; voxel cannot be normalized"
        )
    return np.log(s / s[..., proto.se_index : proto.se_index + 1])


# the signal model, written once on arrays ----------------------------


def _model(oef, dbv, proto, c, cfg: ForwardModelConfig, normalized: bool, grad: bool = False):
    """Model signal per tau, raw or as its spin-echo log-ratio, and with grad=True
    its closed-form partials in oef and dbv: (signal, [d/d oef, d/d dbv] or None).

    The two-regime variant is quadratic for |tau| below the characteristic time
    and linear from it on; its partials are the almost-everywhere derivative.
    """
    oef, dbv = np.asarray(oef, dtype=np.float64), np.asarray(dbv, dtype=np.float64)[..., None]
    dw = delta_omega(oef, c, proto.b0)[..., None]
    ddw = float(delta_omega(1.0, c, proto.b0))  # d dw / d oef
    taus, parts = proto.tau_array, None
    if cfg.variant == "full":
        i, di = dephasing_integral_t(dw * taus, slope=grad)
        log_t = -(dbv * i)
        if grad:
            parts = [-dbv * di * (taus * ddw), -i]
    else:
        abs_tau = np.abs(taus)
        a = dw * abs_tau
        # a NaN dw fails this test and takes the short branch, whose partials keep the NaN
        long = abs_tau >= characteristic_time(dw)
        log_t = np.where(long, dbv * (1.0 - a), -0.3 * dbv * (a * a))
        if grad:
            d_a = np.where(long, -dbv, -0.6 * dbv * a)  # d log_t / d a
            parts = [d_a * (abs_tau * ddw), np.where(long, 1.0 - a, -0.3 * (a * a))]
    if normalized and cfg.compartments == 1:
        # the tissue log-attenuation is already zero at the spin echo
        return log_t, parts
    s = np.exp(log_t) * float(np.exp(-c.r2_tissue * proto.te))
    if grad:
        parts = [s * p for p in parts]
    if cfg.compartments == 2:
        zp, sb = blood_volume_weight(dbv, proto, c), blood_signal(proto, c)
        if grad:
            parts = [(1.0 - zp) * p for p in parts]
            parts[1] += blood_volume_weight(1.0, proto, c) * (sb - s)
        s = zp * sb + (1.0 - zp) * s
    if not normalized:
        return s, parts
    se = slice(proto.se_index, proto.se_index + 1)
    log_s = np.log(s)
    if grad:
        parts = [q - q[..., se] for q in (p / s for p in parts)]
    return log_s - log_s[..., se], parts


# keeps its tape-era name: the benchmark's tracer wraps train.normalized_model_signal_t
def normalized_model_signal_t(oef, dbv, proto, c, cfg: ForwardModelConfig):
    """Clean model signal in normalized (spin-echo log-ratio) space and its
    partials in oef and dbv, from arrays: (signal, (d/d oef, d/d dbv)), each
    (..., n_t) and freshly allocated, as train.expected_loglik takes them."""
    return _model(oef, dbv, proto, c, cfg, normalized=True, grad=True)


# plain-array entry points ----------------------------------------------


def _params(p):
    oef, dbv = p
    return np.asarray(oef, dtype=np.float64), np.asarray(dbv, dtype=np.float64)


def total_signal(p, proto: AcquisitionProtocol, c: PhysioConstants, cfg: ForwardModelConfig):
    """Voxel signal of the configured model variant, per tau offset."""
    return _model(*_params(p), proto, c, cfg, normalized=False)[0]


def normalized_model_signal(oef, dbv, proto, c, cfg: ForwardModelConfig):
    """Clean model signal in normalized (spin-echo log-ratio) space."""
    return _model(oef, dbv, proto, c, cfg, normalized=True)[0]
