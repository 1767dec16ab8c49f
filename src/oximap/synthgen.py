"""Synthetic training data: population priors, noisy signal synthesis, dataset container."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .distributions import PARAM_NAMES, PARAM_OFFSET, PARAM_SCALE, truncated_normal_sample
from .physics import AcquisitionProtocol, ForwardModelConfig, PhysioConstants, normalize_signal, total_signal
from .volume import Volume4D

# generation proceeds in fixed-size lanes, each with its own spawned RNG
# stream, so results are reproducible regardless of how lanes are scheduled
LANE_SIZE = 4096
# a lane redraws its rejected rows at most this many times
LANE_ATTEMPTS = 64


class DatasetFormatError(ValueError):
    """Raised when a dataset container file is malformed."""


@dataclass(frozen=True)
class PriorSpec:
    """Population prior for one parameter: truncated normal or uniform on [low, high]."""

    kind: str
    low: float
    high: float
    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self):
        if self.kind not in ("truncated-normal", "uniform"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "truncated-normal":
            if not self.low < self.high:
                raise ValueError("low must be smaller than high")
            if self.std <= 0:
                raise ValueError("truncated-normal prior needs std > 0")
        elif not self.low <= self.high:
            raise ValueError("low must not exceed high")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "truncated-normal":
            return truncated_normal_sample(self.mean, self.std, self.low, self.high, rng, size=n)
        if self.low == self.high:
            return np.full(n, self.low)
        x = self.low + (self.high - self.low) * rng.random(n)
        return np.clip(x, np.nextafter(self.low, self.high), np.nextafter(self.high, self.low))


@dataclass(frozen=True)
class ParamPriorConfig:
    """Independent population priors for oef and dbv, bounded to the distribution support."""

    oef: PriorSpec
    dbv: PriorSpec

    def __post_init__(self):
        for i, spec in enumerate((self.oef, self.dbv)):
            lo, hi = PARAM_OFFSET[i], PARAM_OFFSET[i] + PARAM_SCALE[i]
            if spec.low < lo or spec.high > hi:
                raise ValueError(
                    f"{PARAM_NAMES[i]} prior range [{spec.low}, {spec.high}] escapes "
                    f"the support ({lo}, {hi})"
                )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.stack([self.oef.sample(rng, n), self.dbv.sample(rng, n)], axis=-1)


def _tn(mean, std, low, high):
    return PriorSpec("truncated-normal", low, high, mean, std)


PRIOR_PRESETS = {
    "normal": ParamPriorConfig(
        _tn(0.40, 0.20, 0.05, 0.85), _tn(0.025, 0.02, 0.001, 0.301)
    ),
    "normal-wide": ParamPriorConfig(
        _tn(0.40, 0.30, 0.05, 0.85), _tn(0.025, 0.03, 0.001, 0.301)
    ),
    "normal-narrow": ParamPriorConfig(
        _tn(0.40, 0.10, 0.05, 0.85), _tn(0.025, 0.01, 0.001, 0.301)
    ),
    "uniform": ParamPriorConfig(
        PriorSpec("uniform", 0.05, 0.80), PriorSpec("uniform", 0.003, 0.25)
    ),
}


@dataclass(frozen=True)
class NoiseProfile:
    """The range of spin-echo SNRs; every tau is as noisy as the spin echo."""

    snr_low: float = 50.0
    snr_high: float = 120.0

    def __post_init__(self):
        if not (0 < self.snr_low <= self.snr_high):
            raise ValueError("need 0 < snr_low <= snr_high")


def add_noise(clean, snr, prof: NoiseProfile, proto: AcquisitionProtocol, rng: np.random.Generator):
    """Additive Gaussian noise with std = clean_se / snr on every tau.

    Broadcasts over leading axes of `clean` (trailing axis = tau) and `snr`.
    `prof` is not read: the noise level is set by `snr` alone.
    """
    clean = np.asarray(clean, dtype=np.float64)
    snr = np.asarray(snr, dtype=np.float64)
    if np.any(snr <= 0):
        raise ValueError("snr must be positive")
    se = clean[..., proto.se_index : proto.se_index + 1]
    if np.any(se <= 0):
        raise ValueError("clean spin-echo signal must be positive")
    sigma = se / snr[..., None]
    return clean + rng.standard_normal(clean.shape) * sigma


@dataclass
class SynthDataset:
    """Supervised synthetic set: normalized signals, true parameters, spin-echo SNRs."""

    signals: np.ndarray
    truths: np.ndarray
    snrs: np.ndarray
    n_rejected: int = 0

    def __post_init__(self):
        self.signals = np.asarray(self.signals, dtype=np.float64)
        self.truths = np.asarray(self.truths, dtype=np.float64)
        self.snrs = np.asarray(self.snrs, dtype=np.float64)
        n = self.signals.shape[0]
        if self.truths.shape != (n, 2) or self.snrs.shape != (n,):
            raise ValueError("signals, truths, and snrs must agree on row count")
        if n and not (
            np.all(self.truths > PARAM_OFFSET) and np.all(self.truths < PARAM_OFFSET + PARAM_SCALE)
        ):
            raise ValueError("truths must lie strictly inside the distribution support")

    @property
    def n(self) -> int:
        return self.signals.shape[0]


def _generate_lane(
    n: int,
    param_cfg: ParamPriorConfig,
    proto: AcquisitionProtocol,
    c: PhysioConstants,
    fwd_cfg: ForwardModelConfig,
    prof: NoiseProfile,
    rng: np.random.Generator,
):
    """One lane: draw, synthesize, noise, normalize; redraw rejected rows in place."""
    signals = np.empty((n, proto.n_t))
    truths = np.empty((n, 2))
    snrs = np.empty(n)
    pending = np.arange(n)
    rejected = 0
    for _ in range(LANE_ATTEMPTS):
        if pending.size == 0:
            break
        t = param_cfg.sample(rng, pending.size)
        clean = total_signal((t[:, 0], t[:, 1]), proto, c, fwd_cfg)
        s = rng.uniform(prof.snr_low, prof.snr_high, size=pending.size)
        noisy = add_noise(clean, s, prof, proto, rng)
        good = np.all(noisy > 0, axis=-1)
        idx = pending[good]
        signals[idx] = normalize_signal(noisy[good], proto)
        truths[idx] = t[good]
        snrs[idx] = s[good]
        rejected += int((~good).sum())
        pending = pending[~good]
    if pending.size:
        raise RuntimeError("row rejection did not terminate; SNR configuration implausible")
    return signals, truths, snrs, rejected


def generate_dataset(
    n: int,
    param_cfg: ParamPriorConfig,
    proto: AcquisitionProtocol,
    c: PhysioConstants,
    fwd_cfg: ForwardModelConfig,
    prof: NoiseProfile,
    rng: np.random.Generator,
) -> SynthDataset:
    """n rows of (normalized noisy signal, true parameters, spin-echo SNR).

    Rows whose noisy signal has any non-positive sample are rejected and
    redrawn; a rejection rate above 10% aborts, flagging an implausible
    noise configuration. Row blocks of LANE_SIZE own spawned RNG streams,
    so the output is deterministic by row index.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return SynthDataset(np.empty((0, proto.n_t)), np.empty((0, 2)), np.empty(0))
    n_lanes = (n + LANE_SIZE - 1) // LANE_SIZE
    lanes = rng.spawn(n_lanes)
    parts = []
    total_rejected = 0
    for i, lane_rng in enumerate(lanes):
        lane_n = min(LANE_SIZE, n - i * LANE_SIZE)
        sig, tr, sn, rej = _generate_lane(lane_n, param_cfg, proto, c, fwd_cfg, prof, lane_rng)
        parts.append((sig, tr, sn))
        total_rejected += rej
    if total_rejected > 0.10 * (n + total_rejected):
        raise ValueError(
            f"rejected {total_rejected} of {n + total_rejected} drawn rows (>10%); "
            "SNR configuration implausible"
        )
    return SynthDataset(
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
        total_rejected,
    )


def make_phantom(
    grid_shape: tuple[int, int, int],
    params,
    proto: AcquisitionProtocol,
    c: PhysioConstants,
    fwd_cfg: ForwardModelConfig,
    snr: float | None,
    rng: np.random.Generator | None,
    mask: np.ndarray | None = None,
) -> Volume4D:
    """Un-normalized signal volume at known parameters, optionally with noise.

    `params` is (oef, dbv) as scalars or as per-voxel arrays of grid shape;
    snr=None produces a clean volume.
    """
    oef, dbv = params
    oef = np.broadcast_to(np.asarray(oef, dtype=np.float64), grid_shape)
    dbv = np.broadcast_to(np.asarray(dbv, dtype=np.float64), grid_shape)
    clean = total_signal((oef, dbv), proto, c, fwd_cfg)
    if snr is None:
        data = clean
    else:
        if rng is None:
            raise ValueError("noisy phantom needs an rng")
        prof = NoiseProfile(snr_low=snr, snr_high=snr)
        data = add_noise(clean, np.full(grid_shape, snr), prof, proto, rng)
    return Volume4D(data, mask)


# dataset container ---------------------------------------------------
#
# byte layout (all little-endian):
#   bytes 0-7    magic "OXIDSET1"
#   bytes 8-11   u32 version (currently 1)
#   bytes 12-19  u64 row count n
#   bytes 20-23  u32 samples per row n_t
#   bytes 24-63  zero padding
#   then float32 blocks: signals (n*n_t), truths (n*2), snrs (n)

DATASET_MAGIC = b"OXIDSET1"
DATASET_VERSION = 1
_HEADER = struct.Struct("<8sIQI40x")


def save_dataset(ds: SynthDataset, path) -> None:
    with open(path, "wb") as f:
        f.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, ds.n, ds.signals.shape[1]))
        f.write(ds.signals.astype("<f4").tobytes())
        f.write(ds.truths.astype("<f4").tobytes())
        f.write(ds.snrs.astype("<f4").tobytes())


def load_dataset(path) -> SynthDataset:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise DatasetFormatError(f"dataset file truncated: {len(raw)} bytes < 64-byte header")
    magic, version, n, n_t = _HEADER.unpack_from(raw)
    if magic != DATASET_MAGIC:
        raise DatasetFormatError(f"bad dataset magic {magic!r}")
    if version != DATASET_VERSION:
        raise DatasetFormatError(f"unsupported dataset version {version}")
    if n_t < 1:
        raise DatasetFormatError(f"invalid dataset n_t {n_t}")
    need = _HEADER.size + 4 * (n * n_t + 2 * n + n)
    if len(raw) < need:
        raise DatasetFormatError(f"dataset file truncated: {len(raw)} bytes < {need} expected")
    if len(raw) > need:
        raise DatasetFormatError(f"dataset file has {len(raw) - need} bytes after its data")
    body = np.frombuffer(raw, dtype="<f4", count=n * n_t + 3 * n, offset=_HEADER.size)
    signals = body[: n * n_t].reshape(n, n_t).astype(np.float64)
    truths = body[n * n_t : n * n_t + 2 * n].reshape(n, 2).astype(np.float64)
    snrs = body[n * n_t + 2 * n :].astype(np.float64)
    # float32 rounding can land a truth exactly on the open-support boundary
    lo = np.nextafter(PARAM_OFFSET, PARAM_OFFSET + PARAM_SCALE)
    hi = np.nextafter(PARAM_OFFSET + PARAM_SCALE, PARAM_OFFSET)
    truths = np.clip(truths, lo, hi)
    return SynthDataset(signals, truths, snrs)
