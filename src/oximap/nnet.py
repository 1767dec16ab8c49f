"""Voxelwise encoder network, its gated-residual spatial extension, and the optimizer.

The encoder maps each voxel's normalized signal vector to the parameters of
a per-voxel ScaledLogitNormal (logit means + covariance factor) and to
per-tau log image-noise levels. Inputs are multiplied by the fixed
INPUT_GAIN before the first block so the small log-ratio values reach unit
scale. Hidden blocks are 1-voxel (pointwise) affine layers with a softplus
nonlinearity; the spatial extension adds a gated, linear 3x3x1 in-plane
convolution path to every block:

    out = softplus(W x + b) + g * conv3x3x1(x)

The gate g depends on NetworkConfig.gate_scope. With `voxelwise` it is
logistic(gate(x) + gate_offset) per voxel, gate(x) being a linear 3x3x1
read-out of the same neighbourhood. With `scalar` (the default) there is one
gate per call, logistic(mean(gate(x)) + gate_offset), the mean taken over
every voxel of the input: all crops and planes of a batch, and every voxel
of the grid, in or out of the mask. A voxel's output then depends on the
batch it is evaluated with and on the field of view.

Gate parameters start at zero, so a freshly extended network stays close to
the voxelwise one (g = logistic(gate_offset)). Each gated block is one tape
node with a hand-written vector-Jacobian product (_gated_block).

The hidden blocks and heads compute in the weights' dtype, float32 or
float64: the gained input is cast to it on the way in and the three head
outputs are cast to float64 on the way out, so whatever reads a
VoxelPrediction computes in float64 either way. Every encoder pass the
library runs (pretraining and fine-tuning steps, prior maps, inference)
runs a COMPUTE_DTYPE copy of weights kept in float64: the optimizer's
weights, moments and the SWA average stay float64, and a network and its
float32 checkpoint give the same outputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .distributions import ScaledLogitNormal, inverse_transform

# normalized log-ratio signals live in roughly [-0.45, 0.05]; the fixed gain
# brings them to unit scale so the first hidden layer starts well-conditioned
# (without it the network underfits badly and posteriors stay prior-wide)
INPUT_GAIN = 20.0

# initial output-head biases: population logit means, unit logit scales,
# image noise floor of about 1% of the spin-echo signal
_INIT_MU_BIAS = inverse_transform(np.array([0.40, 0.025]))
_INIT_LOG_NOISE = np.log(0.01)

SIGMA_IM_FLOOR = 1e-4

# the dtype of the weight copy every library encoder pass runs on; the
# master weights stay float64
COMPUTE_DTYPE = np.float32

# AdamW moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# lr_schedule decays linearly to base / LR_FINAL_FACTOR
LR_FINAL_FACTOR = 100.0


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture switches for the encoder."""

    n_blocks: int = 2
    width: int = 60
    spatial_mode: str = "voxelwise"
    covariance_mode: str = "diagonal"
    gate_offset: float = -3.0
    gate_scope: str = "scalar"

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.spatial_mode not in ("voxelwise", "gated-residual"):
            raise ValueError(f"unknown spatial_mode {self.spatial_mode!r}")
        if self.covariance_mode not in ("diagonal", "full"):
            raise ValueError(f"unknown covariance_mode {self.covariance_mode!r}")
        if self.gate_scope not in ("scalar", "voxelwise"):
            raise ValueError(f"unknown gate_scope {self.gate_scope!r}")

    @property
    def n_cov_params(self) -> int:
        return 2 if self.covariance_mode == "diagonal" else 3


@dataclass
class EncoderWeights:
    """Named parameter tensors plus the architecture they belong to."""

    config: NetworkConfig
    n_t: int
    tensors: dict[str, ad.Tensor]

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data for k, t in self.tensors.items()}

    def astype(self, dtype) -> "EncoderWeights":
        """A copy with every tensor in dtype (float32 or float64)."""
        return EncoderWeights(
            self.config, self.n_t, {k: ad.Tensor(t.data.astype(dtype)) for k, t in self.tensors.items()}
        )

    @property
    def dtype(self) -> np.dtype:
        """The dtype the network computes in: that of its weights."""
        return self.tensors["mu.w"].data.dtype

    def n_parameters(self) -> int:
        return sum(t.data.size for t in self.tensors.values())


@dataclass
class VoxelPrediction:
    """Per-voxel encoder outputs; leading axes are whatever the input carried."""

    mu_l: ad.Tensor
    sigma_l_params: ad.Tensor
    log_sigma_im: ad.Tensor


def _uniform(rng, shape, limit):
    return rng.uniform(-limit, limit, size=shape)


def init_weights(cfg: NetworkConfig, n_t: int, rng: np.random.Generator) -> EncoderWeights:
    """Fresh voxelwise-network weights: fan-in-scaled uniform hidden layers,
    small-head weights, biases set to predict the population prior."""
    if cfg.spatial_mode != "voxelwise":
        raise ValueError("init_weights builds the voxelwise network; use extend_weights after")
    t = {}
    c_in = n_t
    for b in range(cfg.n_blocks):
        limit = np.sqrt(1.0 / c_in)
        t[f"block{b}.w"] = _uniform(rng, (c_in, cfg.width), limit)
        t[f"block{b}.b"] = np.zeros(cfg.width)
        c_in = cfg.width
    head_limit = np.sqrt(1.0 / cfg.width) / 10.0
    t["mu.w"] = _uniform(rng, (cfg.width, 2), head_limit)
    t["mu.b"] = _INIT_MU_BIAS.copy()
    t["cov.w"] = _uniform(rng, (cfg.width, cfg.n_cov_params), head_limit)
    t["cov.b"] = np.zeros(cfg.n_cov_params)
    t["noise.w"] = _uniform(rng, (cfg.width, n_t), head_limit)
    t["noise.b"] = np.full(n_t, _INIT_LOG_NOISE)
    return EncoderWeights(cfg, n_t, {k: ad.Tensor(v) for k, v in t.items()})


# conv path fan-in scale is shrunk so a fresh extension perturbs the
# pretrained outputs by well under the documented 5%
_CONV_INIT_SHRINK = 0.2


def extend_weights(theta: EncoderWeights, rng: np.random.Generator) -> EncoderWeights:
    """Copy a voxelwise network and add gated-residual conv/gate parameters."""
    if theta.config.spatial_mode != "voxelwise":
        raise ValueError("can only extend a voxelwise network")
    cfg = replace(theta.config, spatial_mode="gated-residual")
    t = {k: w.data.copy() for k, w in theta.tensors.items()}
    c_in = theta.n_t
    for b in range(cfg.n_blocks):
        limit = np.sqrt(1.0 / (9 * c_in)) * _CONV_INIT_SHRINK
        t[f"block{b}.conv.w"] = _uniform(rng, (9 * c_in, cfg.width), limit)
        t[f"block{b}.gate.w"] = np.zeros((9 * c_in, 1))
        t[f"block{b}.gate.b"] = np.zeros(1)
        c_in = cfg.width
    return EncoderWeights(cfg, theta.n_t, {k: ad.Tensor(v) for k, v in t.items()})


def _tap_windows(h: int, w: int):
    """The nine in-plane taps of a 3x3 neighbourhood, in the row order of
    conv.w and gate.w (tap k = 3 * (dx + 1) + (dy + 1)): per tap, the
    (out, src) index pairs with out[:, x, y] reading src[:, x + dx, y + dy]
    wherever both lie on the grid (zero padding elsewhere)."""

    def span(d, n):
        return slice(max(0, -d), n - max(0, d)), slice(max(0, d), n - max(0, -d))

    taps = []
    for dx in (-1, 0, 1):
        ox, sx = span(dx, h)
        for dy in (-1, 0, 1):
            oy, sy = span(dy, w)
            taps.append(((slice(None), ox, oy), (slice(None), sx, sy)))
    return taps


def _gated_block(h: ad.Tensor, t: dict, b: int, cfg: NetworkConfig) -> ad.Tensor:
    """One gated-residual block as a single tape node:
    softplus(h W + b) + g * conv3x3x1(h), on (B, h, w, C) input.

    The conv and gate weights of each tap sit side by side in one (C, F + 1)
    matrix, so the nine shifted window products accumulate the conv output
    and the gate pre-activation (last column) together; no zero-padded copy
    and no (..., 9C) neighbourhood array is formed, forward or backward.
    """
    params = [t[f"block{b}.{n}"] for n in ("w", "b", "conv.w", "gate.w", "gate.b")]
    w, bias, conv_w, gate_w, gate_b = (p.data for p in params)
    x = h.data
    n_c, n_f = w.shape
    taps = _tap_windows(*x.shape[1:3])
    tap_w = np.concatenate([conv_w, gate_w], axis=1)

    base, slope = ad.softplus_parts(x @ w + bias)
    acc = x @ tap_w[4 * n_c : 5 * n_c]  # the centre tap covers the whole grid
    for k, (out_ix, src_ix) in enumerate(taps):
        if k != 4:
            acc[out_ix] += x[src_ix] @ tap_w[k * n_c : (k + 1) * n_c]
    conv = acc[..., :n_f]
    gate_pre = acc[..., n_f] + gate_b[0]
    if cfg.gate_scope == "scalar":
        gate_pre = gate_pre.mean()
    g = expit(gate_pre + cfg.gate_offset)
    g_col = g if cfg.gate_scope == "scalar" else g[..., None]
    out = base + g_col * conv
    if slope is None:
        return ad.Tensor(out)

    def vjp(grad):
        d_pre = grad * slope
        d_g = np.einsum("...f,...f->...", grad, conv)
        if cfg.gate_scope == "scalar":
            d_g = d_g.sum() / d_g.size  # the mean spreads one gate's gradient evenly
        d_acc = np.empty_like(acc)
        np.multiply(grad, g_col, out=d_acc[..., :n_f])
        d_acc[..., n_f] = d_g * (g * (1.0 - g))
        # contiguous transposed weights keep the products on the fast BLAS path
        dx = d_pre @ np.ascontiguousarray(w.T)
        d_tap_w = np.empty_like(tap_w)
        for k, (out_ix, src_ix) in enumerate(taps):
            rows = slice(k * n_c, (k + 1) * n_c)
            d_win = d_acc[out_ix]
            dx[src_ix] += d_win @ np.ascontiguousarray(tap_w[rows].T)
            d_tap_w[rows] = np.ascontiguousarray(x[src_ix]).reshape(-1, n_c).T @ d_win.reshape(-1, n_f + 1)
        d_w = x.reshape(-1, n_c).T @ d_pre.reshape(-1, n_f)
        d_b = d_pre.reshape(-1, n_f).sum(axis=0)
        d_gate_b = np.array([d_acc[..., n_f].sum()])
        return dx, d_w, d_b, d_tap_w[:, :n_f], d_tap_w[:, n_f:], d_gate_b

    return ad.custom(out, (h, *params), vjp)


def encoder_forward(weights: EncoderWeights, x: ad.Tensor) -> VoxelPrediction:
    """Forward pass; x has channels (the voxel's n_t samples) on the trailing axis.

    Voxelwise mode accepts any leading shape; gated-residual mode requires
    (B, h, w, n_t) so the in-plane convolution is defined. The network runs
    in its weights' dtype; the outputs are float64.
    """
    cfg = weights.config
    if x.data.shape[-1] != weights.n_t:
        raise ValueError(f"input has {x.data.shape[-1]} channels, network expects {weights.n_t}")
    t = weights.tensors
    # the gain multiplies before the cast, and the cast is on the tape, so x keeps its gradient
    h = ad.cast(x * INPUT_GAIN, weights.dtype)
    if cfg.spatial_mode == "gated-residual":
        if x.data.ndim != 4:
            raise ValueError("gated-residual mode needs (batch, h, w, channels) input")
        for b in range(cfg.n_blocks):
            h = _gated_block(h, t, b, cfg)
    else:
        for b in range(cfg.n_blocks):
            h = ad.softplus(ad.matmul(h, t[f"block{b}.w"]) + t[f"block{b}.b"])
    heads = [ad.matmul(h, t[f"{n}.w"]) + t[f"{n}.b"] for n in ("mu", "cov", "noise")]
    return VoxelPrediction(*(ad.cast(head, np.float64) for head in heads))


def prediction_to_distribution(pred: VoxelPrediction, covariance_mode: str) -> ScaledLogitNormal:
    """Detach a prediction into a (batched) ScaledLogitNormal; raises if
    covariance_mode does not match the width of the covariance head."""
    p = pred.sigma_l_params.data
    if NetworkConfig(covariance_mode=covariance_mode).n_cov_params != p.shape[-1]:
        raise ValueError(f"covariance_mode {covariance_mode!r} does not match {p.shape[-1]} covariance parameters")
    return ScaledLogitNormal(pred.mu_l.data, p)


def collect_gradients(weights: EncoderWeights, loss: ad.Tensor) -> dict[str, np.ndarray]:
    """Run backward from a scalar loss and return finite per-tensor gradients.

    The weights' gradients from any earlier backward are cleared first, so
    each call returns this loss's gradient alone.
    """
    ad.zero_grads(weights.tensors.values())
    ad.backward(loss)
    grads = {}
    for name, t in weights.tensors.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in tensor {name!r}")
        grads[name] = g
    return grads


# optimizer -----------------------------------------------------------


@dataclass
class AdamWState:
    """First/second moment accumulators and the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_weights(cls, weights: EncoderWeights) -> "AdamWState":
        return cls(
            {k: np.zeros_like(t.data) for k, t in weights.tensors.items()},
            {k: np.zeros_like(t.data) for k, t in weights.tensors.items()},
        )


def adamw_step(
    weights: EncoderWeights,
    state: AdamWState,
    grads: dict[str, np.ndarray],
    lr: float,
    weight_decay: float,
) -> None:
    """One AdamW update in place: bias-corrected moments, decoupled decay.

    The decay term is applied directly to the weights (w -= lr * wd * w),
    never through the gradient.
    """
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for name, t in weights.tensors.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        t.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS) + lr * weight_decay * t.data


def swa_update(avg: dict[str, np.ndarray], current: EncoderWeights, k: int) -> None:
    """Running arithmetic mean over weight snapshots: avg += (current - avg)/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for name, t in current.tensors.items():
        avg[name] += (t.data - avg[name]) / k


def lr_schedule(step: int, total_steps: int, base: float) -> float:
    """Linear decay from base at step 0 to base / LR_FINAL_FACTOR at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError("step must lie in [0, total_steps]")
    frac = step / total_steps if total_steps else 1.0
    return base * (1.0 - frac) + (base / LR_FINAL_FACTOR) * frac


# checkpoint container -------------------------------------------------
#
# byte layout (little-endian):
#   bytes 0-7   magic "OXINNET1"
#   bytes 8-11  u32 version (currently 1)
#   u32 n_blocks, u32 width, u8 spatial_mode (0 voxelwise / 1 gated-residual),
#   u8 covariance_mode (0 diagonal / 1 full), u8 gate_scope (0 scalar / 1 voxelwise),
#   u8 pad, f64 gate_offset, u32 n_t, u32 n_tensors
#   then per tensor: u16 name length, name bytes (utf-8), u8 ndim,
#   u32 dims[ndim], float32 values

CHECKPOINT_MAGIC = b"OXINNET1"
CHECKPOINT_VERSION = 1
_CKPT_HEAD = struct.Struct("<8sIIIBBBxdII")


class CheckpointFormatError(ValueError):
    """Raised when a weight checkpoint file is malformed."""


_SPATIAL_CODES = {"voxelwise": 0, "gated-residual": 1}
_COV_CODES = {"diagonal": 0, "full": 1}
_SCOPE_CODES = {"scalar": 0, "voxelwise": 1}


def save_checkpoint(weights: EncoderWeights, path) -> None:
    cfg = weights.config
    with open(path, "wb") as f:
        f.write(
            _CKPT_HEAD.pack(
                CHECKPOINT_MAGIC,
                CHECKPOINT_VERSION,
                cfg.n_blocks,
                cfg.width,
                _SPATIAL_CODES[cfg.spatial_mode],
                _COV_CODES[cfg.covariance_mode],
                _SCOPE_CODES[cfg.gate_scope],
                cfg.gate_offset,
                weights.n_t,
                len(weights.tensors),
            )
        )
        for name, t in weights.tensors.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", t.data.ndim))
            f.write(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
            f.write(t.data.astype("<f4").tobytes())


def load_checkpoint(path) -> EncoderWeights:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _CKPT_HEAD.size:
        raise CheckpointFormatError(f"checkpoint truncated: {len(raw)} bytes < header")
    magic, version, n_blocks, width, sp, cov, scope, gate_offset, n_t, n_tensors = (
        _CKPT_HEAD.unpack_from(raw)
    )
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    rev = lambda codes, v: {c: n for n, c in codes.items()}.get(v)
    try:
        cfg = NetworkConfig(
            n_blocks=n_blocks,
            width=width,
            spatial_mode=rev(_SPATIAL_CODES, sp),
            covariance_mode=rev(_COV_CODES, cov),
            gate_offset=gate_offset,
            gate_scope=rev(_SCOPE_CODES, scope),
        )
    except ValueError as e:
        raise CheckpointFormatError(f"invalid checkpoint config: {e}") from None
    if n_t < 1:
        raise CheckpointFormatError(f"invalid checkpoint n_t {n_t}")
    offset = _CKPT_HEAD.size
    tensors = {}
    for _ in range(n_tensors):
        try:
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", raw, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, offset)
            offset += 4 * ndim
            count = int(np.prod(shape)) if ndim else 1
            if len(raw) - offset < 4 * count:
                raise CheckpointFormatError("checkpoint truncated inside tensor data")
            data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
            offset += 4 * count
        except struct.error:
            raise CheckpointFormatError("checkpoint truncated inside tensor table") from None
        except UnicodeDecodeError:
            raise CheckpointFormatError("checkpoint tensor name is not valid UTF-8") from None
        tensors[name] = ad.Tensor(data.reshape(shape).astype(np.float64))
    # the names and shapes a network of this config has, from the code that builds one
    layout = init_weights(replace(cfg, spatial_mode="voxelwise"), n_t, np.random.default_rng(0))
    if cfg.spatial_mode == "gated-residual":
        layout = extend_weights(layout, np.random.default_rng(0))
    for name in sorted(layout.tensors.keys() | tensors.keys()):
        if name not in tensors:
            raise CheckpointFormatError(f"checkpoint lacks tensor {name!r}")
        if name not in layout.tensors:
            raise CheckpointFormatError(f"checkpoint tensor {name!r} is not in the network of its config")
        shape, want = tensors[name].data.shape, layout.tensors[name].data.shape
        if shape != want:
            raise CheckpointFormatError(f"checkpoint tensor {name!r} has shape {shape}, expected {want}")
    return EncoderWeights(cfg, n_t, tensors)
