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
the voxelwise one (g = logistic(gate_offset)).

Every block, voxelwise or gated, is one tape node with a hand-written
vector-Jacobian product (_block), and the three heads are one more
(_heads), read through one slice per head. The encoder's input is a
constant: it is gained and cast as an array, and the first block returns
no input gradient.

The hidden blocks and heads compute in the weights' dtype, float32 or
float64: the gained input is cast to it on the way in and the heads node
casts its output to float64, so whatever reads a VoxelPrediction computes
in float64 either way. Every encoder pass the library runs (pretraining
and fine-tuning steps, prior maps, inference) runs a COMPUTE_DTYPE copy of
weights kept in float64. The optimizer runs on flat float64 vectors (the
weights, gradient, moments and SWA average; EncoderWeights.flatten and
on_flat), and a network and its float32 checkpoint give the same outputs.

A gated block recorded on the tape (a fine-tuning step) uses a second core
when the process may run on two CPUs (os.sched_getaffinity): one helper
thread, made on first use, computes half of the node's array work while the
calling thread computes the other half. The split changes no sum's order,
so every output and gradient is bit-identical at one or two usable CPUs.
Each thread's products run at the BLAS thread count, which `import oximap`
pins to one, so a node uses at most two cores. Detached passes (prior maps,
inference) and voxelwise blocks (pretraining) stay on the calling thread.
"""

from __future__ import annotations

import os
import struct
import threading
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

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

    def flatten(self, dtype) -> np.ndarray:
        """Every tensor's values, in order, concatenated into one new vector
        of dtype."""
        return np.concatenate([t.data.ravel() for t in self.tensors.values()], dtype=dtype)

    def on_flat(self, flat: np.ndarray) -> "EncoderWeights":
        """The same network on the values of a vector laid out as flatten
        lays them out: each tensor views its slice, in the vector's dtype."""
        tensors, start = {}, 0
        for k, t in self.tensors.items():
            tensors[k] = ad.Tensor(flat[start : start + t.data.size].reshape(t.data.shape))
            start += t.data.size
        return EncoderWeights(self.config, self.n_t, tensors)

    def astype(self, dtype) -> "EncoderWeights":
        """A copy with every tensor in dtype (float32 or float64)."""
        return self.on_flat(self.flatten(dtype))

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


# the one worker thread that runs half of each gated block node on the
# tape, made on first use under its lock; a forked child, whose copy of the
# pool has no live worker, drops it
_helper = None
_helper_lock = threading.Lock()


def _drop_helper():
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


@contextmanager
def _beside(part):
    """Run part() on the helper thread while the with-body runs on this one.

    The with-statement ends only once part() has returned, whether or not
    the body raised, so no write of part's outlives it; an exception of
    part's is raised then. On one usable CPU, part() runs first, on this
    thread. part must be array code only: no tensor, no tape op and no
    recording switch, which is per thread.
    """
    global _helper
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        part()
        yield
        return
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="oximap-block")
        future = _helper.submit(part)
    try:
        yield
    finally:
        futures.wait([future])
    future.result()


def _block(h, t: dict, b: int, cfg: NetworkConfig) -> ad.Tensor:
    """Hidden block b as a single tape node: softplus(h W + b), plus
    g * conv3x3x1(h) on (B, h, w, C) input in gated-residual mode.

    h is a tape tensor or, for the first block, the gained input array,
    which gets no gradient. The conv and gate weights of each tap sit side
    by side in one (C, F + 1) matrix, so the nine shifted window products
    accumulate the conv output and the gate pre-activation (last column)
    together; no zero-padded copy and no (..., 9C) neighbourhood array is
    formed, forward or backward.

    A gated node on the tape runs on two threads (_beside). Forward, each
    half of the batch planes computes its softplus and tap products into
    the node's own buffers; the gate and the conv add follow over the
    whole batch. Backward, the input gradient runs beside the weight
    gradients; the first block, which has no input gradient, splits its
    nine tap products. Each sum is formed as on one thread, so the bits do
    not depend on the number of CPUs. Detached passes and voxelwise blocks
    run on one thread.
    """
    gated = cfg.spatial_mode == "gated-residual"
    params = [t[f"block{b}.{n}"] for n in (("w", "b", "conv.w", "gate.w", "gate.b") if gated else ("w", "b"))]
    w, bias = params[0].data, params[1].data
    on_tape = isinstance(h, ad.Tensor)
    x = h.data if on_tape else h
    n_c, n_f = w.shape

    out = np.empty(x.shape[:-1] + (n_f,), np.result_type(x, w))
    # the gated output adds the conv path, so only there is the softplus
    # slope kept; a voxelwise node rebuilds it from its output in the vjp,
    # logistic(x) = -expm1(-softplus(x)), and holds no second array
    slope = np.empty_like(out) if gated and ad.recording() else None
    if gated:
        taps = _tap_windows(*x.shape[1:3])
        tap_w = np.concatenate([params[2].data, params[3].data], axis=1)
        acc = np.empty(x.shape[:-1] + (n_f + 1,), out.dtype)

    def forward(planes):
        x_p = x[planes]
        pre = x_p @ w
        pre += bias
        ad.softplus_into(pre, out[planes], None if slope is None else slope[planes])
        del pre
        if gated:
            acc_p = acc[planes]
            np.matmul(x_p, tap_w[4 * n_c : 5 * n_c], out=acc_p)  # the centre tap covers the whole grid
            for k, (out_ix, src_ix) in enumerate(taps):
                if k != 4:
                    acc_p[out_ix] += x_p[src_ix] @ tap_w[k * n_c : (k + 1) * n_c]

    if slope is None:
        forward(slice(None))
    else:
        half = len(x) // 2
        with _beside(partial(forward, slice(0, half))):
            forward(slice(half, None))
    if gated:
        conv = acc[..., :n_f]
        gate_pre = acc[..., n_f] + params[4].data[0]
        if cfg.gate_scope == "scalar":
            gate_pre = gate_pre.mean()
        g = expit(gate_pre + cfg.gate_offset)
        g_col = g if cfg.gate_scope == "scalar" else g[..., None]
        out += g_col * conv

    def vjp(grad):
        d_pre = grad * (slope if gated else -np.expm1(-out))
        dx = np.empty(x.shape, np.result_type(d_pre, w)) if on_tape else None
        if gated:
            d_g = np.einsum("...f,...f->...", grad, conv)
            if cfg.gate_scope == "scalar":
                d_g = d_g.sum() / d_g.size  # the mean spreads one gate's gradient evenly
            d_acc = np.empty_like(acc)
            np.multiply(grad, g_col, out=d_acc[..., :n_f])
            d_acc[..., n_f] = d_g * (g * (1.0 - g))
            d_tap_w = np.empty_like(tap_w)

        def input_gradient():
            # contiguous transposed weights keep the products on the fast BLAS path
            np.matmul(d_pre, np.ascontiguousarray(w.T), out=dx)
            if gated:
                for k, (out_ix, src_ix) in enumerate(taps):
                    dx[src_ix] += d_acc[out_ix] @ np.ascontiguousarray(tap_w[k * n_c : (k + 1) * n_c].T)

        def tap_gradients(ks):
            for k in ks:
                out_ix, src_ix = taps[k]
                rows = np.ascontiguousarray(x[src_ix]).reshape(-1, n_c)
                d_tap_w[k * n_c : (k + 1) * n_c] = rows.T @ d_acc[out_ix].reshape(-1, n_f + 1)

        def main_gradients():
            return [x.reshape(-1, n_c).T @ d_pre.reshape(-1, n_f), d_pre.reshape(-1, n_f).sum(axis=0)]

        if not gated:
            if on_tape:
                input_gradient()
            return ([dx] if on_tape else []) + main_gradients()
        # the helper takes the input gradient or, in the first block, which
        # has none, five of the nine tap products
        helper, own = (input_gradient, range(9)) if on_tape else (partial(tap_gradients, range(5)), range(5, 9))
        with _beside(helper):
            grads = main_gradients()
            tap_gradients(own)
        grads += [d_tap_w[:, :n_f], d_tap_w[:, n_f:], np.array([d_acc[..., n_f].sum()])]
        return ([dx] if on_tape else []) + grads

    return ad.custom(out, ([h] if on_tape else []) + params, vjp)


def _heads(h: ad.Tensor, t: dict) -> VoxelPrediction:
    """The three output heads as one tape node: a single product with the
    heads' weights side by side, cast to float64, then sliced per head.

    The vjp works head by head and sums the input's gradient in the order
    mu, cov, noise, so it equals that of three separate affine maps summed
    in that order bit for bit."""
    params = [t[f"{n}.{p}"] for n in ("mu", "cov", "noise") for p in ("w", "b")]
    ws = [p.data for p in params[::2]]
    x = h.data
    out = x @ np.concatenate(ws, axis=1)
    out += np.concatenate([p.data for p in params[1::2]])
    ends = np.cumsum([w.shape[1] for w in ws])
    spans = [slice(a, e) for a, e in zip((0, *ends[:-1]), ends)]

    def vjp(grad):
        grad = grad.astype(x.dtype, copy=False)
        rows = x.reshape(-1, x.shape[-1]).T
        dx, grads = None, []
        for s, w in zip(spans, ws):
            g = grad[..., s]
            part = g @ w.T
            dx = part if dx is None else dx + part
            g = g.reshape(-1, g.shape[-1])
            grads += [rows @ g, g.sum(axis=0)]
        return [dx, *grads]

    node = ad.custom(out.astype(np.float64, copy=False), [h, *params], vjp)
    return VoxelPrediction(*(node[..., s] for s in spans))


def encoder_forward(weights: EncoderWeights, x) -> VoxelPrediction:
    """Forward pass; x (an array or tape tensor) has channels (the voxel's
    n_t samples) on the trailing axis.

    Voxelwise mode accepts any leading shape; gated-residual mode requires
    (B, h, w, n_t) so the in-plane convolution is defined. The network runs
    in its weights' dtype; the outputs are float64. The input is a constant:
    it gets no gradient.
    """
    cfg = weights.config
    x = ad.as_tensor(x).data
    if x.shape[-1] != weights.n_t:
        raise ValueError(f"input has {x.shape[-1]} channels, network expects {weights.n_t}")
    if cfg.spatial_mode == "gated-residual" and x.ndim != 4:
        raise ValueError("gated-residual mode needs (batch, h, w, channels) input")
    # the gain multiplies in float64 before the cast, whatever the input's dtype
    h = np.multiply(x, INPUT_GAIN, dtype=np.float64).astype(weights.dtype, copy=False)
    for b in range(cfg.n_blocks):
        h = _block(h, weights.tensors, b, cfg)
    return _heads(h, weights.tensors)


def prediction_to_distribution(pred: VoxelPrediction, covariance_mode: str) -> ScaledLogitNormal:
    """Detach a prediction into a (batched) ScaledLogitNormal; raises if
    covariance_mode does not match the width of the covariance head."""
    p = pred.sigma_l_params.data
    if NetworkConfig(covariance_mode=covariance_mode).n_cov_params != p.shape[-1]:
        raise ValueError(f"covariance_mode {covariance_mode!r} does not match {p.shape[-1]} covariance parameters")
    return ScaledLogitNormal(pred.mu_l.data, p)


def collect_gradients(weights: EncoderWeights, loss: ad.Tensor) -> np.ndarray:
    """Run backward from a scalar loss and return its finite gradient as one
    vector in the weights' dtype, laid out as weights.flatten lays out the
    values; a FloatingPointError names a tensor with a non-finite entry.

    The weights' gradients from any earlier backward are cleared first, so
    each call returns this loss's gradient alone.
    """
    ad.zero_grads(weights.tensors.values())
    ad.backward(loss)
    grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in weights.tensors.values()]
    flat = np.concatenate([g.ravel() for g in grads])
    if not np.isfinite(flat).all():
        name = next(k for k, g in zip(weights.tensors, grads) if not np.isfinite(g).all())
        raise FloatingPointError(f"non-finite gradient in tensor {name!r}")
    return flat


# optimizer -----------------------------------------------------------
#
# The optimizer runs on flat vectors: the master weights, the gradient, the
# moments and the SWA mean are each one float64 array, updated elementwise,
# so any layout gives the per-tensor result bit for bit.


@dataclass
class AdamWState:
    """First/second moment accumulators and the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_weights(cls, weights: np.ndarray) -> "AdamWState":
        return cls(np.zeros_like(weights), np.zeros_like(weights))


def adamw_step(weights: np.ndarray, state: AdamWState, grad: np.ndarray, lr: float, weight_decay: float) -> None:
    """One AdamW update of a weight vector in place: bias-corrected moments,
    decoupled decay.

    The decay term is applied directly to the weights (w -= lr * wd * w),
    never through the gradient.
    """
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    m, v = state.m, state.v
    m += (1.0 - ADAM_BETA1) * (grad - m)
    v += (1.0 - ADAM_BETA2) * (grad * grad - v)
    weights -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS) + lr * weight_decay * weights


def swa_update(avg: np.ndarray, current: np.ndarray, k: int) -> None:
    """Running arithmetic mean of weight vectors in place: avg += (current - avg)/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    avg += (current - avg) / k


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
        if name in tensors:
            raise CheckpointFormatError(f"checkpoint repeats tensor {name!r}")
        tensors[name] = ad.Tensor(data.reshape(shape).astype(np.float64))
    if offset != len(raw):
        raise CheckpointFormatError(f"checkpoint has {len(raw) - offset} bytes after its tensor table")
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
