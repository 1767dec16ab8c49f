"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float32 or float64 ndarray plus the closure needed to
push a cotangent back to its parents; any other input, Python numbers
included, becomes float64. Ops compute under NumPy's promotion rules, so
a float64 operand, even a 0-d one made from a Python number, upcasts a
float32 graph.
Graphs are built eagerly by the op functions below and differentiated by
`backward`. The op set is exactly what the encoder, losses, and forward
models need; everything runs on plain numpy so results are deterministic
for a fixed input.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from scipy.special import expit

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# False inside recording_off(): new tensors keep no parents and no vjp. A
# context variable, so each thread (and asyncio task) has its own switch.
_recording = ContextVar("recording", default=True)


@contextmanager
def recording_off():
    """Build tensors without recording the graph, so intermediates are freed
    once unused; only the calling thread stops recording."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def recording() -> bool:
    """Whether tensors made now on this thread record the graph."""
    return _recording.get()


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_vjp")

    # keep numpy from consuming Tensor operands elementwise; arithmetic with
    # ndarrays must dispatch to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, data, parents=(), vjp=None):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOAT_DTYPES else data.astype(np.float64)
        self.grad = None
        if _recording.get():
            self._parents, self._vjp = parents, vjp
        else:
            self._parents, self._vjp = (), None

    @property
    def shape(self):
        return self.data.shape

    # operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return pow_const(self, p)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (the reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(out):
    """Accumulate gradients of `out` into every reachable leaf's .grad.

    A node with a vjp drops its .grad once the vjp has consumed it, so the
    gradients of interior nodes are freed as the pass runs; leaves keep theirs.
    """
    topo = []
    visited = set()
    stack = [(out, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    out.grad = np.ones_like(out.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        node.grad = None
        for parent, g in zip(node._parents, grads):
            if g is None:
                continue
            g = _unbroadcast(g, parent.data.shape)
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g


def zero_grads(tensors):
    """Clear .grad on an iterable of tensors."""
    for t in tensors:
        t.grad = None


# elementwise arithmetic ---------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return Tensor(out, (a, b), lambda g: (g / b.data, -g * out / b.data))


def pow_const(a, p):
    a = as_tensor(a)
    p = float(p)
    out = a.data**p
    return Tensor(out, (a,), lambda g: (g * p * a.data ** (p - 1.0),))


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    return Tensor(out, (a,), lambda g: (g * out,))


def log(a):
    a = as_tensor(a)
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return Tensor(out, (a,), lambda g: (g * 0.5 / out,))


def absval(a):
    a = as_tensor(a)
    return Tensor(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def logistic(a):
    a = as_tensor(a)
    out = expit(a.data)
    return Tensor(out, (a,), lambda g: (g * out * (1.0 - out),))


# elements per piece of softplus_into and softplus_slope_into
SOFTPLUS_CHUNK = 1 << 15


def _chunks(x, out):
    """Matching views of x and out (same shape) of about SOFTPLUS_CHUNK
    elements each: row blocks of the leading axis, a row longer than a chunk
    split the same way. The pieces are views, so what is written to them
    lands in out whatever its layout."""
    x, out = np.atleast_1d(x), np.atleast_1d(out)
    row = x[0].size if len(x) else 0
    if row > SOFTPLUS_CHUNK:
        for pair in zip(x, out):
            yield from _chunks(*pair)
        return
    step = SOFTPLUS_CHUNK // max(row, 1)
    for b in range(0, len(x), step):
        yield x[b : b + step], out[b : b + step]


def softplus_into(x, out):
    """softplus(x) = log(1 + exp(x)) of a float array into out, of x's shape
    and dtype; out may be x itself.

    The value is log1p(exp(-|x|)) + max(x, 0), so large |x| never
    overflows. It is formed SOFTPLUS_CHUNK elements at a time, so no
    temporary the size of x is made and x may be overwritten in place.

    Array code only: it builds no tensor and reads no recording switch, so
    any thread may run it on its own part of the buffers.
    """
    for xc, oc in _chunks(x, out):
        t = np.abs(xc)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        np.maximum(xc, 0.0, out=oc)
        np.add(t, oc, out=oc)  # log1p(...) the first operand, as a NaN's bits come from it
        del t  # freed before the next piece's


def softplus_slope_into(x, out):
    """softplus's slope logistic(x) = max(exp(-|x|), [x >= 0]) / (1 +
    exp(-|x|)) of a float array into out, in pieces as softplus_into; out
    may be x itself. Array code only, like softplus_into."""
    for xc, oc in _chunks(x, out):
        e = np.abs(xc)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.maximum(e, xc >= 0.0, out=oc)  # 1 where x >= 0, else exp(x)
        oc /= 1.0 + e
        del e


def softplus(a):
    """log(1 + exp(x)); see softplus_into. The vjp rebuilds the slope from
    the output, logistic(x) = -expm1(-softplus(x)), so the tape holds no
    second array per node."""
    a = as_tensor(a)
    out = np.empty_like(a.data)
    softplus_into(a.data, out)
    return Tensor(out, (a,), lambda g: (g * -np.expm1(-out),))


def clip_min(a, floor):
    """max(a, floor) with zero gradient on the clipped side."""
    a = as_tensor(a)
    floor = float(floor)
    out = np.maximum(a.data, floor)
    mask = a.data > floor
    return Tensor(out, (a,), lambda g: (g * mask,))


def where(cond, a, b):
    """Select elementwise by a constant boolean array."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    out = np.where(cond, a.data, b.data)
    return Tensor(out, (a, b), lambda g: (np.where(cond, g, 0.0), np.where(cond, 0.0, g)))


# shape ops ----------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    old = a.data.shape
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def getitem(a, idx):
    a = as_tensor(a)
    out = a.data[idx]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return Tensor(out, (a,), vjp)


def transpose(a, axes):
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return Tensor(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inverse),))


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(np.concatenate(datas, axis=axis), tuple(tensors), vjp)


def stack_last(tensors):
    """Stack scalar-per-voxel tensors into a trailing axis."""
    return concat([reshape(t, t.data.shape + (1,)) for t in tensors], axis=-1)


def pad_xy(a, pad):
    """Zero-pad axes 1 and 2 of a (batch, x, y, ...) tensor by `pad` on each side."""
    a = as_tensor(a)
    widths = [(0, 0)] * a.data.ndim
    widths[1] = (pad, pad)
    widths[2] = (pad, pad)
    sl = [slice(None)] * a.data.ndim
    sl[1] = slice(pad, a.data.shape[1] + pad)
    sl[2] = slice(pad, a.data.shape[2] + pad)
    sl = tuple(sl)
    return Tensor(np.pad(a.data, widths), (a,), lambda g: (g[sl],))


# reductions ---------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor(out, (a,), vjp)


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[i] for i in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


# linear algebra -----------------------------------------------------


def matmul(a, b):
    """a @ b where a is (..., n) stacked rows and b is a plain (n, m) matrix."""
    a, b = as_tensor(a), as_tensor(b)
    if b.data.ndim != 2:
        raise ValueError("matmul expects a 2-d right operand")
    out = a.data @ b.data
    n, m = b.data.shape

    def vjp(g):
        da = g @ b.data.T
        db = a.data.reshape(-1, n).T @ g.reshape(-1, m)
        return (da, db)

    return Tensor(out, (a, b), vjp)


def custom(out_data, parents, vjp):
    """Build a Tensor from a hand-written forward value and vector-Jacobian product."""
    return Tensor(out_data, tuple(as_tensor(p) for p in parents), vjp)
