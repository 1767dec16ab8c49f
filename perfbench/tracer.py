"""Outside-in span tracer for oximap.

The package's modules bind each other's functions with `from ... import`,
so a call is only seen by replacing the name in the namespace of the
module that makes it (for example `oximap.train.encoder_forward`, not
`oximap.nnet.encoder_forward`). `Tracer.install` does that for every
layer boundary listed in `_boundaries`; `Tracer.uninstall` puts the
original objects back. The wrappers call the original with the same
arguments and return its result unchanged, so traced and untraced runs
compute the same bytes.

Spans (name, start, end, parent) stay in memory until `write` saves them.
Per op, `end_op` turns the op's spans into per-layer self and total times
plus the counters recorded at the same boundaries.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import oximap.analysis
import oximap.autodiff
import oximap.distributions
import oximap.physics
import oximap.synthgen
import oximap.train

# every tape op of oximap.autodiff; each call creates one tape node
AD_OPS = (
    "add", "sub", "mul", "div", "pow_const", "exp", "log", "sqrt", "absval",
    "logistic", "softplus", "clip_min", "where", "reshape", "getitem",
    "transpose", "concat", "stack_last", "pad_xy", "tsum", "tmean", "matmul",
    "custom",
)

KERNEL = ("physics.one_minus_j0", "physics.j1")
# outermost entries into the forward model: they count voxel-draws
FORWARD_ENTRIES = (
    "analysis.normalized_model_signal",
    "train.normalized_model_signal_t",
    "synthgen.total_signal",
)
FORWARD = FORWARD_ENTRIES + ("physics.total_signal", "physics.dephasing_integral_t")

# per-layer metric -> spans whose self time (duration minus child spans) it sums
SELF_TIMES = {
    "physics.kernel.self_s": KERNEL,
    "physics.forward.self_s": FORWARD,
    "autodiff.backward.self_s": ("autodiff.backward", "autodiff.zero_grads"),
    "autodiff.ops.self_s": tuple("autodiff." + n for n in AD_OPS),
    "nnet.collect_gradients.self_s": ("train.collect_gradients",),
    "nnet.adamw_step.self_s": ("train.adamw_step",),
    "nnet.swa_update.self_s": ("train.swa_update",),
    "train.elbo_core.self_s": ("train._elbo_core",),
    "train.loop.self_s": ("op",),
    "analysis.elbo_map.self_s": ("analysis.elbo_map",),
    "analysis.infer_maps.self_s": ("analysis.infer_maps",),
    "synthgen.generate_dataset.self_s": ("synthgen.generate_dataset",),
}
# per-layer metric -> spans whose whole duration it sums (none of them nest)
TOTAL_TIMES = {
    "nnet.encoder_forward.total_s": ("train.encoder_forward", "analysis.encoder_forward"),
    "train.compute_prior_maps.total_s": ("train.compute_prior_maps", "analysis.compute_prior_maps"),
    "train.pretrain_loss.total_s": ("train.pretrain_loss",),
    "analysis.wls_fit.total_s": ("analysis.wls_fit",),
    "distributions.kl_analytic.total_s": ("analysis.kl_analytic",),
    "distributions.sample.total_s": ("distributions.ScaledLogitNormal.sample",),
    "synthgen.add_noise.total_s": ("synthgen.add_noise",),
}
COUNTERS = (
    "physics.kernel.evals",
    "physics.kernel.mb_computed",
    "physics.forward.voxels",
    "physics.forward.useful",
    "autodiff.nodes",
    "autodiff.tape_mb_computed",
    "synthgen.rows_rejected",
)


def _size(x):
    return int(np.size(x.data if isinstance(x, oximap.autodiff.Tensor) else x))


def _shape(x):
    return np.shape(x.data if isinstance(x, oximap.autodiff.Tensor) else x)


class Tracer:
    """Records spans and counters around oximap's layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._mask = None
        self._mask_count = 0
        self._op_first = 0
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.ops: list[dict] = []

    # spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(ix)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(np.nan)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._op_first = len(self.span_start)
        self._open("op")

    def end_op(self) -> dict:
        """Close the op span and return (and keep) its per-layer numbers."""
        first = self._op_first
        self._close(first)
        names = np.frombuffer(self.span_name, dtype=np.int32)[first:]
        parents = np.frombuffer(self.span_parent, dtype=np.int32)[first:] - first
        dur = (np.frombuffer(self.span_end)[first:] - np.frombuffer(self.span_start)[first:])
        child = np.zeros_like(dur)
        inner = parents >= 0
        np.add.at(child, parents[inner], dur[inner])
        self_t = np.bincount(names, weights=dur - child, minlength=len(self.names))
        total_t = np.bincount(names, weights=dur, minlength=len(self.names))

        def pick(table, spans):
            return float(sum(table[self._name_ix[s]] for s in spans if s in self._name_ix))

        rec = {"op_s": float(dur[0])}
        for metric, spans in SELF_TIMES.items():
            rec[metric] = pick(self_t, spans)
        for metric, spans in TOTAL_TIMES.items():
            rec[metric] = pick(total_t, spans)
        rec.update(self.counters)
        rec["spans"] = int(dur.size)
        rec["self_by_span"] = {
            self.names[i]: float(self_t[i]) for i in np.nonzero(self_t)[0]
        }
        self.ops.append(rec)
        return rec

    def write(self, path) -> None:
        """Save every recorded span (name, start, end, parent) as an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )

    # wrappers ---------------------------------------------------------

    def _wrap(self, owner, attr, span, count=None, mask_of=None):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(span)
            saved = tracer._mask, tracer._mask_count
            if mask_of is not None:
                tracer._mask = mask_of(args)
                tracer._mask_count = int(tracer._mask.sum())
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            finally:
                tracer._mask, tracer._mask_count = saved
                tracer._close(idx)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _count_kernel(self, args, result):
        c = self.counters
        c["physics.kernel.evals"] += np.size(args[0])
        c["physics.kernel.mb_computed"] += (np.asarray(args[0]).nbytes + result.nbytes) / 1e6

    def _count_forward(self, args, result):
        oef = args[0][0] if isinstance(args[0], tuple) else args[0]
        n = _size(oef)
        c = self.counters
        c["physics.forward.voxels"] += n
        if self._mask is not None and _shape(oef) == self._mask.shape:
            c["physics.forward.useful"] += self._mask_count
        else:
            c["physics.forward.useful"] += n

    def _count_node(self, args, result):
        self.counters["autodiff.nodes"] += 1
        self.counters["autodiff.tape_mb_computed"] += result.data.nbytes / 1e6

    def _count_rejected(self, args, result):
        self.counters["synthgen.rows_rejected"] += result.n_rejected

    def _boundaries(self):
        physics = oximap.physics
        train = oximap.train
        analysis = oximap.analysis
        synthgen = oximap.synthgen
        autodiff = oximap.autodiff
        yield physics, "one_minus_j0", "physics.one_minus_j0", self._count_kernel, None
        yield physics, "j1", "physics.j1", self._count_kernel, None
        yield physics, "total_signal", "physics.total_signal", None, None
        yield physics, "dephasing_integral_t", "physics.dephasing_integral_t", None, None
        yield analysis, "normalized_model_signal", "analysis.normalized_model_signal", self._count_forward, None
        yield train, "normalized_model_signal_t", "train.normalized_model_signal_t", self._count_forward, None
        yield synthgen, "total_signal", "synthgen.total_signal", self._count_forward, None
        yield autodiff, "backward", "autodiff.backward", None, None
        yield autodiff, "zero_grads", "autodiff.zero_grads", None, None
        for op in AD_OPS:
            yield autodiff, op, "autodiff." + op, self._count_node, None
        for mod, prefix in ((train, "train"), (analysis, "analysis")):
            yield mod, "encoder_forward", prefix + ".encoder_forward", None, None
            yield mod, "compute_prior_maps", prefix + ".compute_prior_maps", None, None
        yield train, "collect_gradients", "train.collect_gradients", None, None
        yield train, "adamw_step", "train.adamw_step", None, None
        yield train, "swa_update", "train.swa_update", None, None
        yield train, "pretrain_loss", "train.pretrain_loss", None, None
        # the mask of the batch being fitted tells useful voxel-draws from wasted ones
        yield train, "_elbo_core", "train._elbo_core", None, lambda a: np.asarray(a[2], dtype=bool)
        yield analysis, "elbo_map", "analysis.elbo_map", None, lambda a: np.moveaxis(a[1].mask, 2, 0)
        yield analysis, "infer_maps", "analysis.infer_maps", None, None
        yield analysis, "wls_fit", "analysis.wls_fit", None, None
        yield analysis, "kl_analytic", "analysis.kl_analytic", None, None
        yield (
            oximap.distributions.ScaledLogitNormal, "sample",
            "distributions.ScaledLogitNormal.sample", None, None,
        )
        yield synthgen, "generate_dataset", "synthgen.generate_dataset", self._count_rejected, None
        yield synthgen, "add_noise", "synthgen.add_noise", None, None

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, span, count, mask_of in self._boundaries():
            self._wrap(owner, attr, span, count, mask_of)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def summarize(ops: list[dict], untraced_min: float) -> dict:
    """Per-layer metrics of a traced run, as {name: {"value", "unit"}}:
    medians over ops, except ratios, which are taken over sums."""
    out = {}
    for metric in list(SELF_TIMES) + list(TOTAL_TIMES):
        out[metric] = (float(np.median([r[metric] for r in ops])), "s")
    for metric in COUNTERS:
        if metric != "physics.forward.useful":
            unit = "MB" if metric.endswith("mb_computed") else "count"
            out[metric] = (float(np.median([r[metric] for r in ops])), unit)
    voxels = sum(r["physics.forward.voxels"] for r in ops)
    useful = sum(r["physics.forward.useful"] for r in ops)
    out["physics.forward.useful_ratio"] = (useful / voxels if voxels else 1.0, "ratio")
    op_time = sum(r["op_s"] for r in ops)
    out["physics.kernel.share"] = (sum(r["physics.kernel.self_s"] for r in ops) / op_time, "ratio")
    traced_min = min(r["op_s"] for r in ops)
    out["trace.op_s.min"] = (traced_min, "s")
    out["trace.overhead_ratio"] = (traced_min / untraced_min, "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}
