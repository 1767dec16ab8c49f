"""Tests of the benchmark itself: tracing changes no op output and puts
back everything it wraps, its counters repeat exactly, every workload's
output passes its check, and the checks reject broken outputs.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from oximap import autodiff as ad  # noqa: E402
from oximap.analysis import ParamMaps  # noqa: E402
from oximap.nnet import EncoderWeights  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
EXACT_COUNTERS = (
    "physics.kernel.evals",
    "physics.forward.voxels",
    "physics.forward.useful",
    "autodiff.nodes",
    "synthgen.rows_rejected",
)

_BUILT = {}


def _workload(name, tmp_path):
    if name not in _BUILT:
        _BUILT[name] = WORKLOADS[name]().build(SEED)
    w = WORKLOADS[name](workdir=tmp_path)
    w.prepare(_BUILT[name])
    return w


def _digest(out):
    """Every byte of an op's output, as a flat list."""
    if isinstance(out, EncoderWeights):
        return [str(out.config)] + [(k, t.data.tobytes()) for k, t in out.tensors.items()]
    if isinstance(out, ParamMaps):
        return [
            (f.name, np.asarray(getattr(out, f.name)).tobytes())
            for f in dataclasses.fields(out)
            if isinstance(getattr(out, f.name), np.ndarray)
        ]
    if isinstance(out, tuple):
        return [d for part in out for d in _digest(part)]
    return [repr(out)]


def _traced_ops(w, ks):
    with Tracer() as tracer:
        outs = []
        for k in ks:
            tracer.begin_op()
            outs.append(w.op(k))
            tracer.end_op()
    return tracer, outs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_op_outputs_byte_identical(name, tmp_path):
    w = _workload(name, tmp_path)
    plain = _digest(w.op(1))
    tracer, (traced,) = _traced_ops(w, [1])
    assert tracer.ops[0]["spans"] > 1
    assert _digest(traced) == plain


def test_tracer_restores_every_wrapped_name():
    tracer = Tracer()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracer._boundaries()]
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert all(getattr(o, a) is not f for o, a, f in originals)
            ad.mul(ad.Tensor(1.0), 2.0)
            1 / 0
    assert all(getattr(o, a) is f for o, a, f in originals)
    assert tracer.counters["autodiff.nodes"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_exactly(name, tmp_path):
    w = _workload(name, tmp_path)
    first, _ = _traced_ops(w, [1, 2])
    second, _ = _traced_ops(w, [1, 2])
    for a, b in zip(first.ops, second.ops):
        assert {c: a[c] for c in EXACT_COUNTERS} == {c: b[c] for c in EXACT_COUNTERS}
    layers = summarize(first.ops, untraced_min=1.0)
    if name == "finetune-asym":
        assert layers["physics.kernel.evals"]["value"] == 0
    if name == "infer-brain":
        # every forward draw covers the whole grid, so the useful share is the mask's
        assert layers["physics.forward.useful_ratio"]["value"] == w.vol.mask.mean()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_outputs_pass_their_checks(name, tmp_path):
    w = _workload(name, tmp_path)
    out = w.op(1)
    assert w.check(out, 1) is None
    oef_mae, neg_elbo = w.score(out, 1)
    assert w.work_per_op > 0 and np.isfinite(neg_elbo) and 0 < oef_mae < 1


def test_checks_reject_broken_outputs(tmp_path):
    ft = _workload("finetune-brain", tmp_path)
    psi = ft.op(1)
    psi.tensors["mu.b"].data[0] = np.nan
    assert ft.check(psi, 1) == "non-finite fine-tuned weights"

    inf = _workload("infer-brain", tmp_path)
    maps, wls = inf.op(1)
    off = np.argwhere(~inf.vol.mask)[0]
    maps.oef_point[tuple(off)] = 0.4
    assert inf.check((maps, wls), 1) == "oef_point is not NaN off the mask"


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    assert run._tail(times) == (29.0, 75.0, 10)
    assert run._tail(times[:8]) == (7.0, 100.0, 0)


def test_run_fails_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-brain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
