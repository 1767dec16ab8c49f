"""The gated block nodes on two threads: the same bits as on one thread, the
same checkpoint from the command at one or two usable CPUs, a helper that
survives a fork, runs array code only and never outlives its node."""

import os
import subprocess
import sys
import threading
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import usable_cpus

from oximap import autodiff as ad
from oximap import nnet, train
from oximap.nifti import write_nifti
from oximap.nnet import NetworkConfig, collect_gradients, encoder_forward, extend_weights, init_weights
from oximap.physics import AcquisitionProtocol, ForwardModelConfig, PhysioConstants
from oximap.synthgen import make_phantom
from oximap.train import TrainingConfig
from oximap.volume import normalize_volume

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import AD_OPS, Tracer  # noqa: E402

PROTO, CONST, FWD = AcquisitionProtocol(), PhysioConstants(), ForwardModelConfig()
SRC = Path(__file__).resolve().parents[1] / "src"


def phantom(shape, seed):
    """A noisy phantom with a partial mask, raw (unnormalized)."""
    mask = np.ones(shape, bool)
    mask[0, :4] = False
    return make_phantom(shape, (0.4, 0.025), PROTO, CONST, FWD, 60.0, np.random.default_rng(seed), mask)


def finetune(scope, cov, n_planes, tmp_path):
    """Three gated fine-tune steps on a one-slice volume, n_planes crops a
    step: the weights' bytes and the metrics log without its step_ms."""
    vol, _ = normalize_volume(phantom((9, 10, 1), 3), PROTO)
    theta = init_weights(NetworkConfig(width=8, covariance_mode=cov), PROTO.n_t, np.random.default_rng(4))
    gated = NetworkConfig(width=8, spatial_mode="gated-residual", covariance_mode=cov, gate_scope=scope)
    cfg = TrainingConfig.finetune_defaults(iterations=3, batch_size=n_planes, crop_xy=6, n_samples_elbo=2)
    log = tmp_path / "ft.tsv"
    psi = train.run_finetuning(theta, gated, cfg, [vol], PROTO, CONST, FWD, metrics_path=log)
    return psi.flatten(np.float64).tobytes(), [row.rsplit("\t", 1)[0] for row in log.read_text().splitlines()]


@pytest.fixture()
def softplus_threads(monkeypatch):
    """The threads that ran softplus_into, which both halves of a gated
    forward call."""
    seen, original = set(), ad.softplus_into

    def spy(*args):
        seen.add(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(ad, "softplus_into", spy)
    return seen


@pytest.mark.parametrize("n_planes", [1, 3, 4])
@pytest.mark.parametrize("cov", ["diagonal", "full"])
@pytest.mark.parametrize("scope", ["scalar", "voxelwise"])
def test_finetuning_gives_the_same_bits_on_one_or_two_threads(scope, cov, n_planes, tmp_path, softplus_threads):
    with usable_cpus(1):
        one = finetune(scope, cov, n_planes, tmp_path)
    assert softplus_threads == {threading.get_ident()}
    with usable_cpus(2):
        two = finetune(scope, cov, n_planes, tmp_path)
    assert len(softplus_threads) == 2
    assert one[1][0].startswith("step\t") and len(one[1]) == 4
    assert two == one


def small_gated(seed=0):
    rng = np.random.default_rng(seed)
    net = extend_weights(init_weights(NetworkConfig(width=8), PROTO.n_t, rng), rng).astype(np.float32)
    for b in range(net.config.n_blocks):
        gate_w = net.tensors[f"block{b}.gate.w"].data
        gate_w[:] = rng.normal(0.0, 0.3, gate_w.shape)
    return net


def gated_step(net, x):
    """One encoder forward and backward on the tape: the flat gradient."""
    pred = encoder_forward(net, x)
    loss = ad.tsum(pred.mu_l * pred.mu_l) + ad.tsum(pred.log_sigma_im)
    return collect_gradients(net, loss)


def test_several_callers_share_the_helper(monkeypatch):
    # three threads at once run gated steps, each on its own copy of the
    # network, whose halves queue on the one helper; each gets the bits of
    # the one-thread step, a short switch interval interleaving their
    # Python code
    xs = [np.random.default_rng(10 + k).normal(-0.1, 0.05, (3, 7, 6, PROTO.n_t)) for k in range(3)]
    with usable_cpus(1):
        want = [gated_step(small_gated(), x).tobytes() for x in xs]
    got = [[] for _ in xs]

    def worker(k):
        net = small_gated()
        for _ in range(4):
            got[k].append(gated_step(net, xs[k]).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with usable_cpus(2):
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 4 for w in want]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_runs_gated_steps():
    net = small_gated()
    x = np.random.default_rng(5).normal(-0.1, 0.05, (4, 6, 6, PROTO.n_t))
    with usable_cpus(2):
        want = gated_step(net, x)
        assert nnet._helper is not None
        with warnings.catch_warnings():
            # a fork of a process with threads is what this test is about
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(gated_step(net, x), want) else 2
            finally:
                os._exit(code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's gated step did not end within 60 s")
    assert os.waitstatus_to_exitcode(status) == 0


class _ThreadCheckedVar:
    """A stand-in for autodiff's recording switch that notes every thread
    that reads or sets it."""

    def __init__(self, var, threads):
        self.var, self.threads = var, threads

    def get(self):
        self.threads.add(threading.get_ident())
        return self.var.get()

    def set(self, value):
        self.threads.add(threading.get_ident())
        return self.var.set(value)

    def reset(self, token):
        self.threads.add(threading.get_ident())
        self.var.reset(token)


def test_the_helper_runs_array_code_only(monkeypatch, tmp_path, softplus_threads):
    # every tape op, every name the benchmark's tracer wraps and the
    # recording switch run on the calling thread during gated steps
    calls = {}

    def checked(name, original):
        def call(*args, **kwargs):
            calls.setdefault(name, set()).add(threading.get_ident())
            return original(*args, **kwargs)

        return call

    names = {(ad, op) for op in AD_OPS} | {(owner, attr) for owner, attr, *_ in Tracer()._boundaries()}
    for owner, attr in names:
        monkeypatch.setattr(owner, attr, checked(f"{owner.__name__}.{attr}", getattr(owner, attr)))
    switch = set()
    monkeypatch.setattr(ad, "_recording", _ThreadCheckedVar(ad._recording, switch))
    with usable_cpus(2):
        finetune("scalar", "full", 3, tmp_path)
    me = threading.get_ident()
    assert len(softplus_threads) == 2
    assert {f"oximap.{n}" for n in ("autodiff.custom", "train.encoder_forward", "train.collect_gradients")} <= calls.keys()
    assert {name: threads for name, threads in calls.items() if threads != {me}} == {}
    assert switch == {me}


def block_inputs(seed=6):
    net = small_gated(seed)
    h = ad.Tensor(np.random.default_rng(seed).normal(0.0, 1.0, (4, 5, 6, 8)).astype(np.float32))
    return net, h


def test_an_error_in_the_helper_half_is_raised_after_it_ends(monkeypatch):
    net, h = block_inputs()
    caller, ended = threading.get_ident(), []
    original = ad.softplus_into

    def failing(*args):
        original(*args)
        if threading.get_ident() != caller:
            time.sleep(0.05)
            ended.append(True)
            raise FloatingPointError("helper half")

    monkeypatch.setattr(ad, "softplus_into", failing)
    with usable_cpus(2), pytest.raises(FloatingPointError, match="helper half"):
        nnet._block(h, net.tensors, 1, net.config)
    assert ended == [True]


def test_an_error_in_the_calling_half_waits_for_the_helper(monkeypatch):
    net, h = block_inputs()
    caller, ended = threading.get_ident(), []
    original = ad.softplus_into

    def slow_helper(*args):
        if threading.get_ident() == caller:
            raise FloatingPointError("calling half")
        time.sleep(0.2)
        original(*args)
        ended.append(True)

    monkeypatch.setattr(ad, "softplus_into", slow_helper)
    with usable_cpus(2), pytest.raises(FloatingPointError, match="calling half"):
        nnet._block(h, net.tensors, 1, net.config)
    # the node raised only once the helper's writes were done
    assert ended == [True]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_the_command_writes_the_same_checkpoint_at_one_or_two_cpus(tmp_path):
    write_nifti(phantom((10, 9, 2), 7), tmp_path / "vol.nii")
    theta = init_weights(NetworkConfig(width=8), PROTO.n_t, np.random.default_rng(8))
    nnet.save_checkpoint(theta, tmp_path / "theta.ckpt")
    config = {
        "network": {"n_blocks": 2, "width": 8, "spatial_mode": "gated-residual"},
        "finetune": {"iterations": 3, "batch_size": 3, "crop_xy": 6, "n_samples_elbo": 2, "seed": 4},
    }
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(config))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpus = sorted(os.sched_getaffinity(0))[:2]
    ckpts = []
    for n in (1, 2):
        out = tmp_path / f"psi{n}.ckpt"
        subprocess.run(
            [sys.executable, "-m", "oximap.cli", "finetune", "--config", str(tmp_path / "run.yaml"),
             "--weights", str(tmp_path / "theta.ckpt"), "--volume", str(tmp_path / "vol.nii"),
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
            preexec_fn=partial(os.sched_setaffinity, 0, set(cpus[:n])),
        )
        ckpts.append(out.read_bytes())
    assert ckpts[0] == ckpts[1]
