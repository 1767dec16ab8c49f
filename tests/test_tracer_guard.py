"""Guard for the benchmark's tracer (perfbench/tracer.py).

The tracer wraps oximap's functions by name in the module that calls them.
A renamed or moved function would make its install fail, or leave a span
silently empty; these tests turn either into a test failure.
"""

import sys
from pathlib import Path

import numpy as np

from oximap import analysis, physics, synthgen, train
from oximap.nnet import NetworkConfig, init_weights
from oximap.physics import AcquisitionProtocol, ForwardModelConfig, PhysioConstants
from oximap.volume import normalize_volume

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_install_wraps_every_name_and_uninstall_restores_it():
    tracer = Tracer()
    names = [(owner, attr) for owner, attr, *_ in tracer._boundaries()]
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr in names]
    finally:
        tracer.uninstall()
    for (owner, attr), orig, wrap in zip(names, originals, wrapped):
        assert wrap is not orig, f"{owner.__name__}.{attr} was not wrapped"
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr} was not restored"


def _finetune_setup():
    proto, const, fwd = AcquisitionProtocol(), PhysioConstants(), ForwardModelConfig()
    theta = init_weights(NetworkConfig(n_blocks=1, width=4), proto.n_t, np.random.default_rng(0))
    gated = NetworkConfig(n_blocks=1, width=4, spatial_mode="gated-residual")
    cfg = train.TrainingConfig.finetune_defaults(
        iterations=1, batch_size=1, crop_xy=4, n_samples_elbo=1
    )
    return proto, const, fwd, theta, gated, cfg


def test_traced_pipeline_reaches_the_wrapped_names():
    proto, const, fwd, theta, gated, cfg = _finetune_setup()
    # the dephasing table is built once per process; build it under the tracer
    physics._kernel_table.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        raw = synthgen.make_phantom((5, 5, 1), (0.4, 0.025), proto, const, fwd, 60.0,
                                    np.random.default_rng(1))
        vol, _ = normalize_volume(raw, proto)
        psi = train.run_finetuning(theta, gated, cfg, [vol], proto, const, fwd)
        analysis.infer_maps(psi, vol, analysis.InferenceConfig(
            forward=fwd, n_elbo_samples=1, prior_weights=theta))
        rec = tracer.end_op()
    finally:
        tracer.uninstall()
    expected = {
        "synthgen.total_signal",
        "train.compute_prior_maps",
        "train.encoder_forward",
        "train._elbo_core",
        "train.normalized_model_signal_t",
        "physics.dephasing_integral_t",
        "physics.one_minus_j0",
        "physics.j1",
        "autodiff.backward",
        "train.collect_gradients",
        "train.adamw_step",
        "analysis.infer_maps",
        "analysis.encoder_forward",
        "analysis.compute_prior_maps",
        "analysis.elbo_map",
        "analysis.kl_analytic",
        "analysis.normalized_model_signal",
    }
    assert expected <= set(tracer.names), expected - set(tracer.names)
    # the std maps come from a fixed quadrature: inference draws nothing for them
    assert _span_count(tracer, "distributions.ScaledLogitNormal.sample", "analysis.infer_maps") == 0
    assert rec["physics.forward.voxels"] > 0 and rec["autodiff.nodes"] > 0


def test_warm_finetune_step_evaluates_no_bessel_function():
    # once the table exists, the forward model and its adjoint only read it
    proto, const, fwd, theta, gated, cfg = _finetune_setup()
    raw = synthgen.make_phantom((5, 5, 1), (0.4, 0.025), proto, const, fwd, 60.0,
                                np.random.default_rng(1))
    vol, _ = normalize_volume(raw, proto)
    train.run_finetuning(theta, gated, cfg, [vol], proto, const, fwd)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        train.run_finetuning(theta, gated, cfg, [vol], proto, const, fwd)
        rec = tracer.end_op()
    finally:
        tracer.uninstall()
    assert rec["physics.kernel.evals"] == 0
    assert rec["physics.forward.voxels"] > 0


def _span_count(tracer, name, within=None):
    """Number of `name` spans, or of those opened inside a `within` span."""
    if name not in tracer.names:
        return 0
    ix = tracer.names.index(name)
    spans = [k for k, i in enumerate(tracer.span_name) if i == ix]
    if within is None:
        return len(spans)
    outer = tracer.names.index(within)

    def inside(k):
        while k >= 0 and tracer.span_name[k] != outer:
            k = tracer.span_parent[k]
        return k >= 0

    return sum(inside(k) for k in spans)


def test_only_masked_voxels_reach_the_forward_model():
    # the forward model sees masked voxels only, once per draw, and infer_maps
    # runs the encoder once: the ELBO map reuses its posterior
    proto, const, fwd, theta, gated, cfg = _finetune_setup()
    mask = np.zeros((5, 5, 2), bool)
    mask[1:4, 1:3] = True
    mask[4, 4, 1] = True
    raw = synthgen.make_phantom((5, 5, 2), (0.4, 0.025), proto, const, fwd, 60.0,
                                np.random.default_rng(1), mask)
    vol, _ = normalize_volume(raw, proto)
    n_masked = int(mask.sum())
    whole_plane = train.TrainingConfig.finetune_defaults(
        iterations=1, batch_size=1, crop_xy=5, n_samples_elbo=3
    )
    icfg = analysis.InferenceConfig(forward=fwd, n_elbo_samples=2, prior_weights=theta)
    psi = train.run_finetuning(theta, gated, cfg, [vol], proto, const, fwd)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        train.run_finetuning(theta, gated, whole_plane, [vol], proto, const, fwd)
        step = tracer.end_op()
        tracer.begin_op()
        analysis.infer_maps(psi, vol, icfg)
        infer = tracer.end_op()
    finally:
        tracer.uninstall()
    assert step["physics.forward.voxels"] == n_masked * 3
    assert infer["physics.forward.voxels"] == n_masked * 2
    assert _span_count(tracer, "analysis.encoder_forward") == 1
    assert _span_count(tracer, "analysis.elbo_map") == 1
    assert _span_count(tracer, "distributions.ScaledLogitNormal.sample", "analysis.infer_maps") == 0
