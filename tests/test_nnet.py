"""Encoder network, optimizer, and checkpoint tests against hand-computed oracles."""

import struct

import numpy as np
import pytest
from conftest import named_gradients, tape_nodes, usable_cpus
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oximap import autodiff as ad
from oximap import train
from oximap.distributions import inverse_transform
from oximap.nnet import (
    _CKPT_HEAD,
    _block,
    _heads,
    CHECKPOINT_MAGIC,
    INPUT_GAIN,
    AdamWState,
    CheckpointFormatError,
    EncoderWeights,
    NetworkConfig,
    adamw_step,
    collect_gradients,
    encoder_forward,
    extend_weights,
    init_weights,
    load_checkpoint,
    lr_schedule,
    prediction_to_distribution,
    save_checkpoint,
    swa_update,
)
from oximap.physics import AcquisitionProtocol, ForwardModelConfig, PhysioConstants
from oximap.synthgen import SynthDataset, make_phantom
from oximap.train import TrainingConfig, pretrain_loss
from oximap.volume import normalize_volume

N_T = 11


def small_net(spatial="voxelwise", cov="diagonal", seed=0, width=8, n_blocks=2):
    cfg = NetworkConfig(n_blocks=n_blocks, width=width, covariance_mode=cov)
    w = init_weights(cfg, N_T, np.random.default_rng(seed))
    if spatial == "gated-residual":
        w = extend_weights(w, np.random.default_rng(seed + 1))
    return w


def numpy_softplus(x):
    return np.logaddexp(0.0, x)


def _neighborhood(x):
    """Stack the 9 in-plane 3x3 neighbours along channels: (B, h, w, C) -> (B, h, w, 9C)."""
    _, h, w, _ = x.data.shape
    padded = ad.pad_xy(x, 1)
    return ad.concat([padded[:, i : i + h, j : j + w, :] for i in range(3) for j in range(3)], axis=-1)


def composed_block(h, t, b, cfg):
    """Hidden block b written with the generic tape ops, one op per step of
    the block formula: the oracle of the fused block node."""
    out = ad.softplus(ad.matmul(h, t[f"block{b}.w"]) + t[f"block{b}.b"])
    if cfg.spatial_mode == "voxelwise":
        return out
    neigh = _neighborhood(h)
    conv = ad.matmul(neigh, t[f"block{b}.conv.w"])
    gate_pre = ad.matmul(neigh, t[f"block{b}.gate.w"]) + t[f"block{b}.gate.b"]
    if cfg.gate_scope == "scalar":
        gate_pre = ad.tmean(gate_pre)
    g = ad.logistic(gate_pre + cfg.gate_offset)
    return out + g * conv


def composed_heads(h, t):
    """The three heads written with the generic tape ops: the oracle of the
    heads node."""
    return tuple(ad.matmul(h, t[f"{n}.w"]) + t[f"{n}.b"] for n in ("mu", "cov", "noise"))


def composed_encoder_forward(weights, x):
    """The encoder written with the generic tape ops: the oracle of the
    block and heads nodes."""
    cfg, t = weights.config, weights.tensors
    h = x * INPUT_GAIN
    for b in range(cfg.n_blocks):
        h = composed_block(h, t, b, cfg)
    return composed_heads(h, t)


class TestNetworkConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_blocks"):
            NetworkConfig(n_blocks=0)
        with pytest.raises(ValueError, match="width"):
            NetworkConfig(width=0)
        with pytest.raises(ValueError, match="spatial_mode"):
            NetworkConfig(spatial_mode="conv3d")
        with pytest.raises(ValueError, match="covariance_mode"):
            NetworkConfig(covariance_mode="banded")
        with pytest.raises(ValueError, match="gate_scope"):
            NetworkConfig(gate_scope="global")

    def test_cov_params(self):
        assert NetworkConfig(covariance_mode="diagonal").n_cov_params == 2
        assert NetworkConfig(covariance_mode="full").n_cov_params == 3


class TestInitWeights:
    def test_shapes_and_biases(self):
        cfg = NetworkConfig(n_blocks=2, width=5)
        w = init_weights(cfg, N_T, np.random.default_rng(0))
        a = w.arrays()
        assert a["block0.w"].shape == (N_T, 5)
        assert a["block1.w"].shape == (5, 5)
        assert a["mu.w"].shape == (5, 2)
        assert a["cov.w"].shape == (5, 2)
        assert a["noise.w"].shape == (5, N_T)
        # output-head biases start at the population prior and a 1% noise floor
        assert_allclose(a["mu.b"], inverse_transform(np.array([0.40, 0.025])))
        assert_allclose(a["noise.b"], np.log(0.01))

    def test_seed_determinism(self):
        w1 = small_net(seed=7)
        w2 = small_net(seed=7)
        for k in w1.tensors:
            assert np.array_equal(w1.tensors[k].data, w2.tensors[k].data)

    def test_rejects_gated_config(self):
        cfg = NetworkConfig(spatial_mode="gated-residual")
        with pytest.raises(ValueError, match="voxelwise"):
            init_weights(cfg, N_T, np.random.default_rng(0))

    def test_extend_preserves_mlp_tensors(self):
        base = small_net()
        ext = extend_weights(base, np.random.default_rng(1))
        assert ext.config.spatial_mode == "gated-residual"
        for k, t in base.tensors.items():
            assert np.array_equal(ext.tensors[k].data, t.data)
        assert np.all(ext.tensors["block0.gate.w"].data == 0.0)
        assert np.all(ext.tensors["block0.gate.b"].data == 0.0)
        with pytest.raises(ValueError, match="voxelwise"):
            extend_weights(ext, np.random.default_rng(2))


class TestEncoderForward:
    def test_two_layer_hand_oracle(self):
        # every tensor pinned to explicit values; forward recomputed in plain numpy
        cfg = NetworkConfig(n_blocks=2, width=3)
        rng = np.random.default_rng(99)
        tensors = {
            "block0.w": rng.normal(0, 0.3, (4, 3)),
            "block0.b": np.array([0.1, -0.2, 0.05]),
            "block1.w": rng.normal(0, 0.3, (3, 3)),
            "block1.b": np.array([-0.1, 0.0, 0.2]),
            "mu.w": rng.normal(0, 0.3, (3, 2)),
            "mu.b": np.array([0.3, -0.4]),
            "cov.w": rng.normal(0, 0.3, (3, 2)),
            "cov.b": np.array([0.0, -1.0]),
            "noise.w": rng.normal(0, 0.3, (3, 4)),
            "noise.b": np.full(4, -2.0),
        }
        w = EncoderWeights(cfg, 4, {k: ad.Tensor(v.copy()) for k, v in tensors.items()})
        x = np.array([0.0, -0.05, -0.12, -0.2])
        pred = encoder_forward(w, ad.Tensor(x))
        h = numpy_softplus((INPUT_GAIN * x) @ tensors["block0.w"] + tensors["block0.b"])
        h = numpy_softplus(h @ tensors["block1.w"] + tensors["block1.b"])
        assert_allclose(pred.mu_l.data, h @ tensors["mu.w"] + tensors["mu.b"], atol=1e-6)
        assert_allclose(pred.sigma_l_params.data, h @ tensors["cov.w"] + tensors["cov.b"], atol=1e-6)
        assert_allclose(pred.log_sigma_im.data, h @ tensors["noise.w"] + tensors["noise.b"], atol=1e-6)

    def test_voxelwise_permutation_equivariance(self, rng):
        w = small_net()
        x = rng.normal(-0.1, 0.05, (20, N_T))
        perm = rng.permutation(20)
        out = encoder_forward(w, ad.Tensor(x))
        out_p = encoder_forward(w, ad.Tensor(x[perm]))
        assert_allclose(out_p.mu_l.data, out.mu_l.data[perm], rtol=0, atol=0)
        assert_allclose(out_p.log_sigma_im.data, out.log_sigma_im.data[perm], rtol=0, atol=0)

    def test_voxelwise_locality(self, rng):
        w = small_net()
        x = rng.normal(-0.1, 0.05, (10, N_T))
        base = encoder_forward(w, ad.Tensor(x)).mu_l.data
        x2 = x.copy()
        x2[3] += 1.0
        bumped = encoder_forward(w, ad.Tensor(x2)).mu_l.data
        changed = np.any(bumped != base, axis=-1)
        assert changed[3] and not changed[np.arange(10) != 3].any()

    def test_channel_mismatch_error(self):
        w = small_net()
        with pytest.raises(ValueError, match="channels"):
            encoder_forward(w, ad.Tensor(np.zeros((5, N_T + 1))))

    def test_gated_requires_4d(self):
        w = small_net("gated-residual")
        with pytest.raises(ValueError, match="batch"):
            encoder_forward(w, ad.Tensor(np.zeros((5, N_T))))

    def test_gate_shut_equals_pure_mlp(self, rng):
        # a hugely negative gate offset silences the conv path entirely
        w = small_net("gated-residual", seed=3)
        x = rng.normal(-0.1, 0.05, (2, 4, 4, N_T))
        shut = NetworkConfig(
            n_blocks=w.config.n_blocks,
            width=w.config.width,
            spatial_mode="gated-residual",
            covariance_mode=w.config.covariance_mode,
            gate_offset=-1e9,
            gate_scope=w.config.gate_scope,
        )
        gated = encoder_forward(EncoderWeights(shut, w.n_t, w.tensors), ad.Tensor(x))
        voxelwise = NetworkConfig(
            n_blocks=w.config.n_blocks, width=w.config.width,
            covariance_mode=w.config.covariance_mode,
        )
        plain = encoder_forward(EncoderWeights(voxelwise, w.n_t, w.tensors), ad.Tensor(x.reshape(-1, N_T)))
        assert_allclose(gated.mu_l.data.reshape(-1, 2), plain.mu_l.data, rtol=0, atol=1e-300)

    def test_fresh_extension_stays_near_voxelwise(self, rng):
        base = small_net(width=16, seed=5)
        ext = extend_weights(base, np.random.default_rng(6))
        x = rng.normal(-0.1, 0.05, (2, 6, 6, N_T))
        mu_base = encoder_forward(base, ad.Tensor(x.reshape(-1, N_T))).mu_l.data
        mu_ext = encoder_forward(ext, ad.Tensor(x)).mu_l.data.reshape(-1, 2)
        rel = np.abs(mu_ext - mu_base) / np.abs(mu_base)
        assert rel.max() < 0.05

    def test_fresh_gate_value(self, rng):
        # zero gate weights leave the gate at exactly logistic(gate_offset);
        # for a 1-block net the head is affine in the hidden state, so
        # mu(offset) - mu(shut) scales with logistic(offset) elementwise
        w = small_net("gated-residual", width=6, n_blocks=1, seed=12)
        x = rng.normal(-0.1, 0.05, (1, 4, 4, N_T))

        def mu_at(offset):
            cfg = NetworkConfig(
                n_blocks=1, width=6, spatial_mode="gated-residual",
                covariance_mode=w.config.covariance_mode, gate_offset=offset,
                gate_scope=w.config.gate_scope,
            )
            return encoder_forward(EncoderWeights(cfg, w.n_t, w.tensors), ad.Tensor(x)).mu_l.data

        mlp = mu_at(-1e9)
        d3 = mu_at(-3.0) - mlp
        d0 = mu_at(0.0) - mlp
        g3 = 1.0 / (1.0 + np.exp(3.0))
        assert_allclose(g3, 0.04742587317756678, rtol=1e-12)
        assert_allclose(d3, (g3 / 0.5) * d0, rtol=1e-9, atol=1e-15)


def same_bits(a, b):
    """Whether two nested lists / dicts of arrays hold the same bytes."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))


class TestFusedGatedBlock:
    @settings(max_examples=40, deadline=None)
    @given(
        spatial=st.sampled_from(["voxelwise", "gated-residual"]),
        scope=st.sampled_from(["scalar", "voxelwise"]),
        cov=st.sampled_from(["diagonal", "full"]),
        n_blocks=st.integers(1, 2),
        batch=st.integers(1, 3),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    @example(spatial="gated-residual", scope="scalar", cov="diagonal", n_blocks=2, batch=1, h=1, w=1, seed=0)
    @example(spatial="gated-residual", scope="voxelwise", cov="full", n_blocks=2, batch=2, h=2, w=1, seed=1)
    @example(spatial="gated-residual", scope="scalar", cov="full", n_blocks=1, batch=3, h=1, w=2, seed=2)
    @example(spatial="voxelwise", scope="scalar", cov="full", n_blocks=2, batch=2, h=3, w=2, seed=3)
    def test_matches_the_composed_oracle(self, spatial, scope, cov, n_blocks, batch, h, w, seed):
        # values, every weight gradient and, for a block on a tape input, the
        # input gradient, to 1e-12 of each tensor's largest entry, with
        # random non-zero gate weights
        rng = np.random.default_rng(seed)
        base = NetworkConfig(n_blocks=n_blocks, width=7, covariance_mode=cov,
                             gate_offset=float(rng.uniform(-3.0, 1.0)), gate_scope=scope)
        net = init_weights(base, N_T, rng)
        if spatial == "gated-residual":
            net = extend_weights(net, rng)
            for b in range(n_blocks):
                gate_w = net.tensors[f"block{b}.gate.w"].data
                gate_w[:] = rng.normal(0.0, 0.3, gate_w.shape)
                net.tensors[f"block{b}.gate.b"].data[:] = rng.normal(0.0, 0.5, 1)
        x = rng.normal(-0.1, 0.05, (batch, h, w, N_T))
        cotangents = [rng.normal(size=(batch, h, w, n)) for n in (2, base.n_cov_params, N_T)]

        def run(forward):
            ad.zero_grads(net.tensors.values())
            outs = forward(x)
            loss = sum(ad.tsum(o * c) for o, c in zip(outs, cotangents))
            ad.backward(loss)
            grads = {k: t.grad.copy() for k, t in net.tensors.items()}
            return [o.data for o in outs], grads

        def pred_tuple(x):
            pred = encoder_forward(net, x)
            return pred.mu_l, pred.sigma_l_params, pred.log_sigma_im

        with usable_cpus(1):
            fused = run(pred_tuple)
        with usable_cpus(2):
            assert same_bits(run(pred_tuple), fused)
        oracle = run(lambda x: composed_encoder_forward(net, ad.Tensor(x)))

        def close(a, b, what):
            assert a.shape == b.shape, what
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), what

        for k, (a, b) in enumerate(zip(fused[0], oracle[0])):
            close(a, b, f"output {k}")
        for name, g in oracle[1].items():
            close(fused[1][name], g, name)

        # the encoder's input is a constant; a block on a tape input returns its gradient
        h_in = INPUT_GAIN * x
        block_cot = rng.normal(size=(batch, h, w, base.width))

        def input_gradient(block):
            h_t = ad.Tensor(h_in)
            ad.backward(ad.tsum(block(h_t, net.tensors, 0, net.config) * block_cot))
            return h_t.grad

        with usable_cpus(1):
            serial = input_gradient(_block)
        with usable_cpus(2):
            assert serial.tobytes() == input_gradient(_block).tobytes()
        close(serial, input_gradient(composed_block), "input gradient")

    def test_one_tape_node_per_block_and_no_neighbourhood_arrays(self, monkeypatch):
        # the loss of a fine-tune step records each gated block as one node,
        # and nothing on its tape holds a 9C-channel or zero-padded array
        proto, const = AcquisitionProtocol(), PhysioConstants()
        fwd = ForwardModelConfig()
        width, crop = 8, 6
        mask = np.ones((9, 10, 2), bool)
        mask[0, :4, 1] = False
        raw = make_phantom(mask.shape, (0.4, 0.025), proto, const, fwd, 60.0,
                           np.random.default_rng(3), mask)
        vol, _ = normalize_volume(raw, proto)
        theta = init_weights(NetworkConfig(width=width), proto.n_t, np.random.default_rng(4))
        gated = NetworkConfig(width=width, spatial_mode="gated-residual")
        cfg = TrainingConfig.finetune_defaults(iterations=1, batch_size=2, crop_xy=crop,
                                               n_samples_elbo=2)
        seen = []

        def grab(weights, loss):
            seen.append((weights, loss))
            return collect_gradients(weights, loss)

        monkeypatch.setattr(train, "collect_gradients", grab)
        train.run_finetuning(theta, gated, cfg, [vol], proto, const, fwd)
        (psi, loss), = seen

        nodes = tape_nodes(loss)
        for b in range(gated.n_blocks):
            params = [psi.tensors[f"block{b}.{n}"] for n in ("w", "b", "conv.w", "gate.w", "gate.b")]
            users = [n for n in nodes if any(p is params[2] for p in n._parents)]
            assert len(users) == 1
            # the first block's input is the constant encoder input, not a parent
            assert len(users[0]._parents) == (5 if b == 0 else 6)
            assert all(p is q for p, q in zip(users[0]._parents[-5:], params, strict=True))
        wide = {9 * proto.n_t, 9 * width}
        padded = (crop + 2, crop + 2)
        for node in nodes:
            cells = node._vjp.__closure__ or () if node._vjp is not None else ()
            held = [node.data] + [c.cell_contents for c in cells]
            for a in held:
                if isinstance(a, np.ndarray) and a.ndim:
                    assert a.shape[-1] not in wide, a.shape
                    assert a.ndim < 3 or a.shape[1:3] != padded, a.shape


def term_sizes(net, b, h, cot):
    """Per element, the size of the terms summed into block b's output and
    into each gradient for cotangent cot: the same sums over absolute values,
    with every slope (logistic <= 1, its derivative <= 1/4) at its bound."""
    cfg, t = net.config, {k: np.abs(v.data) for k, v in net.tensors.items()}
    g = np.abs(cot)
    rows, g_rows = np.abs(h).reshape(-1, h.shape[-1]), g.reshape(-1, g.shape[-1])
    out = np.abs(h) @ t[f"block{b}.w"] + t[f"block{b}.b"]
    sizes = {"out": out + np.logaddexp(0.0, out), "dx": g @ t[f"block{b}.w"].T,
             "w": rows.T @ g_rows, "b": g_rows.sum(axis=0)}
    if cfg.spatial_mode == "voxelwise":
        return sizes
    h_abs = ad.Tensor(np.abs(h))
    neigh = _neighborhood(h_abs)
    conv = neigh.data @ t[f"block{b}.conv.w"]
    gate = neigh.data @ t[f"block{b}.gate.w"] + t[f"block{b}.gate.b"]
    d_gate = 0.25 * np.einsum("...f,...f->...", g, 2.0 * conv)[..., None]
    if cfg.gate_scope == "scalar":
        gate, d_gate = gate.mean(), np.full_like(d_gate, d_gate.mean())
    sizes["out"] = sizes["out"] + conv + 0.25 * 2.0 * conv * gate
    n_rows = neigh.data.reshape(-1, neigh.data.shape[-1])
    sizes["conv.w"] = n_rows.T @ g_rows
    sizes["gate.w"] = n_rows.T @ d_gate.reshape(-1, 1)
    sizes["gate.b"] = d_gate.sum(keepdims=True).reshape(1)
    # the neighbourhood's transpose, a sum of shifted copies, on the taps' terms
    ad.backward(ad.tsum(neigh * (g @ t[f"block{b}.conv.w"].T + d_gate * t[f"block{b}.gate.w"].T)))
    sizes["dx"] = sizes["dx"] + h_abs.grad
    return sizes


class TestNodesAgainstComposedOps:
    """The block and heads nodes against the generic tape ops they replace,
    within 1e-12 of the size of the terms summed into each element."""

    @settings(max_examples=30, deadline=None)
    @given(
        spatial=st.sampled_from(["voxelwise", "gated-residual"]),
        scope=st.sampled_from(["scalar", "voxelwise"]),
        cov=st.sampled_from(["diagonal", "full"]),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**31),
    )
    def test_block_and_heads(self, spatial, scope, cov, shape, seed):
        rng = np.random.default_rng(seed)
        cfg = NetworkConfig(width=7, covariance_mode=cov, gate_scope=scope,
                            gate_offset=float(rng.uniform(-3.0, 1.0)))
        net = init_weights(cfg, N_T, rng)
        if spatial == "gated-residual":
            net = extend_weights(net, rng)
            for b in range(cfg.n_blocks):
                for name in ("gate.w", "gate.b"):
                    a = net.tensors[f"block{b}.{name}"].data
                    a[:] = rng.normal(0.0, 0.5, a.shape)
        t = net.tensors

        def run(node, h, cot):
            ad.zero_grads(t.values())
            h_t = ad.Tensor(h)
            outs = node(h_t)
            outs = outs if isinstance(outs, tuple) else (outs,)
            ad.backward(sum(ad.tsum(o * c) for o, c in zip(outs, cot)))
            return [o.data for o in outs], h_t.grad, {k: v.grad for k, v in t.items() if v.grad is not None}

        def close(a, b, size, what):
            assert a.shape == b.shape, what
            assert np.all(np.abs(a - b) <= 1e-12 * size), what

        for b in range(cfg.n_blocks):
            h = rng.normal(0.0, 1.0, shape + (N_T if b == 0 else cfg.width,))
            cot = rng.normal(size=shape + (cfg.width,))
            with usable_cpus(1):
                fused = run(lambda h_t: _block(h_t, t, b, cfg), h, [cot])
            with usable_cpus(2):
                assert same_bits(run(lambda h_t: _block(h_t, t, b, cfg), h, [cot]), fused)
            oracle = run(lambda h_t: composed_block(h_t, t, b, cfg), h, [cot])
            sizes = term_sizes(net, b, h, cot)
            close(fused[0][0], oracle[0][0], sizes["out"], f"block {b} output")
            close(fused[1], oracle[1], sizes["dx"], f"block {b} input gradient")
            assert fused[2].keys() == oracle[2].keys()
            for name, g in oracle[2].items():
                close(fused[2][name], g, sizes[name.split(".", 1)[1]], name)

        h = rng.normal(0.0, 1.0, shape + (cfg.width,))
        cots = [rng.normal(size=shape + (n,)) for n in (2, cfg.n_cov_params, N_T)]
        pred = lambda h_t: (lambda p: (p.mu_l, p.sigma_l_params, p.log_sigma_im))(_heads(h_t, t))
        fused = run(pred, h, cots)
        oracle = run(lambda h_t: composed_heads(h_t, t), h, cots)
        h_abs, rows = np.abs(h), np.abs(h).reshape(-1, cfg.width)
        dx_size = 0.0
        for k, name in enumerate(("mu", "cov", "noise")):
            w, c = np.abs(t[f"{name}.w"].data), np.abs(cots[k])
            close(fused[0][k], oracle[0][k], h_abs @ w + np.abs(t[f"{name}.b"].data), name)
            close(fused[2][f"{name}.w"], oracle[2][f"{name}.w"], rows.T @ c.reshape(-1, c.shape[-1]), f"{name}.w")
            close(fused[2][f"{name}.b"], oracle[2][f"{name}.b"], c.reshape(-1, c.shape[-1]).sum(0), f"{name}.b")
            dx_size = dx_size + c @ w.T
        close(fused[1], oracle[1], dx_size, "heads input gradient")

    @pytest.mark.parametrize("cov", ["diagonal", "full"])
    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_pretraining_loss_records_one_node_per_layer(self, cov, n_blocks, monkeypatch):
        # a pretraining step's loss: one node per block, the heads node, the
        # head slices it reads and the loss node, on the weights as leaves
        rng = np.random.default_rng(2)
        y = np.column_stack([rng.uniform(0.2, 0.6, 40), rng.uniform(0.01, 0.1, 40)])
        ds = SynthDataset(rng.normal(-0.1, 0.05, (40, N_T)), y, np.full(40, 60.0))
        seen = []

        def grab(weights, loss):
            seen.append((weights, loss))
            return collect_gradients(weights, loss)

        monkeypatch.setattr(train, "collect_gradients", grab)
        cfg = NetworkConfig(n_blocks=n_blocks, width=8, covariance_mode=cov)
        train.run_pretraining(cfg, TrainingConfig.pretrain_defaults(iterations=1, batch_size=16), ds)
        (theta, loss), = seen
        nodes = tape_nodes(loss)
        leaves = [n for n in nodes if not n._parents]
        assert {id(n) for n in leaves} == {id(v) for v in theta.tensors.values()}
        inner = [n for n in nodes if n._parents]
        assert len(inner) == n_blocks + 4
        slices = loss._parents
        assert len(slices) == 2 and all(len(s._parents) == 1 for s in slices)
        (heads,) = {id(s._parents[0]): s._parents[0] for s in slices}.values()
        assert heads._parents[1:] == tuple(theta.tensors[f"{n}.{p}"] for n in ("mu", "cov", "noise")
                                           for p in ("w", "b"))
        h = heads._parents[0]
        for b in reversed(range(n_blocks)):
            params = (theta.tensors[f"block{b}.w"], theta.tensors[f"block{b}.b"])
            assert h._parents[-2:] == params
            h = h._parents[0] if b else None
        assert loss.data.shape == ()


class TestEncoderDtype:
    @pytest.mark.parametrize("spatial", ["voxelwise", "gated-residual"])
    def test_float64_weights_keep_every_node_float64(self, spatial, rng):
        net = small_net(spatial)
        x = ad.Tensor(rng.normal(-0.1, 0.05, (2, 4, 3, N_T)))
        pred = encoder_forward(net, x)
        outs = (pred.mu_l, pred.sigma_l_params, pred.log_sigma_im)
        assert all(n.data.dtype == np.float64 for n in tape_nodes(*outs))
        grad = collect_gradients(net, sum(ad.tsum(o) for o in outs))
        assert grad.dtype == np.float64

    @pytest.mark.parametrize("scope", ["scalar", "voxelwise"])
    def test_float32_weights_keep_blocks_and_gradients_float32(self, scope, rng):
        base = NetworkConfig(width=8, covariance_mode="full", gate_scope=scope)
        net = extend_weights(init_weights(base, N_T, rng), rng).astype(np.float32)
        for b in range(base.n_blocks):
            gate_w = net.tensors[f"block{b}.gate.w"].data
            gate_w[:] = rng.normal(0.0, 0.3, gate_w.shape)
        x = ad.Tensor(rng.normal(-0.1, 0.05, (2, 4, 3, N_T)))
        pred = encoder_forward(net, x)
        outs = (pred.mu_l, pred.sigma_l_params, pred.log_sigma_im)
        assert all(o.data.dtype == np.float64 for o in outs)
        nodes = tape_nodes(*outs)
        for b in range(base.n_blocks):
            conv_w = net.tensors[f"block{b}.conv.w"]
            (block,) = [n for n in nodes if any(p is conv_w for p in n._parents)]
            assert block.data.dtype == np.float32
        cotangents = [rng.normal(size=o.shape) for o in outs]
        grads = named_gradients(net, sum(ad.tsum(o * c) for o, c in zip(outs, cotangents)))
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
        # a block on a tape input returns the input's gradient in the input's dtype
        h = ad.Tensor((INPUT_GAIN * x.data).astype(np.float32))
        ad.backward(ad.tsum(_block(h, net.tensors, 0, net.config)))
        assert h.grad.dtype == np.float32 and np.abs(h.grad).max() > 0

    def test_astype_copies_in_the_new_dtype(self):
        net = small_net("gated-residual")
        low = net.astype(np.float32)
        assert low.dtype == np.float32 and net.dtype == np.float64
        for k, t in net.tensors.items():
            assert low.tensors[k].data.tobytes() == t.data.astype(np.float32).tobytes()
        low.tensors["mu.b"].data[:] = 0.0
        assert np.all(net.tensors["mu.b"].data != 0.0)


class TestPredictionToDistribution:
    def test_diagonal(self, rng):
        w = small_net()
        x = rng.normal(-0.1, 0.05, (6, N_T))
        pred = encoder_forward(w, ad.Tensor(x))
        dist = prediction_to_distribution(pred, "diagonal")
        assert np.array_equal(dist.mu, pred.mu_l.data)
        assert np.array_equal(dist.sigma_l_params, pred.sigma_l_params.data)
        assert dist.sigma_l_params.shape == (6, 2)

    def test_full(self, rng):
        w = small_net(cov="full")
        x = rng.normal(-0.1, 0.05, (6, N_T))
        pred = encoder_forward(w, ad.Tensor(x))
        dist = prediction_to_distribution(pred, "full")
        assert np.array_equal(dist.sigma_l_params, pred.sigma_l_params.data)
        assert dist.sigma_l_params.shape == (6, 3)

    def test_mode_must_match_the_covariance_head(self, rng):
        # a diagonal read-out of a full prediction would drop l10 silently
        x = rng.normal(-0.1, 0.05, (3, N_T))
        pred_full = encoder_forward(small_net(cov="full"), ad.Tensor(x))
        pred_diag = encoder_forward(small_net(), ad.Tensor(x))
        with pytest.raises(ValueError, match="covariance"):
            prediction_to_distribution(pred_full, "diagonal")
        with pytest.raises(ValueError, match="covariance"):
            prediction_to_distribution(pred_diag, "full")


class TestGradients:
    def test_zero_adjoint_gives_zero_gradients(self, rng):
        w = small_net()
        x = rng.normal(-0.1, 0.05, (4, N_T))
        pred = encoder_forward(w, ad.Tensor(x))
        total = ad.tsum(pred.mu_l) + ad.tsum(pred.sigma_l_params) + ad.tsum(pred.log_sigma_im)
        ad.backward(total * 0.0)
        for name, t in w.tensors.items():
            assert np.all(t.grad == 0.0), name

    def test_each_call_returns_its_own_gradient(self, rng):
        # a second loss over the same weights must not add in the gradient
        # the first backward left on them
        w = small_net()
        x = rng.normal(-0.1, 0.05, (4, N_T))
        first = named_gradients(w, ad.tsum(encoder_forward(w, ad.Tensor(x)).mu_l))
        second = named_gradients(w, ad.tsum(encoder_forward(w, ad.Tensor(x)).log_sigma_im))
        fresh = w.astype(np.float64)
        ref = named_gradients(fresh, ad.tsum(encoder_forward(fresh, ad.Tensor(x)).log_sigma_im))
        assert np.all(first["mu.b"] == len(x))  # one per row of the summed mu_l
        for name in w.tensors:
            assert np.array_equal(second[name], ref[name]), name

    def test_nonfinite_gradient_names_tensor(self, rng):
        w = small_net()
        loss = ad.tsum(w.tensors["mu.b"]) * np.inf
        with pytest.raises(FloatingPointError, match="mu.b"):
            collect_gradients(w, loss)

    def test_pretrain_loss_fd_gradients(self, rng):
        # central differences at 50 random coordinates, relative error < 1e-4
        w = small_net(width=6, n_blocks=2, seed=2)
        x = rng.normal(-0.1, 0.05, (16, N_T))
        truths = np.column_stack([
            rng.uniform(0.2, 0.6, 16), rng.uniform(0.01, 0.1, 16)
        ])

        def loss_value():
            pred = encoder_forward(w, ad.Tensor(x))
            return pretrain_loss(pred, truths)

        loss = loss_value()
        ad.zero_grads(w.tensors.values())
        grads = named_gradients(w, loss_value())
        names = list(w.tensors)
        checked = 0
        h = 1e-5
        worst = 0.0
        while checked < 50:
            name = names[rng.integers(len(names))]
            t = w.tensors[name]
            idx = tuple(rng.integers(s) for s in t.data.shape)
            orig = t.data[idx]
            step = h * max(1.0, abs(orig))
            t.data[idx] = orig + step
            up = loss_value().data
            t.data[idx] = orig - step
            dn = loss_value().data
            t.data[idx] = orig
            fd = (up - dn) / (2 * step)
            g = grads[name][idx]
            rel = abs(fd - g) / max(abs(fd), abs(g), 1e-8)
            worst = max(worst, rel)
            checked += 1
        assert worst < 1e-4


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        w = small_net().flatten(np.float64)
        before = w.copy()
        state = AdamWState.for_weights(w)
        adamw_step(w, state, np.zeros_like(w), 0.1, 0.0)
        assert np.array_equal(w, before)

    def test_first_step_closed_form(self):
        # g=1, lr=0.1: bias correction makes the very first step exactly -lr/(1+eps)
        w = np.array([2.0])
        state = AdamWState.for_weights(w)
        adamw_step(w, state, np.array([1.0]), lr=0.1, weight_decay=0.0)
        assert_allclose(w[0], 2.0 - 0.1 / (1.0 + 1e-8), rtol=1e-12)

    def test_decay_only_decouples(self):
        w = np.array([3.0])
        state = AdamWState.for_weights(w)
        adamw_step(w, state, np.zeros(1), lr=0.01, weight_decay=0.5)
        assert_allclose(w[0], 3.0 * (1.0 - 0.01 * 0.5), rtol=1e-12)

    def test_step_counter_shared(self):
        w = small_net().flatten(np.float64)
        state = AdamWState.for_weights(w)
        adamw_step(w, state, np.zeros_like(w), 0.1, 0.0)
        adamw_step(w, state, np.zeros_like(w), 0.1, 0.0)
        assert state.step == 2

    def test_flat_vector_matches_the_per_tensor_formula(self):
        # several AdamW steps with weight decay and a running SWA mean on one
        # flat vector give the per-tensor update of every tensor bit for bit
        net = small_net("gated-residual", cov="full")
        rng = np.random.default_rng(5)
        ref = {k: t.data.copy() for k, t in net.tensors.items()}
        m = {k: np.zeros_like(a) for k, a in ref.items()}
        v = {k: np.zeros_like(a) for k, a in ref.items()}
        avg_ref = {k: np.zeros_like(a) for k, a in ref.items()}
        flat = net.flatten(np.float64)
        state = AdamWState.for_weights(flat)
        avg = np.zeros_like(flat)
        for step in range(1, 7):
            grads = {k: rng.normal(0.0, 10.0 ** rng.integers(-4, 2), a.shape) for k, a in ref.items()}
            lr, wd = lr_schedule(step - 1, 6, 5e-3), lr_schedule(step - 1, 6, 2e-4)
            bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for k, g in grads.items():
                m[k] += (1.0 - 0.9) * (g - m[k])
                v[k] += (1.0 - 0.999) * (g * g - v[k])
                ref[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8) + lr * wd * ref[k]
                avg_ref[k] += (ref[k] - avg_ref[k]) / step
            adamw_step(flat, state, np.concatenate([g.ravel() for g in grads.values()]), lr, wd)
            swa_update(avg, flat, step)
        for k, t in net.on_flat(flat).tensors.items():
            assert t.data.tobytes() == ref[k].tobytes(), k
        for k, t in net.on_flat(avg).tensors.items():
            assert t.data.tobytes() == avg_ref[k].tobytes(), k


class TestFlatWeights:
    def test_on_flat_views_the_vector(self):
        net = small_net("gated-residual")
        flat = net.flatten(np.float64)
        assert flat.dtype == np.float64 and flat.size == net.n_parameters()
        view = net.on_flat(flat)
        for k, t in view.tensors.items():
            assert t.data.shape == net.tensors[k].data.shape
            assert np.array_equal(t.data, net.tensors[k].data), k
            assert np.shares_memory(t.data, flat), k
        flat[:] = 0.0
        assert all(np.all(t.data == 0.0) for t in view.tensors.values())
        assert np.all(net.tensors["mu.b"].data != 0.0)


class TestSWA:
    def test_k1_copies(self):
        w = small_net().flatten(np.float64)
        avg = np.zeros_like(w)
        swa_update(avg, w, 1)
        assert_allclose(avg, w)

    def test_stream_mean(self):
        avg = np.zeros(1)
        swa_update(avg, np.array([0.0]), 1)
        swa_update(avg, np.array([2.0]), 2)
        assert_allclose(avg, [1.0])

    def test_constant_stream(self):
        avg = np.array([5.0])
        for k in range(1, 6):
            swa_update(avg, np.array([5.0]), k)
        assert_allclose(avg, [5.0])

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k"):
            swa_update(np.zeros(1), small_net().flatten(np.float64), 0)


class TestLrSchedule:
    def test_endpoints_and_midpoint(self):
        assert lr_schedule(0, 100, 2e-3) == 2e-3
        assert_allclose(lr_schedule(100, 100, 2e-3), 2e-5, rtol=1e-12)
        assert_allclose(lr_schedule(50, 100, 2e-3), 2e-3 * (1 + 0.01) / 2, rtol=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="step"):
            lr_schedule(-1, 100, 1e-3)
        with pytest.raises(ValueError, match="step"):
            lr_schedule(101, 100, 1e-3)


class TestCheckpoint:
    def test_round_trip_voxelwise(self, tmp_path):
        w = small_net(seed=4)
        path = tmp_path / "w.ckpt"
        save_checkpoint(w, path)
        back = load_checkpoint(path)
        assert back.config == w.config
        assert back.n_t == w.n_t
        assert set(back.tensors) == set(w.tensors)
        for k, t in w.tensors.items():
            assert_allclose(back.tensors[k].data, t.data.astype(np.float32), rtol=0, atol=0)

    def test_round_trip_gated_full(self, tmp_path):
        w = small_net("gated-residual", cov="full", seed=8)
        path = tmp_path / "w.ckpt"
        save_checkpoint(w, path)
        back = load_checkpoint(path)
        assert back.config == w.config
        assert "block1.conv.w" in back.tensors

    def test_error_truncated_header(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"OXIN")
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_error_bad_magic(self, tmp_path):
        w = small_net()
        path = tmp_path / "w.ckpt"
        save_checkpoint(w, path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTANNET"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_error_bad_version(self, tmp_path):
        w = small_net()
        path = tmp_path / "w.ckpt"
        save_checkpoint(w, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_error_truncated_tensor_data(self, tmp_path):
        w = small_net()
        path = tmp_path / "w.ckpt"
        save_checkpoint(w, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 6])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_error_repeated_tensor(self, tmp_path):
        w = small_net()
        path = tmp_path / "w.ckpt"
        save_checkpoint(w, path)
        raw = bytearray(path.read_bytes())
        count = _CKPT_HEAD.size - 4  # the u32 tensor count ends the header
        raw[count:] = (len(w.tensors) + 1).to_bytes(4, "little") + raw[count + 4 :]
        b = w.tensors["mu.b"].data
        raw += struct.pack("<H", 4) + b"mu.b" + struct.pack("<BI", 1, b.size) + b.astype("<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="repeats tensor 'mu.b'"):
            load_checkpoint(path)

    def test_error_bytes_after_the_table(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(small_net(), path)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(CheckpointFormatError, match="16 bytes after"):
            load_checkpoint(path)

    def test_error_name_not_utf8(self, tmp_path):
        w = small_net()
        path = tmp_path / "w.ckpt"
        save_checkpoint(w, path)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"block0.w")] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="not valid UTF-8"):
            load_checkpoint(path)

    def test_error_invalid_config_code(self, tmp_path):
        w = small_net()
        path = tmp_path / "w.ckpt"
        save_checkpoint(w, path)
        raw = bytearray(path.read_bytes())
        raw[20] = 7  # spatial_mode code byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="config"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("mu.w", None, "lacks tensor 'mu.w'"),
            ("mu.b", np.zeros(3), r"'mu.b' has shape \(3,\), expected \(2,\)"),
            ("block1.conv.w", np.zeros((99, 8)), r"'block1.conv.w' has shape \(99, 8\), expected \(72, 8\)"),
            ("cov.w", np.zeros((8, 3)), r"'cov.w' has shape \(8, 3\), expected \(8, 2\)"),
            ("extra.w", np.zeros(1), "'extra.w' is not in the network"),
        ],
    )
    def test_error_layout_differs_from_config(self, tmp_path, name, value, message):
        w = small_net("gated-residual")
        if value is None:
            del w.tensors[name]
        else:
            w.tensors[name] = ad.Tensor(value)
        path = tmp_path / "w.ckpt"
        save_checkpoint(w, path)
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(path)

    def test_magic_value(self):
        assert CHECKPOINT_MAGIC == b"OXINNET1"
