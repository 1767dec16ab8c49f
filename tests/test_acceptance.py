"""End-to-end acceptance gates.

Each test covers one numbered criterion: quadrature convergence, distribution
correctness, gradient fidelity, synthetic parameter recovery against a
grid-search oracle, forward-model and covariance-family comparisons, the
smoothness sweep, the least-squares baseline contrast, artifact detection,
and full-pipeline determinism.  Every test prints a single PASS/FAIL line
with its measured margins.

Shared fixtures (phantom volumes, pretrained and fine-tuned networks) are
built lazily and memoized so each criterion pays only for what it is first
to touch; all seeds are frozen so every number below is reproducible.
"""

import dataclasses
import time

import numpy as np
import pytest
import yaml
from conftest import chol_params, named_gradients

from oximap import autodiff as ad
from oximap.analysis import InferenceConfig, elbo_map, infer_maps, wls_fit
from oximap.cli import cli_dispatch
from oximap.distributions import (
    ScaledLogitNormal,
    forward_transform,
    kl_analytic,
    kl_monte_carlo,
)
from oximap.nifti import write_nifti
from oximap.nnet import (
    NetworkConfig,
    encoder_forward,
    extend_weights,
    init_weights,
    prediction_to_distribution,
)
from oximap.physics import (
    AcquisitionProtocol,
    ForwardModelConfig,
    PhysioConstants,
    delta_omega,
    normalized_model_signal,
    static_dephasing_integral,
)
from oximap.synthgen import (
    PRIOR_PRESETS,
    NoiseProfile,
    ParamPriorConfig,
    PriorSpec,
    generate_dataset,
    make_phantom,
)
from oximap.train import (
    MetricsLog,
    TrainingConfig,
    compute_prior_maps,
    elbo_loss,
    pretrain_loss,
    run_finetuning,
    run_pretraining,
    tv_loss,
)
from oximap.volume import Volume4D, normalize_volume

PROTO = AcquisitionProtocol()
CONST = PhysioConstants()
FULL2 = ForwardModelConfig()
ASYM1 = ForwardModelConfig(variant="asymptotic", compartments=1)

WIDTH = 32
GRID = (24, 24, 2)
TRUTH_A = (0.40, 0.025)  # mid-range ground truth, phantoms A/B at SNR 60
SNR_A = 60.0
TRUTH_C = (0.55, 0.15)  # high-blood-volume ground truth, phantoms C/D at SNR 150
SNR_C = 150.0

# held-out OEF/DBV box used for the recovery criterion ("mid-range": both
# parameters bounded away from the unidentifiable low-DBV corner)
MID_RANGE = ParamPriorConfig(
    oef=PriorSpec("uniform", low=0.30, high=0.50),
    dbv=PriorSpec("uniform", low=0.015, high=0.05),
)

_CACHE: dict[str, object] = {}


def _shared(name):
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]


def _make_vol(truth, snr, seed):
    ph = make_phantom(GRID, truth, PROTO, CONST, FULL2, snr, np.random.default_rng(seed))
    vol, _ = normalize_volume(ph, PROTO)
    return vol


def _pretrain(priors, fwd, cov="diagonal"):
    ds = generate_dataset(16000, priors, PROTO, CONST, fwd, NoiseProfile(), np.random.default_rng(300))
    return run_pretraining(
        NetworkConfig(n_blocks=2, width=WIDTH, covariance_mode=cov),
        TrainingConfig.pretrain_defaults(iterations=1400, batch_size=512, seed=11),
        ds,
    )


def _finetune(theta, vol, fwd, iterations, tv_lambda, cov="diagonal", lr=None):
    gated = NetworkConfig(
        n_blocks=2, width=WIDTH, spatial_mode="gated-residual", covariance_mode=cov
    )
    cfg = TrainingConfig.finetune_defaults(
        iterations=iterations,
        batch_size=6,
        crop_xy=12,
        n_samples_elbo=2,
        tv_lambda=tv_lambda,
        seed=21,
    )
    if lr is not None:
        cfg = dataclasses.replace(cfg, lr=lr)
    return run_finetuning(theta, gated, cfg, [vol], PROTO, CONST, fwd)


_BUILDERS = {
    "volA": lambda: _make_vol(TRUTH_A, SNR_A, 777),
    "volB": lambda: _make_vol(TRUTH_A, SNR_A, 778),
    "volC": lambda: _make_vol(TRUTH_C, SNR_C, 779),
    "volD": lambda: _make_vol(TRUTH_C, SNR_C, 780),
    "theta_N": lambda: _pretrain(PRIOR_PRESETS["normal"], FULL2),
    "theta_U": lambda: _pretrain(PRIOR_PRESETS["uniform"], FULL2),
    "theta_uA": lambda: _pretrain(PRIOR_PRESETS["uniform"], ASYM1),
    "theta_uF": lambda: _pretrain(PRIOR_PRESETS["uniform"], FULL2, cov="full"),
    "theta_mid": lambda: _pretrain(MID_RANGE, FULL2),
    # mid-range phantom runs: the lambda sweep plus the wide-prior counterpart
    "psi_lam0": lambda: _finetune(_shared("theta_N"), _shared("volA"), FULL2, 150, 0.0),
    "psi_lam1": lambda: _finetune(_shared("theta_N"), _shared("volA"), FULL2, 150, 1.0),
    "psi_lam5": lambda: _finetune(_shared("theta_N"), _shared("volA"), FULL2, 150, 5.0),
    "psi_U": lambda: _finetune(_shared("theta_U"), _shared("volA"), FULL2, 150, 5.0),
    # high-blood-volume phantom runs: model comparison needs the longer budget
    # to close the amortization gap. The covariance comparison trains both
    # families at lr 2e-3, the step size its recorded margins were taken at,
    # so they stay comparable; at the default 5e-3 both families also train
    # and full covariance wins by more (5.28 nats against 2.07)
    "psi_full": lambda: _finetune(_shared("theta_U"), _shared("volC"), FULL2, 400, 0.0),
    "psi_asym": lambda: _finetune(_shared("theta_uA"), _shared("volC"), ASYM1, 400, 0.0),
    "psi_fc": lambda: _finetune(
        _shared("theta_uF"), _shared("volC"), FULL2, 150, 5.0, cov="full", lr=2e-3
    ),
    "psi_diag": lambda: _finetune(_shared("theta_U"), _shared("volC"), FULL2, 150, 5.0, lr=2e-3),
}


def _point_maps(psi, vol):
    """Posterior-center OEF and DBV maps of a network on a normalized volume."""
    x4 = np.moveaxis(vol.data, 2, 0)
    mu = prediction_to_distribution(
        encoder_forward(psi, ad.Tensor(x4)), psi.config.covariance_mode
    ).mu
    pt = forward_transform(mu)
    return np.moveaxis(pt[..., 0], 0, 2), np.moveaxis(pt[..., 1], 0, 2)


def _elbo_mean(psi, vol, theta, fwd):
    """Masked mean of the held-out voxelwise ELBO map under theta's priors."""
    priors = compute_prior_maps(theta, vol)
    m = elbo_map(psi, vol, priors, PROTO, CONST, fwd, np.random.default_rng(55), 16)
    return float(np.nanmean(m[vol.mask]))


def _conclude(num, name, ok, detail):
    line = "criterion %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


def test_01_quadrature_convergence():
    t0 = time.perf_counter()
    worst = 0.0
    for oef in np.linspace(0.1, 0.7, 5):
        dw = delta_omega(np.array([oef]), CONST, PROTO.b0)[0]
        for dbv in np.linspace(0.005, 0.2, 5):
            for tau in PROTO.tau:
                a = static_dephasing_integral(np.array([dw]), np.array([tau]), 64)[0]
                b = static_dephasing_integral(np.array([dw]), np.array([tau]), 256)[0]
                if tau == 0.0:
                    assert a == 0.0 and b == 0.0
                else:
                    worst = max(worst, abs(a - b) / abs(b))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 1.0
    _conclude(1, "quadrature-convergence", ok, "max rel %.2e, %.2fs" % (worst, elapsed))


def test_02_distribution_correctness():
    t0 = time.perf_counter()
    # density normalization over the parameter box, including correlated cases
    box_rng = np.random.default_rng(1000)
    from oximap.distributions import PARAM_OFFSET, PARAM_SCALE

    n = 400
    e0 = (np.arange(n) + 0.5) / n * PARAM_SCALE[0] + PARAM_OFFSET[0]
    e1 = (np.arange(n) + 0.5) / n * PARAM_SCALE[1] + PARAM_OFFSET[1]
    g0, g1 = np.meshgrid(e0, e1, indexing="ij")
    ygrid = np.stack([g0, g1], axis=-1)
    cell = (PARAM_SCALE[0] / n) * (PARAM_SCALE[1] / n)
    worst_mass = 0.0
    for _ in range(10):
        mu = box_rng.uniform(-1.2, 1.2, 2)
        chol = np.diag(box_rng.uniform(0.4, 1.0, 2))
        chol[1, 0] = box_rng.uniform(-0.3, 0.3)
        d = ScaledLogitNormal(mu, chol_params(chol))
        mass = float((np.exp(d.log_prob(ygrid)) * cell).sum())
        worst_mass = max(worst_mass, abs(mass - 1.0))

    # sampled KL against the analytic value for 100 well-separated pairs
    pair_rng = np.random.default_rng(2024)
    worst_kl = 0.0
    for k in range(100):
        mu_q = pair_rng.uniform(-1.2, 1.2, 2)
        mu_p = mu_q + pair_rng.uniform(0.7, 1.5, 2) * pair_rng.choice([-1.0, 1.0], 2)
        cq = np.diag(pair_rng.uniform(0.4, 1.0, 2))
        cq[1, 0] = pair_rng.uniform(-0.3, 0.3)
        cp = np.diag(pair_rng.uniform(0.4, 1.0, 2))
        cp[1, 0] = pair_rng.uniform(-0.3, 0.3)
        q = ScaledLogitNormal(mu_q, chol_params(cq))
        p = ScaledLogitNormal(mu_p, chol_params(cp))
        ka = kl_analytic(q, p)
        km = kl_monte_carlo(q, p, np.random.default_rng(5000 + k), 100_000)
        worst_kl = max(worst_kl, abs(km - ka) / ka)
    elapsed = time.perf_counter() - t0
    ok = worst_mass < 1e-3 and worst_kl < 0.01 and elapsed < 30.0
    _conclude(
        2,
        "distribution-correctness",
        ok,
        "max |mass-1| %.2e, max KL rel %.4f, %.1fs" % (worst_mass, worst_kl, elapsed),
    )


def _fd_worst(weights, loss_fn, coords, rng):
    grads = named_gradients(weights, loss_fn())
    names = list(weights.tensors)
    worst = 0.0
    for _ in range(coords):
        nm = names[rng.integers(len(names))]
        t = weights.tensors[nm]
        idx = tuple(rng.integers(s) for s in t.data.shape)
        orig = t.data[idx]
        h = 1e-5 * max(1.0, abs(orig))
        t.data[idx] = orig + h
        up = float(loss_fn().data)
        t.data[idx] = orig - h
        dn = float(loss_fn().data)
        t.data[idx] = orig
        fd = (up - dn) / (2 * h)
        g = grads[nm][idx]
        worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    return worst


def test_03_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)

    net = init_weights(NetworkConfig(n_blocks=1, width=8), PROTO.n_t, np.random.default_rng(2))
    ds = generate_dataset(
        64, PRIOR_PRESETS["normal"], PROTO, CONST, FULL2, NoiseProfile(), np.random.default_rng(9)
    )
    worst_pre = _fd_worst(
        net,
        lambda: pretrain_loss(encoder_forward(net, ad.Tensor(ds.signals)), ds.truths),
        60,
        rng,
    )

    ph = make_phantom((8, 8, 2), (0.4, 0.03), PROTO, CONST, FULL2, 80.0, np.random.default_rng(41))
    vol, _ = normalize_volume(ph, PROTO)
    theta = run_pretraining(
        NetworkConfig(n_blocks=1, width=8),
        TrainingConfig.pretrain_defaults(iterations=60, batch_size=64, seed=4),
        generate_dataset(
            2000,
            PRIOR_PRESETS["normal"],
            PROTO,
            CONST,
            FULL2,
            NoiseProfile(),
            np.random.default_rng(30),
        ),
    )
    priors = compute_prior_maps(theta, vol)
    psi = extend_weights(theta, np.random.default_rng(6))
    cfg = TrainingConfig.finetune_defaults(n_samples_elbo=2)
    # common random numbers: the Monte-Carlo ELBO is re-evaluated with the
    # same draws on both sides of each finite-difference step
    worst_elbo = _fd_worst(
        psi,
        lambda: elbo_loss(psi, vol, priors, PROTO, CONST, FULL2, cfg, np.random.default_rng(123)),
        60,
        rng,
    )
    elapsed = time.perf_counter() - t0
    ok = worst_pre < 1e-4 and worst_elbo < 1e-3 and elapsed < 120.0
    _conclude(
        3,
        "gradient-suite",
        ok,
        "pretrain FD %.2e, ELBO FD %.2e, %.1fs" % (worst_pre, worst_elbo, elapsed),
    )


def test_04_synthetic_recovery():
    t0 = time.perf_counter()
    theta = _shared("theta_mid")
    ds = generate_dataset(
        500, MID_RANGE, PROTO, CONST, FULL2, NoiseProfile(), np.random.default_rng(4000)
    )

    pred = prediction_to_distribution(encoder_forward(theta, ad.Tensor(ds.signals)), "diagonal")
    est = forward_transform(pred.mu)
    mae_oef = float(np.abs(est[:, 0] - ds.truths[:, 0]).mean())
    mae_dbv = float(np.abs(est[:, 1] - ds.truths[:, 1]).mean())

    # grid-search oracle: exact row likelihood on a dense parameter grid.
    # In normalized log-ratio space the additive raw-space noise becomes a
    # per-channel variance exp(-2 s_t)/snr^2 plus a rank-one common term
    # 1/snr^2 shared by every non-spin-echo channel, inverted in closed form.
    og = np.linspace(MID_RANGE.oef.low, MID_RANGE.oef.high, 140)
    dg = np.linspace(MID_RANGE.dbv.low, MID_RANGE.dbv.high, 140)
    OG, DG = np.meshgrid(og, dg, indexing="ij")
    sig = normalized_model_signal(OG.ravel(), DG.ravel(), PROTO, CONST, FULL2)
    keep = np.arange(PROTO.n_t) != PROTO.se_index
    sig = sig[:, keep]
    IE = np.exp(2.0 * sig)  # 1 / exp(-2 s_t)
    denom = 1.0 + IE.sum(axis=1)
    base = -2.0 * sig.sum(axis=1) + np.log(denom)  # grid-dependent log-det part
    oracle = np.empty_like(ds.truths)
    for i in range(ds.signals.shape[0]):
        r = ds.signals[i, keep] - sig
        s2 = ds.snrs[i] ** 2
        q = s2 * ((r * r * IE).sum(axis=1) - (r * IE).sum(axis=1) ** 2 / denom)
        ll = -0.5 * (q + base)
        w = np.exp(ll - ll.max())
        w /= w.sum()
        w2 = w.reshape(140, 140)
        wo = w2.sum(axis=1)
        wd = w2.sum(axis=0)
        oracle[i, 0] = og[np.searchsorted(np.cumsum(wo), 0.5)]
        oracle[i, 1] = dg[np.searchsorted(np.cumsum(wd), 0.5)]
    mae_oef_or = float(np.abs(oracle[:, 0] - ds.truths[:, 0]).mean())
    mae_dbv_or = float(np.abs(oracle[:, 1] - ds.truths[:, 1]).mean())

    elapsed = time.perf_counter() - t0
    ok = (
        mae_oef < 0.05
        and mae_dbv < 0.01
        and mae_oef_or < 0.05  # the oracle confirms the tolerances are attainable
        and mae_dbv_or < 0.01
        and elapsed < 300.0
    )
    _conclude(
        4,
        "synthetic-recovery",
        ok,
        "net MAE oef %.4f dbv %.4f; oracle %.4f/%.4f; %.1fs"
        % (mae_oef, mae_dbv, mae_oef_or, mae_dbv_or, elapsed),
    )


def test_05_forward_model_comparison():
    t0 = time.perf_counter()
    volD = _shared("volD")
    e_full = _elbo_mean(_shared("psi_full"), volD, _shared("theta_U"), FULL2)
    e_asym = _elbo_mean(_shared("psi_asym"), volD, _shared("theta_uA"), ASYM1)
    elapsed = time.perf_counter() - t0
    ok = e_full - e_asym > 0.0 and elapsed < 600.0
    _conclude(
        5,
        "forward-model-comparison",
        ok,
        "held-out ELBO full %.3f vs asym %.3f, diff %+.3f, %.1fs"
        % (e_full, e_asym, e_full - e_asym, elapsed),
    )


def test_06_training_distribution_effect():
    oef_n, dbv_n = _point_maps(_shared("psi_lam5"), _shared("volA"))
    oef_u, dbv_u = _point_maps(_shared("psi_U"), _shared("volA"))
    mean_n = float(oef_n.mean())
    mean_u = float(oef_u.mean())
    r2p_n = float((dbv_n * delta_omega(oef_n, CONST, PROTO.b0)).mean())
    r2p_u = float((dbv_u * delta_omega(oef_u, CONST, PROTO.b0)).mean())
    rel = abs(r2p_n - r2p_u) / r2p_n
    ok = mean_u < mean_n and rel <= 0.10
    _conclude(
        6,
        "training-distribution-effect",
        ok,
        "mean OEF wide %.4f < narrow %.4f; R2' rel gap %.4f" % (mean_u, mean_n, rel),
    )


def test_07_smoothness_sweep():
    volA = _shared("volA")
    tvs = []
    for name in ("psi_lam0", "psi_lam1", "psi_lam5"):
        oef, _ = _point_maps(_shared(name), volA)
        tvs.append(tv_loss(oef, volA.mask))
    monotone = tvs[0] >= tvs[1] >= tvs[2]

    volB = _shared("volB")
    priors = compute_prior_maps(_shared("theta_N"), volB)
    ecfg = TrainingConfig.finetune_defaults(n_samples_elbo=16)
    ne0 = float(
        elbo_loss(_shared("psi_lam0"), volB, priors, PROTO, CONST, FULL2, ecfg, np.random.default_rng(99)).data
    )
    ne5 = float(
        elbo_loss(_shared("psi_lam5"), volB, priors, PROTO, CONST, FULL2, ecfg, np.random.default_rng(99)).data
    )
    excess = (ne5 - ne0) / abs(ne0)
    ok = monotone and excess < 0.05
    _conclude(
        7,
        "smoothness-sweep",
        ok,
        "TV %.4f >= %.4f >= %.4f; held-out negative-ELBO excess %.4f" % (*tvs, excess),
    )


def test_08_posterior_covariance_choice():
    volD = _shared("volD")
    e_fc = _elbo_mean(_shared("psi_fc"), volD, _shared("theta_uF"), FULL2)
    e_diag = _elbo_mean(_shared("psi_diag"), volD, _shared("theta_U"), FULL2)
    ok = e_fc >= e_diag
    _conclude(
        8,
        "posterior-covariance-choice",
        ok,
        "held-out ELBO full-cov %.3f vs diagonal %.3f" % (e_fc, e_diag),
    )


def test_09_least_squares_contrast():
    volA = _shared("volA")
    fit = wls_fit(volA, PROTO, CONST)
    w_oef = fit.oef_point[volA.mask]
    w_oef = w_oef[np.isfinite(w_oef)]
    oef_vi, _ = _point_maps(_shared("psi_lam5"), volA)
    vi = oef_vi[volA.mask]
    ok = (
        w_oef.mean() < vi.mean()
        and w_oef.std() > vi.std()
        and abs(vi.mean() - TRUTH_A[0]) < 0.07
    )
    _conclude(
        9,
        "least-squares-contrast",
        ok,
        "WLS mean %.4f std %.4f; VI+TV mean %.4f std %.4f; |VI-truth| %.4f"
        % (w_oef.mean(), w_oef.std(), vi.mean(), vi.std(), abs(vi.mean() - TRUTH_A[0])),
    )


def test_10_artifact_detection():
    volA = _shared("volA")
    art = np.zeros(volA.grid_shape, dtype=bool)
    art[4:8, 4:8, 0] = True
    data = volA.data.copy()
    data[art] += np.random.default_rng(3).normal(0.0, 0.3, (int(art.sum()), PROTO.n_t))
    noisy = Volume4D(data, volA.mask)
    maps = infer_maps(
        _shared("theta_N"),
        noisy,
        InferenceConfig(forward=FULL2, n_elbo_samples=16, seed=5),
    )
    clean = volA.mask & ~art
    e_c = maps.elbo[clean]
    e_a = maps.elbo[art]
    s_c = maps.oef_std[clean]
    s_a = maps.oef_std[art]
    ok = e_a.mean() <= e_c.mean() - 2.0 * e_c.std() and s_a.mean() > s_c.mean()
    _conclude(
        10,
        "artifact-detection",
        ok,
        "ELBO artifact %.1f vs clean %.1f (std %.1f); OEF std %.4f vs %.4f"
        % (e_a.mean(), e_c.mean(), e_c.std(), s_a.mean(), s_c.mean()),
    )


def _run_pipeline(root, region):
    root.mkdir()
    ds = root / "train.dset"
    phantom = root / "phantom.nii"
    rc = cli_dispatch([
        "simulate", "--n", "400", "--out", str(ds), "--seed", "1",
        "--phantom", str(phantom), "--phantom-shape", "8,8,2",
        "--phantom-params", "0.4,0.025", "--phantom-snr", "60",
    ])
    assert rc == 0
    # one config for every command; pretrain trains the voxelwise trunk
    run_cfg = root / "run.yaml"
    run_cfg.write_text(yaml.safe_dump({
        "network": {"n_blocks": 1, "width": 8, "spatial_mode": "gated-residual"},
        "forward": {"variant": "asymptotic", "compartments": 1},
        "pretrain": {"iterations": 25, "batch_size": 64, "lr": 2e-3, "seed": 3},
        "finetune": {"iterations": 6, "batch_size": 2, "lr": 5e-3, "crop_xy": 6,
                     "n_samples_elbo": 1, "seed": 4},
    }))
    theta = root / "theta.ckpt"
    rc = cli_dispatch([
        "pretrain", "--config", str(run_cfg), "--dataset", str(ds),
        "--out", str(theta), "--metrics", str(root / "pretrain.tsv"),
    ])
    assert rc == 0
    psi = root / "psi.ckpt"
    rc = cli_dispatch([
        "finetune", "--config", str(run_cfg), "--weights", str(theta),
        "--volume", str(phantom), "--out", str(psi),
        "--metrics", str(root / "finetune.tsv"),
    ])
    assert rc == 0
    maps = root / "maps"
    rc = cli_dispatch([
        "infer", "--weights", str(psi), "--prior-weights", str(theta),
        "--volume", str(phantom), "--out-dir", str(maps),
        "--source", "vi+tv", "--seed", "2", "--config", str(run_cfg),
    ])
    assert rc == 0
    wls_dir = root / "wls"
    rc = cli_dispatch(["wls", "--volume", str(phantom), "--out-dir", str(wls_dir)])
    assert rc == 0
    rc = cli_dispatch([
        "stats", "--maps-dir", str(maps), "--region", str(region),
        "--out", str(root / "stats.tsv"),
    ])
    assert rc == 0
    rc = cli_dispatch([
        "compare", "--a", str(maps / "oef.nii"), str(maps / "oef.nii"),
        "--b", str(wls_dir / "oef.nii"), str(wls_dir / "oef.nii"),
        "--fwhm", "0", "--out", str(root / "tmap.nii"),
    ])
    assert rc == 0


def _comparable_bytes(path):
    """A file's bytes; a metrics log's without its last column, step_ms,
    the one wall-clock value a rerun does not repeat."""
    raw = path.read_bytes()
    if not raw.startswith(MetricsLog.HEADER.encode()):
        return raw
    return b"\n".join(line.rsplit(b"\t", 1)[0] for line in raw.split(b"\n"))


def test_11_end_to_end_determinism(tmp_path):
    region = tmp_path / "region.nii"
    write_nifti(np.ones((8, 8, 2)), region)
    _run_pipeline(tmp_path / "run1", region)
    _run_pipeline(tmp_path / "run2", region)
    files1 = sorted(p.relative_to(tmp_path / "run1") for p in (tmp_path / "run1").rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(tmp_path / "run2") for p in (tmp_path / "run2").rglob("*") if p.is_file())
    same_names = files1 == files2
    diffs = [
        str(rel)
        for rel in files1
        if _comparable_bytes(tmp_path / "run1" / rel) != _comparable_bytes(tmp_path / "run2" / rel)
    ] if same_names else ["<file lists differ>"]
    ok = same_names and not diffs
    _conclude(
        11,
        "end-to-end-determinism",
        ok,
        "%d files byte-compared%s" % (len(files1), "" if ok else ", mismatches: " + ", ".join(diffs)),
    )
