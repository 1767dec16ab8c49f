"""Configuration parsing and command-line pipeline tests: strict YAML
handling, round-trip fidelity, end-to-end subcommand smoke runs, seeded
reproducibility, and exit codes."""

import dataclasses
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import BLAS_THREAD_VARS, BLAS_THREADS_ASKED, TASKS_AFTER_NUMPY

from oximap.analysis import paired_tstat
from oximap.autodiff import Tensor
from oximap.cli import _read_maps_dir, cli_dispatch
from oximap.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from oximap.nifti import read_nifti, read_voxel_size, write_nifti
from oximap.nnet import load_checkpoint, save_checkpoint
from oximap.physics import AcquisitionProtocol
from oximap.synthgen import PRIOR_PRESETS, SynthDataset, load_dataset, save_dataset
from oximap.train import TrainingConfig
from oximap.volume import Volume4D

README = Path(__file__).resolve().parents[1] / "README.md"


# well-formed YAML whose values have the wrong type
MALFORMED_DOCS = {
    "tau-scalar": {"protocol": {"tau": 5}},
    "tau-null": {"protocol": {"tau": None}},
    "prior-spec-scalars": {"param_prior": {"oef": 3, "dbv": 4}},
}


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.protocol.n_t == 11
        assert cfg.pretrain == TrainingConfig.pretrain_defaults()
        assert cfg.finetune == TrainingConfig.finetune_defaults()
        assert cfg.param_prior == PRIOR_PRESETS["normal"]
        assert cfg.forward.variant == "full"
        assert list(config_to_dict(cfg)) == [
            "protocol", "constants", "forward", "network", "pretrain", "finetune", "param_prior",
        ]

    def test_empty_document_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == RunConfig()

    def test_round_trip_preserves_every_field(self, tmp_path):
        cfg = RunConfig()
        cfg = dataclasses.replace(
            cfg,
            protocol=AcquisitionProtocol(te=0.08),
            network=dataclasses.replace(cfg.network, width=24, gate_offset=-2.0),
            pretrain=dataclasses.replace(cfg.pretrain, iterations=7, seed=12),
            finetune=dataclasses.replace(cfg.finetune, crop_xy=9, seed=13),
            param_prior=PRIOR_PRESETS["uniform"],
        )
        path = tmp_path / "run.yaml"
        save_config(cfg, path)
        back = load_config(path)
        assert config_to_dict(back) == config_to_dict(cfg)
        assert back == cfg

    def test_partial_document(self, tmp_path):
        doc = {"pretrain": {"iterations": 5, "batch_size": 8, "lr": 1e-3}}
        path = tmp_path / "p.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path)
        assert cfg.pretrain.iterations == 5
        assert cfg.finetune == TrainingConfig.finetune_defaults()
        assert cfg.protocol == AcquisitionProtocol()  # untouched sections keep defaults

    def test_partial_training_section_fills_stage_defaults(self):
        # each stage section fills what it leaves out from its own stage's defaults
        cfg = config_from_dict({
            "pretrain": {"iterations": 9, "batch_size": 4, "seed": 3},
            "finetune": {"crop_xy": 6},
        })
        assert cfg.pretrain == TrainingConfig.pretrain_defaults(iterations=9, batch_size=4, seed=3)
        assert cfg.pretrain.lr == 2e-3
        assert cfg.finetune == TrainingConfig.finetune_defaults(crop_xy=6)
        assert (cfg.finetune.lr, cfg.finetune.batch_size) == (5e-3, 38)
        # the stage is the section's name, not a key
        with pytest.raises(ConfigError, match="section 'finetune': stage"):
            config_from_dict({"finetune": {"stage": "finetune"}})

    def test_protocol_tau_list_becomes_tuple(self):
        taus = [-0.016, -0.008, 0.0] + [0.008 * i for i in range(1, 9)]
        cfg = config_from_dict({"protocol": {"tau": taus}})
        assert cfg.protocol.tau == tuple(taus)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            config_from_dict({"netwrok": {}})
        # a single stage-tagged training section and file paths are not settings
        for name in ("training", "paths"):
            with pytest.raises(ConfigError, match=f"unknown config section\\(s\\): {name}"):
                config_from_dict({name: {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="section 'network'"):
            config_from_dict({"network": {"width": 8, "depth": 3}})
        # the forward model has no quadrature setting
        with pytest.raises(ConfigError, match="section 'forward'"):
            config_from_dict({"forward": {"n_intervals": 64}})
        # the spin echo is the zero tau, and the two-regime crossover is fixed
        with pytest.raises(ConfigError, match="section 'protocol': se_index"):
            config_from_dict({"protocol": {"se_index": 2}})
        with pytest.raises(ConfigError, match="section 'forward': tc_mode"):
            config_from_dict({"forward": {"tc_mode": 1.5}})
        # SWA and the validation split are fixed parts of pretraining, and
        # the ELBO draws, the TV weight and the crop size are fine-tuning's
        for key, value in (("swa_enabled", True), ("val_fraction", 0.1), ("n_samples_elbo", 7),
                           ("tv_lambda", 99.0), ("crop_xy", 1000)):
            with pytest.raises(ConfigError, match=f"section 'pretrain': {key}"):
                config_from_dict({"pretrain": {key: value}})

    def test_invalid_value_names_section(self):
        with pytest.raises(ConfigError, match="invalid section 'finetune'"):
            config_from_dict({"finetune": {"iterations": 5, "batch_size": 8, "lr": -1.0}})

    def test_prior_preset_string(self):
        cfg = config_from_dict({"param_prior": "uniform"})
        assert cfg.param_prior == PRIOR_PRESETS["uniform"]
        with pytest.raises(ConfigError, match="unknown prior preset"):
            config_from_dict({"param_prior": "gaussianish"})

    def test_prior_mapping(self):
        doc = {
            "param_prior": {
                "oef": {"kind": "truncated-normal", "mean": 0.3, "std": 0.1,
                        "low": 0.1, "high": 0.8},
                "dbv": {"kind": "uniform", "low": 0.005, "high": 0.2},
            }
        }
        cfg = config_from_dict(doc)
        assert cfg.param_prior.oef.mean == 0.3
        assert cfg.param_prior.dbv.kind == "uniform"

    def test_prior_mapping_errors(self):
        with pytest.raises(ConfigError, match="missing 'dbv'"):
            config_from_dict({"param_prior": {"oef": {"kind": "uniform", "low": 0.1, "high": 0.5}}})
        with pytest.raises(ConfigError, match="param_prior.oef"):
            config_from_dict(
                {
                    "param_prior": {
                        "oef": {"kind": "uniform", "low": 0.1, "high": 0.5, "shape": 2},
                        "dbv": {"kind": "uniform", "low": 0.01, "high": 0.1},
                    }
                }
            )

    @pytest.mark.parametrize("doc", MALFORMED_DOCS.values(), ids=MALFORMED_DOCS.keys())
    def test_malformed_value_is_a_config_error(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_paths_must_be_strings(self):
        # file paths are not settings: a paths section, well-formed or not, is refused
        with pytest.raises(ConfigError, match="paths"):
            config_from_dict({"paths": {"dataset": 7}})
        with pytest.raises(ConfigError, match="unknown config section\\(s\\): paths"):
            config_from_dict({"paths": {"dataset": "train.dset"}})

    def test_root_must_be_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.yaml"
        with pytest.raises(ConfigError, match="nope.yaml"):
            load_config(missing)

    def test_readme_yaml_blocks_parse(self):
        blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert blocks
        for block in blocks:
            config_from_dict(yaml.safe_load(block))

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pretrain: [unclosed\n")
        with pytest.raises(ConfigError, match="could not parse"):
            load_config(path)


# one run config for every command: a gated 1x8 network, whose voxelwise trunk
# `pretrain` trains, and the recipe of each training stage
RUN_CONFIG = {
    "network": {"n_blocks": 1, "width": 8, "spatial_mode": "gated-residual"},
    "forward": {"variant": "asymptotic", "compartments": 1},
    "pretrain": {"iterations": 25, "batch_size": 64, "lr": 2e-3, "seed": 3},
    "finetune": {"iterations": 6, "batch_size": 2, "lr": 5e-3, "crop_xy": 6,
                 "n_samples_elbo": 1, "seed": 4},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate -> pretrain run shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "train.dset"
    phantom = root / "phantom.nii"
    rc = cli_dispatch([
        "simulate", "--n", "400", "--out", str(ds), "--seed", "1",
        "--phantom", str(phantom), "--phantom-shape", "8,8,2",
        "--phantom-params", "0.4,0.025", "--phantom-snr", "60",
    ])
    assert rc == 0
    cfg = root / "run.yaml"
    cfg.write_text(yaml.safe_dump(RUN_CONFIG))
    ckpt = root / "theta.ckpt"
    metrics = root / "pretrain.tsv"
    rc = cli_dispatch([
        "pretrain", "--config", str(cfg), "--dataset", str(ds),
        "--out", str(ckpt), "--metrics", str(metrics),
    ])
    assert rc == 0
    return {"root": root, "dataset": ds, "phantom": phantom, "ckpt": ckpt,
            "metrics": metrics, "config": cfg}


@pytest.mark.parametrize("preset, expected", [({}, ["1", "1", "1"]),
                                              ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])])
def test_import_pins_blas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = f"import os, oximap; print(*(os.environ.get(v) for v in {BLAS_THREAD_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == expected


@pytest.mark.skipif(TASKS_AFTER_NUMPY is None, reason="no /proc/self/task to count threads")
def test_suite_runs_at_one_blas_thread():
    # conftest pins the count before NumPy loads, so the suite's byte
    # identities and printed margins hold at the documented thread count
    if any(v != "1" for v in BLAS_THREADS_ASKED.values()):
        pytest.skip(f"the environment asks for {BLAS_THREADS_ASKED}")
    assert TASKS_AFTER_NUMPY == 1


class TestCliPipeline:
    def test_simulate_writes_loadable_dataset(self, pipeline):
        ds = load_dataset(pipeline["dataset"])
        assert ds.n == 400
        assert ds.signals.shape == (400, 11)

    def test_simulate_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.dset", tmp_path / "b.dset"
        assert cli_dispatch(["simulate", "--n", "50", "--out", str(a), "--seed", "9"]) == 0
        assert cli_dispatch(["simulate", "--n", "50", "--out", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.dset"
        assert cli_dispatch(["simulate", "--n", "50", "--out", str(c), "--seed", "10"]) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_phantom_volume_shape(self, pipeline):
        vol = read_nifti(pipeline["phantom"])
        assert isinstance(vol, Volume4D)
        assert vol.data.shape == (8, 8, 2, 11)

    def test_pretrain_checkpoint_and_metrics(self, pipeline):
        theta = load_checkpoint(pipeline["ckpt"])
        assert theta.config.width == 8
        assert theta.config.spatial_mode == "voxelwise"
        lines = pipeline["metrics"].read_text().strip().split("\n")
        assert lines[0].startswith("step\tloss")
        assert len(lines) == 26  # header + one row per iteration

    def test_infer_writes_maps(self, pipeline):
        out = pipeline["root"] / "maps_vi"
        rc = cli_dispatch([
            "infer", "--weights", str(pipeline["ckpt"]),
            "--volume", str(pipeline["phantom"]), "--out-dir", str(out), "--seed", "2",
        ])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"oef.nii", "dbv.nii", "r2p.nii", "oef_std.nii",
                         "dbv_std.nii", "elbo.nii", "mask.nii"}
        oef = read_nifti(out / "oef.nii")
        mask = read_nifti(out / "mask.nii") > 0.5
        assert oef.shape == (8, 8, 2)
        assert mask.all()
        assert np.isfinite(oef[mask]).all()
        assert 0.05 < np.nanmean(oef) < 0.85

    def _finetune(self, pipeline, out, metrics, *extra):
        return cli_dispatch([
            "finetune", "--config", str(pipeline["config"]), "--weights", str(pipeline["ckpt"]),
            "--volume", str(pipeline["phantom"]), "--out", str(out),
            "--metrics", str(metrics), *extra,
        ])

    def test_finetune_produces_gated_checkpoint(self, pipeline):
        root = pipeline["root"]
        out = root / "psi.ckpt"
        metrics = root / "ft.tsv"
        assert self._finetune(pipeline, out, metrics) == 0
        psi = load_checkpoint(out)
        assert psi.config.spatial_mode == "gated-residual"
        assert "block0.conv.w" in psi.tensors
        assert len(metrics.read_text().strip().split("\n")) == 7

    def test_one_config_drives_both_stages(self, pipeline, tmp_path):
        cfg = load_config(pipeline["config"])
        # pretrain trains the voxelwise trunk of the configured gated network
        theta = load_checkpoint(pipeline["ckpt"])
        assert theta.config == dataclasses.replace(cfg.network, spatial_mode="voxelwise")
        # finetune runs its own section: finetune.iterations rows, not the stage defaults
        out, metrics = tmp_path / "psi.ckpt", tmp_path / "ft.tsv"
        assert self._finetune(pipeline, out, metrics) == 0
        assert load_checkpoint(out).config == cfg.network
        rows = metrics.read_text().strip().split("\n")[1:]
        assert len(rows) == cfg.finetune.iterations == RUN_CONFIG["finetune"]["iterations"]
        # --seed replaces only the section's seed
        reseeded = tmp_path / "ft_seed.tsv"
        assert self._finetune(pipeline, tmp_path / "psi5.ckpt", reseeded, "--seed", "5") == 0
        rows5 = reseeded.read_text().strip().split("\n")[1:]
        assert len(rows5) == len(rows) and rows5 != rows

    def test_wls_maps(self, pipeline):
        out = pipeline["root"] / "maps_wls"
        rc = cli_dispatch([
            "wls", "--volume", str(pipeline["phantom"]), "--out-dir", str(out),
        ])
        assert rc == 0
        oef = read_nifti(out / "oef.nii")
        finite = np.isfinite(oef)
        assert finite.mean() > 0.5  # noisy voxels may be flagged, most fit
        assert 0.1 < np.nanmean(oef[finite]) < 0.8
        elbo = read_nifti(out / "elbo.nii")
        assert np.isnan(elbo).all()  # the baseline carries no ELBO

    def test_maps_dir_reads_back_its_source(self, pipeline):
        root = pipeline["root"]
        wls = root / "maps_src_wls"
        assert cli_dispatch([
            "wls", "--volume", str(pipeline["phantom"]), "--out-dir", str(wls),
        ]) == 0
        assert _read_maps_dir(wls).source == "wls"
        vi_tv = root / "maps_src_vi_tv"
        assert cli_dispatch([
            "infer", "--weights", str(pipeline["ckpt"]), "--volume", str(pipeline["phantom"]),
            "--out-dir", str(vi_tv), "--source", "vi+tv",
        ]) == 0
        assert _read_maps_dir(vi_tv).source == "vi+tv"

    def test_stats_table(self, pipeline, capsys):
        maps_dir = pipeline["root"] / "maps_vi"
        region = pipeline["root"] / "region.nii"
        write_nifti(np.ones((8, 8, 2)), region)
        rc = cli_dispatch(["stats", "--maps-dir", str(maps_dir), "--region", str(region)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "parameter\tmean\tstd\tn"
        table = {row.split("\t")[0]: row.split("\t") for row in lines[1:]}
        assert set(table) == {"oef", "dbv", "r2p", "elbo"}
        assert int(table["oef"][3]) == 128
        assert 0.05 < float(table["oef"][1]) < 0.85

    def test_stats_to_file(self, pipeline):
        maps_dir = pipeline["root"] / "maps_vi"
        region = pipeline["root"] / "region.nii"
        out = pipeline["root"] / "stats.tsv"
        rc = cli_dispatch([
            "stats", "--maps-dir", str(maps_dir), "--region", str(region),
            "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("parameter\t")

    def test_compare_identical_gives_zero_map(self, pipeline):
        oef = pipeline["root"] / "maps_vi" / "oef.nii"
        out = pipeline["root"] / "t.nii"
        rc = cli_dispatch([
            "compare", "--a", str(oef), str(oef), "--b", str(oef), str(oef),
            "--fwhm", "0", "--out", str(out),
        ])
        assert rc == 0
        t = read_nifti(out)
        assert t.shape == (8, 8, 2)
        assert np.all(t == 0.0)

    def test_compare_smooths_with_the_maps_voxel_size(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = {"a": [], "b": []}
        for tag, mean in (("a", 0.40), ("b", 0.38)):
            for i in range(3):
                path = tmp_path / f"{tag}{i}.nii"
                write_nifti(rng.normal(mean, 0.02, (6, 6, 2)), path, voxel_size_mm=(1.0, 1.0, 1.0))
                paths[tag].append(str(path))
        out = tmp_path / "t.nii"
        rc = cli_dispatch(["compare", "--a", *paths["a"], "--b", *paths["b"], "--out", str(out)])
        assert rc == 0
        maps_a = [read_nifti(p) for p in paths["a"]]
        maps_b = [read_nifti(p) for p in paths["b"]]
        ref = paired_tstat(maps_a, maps_b, voxel_size_mm=(1, 1, 1))
        assert np.array_equal(read_nifti(out), ref.astype(np.float32))
        assert not np.allclose(ref, paired_tstat(maps_a, maps_b))
        assert read_voxel_size(out) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("command", ["infer", "wls"])
    def test_dropped_voxels_reported(self, pipeline, tmp_path, capsys, command):
        data = read_nifti(pipeline["phantom"]).data.copy()
        data[2, 3, 1, 4] = -1.0
        vol = tmp_path / "neg.nii"
        write_nifti(Volume4D(data), vol)
        out = tmp_path / "maps"
        argv = [command, "--volume", str(vol), "--out-dir", str(out)]
        if command == "infer":
            argv += ["--weights", str(pipeline["ckpt"])]
        assert cli_dispatch(argv) == 0
        assert f"dropped 1 non-positive voxels from {vol}" in capsys.readouterr().err
        mask = read_nifti(out / "mask.nii") > 0.5
        assert not mask[2, 3, 1] and mask.sum() == mask.size - 1


class TestCliErrors:
    def test_missing_required_argument_exits_2(self):
        assert cli_dispatch(["simulate"]) == 2

    def test_unknown_command_exits_2(self):
        assert cli_dispatch(["transmogrify"]) == 2

    @pytest.mark.parametrize("argv", [
        ["stats", "--maps-dir", "m", "--region", "r.nii", "--seed", "3"],
        ["compare", "--a", "a.nii", "--b", "b.nii", "--out", "t.nii", "--config", "x.yaml"],
        ["wls", "--volume", "v.nii", "--out-dir", "m", "--seed", "3"],
    ], ids=["stats-seed", "compare-config", "wls-seed"])
    def test_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        assert cli_dispatch(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        rc = cli_dispatch([
            "pretrain", "--dataset", str(tmp_path / "no.dset"),
            "--out", str(tmp_path / "w.ckpt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("n_t", [0, 7])
    def test_pretrain_rejects_a_dataset_off_the_protocol(self, tmp_path, capsys, n_t):
        # rows of no taus, or of 7 under the default 11-tau protocol: a
        # one-line error naming both counts, and no checkpoint
        ds, out, cfg = tmp_path / "d.dset", tmp_path / "w.ckpt", tmp_path / "run.yaml"
        rng = np.random.default_rng(0)
        save_dataset(SynthDataset(rng.normal(-0.1, 0.05, (20, n_t)), np.tile([0.4, 0.025], (20, 1)),
                                  np.full(20, 60.0)), ds)
        cfg.write_text(yaml.safe_dump({"pretrain": {"iterations": 2, "batch_size": 8, "lr": 1e-3}}))
        rc = cli_dispatch(["pretrain", "--config", str(cfg), "--dataset", str(ds), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1, err
        assert ("n_t 0" if n_t == 0 else "has 7 tau samples but the protocol defines 11") in err
        assert not out.exists()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        rc = cli_dispatch([
            "simulate", "--config", str(tmp_path / "no.yaml"),
            "--n", "10", "--out", str(tmp_path / "d.dset"),
        ])
        assert rc == 1
        assert "no.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", MALFORMED_DOCS.values(), ids=MALFORMED_DOCS.keys())
    def test_malformed_config_exits_1(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        rc = cli_dispatch([
            "simulate", "--config", str(cfg), "--n", "10", "--out", str(tmp_path / "d.dset"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("name, value", [("mu.w", None), ("mu.b", np.zeros(3))])
    def test_infer_rejects_a_checkpoint_off_its_layout(self, tmp_path, pipeline, capsys,
                                                        name, value):
        theta = load_checkpoint(pipeline["ckpt"])
        if value is None:
            del theta.tensors[name]
        else:
            theta.tensors[name] = Tensor(value)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(theta, bad)
        rc = cli_dispatch([
            "infer", "--weights", str(bad), "--volume", str(pipeline["phantom"]),
            "--out-dir", str(tmp_path / "maps"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(name) in err

    def test_maps_dir_without_source_label_exits_1(self, tmp_path, pipeline, capsys):
        maps_dir = tmp_path / "maps"
        assert cli_dispatch([
            "wls", "--volume", str(pipeline["phantom"]), "--out-dir", str(maps_dir),
        ]) == 0
        write_nifti(read_nifti(maps_dir / "oef.nii"), maps_dir / "oef.nii", description="oef")
        region = tmp_path / "region.nii"
        write_nifti(np.ones((8, 8, 2)), region)
        rc = cli_dispatch(["stats", "--maps-dir", str(maps_dir), "--region", str(region)])
        assert rc == 1
        assert "map source" in capsys.readouterr().err

    def test_3d_volume_rejected(self, tmp_path, pipeline, capsys):
        vol3 = tmp_path / "vol3.nii"
        write_nifti(np.zeros((4, 4, 2)), vol3)
        rc = cli_dispatch([
            "wls", "--volume", str(vol3), "--out-dir", str(tmp_path / "m"),
        ])
        assert rc == 1
        assert "4-D" in capsys.readouterr().err

    def test_mask_grid_mismatch(self, tmp_path, pipeline, capsys):
        mask = tmp_path / "mask.nii"
        write_nifti(np.ones((4, 4, 1)), mask)
        rc = cli_dispatch([
            "wls", "--volume", str(pipeline["phantom"]), "--mask", str(mask),
            "--out-dir", str(tmp_path / "m"),
        ])
        assert rc == 1
        assert "does not match" in capsys.readouterr().err

    def test_protocol_mismatch(self, tmp_path, pipeline, capsys):
        short = tmp_path / "short.nii"
        write_nifti(np.full((4, 4, 1, 5), 0.5), short)
        rc = cli_dispatch([
            "wls", "--volume", str(short), "--out-dir", str(tmp_path / "m"),
        ])
        assert rc == 1
        assert "tau samples" in capsys.readouterr().err

    def test_finetune_mask_count_mismatch(self, tmp_path, pipeline, capsys):
        mask = tmp_path / "m.nii"
        write_nifti(np.ones((8, 8, 2)), mask)
        rc = cli_dispatch([
            "finetune", "--weights", str(pipeline["ckpt"]),
            "--volume", str(pipeline["phantom"]),
            "--volume", str(pipeline["phantom"]),
            "--mask", str(mask),
            "--out", str(tmp_path / "p.ckpt"),
        ])
        assert rc == 1
        assert "per --volume" in capsys.readouterr().err

    def test_compare_length_mismatch(self, pipeline, tmp_path, capsys):
        oef = pipeline["root"] / "maps_vi" / "oef.nii"
        rc = cli_dispatch([
            "compare", "--a", str(oef), str(oef), "--b", str(oef),
            "--out", str(tmp_path / "t.nii"),
        ])
        assert rc == 1
        assert "same number" in capsys.readouterr().err

    def test_compare_voxel_size_mismatch(self, tmp_path, capsys):
        fine, coarse = str(tmp_path / "fine.nii"), str(tmp_path / "coarse.nii")
        write_nifti(np.zeros((4, 4, 1)), fine, voxel_size_mm=(1.0, 1.0, 1.0))
        write_nifti(np.zeros((4, 4, 1)), coarse)
        rc = cli_dispatch([
            "compare", "--a", fine, fine, "--b", coarse, coarse,
            "--out", str(tmp_path / "t.nii"),
        ])
        assert rc == 1
        assert "voxel sizes" in capsys.readouterr().err

    def test_compare_rejects_a_4d_map(self, tmp_path, capsys):
        four, three = str(tmp_path / "v4.nii"), str(tmp_path / "m3.nii")
        write_nifti(Volume4D(np.ones((4, 4, 1, 3))), four)
        write_nifti(np.ones((4, 4, 1)), three)
        rc = cli_dispatch([
            "compare", "--a", four, four, "--b", three, three,
            "--out", str(tmp_path / "t.nii"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{four} is 4-D" in err

    def test_stats_rejects_a_4d_region(self, tmp_path, pipeline, capsys):
        maps_dir = tmp_path / "maps"
        assert cli_dispatch([
            "wls", "--volume", str(pipeline["phantom"]), "--out-dir", str(maps_dir),
        ]) == 0
        capsys.readouterr()
        rc = cli_dispatch([
            "stats", "--maps-dir", str(maps_dir), "--region", str(pipeline["phantom"]),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{pipeline['phantom']} is 4-D" in err

    def test_infer_rejects_an_offset_inside_the_header(self, tmp_path, pipeline, capsys):
        vol = tmp_path / "vol.nii"
        raw = bytearray(pipeline["phantom"].read_bytes())
        struct.pack_into("<f", raw, 108, 0.0)  # vox_offset
        vol.write_bytes(bytes(raw))
        rc = cli_dispatch([
            "infer", "--weights", str(pipeline["ckpt"]), "--volume", str(vol),
            "--out-dir", str(tmp_path / "maps"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "vox_offset" in err

    def test_compare_rejects_a_negative_fwhm(self, tmp_path, capsys):
        m = str(tmp_path / "m.nii")
        write_nifti(np.zeros((4, 4, 1)), m)
        out = tmp_path / "t.nii"
        rc = cli_dispatch(["compare", "--a", m, m, "--b", m, m, "--fwhm", "-3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "FWHM" in err and not out.exists()

    def test_bad_phantom_shape_exits_1(self, tmp_path, capsys):
        rc = cli_dispatch([
            "simulate", "--n", "10", "--out", str(tmp_path / "d.dset"),
            "--phantom", str(tmp_path / "p.nii"), "--phantom-shape", "8,8",
        ])
        assert rc == 1
        assert "--phantom-shape" in capsys.readouterr().err
