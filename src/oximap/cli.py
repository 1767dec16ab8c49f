"""Command-line surface for the full pipeline.

Subcommands: simulate (synthetic dataset + optional phantom volume),
pretrain (dataset -> weights), finetune (weights + volumes -> adapted
weights), infer (weights + volume -> maps), wls (volume -> baseline
maps), stats (maps + region -> table), compare (two map sets -> paired
t-statistics). Every command is deterministic for a fixed config and
seed at a fixed BLAS thread count: importing oximap pins BLAS to one
thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is
set. Errors exit 1 with a single-line `error: ...` message.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .analysis import MAP_FIELDS, InferenceConfig, ParamMaps, infer_maps, paired_tstat, region_stats, wls_fit
from .config import ConfigError, RunConfig, load_config
from .nifti import NiftiFormatError, read_description, read_nifti, read_voxel_size, write_nifti
from .nnet import CheckpointFormatError, load_checkpoint, save_checkpoint
from .synthgen import (
    DatasetFormatError,
    NoiseProfile,
    generate_dataset,
    load_dataset,
    make_phantom,
    save_dataset,
)
from .train import run_finetuning, run_pretraining
from .volume import Volume4D, normalize_volume


def _read_map(path) -> np.ndarray:
    """Read a 3-D map or mask; a 4-D file is rejected, naming it."""
    img = read_nifti(path)
    if isinstance(img, Volume4D):
        raise ValueError(f"{path} is 4-D; a 3-D image is required")
    return img


def _read_volume(vol_path, mask_path, cfg: RunConfig) -> Volume4D:
    """Read a raw 4-D volume and its optional 3-D mask, check it against the
    protocol and normalize it. Voxels with a non-positive sample are dropped
    from the mask, and their count is reported on stderr."""
    vol = read_nifti(vol_path)
    if not isinstance(vol, Volume4D):
        raise ValueError(f"{vol_path} is 3-D; a 4-D multi-tau volume is required")
    if mask_path is not None:
        mask = _read_map(mask_path)
        if mask.shape != vol.grid_shape:
            raise ValueError(
                f"mask grid {mask.shape} does not match volume grid {vol.grid_shape}"
            )
        vol = Volume4D(vol.data, (mask > 0.5) & vol.mask, vol.voxel_size_mm)
    if vol.n_t != cfg.protocol.n_t:
        raise ValueError(
            f"{vol_path} has {vol.n_t} tau samples but the protocol defines {cfg.protocol.n_t}"
        )
    vol, dropped = normalize_volume(vol, cfg.protocol)
    if dropped:
        print(f"dropped {dropped} non-positive voxels from {vol_path}", file=sys.stderr)
    return vol


def _run_config(args) -> RunConfig:
    return load_config(args.config) if args.config else RunConfig()


# subcommand implementations -------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = _run_config(args)
    seed = args.seed if args.seed is not None else cfg.pretrain.seed
    rng = np.random.default_rng(seed)
    noise = NoiseProfile(snr_low=args.snr_low, snr_high=args.snr_high)
    dataset = generate_dataset(
        args.n, cfg.param_prior, cfg.protocol, cfg.constants, cfg.forward, noise, rng
    )
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n} rows to {args.out}")
    if args.phantom:
        shape = _parse_list(args.phantom_shape, 3, "--phantom-shape", int)
        oef, dbv = _parse_list(args.phantom_params, 2, "--phantom-params", float)
        phantom = make_phantom(
            tuple(shape),
            (oef, dbv),
            cfg.protocol,
            cfg.constants,
            cfg.forward,
            args.phantom_snr,
            np.random.default_rng(seed + 1),
        )
        write_nifti(phantom, args.phantom, description="simulated phantom")
        print(f"wrote phantom {tuple(shape)} to {args.phantom}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _run_config(args)
    dataset = load_dataset(args.dataset)
    tr = cfg.pretrain if args.seed is None else dataclasses.replace(cfg.pretrain, seed=args.seed)
    # pretraining fits the voxelwise trunk of the configured network
    net_cfg = dataclasses.replace(cfg.network, spatial_mode="voxelwise")
    theta = run_pretraining(net_cfg, tr, dataset, metrics_path=args.metrics)
    save_checkpoint(theta, args.out)
    print(f"wrote pretrained weights ({theta.n_parameters()} parameters) to {args.out}")
    return 0


def _cmd_finetune(args) -> int:
    cfg = _run_config(args)
    theta = load_checkpoint(args.weights)
    tr = cfg.finetune if args.seed is None else dataclasses.replace(cfg.finetune, seed=args.seed)
    masks = args.mask or []
    if masks and len(masks) != len(args.volume):
        raise ValueError("--mask must be given once per --volume (or not at all)")
    vols = [_read_volume(vp, masks[i] if masks else None, cfg) for i, vp in enumerate(args.volume)]
    psi = run_finetuning(
        theta, cfg.network, tr, vols, cfg.protocol, cfg.constants, cfg.forward,
        metrics_path=args.metrics,
    )
    save_checkpoint(psi, args.out)
    print(f"wrote fine-tuned weights ({psi.n_parameters()} parameters) to {args.out}")
    return 0


def _cmd_infer(args) -> int:
    cfg = _run_config(args)
    weights = load_checkpoint(args.weights)
    prior_weights = load_checkpoint(args.prior_weights) if args.prior_weights else None
    vol = _read_volume(args.volume, args.mask, cfg)
    seed = args.seed if args.seed is not None else 0
    icfg = InferenceConfig(
        protocol=cfg.protocol,
        constants=cfg.constants,
        forward=cfg.forward,
        seed=seed,
        source=args.source,
        prior_weights=prior_weights,
    )
    maps = infer_maps(weights, vol, icfg)
    _write_maps(maps, vol, args.out_dir)
    print(f"wrote {len(MAP_FIELDS)} maps + mask to {args.out_dir}")
    return 0


def _cmd_wls(args) -> int:
    cfg = _run_config(args)
    vol = _read_volume(args.volume, args.mask, cfg)
    maps = wls_fit(vol, cfg.protocol, cfg.constants)
    _write_maps(maps, vol, args.out_dir)
    print(f"wrote {len(MAP_FIELDS)} maps + mask to {args.out_dir}")
    return 0


def _map_path(maps_dir, name) -> str:
    return os.path.join(maps_dir, f"{name}.nii")


def _write_maps(maps: ParamMaps, vol: Volume4D, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for name, attr in MAP_FIELDS.items():
        write_nifti(
            getattr(maps, attr),
            _map_path(out_dir, name),
            voxel_size_mm=vol.voxel_size_mm,
            description=f"{name} ({maps.source})",
        )
    write_nifti(
        maps.mask.astype(np.float64),
        _map_path(out_dir, "mask"),
        voxel_size_mm=vol.voxel_size_mm,
        description="mask",
    )


def _read_maps_dir(path) -> ParamMaps:
    # _write_maps labels each map "<name> (<source>)"
    oef_path = _map_path(path, "oef")
    desc = read_description(oef_path)
    if not (desc.startswith("oef (") and desc.endswith(")")):
        raise ValueError(f"{oef_path}: header description {desc!r} does not name the map source")
    return ParamMaps(
        **{attr: _read_map(_map_path(path, name)) for name, attr in MAP_FIELDS.items()},
        source=desc[len("oef (") : -1],
        mask=_read_map(_map_path(path, "mask")) > 0.5,
    )


def _cmd_stats(args) -> int:
    maps = _read_maps_dir(args.maps_dir)
    region = _read_map(args.region) > 0.5
    table = region_stats(maps, region)
    lines = ["parameter\tmean\tstd\tn"]
    for name, (mean, std, n) in table.items():
        lines.append(f"{name}\t{mean:.8g}\t{std:.8g}\t{n}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote stats to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compare(args) -> int:
    if len(args.a) != len(args.b):
        raise ValueError("--a and --b need the same number of map files")
    sizes = {read_voxel_size(p) for p in args.a + args.b}
    if len(sizes) > 1:
        raise ValueError(f"--a and --b maps have different voxel sizes: {sorted(sizes)}")
    (voxel_size,) = sizes
    maps_a = [_read_map(p) for p in args.a]
    maps_b = [_read_map(p) for p in args.b]
    t = paired_tstat(maps_a, maps_b, smoothing_fwhm_mm=args.fwhm, voxel_size_mm=voxel_size)
    write_nifti(t, args.out, voxel_size_mm=voxel_size, description="paired t-statistic")
    print(f"wrote t-statistic map to {args.out}")
    return 0


# argument plumbing ----------------------------------------------------


def _parse_list(text, n, flag, kind):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{flag} needs {n} comma-separated values, got {text!r}")
    return [kind(p) for p in parts]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oximap",
        description="Amortized variational qBOLD parameter mapping",
    )
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="YAML run configuration")
    seeded = argparse.ArgumentParser(add_help=False, parents=[config])
    seeded.add_argument("--seed", type=int, help="override the configured RNG seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[seeded], help="generate a synthetic dataset")
    p.add_argument("--n", type=int, default=100_000, help="number of voxels to draw")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--snr-low", type=float, default=50.0)
    p.add_argument("--snr-high", type=float, default=120.0)
    p.add_argument("--phantom", help="also write a phantom volume (NIfTI path)")
    p.add_argument("--phantom-shape", default="96,96,8", help="h,w,d of the phantom")
    p.add_argument("--phantom-params", default="0.4,0.025", help="oef,dbv of the phantom")
    p.add_argument("--phantom-snr", type=float, default=60.0, help="spin-echo SNR of the phantom")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pretrain", parents=[seeded], help="pretrain on a synthetic dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output checkpoint")
    p.add_argument("--metrics", help="TSV training log path")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", parents=[seeded], help="variational fine-tuning on volumes")
    p.add_argument("--weights", required=True, help="pretrained checkpoint")
    p.add_argument("--volume", action="append", required=True, help="raw 4-D volume (repeatable)")
    p.add_argument("--mask", action="append", help="3-D mask per volume (repeatable)")
    p.add_argument("--out", required=True, help="output checkpoint")
    p.add_argument("--metrics", help="TSV training log path")
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("infer", parents=[seeded], help="produce parameter maps from a volume")
    p.add_argument("--weights", required=True)
    p.add_argument("--prior-weights", help="pretrained checkpoint for the ELBO prior")
    p.add_argument("--volume", required=True)
    p.add_argument("--mask")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--source", default="vi", choices=("synth", "vi", "vi+tv"))
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("wls", parents=[config], help="weighted least-squares baseline maps")
    p.add_argument("--volume", required=True)
    p.add_argument("--mask")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_wls)

    p = sub.add_parser("stats", help="region statistics table")
    p.add_argument("--maps-dir", required=True, help="directory written by infer/wls")
    p.add_argument("--region", required=True, help="3-D region mask NIfTI")
    p.add_argument("--out", help="output TSV (default: stdout)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("compare", help="paired t-statistics between conditions")
    p.add_argument("--a", nargs="+", required=True, help="condition A map files")
    p.add_argument("--b", nargs="+", required=True, help="condition B map files")
    p.add_argument("--fwhm", type=float, default=6.0, help="in-plane smoothing FWHM in mm")
    p.add_argument("--out", required=True, help="output t-map NIfTI")
    p.set_defaults(func=_cmd_compare)
    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        ConfigError,
        NiftiFormatError,
        DatasetFormatError,
        CheckpointFormatError,
        ValueError,
        RuntimeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
