"""Run configuration: one YAML file describing the acquisition, physical
constants, forward model, network, training stage, population prior, and
file locations.

Parsing is strict — unknown sections or keys are errors — and
serialize(parse(text)) preserves every field.  Sections may be partial:
keys left out keep their defaults (for 'training', the defaults of the
declared stage).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import yaml

from .nnet import NetworkConfig
from .physics import AcquisitionProtocol, ForwardModelConfig, PhysioConstants
from .synthgen import PRIOR_PRESETS, ParamPriorConfig, PriorSpec
from .train import TrainingConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything a pipeline command needs, with working defaults pre-filled."""

    protocol: AcquisitionProtocol = field(default_factory=AcquisitionProtocol)
    constants: PhysioConstants = field(default_factory=PhysioConstants)
    forward: ForwardModelConfig = field(default_factory=ForwardModelConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig.pretrain_defaults)
    param_prior: ParamPriorConfig = field(default_factory=lambda: PRIOR_PRESETS["normal"])
    paths: dict = field(default_factory=dict)


_SECTION_TYPES = {
    "protocol": AcquisitionProtocol,
    "constants": PhysioConstants,
    "forward": ForwardModelConfig,
    "network": NetworkConfig,
    "training": TrainingConfig,
}


def _build_section(name, cls, mapping):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(mapping) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in section '{name}': {', '.join(sorted(unknown))}")
    kwargs = dict(mapping)
    if name == "protocol" and "tau" in kwargs:
        kwargs["tau"] = tuple(float(t) for t in kwargs["tau"])
    try:
        if name == "training":
            # A partial training mapping keeps the defaults of its declared
            # stage (pretrain when omitted) rather than requiring every field.
            build = (
                TrainingConfig.finetune_defaults
                if kwargs.get("stage") == "finetune"
                else TrainingConfig.pretrain_defaults
            )
            return build(**kwargs)
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section '{name}': {exc}") from exc


def _build_prior(value):
    if isinstance(value, str):
        if value not in PRIOR_PRESETS:
            raise ConfigError(
                f"unknown prior preset {value!r}; have {', '.join(sorted(PRIOR_PRESETS))}"
            )
        return PRIOR_PRESETS[value]
    if not isinstance(value, dict):
        raise ConfigError("section 'param_prior' must be a preset name or a mapping")
    unknown = set(value) - {"oef", "dbv"}
    if unknown:
        raise ConfigError(f"unknown key(s) in section 'param_prior': {', '.join(sorted(unknown))}")
    specs = {}
    for pname in ("oef", "dbv"):
        if pname not in value:
            raise ConfigError(f"param_prior needs both 'oef' and 'dbv'; missing {pname!r}")
        spec = value[pname]
        spec_known = {f.name for f in dataclasses.fields(PriorSpec)}
        bad = set(spec) - spec_known
        if bad:
            raise ConfigError(f"unknown key(s) in param_prior.{pname}: {', '.join(sorted(bad))}")
        try:
            specs[pname] = PriorSpec(**spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid param_prior.{pname}: {exc}") from exc
    try:
        return ParamPriorConfig(**specs)
    except ValueError as exc:
        raise ConfigError(f"invalid section 'param_prior': {exc}") from exc


def config_from_dict(doc: dict) -> RunConfig:
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    allowed = set(_SECTION_TYPES) | {"param_prior", "paths"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        if name in doc:
            kwargs[name] = _build_section(name, cls, doc[name])
    if "param_prior" in doc:
        kwargs["param_prior"] = _build_prior(doc["param_prior"])
    if "paths" in doc:
        paths = doc["paths"]
        if not isinstance(paths, dict) or not all(isinstance(v, str) for v in paths.values()):
            raise ConfigError("section 'paths' must map names to path strings")
        kwargs["paths"] = dict(paths)
    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict:
    doc = {}
    for name, _ in _SECTION_TYPES.items():
        section = dataclasses.asdict(getattr(cfg, name))
        if name == "protocol":
            section["tau"] = [float(t) for t in section["tau"]]
        doc[name] = section
    doc["param_prior"] = {
        "oef": dataclasses.asdict(cfg.param_prior.oef),
        "dbv": dataclasses.asdict(cfg.param_prior.dbv),
    }
    doc["paths"] = dict(cfg.paths)
    return doc


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse config {path}: {exc}") from exc
    return config_from_dict(doc)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)
