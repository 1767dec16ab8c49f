"""Run configuration: one YAML file describing the acquisition, physical
constants, forward model, network, the recipe of each training stage
(`pretrain:` and `finetune:`), and the population prior.

Parsing is strict — unknown sections or keys are errors — and
serialize(parse(text)) preserves every field.  Sections may be partial:
keys left out keep their defaults, which for `pretrain:` and `finetune:`
are the defaults of that stage.
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
    pretrain: TrainingConfig = field(default_factory=TrainingConfig.pretrain_defaults)
    finetune: TrainingConfig = field(default_factory=TrainingConfig.finetune_defaults)
    param_prior: ParamPriorConfig = field(default_factory=lambda: PRIOR_PRESETS["normal"])


# every section but param_prior is a dataclass built by its RunConfig default
# factory, with the YAML keys as overrides
_SECTIONS = {
    f.name: f.default_factory for f in dataclasses.fields(RunConfig) if f.name != "param_prior"
}


def _build_section(name, build, mapping):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    unknown = set(mapping) - {f.name for f in dataclasses.fields(build())}
    if unknown:
        raise ConfigError(f"unknown key(s) in section '{name}': {', '.join(sorted(unknown))}")
    kwargs = dict(mapping)
    try:
        if name == "protocol" and "tau" in kwargs:
            kwargs["tau"] = tuple(float(t) for t in kwargs["tau"])
        return build(**kwargs)
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
        if not isinstance(spec, dict):
            raise ConfigError(f"param_prior.{pname} must be a mapping")
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
    unknown = set(doc) - set(_SECTIONS) - {"param_prior"}
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    kwargs = {}
    for name, build in _SECTIONS.items():
        if name in doc:
            kwargs[name] = _build_section(name, build, doc[name])
    if "param_prior" in doc:
        kwargs["param_prior"] = _build_prior(doc["param_prior"])
    return RunConfig(**kwargs)


def config_to_dict(cfg: RunConfig) -> dict:
    doc = {}
    for name in _SECTIONS:
        section = dataclasses.asdict(getattr(cfg, name))
        if name == "protocol":
            section["tau"] = [float(t) for t in section["tau"]]
        doc[name] = section
    doc["param_prior"] = {
        "oef": dataclasses.asdict(cfg.param_prior.oef),
        "dbv": dataclasses.asdict(cfg.param_prior.dbv),
    }
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
