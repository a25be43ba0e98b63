"""Experiment configuration: dataclass, flat key=value files, CLI overrides."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

ARMS = ("ce_only", "scc", "scc_cpcm", "scc_eaa", "full")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # which weight sources feed the contrastive loss
    arm: str = "full"
    lam: float = 0.1
    lambda_schedule: str = "constant"   # constant | linear
    lambda_end: float = 0.2             # linear schedule endpoint
    temperature: float = 1.0
    eaa_mode: str = "varying"           # varying | fixed
    cpcm_method: str = "all_pairs"      # all_pairs | nearest_only
    center_scope: str = "batch"         # batch | running
    fuse_renormalize: bool = True
    # training recipe (desk-scale defaults; paper-scale reachable by config)
    batch_size: int = 32
    epochs: int = 60
    seed: int = 0
    lr_max: float = 0.1
    lr_min: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 1e-4
    # model
    hidden_dims: list[int] = field(default_factory=lambda: [64, 128])
    # data
    data: str = "dataset"               # base path of .train/.test.cpcd pair
    num_classes: int = 8
    n_points: int = 256
    out_dir: str = "runs"

    def validate(self):
        if self.arm not in ARMS:
            raise ConfigError(f"unknown arm '{self.arm}' (choose from {ARMS})")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.lambda_schedule not in ("constant", "linear"):
            raise ConfigError(f"unknown lambda schedule '{self.lambda_schedule}'")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.eaa_mode not in ("varying", "fixed"):
            raise ConfigError(f"unknown eaa mode '{self.eaa_mode}'")
        if self.cpcm_method not in ("all_pairs", "nearest_only"):
            raise ConfigError(f"unknown cpcm method '{self.cpcm_method}'")
        if self.center_scope not in ("batch", "running"):
            raise ConfigError(f"unknown center scope '{self.center_scope}'")
        if self.batch_size < 2:
            raise ConfigError("batch size must be at least 2")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if not self.hidden_dims or min(self.hidden_dims) <= 0:
            raise ConfigError("hidden_dims must list one or more positive widths, "
                              f"got {self.hidden_dims}")
        return self

    def lam_at(self, epoch: int) -> float:
        if self.lambda_schedule == "constant" or self.epochs <= 1:
            return self.lam
        t = min(epoch, self.epochs - 1) / (self.epochs - 1)
        return self.lam + (self.lambda_end - self.lam) * t


def _coerce(raw: str, kind):
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got '{raw}'")
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind == list[int] or kind is list:
        return [int(x) for x in raw.replace(",", " ").split()]
    return raw


def apply_overrides(config: ExperimentConfig, pairs: dict[str, str]) -> ExperimentConfig:
    types = {f.name: f.type for f in fields(config)}
    pythonic = {"list[int]": list[int], "str": str, "int": int,
                "float": float, "bool": bool}
    for key, raw in pairs.items():
        name = key.replace("-", "_")
        if name == "lambda":      # 'lambda' is friendlier on the CLI
            name = "lam"
        if name not in types:
            raise ConfigError(f"unknown config key '{key}'")
        kind = types[name]
        if isinstance(kind, str):
            kind = pythonic.get(kind, str)
        try:
            value = _coerce(raw, kind)
        except ValueError as exc:
            raise ConfigError(f"config key '{key}': {exc}") from None
        setattr(config, name, value)
    return config


def load_config(path) -> ExperimentConfig:
    """Flat key=value text; '#' starts a comment."""
    config = ExperimentConfig()
    pairs = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        pairs[key.strip()] = raw
    return apply_overrides(config, pairs)


def dump_config(config: ExperimentConfig) -> str:
    lines = []
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, list):
            v = " ".join(str(x) for x in v)
        key = "lambda" if f.name == "lam" else f.name
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"
