"""Experiment configuration: dataclass, flat key=value files, CLI overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

ARMS = ("ce_only", "scc", "scc_cpcm", "scc_eaa", "full")


class ConfigError(ValueError):
    pass


# (field, test, what the test requires); validate() also rejects every
# float that is not finite
RULES = (
    ("arm", lambda v: v in ARMS, "one of " + ", ".join(ARMS)),
    ("lam", lambda v: v >= 0, "finite and nonnegative"),
    ("lambda_schedule", lambda v: v in ("constant", "linear"), "constant or linear"),
    ("lambda_end", lambda v: v >= 0, "finite and nonnegative"),
    ("temperature", lambda v: v > 0, "finite and positive"),
    ("eaa_mode", lambda v: v in ("varying", "fixed"), "varying or fixed"),
    ("cpcm_method", lambda v: v in ("all_pairs", "nearest_only"),
     "all_pairs or nearest_only"),
    ("batch_size", lambda v: v >= 2, "at least 2"),
    ("epochs", lambda v: v >= 0, "nonnegative"),
    ("seed", lambda v: v >= 0, "nonnegative"),
    ("lr_max", lambda v: v > 0, "finite and positive"),
    ("lr_min", lambda v: v >= 0, "finite and nonnegative"),
    ("momentum", lambda v: 0 <= v < 1, "finite and in [0, 1)"),
    ("weight_decay", lambda v: v >= 0, "finite and nonnegative"),
    ("hidden_dims", lambda v: len(v) > 0 and min(v) > 0,
     "one or more positive widths"),
)


def _key(name: str) -> str:
    """The name a config file and --set use for a field."""
    return "lambda" if name == "lam" else name


def field_name(key: str) -> str:
    """The field a config file or --set key names: '-' reads as '_', and
    'lambda' (friendlier on the CLI) as 'lam'."""
    name = key.replace("-", "_")
    return "lam" if name == "lambda" else name


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
    n_points: int = 256
    out_dir: str = "runs"

    def validate(self):
        for name, ok, requirement in RULES:
            value = getattr(self, name)
            finite = not isinstance(value, float) or math.isfinite(value)
            if not (finite and ok(value)):
                raise ConfigError(f"config key '{_key(name)}' must be "
                                  f"{requirement}, got {value!r}")
        return self

    def lam_at(self, epoch: int) -> float:
        if self.lambda_schedule == "constant" or self.epochs <= 1:
            return self.lam
        t = min(epoch, self.epochs - 1) / (self.epochs - 1)
        return self.lam + (self.lambda_end - self.lam) * t


# how a file or --set value is read, by its field's annotation, which is a
# string under `from __future__ import annotations`
PARSE = {
    "int": int,
    "float": float,
    "str": str,
    "list[int]": lambda raw: [int(x) for x in raw.replace(",", " ").split()],
}


def apply_overrides(config: ExperimentConfig, pairs: dict[str, str]) -> ExperimentConfig:
    types = {f.name: f.type for f in fields(config)}
    for key, raw in pairs.items():
        name = field_name(key)
        if name not in types:
            raise ConfigError(f"unknown config key '{key}'")
        try:
            value = PARSE[types[name]](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"config key '{key}': {exc}") from None
        setattr(config, name, value)
    return config


def load_config(path) -> ExperimentConfig:
    """Flat key=value text; '#' starts a comment. A key may appear once."""
    config = ExperimentConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not utf-8 text: {exc}") from None
    pairs, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        name = field_name(key)
        if name in first_line:
            raise ConfigError(f"{path}:{lineno}: config key '{key}' is already "
                              f"set on line {first_line[name]}")
        first_line[name] = lineno
        pairs[key] = raw
    return apply_overrides(config, pairs)


def dump_config(config: ExperimentConfig) -> str:
    lines = []
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, list):
            v = " ".join(str(x) for x in v)
        lines.append(f"{_key(f.name)} = {v}")
    return "\n".join(lines) + "\n"
