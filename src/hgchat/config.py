"""Run configuration: desk-scale defaults, validation, flat file parsing."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .graph import ABLATABLE


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    """Everything a training or evaluation run needs to be reproducible.

    Desk-scale dimensions are the defaults; the full-scale settings
    (word dim 128, hidden 256, model width 256, 13 speakers, vocab in the
    thousands) remain reachable through the same fields.
    """

    # objective and optimizer
    lam: float = 0.5            # weight of the classification loss term
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 16
    epochs: int = 10
    seed: int = 0
    dropout: float = 0.1

    # dimensions
    d_word: int = 16
    d_hidden: int = 32
    d_model: int = 32
    d_pe: int | None = None     # position-embedding width; defaults to d_hidden
    face_dim: int = 8
    audio_dim: int = 8
    heads: int = 4
    gnn_layers: int = 2
    z_speakers: int = 13

    # graph construction
    gnn_mode: str = "hetero"
    ablate: tuple[str, ...] = ()

    # behavior switches
    golden_emotion: bool = False

    # data limits
    max_turns: int = 35
    max_len: int = 50
    min_count: int = 1

    def __post_init__(self):
        if self.d_pe is None:
            self.d_pe = self.d_hidden
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"heads={self.heads} must divide d_model={self.d_model}")
        if self.gnn_mode not in ("hetero", "homo"):
            raise ConfigError(f"gnn_mode must be hetero or homo, got {self.gnn_mode!r}")
        bad = [a for a in self.ablate if a not in ABLATABLE]
        if bad:
            raise ConfigError(f"unknown ablation(s): {bad}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("learning_rate", "adam_eps"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be at least 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("d_word", "d_hidden", "d_model", "d_pe", "face_dim", "audio_dim",
                     "heads", "gnn_layers", "z_speakers", "batch_size", "max_turns",
                     "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["ablate"] = list(self.ablate)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        kwargs = dict(data)
        unknown = set(kwargs) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        if "ablate" in kwargs:
            kwargs["ablate"] = tuple(kwargs["ablate"])
        return cls(**kwargs)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
# config files use "lambda"; the dataclass field avoids the keyword
_FILE_ALIASES = {"lambda": "lam"}


def _parse_value(name: str, raw: str):
    ftype = _FIELD_TYPES[name]
    if name == "ablate":
        return tuple(x.strip() for x in raw.split(",") if x.strip())
    if ftype in ("bool",):
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if ftype in ("int", "int | None"):
        return int(raw)
    if ftype in ("float",):
        return float(raw)
    return raw


def parse_config_file(path: str | Path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path} line {lineno}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            key = _FILE_ALIASES.get(key, key)
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
            try:
                values[key] = _parse_value(key, raw)
            except ValueError as exc:
                raise ConfigError(f"{path} line {lineno}: {exc}") from exc
    return values


def format_config(cfg: TrainConfig) -> str:
    """One line per resolved setting, for the run preamble."""
    data = cfg.to_dict()
    data["lambda"] = data.pop("lam")
    lines = [f"{key} = {data[key]}" for key in sorted(data)]
    return "\n".join(lines)
