"""Run and agent configuration, mergeable from defaults, file, and flags."""

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .decision import MAX_PLANS
from .errors import ConfigError
from .files import OBJECT, read_json
from .placeholders import DEFAULT_MIN_URL_LENGTH
from .vision import IntegrationStrategy


@dataclass(frozen=True)
class LatencyModel:
    """Deterministic wall-time surrogate: alpha*prompt_chars + beta*backend_calls."""

    alpha: float
    beta: float

    def wall_time_ms(self, prompt_chars: int, backend_calls: int) -> float:
        return self.alpha * prompt_chars + self.beta * backend_calls


@dataclass(frozen=True)
class AgentConfig:
    n_candidates: int = 3
    confidence_floor: float = 0.0
    abstraction_enabled: bool = True  # the CLI exposes this as --aci
    strategy: IntegrationStrategy = IntegrationStrategy.TOOL
    decision_module: bool = True
    max_plan_rounds: int = 5
    context_budget: int = 8000
    elide_block: int = 8
    min_url_length: int = DEFAULT_MIN_URL_LENGTH
    template_dir: str | None = None
    latency_model: LatencyModel | None = None

    def to_dict(self) -> dict:
        """The config keys set on this config; agent_config_from_dict inverts it."""
        row = {}
        for key, (field, sub, _) in CONFIG_KEYS.items():
            value = getattr(self, field)
            if sub and value:
                value = getattr(value, sub)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "on" if value else "off"
            row[key] = value.value if isinstance(value, Enum) else value
        return row


def _number(kind, low: float, high: float = math.inf):
    """Parser for an int (kind=int) or float key that must lie in [low, high]."""
    types = int if kind is int else (int, float)
    bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    what = f"{'an integer' if kind is int else 'a number'} {bounds}"

    def parse(key: str, value):
        if isinstance(value, bool) or not isinstance(value, types) or not low <= value <= high:
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return kind(value)

    return parse


def _choice(options: dict):
    """Parser for a key whose value must be one of options' keys."""
    names = " or ".join(k for k in options if isinstance(k, str))

    def parse(key: str, value):
        if not isinstance(value, (str, bool)) or value not in options:
            raise ConfigError(f"{key} must be {names}, got {value!r}")
        return options[value]

    return parse


_on_off = _choice({"on": True, "off": False, True: True, False: False})


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


# config key -> (AgentConfig field, LatencyModel field or None, parser)
CONFIG_KEYS = {
    "n_candidates": ("n_candidates", None, _number(int, 1, MAX_PLANS)),
    "confidence_floor": ("confidence_floor", None, _number(float, 0.0, 1.0)),
    "aci": ("abstraction_enabled", None, _on_off),
    "strategy": ("strategy", None, _choice({s.value: s for s in IntegrationStrategy})),
    "decision_module": ("decision_module", None, _on_off),
    "max_plan_rounds": ("max_plan_rounds", None, _number(int, 1)),
    "context_budget": ("context_budget", None, _number(int, 1)),
    "elide_block": ("elide_block", None, _number(int, 1)),
    "min_url_length": ("min_url_length", None, _number(int, 1)),
    "template_dir": ("template_dir", None, _text),
    "latency_alpha": ("latency_model", "alpha", _number(float, 0.0)),
    "latency_beta": ("latency_model", "beta", _number(float, 0.0)),
}


def agent_config_from_dict(row: dict, base: AgentConfig | None = None) -> AgentConfig:
    """Layer a dict of config keys onto base; unknown keys and bad values raise ConfigError."""
    if not isinstance(row, dict):
        raise ConfigError(f"agent config must be a JSON object, got {type(row).__name__}")
    config = base or AgentConfig()
    for key, value in row.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}; known keys: {', '.join(CONFIG_KEYS)}")
        field, sub, parse = CONFIG_KEYS[key]
        value = parse(key, value)
        if sub:
            # the one nested field: a lone latency key starts from a zero model
            value = replace(getattr(config, field) or LatencyModel(0.0, 0.0), **{sub: value})
        config = replace(config, **{field: value})
    return config


def read_config_file(path: str | Path) -> dict:
    return read_json(path, "config file", OBJECT)


@dataclass(frozen=True)
class AblationVariant:
    """One row of an ablation matrix: a named agent configuration."""

    name: str
    agent: AgentConfig

    @classmethod
    def from_dict(cls, row: dict, base: AgentConfig) -> "AblationVariant":
        fields = dict(row) if isinstance(row, dict) else {}
        name = fields.pop("name", None)
        if not (isinstance(name, str) and name):
            raise ConfigError(f"ablation variant needs a name: {row!r}")
        return cls(name=name, agent=agent_config_from_dict(fields, base))
