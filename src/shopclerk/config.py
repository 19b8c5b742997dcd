"""Run and agent configuration, mergeable from defaults, file, and flags."""

from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .decision import MAX_PLANS
from .errors import ConfigError
from .files import OBJECT, STRING, closed, read_json, shape_error
from .placeholders import DEFAULT_MIN_URL_LENGTH
from .vision import IntegrationStrategy


class LatencyModel(NamedTuple):
    """Deterministic wall-time surrogate: alpha*prompt_chars + beta*backend_calls."""

    alpha: float
    beta: float

    def wall_time_ms(self, prompt_chars: int, backend_calls: int) -> float:
        return self.alpha * prompt_chars + self.beta * backend_calls


class AgentConfig(NamedTuple):
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


_AT_LEAST_1 = {"type": "integer", "minimum": 1}
_NOT_NEGATIVE = {"type": "number", "minimum": 0}
_ON_OFF = {"enum": ["on", "off", True, False]}

# config key -> (AgentConfig field, LatencyModel field or None, value schema)
CONFIG_KEYS = {
    "n_candidates": ("n_candidates", None, {"type": "integer", "minimum": 1, "maximum": MAX_PLANS}),
    "confidence_floor": ("confidence_floor", None, {"type": "number", "minimum": 0, "maximum": 1}),
    "aci": ("abstraction_enabled", None, _ON_OFF),
    "strategy": ("strategy", None, {"enum": [s.value for s in IntegrationStrategy]}),
    "decision_module": ("decision_module", None, _ON_OFF),
    "max_plan_rounds": ("max_plan_rounds", None, _AT_LEAST_1),
    "context_budget": ("context_budget", None, _AT_LEAST_1),
    "elide_block": ("elide_block", None, _AT_LEAST_1),
    "min_url_length": ("min_url_length", None, _AT_LEAST_1),
    "template_dir": ("template_dir", None, STRING),
    "latency_alpha": ("latency_model", "alpha", _NOT_NEGATIVE),
    "latency_beta": ("latency_model", "beta", _NOT_NEGATIVE),
}
CONFIG_SCHEMA = closed([], **{key: schema for key, (_, _, schema) in CONFIG_KEYS.items()})
# a row of an ablation matrix: a name and config keys
VARIANT_SCHEMA = closed(["name"], name={"type": "string", "minLength": 1},
                        **CONFIG_SCHEMA["properties"])
# what an enum value stands for; every other value is taken as it is
_MEANS = {"on": True, "off": False, **{s.value: s for s in IntegrationStrategy}}


def _layered(row: dict, base: AgentConfig | None) -> AgentConfig:
    """row's config keys, already checked, laid onto base."""
    config = base or AgentConfig()
    for key, value in row.items():
        field, sub, schema = CONFIG_KEYS[key]
        if schema.get("type") == "number":
            value = float(value)
        elif "enum" in schema:
            value = _MEANS.get(value, value)
        if sub:
            # the one nested field: a lone latency key starts from a zero model
            value = (getattr(config, field) or LatencyModel(0.0, 0.0))._replace(**{sub: value})
        config = config._replace(**{field: value})
    return config


def agent_config_from_dict(row: dict, base: AgentConfig | None = None,
                           where: str = "agent config") -> AgentConfig:
    """Layer a dict of config keys onto base; a row that breaks CONFIG_SCHEMA raises
    ConfigError(<where>: <path>: <why>)."""
    if why := shape_error(row, CONFIG_SCHEMA):
        raise ConfigError(f"{where}: {why}")
    return _layered(row, base)


def read_config_file(path: str | Path) -> dict:
    return read_json(path, "config file", OBJECT)


class AblationVariant(NamedTuple):
    """One row of an ablation matrix: a named agent configuration."""

    name: str
    agent: AgentConfig

    @classmethod
    def from_dict(cls, row: dict, base: AgentConfig,
                  where: str = "ablation variant") -> "AblationVariant":
        """A matrix row; a misfit of VARIANT_SCHEMA raises ConfigError(<where>: <path>: <why>)."""
        if why := shape_error(row, VARIANT_SCHEMA):
            raise ConfigError(f"{where}: {why}")
        keys = {key: value for key, value in row.items() if key != "name"}
        return cls(name=row["name"], agent=_layered(keys, base))
