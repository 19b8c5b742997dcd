"""Run and agent configuration, mergeable from defaults, file, and flags."""

from typing import NamedTuple

from .decision import MAX_PLANS
from .errors import ConfigError
from .files import STRING, closed, shape_error
from .placeholders import DEFAULT_MIN_URL_LENGTH
from .vision import STRATEGIES, IntegrationStrategy


class AgentConfig(NamedTuple):
    """One field per config key, named and ordered as in CONFIG_SCHEMA; None is unset."""

    n_candidates: int = 3
    confidence_floor: float = 0.0
    aci: bool = True
    strategy: str = IntegrationStrategy.TOOL
    decision_module: bool = True
    max_plan_rounds: int = 5
    context_budget: int = 8000
    elide_block: int = 16
    min_url_length: int = DEFAULT_MIN_URL_LENGTH
    template_dir: str | None = None

    def to_dict(self) -> dict:
        """The config keys set on this config; agent_config_from_dict inverts it."""
        return {key: ("on" if value else "off") if value.__class__ is bool else value
                for key, value in self._asdict().items() if value is not None}


ON_OFF = ("on", "off")
_AT_LEAST_1 = {"type": "integer", "minimum": 1}
_ON_OFF = {"enum": [*ON_OFF, True, False]}

CONFIG_SCHEMA = closed(
    [],
    n_candidates={"type": "integer", "minimum": 1, "maximum": MAX_PLANS},
    confidence_floor={"type": "number", "minimum": 0, "maximum": 1},
    aci=_ON_OFF,
    strategy={"enum": list(STRATEGIES)},
    decision_module=_ON_OFF,
    max_plan_rounds=_AT_LEAST_1,
    context_budget=_AT_LEAST_1,
    elide_block=_AT_LEAST_1,
    min_url_length=_AT_LEAST_1,
    template_dir=STRING,
)
# a row of an ablation matrix: a name and config keys
VARIANT_SCHEMA = closed(["name"], name={"type": "string", "minLength": 1},
                        **CONFIG_SCHEMA["properties"])
# what an on/off value stands for; every other value is taken as it is
_MEANS = {"on": True, "off": False}


def agent_config_from_dict(row: dict, base: AgentConfig | None = None,
                           where: str = "agent config") -> AgentConfig:
    """Layer a dict of config keys onto base; a row that breaks CONFIG_SCHEMA raises
    ConfigError(<where>: <path>: <why>). A number is kept as a float, "on" and "off"
    as booleans."""
    if why := shape_error(row, CONFIG_SCHEMA):
        raise ConfigError(f"{where}: {why}")
    schemas = CONFIG_SCHEMA["properties"]
    return (base or AgentConfig())._replace(**{
        key: float(value) if schemas[key].get("type") == "number"
        else _MEANS.get(value, value) if "enum" in schemas[key] else value
        for key, value in row.items()})


def variant_from_dict(row: dict, base: AgentConfig,
                      where: str = "ablation variant") -> tuple[str, AgentConfig]:
    """A matrix row as (name, its config keys laid onto base); a misfit of VARIANT_SCHEMA
    raises ConfigError(<where>: <path>: <why>)."""
    if why := shape_error(row, VARIANT_SCHEMA):
        raise ConfigError(f"{where}: {why}")
    keys = {key: value for key, value in row.items() if key != "name"}
    return row["name"], agent_config_from_dict(keys, base, where)
