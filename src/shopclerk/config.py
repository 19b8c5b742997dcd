"""Run and agent configuration, mergeable from defaults, file, and flags."""

from collections import namedtuple

from .decision import MAX_PLANS
from .errors import ConfigError
from .files import closed, shape_error
from .placeholders import DEFAULT_MIN_URL_LENGTH
from .vision import STRATEGIES, IntegrationStrategy

ON_OFF = ("on", "off")
_AT_LEAST_1 = {"type": "integer", "minimum": 1}
_ON_OFF = {"enum": [*ON_OFF, True, False]}  # an on/off key is read as a boolean

# One row per config key, in field order: (default, schema, the argparse keywords of its
# --flag or None for a key only a config file sets, its `ablate --vary` axis or None).
# A None default is unset; a number key is read as a float.
KEYS = {
    "n_candidates": (3, {"type": "integer", "minimum": 1, "maximum": MAX_PLANS},
                     {"type": int}, None),
    "confidence_floor": (0.0, {"type": "number", "minimum": 0, "maximum": 1},
                         {"type": float}, None),
    "aci": (True, _ON_OFF, {"choices": ON_OFF}, "aci"),
    "strategy": (IntegrationStrategy.TOOL, {"enum": list(STRATEGIES)},
                 {"choices": STRATEGIES}, "strategy"),
    "decision_module": (True, _ON_OFF, {"choices": ON_OFF}, "decision"),
    "max_plan_rounds": (5, _AT_LEAST_1, None, None),
    "context_budget": (8000, _AT_LEAST_1, None, None),
    "elide_block": (16, _AT_LEAST_1, None, None),
    "min_url_length": (DEFAULT_MIN_URL_LENGTH, _AT_LEAST_1, None, None),
    "template_dir": (None, {"type": "string", "minLength": 1}, None, None),
}


class AgentConfig(namedtuple("_AgentConfig", KEYS, defaults=[row[0] for row in KEYS.values()])):
    """One field per config key, named, ordered and defaulted as in KEYS; None is unset."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The config keys set on this config; agent_config_from_dict inverts it."""
        return {key: ("on" if value else "off") if value.__class__ is bool else value
                for key, value in self._asdict().items() if value is not None}


CONFIG_SCHEMA = closed([], **{key: schema for key, (_, schema, _, _) in KEYS.items()})
# a row of an ablation matrix: a name and config keys
VARIANT_SCHEMA = closed(["name"], name={"type": "string", "minLength": 1},
                        **CONFIG_SCHEMA["properties"])


def _arms(key: str, schema: dict, axis: str) -> tuple[dict, ...]:
    """<axis>-off then <axis>-on for an on/off key, else one arm per enum value, named by it."""
    if schema is _ON_OFF:
        return tuple({"name": f"{axis}-{value}", key: value} for value in reversed(ON_OFF))
    return tuple({"name": value, key: value} for value in schema["enum"])


# --vary axis -> the ablation matrix it stands for, in axis name order
VARY_AXES = dict(sorted((axis, _arms(key, schema, axis))
                        for key, (_, schema, _, axis) in KEYS.items() if axis))


def agent_config_from_dict(row: dict, base: AgentConfig | None = None,
                           where: str = "agent config") -> AgentConfig:
    """Layer a dict of config keys onto base; a row that breaks CONFIG_SCHEMA raises
    ConfigError(<where>: <path>: <why>). A number is kept as a float, "on" and "off"
    as booleans."""
    if why := shape_error(row, CONFIG_SCHEMA):
        raise ConfigError(f"{where}: {why}")
    return (base or AgentConfig())._replace(**{
        key: float(value) if KEYS[key][1].get("type") == "number"
        else value in ("on", True) if KEYS[key][1] is _ON_OFF else value
        for key, value in row.items()})


def variant_from_dict(row: dict, base: AgentConfig,
                      where: str = "ablation variant") -> tuple[str, AgentConfig]:
    """A matrix row as (name, its config keys laid onto base); a misfit of VARIANT_SCHEMA
    raises ConfigError(<where>: <path>: <why>)."""
    if why := shape_error(row, VARIANT_SCHEMA):
        raise ConfigError(f"{where}: {why}")
    keys = {key: value for key, value in row.items() if key != "name"}
    return row["name"], agent_config_from_dict(keys, base, where)
