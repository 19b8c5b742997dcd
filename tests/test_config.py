import argparse
import json
import re

import pytest

from shopclerk.cli import build_parser, main
from shopclerk.config import (CONFIG_SCHEMA, KEYS, VARY_AXES, AgentConfig, agent_config_from_dict,
                              variant_from_dict)
from shopclerk.errors import ConfigError
from shopclerk.files import OBJECT, read_json
from shopclerk.vision import IntegrationStrategy


def test_defaults():
    config = AgentConfig()
    assert config.n_candidates == 3
    assert config.confidence_floor == 0.0
    assert config.aci
    assert config.decision_module
    assert config.strategy == IntegrationStrategy.TOOL
    assert config.elide_block == 16


def _agent_flags(command: str) -> dict:
    """--flag -> its argparse action, for each option of one command."""
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.option_strings[0]: a for a in commands.choices[command]._actions}


@pytest.mark.parametrize("key", KEYS)
def test_each_row_of_keys_is_its_default_schema_flag_and_axis(key):
    default, schema, flag, axis = KEYS[key]
    assert getattr(AgentConfig(), key) == default
    assert CONFIG_SCHEMA["properties"][key] == schema
    option = "--" + key.replace("_", "-")
    for command in ("run", "chat", "bench", "ablate"):
        actions = _agent_flags(command)
        if flag is None:
            assert option not in actions
        else:
            action = actions[option]
            assert (action.dest, action.type, action.choices) == (
                key, flag.get("type"), flag.get("choices"))
    setters = {name for name, arms in VARY_AXES.items() if any(key in arm for arm in arms)}
    assert setters == ({axis} if axis else set())
    if axis:
        arms = VARY_AXES[axis]
        assert all(arm.keys() == {"name", key} for arm in arms)
        accepted = [value for value in schema["enum"] if value.__class__ is str]
        assert sorted(arm[key] for arm in arms) == sorted(accepted)
        for arm in arms:
            assert variant_from_dict(arm, AgentConfig()) == (
                arm["name"], agent_config_from_dict({key: arm[key]}))


def test_vary_axes_keep_their_arm_names_and_order():
    assert VARY_AXES == {
        "aci": ({"name": "aci-off", "aci": "off"}, {"name": "aci-on", "aci": "on"}),
        "decision": ({"name": "decision-off", "decision_module": "off"},
                     {"name": "decision-on", "decision_module": "on"}),
        "strategy": ({"name": "tool", "strategy": "tool"},
                     {"name": "planner", "strategy": "planner"}),
    }


def test_dict_round_trip():
    config = AgentConfig(
        n_candidates=4,
        confidence_floor=0.2,
        aci=False,
        strategy=IntegrationStrategy.PLANNER,
        decision_module=False,
        elide_block=4,
    )
    assert config.to_dict()["elide_block"] == 4
    assert "template_dir" not in config.to_dict()  # unset, so left out
    assert agent_config_from_dict(config.to_dict()) == config


def test_overrides_layer_on_base():
    base = agent_config_from_dict({"aci": "off", "n_candidates": 5})
    merged = agent_config_from_dict({"aci": "on"}, base)
    assert merged.aci
    assert merged.n_candidates == 5  # untouched fields survive


def test_bad_values_raise_config_error():
    with pytest.raises(ConfigError):
        agent_config_from_dict({"aci": "maybe"})
    with pytest.raises(ConfigError):
        agent_config_from_dict({"strategy": "hybrid"})
    with pytest.raises(ConfigError):
        agent_config_from_dict({"decision_module": "sometimes"})
    for bad in (
        {"n_candidate": 7},  # unknown key
        [1, 2],  # not an object
        {"n_candidates": "abc"},
        {"n_candidates": 0},
        {"n_candidates": 27},
        {"elide_block": 0},
        {"max_plan_rounds": 0},
        {"context_budget": 0},
        {"min_url_length": 0},
        {"confidence_floor": -0.1},
        {"confidence_floor": 1.5},
    ):
        with pytest.raises(ConfigError):
            agent_config_from_dict(bad)


@pytest.mark.parametrize("value", [0, True, 2.5, "8"])
def test_bad_elide_block_names_the_key(capsys, tmp_path, value):
    why = "must be >= 1, got 0" if value == 0 else f"must be an integer, got {json.dumps(value)}"
    with pytest.raises(ConfigError, match=f"^agent config: elide_block: {re.escape(why)}$"):
        agent_config_from_dict({"elide_block": value})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"elide_block": value}))
    assert main(["bench", "--n-trials", "1", "--k", "1", "--config", str(config)]) == 2
    assert f"config file {config}: elide_block: {why}" in capsys.readouterr().err


def test_numbers_are_floats_and_enum_names_their_values():
    config = agent_config_from_dict({"confidence_floor": 0, "aci": True,
                                     "decision_module": "off", "strategy": "planner"})
    assert config.confidence_floor == 0.0 and type(config.confidence_floor) is float
    floor = agent_config_from_dict({"confidence_floor": 1}).confidence_floor
    assert floor == 1.0 and type(floor) is float
    assert config.aci and not config.decision_module
    assert config.strategy == IntegrationStrategy.PLANNER
    assert config.to_dict()["confidence_floor"] == 0.0


@pytest.mark.parametrize("row,why", [
    ({"n_candidates": 27}, "n_candidates: must be <= 26, got 27"),
    ({"confidence_floor": 1.5}, "confidence_floor: must be <= 1, got 1.5"),
    ({"confidence_floor": float("nan")}, "confidence_floor: must be a number, got NaN"),
    ({"confidence_floor": float("inf")}, "confidence_floor: must be a number, got Infinity"),
    ({"aci": 1}, 'aci: must be one of ["on", "off", true, false], got 1'),
    ({"strategy": "hybrid"}, 'strategy: must be one of ["tool", "planner"], got "hybrid"'),
    ({"template_dir": 5}, "template_dir: must be a string, got 5"),
    ({"confidence_floor": float("-inf")}, "confidence_floor: must be a number, got -Infinity"),
    ({"template_dir": ""}, 'template_dir: must have length >= 1, got ""'),
])
def test_a_bad_value_names_its_key_and_why(row, why):
    with pytest.raises(ConfigError, match=f"^agent config: {re.escape(why)}$"):
        agent_config_from_dict(row)


def test_a_bad_flag_names_the_flags(capsys):
    assert main(["bench", "--n-trials", "1", "--k", "1", "--n-candidates", "27"]) == 2
    assert "error: flags: n_candidates: must be <= 26, got 27" in capsys.readouterr().err


def test_ablation_matrix_varies_elide_block(capsys, tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps([{"name": "by-line", "elide_block": 1},
                                  {"name": "block-8", "elide_block": 8}]))
    report = tmp_path / "report"
    argv = ["ablate", "--matrix", str(matrix), "--n-trials", "1", "--k", "1", "--out", str(report)]
    assert main(argv) == 0
    rows = json.loads((report / "report.json").read_text())
    assert [r["name"] for r in rows] == ["by-line", "block-8"]
    # the bundled suite never outgrows the default context budget
    assert rows[0]["usage"] == rows[1]["usage"]


def test_read_config_file_errors(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    for path, why in ((tmp_path / "missing.json", "cannot be read: not found"),
                      (broken, "is not valid JSON"), ("/", "cannot be read")):
        assert main(["bench", "--n-trials", "1", "--k", "1", "--config", str(path)]) == 2
        assert f"error: config file {path} {why}" in capsys.readouterr().err


def test_config_file_feeds_agent_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"strategy": "planner", "confidence_floor": 0.4}))
    config = agent_config_from_dict(read_json(path, "config file", OBJECT))
    assert config.strategy == IntegrationStrategy.PLANNER
    assert config.confidence_floor == 0.4


def test_ablation_variant_needs_name():
    with pytest.raises(ConfigError, match="^ablation variant: name: missing$"):
        variant_from_dict({"aci": "off"}, AgentConfig())
    with pytest.raises(ConfigError, match="^ablation variant: name: must have length >= 1"):
        variant_from_dict({"name": ""}, AgentConfig())
    name, config = variant_from_dict({"name": "no-aci", "aci": "off"}, AgentConfig())
    assert name == "no-aci"
    assert not config.aci


def test_retired_latency_keys_are_refused(capsys, tmp_path):
    # wall time is only measured: a config that still sets a latency key is refused, not ignored
    for key in ("latency_alpha", "latency_beta"):
        with pytest.raises(ConfigError, match=f"^agent config: {key}: unknown key$"):
            agent_config_from_dict({key: 0.5})
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({key: 0.5}))
        assert main(["bench", "--n-trials", "1", "--k", "1", "--config", str(config)]) == 2
        assert f"config file {config}: {key}: unknown key" in capsys.readouterr().err
