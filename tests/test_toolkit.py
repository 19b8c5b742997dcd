import random
from types import SimpleNamespace

import pytest

from conftest import one_round_session, tool_events
from shopclerk.errors import ReplayMissError
from shopclerk.files import closed, shape_error
from shopclerk.shop_tools import TOOLS
from shopclerk.toolkit import (
    ActionTrace,
    ToolCall,
    ToolDescriptor,
    ToolRegistry,
    render_catalog,
)

ECHO_SCHEMA = closed(["text"], text={"type": "string"}, times={"type": "integer"},
                     mode={"type": "string", "enum": ["loud", "quiet"]})


ECHO = ToolDescriptor("echo", "Repeat the given text.", ECHO_SCHEMA)
# one argument of each JSON scalar type, none required
TYPED = ToolDescriptor("typed", "Take typed values.", closed(
    [], s={"type": "string"}, i={"type": "integer"}, n={"type": "number"},
    b={"type": "boolean"}))


def registry_of(descriptor, handler):
    """A registry of one tool, whose handler is the method named after it."""
    return ToolRegistry({descriptor.name: descriptor}, render_catalog([descriptor]),
                        SimpleNamespace(**{descriptor.name: handler}))


def make_registry():
    return registry_of(ECHO, lambda args: args["text"] * args.get("times", 1))


def test_register_and_list():
    registry = make_registry()
    assert registry.catalog_text() == (
        "- echo(text: string, times?: integer, mode?: string): Repeat the given text.")


def test_invoke_happy_path():
    registry = make_registry()
    result = registry.invoke(ToolCall("c1", "echo", {"text": "hi", "times": 2}))
    assert not result.is_error
    assert result.text == "hihi"
    assert result.call_id == "c1"
    typed = registry_of(TYPED, lambda args: "ok")
    for arguments in ({"s": "x", "i": 3, "n": 2.5, "b": True}, {"n": 3}):  # an int is a number
        assert typed.invoke(ToolCall("c2", "typed", arguments)) == ("c2", "ok", False)


def test_invoke_unknown_tool():
    registry = make_registry()
    result = registry.invoke(ToolCall("c1", "teleport", {}))
    assert result.is_error
    assert result.text == "unknown_tool: teleport"


def test_invoke_missing_required_field():
    registry = make_registry()
    result = registry.invoke(ToolCall("c1", "echo", {}))
    assert result.is_error
    assert result.text == "invalid_arguments: text: missing"


def test_invoke_lists_all_offending_fields():
    # a refused call names its first misfit: a missing name, else the first bad one in call order
    registry = make_registry()
    for arguments, why in [
        ({"times": "three", "bogus": 1}, "text: missing"),
        ({"text": "x", "times": "three", "bogus": 1}, 'times: must be an integer, got "three"'),
        ({"text": "x", "bogus": 1, "times": "three"}, "bogus: unknown key"),
    ]:
        result = registry.invoke(ToolCall("c1", "echo", arguments))
        assert result.is_error
        assert result.text == f"invalid_arguments: {why}"
    typed = registry_of(TYPED, lambda args: "ok")
    for arguments, why in [
        ({"i": 2.5}, "i: must be an integer, got 2.5"),
        ({"i": True}, "i: must be an integer, got true"),  # a bool is not an integer
        ({"b": "yes"}, 'b: must be a boolean, got "yes"'),
    ]:
        assert typed.invoke(ToolCall("c2", "typed", arguments)) == (
            "c2", f"invalid_arguments: {why}", True)


def test_invoke_enum_violation():
    registry = make_registry()
    result = registry.invoke(ToolCall("c1", "echo", {"text": "x", "mode": "shouty"}))
    assert result.is_error
    assert result.text == 'invalid_arguments: mode: must be one of ["loud", "quiet"], got "shouty"'


def test_handler_exception_never_escapes():
    registry = registry_of(ToolDescriptor("boom", "Always fails.", {"properties": {}}),
                           lambda args: 1 / 0)
    result = registry.invoke(ToolCall("c9", "boom", {}))
    assert result.is_error
    assert "division" in result.text


def test_a_replay_miss_escapes_the_handler():
    # a replayed session cannot go on past a response that was never recorded
    def miss(args):
        raise ReplayMissError("no recorded describe response")

    registry = registry_of(ToolDescriptor("look", "Misses.", {"properties": {}}), miss)
    with pytest.raises(ReplayMissError, match="no recorded describe response"):
        registry.invoke(ToolCall("c9", "look", {}))


def test_every_invocation_lands_in_trace(suite_dir, vision_fixtures, tmp_path):
    session = one_round_session([
        {"tool": "product_info", "arguments": {"product_id": "P-KET-100"}},
        {"tool": "memory_get", "arguments": {"namespace": "product", "key": "P-KET-100"}},
        {"tool": "missing", "arguments": {}}], tmp_path, suite_dir, vision_fixtures)
    session.handle_buyer_turn("How big is the kettle?")
    events = tool_events(session)
    kinds = [e["kind"] for e in events]
    assert kinds == ["tool_call", "tool_result"] * 3
    assert [e["call"]["tool"] for e in events[::2]] == ["product_info", "memory_get", "missing"]
    assert events[5]["result"]["is_error"] is True


# --- a hand-written argument check, independent of the shared schema checker ---

def reference_validate(schema: dict, arguments: dict) -> list[str]:
    properties = schema.get("properties", {})
    required = schema.get("required", [])
    bad: list[str] = []
    for name in required:
        if name not in arguments:
            bad.append(name)
    for name, value in arguments.items():
        spec = properties.get(name)
        if spec is None:
            bad.append(name)
            continue
        if not reference_type_ok(value, spec):
            bad.append(name)
    order = {n: i for i, n in enumerate(properties)}
    return sorted(set(bad), key=lambda n: (order.get(n, len(order)), n))


def reference_type_ok(value, spec: dict) -> bool:
    expected = spec.get("type", "string")
    if "enum" in spec:
        return value in spec["enum"]
    if expected == "string":
        return isinstance(value, str) and len(value) >= spec.get("minLength", 0)
    if expected == "integer":
        return (isinstance(value, int) and not isinstance(value, bool)
                and ("minimum" not in spec or value >= spec["minimum"]))
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "boolean":
        return isinstance(value, bool)
    return True


# values of every JSON type, True among the would-be integers
_ANY_VALUES = ["", "O-7001", "cancel", "platform_policy", 0, 3, -1, 2.5, True, False, None,
               [], ["cancel"], {}, {"k": 1}]


def _random_arguments(rng: random.Random, schema: dict) -> dict:
    """Arguments that mix fitting values, missing required keys, unknown keys,
    wrong types, True as an integer and enum misses."""
    arguments = {}
    for name, spec in schema["properties"].items():
        if rng.random() < 0.25:
            continue  # missing (required or not)
        roll = rng.random()
        if "enum" in spec:
            fitting = rng.choice(spec["enum"])
            value = fitting if roll < 0.5 else rng.choice(["refund", "CANCEL", "weather", ""])
        elif spec["type"] == "integer":
            value = rng.randrange(-2, 5) if roll < 0.5 else True if roll < 0.7 else 2.0
        else:
            value = f"v{rng.randrange(9)}" if roll < 0.5 else rng.choice(["", "O-7001"])
        if rng.random() < 0.3:
            value = rng.choice(_ANY_VALUES)  # very likely the wrong type
        arguments[name] = value
    for _ in range(rng.choice([0, 0, 1, 2])):
        unknown = rng.choice(["note", "extra", "limit ", "orderId", "zz"])
        arguments[unknown] = rng.choice(_ANY_VALUES)
    return dict(rng.sample(list(arguments.items()), len(arguments)))  # any key order


@pytest.mark.parametrize("tool", [t.name for t in TOOLS])
def test_invoke_refuses_as_the_reference_does(tool):
    descriptor = next(t for t in TOOLS if t.name == tool)
    ran = []
    registry = registry_of(descriptor, lambda args: ran.append(args) or "ok")
    rng = random.Random(f"validate-{tool}")
    seen = set()
    for _ in range(3000):
        arguments = _random_arguments(rng, descriptor.input_schema)
        expected = reference_validate(descriptor.input_schema, arguments)
        ran.clear()
        result = registry.invoke(ToolCall("c1", tool, arguments))
        assert result.is_error == bool(expected), (arguments, result.text)
        if expected:  # the reported path is one of the names the reference lists
            assert any(result.text.startswith(f"invalid_arguments: {name}: ")
                       for name in expected), (arguments, result.text)
            # in shape_error's words, whichever way the compiled checker went
            why = shape_error(arguments, descriptor.input_schema)
            assert result.text == "invalid_arguments: " + why
            assert ran == []  # the handler never ran
        else:
            assert ran == [arguments]
        seen.add(bool(expected))
    assert seen == {True, False}  # both fitting and offending dicts were drawn


@pytest.mark.parametrize("tool", [t.name for t in TOOLS])
def test_the_compiled_checker_accepts_only_what_shape_error_accepts(tool):
    descriptor = next(t for t in TOOLS if t.name == tool)
    schema = descriptor.input_schema
    rng = random.Random(f"compiled-{tool}")
    accepted = 0
    for _ in range(3000):
        arguments = _random_arguments(rng, schema)
        if rng.random() < 0.2:  # the edge values of each property, one at a time
            name = rng.choice(list(schema["properties"]))
            arguments[name] = rng.choice([True, False, 2.0, 1, 0, -1, "", "x", None,
                                          "Cancel", "cancel ", "platform_policy"])
        verdict = descriptor.check(arguments)
        if verdict is None:
            accepted += 1
            assert shape_error(arguments, schema) is None, arguments
        else:
            assert verdict == shape_error(arguments, schema), arguments
    assert accepted > 50  # fitting arguments were drawn too


def test_trace_jsonl_round_trip(tmp_path):
    import json

    trace = ActionTrace()
    trace.add("emit", reply="hello")
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["kind"] == "emit"
    assert rows[0]["reply"] == "hello"
