import pytest

from shopclerk.errors import RegistrationError
from shopclerk.toolkit import (
    ActionTrace,
    ToolCall,
    ToolDescriptor,
    ToolRegistry,
    validate_arguments,
)

ECHO_SCHEMA = {
    "type": "object",
    "properties": {
        "text": {"type": "string"},
        "times": {"type": "integer"},
        "mode": {"type": "string", "enum": ["loud", "quiet"]},
    },
    "required": ["text"],
}


def make_registry():
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor("echo", "Repeat the given text.", ECHO_SCHEMA),
        lambda args: args["text"] * args.get("times", 1),
    )
    return registry


def test_register_and_list():
    registry = make_registry()
    assert "echo" in registry
    assert [d.name for d in registry.descriptors()] == ["echo"]


def test_register_duplicate_name():
    registry = make_registry()
    with pytest.raises(RegistrationError):
        registry.register(ToolDescriptor("echo", "again", {"properties": {}}), lambda a: "")


def test_register_after_catalog_rendered_raises():
    registry = make_registry()
    catalog = registry.catalog_text()
    with pytest.raises(RegistrationError):
        registry.register(ToolDescriptor("late", "Too late.", {"properties": {}}), lambda a: "")
    assert "late" not in registry
    assert registry.catalog_text() == catalog


def test_invoke_happy_path():
    registry = make_registry()
    result = registry.invoke(ToolCall("c1", "echo", {"text": "hi", "times": 2}))
    assert not result.is_error
    assert result.text() == "hihi"
    assert result.call_id == "c1"


def test_invoke_unknown_tool():
    registry = make_registry()
    result = registry.invoke(ToolCall("c1", "teleport", {}))
    assert result.is_error
    assert result.text() == "unknown_tool: teleport"


def test_invoke_missing_required_field():
    registry = make_registry()
    result = registry.invoke(ToolCall("c1", "echo", {}))
    assert result.is_error
    assert result.text() == "invalid_arguments: text"


def test_invoke_lists_all_offending_fields():
    registry = make_registry()
    result = registry.invoke(ToolCall("c1", "echo", {"times": "three", "bogus": 1}))
    assert result.is_error
    assert result.text() == "invalid_arguments: text, times, bogus"


def test_invoke_enum_violation():
    registry = make_registry()
    result = registry.invoke(ToolCall("c1", "echo", {"text": "x", "mode": "shouty"}))
    assert result.is_error
    assert "mode" in result.text()


def test_handler_exception_never_escapes():
    registry = ToolRegistry()
    registry.register(
        ToolDescriptor("boom", "Always fails.", {"properties": {}}),
        lambda args: 1 / 0,
    )
    result = registry.invoke(ToolCall("c9", "boom", {}))
    assert result.is_error
    assert "division" in result.text()


def test_every_invocation_lands_in_trace():
    registry = make_registry()
    trace = ActionTrace()
    registry.invoke(ToolCall("c1", "echo", {"text": "a"}), trace)
    registry.invoke(ToolCall("c2", "missing", {}), trace)
    kinds = [e["kind"] for e in trace.events]
    assert kinds == ["tool_call", "tool_result", "tool_call", "tool_result"]
    assert trace.events[3]["result"]["is_error"] is True


def test_validate_arguments_type_checks():
    schema = {
        "properties": {
            "s": {"type": "string"},
            "i": {"type": "integer"},
            "n": {"type": "number"},
            "b": {"type": "boolean"},
        },
        "required": [],
    }
    assert validate_arguments(schema, {"s": "x", "i": 3, "n": 2.5, "b": True}) == []
    assert validate_arguments(schema, {"i": 2.5}) == ["i"]
    assert validate_arguments(schema, {"i": True}) == ["i"]  # bools are not integers
    assert validate_arguments(schema, {"n": 3}) == []  # ints are numbers
    assert validate_arguments(schema, {"b": "yes"}) == ["b"]


def test_trace_jsonl_round_trip(tmp_path):
    import json

    trace = ActionTrace()
    trace.add("emit", reply="hello")
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["kind"] == "emit"
    assert rows[0]["reply"] == "hello"
