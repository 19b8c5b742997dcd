"""Tool registry with schema-checked invocation and a session action trace.

Wire shapes follow the MCP convention: descriptor {name, description,
input_schema}, call {call_id, tool, arguments}, result {call_id, content,
is_error}.
"""

import json
from collections import namedtuple
from typing import NamedTuple

from .errors import ReplayMissError
from .files import compile_shape


class ToolDescriptor(namedtuple("_ToolDescriptor", "name description input_schema check")):
    """A tool and its argument checker, compiled from input_schema when the descriptor
    is built (files.compile_shape): a static tool table compiles each schema once."""

    __slots__ = ()

    def __new__(cls, name: str, description: str, input_schema: dict):
        return tuple.__new__(cls, (name, description, input_schema, compile_shape(input_schema)))


class ToolCall(NamedTuple):
    call_id: str
    tool_name: str
    arguments: dict

    def to_dict(self) -> dict:
        return {"call_id": self.call_id, "tool": self.tool_name, "arguments": dict(self.arguments)}


class ToolResult(NamedTuple):
    call_id: str
    text: str
    is_error: bool = False

    def to_dict(self) -> dict:
        return {"call_id": self.call_id, "content": [{"type": "text", "text": self.text}],
                "is_error": self.is_error}


class Usage(NamedTuple):
    """What a session's backend and describe calls cost, folded from its trace."""

    prompt_chars: int = 0
    completion_chars: int = 0
    backend_calls: int = 0
    describe_calls: int = 0



class ActionTrace:
    """Ordered audit log of everything a session did; its one ledger of cost too."""

    def __init__(self):
        self._events: list[dict] = []

    @property
    def events(self) -> tuple[dict, ...]:
        return tuple(self._events)

    def add(self, kind: str, **payload) -> None:
        self._events.append({"seq": len(self._events), "kind": kind, **payload})

    def usage(self) -> Usage:
        """Totals over the trace: each chat event is one backend call."""
        prompt = completion = calls = describes = 0
        for event in self._events:
            kind = event["kind"]
            if kind == "chat":
                calls += 1
                prompt += event["prompt_chars"]
                completion += event["completion_chars"]
            elif kind == "describe":
                describes += 1
        return Usage(prompt, completion, calls, describes)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for event in self._events:
                fh.write(json.dumps(event, sort_keys=True, default=str))
                fh.write("\n")


def render_catalog(descriptors) -> str:
    """Human/LLM readable tool list for prompt templates, one line per tool."""
    lines = []
    for desc in descriptors:
        props = desc.input_schema.get("properties", {})
        required = set(desc.input_schema.get("required", []))
        args = ", ".join(
            f"{n}{'' if n in required else '?'}: {spec.get('type', 'string')}"
            for n, spec in props.items()
        )
        lines.append(f"- {desc.name}({args}): {desc.description}")
    return "\n".join(lines)


class ToolRegistry:
    """A static tool table and its catalog text, bound to one session's handlers.

    handlers has one method per tool name; the table and its text are shared
    by every session that uses them."""

    def __init__(self, tools: dict[str, ToolDescriptor], catalog: str, handlers):
        self._tools = tools
        self._catalog = catalog
        self._handlers = handlers

    def catalog_text(self) -> str:
        return self._catalog

    def invoke(self, call: ToolCall) -> ToolResult:
        """Run a tool call; a handler's text is its result, and its failure an error result.

        Arguments that break the tool's input_schema are refused before the handler runs,
        with the first misfit as files.shape_error words it.

        The one error raised is a ReplayMissError: a replay cannot go on past an unrecorded call."""
        descriptor = self._tools.get(call.tool_name)
        if descriptor is None:
            return ToolResult(call.call_id, f"unknown_tool: {call.tool_name}", is_error=True)
        if why := descriptor.check(call.arguments):
            return ToolResult(call.call_id, f"invalid_arguments: {why}", is_error=True)
        try:
            return ToolResult(call.call_id, getattr(self._handlers, call.tool_name)(call.arguments))
        except ReplayMissError:
            raise
        except Exception as exc:  # noqa: BLE001 - contract: never crash the session
            return ToolResult(call.call_id, str(exc), is_error=True)
