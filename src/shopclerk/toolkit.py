"""Tool registry with schema-checked invocation and a session action trace.

Wire shapes follow the MCP convention: descriptor {name, description,
input_schema}, call {call_id, tool, arguments}, result {call_id, content,
is_error}.
"""

import json
from typing import Callable, Iterable, NamedTuple

from .errors import RegistrationError, ReplayMissError
from .files import shape_error


class ToolDescriptor(NamedTuple):
    name: str
    description: str
    input_schema: dict

    def __hash__(self):
        # input_schema is a dict and cannot be hashed; equal descriptors share a name
        return hash(self.name)


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


def validate_arguments(schema: dict, arguments: dict) -> list[str]:
    """Names that are required and missing, unknown, or hold a value their schema rejects."""
    properties = schema.get("properties", {})
    bad = [name for name in schema.get("required", ()) if name not in arguments]
    bad += [name for name, value in arguments.items()
            if name not in properties or shape_error(value, properties[name])]
    if not bad:
        return bad
    # deterministic order: schema order first, then unknowns alphabetically
    order = {n: i for i, n in enumerate(properties)}
    return sorted(set(bad), key=lambda n: (order.get(n, len(order)), n))


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


_CATALOGS: dict[tuple[ToolDescriptor, ...], str] = {}


def _render_catalog(descriptors: tuple[ToolDescriptor, ...]) -> str:
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
    """Named tools with validated invocation; the tools are fixed when it is built."""

    def __init__(self, tools: Iterable[tuple[ToolDescriptor, Callable]]):
        self._tools: dict[str, tuple[ToolDescriptor, Callable]] = {}
        for descriptor, handler in tools:
            if descriptor.name in self._tools:
                raise RegistrationError(f"tool already registered: {descriptor.name}")
            self._tools[descriptor.name] = (descriptor, handler)
        # rendered once per process for each distinct descriptor sequence; two
        # threads that miss together both render and store equal text
        descriptors = tuple(self.descriptors())
        self._catalog = _CATALOGS.get(descriptors)
        if self._catalog is None:
            self._catalog = _CATALOGS[descriptors] = _render_catalog(descriptors)

    def descriptors(self) -> list[ToolDescriptor]:
        return [d for d, _ in self._tools.values()]

    def catalog_text(self) -> str:
        """Human/LLM readable tool list for prompt templates."""
        return self._catalog

    def invoke(self, call: ToolCall, trace: ActionTrace | None = None) -> ToolResult:
        """Run a tool call; a handler's text is its result, and its failure an error result.

        The one error raised is a ReplayMissError: a replay cannot go on past an unrecorded call."""
        if trace is not None:
            trace.add("tool_call", call=call.to_dict())
        entry = self._tools.get(call.tool_name)
        if entry is None:
            result = ToolResult(call.call_id, f"unknown_tool: {call.tool_name}", is_error=True)
        else:
            descriptor, handler = entry
            bad = validate_arguments(descriptor.input_schema, call.arguments)
            if bad:
                result = ToolResult(call.call_id, "invalid_arguments: " + ", ".join(bad),
                                    is_error=True)
            else:
                try:
                    result = ToolResult(call.call_id, handler(call.arguments))
                except ReplayMissError:
                    raise
                except Exception as exc:  # noqa: BLE001 - contract: never crash the session
                    result = ToolResult(call.call_id, str(exc), is_error=True)
        if trace is not None:
            trace.add("tool_result", result=result.to_dict(), tool=call.tool_name)
        return result
