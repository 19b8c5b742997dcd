"""The one reader of input files and the one checker of their shapes.

Every read error is a ConfigError naming the file, and so is an output
directory that cannot be made (make_dir) or an output file that cannot be
written (writing_into). Shapes are schema dicts in a JSON Schema
2020-12 subset (https://json-schema.org/draft/2020-12): type (a name or a
list of names), properties, required, additionalProperties (false, or the
schema of every other key), items, enum, minimum, maximum, minLength and
minItems. Values are checked as json.loads returns them: nothing is coerced,
a boolean is never an integer or a number, and a number is finite, so NaN,
Infinity and a literal too large for a float are no numbers.
"""

import json
import math
import os
from contextlib import contextmanager

from .errors import ConfigError

_KINDS = {dict: "object", list: "array", str: "string", int: "integer", float: "number",
          bool: "boolean", type(None): "null"}  # the JSON type of each json.loads class
_NAMES = {"object": "an object", "array": "a list", "string": "a string", "integer": "an integer",
          "number": "a number", "boolean": "a boolean", "null": "null"}
OBJECT, LIST, STRING = {"type": "object"}, {"type": "array"}, {"type": "string"}


def closed(required: list[str], **properties: dict) -> dict:
    """The schema of an object with only these properties and the required ones present."""
    return {"type": "object", "required": required, "properties": properties,
            "additionalProperties": False}


def _fits(value, kind: str | list) -> bool:
    have = _KINDS.get(value.__class__)
    if have == "number" and not math.isfinite(value):
        return False
    kinds = (kind,) if kind.__class__ is str else kind
    return have in kinds or have == "integer" and "number" in kinds


def _in_enum(value, members: list) -> bool:
    """JSON enum membership: a boolean never matches a number (1.0 still matches 1)."""
    if value.__class__ is str:
        return value in members  # a string equals only a string
    is_bool = value.__class__ is bool
    return any(m == value and (m.__class__ is bool) == is_bool for m in members)


def _show(value) -> str:
    """A misfit value: an object or list by its type, a JSON scalar as the file writes it."""
    kind = _KINDS.get(value.__class__)
    if kind in ("object", "array"):
        return _NAMES[kind]
    return _json(value) if kind else repr(value)  # repr for what json.loads never returns


def _json(value) -> str:
    """A scalar as a JSON input file writes it: true, null, "lost"."""
    return json.dumps(value, ensure_ascii=False)


def _under(step: str, problem: tuple[str, str]) -> tuple[str, str]:
    path, why = problem
    return (f"{step}.{path}" if path and path[0] != "[" else step + path), why


def _first_problem(value, schema: dict) -> tuple[str, str] | None:
    """(path, why) at the first place value breaks schema; the path is built on failure only."""
    kind = schema.get("type")
    # a float always goes to _fits, which turns away the non-finite
    if (kind is not None and (kind != _KINDS.get(value.__class__) or value.__class__ is float)
            and not _fits(value, kind)):
        names = " or ".join(_NAMES[k] for k in ((kind,) if kind.__class__ is str else kind))
        return "", f"must be {names}, got {_show(value)}"
    if len(schema) == 1 and kind is not None:
        return None  # most leaves: a type and nothing more
    if "enum" in schema and not _in_enum(value, schema["enum"]):
        return "", f"must be one of {_json(schema['enum'])}, got {_show(value)}"
    if value.__class__ is dict:
        for name in schema.get("required", ()):
            if name not in value:
                return name, "missing"  # before any unknown key
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        if properties or extra is not True:
            for name, item in value.items():
                sub = properties.get(name, extra)
                if sub is False:
                    return name, "unknown key"
                if sub is not True and (problem := _first_problem(item, sub)):
                    return _under(name, problem)
    elif value.__class__ is list:
        if "minItems" in schema and len(value) < schema["minItems"]:
            return "", f"must have length >= {schema['minItems']}, got {len(value)}"
        if "items" in schema:
            for i, item in enumerate(value):
                if problem := _first_problem(item, schema["items"]):
                    return _under(f"[{i}]", problem)
    elif value.__class__ is str:
        if "minLength" in schema and len(value) < schema["minLength"]:
            return "", f"must have length >= {schema['minLength']}, got {_json(value)}"
    elif "minimum" in schema and _fits(value, "number") and value < schema["minimum"]:
        return "", f"must be >= {schema['minimum']}, got {_json(value)}"
    elif "maximum" in schema and _fits(value, "number") and value > schema["maximum"]:
        return "", f"must be <= {schema['maximum']}, got {_json(value)}"
    return None


def shape_error(value, schema: dict) -> str | None:
    """Where and why value first breaks schema, as "<path>: <why>"; None if it fits.

    The path joins keys with dots and list indices in brackets, as in
    shipments.O1[0].tick. An object reports a missing key before an unknown one.
    """
    problem = _first_problem(value, schema)
    return None if problem is None else f"{problem[0] or 'top level'}: {problem[1]}"


# the class each leaf type accepts without a further test (a float goes to shape_error,
# which turns away the non-finite)
_FAST_CLASS = {"object": dict, "array": list, "string": str, "integer": int, "number": int,
               "boolean": bool, "null": type(None)}
_LEAF_KEYS = frozenset({"type", "enum", "minLength", "minimum"})


def _fast_leaf(schema: dict) -> tuple | None:
    """(classes, string members or None, minLength, minimum or None) that accept only
    values shape_error accepts; None when schema is not a plain leaf."""
    if not schema or not schema.keys() <= _LEAF_KEYS:
        return None
    kind = schema.get("type")
    if kind is None:
        classes = {str}
    else:
        classes = {_FAST_CLASS[k] for k in ((kind,) if kind.__class__ is str else kind)
                   if k in _FAST_CLASS}
    members = None
    if "enum" in schema:  # only string members are taken without shape_error
        members = frozenset(m for m in schema["enum"] if m.__class__ is str)
        classes &= {str}
    return frozenset(classes), members, schema.get("minLength", 0), schema.get("minimum")


def compile_shape(schema: dict):
    """A checker with shape_error's contract for schema: value -> "<path>: <why>" or None.

    A closed object whose properties are plain leaves (type, enum, minLength,
    minimum) accepts a fitting value with one table lookup and one exact-class
    test per key, counting the required keys it meets. Every other value, and
    every other schema, goes to shape_error, the only source of refusal words.
    Build a checker once per schema; it keeps no state, so threads share it.
    """
    def check(value):
        return shape_error(value, schema)

    if (schema.keys() != {"type", "required", "properties", "additionalProperties"}
            or schema["type"] != "object" or schema["additionalProperties"] is not False):
        return check
    required = frozenset(schema["required"])
    leaves = {}
    for name, sub in schema["properties"].items():
        if (leaf := _fast_leaf(sub)) is None:
            return check
        leaves[name] = (*leaf, name in required)
    n_required = len(required)

    def check_closed(value):
        if value.__class__ is dict:
            met = 0
            for name, item in value.items():
                leaf = leaves.get(name)
                if leaf is None:
                    break  # an unknown key
                classes, members, min_length, minimum, needed = leaf
                cls = item.__class__
                if cls not in classes:
                    break
                if cls is str:
                    if len(item) < min_length or members is not None and item not in members:
                        break
                elif minimum is not None and cls is int and item < minimum:
                    break
                met += needed
            else:
                if met == n_required:
                    return None
        return shape_error(value, schema)

    return check_closed


def _unreadable(what: str, path, exc: OSError) -> ConfigError:
    why = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror
    return ConfigError(f"{what} {path} cannot be read: {why}")


def read_text(path, what: str) -> str:
    """The file decoded as UTF-8; what ("config file", ...) names it in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _unreadable(what, path, exc) from None
    except UnicodeDecodeError:
        raise ConfigError(f"{what} {path} is not UTF-8 text") from None


def make_dir(path, what: str) -> None:
    """Create the directory and its parents; what ("--out") names it in errors."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{what} {path} cannot be made a directory: {exc.strerror}") from None


@contextmanager
def writing_into(directory):
    """Turn an OSError from the block's writes under directory into a ConfigError."""
    try:
        yield
    except OSError as exc:
        path = exc.filename or directory
        raise ConfigError(f"output file {path} cannot be written: {exc.strerror}") from None


def parse_json(text: str, where: str, schema: dict | None = None):
    """text as JSON of the given shape (any if None); where names it in errors.

    A top level of the wrong type "must hold a JSON object" (or list); any
    other misfit is "<where>: <path>: <why>".
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too deep, or too long an integer
        raise ConfigError(f"{where} is not valid JSON: {exc}") from None
    if schema is not None:
        if not _fits(data, schema["type"]):
            noun = "list" if schema["type"] == "array" else "object"
            raise ConfigError(f"{where} must hold a JSON {noun}")
        if why := shape_error(data, schema):
            raise ConfigError(f"{where}: {why}")
    return data


def read_json(path, what: str, schema: dict | None = None):
    return parse_json(read_text(path, what), f"{what} {path}", schema)


def read_jsonl(path, what: str, schema: dict = OBJECT) -> list[tuple[int, dict]]:
    """(line number, object of the given shape) for each non-blank line of a JSON-lines file."""
    return [(line_no, parse_json(line, f"{what} {path} line {line_no}", schema))
            for line_no, line in enumerate(read_text(path, what).split("\n"), start=1)
            if line.strip()]


def parse_once(cache: dict, path, what: str, parse):
    """parse(path, text) once per file version, (st_mtime_ns, st_size), per process.

    cache maps a path to (version, parsed value); the value is shared by every
    caller and thread, so parse must return a value that is safe to share. Two
    threads that miss together both parse and store equal values.
    """
    path = os.fspath(path)
    try:
        st = os.stat(path)
    except OSError as exc:
        raise _unreadable(what, path, exc) from None
    hit = cache.get(path)
    if hit is not None and hit[0] == (st.st_mtime_ns, st.st_size):
        return hit[1]
    parsed = parse(path, read_text(path, what))
    cache[path] = ((st.st_mtime_ns, st.st_size), parsed)
    return parsed
