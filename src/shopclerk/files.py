"""The one reader of input files: every read error is a ConfigError naming the file."""

import json
import os

from .errors import ConfigError


def _unreadable(what: str, path, exc: OSError, error=ConfigError):
    why = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror
    return error(f"{what} {path} cannot be read: {why}")


def read_text(path, what: str, error=ConfigError) -> str:
    """The file decoded as UTF-8; what ("config file", ...) names it in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _unreadable(what, path, exc, error) from None
    except UnicodeDecodeError:
        raise error(f"{what} {path} is not UTF-8 text") from None


def parse_json(text: str, where: str, kind: type | None = None, error=ConfigError):
    """text as JSON of top-level type kind (any if None); where names it in errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where} is not valid JSON: {exc}") from None
    if kind is not None and not isinstance(data, kind):
        raise error(f"{where} must hold a JSON {'object' if kind is dict else 'list'}")
    return data


def read_json(path, what: str, kind: type | None = None, error=ConfigError):
    return parse_json(read_text(path, what, error), f"{what} {path}", kind, error)


def read_jsonl(path, what: str) -> list[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSON-lines file."""
    return [(line_no, parse_json(line, f"{what} {path} line {line_no}", dict))
            for line_no, line in enumerate(read_text(path, what).split("\n"), start=1)
            if line.strip()]


def parse_once(cache: dict, path, what: str, parse):
    """parse(path, text) once per file version, (st_mtime_ns, st_size), per process.

    cache maps a path to (version, parsed value); the value is shared by every
    caller, so parse must return an immutable object. Two threads that miss
    together both parse and store equal values.
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
