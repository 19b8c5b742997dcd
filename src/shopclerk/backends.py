"""Chat-completion contract and its three interchangeable backends."""

import json
import os
import time
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

from .errors import BackendError, ConfigError, ReplayMissError, ScriptError, UsageError
from .files import STRING, closed, parse_json, parse_once, read_json, shape_error


class ChatMessage(NamedTuple):
    role: str
    content: str
    image_refs: tuple[str, ...] = ()


class ChatRequest(namedtuple("_ChatRequest", "messages label_alphabet kind")):
    """A request at temperature 0 for a propose, evaluate or describe call (its kind).

    label_alphabet requests single-token classification over these labels."""

    __slots__ = ()

    def __new__(cls, messages: tuple[ChatMessage, ...],
                label_alphabet: tuple[str, ...] | None = None, kind: str = "propose"):
        if not messages:
            raise UsageError("chat request needs at least one message")
        return tuple.__new__(cls, (messages, label_alphabet, kind))

    def prompt_chars(self) -> int:
        chars = 0
        for message in self.messages:
            chars += len(message.content)
            for ref in message.image_refs:
                chars += len(ref)
        return chars

    def last_content(self) -> str:
        return self.messages[-1].content


class ChatResponse(namedtuple("_ChatResponse", "text label_probs")):
    __slots__ = ()

    def __new__(cls, text: str, label_probs: dict | None = None):
        if label_probs is not None:
            if not all(p >= 0 for p in label_probs.values()):  # NaN fails too
                raise UsageError("label probabilities must be nonnegative")
            if sum(label_probs.values()) > 1.0 + 1e-9:
                raise UsageError("label probabilities must sum to at most 1")
        return tuple.__new__(cls, (text, label_probs))


def request_digest(request: ChatRequest) -> str:
    """Stable content hash. kind is left out; max_tokens is 1 with labels, as stores hashed it."""
    import hashlib

    payload = {
        "messages": [
            {"role": m.role, "content": m.content, "image_refs": list(m.image_refs)}
            for m in request.messages
        ],
        "max_tokens": 1 if request.label_alphabet else None,
        "label_alphabet": list(request.label_alphabet) if request.label_alphabet else None,
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8", "surrogatepass")
    return hashlib.sha256(blob).hexdigest()


class ScriptEntry(NamedTuple):
    """One canned response, fired when its needle occurs in the last message."""

    contains: str
    response: ChatResponse


# A scripted or recorded response; a store holds null label_probs for a response without.
_RESPONSE = closed([], text=STRING, label_probs={
    "type": ["object", "null"], "additionalProperties": {"type": "number"}})
SCRIPT_SCHEMA = closed([], entries={"type": "array", "items": closed(
    ["contains", "response"], contains=STRING, response=_RESPONSE)})
# A replay store maps each request digest to its one recorded response. No
# episode sends one request twice, so one response per digest replays it.
STORE_SCHEMA = {"type": "object", "additionalProperties": _RESPONSE}


def _response_from_dict(row: dict, where: str) -> ChatResponse:
    """A response row of the checked shape; where names it if its label_probs are bad."""
    try:
        return ChatResponse(text=row.get("text", ""), label_probs=row.get("label_probs"))
    except UsageError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _first_in(needles: list[tuple[int, str]], text: str, miss: int) -> int:
    """The index of the first needle that occurs in text, else miss."""
    for i, needle in needles:
        if needle in text:
            return i
    return miss


# Scripts this long are matched from the shared line memo. A session makes about one
# call per entry, and since the memo is shared by every episode of a script file
# version only the first session of a script is cold. Per call on generated
# order-desk scripts, median of 60 sessions at each of two seeds on a 2-vCPU host
# (loop / warm memo / memo over one cold session, in us):
#    8 entries: 3.5-3.7   / 6.6-6.7   / 12.6-12.9
#   16 entries: 7.0-7.1   / 7.6-8.0   / 14.6-15.4
#   24 entries: 12.1-13.3 / 9.4-9.7   / 18.0-18.8
#   32 entries: 18.2-18.9 / 11.1-11.9 / 21.2-22.7
#   36 entries: 21.4      / 11.5-11.9 / 22.2-22.5
#   40 entries: 25.5-26.0 / 12.2-12.6 / 23.6-24.1
# The warm memo wins from 24 entries on; over a cold session it first stops losing at 40.
LINE_MEMO_MIN_ENTRIES = 40


class ScriptedBackend:
    """Deterministic backend serving canned responses.

    The first entry (file order) whose needle occurs in the last message
    fires, and every entry fires as often as it matches, so a backend keeps
    no state across calls but its line memo.

    Scripts of at least LINE_MEMO_MIN_ENTRIES entries are matched line by
    line: a needle without a newline can only occur inside one line, so the
    lowest index of such a needle in each line is memoized, and only the
    needles that span lines are searched in the whole message. A memo value
    is a pure function of its line and the needles, so the one backend that
    load_script builds per script file version serves every episode, on any
    thread: two that miss on a line together store the same index.
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        self.needles = [(i, entry.contains) for i, entry in enumerate(self.entries)]
        self.line_memo: dict[str, int] | None = None
        if len(self.entries) >= LINE_MEMO_MIN_ENTRIES:
            self.line_memo = {}
            self.line_needles = [(i, n) for i, n in self.needles if "\n" not in n]
            self.span_needles = [(i, n) for i, n in self.needles if "\n" in n]

    @staticmethod
    def from_file(path: str | Path) -> "ScriptedBackend":
        return load_script(path)

    def complete(self, request: ChatRequest) -> ChatResponse:
        last = request.last_content()
        miss = hit = len(self.entries)
        memo = self.line_memo
        if memo is None:
            hit = _first_in(self.needles, last, miss)
        else:
            for line in last.split("\n"):
                index = memo.get(line)
                if index is None:
                    index = memo[line] = _first_in(self.line_needles, line, miss)
                if index < hit:
                    hit = index
            for i, needle in self.span_needles:
                if i >= hit:
                    break
                if needle in last:
                    hit = i
                    break
        if hit < miss:
            return self.entries[hit].response
        raise ScriptError(f"no script entry matches; last message starts with: {last[:200]!r}")


def _parse_script(path: str, text: str) -> ScriptedBackend:
    rows = parse_json(text, f"script file {path}", SCRIPT_SCHEMA).get("entries", [])
    return ScriptedBackend(
        ScriptEntry(row["contains"],
                    _response_from_dict(row["response"], f"script file {path}: entry {i} response"))
        for i, row in enumerate(rows))


_SCRIPTS: dict[str, tuple[tuple[int, int], ScriptedBackend]] = {}


def load_script(path: str | Path) -> ScriptedBackend:
    """A script file's backend, built once per file version and shared by every caller."""
    return parse_once(_SCRIPTS, path, "script file", _parse_script)


def _read_store(path) -> dict[str, ChatResponse]:
    return {digest: _response_from_dict(row, f"replay store {path}: digest {digest}")
            for digest, row in read_json(path, "replay store", STORE_SCHEMA).items()}


class RecordingBackend:
    """Wraps a live backend and writes (digest, response) pairs to a store.

    The first response recorded for a digest is kept. Each write goes to a
    temporary file that then replaces the store, so a crash mid-write leaves
    the previous store whole. A store whose directory is missing is a
    ConfigError; a failed write is a BackendError.
    """

    def __init__(self, inner, store_path: str | Path):
        self.inner = inner
        self.store_path = Path(store_path)
        if not self.store_path.parent.is_dir():
            raise ConfigError(f"record store {store_path}: directory "
                              f"{self.store_path.parent} does not exist")
        self._store = _read_store(store_path) if self.store_path.exists() else {}

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self.inner.complete(request)
        self._store.setdefault(request_digest(request), response)
        rows = {digest: r._asdict() for digest, r in self._store.items()}
        partial = self.store_path.with_name(self.store_path.name + ".partial")
        try:
            partial.write_text(json.dumps(rows, sort_keys=True, indent=1), encoding="utf-8")
            os.replace(partial, self.store_path)
        except OSError as exc:
            raise BackendError(f"cannot write record store {self.store_path}: {exc}") from exc
        return response


class ReplayBackend:
    """Serves each request its recorded response; an unseen request fails loudly.

    The store is read once, at construction, and a lookup changes nothing, so
    one backend serves every episode of a command, on any thread."""

    def __init__(self, store_path: str | Path):
        self._store = _read_store(store_path)

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request_digest(request)
        recorded = self._store.get(digest)
        if recorded is None:
            raise ReplayMissError(
                f"no recorded {request.kind} response for request digest "
                f"{digest}; request was: {json.dumps([m.content for m in request.messages])[:500]}"
            )
        return recorded


REMOTE_URL_ENV = "SHOPCLERK_CHAT_URL"
REMOTE_KEY_ENV = "SHOPCLERK_CHAT_KEY"
REMOTE_MODEL_ENV = "SHOPCLERK_CHAT_MODEL"
REMOTE_RETRIES = 2  # extra attempts after a retryable failure
REMOTE_BACKOFF_S = 0.5  # fixed pause before each retry
REMOTE_RETRY_STATUSES = frozenset({408, 429})  # the 4xx statuses worth retrying; 5xx all are
# The parts of a chat-completions reply that complete reads; other keys are ignored.
_TOP_LOGPROB = {"type": "object", "required": ["token", "logprob"], "properties": {
    "token": STRING, "logprob": {"type": "number", "maximum": 0}}}
REPLY_SCHEMA = {"type": "object", "required": ["choices"], "properties": {
    "choices": {"type": "array", "minItems": 1, "items": {
        "type": "object", "required": ["message"], "properties": {
            "message": {"type": "object", "required": ["content"], "properties": {
                "content": {"type": ["string", "null"]}}},
            "logprobs": {"type": ["object", "null"], "properties": {
                "content": {"type": ["array", "null"], "items": {
                    "type": "object", "properties": {"top_logprobs": {
                        "type": ["array", "null"], "items": _TOP_LOGPROB}}}}}}}}}}}


class RemoteBackend:
    """JSON-over-HTTP chat client; endpoint and key come from the environment.

    The request body follows the common chat-completions shape; see README
    for the exact field mapping. A connection failure, an undecodable body,
    a 5xx, 408 or 429 is retried REMOTE_RETRIES times, REMOTE_BACKOFF_S apart;
    any other 4xx and a reply of the wrong shape are not.
    """

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 model: str | None = None, session=None):
        self.base_url = base_url or os.environ.get(REMOTE_URL_ENV)
        self.api_key = api_key or os.environ.get(REMOTE_KEY_ENV)
        self.model = model or os.environ.get(REMOTE_MODEL_ENV, "default")
        if not self.base_url:
            raise ConfigError(f"remote backend selected but {REMOTE_URL_ENV} is not set")
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def complete(self, request: ChatRequest) -> ChatResponse:
        body = {
            "model": self.model,
            "messages": [{"role": m.role, "content": _content(m)} for m in request.messages],
            "temperature": 0.0,
        }
        if request.label_alphabet:
            # alternatives come back only when asked for, at most 20 of them
            body["logprobs"] = True
            body["top_logprobs"] = min(len(request.label_alphabet), 20)
            body["max_tokens"] = 1
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        attempts = REMOTE_RETRIES + 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(REMOTE_BACKOFF_S)
            try:
                reply = self.session.post(
                    self.base_url.rstrip("/") + "/chat/completions",
                    json=body, headers=headers, timeout=60,
                )
                status = reply.status_code
                if status < 400:
                    data = reply.json()
                    break
            except Exception as exc:  # connection failure or undecodable body
                failure = exc
                continue
            if status < 500 and status not in REMOTE_RETRY_STATUSES:
                raise BackendError(f"remote chat call rejected: http {status}")
            failure = BackendError(f"http {status}")
        else:
            raise BackendError(
                f"remote chat call failed after {attempts} attempts: {failure}"
            ) from failure
        if why := shape_error(data, REPLY_SCHEMA):
            raise BackendError(f"unexpected remote response shape: {why}")
        choice = data["choices"][0]
        label_probs = None
        if request.label_alphabet and choice.get("logprobs"):
            label_probs = _extract_label_probs(choice["logprobs"], request.label_alphabet)
        return ChatResponse(text=choice["message"]["content"] or "", label_probs=label_probs)


def _content(message: ChatMessage) -> str | list[dict]:
    """A message's text, or its text and images as content parts."""
    if not message.image_refs:
        return message.content
    return [{"type": "text", "text": message.content}] + [
        {"type": "image_url", "image_url": {"url": ref}} for ref in message.image_refs]


def _extract_label_probs(logprobs: dict, alphabet: tuple[str, ...]) -> dict | None:
    """Pull per-label probabilities from a provider logprobs block, if present."""
    import math

    entries = logprobs.get("content") or []
    if not entries:
        return None
    top = entries[0].get("top_logprobs") or []
    probs = {}
    for item in top:
        token = item["token"].strip()
        if token in alphabet:
            probs[token] = probs.get(token, 0.0) + math.exp(item["logprob"])
    total = max(sum(probs.values()), 1.0)  # "A" and " A" add up, and may round past 1
    return {token: p / total for token, p in probs.items()} or None
