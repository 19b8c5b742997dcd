"""Dialogue working memory and the namespaced long-term knowledge store."""

import heapq
import json
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

from .errors import ClerkError, ConfigError, SchemaError, SequencingError, UsageError
from .files import STRING, closed, read_jsonl

ELISION_MARKER = "[earlier turns omitted]"


class Role:
    BUYER = "buyer"
    AGENT = "agent"
    TOOL = "tool"
    SYSTEM = "system"


class PartKind:
    TEXT = "text"
    IMAGE_REF = "image_ref"
    PLACEHOLDER = "placeholder"


ROLES = (Role.BUYER, Role.AGENT, Role.TOOL, Role.SYSTEM)
PART_KINDS = (PartKind.TEXT, PartKind.IMAGE_REF, PartKind.PLACEHOLDER)


class ContentPart(namedtuple("_ContentPart", "kind value")):
    __slots__ = ()

    def __new__(cls, kind: str, value: str):
        if kind == PartKind.IMAGE_REF and not value.startswith(("http://", "https://")):
            raise SchemaError(f"image_ref value is not a URL: {value!r}")
        return tuple.__new__(cls, (kind, value))


class Message(namedtuple("_Message", "role parts turn_index timestamp")):
    __slots__ = ()

    def __new__(cls, role: str, parts: tuple[ContentPart, ...], turn_index: int,
                timestamp: int = 0):
        if not parts:
            raise SchemaError("message must carry at least one content part")
        if turn_index < 0:
            raise SchemaError("turn_index must be non-negative")
        return tuple.__new__(cls, (role, tuple(parts), turn_index, timestamp))

    def text(self) -> str:
        """Concatenation of all part values, image refs and placeholders inline."""
        return "".join(p.value for p in self.parts)


def text_message(role: str, text: str, turn_index: int, timestamp: int = 0) -> Message:
    return Message(role, (ContentPart(PartKind.TEXT, text),), turn_index, timestamp)


class WorkingMemory:
    """Append-only per-session transcript.

    Each message is rendered once, when it is appended: messages are frozen
    and the transcript only grows, so a cached line never goes stale.
    _offsets[i] is the size of the first i lines, each counted with its newline;
    _last_buyer is the index of the newest buyer line, -1 before the first.
    """

    def __init__(self, session_id: str):
        self.session_id = session_id
        self._turns: list[Message] = []
        self._lines: list[str] = []
        self._offsets: list[int] = [0]
        self._last_buyer = -1

    @property
    def turns(self) -> tuple[Message, ...]:
        return tuple(self._turns)

    def __len__(self) -> int:
        return len(self._turns)

    def append_turn(self, msg: Message) -> None:
        if msg.turn_index != len(self._turns):
            raise SequencingError(
                f"expected turn_index {len(self._turns)}, got {msg.turn_index}"
            )
        line = render_turn(msg)
        if msg.role == Role.BUYER:
            self._last_buyer = len(self._lines)
        self._turns.append(msg)
        self._lines.append(line)
        self._offsets.append(self._offsets[-1] + len(line) + 1)


def render_turn(msg: Message) -> str:
    return f"[{msg.role}] {msg.text()}"


def render_context(wm: WorkingMemory, budget: int, block: int = 1) -> str:
    """Render the transcript as role-tagged lines within a character budget.

    The most recent turns are always kept; when the full transcript does not
    fit, the oldest turns are dropped in whole blocks of `block` lines and
    ELISION_MARKER is prepended. Block boundaries sit at fixed line indices,
    so the first kept line stays put while the transcript grows and the
    rendered prefix stays cacheable. The newest buyer line and the newest
    line are each kept whenever they fit with the marker, even when that
    means starting inside a block.
    """
    if budget <= 0:
        raise UsageError(f"render budget must be positive, got {budget}")
    if block < 1:
        raise UsageError(f"elision block must be positive, got {block}")
    lines, offsets = wm._lines, wm._offsets
    total = offsets[-1]  # the full join plus one newline
    if total - 1 <= budget:
        return "\n".join(lines)
    # lines[start:] is the longest suffix with marker + its lines <= budget
    start = bisect_left(offsets, len(ELISION_MARKER) + total - budget)
    if start == len(offsets):
        return ""  # even the marker alone is over budget
    if start < len(lines):
        keep = wm._last_buyer if start <= wm._last_buyer else len(lines) - 1
        start = min(-(-start // block) * block, keep)
    return "\n".join([ELISION_MARKER, *lines[start:]])


# --- transcript persistence (one JSON object per line, append-only) ---


def message_to_dict(msg: Message, session_id: str) -> dict:
    return {
        "session_id": session_id,
        "turn_index": msg.turn_index,
        "role": msg.role,
        "timestamp": msg.timestamp,
        "parts": [{"kind": p.kind, "value": p.value} for p in msg.parts],
    }


# one transcript line, as message_to_dict writes it; timestamp may be left out (0)
TRANSCRIPT_ROW_SCHEMA = closed(
    ["session_id", "turn_index", "role", "parts"], session_id=STRING,
    turn_index={"type": "integer", "minimum": 0}, role={"enum": list(ROLES)},
    timestamp={"type": "integer"},
    parts={"type": "array", "minItems": 1, "items": closed(
        ["kind", "value"], kind={"enum": list(PART_KINDS)}, value=STRING)})


def message_from_dict(row: dict) -> Message:
    parts = tuple(ContentPart(p["kind"], p["value"]) for p in row["parts"])
    return Message(row["role"], parts, row["turn_index"], row.get("timestamp", 0))


def write_transcript(wm: WorkingMemory, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for msg in wm.turns:
            fh.write(json.dumps(message_to_dict(msg, wm.session_id), sort_keys=True))
            fh.write("\n")


def read_transcript(path: str | Path) -> WorkingMemory:
    wm: WorkingMemory | None = None
    for line_no, row in read_jsonl(path, "transcript", TRANSCRIPT_ROW_SCHEMA):
        if wm is None:
            wm = WorkingMemory(row["session_id"])
        elif row["session_id"] != wm.session_id:
            raise ConfigError(f"transcript {path} line {line_no} is in session "
                              f"{row['session_id']!r}, not {wm.session_id!r}")
        try:
            wm.append_turn(message_from_dict(row))
        except ClerkError as exc:  # an image_ref that is no URL, or a turn out of order
            raise ConfigError(f"transcript {path} line {line_no} is not the next message: "
                              f"{type(exc).__name__}: {exc}") from None
    if wm is None:
        raise ConfigError(f"transcript {path} holds no messages")
    return wm


# --- long-term store ---


class Namespace:
    PLATFORM_POLICY = "platform_policy"
    STORE_PROMOTION = "store_promotion"
    PRODUCT = "product"
    ORDER = "order"
    LOGISTICS = "logistics"
    BUYER_PROFILE = "buyer_profile"


NAMESPACES = (Namespace.PLATFORM_POLICY, Namespace.STORE_PROMOTION, Namespace.PRODUCT,
              Namespace.ORDER, Namespace.LOGISTICS, Namespace.BUYER_PROFILE)
WORLD_NAMESPACES = frozenset({Namespace.PRODUCT, Namespace.ORDER, Namespace.LOGISTICS})


class Document(NamedTuple):
    """A document and its search tokens, made when it is built (see document())."""

    key: str
    body: object  # structured map or plain text
    tokens: frozenset[str]


def document(key: str, body: object) -> Document:
    """A document for searching, tokenized now."""
    return Document(key, body, _flatten_tokens(body))


def _flatten_tokens(body: object) -> frozenset[str]:
    """Case-folded whitespace tokens of a document body, keys included."""
    chunks: list[str] = []

    def walk(node):
        if isinstance(node, dict):
            for k, v in node.items():
                chunks.append(str(k))
                walk(v)
        elif isinstance(node, (list, tuple)):
            for v in node:
                walk(v)
        else:
            chunks.append(str(node))

    walk(body)
    return frozenset(" ".join(chunks).casefold().split())


def _rank(docs: Iterable[Document], query_tokens: frozenset[str], limit: int) -> list[Document]:
    """Documents ranked by distinct query-token overlap, ties by key."""
    hits = [(-score, doc.key, doc) for doc in docs if (score := len(query_tokens & doc.tokens))]
    # keys are unique in a namespace, so the document itself is never compared
    return [doc for _, _, doc in heapq.nsmallest(limit, hits)]


class Corpus:
    """A read-only document table with a token index, built once.

    Bit i of ``_masks[token]`` is set when the i-th document in key order holds the
    token, so a search ORs and ANDs a few integers instead of scoring every document.
    Nothing writes to a corpus (a store keeps its own puts beside it), so the index
    never goes stale and threads share it without a lock.
    """

    __slots__ = ("docs", "_ordered", "_masks")

    def __init__(self, docs: dict[str, Document]):
        self.docs = docs
        self._ordered = [docs[key] for key in sorted(docs)]
        masks: dict[str, int] = {}
        for i, doc in enumerate(self._ordered):
            for token in doc.tokens:
                masks[token] = masks.get(token, 0) | 1 << i
        self._masks = masks

    def rank(self, query_tokens: frozenset[str], limit: int) -> list[Document]:
        """What _rank returns for this table, read from the index."""
        # at_least[s] holds the documents that hold more than s of the query tokens
        at_least: list[int] = []
        for token in query_tokens:
            if mask := self._masks.get(token, 0):
                at_least.append(0)
                for s in range(len(at_least) - 1, 0, -1):
                    at_least[s] |= at_least[s - 1] & mask
                at_least[0] |= mask
        ranked: list[Document] = []
        above = 0
        for level in reversed(at_least):  # best score first
            exact, above = level & ~above, level
            while exact:  # lowest bit first, so ties go by key
                low = exact & -exact
                ranked.append(self._ordered[low.bit_length() - 1])
                if len(ranked) == limit:
                    return ranked
                exact ^= low
        return ranked


_NO_CORPUS = Corpus({})


class LongTermStore:
    """Domain knowledge keyed by (namespace, key); last write wins.

    WORLD_NAMESPACES are read-only, served from the store's world. Every other
    namespace is a pair: the world's shared policy corpus (empty when it seeds none),
    never written, and a dict of the store's own puts, which hide corpus keys.
    """

    def __init__(self, world):
        self._world = world
        self._tables = {ns: (world.policies.get(ns, _NO_CORPUS), {})
                        for ns in NAMESPACES if ns not in WORLD_NAMESPACES}

    @staticmethod
    def _namespace(namespace: str) -> str:
        if namespace not in NAMESPACES:  # a tuple, so an unhashable value is unknown too
            raise SchemaError(f"unknown namespace: {namespace!r}")
        return namespace

    def put(self, namespace: str, key: str, body: object) -> None:
        ns = self._namespace(namespace)
        if ns in WORLD_NAMESPACES:
            raise SchemaError(f"read-only namespace: {ns} records come from the world")
        if not key:
            raise SchemaError("document key must be non-empty")
        self._tables[ns][1][key] = document(key, body)

    def get(self, namespace: str, key: str) -> Document | None:
        ns = self._namespace(namespace)
        if ns in WORLD_NAMESPACES:
            body = self._world.doc(ns, key)
            return None if body is None else document(key, body)
        corpus, written = self._tables[ns]
        return written.get(key) or corpus.docs.get(key)

    def search(self, namespace: str, query: str, limit: int) -> list[Document]:
        """Documents ranked by distinct query-token overlap, ties by key."""
        if limit < 1:
            raise UsageError("search limit must be >= 1")
        ns = self._namespace(namespace)
        query_tokens = frozenset(query.casefold().split())
        if ns in WORLD_NAMESPACES:  # world records change under order actions: tokenized per search
            world = self._world
            corpus, written = _NO_CORPUS, {key: document(key, world.doc(ns, key))
                                           for key in world.doc_keys(ns)}
        else:
            corpus, written = self._tables[ns]
        # each written key hides at most one corpus document, so this many are enough
        seeded = corpus.rank(query_tokens, limit + len(written))
        if not written:
            return seeded
        return _rank([*(doc for doc in seeded if doc.key not in written), *written.values()],
                     query_tokens, limit)
