"""URL placeholder table: abstract token-heavy spans, resolve them on demand."""

import json
import re
from functools import partial
from typing import NamedTuple
from urllib.parse import urlparse

from .errors import ReplayMissError, ResolutionError
from .memory import ContentPart, LongTermStore, Namespace, PartKind

DEFAULT_MIN_URL_LENGTH = 24
DEFAULT_DESCRIBE_INSTRUCTION = "Describe the image briefly."
# how the error text of resolving a placeholder the session never made begins
UNKNOWN_PLACEHOLDER = "unknown_placeholder"

URL_RE = re.compile(r"https?://[^\s<>\"']+")
_TRAILING_PUNCT = ".,;:!?)]\"'"

# A text or placeholder part built without ContentPart's image_ref URL check
_part = partial(tuple.__new__, ContentPart)

PLACEHOLDER_RE = re.compile(r"\[(Image|Product|Order|Video|Link) (\d+)\]")


class RefKind:
    IMAGE = "image"
    PRODUCT = "product"
    ORDER = "order"
    VIDEO = "video"
    OTHER = "other"


KIND_NAMES = {
    RefKind.IMAGE: "Image",
    RefKind.PRODUCT: "Product",
    RefKind.ORDER: "Order",
    RefKind.VIDEO: "Video",
    RefKind.OTHER: "Link",
}

IMAGE_SUFFIXES = (".jpg", ".jpeg", ".png", ".webp", ".gif")
VIDEO_SUFFIXES = (".mp4", ".mov")


# An http(s) URL of plain ASCII URL characters: no brackets, spaces, control
# characters or non-ASCII, so none of urlsplit's stripping, IPv6 or NFKC rules
# apply. The host runs to the first /, ? or #, the path to the first ? or #.
_URL_CHARS = r"\w\-.~:@!$&()*+,;=%"
_PLAIN_URL_RE = re.compile(
    rf"https?://([{_URL_CHARS}]*)([{_URL_CHARS}/]*)(?:[?#][{_URL_CHARS}/?#]*)?", re.ASCII)


def _host_and_path(url: str) -> tuple[str, str]:
    """urlparse(url)'s netloc and path; a ValueError wherever urlparse raises one."""
    m = _PLAIN_URL_RE.fullmatch(url)
    if m is None:
        parsed = urlparse(url)
        return parsed.netloc, parsed.path
    host, path = m.groups()
    if ";" in path:  # urlparse cuts ;params off the last segment
        cut = path.find(";", path.rfind("/"))
        if cut >= 0:
            path = path[:cut]
    return host, path


def classify_url(url: str) -> str:
    """Map a URL onto a reference kind via an ordered pattern table.

    A URL that urlsplit rejects (an unbalanced [ or ] in its host) is OTHER: a
    plain link, never looked up by the key in its path.
    """
    try:
        host, path = _host_and_path(url)
    except ValueError:
        return RefKind.OTHER
    path = path.lower()
    host = host.lower()
    if path.endswith(IMAGE_SUFFIXES):
        return RefKind.IMAGE
    if "/order/" in path:
        return RefKind.ORDER
    if "/item/" in path or "/product/" in path:
        return RefKind.PRODUCT
    if path.endswith(VIDEO_SUFFIXES) or "video" in host:
        return RefKind.VIDEO
    return RefKind.OTHER


def find_urls(text: str) -> list[tuple[int, int, str]]:
    """Maximal URL spans as (start, end, url), trailing punctuation trimmed."""
    spans = []
    for m in URL_RE.finditer(text):
        url = m.group(0).rstrip(_TRAILING_PUNCT)
        if url:
            spans.append((m.start(), m.start() + len(url), url))
    return spans


class PlaceholderEntry(NamedTuple):
    placeholder: str
    original: str
    kind: str
    # resolved descriptions cached per instruction; the entry's own dict
    resolved: dict[str, str]


class PlaceholderTable:
    """Session-local bidirectional map between long URLs and compact tokens.

    Numbering is dense and 1-based per kind, in order of first appearance;
    the same original never receives two placeholders.
    """

    def __init__(self, min_url_length: int = DEFAULT_MIN_URL_LENGTH):
        self.min_url_length = min_url_length
        self._entries: list[PlaceholderEntry] = []
        self._by_original: dict[str, PlaceholderEntry] = {}
        self._by_placeholder: dict[str, PlaceholderEntry] = {}
        self._counts: dict[str, int] = dict.fromkeys(KIND_NAMES, 0)

    @property
    def entries(self) -> tuple[PlaceholderEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, placeholder: str) -> PlaceholderEntry | None:
        return self._by_placeholder.get(placeholder)

    def intern(self, url: str) -> PlaceholderEntry:
        """Return the entry for a URL, creating one on first sight."""
        entry = self._by_original.get(url)
        if entry is not None:
            return entry
        kind = classify_url(url)
        self._counts[kind] += 1
        placeholder = f"[{KIND_NAMES[kind]} {self._counts[kind]}]"
        entry = PlaceholderEntry(placeholder, url, kind, {})
        self._entries.append(entry)
        self._by_original[url] = entry
        self._by_placeholder[placeholder] = entry
        return entry


def abstract_text(text: str, table: PlaceholderTable) -> str:
    """Replace every qualifying URL span with its placeholder token.

    Spans shorter than the table's minimum length and non-URL text are left
    byte-identical; repeated URLs reuse their existing placeholder.
    """
    return "".join(p.value for p in split_parts(text, table))


def deabstract_text(text: str, table: PlaceholderTable) -> tuple[str, list[str]]:
    """Substitute originals back in; unknown tokens stay verbatim and are reported."""
    warnings: list[str] = []

    def repl(m: re.Match) -> str:
        entry = table.lookup(m.group(0))
        if entry is None:
            warnings.append(m.group(0))
            return m.group(0)
        return entry.original

    return PLACEHOLDER_RE.sub(repl, text), warnings


def split_parts(
    text: str,
    table: PlaceholderTable,
    abstract_kinds: set[str] | None = None,
) -> tuple[ContentPart, ...]:
    """Split message text into content parts, abstracting selected URL kinds.

    Every qualifying URL is interned into the table so later placeholder
    references resolve, but only kinds in abstract_kinds are rewritten to
    placeholder parts. Image and video URLs left raw become image_ref
    parts; everything else stays text.
    """
    if "http" not in text:  # URL_RE matches only from an "http"
        return (_part((PartKind.TEXT, text)),)
    parts: list[ContentPart] = []
    cursor = 0
    for start, end, url in find_urls(text):
        if len(url) >= table.min_url_length:
            entry = table.intern(url)
            kind = entry.kind  # intern classified this very string
            if abstract_kinds is None or kind in abstract_kinds:
                if start > cursor:
                    parts.append(_part((PartKind.TEXT, text[cursor:start])))
                parts.append(_part((PartKind.PLACEHOLDER, entry.placeholder)))
                cursor = end
                continue
        else:
            kind = classify_url(url)
        if kind in (RefKind.IMAGE, RefKind.VIDEO):
            if start > cursor:
                parts.append(_part((PartKind.TEXT, text[cursor:start])))
            parts.append(ContentPart(PartKind.IMAGE_REF, url))
            cursor = end
    if cursor < len(text) or not parts:
        parts.append(_part((PartKind.TEXT, text[cursor:])))
    return tuple(parts)


def placeholder_parts(text: str) -> tuple[ContentPart, ...]:
    """Split already-abstracted text into text and placeholder parts."""
    parts: list[ContentPart] = []
    cursor = 0
    for m in PLACEHOLDER_RE.finditer(text):
        if m.start() > cursor:
            parts.append(ContentPart(PartKind.TEXT, text[cursor : m.start()]))
        parts.append(ContentPart(PartKind.PLACEHOLDER, m.group(0)))
        cursor = m.end()
    if cursor < len(text) or not parts:
        parts.append(ContentPart(PartKind.TEXT, text[cursor:]))
    return tuple(parts)


def _key_from_path(url: str, markers: tuple[str, ...]) -> str | None:
    segments = [s for s in _host_and_path(url)[1].split("/") if s]
    for i, seg in enumerate(segments):
        if seg in markers and i + 1 < len(segments):
            return segments[i + 1]
    return None


def resolve(
    placeholder: str,
    table: PlaceholderTable,
    vision,
    store: LongTermStore | None = None,
    instruction: str | None = None,
) -> str:
    """Produce a textual stand-in for a placeholder's original content.

    Image and video references go to the vision tool with the given (or
    default) instruction; product and order references are looked up in the
    long-term store by the key extracted from the URL path. Results are
    cached per (placeholder, instruction) so repeat queries cost nothing.
    Every failure is a ResolutionError but a ReplayMissError, which passes unwrapped.
    """
    entry = table.lookup(placeholder)
    if entry is None:
        raise ResolutionError(f"{UNKNOWN_PLACEHOLDER}: {placeholder}")
    cache_key = instruction if instruction is not None else ""
    if cache_key in entry.resolved:
        return entry.resolved[cache_key]

    if entry.kind in (RefKind.IMAGE, RefKind.VIDEO):
        try:
            text = vision.describe(instruction or DEFAULT_DESCRIBE_INSTRUCTION, entry.original)
        except ReplayMissError:
            raise
        except Exception as exc:
            raise ResolutionError(f"describe failed for {placeholder}: {exc}") from exc
    elif entry.kind in (RefKind.PRODUCT, RefKind.ORDER):
        if store is None:
            raise ResolutionError(f"no knowledge store available for {placeholder}")
        markers = ("product", "item") if entry.kind == RefKind.PRODUCT else ("order",)
        key = _key_from_path(entry.original, markers)
        if key is None:
            raise ResolutionError(f"no lookup key in {entry.original}")
        ns = Namespace.PRODUCT if entry.kind == RefKind.PRODUCT else Namespace.ORDER
        doc = store.get(ns, key)
        if doc is None:
            raise ResolutionError(f"no {ns} record for key {key!r}")
        text = json.dumps(doc.body, sort_keys=True, ensure_ascii=False)
    else:
        text = entry.original  # plain links resolve to themselves

    entry.resolved[cache_key] = text
    return text
