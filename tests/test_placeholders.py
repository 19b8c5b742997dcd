import random
from urllib.parse import urlparse

import pytest

from conftest import DescribeCounter, url_corpus
from shopclerk import placeholders
from shopclerk.errors import ReplayMissError, ResolutionError
from shopclerk.memory import ContentPart, LongTermStore, PartKind
from shopclerk.placeholders import (
    IMAGE_SUFFIXES,
    KIND_NAMES,
    PLACEHOLDER_RE,
    VIDEO_SUFFIXES,
    PlaceholderTable,
    RefKind,
    abstract_text,
    classify_url,
    deabstract_text,
    find_urls,
    resolve,
    split_parts,
)
from shopclerk.vision import FixtureVisionBackend
from shopclerk.world import World, world_from_dict

IMG = "https://img.shop.example/a/b/c/damage-photo.jpg"
ORDER_URL = "https://shop.example/order/O-8842/detail"
IMG2 = "https://img.shop.example/x/y/photo2.png"


def suffix_kind_oracle(url: str) -> str:
    """Independent re-derivation of the kind patterns for spot checks."""
    path = url.split("?")[0].split("://", 1)[1]
    path = "/" + path.split("/", 1)[1] if "/" in path else ""
    lowered = path.lower()
    if lowered.endswith((".jpg", ".jpeg", ".png", ".webp", ".gif")):
        return "image"
    if "/order/" in lowered:
        return "order"
    if "/item/" in lowered or "/product/" in lowered:
        return "product"
    if lowered.endswith((".mp4", ".mov")):
        return "video"
    return "other"


def test_classify_matches_oracle_on_examples():
    for url in (IMG, ORDER_URL, IMG2,
                "https://shop.example/product/P-55/specs",
                "https://media.shop.example/clips/a.mp4",
                "https://docs.shop.example/guides/setup.pdf"):
        assert classify_url(url) == suffix_kind_oracle(url)


def urlparse_kind(url: str) -> RefKind:
    """The kind table over urlparse's own split of every URL."""
    try:
        parsed = urlparse(url)
    except ValueError:
        return RefKind.OTHER
    path, host = parsed.path.lower(), parsed.netloc.lower()
    if path.endswith(IMAGE_SUFFIXES):
        return RefKind.IMAGE
    if "/order/" in path:
        return RefKind.ORDER
    if "/item/" in path or "/product/" in path:
        return RefKind.PRODUCT
    if path.endswith(VIDEO_SUFFIXES) or "video" in host:
        return RefKind.VIDEO
    return RefKind.OTHER


# plain ASCII URL pieces, and pieces that urlsplit strips, rejects or normalizes:
# brackets, spaces, control characters, non-ASCII and NFKC-sensitive characters
PLAIN_PIECES = list("aZ09-._~:@!$&()*+,;=%/?#") + [
    "//", ";v=2", "?q=1", "#top", "/order/", "/item/", "/product/", "/P-100", ".jpg", ".PNG",
    ".mp4", "video", "http://"]
NOISE_PIECES = list("[] \t\n\r\x00\x1féüª½℀／？＃'\"<>^`{}|\\") + ["ｖideo", "\u0301"]
SCHEMES = ["http://", "https://", "HTTP://", "Https://", "http:", "http:/", " http://",
           "\thttp://", "ftp://", ""]


def random_url(rng: random.Random) -> str:
    noise = rng.choice([0.0, 0.0, 0.05, 0.3, 1.0])
    pieces = [rng.choice(NOISE_PIECES if rng.random() < noise else PLAIN_PIECES)
              for _ in range(rng.randint(0, 16))]
    scheme = rng.choice(SCHEMES[:2] if rng.random() < 0.6 else SCHEMES)
    return scheme + "".join(pieces)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classify_url_matches_urlparse_on_random_urls(seed):
    rng = random.Random(seed)
    urls = [random_url(rng) for _ in range(20_000)]
    plain = set("".join(PLAIN_PIECES))
    assert sum(u.startswith(("http://", "https://")) and set(u) <= plain for u in urls) > 3_000
    for url in urls:
        assert classify_url(url) is urlparse_kind(url), url


def test_abstract_single_image():
    table = PlaceholderTable()
    out = abstract_text(f"see {IMG} please", table)
    assert out == "see [Image 1] please"
    assert len(table) == 1
    assert table.entries[0].kind == RefKind.IMAGE


def test_url_with_an_unbalanced_bracket_in_its_host_is_a_plain_link():
    # urlsplit rejects the host as an invalid IPv6 literal, so its order path is never looked up
    url = "https://[shop.example/order/O-1001"
    assert classify_url(url) == RefKind.OTHER
    table = PlaceholderTable()
    assert abstract_text(f"see {url}", table) == "see [Link 1]"
    assert resolve("[Link 1]", table, vision=None, store=None) == url  # no lookup attempted


def test_abstract_same_url_twice_one_entry():
    table = PlaceholderTable()
    out = abstract_text(f"{IMG} and again {IMG}", table)
    assert out == "[Image 1] and again [Image 1]"
    assert len(table) == 1


def test_abstract_mixed_kinds_derived():
    # kind oracle: ORDER_URL -> order, IMG2 -> image
    assert suffix_kind_oracle(ORDER_URL) == "order"
    assert suffix_kind_oracle(IMG2) == "image"
    table = PlaceholderTable()
    out = abstract_text(f"order {ORDER_URL} and {IMG2}", table)
    assert out == "order [Order 1] and [Image 1]"


def test_short_urls_left_alone():
    table = PlaceholderTable()
    text = "tiny https://s.ex/1 link"
    assert abstract_text(text, table) == text
    assert len(table) == 0


def test_trailing_punctuation_not_swallowed():
    table = PlaceholderTable()
    out = abstract_text(f"look: {IMG}.", table)
    assert out == "look: [Image 1]."


def test_deabstract_restores_original():
    table = PlaceholderTable()
    abstract_text(f"see {IMG}", table)
    text, warnings = deabstract_text("here: [Image 1]", table)
    assert text == f"here: {IMG}"
    assert warnings == []


def test_deabstract_unknown_left_verbatim_with_warning():
    table = PlaceholderTable()
    text, warnings = deabstract_text("see [Image 9] now", table)
    assert text == "see [Image 9] now"
    assert warnings == ["[Image 9]"]


def test_properties_over_generated_corpus():
    messages = url_corpus(seed=11, count=120)
    table = PlaceholderTable()
    substituted_any = False
    for message in messages:
        once = abstract_text(message, table)
        twice = abstract_text(once, table)
        assert twice == once  # idempotent
        restored, warnings = deabstract_text(once, table)
        assert restored == message  # round trip
        assert warnings == []
        assert len(once) <= len(message)  # compaction
        if once != message:
            substituted_any = True
            assert len(once) < len(message)
    assert substituted_any
    # dense per-kind numbering in order of first appearance
    by_kind = {}
    for entry in table.entries:
        by_kind.setdefault(entry.kind, []).append(entry.placeholder)
    assert set(by_kind) == set(KIND_NAMES)  # corpus covers every kind
    for tokens in by_kind.values():
        name = tokens[0].strip("[]").split()[0]
        assert tokens == [f"[{name} {i}]" for i in range(1, len(tokens) + 1)]


def test_split_parts_abstracts_selected_kinds_only():
    table = PlaceholderTable()
    text = f"photo {IMG} and order {ORDER_URL} end"
    parts = split_parts(text, table, abstract_kinds={RefKind.ORDER, RefKind.PRODUCT, RefKind.OTHER})
    kinds = [p.kind for p in parts]
    assert PartKind.IMAGE_REF in kinds  # image left raw
    assert any(p.kind == PartKind.PLACEHOLDER and p.value == "[Order 1]" for p in parts)
    assert "".join(p.value for p in parts) == f"photo {IMG} and order [Order 1] end"
    # both URLs are tracked even though only one was rewritten
    assert len(table) == 2


def reference_split_parts(text, table, abstract_kinds):
    """The former loop, which classified every URL again, interned or not."""
    parts, cursor = [], 0
    for start, end, url in find_urls(text):
        kind = classify_url(url)
        if table is not None and len(url) >= table.min_url_length:
            entry = table.intern(url)
            if abstract_kinds is None or kind in abstract_kinds:
                if text[cursor:start]:
                    parts.append(ContentPart(PartKind.TEXT, text[cursor:start]))
                parts.append(ContentPart(PartKind.PLACEHOLDER, entry.placeholder))
                cursor = end
                continue
        if kind in (RefKind.IMAGE, RefKind.VIDEO):
            if text[cursor:start]:
                parts.append(ContentPart(PartKind.TEXT, text[cursor:start]))
            parts.append(ContentPart(PartKind.IMAGE_REF, url))
            cursor = end
    if text[cursor:]:
        parts.append(ContentPart(PartKind.TEXT, text[cursor:]))
    return tuple(parts) or (ContentPart(PartKind.TEXT, ""),)


@pytest.mark.parametrize("abstract_kinds", [None, {RefKind.ORDER, RefKind.PRODUCT, RefKind.OTHER}])
@pytest.mark.parametrize("min_url_length", [1, 24, 60])
def test_split_parts_matches_the_reference_classifying_each_interned_url_once(
        monkeypatch, min_url_length, abstract_kinds):
    messages = url_corpus(seed=min_url_length, count=80) + [f"raw {IMG} {IMG2} {IMG}"]
    reference_table, table = PlaceholderTable(min_url_length), PlaceholderTable(min_url_length)
    expected = [reference_split_parts(m, reference_table, abstract_kinds) for m in messages]
    classified = []
    monkeypatch.setattr(placeholders, "classify_url",
                        lambda url: classified.append(url) or classify_url(url))
    assert [split_parts(m, table, abstract_kinds) for m in messages] == expected
    assert [(e.placeholder, e.original, e.kind) for e in table.entries] == [
        (e.placeholder, e.original, e.kind) for e in reference_table.entries]
    # an interned URL is classified once, by intern; a shorter one at every sighting
    short = [url for m in messages for _, _, url in find_urls(m) if len(url) < min_url_length]
    assert sorted(classified) == sorted([e.original for e in table.entries] + short)


# pieces of a text: plain words, near-misses of a URL, URLs shorter than the
# default min_url_length (24) and longer ones
TEXT_PIECES = ["see", "the", "kettle,", "HTTP://shop.example/order/O-7001/detail", "http:/x",
               "https://", "http", "http://", "ftp://shop.example/product/P-100/spec", "\n",
               "http://a.co/x.jpg", "https://s.ex/1", f"({IMG})", ORDER_URL + ".",
               "https://shop.example/product/P-100/full-spec-sheet", "'https://x.example/v.mp4'"]


@pytest.mark.parametrize("abstract_kinds", [None, frozenset(), {RefKind.ORDER, RefKind.OTHER}])
def test_split_parts_without_http_skips_the_scan_and_matches_the_reference(abstract_kinds):
    rng = random.Random(35)
    texts = ["", "http", "HTTP://shop.example/order/O-7001/detail-page"]
    texts += ["".join(rng.choices(TEXT_PIECES, k=rng.randint(1, 8))) for _ in range(300)]
    texts += [" ".join(rng.choices(TEXT_PIECES, k=rng.randint(1, 8))) for _ in range(300)]
    assert sum("http" not in t for t in texts) > 50
    reference_table, table = PlaceholderTable(), PlaceholderTable()
    for text in texts:
        parts = split_parts(text, table, abstract_kinds)
        assert parts == reference_split_parts(text, reference_table, abstract_kinds), text
        if "http" not in text:
            assert parts == (ContentPart(PartKind.TEXT, text),)
    assert table.entries == reference_table.entries
    assert len(table) > 3


def _vision_with_asset():
    asset = {"annotations": {"default": "a kettle", "damage": "cracked base, left side"}}
    return DescribeCounter(FixtureVisionBackend({IMG: asset}))


def test_resolve_image_uses_instruction_from_fixture():
    asset = {"annotations": {"default": "a kettle", "damage": "cracked base, left side"},
             "rules": [{"category": "damage", "keywords": ["damage"]}]}
    vision = FixtureVisionBackend({IMG: asset})
    table = PlaceholderTable()
    abstract_text(f"see {IMG}", table)
    text = resolve("[Image 1]", table, vision, instruction="Describe the damage shown in the image")
    assert text == "cracked base, left side"


def test_resolve_unknown_placeholder():
    table = PlaceholderTable()
    with pytest.raises(ResolutionError, match=r"^unknown_placeholder: \[Image 7\]$"):
        resolve("[Image 7]", table, _vision_with_asset())


def test_resolve_caches_by_instruction():
    vision = _vision_with_asset()
    table = PlaceholderTable()
    abstract_text(f"see {IMG}", table)
    first = resolve("[Image 1]", table, vision, instruction="what is it?")
    second = resolve("[Image 1]", table, vision, instruction="what is it?")
    assert first == second
    assert vision.calls == 1
    resolve("[Image 1]", table, vision, instruction="another question?")
    assert vision.calls == 2


def test_resolve_passes_a_replay_miss_and_wraps_other_describe_failures():
    class Missing:
        def describe(self, instruction, asset_id):
            raise ReplayMissError("no recorded describe response")

    table = PlaceholderTable()
    abstract_text(f"see {IMG}", table)
    with pytest.raises(ReplayMissError):
        resolve("[Image 1]", table, Missing())
    with pytest.raises(ResolutionError, match=r"describe failed for \[Image 1\]: unknown asset"):
        resolve("[Image 1]", table, FixtureVisionBackend({}))


def test_resolve_order_reads_long_term_store():
    table = PlaceholderTable()
    abstract_text(f"check {ORDER_URL}", table)
    world = world_from_dict({"orders": {"O-8842": {"buyer_id": "B1", "status": "shipped"}}})
    text = resolve("[Order 1]", table, _vision_with_asset(), LongTermStore(world))
    assert "shipped" in text


def urlparse_key(url: str, marker: str) -> str:
    segments = [s for s in urlparse(url).path.split("/") if s]
    return segments[segments.index(marker) + 1]


@pytest.mark.parametrize("url, key", [
    ("https://shop.example/product/P-100;v=2?ref=mail#specs", "P-100"),
    ("https://shop.example/product/P-100/;v=2", "P-100"),
    ("https://shop.example/item/P-100#reviews", "P-100"),
    ("https://shop.example/product/P;1/specs;v=2", "P;1"),
    ("https://shop.example/product/Kaffeemühle-9/specs?lang=de", "Kaffeemühle-9"),
    ("https://shop.example/order/O-7001;x/detail", "O-7001;x"),
    ("https://shop.example/order/O-7001?tab=items#top", "O-7001"),
    ("https://shop.example/order/Bestellung-ß7;p", "Bestellung-ß7"),
], ids=["params-query-fragment", "params-after-slash", "fragment", "params-in-a-middle-segment",
        "non-ascii-path", "order-params-in-a-middle-segment", "order-query-fragment",
        "order-non-ascii-params"])
def test_resolve_looks_up_the_key_that_urlparse_gives(url, key):
    marker = "order" if "/order/" in url else "product" if "/product/" in url else "item"
    assert urlparse_key(url, marker) == key
    kind = RefKind.ORDER if marker == "order" else RefKind.PRODUCT
    body = {"buyer_id": "B1", "status": "shipped"} if kind == RefKind.ORDER else {
        "title": "Kettle", "price_cents": 100, "stock": 1}
    world = world_from_dict({"orders" if kind == RefKind.ORDER else "products": {key: body}})
    table = PlaceholderTable()
    entry = table.intern(url)
    assert entry.kind is kind
    text = resolve(entry.placeholder, table, vision=None, store=LongTermStore(world))
    assert ('"shipped"' if kind == RefKind.ORDER else '"Kettle"') in text


def test_resolve_order_missing_document_is_resolution_error():
    table = PlaceholderTable()
    abstract_text(f"check {ORDER_URL}", table)
    with pytest.raises(ResolutionError):
        resolve("[Order 1]", table, _vision_with_asset(), LongTermStore(World()))


def test_placeholder_grammar():
    for token in ("[Image 1]", "[Product 12]", "[Order 3]", "[Video 1]", "[Link 9]"):
        assert PLACEHOLDER_RE.fullmatch(token)
    for bad in ("[image 1]", "[Image 0x]", "[Thing 1]", "[Image]"):
        assert not PLACEHOLDER_RE.fullmatch(bad)


def test_find_urls_maximal_spans():
    spans = find_urls(f"a {IMG} b {ORDER_URL}")
    assert [s[2] for s in spans] == [IMG, ORDER_URL]
