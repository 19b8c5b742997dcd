import itertools
import json
import random
import re
import sys
import threading

import pytest

from shopclerk import memory
from shopclerk.errors import ClerkError, SchemaError, SequencingError, UsageError
from shopclerk.memory import (
    ELISION_MARKER,
    ROLES,
    ContentPart,
    LongTermStore,
    Message,
    Namespace,
    PartKind,
    Role,
    WorkingMemory,
    read_transcript,
    render_context,
    render_turn,
    text_message,
    write_transcript,
)
from shopclerk.world import World, seed_store, world_from_dict


def make_wm(texts, role=Role.BUYER):
    wm = WorkingMemory("s1")
    for i, text in enumerate(texts):
        wm.append_turn(text_message(role, text, i))
    return wm


def test_append_from_empty():
    wm = WorkingMemory("s1")
    wm.append_turn(text_message(Role.BUYER, "hi", 0))
    assert len(wm) == 1


def test_append_preserves_existing_turns():
    wm = make_wm(["a", "b", "c"])
    before = [render_turn(m) for m in wm.turns]
    wm.append_turn(text_message(Role.AGENT, "d", 3))
    assert len(wm) == 4
    assert [render_turn(m) for m in wm.turns[:3]] == before


def test_append_out_of_order_is_sequencing_error():
    wm = make_wm(["a", "b", "c"])
    with pytest.raises(SequencingError):
        wm.append_turn(text_message(Role.AGENT, "x", 5))


def test_append_only_prefix_property():
    wm = WorkingMemory("s1")
    snapshots = []
    for i in range(10):
        wm.append_turn(text_message(Role.BUYER, f"turn {i}", i))
        snapshots.append([m.text() for m in wm.turns])
    final = [m.text() for m in wm.turns]
    for i, snap in enumerate(snapshots):
        assert final[: i + 1] == snap


def test_message_requires_parts():
    with pytest.raises(SchemaError):
        Message(Role.BUYER, (), 0)


def test_render_small_transcript_fits_whole():
    wm = make_wm(["hello there", "how can I help?"])
    out = render_context(wm, 10_000)
    assert out == "[buyer] hello there\n[buyer] how can I help?"


def test_render_empty_is_empty_string():
    assert render_context(WorkingMemory("s1"), 100) == ""


def test_render_rejects_nonpositive_budget():
    with pytest.raises(UsageError):
        render_context(make_wm(["x"]), 0)


def test_render_truncation_keeps_most_recent_turns():
    # Oracle: compute the cumulative rendered length by hand for a 50-turn
    # transcript, then pick a budget that admits exactly the last 5 turns.
    texts = [f"message number {i:02d} with some padding" for i in range(50)]
    wm = make_wm(texts)
    lines = [f"[buyer] {t}" for t in texts]
    last_five_cost = sum(len(line) + 1 for line in lines[-5:])
    budget = len(ELISION_MARKER) + last_five_cost
    out = render_context(wm, budget)
    assert out.splitlines()[0] == ELISION_MARKER
    assert out.splitlines()[1:] == lines[-5:]
    assert len(out) <= budget
    # one character less drops one more whole turn
    tighter = render_context(wm, budget - 1)
    assert tighter.splitlines()[1:] == lines[-4:]


def reference_render(wm, budget):
    """The former render: every turn rendered again, then trimmed oldest-first."""
    lines = [render_turn(m) for m in wm.turns]
    if not lines:
        return ""
    full = "\n".join(lines)
    if len(full) <= budget:
        return full
    kept = []
    total = len(ELISION_MARKER)
    for line in reversed(lines):
        cost = len(line) + 1
        if total + cost > budget:
            break
        kept.append(line)
        total += cost
    if not kept:
        return ELISION_MARKER if len(ELISION_MARKER) <= budget else ""
    return "\n".join([ELISION_MARKER] + list(reversed(kept)))


@pytest.mark.parametrize("seed", range(8))
def test_render_matches_reference_after_every_append(seed):
    # budgets 1-150 cover budgets under len(ELISION_MARKER) and lines longer than the budget
    rng = random.Random(seed)
    roles = list(ROLES)
    wm = WorkingMemory("s1")
    for budget in range(1, 151):
        assert render_context(wm, budget) == reference_render(wm, budget)
    for i in range(30):
        text = "".join(rng.choices("ab xy\t", k=rng.randint(0, 40)))
        wm.append_turn(text_message(rng.choice(roles), text, i))
        for budget in range(1, 151):
            assert render_context(wm, budget) == reference_render(wm, budget), (i, budget)


def reference_block_render(wm, budget, block):
    """The block rule from scratch: the first kept line is the first multiple of
    `block` with which marker + kept lines fit, or the newest buyer line or the
    newest line when that is earlier and fits."""
    lines = [render_turn(m) for m in wm.turns]
    full = "\n".join(lines)
    if len(full) <= budget:
        return full
    if len(ELISION_MARKER) > budget:
        return ""

    def fits(start):
        return len("\n".join([ELISION_MARKER, *lines[start:]])) <= budget

    first = next(s for s in [*range(0, len(lines), block), len(lines)] if fits(s))
    buyers = [i for i, m in enumerate(wm.turns) if m.role == Role.BUYER]
    kept = [i for i in buyers[-1:] + [len(lines) - 1] if fits(i)]
    start = min([first, *kept])
    return "\n".join([ELISION_MARKER, *lines[start:]])


def random_wm(rng, n):
    roles = list(ROLES)
    wm = WorkingMemory("s1")
    for i in range(n):
        text = "".join(rng.choices("ab xy\t", k=rng.randint(0, 40)))
        wm.append_turn(text_message(rng.choice(roles), text, i))
        yield wm


@pytest.mark.parametrize("block", [1, 2, 8, 16])
@pytest.mark.parametrize("seed", range(3))
def test_block_render_matches_block_reference_after_every_append(seed, block):
    rng = random.Random(seed)
    for i, wm in enumerate(random_wm(rng, 40)):
        for budget in range(1, 301, 3):
            expected = reference_block_render(wm, budget, block)
            assert render_context(wm, budget, block) == expected, (i, budget)


@pytest.mark.parametrize("block", [2, 8, 16])
@pytest.mark.parametrize("seed", range(3))
def test_block_render_invariants(seed, block):
    for wm in random_wm(random.Random(seed), 40):
        buyers = [render_turn(m) for m in wm.turns if m.role == Role.BUYER]
        newest = [render_turn(wm.turns[-1]), *buyers[-1:]]
        for budget in range(1, 301, 3):
            by_line = render_context(wm, budget)
            out = render_context(wm, budget, block)
            assert len(out) <= budget
            if not by_line.startswith(ELISION_MARKER):
                assert out == by_line  # nothing elided at block 1, nothing at any block
                continue
            # the kept lines are a suffix of the kept lines of the block-1 render
            assert out.startswith(ELISION_MARKER)
            assert by_line.endswith(out[len(ELISION_MARKER):])
            # the newest line and the newest buyer line survive if block 1 keeps them
            for line in newest:
                if f"\n{line}\n" in by_line + "\n":
                    assert f"\n{line}\n" in out + "\n"


def test_block_render_keeps_a_newest_line_that_barely_fits():
    texts = [f"message number {i:02d} with some padding" for i in range(20)]
    texts[-1] = "the buyer's current question, which is much longer than the others"
    wm = make_wm(texts)
    newest = render_turn(wm.turns[-1])
    budget = len(ELISION_MARKER) + 1 + len(newest)
    for block in (1, 8, 16):
        assert render_context(wm, budget, block) == f"{ELISION_MARKER}\n{newest}"
        assert render_context(wm, budget - 1, block) == ELISION_MARKER


def test_block_render_keeps_the_current_buyer_line_behind_tool_lines():
    wm = make_wm([f"message number {i:02d}" for i in range(21)])
    wm.append_turn(text_message(Role.TOOL, "result one", 21))
    wm.append_turn(text_message(Role.TOOL, "result two", 22))
    kept = "\n".join([ELISION_MARKER, *(render_turn(m) for m in wm.turns[20:])])
    for block in (1, 8, 16):
        assert render_context(wm, len(kept), block) == kept


def test_block_render_rejects_nonpositive_block():
    with pytest.raises(UsageError):
        render_context(make_wm(["x"]), 10, 0)


@pytest.mark.parametrize("block", [1, 8])
def test_growing_transcript_keeps_its_first_kept_line_for_a_block(block):
    # equal-length lines: at block 1 the first kept line moves on every append;
    # at block 8 it moves once per 8 appends, and in between each render starts
    # with the whole previous render
    wm = WorkingMemory("s1")
    budget = len(ELISION_MARKER) + 12 * len("[buyer] turn 000\n")
    renders = []
    for i in range(100):
        wm.append_turn(text_message(Role.BUYER, f"turn {i:03d}", i))
        out = render_context(wm, budget, block)
        if out.startswith(ELISION_MARKER):
            renders.append(out)
    pairs = list(zip(renders, renders[1:]))
    extended = sum(after.startswith(before) for before, after in pairs)
    assert extended == (0 if block == 1 else len(pairs) - len(pairs) // block)
    first_kept = {int(out.splitlines()[1].split()[-1]) for out in renders}
    assert all(index % block == 0 for index in first_kept)


def test_each_message_is_rendered_once(monkeypatch):
    calls = []

    def counting_render_turn(msg):
        calls.append(msg.turn_index)
        return render_turn(msg)

    monkeypatch.setattr(memory, "render_turn", counting_render_turn)
    wm = WorkingMemory("s1")
    for i in range(10):
        wm.append_turn(text_message(Role.BUYER, f"turn {i}", i))
        for budget in (5, 60, 10_000):
            render_context(wm, budget)
    assert calls == list(range(10))


def test_render_deterministic():
    wm = make_wm([f"turn {i}" for i in range(20)])
    outputs = {render_context(wm, 200) for _ in range(50)}
    assert len(outputs) == 1


def test_a_role_read_from_a_file_appends_like_its_constant():
    for role in ROLES:
        plain = json.loads(json.dumps(role))  # an equal string, not the constant's own object
        assert plain is not role
        memories = []
        for who in (role, plain):
            wm = WorkingMemory("s1")
            wm.append_turn(text_message(Role.AGENT, "welcome", 0))
            wm.append_turn(Message(who, (ContentPart(PartKind.TEXT, "hello"),), 1))
            wm.append_turn(text_message(Role.TOOL, "result", 2))
            memories.append(wm)
        live, read = memories
        assert read._lines == live._lines == ["[agent] welcome", f"[{role}] hello", "[tool] result"]
        assert read._last_buyer == live._last_buyer == (1 if role == Role.BUYER else -1)
        for budget, block in itertools.product(range(1, 60), (1, 2, 16)):
            assert render_context(read, budget, block) == render_context(live, budget, block)


def test_an_image_ref_kind_read_from_a_file_is_checked_like_its_constant():
    plain = json.loads('"image_ref"')  # an equal string, not the constant's own object
    assert plain is not PartKind.IMAGE_REF
    for kind in (PartKind.IMAGE_REF, plain):
        with pytest.raises(SchemaError, match="image_ref value is not a URL: 'not a url'"):
            ContentPart(kind, "not a url")
        assert ContentPart(kind, "https://x.example/a.jpg").value == "https://x.example/a.jpg"


def test_transcript_round_trip(tmp_path):
    wm = make_wm(["first", "second"])
    wm.append_turn(text_message(Role.AGENT, "third", 2))
    path = tmp_path / "t.jsonl"
    write_transcript(wm, path)
    loaded = read_transcript(path)
    assert loaded.session_id == wm.session_id
    assert [render_turn(m) for m in loaded.turns] == [render_turn(m) for m in wm.turns]
    # writing the loaded copy reproduces identical bytes
    path2 = tmp_path / "t2.jsonl"
    write_transcript(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# --- long-term store ---


def test_ltm_put_get_round_trip():
    store = LongTermStore(World())
    store.put(Namespace.BUYER_PROFILE, "B1", {"name": "Ada"})
    doc = store.get(Namespace.BUYER_PROFILE, "B1")
    assert doc is not None
    assert doc.body == {"name": "Ada"}


def test_ltm_last_write_wins():
    store = LongTermStore(World())
    store.put("buyer_profile", "B1", {"name": "Ada"})
    store.put("buyer_profile", "B1", {"name": "Ada L."})
    doc = store.get("buyer_profile", "B1")
    assert doc.body == {"name": "Ada L."}


def test_ltm_unknown_namespace_is_schema_error():
    store = LongTermStore(World())
    with pytest.raises(SchemaError):
        store.put("weather", "today", "sunny")
    for namespace in ("weather", None, 1, ["order"], {"order": 1}):  # unhashable ones too
        for call in (lambda: store.get(namespace, "k"), lambda: store.search(namespace, "q", 3)):
            with pytest.raises(SchemaError, match=re.escape(f"unknown namespace: {namespace!r}")):
                call()


def test_ltm_get_missing_is_none_not_error():
    store = LongTermStore(World())
    assert store.get("order", "missing") is None
    assert store.get("platform_policy", "missing") is None


def test_policies_are_tokenized_at_load_puts_at_build_and_stored_searches_never(monkeypatch):
    made = []
    tokens = memory._flatten_tokens
    monkeypatch.setattr(memory, "_flatten_tokens", lambda body: made.append(body) or tokens(body))
    data = _random_seed(random.Random(3))
    world = world_from_dict(data)
    assert made == [row["body"] for row in data["policies"]]  # seed policies, at load
    store = seed_store(world)
    for ns in (Namespace.PRODUCT, Namespace.ORDER, Namespace.LOGISTICS):
        for key in world.doc_keys(ns):
            assert store.get(ns, key).body == world.doc(ns, key)
    made.clear()
    store.put("buyer_profile", "B1", {"name": "Ada"})
    assert made == [{"name": "Ada"}]
    for ns in ("buyer_profile", "platform_policy", "store_promotion"):
        store.search(ns, "ada", 3)
    assert made == [{"name": "Ada"}]


def test_ltm_empty_key_rejected():
    store = LongTermStore(World())
    with pytest.raises(SchemaError):
        store.put("platform_policy", "", "body")


def test_search_single_match():
    store = LongTermStore(World())
    store.put("platform_policy", "P1", "red kettle")
    store.put("platform_policy", "P2", "blue mug")
    docs = store.search("platform_policy", "red kettle", limit=5)
    assert [d.key for d in docs] == ["P1"]


def test_search_tie_broken_by_key():
    # Hand count: "kettle mug" overlaps each body in exactly one token.
    store = LongTermStore(World())
    store.put("platform_policy", "P2", "blue mug")
    store.put("platform_policy", "P1", "red kettle")
    docs = store.search("platform_policy", "kettle mug", limit=5)
    assert [d.key for d in docs] == ["P1", "P2"]


def test_search_zero_overlap_excluded():
    store = LongTermStore(World())
    store.put("platform_policy", "P1", "red kettle")
    assert store.search("platform_policy", "socks", limit=5) == []


def test_search_ranking_and_limit():
    store = LongTermStore(World())
    store.put("platform_policy", "A", "steel kettle with lid")
    store.put("platform_policy", "B", "steel mug")
    store.put("platform_policy", "C", "wooden spoon")
    docs = store.search("platform_policy", "steel kettle", limit=2)
    assert [d.key for d in docs] == ["A", "B"]
    scores = []
    for d in docs:
        body_tokens = set(str(d.body).casefold().split())
        scores.append(sum(1 for t in {"steel", "kettle"} if t in body_tokens))
    assert scores == sorted(scores, reverse=True)
    assert all(s >= 1 for s in scores)


def test_search_requires_positive_limit():
    store = LongTermStore(World())
    with pytest.raises(UsageError):
        store.search("platform_policy", "kettle", limit=0)


def test_search_structured_body_tokens_include_keys_and_values():
    store = LongTermStore(World())
    store.put("platform_policy", "P1", {"material": "steel", "sizes": [2, 3]})
    assert [d.key for d in store.search("platform_policy", "steel", 5)] == ["P1"]
    assert [d.key for d in store.search("platform_policy", "material", 5)] == ["P1"]


def reference_tokens(body):
    """Tokens as the store made them, chunk by chunk, before it joined the chunks."""
    tokens = set()
    if isinstance(body, dict):
        for k, v in body.items():
            tokens.update(str(k).casefold().split())
            tokens |= reference_tokens(v)
    elif isinstance(body, (list, tuple)):
        for v in body:
            tokens |= reference_tokens(v)
    else:
        tokens.update(str(body).casefold().split())
    return tokens


def reference_search(docs, query, limit):
    """The scoring loop the store used before documents carried their tokens."""
    query_tokens = set(query.casefold().split())
    scored = []
    for key, body in docs.items():
        body_tokens = reference_tokens(body)
        score = sum(1 for t in query_tokens if t in body_tokens)
        if score > 0:
            scored.append((score, key, body))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(key, body) for _, key, body in scored[:limit]]


_VOCAB = ("Kettle", "steel", "REFUND", "window", "mug", "parcel", "30", "days", "Lid", "paid",
          "cancelled")


def _random_body(rng, depth=0):
    kind = rng.randrange(4 if depth < 2 else 2)
    if kind == 0:
        return " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(1, 5)))
    if kind == 1:
        return rng.choice([7, 2.5, True, None])
    if kind == 2:
        return [_random_body(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(_VOCAB): _random_body(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def _random_seed(rng):
    statuses = ("paid", "shipped", "delivered")
    return {
        "products": {f"P{i}": {"title": " ".join(rng.sample(_VOCAB, 2)),
                               "attributes": {rng.choice(_VOCAB): rng.choice(_VOCAB)},
                               "price_cents": i, "stock": i} for i in range(6)},
        "orders": {f"O{i}": {"buyer_id": rng.choice(_VOCAB), "status": rng.choice(statuses),
                             "items": [{"product_id": f"P{i % 6}", "qty": 1}],
                             "address": rng.choice(_VOCAB)} for i in range(8)},
        "shipments": {f"O{i}": [{"tick": 1, "location": rng.choice(_VOCAB), "status": "moved"}]
                      for i in range(0, 8, 2)},
        "policies": [{"namespace": rng.choice(("platform_policy", "store_promotion")),
                      "key": f"k{rng.randrange(9)}", "body": _random_body(rng)}
                     for _ in range(rng.randint(0, 12))],
    }


@pytest.mark.parametrize("seed", range(8))
def test_search_ranks_like_the_reference_loop(seed):
    rng = random.Random(seed)
    data = _random_seed(rng)
    world = world_from_dict(data)
    store = seed_store(world)  # seeded keys are k0-k8, so a put of k0-k5 may re-put one
    reader = seed_store(world)  # never written to, so every policy search reads the index
    written = {ns: {} for ns in ("platform_policy", "store_promotion", "buyer_profile")}
    for row in data["policies"]:
        written[row["namespace"]][row["key"]] = row["body"]
    seeded = {ns: dict(docs) for ns, docs in written.items()}
    for _ in range(60):
        step = rng.random()
        if step < 0.5:  # a put, often of a key already stored
            ns = rng.choice(sorted(written))
            key, body = f"k{rng.randrange(6)}", _random_body(rng)
            store.put(ns, key, body)
            written[ns][key] = body
        elif step < 0.6:
            order_id = rng.choice(sorted(world.orders))
            action = rng.choice(("cancel", "request_refund", "approve_refund"))
            try:
                world.apply_order_action(order_id, action)
            except ClerkError:
                pass
        query = " ".join(rng.choice(_VOCAB).swapcase() if rng.random() < 0.3
                         else rng.choice(_VOCAB) for _ in range(rng.randint(1, 4)))
        limit = rng.randint(1, 5)
        for each, tables in ((store, written), (reader, seeded)):
            for ns, docs in tables.items():
                got = [(d.key, d.body) for d in each.search(ns, query, limit)]
                assert got == reference_search(docs, query, limit)
            for ns in (Namespace.PRODUCT, Namespace.ORDER, Namespace.LOGISTICS):
                docs = {key: world.doc(ns, key) for key in world.doc_keys(ns)}
                got = [(d.key, d.body) for d in each.search(ns, query, limit)]
                assert got == reference_search(docs, query, limit)


# 462 distinct (query tokens, limit) pairs
_QUERIES = [(" ".join(words), limit) for n in (1, 2, 3)
            for words in itertools.combinations(_VOCAB, n) for limit in (1, 3)]


def _policy_world(rng):
    data = _random_seed(rng)
    data["policies"] = [{"namespace": "platform_policy", "key": f"k{i}", "body": _random_body(rng)}
                        for i in range(12)]
    return data, world_from_dict(data)


def test_a_changed_search_result_leaves_the_next_one_alone():
    _, world = _policy_world(random.Random(1))
    store = seed_store(world)
    query = " ".join(_VOCAB)
    first = store.search("platform_policy", query, 5)
    expected = list(first)
    assert first
    first.clear()
    again = store.search("platform_policy", query, 5)
    assert again == expected
    again.append("junk")
    assert seed_store(world).search("platform_policy", query, 5) == expected


def test_the_index_ranks_every_query_like_the_reference(monkeypatch):
    data, world = _policy_world(random.Random(2))  # keys k0-k11, so k10 sorts before k2
    store = seed_store(world)

    def scored_in_full(*args):
        raise AssertionError("a store with no puts scored its corpus document by document")

    monkeypatch.setattr(memory, "_rank", scored_in_full)
    docs = {row["key"]: row["body"] for row in data["policies"]}
    rng = random.Random(6)
    queries = _QUERIES + [(" ".join(rng.choices(_VOCAB + ("absent",), k=rng.randint(1, 12))),
                           rng.randint(1, 14)) for _ in range(300)]
    for query, limit in queries + [(" ".join(_VOCAB), 12), ("absent", 1), ("", 3)]:
        got = [(d.key, d.body) for d in store.search("platform_policy", query, limit)]
        assert got == reference_search(docs, query, limit)
    assert world.policies[Namespace.PLATFORM_POLICY].docs == {
        key: memory.document(key, body) for key, body in docs.items()}


def test_an_empty_corpus_finds_nothing():
    assert memory.Corpus({}).rank(frozenset({"kettle"}), 3) == []


def test_threads_sharing_one_index_each_get_the_reference_ranking():
    data, world = _policy_world(random.Random(5))
    docs = {row["key"]: row["body"] for row in data["policies"]}
    expected = {q: reference_search(docs, *q) for q in _QUERIES}
    wrong = []

    def search_all(seed):
        store = seed_store(world)  # one store per session, every store over one corpus
        for query, limit in random.Random(seed).sample(_QUERIES, len(_QUERIES)):
            got = [(d.key, d.body) for d in store.search("platform_policy", query, limit)]
            if got != expected[query, limit]:
                wrong.append((query, limit, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=search_all, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_a_store_never_writes_the_seeded_corpus():
    data, world = _policy_world(random.Random(3))
    seeded = world.policies[Namespace.PLATFORM_POLICY]
    docs = {row["key"]: row["body"] for row in data["policies"]}
    store, other = seed_store(world), seed_store(world)
    query = " ".join(_VOCAB)
    before = store.search("platform_policy", query, 4)
    store.put("platform_policy", "k0", "kettle kettle mug refund window parcel days")
    store.put("platform_policy", "zz", " ".join(_VOCAB))
    assert store.get("platform_policy", "k0").body == "kettle kettle mug refund window parcel days"
    assert other.get("platform_policy", "k0").body == docs["k0"]
    assert other.get("platform_policy", "zz") is None
    assert store.search("store_promotion", query, 4) == []
    assert store.get("store_promotion", "zz") is None
    assert store.search("platform_policy", query, 1)[0].key == "zz"
    assert other.search("platform_policy", query, 4) == before
    assert seed_store(world).search("platform_policy", query, 4) == before
    assert [(d.key, d.body) for d in before] == reference_search(docs, query, 4)
    assert world.policies[Namespace.PLATFORM_POLICY] is seeded
    assert seeded.docs == {key: memory.document(key, body) for key, body in docs.items()}


def test_puts_that_hide_more_seeded_keys_than_the_limit_still_find_the_next_seeded_document():
    data, world = _policy_world(random.Random(4))
    docs = {row["key"]: row["body"] for row in data["policies"]}
    query = " ".join(_VOCAB)
    expected = reference_search(docs, query, 6)
    assert len(expected) == 6
    store = seed_store(world)
    for key, _ in expected[:5]:  # the five best hits, rewritten to match nothing
        store.put("platform_policy", key, "unrelated")
    assert [(d.key, d.body) for d in store.search("platform_policy", query, limit=1)] == expected[5:]
    assert [(d.key, d.body) for d in seed_store(world).search("platform_policy", query, 6)] == expected
