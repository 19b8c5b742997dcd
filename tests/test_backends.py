import json
import os
import random
import re
import sys
import threading
from pathlib import Path

import pytest

from conftest import FakeReply, InOrder, ReferenceChatSession
from shopclerk import backends
from shopclerk.backends import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
    ScriptEntry,
    load_script,
    request_digest,
)
from shopclerk.config import AgentConfig, agent_config_from_dict
from shopclerk.episode import CLARIFICATION_REPLY, AgentSession
from shopclerk.errors import BackendError, ConfigError, ReplayMissError, ScriptError, UsageError
from shopclerk.tasks import load_task
from shopclerk.vision import RemoteVisionBackend


def req(text: str, labels=None) -> ChatRequest:
    return ChatRequest(messages=(ChatMessage("user", text),),
                       label_alphabet=tuple(labels) if labels else None,
                       kind="evaluate" if labels else "propose")


def test_script_exhaustion_names_request():
    backend = ScriptedBackend([
        ScriptEntry(contains="one", response=ChatResponse(text="a")),
        ScriptEntry(contains="two", response=ChatResponse(text="b")),
    ])
    assert [backend.complete(req(text)).text for text in ("two", "one", "two")] == ["b", "a", "b"]
    with pytest.raises(ScriptError) as raised:
        backend.complete(req("the third message"))
    assert str(raised.value) == ("no script entry matches; last message starts with: "
                                 "'the third message'")


def test_first_substring_match_in_file_order():
    backend = ScriptedBackend([
        ScriptEntry(response=ChatResponse(text="first"), contains="kettle"),
        ScriptEntry(response=ChatResponse(text="second"), contains="red kettle"),
    ])
    assert backend.complete(req("a red kettle please")).text == "first"


def test_substring_matches_last_message_only():
    backend = ScriptedBackend([
        ScriptEntry(response=ChatResponse(text="hit"), contains="needle"),
    ])
    request = ChatRequest(messages=(
        ChatMessage("system", "the needle is here"),
        ChatMessage("user", "nothing relevant"),
    ))
    with pytest.raises(ScriptError):
        backend.complete(request)


def test_label_probs_pass_through():
    backend = ScriptedBackend([
        ScriptEntry("score", ChatResponse(text="B", label_probs={"A": 0.25, "B": 0.75})),
    ])
    response = backend.complete(req("score", labels=("A", "B")))
    assert response.label_probs == {"A": 0.25, "B": 0.75}


def test_entry_needs_exactly_one_matcher(tmp_path):
    # a needle is the one way an entry fires: without one, or with a call index too, it is refused
    path = tmp_path / "s.json"
    for row, why in [({"response": {"text": "x"}}, "entries[0].contains: missing"),
                     ({"step": 0, "contains": "y", "response": {"text": "x"}},
                      "entries[0].step: unknown key")]:
        path.write_text(json.dumps({"entries": [row]}))
        with pytest.raises(ConfigError) as raised:
            load_script(path)
        assert str(raised.value) == f"script file {path}: {why}"


def test_label_probs_validation():
    with pytest.raises(UsageError):
        ChatResponse(text="A", label_probs={"A": -0.1})
    with pytest.raises(UsageError):
        ChatResponse(text="A", label_probs={"A": 0.8, "B": 0.5})
    # NaN compares false both ways, so neither bound alone would catch it
    with pytest.raises(UsageError, match="nonnegative"):
        ChatResponse(text="A", label_probs={"A": float("nan"), "B": 0.2})


def test_request_needs_messages():
    with pytest.raises(UsageError):
        ChatRequest(messages=())


def test_load_script_missing_file():
    with pytest.raises(ConfigError):
        load_script("/nonexistent/script.json")


# --- digests and record/replay ---


def test_digest_stable_across_serializations():
    a = req("same content", labels=("A", "B"))
    b = req("same content", labels=("A", "B"))
    assert request_digest(a) == request_digest(b)


def test_digest_ignores_kind():
    a = ChatRequest((ChatMessage("user", "x"),), kind="propose")
    b = ChatRequest((ChatMessage("user", "x"),), kind="describe")
    assert request_digest(a) == request_digest(b)


@pytest.mark.parametrize("request_, digest", [
    (ChatRequest((ChatMessage("user", "Conversation so far:\n[buyer] hi"),), kind="propose"),
     "49319c4ffffb0cf327085df9d75f2b962f7abe97d70e68452715273c5195d49d"),
    (ChatRequest((ChatMessage("user", "Which plan? A or B"),), ("A", "B"), "evaluate"),
     "27e797af3767e59974adba02a5567fcb216aecb4e045fc82ad43f23431afa201"),
    (ChatRequest((ChatMessage("user", "Describe the image briefly.",
                              ("https://img.example/kettle-red.jpg",)),), kind="describe"),
     "aecc9b65dbffbb613217f457c7645d0b6b977bb523ea5c10a3250be815a27629"),
], ids=["propose", "evaluate", "describe"])
def test_digest_is_pinned_so_recorded_stores_keep_hitting(request_, digest):
    # each value was computed when max_tokens and temperature were request fields
    assert request_digest(request_) == digest


def test_digest_differs_on_content():
    assert request_digest(req("one")) != request_digest(req("two"))


def test_record_then_replay_round_trip(tmp_path):
    store = tmp_path / "store.json"
    scripted = InOrder(*(ChatResponse(text=f"reply {i}") for i in range(5)))
    recorder = RecordingBackend(scripted, store)
    requests = [req(f"prompt {i}") for i in range(5)]
    recorded = [recorder.complete(r).text for r in requests]

    replay = ReplayBackend(store)
    replayed = [replay.complete(r).text for r in requests]
    assert replayed == recorded
    assert scripted.calls == 5  # replay made no calls against the inner backend


def test_replay_miss_on_mutated_prompt(tmp_path):
    store = tmp_path / "store.json"
    recorder = RecordingBackend(
        ScriptedBackend([ScriptEntry(contains="", response=ChatResponse(text="hi"))]), store
    )
    recorder.complete(req("original"))
    replay = ReplayBackend(store)
    with pytest.raises(ReplayMissError, match="mutated"):
        replay.complete(req("mutated"))


def test_replay_miss_names_the_call_kind(tmp_path):
    store = tmp_path / "store.json"
    store.write_text("{}")
    replay = ReplayBackend(store)
    with pytest.raises(ReplayMissError, match="^no recorded evaluate response for request digest "):
        replay.complete(req("which plan?", labels="AB"))
    describe = ChatRequest((ChatMessage("user", "look", ("https://img.example/a.jpg",)),),
                           kind="describe")
    with pytest.raises(ReplayMissError, match="^no recorded describe response for request digest "):
        replay.complete(describe)


def test_rerecording_a_digest_keeps_the_first_response(tmp_path):
    store = tmp_path / "store.json"
    recorder = RecordingBackend(InOrder(ChatResponse(text="first"), ChatResponse(text="second")),
                                store)
    assert recorder.complete(req("same")).text == "first"
    assert recorder.complete(req("same")).text == "second"  # the live reply is passed on
    digest = request_digest(req("same"))
    assert json.loads(store.read_text()) == {digest: {"text": "first", "label_probs": None}}
    replay = ReplayBackend(store)
    assert [replay.complete(req("same")).text for _ in range(2)] == ["first", "first"]


def test_replay_requires_existing_store(tmp_path):
    with pytest.raises(ConfigError):
        ReplayBackend(tmp_path / "missing.json")


def test_corrupt_store_is_config_error(tmp_path):
    store = tmp_path / "store.json"
    store.write_text('{"abc": [')
    with pytest.raises(ConfigError, match="not valid JSON"):
        ReplayBackend(store)
    with pytest.raises(ConfigError, match="not valid JSON"):
        RecordingBackend(ScriptedBackend([]), store)


@pytest.mark.parametrize("payload,where", [
    ({"d1": "text"}, 'd1: must be an object, got "text"'),
    ({"d1": [{"text": "x"}]}, "d1: must be an object, got a list"),  # the old list shape
    ({"d1": {"text": 7}}, "d1.text: must be a string, got 7"),
    ({"d1": {"text": "A", "label_probs": {"A": "high"}}},
     'd1.label_probs.A: must be a number, got "high"'),
    ({"d1": {"text": "A", "label_probs": {"A": 0.9, "B": 0.9}}},
     "digest d1: label probabilities must sum to at most 1"),
    ({"d1": {"text": "A", "label_probs": {"A": float("nan")}}},
     "d1.label_probs.A: must be a number, got NaN"),
], ids=["rows-not-list", "row-not-object", "text-not-string", "probs-not-numbers", "probs-over-one",
        "probs-nan"])
def test_malformed_store_row_is_config_error_naming_the_digest(tmp_path, payload, where):
    store = tmp_path / "bad-store.json"
    store.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=re.escape(f"replay store {store}: {where}")):
        ReplayBackend(store)
    with pytest.raises(ConfigError, match=re.escape(f"replay store {store}: {where}")):
        RecordingBackend(ScriptedBackend([]), store)


def test_recording_crash_mid_write_keeps_store(tmp_path, monkeypatch):
    store = tmp_path / "store.json"
    scripted = ScriptedBackend([
        ScriptEntry(contains=text, response=ChatResponse(text=f"reply {i}"))
        for i, text in enumerate(("first", "second"))
    ])
    recorder = RecordingBackend(scripted, store)
    recorder.complete(req("first"))
    before = store.read_text()
    write_text = Path.write_text

    def torn_write(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(BackendError, match="disk full"):
        recorder.complete(req("second"))
    monkeypatch.undo()
    assert store.read_text() == before
    assert ReplayBackend(store).complete(req("first")).text == "reply 0"


def test_recording_write_failure_is_a_backend_error_naming_the_store(tmp_path):
    store = tmp_path / "store.json"
    (tmp_path / "store.json.partial").mkdir()  # the temporary file cannot be written
    recorder = RecordingBackend(ScriptedBackend([ScriptEntry("", ChatResponse("one"))]), store)
    with pytest.raises(BackendError, match=re.escape(f"cannot write record store {store}")):
        recorder.complete(req("first"))
    assert not store.exists()


def test_recording_into_a_missing_directory_is_a_config_error(tmp_path):
    store = tmp_path / "missing" / "store.json"
    with pytest.raises(ConfigError, match=re.escape(f"directory {store.parent} does not exist")):
        RecordingBackend(ScriptedBackend([]), store)


# --- remote client against a fake transport ---


class FakeSession:
    def __init__(self, payloads):
        self.payloads = list(payloads)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        item = self.payloads.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def test_remote_backend_maps_chat_response(monkeypatch):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    monkeypatch.setenv("SHOPCLERK_CHAT_KEY", "sk-test")
    session = FakeSession([FakeReply({"choices": [{"message": {"content": "howdy"}}]})])
    backend = RemoteBackend(session=session)
    response = backend.complete(req("hello"))
    assert response.text == "howdy"
    sent = session.requests[0]
    assert sent["url"] == "https://llm.internal/chat/completions"
    assert sent["headers"]["Authorization"] == "Bearer sk-test"
    assert sent["json"]["messages"][0]["content"] == "hello"


@pytest.fixture()
def sleeps(monkeypatch):
    pauses = []
    monkeypatch.setattr("shopclerk.backends.time.sleep", pauses.append)
    return pauses


def test_remote_backend_retries_then_succeeds(monkeypatch, sleeps):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    session = FakeSession([RuntimeError("connection reset"), FakeReply({}, status=503),
                           FakeReply({"choices": [{"message": {"content": "howdy"}}]})])
    backend = RemoteBackend(session=session)
    assert backend.complete(req("hello")).text == "howdy"
    assert len(session.requests) == 3
    assert sleeps == [0.5, 0.5]


def test_remote_backend_transport_failure(monkeypatch, sleeps):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    session = FakeSession([RuntimeError("connection reset")] * 4)
    backend = RemoteBackend(session=session)
    with pytest.raises(BackendError, match="after 3 attempts: connection reset"):
        backend.complete(req("hello"))
    assert len(session.requests) == 3
    assert sleeps == [0.5, 0.5]


@pytest.mark.parametrize("status", [400, 401, 404])
def test_remote_backend_fails_fast_on_client_error(monkeypatch, sleeps, status):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    session = FakeSession([FakeReply({}, status=status)] * 3)
    backend = RemoteBackend(session=session)
    with pytest.raises(BackendError, match=f"rejected: http {status}"):
        backend.complete(req("hello"))
    assert len(session.requests) == 1
    assert sleeps == []


def test_remote_backend_retries_timeouts_and_rate_limits(monkeypatch, sleeps):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    session = FakeSession([FakeReply({}, status=408), FakeReply({}, status=429),
                           FakeReply({}, status=500)])
    backend = RemoteBackend(session=session)
    with pytest.raises(BackendError, match="after 3 attempts: http 500"):
        backend.complete(req("hello"))
    assert len(session.requests) == 3
    assert sleeps == [0.5, 0.5]


def test_remote_backend_requires_url(monkeypatch):
    monkeypatch.delenv("SHOPCLERK_CHAT_URL", raising=False)
    with pytest.raises(ConfigError):
        RemoteBackend(session=FakeSession([]))


def test_remote_backend_bad_shape(monkeypatch, sleeps):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    session = FakeSession([FakeReply({"unexpected": True})] * 2)
    backend = RemoteBackend(session=session)
    with pytest.raises(BackendError, match="unexpected remote response shape"):
        backend.complete(req("hello"))
    assert len(session.requests) == 1  # a reply of the wrong shape is not retried
    assert sleeps == []


def _choice(**fields) -> dict:
    return {"choices": [{"message": {"content": "A"}, **fields}]}


@pytest.mark.parametrize("data, where", [
    (_choice(logprobs=[1]), "choices[0].logprobs: must be an object or null, got a list"),
    (_choice(logprobs={"content": [{"top_logprobs": ["A"]}]}),
     'choices[0].logprobs.content[0].top_logprobs[0]: must be an object, got "A"'),
    ({"choices": [{"message": {"content": 5}}]},
     "choices[0].message.content: must be a string or null, got 5"),
], ids=["logprobs-list", "top-logprob-row-not-object", "content-not-text"])
def test_remote_reply_of_the_wrong_shape_is_a_backend_error(monkeypatch, data, where):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    backend = RemoteBackend(session=FakeSession([FakeReply(data)]))
    with pytest.raises(BackendError) as raised:
        backend.complete(req("pick one", labels="AB"))
    assert str(raised.value) == f"unexpected remote response shape: {where}"


def test_remote_label_probs_come_from_the_first_tokens_top_logprobs(monkeypatch):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    top = [{"token": " B", "logprob": -0.25, "bytes": [32, 66]}, {"token": "A", "logprob": -2.0},
           {"token": "Z", "logprob": -3.0}]
    data = _choice(logprobs={"content": [{"token": "B", "top_logprobs": top}]})
    response = RemoteBackend(session=FakeSession([FakeReply(data)])).complete(
        req("pick one", labels="AB"))
    assert response.label_probs == pytest.approx({"B": 0.7788008, "A": 0.1353353})


def test_remote_label_probs_over_one_are_scaled_down_not_rejected(monkeypatch):
    # "A" and " A" merge to 1 + 1e-7; the reply is valid and must not fail the episode
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    top = [{"token": "A", "logprob": -1e-7}, {"token": " A", "logprob": -16.0},
           {"token": "B", "logprob": -18.0}]
    data = _choice(logprobs={"content": [{"token": "A", "top_logprobs": top}]})
    response = RemoteBackend(session=FakeSession([FakeReply(data)])).complete(
        req("pick one", labels="AB"))
    assert sum(response.label_probs.values()) <= 1.0
    assert response.label_probs == pytest.approx({"A": 1.0, "B": 1.523e-8}, rel=1e-3)


@pytest.mark.parametrize("labels, extra", [
    (None, {}), ("AB", {"logprobs": True, "top_logprobs": 2, "max_tokens": 1})],
    ids=["propose", "evaluate"])
def test_remote_body_is_at_temperature_0_with_one_token_only_for_labels(monkeypatch, labels,
                                                                        extra):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    session = FakeSession([FakeReply({"choices": [{"message": {"content": "A"}}]})])
    RemoteBackend(session=session, model="m").complete(req("hello", labels=labels))
    assert session.requests[0]["json"] == {
        "model": "m", "messages": [{"role": "user", "content": "hello"}], "temperature": 0.0,
        **extra}


# --- remote client against the reference stub ---


def test_reference_stub_answers_as_the_format_documents():
    session = ReferenceChatSession(lambda body: ("A", [("A", 0.6), ("B", 0.3), ("C", 0.1)]))
    hello = {"role": "user", "content": "pick one"}

    def alternatives(**fields):
        logprobs = session.post("", json={"messages": [hello], **fields}).json()[
            "choices"][0]["logprobs"]
        return logprobs and [row["token"] for row in logprobs["content"][0]["top_logprobs"]]

    assert alternatives() is None
    assert alternatives(logprobs=True) == []
    assert alternatives(logprobs=True, top_logprobs=2) == ["A", "B"]
    for bad in ({"messages": [dict(hello, images=["u"])]},
                {"messages": [dict(hello, content=[{"type": "image", "url": "u"}])]},
                {"messages": [hello], "top_logprobs": 2},
                {"messages": [hello], "logprobs": True, "top_logprobs": 21}):
        assert session.post("", json=bad).status_code == 400


def test_remote_evaluate_below_the_confidence_floor_ends_in_the_clarification_reply(
        monkeypatch, suite_dir, vision_fixtures):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    plans = [{"kind": "direct_reply", "steps": None, "rationale": "Answer.",
              "reply": "It holds 2 liters."},
             {"kind": "single_tool", "rationale": "Look it up.", "reply": None,
              "steps": [{"tool": "product_info", "arguments": {"product_id": "P-KET-100"}}]}]

    def reply(body):
        if body.get("logprobs"):
            return "A", [("A", 0.55), ("B", 0.45)]
        return "```json\n" + json.dumps(plans) + "\n```", []

    session = ReferenceChatSession(reply)
    task = load_task(suite_dir / "kettle-capacity.json", vision_fixtures)
    config = agent_config_from_dict({"confidence_floor": 0.6}, AgentConfig())
    agent = AgentSession(task.reset(), RemoteBackend(session=session), vision_fixtures, config)
    assert agent.handle_buyer_turn(task.buyer_script[0].utterance) == CLARIFICATION_REPLY
    [decision] = [e for e in agent.trace.events if e["kind"] == "decision"]
    assert decision["rejected_reason"] == "low_confidence"
    assert session.bodies[1]["top_logprobs"] == 2


def test_remote_describe_sends_its_image_as_an_image_url_part(monkeypatch):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    photo = "https://img.shop.example/uploads/kettle-base.jpg"

    def reply(body):
        parts = body["messages"][0]["content"]
        return " ".join(p["image_url"]["url"] for p in parts if p["type"] == "image_url"), []

    session = ReferenceChatSession(reply)
    vision = RemoteVisionBackend(RemoteBackend(session=session))
    assert vision.describe("Is the base cracked?", photo) == photo
    assert session.bodies[0]["messages"] == [{"role": "user", "content": [
        {"type": "text", "text": "Is the base cracked?"},
        {"type": "image_url", "image_url": {"url": photo}}]}]


def test_script_file_round_trip(tmp_path):
    payload = {"entries": [
        {"contains": "plans", "response": {"text": "plans"}},
        {"contains": "pick", "response": {"text": "A", "label_probs": {"A": 1.0}}},
    ]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    backend = ScriptedBackend.from_file(path)
    assert backend.entries == (ScriptEntry("plans", ChatResponse("plans")),
                               ScriptEntry("pick", ChatResponse("A", {"A": 1.0})))
    assert backend.complete(req("give me plans")).text == "plans"
    assert backend.complete(req("pick one")).label_probs == {"A": 1.0}


# --- the line-memo matcher against the former loop ---


def reference_complete(entries, request):
    """The former matcher: every needle over the whole message."""
    last = request.last_content()
    for entry in entries:
        if entry.contains in last:
            return entry.response
    raise ScriptError(f"no script entry matches; last message starts with: {last[:200]!r}")


def random_script(rng, size):
    """One-line needles (some duplicated, one maybe empty) and needles that span a
    line break, over an alphabet small enough that they hit."""
    entries, needles = [], []
    for i in range(size):
        roll = rng.random()
        if roll < 0.2 and needles:
            needle = rng.choice(needles)
        elif roll < 0.4:
            needle = "".join(rng.choices("ab", k=rng.randint(0, 2))) + "\n" + \
                "".join(rng.choices("ab", k=rng.randint(0, 2)))
        elif roll < 0.42:
            needle = ""
        else:
            needle = "".join(rng.choices("abc", k=rng.randint(2, 6)))
        needles.append(needle)
        entries.append(ScriptEntry(needle, ChatResponse(f"needle {i}")))
    return entries


@pytest.mark.parametrize("size", range(1, 97, 2))
def test_line_memo_matches_the_former_loop(size):
    # sizes 1-95 cover both sides of LINE_MEMO_MIN_ENTRIES
    assert 1 < backends.LINE_MEMO_MIN_ENTRIES < 80
    rng = random.Random(size)
    entries = random_script(rng, size)
    backend = ScriptedBackend(entries)
    lines = ["".join(rng.choices("abcd", k=rng.randint(0, 12))) for _ in range(15)]
    for index in range(40):
        # messages drawn from a small pool of lines, so later calls hit the memo
        request = req("\n".join(rng.choices(lines, k=rng.randint(1, 8))))
        try:
            expected = reference_complete(entries, request)
        except ScriptError as exc:
            with pytest.raises(ScriptError) as raised:
                backend.complete(request)
            assert str(raised.value) == str(exc)
        else:
            assert backend.complete(request) is expected, (index, request.last_content())


def write_script(path, entries):
    """entries as a script file, in the order given."""
    rows = [{"contains": e.contains, "response": {"text": e.response.text}} for e in entries]
    path.write_text(json.dumps({"entries": rows}))


def play_against_the_reference(backend, seed, calls=40):
    """Seeded requests over a small pool of lines; each response must be the former loop's."""
    rng = random.Random(seed)
    lines = ["".join(rng.choices("abcd", k=rng.randint(0, 12))) for _ in range(15)]
    for index in range(calls):
        request = req("\n".join(rng.choices(lines, k=rng.randint(1, 8))))
        try:
            expected = reference_complete(backend.entries, request)
        except ScriptError as exc:
            with pytest.raises(ScriptError) as raised:
                backend.complete(request)
            assert str(raised.value) == str(exc)
        else:
            assert backend.complete(request) is expected, (index, request.last_content())


@pytest.mark.parametrize("size", range(1, 97, 2))
def test_second_backend_of_a_file_matches_the_former_loop_on_a_warm_memo(tmp_path, size):
    path = tmp_path / "s.json"
    write_script(path, random_script(random.Random(size), size))
    first = ScriptedBackend.from_file(path)
    play_against_the_reference(first, seed=size)
    second = ScriptedBackend.from_file(path)
    assert second is first
    warm = dict(second.line_memo or {})
    assert warm or size < backends.LINE_MEMO_MIN_ENTRIES
    # the same requests (all memo hits), then requests over lines the memo may not hold
    play_against_the_reference(second, seed=size)
    play_against_the_reference(second, seed=size + 1000)


def test_threads_sharing_one_memo_match_the_former_loop(tmp_path):
    size = 95
    path = tmp_path / "s.json"
    write_script(path, random_script(random.Random(size), size))
    failures, interval = [], sys.getswitchinterval()

    def play(seed):
        try:
            for _ in range(5):
                play_against_the_reference(ScriptedBackend.from_file(path), seed)
        except BaseException as exc:  # pytest's Failed is one; the main thread reports it
            failures.append(exc)

    threads = [threading.Thread(target=play, args=(seed,)) for seed in range(6)]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    backend = ScriptedBackend.from_file(path)
    assert backend.line_memo
    for line, hit in backend.line_memo.items():
        assert hit == backends._first_in(backend.line_needles, line, size), line


def test_one_script_version_is_one_backend_with_one_memo(tmp_path):
    size = backends.LINE_MEMO_MIN_ENTRIES
    payload = {"entries": [
        {"contains": f"ticket {i:03d}", "response": {"text": f"turn {i}"}} for i in range(size)]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    a = ScriptedBackend.from_file(path)
    assert ScriptedBackend.from_file(path) is a is load_script(path)
    memo = a.line_memo
    assert memo == {}
    assert a.complete(req("header\nticket 007")).text == "turn 7"
    assert a.complete(req("header\nticket 002\nticket 007")).text == "turn 2"
    assert a.complete(req("ticket 005")).text == "turn 5"
    assert memo == {"header": size, "ticket 007": 7, "ticket 002": 2, "ticket 005": 5}
    # a rewritten file version gets a fresh backend with an empty memo, while the
    # backend of the older version keeps its own entries and memo
    payload["entries"][4]["response"]["text"] = "turn four, rewritten"
    path.write_text(json.dumps(payload))
    c = ScriptedBackend.from_file(path)
    assert c is load_script(path) is not a
    assert c.line_memo == {} and c.entries is not a.entries
    assert c.complete(req("ticket 004")).text == "turn four, rewritten"
    assert c.line_memo == {"ticket 004": 4}
    assert a.line_memo is memo and a.complete(req("ticket 004")).text == "turn 4"
    assert memo == {"header": size, "ticket 007": 7, "ticket 002": 2, "ticket 005": 5,
                    "ticket 004": 4}
    assert c.line_memo == {"ticket 004": 4}
    assert ScriptedBackend.from_file(path) is c


def test_every_bundled_script_is_matched_by_the_whole_text_loop(data_dir):
    paths = [*(data_dir / "scripts").glob("*.json"),
             *(data_dir / "adversarial").glob("*.script.json"), data_dir / "demo" / "script.json"]
    assert len(paths) == 15
    for path in paths:
        backend = ScriptedBackend.from_file(path)
        assert len(backend.entries) < backends.LINE_MEMO_MIN_ENTRIES, path
        assert backend.line_memo is None, path


def test_a_forty_entry_script_file_shares_one_memo_that_serves_a_second_backend(tmp_path,
                                                                              monkeypatch):
    # forty entries: the size of an order-desk script, ten turns of four
    assert backends.LINE_MEMO_MIN_ENTRIES <= 40
    path = tmp_path / "desk.json"
    path.write_text(json.dumps({"entries": [
        {"contains": f"ticket {i:03d}", "response": {"text": f"turn {i}"}} for i in range(40)]}))
    first = ScriptedBackend.from_file(path)
    memo = first.line_memo
    assert memo == {}
    assert first.complete(req("header\nticket 031\nticket 007")).text == "turn 7"
    assert memo == {"header": 40, "ticket 031": 31, "ticket 007": 7}
    second = ScriptedBackend.from_file(path)
    assert second is first and second.line_memo is memo
    # every line is in the memo, so the second episode never runs a needle search
    monkeypatch.setattr(backends, "_first_in", lambda *a: pytest.fail("searched a warm line"))
    assert second.complete(req("ticket 031\nheader")).text == "turn 31"


# --- script files: validation and the per-file-version cache ---


@pytest.mark.parametrize("payload", [
    [],
    {"entries": {"contains": ""}},
    {"entries": ["not an object"]},
    {"entries": [{"contains": "", "response": "hi"}]},
    {"entries": [{"contains": "", "response": {"text": 7}}]},
    {"entries": [{"contains": "", "response": {"text": "A", "label_probs": [1.0]}}]},
    {"entries": [{"response": {"text": "no needle"}}]},
    {"entries": [{"step": 0, "contains": "", "response": {"text": "a call index"}}]},
    {"entries": [{"contains": None, "response": {"text": "a null needle"}}]},
    {"entries": [{"contains": ""}]},
    {"entries": [{"contains": 5, "response": {"text": "a needle that is not a string"}}]},
])
def test_malformed_script_is_config_error_naming_the_file(tmp_path, payload):
    path = tmp_path / "bad-script.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="bad-script.json"):
        load_script(path)


def test_script_rewritten_in_place_is_read_again(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"entries": [{"contains": "", "response": {"text": "one"}}]}))
    first = load_script(path)
    assert load_script(path) is first  # same version: served from the cache
    # a new size
    path.write_text(json.dumps({"entries": [{"contains": "", "response": {"text": "three"}}]}))
    assert load_script(path).entries[0].response.text == "three"
    # the same size, a new mtime
    stat = path.stat()
    path.write_text(json.dumps({"entries": [{"contains": "", "response": {"text": "seven"}}]}))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    assert path.stat().st_size == stat.st_size
    assert load_script(path).entries[0].response.text == "seven"


def test_script_deleted_after_a_cache_hit_is_config_error(tmp_path):
    path = tmp_path / "gone.json"
    path.write_text(json.dumps({"entries": [{"contains": "", "response": {"text": "x"}}]}))
    load_script(path)
    load_script(path)
    path.unlink()
    with pytest.raises(ConfigError, match="gone.json"):
        load_script(path)
