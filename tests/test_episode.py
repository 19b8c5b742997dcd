import json
import os
import re
from types import SimpleNamespace

import pytest

from conftest import InOrder, one_round_session, plans_script, tool_events
from shopclerk import episode
from shopclerk.backends import ChatResponse, RecordingBackend, ReplayBackend, ScriptedBackend
from shopclerk.config import AgentConfig, agent_config_from_dict
from shopclerk.episode import CLARIFICATION_REPLY, AgentSession, run_episode
from shopclerk.errors import ReplayMissError
from shopclerk.memory import (
    ELISION_MARKER,
    Namespace,
    PartKind,
    Role,
    message_to_dict,
    read_transcript,
    render_context,
    render_turn,
    write_transcript,
)
from shopclerk.shop_tools import _Handlers
from shopclerk.tasks import BuyerTurn, ResponseFact, SuccessCriteria, Task, load_task
from shopclerk.world import replay_mutations, world_from_dict

QUALIFYING_URL_RE = re.compile(r"https?://[^\s<>\"']{16,}")


class PromptCapture:
    """Wraps a backend and keeps every request for later inspection."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.inner.complete(request)


def clarify_reasons(result):
    return [e["reason"] for e in result.trace.events if e["kind"] == "clarify"]


def transcript_lines(result):
    return [
        json.dumps(message_to_dict(m, result.transcript.session_id), sort_keys=True)
        for m in result.transcript.turns
    ]


def run_bundled(task_id, suite_dir, scripts_dir, vision_fixtures, config=None, capture=False):
    task = load_task(suite_dir / f"{task_id}.json", vision_fixtures)
    chat = ScriptedBackend.from_file(scripts_dir / f"{task_id}.json")
    if capture:
        chat = PromptCapture(chat)
    result = run_episode(task, config or AgentConfig(), chat, vision_fixtures)
    return result, chat


def test_a_transcript_read_back_renders_like_the_live_one(suite_dir, scripts_dir, vision_fixtures,
                                                          tmp_path):
    result, _ = run_bundled("refund-approval", suite_dir, scripts_dir, vision_fixtures)
    live = result.transcript
    write_transcript(live, tmp_path / "t.jsonl")
    read = read_transcript(tmp_path / "t.jsonl")
    lines = [render_turn(m) for m in live.turns]
    newest_buyer = max(i for i, m in enumerate(live.turns) if m.role == Role.BUYER)
    assert read._last_buyer == live._last_buyer == newest_buyer
    buyer_decided = 0
    for block in (1, 2, 4, 16):
        for budget in range(1, len("\n".join(lines)) + 2):
            rendered = render_context(live, budget, block)
            assert render_context(read, budget, block) == rendered, (block, budget)
            # kept from the newest buyer line, which neither starts a block nor is the newest line
            buyer_decided += (newest_buyer % block != 0 and newest_buyer < len(lines) - 1
                              and rendered == "\n".join([ELISION_MARKER, *lines[newest_buyer:]]))
    assert buyer_decided


def test_unimodal_task_succeeds_with_tool_call(suite_dir, scripts_dir, vision_fixtures):
    result, _ = run_bundled("kettle-capacity", suite_dir, scripts_dir, vision_fixtures)
    assert result.success
    assert result.error is None
    calls = [e for e in result.trace.events if e["kind"] == "tool_call"]
    assert any(e["call"]["tool"] == "product_info" for e in calls)


def test_every_bundled_task_succeeds(suite_dir, scripts_dir, vision_fixtures):
    from shopclerk.tasks import load_suite

    for task in load_suite(suite_dir, vision_fixtures):
        chat = ScriptedBackend.from_file(scripts_dir / f"{task.task_id}.json")
        result = run_episode(task, AgentConfig(), chat, vision_fixtures)
        assert result.success, f"{task.task_id}: {result.error} report={result.report_rows}"


def test_wrong_plan_label_fails_task(suite_dir, scripts_dir, vision_fixtures, tmp_path):
    # negative fixture: flip the first evaluation toward the guessing plan
    script = json.loads((scripts_dir / "kettle-capacity.json").read_text())
    for entry in script["entries"]:
        probs = entry["response"].get("label_probs")
        if probs == {"A": 0.9, "B": 0.1}:
            entry["response"]["label_probs"] = {"A": 0.1, "B": 0.9}
            entry["response"]["text"] = "B"
    mutated = tmp_path / "wrong-label.json"
    mutated.write_text(json.dumps(script))

    task = load_task(suite_dir / "kettle-capacity.json", vision_fixtures)
    result = run_episode(task, AgentConfig(), ScriptedBackend.from_file(mutated), vision_fixtures)
    assert not result.success
    assert result.error is None  # clean run, just an unhelpful answer


def test_script_exhaustion_is_recorded_not_raised(suite_dir, vision_fixtures):
    task = load_task(suite_dir / "kettle-capacity.json", vision_fixtures)
    chat = ScriptedBackend([])  # nothing scripted at all
    result = run_episode(task, AgentConfig(), chat, vision_fixtures)
    assert not result.success
    assert "ScriptError" in result.error
    # the failed call is still on the ledger, as a failed describe would be
    chats = [e for e in result.trace.events if e["kind"] == "chat"]
    assert len(chats) == 1
    assert chats[0]["call"] == "propose"
    assert chats[0]["prompt_chars"] > 0
    assert chats[0]["completion_chars"] == 0
    assert chats[0]["error"] in result.error
    assert result.usage.backend_calls == 1


@pytest.mark.parametrize("block", [
    '{"plans": 5}',
    json.dumps([{"kind": "direct_reply", "steps": [], "rationale": "r", "reply": 5}]),
])
def test_malformed_proposal_is_an_episode_error_not_a_crash(suite_dir, vision_fixtures,
                                                            tmp_path, block):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": [
        {"contains": "", "response": {"text": "```json\n" + block + "\n```"}}]}))
    task = load_task(suite_dir / "kettle-capacity.json", vision_fixtures)
    result = run_episode(task, AgentConfig(), ScriptedBackend.from_file(path), vision_fixtures)
    assert not result.success
    assert result.error.startswith("ProposalError")


def test_transcripts_identical_across_runs(suite_dir, scripts_dir, vision_fixtures):
    lines = [
        transcript_lines(run_bundled("damaged-kettle-refund", suite_dir, scripts_dir,
                                     vision_fixtures)[0])
        for _ in range(2)
    ]
    assert lines[0] == lines[1]


def test_tool_mode_separation(suite_dir, scripts_dir, vision_fixtures):
    result, chat = run_bundled("damaged-kettle-refund", suite_dir, scripts_dir,
                               vision_fixtures, capture=True)
    assert result.success
    assert result.usage.describe_calls >= 1
    for request in chat.requests:
        for message in request.messages:
            for url in QUALIFYING_URL_RE.findall(message.content):
                assert len(url) < 24, f"raw qualifying URL leaked into prompt: {url}"


def test_planner_mode_separation(suite_dir, scripts_dir, vision_fixtures):
    config = agent_config_from_dict({"strategy": "planner"}, AgentConfig())
    result, chat = run_bundled("damaged-kettle-refund", suite_dir, scripts_dir,
                               vision_fixtures, config=config, capture=True)
    assert result.usage.describe_calls == 0
    raw_image_seen = any(
        "kettle-crack-2291.jpg" in message.content
        for request in chat.requests
        for message in request.messages
    )
    assert raw_image_seen


def test_agent_reply_stored_abstracted_emitted_deabstracted(
    suite_dir, scripts_dir, vision_fixtures
):
    result, _ = run_bundled("manual-link", suite_dir, scripts_dir, vision_fixtures)
    assert result.success
    agent_turns = [m for m in result.transcript.turns if m.role == Role.AGENT]
    stored = agent_turns[-1]
    assert any(p.kind == PartKind.PLACEHOLDER and p.value == "[Link 1]" for p in stored.parts)
    emits = [e for e in result.trace.events if e["kind"] == "emit"]
    assert "crisproast-toaster-v3.pdf" in emits[-1]["reply"]


def test_unknown_placeholder_replanned_once_then_fallback(suite_dir, vision_fixtures, tmp_path):
    plans = [{"kind": "single_tool",
              "steps": [{"tool": "multimodal_describe",
                          "arguments": {"placeholder": "[Image 9]"}}],
              "rationale": "Look at the ninth image.", "reply": None}]
    chat = plans_script(plans, "Look at the ninth image.", tmp_path / "hallucinated.json")
    task = load_task(suite_dir / "damaged-kettle-refund.json", vision_fixtures)
    result = run_episode(task, AgentConfig(), chat, vision_fixtures)
    assert result.error is None
    assert result.replies == (CLARIFICATION_REPLY,)
    errors = [e for e in result.trace.events
              if e["kind"] == "tool_result" and e["result"]["is_error"]]
    assert len(errors) == 2  # first failure earns one replan, second ends the turn
    assert clarify_reasons(result) == ["unknown_placeholder"]
    assert not result.success


def test_low_confidence_floor_triggers_clarification(suite_dir, scripts_dir, vision_fixtures):
    config = agent_config_from_dict({"confidence_floor": 0.95}, AgentConfig())
    result, _ = run_bundled("kettle-capacity", suite_dir, scripts_dir, vision_fixtures,
                            config=config)
    assert result.replies == (CLARIFICATION_REPLY,)
    decisions = [e for e in result.trace.events if e["kind"] == "decision"]
    assert decisions[0]["rejected_reason"] == "low_confidence"
    assert clarify_reasons(result) == ["low_confidence"]


def test_mutation_events_in_trace_replay_to_final_world(suite_dir, scripts_dir, vision_fixtures):
    task = load_task(suite_dir / "cancel-paid-order.json", vision_fixtures)
    chat = ScriptedBackend.from_file(scripts_dir / "cancel-paid-order.json")
    # run on a session directly so the final world stays accessible
    world = task.reset()
    session = AgentSession(world, chat, vision_fixtures, AgentConfig(), session_id="audit")
    for turn in task.buyer_script:
        session.handle_buyer_turn(turn.utterance)
    events = [
        {k: v for k, v in e.items() if k in ("tick", "order_id", "action", "from", "to")}
        for e in session.trace.events
        if e["kind"] == "mutation"
    ]
    assert events, "expected at least one mutation event"
    replayed = replay_mutations(task.reset(), events)
    assert replayed.snapshot(["orders"]) == world.snapshot(["orders"])


def test_aci_off_keeps_raw_urls_and_costs_more(suite_dir, scripts_dir, vision_fixtures):
    on, _ = run_bundled("damaged-kettle-refund", suite_dir, scripts_dir, vision_fixtures)
    off, chat = run_bundled(
        "damaged-kettle-refund", suite_dir, scripts_dir, vision_fixtures,
        config=agent_config_from_dict({"aci": "off"}, AgentConfig()), capture=True,
    )
    assert on.success and off.success
    assert on.usage.backend_calls == off.usage.backend_calls  # same flow shape
    assert on.usage.prompt_chars < off.usage.prompt_chars
    assert any("kettle-crack-2291.jpg" in m.content
               for r in chat.requests for m in r.messages)


def test_wall_time_is_the_monotonic_span_whatever_the_config(suite_dir, scripts_dir,
                                                             vision_fixtures, monkeypatch):
    for row in ({}, {"aci": "off", "decision_module": "off"},
                {"strategy": "planner", "n_candidates": 1}):
        ticks = iter(range(100, 1000, 7))  # a clock that moves 7 s per read
        monkeypatch.setattr(episode, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        result, _ = run_bundled("kettle-capacity", suite_dir, scripts_dir, vision_fixtures,
                                config=agent_config_from_dict(row))
        assert result.success, row
        assert result.wall_time_ms == 7000.0, row
        assert next(ticks) == 114, row  # read once at the start and once at the end


def test_scripted_and_replay_transcripts_match(suite_dir, scripts_dir, vision_fixtures, tmp_path):
    task = load_task(suite_dir / "order-status.json", vision_fixtures)
    store = tmp_path / "store.json"
    recording = RecordingBackend(
        ScriptedBackend.from_file(scripts_dir / "order-status.json"), store
    )
    first = run_episode(task, AgentConfig(), recording, vision_fixtures)
    second = run_episode(task, AgentConfig(), ReplayBackend(store), vision_fixtures)
    assert first.success and second.success
    assert transcript_lines(first) == transcript_lines(second)


def test_decision_module_off_takes_first_plan(data_dir, vision_fixtures):
    task = load_task(data_dir / "adversarial" / "blender-stock-adversarial.json",
                     vision_fixtures)
    script = data_dir / "adversarial" / "blender-stock-adversarial.script.json"
    off = run_episode(task, agent_config_from_dict({"decision_module": "off"}, AgentConfig()),
                      ScriptedBackend.from_file(script), vision_fixtures)
    on = run_episode(task, AgentConfig(),
                     ScriptedBackend.from_file(script), vision_fixtures)
    assert not off.success
    assert on.success


def test_template_override_via_config(suite_dir, scripts_dir, vision_fixtures, tmp_path):
    package_templates = __import__("shopclerk.decision", fromlist=["_TEMPLATE_DIR"])._TEMPLATE_DIR
    custom = tmp_path / "templates"
    custom.mkdir()
    for name in ("propose.txt", "evaluate.txt"):
        text = (package_templates / name).read_text()
        (custom / name).write_text("CUSTOM-TEMPLATE-MARK\n" + text)
    config = agent_config_from_dict({"template_dir": str(custom)}, AgentConfig())
    result, chat = run_bundled("kettle-capacity", suite_dir, scripts_dir, vision_fixtures,
                               config=config, capture=True)
    assert result.success
    assert all("CUSTOM-TEMPLATE-MARK" in r.messages[0].content for r in chat.requests)


def test_plan_rounds_bounded(suite_dir, vision_fixtures, tmp_path):
    # a script that always proposes the same tool plan never terminates by itself
    plans = [{"kind": "single_tool",
              "steps": [{"tool": "order_lookup", "arguments": {"order_id": "O-9001"}}],
              "rationale": "Check the order again.", "reply": None}]
    chat = plans_script(plans, "Check the order again.", tmp_path / "loop.json")
    task = load_task(suite_dir / "damaged-kettle-refund.json", vision_fixtures)
    config = agent_config_from_dict({"max_plan_rounds": 3}, AgentConfig())
    result = run_episode(task, config, chat, vision_fixtures)
    assert result.error is None
    assert result.replies == (CLARIFICATION_REPLY,)
    assert result.usage.backend_calls == 6  # 3 rounds of propose + evaluate
    assert clarify_reasons(result) == ["max_plan_rounds"]


def test_policy_puts_stay_in_their_own_episode(suite_dir, scripts_dir, vision_fixtures, tmp_path):
    # every episode of a task starts from the policy tables parsed once with the task
    task = load_task(suite_dir / "late-delivery.json", vision_fixtures)
    seeded = dict(task.seed_world.policies[Namespace.PLATFORM_POLICY].docs)
    puts = [("delivery-promise", "Parcels arrive whenever they like."),
            ("buyer-mood", "This buyer is frustrated.")]
    plans = [{"kind": "tool_sequence", "rationale": "Note the case.", "reply": None, "steps": [
        {"tool": "memory_put", "arguments": {"namespace": "platform_policy", "key": key,
                                             "body_json": json.dumps(body)}}
        for key, body in puts]}]
    first = AgentSession(task.reset(), plans_script(plans, "Note the case.", tmp_path / "put.json"),
                         vision_fixtures)
    first.handle_buyer_turn(task.buyer_script[0].utterance)
    for key, body in puts:
        assert first.store.get("platform_policy", key).body == body

    second = AgentSession(task.reset(), ScriptedBackend.from_file(scripts_dir / "late-delivery.json"),
                          vision_fixtures)
    assert second.store.get("platform_policy", "buyer-mood") is None
    found = second.store.search("platform_policy", "parcels arrive whenever frustrated", 5)
    assert [(d.key, d.body) for d in found] == [("delivery-promise", seeded["delivery-promise"].body)]
    assert task.seed_world.policies[Namespace.PLATFORM_POLICY].docs == seeded


def test_bundled_suite_usage_is_pinned(suite_dir, scripts_dir, vision_fixtures):
    # the totals the per-call counters gave before usage became a fold over the trace
    from shopclerk.tasks import load_suite

    totals = dict.fromkeys(("prompt_chars", "completion_chars", "backend_calls",
                            "describe_calls"), 0)
    calls = {"propose": 0, "evaluate": 0}
    tasks = load_suite(suite_dir, vision_fixtures)
    assert len(tasks) == 13
    for task in tasks:
        chat = ScriptedBackend.from_file(scripts_dir / f"{task.task_id}.json")
        result = run_episode(task, AgentConfig(), chat, vision_fixtures)
        assert result.usage == result.trace.usage(), task.task_id
        for key in totals:
            totals[key] += getattr(result.usage, key)
        for event in result.trace.events:
            if event["kind"] == "chat":
                calls[event["call"]] += 1
        assert clarify_reasons(result) == [], task.task_id
    assert totals == {"prompt_chars": 72_020, "completion_chars": 10_527,
                      "backend_calls": 60, "describe_calls": 3}
    assert calls == {"propose": 30, "evaluate": 30}


def scores_to_picks(event):
    """A decision event with each confidence set to 1.0 if its plan won, else 0.0."""
    if event["kind"] != "decision":
        return event
    evaluations = [{**e, "confidence": 1.0 if e["plan_id"] == event["selected"] else 0.0}
                   for e in event["evaluations"]]
    return {**event, "evaluations": evaluations}


def test_bundled_suite_plays_the_same_without_label_probs(suite_dir, scripts_dir,
                                                         vision_fixtures, tmp_path):
    # without probabilities a round is scored from its one label reply
    from shopclerk.tasks import load_suite

    tasks = load_suite(suite_dir, vision_fixtures)
    assert len(tasks) == 13
    for task in tasks:
        script = json.loads((scripts_dir / f"{task.task_id}.json").read_text())
        stripped = [entry["response"].pop("label_probs", None) for entry in script["entries"]]
        assert any(stripped), task.task_id
        path = tmp_path / f"{task.task_id}.json"
        path.write_text(json.dumps(script))
        with_probs, without = [
            run_episode(task, AgentConfig(), ScriptedBackend.from_file(p), vision_fixtures)
            for p in (scripts_dir / f"{task.task_id}.json", path)]
        assert without.error is None and without.success, task.task_id
        assert transcript_lines(without) == transcript_lines(with_probs), task.task_id
        # every event matches but the confidences, which fall to 1.0 for the picked label
        assert ([scores_to_picks(e) for e in without.trace.events]
                == [scores_to_picks(e) for e in with_probs.trace.events]), task.task_id
        for event in without.trace.events:
            if event["kind"] == "decision":
                assert event == scores_to_picks(event), task.task_id
        assert without.usage == with_probs.usage, task.task_id


def test_each_propose_prompt_starts_with_the_previous_ones_static_head(
        suite_dir, scripts_dir, vision_fixtures):
    # the tool catalog and the plan instructions stay fixed for a session, and the
    # conversation comes last, so a prefix cache reuses the whole head on every call
    from shopclerk.tasks import load_suite

    pairs = 0
    for task in load_suite(suite_dir, vision_fixtures):
        chat = PromptCapture(ScriptedBackend.from_file(scripts_dir / f"{task.task_id}.json"))
        assert run_episode(task, AgentConfig(), chat, vision_fixtures).success
        prompts = [r.last_content() for r in chat.requests if not r.label_alphabet]
        for before, after in zip(prompts, prompts[1:]):
            head = before[:before.index("Conversation so far:\n") + len("Conversation so far:\n")]
            assert "Available tools:" in head and "```json" in head
            assert after.startswith(head), task.task_id
            pairs += 1
    assert pairs == 30 - 13  # every propose call but each session's first


@pytest.mark.parametrize("row, turns, period, pairs", [
    ({"context_budget": 400, "elide_block": 1}, 30, 1, 24),
    ({"context_budget": 400, "elide_block": 8}, 30, 4, 24),
    # the default block of 16: a budget of 400 holds fewer lines than a block, so the
    # rounding would often pass the newest buyer line and start the context there
    ({"context_budget": 800}, 40, 8, 29),
], ids=["1", "8", "default"])
def test_propose_prompts_keep_their_prefix_once_the_context_elides(
        suite_dir, vision_fixtures, tmp_path, row, turns, period, pairs):
    plans = [{"kind": "direct_reply", "steps": [], "rationale": "Acknowledge.", "reply": "Noted."}]
    chat = PromptCapture(plans_script(plans, "Acknowledge.", tmp_path / "ack.json"))
    task = load_task(suite_dir / "kettle-capacity.json", vision_fixtures)
    config = agent_config_from_dict(row)
    session = AgentSession(task.reset(), chat, vision_fixtures, config)
    for i in range(turns):
        session.handle_buyer_turn(f"Question {i:02d}: one more detail about my order, please.")
    prompts = [r.last_content() for r in chat.requests if not r.label_alphabet]
    head = prompts[0][:prompts[0].index("Conversation so far:\n") + len("Conversation so far:\n")]
    elided = [p for p in prompts if p.startswith(head + ELISION_MARKER + "\n")]
    assert len(elided) == pairs + 1  # pins the turn elision starts at
    # cut at the last line break, the shared prefix of two prompts covers whole lines:
    # it ends at the marker exactly when the first kept line moved
    floor = len(head) + len(ELISION_MARKER) + 1
    shared = [os.path.commonprefix([a, b]).rfind("\n") + 1 for a, b in zip(elided, elided[1:])]
    assert min(shared) == floor
    # two lines a turn: one move every block / 2 turns, to the next block
    assert [n == floor for n in shared] == [i % period == period - 1 for i in range(len(shared))]


def test_describe_leaves_one_trace_event(suite_dir, scripts_dir, vision_fixtures):
    result, _ = run_bundled("damaged-kettle-refund", suite_dir, scripts_dir, vision_fixtures)
    describes = [e for e in result.trace.events if e["kind"] == "describe"]
    assert describes == [{
        "seq": describes[0]["seq"], "kind": "describe",
        "instruction": "Describe the damage shown in the image",
        "asset": "https://img.shop.example/uploads/kettle-crack-2291.jpg",
        "output": "cracked base, left side",
    }]
    assert result.trace.events[describes[0]["seq"] - 1]["kind"] == "tool_call"
    assert result.usage.describe_calls == 1


class DescribingChat:
    """A scripted chat backend that also answers describe-kind requests, as a remote model would."""

    def __init__(self, inner, description):
        self.inner = inner
        self.description = description

    def complete(self, request):
        if request.kind == "describe":
            return ChatResponse(self.description)
        return self.inner.complete(request)


def test_remote_describe_is_a_describe_chat_call_in_the_ledger(suite_dir, scripts_dir,
                                                               vision_fixtures):
    # no vision backend: the session describes over its own recorded chat backend
    fixture, _ = run_bundled("damaged-kettle-refund", suite_dir, scripts_dir, vision_fixtures)
    task = load_task(suite_dir / "damaged-kettle-refund.json")
    chat = DescribingChat(ScriptedBackend.from_file(scripts_dir / "damaged-kettle-refund.json"),
                          "cracked base, left side")
    result = run_episode(task, AgentConfig(), chat, None)
    assert result.success and result.error is None
    [describe] = [e for e in result.trace.events if e["kind"] == "describe"]
    chat_event = result.trace.events[describe["seq"] - 1]
    instruction, asset = describe["instruction"], describe["asset"]
    assert chat_event == {"seq": describe["seq"] - 1, "kind": "chat", "call": "describe",
                          "prompt_chars": len(instruction) + len(asset),
                          "completion_chars": len("cracked base, left side")}
    assert describe["output"] == "cracked base, left side"
    assert result.usage == fixture.usage._replace(
        backend_calls=fixture.usage.backend_calls + 1,
        prompt_chars=fixture.usage.prompt_chars + chat_event["prompt_chars"],
        completion_chars=fixture.usage.completion_chars + chat_event["completion_chars"])


def test_failed_describe_is_traced_and_counted(suite_dir, vision_fixtures, tmp_path):
    missing = "https://img.shop.example/uploads/not-in-the-fixtures-0001.jpg"
    plans = [{"kind": "single_tool",
              "steps": [{"tool": "multimodal_describe",
                          "arguments": {"placeholder": "[Image 1]"}}],
              "rationale": "Look at the photo.", "reply": None}]
    chat = plans_script(plans, "Look at the photo.", tmp_path / "missing-asset.json")
    task = load_task(suite_dir / "damaged-kettle-refund.json", vision_fixtures)
    config = agent_config_from_dict({"max_plan_rounds": 1}, AgentConfig())
    session = AgentSession(task.reset(), chat, vision_fixtures, config)
    session.handle_buyer_turn(f"My kettle arrived like this: {missing}")
    results = [e for e in session.trace.events if e["kind"] == "tool_result"]
    assert [e["tool"] for e in results] == ["multimodal_describe"]
    assert results[0]["result"]["is_error"]
    describes = [e for e in session.trace.events if e["kind"] == "describe"]
    assert len(describes) == 1
    assert describes[0]["asset"] == missing
    assert "unknown asset" in describes[0]["error"]
    assert "output" not in describes[0]
    assert session.trace.usage().describe_calls == 1


def test_a_stored_url_with_an_unbalanced_bracket_is_a_link_not_a_crash(suite_dir, vision_fixtures,
                                                                        tmp_path):
    # the observation of the get carries the URL, which urlsplit rejects as an invalid IPv6 host
    body = json.dumps({"link": "http://[oops"})
    plans = [{"kind": "tool_sequence", "rationale": "Note the link.", "reply": None, "steps": [
        {"tool": "memory_put", "arguments": {"namespace": "buyer_profile", "key": "k",
                                             "body_json": body}},
        {"tool": "memory_get", "arguments": {"namespace": "buyer_profile", "key": "k"}}]}]
    chat = plans_script(plans, "Note the link.", tmp_path / "bracket.json")
    task = load_task(suite_dir / "kettle-capacity.json", vision_fixtures)
    result = run_episode(task, AgentConfig(), chat, vision_fixtures)
    assert result.error is None
    results = [e["result"] for e in result.trace.events if e["kind"] == "tool_result"]
    assert [r["is_error"] for r in results[:2]] == [False, False]


def test_each_tool_call_leaves_a_call_event_then_its_result_event(suite_dir, vision_fixtures,
                                                                   tmp_path):
    session = one_round_session([
        {"tool": "product_info", "arguments": {"product_id": "P-KET-100"}},
        {"tool": "teleport", "arguments": {}}], tmp_path, suite_dir, vision_fixtures)
    session.handle_buyer_turn("How big is the kettle?")
    events = tool_events(session)
    assert [e["kind"] for e in events] == ["tool_call", "tool_result"] * 2
    for call, result in zip(events[::2], events[1::2]):
        assert result["seq"] == call["seq"] + 1  # nothing between a lookup and its result
        assert result["result"]["call_id"] == call["call"]["call_id"]
        assert result["tool"] == call["call"]["tool"]
    assert [e["result"]["is_error"] for e in events[1::2]] == [False, True]
    assert events[3]["result"]["content"] == [{"type": "text", "text": "unknown_tool: teleport"}]


def test_a_handler_that_mutates_its_arguments_leaves_the_recorded_call_alone(
        suite_dir, vision_fixtures, tmp_path, monkeypatch):
    def mangle(self, args):
        args["product_id"] = "mangled"
        return "ok"

    monkeypatch.setattr(_Handlers, "product_info", mangle)
    session = one_round_session([{"tool": "product_info", "arguments": {"product_id": "as sent"}}],
                                tmp_path, suite_dir, vision_fixtures)
    session.handle_buyer_turn("Look this up.")
    call, result = tool_events(session)
    assert call["call"]["arguments"] == {"product_id": "as sent"}
    assert result["result"]["content"] == [{"type": "text", "text": "ok"}]


class MissingVision:
    """A vision backend that holds no recorded describe, as a replay store without one."""

    def describe(self, instruction, asset_id):
        raise ReplayMissError("no recorded describe response")


def test_a_replay_miss_leaves_a_tool_call_with_no_tool_result(suite_dir, tmp_path):
    photo = "https://img.shop.example/uploads/kettle-crack-2291.jpg"
    session = one_round_session(
        [{"tool": "multimodal_describe", "arguments": {"placeholder": "[Image 1]"}}],
        tmp_path, suite_dir, MissingVision(), task_id="damaged-kettle-refund")
    with pytest.raises(ReplayMissError, match="no recorded describe response"):
        session.handle_buyer_turn(f"My kettle arrived like this: {photo}")
    [call] = tool_events(session)
    assert call["kind"] == "tool_call"
    assert call["call"]["tool"] == "multimodal_describe"
    assert [e["kind"] for e in session.trace.events[call["seq"]:]] == ["tool_call", "describe"]


def test_success_is_judged_on_the_replies_as_sent(vision_fixtures):
    # the first reply names [Image 2] before the buyer has sent a second photo, so it goes out
    # verbatim; the URL that [Image 2] stands for by the end of the episode was never sent
    front = "https://img.shop.example/uploads/kettle-front.jpg"
    base = "https://img.shop.example/uploads/kettle-base.jpg"

    def direct_reply(text):
        plans = [{"kind": "direct_reply", "steps": [], "rationale": "r", "reply": text}]
        return ChatResponse("```json\n" + json.dumps(plans) + "\n```")

    task = Task("two-photos", "multimodal", world_from_dict({}),
                (BuyerTurn(f"Here is my kettle {front}"), BuyerTurn(f"And its base {base}")),
                SuccessCriteria(response_facts=(ResponseFact(substring=base),)))
    config = agent_config_from_dict({"decision_module": False}, AgentConfig())
    chat = InOrder(direct_reply("Is it like [Image 2]?"), direct_reply("Thanks."))
    result = run_episode(task, config, chat, vision_fixtures)
    assert [e["token"] for e in result.trace.events if e["kind"] == "warning"] == ["[Image 2]"]
    assert result.replies == ("Is it like [Image 2]?", "Thanks.")
    assert (result.success, result.report_rows[0]["actual"]) == (False, False)
