"""Acceptance criteria, one test per criterion, each printing PASS on exit.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import json
import random
import re
import socket
import time
from fractions import Fraction

import pytest

from conftest import url_corpus
from shopclerk.backends import ScriptedBackend
from shopclerk.bench import run_trials
from shopclerk.cli import main
from shopclerk.config import AgentConfig, agent_config_from_dict
from shopclerk.decision import PlanEvaluation, select
from shopclerk.episode import run_episode
from shopclerk.memory import message_to_dict
from shopclerk.metrics import TrialRecord, pass_hat_k, pass_hat_k_counts
from shopclerk.placeholders import PlaceholderTable, abstract_text, deabstract_text
from shopclerk.tasks import load_suite, load_task
from shopclerk.toolkit import ToolCall

URL_RE = re.compile(r"https?://[^\s<>\"']+")


def announce(number: int, label: str):
    print(f"\n[acceptance] criterion {number} PASS - {label}")


class PromptCapture:
    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.inner.complete(request)


def test_criterion_1_metric_reproduction(capsys):
    started = time.monotonic()
    code = main([
        "metrics",
        "--improvement", "31.39:89.82",
        "--improvement", "64.56:65.15",
        "--time-reduction", "11.59:5.93",
    ])
    out = capsys.readouterr().out
    assert code == 0

    def printed(pattern):
        match = re.search(pattern + r"=(-?\d+\.\d+)%", out)
        assert match, f"missing {pattern} in output:\n{out}"
        return float(match.group(1))

    assert printed(r"relative_improvement\(31\.39, 89\.82\)") == pytest.approx(186.14, abs=0.01)
    assert printed(r"relative_improvement\(64\.56, 65\.15\)") == pytest.approx(0.91, abs=0.01)
    assert printed(r"mean_relative_improvement") == pytest.approx(93.53, abs=0.01)
    assert printed(r"time_reduction\(11\.59, 5\.93\)") == pytest.approx(48.84, abs=0.01)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    with capsys.disabled():
        announce(1, f"reported ratios reproduced exactly ({elapsed:.2f}s)")


def test_criterion_2_pass_k_oracle_equivalence():
    started = time.monotonic()
    for n in range(1, 7):
        for c in range(n + 1):
            outcomes = [True] * c + [False] * (n - c)
            previous = None
            for k in range(1, n + 1):
                subsets = list(itertools.combinations(range(n), k))
                winning = sum(1 for idx in subsets if all(outcomes[i] for i in idx))
                oracle = Fraction(winning, len(subsets))
                value = pass_hat_k_counts(n, c, k)
                assert value == oracle, (n, c, k)
                if previous is not None:
                    assert value <= previous, (n, c, k)
                previous = value
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    announce(2, f"formula equals subset enumeration for all n<=6 ({elapsed:.2f}s)")


def test_criterion_3_placeholder_property_suite():
    started = time.monotonic()
    messages = url_corpus(seed=23, count=140)
    assert len(messages) >= 100
    table = PlaceholderTable()
    substitutions = 0
    for message in messages:
        once = abstract_text(message, table)
        assert abstract_text(once, table) == once, "not idempotent"
        restored, warnings = deabstract_text(once, table)
        assert restored == message and warnings == [], "round trip broken"
        assert len(once) <= len(message)
        if once != message:
            substitutions += 1
            assert len(once) < len(message), "no strict compaction"
    assert substitutions > 0
    per_kind = {}
    for entry in table.entries:
        per_kind.setdefault(entry.kind, []).append(entry.placeholder)
    for tokens in per_kind.values():
        name = tokens[0].strip("[]").split()[0]
        assert tokens == [f"[{name} {i}]" for i in range(1, len(tokens) + 1)], "numbering gap"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    announce(3, f"{len(messages)} messages, {substitutions} substituted, all properties hold "
                f"({elapsed:.2f}s)")


def test_criterion_4_end_to_end_determinism(suite_dir, scripts_dir, vision_fixtures, monkeypatch):
    started = time.monotonic()

    def no_network(*args, **kwargs):
        raise AssertionError("network use during a scripted run")

    monkeypatch.setattr(socket, "socket", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)

    tasks = load_suite(suite_dir, vision_fixtures)
    assert len(tasks) >= 10
    assert sum(1 for t in tasks if t.modality == "multimodal") >= 3

    def chat_for(task):
        return ScriptedBackend.from_file(scripts_dir / f"{task.task_id}.json")

    def one_full_run():
        results = run_trials(tasks, AgentConfig(), chat_for, vision_fixtures, n_trials=5)
        trials = []
        transcripts = []
        for result in results:
            trials.append(TrialRecord(result.task_id, result.success,
                                      result.wall_time_ms, result.modality))
            transcripts.append("\n".join(
                json.dumps(message_to_dict(m, result.transcript.session_id), sort_keys=True)
                for m in result.transcript.turns
            ).encode("utf-8"))
        return trials, transcripts

    first_trials, first_transcripts = one_full_run()
    second_trials, second_transcripts = one_full_run()
    assert float(pass_hat_k(first_trials, 1)) == 1.0
    assert float(pass_hat_k(first_trials, 5)) == 1.0
    assert first_transcripts == second_transcripts, "transcripts differ across runs"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    announce(4, f"{len(tasks)} tasks x 5 trials, pass^1=pass^5=1.0, byte-identical reruns, "
                f"no network ({elapsed:.2f}s)")


def test_criterion_5_ablation_directionality(suite_dir, scripts_dir, data_dir, vision_fixtures):
    started = time.monotonic()
    multimodal = [t for t in load_suite(suite_dir, vision_fixtures)
                  if t.modality == "multimodal"]
    on_config = AgentConfig()
    off_config = agent_config_from_dict({"aci": "off"}, on_config)

    def simulated_ms(result):
        """A deterministic completion time: 0.01 ms per prompt char, 2 ms per backend call."""
        return 0.01 * result.usage.prompt_chars + 2.0 * result.usage.backend_calls

    on_times, off_times = [], []
    for task in multimodal:
        assert any(len(u) >= 24 for u in task.image_urls())
        script = scripts_dir / f"{task.task_id}.json"
        on = run_episode(task, on_config, ScriptedBackend.from_file(script), vision_fixtures)
        off = run_episode(task, off_config, ScriptedBackend.from_file(script), vision_fixtures)
        assert on.error is None and off.error is None
        assert on.usage.prompt_chars < off.usage.prompt_chars, task.task_id
        on_times.append(simulated_ms(on))
        off_times.append(simulated_ms(off))
    assert sum(on_times) / len(on_times) < sum(off_times) / len(off_times)

    adversarial = load_task(data_dir / "adversarial" / "blender-stock-adversarial.json",
                            vision_fixtures)
    adversarial_script = data_dir / "adversarial" / "blender-stock-adversarial.script.json"
    module_off = run_episode(
        adversarial, agent_config_from_dict({"decision_module": "off"}, AgentConfig()),
        ScriptedBackend.from_file(adversarial_script), vision_fixtures,
    )
    module_on = run_episode(
        adversarial, AgentConfig(),
        ScriptedBackend.from_file(adversarial_script), vision_fixtures,
    )
    assert module_off.success is False
    assert module_on.success is True
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    announce(5, "abstraction cuts prompt chars and simulated time on every multimodal episode; "
                f"plan scoring flips the adversarial task false->true ({elapsed:.2f}s)")


def test_criterion_6_decision_determinism_and_invariance():
    evaluations = [
        PlanEvaluation(plan_id=0, label="A", confidence=0.31),
        PlanEvaluation(plan_id=1, label="B", confidence=0.44),
        PlanEvaluation(plan_id=2, label="C", confidence=0.25),
    ]
    outcomes = {select(evaluations, 0.0) for _ in range(1000)}
    assert outcomes == {1}

    rng = random.Random(17)
    for _ in range(300):
        shuffled = evaluations[:]
        rng.shuffle(shuffled)
        assert select(shuffled, 0.0) == 1

    ties = [
        PlanEvaluation(plan_id=2, label="C", confidence=0.5),
        PlanEvaluation(plan_id=0, label="A", confidence=0.5),
        PlanEvaluation(plan_id=1, label="B", confidence=0.2),
    ]
    assert select(ties, 0.0) == 0
    announce(6, "1000 repeats one decision; permutation-proof argmax; ties to smallest id")


def test_criterion_7_strategy_mode_separation(suite_dir, scripts_dir, vision_fixtures):
    multimodal = [t for t in load_suite(suite_dir, vision_fixtures)
                  if t.modality == "multimodal"]
    assert len(multimodal) >= 3
    planner_config = agent_config_from_dict({"strategy": "planner"}, AgentConfig())
    for task in multimodal:
        script = scripts_dir / f"{task.task_id}.json"

        tool_chat = PromptCapture(ScriptedBackend.from_file(script))
        tool_run = run_episode(task, AgentConfig(), tool_chat, vision_fixtures)
        assert tool_run.usage.describe_calls >= 1, task.task_id
        for request in tool_chat.requests:
            for message in request.messages:
                for url in URL_RE.findall(message.content):
                    assert len(url) < 24, f"{task.task_id}: {url} leaked into a tool-mode prompt"

        planner_chat = PromptCapture(ScriptedBackend.from_file(script))
        planner_run = run_episode(task, planner_config, planner_chat, vision_fixtures)
        assert planner_run.usage.describe_calls == 0, task.task_id
        raw_seen = any(
            len(url) >= 24
            for request in planner_chat.requests
            for message in request.messages
            for url in URL_RE.findall(message.content)
        )
        assert raw_seen, f"{task.task_id}: planner prompts carried no raw image reference"
    announce(7, "tool mode: describes and clean prompts; planner mode: raw images, no describes")


def test_criterion_8_robustness(suite_dir, scripts_dir, vision_fixtures, tmp_path):
    from shopclerk.bench import run_ablation

    # a hostile plan round: unknown tool, bad arguments, illegal transition,
    # hallucinated placeholder - then a normal reply
    hostile_plans = [{
        "kind": "tool_sequence",
        "steps": [
            {"tool": "teleport", "arguments": {}},
            {"tool": "product_info", "arguments": {}},
            {"tool": "order_update", "arguments": {"order_id": "O-9001", "action": "cancel"}},
            {"tool": "multimodal_describe", "arguments": {"placeholder": "[Image 9]"}},
        ],
        "rationale": "Try everything at once.", "reply": None,
    }]
    reply_plan = [{"kind": "direct_reply", "steps": [],
                   "rationale": "Give up politely.", "reply": "Let me check and get back to you."}]
    script = {"entries": [
        {"contains": "Try everything at once.", "response": {"text": "A", "label_probs": {"A": 1.0}}},
        {"contains": "Give up politely.", "response": {"text": "A", "label_probs": {"A": 1.0}}},
        {"contains": "unknown_tool",
         "response": {"text": "```json\n" + json.dumps(reply_plan) + "\n```"}},
        {"contains": "",
         "response": {"text": "```json\n" + json.dumps(hostile_plans) + "\n```"}},
    ]}
    hostile_path = tmp_path / "hostile.json"
    hostile_path.write_text(json.dumps(script))

    task = load_task(suite_dir / "damaged-kettle-refund.json", vision_fixtures)
    result = run_episode(task, AgentConfig(), ScriptedBackend.from_file(hostile_path),
                         vision_fixtures)
    assert result.error is None, "hostile tool plan crashed the episode"
    error_texts = [
        e["result"]["content"][0]["text"]
        for e in result.trace.events
        if e["kind"] == "tool_result" and e["result"]["is_error"]
    ]
    assert any(t == "unknown_tool: teleport" for t in error_texts)

    plan_errors = set()
    # run each bad step in isolation for its specified artifact
    from shopclerk.episode import AgentSession

    session = AgentSession(task.reset(), ScriptedBackend([]), vision_fixtures, AgentConfig())
    checks = {
        "unknown_tool": ToolCall("c1", "teleport", {}),
        "invalid_arguments": ToolCall("c2", "product_info", {}),
        "illegal_transition": ToolCall("c3", "order_update",
                                       {"order_id": "O-9001", "action": "cancel"}),
        "unknown_placeholder": ToolCall("c4", "multimodal_describe",
                                        {"placeholder": "[Image 9]"}),
    }
    for prefix, call in checks.items():
        outcome = session.registry.invoke(call)
        assert outcome.is_error and outcome.text.startswith(prefix), (prefix, outcome.text)
        plan_errors.add(prefix)

    # a bench run over a good task and a script-exhausting task still completes
    def chat_for(task_obj):
        if task_obj.task_id == "kettle-capacity":
            return ScriptedBackend.from_file(scripts_dir / "kettle-capacity.json")
        return ScriptedBackend([])  # exhausts on the first call

    tasks = [load_task(suite_dir / "kettle-capacity.json", vision_fixtures),
             load_task(suite_dir / "order-status.json", vision_fixtures)]
    reports, results = run_ablation(tasks, [("robust", AgentConfig())],
                                    chat_for, vision_fixtures, n_trials=2, k_values=[1])
    assert len(results) == 4
    assert reports[0]["failures"] == 2  # the exhausted task errored, nothing aborted
    exhausted = [r for r in results if r.task_id == "order-status"]
    assert all("ScriptError" in r.error for r in exhausted)
    healthy = [r for r in results if r.task_id == "kettle-capacity"]
    assert all(r.success for r in healthy)
    announce(8, f"error artifacts verified ({', '.join(sorted(plan_errors))}, ScriptError); "
                "bench run survived every fault")
