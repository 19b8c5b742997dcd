"""The agent session loop: memory in, plans scored, tools run, reply out."""

import json
import time
from typing import NamedTuple

from . import decision as dec
from .config import AgentConfig
from .errors import ClerkError
from .memory import (
    ContentPart,
    Message,
    Role,
    WorkingMemory,
    render_context,
)
from .placeholders import (
    KIND_NAMES,
    UNKNOWN_PLACEHOLDER,
    PlaceholderTable,
    RefKind,
    deabstract_text,
    placeholder_parts,
    split_parts,
)
from .shop_tools import build_registry
from .tasks import Task, check_success
from .toolkit import ActionTrace, ToolCall, Usage
from .vision import IntegrationStrategy, RemoteVisionBackend
from .world import World, seed_store

CLARIFICATION_REPLY = "Sorry, I want to be sure I help correctly. Could you clarify what you need?"

ALL_KINDS = frozenset(KIND_NAMES)
NON_VISUAL_KINDS = frozenset({RefKind.PRODUCT, RefKind.ORDER, RefKind.OTHER})


class EpisodeResult(NamedTuple):
    task_id: str
    trial_index: int
    success: bool
    transcript: WorkingMemory
    trace: ActionTrace
    wall_time_ms: float
    usage: Usage
    modality: str = "unimodal"
    error: str | None = None
    report_rows: tuple = ()
    replies: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "trial_index": self.trial_index,
            "success": self.success,
            "modality": self.modality,
            "wall_time_ms": self.wall_time_ms,
            "usage": self.usage._asdict(),
            "error": self.error,
            "check_report": list(self.report_rows),
            "replies": list(self.replies),
        }


class _Recorded:
    """A session's chat and vision backends; each call leaves one trace event.

    The trace is the session's only ledger: ActionTrace.usage() folds these
    events into its usage. A call that raises is recorded with its error.
    With no vision backend, describe is a describe-kind chat call through this recorder.
    """

    def __init__(self, chat, vision, trace: ActionTrace):
        self._chat = chat
        self._vision = vision or RemoteVisionBackend(self)
        self._trace = trace

    def complete(self, request):
        about = {"call": request.kind, "prompt_chars": request.prompt_chars()}
        try:
            response = self._chat.complete(request)
        except Exception as exc:  # recorded, then raised to the caller unchanged
            self._trace.add("chat", **about, completion_chars=0, error=str(exc))
            raise
        self._trace.add("chat", **about, completion_chars=len(response.text))
        return response

    def describe(self, instruction, asset_id):
        about = {"instruction": instruction, "asset": asset_id}
        try:
            text = self._vision.describe(instruction, asset_id)
        except Exception as exc:  # recorded, then raised to the caller unchanged
            self._trace.add("describe", **about, error=str(exc))
            raise
        self._trace.add("describe", **about, output=text)
        return text


class AgentSession:
    """One buyer-facing session over a world, a backend, and a tool registry."""

    def __init__(
        self,
        world: World,
        chat_backend,
        vision_backend,
        config: AgentConfig | None = None,
        session_id: str = "session",
        templates: tuple[dec.PromptTemplate, dec.PromptTemplate] | None = None,
    ):
        """templates is (propose, evaluate), loaded from config.template_dir when not given."""
        self.config = config or AgentConfig()
        self.world = world
        self.store = seed_store(world)
        self.table = PlaceholderTable(min_url_length=self.config.min_url_length)
        # the URL kinds inbound text abstracts: none with the ACI off (URLs are only tracked
        # for resolution); under the planner strategy image URLs reach the planner as raw
        # text, while other long URLs still shrink
        self._url_kinds = frozenset() if not self.config.aci else (
            NON_VISUAL_KINDS if self.config.strategy == IntegrationStrategy.PLANNER else ALL_KINDS)
        self.trace = ActionTrace()
        self.backends = _Recorded(chat_backend, vision_backend, self.trace)
        self.registry = build_registry(
            world, self.store, self.table, self.backends, self.config.strategy
        )
        self.wm = WorkingMemory(session_id)
        self._propose_template, self._evaluate_template = (
            templates or dec.load_templates(self.config.template_dir))
        self._call_counter = 0
        self._mutation_cursor = 0

    # --- message plumbing ---

    def _inbound_parts(self, text: str) -> tuple[ContentPart, ...]:
        """Split inbound text, abstracting the session's URL kinds."""
        return split_parts(text, self.table, abstract_kinds=self._url_kinds)

    def _append(self, role: str, parts: tuple[ContentPart, ...]) -> None:
        self.wm.append_turn(
            Message(role=role, parts=parts, turn_index=len(self.wm), timestamp=self.world.clock)
        )

    # --- the decision cycle ---

    def handle_buyer_turn(self, utterance: str) -> str:
        """Ingest one buyer utterance and return the outbound reply.

        What the turn did (rounds, tool calls, fallbacks) is in self.trace.
        """
        self.world.clock += 1
        self._append(Role.BUYER, self._inbound_parts(utterance))
        raw_reply = self._decision_cycle()
        outbound, warnings = deabstract_text(raw_reply, self.table)
        for token in warnings:
            self.trace.add("warning", about="unresolved_placeholder_in_reply", token=token)
        self._append(Role.AGENT, placeholder_parts(raw_reply))
        self.trace.add("emit", reply=outbound)
        return outbound

    def _decision_cycle(self) -> str:
        placeholder_retry_used = False
        for _ in range(self.config.max_plan_rounds):
            context = render_context(self.wm, self.config.context_budget, self.config.elide_block)
            plans = self._propose(context)
            if self.config.decision_module:
                evaluations = dec.evaluate(
                    context, plans, self.backends, template=self._evaluate_template
                )
                selected = dec.select(evaluations, self.config.confidence_floor)
            else:
                evaluations = [dec.PlanEvaluation(plan_id=0, label="A", confidence=1.0)]
                selected = 0
            self._record_round(plans, evaluations, selected)
            if selected is None:
                return self._clarify("low_confidence")
            plan = plans[selected]
            if plan.kind == dec.PlanKind.DIRECT_REPLY:
                return plan.draft_reply
            hit_unknown_placeholder = self._run_steps(plan)
            if hit_unknown_placeholder:
                if placeholder_retry_used:
                    return self._clarify("unknown_placeholder")
                placeholder_retry_used = True
        return self._clarify("max_plan_rounds")

    def _clarify(self, reason: str) -> str:
        self.trace.add("clarify", reason=reason)
        return CLARIFICATION_REPLY

    def _propose(self, context: str):
        n = self.config.n_candidates if self.config.decision_module else 1
        return dec.propose(context, self.registry.catalog_text(), n, self.backends,
                           template=self._propose_template)

    def _record_round(self, plans, evaluations, selected: int | None) -> None:
        self.trace.add(
            "decision",
            plans=[p.summary for p in plans],
            evaluations=[
                {"label": e.label, "plan_id": e.plan_id, "confidence": round(e.confidence, 4)}
                for e in evaluations
            ],
            selected=selected,
            rejected_reason="low_confidence" if selected is None else None,
        )

    def _run_steps(self, plan) -> bool:
        """Execute plan steps; returns True when an unknown placeholder stopped it."""
        for step in plan.steps:
            self._call_counter += 1
            call = ToolCall(
                call_id=f"c{self._call_counter}",
                tool_name=step.tool_name,
                arguments=dict(step.arguments),  # plans are shared across episodes
            )
            self.trace.add("tool_call", call=call.to_dict())
            result = self.registry.invoke(call)
            self.trace.add("tool_result", result=result.to_dict(), tool=call.tool_name)
            while self._mutation_cursor < len(self.world.mutations):
                self.trace.add("mutation", **self.world.mutations[self._mutation_cursor])
                self._mutation_cursor += 1
            observation = f"{step.tool_name} => {result.text}"
            self._append(Role.TOOL, self._inbound_parts(observation))
            if result.is_error:
                return result.text.startswith(UNKNOWN_PLACEHOLDER)
        return False


def run_episode(
    task: Task,
    config: AgentConfig,
    chat_backend,
    vision_backend,
    trial_index: int = 0,
    templates: tuple[dec.PromptTemplate, dec.PromptTemplate] | None = None,
) -> EpisodeResult:
    """Play one scripted buyer through a fresh world; never raises mid-episode.

    templates is (propose, evaluate), as AgentSession takes it.
    """
    world = task.reset()
    session = AgentSession(
        world,
        chat_backend,
        vision_backend,
        config,
        session_id=f"{task.task_id}-t{trial_index}",
        templates=templates,
    )
    started = time.monotonic()
    error: str | None = None
    replies: list[str] = []
    for turn in task.buyer_script:
        try:
            replies.append(session.handle_buyer_turn(turn.utterance))
        except ClerkError as exc:
            error = f"{type(exc).__name__}: {exc}"
            session.trace.add("episode_error", error=error)
            break
    elapsed_ms = (time.monotonic() - started) * 1000.0
    usage = session.trace.usage()
    if error is None:
        success, rows = check_success(world, replies, task.success)
    else:
        success, rows = False, ()
    return EpisodeResult(
        task_id=task.task_id,
        trial_index=trial_index,
        success=success,
        transcript=session.wm,
        trace=session.trace,
        wall_time_ms=elapsed_ms,
        usage=usage,
        modality=task.modality,
        error=error,
        report_rows=rows,
        replies=tuple(replies),
    )


def write_result(result: EpisodeResult, directory) -> None:
    """Persist one trial: result JSON plus transcript and trace JSONL."""
    from pathlib import Path

    from .files import writing_into
    from .memory import write_transcript

    directory = Path(directory)
    stem = f"{result.task_id}-t{result.trial_index}"
    with writing_into(directory):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{stem}.result.json").write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
        write_transcript(result.transcript, directory / f"{stem}.transcript.jsonl")
        result.trace.write_jsonl(directory / f"{stem}.trace.jsonl")
