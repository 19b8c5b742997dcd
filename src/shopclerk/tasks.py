"""Scripted buyer tasks: file schema, validation, and success checking."""

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import SchemaError, TaskLoadError
from .files import read_json
from .memory import Role, WorkingMemory
from .placeholders import RefKind, classify_url, find_urls
from .world import World, world_from_dict

MODALITIES = ("unimodal", "multimodal")

NUMBER_RE = re.compile(r"[-+]?\d+(?:\.\d+)?")


@dataclass(frozen=True)
class BuyerTurn:
    utterance: str


@dataclass(frozen=True)
class StateAssertion:
    path: str
    expected: object


@dataclass(frozen=True)
class ResponseFact:
    substring: str | None = None
    number: float | None = None
    tolerance: float = 0.0
    must_appear: bool = True

    def describe(self) -> str:
        target = self.substring if self.substring is not None else f"{self.number}±{self.tolerance}"
        return f"{'contains' if self.must_appear else 'omits'} {target!r}"


@dataclass(frozen=True)
class SuccessCriteria:
    state_assertions: tuple[StateAssertion, ...] = ()
    response_facts: tuple[ResponseFact, ...] = ()


@dataclass
class Task:
    task_id: str
    modality: str
    seed_world: World
    buyer_script: tuple[BuyerTurn, ...]
    success: SuccessCriteria
    max_turns: int

    def reset(self) -> World:
        """A fresh world of the episode's own: a copy of the seed parsed at load."""
        return self.seed_world.copy()

    def image_urls(self) -> list[str]:
        urls = []
        for turn in self.buyer_script:
            for _, _, url in find_urls(turn.utterance):
                if classify_url(url) in (RefKind.IMAGE, RefKind.VIDEO):
                    urls.append(url)
        return urls


def _fail(path: str, why: str):
    raise TaskLoadError(f"{path}: {why}")


def load_task(path: str | Path, vision_fixtures=None) -> Task:
    """Parse and validate a task file; error messages name the bad path."""
    data = read_json(path, "task file", error=TaskLoadError)
    return task_from_dict(data, source=str(path), vision_fixtures=vision_fixtures)


def task_from_dict(data: dict, source: str = "<task>", vision_fixtures=None) -> Task:
    if not isinstance(data, dict):
        _fail(source, "top level must be a JSON object")
    task_id = data.get("task_id")
    if not task_id or not isinstance(task_id, str):
        _fail(f"{source}:task_id", "missing or not a string")
    modality = data.get("modality")
    if modality not in MODALITIES:
        _fail(f"{source}:modality", f"must be one of {MODALITIES}, got {modality!r}")
    if "world" not in data or not isinstance(data["world"], dict):
        _fail(f"{source}:world", "missing world seed object")
    try:
        seed_world = world_from_dict(data["world"])
    except SchemaError as exc:
        _fail(f"{source}:world", str(exc))

    raw_turns = data.get("buyer_script") or []
    if not raw_turns or not isinstance(raw_turns, list):
        _fail(f"{source}:buyer_script", "needs a list of at least one turn")
    turns = []
    for i, row in enumerate(raw_turns):
        utterance = row.get("utterance") if isinstance(row, dict) else None
        if not utterance:
            _fail(f"{source}:buyer_script[{i}].utterance", "missing or empty")
        turns.append(BuyerTurn(utterance=utterance))

    max_turns = data.get("max_turns")
    if not isinstance(max_turns, int) or max_turns < len(turns):
        _fail(f"{source}:max_turns", f"must be an integer >= {len(turns)}")

    success_row = data.get("success") or {}
    if not isinstance(success_row, dict):
        _fail(f"{source}:success", "must be an object")
    for key in ("state_assertions", "response_facts"):
        if not isinstance(success_row.get(key, []), list):
            _fail(f"{source}:success.{key}", "must be a list")
    assertions = []
    for i, row in enumerate(success_row.get("state_assertions", [])):
        if not (isinstance(row, dict) and isinstance(row.get("path"), str) and "expected" in row):
            _fail(f"{source}:success.state_assertions[{i}]", "needs a string path and an expected")
        assertions.append(StateAssertion(path=row["path"], expected=row["expected"]))
    facts = []
    for i, row in enumerate(success_row.get("response_facts", [])):
        match = row.get("match") if isinstance(row, dict) else None
        match = match if isinstance(match, dict) else {}
        if "substring" in match:
            facts.append(ResponseFact(substring=match["substring"],
                                      must_appear=row.get("must_appear", True)))
        elif "number" in match:
            try:
                number, tolerance = float(match["number"]), float(match.get("tolerance", 0.0))
            except (TypeError, ValueError):
                _fail(f"{source}:success.response_facts[{i}].match",
                      "number and tolerance must be numbers")
            facts.append(ResponseFact(number=number, tolerance=tolerance,
                                      must_appear=row.get("must_appear", True)))
        else:
            _fail(f"{source}:success.response_facts[{i}].match", "needs substring or number")
    if not assertions and not facts:
        _fail(f"{source}:success", "needs at least one assertion or response fact")
    if assertions:
        # actions change values, never keys, so a path missing at seed is missing for good
        snapshot = seed_world.snapshot([a.path for a in assertions])
        for i, assertion in enumerate(assertions):
            if _resolve_path(snapshot, assertion.path, _MISSING) is _MISSING:
                _fail(f"{source}:success.state_assertions[{i}].path",
                      f"{assertion.path!r} is not in the seed world")

    task = Task(
        task_id=task_id,
        modality=modality,
        seed_world=seed_world,
        buyer_script=tuple(turns),
        success=SuccessCriteria(state_assertions=tuple(assertions), response_facts=tuple(facts)),
        max_turns=max_turns,
    )

    urls = task.image_urls()
    if modality == "multimodal" and not urls:
        _fail(f"{source}:buyer_script", "multimodal task embeds no image or video URL")
    if vision_fixtures is not None:
        for url in urls:
            if not vision_fixtures.has_asset(url):
                _fail(f"{source}:buyer_script", f"asset not in vision fixtures: {url}")
    return task


def load_suite(directory: str | Path, vision_fixtures=None) -> list[Task]:
    directory = Path(directory)
    files = sorted(directory.glob("*.json"))
    if not files:
        _fail(str(directory), "no task files found")
    tasks, first_file = [], {}
    for f in files:
        task = load_task(f, vision_fixtures)
        if task.task_id in first_file:
            _fail(str(f), f"task_id {task.task_id!r} is also the id of {first_file[task.task_id]}")
        first_file[task.task_id] = f
        tasks.append(task)
    return tasks


_MISSING = object()


def _resolve_path(snapshot: dict, dotted: str, default=None):
    node = snapshot
    for key in dotted.split("."):
        if isinstance(node, dict) and key in node:
            node = node[key]
        else:
            return default
    return node


@dataclass(frozen=True)
class CheckReport:
    rows: tuple[dict, ...]

    def passed(self) -> bool:
        return all(r["ok"] for r in self.rows)


def check_success(
    world: World,
    transcript: WorkingMemory,
    criteria: SuccessCriteria,
    table=None,
) -> tuple[bool, CheckReport]:
    """Conjunction of world-state assertions and reply facts.

    Agent reply text is checked after deabstraction when a placeholder
    table is supplied, so facts can reference original URLs.
    """
    snapshot = world.snapshot([a.path for a in criteria.state_assertions])
    rows = []
    for assertion in criteria.state_assertions:
        actual = _resolve_path(snapshot, assertion.path)
        rows.append({
            "predicate": f"{assertion.path} == {assertion.expected!r}",
            "ok": actual == assertion.expected,
            "actual": actual,
        })

    agent_text = "\n".join(
        m.text() for m in transcript.turns if m.role is Role.AGENT
    )
    if table is not None:
        from .placeholders import deabstract_text

        agent_text, _ = deabstract_text(agent_text, table)

    for fact in criteria.response_facts:
        if fact.substring is not None:
            found = fact.substring in agent_text
        else:
            found = any(
                abs(float(m.group(0)) - fact.number) <= fact.tolerance
                for m in NUMBER_RE.finditer(agent_text)
            )
        rows.append({
            "predicate": fact.describe(),
            "ok": found if fact.must_appear else not found,
            "actual": found,
        })

    report = CheckReport(rows=tuple(rows))
    return report.passed(), report
