"""Scripted buyer tasks: file schema, validation, and success checking."""

import marshal
import re
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, SchemaError
from .files import OBJECT, STRING, closed, read_json, shape_error
from .placeholders import RefKind, classify_url, find_urls
from .world import World, world_from_dict

MODALITIES = ("unimodal", "multimodal")

# a number, its integer part either plain digits or comma-grouped in threes ("1,299.00")
NUMBER_RE = re.compile(r"[-+]?(?:\d{1,3}(?:,\d{3})+(?!\d)|\d+)(?:\.\d+)?")


class BuyerTurn(NamedTuple):
    utterance: str


class StateAssertion(NamedTuple):
    path: str
    expected: object


class ResponseFact(NamedTuple):
    substring: str | None = None
    number: float | None = None
    tolerance: float = 0.0
    must_appear: bool = True

    def describe(self) -> str:
        target = self.substring if self.substring is not None else f"{self.number}±{self.tolerance}"
        return f"{'contains' if self.must_appear else 'omits'} {target!r}"


class SuccessCriteria(NamedTuple):
    state_assertions: tuple[StateAssertion, ...] = ()
    response_facts: tuple[ResponseFact, ...] = ()


class Task(NamedTuple):
    task_id: str
    modality: str
    seed_world: World
    buyer_script: tuple[BuyerTurn, ...]
    success: SuccessCriteria

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
    raise ConfigError(f"{path}: {why}")


_NUMBER = {"type": "number"}

# The shape of a task file; world_from_dict checks the world seed, and an
# assertion's expected value is free-form.
TASK_SCHEMA = closed(
    ["task_id", "modality", "world", "buyer_script", "max_turns", "success"],
    task_id={"type": "string", "minLength": 1}, title=STRING,
    modality={"enum": list(MODALITIES)}, world=OBJECT, max_turns={"type": "integer"},
    buyer_script={"type": "array", "minItems": 1, "items": closed(
        ["utterance"], utterance={"type": "string", "minLength": 1})},
    success=closed(
        [],
        state_assertions={"type": "array", "items": closed(
            ["path", "expected"], path=STRING, expected={})},
        response_facts={"type": "array", "items": closed(
            ["match"], match=closed([], substring={"type": "string", "minLength": 1},
                                    number=_NUMBER, tolerance={"type": "number", "minimum": 0}),
            must_appear={"type": "boolean"})}),
)


def load_task(path: str | Path, vision_fixtures=None, worlds=None) -> Task:
    """Parse and validate a task file; error messages name the bad path."""
    data = read_json(path, "task file", OBJECT)
    return task_from_dict(data, source=str(path), vision_fixtures=vision_fixtures, worlds=worlds)


def task_from_dict(data: dict, source: str = "<task>", vision_fixtures=None,
                   worlds=None) -> Task:
    """A validated task. Given ``worlds`` (seed key -> World), a world seed
    already in it is not parsed again: the task shares that seed World."""
    if why := shape_error(data, TASK_SCHEMA):
        raise ConfigError(f"{source}:{why}")
    try:
        seed_world = _seed_world(data["world"], worlds)
    except SchemaError as exc:
        _fail(f"{source}:world", str(exc))
    turns = tuple(BuyerTurn(utterance=row["utterance"]) for row in data["buyer_script"])
    if data["max_turns"] < len(turns):
        _fail(f"{source}:max_turns", f"must be an integer >= {len(turns)}")

    success = data["success"]
    assertions = [StateAssertion(path=row["path"], expected=row["expected"])
                  for row in success.get("state_assertions", [])]
    facts = []
    for i, row in enumerate(success.get("response_facts", [])):
        match, must_appear = row["match"], row.get("must_appear", True)
        where = f"{source}:success.response_facts[{i}].match"
        if "substring" in match and "number" in match:
            _fail(where, "needs exactly one of substring or number")
        if "tolerance" in match and "number" not in match:
            _fail(where, "tolerance needs a number")
        if "substring" in match:
            facts.append(ResponseFact(substring=match["substring"], must_appear=must_appear))
        elif "number" in match:
            facts.append(ResponseFact(number=float(match["number"]),
                                      tolerance=float(match.get("tolerance", 0.0)),
                                      must_appear=must_appear))
        else:
            _fail(where, "needs substring or number")
    if not assertions and not facts:
        _fail(f"{source}:success", "needs at least one assertion or response fact")
    if assertions:
        # actions change values, never keys, so a path missing at seed is missing for good
        values = seed_world.snapshot([a.path for a in assertions])
        for i, assertion in enumerate(assertions):
            if assertion.path not in values:
                _fail(f"{source}:success.state_assertions[{i}].path",
                      f"{assertion.path!r} is not in the seed world")

    task = Task(data["task_id"], data["modality"], seed_world, turns,
                SuccessCriteria(tuple(assertions), tuple(facts)))

    urls = task.image_urls()
    if task.modality == "multimodal" and not urls:
        _fail(f"{source}:buyer_script", "multimodal task embeds no image or video URL")
    if vision_fixtures is not None:
        for url in urls:
            if not vision_fixtures.has_asset(url):
                _fail(f"{source}:buyer_script", f"asset not in vision fixtures: {url}")
    return task


def _seed_world(seed: dict, worlds: dict | None) -> World:
    if worlds is None:
        return world_from_dict(seed)
    # Equal marshal bytes decode to identical values, so the key tells 1, 1.0 and
    # true apart (== does not) and keeps key order. Equal seeds whose objects are
    # shared differently may marshal apart, which only loses a share.
    key = marshal.dumps(seed)
    if key not in worlds:
        worlds[key] = world_from_dict(seed)
    return worlds[key]


def load_suite(directory: str | Path, vision_fixtures=None) -> list[Task]:
    """Every task file in a directory, in name order. Tasks whose world seeds
    are the same share one seed World, parsed once; Task.reset copies it."""
    directory = Path(directory)
    files = sorted(directory.glob("*.json"))
    if not files:
        _fail(str(directory), "no task files found")
    tasks, first_file, worlds = [], {}, {}
    for f in files:
        task = load_task(f, vision_fixtures, worlds)
        if task.task_id in first_file:
            _fail(str(f), f"task_id {task.task_id!r} is also the id of {first_file[task.task_id]}")
        first_file[task.task_id] = f
        tasks.append(task)
    return tasks


def check_success(
    world: World,
    replies: Sequence[str],
    criteria: SuccessCriteria,
) -> tuple[bool, tuple[dict, ...]]:
    """Conjunction of world-state assertions and reply facts, and one row per check.

    Facts are checked against the replies as the buyer was sent them: each was
    deabstracted against the placeholder table as it stood when it went out.
    """
    values = world.snapshot([a.path for a in criteria.state_assertions])
    rows = []
    for assertion in criteria.state_assertions:
        actual = values.get(assertion.path)
        rows.append({
            "predicate": f"{assertion.path} == {assertion.expected!r}",
            "ok": actual == assertion.expected,
            "actual": actual,
        })

    agent_text = "\n".join(replies) if criteria.response_facts else ""
    for fact in criteria.response_facts:
        if fact.substring is not None:
            found = fact.substring in agent_text
        else:
            found = any(
                abs(float(m.group(0).replace(",", "")) - fact.number) <= fact.tolerance
                for m in NUMBER_RE.finditer(agent_text)
            )
        rows.append({
            "predicate": fact.describe(),
            "ok": found if fact.must_appear else not found,
            "actual": found,
        })

    return all(r["ok"] for r in rows), tuple(rows)
