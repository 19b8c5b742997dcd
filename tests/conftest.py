"""Shared fixtures: bundled data paths, fixture backends, corpus generator."""

import json
import math
import random
from pathlib import Path

import pytest

from shopclerk.backends import ScriptedBackend
from shopclerk.config import AgentConfig, agent_config_from_dict
from shopclerk.episode import AgentSession
from shopclerk.tasks import load_task
from shopclerk.vision import FixtureVisionBackend

DATA_DIR = Path(__file__).parent.parent / "src" / "shopclerk" / "data"
# World.snapshot paths that together name the whole world, for comparing worlds
WHOLE_WORLD = ["products", "orders", "shipments", "clock"]


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def suite_dir(data_dir) -> Path:
    return data_dir / "suite"


@pytest.fixture(scope="session")
def scripts_dir(data_dir) -> Path:
    return data_dir / "scripts"


@pytest.fixture()
def vision_fixtures(data_dir) -> FixtureVisionBackend:
    return FixtureVisionBackend.from_file(data_dir / "vision_fixtures.json")


@pytest.fixture()
def scripted_backend_for(scripts_dir):
    def make(task_id: str) -> ScriptedBackend:
        return ScriptedBackend.from_file(scripts_dir / f"{task_id}.json")

    return make


def plans_script(plans, rationale, path):
    """A script proposing plans every round and picking plan A at full confidence."""
    script = {"entries": [
        {"contains": rationale, "response": {"text": "A", "label_probs": {"A": 1.0}}},
        {"contains": "", "response": {"text": "```json\n" + json.dumps(plans) + "\n```"}},
    ]}
    path.write_text(json.dumps(script))
    return ScriptedBackend.from_file(path)


def one_round_session(steps, tmp_path, suite_dir, vision, task_id="kettle-capacity"):
    """A session whose one plan round runs the given tool steps."""
    plans = [{"kind": "tool_sequence", "steps": steps, "rationale": "Run the steps.",
              "reply": None}]
    chat = plans_script(plans, "Run the steps.", tmp_path / "steps.json")
    task = load_task(suite_dir / f"{task_id}.json")
    config = agent_config_from_dict({"max_plan_rounds": 1}, AgentConfig())
    return AgentSession(task.reset(), chat, vision, config)


def tool_events(session):
    return [e for e in session.trace.events if e["kind"] in ("tool_call", "tool_result")]


class InOrder:
    """A chat backend serving its responses in call order and counting its calls."""

    def __init__(self, *responses):
        self.responses = responses
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.responses[self.calls - 1]


class FakeReply:
    """An HTTP reply as RemoteBackend reads it: a status code and a JSON body."""

    def __init__(self, data, status=200):
        self.data = data
        self.status_code = status

    def json(self):
        return self.data


_MESSAGE_KEYS = {"role", "content", "name"}


def _part_is_valid(part) -> bool:
    """A text part or an image_url part, each with exactly its own keys."""
    if not isinstance(part, dict):
        return False
    if part.get("type") == "text":
        return set(part) == {"type", "text"} and isinstance(part["text"], str)
    image = part.get("image_url")
    return (part.get("type") == "image_url" and set(part) == {"type", "image_url"}
            and isinstance(image, dict) and isinstance(image.get("url"), str))


def _request_misfit(body: dict) -> str | None:
    """Why a chat-completions server would reject the body (HTTP 400), or None."""
    messages = body.get("messages")
    if not isinstance(messages, list) or not messages:
        return "messages: must be a non-empty list"
    for i, message in enumerate(messages):
        if not isinstance(message, dict) or set(message) - _MESSAGE_KEYS:
            return f"messages[{i}]: unknown keys"
        content = message.get("content")
        if isinstance(content, list):
            if not all(_part_is_valid(part) for part in content):
                return f"messages[{i}].content: an unknown or malformed part"
        elif not isinstance(content, str):
            return f"messages[{i}].content: must be a string or a list of parts"
    top = body.get("top_logprobs")
    if top is not None and (body.get("logprobs") is not True or not 0 <= top <= 20):
        return "top_logprobs: needs logprobs: true, and is 0 to 20"
    return None


class ReferenceChatSession:
    """A stand-in chat-completions server for RemoteBackend, stdlib only.

    It keeps to the documented request semantics: a message key or content
    part it does not know is a 400; content is a string or a list of text and
    image_url parts; the first token's alternatives come back only when
    top_logprobs is asked for, and at most that many. ``reply(body)`` gives the
    reply text and that token's alternatives as (token, probability) pairs.
    """

    def __init__(self, reply):
        self.reply = reply
        self.bodies = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.bodies.append(json)
        if why := _request_misfit(json):
            return FakeReply({"error": {"message": why}}, status=400)
        text, alternatives = self.reply(json)
        logprobs = None
        if json.get("logprobs"):
            top = [{"token": token, "logprob": math.log(p), "bytes": list(token.encode())}
                   for token, p in alternatives[:json.get("top_logprobs", 0)]]
            chosen = math.log(dict(alternatives).get(text, 1.0))
            logprobs = {"content": [{"token": text, "logprob": chosen,
                                     "bytes": list(text.encode()), "top_logprobs": top}]}
        return FakeReply({"choices": [{"index": 0, "finish_reason": "stop", "logprobs": logprobs,
                                       "message": {"role": "assistant", "content": text}}]})


class DescribeCounter:
    """A vision backend that passes describe calls through and counts them."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def describe(self, instruction, asset_id):
        self.calls += 1
        return self.inner.describe(instruction, asset_id)


_WORDS = (
    "please check this item again since the parcel looks late and the strap "
    "broke while the box was wet so refund or exchange would help thanks"
).split()


def url_corpus(seed: int = 7, count: int = 120) -> list[str]:
    """Messages mixing prose with URLs of every kind, duplicates, and short URLs."""
    rng = random.Random(seed)
    pool = []
    for i in range(12):
        pool.append(f"https://img.shop.example/uploads/photo-batch-{i:03d}.jpg")
        pool.append(f"https://shop.example/product/P-{100 + i}/full-spec-sheet")
        pool.append(f"https://shop.example/order/O-{7000 + i}/detail-page")
        pool.append(f"https://media.shop.example/clips/clip-take-{i:03d}.mp4")
        pool.append(f"https://docs.shop.example/guides/setup-guide-{i:03d}.pdf")
    short = [f"https://s.ex/{i}" for i in range(6)]  # below the length threshold
    messages = []
    for _ in range(count):
        words = rng.choices(_WORDS, k=rng.randint(3, 12))
        n_urls = rng.randint(0, 3)
        for _ in range(n_urls):
            url = rng.choice(pool if rng.random() > 0.2 else short)
            words.insert(rng.randrange(len(words) + 1), url)
        messages.append(" ".join(words))
    return messages
