import json

import pytest

from shopclerk.backends import ChatResponse
from shopclerk.errors import BackendError, ConfigError, ResolutionError, UsageError
from shopclerk.vision import FixtureVisionBackend, RemoteVisionBackend

ASSET_ID = "https://img.shop.example/uploads/kettle-crack-2291.jpg"


def make_backend():
    asset = {"annotations": {"default": "a steel kettle, boxed", "damage": "cracked base"}}
    rules = [{"category": "damage", "keywords": ["damage", "broken", "crack"]},
             {"category": "color", "keywords": ["color", "colour"]}]
    return FixtureVisionBackend({ASSET_ID: asset}, rules)


def test_describe_damage_instruction_selects_damage_annotation():
    backend = make_backend()
    out = backend.describe("Describe the damage shown in the image", ASSET_ID)
    assert out == "cracked base"


def test_describe_falls_back_to_default():
    backend = make_backend()
    out = backend.describe("What color is the item?", ASSET_ID)
    # asset has no color annotation, so the default one answers
    assert out == "a steel kettle, boxed"


def test_describe_empty_instruction_rejected():
    with pytest.raises(UsageError):
        make_backend().describe("", ASSET_ID)


def test_describe_unknown_asset():
    with pytest.raises(ResolutionError, match="^unknown asset: https://img.example/missing.jpg$"):
        make_backend().describe("anything", "https://img.example/missing.jpg")


def test_describe_deterministic():
    backend = make_backend()
    outputs = {backend.describe("is it broken?", ASSET_ID) for _ in range(20)}
    assert outputs == {"cracked base"}


def test_asset_requires_default_annotation(tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({"assets": {"a": {"annotations": {"damage": "only"}}}}))
    with pytest.raises(ConfigError, match="assets.a.annotations.default: missing$"):
        FixtureVisionBackend.from_file(path)


def test_asset_specific_rules_take_precedence():
    asset = {"annotations": {"default": "d", "closeup": "macro shot"},
             "rules": [{"category": "closeup", "keywords": ["zoom"]}]}
    backend = FixtureVisionBackend({"x": asset}, [{"category": "damage", "keywords": ["zoom"]}])
    assert backend.describe("zoom in please", "x") == "macro shot"


def test_fixture_file_loading(data_dir):
    backend = FixtureVisionBackend.from_file(data_dir / "vision_fixtures.json")
    assert backend.has_asset(ASSET_ID)
    out = backend.describe("Describe the damage shown in the image", ASSET_ID)
    assert out == "cracked base, left side"


class CountingChat:
    """Answers every request with the same text and counts the calls."""

    def __init__(self, text):
        self.text = text
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return ChatResponse(text=self.text)


def test_remote_vision_empty_description_fails_at_once():
    # temperature 0: asking again would repeat the same empty answer
    chat = CountingChat("")
    with pytest.raises(BackendError, match="empty description"):
        RemoteVisionBackend(chat).describe("describe", ASSET_ID)
    assert chat.calls == 1


def test_remote_vision_exhausts_retries(monkeypatch):
    # the retries are the chat backend's: a vision call over RemoteBackend
    # gives up after its attempts and reports the last transport error
    from shopclerk.backends import RemoteBackend

    class DeadSession:
        calls = 0

        def post(self, url, json=None, headers=None, timeout=None):
            DeadSession.calls += 1
            raise RuntimeError("connection reset")

    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "https://llm.internal")
    monkeypatch.setattr("shopclerk.backends.time.sleep", lambda s: None)
    backend = RemoteVisionBackend(RemoteBackend(session=DeadSession()))
    with pytest.raises(BackendError, match="after 3 attempts: connection reset"):
        backend.describe("describe", ASSET_ID)
    assert DeadSession.calls == 3


def test_remote_vision_attaches_image_ref():
    captured = {}

    class CapturingChat:
        def complete(self, request):
            captured["request"] = request
            return ChatResponse(text="ok")

    backend = RemoteVisionBackend(CapturingChat())
    backend.describe("look", ASSET_ID)
    assert captured["request"].messages[0].image_refs == (ASSET_ID,)
    assert captured["request"].kind == "describe"
