import pytest

from shopclerk.backends import ChatResponse
from shopclerk.errors import AssetError, BackendError, ConfigError, UsageError
from shopclerk.vision import (
    CategoryRule,
    CountingVision,
    FixtureVisionBackend,
    ImageAsset,
    RemoteVisionBackend,
    VisualQuery,
)

ASSET_ID = "https://img.shop.example/uploads/kettle-crack-2291.jpg"


def make_backend():
    asset = ImageAsset(
        asset_id=ASSET_ID,
        annotations={"default": "a steel kettle, boxed", "damage": "cracked base"},
    )
    rules = (CategoryRule("damage", ("damage", "broken", "crack")),
             CategoryRule("color", ("color", "colour")))
    return FixtureVisionBackend({ASSET_ID: asset}, rules)


def test_describe_damage_instruction_selects_damage_annotation():
    backend = make_backend()
    out = backend.describe(VisualQuery("Describe the damage shown in the image", ASSET_ID))
    assert out.text == "cracked base"
    assert out.backend_id == "fixture"


def test_describe_falls_back_to_default():
    backend = make_backend()
    out = backend.describe(VisualQuery("What color is the item?", ASSET_ID))
    # asset has no color annotation, so the default one answers
    assert out.text == "a steel kettle, boxed"


def test_describe_empty_instruction_rejected():
    with pytest.raises(UsageError):
        make_backend().describe(VisualQuery("", ASSET_ID))


def test_describe_unknown_asset():
    with pytest.raises(AssetError):
        make_backend().describe(VisualQuery("anything", "https://img.example/missing.jpg"))


def test_describe_deterministic():
    backend = make_backend()
    query = VisualQuery("is it broken?", ASSET_ID)
    outputs = {backend.describe(query).text for _ in range(20)}
    assert outputs == {"cracked base"}


def test_asset_requires_default_annotation():
    with pytest.raises(ConfigError):
        ImageAsset("a", annotations={"damage": "only"})


def test_asset_specific_rules_take_precedence():
    asset = ImageAsset(
        asset_id="x",
        annotations={"default": "d", "closeup": "macro shot"},
        rules=(CategoryRule("closeup", ("zoom",)),),
    )
    backend = FixtureVisionBackend({"x": asset}, (CategoryRule("damage", ("zoom",)),))
    assert backend.describe(VisualQuery("zoom in please", "x")).text == "macro shot"


def test_fixture_file_loading(data_dir):
    backend = FixtureVisionBackend.from_file(data_dir / "vision_fixtures.json")
    assert backend.has_asset(ASSET_ID)
    out = backend.describe(VisualQuery("Describe the damage shown in the image", ASSET_ID))
    assert out.text == "cracked base, left side"


class FlakyChat:
    """Fails n times, then answers."""

    def __init__(self, failures, text="remote description"):
        self.failures = failures
        self.text = text
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("transient")
        return ChatResponse(text=self.text)


def test_remote_vision_retries_then_succeeds():
    chat = FlakyChat(failures=2)
    backend = RemoteVisionBackend(chat, retries=2, backoff_s=0.0)
    out = backend.describe(VisualQuery("describe", ASSET_ID))
    assert out.text == "remote description"
    assert chat.calls == 3


def test_remote_vision_exhausts_retries():
    chat = FlakyChat(failures=10)
    backend = RemoteVisionBackend(chat, retries=2, backoff_s=0.0)
    with pytest.raises(BackendError, match="after 3 attempts"):
        backend.describe(VisualQuery("describe", ASSET_ID))


def test_remote_vision_attaches_image_ref():
    captured = {}

    class CapturingChat:
        def complete(self, request):
            captured["request"] = request
            return ChatResponse(text="ok")

    backend = RemoteVisionBackend(CapturingChat())
    backend.describe(VisualQuery("look", ASSET_ID))
    assert captured["request"].messages[0].image_refs == (ASSET_ID,)


def test_counting_wrapper_traces_calls():
    from shopclerk.toolkit import ActionTrace

    trace = ActionTrace()
    vision = CountingVision(make_backend(), trace)
    vision.describe(VisualQuery("Describe the damage shown in the image", ASSET_ID))
    assert vision.calls == 1
    event = trace.events[0]
    assert event["kind"] == "describe"
    assert event["instruction"] == "Describe the damage shown in the image"
    assert event["output"] == "cracked base"
