"""Visual description unit: fixture-backed or remote, behind one contract."""

from pathlib import Path

from .errors import BackendError, ResolutionError, UsageError
from .files import STRING, closed, read_json


class IntegrationStrategy:
    """How the visual model participates in a session.

    TOOL: the planner is text-only; images reach it as placeholders whose
    content is fetched on demand through describe().
    PLANNER: the visual model is the planner itself and describe() is never
    used; raw image URLs stay in the context as text, and the planner's
    requests attach no images.
    """

    TOOL = "tool"
    PLANNER = "planner"


STRATEGIES = (IntegrationStrategy.TOOL, IntegrationStrategy.PLANNER)


_RULES = {"type": "array", "items": closed(
    ["category", "keywords"], category=STRING, keywords={"type": "array", "items": STRING})}

# The shape of a vision fixture file: annotations by asset, each with a default.
FIXTURES_SCHEMA = closed(
    [],
    assets={"type": "object", "additionalProperties": closed(
        ["annotations"], rules=_RULES,
        annotations={"type": "object", "required": ["default"], "additionalProperties": STRING})},
    rules=_RULES,
)


class FixtureVisionBackend:
    """Deterministic describe() over canned annotations.

    assets and rules are a fixture file's rows as read_json returns them. The
    instruction picks the category of the first rule with a keyword in it
    (casefolded), the asset's rules before the file's; an unmatched
    instruction, or a category the asset has no annotation for, gets the
    default annotation.
    """

    def __init__(self, assets: dict[str, dict], rules: list[dict] | tuple = ()):
        self.assets = assets
        self.rules = rules

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureVisionBackend":
        data = read_json(path, "vision fixture file", FIXTURES_SCHEMA)
        return cls(data.get("assets", {}), data.get("rules", []))

    def has_asset(self, asset_id: str) -> bool:
        return asset_id in self.assets

    def describe(self, instruction: str, asset_id: str) -> str:
        if not instruction:
            raise UsageError("describe needs a non-empty instruction")
        asset = self.assets.get(asset_id)
        if asset is None:
            raise ResolutionError(f"unknown asset: {asset_id}")
        folded = instruction.casefold()
        annotations = asset["annotations"]
        for rule in (*asset.get("rules", ()), *self.rules):
            if any(k.casefold() in folded for k in rule["keywords"]):
                return annotations.get(rule["category"], annotations["default"])
        return annotations["default"]


class RemoteVisionBackend:
    """describe() over the remote chat endpoint with an image attachment.

    Transport retries live in the chat backend. An empty description fails at
    once: the request is at temperature 0, so asking again repeats it.
    """

    def __init__(self, chat_backend):
        self.chat = chat_backend

    def describe(self, instruction: str, asset_id: str) -> str:
        from .backends import ChatMessage, ChatRequest

        if not instruction:
            raise UsageError("describe needs a non-empty instruction")
        message = ChatMessage("user", instruction, image_refs=(asset_id,))
        response = self.chat.complete(ChatRequest((message,), kind="describe"))
        if not response.text:
            raise BackendError("remote vision backend returned empty description")
        return response.text
