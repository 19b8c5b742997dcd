"""Visual description unit: fixture-backed or remote, behind one contract."""

from collections import namedtuple
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import AssetError, BackendError, ConfigError, UsageError
from .files import STRING, closed, read_json


class IntegrationStrategy(str, Enum):
    """How the visual model participates in a session.

    TOOL: the planner is text-only; images reach it as placeholders whose
    content is fetched on demand through describe().
    PLANNER: the visual model is the planner itself and describe() is never
    used; raw image URLs stay in the context as text, and the planner's
    requests attach no images.
    """

    TOOL = "tool"
    PLANNER = "planner"


class CategoryRule(NamedTuple):
    category: str
    keywords: tuple[str, ...]

    def matches(self, instruction: str) -> bool:
        folded = instruction.casefold()
        return any(k.casefold() in folded for k in self.keywords)


class ImageAsset(namedtuple("_ImageAsset", "asset_id annotations rules")):
    __slots__ = ()

    def __new__(cls, asset_id: str, annotations: dict[str, str],
                rules: tuple[CategoryRule, ...] = ()):
        if "default" not in annotations:
            raise ConfigError(f"asset {asset_id} has no default annotation")
        return tuple.__new__(cls, (asset_id, annotations, rules))


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


def _category_rules(rows: list[dict]) -> tuple[CategoryRule, ...]:
    return tuple(CategoryRule(r["category"], tuple(r["keywords"])) for r in rows)


class FixtureVisionBackend:
    """Deterministic describe() over canned annotations.

    The instruction is mapped to an annotation category by ordered keyword
    rules (asset-specific rules first, then file-level ones); an unmatched
    instruction falls back to the default annotation.
    """

    def __init__(self, assets: dict[str, ImageAsset], rules: tuple[CategoryRule, ...] = ()):
        self.assets = assets
        self.rules = tuple(rules)

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureVisionBackend":
        data = read_json(path, "vision fixture file", FIXTURES_SCHEMA)
        assets = {asset_id: ImageAsset(asset_id, dict(row["annotations"]),
                                       _category_rules(row.get("rules", [])))
                  for asset_id, row in data.get("assets", {}).items()}
        return cls(assets, _category_rules(data.get("rules", [])))

    def has_asset(self, asset_id: str) -> bool:
        return asset_id in self.assets

    def describe(self, instruction: str, asset_id: str) -> str:
        if not instruction:
            raise UsageError("describe needs a non-empty instruction")
        asset = self.assets.get(asset_id)
        if asset is None:
            raise AssetError(f"unknown asset: {asset_id}")
        category = "default"
        for rule in tuple(asset.rules) + self.rules:
            if rule.matches(instruction):
                category = rule.category
                break
        return asset.annotations.get(category, asset.annotations["default"])


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
