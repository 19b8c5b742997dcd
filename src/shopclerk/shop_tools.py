"""The shop's tool surface: product, order, logistics, and visual lookup.

External actions read or mutate the world; internal actions touch the
long-term store. All handlers return compact JSON text so results stay
greppable in transcripts and traces.
"""

import json

from . import placeholders
from .files import STRING, closed
from .memory import NAMESPACES, LongTermStore, Namespace
from .toolkit import ToolDescriptor, ToolRegistry, render_catalog
from .vision import STRATEGIES, IntegrationStrategy
from .world import ORDER_ACTIONS, World


# json.dumps(payload, sort_keys=True, ensure_ascii=False), without building an encoder per
# call; encode keeps no state between calls, so every session and thread shares it
_dump = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def _tool(name: str, description: str, properties: dict, required: list[str]) -> ToolDescriptor:
    return ToolDescriptor(name, description, closed(required, **properties))


_NAMESPACE = {"type": "string", "enum": list(NAMESPACES)}

# Every session's tools, in catalog order. Built once, with each argument checker,
# and never mutated, so all sessions share these descriptors.
TOOLS = (
    _tool("product_info", "Look up one product's title, attributes, price, and stock.",
          {"product_id": STRING}, ["product_id"]),
    _tool("order_lookup", "Look up an order's items, status, and shipping address.",
          {"order_id": STRING}, ["order_id"]),
    _tool("order_update", "Apply an order action: cancel, request_refund, or approve_refund.",
          {"order_id": STRING, "action": {"type": "string", "enum": sorted(ORDER_ACTIONS)}},
          ["order_id", "action"]),
    _tool("logistics_track", "List an order's shipment events in tick order.",
          {"order_id": STRING}, ["order_id"]),
    _tool("multimodal_describe",
          "Describe what an image or video placeholder shows, guided by an instruction.",
          {"placeholder": STRING, "instruction": STRING}, ["placeholder"]),
    _tool("memory_get", "Fetch one knowledge document by namespace and key.",
          {"namespace": _NAMESPACE, "key": STRING}, ["namespace", "key"]),
    _tool("memory_search", "Rank knowledge documents in a namespace by query-token overlap.",
          {"namespace": _NAMESPACE, "query": STRING, "limit": {"type": "integer", "minimum": 1}},
          ["namespace", "query"]),
    _tool("memory_put", "Store a knowledge document; the body is a JSON-encoded string.",
          {"namespace": _NAMESPACE, "key": {"type": "string", "minLength": 1}, "body_json": STRING},
          ["namespace", "key", "body_json"]),
)

# describe() is a tool only when the planner is text-only
TOOLS_BY_STRATEGY = {
    strategy: {t.name: t for t in TOOLS if strategy == IntegrationStrategy.TOOL
               or t.name != "multimodal_describe"}
    for strategy in STRATEGIES
}
CATALOGS = {strategy: render_catalog(tools.values())
            for strategy, tools in TOOLS_BY_STRATEGY.items()}


class _Handlers:
    """One session's tool handlers: one method per tool name."""

    def __init__(self, world: World, store: LongTermStore,
                 table: placeholders.PlaceholderTable, vision):
        self.world = world
        self.store = store
        self.table = table
        self.vision = vision

    def _record(self, namespace: str, key: str, noun: str) -> str:
        doc = self.world.doc(namespace, key)
        if doc is None:
            raise LookupError(f"not_found: {noun} {key}")  # invoke() makes it an error result
        return _dump(doc)

    def product_info(self, args: dict) -> str:
        return self._record(Namespace.PRODUCT, args["product_id"], "product")

    def order_lookup(self, args: dict) -> str:
        return self._record(Namespace.ORDER, args["order_id"], "order")

    def order_update(self, args: dict) -> str:
        event = self.world.apply_order_action(args["order_id"], args["action"])
        return _dump({"ok": True, "order_id": args["order_id"], "status": event["to"]})

    def logistics_track(self, args: dict) -> str:
        return self._record(Namespace.LOGISTICS, args["order_id"], "order")

    def multimodal_describe(self, args: dict) -> str:
        return placeholders.resolve(
            args["placeholder"], self.table, self.vision, self.store, args.get("instruction")
        )

    def memory_get(self, args: dict) -> str:
        doc = self.store.get(args["namespace"], args["key"])
        if doc is None:
            return _dump({"found": False, "key": args["key"]})
        return _dump({"found": True, "key": doc.key, "body": doc.body})

    def memory_search(self, args: dict) -> str:
        docs = self.store.search(args["namespace"], args["query"], args.get("limit", 3))
        return _dump([{"key": d.key, "body": d.body} for d in docs])

    def memory_put(self, args: dict) -> str:
        body = json.loads(args["body_json"])
        self.store.put(args["namespace"], args["key"], body)
        return _dump({"ok": True, "key": args["key"]})


def build_registry(
    world: World,
    store: LongTermStore,
    table: placeholders.PlaceholderTable,
    vision,
    strategy: str = IntegrationStrategy.TOOL,
) -> ToolRegistry:
    """Bind one session's handlers to the strategy's tools and memory actions."""
    return ToolRegistry(TOOLS_BY_STRATEGY[strategy], CATALOGS[strategy],
                        _Handlers(world, store, table, vision))
