import json

import pytest

from conftest import WHOLE_WORLD, DescribeCounter, one_round_session, tool_events
from shopclerk.memory import Namespace
from shopclerk.placeholders import PlaceholderTable, abstract_text
from shopclerk.shop_tools import CATALOGS, TOOLS, _Handlers, build_registry
from shopclerk.toolkit import ToolCall
from shopclerk.vision import STRATEGIES, FixtureVisionBackend, IntegrationStrategy
from shopclerk.world import seed_store, world_from_dict

PHOTO = "https://img.shop.example/uploads/kettle-crack-2291.jpg"

WORLD_SEED = {
    "products": {
        "P100": {"title": "Kettle", "attributes": {"capacity_l": 2},
                  "price_cents": 3499, "stock": 4},
    },
    "orders": {
        "O1": {"buyer_id": "B1", "items": [{"product_id": "P100", "qty": 1}],
                "status": "delivered", "address": "1 Elm St"},
    },
    "shipments": {
        "O1": [
            {"tick": 1, "location": "depot", "status": "picked_up"},
            {"tick": 2, "location": "hub", "status": "in_transit"},
            {"tick": 3, "location": "courier", "status": "out_for_delivery"},
        ],
    },
}


@pytest.fixture()
def session_bits():
    world = world_from_dict(WORLD_SEED)
    store = seed_store(world)
    table = PlaceholderTable()
    asset = {"annotations": {"default": "a kettle", "damage": "cracked base"},
             "rules": [{"category": "damage", "keywords": ["damage"]}]}
    vision = DescribeCounter(FixtureVisionBackend({PHOTO: asset}))
    registry = build_registry(world, store, table, vision)
    return world, store, table, vision, registry


def invoke(registry, tool, **arguments):
    return registry.invoke(ToolCall("c1", tool, arguments))


def test_product_info_returns_seeded_document(session_bits, data_dir):
    # oracle: the document as seeded in the fixture world literal
    _, _, _, _, registry = session_bits
    result = invoke(registry, "product_info", product_id="P100")
    assert not result.is_error
    payload = json.loads(result.text)
    assert payload["title"] == WORLD_SEED["products"]["P100"]["title"]
    assert payload["attributes"] == WORLD_SEED["products"]["P100"]["attributes"]
    assert payload["price_cents"] == 3499


def test_product_info_missing_required_field(session_bits):
    _, _, _, _, registry = session_bits
    result = invoke(registry, "product_info")
    assert result.is_error
    assert result.text == "invalid_arguments: product_id: missing"


def test_product_info_unknown_id(session_bits):
    _, _, _, _, registry = session_bits
    result = invoke(registry, "product_info", product_id="P999")
    assert result.is_error
    assert result.text.startswith("not_found")


def test_unknown_tool_result(session_bits):
    _, _, _, _, registry = session_bits
    # status_note is a retired tool that a stale script or model may still call
    for tool in ("teleport", "status_note"):
        result = invoke(registry, tool, note="waiting on buyer")
        assert result.is_error
        assert result.text == f"unknown_tool: {tool}"
        assert not invoke(registry, "product_info", product_id="P100").is_error  # goes on


def test_order_lookup_and_logistics_order(session_bits):
    _, _, _, _, registry = session_bits
    order = json.loads(invoke(registry, "order_lookup", order_id="O1").text)
    assert order["status"] == "delivered"
    track = json.loads(invoke(registry, "logistics_track", order_id="O1").text)
    assert [e["tick"] for e in track["events"]] == [1, 2, 3]


def test_order_update_applies_and_syncs_store(session_bits):
    world, store, _, _, registry = session_bits
    result = invoke(registry, "order_update", order_id="O1", action="request_refund")
    assert not result.is_error
    assert world.orders["O1"].status == "refund_requested"
    assert store.get(Namespace.ORDER, "O1").body["status"] == "refund_requested"


def test_order_update_illegal_transition(session_bits):
    _, _, _, _, registry = session_bits
    result = invoke(registry, "order_update", order_id="O1", action="cancel")
    assert result.is_error
    assert result.text == "illegal_transition: cannot cancel order O1 in status delivered"


def test_order_update_rejects_unknown_action_by_schema(session_bits):
    _, _, _, _, registry = session_bits
    result = invoke(registry, "order_update", order_id="O1", action="destroy")
    assert result.is_error
    assert result.text == ('invalid_arguments: action: must be one of '
                           '["approve_refund", "cancel", "request_refund"], got "destroy"')


def test_multimodal_describe_via_table(session_bits):
    _, _, table, vision, registry = session_bits
    abstract_text(f"photo {PHOTO}", table)
    result = invoke(registry, "multimodal_describe",
                    placeholder="[Image 1]", instruction="Describe the damage shown in the image")
    assert not result.is_error
    assert result.text == "cracked base"
    assert vision.calls == 1


def test_multimodal_describe_unknown_placeholder(session_bits):
    _, _, _, _, registry = session_bits
    result = invoke(registry, "multimodal_describe", placeholder="[Image 7]")
    assert result.is_error
    assert result.text == "unknown_placeholder: [Image 7]"


def test_describe_tool_absent_in_planner_mode():
    world = world_from_dict(WORLD_SEED)
    registry = build_registry(world, seed_store(world), PlaceholderTable(),
                              FixtureVisionBackend({}),
                              strategy=IntegrationStrategy.PLANNER)
    result = invoke(registry, "multimodal_describe", placeholder="[Image 1]")
    assert result.is_error
    assert result.text.startswith("unknown_tool")


CATALOG_LINES = (
    "- product_info(product_id: string): Look up one product's title, attributes, price, "
    "and stock.",
    "- order_lookup(order_id: string): Look up an order's items, status, and shipping address.",
    "- order_update(order_id: string, action: string): Apply an order action: cancel, "
    "request_refund, or approve_refund.",
    "- logistics_track(order_id: string): List an order's shipment events in tick order.",
    "- multimodal_describe(placeholder: string, instruction?: string): Describe what an image "
    "or video placeholder shows, guided by an instruction.",
    "- memory_get(namespace: string, key: string): Fetch one knowledge document by namespace "
    "and key.",
    "- memory_search(namespace: string, query: string, limit?: integer): Rank knowledge "
    "documents in a namespace by query-token overlap.",
    "- memory_put(namespace: string, key: string, body_json: string): Store a knowledge "
    "document; the body is a JSON-encoded string.",
)


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_catalog_text_is_pinned(strategy):
    # the prompt bytes every bundled script matches against; tool mode lists describe
    lines = [line for line in CATALOG_LINES if strategy == IntegrationStrategy.TOOL
             or not line.startswith("- multimodal_describe(")]
    assert CATALOGS[strategy] == "\n".join(lines)
    # every session shares the one text rendered at import
    for _ in range(2):
        world = world_from_dict(WORLD_SEED)
        registry = build_registry(world, seed_store(world), PlaceholderTable(),
                                  FixtureVisionBackend({}), strategy=strategy)
        assert registry.catalog_text() is CATALOGS[strategy]


def test_tool_names_are_unique_and_each_is_a_handler_method():
    names = [t.name for t in TOOLS]
    assert len(set(names)) == len(names)
    # both ways: a handler left without a descriptor is dead code no call can reach
    handlers = {name for name in vars(_Handlers)
                if not name.startswith("_") and callable(getattr(_Handlers, name))}
    assert handlers == set(names)
    # the published schema states what invoke refuses: no unknown name, no required one unlisted
    for tool in TOOLS:
        assert tool.input_schema["additionalProperties"] is False, tool.name
        assert set(tool.input_schema["required"]) <= set(tool.input_schema["properties"])


def test_memory_tools_round_trip(session_bits):
    world, store, _, _, registry = session_bits
    put = invoke(registry, "memory_put", namespace="buyer_profile", key="B1",
                 body_json=json.dumps({"tone": "patient"}))
    assert not put.is_error
    got = json.loads(invoke(registry, "memory_get", namespace="buyer_profile", key="B1").text)
    assert got == {"found": True, "key": "B1", "body": {"tone": "patient"}}
    missing = json.loads(invoke(registry, "memory_get", namespace="order", key="O9").text)
    assert missing["found"] is False
    empty = invoke(registry, "memory_put", namespace="buyer_profile", key="", body_json="{}")
    assert empty.is_error
    assert empty.text == 'invalid_arguments: key: must have length >= 1, got ""'


def test_memory_search_tool(session_bits):
    _, _, _, _, registry = session_bits
    rows = json.loads(invoke(registry, "memory_search", namespace="product",
                             query="kettle", limit=3).text)
    assert [r["key"] for r in rows] == ["P100"]
    none = invoke(registry, "memory_search", namespace="product", query="kettle", limit=0)
    assert none.is_error
    assert none.text == "invalid_arguments: limit: must be >= 1, got 0"


@pytest.mark.parametrize("namespace,key", [("product", "P100"), ("order", "O1"),
                                           ("logistics", "O1"), ("order", "O-new")])
def test_memory_put_into_a_shop_namespace_is_error(session_bits, namespace, key):
    # the world is the only copy of a shop record: a put must not plant a second one
    world, _, _, _, registry = session_bits
    before = world.snapshot(WHOLE_WORLD)
    read = invoke(registry, "memory_get", namespace=namespace, key=key).text
    result = invoke(registry, "memory_put", namespace=namespace, key=key,
                    body_json=json.dumps({"status": "refunded", "stock": 0}))
    assert result.is_error
    assert result.text == f"read-only namespace: {namespace} records come from the world"
    assert world.snapshot(WHOLE_WORLD) == before
    assert invoke(registry, "memory_get", namespace=namespace, key=key).text == read


def test_memory_get_logistics_without_shipments_matches_logistics_track():
    seed = dict(WORLD_SEED, orders={**WORLD_SEED["orders"], "O2": {
        "buyer_id": "B1", "items": [], "status": "paid", "address": "1 Elm St"}})
    world = world_from_dict(seed)
    registry = build_registry(world, seed_store(world), PlaceholderTable(),
                              FixtureVisionBackend({}))
    got = json.loads(invoke(registry, "memory_get", namespace="logistics", key="O2").text)
    track = json.loads(invoke(registry, "logistics_track", order_id="O2").text)
    assert got == {"found": True, "key": "O2", "body": track}
    assert track == {"order_id": "O2", "events": []}


def test_memory_put_bad_namespace(session_bits):
    _, _, _, _, registry = session_bits
    result = invoke(registry, "memory_put", namespace="weather", key="k", body_json="{}")
    assert result.is_error
    assert result.text == (
        'invalid_arguments: namespace: must be one of ["platform_policy", "store_promotion", '
        '"product", "order", "logistics", "buyer_profile"], got "weather"')


def test_read_tools_do_not_mutate(session_bits):
    world, _, _, _, registry = session_bits
    invoke(registry, "product_info", product_id="P100")
    invoke(registry, "order_lookup", order_id="O1")
    invoke(registry, "logistics_track", order_id="O1")
    assert world.mutations == []


def test_trace_records_every_call(suite_dir, vision_fixtures, tmp_path):
    session = one_round_session([
        {"tool": "product_info", "arguments": {"product_id": "P-KET-100"}},
        {"tool": "order_update", "arguments": {"order_id": "O-9001", "action": "request_refund"}}],
        tmp_path, suite_dir, vision_fixtures, task_id="damaged-kettle-refund")
    session.handle_buyer_turn("Please refund order O-9001.")
    kinds = [e["kind"] for e in tool_events(session)]
    assert kinds.count("tool_call") == 2
    assert kinds.count("tool_result") == 2
    [update] = [e for e in session.trace.events if e["kind"] == "mutation"]
    assert update["seq"] == tool_events(session)[-1]["seq"] + 1  # the refund right after its result


def test_lookup_results_are_the_payload_as_json_dumps_writes_it():
    # a non-ASCII title, nested attributes and a list of items, through every reading tool
    seed = {
        "products": {"P7": {"title": "Théière fonte 鉄瓶", "price_cents": 5900, "stock": 2,
                            "attributes": {"size": {"h_cm": 14, "colors": ["noir", "rouge"]},
                                           "care": "à la main", "lid": True}}},
        "orders": {"O7": {"buyer_id": "B7", "status": "paid", "address": "5 Rue d'Été",
                          "items": [{"product_id": "P7", "qty": 2}, {"gift": "carte ✓"}]}},
        "policies": [{"key": "retours", "body": {"fenêtre": "30 jours", "frais": [0, "€5"]}}],
    }
    world = world_from_dict(seed)
    registry = build_registry(world, seed_store(world), PlaceholderTable(),
                              FixtureVisionBackend({}))
    product = {"product_id": "P7", **seed["products"]["P7"]}
    order = {"order_id": "O7", **seed["orders"]["O7"]}
    policy = seed["policies"][0]
    expected = [
        (("product_info", {"product_id": "P7"}), product),
        (("order_lookup", {"order_id": "O7"}), order),
        (("memory_get", {"namespace": "product", "key": "P7"}),
         {"found": True, "key": "P7", "body": product}),
        (("memory_get", {"namespace": "platform_policy", "key": "retours"}),
         {"found": True, "key": "retours", "body": policy["body"]}),
        (("memory_search", {"namespace": "platform_policy", "query": "fenêtre"}),
         [{"key": "retours", "body": policy["body"]}]),
        (("memory_search", {"namespace": "order", "query": "b7"}),
         [{"key": "O7", "body": order}]),
    ]
    for (tool, arguments), payload in expected:
        result = invoke(registry, tool, **arguments)
        assert not result.is_error, result.text
        assert result.text == json.dumps(payload, sort_keys=True, ensure_ascii=False), tool
