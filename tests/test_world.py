import json
import random

import pytest

from shopclerk.backends import ChatMessage, ChatRequest, ChatResponse, ScriptEntry
from shopclerk.config import AgentConfig
from shopclerk.decision import CandidatePlan, PlanKind, PlannedStep
from shopclerk.errors import SchemaError
from shopclerk.memory import (
    NAMESPACES,
    WORLD_NAMESPACES,
    ContentPart,
    Message,
    Namespace,
    PartKind,
    Role,
    document,
)
from shopclerk.shop_tools import TOOLS
from shopclerk.toolkit import ToolCall, ToolResult
from shopclerk.world import (
    KEY_SEGMENTS,
    ORDER_ACTIONS,
    ORDER_STATUSES,
    Order,
    OrderStatus,
    World,
    replay_mutations,
    seed_store,
    world_from_dict,
)

SEED = {
    "products": {
        "P1": {"title": "Kettle", "attributes": {"capacity_l": 2}, "price_cents": 3499, "stock": 4},
    },
    "orders": {
        "O1": {"buyer_id": "B1", "items": [{"product_id": "P1", "qty": 1}],
                "status": "delivered", "address": "1 Elm St"},
        "O2": {"buyer_id": "B1", "items": [{"product_id": "P1", "qty": 1}],
                "status": "paid", "address": "1 Elm St"},
    },
    "shipments": {
        "O1": [
            {"tick": 3, "location": "hub", "status": "in_transit"},
            {"tick": 1, "location": "depot", "status": "picked_up"},
        ],
    },
    "policies": [
        {"namespace": "platform_policy", "key": "refund-window", "body": "30 days"},
        {"namespace": "store_promotion", "key": "spring", "body": "5% off mugs"},
    ],
}


def make_world() -> World:
    return world_from_dict(SEED)


def test_doc_takes_a_namespace_read_from_a_file_like_its_constant():
    world = make_world()
    for ns in (Namespace.PRODUCT, Namespace.ORDER, Namespace.LOGISTICS):
        plain = json.loads(json.dumps(ns))  # an equal string, not the constant's own object
        assert plain is not ns
        assert world.doc_keys(plain) == world.doc_keys(ns)
        for key in [*world.products, *world.orders, "missing"]:
            assert world.doc(plain, key) == world.doc(ns, key)
    product = json.loads('"product"')
    assert world.doc(product, "P1")["title"] == "Kettle"
    assert world.doc(product, "O1") is None
    assert world.doc_keys(product) == ["P1"]


def test_shipments_sorted_by_tick():
    world = make_world()
    assert [e.tick for e in world.shipments["O1"]] == [1, 3]


def test_legal_refund_flow():
    world = make_world()
    world.apply_order_action("O1", "request_refund")
    assert world.orders["O1"].status == OrderStatus.REFUND_REQUESTED
    world.apply_order_action("O1", "approve_refund")
    assert world.orders["O1"].status == OrderStatus.REFUNDED


def test_cancel_paid_order():
    world = make_world()
    world.apply_order_action("O2", "cancel")
    assert world.orders["O2"].status == OrderStatus.CANCELLED


def test_cancel_delivered_is_illegal():
    world = make_world()
    with pytest.raises(SchemaError, match="illegal_transition"):
        world.apply_order_action("O1", "cancel")


def test_refund_request_on_paid_is_illegal():
    world = make_world()
    with pytest.raises(SchemaError, match="illegal_transition"):
        world.apply_order_action("O2", "request_refund")


def test_unknown_order_and_action():
    world = make_world()
    with pytest.raises(SchemaError, match="not_found"):
        world.apply_order_action("O9", "cancel")
    with pytest.raises(SchemaError, match="unknown order action"):
        world.apply_order_action("O1", "explode")


def test_no_action_sequence_reaches_unreachable_status():
    # exhaustive two-step walk: statuses stay inside the transition graph
    import itertools

    actions = ("cancel", "request_refund", "approve_refund")
    for first, second in itertools.product(actions, repeat=2):
        world = make_world()
        for action in (first, second):
            try:
                world.apply_order_action("O2", action)
            except SchemaError:
                pass
        assert world.orders["O2"].status in (
            OrderStatus.PAID, OrderStatus.CANCELLED,
        )


def test_mutation_events_replay_to_same_final_state():
    seed = make_world()
    world = seed.copy()
    world.clock = 2
    world.apply_order_action("O1", "request_refund")
    world.clock = 3
    world.apply_order_action("O1", "approve_refund")
    replayed = replay_mutations(seed, world.mutations)
    assert replayed.snapshot(["orders"]) == world.snapshot(["orders"])


def test_copy_isolation():
    a = make_world()
    b = a.copy()
    b.apply_order_action("O2", "cancel")
    assert a.orders["O2"].status == OrderStatus.PAID


def test_snapshot_paths():
    paths = ["orders.O1.status", "products.P1.attributes.capacity_l", "clock"]
    assert make_world().snapshot(paths) == dict(zip(paths, ["delivered", 2, 0]))


def test_world_from_dict_validation_errors():
    with pytest.raises(SchemaError,
                       match=r"^orders\.O1\.status: must be one of \[.*\], got \"lost\""):
        world_from_dict({"orders": {"O1": {"buyer_id": "B", "status": "lost", "items": []}}})
    with pytest.raises(SchemaError, match="missing order"):
        world_from_dict({"shipments": {"O9": [{"tick": 1, "location": "x", "status": "y"}]}})
    with pytest.raises(SchemaError,
                       match=r"^policies\[0\]\.namespace: must be one of .*, got \"weather\""):
        world_from_dict({"policies": [{"namespace": "weather", "key": "k", "body": "b"}]})


@pytest.mark.parametrize("record, field", [("products", "stock"), ("orders", "status")])
def test_records_are_frozen(record, field):
    world = make_world()
    row = next(iter(getattr(world, record).values()))
    with pytest.raises(AttributeError):
        setattr(row, field, None)


def _shared_records() -> dict:
    """One of each record type that world copies, episodes or threads share."""
    world = make_world()
    step = PlannedStep("order_lookup", {"order_id": "O1"})
    part = ContentPart(PartKind.TEXT, "hi")
    message = ChatMessage("user", "hi")
    response = ChatResponse("A")
    return {
        "Product": world.products["P1"], "Order": world.orders["O1"],
        "ShipmentEvent": world.shipments["O1"][0],
        "CandidatePlan": CandidatePlan(0, PlanKind.SINGLE_TOOL, (step,), "look it up"),
        "PlannedStep": step, "ContentPart": part, "Message": Message(Role.BUYER, (part,), 0),
        "ChatMessage": message, "ChatRequest": ChatRequest((message,)), "ChatResponse": response,
        "ScriptEntry": ScriptEntry("hi", response), "ToolDescriptor": TOOLS[0],
        "ToolCall": ToolCall("c1", "order_lookup", {"order_id": "O1"}),
        "ToolResult": ToolResult("c1", "ok"), "Document": document("k", {"a": "b"}),
        "AgentConfig": AgentConfig(),
    }


@pytest.mark.parametrize("name", list(_shared_records()))
def test_shared_records_refuse_assignment(name):
    record = _shared_records()[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.note = "changed"
    assert not hasattr(record, "__dict__")
    assert type(record).__name__ == name


def test_copy_shares_records_and_owns_containers():
    seed = make_world()
    seed.mutations.append({"tick": 0})
    world = seed.copy()
    assert world.products["P1"] is seed.products["P1"]
    assert world.orders is not seed.orders and world.mutations == []
    world.apply_order_action("O2", "cancel")
    assert world.orders["O2"] is not seed.orders["O2"]
    assert seed.snapshot(["orders.O2.status"]) == {"orders.O2.status": "paid"}


def _without(table: str, key, field: str) -> dict:
    """SEED with one field removed from one row."""
    rows = SEED[table]
    row = {k: v for k, v in rows[key].items() if k != field}
    if isinstance(rows, list):
        return dict(SEED, **{table: rows[:key] + [row] + rows[key + 1:]})
    return dict(SEED, **{table: dict(rows, **{key: row})})


def _shipment_without(field: str) -> dict:
    event = {k: v for k, v in SEED["shipments"]["O1"][0].items() if k != field}
    return dict(SEED, shipments={"O1": [event]})


@pytest.mark.parametrize("data, where", [
    ({"orders": {"O1": {"buyer_id": "B", "status": "paid", "items": "P-1"}}}, "orders.O1.items"),
    ({"orders": {"O1": {"buyer_id": "B", "status": "paid", "items": {"P-1": 1}}}},
     "orders.O1.items"),
    ({"products": {"P1": {"title": "T", "attributes": ["red"], "price_cents": 1, "stock": 1}}},
     "products.P1.attributes"),
    ({"products": {"P1": {"title": "T", "attributes": "red", "price_cents": 1, "stock": 1}}},
     "products.P1.attributes"),
    ({"policies": [{"key": "ok", "body": "b"}, {"key": "", "body": "b"}]}, r"policies\[1\]\.key"),
    ({"policies": [{"key": 7, "body": "b"}]}, r"policies\[0\]\.key"),
    ({"policies": [{"body": "b"}]}, r"policies\[0\]\.key"),
    (_without("products", "P1", "title"), r"products\.P1\.title: missing"),
    (_without("products", "P1", "price_cents"), r"products\.P1\.price_cents: missing"),
    (_without("products", "P1", "stock"), r"products\.P1\.stock: missing"),
    (_without("orders", "O2", "buyer_id"), r"orders\.O2\.buyer_id: missing"),
    (_without("orders", "O2", "status"), r"orders\.O2\.status: missing"),
    (_without("policies", 1, "body"), r"policies\[1\]\.body: missing"),
    (_shipment_without("tick"), r"shipments\.O1\[0\]\.tick: missing"),
    (_shipment_without("location"), r"shipments\.O1\[0\]\.location: missing"),
    (_shipment_without("status"), r"shipments\.O1\[0\]\.status: missing"),
    (dict(SEED, products=[1]), r"^products: must be an object"),
    (dict(SEED, orders=[1]), r"^orders: must be an object"),
    (dict(SEED, shipments=[1]), r"^shipments: must be an object"),
    (dict(SEED, products={"P1": "Kettle"}), r"products\.P1: must be an object"),
    (dict(SEED, orders={"O1": 1}), r"orders\.O1: must be an object"),
    (dict(SEED, shipments={"O1": {"tick": 1}}), r"shipments\.O1: must be a list"),
    (dict(SEED, shipments={"O1": ["lost"]}), r"shipments\.O1\[0\]: must be an object"),
    (dict(SEED, policies=["30 days"]), r"policies\[0\]: must be an object"),
    (dict(SEED, policies={"refund-window": "30 days"}), r"^policies: must be a list"),
    (dict(SEED, products={"P1": dict(SEED["products"]["P1"], price_cents="ten")}),
     r'products\.P1\.price_cents: must be an integer, got "ten"'),
    (dict(SEED, products={"P1": dict(SEED["products"]["P1"], stock=-1)}),
     r"^products\.P1\.stock: must be >= 0, got -1"),
    (dict(SEED, products={"P1": dict(SEED["products"]["P1"], colour="red")}),
     r"^products\.P1\.colour: unknown key"),
    (dict(SEED, shipments={"O1": [{"tick": 1.5, "location": "x", "status": "y"}]}),
     r"^shipments\.O1\[0\]\.tick: must be an integer, got 1\.5"),
    (dict(SEED, clock=3), r"^clock: unknown key"),
])
def test_world_from_dict_rejects_bad_shapes_naming_the_path(data, where):
    with pytest.raises(SchemaError, match=where):
        world_from_dict(data)


# --- snapshots: the value at each dotted path, from only the records the paths name ---

def _random_ids(rng: random.Random, prefix: str) -> list[str]:
    """Ids such as P0, P.1 and P.1.2, some of them a dotted id's leading segments."""
    ids = [rng.choice([f"{prefix}{i}", f"{prefix}.{i}", f"{prefix}.{i}.2"])
           for i in range(rng.randrange(1, 8))]
    return ids + [head for head in (prefix, f"{prefix}.1") if rng.random() < 0.5]


def _random_world(rng: random.Random) -> World:
    products = {pid: {"title": f"t{i}", "price_cents": rng.randrange(100, 9000),
                      "attributes": {"color": rng.choice(["red", "blue"]), "size.cm": 9, "": 1,
                                     "size": rng.choice([4, {"cm": 3, "in": 1}])},
                      "stock": rng.randrange(5)}
                for i, pid in enumerate(_random_ids(rng, "P"))}
    orders = {oid: {"buyer_id": f"B{rng.randrange(3)}",
                    "status": rng.choice(ORDER_STATUSES),
                    "items": [{"product_id": rng.choice(list(products)), "qty": 1}]}
              for oid in _random_ids(rng, "O")}
    shipments = {oid: [{"tick": t, "location": "hub", "status": "in_transit"}
                       for t in range(rng.randrange(1, 3))]
                 for oid in orders if rng.random() < 0.5}
    world = world_from_dict({"products": products, "orders": orders, "shipments": shipments})
    for oid in orders:
        world.clock = rng.randrange(10)
        action = rng.choice(list(ORDER_ACTIONS))
        if world.orders[oid].status in ORDER_ACTIONS[action][0]:
            world.apply_order_action(oid, action)
    return world


def _random_path(rng: random.Random, world: World) -> str:
    top = rng.choice(["products", "orders", "shipments", "clock", "policies", ""])
    tables = {"products": world.products, "orders": world.orders, "shipments": world.shipments}
    ids = [*tables.get(top, ())] * 2 + ["P0", "P.9", "O99", ""]  # mostly the table's own ids
    tail = rng.choice([[], [rng.choice(ids)], ["x"],
                       [rng.choice(ids), rng.choice(["status", "title", "attributes", "items",
                                                     "stock", "nope", "", "0", "2.status"])],
                       [rng.choice(ids), "attributes",
                        rng.choice(["color", "size", "", "size.cm", "size.in", "size.mm"])]])
    return ".".join([top] + tail)


def _reference_snapshot(world: World, paths: list[str]) -> dict:
    """The whole world as plain dicts, each path walked through it: at each level, the
    longest key that the rest of the path equals or starts with, then a dot."""
    full = {"products": {k: p._asdict() for k, p in world.products.items()},
            "orders": {k: o._asdict() for k, o in world.orders.items()},
            "shipments": {k: [e._asdict() for e in events] for k, events in world.shipments.items()},
            "clock": world.clock}
    values = {}
    for path in paths:
        node, rest = full, path
        while rest is not None and isinstance(node, dict):
            fits = [key for key in node if key.count(".") < KEY_SEGMENTS
                    and (rest == key or rest.startswith(key + "."))]
            if not fits:
                break
            key = max(fits, key=len)
            node, rest = node[key], None if rest == key else rest[len(key) + 1:]
        if rest is None:
            values[path] = node
    return values


@pytest.mark.parametrize("seed", range(40))
def test_sparse_snapshot_resolves_every_path_like_the_full_one(seed):
    rng = random.Random(seed)
    world = _random_world(rng)
    paths = [_random_path(rng, world) for _ in range(rng.randrange(10, 40))]
    paths += ["clock", "orders.O0.status", "products.P0.attributes", "products.P99.title",
              "weather.today", "products.P.1.attributes.size.cm", "orders.O.1.status"]
    assert world.snapshot(paths) == _reference_snapshot(world, paths)


def test_sparse_snapshot_builds_only_the_named_records(monkeypatch):
    world, built, as_dict = make_world(), [], Order._asdict
    monkeypatch.setattr(Order, "_asdict", lambda self: built.append(self.order_id) or as_dict(self))
    assert world.snapshot(["orders.O1.status", "products.P9.title", "weather.today"]) == {
        "orders.O1.status": "delivered"}
    assert built == ["O1"]
    assert world.snapshot([]) == {}


class _ProbedDict(dict):
    """A table that adds up the chars of every key it is asked whether it holds."""
    probed = 0

    def __contains__(self, key):
        self.probed += len(key)
        return super().__contains__(key)


def test_snapshot_cost_grows_with_the_path_length_not_its_square():
    world = make_world()
    world.products = _ProbedDict(world.products)
    path = "products." + ".".join(["a"] * 20_000)
    assert world.snapshot([path]) == {}
    # at most KEY_SEGMENTS runs tried, none longer than that many segments
    assert world.products.probed <= KEY_SEGMENTS * 2 * KEY_SEGMENTS


def test_snapshot_names_keys_of_up_to_key_segments_segments():
    longest, too_long = ".".join(["k"] * KEY_SEGMENTS), ".".join(["k"] * (KEY_SEGMENTS + 1))
    world = world_from_dict({"products": {
        pid: {"title": "t", "price_cents": 1, "stock": 0, "attributes": {}}
        for pid in (longest, too_long)}})
    paths = [f"products.{longest}.title", f"products.{too_long}.title"]
    assert world.snapshot(paths) == {paths[0]: "t"}


def test_seed_store_covers_namespaces():
    store = seed_store(make_world())
    assert store.get(Namespace.PRODUCT, "P1").body["title"] == "Kettle"
    assert store.get(Namespace.ORDER, "O1").body["status"] == "delivered"
    assert store.get(Namespace.LOGISTICS, "O1").body["events"][0]["status"] == "picked_up"
    assert store.get(Namespace.PLATFORM_POLICY, "refund-window").body == "30 days"
    assert store.get(Namespace.STORE_PROMOTION, "spring").body == "5% off mugs"


def test_store_follows_the_world_without_a_put():
    world = make_world()
    store = seed_store(world)
    world.apply_order_action("O2", "cancel")
    world.products["P1"] = world.products["P1"]._replace(stock=0)
    assert store.get(Namespace.ORDER, "O2").body["status"] == "cancelled"
    assert store.get(Namespace.PRODUCT, "P1").body["stock"] == 0
    assert [d.key for d in store.search(Namespace.ORDER, "cancelled", 5)] == ["O2"]


def test_seed_store_holds_exactly_the_policies():
    world = make_world()
    store = seed_store(world)
    every_token = " ".join(row["body"] for row in SEED["policies"])
    for ns in set(NAMESPACES) - WORLD_NAMESPACES:
        expected = {row["key"]: row["body"] for row in SEED["policies"]
                    if row["namespace"] == ns}
        assert {d.key: d.body for d in store.search(ns, every_token, 10)} == expected
        assert all(store.get(ns, key).body == body for key, body in expected.items())
        if ns in world.policies:
            assert {key: d.body for key, d in world.policies[ns].docs.items()} == expected
