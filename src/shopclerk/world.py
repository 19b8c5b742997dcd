"""Mock e-commerce world state: products, orders, shipments, policies."""

from collections.abc import Iterable, Mapping
from types import MappingProxyType
from typing import NamedTuple

from .errors import SchemaError
from .files import LIST, OBJECT, STRING, closed, shape_error
from .memory import Corpus, LongTermStore, Namespace, document


class OrderStatus:
    CREATED = "created"
    PAID = "paid"
    SHIPPED = "shipped"
    DELIVERED = "delivered"
    CANCELLED = "cancelled"
    REFUND_REQUESTED = "refund_requested"
    REFUNDED = "refunded"


ORDER_STATUSES = (OrderStatus.CREATED, OrderStatus.PAID, OrderStatus.SHIPPED, OrderStatus.DELIVERED,
                  OrderStatus.CANCELLED, OrderStatus.REFUND_REQUESTED, OrderStatus.REFUNDED)
# order actions exposed through the order_update tool
ORDER_ACTIONS = {
    "cancel": ({OrderStatus.PAID, OrderStatus.SHIPPED}, OrderStatus.CANCELLED),
    "request_refund": ({OrderStatus.DELIVERED}, OrderStatus.REFUND_REQUESTED),
    "approve_refund": ({OrderStatus.REFUND_REQUESTED}, OrderStatus.REFUNDED),
}


class Product(NamedTuple):
    """A frozen product row; every copy of a world shares it."""

    product_id: str
    title: str
    attributes: dict
    price_cents: int
    stock: int


class Order(NamedTuple):
    """A frozen order row; an order action replaces it."""

    order_id: str
    buyer_id: str
    items: list
    status: str
    address: str


class ShipmentEvent(NamedTuple):
    tick: int
    location: str
    status: str


class World:
    """The shop's mutable state. Its records are frozen and replaced on change, so
    copies share them; each copy owns its tables, clock and mutation log."""

    __slots__ = ("products", "orders", "shipments", "policies", "clock", "mutations")

    def __init__(self, products=None, orders=None, shipments=None, policies=None, clock=0):
        self.products: dict[str, Product] = {} if products is None else products
        self.orders: dict[str, Order] = {} if orders is None else orders
        self.shipments: dict[str, tuple] = {} if shipments is None else shipments
        # policy namespace -> read-only table, tokenized once, at parse; copies share it
        self.policies: Mapping[str, Corpus] = {} if policies is None else policies
        self.clock = clock
        self.mutations: list[dict] = []

    def copy(self) -> "World":
        """Own containers, no mutations; frozen records, replaced on change, are shared."""
        return World(dict(self.products), dict(self.orders), dict(self.shipments),
                     self.policies, self.clock)

    def apply_order_action(self, order_id: str, action: str) -> dict:
        """Apply a legal order transition and record the mutation event."""
        order = self.orders.get(order_id)
        if order is None:
            raise SchemaError(f"not_found: order {order_id}")
        if action not in ORDER_ACTIONS:
            raise SchemaError(f"unknown order action: {action}")
        allowed_from, target = ORDER_ACTIONS[action]
        if order.status not in allowed_from:
            raise SchemaError(
                f"illegal_transition: cannot {action} order {order_id} "
                f"in status {order.status}"
            )
        event = {
            "tick": self.clock,
            "order_id": order_id,
            "action": action,
            "from": order.status,
            "to": target,
        }
        self.orders[order_id] = order._replace(status=target)
        self.mutations.append(event)
        return event

    def doc(self, namespace: str, key: str) -> dict | None:
        """A product, order or logistics record as the lookups and the store serve it."""
        if namespace == Namespace.LOGISTICS:
            events = [e._asdict() for e in self.shipments.get(key, [])]
            return {"order_id": key, "events": events} if key in self.orders else None
        records = self.products if namespace == Namespace.PRODUCT else self.orders
        return records[key]._asdict() if key in records else None

    def doc_keys(self, namespace: str) -> list[str]:
        return list(self.products if namespace == Namespace.PRODUCT else self.orders)

    def snapshot(self, paths: Iterable[str]) -> dict:
        """Dotted path -> its plain value, as success assertions read the world.

        A path walks dict keys from the tables and the clock. A key may hold
        dots: at each level the longest run of the path's remaining segments
        that is a key is taken, so `products.P.1.attributes.size.cm` names
        attribute `size.cm` of product `P.1`, even beside a product `P`. Runs
        of at most KEY_SEGMENTS segments are tried, so a path costs time in
        proportion to its length; a key of more segments cannot be named. A
        path that names nothing is left out. Only the records the paths name
        are built.
        """
        tables = {"products": self.products, "orders": self.orders, "shipments": self.shipments}
        values = {}
        for path in paths:
            top, *keys = path.split(".")
            if top == "clock":
                node = self.clock
            elif top not in tables:
                continue
            elif not keys:
                node = {key: _plain(record) for key, record in tables[top].items()}
            elif hit := _longest_key(tables[top], keys):
                record, keys = hit
                node = _plain(record)
            else:
                continue
            while keys and isinstance(node, dict) and (hit := _longest_key(node, keys)):
                node, keys = hit
            if not keys:
                values[path] = node
        return values


# the most dot-separated segments one key of a snapshot path may span
KEY_SEGMENTS = 16


def _longest_key(node: Mapping, keys: list[str]) -> tuple[object, list[str]] | None:
    """(value, keys left) for the longest run keys[:n], n <= KEY_SEGMENTS, that, joined
    by dots, is a key of node; None when no run is."""
    for n in range(min(len(keys), KEY_SEGMENTS), 0, -1):
        if (key := ".".join(keys[:n])) in node:
            return node[key], keys[n:]
    return None


def _plain(record) -> object:
    """A product or order as its doc, a shipment (a tuple, as every record is) as a list."""
    return record._asdict() if isinstance(record, (Product, Order)) else [
        e._asdict() for e in record]


_COUNT = {"type": "integer", "minimum": 0}
_POLICY_NAMESPACES = ["platform_policy", "store_promotion"]

# The shape of a world seed; attributes, order items and policy bodies are free-form.
WORLD_SCHEMA = closed(
    [],
    products={"type": "object", "additionalProperties": closed(
        ["title", "price_cents", "stock"],
        title=STRING, attributes=OBJECT, price_cents=_COUNT, stock=_COUNT)},
    orders={"type": "object", "additionalProperties": closed(
        ["buyer_id", "status"], buyer_id=STRING, items=LIST,
        status={"enum": list(ORDER_STATUSES)}, address=STRING)},
    shipments={"type": "object", "additionalProperties": {"type": "array", "items": closed(
        ["tick", "location", "status"], tick={"type": "integer"}, location=STRING, status=STRING)}},
    policies={"type": "array", "items": closed(
        ["key", "body"], namespace={"enum": _POLICY_NAMESPACES},
        key={"type": "string", "minLength": 1}, body={})},
)


def world_from_dict(data: dict) -> World:
    """Parse a world seed; every error is a SchemaError naming the bad path."""
    if why := shape_error(data, WORLD_SCHEMA):
        raise SchemaError(why)
    products = {pid: Product(pid, row["title"], dict(row.get("attributes", {})),
                             row["price_cents"], row["stock"])
                for pid, row in data.get("products", {}).items()}
    orders = {oid: Order(oid, row["buyer_id"], list(row.get("items", [])),
                         row["status"], row.get("address", ""))
              for oid, row in data.get("orders", {}).items()}
    shipments = {}
    for oid, events in data.get("shipments", {}).items():
        if oid not in orders:
            raise SchemaError(f"shipments.{oid}: references a missing order")
        shipments[oid] = tuple(sorted((ShipmentEvent(e["tick"], e["location"], e["status"])
                                       for e in events), key=lambda e: e.tick))
    policies = {ns: {} for ns in _POLICY_NAMESPACES}
    for row in data.get("policies", []):
        table = policies[row.get("namespace", "platform_policy")]
        table[row["key"]] = document(row["key"], row["body"])
    frozen = MappingProxyType({ns: Corpus(table) for ns, table in policies.items()})
    return World(products=products, orders=orders, shipments=shipments, policies=frozen)


def seed_store(world: World) -> LongTermStore:
    """A long-term store over the world; its puts sit beside the world's shared policy corpora."""
    return LongTermStore(world)


def replay_mutations(seed: World, events: list[dict]) -> World:
    """Re-derive a final world by replaying recorded mutation events."""
    world = seed.copy()
    for event in events:
        world.clock = event["tick"]
        world.apply_order_action(event["order_id"], event["action"])
    return world
