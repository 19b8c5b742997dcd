"""Mock e-commerce world state: products, orders, shipments, policies."""

from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import IllegalTransitionError, SchemaError
from .memory import LongTermStore, Namespace


class OrderStatus(str, Enum):
    CREATED = "created"
    PAID = "paid"
    SHIPPED = "shipped"
    DELIVERED = "delivered"
    CANCELLED = "cancelled"
    REFUND_REQUESTED = "refund_requested"
    REFUNDED = "refunded"


# order actions exposed through the order_update tool
ORDER_ACTIONS = {
    "cancel": ({OrderStatus.PAID, OrderStatus.SHIPPED}, OrderStatus.CANCELLED),
    "request_refund": ({OrderStatus.DELIVERED}, OrderStatus.REFUND_REQUESTED),
    "approve_refund": ({OrderStatus.REFUND_REQUESTED}, OrderStatus.REFUNDED),
}


@dataclass(frozen=True)
class Product:
    product_id: str
    title: str
    attributes: dict
    price_cents: int
    stock: int

    def to_doc(self) -> dict:
        return {
            "product_id": self.product_id,
            "title": self.title,
            "attributes": self.attributes,
            "price_cents": self.price_cents,
            "stock": self.stock,
        }


@dataclass(frozen=True)
class Order:
    order_id: str
    buyer_id: str
    items: list
    status: OrderStatus
    address: str

    def to_doc(self) -> dict:
        return {
            "order_id": self.order_id,
            "buyer_id": self.buyer_id,
            "items": self.items,
            "status": self.status.value,
            "address": self.address,
        }


@dataclass(frozen=True)
class ShipmentEvent:
    tick: int
    location: str
    status: str

    def to_doc(self) -> dict:
        return {"tick": self.tick, "location": self.location, "status": self.status}


@dataclass(frozen=True)
class PolicyDoc:
    namespace: str  # platform_policy or store_promotion
    key: str
    body: object


@dataclass
class World:
    products: dict[str, Product] = field(default_factory=dict)
    orders: dict[str, Order] = field(default_factory=dict)
    shipments: dict[str, tuple[ShipmentEvent, ...]] = field(default_factory=dict)
    policies: list[PolicyDoc] = field(default_factory=list)
    clock: int = 0
    mutations: list[dict] = field(default_factory=list)

    def copy(self) -> "World":
        """Own containers, no mutations; frozen records, replaced on change, are shared."""
        return World(dict(self.products), dict(self.orders), dict(self.shipments),
                     list(self.policies), self.clock)

    def apply_order_action(self, order_id: str, action: str) -> dict:
        """Apply a legal order transition and record the mutation event."""
        order = self.orders.get(order_id)
        if order is None:
            raise SchemaError(f"not_found: order {order_id}")
        if action not in ORDER_ACTIONS:
            raise SchemaError(f"unknown order action: {action}")
        allowed_from, target = ORDER_ACTIONS[action]
        if order.status not in allowed_from:
            raise IllegalTransitionError(
                f"illegal_transition: cannot {action} order {order_id} "
                f"in status {order.status.value}"
            )
        event = {
            "tick": self.clock,
            "order_id": order_id,
            "action": action,
            "from": order.status.value,
            "to": target.value,
        }
        self.orders[order_id] = replace(order, status=target)
        self.mutations.append(event)
        return event

    def doc(self, namespace: Namespace, key: str) -> dict | None:
        """A product, order or logistics record as the lookups and the store serve it."""
        if namespace is Namespace.LOGISTICS:
            events = [e.to_doc() for e in self.shipments.get(key, [])]
            return {"order_id": key, "events": events} if key in self.orders else None
        records = self.products if namespace is Namespace.PRODUCT else self.orders
        return records[key].to_doc() if key in records else None

    def doc_keys(self, namespace: Namespace) -> list[str]:
        return list(self.products if namespace is Namespace.PRODUCT else self.orders)

    def snapshot(self) -> dict:
        """Plain-dict view used by success assertions (dotted paths)."""
        return {
            "products": {pid: p.to_doc() for pid, p in self.products.items()},
            "orders": {oid: o.to_doc() for oid, o in self.orders.items()},
            "shipments": {
                oid: [e.to_doc() for e in events] for oid, events in self.shipments.items()
            },
            "clock": self.clock,
        }


def world_from_dict(data: dict) -> World:
    products = {}
    for pid, row in data.get("products", {}).items():
        if not isinstance(row.get("attributes", {}), dict):
            raise SchemaError(f"products.{pid}.attributes: must be an object")
        products[pid] = Product(
            product_id=pid,
            title=row["title"],
            attributes=dict(row.get("attributes", {})),
            price_cents=int(row["price_cents"]),
            stock=int(row["stock"]),
        )
    orders = {}
    for oid, row in data.get("orders", {}).items():
        try:
            status = OrderStatus(row["status"])
        except ValueError:
            raise SchemaError(f"orders.{oid}.status: unknown status {row['status']!r}") from None
        if not isinstance(row.get("items", []), list):
            raise SchemaError(f"orders.{oid}.items: must be a list")
        orders[oid] = Order(
            order_id=oid,
            buyer_id=row["buyer_id"],
            items=list(row.get("items", [])),
            status=status,
            address=row.get("address", ""),
        )
    shipments = {}
    for oid, events in data.get("shipments", {}).items():
        if oid not in orders:
            raise SchemaError(f"shipments.{oid}: references a missing order")
        shipments[oid] = tuple(sorted(
            (ShipmentEvent(int(e["tick"]), e["location"], e["status"]) for e in events),
            key=lambda e: e.tick,
        ))
    policies = []
    for i, row in enumerate(data.get("policies", [])):
        ns = row.get("namespace", "platform_policy")
        if ns not in ("platform_policy", "store_promotion"):
            raise SchemaError(f"policies[{i}].namespace: bad namespace {ns!r}")
        if not (isinstance(row.get("key"), str) and row["key"]):
            raise SchemaError(f"policies[{i}].key: must be a non-empty string")
        policies.append(PolicyDoc(namespace=ns, key=row["key"], body=row["body"]))
    return World(products=products, orders=orders, shipments=shipments, policies=policies)


def seed_store(world: World) -> LongTermStore:
    """A long-term store over the world, loaded with the world's policies."""
    store = LongTermStore(world)
    for policy in world.policies:
        store.put(policy.namespace, policy.key, policy.body)
    return store


def replay_mutations(seed: World, events: list[dict]) -> World:
    """Re-derive a final world by replaying recorded mutation events."""
    world = seed.copy()
    for event in events:
        world.clock = event["tick"]
        world.apply_order_action(event["order_id"], event["action"])
    return world
