"""Benchmark workloads: the bundled suite, or task/script/fixture files made from a seed.

Every generated script uses only ``contains`` entries. A needle is unique to
one buyer turn: the turn's ticket token, a tool-result fragment naming the
turn's own order, or a plan rationale naming the token. Entries are written
newest turn first and, within a turn, evaluate before propose and the reply
round before the tool round. A prompt carries every earlier turn of the
transcript, so this order makes the first match always the current step.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

BUNDLED = Path(__file__).resolve().parent.parent / "src" / "shopclerk" / "data"

# long-session sizes
LONG_SESSIONS = 2
LONG_TURNS = 40
LONG_PRODUCTS = 300
LONG_REPEAT_EVERY = 4  # every 4th turn re-sends the previous photo: a resolve cache hit

# order-desk sizes
DESK_SESSIONS = 4
DESK_TURNS = 10
DESK_ORDERS = 1000
DESK_POLICIES = 100
DESK_PRODUCTS = 60

# Words of one length per list, and numbers of fixed width: a generated prompt then
# has the same length for every seed, so where renders start to elide, and with it
# prefix reuse, does not move with the seed.
COLORS = ("amber", "coral", "ivory", "khaki", "mauve", "olive", "slate", "umber")
MATERIALS = ("brass", "cedar", "glass", "maple", "steel", "stone")
NOUNS = ("beaker", "carafe", "goblet", "grater", "kettle", "saucer", "shaker", "teapot")
HUBS = ("cliff", "coast", "delta", "north", "plain", "ridge", "river", "south")
POLICY_WORDS = (
    "cancel", "refund", "orders", "policy", "window", "return", "credit", "labels",
    "faulty", "parcel", "stores", "within", "postal", "agents", "notice", "claims",
)
DESCRIBE_RULES = [
    {"category": "color", "keywords": ["colour", "color"]},
    {"category": "damage", "keywords": ["damage", "faulty", "broken"]},
]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: where its inputs come from."""

    name: str
    generate: object = None  # seed -> {relative path: JSON object}; None = bundled suite


def _token(rng: random.Random, prefix: str, index: int) -> str:
    letters = "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ") for _ in range(4))
    return f"{prefix}{index:03d}{letters}"


def _plans_reply(plans: list[dict]) -> str:
    return "Candidate plans:\n```json\n" + json.dumps(plans, indent=1) + "\n```"


def _tool_plan(steps: list[tuple[str, dict]], rationale: str) -> dict:
    return {
        "kind": "tool_sequence" if len(steps) > 1 else "single_tool",
        "steps": [{"tool": tool, "arguments": args} for tool, args in steps],
        "rationale": rationale,
        "reply": None,
    }


def _reply_plan(reply: str, rationale: str) -> dict:
    return {"kind": "direct_reply", "steps": [], "rationale": rationale, "reply": reply}


def _propose(needle: str, plans: list[dict]) -> dict:
    return {"contains": needle, "response": {"text": _plans_reply(plans)}}


def _evaluate(needle: str, probs: dict) -> dict:
    label = max(probs, key=probs.get)
    return {"contains": needle, "response": {"text": label, "label_probs": probs}}


def _turn_entries(tok: str, tool_needle: str, reply_needle: str, tool_plans: list[dict],
                  reply: str) -> list[dict]:
    """Script entries for one two-round turn, in the order the module docstring gives."""
    reply_rationale = f"Answer {tok} from the tool results."
    return [
        _evaluate(reply_rationale, {"A": 1.0}),
        _evaluate(tool_plans[0]["rationale"], {"A": 0.8, "B": 0.2}),
        _propose(reply_needle, [_reply_plan(reply, reply_rationale)]),
        _propose(tool_needle, tool_plans),
    ]


def write_files(files: dict[str, object], out_dir: Path) -> None:
    for rel, data in files.items():
        path = out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def long_session_files(seed: int) -> dict[str, object]:
    """Sessions of LONG_TURNS turns, each with a photo, a product URL and an order id.

    Each turn runs product_info -> multimodal_describe([Image k]) ->
    logistics_track, then a reply round. The transcript outgrows the
    default context budget after about ten turns, so later renders elide.
    """
    rng = random.Random(f"long-session:{seed}")
    products = {}
    for i in range(LONG_PRODUCTS):
        pid = f"P-{i:05d}"
        products[pid] = {
            "title": f"{rng.choice(COLORS).title()} {rng.choice(MATERIALS)} {rng.choice(NOUNS)}",
            "attributes": {"color": rng.choice(COLORS), "material": rng.choice(MATERIALS),
                           "capacity_l": rng.randint(1, 4)},
            "price_cents": rng.randint(1000, 9999),
            "stock": rng.randint(10, 99),
        }
    orders, shipments, assets = {}, {}, {}
    sessions = []
    for s in range(LONG_SESSIONS):
        picked = rng.sample(sorted(products), LONG_TURNS)
        turns = []
        for k in range(LONG_TURNS):
            tok = _token(rng, f"L{s}", k)
            oid = f"O-{s}{k:04d}"
            hub = f"{rng.choice(HUBS)}-{rng.randint(100, 999)}"
            orders[oid] = {"buyer_id": f"B-{s}{k:03d}", "status": "shipped", "address": f"{k} Dock Rd",
                           "items": [{"product_id": picked[k], "qty": 1}]}
            shipments[oid] = [
                {"tick": 1, "location": "warehouse", "status": "packed"},
                {"tick": 2, "location": "sort-centre", "status": "in_transit"},
                {"tick": 3, "location": hub, "status": "in_transit"},
            ]
            turn = {"tok": tok, "oid": oid, "pid": picked[k], "hub": hub}
            if k % LONG_REPEAT_EVERY == LONG_REPEAT_EVERY - 1:
                turn.update(photo=turns[-1]["photo"], image_index=turns[-1]["image_index"],
                            new_photo=False)
            else:
                photo = f"https://img.shop.example/ls/{seed}/{tok.lower()}.jpg"
                assets[photo] = {"annotations": {"default": "a product photo on a table",
                                                 "color": f"the item is {rng.choice(COLORS)}"}}
                n_photos = sum(1 for t in turns if t["new_photo"])
                turn.update(photo=photo, image_index=n_photos + 1, new_photo=True)
            turns.append(turn)
        sessions.append(turns)

    world = {"products": products, "orders": orders, "shipments": shipments,
             "policies": [{"namespace": "platform_policy", "key": "tracking",
                           "body": "Tracking updates reach the buyer within one tick."}]}
    files: dict[str, object] = {"fixtures.json": {"rules": DESCRIBE_RULES, "assets": assets}}
    for s, turns in enumerate(sessions):
        task_id = f"long-session-{s}"
        utterances, facts, entries = [], [], []
        for k, t in enumerate(turns):
            product_url = f"https://shop.example/item/{t['pid']}"
            lead = "same photo again" if not t["new_photo"] else "photo"
            utterances.append({"utterance": (
                f"Ticket {t['tok']}: does my {lead} {t['photo']} match {product_url} "
                f"from order {t['oid']}, and where is that parcel now?")})
            status_text = f"order {t['oid']} is in_transit at {t['hub']}"
            facts.append({"match": {"substring": status_text}, "must_appear": True})
            steps = [
                ("product_info", {"product_id": t["pid"]}),
                ("multimodal_describe", {"placeholder": f"[Image {t['image_index']}]",
                                         "instruction": "Check the colour shown"}),
                ("logistics_track", {"order_id": t["oid"]}),
            ]
            plans = [_tool_plan(steps, f"Check item, photo and tracking for {t['tok']}."),
                     _reply_plan("Let me look into that.", f"Acknowledge {t['tok']} first.")]
            if k % 2:  # a duplicate plan the proposer must collapse
                plans.insert(1, _tool_plan(steps, f"Same checks again for {t['tok']}."))
            reply = (f"For {t['tok']}: {products[t['pid']]['title']} matches the photo; "
                     f"{status_text}.")
            entries = _turn_entries(t["tok"], f"Ticket {t['tok']}:",
                                    f"\"order_id\": \"{t['oid']}\"}}", plans, reply) + entries
        files[f"suite/{task_id}.json"] = {
            "task_id": task_id, "title": f"Long session {s}", "modality": "multimodal",
            "max_turns": LONG_TURNS, "world": world, "buyer_script": utterances,
            "success": {"state_assertions": [], "response_facts": facts},
        }
        files[f"scripts/{task_id}.json"] = {"entries": entries}
    return files


def order_desk_files(seed: int) -> dict[str, object]:
    """Sessions of DESK_TURNS cancel/refund turns over a world of DESK_ORDERS orders.

    Each turn runs memory_search -> order_update -> memory_put; the first
    turn of a session also sends a photo, described before the search.
    Every turn mutates one order, and each mutation has a state assertion.
    """
    rng = random.Random(f"order-desk:{seed}")
    products = {
        f"P-{i:04d}": {"title": f"{rng.choice(MATERIALS).title()} {rng.choice(NOUNS)}",
                       "attributes": {"color": rng.choice(COLORS)},
                       "price_cents": rng.randint(1000, 9999), "stock": rng.randint(10, 99)}
        for i in range(DESK_PRODUCTS)
    }
    statuses = ("paid", "shipped", "delivered", "created", "cancelled")
    orders = {
        f"O-{i:06d}": {"buyer_id": f"B-{rng.randint(0, 999):04d}", "status": statuses[i % 5],
                       "address": f"{rng.randint(1, 99)} Market St",
                       "items": [{"product_id": rng.choice(sorted(products)), "qty": 1}]}
        for i in range(DESK_ORDERS)
    }
    policies = [
        {"namespace": "platform_policy", "key": f"pol-{i:03d}",
         "body": " ".join(rng.choice(POLICY_WORDS) for _ in range(10)) + "."}
        for i in range(DESK_POLICIES)
    ]
    cancellable = [oid for oid, o in orders.items() if o["status"] in ("paid", "shipped")]
    refundable = [oid for oid, o in orders.items() if o["status"] == "delivered"]
    rng.shuffle(cancellable)
    rng.shuffle(refundable)
    world = {"products": products, "orders": orders, "policies": policies}

    assets = {}
    files: dict[str, object] = {}
    for s in range(DESK_SESSIONS):
        task_id = f"order-desk-{s}"
        utterances, assertions, entries = [], [], []
        for k in range(DESK_TURNS):
            tok = _token(rng, f"D{s}", k)
            refund = k == 0 or rng.random() < 0.5
            oid = refundable.pop() if refund else cancellable.pop()
            action, target = (("request_refund", "refund_requested") if refund
                              else ("cancel", "cancelled"))
            steps = []
            if k == 0:
                photo = f"https://img.shop.example/od/{seed}/{tok.lower()}.jpg"
                assets[photo] = {"annotations": {"default": "a parcel on a doorstep",
                                                 "damage": "the item is cracked along one side"}}
                utterances.append({"utterance": (
                    f"Desk {tok}: order {oid} arrived faulty, photo {photo} - I want a refund.")})
                steps.append(("multimodal_describe", {"placeholder": "[Image 1]",
                                                       "instruction": "Describe the damage"}))
            elif refund:
                utterances.append({"utterance": f"Desk {tok}: order {oid} arrived faulty, refund it."})
            else:
                utterances.append({"utterance": f"Desk {tok}: please cancel order {oid}, wrong size."})
            query = "refund faulty parcel policy" if refund else "cancel orders window policy"
            steps += [
                ("memory_search", {"namespace": "platform_policy", "query": query, "limit": 2}),
                ("order_update", {"order_id": oid, "action": action}),
                ("memory_put", {"namespace": "buyer_profile", "key": f"note-{oid}",
                                "body_json": json.dumps({"ticket": tok, "action": action})}),
            ]
            plans = [_tool_plan(steps, f"Apply policy and {action} for {tok}."),
                     _reply_plan("Let me check the policy first.", f"Stall on {tok}.")]
            assertions.append({"path": f"orders.{oid}.status", "expected": target})
            reply = f"Done for {tok}: order {oid} is now {target}."
            entries = _turn_entries(tok, f"Desk {tok}:", f"\"key\": \"note-{oid}\"",
                                    plans, reply) + entries
        files[f"suite/{task_id}.json"] = {
            "task_id": task_id, "title": f"Order desk {s}", "modality": "multimodal",
            "max_turns": DESK_TURNS, "world": world, "buyer_script": utterances,
            "success": {"state_assertions": assertions, "response_facts": []},
        }
        files[f"scripts/{task_id}.json"] = {"entries": entries}
    files["fixtures.json"] = {"rules": DESCRIBE_RULES, "assets": assets}
    return files


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite"),
        Workload("long-session", generate=long_session_files),
        Workload("order-desk", generate=order_desk_files),
    )
}


@dataclass(frozen=True)
class Inputs:
    suite: Path
    scripts: Path
    fixtures: Path


def prepare(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's generated files under out_dir, or point at the bundled suite."""
    if workload.generate is None:
        return Inputs(BUNDLED / "suite", BUNDLED / "scripts", BUNDLED / "vision_fixtures.json")
    write_files(workload.generate(seed), out_dir)
    return Inputs(out_dir / "suite", out_dir / "scripts", out_dir / "fixtures.json")
