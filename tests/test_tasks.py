import json

import pytest

from conftest import WHOLE_WORLD
from shopclerk import cli
from shopclerk.backends import ScriptedBackend
from shopclerk.config import AgentConfig
from shopclerk.episode import AgentSession
from shopclerk.errors import ConfigError
from shopclerk.placeholders import PlaceholderTable
from shopclerk.shop_tools import build_registry
from shopclerk.tasks import (
    ResponseFact,
    StateAssertion,
    SuccessCriteria,
    check_success,
    load_suite,
    load_task,
    task_from_dict,
)
from shopclerk.toolkit import ToolCall
from shopclerk.world import Order, World, seed_store, world_from_dict

MINIMAL = {
    "task_id": "t1",
    "modality": "unimodal",
    "max_turns": 1,
    "world": {"products": {}},
    "buyer_script": [{"utterance": "hello"}],
    "success": {"response_facts": [{"match": {"substring": "hi"}}]},
}


def test_load_bundled_multimodal_task(suite_dir, vision_fixtures):
    task = load_task(suite_dir / "damaged-kettle-refund.json", vision_fixtures)
    assert task.modality == "multimodal"
    assert len(task.image_urls()) == 1


def test_load_suite_has_shape(suite_dir, vision_fixtures):
    tasks = load_suite(suite_dir, vision_fixtures)
    assert len(tasks) >= 10
    assert sum(1 for t in tasks if t.modality == "multimodal") >= 3


def test_unknown_modality_is_load_error():
    bad = dict(MINIMAL, modality="audio")
    with pytest.raises(ConfigError, match="modality"):
        task_from_dict(bad)


def test_missing_utterance_names_path():
    bad = dict(MINIMAL, buyer_script=[{"utterance": "ok"}, {"note": "oops"}])
    with pytest.raises(ConfigError, match=r"buyer_script\[1\]\.utterance"):
        task_from_dict(bad, source="suite.json")


def test_max_turns_must_cover_script():
    bad = dict(MINIMAL, max_turns=0)
    with pytest.raises(ConfigError, match="max_turns"):
        task_from_dict(bad)


def test_multimodal_requires_image_url():
    bad = dict(MINIMAL, modality="multimodal")
    with pytest.raises(ConfigError, match="image or video URL"):
        task_from_dict(bad)


def test_asset_must_exist_in_fixtures(vision_fixtures):
    bad = dict(
        MINIMAL,
        modality="multimodal",
        buyer_script=[{"utterance": "see https://img.shop.example/uploads/not-a-fixture-999.jpg"}],
    )
    with pytest.raises(ConfigError, match="not in vision fixtures"):
        task_from_dict(bad, vision_fixtures=vision_fixtures)


def test_assertion_path_must_exist_in_seed_world():
    world = {"orders": {"O1": {"buyer_id": "B", "items": [], "status": "paid", "address": ""},
                        "O.1": {"buyer_id": "B", "items": [], "status": "paid"}},
             "products": {"P.1": {"title": "Mug", "price_cents": 900, "stock": 1,
                                  "attributes": {"size.cm": 9}}}}
    assertions = [{"path": "orders.O1.status", "expected": "paid"},
                  {"path": "orders.O.1.status", "expected": "paid"},
                  {"path": "products.P.1.attributes.size.cm", "expected": 9},
                  {"path": "orders.O1.statuz", "expected": None}]
    bad = dict(MINIMAL, world=world, success={"state_assertions": assertions})
    with pytest.raises(ConfigError, match=r"state_assertions\[3\]\.path.*orders\.O1\.statuz"):
        task_from_dict(bad)


def test_a_very_long_assertion_path_is_rejected_at_once():
    path = "products." + ".".join(["a"] * 50_000)
    bad = dict(MINIMAL, success={"state_assertions": [{"path": path, "expected": 1}]})
    with pytest.raises(ConfigError, match=r"state_assertions\[0\]\.path"):
        task_from_dict(bad)


def test_success_needs_some_predicate():
    bad = dict(MINIMAL, success={})
    with pytest.raises(ConfigError, match="success"):
        task_from_dict(bad)


def test_load_error_on_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_task(path)


@pytest.mark.parametrize("payload,where", [
    (["not", "an", "object"], "must hold a JSON object"),
    (dict(MINIMAL, success=["hi"]), r":success: must be an object"),
    (dict(MINIMAL, success={"state_assertions": [{"expected": 1}]}),
     r":success\.state_assertions\[0\]\.path: missing"),
    (dict(MINIMAL, success={"response_facts": [{"match": {"number": "ten"}}]}),
     r':success\.response_facts\[0\]\.match\.number: must be a number, got "ten"'),
    (dict(MINIMAL, buyer_script=5), r":buyer_script: must be a list, got 5"),
    (dict(MINIMAL, success={"state_assertions": 5}), r":success\.state_assertions: must be a list"),
    (dict(MINIMAL, success={"response_facts": 5}), r":success\.response_facts: must be a list"),
    (dict(MINIMAL, success={"response_facts": [{"match": {"substring": "a", "number": 1}}]}),
     r":success\.response_facts\[0\]\.match: needs exactly one of substring or number"),
    (dict(MINIMAL, success={"response_facts": [{"match": {"substring": "a", "tolerance": 1}}]}),
     r":success\.response_facts\[0\]\.match: tolerance needs a number"),
    (dict(MINIMAL, success={"response_facts": [{"match": {"number": 1, "tolerance": -0.5}}]}),
     r":success\.response_facts\[0\]\.match\.tolerance: must be >= 0, got -0\.5"),
    # an empty substring is in every reply, so the fact would pass vacuously
    (dict(MINIMAL, success={"response_facts": [{"match": {"substring": ""}}]}),
     r':success\.response_facts\[0\]\.match\.substring: must have length >= 1, got ""'),
    (dict(MINIMAL, success={"response_facts": [{"match": {"number": float("inf")}}]}),
     r":success\.response_facts\[0\]\.match\.number: must be a number, got Infinity"),
], ids=["top-level-list", "success-list", "assertion-without-path", "number-not-numeric",
        "buyer-script-not-list", "assertions-not-list", "facts-not-list",
        "substring-and-number", "tolerance-without-number", "negative-tolerance",
        "empty-substring", "infinite-number"])
def test_malformed_shape_is_load_error_naming_the_file(tmp_path, payload, where):
    path = tmp_path / "bad-task.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=f"bad-task\\.json.*{where}"):
        load_task(path)


def test_task_load_error_is_a_config_error(tmp_path):
    # a bad task file exits 2 like every other bad input file
    with pytest.raises(ConfigError, match="task file .*missing.json cannot be read: not found"):
        load_task(tmp_path / "missing.json")


def test_reset_yields_independent_worlds(suite_dir, vision_fixtures):
    task = load_task(suite_dir / "cancel-paid-order.json", vision_fixtures)
    a, b = task.reset(), task.reset()
    a.apply_order_action("O-7002", "cancel")
    assert b.orders["O-7002"].status == "paid"


@pytest.mark.parametrize("task_id", ["cancel-paid-order", "refund-approval",
                                     "damaged-kettle-refund", "blender-sparks-video"])
def test_an_episode_leaves_the_seed_world_as_loaded(task_id, suite_dir, scripts_dir,
                                                    vision_fixtures):
    task = load_task(suite_dir / f"{task_id}.json", vision_fixtures)
    before = task.seed_world.snapshot(WHOLE_WORLD)
    world = task.reset()
    chat = ScriptedBackend.from_file(scripts_dir / f"{task_id}.json")
    session = AgentSession(world, chat, vision_fixtures, AgentConfig(), session_id="seed")
    for turn in task.buyer_script:
        session.handle_buyer_turn(turn.utterance)
    assert world.mutations and world.snapshot(WHOLE_WORLD) != before
    assert task.seed_world.snapshot(WHOLE_WORLD) == before
    assert task.seed_world.mutations == []
    assert task.reset().snapshot(WHOLE_WORLD) == before


# --- one seed World per distinct world in a suite ---


def write_tasks(directory, *tasks):
    """One task file per task, named after its task id."""
    for task in tasks:
        (directory / f"{task['task_id']}.json").write_text(json.dumps(task))


def kettle_task(task_id, watts):
    world = {"products": {"P1": {"title": "Kettle", "attributes": {"watts": watts},
                                 "price_cents": 2500, "stock": 3}}}
    return dict(MINIMAL, task_id=task_id, world=world)


def test_tasks_with_one_world_share_one_seed_world(tmp_path):
    write_tasks(tmp_path, kettle_task("a", 1200), kettle_task("b", 1200), kettle_task("c", 900))
    a, b, c = load_suite(tmp_path)
    assert a.seed_world is b.seed_world
    assert c.seed_world is not a.seed_world
    assert c.seed_world.products["P1"].attributes == {"watts": 900}


def test_an_episode_of_one_task_leaves_a_task_sharing_its_world_as_loaded(
        suite_dir, scripts_dir, vision_fixtures, tmp_path):
    task = json.loads((suite_dir / "cancel-paid-order.json").read_text())
    write_tasks(tmp_path, dict(task, task_id="a-cancel"), dict(task, task_id="b-cancel"))
    a, b = load_suite(tmp_path, vision_fixtures)
    assert a.seed_world is b.seed_world
    before = b.seed_world.snapshot(WHOLE_WORLD)
    world = a.reset()
    chat = ScriptedBackend.from_file(scripts_dir / "cancel-paid-order.json")
    session = AgentSession(world, chat, vision_fixtures, AgentConfig(), session_id="shared")
    for turn in a.buyer_script:
        session.handle_buyer_turn(turn.utterance)
    assert world.orders["O-7002"].status == "cancelled"
    assert b.reset().snapshot(WHOLE_WORLD) == before
    assert b.seed_world.snapshot(WHOLE_WORLD) == before and b.seed_world.mutations == []


def test_worlds_equal_only_under_eq_get_their_own_seeds(tmp_path):
    # 1 == 1.0 == True in Python: a key built on == would print the first file's value
    write_tasks(tmp_path, kettle_task("a-int", 1), kettle_task("b-float", 1.0),
                kettle_task("c-bool", True))
    tasks = load_suite(tmp_path)
    assert len({id(t.seed_world) for t in tasks}) == 3
    printed = []
    for task in tasks:
        world = task.reset()
        registry = build_registry(world, seed_store(world), PlaceholderTable(), None)
        result = registry.invoke(ToolCall("c1", "product_info", {"product_id": "P1"}))
        printed.append(json.loads(result.text)["attributes"]["watts"])
    assert [(type(v), v) for v in printed] == [(int, 1), (float, 1.0), (bool, True)]


def test_a_bool_stock_after_the_same_world_with_an_int_stock_exits_2_naming_its_file(
        tmp_path, capsys):
    good, bad = kettle_task("a-int-stock", 1200), kettle_task("b-bool-stock", 1200)
    good["world"]["products"]["P1"]["stock"] = 1
    bad["world"]["products"]["P1"]["stock"] = True
    write_tasks(tmp_path, good, bad)
    code = cli.main(["bench", "--suite", str(tmp_path), "--scripts", str(tmp_path),
                     "--n-trials", "1", "--k", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{tmp_path / 'b-bool-stock.json'}:world: products.P1.stock:" in err
    assert "a-int-stock" not in err


# --- check_success ---


def test_state_assertion_pass():
    world = world_from_dict({"orders": {"O1": {"buyer_id": "B", "items": [],
                                                 "status": "refunded", "address": ""}}})
    criteria = SuccessCriteria(state_assertions=(StateAssertion("orders.O1.status", "refunded"),))
    ok, rows = check_success(world, (), criteria)
    assert ok
    assert all(r["ok"] for r in rows)


def test_missing_substring_fail_names_predicate():
    world = world_from_dict({})
    criteria = SuccessCriteria(
        response_facts=(ResponseFact(substring="within 3 business days"),)
    )
    ok, rows = check_success(world, ("it ships soon",), criteria)
    assert not ok
    failing = [r for r in rows if not r["ok"]]
    assert "within 3 business days" in failing[0]["predicate"]


def test_empty_transcript_with_state_only_criteria_passes():
    world = world_from_dict({"orders": {"O1": {"buyer_id": "B", "items": [],
                                                 "status": "paid", "address": ""}}})
    criteria = SuccessCriteria(state_assertions=(StateAssertion("orders.O1.status", "paid"),))
    ok, _ = check_success(world, (), criteria)
    assert ok


def test_numeric_fact_with_tolerance():
    world = world_from_dict({})
    criteria = SuccessCriteria(response_facts=(ResponseFact(number=18.99, tolerance=0.01),))
    ok, _ = check_success(world, ("that is $18.99 today",), criteria)
    assert ok
    ok, _ = check_success(world, ("that is $21.50 today",), criteria)
    assert not ok


@pytest.mark.parametrize("reply, number, found", [
    ("The total is $1,299.00 today", 1299, True),
    ("about 12,345,678 units", 12345678, True),
    ("pick 1,2 or 3", 12, False),  # groups of one digit: the numbers 1 and 2
    ("pick 1,2 or 3", 2, True),
    ("codes 1,2345", 12345, False),  # a group of four digits: 1 and 2345
    ("codes 1,2345", 2345, True),
], ids=["grouped-price", "two-groups", "short-group", "short-group-tail", "long-group",
        "long-group-tail"])
def test_numeric_fact_reads_thousands_separators_in_groups_of_three(reply, number, found):
    criteria = SuccessCriteria(response_facts=(ResponseFact(number=number),))
    ok, _ = check_success(world_from_dict({}), (reply,), criteria)
    assert ok is found


def test_must_not_appear_fact():
    world = world_from_dict({})
    criteria = SuccessCriteria(
        response_facts=(ResponseFact(substring="sold out", must_appear=False),)
    )
    ok, _ = check_success(world, ("plenty available",), criteria)
    assert ok
    ok, _ = check_success(world, ("sadly sold out",), criteria)
    assert not ok


def test_check_success_reads_replies_as_sent():
    url = "https://docs.shop.example/manuals/crisproast-toaster-v3.pdf"
    world = world_from_dict({})
    criteria = SuccessCriteria(response_facts=(ResponseFact(substring="crisproast-toaster-v3"),))
    # a placeholder that went out unresolved is not the URL it later stood for
    ok_verbatim, _ = check_success(world, ("manual: [Link 1]",), criteria)
    ok_sent, _ = check_success(world, ("hi", f"manual: {url}"), criteria)
    assert not ok_verbatim
    assert ok_sent


def test_state_path_missing_resolves_to_none():
    world = world_from_dict({})
    criteria = SuccessCriteria(state_assertions=(StateAssertion("orders.O9.status", "paid"),))
    ok, rows = check_success(world, (), criteria)
    assert not ok
    assert rows[0]["actual"] is None


def test_check_success_snapshots_only_the_asserted_records(monkeypatch):
    orders = {f"O{i}": {"buyer_id": "B", "items": [], "status": "paid"} for i in range(50)}
    world = world_from_dict({"orders": orders})
    views, built, real_snapshot, as_dict = [], [], World.snapshot, Order._asdict

    def recording_snapshot(self, paths):
        views.append(real_snapshot(self, paths))
        return views[-1]

    monkeypatch.setattr(World, "snapshot", recording_snapshot)
    monkeypatch.setattr(Order, "_asdict", lambda self: built.append(self.order_id) or as_dict(self))
    criteria = SuccessCriteria(state_assertions=(StateAssertion("orders.O7.status", "paid"),
                                                 StateAssertion("clock", 0)))
    ok, _ = check_success(world, (), criteria)
    assert ok and views == [{"orders.O7.status": "paid", "clock": 0}] and built == ["O7"]


def test_world_seed_error_names_the_file_and_the_path(tmp_path):
    path = tmp_path / "bad-task.json"
    path.write_text(json.dumps(dict(MINIMAL, world={"orders": {"O1": {"status": "paid"}}})))
    with pytest.raises(ConfigError, match=r"bad-task\.json:world: orders\.O1\.buyer_id: missing"):
        load_task(path)


def test_url_with_an_unbalanced_bracket_in_its_host_loads(tmp_path):
    # urlsplit rejects the host as an invalid IPv6 literal; the loader classifies it as a link
    path = tmp_path / "bracket.json"
    path.write_text(json.dumps(dict(MINIMAL, buyer_script=[{"utterance": "see http://[oops"}])))
    [task] = load_suite(tmp_path)
    assert task.image_urls() == []
