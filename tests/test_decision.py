import json
import os
import random
import re
import string

import pytest

from conftest import DATA_DIR, InOrder
from shopclerk import shop_tools
from shopclerk.backends import ChatResponse, ScriptedBackend, ScriptEntry
from shopclerk.config import AgentConfig
from shopclerk.decision import (
    FENCED_JSON_RE,
    PLAN_KINDS,
    TEMPLATE_FIELDS,
    CandidatePlan,
    PlanEvaluation,
    PlanKind,
    PlannedStep,
    _parse_plan,
    _plans_in,
    evaluate,
    load_template,
    plan_listing,
    propose,
    select,
)
from shopclerk.episode import AgentSession
from shopclerk.errors import ConfigError, EvaluationError, ProposalError, UsageError
from shopclerk.world import World

CATALOG = "- product_info(product_id: string): Look up a product."


def fenced(plans) -> str:
    return "plans:\n```json\n" + json.dumps(plans) + "\n```"


def plan_row(kind, tools=(), rationale="r", reply=None):
    return {
        "kind": kind,
        "steps": [{"tool": t, "arguments": {"product_id": "P1"}} for t in tools],
        "rationale": rationale,
        "reply": reply,
    }


def backend_with(text, label_probs=None):
    return ScriptedBackend([ScriptEntry("", ChatResponse(text=text, label_probs=label_probs))])


def evaluated_ids(plans):
    """The plan_ids evaluate gives the plans of one round."""
    return [e.plan_id for e in evaluate("ctx", plans, backend_with("A", {"A": 1.0}))]


def test_propose_parses_well_formed_plans():
    rows = [
        plan_row("single_tool", ["product_info"]),
        plan_row("direct_reply", reply="hello"),
        plan_row("tool_sequence", ["product_info", "order_lookup"]),
    ]
    plans = propose("ctx", CATALOG, 3, backend_with(fenced(rows)))
    assert evaluated_ids(plans) == [0, 1, 2]
    assert plans[0].kind == PlanKind.SINGLE_TOOL
    assert plans[1].draft_reply == "hello"


def test_propose_dedups_identical_tool_sequences():
    rows = [
        plan_row("tool_sequence", ["product_info", "order_lookup"], rationale="first"),
        plan_row("tool_sequence", ["product_info", "order_lookup"], rationale="second"),
        plan_row("direct_reply", reply="hi"),
    ]
    # independent dedup oracle over the fixture output
    oracle = {}
    for row in rows:
        key = (row["kind"], tuple(s["tool"] for s in row["steps"]))
        oracle.setdefault(key, row)
    assert len(oracle) == 2

    plans = propose("ctx", CATALOG, 3, backend_with(fenced(rows)))
    assert len(plans) == 2
    assert plans[0].rationale == "first"  # first occurrence wins
    assert evaluated_ids(plans) == [0, 1]


def test_propose_caps_at_n_candidates():
    rows = [plan_row("single_tool", [name]) for name in ("a", "b", "c", "d")]
    plans = propose("ctx", CATALOG, 2, backend_with(fenced(rows)))
    assert len(plans) == 2


def test_propose_drops_malformed_keeps_valid():
    rows = [
        {"kind": "nonsense"},
        plan_row("direct_reply", reply="ok"),
        {"kind": "direct_reply", "steps": [], "reply": None},  # reply missing
        {"kind": "direct_reply", "steps": [], "reply": ""},  # reply empty
    ]
    plans = propose("ctx", CATALOG, 3, backend_with(fenced(rows)))
    assert len(plans) == 1
    assert plans[0].draft_reply == "ok"


# a falsy steps other than null is not read as no steps: nothing is coerced
@pytest.mark.parametrize("steps", [5, True, 2.5, "product_info", {"tool": "product_info"},
                                   0, False, 0.0, "", {}])
def test_propose_drops_a_plan_whose_steps_is_not_a_list(steps):
    rows = [{"kind": "single_tool", "steps": steps, "rationale": "r"},
            {"kind": "direct_reply", "steps": steps, "reply": "hi"},
            plan_row("direct_reply", reply="ok")]
    plans = propose("ctx", CATALOG, 3, backend_with(fenced(rows)))
    assert [p.draft_reply for p in plans] == ["ok"]
    with pytest.raises(ProposalError, match="no parseable plan"):
        propose("ctx", CATALOG, 3, backend_with(fenced(rows[:2])))


@pytest.mark.parametrize("steps", [None, []])
def test_propose_reads_a_falsy_steps_as_no_steps(steps):
    rows = [{"kind": "single_tool", "steps": steps, "rationale": "r"},
            {"kind": "direct_reply", "steps": steps, "reply": "hi"}]
    plans = propose("ctx", CATALOG, 3, backend_with(fenced(rows)))
    assert [(p.kind, p.steps, p.draft_reply) for p in plans] == [(PlanKind.DIRECT_REPLY, (), "hi")]


@pytest.mark.parametrize("step", [{"tool": "product_info"},
                                  {"tool": "product_info", "arguments": None},
                                  {"tool": "product_info", "arguments": {}}])
def test_propose_reads_a_missing_or_null_arguments_as_no_arguments(step):
    plans = propose("ctx", CATALOG, 3, backend_with(fenced([{"kind": "single_tool",
                                                             "steps": [step]}])))
    assert plans[0].steps[0].arguments == {}


@pytest.mark.parametrize("arguments", [0, False, 0.0, "", [], 5, "P1", ["P1"]])
def test_propose_drops_a_plan_whose_arguments_is_not_an_object(arguments):
    rows = [{"kind": "single_tool", "steps": [{"tool": "product_info", "arguments": arguments}]},
            plan_row("direct_reply", reply="ok")]
    plans = propose("ctx", CATALOG, 3, backend_with(fenced(rows)))
    assert [p.draft_reply for p in plans] == ["ok"]


def test_propose_ignores_keys_it_does_not_read():
    row = plan_row("single_tool", ["product_info"], reply=5)
    row["confidence"] = 0.9
    row["steps"][0]["why"] = ["any", "thing"]
    plans = propose("ctx", CATALOG, 3, backend_with(fenced([row])))
    assert [(p.kind, p.steps[0].arguments, p.draft_reply) for p in plans] == [
        (PlanKind.SINGLE_TOOL, {"product_id": "P1"}, None)]


def reference_parse_plan(row):
    """The former hand-written parser, which read a falsy steps or arguments as none."""
    if not isinstance(row, dict):
        return None
    kind = row.get("kind")
    if kind not in PLAN_KINDS:
        return None
    raw_steps = row.get("steps") or []
    if not isinstance(raw_steps, list):
        return None
    steps = []
    for step in raw_steps:
        if not isinstance(step, dict) or not isinstance(step.get("tool"), str) or not step["tool"]:
            return None
        args = step.get("arguments") or {}
        if not isinstance(args, dict):
            return None
        steps.append(PlannedStep(step["tool"], args))
    rationale = "" if row.get("rationale") is None else row["rationale"]
    if not isinstance(rationale, str):
        return None
    reply = row.get("reply")
    if kind == PlanKind.DIRECT_REPLY:
        if steps or not isinstance(reply, str) or not reply:
            return None
    else:
        if not steps:
            return None
        if kind == PlanKind.SINGLE_TOOL and len(steps) != 1:
            return None
    return CandidatePlan(kind=kind, steps=tuple(steps), rationale=rationale,
                         draft_reply=reply if kind == PlanKind.DIRECT_REPLY else None)


_LEAVES = (None, 0, 1, False, True, 0.0, 2.5, "", "x", [], {}, ["x"], {"a": 1})


def _random_step(rng):
    if rng.random() < 0.05:
        return rng.choice(_LEAVES)
    step = {}
    if rng.random() < 0.95:
        step["tool"] = rng.choice(["product_info", "order_lookup"]) if rng.random() < 0.8 else \
            rng.choice(_LEAVES)
    if rng.random() < 0.8:
        step["arguments"] = {"product_id": "P1"} if rng.random() < 0.6 else rng.choice(_LEAVES)
    if rng.random() < 0.05:
        step["note"] = rng.choice(_LEAVES)
    return step


def _random_row(rng):
    if rng.random() < 0.05:
        return rng.choice(_LEAVES)
    row = {}
    if rng.random() < 0.95:
        row["kind"] = rng.choice(list(PLAN_KINDS) * 3 + ["bogus", 1, None])
    if rng.random() < 0.8:
        row["steps"] = ([_random_step(rng) for _ in range(rng.choice((0, 1, 1, 1, 2, 3)))]
                        if rng.random() < 0.7 else rng.choice(_LEAVES))
    if rng.random() < 0.7:
        row["rationale"] = "because" if rng.random() < 0.6 else rng.choice(_LEAVES)
    if rng.random() < 0.6:
        row["reply"] = "hi" if rng.random() < 0.5 else rng.choice(_LEAVES)
    if rng.random() < 0.1:
        row["confidence"] = rng.choice(_LEAVES)
    return row


def _falsy_but_not(value, kind) -> bool:
    return value is not None and not value and not isinstance(value, kind)


def _read_falsy_as_none(row) -> bool:
    """Whether the former parser read a falsy non-null steps or arguments as none."""
    if not isinstance(row, dict):
        return False
    steps = row.get("steps")
    if _falsy_but_not(steps, list):
        return True
    return isinstance(steps, list) and any(
        isinstance(step, dict) and _falsy_but_not(step.get("arguments"), dict) for step in steps)


def test_plan_schema_parses_random_rows_like_the_former_parser():
    rng = random.Random(18)
    kept = coerced = 0
    for _ in range(100_000):
        row = _random_row(rng)
        plan = _parse_plan(row)
        if _read_falsy_as_none(row):
            assert plan is None, row
            coerced += reference_parse_plan(row) is not None
        else:
            assert plan == reference_parse_plan(row), row
            kept += plan is not None
    assert kept > 5_000 and coerced > 100  # the corpus keeps plans and meets every coercion


def test_propose_without_json_block_is_proposal_error():
    with pytest.raises(ProposalError):
        propose("ctx", CATALOG, 3, backend_with("no plans here, sorry"))


@pytest.mark.parametrize("block", ["5", '{"plans": 5}', '"plans"', "null"])
def test_propose_block_that_is_not_a_list_of_plans_is_proposal_error(block):
    reply = "plans:\n```json\n" + block + "\n```"
    with pytest.raises(ProposalError, match="not a list of plans"):
        propose("ctx", CATALOG, 3, backend_with(reply))


@pytest.mark.parametrize("block, why", [("[" * 5_000, "maximum recursion depth"),
                                        ("[" + "9" * 5_000 + "]", "Exceeds the limit")],
                         ids=["too-deep", "too-long-integer"])
def test_propose_block_that_json_cannot_read_is_proposal_error(block, why):
    reply = "plans:\n```json\n" + block + "\n```"
    with pytest.raises(ProposalError, match=f"^fenced block is not valid JSON: {why}"):
        propose("ctx", CATALOG, 3, backend_with(reply))


def test_propose_drops_plans_whose_reply_or_tool_is_not_text():
    rows = [plan_row("direct_reply", reply=5), plan_row("direct_reply", reply=["hi"]),
            plan_row("single_tool", [["product_info"]]), plan_row("single_tool", [{"a": 1}]),
            plan_row("direct_reply", reply="ok")]
    plans = propose("ctx", CATALOG, 3, backend_with(fenced(rows)))
    assert [p.draft_reply for p in plans] == ["ok"]
    with pytest.raises(ProposalError, match="no parseable plan"):
        propose("ctx", CATALOG, 3, backend_with(fenced(rows[:1])))


def test_propose_reads_a_null_rationale_as_empty_and_drops_a_non_text_one():
    rows = [plan_row("single_tool", ["null"], rationale=None),
            plan_row("single_tool", ["number"], rationale=5),
            plan_row("single_tool", ["zero"], rationale=0),
            plan_row("single_tool", ["list"], rationale=["why"]),
            plan_row("single_tool", ["object"], rationale={"why": "x"}),
            plan_row("single_tool", ["false"], rationale=False),
            {"kind": "single_tool", "steps": [{"tool": "missing", "arguments": {}}]},
            plan_row("single_tool", ["text"], rationale="because")]
    plans = propose("ctx", CATALOG, 8, backend_with(fenced(rows)))
    assert [(p.steps[0].tool_name, p.rationale) for p in plans] == [
        ("null", ""), ("missing", ""), ("text", "because")]
    assert "None" not in plan_listing(plans)
    with pytest.raises(ProposalError, match="no parseable plan"):
        propose("ctx", CATALOG, 3, backend_with(fenced(rows[1:6])))


def test_propose_all_malformed_is_proposal_error():
    with pytest.raises(ProposalError):
        propose("ctx", CATALOG, 3, backend_with(fenced([{"kind": "bogus"}])))


def test_one_reply_parsed_twice_gives_equal_plans_in_a_new_list_each_time():
    text = fenced([plan_row("single_tool", ["product_info"]), plan_row("direct_reply", reply="hi")])
    first = propose("ctx", CATALOG, 3, backend_with(text))
    second = propose("ctx", CATALOG, 3, backend_with(text))
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))  # parsed once, shared
    first.append(first[0])  # a caller's list is its own
    assert len(propose("ctx", CATALOG, 3, backend_with(text))) == 2


def test_fewer_candidates_from_one_reply_are_a_prefix_with_the_same_plan_ids():
    text = fenced([plan_row("single_tool", [name]) for name in ("a", "b", "a", "c", "d")])
    one = propose("ctx", CATALOG, 1, backend_with(text))
    three = propose("ctx", CATALOG, 3, backend_with(text))
    assert [p.steps[0].tool_name for p in three] == ["a", "b", "c"]
    assert one == three[:1]
    assert evaluated_ids(three) == [0, 1, 2]
    assert propose("ctx", CATALOG, 1, backend_with(text)) == one


@pytest.mark.parametrize("text", ["no plans here", "```json\n[1,\n```",
                                  fenced({"plans": 5}), fenced([{"kind": "bogus"}])])
def test_a_malformed_reply_raises_the_same_error_on_every_call(text):
    messages = set()
    for _ in range(3):
        with pytest.raises(ProposalError) as caught:
            propose("ctx", CATALOG, 3, backend_with(text))
        messages.add(str(caught.value))
    assert len(messages) == 1


def test_the_reply_memo_keeps_only_replies_that_hold_a_plan():
    _plans_in.cache_clear()
    for text in ("no plans here", fenced([{"kind": "bogus"}])):
        with pytest.raises(ProposalError):
            _plans_in(text)
    assert _plans_in.cache_info().currsize == 0
    propose("ctx", CATALOG, 3, backend_with(fenced([plan_row("direct_reply", reply="hi")])))
    assert _plans_in.cache_info().currsize == 1


def test_a_handler_that_mutates_its_arguments_leaves_the_next_episodes_plans_alone(monkeypatch):
    def mangle(self, args):
        args["product_id"] = "mangled"
        args["extra"] = 1
        return "{}"

    monkeypatch.setattr(shop_tools._Handlers, "product_info", mangle)
    text = fenced([{"kind": "single_tool", "rationale": "look it up",
                    "steps": [{"tool": "product_info", "arguments": {"product_id": "as sent"}}]}])
    for _ in range(2):
        session = AgentSession(World(), backend_with(text), None, AgentConfig(decision_module=False))
        plan = session._propose("ctx")[0]
        assert plan.steps[0].arguments == {"product_id": "as sent"}
        session._run_steps(plan)
    assert propose("ctx", CATALOG, 1, backend_with(text))[0].steps[0].arguments == {
        "product_id": "as sent"}


# the pattern FENCED_JSON_RE replaced: the reference its matches are compared with
LAZY_FENCED_JSON_RE = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)
_FENCE_PIECES = ("`", "``", "```", "````", "json", " ", "\t", "\r", "\n", "{", "plans", "é")


def _fenced_match(pattern, text):
    match = pattern.search(text)
    return match and (match.span(), match.group(1))


def _bundled_replies():
    replies = []
    for path in sorted(DATA_DIR.rglob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(data, dict) and "entries" in data:
            replies += [row["response"]["text"] for row in data["entries"]]
    return replies


@pytest.mark.parametrize("seed", range(4))
def test_fenced_block_matches_like_the_lazy_pattern(seed):
    rng = random.Random(seed)
    for _ in range(5000):
        text = "".join(rng.choice(_FENCE_PIECES) for _ in range(rng.randint(0, 24)))
        assert _fenced_match(FENCED_JSON_RE, text) == _fenced_match(LAZY_FENCED_JSON_RE, text)


def test_fenced_block_matches_every_bundled_reply_like_the_lazy_pattern():
    replies = _bundled_replies()
    assert sum(1 for text in replies if LAZY_FENCED_JSON_RE.search(text)) >= 40
    for text in replies:
        assert _fenced_match(FENCED_JSON_RE, text) == _fenced_match(LAZY_FENCED_JSON_RE, text)


def _plans(n):
    return [
        CandidatePlan(kind=PlanKind.DIRECT_REPLY, steps=(), rationale=f"r{i}", draft_reply=f"d{i}")
        for i in range(n)
    ]


def test_evaluate_uses_label_probs_directly():
    evals = evaluate("ctx", _plans(3), backend_with("B", {"A": 0.1, "B": 0.7, "C": 0.2}))
    assert [round(e.confidence, 6) for e in evals] == [0.1, 0.7, 0.2]
    assert [e.label for e in evals] == ["A", "B", "C"]


def test_evaluate_normalizes_partial_probs():
    evals = evaluate("ctx", _plans(2), backend_with("A", {"A": 0.25, "B": 0.25}))
    assert [round(e.confidence, 6) for e in evals] == [0.5, 0.5]


@pytest.mark.parametrize("reply", ["B", " B\n"])
def test_evaluate_without_probs_gives_the_replied_label_full_confidence(reply):
    backend = InOrder(ChatResponse(reply))
    evals = evaluate("ctx", _plans(3), backend)
    assert {e.label: e.confidence for e in evals} == {"A": 0.0, "B": 1.0, "C": 0.0}
    assert backend.calls == 1


@pytest.mark.parametrize("reply", ["?", "", "C", "b", "AB"])
def test_evaluate_non_label_reply_fails_after_one_call(reply):
    backend = InOrder(ChatResponse(reply), ChatResponse("A"))
    with pytest.raises(EvaluationError, match="not a plan label"):
        evaluate("ctx", _plans(2), backend)
    assert backend.calls == 1


def test_evaluate_with_probs_makes_one_call_whatever_the_text():
    backend = InOrder(ChatResponse("?", {"A": 0.0, "B": 0.3}))
    evals = evaluate("ctx", _plans(2), backend)
    assert [e.confidence for e in evals] == [0.0, 1.0]
    assert backend.calls == 1
    with pytest.raises(EvaluationError, match="no mass"):
        evaluate("ctx", _plans(2), backend_with("A", {"C": 1.0}))


def test_evaluate_rejects_more_than_26_plans():
    with pytest.raises(UsageError):
        evaluate("ctx", _plans(27), backend_with("A", {"A": 1.0}))


def test_evaluate_rejects_empty():
    with pytest.raises(UsageError):
        evaluate("ctx", [], backend_with("A", {"A": 1.0}))


def test_plan_listing_letters():
    listing = plan_listing(_plans(3))
    assert listing.splitlines()[0].startswith("A. ")
    assert listing.splitlines()[2].startswith("C. ")


def _evals(pairs):
    return [PlanEvaluation(plan_id=i, label=chr(ord("A") + n), confidence=c)
            for n, (i, c) in enumerate(pairs)]


def test_select_argmax():
    assert select(_evals([(0, 0.2), (1, 0.9), (2, 0.5)]), 0.0) == 1


def test_select_tie_smallest_plan_id():
    assert select(_evals([(0, 0.5), (1, 0.5)]), 0.0) == 0


def test_select_floor_rejection():
    assert select(_evals([(0, 0.3), (1, 0.2)]), 0.6) is None


def test_select_empty_is_usage_error():
    with pytest.raises(UsageError):
        select([], 0.0)


def test_select_over_a_slice_of_a_round_gives_the_index_of_the_plan_its_label_names():
    plans = _plans(3)
    rest = plans[1:]
    evals = evaluate("ctx", rest, backend_with("B", {"A": 0.2, "B": 0.8}))
    selected = select(evals)
    assert [(e.plan_id, e.label) for e in evals] == [(0, "A"), (1, "B")]
    assert rest[selected] is plans[2]
    assert CandidatePlan._fields == ("kind", "steps", "rationale", "draft_reply", "summary")


def test_select_pure_over_1000_repetitions():
    evals = _evals([(0, 0.31), (1, 0.42), (2, 0.27)])
    outcomes = {select(evals, 0.0) for _ in range(1000)}
    assert outcomes == {1}


def test_select_invariant_under_permutation():
    rng = random.Random(3)
    evals = _evals([(0, 0.31), (1, 0.42), (2, 0.27), (3, 0.42)])
    baseline = select(evals, 0.0)
    for _ in range(200):
        shuffled = evals[:]
        rng.shuffle(shuffled)
        assert select(shuffled, 0.0) == baseline


def test_select_floor_monotone_gate():
    evals = _evals([(0, 0.4), (1, 0.7)])
    selected = {select(evals, floor) for floor in (0.0, 0.3, 0.69, 0.7)}
    assert selected == {1}  # floor below/at max never changes the winner
    assert select(evals, 0.71) is None


# --- templates: static text first, so a provider prefix cache can reuse it ---

# static lines allowed after $context: evaluate.txt keeps the plan list's label and the
# answer instruction last, right before the one-letter answer
STATIC_AFTER_CONTEXT = {
    "propose.txt": set(),
    "evaluate.txt": {"Candidate plans:",
                     "Which plan best serves the buyer's intent? Answer with exactly one letter."},
}
SESSION_FIELDS = {"tool_catalog", "n_candidates"}  # fixed for a whole session


@pytest.mark.parametrize("name", sorted(TEMPLATE_FIELDS))
def test_bundled_template_puts_static_text_before_the_context(name):
    head, tail = load_template(name).template.split("$context")
    assert head.strip()
    assert {line for line in tail.splitlines() if line.strip() and "$" not in line} == \
        STATIC_AFTER_CONTEXT[name]
    assert not SESSION_FIELDS & set(re.findall(r"\$(\w+)", tail))


# --- templates: the per-file-version cache ---


def test_template_rewritten_in_place_is_read_again(tmp_path):
    path = tmp_path / "evaluate.txt"
    path.write_text("v1 $context $plan_list")
    first = load_template("evaluate.txt", tmp_path)
    assert load_template("evaluate.txt", str(tmp_path)) is first
    path.write_text("v22 $context $plan_list")  # a new size
    assert load_template("evaluate.txt", tmp_path).template.startswith("v22")
    stat = path.stat()
    path.write_text("v33 $context $plan_list")  # the same size, a new mtime
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    assert load_template("evaluate.txt", tmp_path).template.startswith("v33")


def test_template_deleted_after_a_cache_hit_is_config_error(tmp_path):
    (tmp_path / "evaluate.txt").write_text("$context $plan_list")
    load_template("evaluate.txt", tmp_path)
    load_template("evaluate.txt", tmp_path)
    (tmp_path / "evaluate.txt").unlink()
    with pytest.raises(ConfigError, match="evaluate.txt"):
        load_template("evaluate.txt", tmp_path)


def test_malformed_placeholder_is_config_error_naming_its_line(tmp_path):
    (tmp_path / "evaluate.txt").write_text("$context\n$plan_list\ncosts $5\n")
    with pytest.raises(ConfigError, match="malformed placeholder on line 3"):
        load_template("evaluate.txt", tmp_path)


# --- templates: the compiled fill gives what string.Template.substitute gives ---

FILL_VALUES = {"context": "buyer: a $5 mug, {size} ${x}", "tool_catalog": CATALOG,
               "n_candidates": 3, "plan_list": "A. (direct_reply) reply: \"$$\" | r"}


def _substituted(template, values):
    return string.Template(template.template).substitute(**values)


@pytest.mark.parametrize("name", sorted(TEMPLATE_FIELDS))
def test_bundled_template_fill_equals_substitute(name):
    template = load_template(name)
    values = {field: FILL_VALUES[field] for field in TEMPLATE_FIELDS[name]}
    assert template.fill(**values) == _substituted(template, values)


@pytest.mark.parametrize("text", [
    "costs $$5, see $context",             # an escaped $ before a field
    "${context} is braced and first",      # a braced field at the very start
    "$context, then $context again",       # one field used twice
    "ends with a field: $plan_list",       # a field at the very end
    "$$$context$$",                        # escapes right next to a field
    "${context}${plan_list}",              # two fields and no literal text
    "$$ and $$$$ but no field",
    "",
])
def test_custom_template_fill_equals_substitute(tmp_path, text):
    (tmp_path / "custom.txt").write_text(text)
    template = load_template("custom.txt", tmp_path)
    values = {"context": FILL_VALUES["context"], "plan_list": FILL_VALUES["plan_list"]}
    assert template.fill(**values) == _substituted(template, values)
