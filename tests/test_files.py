import random

import pytest

from shopclerk import files
from shopclerk.errors import ConfigError
from shopclerk.files import (
    LIST, OBJECT, STRING, closed, compile_shape, parse_once, read_json, read_jsonl, read_text,
    shape_error,
)


def test_read_text_names_the_file_for_each_failure(tmp_path):
    with pytest.raises(ConfigError, match=f"thing {tmp_path / 'none'} cannot be read: not found"):
        read_text(tmp_path / "none", "thing")
    with pytest.raises(ConfigError, match=f"thing {tmp_path} cannot be read: Is a directory"):
        read_text(tmp_path, "thing")
    latin = tmp_path / "latin.txt"
    latin.write_bytes("caf\xe9".encode("latin-1"))
    with pytest.raises(ConfigError, match=f"thing {latin} is not UTF-8 text"):
        read_text(latin, "thing")


def test_read_json_checks_the_top_level_type_and_the_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("[1, 2]")
    assert read_json(path, "thing") == [1, 2]
    assert read_json(path, "thing", LIST) == [1, 2]
    with pytest.raises(ConfigError, match="thing .*x.json must hold a JSON object"):
        read_json(path, "thing", OBJECT)
    path.write_text("{")
    with pytest.raises(ConfigError, match="thing .*x.json is not valid JSON"):
        read_json(path, "thing")


@pytest.mark.parametrize("text, why", [("[" * 200_000, "maximum recursion depth"),
                                       ('{"n_candidates": ' + "9" * 5_000 + "}",
                                        "Exceeds the limit")],
                         ids=["too-deep", "too-long-integer"])
def test_read_json_names_json_the_parser_cannot_read_as_not_valid_json(tmp_path, text, why):
    path = tmp_path / "x.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"thing .*x.json is not valid JSON: {why}"):
        read_json(path, "thing")


ROW = closed(["id"], id={"type": "integer", "minimum": 1}, tags={"type": "array", "items": STRING},
             note={"type": ["string", "null"], "minLength": 2})
SHAPE = {"type": "object", "additionalProperties": {"type": "array", "minItems": 1, "items": ROW}}


@pytest.mark.parametrize("value,error", [
    ({"a": [{"id": 1}], "b": [{"id": 2, "tags": ["x"], "note": None}]}, None),
    ({"a": [{"id": 1, "note": "ok"}]}, None),
    ([], "top level: must be an object, got a list"),
    ({"a": {}}, "a: must be a list, got an object"),
    ({"a": []}, "a: must have length >= 1, got 0"),
    ({"a": [{"id": 1}, {"id": 2, "idd": 3}]}, "a[1].idd: unknown key"),
    ({"a": [{"idd": 3}]}, "a[0].id: missing"),  # missing before unknown
    ({"a": [{"id": True}]}, "a[0].id: must be an integer, got true"),
    ({"a": [{"id": 1.0}]}, "a[0].id: must be an integer, got 1.0"),
    ({"a": [{"id": "1"}]}, 'a[0].id: must be an integer, got "1"'),
    ({"a": [{"id": 0}]}, "a[0].id: must be >= 1, got 0"),
    ({"a": [{"id": 1, "tags": ["x", 2]}]}, "a[0].tags[1]: must be a string, got 2"),
    ({"a": [{"id": 1, "note": 5}]}, "a[0].note: must be a string or null, got 5"),
    ({"a": [{"id": 1, "note": "x"}]}, "a[0].note: must have length >= 2, got \"x\""),
])
def test_shape_error_names_the_first_misfit_and_its_path(value, error):
    assert shape_error(value, SHAPE) == error


@pytest.mark.parametrize("schema,fits,misfits", [
    ({"type": "number"}, [0, -2, 2.5], [True, "1", None]),
    ({"type": "boolean"}, [True, False], [0, 1, "false"]),
    ({"type": "null"}, [None], [0, "", False]),
    ({"enum": ["a", 1]}, ["a", 1, 1.0], ["b", 2, None, True]),
    ({"enum": [True]}, [True], [1, 1.0, "true"]),
    ({"enum": [False]}, [False], [0, 0.0, None]),
    ({}, [None, 1, "x", [], {}], []),
])
def test_shape_error_types_coerce_nothing(schema, fits, misfits):
    assert [shape_error(v, schema) for v in fits] == [None] * len(fits)
    assert all(shape_error(v, schema) for v in misfits)


@pytest.mark.parametrize("value, schema, error", [
    (1, {"enum": [True]}, "must be one of [true], got 1"),
    (None, {"enum": ["a"]}, 'must be one of ["a"], got null'),
    (False, {"enum": ["a", 2.5]}, 'must be one of ["a", 2.5], got false'),
    ("lost", {"enum": ["paid", "shipped"]}, 'must be one of ["paid", "shipped"], got "lost"'),
    ("é", {"enum": ["e"]}, 'must be one of ["e"], got "é"'),
    ([1], {"enum": [1]}, "must be one of [1], got a list"),
    (-1.5, {"minimum": 0}, "must be >= 0, got -1.5"),
    ("x", {"minLength": 2}, 'must have length >= 2, got "x"'),
    (None, {"type": "string"}, "must be a string, got null"),
    (True, {"type": "integer"}, "must be an integer, got true"),
    ("ten", {"type": "number"}, 'must be a number, got "ten"'),
    ({"a": 1}, {"type": "string"}, "must be a string, got an object"),
    ((1, 2), {"type": "array"}, "must be a list, got (1, 2)"),  # no JSON value, so its repr
    (26.5, {"minimum": 1, "maximum": 26}, "must be <= 26, got 26.5"),
    (-5, {"type": ["string", "integer"], "minLength": 1, "minimum": 0}, "must be >= 0, got -5"),
])
def test_misfits_show_values_as_json_writes_them(value, schema, error):
    assert shape_error(value, schema) == f"top level: {error}"


@pytest.mark.parametrize("literal, shown", [
    ("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"), ("1e400", "Infinity"),
])
def test_a_number_is_finite(tmp_path, literal, shown):
    # json.loads reads each literal as a float; written back, none is valid JSON
    path = tmp_path / "x.json"
    path.write_text(f'{{"a": [{{"id": 1, "w": {literal}}}]}}')
    shape = {"type": "object", "additionalProperties": {"type": "array", "items": closed(
        ["id"], id={"type": "integer"}, w={"type": ["number", "null"], "minimum": 0})}}
    with pytest.raises(ConfigError, match=rf"^thing .*x\.json: a\[0\]\.w: "
                                          rf"must be a number or null, got {shown}$"):
        read_json(path, "thing", shape)
    assert shape_error(float(literal), {"type": "number"}) == f"top level: must be a number, got {shown}"


def test_read_json_checks_the_whole_shape_naming_the_path(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": [{"id": 1, "tags": "x"}]}')
    why = r'a\[0\]\.tags: must be a list, got "x"'
    with pytest.raises(ConfigError, match=rf"^thing .*x\.json: {why}$"):
        read_json(path, "thing", SHAPE)


def test_read_jsonl_skips_blank_lines_and_numbers_the_rest(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"a": 2}\n')
    assert read_jsonl(path, "log") == [(1, {"a": 1}), (4, {"a": 2})]
    path.write_text('{"a": 1}\n\n{"a": \n')
    with pytest.raises(ConfigError, match="log .*x.jsonl line 3 is not valid JSON"):
        read_jsonl(path, "log")


def test_parse_once_reads_a_file_version_once(tmp_path):
    path, cache, parses = tmp_path / "x.txt", {}, []

    def parse(p, text):
        parses.append(text)
        return text.upper()

    path.write_text("ab")
    assert parse_once(cache, path, "thing", parse) == "AB"
    assert parse_once(cache, path, "thing", parse) == "AB"
    path.write_text("abc")
    assert parse_once(cache, path, "thing", parse) == "ABC"
    assert parses == ["ab", "abc"]
    path.unlink()
    with pytest.raises(ConfigError, match="cannot be read: not found"):
        parse_once(cache, path, "thing", parse)


# plain leaves the compiled checker takes itself, and two it leaves to shape_error
_LEAVES = [STRING, OBJECT, LIST, {"type": "string", "minLength": 2},
           {"type": "integer", "minimum": 1}, {"type": "number", "minimum": 0},
           {"type": ["string", "null"], "minLength": 1}, {"enum": ["a", 1, True]},
           {"type": "string", "enum": ["a", "b"]}, {"type": "boolean"}, {"type": "null"},
           {"minimum": 3}, {"type": ["integer", "boolean"], "minimum": 1},
           {"type": "integer", "maximum": 3}, {"type": "array", "items": STRING}]
_VALUES = ["", "a", "ab", "b", 0, 1, 2, -1, 1.0, 2.5, float("nan"), float("inf"), True, False,
           None, [], ["x"], [1], {}, {"k": 1}]


def test_a_compiled_checker_words_every_value_as_shape_error_does():
    rng = random.Random("compile_shape")
    for _ in range(1500):
        names = rng.sample("pqrs", rng.randrange(1, 5))
        schema = closed(rng.sample(names, rng.randrange(len(names) + 1)),
                        **{name: rng.choice(_LEAVES) for name in names})
        check = compile_shape(schema)
        for _ in range(10):
            keys = rng.sample([*names, "z"], rng.randrange(len(names) + 2))
            value = {key: rng.choice(_VALUES) for key in keys}
            assert check(value) == shape_error(value, schema), (schema, value)
        for value in ([], None, "p"):
            assert check(value) == shape_error(value, schema)
    for schema in (SHAPE, ROW, {"type": "object"}, {"type": "object", "properties": {}}):
        assert compile_shape(schema)({"id": 0}) == shape_error({"id": 0}, schema)


def test_a_fitting_value_of_plain_leaves_never_reaches_shape_error(monkeypatch):
    check = compile_shape(closed(["a"], a={"type": "string", "minLength": 1},
                                 n={"type": "integer", "minimum": 1}, e={"enum": ["x", "y"]}))
    monkeypatch.setattr(files, "shape_error", lambda value, schema: "slow")
    assert check({"a": "k", "n": 2, "e": "y"}) is None
    assert check({"e": "x", "a": "k"}) is None
    assert check({"a": "k", "n": True}) == "slow"
    assert check({"a": "k", "n": 2.0}) == "slow"
    assert check({"a": ""}) == "slow"
    assert check({"a": "k", "e": "z"}) == "slow"
    assert check({"n": 2}) == "slow"
