import pytest

from shopclerk.errors import ConfigError, TaskLoadError
from shopclerk.files import parse_once, read_json, read_jsonl, read_text


def test_read_text_names_the_file_for_each_failure(tmp_path):
    with pytest.raises(ConfigError, match=f"thing {tmp_path / 'none'} cannot be read: not found"):
        read_text(tmp_path / "none", "thing")
    with pytest.raises(ConfigError, match=f"thing {tmp_path} cannot be read: Is a directory"):
        read_text(tmp_path, "thing")
    latin = tmp_path / "latin.txt"
    latin.write_bytes("caf\xe9".encode("latin-1"))
    with pytest.raises(ConfigError, match=f"thing {latin} is not UTF-8 text"):
        read_text(latin, "thing")


def test_read_json_checks_the_top_level_type_and_raises_the_given_error(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("[1, 2]")
    assert read_json(path, "thing") == [1, 2]
    assert read_json(path, "thing", list) == [1, 2]
    with pytest.raises(ConfigError, match="thing .*x.json must hold a JSON object"):
        read_json(path, "thing", dict)
    path.write_text("{")
    with pytest.raises(TaskLoadError, match="thing .*x.json is not valid JSON"):
        read_json(path, "thing", error=TaskLoadError)


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
