import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR
import shopclerk
from shopclerk import backends, bench, cli, decision
from shopclerk.backends import ChatResponse, RemoteBackend, ScriptedBackend, load_script
from shopclerk.cli import _episode_backends, build_parser, main
from shopclerk.errors import ConfigError
from shopclerk.tasks import load_task
from shopclerk.vision import FixtureVisionBackend

DAMAGED = "damaged-kettle-refund"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# what no command needs at start-up: each is imported on the one path that uses it, or not at all
DEFERRED_MODULES = ("dataclasses", "inspect", "logging", "hashlib", "concurrent.futures",
                    "shopclerk.bench", "shopclerk.metrics", "fractions", "decimal")


def test_importing_the_cli_loads_only_what_every_command_runs():
    """Measured against the same interpreter before the import, so what site loads does not count."""
    src = str(Path(shopclerk.__file__).parent.parent)
    probe = ("import sys; bare = set(sys.modules); import shopclerk.cli; "
             "print(' '.join(sorted(set(sys.modules) - bare)))")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    added = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                           check=True, timeout=60).stdout.split()
    assert "shopclerk.cli" in added
    assert [m for m in DEFERRED_MODULES if m in added] == []


def test_run_bundled_task_success(capsys, suite_dir, scripts_dir, tmp_path):
    code, out, _ = run_cli(
        capsys, "run",
        "--task", str(suite_dir / "kettle-capacity.json"),
        "--script", str(scripts_dir / "kettle-capacity.json"),
        "--out", str(tmp_path / "artifacts"),
    )
    assert code == 0
    assert "success=true" in out
    stems = {p.name for p in (tmp_path / "artifacts").iterdir()}
    assert stems == {
        "kettle-capacity-t0.result.json",
        "kettle-capacity-t0.transcript.jsonl",
        "kettle-capacity-t0.trace.jsonl",
    }


def test_run_negative_trial_exits_2_before_any_episode(capsys, suite_dir, scripts_dir, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "run_episode", lambda *a, **kw: pytest.fail("ran an episode"))
    code, out, err = run_cli(capsys, "run", "--task", str(suite_dir / "kettle-capacity.json"),
                             "--script", str(scripts_dir / "kettle-capacity.json"),
                             "--trial", "-3", "--out", str(tmp_path / "artifacts"))
    assert code == 2 and out == ""
    assert "--trial must be >= 0, got -3" in err
    assert not (tmp_path / "artifacts").exists()


def test_run_missing_script_file_exits_2(capsys, suite_dir):
    code, _, err = run_cli(
        capsys, "run",
        "--task", str(suite_dir / "kettle-capacity.json"),
        "--script", "/nope/missing-script.json",
    )
    assert code == 2
    assert "missing-script.json" in err


@pytest.mark.parametrize("payload", [[], {"entries": [{"contains": "", "response": "hi"}]}])
def test_run_malformed_script_file_exits_2(capsys, suite_dir, tmp_path, payload):
    script = tmp_path / "malformed-script.json"
    script.write_text(json.dumps(payload))
    code, _, err = run_cli(
        capsys, "run", "--task", str(suite_dir / "kettle-capacity.json"), "--script", str(script),
    )
    assert code == 2
    assert "malformed-script.json" in err


def test_run_script_with_a_nan_label_probability_exits_2_naming_the_entry(capsys, suite_dir,
                                                                          tmp_path):
    # json reads the bare NaN; left in, it made every confidence NaN and skipped the floor
    script = tmp_path / "nan-script.json"
    script.write_text('{"entries": [{"contains": "Conversation", "response": {"text": "A"}}, '
                      '{"contains": "", "response": {"text": "A", "label_probs": {"A": NaN}}}]}')
    code, _, err = run_cli(
        capsys, "run", "--task", str(suite_dir / "kettle-capacity.json"), "--script", str(script),
    )
    assert code == 2
    why = "entries[1].response.label_probs.A: must be a number, got NaN"
    assert f"script file {script}: {why}" in err


def test_run_script_with_a_step_row_exits_2(capsys, suite_dir, tmp_path):
    # entries match by content only: a call index is no longer a script key
    script = tmp_path / "step-script.json"
    row = {"step": 0, "contains": "", "response": {"text": "A"}}
    script.write_text(json.dumps({"entries": [row]}))
    code, out, err = run_cli(
        capsys, "run", "--task", str(suite_dir / "kettle-capacity.json"), "--script", str(script),
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: script file {script}: entries[0].step: unknown key"]


def test_episodes_of_one_script_file_share_one_backend(suite_dir, scripts_dir):
    _, chat_for = _episode_backends(build_parser().parse_args(["bench"]))
    kettle = load_task(suite_dir / "kettle-capacity.json")
    first = chat_for(kettle)
    assert chat_for(kettle) is first is load_script(scripts_dir / "kettle-capacity.json")
    assert chat_for(load_task(suite_dir / "wrong-color-mug.json")) is not first


def _trial_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if "wall_time_ms" not in line]


def test_a_multimodal_task_recorded_under_remote_replays_without_fixtures(
        capsys, suite_dir, scripts_dir, tmp_path, monkeypatch):
    script = ScriptedBackend.from_file(scripts_dir / "wrong-color-mug.json")

    class InProcessRemote:
        """Describes every image alike and plans from the bundled script."""

        def complete(self, request):
            if request.kind == "describe":
                return ChatResponse("The photo shows a bright red mug.")
            return script.complete(request)

    monkeypatch.setattr(cli, "RemoteBackend", InProcessRemote)
    task, store = str(suite_dir / "wrong-color-mug.json"), str(tmp_path / "store.json")
    code, _, err = run_cli(capsys, "run", "--task", task, "--remote", "--record", store,
                           "--out", str(tmp_path / "recorded"))
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "RemoteBackend", lambda: pytest.fail("replay made a remote call"))
    code, _, err = run_cli(capsys, "run", "--task", task, "--replay", store,
                           "--out", str(tmp_path / "replayed"))
    assert (code, err) == (0, "")
    recorded = sorted((tmp_path / "recorded").iterdir())
    assert [path.name for path in recorded] == sorted(
        path.name for path in (tmp_path / "replayed").iterdir())
    for path in recorded:
        assert _trial_lines(path) == _trial_lines(tmp_path / "replayed" / path.name), path.name
    trace = tmp_path / "replayed" / "wrong-color-mug-t0.trace.jsonl"
    assert '"call": "describe"' in trace.read_text()


def test_a_describe_that_misses_the_replay_store_ends_the_episode(
        capsys, suite_dir, scripts_dir, tmp_path):
    # recorded over fixture vision, so the store holds no describe for a fixtureless replay
    task, store = str(suite_dir / "wrong-color-mug.json"), str(tmp_path / "store.json")
    code, _, _ = run_cli(capsys, "run", "--task", task, "--record", store,
                         "--script", str(scripts_dir / "wrong-color-mug.json"))
    assert code == 0
    code, _, err = run_cli(capsys, "run", "--task", task, "--replay", store,
                           "--out", str(tmp_path / "replayed"))
    assert code == 1
    assert err.startswith("episode error: ReplayMissError: no recorded describe response"), err
    result = json.loads((tmp_path / "replayed" / "wrong-color-mug-t0.result.json").read_text())
    assert result["error"].startswith("ReplayMissError: no recorded describe response")


def test_a_task_with_a_lone_surrogate_records_and_replays(capsys, suite_dir, scripts_dir, tmp_path):
    # "\ud800" is a valid JSON escape but no UTF-8; the request digest once died encoding it
    task = json.loads((suite_dir / "kettle-capacity.json").read_text())
    task["buyer_script"][0]["utterance"] += " \ud800"
    path, store = tmp_path / "kettle-capacity.json", str(tmp_path / "store.json")
    path.write_text(json.dumps(task))
    code, out, err = run_cli(capsys, "run", "--task", str(path), "--record", store,
                             "--script", str(scripts_dir / path.name), "--out", str(tmp_path / "a"))
    assert (code, err) == (0, "") and "success=true" in out
    code, out, err = run_cli(capsys, "run", "--task", str(path), "--replay", store,
                             "--out", str(tmp_path / "b"))
    assert (code, err) == (0, "") and "success=true" in out
    for name in ("kettle-capacity-t0.transcript.jsonl", "kettle-capacity-t0.trace.jsonl"):
        assert _trial_lines(tmp_path / "a" / name) == _trial_lines(tmp_path / "b" / name)


def test_bench_replays_every_bundled_task_from_one_recorded_store(
        capsys, data_dir, suite_dir, scripts_dir, tmp_path, monkeypatch):
    store, recorded = str(tmp_path / "store.json"), tmp_path / "recorded"
    for task in sorted(suite_dir.glob("*.json")):
        code, _, err = run_cli(capsys, "run", "--task", str(task), "--record", store,
                               "--script", str(scripts_dir / task.name), "--out", str(recorded))
        assert (code, err) == (0, ""), task.name
    reads, read_json = [], backends.read_json
    monkeypatch.setattr(backends, "read_json",
                        lambda path, what, *rest: reads.append(what) or read_json(path, what, *rest))
    fixtures = str(data_dir / "vision_fixtures.json")
    for workers in ("1", "2"):
        reads.clear()
        code, _, err = run_cli(capsys, "bench", "--replay", store, "--n-trials", "2", "--k", "1",
                               "--fixtures", fixtures, "--workers", workers,
                               "--out", str(tmp_path / f"replayed-{workers}"))
        assert (code, err) == (0, "")
        assert reads == ["replay store"]  # one read serves all 26 episodes
        [row] = json.loads((tmp_path / f"replayed-{workers}" / "report.json").read_text())
        assert (row["pass_hat_k"], row["episodes"], row["failures"]) == ({"1": 1.0}, 26, 0)
    paths = sorted(recorded.iterdir())
    assert len(paths) == 3 * 13
    for path in paths:
        assert _trial_lines(path) == _trial_lines(tmp_path / "replayed-1" / "trials" / path.name)
    serial = sorted((tmp_path / "replayed-1" / "trials").iterdir())
    assert len(serial) == 3 * 13 * 2
    for path in serial:
        assert _trial_lines(path) == _trial_lines(tmp_path / "replayed-2" / "trials" / path.name)

    # re-record the kettle reply plan under a new script; the next command serves the new reply
    rows = json.loads(Path(store).read_text())
    [digest] = [d for d, row in rows.items() if "comfortable for soup" in row["text"]]
    del rows[digest]
    Path(store).write_text(json.dumps(rows))
    script = tmp_path / "kettle-capacity.json"
    script.write_text((scripts_dir / script.name).read_text().replace("comfortable", "ideal"))
    task = str(suite_dir / script.name)
    code, _, _ = run_cli(capsys, "run", "--task", task, "--script", str(script), "--record", store)
    assert code == 0
    assert "ideal for soup" in json.loads(Path(store).read_text())[digest]["text"]
    code, out, _ = run_cli(capsys, "run", "--task", task, "--replay", store, "--fixtures", fixtures,
                           "--out", str(tmp_path / "re-recorded"))
    assert code == 0
    transcript = tmp_path / "re-recorded" / "kettle-capacity-t0.transcript.jsonl"
    assert "holds 2 liters, ideal for soup" in transcript.read_text()


@pytest.mark.parametrize("name, text, complaint", [
    ("propose.txt", None, "cannot be read"),
    ("propose.txt", "$context $tool_catalog $n_candidates costs $5", "malformed placeholder"),
    ("evaluate.txt", "$context and no plan list", "missing $plan_list"),
    ("propose.txt", "$context $tool_catalog", "missing $n_candidates"),
    ("evaluate.txt", "$context $plan_list $budget", "unknown $budget"),
])
def test_run_broken_template_exits_2(capsys, data_dir, suite_dir, scripts_dir, tmp_path,
                                     name, text, complaint):
    templates = tmp_path / "templates"
    templates.mkdir()
    for stock in ("propose.txt", "evaluate.txt"):
        (templates / stock).write_text((data_dir.parent / "templates" / stock).read_text())
    if text is None:
        (templates / name).unlink()
    else:
        (templates / name).write_text(text)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"template_dir": str(templates)}))
    code, _, err = run_cli(
        capsys, "run", "--task", str(suite_dir / "kettle-capacity.json"),
        "--script", str(scripts_dir / "kettle-capacity.json"), "--config", str(config),
    )
    assert code == 2
    assert str(templates / name) in err
    assert complaint in err


def test_run_two_backends_is_config_error(capsys, suite_dir, scripts_dir, tmp_path):
    store = tmp_path / "store.json"
    store.write_text("{}")
    code, _, err = run_cli(
        capsys, "run",
        "--task", str(suite_dir / "kettle-capacity.json"),
        "--script", str(scripts_dir / "kettle-capacity.json"),
        "--replay", str(store),
    )
    assert code == 2
    assert "exactly one backend" in err


def _never(*args, **kwargs):
    pytest.fail("ran an episode")


@pytest.mark.parametrize("backends", [["--replay", "STORE", "--scripts", "SCRIPTS"],
                                      ["--remote", "--scripts", "SCRIPTS"],
                                      ["--replay", "STORE", "--remote"]],
                         ids=["replay-scripts", "remote-scripts", "replay-remote"])
@pytest.mark.parametrize("command", [["bench"], ["ablate", "--vary", "aci"]], ids=["bench", "ablate"])
def test_suite_takes_at_most_one_backend_and_names_its_own_flags(capsys, tmp_path, monkeypatch,
                                                                 command, backends):
    monkeypatch.setattr(cli, "load_suite", _never)
    paths = {"STORE": str(tmp_path / "store.json"), "SCRIPTS": str(tmp_path / "scripts")}
    argv = [*command, *(paths.get(a, a) for a in backends), "--n-trials", "1", "--k", "1"]
    code, stdout, err = run_cli(capsys, *argv)
    # neither path exists, so a read of either would print its own error
    assert (code, stdout) == (2, "")
    assert err.splitlines() == ["error: select at most one backend: --replay, --remote, "
                                "or --scripts"]


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", ["run", "bench", "ablate"])
def test_out_that_cannot_be_a_directory_exits_2_before_any_episode(
        capsys, suite_dir, scripts_dir, tmp_path, monkeypatch, command, under):
    monkeypatch.setattr(cli, "run_episode", _never)
    monkeypatch.setattr(bench, "run_episode", _never)
    (tmp_path / "taken").write_text("")
    out = str(tmp_path / "taken" / under)
    argv = {"run": ["--task", str(suite_dir / "kettle-capacity.json"),
                    "--script", str(scripts_dir / "kettle-capacity.json")],
            "bench": ["--n-trials", "1", "--k", "1"],
            "ablate": ["--vary", "aci", "--n-trials", "1", "--k", "1"]}[command]
    code, stdout, err = run_cli(capsys, command, *argv, "--out", out)
    assert (code, stdout) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: --out {out}") and " cannot be made a directory: " in line


@pytest.mark.parametrize("command", ["bench", "ablate"])
def test_a_k_above_n_trials_exits_2_before_out_is_made(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setattr(cli, "run_episode", _never)
    monkeypatch.setattr(bench, "run_episode", _never)
    out = tmp_path / "out"
    vary = ["--vary", "aci"] if command == "ablate" else []
    code, stdout, err = run_cli(capsys, command, *vary, "--k", "9", "--n-trials", "2",
                                "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.splitlines() == ["error: every k in [9] must be in 1..n_trials=2"]
    assert not out.exists()


def test_run_whose_trial_file_is_a_directory_exits_2_naming_it(capsys, suite_dir, scripts_dir,
                                                               tmp_path):
    taken = tmp_path / "out" / "kettle-capacity-t0.result.json"
    taken.mkdir(parents=True)
    code, stdout, err = run_cli(capsys, "run", "--task", str(suite_dir / "kettle-capacity.json"),
                                "--script", str(scripts_dir / "kettle-capacity.json"),
                                "--out", str(tmp_path / "out"))
    assert (code, stdout) == (2, "")
    assert err.splitlines() == [f"error: output file {taken} cannot be written: Is a directory"]


def test_report_that_cannot_be_written_is_a_config_error_naming_it(tmp_path):
    (tmp_path / "report.txt").mkdir()
    with pytest.raises(ConfigError, match=rf"^output file {re.escape(str(tmp_path))}/report.txt "
                                          "cannot be written: "):
        bench.write_report([], [1], tmp_path)


@pytest.mark.parametrize("command", ["run", "chat"])
def test_record_into_a_missing_directory_exits_2_before_any_call(
        capsys, suite_dir, scripts_dir, tmp_path, monkeypatch, command):
    monkeypatch.setattr(cli, "run_episode", _never)
    monkeypatch.setattr("builtins.input", _never)
    store = tmp_path / "missing" / "store.json"
    code, stdout, err = run_cli(capsys, command, "--task", str(suite_dir / "kettle-capacity.json"),
                                "--script", str(scripts_dir / "kettle-capacity.json"),
                                "--record", str(store))
    assert (code, stdout) == (2, "")
    assert err.splitlines() == [f"error: record store {store}: directory {store.parent} "
                                "does not exist"]
    assert not store.parent.exists()


@pytest.mark.parametrize("flag", ["--record", "--script"])
def test_bench_rejects_single_task_backend_flags(capsys, flag, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--n-trials", "1", "--k", "1", flag, str(tmp_path / "x.json")])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_run_remote_uses_remote_vision_unless_fixtures_given(suite_dir, data_dir, monkeypatch):
    monkeypatch.setenv("SHOPCLERK_CHAT_URL", "http://localhost:9")  # never contacted
    argv = ["run", "--task", str(suite_dir / "kettle-capacity.json"), "--remote"]
    vision, chat_for = _episode_backends(build_parser().parse_args(argv))
    task = load_task(argv[2], vision_fixtures=vision)
    assert vision is None  # the session describes over its recorded chat
    chat = chat_for(task)
    assert isinstance(chat, RemoteBackend) and chat_for(task) is not chat  # a client per episode
    argv += ["--fixtures", str(data_dir / "vision_fixtures.json")]
    vision, chat_for = _episode_backends(build_parser().parse_args(argv))
    load_task(argv[2], vision_fixtures=vision)
    assert isinstance(vision, FixtureVisionBackend)


def test_bad_config_value_exits_2(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_plan_rounds": 0}))
    code, _, err = run_cli(capsys, "bench", "--n-trials", "1", "--k", "1", "--config", str(config))
    assert code == 2
    assert f"config file {config}: max_plan_rounds: must be >= 1, got 0" in err


def test_removed_vote_samples_key_exits_2_as_unknown(capsys, tmp_path):
    # a scored round makes one evaluate call, so there is no vote count to set
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"vote_samples": 5}))
    code, out, err = run_cli(capsys, "bench", "--n-trials", "1", "--k", "1", "--config", str(config))
    assert code == 2 and out == ""
    assert f"config file {config}: vote_samples: unknown key" in err


def test_unknown_config_key_names_the_config_file(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "bench", "--n-trials", "1", "--k", "1", "--config", str(config))
    assert code == 2
    assert f"config file {config}: bogus: unknown key" in err


@pytest.mark.parametrize("rows,row,why", [
    ([5], 0, "top level: must be an object, got 5"),
    ([{"name": "a"}, {"name": "b", "bogus": 1}], 1, "bogus: unknown key"),
    ([{"name": 5}], 0, "name: must be a string, got 5"),
    ([{"name": "votes", "vote_samples": 1}], 0, "vote_samples: unknown key"),
    ([{"name": "a"}, {"name": "b"}, {"name": "a", "aci": "off"}], 2,
     "name 'a' is also the name of row 0"),
])
def test_bad_matrix_row_names_the_file_and_row(capsys, tmp_path, monkeypatch, rows, row, why):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(rows))
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: pytest.fail("ran an episode"))
    code, out, err = run_cli(capsys, "ablate", "--matrix", str(matrix), "--n-trials", "1", "--k", "1")
    assert code == 2
    assert f"matrix file {matrix} row {row}: {why}" in err
    assert out == ""


@pytest.mark.parametrize("literal,shown", [("1e400", "Infinity"), ("-Infinity", "-Infinity"),
                                           ("NaN", "NaN")])
def test_matrix_row_with_a_non_finite_number_exits_2_before_any_episode(capsys, tmp_path,
                                                                        monkeypatch, literal, shown):
    # once accepted, it put inf in the table and Infinity, which is no JSON, in report.json
    matrix = tmp_path / "m.json"
    matrix.write_text(f'[{{"name": "inf", "confidence_floor": {literal}}}]')
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: pytest.fail("ran an episode"))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "ablate", "--matrix", str(matrix), "--n-trials", "1",
                             "--k", "1", "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err == (f"error: matrix file {matrix} row 0: confidence_floor: "
                   f"must be a number, got {shown}\n")
    assert not out_dir.exists()


def test_an_empty_matrix_exits_2_before_out_is_made(capsys, tmp_path, monkeypatch):
    matrix = tmp_path / "m.json"
    matrix.write_text("[]")
    monkeypatch.setattr(bench, "run_episode", _never)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "ablate", "--matrix", str(matrix), "--n-trials", "1",
                                "--k", "1", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: matrix file {matrix}: top level: must have length >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["bench"], ["ablate", "--vary", "aci"],
                                     ["run", "--task", str(DATA_DIR / "demo" / "task.json"),
                                      "--script", str(DATA_DIR / "demo" / "script.json")]])
@pytest.mark.parametrize("broken", ["missing", "malformed"])
def test_a_bad_template_exits_2_before_out_is_made(capsys, tmp_path, monkeypatch, command,
                                                   broken):
    templates = tmp_path / "templates"
    if broken == "malformed":
        templates.mkdir()
        for name in ("propose.txt", "evaluate.txt"):
            (templates / name).write_text((DATA_DIR.parent / "templates" / name).read_text())
        (templates / "evaluate.txt").write_text("$ ${context} ${plan_list}")
        why = f"template file {templates / 'evaluate.txt'} has a malformed placeholder on line 1"
    else:
        why = f"template file {templates / 'propose.txt'} cannot be read: not found"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"template_dir": str(templates)}))
    monkeypatch.setattr(cli, "run_episode", _never)
    monkeypatch.setattr(bench, "run_episode", _never)
    out = tmp_path / "out"
    trials = [] if command[0] == "run" else ["--n-trials", "1", "--k", "1"]
    code, stdout, err = run_cli(capsys, *command, *trials, "--config", str(config),
                                "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: {why}\n"
    assert not out.exists()


def test_run_task_whose_only_fact_is_an_empty_substring_exits_2(capsys, suite_dir, scripts_dir,
                                                                tmp_path):
    # every transcript contains "", so the task would pass whatever the agent said
    task = json.loads((suite_dir / "kettle-capacity.json").read_text())
    task["success"] = {"response_facts": [{"match": {"substring": ""}}]}
    path = tmp_path / "vacuous.json"
    path.write_text(json.dumps(task))
    code, out, err = run_cli(capsys, "run", "--task", str(path),
                             "--script", str(scripts_dir / "kettle-capacity.json"))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}:success.response_facts[0].match.substring: "
                   'must have length >= 1, got ""\n')


def test_ablate_matrix_and_vary_together_exit_2(capsys, tmp_path, monkeypatch):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps([{"name": "a"}]))
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: pytest.fail("ran an episode"))
    with pytest.raises(SystemExit) as exit_info:
        main(["ablate", "--matrix", str(matrix), "--vary", "aci", "--n-trials", "1", "--k", "1"])
    assert exit_info.value.code == 2
    assert "--vary: not allowed with argument --matrix" in capsys.readouterr().err


def test_duplicate_task_ids_exit_2_before_any_episode(capsys, suite_dir, scripts_dir, tmp_path,
                                                      monkeypatch):
    suite = tmp_path / "suite"
    suite.mkdir()
    for name in ("a.json", "b.json"):
        (suite / name).write_text((suite_dir / "kettle-capacity.json").read_text())
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *args, **kwargs: episodes.append(args))
    code, _, err = run_cli(capsys, "bench", "--suite", str(suite), "--scripts", str(scripts_dir),
                           "--n-trials", "1", "--k", "1")
    assert code == 2
    assert str(suite / "a.json") in err and str(suite / "b.json") in err
    assert "'kettle-capacity'" in err
    assert episodes == []


@pytest.mark.parametrize("key", ["", 7])
def test_bad_policy_key_exits_2_before_any_episode(capsys, suite_dir, scripts_dir, tmp_path,
                                                   monkeypatch, key):
    suite = tmp_path / "suite"
    suite.mkdir()
    for task_file in suite_dir.glob("*.json"):
        (suite / task_file.name).write_text(task_file.read_text())
    task = json.loads((suite_dir / "kettle-promo.json").read_text())
    task["world"]["policies"][0]["key"] = key
    (suite / "kettle-promo.json").write_text(json.dumps(task))
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *args, **kwargs: episodes.append(args))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "bench", "--suite", str(suite), "--scripts", str(scripts_dir),
                           "--n-trials", "1", "--k", "1", "--out", str(out_dir))
    assert code == 2
    assert f"{suite / 'kettle-promo.json'}:world: policies[0].key" in err
    assert episodes == [] and not out_dir.exists()


def _set(*path_and_value):
    """An edit of a task dict that sets the value at the path of keys and list indices."""
    *path, key, value = path_and_value

    def edit(task):
        node = task
        for step in path:
            node = node[step]
        node[key] = value

    return edit


def _rename(*path_and_names):
    """An edit of a task dict that renames a key of the dict at the path, keeping its value."""
    *path, old, new = path_and_names

    def edit(task):
        node = task
        for step in path:
            node = node[step]
        node[new] = node.pop(old)

    return edit


def _add_number_fact(task):
    task["success"]["response_facts"].append({"match": {"number": 18.99, "tolerence": 0.01}})


MUG = ("world", "products", "P-MUG-200")

# edit of the bundled cancel-paid-order task -> what the error says after the file name
TASK_SHAPE_FAULTS = {
    "price-not-integer": (_set(*MUG, "price_cents", 3.7),
                          ":world: products.P-MUG-200.price_cents: must be an integer, got 3.7"),
    "stock-boolean": (_set(*MUG, "stock", True),
                      ":world: products.P-MUG-200.stock: must be an integer, got true"),
    "title-number": (_set(*MUG, "title", 7),
                     ":world: products.P-MUG-200.title: must be a string, got 7"),
    "max-turns-boolean": (_set("max_turns", True), ":max_turns: must be an integer, got true"),
    "must-appear-text": (_set("success", "response_facts", 0, "must_appear", "false"),
                         ':success.response_facts[0].must_appear: must be a boolean, got "false"'),
    "substring-number": (_set("success", "response_facts", 0, "match", "substring", 5),
                         ":success.response_facts[0].match.substring: must be a string, got 5"),
    "state-asertions": (_rename("success", "state_assertions", "state_asertions"),
                        ":success.state_asertions: unknown key"),
    "must-apear": (_rename("success", "response_facts", 0, "must_appear", "must_apear"),
                   ":success.response_facts[0].must_apear: unknown key"),
    "tolerence": (_add_number_fact, ":success.response_facts[1].match.tolerence: unknown key"),
}


@pytest.mark.parametrize("fault", TASK_SHAPE_FAULTS)
def test_task_shape_fault_exits_2_before_any_episode(capsys, suite_dir, scripts_dir, tmp_path,
                                                     monkeypatch, fault):
    edit, why = TASK_SHAPE_FAULTS[fault]
    suite = tmp_path / "suite"
    suite.mkdir()
    for task_file in suite_dir.glob("*.json"):
        (suite / task_file.name).write_text(task_file.read_text())
    task = json.loads((suite_dir / "cancel-paid-order.json").read_text())
    edit(task)
    (suite / "cancel-paid-order.json").write_text(json.dumps(task))
    episodes = []
    monkeypatch.setattr(bench, "run_episode", lambda *args, **kwargs: episodes.append(args))
    code, _, err = run_cli(capsys, "bench", "--suite", str(suite), "--scripts", str(scripts_dir),
                           "--n-trials", "1", "--k", "1")
    assert code == 2
    assert f"{suite / 'cancel-paid-order.json'}{why}" in err
    assert episodes == []


def _unknown_key_in(reader, data_dir, bad):
    """run arguments that read bad, a good input of the reader's kind with one unknown key added."""
    task = str(data_dir / "suite" / "kettle-capacity.json")
    script = data_dir / "scripts" / "kettle-capacity.json"
    if reader == "script file":
        data = json.loads(script.read_text())
        data["entries"][0]["stepp"] = 0
        bad.write_text(json.dumps(data))
        return ["run", "--task", task, "--script", str(bad)]
    if reader == "vision fixture file":
        data = json.loads((data_dir / "vision_fixtures.json").read_text())
        next(iter(data["assets"].values()))["note"] = "seen twice"
        bad.write_text(json.dumps(data))
        return ["run", "--task", task, "--script", str(script), "--fixtures", str(bad)]
    bad.write_text(json.dumps({"d1": {"text": "A", "lable_probs": {"A": 1.0}}}))
    return ["run", "--task", task, "--replay", str(bad)]


@pytest.mark.parametrize("reader,where", [
    ("script file", "entries[0].stepp"),
    ("vision fixture file", "assets.https://img.shop.example/uploads/kettle-crack-2291.jpg.note"),
    ("replay store", "d1.lable_probs"),
])
def test_unknown_key_exits_2_naming_the_file_and_path(capsys, data_dir, tmp_path, reader, where):
    bad = tmp_path / "bad.json"
    code, _, err = run_cli(capsys, *_unknown_key_in(reader, data_dir, bad))
    assert code == 2
    assert f"{reader} {bad}: {where}: unknown key" in err


def test_run_corrupt_replay_store_exits_2(capsys, suite_dir, tmp_path):
    store = tmp_path / "store.json"
    store.write_text("{not json")
    code, _, err = run_cli(
        capsys, "run", "--task", str(suite_dir / "kettle-capacity.json"), "--replay", str(store),
    )
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("content,why", [
    ("{not json", " is not valid JSON"),
    (json.dumps({"assets": {"https://img.example/a.jpg": {"annotations": "a kettle"}}}),
     ': assets.https://img.example/a.jpg.annotations: must be an object, got "a kettle"'),
    (json.dumps({"assets": {"https://img.example/a.jpg": "a kettle"}}),
     ': assets.https://img.example/a.jpg: must be an object, got "a kettle"'),
    (json.dumps({"assets": {"https://img.example/a.jpg": {"annotations": {"damage": "cracked"}}}}),
     ": assets.https://img.example/a.jpg.annotations.default: missing"),
    (json.dumps({"assets": {"https://img.example/a.jpg": {"annotations": {"default": 5}}}}),
     ": assets.https://img.example/a.jpg.annotations.default: must be a string, got 5"),
    (json.dumps({"rules": [{"keywords": ["crack"]}]}), ": rules[0].category: missing"),
    (json.dumps({"rules": [{"category": "damage", "keywords": "crack"}]}),
     ': rules[0].keywords: must be a list, got "crack"'),
    (json.dumps({"assets": {"https://img.example/a.jpg": {
        "annotations": {"default": "a kettle"}, "rules": [{"category": 5, "keywords": []}]}}}),
     ": assets.https://img.example/a.jpg.rules[0].category: must be a string, got 5"),
], ids=["not-json", "annotations-not-object", "asset-not-object", "annotations-without-default",
        "annotation-not-string", "rule-without-category",
        "keywords-not-list", "asset-rule-category-not-string"])
def test_run_malformed_fixtures_file_exits_2(capsys, suite_dir, scripts_dir, tmp_path,
                                             content, why):
    fixtures = tmp_path / "fixtures.json"
    fixtures.write_text(content)
    code, _, err = run_cli(
        capsys, "run", "--task", str(suite_dir / "kettle-capacity.json"),
        "--script", str(scripts_dir / "kettle-capacity.json"), "--fixtures", str(fixtures),
    )
    assert code == 2
    assert str(fixtures) in err and why in err
    assert f"vision fixture file {fixtures}{why}" in err


def test_run_failure_exits_1(capsys, suite_dir, scripts_dir, tmp_path):
    # wrong-label negative: flip the first round's evaluation
    script = json.loads((scripts_dir / "kettle-capacity.json").read_text())
    for entry in script["entries"]:
        if entry["response"].get("label_probs") == {"A": 0.9, "B": 0.1}:
            entry["response"]["label_probs"] = {"A": 0.1, "B": 0.9}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(script))
    code, out, _ = run_cli(
        capsys, "run",
        "--task", str(suite_dir / "kettle-capacity.json"),
        "--script", str(bad),
    )
    assert code == 1
    assert "success=false" in out


@pytest.mark.parametrize("steps", [5, True, 2.5])
def test_run_plan_steps_not_a_list_is_a_proposal_episode_error(capsys, suite_dir, tmp_path, steps):
    plans = [{"kind": "single_tool", "steps": steps, "rationale": "r"}]
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"entries": [
        {"contains": "", "response": {"text": "```json\n" + json.dumps(plans) + "\n```"}}]}))
    code, out, err = run_cli(capsys, "run", "--task", str(suite_dir / "kettle-capacity.json"),
                             "--script", str(script))
    assert code == 1
    assert "success=false replies=0" in out
    assert "episode error: ProposalError: no parseable plan in backend reply" in err


def test_metrics_improvements_reproduce_reported_numbers(capsys):
    code, out, _ = run_cli(
        capsys, "metrics",
        "--improvement", "31.39:89.82",
        "--improvement", "64.56:65.15",
        "--time-reduction", "11.59:5.93",
    )
    assert code == 0
    assert "186.14%" in out
    assert "0.91%" in out
    assert "mean_relative_improvement=93.53%" in out
    assert "time_reduction(11.59, 5.93)=48.84%" in out


def test_metrics_annotations(capsys, tmp_path):
    path = tmp_path / "ann.csv"
    rows = ["session_id,message_id,source,judged_valid"]
    rows += [f"s,m{i},ai,{1 if i < 3 else 0}" for i in range(4)]
    rows += [f"s,c{i},cr,1" for i in range(6)]
    path.write_text("\n".join(rows))
    code, out, _ = run_cli(capsys, "metrics", "--annotations", str(path))
    assert code == 0
    assert "ai_contribution_ratio=0.3000" in out


def test_metrics_records_passk(capsys, tmp_path):
    for trial in range(5):
        (tmp_path / f"t-{trial}.result.json").write_text(json.dumps({
            "task_id": "t", "trial_index": trial, "success": trial < 3,
            "wall_time_ms": 1.0, "modality": "unimodal",
        }))
    code, out, _ = run_cli(capsys, "metrics", "--records", str(tmp_path), "--k", "1,2")
    assert code == 0
    assert "pass^1=0.6000" in out
    assert "pass^2=0.3000" in out


@pytest.mark.parametrize("k", [",", ""])
def test_metrics_empty_k_list_exits_2(capsys, tmp_path, k):
    (tmp_path / "t-0.result.json").write_text(json.dumps({
        "task_id": "t", "trial_index": 0, "success": True,
        "wall_time_ms": 1.0, "modality": "unimodal",
    }))
    code, out, err = run_cli(capsys, "metrics", "--records", str(tmp_path), "--k", k)
    assert code == 2
    assert f"empty k list: {k!r}" in err
    assert out == ""


@pytest.mark.parametrize("k, complaint", [("banana", "bad k list: 'banana'"),
                                          ("1", "--k needs --records")])
def test_metrics_checks_k_without_records(capsys, k, complaint):
    code, out, err = run_cli(capsys, "metrics", "--improvement", "1:2", "--k", k)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {complaint}"]


def test_metrics_records_without_k_reports_pass_1_and_5(capsys, tmp_path):
    for trial in range(5):
        (tmp_path / f"t-{trial}.result.json").write_text(json.dumps({
            "task_id": "t", "trial_index": trial, "success": True,
            "wall_time_ms": 1.0, "modality": "unimodal",
        }))
    code, out, _ = run_cli(capsys, "metrics", "--records", str(tmp_path))
    assert (code, out.splitlines()) == (0, ["pass^1=1.0000", "pass^5=1.0000"])


def test_metrics_empty_records_dir_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "metrics", "--records", str(tmp_path))
    assert code == 2
    assert "result.json" in err


def test_metrics_annotations_with_a_field_over_the_csv_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(f"session_id,message_id,source,judged_valid\ns,{'m' * 200_000},ai,1\n")
    code, out, err = run_cli(capsys, "metrics", "--annotations", str(path))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: annotations file {path} line 2: ")


@pytest.mark.parametrize("row", ["s,m1,ai,1,surplus,cells", "s,m1,ai,1,"],
                         ids=["two-surplus-cells", "one-empty-surplus-cell"])
def test_metrics_annotations_row_with_more_cells_than_the_header_exits_2(capsys, tmp_path, row):
    path = tmp_path / "ann.csv"
    path.write_text(f"session_id,message_id,source,judged_valid\ns,m0,ai,0\n{row}\n")
    code, out, err = run_cli(capsys, "metrics", "--annotations", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: annotations file {path}: malformed annotation rows at lines: [3]"]


def test_metrics_missing_annotations_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "none.csv"
    code, _, err = run_cli(capsys, "metrics", "--annotations", str(missing))
    assert code == 2
    assert f"annotations file {missing} cannot be read" in err


def test_metrics_corrupt_record_exits_2(capsys, tmp_path):
    corrupt = tmp_path / "t-0.result.json"
    corrupt.write_text('{"task_id": "t", "succ')
    code, _, err = run_cli(capsys, "metrics", "--records", str(tmp_path))
    assert code == 2
    assert f"trial record {corrupt} is not valid JSON" in err


def test_metrics_requires_some_input(capsys):
    code, _, err = run_cli(capsys, "metrics")
    assert code == 2


def test_metrics_bad_pair_exits_2(capsys):
    code, _, err = run_cli(capsys, "metrics", "--improvement", "31.39")
    assert code == 2
    assert "BASELINE:TREATMENT" in err


@pytest.mark.parametrize("flag,pair", [("--improvement", "nan:1"), ("--improvement", "inf:2"),
                                       ("--time-reduction", "1:inf")])
def test_metrics_pair_that_is_not_finite_exits_2(capsys, flag, pair):
    code, out, err = run_cli(capsys, "metrics", flag, pair)
    assert code == 2
    assert out == ""
    assert f"must be finite numbers, got {pair!r}" in err


def test_bench_prints_monotone_pass_table(capsys, suite_dir, scripts_dir):
    code, out, _ = run_cli(
        capsys, "bench",
        "--suite", str(suite_dir), "--scripts", str(scripts_dir),
        "--n-trials", "2", "--k", "1,2",
    )
    assert code == 0
    header, _, row = out.splitlines()[:3]
    cells = row.split()
    k1, k2 = float(cells[1]), float(cells[2])
    assert k1 >= k2
    assert k1 == 1.0  # bundled suite is deterministic


def test_a_propose_reply_json_cannot_read_ends_only_its_own_episode(
        capsys, suite_dir, scripts_dir, tmp_path):
    scripts = shutil.copytree(scripts_dir, tmp_path / "scripts")
    kettle = scripts / "kettle-capacity.json"
    rows = json.loads(kettle.read_text())
    [entry] = [e for e in rows["entries"] if e["contains"] == "hold two liters"]
    entry["response"]["text"] = "Candidate plans:\n```json\n" + "[" * 5_000 + "\n```"
    kettle.write_text(json.dumps(rows))
    code, out, _ = run_cli(capsys, "bench", "--suite", str(suite_dir), "--scripts", str(scripts),
                           "--n-trials", "1", "--k", "1", "--out", str(tmp_path / "out"))
    assert code == 1
    header, _, table_row = out.splitlines()[:3]  # the table prints before the exit
    assert (header.split()[-1], table_row.split()[-1]) == ("failures", "1")
    out_dir = tmp_path / "out"
    [row] = json.loads((out_dir / "report.json").read_text())
    assert (row["episodes"], row["failures"]) == (13, 1)
    result = json.loads((out_dir / "trials" / "kettle-capacity-t0.result.json").read_text())
    assert result["error"].startswith("ProposalError: fenced block is not valid JSON: maximum")


def test_bench_k_above_n_exits_2(capsys, suite_dir, scripts_dir):
    code, _, err = run_cli(
        capsys, "bench",
        "--suite", str(suite_dir), "--scripts", str(scripts_dir),
        "--n-trials", "2", "--k", "7",
    )
    assert code == 2


@pytest.mark.parametrize("command", [["bench"], ["ablate", "--vary", "aci"]],
                         ids=["bench", "ablate"])
def test_empty_k_list_exits_2_before_any_episode(capsys, monkeypatch, command):
    monkeypatch.setattr(bench, "run_episode", lambda *a, **kw: pytest.fail("ran an episode"))
    code, out, err = run_cli(capsys, *command, "--n-trials", "1", "--k", ",")
    assert code == 2
    assert "empty k list: ','" in err
    assert out == ""


@pytest.mark.parametrize("command", [["bench"], ["ablate", "--vary", "aci"]],
                         ids=["bench", "ablate"])
@pytest.mark.parametrize("flag,value", [("--workers", "0"), ("--workers", "-5"),
                                        ("--n-trials", "0")])
def test_counts_below_one_exit_2_naming_the_flag(capsys, command, flag, value):
    code, out, err = run_cli(capsys, *command, "--k", "1", flag, value)
    assert code == 2
    assert f"{flag} must be >= 1, got {value}" in err
    assert out == ""


def test_bench_with_workers_writes_the_serial_artifacts(capsys, tmp_path):
    # sessions on two threads share the parsed scripts, templates and tool table
    for workers in ("1", "2"):
        code, _, _ = run_cli(capsys, "bench", "--n-trials", "2", "--k", "1",
                             "--workers", workers, "--out", str(tmp_path / workers))
        assert code == 0
    serial = sorted((tmp_path / "1" / "trials").glob("*.*.jsonl"))
    assert len(serial) == 13 * 2 * 2  # a transcript and a trace per episode
    for path in serial:
        parallel = tmp_path / "2" / "trials" / path.name
        assert parallel.read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("command,variants", [(["bench"], 1), (["ablate", "--vary", "aci"], 2)])
def test_a_suite_command_reads_each_template_once_per_variant(capsys, monkeypatch, command,
                                                              variants):
    loads = []
    load_template = decision.load_template

    def counted(name, template_dir=None):
        loads.append(name)
        return load_template(name, template_dir)

    monkeypatch.setattr(decision, "load_template", counted)
    code, out, _ = run_cli(capsys, *command, "--n-trials", "1", "--k", "1")
    assert code == 0 and out
    assert loads == ["propose.txt", "evaluate.txt"] * variants  # 13 episodes per variant


def test_a_template_rewritten_between_two_commands_is_read_by_the_second(capsys, tmp_path,
                                                                         data_dir):
    templates = tmp_path / "templates"
    templates.mkdir()
    for name in ("propose.txt", "evaluate.txt"):
        (templates / name).write_text((data_dir.parent / "templates" / name).read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"template_dir": str(templates)}))
    preface = "Be brief.\n"
    rows = []
    for run in ("before", "after"):
        code, _, _ = run_cli(capsys, "bench", "--n-trials", "1", "--k", "1",
                             "--config", str(config), "--out", str(tmp_path / run))
        assert code == 0
        [row] = json.loads((tmp_path / run / "report.json").read_text())
        rows.append(row)
        propose = templates / "propose.txt"
        propose.write_text(preface + propose.read_text())
    before, after = (row["usage"] for row in rows)
    assert rows[1]["pass_hat_k"] == {"1": 1.0}
    assert after["backend_calls"] == before["backend_calls"]
    # each round makes one propose and one evaluate call; every propose prompt gains the preface
    assert after["prompt_chars"] - before["prompt_chars"] == \
        len(preface) * before["backend_calls"] // 2


class FakeRemote:
    """Stands in for RemoteBackend, which needs an endpoint; never asked to complete."""


@pytest.mark.parametrize("backend", [["--remote"], []], ids=["remote", "scripted"])
def test_suite_hands_workers_on_for_every_backend(capsys, monkeypatch, backend):
    handed = []

    def fake_run_ablation(tasks, variants, chat_for, vision, n_trials, k_values, workers=1,
                          templates=None):
        handed.append(workers)
        chat = chat_for(tasks[0])
        assert isinstance(chat, FakeRemote) == bool(backend)
        usage = {"prompt_chars": 0, "backend_calls": 0}
        times = {"all": 0.0, "multimodal": None, "unimodal": None}
        return [{"name": name, "pass_hat_k": {"1": 1.0}, "mean_time_ms": times, "usage": usage,
                 "failures": 0} for name, _ in variants], []

    monkeypatch.setattr(bench, "run_ablation", fake_run_ablation)
    monkeypatch.setattr(cli, "RemoteBackend", FakeRemote)
    code, _, err = run_cli(capsys, "bench", *backend, "--n-trials", "1", "--k", "1", "--workers", "2")
    assert code == 0
    assert handed == [2]
    assert err == ""


def test_ablate_vary_aci(capsys, suite_dir, scripts_dir, tmp_path):
    code, out, _ = run_cli(
        capsys, "ablate",
        "--suite", str(suite_dir), "--scripts", str(scripts_dir),
        "--vary", "aci", "--modality", "multimodal",
        "--n-trials", "1", "--k", "1",
        "--out", str(tmp_path / "report"),
    )
    assert code == 0
    assert "aci-off" in out and "aci-on" in out
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    by_name = {r["name"]: r for r in report}
    assert by_name["aci-on"]["usage"]["prompt_chars"] < by_name["aci-off"]["usage"]["prompt_chars"]


@pytest.mark.parametrize("axis,flag,value", [("aci", "--aci", "off"),
                                             ("decision", "--decision-module", "off"),
                                             ("strategy", "--strategy", "planner")])
def test_ablate_vary_refuses_the_flag_its_arms_set_before_out_is_made(
        capsys, tmp_path, monkeypatch, axis, flag, value):
    monkeypatch.setattr(bench, "run_episode", _never)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "ablate", "--vary", axis, flag, value,
                                "--n-trials", "1", "--k", "1", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.splitlines() == [f"error: {flag} cannot be combined with --vary {axis}, "
                                "whose arms each set it"]
    assert not out.exists()


def test_ablate_vary_lays_its_arms_over_the_config_file(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"aci": "off", "n_candidates": 2}))
    code, _, _ = run_cli(capsys, "ablate", "--vary", "aci", "--config", str(config),
                         "--modality", "multimodal", "--n-trials", "1", "--k", "1",
                         "--out", str(tmp_path / "report"))
    assert code == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text())
    assert [(r["name"], r["flags"]["aci"], r["flags"]["n_candidates"]) for r in report] == [
        ("aci-off", "off", 2), ("aci-on", "on", 2)]


HELP_DIR = Path(__file__).parent / "help"


@pytest.mark.parametrize("command", ["run", "chat", "bench", "ablate"])
def test_help_text_is_pinned(capsys, monkeypatch, command):
    """Each agent flag is built from a row of config.KEYS; its --help must not move."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out == (HELP_DIR / f"{command}.txt").read_text()


def test_config_file_flag_precedence(capsys, suite_dir, scripts_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"confidence_floor": 0.99}))
    # the file floor would force a clarification; the flag overrides it back to 0
    code, out, _ = run_cli(
        capsys, "run",
        "--task", str(suite_dir / "kettle-capacity.json"),
        "--script", str(scripts_dir / "kettle-capacity.json"),
        "--config", str(config),
        "--confidence-floor", "0",
    )
    assert code == 0
    assert "success=true" in out


def test_chat_repl_scripted_session(capsys, monkeypatch):
    lines = iter(["Tell me about the kettle", "/trace", ""])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code, out, _ = run_cli(capsys, "chat")
    assert code == 0
    assert "agent> The Stormcap kettle holds 2 liters" in out
    assert "round 0" in out          # decision rounds are shown
    assert '"kind": "decision"' in out  # /trace dumps the action trace


def test_chat_prints_a_turn_in_trace_order(capsys, monkeypatch):
    lines = iter(["Tell me about the kettle", ""])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code, out, _ = run_cli(capsys, "chat")
    assert code == 0
    first, tool, second = (out.index(s) for s in ("round 0", "tool product_info(", "round 1"))
    assert first < tool < second  # the lookup ran between the two rounds


def test_chat_over_piped_stdin_starts_each_printed_line_on_its_own(capsys, monkeypatch):
    # piped input is not echoed, so a prompt would share its line with what follows it
    monkeypatch.setattr("sys.stdin", io.StringIO("Tell me about the kettle\n/trace\n\n"))
    code, out, err = run_cli(capsys, "chat")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "agent> The Stormcap kettle holds 2 liters and is stainless steel - lovely for soup." in lines
    traced = [line for line in lines if '"kind": ' in line]
    assert len(traced) > 4
    assert all(json.loads(line)["kind"] for line in traced)
    assert "buyer> " not in out


def test_chat_with_a_task_and_no_backend_exits_2_before_any_input(capsys, suite_dir,
                                                                    monkeypatch):
    monkeypatch.setattr("builtins.input", _never)
    code, stdout, err = run_cli(capsys, "chat", "--task", str(suite_dir / "kettle-capacity.json"))
    assert (code, stdout) == (2, "")
    assert err.splitlines() == ["error: select exactly one backend: --script, --replay, "
                                "or --remote"]


def test_chat_eof_exits_zero(capsys, monkeypatch):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    code, _, _ = run_cli(capsys, "chat")
    assert code == 0


def test_replay_prints_transcript(capsys, suite_dir, scripts_dir, tmp_path):
    run_cli(
        capsys, "run",
        "--task", str(suite_dir / "kettle-capacity.json"),
        "--script", str(scripts_dir / "kettle-capacity.json"),
        "--out", str(tmp_path),
    )
    code, out, _ = run_cli(
        capsys, "replay",
        "--transcript", str(tmp_path / "kettle-capacity-t0.transcript.jsonl"),
        "--trace", str(tmp_path / "kettle-capacity-t0.trace.jsonl"),
    )
    assert code == 0
    assert "[buyer]" in out and "[agent]" in out
    assert "[decision]" in out


def test_replay_empty_transcript_exits_2(capsys, tmp_path):
    empty = tmp_path / "s.transcript.jsonl"
    empty.write_text("")
    code, stdout, err = run_cli(capsys, "replay", "--transcript", str(empty))
    assert (code, stdout) == (2, "")
    assert err.splitlines() == [f"error: transcript {empty} holds no messages"]


def test_replay_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "replay", "--transcript", str(tmp_path / "none.jsonl"))
    assert code == 2


@pytest.mark.parametrize("broken", ["transcript", "trace"])
def test_replay_malformed_line_exits_2(capsys, tmp_path, broken):
    good = ('{"session_id": "s", "turn_index": 0, "role": "buyer",'
            ' "parts": [{"kind": "text", "value": "hi"}]}\n')
    files = {"transcript": tmp_path / "s.transcript.jsonl", "trace": tmp_path / "s.trace.jsonl"}
    files["transcript"].write_text(good + ("{" if broken == "transcript" else ""))
    files["trace"].write_text('{"kind": "tool_call"}\n' + ("{" if broken == "trace" else ""))
    code, _, err = run_cli(capsys, "replay", "--transcript", str(files["transcript"]),
                           "--trace", str(files["trace"]))
    assert code == 2
    assert f"{broken} {files[broken]} line 2 is not valid JSON" in err


GOOD_TURN = ('{"session_id": "s", "turn_index": 0, "role": "buyer",'
             ' "parts": [{"kind": "text", "value": "hi"}]}\n')


@pytest.mark.parametrize("broken,line,why", [
    ("transcript", "[1]", "line 2 must hold a JSON object"),
    ("transcript", '{"session_id": "s", "turn_index": 1, "role": "agent"}',
     "line 2: parts: missing"),
    ("transcript", '{"session_id": "s", "turn_index": 5, "role": "agent",'
     ' "parts": [{"kind": "text", "value": "ok"}]}',
     "line 2 is not the next message: SequencingError: expected turn_index 1, got 5"),
    ("transcript", '{"session_id": "s", "turn_index": 1, "role": "agent", "speaker": "x",'
     ' "parts": [{"kind": "text", "value": "ok"}]}', "line 2: speaker: unknown key"),
    ("transcript", '{"session_id": "s", "turn_index": 1, "role": "agent", "timestamp": "noon",'
     ' "parts": [{"kind": "text", "value": "ok"}]}',
     'line 2: timestamp: must be an integer, got "noon"'),
    ("transcript", '{"session_id": "s", "turn_index": "1", "role": "agent",'
     ' "parts": [{"kind": "text", "value": "ok"}]}',
     'line 2: turn_index: must be an integer, got "1"'),
    ("transcript", '{"session_id": "other", "turn_index": 1, "role": "agent",'
     ' "parts": [{"kind": "text", "value": "ok"}]}', "line 2 is in session 'other', not 's'"),
    ("trace", "[1]", "line 2 must hold a JSON object"),
    ("trace", "{}", "line 2: kind: missing"),
], ids=["transcript-list", "transcript-without-parts", "transcript-out-of-order",
        "transcript-unknown-key", "transcript-timestamp-not-integer",
        "transcript-turn-index-not-integer", "transcript-two-sessions", "trace-list",
        "trace-without-kind"])
def test_replay_malformed_row_exits_2(capsys, tmp_path, broken, line, why):
    good = {"transcript": GOOD_TURN, "trace": '{"kind": "tool_call"}\n'}
    files = {name: tmp_path / f"s.{name}.jsonl" for name in good}
    for name, path in files.items():
        path.write_text(good[name] + (line if name == broken else ""))
    code, _, err = run_cli(capsys, "replay", "--transcript", str(files["transcript"]),
                           "--trace", str(files["trace"]))
    assert code == 2
    assert f"{broken} {files[broken]} {why}" in err


@pytest.mark.parametrize("row,why", [
    ({"success": True}, "task_id: missing"),
    ({"task_id": "t"}, "success: missing"),
    ({"task_id": "t", "success": "yes"}, 'success: must be a boolean, got "yes"'),
    ({"task_id": "t", "success": True, "wall_time_ms": "slow"},
     'wall_time_ms: must be a number, got "slow"'),
], ids=["without-task-id", "without-success", "success-not-bool", "wall-time-not-number"])
def test_metrics_malformed_record_exits_2(capsys, tmp_path, row, why):
    record = tmp_path / "t-0.result.json"
    record.write_text(json.dumps(row))
    code, _, err = run_cli(capsys, "metrics", "--records", str(tmp_path))
    assert code == 2
    assert f"trial record {record}: {why}" in err


# --- every input file: a directory, non-UTF-8 bytes or the wrong JSON type exits 2 ---

# reader -> (the name of the file it is given, contents of the wrong JSON type or None)
READERS = {
    "config": ("config.json", "[1]"),
    "matrix": ("matrix.json", "{}"),
    "task": ("task.json", "[1]"),
    "fixtures": ("fixtures.json", "[1]"),
    "script": ("script.json", "[1]"),
    "template": ("propose.txt", None),
    "replay store": ("store.json", "[1]"),
    "transcript": ("s.transcript.jsonl", "[1]"),
    "trace": ("s.trace.jsonl", "[1]"),
    "trial record": ("t-0.result.json", "[1]"),
    "annotations": ("ann.csv", None),
}
READER_CASES = [(reader, fault) for reader, (_, wrong) in READERS.items()
                for fault in ("directory", "non-utf8", "wrong-type")
                if fault != "wrong-type" or wrong is not None]


def _argv_reading(reader, bad, tmp_path, data_dir):
    """CLI arguments that read bad as the given kind of input file, with good other inputs."""
    task = str(data_dir / "suite" / "kettle-capacity.json")
    script = str(data_dir / "scripts" / "kettle-capacity.json")
    run = ["run", "--task", task, "--script", script]
    transcript = tmp_path / "good.transcript.jsonl"
    transcript.write_text(GOOD_TURN)
    config = tmp_path / "templates.json"
    config.write_text(json.dumps({"template_dir": str(bad.parent)}))
    return {
        "config": run + ["--config", str(bad)],
        "matrix": ["ablate", "--matrix", str(bad), "--n-trials", "1", "--k", "1"],
        "task": ["run", "--task", str(bad), "--script", script],
        "fixtures": run + ["--fixtures", str(bad)],
        "script": ["run", "--task", task, "--script", str(bad)],
        "template": run + ["--config", str(config)],
        "replay store": ["run", "--task", task, "--replay", str(bad)],
        "transcript": ["replay", "--transcript", str(bad)],
        "trace": ["replay", "--transcript", str(transcript), "--trace", str(bad)],
        "trial record": ["metrics", "--records", str(bad.parent), "--k", "1"],
        "annotations": ["metrics", "--annotations", str(bad)],
    }[reader]


@pytest.mark.parametrize("reader,fault", READER_CASES,
                         ids=[f"{r.replace(' ', '-')}-{f}" for r, f in READER_CASES])
def test_bad_input_file_exits_2_naming_it(capsys, data_dir, tmp_path, reader, fault):
    name, wrong = READERS[reader]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    stock = data_dir.parent / "templates" / "evaluate.txt"
    (inputs / "evaluate.txt").write_text(stock.read_text())  # the good half of a template dir
    bad = inputs / name
    if fault == "directory":
        bad.mkdir()
    elif fault == "non-utf8":
        bad.write_bytes(b'\xff\xfe{"a": 1}')
    else:
        bad.write_text(wrong)
    code, _, err = run_cli(capsys, *_argv_reading(reader, bad, tmp_path, data_dir))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err
