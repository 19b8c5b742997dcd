"""The benchmark's generated workloads: determinism, validity, script shape, decision-module off."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import workloads  # noqa: E402
from shopclerk import cli, episode  # noqa: E402
from shopclerk.config import AgentConfig  # noqa: E402
from shopclerk.backends import ScriptedBackend  # noqa: E402
from shopclerk.tasks import load_suite  # noqa: E402
from shopclerk.vision import FixtureVisionBackend  # noqa: E402

GENERATED = [name for name, w in workloads.WORKLOADS.items() if w.generate is not None]


def _bytes(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module", params=GENERATED)
def generated(request, tmp_path_factory):
    workload = workloads.WORKLOADS[request.param]
    out = tmp_path_factory.mktemp(request.param)
    return workload, workloads.prepare(workload, 7, out)


@pytest.mark.parametrize("name", GENERATED)
def test_same_seed_same_bytes_other_seed_differs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
        workloads.prepare(workload, seed, tmp_path / tag)
    first, again, other = (_bytes(tmp_path / tag) for tag in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[rel] != other[rel] for rel in first)


def test_files_load_with_fixture_validation(generated):
    workload, inputs = generated
    tasks = load_suite(inputs.suite, vision_fixtures=FixtureVisionBackend.from_file(inputs.fixtures))
    assert tasks and all(t.modality == "multimodal" for t in tasks)
    assert sorted(p.stem for p in inputs.scripts.glob("*.json")) == [t.task_id for t in tasks]


def test_scripts_use_only_contains_needles_each_firing_in_one_turn(generated, monkeypatch):
    """Run every session once and record which turn each script entry serves."""
    workload, inputs = generated
    turn = {"index": -1}
    fired: dict[tuple[str, str], set[int]] = {}
    handle_buyer_turn = episode.AgentSession.handle_buyer_turn
    complete = ScriptedBackend.complete

    def counted_turn(session, utterance):
        turn["index"] += 1
        return handle_buyer_turn(session, utterance)

    def matched_complete(backend, request):
        entry = next(e for e in backend.entries if e.contains in request.last_content())
        fired.setdefault((backend.task_id, entry.contains), set()).add(turn["index"])
        return complete(backend, request)

    monkeypatch.setattr(episode.AgentSession, "handle_buyer_turn", counted_turn)
    monkeypatch.setattr(ScriptedBackend, "complete", matched_complete)
    fixtures = FixtureVisionBackend.from_file(inputs.fixtures)
    config = AgentConfig()
    for task in load_suite(inputs.suite, vision_fixtures=fixtures):
        rows = json.loads((inputs.scripts / f"{task.task_id}.json").read_text())["entries"]
        assert all(set(row) == {"contains", "response"} for row in rows)
        needles = [row["contains"] for row in rows]
        assert len(set(needles)) == len(needles)
        backend = ScriptedBackend.from_file(inputs.scripts / f"{task.task_id}.json")
        backend.task_id = task.task_id
        turn["index"] = -1
        result = episode.run_episode(task, config, backend, fixtures)
        assert result.success and result.error is None
        served = {n for (tid, n) in fired if tid == task.task_id}
        assert served == set(needles)
    assert all(len(turns) == 1 for turns in fired.values())


def test_generated_workloads_pass_with_decision_module_off(generated, tmp_path):
    workload, inputs = generated
    out = tmp_path / "report"
    code = cli.main(["bench", "--suite", str(inputs.suite), "--scripts", str(inputs.scripts),
                     "--fixtures", str(inputs.fixtures), "--n-trials", "1", "--k", "1",
                     "--decision-module", "off", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())[0]
    assert code == 0
    assert report["failures"] == 0 and report["pass_hat_k"]["1"] == 1.0
    assert report["usage"]["backend_calls"] > 0
